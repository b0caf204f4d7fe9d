"""Paced stand-in for `python -m pauligeom ARGS...`.

Runs the package's `__main__` the way `-m` does (runpy, with `sys.argv`
set alike), and times the pace probe (pace.py) in the same process:
three times before the program starts, every half second of its run
from a SIGALRM handler, which runs between the program's bytecodes on
the vCPU the program runs on, and three times after it returns.  The
CLI's output is untouched on stdout; the probe times go to stderr as one
last line, `PERFBENCH_PACE <json list of seconds>`, so that the caller
can take them out of the command's time and rescale the rest.
"""

import json
import runpy
import signal
import sys

import pace

MARK = "PERFBENCH_PACE "
INTERVAL_S = 0.5


def main():
    probes = pace.sample()
    signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(pace.probe()))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        runpy.run_module("pauligeom", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code  # sys.exit below treats it as Python would
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    sys.stdout.flush()
    probes += pace.sample()
    sys.stderr.write(MARK + json.dumps(probes) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
