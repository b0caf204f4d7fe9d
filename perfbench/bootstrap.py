"""Traced stand-in for `python -m pauligeom ARGS...`.

Times the import of pauligeom.cli, installs the tracing wrappers, runs
`pauligeom.cli.main(ARGS)` and exits with its code.  The CLI's output is
untouched on stdout; the trace goes to stderr as one last line,
`PERFBENCH_TRACE <json>`, holding the per-layer metrics and the spans.
"""

import json
import sys
import time

from tracing import Tracer, layer_metrics

MARK = "PERFBENCH_TRACE "


def main(argv) -> int:
    t0 = time.perf_counter()
    import pauligeom.cli as cli

    import_ms = (time.perf_counter() - t0) * 1000.0
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    trace = {
        "metrics": layer_metrics(tracer.spans, tracer.counts, import_ms),
        "spans": tracer.spans,
    }
    sys.stderr.write(MARK + json.dumps(trace) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
