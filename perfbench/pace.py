"""The machine's pace, measured next to every op, to report op times at
a fixed reference pace.

On a shared machine the speed a vCPU gives a process changes within
seconds with its neighbours' load: the same in-process query takes about
0.55 ms in one stretch and 0.95 ms in the next, and CPU time slows with
it.  The runs of a workload then scatter by a third or more, and a run
measures the machine more than the program.  So the benchmark times a
fixed probe next to each op, on the same machine in the same stretch,
and rescales the op by how much slower than its reference time the probe
ran.  The probe is the benchmark's own pure-Python code (the perp masks
of 64 points, from `reference.py`, which does not import pauligeom), so
no change to the program can change it.

An op's pace factor is `REFERENCE_S` over the median of the probe times
around it; its time times that factor is the time it would take at the
reference pace, the pace at which the probe takes `REFERENCE_S`.
"""

from __future__ import annotations

import gc
import statistics
import time

import reference

# The probe's time on an Intel Xeon vCPU with Python 3.11.7 in a fast
# stretch; only a scale, so it stays fixed for the life of the benchmark.
REFERENCE_S = 0.005
SAMPLES = 3


def probe() -> float:
    """Seconds the fixed probe took just now.  The collector is off while
    it runs, so a collection the program's garbage is due cannot land in
    the probe; it runs at the program's next allocation instead."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for p in range(64):
            reference.perp_mask(p)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def sample() -> list[float]:
    return [probe() for _ in range(SAMPLES)]


def factor(probes) -> float:
    """Reference pace over the pace the probes ran at."""
    return REFERENCE_S / statistics.median(probes)


def block_factors(probes) -> list[float]:
    """One factor per block of ops, from the probes taken after each block:
    the median of the probes within two blocks of it, so that one probe
    hit by an interrupt does not rescale a block on its own."""
    return [factor(probes[max(0, i - 2):i + 3]) for i in range(len(probes))]
