"""pauligeom benchmark: run one workload for one seed and check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client; see README.md):
  verify_full  cold `python -m pauligeom verify --n 4 --level full --no-timings`
  cli_session  a seeded stream of cold CLI commands
  query_warm   one process fills the caches, then answers seeded figure queries

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones, over every op of the run and at a fixed reference pace (pace.py);
with --trace 1 they are the per-layer ones, taken from a fixed, seeded
list of ops run untraced and traced in turn.  Exits 1 without a result when the program cannot be set up (for
example, no `src/`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import bootstrap
import checks
import inputs
import pace
import paced
import reference
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable

WORKLOADS = ("verify_full", "cli_session", "query_warm")
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 9
# Blocks of ops in a traced run.  A cold workload runs each op untraced,
# then traced; query_warm's worker runs its blocks untraced and traced in
# turn.
TRACED_BLOCKS = {"verify_full": 1, "cli_session": 1, "query_warm": 200}
# Prints the import time at the reference pace, probed right after it.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import pauligeom.cli; "
                f"s = time.perf_counter() - t; sys.path.append({str(HERE)!r}); "
                "import pace; print(s * pace.factor(pace.sample()))")


class SetupError(Exception):
    """The program could not be started or set up; no result is printed."""


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_child(argv) -> Child:
    """Run a process to completion.  Its CPU time and peak RSS come from
    wait4, so they include the worker processes it started and reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out.decode(), err[0].decode(), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


@dataclass
class Tally:
    """What a loop of ops measured."""

    lat_ms: list = field(default_factory=list)
    cpu_ms: list = field(default_factory=list)
    pace: list = field(default_factory=list)  # each op's pace factor (pace.py)
    busy_s: float = 0.0  # the loop's wall time less making inputs and checking outputs
    rss_mb: float = 0.0
    failed: int = 0
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=lambda: dict.fromkeys(LAYER_METRICS, 0.0))
    spans: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.lat_ms)

    def fail(self, problem: str):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def run_op(op, r4, tally: Tally, traced=False) -> float:
    """Run one CLI command, record it in `tally` and check its output;
    returns the seconds the check took.  Untraced, the command runs
    through paced.py: the probes' time is taken out of its wall and CPU
    time, and their median gives its pace factor."""
    child = run_child([PY, str(HERE / ("bootstrap.py" if traced else "paced.py")), *op.argv])
    last = child.stderr.rstrip("\n").rpartition("\n")[2]
    probe_s = 0.0
    if traced and last.startswith(bootstrap.MARK):
        trace = json.loads(last[len(bootstrap.MARK):])
        for k, v in trace["metrics"].items():
            tally.layers[k] += v
        tally.spans.append({"op": tally.attempted, "argv": op.argv, "spans": trace["spans"]})
    elif traced:
        tally.fail(f"{' '.join(op.argv)}: no trace")
    elif last.startswith(paced.MARK):
        probes = json.loads(last[len(paced.MARK):])
        probe_s = sum(probes)
        tally.pace.append(pace.factor(probes))
    else:  # the command died; its exit code fails the check below
        tally.pace.append(1.0)
    tally.lat_ms.append((child.wall_s - probe_s) * 1000.0)
    tally.cpu_ms.append((child.cpu_s - probe_s) * 1000.0)
    tally.rss_mb = max(tally.rss_mb, child.rss_mb)
    t0 = time.perf_counter()
    problem = checks.check_op(op, child.returncode, child.stdout, r4)
    if problem:
        tally.fail(f"{' '.join(op.argv)}: {problem}")
    return time.perf_counter() - t0


def cold_loop(blocks, r4, seconds: float) -> Tally:
    """Run blocks of CLI commands one command after another (closed loop,
    one client).  A block starts only if the median block so far still
    fits before the deadline, so a run measures whole blocks and ends on
    time."""
    tally = Tally()
    block_s, harness_s = [], 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if block_s and t0 + statistics.median(block_s) > start + seconds:
            break
        block = next(blocks)
        harness_s += time.perf_counter() - t0
        for op in block:
            harness_s += run_op(op, r4, tally)
        block_s.append(time.perf_counter() - t0)
    tally.busy_s = time.perf_counter() - start - harness_s
    return tally


def cold_setup(samples: int) -> float:
    """Median time to import pauligeom.cli in a fresh interpreter, at the
    reference pace."""
    times = []
    for _ in range(samples):
        child = run_child([PY, "-c", IMPORT_PROBE])
        if child.returncode != 0:
            raise SetupError("cannot import pauligeom.cli: "
                             + child.stderr.strip().rsplit("\n", 1)[-1])
        times.append(float(child.stdout))
    return statistics.median(times)


def warm_worker(seed: int, *flags) -> dict:
    child = run_child([PY, str(HERE / "warm.py"), "--seed", str(seed), *flags])
    if child.returncode != 0:
        raise SetupError("query_warm worker failed: "
                         + child.stderr.strip().rsplit("\n", 1)[-1])
    return json.loads(child.stdout)


def warm_tally(result: dict) -> Tally:
    tally = Tally(lat_ms=result["lat_ms"], cpu_ms=result["cpu_ms"], pace=result["pace"],
                  busy_s=result["busy_s"], rss_mb=result["rss_mb"],
                  failed=result["failed"], problems=result["problems"])
    if "layers" in result:
        tally.layers = result["layers"]
        tally.spans = [{"op": "worker", "spans": result["spans"]}]
    return tally


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """The metrics over every op of the run, with the run's setup time;
    every time at the reference pace (each op's time times its factor)."""
    n = tally.attempted
    lat_ms = [t * f for t, f in zip(tally.lat_ms, tally.pace)]
    busy_factor = sum(lat_ms) / sum(tally.lat_ms)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": percentile(lat_ms, 0.9),
        "throughput_ops_s": n / (tally.busy_s * busy_factor),
        "cpu_ms_per_op": sum(c * f for c, f in zip(tally.cpu_ms, tally.pace)) / n,
        "peak_rss_mb": tally.rss_mb,
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    if workload == "query_warm":
        runs = [warm_worker(seed, "--fill-only") for _ in range(SETUP_SAMPLES - 1)]
        result = warm_worker(seed, "--seconds", str(seconds))
        fills = [r["fill_s"] * r["fill_pace"] for r in runs + [result]]
        tally = warm_tally(result)
        return end_to_end(tally, statistics.median(fills)), tally
    setup_s = cold_setup(SETUP_SAMPLES)
    r4 = None if workload == "verify_full" else reference.Rank4()
    tally = cold_loop(getattr(inputs, workload)(seed, r4), r4, seconds)
    return end_to_end(tally, setup_s), tally


def overhead_pct(plain_cpu_ms, traced_cpu_ms) -> float:
    """Tracing overhead: the median over pairs of ops run untraced and
    then traced, of the traced CPU time over the untraced, less 1, in %.
    CPU time repeats more tightly than wall time on a shared machine, and
    pairing neighbours in time cancels the machine's drift."""
    return (statistics.median(t / p for p, t in zip(plain_cpu_ms, traced_cpu_ms)) - 1) * 100


def trace(workload: str, seed: int) -> tuple[dict, Tally]:
    blocks = TRACED_BLOCKS[workload]
    if workload == "query_warm":
        result = warm_worker(seed, "--blocks", str(blocks), "--trace")
        tally = warm_tally(result)
        overhead = overhead_pct(result["block_cpu_ms"][0::2], result["block_cpu_ms"][1::2])
        runs = [tally]
    else:
        cold_setup(1)
        r4 = None if workload == "verify_full" else reference.Rank4()
        plain, tally = Tally(), Tally()
        stream = getattr(inputs, workload)(seed, r4)
        for _ in range(blocks):
            for op in next(stream):
                run_op(op, r4, plain)
                run_op(op, r4, tally, traced=True)
        overhead = overhead_pct(plain.cpu_ms, tally.cpu_ms)
        runs = [plain, tally]
    metrics = dict(tally.layers, **{"trace.overhead_pct": overhead})
    out = HERE / "out" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(tally.spans))
    return metrics, Tally(lat_ms=[t for r in runs for t in r.lat_ms],
                          failed=sum(r.failed for r in runs),
                          problems=[p for r in runs for p in r.problems][:5])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.trace:
            metrics, tally = trace(args.workload, args.seed)
            units = LAYER_METRICS
        else:
            metrics, tally = measure(args.workload, args.seed, args.seconds)
            units = E2E_UNITS
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cpu_count={os.cpu_count()} python={sys.version.split()[0]}")
    for name, unit in units.items():
        print(f"  {name:<50} {metrics[name]:>14.4f} {unit}")
    if tally.pace:
        print(f"  {'pace factor (median over ops)':<50} {statistics.median(tally.pace):>14.4f}"
              f"   raw latency_p50_ms {statistics.median(tally.lat_ms):.4f}")
    print(f"  {'error_rate':<50} {tally.failed / tally.attempted:>14.4f} "
          f"({tally.failed} of {tally.attempted} ops failed)")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
