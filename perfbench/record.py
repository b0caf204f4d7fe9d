"""Run the benchmark over several seeds and record a BENCH_<label>.json.

    python3 perfbench/record.py --label NAME

For each of the seeds 1 to 10, every workload runs once untraced
(workloads interleaved, so drift on a shared machine spreads over all of
them); then each workload runs traced once, on seed 1.  The file records
the machine, Python version, os.cpu_count(), git SHA, seeds and every
run's result, and per end-to-end metric the median, quartiles and spread
(quartile distance over median, as statistics.quantiles gives them) next
to the bound BENCHMARK.json fixes, and the best run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    return {"seed": seed, "trace": trace, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def git_sha() -> str:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+modified-src" if dirty else "")


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": model, "cpu_count": os.cpu_count()}


def summary(runs, metrics) -> dict:
    """Per end-to-end metric: median, quartiles, spread, bound, and the
    best run (the min of repeats, or the max where higher is better)."""
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"],
                          "best": (max if m["better"] == "higher" else min)(values)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    for seed in SEEDS:
        for w in names:
            runs[w].append(run(w, seed, spec["run_seconds"], 0))
            print(w, seed, json.dumps(runs[w][-1]["metrics"]), flush=True)
    record = {
        "label": args.label,
        "git_sha": git_sha(),
        "machine": machine(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for w in names:
        entry = {"runs": runs[w], "summary": summary(runs[w], spec["end_to_end"]),
                 "trace": run(w, SEEDS[0], spec["run_seconds"], 1)}
        record["workloads"][w] = entry
        print(f"{w}: {sum(r['failed'] for r in runs[w])} failed ops")
        for name, s in entry["summary"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<18} median {s['median']:.4f}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}")
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
