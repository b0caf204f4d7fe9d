"""query_warm worker: fill pauligeom's caches once, then answer seeded
figure queries in-process, each serialized with `to_json`.

    python3 perfbench/warm.py --seed N --fill-only
    python3 perfbench/warm.py --seed N (--seconds S | --blocks K) [--trace]

Queries come in blocks (see inputs.py), and the worker answers whole
blocks only: K of them, or as many as start within S seconds.  A pace
probe (pace.py) runs before and after the fill and after every block.
Prints one JSON line: the fill time and its pace factor, per-query
latencies, CPU times and pace factors, the loop's wall time less making
the inputs, checking the outputs and probing, the peak RSS before the
result is serialized, failures, and with --trace the per-layer metrics,
the spans and the CPU time inside each block's queries.  With --trace the tracing
is installed before the fill, so it covers it; then the blocks run
untraced and traced in turn, so that tracing overhead can be measured
over pairs of neighbouring blocks.
"""

import argparse
import itertools
import json
import resource
import sys
import time
from array import array

import checks
import inputs
import pace
import reference
from tracing import Tracer, layer_metrics


def main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--fill-only", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--blocks", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    if not args.fill_only:
        r4 = reference.Rank4()
        r4.ovoids  # build the reference before the timed fill
        blocks = inputs.query_warm(args.seed, r4)
    from pauligeom import configurations as cfg
    from pauligeom import polar_geometry as pg
    from pauligeom.pauli_codec import GeometryContext

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ctx = GeometryContext(4)
    before = pace.sample()
    t0 = time.perf_counter()
    pg.get_generators(ctx, "quadric")
    pg.get_ovoids(ctx)
    fill_s = time.perf_counter() - t0
    fill_pace = pace.factor(before + pace.sample())
    if args.fill_only:
        print(json.dumps({"fill_s": fill_s, "fill_pace": fill_pace}))
        return 0

    def answer(q):
        gens = pg.get_generators(ctx, "quadric")
        o = pg.Ovoid.from_points(q.expect["ovoid"])
        a = q.expect["args"]
        k = q.kind
        if k == "fig_secants":
            return cfg.fig_secants(o, ctx)
        if k == "fig_conic_partition":
            return cfg.fig_conic_partition(o, a["partition"], gens.quadric)
        if k == "fig_two_ovoids_conic":
            return cfg.fig_two_ovoids_conic(o, a["triple"], gens)
        if k == "fig_six_ovoids":
            return cfg.fig_six_ovoids(o, a["partition"], gens)
        if k == "fig_commutation":
            return cfg.fig_commutation(o, a["partition"], gens, None, a["skew_center"])
        if k == "fig_two_ovoids_point":
            return cfg.fig_two_ovoids_point(o, a["point"], a["split"], gens)
        if k == "fig_pentad":
            return cfg.fig_pentad(o, a["subset"], gens.quadric)
        if k == "fig_sextet":
            return cfg.fig_sextet(o, a["subset"], gens.quadric)
        if k == "fig_nuclei_fan":
            return cfg.fig_nuclei_fan(o, a["point"], a["nucleus"])
        if k == "heptad_analogue":
            return cfg.heptad_analogue(o, *a["pair"])
        if k == "heptad_family":
            return cfg.heptad_family(o, a["pairs"], gens)
        return cfg.sixty_three_split(pg.get_ovoids(ctx), o, a["point"])

    lat_ms, cpu_ms, block_cpu_ms, probes, problems = array("d"), array("d"), [], [], []
    harness_s = 0.0  # making the inputs, checking the outputs, probing the pace
    start = time.perf_counter()
    deadline = start + args.seconds if args.seconds else None
    for i in itertools.count():
        t = time.perf_counter()
        if (args.blocks is not None and i >= args.blocks) or (deadline and t >= deadline):
            break
        block = next(blocks)
        if tracer:  # blocks alternate untraced and traced, from the first untraced
            tracer.install() if i % 2 else tracer.uninstall()
        harness_s += time.perf_counter() - t
        block_cpu_ms.append(0.0)
        for q in block:
            if tracer:
                tracer.op = len(lat_ms)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                report = answer(q)
                text = report.to_json()
                problem = None
            except Exception as exc:  # a failed query is counted, the run goes on
                problem = f"{q.kind}: {type(exc).__name__}: {exc}"
            c1, t1 = time.process_time(), time.perf_counter()
            lat_ms.append((t1 - t0) * 1000.0)
            cpu_ms.append((c1 - c0) * 1000.0)
            block_cpu_ms[-1] += cpu_ms[-1]
            if problem is None:
                try:
                    report.verify()
                    problem = checks.check_report(json.loads(text), **q.expect)
                except Exception as exc:  # a failed check is a failed query
                    problem = f"{q.kind}: {type(exc).__name__}: {exc}"
            if problem:
                problems.append(problem)
            harness_s += time.perf_counter() - t1
        t = time.perf_counter()
        probes.append(pace.probe())
        harness_s += time.perf_counter() - t
    busy_s = time.perf_counter() - start - harness_s
    result = {
        "fill_s": fill_s,
        "fill_pace": fill_pace,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lat_ms": list(lat_ms),
        "cpu_ms": list(cpu_ms),
        # a block holds each query kind once
        "pace": [f for f in pace.block_factors(probes) for _ in inputs.QUERY_KINDS],
        "busy_s": busy_s,
        "failed": len(problems),
        "problems": problems[:5],
    }
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        result["spans"] = tracer.spans
        result["block_cpu_ms"] = block_cpu_ms
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
