"""Smoke test of the benchmark itself (about a minute):

    python3 -m pytest -q perfbench/smoke.py

Runs each workload briefly and checks that every metric BENCHMARK.json
names is reported with its unit and that no op failed; then shows that
the output checks catch corrupted output and that such an op is counted
as failed.
"""

import json
import random
import subprocess
import sys

import pytest

import checks
import inputs
import pace
import paced
import reference
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
R4 = reference.Rank4()


def bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    head, _, last = proc.stdout.strip().rpartition("\n")
    return head, json.loads(last)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_end_to_end_metric(workload):
    table, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    assert "error_rate" in table and "(0 of" in table


@pytest.mark.parametrize("workload", ["cli_session", "query_warm"])
def test_traced_run_reports_every_per_layer_metric(workload):
    _, result = bench(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["failed"] == 0
    assert result["metrics"]["polar_geometry.enumerate_ovoids.cliques"]["value"] % 960 == 0


def test_missing_program_exits_without_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in run.HERE.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170,
                          env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0 and proc.stdout == ""


def cli_output(op) -> str:
    child = run.run_child([sys.executable, "-m", "pauligeom", *op.argv])
    assert child.returncode == 0
    assert checks.check_op(op, 0, child.stdout, R4) is None
    return child.stdout


def first(kind: str, **expect):
    ops = inputs.cli_session_block(random.Random(3), R4)
    return next(op for op in ops if op.kind == kind
                and all(op.expect.get(k) == v for k, v in expect.items()))


def drop_line(out: str, i: int) -> str:
    lines = out.split("\n")
    return "\n".join(lines[:i] + lines[i + 1:])


def repeat_line(out: str) -> str:
    lines = out.split("\n")
    return "\n".join(lines[:1] + lines[:1] + lines[2:])


def flip_class(out: str) -> str:
    swap = {"class:  skew": "class:  symmetric", "class:  symmetric": "class:  skew"}
    return "\n".join(swap.get(line, line) for line in out.split("\n"))


CORRUPTIONS = {
    "verify": (dict(kind="verify", n=2), lambda out: drop_line(out, 10)),
    "map": (dict(kind="map"), flip_class),
    "generators": (dict(kind="generators", space="quadric", n=3), repeat_line),
    "ovoids": (dict(kind="ovoids"), lambda out: drop_line(out, 0)),
    "tetrads": (dict(kind="tetrads"), repeat_line),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_checks_catch_corrupted_cli_output(kind):
    expect, corrupt = CORRUPTIONS[kind]
    op = first(**expect)
    out = cli_output(op)
    assert checks.check_op(op, 0, corrupt(out), R4) is not None
    assert checks.check_op(op, 2, out, R4) == "exit code 2"


@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_checks_catch_corrupted_config(fmt):
    op = inputs.Op("config", ["config", "fig1", "--format", fmt],
                   {"name": "fig1", "format": fmt, "points": 45})
    out = cli_output(op)
    if fmt == "json":
        doc = json.loads(out)
        doc["points"][0]["word"] = "IIII"
        bad = json.dumps(doc)
    elif fmt == "text":
        bad = out.replace("points: 45", "points: 44")
    else:
        bad = out.replace("shape=circle", "shape=hexagon", 1)
    assert checks.check_op(op, 0, bad, R4) is not None


def test_corrupted_output_is_counted_as_failed(monkeypatch):
    real = run.run_child

    def corrupting(argv):
        child = real(argv)
        child.stdout = child.stdout.rstrip("\n").rsplit("\n", 1)[0] + "\n"
        return child

    monkeypatch.setattr(run, "run_child", corrupting)
    ops = [first("verify", n=2), first("map"), first("ovoids")]
    tally = run.cold_loop(iter([ops]), R4, seconds=0)
    assert tally.attempted == 3 and tally.failed == 3


def test_paced_launcher_keeps_exit_code_and_reports_probes():
    proc = subprocess.run([sys.executable, str(run.HERE / "paced.py"), "map", "QQQQ"],
                          cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    last = proc.stderr.rstrip("\n").rpartition("\n")[2]
    assert last.startswith(paced.MARK)
    assert len(json.loads(last[len(paced.MARK):])) >= 2 * pace.SAMPLES


def test_end_to_end_times_are_rescaled_by_pace():
    tally = run.Tally(lat_ms=[1.0, 2.0, 3.0], cpu_ms=[1.0, 1.0, 1.0],
                      pace=[2.0, 2.0, 2.0], busy_s=0.006, rss_mb=20.0)
    m = run.end_to_end(tally, setup_s=0.1)
    assert m["latency_p50_ms"] == 4.0 and m["latency_p90_ms"] == 6.0
    assert m["cpu_ms_per_op"] == 2.0 and m["peak_rss_mb"] == 20.0
    assert abs(m["throughput_ops_s"] - 250.0) < 1e-9
