import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pauligeom
from pauligeom import cli, matrix_oracle, pauli_codec
from pauligeom import configurations as cfg
from pauligeom import polar_geometry as pg
from pauligeom.errors import InternalConsistencyError
from pauligeom.gf2_core import standard_to_edge, to_string
from pauligeom.pauli_codec import join_words, word_to_point

from pinned_outputs import OVOID_500, OVOID_SHORT, PARTITION, PINNED, check


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def _fresh_python(code, *argv):
    """Run `code` with `argv` in a fresh interpreter without `site`, so that
    only the package loads modules; the package comes from the tree under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(pauligeom.__file__).parents[1]))
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                          capture_output=True, text=True)


# The layers no command needs before it has read its argv.
_LAYERS = ("polar_geometry", "configurations", "verify", "matrix_oracle")
_CORE = {"pauligeom", "pauligeom.cli", "pauligeom.errors", "pauligeom.gf2_core",
         "pauligeom.pauli_codec"}


def test_cli_import_loads_no_code_generation():
    code = ("import sys; before = set(sys.modules); import pauligeom.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    loaded = set(_fresh_python(code).stdout.split())
    assert not loaded & {"dataclasses", "inspect", "typing"}
    assert "pauligeom.cli" in loaded
    assert not loaded & {f"pauligeom.{m}" for m in _LAYERS}


# One command of each kind, and the layers it loads.
_COMMAND_LAYERS = {
    "map XXXX": (),
    "enumerate generators": ("polar_geometry",),
    "enumerate heptads": ("polar_geometry",),
    "config fig3": ("polar_geometry", "configurations"),
    "verify --n 2": ("polar_geometry", "matrix_oracle", "verify"),
    "oracle-check --n 2": ("matrix_oracle",),
}


@pytest.mark.parametrize("argv", _COMMAND_LAYERS)
def test_each_command_loads_only_its_layers(argv):
    code = ("import sys; from pauligeom.cli import main; code = main(sys.argv[1:]); "
            "print(' '.join(m for m in sys.modules if m.startswith('pauligeom')), "
            "file=sys.stderr); sys.exit(code)")
    proc = _fresh_python(code, *argv.split())
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.split()) == _CORE | {f"pauligeom.{m}" for m in _COMMAND_LAYERS[argv]}


def test_import_and_config_fig1_build_no_skew_frame():
    # The skew frames are built on first use, one per rank, not at import:
    # a command that reads no sigma graph of skew points builds none, and
    # the rank-3 run builds the 28-point frame alone, not the 120-point one.
    code = ("import sys; import pauligeom.polar_geometry as pg; from pauligeom.cli import main; "
            "built = [pg._skew_frame.cache_info().currsize]; code = main(sys.argv[1:]); "
            "built.append(pg._skew_frame.cache_info().currsize); "
            "print(*built, file=sys.stderr); sys.exit(code)")
    for argv, built in ((["config", "fig1"], ["0", "0"]),
                        (["verify", "--n", "3", "--no-timings"], ["0", "1"])):
        proc = _fresh_python(code, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout and proc.stderr.split() == built


def test_commands_build_only_their_own_ranks_codec_tables():
    # The codec's tables are built per rank on first use, not at import.
    code = ("import sys; import pauligeom.pauli_codec as pc; from pauligeom.cli import main; "
            "built = [len(pc._TABLES)]; code = main(sys.argv[1:]); "
            "built += sorted(pc._TABLES); print(*built, file=sys.stderr); sys.exit(code)")
    for argv, built in (("map IYZX", ["0", "4"]), ("map 0110 --n 2", ["0", "2"]),
                        ("config fig2", ["0", "4"]), ("oracle-check --n 3", ["0", "3"])):
        proc = _fresh_python(code, *argv.split())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout and proc.stderr.split() == built


def test_package_import_loads_no_module():
    proc = _fresh_python("import sys, pauligeom; "
                         "print(' '.join(m for m in sys.modules if m.startswith('pauligeom')))")
    assert proc.stdout.split() == ["pauligeom"]


# Each name the package re-exports, by the module that defines it.
_REEXPORTS = {
    "errors": "IdentityNotAPointError InternalConsistencyError UsageError",
    "gf2_core": "edge_to_standard from_string standard_to_edge to_string",
    "pauli_codec": "GeometryContext commutes is_symmetric point_to_word word_product"
                   " word_to_point",
    "polar_geometry": "OSTAR_WORDS GeneratorSet Ovoid OvoidSet Quadric enumerate_generators"
                      " enumerate_ovoids expected_count get_generators get_ovoids is_ovoid"
                      " ostar standard_quadric",
}


def _forget_reexports(monkeypatch):
    """Drop the names the package has already resolved, so that each lookup
    resolves it again; monkeypatch puts them back."""
    for name in pauligeom.__all__:
        monkeypatch.delitem(vars(pauligeom), name, raising=False)


def test_every_reexport_is_its_module_attribute(monkeypatch):
    assert pauligeom.__all__ == [n for names in _REEXPORTS.values() for n in names.split()]
    _forget_reexports(monkeypatch)
    for module, names in _REEXPORTS.items():
        home = importlib.import_module(f"pauligeom.{module}")
        for name in names.split():
            assert getattr(pauligeom, name) is getattr(home, name)


def test_dir_and_star_import_list_every_reexport(monkeypatch):
    _forget_reexports(monkeypatch)
    assert set(pauligeom.__all__) <= set(dir(pauligeom))
    namespace = {}
    exec("from pauligeom import *", namespace)
    assert {n: namespace[n] for n in pauligeom.__all__} == {
        n: getattr(pauligeom, n) for n in pauligeom.__all__}


def test_unknown_package_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        pauligeom.no_such_name


# sha256 of `pauligeom config --help` at 80 columns.
_CONFIG_HELP_SHA256 = "08630d28f6ad561b648e680b8f690f9b17b27a49867a08c77abd5296142232d0"


def test_config_help_is_pinned_and_names_every_figure(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["config", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CONFIG_HELP_SHA256
    names = out.split("positional arguments:\n  name")[1].split("\n\n")[0]
    assert " ".join(names.split()).replace("- ", "-") == "one of: " + ", ".join(cfg.FIGURES)


def test_map_word(capsys):
    code, out, _ = run(["map", "IYZX"], capsys)
    assert code == 0
    assert "word:   IYZX" in out
    assert "coords: 01100101" in out
    assert "class:  skew" in out
    edge = to_string(standard_to_edge(word_to_point("IYZX")), 8)
    assert f"edge:   {edge}" in out


def test_map_coords(capsys):
    code, out, _ = run(["map", "10000001"], capsys)
    assert code == 0
    assert "word:   ZIIX" in out
    assert "class:  symmetric" in out


def test_map_identity_is_usage_error(capsys):
    code, _, err = run(["map", "IIII"], capsys)
    assert code == 2
    assert "not a projective point" in err


def test_map_bad_token(capsys):
    code, _, err = run(["map", "IYQX"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv,bits", [(["map", "01", "--n", "2"], 4),
                                       (["config", "fig9", "--point", "1"], 8)])
def test_short_coordinate_string_is_a_coordinate_usage_error(argv, bits, capsys):
    # A word holds no 0 or 1, so a short 0/1 token is coordinates, of the wrong length.
    assert run(argv, capsys) == (2, "", f"error: coordinate string must have {bits} bits\n")


def test_verify_quick_n2(capsys):
    code, out, _ = run(["verify", "--n", "2"], capsys)
    assert code == 0
    assert "overall: PASS" in out


def test_verify_json_n2(capsys):
    code, out, _ = run(
        ["verify", "--n", "2", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["n"] == 2
    assert all(row["pass"] for row in data["rows"])


def test_enumerate_ovoids_through_point(capsys):
    code, out, _ = run(
        ["enumerate", "ovoids", "--through-point", "XXXX"], capsys
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 64
    assert all("XXXX" in row for row in rows)


def test_enumerate_quadric_generators(capsys):
    code, out, _ = run(
        ["enumerate", "generators", "--space", "quadric", "--n", "4"], capsys
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 270
    assert sum("family=0" in r for r in rows) == 135
    assert sum("family=1" in r for r in rows) == 135
    first = rows[0].split("\t")[0].split(",")
    assert len(first) == 15


def test_enumerate_symplectic_generators_n2(capsys):
    code, out, _ = run(
        ["enumerate", "generators", "--space", "symplectic", "--n", "2"], capsys
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 15
    assert all(len(r.split(",")) == 3 for r in rows)


def test_enumerate_tetrads_reference_ovoid(capsys):
    code, out, _ = run(["enumerate", "tetrads"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 280
    assert all(len(r.split(";")) == 4 for r in rows)


def test_enumerate_tetrads_dedup_to_file(tmp_path, capsys):
    target = tmp_path / "tetrads.txt"
    code, _, _ = run(
        ["enumerate", "tetrads", "--dedup", "--output", str(target)], capsys
    )
    assert code == 0
    rows = target.read_text().strip().splitlines()
    assert len(rows) == 11200
    assert len(set(rows)) == 11200


def test_enumerate_conwell_heptads(capsys):
    code, out, _ = run(["enumerate", "heptads", "--n", "3"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 8
    assert all(len(r.split(",")) == 7 for r in rows)


def test_enumerate_nuclei_heptads_n4(capsys):
    code, out, _ = run(["enumerate", "heptads", "--n", "4"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 36


def test_config_fig1_dot(capsys):
    code, out, _ = run(["config", "fig1", "--format", "dot"], capsys)
    assert code == 0
    assert out.count("shape=circle") == 9
    assert out.count("shape=hexagon") == 36


def test_config_fig3_json(capsys):
    code, out, _ = run(["config", "fig3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 16
    assert len(data["lines"]) == 6


def test_config_fig10_default_pair(capsys):
    code, out, _ = run(["config", "fig10"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["annotations"]["shared_points"] == "ZZIZ IXXZ"


def test_config_fig9_text(capsys):
    code, out, _ = run(["config", "fig9", "--format", "text"], capsys)
    assert code == 0
    assert "concurrence: YZXX" in out
    assert "gq_lines: 45" in out


def test_config_unknown_name(capsys):
    code, _, err = run(["config", "fig99"], capsys)
    assert code == 2
    assert "unknown configuration" in err


def test_config_unknown_name_is_named_before_its_flags_are_parsed(capsys):
    code, _, err = run(["config", "fig99", "--point", "QQQQ"], capsys)
    assert code == 2
    assert err.startswith("error: unknown configuration 'fig99'")


@pytest.mark.parametrize("argv", [
    ["config", "fig1", "--pentad", "ZIIX,IZYY,XZXI,ZXZZ,XIZI"],
    ["config", "fig2", "--point", "XXXX"],
    ["config", "fig10", "--kind", "quadrangle"],
    ["config", "split63", "--pair", "ZIIX,IZYY"],
    ["config", "fig5", "--split", "not/points"],
])
def test_config_flag_the_figure_does_not_take_is_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {argv[1]} takes no {argv[2]}; it takes ")
    assert err.count("\n") == 1


def test_config_bad_ovoid(capsys):
    code, _, err = run(["config", "fig1", "--ovoid", "XXXX,YYYY"], capsys)
    assert code == 2
    assert "nine" in err


# O* with a five-letter last word.
_OVOID_LONG = "ZIIX,IZYY,XZXI,ZXZZ,XIZI,ZZIZ,IXXZ,YYZX,XXXXX"


@pytest.mark.parametrize("command", [["config", "fig1"], ["enumerate", "tetrads"],
                                     ["enumerate", "heptads"]], ids=" ".join)
@pytest.mark.parametrize("token,word", [(OVOID_SHORT, "ZIZ"), (_OVOID_LONG, "XXXXX")],
                         ids=["short", "five-letter"])
def test_ovoid_word_of_the_wrong_length_is_usage_error(command, token, word, capsys):
    code, out, err = run([*command, "--ovoid", token], capsys)
    assert (code, out, err) == (2, "", f"error: expected 4 letters, got {word!r}\n")


@pytest.mark.parametrize("argv,k", [
    (["config", "fig3", "--triple", "ZIIX,ZIIX,IZYY"], 3),
    (["config", "fig7", "--pentad", "ZIIX,ZIIX,IZYY,XZXI,ZXZZ"], 5),
    (["config", "fig8", "--sextet", "ZIIX,ZIIX,IZYY,XZXI,ZXZZ,XIZI"], 6),
])
def test_config_repeated_point_is_usage_error(argv, k, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == f"error: need {k} distinct points of the ovoid\n"


def test_config_custom_ovoid_roundtrip(capsys):
    code, out, _ = run(["enumerate", "ovoids"], capsys)
    rows = out.strip().splitlines()
    other = rows[1]
    code, out, _ = run(["config", "fig1", "--ovoid", other], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 45


def test_config_output_file(tmp_path, capsys):
    target = tmp_path / "fig7.json"
    code, _, _ = run(["config", "fig7", "--output", str(target)], capsys)
    assert code == 0
    data = json.loads(target.read_text())
    assert len(data["points"]) == 11


def test_config_unwritable_output_is_usage_error(tmp_path, capsys):
    target = str(tmp_path / "missing" / "x")
    code, out, err = run(["config", "fig3", "--output", target], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert err.count("\n") == 1


def test_enumerate_unwritable_output_is_usage_error(tmp_path, capsys):
    target = str(tmp_path / "missing" / "x")
    code, out, err = run(["enumerate", "ovoids", "--output", target], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert err.count("\n") == 1


_NO_SPACE = f"{os.strerror(errno.ENOSPC)}\n"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
def test_output_file_that_cannot_be_written_is_usage_error(capsys):
    code, out, err = run(["config", "fig1", "--output", "/dev/full"], capsys)
    assert (code, out, err) == (2, "", f"error: cannot write /dev/full: {_NO_SPACE}")


def _cli_process(argv, stdout, unbuffered=False):
    """`python -m pauligeom` on the tree under test, with PYTHONUNBUFFERED
    set or not as `unbuffered` says."""
    env = dict(os.environ, PYTHONPATH=str(Path(pauligeom.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "pauligeom", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True)


# verify and config fail when stdout is flushed, the 172 kB generator
# listing while it is written.
@needs_dev_full
@pytest.mark.parametrize("argv", [["verify", "--n", "2"], ["config", "fig1"],
                                  ["enumerate", "generators", "--n", "4"]])
def test_full_stdout_is_one_error_line_and_exit_2(argv):
    with open("/dev/full", "w") as full:
        proc = _cli_process(argv, full)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, f"error: cannot write output: {_NO_SPACE}")


# Unbuffered, stdout's text layer sits on the raw file and would drop the
# part of a write that the closed pipe refuses, with exit 0.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_ends_quietly_with_exit_2(unbuffered):
    # The listing is larger than a pipe holds, so the reader's close cuts it.
    proc = _cli_process(["enumerate", "generators", "--n", "4"], subprocess.PIPE, unbuffered)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.count(",") == 14
    assert (proc.returncode, err) == (2, "")


def test_enumerate_usage_error_keeps_output_file(tmp_path, capsys):
    target = tmp_path / "f.txt"
    target.write_text("keep\n")
    code, out, err = run(
        ["enumerate", "ovoids", "--n", "3", "--output", str(target)], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: ovoids enumeration needs --n 4\n"
    assert target.read_text() == "keep\n"


def test_enumerate_heptads_n2_is_usage_error(tmp_path, capsys):
    target = tmp_path / "f.txt"
    target.write_text("keep\n")
    code, out, err = run(
        ["enumerate", "heptads", "--n", "2", "--output", str(target)], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: heptads enumeration needs --n 3 or --n 4\n"
    assert target.read_text() == "keep\n"


@pytest.mark.parametrize("argv,message", [
    (["tetrads", "--dedup", "--ovoid", "bogus"], "tetrads --dedup takes no --ovoid"),
    (["heptads", "--n", "3", "--ovoid", "bogus"], "heptads --n 3 takes no --ovoid"),
    (["generators", "--through-point", "XXXX"], "generators takes no --through-point"),
    (["ovoids", "--space", "quadric"], "ovoids takes no --space"),
])
def test_enumerate_flag_the_target_does_not_take_is_usage_error(
        argv, message, tmp_path, capsys):
    target = tmp_path / "f.txt"
    target.write_text("keep\n")
    code, out, err = run(["enumerate", *argv, "--output", str(target)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert target.read_text() == "keep\n"
    code, out, err = run(["enumerate", *argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("point,message", [
    ("IYZX", "error: point IYZX is not on the quadric\n"),
    ("ZIIXX", "error: expected 4 letters, got 'ZIIXX'\n"),
])
def test_enumerate_ovoids_through_impossible_point_is_usage_error(
        point, message, tmp_path, capsys):
    # A skew point and a five-letter word lie on no rank-4 ovoid.
    target = tmp_path / "f.txt"
    target.write_text("keep\n")
    code, out, err = run(["enumerate", "ovoids", "--through-point", point,
                          "--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err == message
    assert target.read_text() == "keep\n"
    code, out, err = run(["enumerate", "ovoids", "--through-point", point], capsys)
    assert (code, out, err) == (2, "", message)


def test_verify_failed_check_exits_1(monkeypatch, capsys):
    def broken(n):
        raise InternalConsistencyError("planted disagreement")

    monkeypatch.setattr(matrix_oracle, "check_agreement", broken)
    code, out, _ = run(["verify", "--n", "2", "--no-timings"], capsys)
    assert code == 1
    rows = out.splitlines()
    oracle = next(r for r in rows if r.startswith("oracle_agreement"))
    assert "InternalConsistencyError: planted disagreement" in oracle
    assert oracle.rstrip().endswith("| FAIL")
    assert sum(r.rstrip().endswith("| pass") for r in rows) == 9
    assert rows[-1] == "overall: FAIL (10 checks, n=2, level=quick)"


def _plant_fig7_vertex(monkeypatch):
    # The complementary quartet's solid extra of O*'s first pentad moved onto
    # the pentad's first point, so that vertex + point is the zero vector.
    ost, quadric, real = pg.ostar(), pg.standard_quadric(4), pg.solid_extra_point
    pent = ost.points[:5]
    vertex = pg.pentad_intersection(ost, pent, quadric).vertex
    monkeypatch.setattr(pg, "solid_extra_point", lambda o, quad, q: pent[0] if sorted(quad)
                        == sorted(o.complement_in(pent)) else real(o, quad, q))
    return (f"radical {join_words((vertex,))} is not the vertex {join_words(pent[:1])}:"
            f" pentad {join_words(pent)}")


def _plant_fig8_lines(monkeypatch):
    monkeypatch.setattr(pg, "_mask_lines", lambda pts, mask: [])
    sextet = pg.ostar().complement_in(cfg.REFERENCE_CONIC)
    return f"sextet section has 0 lines: sextet {join_words(sextet)}"


def _plant_oracle(monkeypatch):
    def broken(n):
        raise InternalConsistencyError("planted disagreement")

    monkeypatch.setattr(matrix_oracle, "check_agreement", broken)
    return "planted disagreement"


def _plant_codec_word(monkeypatch):
    # The codec's rank-4 word table lists a word that is no Pauli word.
    words, vectors = pauli_codec._tables(4)
    v = vectors["XZYI"]
    monkeypatch.setitem(pauli_codec._TABLES, 4,
                        (words[:v] + ("QQQQ",) + words[v + 1:], vectors))
    return "codec word 'QQQQ' has no rank-4 matrix"


@pytest.mark.parametrize("argv,plant", [
    (["config", "fig7"], _plant_fig7_vertex),
    (["config", "fig8"], _plant_fig8_lines),
    (["oracle-check", "--n", "2"], _plant_oracle),
    (["oracle-check", "--n", "4"], _plant_codec_word),
], ids=["fig7-vertex", "fig8-lines", "oracle", "oracle-codec-word"])
def test_failed_certificate_is_one_error_line_and_exit_1(argv, plant, monkeypatch, capsys):
    # A failed check outside verify's table is exit 1, not a usage error's 2
    # or a traceback, with the certificate's message naming its object.
    message = plant(monkeypatch)
    assert run(argv, capsys) == (1, "", f"error: {message}\n")


def test_codec_word_that_is_no_pauli_word_fails_where_it_is_classified(monkeypatch, capsys):
    # The planted QQQQ is the codec's own word for XZYI: `map` and the rows
    # that classify it report a failed check naming the point, not a usage
    # error.  The point memo is emptied so that the builders read the plant.
    oracle = _plant_codec_word(monkeypatch)
    fault = "InternalConsistencyError: codec word 'QQQQ' of point XZYI is not a Pauli word"
    cfg._point_fields.cache_clear()
    try:
        assert run(["map", "XZYI", "--n", "4"], capsys) == (
            1, "", "error: codec word 'QQQQ' of point XZYI is not a Pauli word\n")
        assert cli.main(["verify", "--n", "4", "--no-timings"]) == 1
    finally:
        cfg._point_fields.cache_clear()
    rows = [line.split(" | ") for line in capsys.readouterr().out.splitlines()[2:-1]]
    failing = {name.rstrip(): computed.rstrip() for name, _, computed, status in rows
               if status.rstrip() == "FAIL"}
    assert failing == {
        **{name: fault for name in ("symmetry_matches_quadric", "fan_concurrence_point",
                                    "heptad_analogues", "heptad_families", "figure_reports")},
        "oracle_agreement": f"InternalConsistencyError: {oracle}"}


def test_oracle_check_command(capsys):
    code, out, _ = run(["oracle-check", "--n", "2"], capsys)
    assert code == 0
    assert "products on 225 pairs: all agree" in out


@pytest.mark.parametrize("argv", [["oracle-check", "--samples", "-5"],
                                  ["oracle-check", "--exhaustive-oracle"],
                                  ["verify", "--exhaustive-oracle"],
                                  ["verify", "--jobs", "2"],
                                  ["enumerate", "ovoids", "--jobs", "1"],
                                  ["config", "fig1", "--jobs", "1"]])
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,expected", PINNED, ids=[
    "_".join(a.lstrip("-") for a in argv) for argv, _ in PINNED])
def test_output_is_byte_identical_to_recorded_digest(argv, expected, capsys):
    assert check(argv, expected, *run(argv, capsys)) is None


@pytest.mark.parametrize("expected,code,out,err,why", [
    ("0" * 64, 0, "overall: PASS\n", "", "stdout sha256"),
    ("0" * 64, 1, "", "", "exit 1"),
    (None, 2, "", "error: one\nerror: two\n", "expected exit 2, no stdout and one 'error: ' line"),
], ids=["wrong digest", "wrong exit code", "second stderr line"])
def test_check_names_the_command_line_of_a_broken_entry(expected, code, out, err, why):
    argv = ["config", "fig2", "--partition", PARTITION]
    reason = check(argv, expected, code, out, err)
    assert reason.startswith(f"pauligeom config fig2 --partition {PARTITION}: ")
    assert why in reason


def test_workflow_runs_the_pinned_table_and_pins_nothing_itself():
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    assert not re.search(r"[0-9a-f]{64}", workflow)
    assert "run: python tests/pinned_outputs.py\n" in workflow


# The argv grammar of the fuzz below: each subcommand (and one that does
# not exist) with its positional argument and its flags, good and bad
# choices for the flags that have them, and otherwise values that are
# good and bad words, coordinate strings, point lists that can repeat a
# point, and nine distinct points that are O* or all but one of its
# points (the first nine words are O*, XIII is on the quadric, IYZX is
# not).  `--output` is left out, since it writes files.  verify and
# oracle-check end on `--n 2` or `--n 3`: at n = 4 each takes about half
# a second, and the pinned table runs them there.
_FUZZ_WORDS = ["ZIIX", "IZYY", "XZXI", "ZXZZ", "XIZI", "ZZIZ", "IXXZ", "YYZX", "XXXX",
               "XIII", "IYZX", "IIII", "XYZ", "QXYZ", "xxxx", "00001111", "00000000", "0101", ""]
_FUZZ_COMMANDS = {
    "verify": ([], ["--n", "--level", "--format", "--no-timings"]),
    "enumerate": (["ovoids", "generators", "tetrads", "heptads", "lines"],
                  ["--n", "--space", "--through-point", "--dedup", "--ovoid"]),
    "config": ([*cfg.FIGURES, "fig12"],
               ["--ovoid", "--format", "--line-style", *(f"--{k}" for k in cli._CHOICE_FLAGS)]),
    "map": (_FUZZ_WORDS, ["--n"]),
    "oracle-check": ([], ["--n"]),
    "bogus": ([], []),
}
_FUZZ_STRAY_FLAGS = ["--help", "--jobs"]
_FUZZ_SWITCHES = {"--no-timings", "--dedup", "--help"}
_FUZZ_CHOICES = {
    "--n": ["2", "3", "4", "9", "x"], "--level": ["quick", "full", "fast"],
    "--format": ["text", "json", "dot", "xml"], "--space": ["symplectic", "quadric", "affine"],
    "--line-style": ["clique", "node", "edge"], "--kind": ["triangle", "quadrangle", "pentagon"],
}
_fuzz_points = st.lists(st.sampled_from(_FUZZ_WORDS[:13]), min_size=1, max_size=9).map(",".join)
_fuzz_ovoid = st.one_of(
    st.sampled_from(["Ostar", OVOID_500]),
    st.permutations(_FUZZ_WORDS[:11]).map(lambda words: ",".join(words[:9])))
_fuzz_value = st.one_of(st.sampled_from(_FUZZ_WORDS), _fuzz_points,
                        st.lists(_fuzz_points, min_size=1, max_size=4).map("/".join), _fuzz_ovoid)


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(list(_FUZZ_COMMANDS)))
    positionals, flags = _FUZZ_COMMANDS[command]
    argv = [command] + ([draw(st.sampled_from(positionals))] if positionals else [])
    if "--ovoid" in flags and draw(st.booleans()):
        argv += ["--ovoid", draw(_fuzz_ovoid)]
    for flag in draw(st.lists(st.sampled_from(flags + _FUZZ_STRAY_FLAGS), max_size=3)):
        if flag in _FUZZ_SWITCHES:
            argv.append(flag)
        else:
            argv += [flag, draw(st.sampled_from(_FUZZ_CHOICES[flag]) if flag in _FUZZ_CHOICES
                                else _fuzz_value)]
    if command in ("verify", "oracle-check"):
        argv += ["--n", draw(st.sampled_from(["2", "3"]))]
    return argv


@settings(max_examples=200)
@given(_fuzz_argv())
def test_exit_code_contract_on_drawn_command_lines(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help, or a command line it rejects
            code = exc.code
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
    assert "Traceback" not in err.getvalue()
