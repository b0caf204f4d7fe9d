import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pauligeom
from pauligeom import cli, matrix_oracle
from pauligeom import configurations as cfg
from pauligeom.errors import InternalConsistencyError
from pauligeom.gf2_core import standard_to_edge, to_string
from pauligeom.pauli_codec import word_to_point


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_import_loads_no_code_generation():
    # A fresh interpreter without `site`, so only the import itself loads
    # modules; the package comes from the tree under test.
    code = ("import sys; before = set(sys.modules); import pauligeom.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(pauligeom.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "typing"}
    layers = ("cli", "polar_geometry", "configurations", "matrix_oracle",
              "gf2_core", "pauli_codec")
    assert {f"pauligeom.{m}" for m in layers} <= loaded


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


# Pinned sha256 of each command's stdout: a refactor of the enumeration
# or census code must not change a byte of these outputs.
_PARTITION = "ZIIX,XIZI,XXXX/IZYY,ZXZZ,IXXZ/XZXI,ZZIZ,YYZX"  # not the first partition
_OVOID_500 = "XIII,ZXXI,YIXY,ZXZX,ZXZZ,ZZII,ZYXY,YZYI,YZZY"  # 500th of `enumerate ovoids`
_OVOID_XXXX = "XXXX,IIIZ,IIZX,IZXX,IYZY,ZXXX,YXZY,YZIY,YZYX"  # ZYII is no nucleus on XXXX
OUTPUT_DIGESTS = [
    (["verify", "--n", "4", "--level", "full", "--no-timings"],
     "e032c763b015274d8cf59728c2565c47751b5e1226019bafd2e64e7525397ca1"),
    (["enumerate", "tetrads", "--dedup"],
     "00d2f9038d49b393b09384fc12cfaeb11166f20db50ea99299474c7dd92b5062"),
    (["enumerate", "generators", "--space", "symplectic", "--n", "4"],
     "4669d2ed126304ca0737cb87540f9401c38a940522f038f1b14cc2690eaa2234"),
    (["enumerate", "generators", "--space", "quadric", "--n", "4"],
     "4927824d7b3b84baee5cd7b5410168dfab7d26e6bb0895e32b41ffadf834212e"),
    (["enumerate", "ovoids"],
     "b4699a216caf86906a9e6965e3dc38d6f08a99f1d11cbc0ccb1c103574ad30fd"),
    (["enumerate", "tetrads"],
     "c58cefe8ea9e22a6b4afd35901e97c5f9bb01f2ee759c0238c6ef3420dccb736"),
    (["config", "fig2"],
     "503e80ec7e0f07216d654776bb1383803f3ac347755d70689be2b584dfbc9504"),
    (["enumerate", "tetrads", "--ovoid", _OVOID_500],
     "5b0a7d29e57f874412f8fa3d9070559c7e72fde1fef9e5f140c8c840d0c60b3f"),
    (["config", "fig2", "--ovoid", _OVOID_500],
     "de4422a1a23747ddf1df99c7afe2f43c23710ad696e3b99d5169df6c9ed47241"),
    (["enumerate", "generators", "--space", "symplectic", "--n", "2"],
     "f420c4f9e8891336d0418f98c92a5b9067476b51392c25d781c32896e101c1eb"),
    (["enumerate", "generators", "--space", "symplectic", "--n", "3"],
     "efaf9418285aee8aad8340c3a55ad960b12b6b6084e89487c63b399783a70023"),
    (["enumerate", "generators", "--space", "quadric", "--n", "2"],
     "c4bbd21b3f088cac2ce11fc5714397488568cb62e939828b432333d24ab1bdfb"),
    (["enumerate", "generators", "--space", "quadric", "--n", "3"],
     "05e130761bd3aeb03eec329d9af7e1e7aab183e99e07f93b2a9b07691bc74d6d"),
    (["config", "fig8"],
     "80b413bfc3e615f73c8aefa072f70bb617029aafb219668960b1ce8fa6ab368d"),
    (["config", "split63"],
     "173fbf0a30676ce41dbe21f244a9ab3e8adbb17a46abffc17d400bc89e78ea96"),
    (["config", "heptad-family", "--kind", "quadrangle"],
     "887afdfe66131d7e3c238a632cfda4d99d9d90440d5928ee4eff1d7fb8deee44"),
    (["config", "fig9", "--format", "dot"],
     "55fb9e2c011ceaf07350057c23f32e77e9951c499ecf949d93b3cd571fffeccd"),
    (["enumerate", "ovoids", "--through-point", "XXXX"],
     "67ad193704b5359508034df98247860fbd0678f6ebb81f038635f3608da7ef2c"),
    (["enumerate", "ovoids", "--through-point", "00001111"],
     "67ad193704b5359508034df98247860fbd0678f6ebb81f038635f3608da7ef2c"),
    (["config", "split63", "--ovoid", _OVOID_500, "--point", "ZZII"],
     "b6dce5b6efa1d3692e6fd6109e6a0874de67903c4cf7215d186e0652d5f03885"),
    (["oracle-check", "--n", "4"],
     "414a478767e165bfae93285684809494a41973ee832bc8414a34583564e1dcee"),
    (["config", "fig1"],
     "a0bc24583ad846b54564de176270a26fc73638253e48866145a3e9920b07cb15"),
    (["config", "fig3"],
     "7196b1634dc5927c54a60be6cb81f7fdbc44f258569c5d57e18c2ee5706b152a"),
    (["config", "fig4"],
     "8ae4515d535088c37fdad32311bc93f14087e82873688d7e935fe4a3f89ec11e"),
    (["config", "fig5"],
     "f6255a220285cc6a1b0dcf55e2444ecbaef13a04a87cfdcba5a10cea2225649d"),
    (["config", "fig6"],
     "ce57d4650f157d6cd2d17764dfce99c1fb67dbacd7ae83bc714494e4775da135"),
    (["config", "fig7"],
     "96e3eba58617b62db3202fdd917afb4697906704d3c5f46b6ee695586cdef9c4"),
    (["config", "fig10"],
     "0e596bd768978cd5ff676da169dfe5cedb1321df6dca262197232c19772b326d"),
    (["config", "fig11"],
     "807b944eef5e2bcb07c4b5a4359a37c067fd0298114a7d6cccb6ac5a1751fe10"),
    (["config", "heptad-analogue"],
     "cab9bf1bf6355dbf2b08b6e1c6f033d93bfae4362908f34df49a377253da4599"),
    (["config", "heptad-family"],
     "428a571b693dca58e32dbaab9a79fe17a4fcd25fe50a140a7eb7f42d7e4e1b7b"),
    (["config", "fig2", "--partition", _PARTITION, "--format", "dot"],
     "d29a8b10719fe9b9595c42ca832d928af595ca6829192cbf1f0deef5d933726c"),
    (["config", "fig4", "--partition", _PARTITION],
     "ab85942593415f047ef619738f179bb8e1f7169fd422b204ab5838158b4f689d"),
    (["config", "fig3", "--triple", "ZIIX,XZXI,XXXX"],
     "b33d539ae65bbe5287d419195e901d74c22283b00a527ec314a93c20172d035c"),
    (["config", "fig7", "--pentad", "IZYY,ZXZZ,IXXZ,YYZX,XXXX"],
     "796189a772fc4afaaba73840507bd227e360e35ee0287388e4634ace2158cd10"),
    (["config", "fig8", "--sextet", "ZIIX,IZYY,XZXI,ZXZZ,XIZI,ZZIZ"],
     "47d08856c2f691be5dde057a9830c8c40d9a4b3f7b210d14657c2bb4acaeda48"),
    (["config", "fig6", "--split", "ZIIX,IZYY,XZXI,XIZI/ZXZZ,ZZIZ,IXXZ,YYZX"],
     "2d19859cf957be289393f7c413cab7d46fd5169183c2193c1cc8999b62c60778"),
    (["config", "fig11", "--pair", "ZIIX,YYZX"],
     "a9cd4b4034f7778c8ef22f1f56fc076e7bf04c4080c3fc8dd427beadca85d4b5"),
    (["config", "heptad-family", "--pairs", "ZIIX,IZYY/IZYY,XZXI/ZIIX,XZXI", "--format", "text"],
     "f932e2a50c81a6f6fee86ec4cadedefcff770f37090796519cdec14919894a0c"),
    (["config", "fig6", "--point", "ZIIX"],
     "07c0f8e0ec84f5da7bda520918af28b0b7f869a29a5aa2213192c3d389a16f60"),
    (["config", "fig5", "--nucleus", "IYZX", "--format", "text"],
     "68bd2a21d3831f66a3b1925d213f679afff92b0ad6f02d83ec67702a91c83ed5"),
    (["config", "fig9", "--point", "ZIIX", "--nucleus", "YYZY"],
     "3c9bc1e020cfa600d38a5eecda40820b14241b45f4d22857cb28ecf16a095656"),
    (["config", "fig6", "--ovoid", _OVOID_500],
     "1c9adfbd9cabc5a8ec6ec7e6aed19700e05c0db7a5424be8755475c026b3001c"),
    (["config", "fig9", "--ovoid", _OVOID_500],
     "7eba78f1176e8694232c42796bc282b31446cfc97282c0ac8bdf572906e65c88"),
    (["config", "split63", "--ovoid", _OVOID_500],
     "a97ff9f678cd68fa0f2915d26ee08283b5255d92a47ee486db265b9f5844edc0"),
    (["config", "fig9", "--ovoid", _OVOID_XXXX],
     "baee1ef4f841f84910a9fc99e0d4720ae5582682a9e385bd1d250bf7998fa580"),
]


@pytest.mark.parametrize("argv,digest", OUTPUT_DIGESTS, ids=[
    "_".join(a.lstrip("-") for a in argv) for argv, _ in OUTPUT_DIGESTS])
def test_output_is_byte_identical_to_recorded_digest(argv, digest, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The argv grammar of the fuzz below: each subcommand (and one that does
# not exist) with its positional argument and its flags, good and bad
# choices for the flags that have them, and otherwise values that are
# good and bad words, coordinate strings, point lists that can repeat a
# point, and nine distinct points that are O* or all but one of its
# points (the first nine words are O*, XIII is on the quadric, IYZX is
# not).  `--output` is left out, since it writes files.  verify and
# oracle-check end on `--n 2` or `--n 3`: at n = 4 each takes about half
# a second, and the digests and the CI steps run them there.
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
    st.sampled_from(["Ostar", _OVOID_500]),
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
