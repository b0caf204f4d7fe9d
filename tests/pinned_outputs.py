"""The pinned CLI outputs: each command line once, with the sha256 of its
stdout, or None for a usage error.

A command line with a digest must exit 0 with an empty stderr and print
exactly the pinned bytes; a refactor of the enumeration or census code
must not change one.  A usage error must exit 2 with an empty stdout and
one stderr line starting `error: `.

The test suite checks the table in-process (`test_cli.py`).  Run as a
script, this module checks it on `python -m pauligeom`, whichever package
that imports: the installed one, or the checkout's with `PYTHONPATH=src`:

    python tests/pinned_outputs.py

It prints one line per failing entry and a count line, and exits 1 if any
entry fails.  It uses the standard library only.
"""

import hashlib
import shlex
import subprocess
import sys

PARTITION = "ZIIX,XIZI,XXXX/IZYY,ZXZZ,IXXZ/XZXI,ZZIZ,YYZX"  # not the first partition
OVOID_500 = "XIII,ZXXI,YIXY,ZXZX,ZXZZ,ZZII,ZYXY,YZYI,YZZY"  # 500th of `enumerate ovoids`
OVOID_XXXX = "XXXX,IIIZ,IIZX,IZXX,IYZY,ZXXX,YXZY,YZIY,YZYX"  # ZYII is no nucleus on XXXX
# O* with short words in three places: ZIZ, XYI and YY encode the same
# ints as XIZI, IXXZ and XXXX.
OVOID_SHORT = "ZIIX,IZYY,XZXI,ZXZZ,ZIZ,ZZIZ,XYI,YYZX,YY"

PINNED = [
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
    (["enumerate", "tetrads", "--ovoid", OVOID_500],
     "5b0a7d29e57f874412f8fa3d9070559c7e72fde1fef9e5f140c8c840d0c60b3f"),
    (["config", "fig2", "--ovoid", OVOID_500],
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
    (["config", "split63", "--ovoid", OVOID_500, "--point", "ZZII"],
     "b6dce5b6efa1d3692e6fd6109e6a0874de67903c4cf7215d186e0652d5f03885"),
    (["oracle-check", "--n", "4"],
     "414a478767e165bfae93285684809494a41973ee832bc8414a34583564e1dcee"),
    (["oracle-check", "--n", "2"],
     "73468643fc2c79421ffa765ec75d6e2fe529ae5612b979a43002d51538636ba5"),
    (["oracle-check", "--n", "3"],
     "c10009b38270d6db448b47de3a46aa3ee7b19f148457250efd100115a48b68ee"),
    # A word and its coordinates map to the same record.
    (["map", "IYZX"],
     "e668959c062aa2776372ce870eaa9bdf7c28a0a56c19432d399e0556b269f662"),
    (["map", "01100101"],
     "e668959c062aa2776372ce870eaa9bdf7c28a0a56c19432d399e0556b269f662"),
    (["verify", "--n", "2", "--no-timings"],
     "7eb1265dca9657480d5211f62e749fbf75bdd1b1cfc68dba6aff851990f4bd67"),
    (["verify", "--n", "3", "--no-timings"],
     "fe2832fd32060bad56e4c36819deac78387eefe02d76547eebd2174007e5a158"),
    (["enumerate", "heptads", "--n", "3"],
     "9d0675b3ae3954f33d53f223afb1b16f9eb1068c499061cbffdc2b2001a5d911"),
    (["enumerate", "heptads"],
     "1f15e551e4d9a4d1438803edbf3c1214fe2afb34a6b84a2d6e6572f1849bdf32"),
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
    (["config", "fig9"],
     "28352b99d5e9827e54633ae131f88984faa26495a925cf78536545e7e9c8c4ae"),
    (["config", "fig10"],
     "0e596bd768978cd5ff676da169dfe5cedb1321df6dca262197232c19772b326d"),
    (["config", "fig11"],
     "807b944eef5e2bcb07c4b5a4359a37c067fd0298114a7d6cccb6ac5a1751fe10"),
    (["config", "heptad-analogue"],
     "cab9bf1bf6355dbf2b08b6e1c6f033d93bfae4362908f34df49a377253da4599"),
    (["config", "heptad-family"],
     "428a571b693dca58e32dbaab9a79fe17a4fcd25fe50a140a7eb7f42d7e4e1b7b"),
    (["config", "fig2", "--partition", PARTITION, "--format", "dot"],
     "d29a8b10719fe9b9595c42ca832d928af595ca6829192cbf1f0deef5d933726c"),
    (["config", "fig4", "--partition", PARTITION],
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
    # On an ovoid that misses XXXX, the figure falls back to its first point.
    (["config", "fig6", "--ovoid", OVOID_500],
     "1c9adfbd9cabc5a8ec6ec7e6aed19700e05c0db7a5424be8755475c026b3001c"),
    (["config", "fig9", "--ovoid", OVOID_500],
     "7eba78f1176e8694232c42796bc282b31446cfc97282c0ac8bdf572906e65c88"),
    (["config", "split63", "--ovoid", OVOID_500],
     "a97ff9f678cd68fa0f2915d26ee08283b5255d92a47ee486db265b9f5844edc0"),
    (["config", "fig9", "--ovoid", OVOID_XXXX],
     "baee1ef4f841f84910a9fc99e0d4720ae5582682a9e385bd1d250bf7998fa580"),
    # Sections on ovoids other than O*.
    (["config", "fig8", "--ovoid", OVOID_500],
     "c55962e5dea0b34e382d876db180234cd74f5a8a39c0bb9368d433bd0325ebf4"),
    (["config", "fig8", "--ovoid", OVOID_XXXX, "--format", "json"],
     "7174ef55b2b88820199fbfb2fe76274bc2d5d59eaab6e9a943442e9879be19da"),
    (["config", "fig7", "--ovoid", OVOID_500],
     "28245b085045e58874902b9c60d5626932f6a477269d4917e33ccfe6a2ee642d"),
    # A flag the figure or the listing does not take, and an --ovoid word
    # of the wrong length.
    (["config", "fig1", "--pentad", "ZIIX,IZYY,XZXI,ZXZZ,XIZI"], None),
    (["config", "fig1", "--ovoid", OVOID_SHORT], None),
    (["enumerate", "tetrads", "--dedup", "--ovoid", "bogus"], None),
    # A --kind that the shape of the given --pairs contradicts.
    (["config", "heptad-family", "--kind", "quadrangle", "--pairs",
      "ZIIX,IZYY/IZYY,XZXI/ZIIX,XZXI"], None),
]


def check(argv, expected, code, out, err):
    """Why the run of `argv` (exit `code`, stdout `out`, stderr `err`, as
    text) breaks its entry `expected`, naming the command line; None if it
    keeps it."""
    if expected is None:
        if code != 2 or out or not err.startswith("error: ") or err.count("\n") != 1:
            return (f"pauligeom {shlex.join(argv)}: expected exit 2, no stdout and one "
                    f"'error: ' line; got exit {code}, {len(out)} characters of stdout, "
                    f"stderr {err!r}")
        return None
    if code != 0 or err:
        return f"pauligeom {shlex.join(argv)}: exit {code}, stderr {err!r}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != expected:
        return f"pauligeom {shlex.join(argv)}: stdout sha256 {digest}, pinned {expected}"
    return None


def main():
    failed = 0
    for argv, expected in PINNED:
        proc = subprocess.run([sys.executable, "-m", "pauligeom", *argv], capture_output=True)
        reason = check(argv, expected, proc.returncode, proc.stdout.decode(),
                       proc.stderr.decode())
        if reason:
            failed += 1
            print(reason, flush=True)
    usage = sum(expected is None for _, expected in PINNED)
    print(f"{len(PINNED) - usage} digests and {usage} usage errors checked: {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
