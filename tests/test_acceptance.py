"""Acceptance suite: one test id per row of the `pauligeom verify` table.

The criteria and their closed-form expected values live in
`pauligeom.verify`; this module only runs them, so `pytest -v
tests/test_acceptance.py` lists every row, e.g.
`test_verify_row[n4-ovoid_total]`, plus the determinism check.
"""

import functools
import itertools
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import pauligeom
from pauligeom import configurations as cfg
from pauligeom import polar_geometry as pg
from pauligeom import cli, pauli_codec, verify
from pauligeom.pauli_codec import join_words

TABLES = {"n2": (2, "quick"), "n3": (3, "quick"), "n4": (4, "full")}
ROWS = [
    pytest.param(table, name, str(expected), id=f"{table}-{name}")
    for table, (n, level) in TABLES.items()
    for name, expected, _ in verify.checks(n, level)
]


def _report(k, label, t0):
    print(f"criterion {k:02d} [{label}]: PASS ({time.perf_counter() - t0:.2f}s)")


@pytest.fixture(scope="session")
def computed():
    """The computed column of a table by row name; each table runs once."""

    @functools.cache
    def run(table):
        rows = verify.run_checks(verify.checks(*TABLES[table]))
        return {row.name: row.computed for row in rows}

    return run


@pytest.mark.parametrize("table,name,expected", ROWS)
def test_verify_row(computed, table, name, expected):
    assert computed(table)[name] == expected


def test_pentad_cones_row_names_a_wrong_vertex(monkeypatch):
    # A fault in solid_extra_point: the complementary quartet of O*'s first
    # pentad gets one of the pentad's points as its extra point, so that
    # vertex + p is the zero vector for that point p.  pentad_intersection
    # checks the vertex against the radical of sigma on the pentad's span
    # first, so the row names the pentad.  (The five other pentads that
    # read the quartet come later in the row's order.)
    ost, real_extra = pg.ostar(), pg.solid_extra_point
    quadric = pg.standard_quadric(4)
    bad = ost.points[:5]
    wrong = bad[0]
    vertex = pg.pentad_intersection(ost, bad, quadric).vertex

    def solid_extra_point(o, quad, quadric):
        if sorted(quad) == sorted(o.complement_in(bad)):
            return wrong
        return real_extra(o, quad, quadric)

    monkeypatch.setattr(pg, "solid_extra_point", solid_extra_point)
    [row] = verify.run_checks(r for r in verify.checks(4, "full") if r[0] == "pentad_cones")
    assert not row.ok
    assert row.computed == (
        f"InternalConsistencyError: radical {join_words((vertex,))} is not the vertex"
        f" {join_words((wrong,))}: pentad {join_words(bad)}")


def _plant_pentad_radical(ost, quadric, monkeypatch):
    # sigma wrong on the span of O*'s last pentad: its radical is a pentad
    # point.  fig7 reads the first pentad, so only the cone row reads this one.
    bad, real = ost.points[-5:], pg._radical
    vertex = pg.pentad_intersection(ost, bad, quadric).vertex
    monkeypatch.setattr(pg, "_radical", lambda span, points, q: 1 << bad[0]
                        if tuple(points) == bad else real(span, points, q))
    return {"pentad_cones": f"radical {join_words(bad[:1])} is not the vertex"
                            f" {join_words((vertex,))}: pentad {join_words(bad)}"}


def _plant_sextet_line(ost, quadric, monkeypatch):
    # O*'s last sextet section loses one line; the fan row reads the same
    # 84 sections, and neither fig8 nor fig9 is built on this sextet.
    bad, real = ost.points[-6:], pg._mask_lines
    section = pg.sextet_intersection(ost, bad, quadric)
    mask = sum(1 << p for p in section.points)
    monkeypatch.setattr(pg, "_mask_lines",
                        lambda pts, m: real(pts, m)[1:] if m == mask else real(pts, m))
    message = f"sextet section has 44 lines: sextet {join_words(bad)}"
    return {"sextet_sections": message, "nuclei_fans": message}


def _plant_heptad_radical(ost, quadric, monkeypatch):
    # sigma wrong on the span of O*'s last heptad: its radical is a line
    # through the nucleus.
    bad, real = ost.points[-7:], pg._radical
    nucleus = pg.heptad_intersection(ost, bad, quadric)
    line = sorted((nucleus, bad[0], nucleus ^ bad[0]))
    monkeypatch.setattr(pg, "_radical", lambda span, points, q: sum(1 << p for p in line)
                        if tuple(points) == bad else real(span, points, q))
    return {"heptad_sections": f"radical {join_words(line)} is not the complementary"
                               f" secant point {join_words((nucleus,))}:"
                               f" heptad {join_words(bad)}"}


@pytest.mark.parametrize("plant", [_plant_pentad_radical, _plant_sextet_line,
                                   _plant_heptad_radical], ids=["pentad", "sextet", "heptad"])
def test_section_rows_fail_naming_their_object(plant, monkeypatch, capsys):
    # One section of O* planted wrong: `verify` exits 1, the rows that read
    # that section fail with its certificate's message, and the rest pass.
    failing = plant(pg.ostar(), pg.standard_quadric(4), monkeypatch)
    assert cli.main(["verify", "--n", "4", "--no-timings"]) == 1
    rows = [line.split(" | ") for line in capsys.readouterr().out.splitlines()[2:-1]]
    assert {name.rstrip(): computed.rstrip() for name, _, computed, status in rows
            if status.rstrip() == "FAIL"} == {
        name: f"InternalConsistencyError: {message}" for name, message in failing.items()}


def test_nuclei_fans_row_fails_with_the_fan_certificate(monkeypatch):
    # The first sextet section with its first core point replaced by a skew
    # point w: moved by the first point p of the conic off the sextet, w
    # lands off the quadric, and the row fails with the fan's own message.
    ost, quadric, real = pg.ostar(), pg.standard_quadric(4), pg.sextet_intersection
    sextet, (p, a, b) = ost.points[:6], ost.points[6:]
    w = next(v for v in quadric.off_points if not quadric.contains(v ^ p))

    def sextet_intersection(o, sx, quadric):
        s = real(o, sx, quadric)
        if s.sextet != sextet:
            return s
        return pg.SextetSection(s.points, s.lines, s.sextet, s.mates, (w,) + s.core15[1:],
                                s.pairing_nucleus, s.pairing_lines)

    monkeypatch.setattr(pg, "sextet_intersection", sextet_intersection)
    [row] = verify.run_checks(r for r in verify.checks(4, "quick") if r[0] == "nuclei_fans")
    assert not row.ok
    assert row.computed == (
        f"InternalConsistencyError: core point {join_words((w,))} moves off the quadric to "
        f"{join_words((w ^ p,))}: ovoid {join_words(ost.points)} point {join_words((p,))}"
        f" nucleus {join_words((p ^ a ^ b,))}")


@pytest.mark.parametrize("n,row", [(3, "conwell_heptads"), (4, "conwell_heptads_rank3")])
def test_conwell_rows_fail_on_a_heptad_that_fails_its_certificate(n, row, monkeypatch, capsys):
    # A clique search that returns the first seven skew points of rank 3:
    # a line joining two of them has its third point on the quadric.
    monkeypatch.setattr(pg, "_cliques", lambda adj, size: [tuple(range(7))])
    quadric = pg.standard_quadric(3)
    heptad = quadric.off_points[:7]
    u, v = next((u, v) for u, v in itertools.combinations(heptad, 2) if quadric.contains(u ^ v))
    assert cli.main(["verify", "--n", str(n), "--no-timings"]) == 1
    rows = [line.split(" | ") for line in capsys.readouterr().out.splitlines()[2:-1]]
    assert {name.rstrip(): computed.rstrip() for name, _, computed, status in rows
            if status.rstrip() == "FAIL"} == {
        row: f"InternalConsistencyError: heptad line {join_words((u, v, u ^ v), 3)} touches the"
             f" quadric: heptad {join_words(heptad, 3)}"}


def _row(n, level, name):
    return next(fn for row, _, fn in verify.checks(n, level) if row == name)


def test_regulus_row_names_the_family_that_is_not_a_spread(monkeypatch):
    # The first rank-2 line moved to the other family: family 0 is left
    # with two lines, which cover six points, not nine.
    gens = pg.get_generators(pg.standard_quadric(2).context, "quadric")
    flipped = pg.GeneratorSet(gens.context, gens.bases, gens.masks,
                              [1 - gens.families[0], *gens.families[1:]], gens.quadric)
    monkeypatch.setattr(pg, "get_generators", lambda ctx, space: flipped)
    assert _row(2, "quick", "regulus_families")() == (
        "family 0 is not a spread: IZ,ZI,ZZ;XZ,ZX,YY")


def test_symmetry_row_names_the_first_word_that_disagrees(monkeypatch):
    # is_symmetric wrong on two rank-2 words: the row names the lower point.
    real = pauli_codec.is_symmetric
    monkeypatch.setattr(pauli_codec, "is_symmetric", lambda w: real(w) != (w in ("ZY", "XI")))
    first = min(("ZY", "XI"), key=pauli_codec.word_to_point)
    assert _row(2, "quick", "symmetry_matches_quadric")() == (
        f"13/15: first disagreement {first}")


@pytest.mark.parametrize("name", ["ostar_census_36_84", "random_ovoid_censuses"])
def test_census_rows_name_the_point_and_the_ovoid(name, monkeypatch):
    # One secant third point dropped, of O* or of the first ovoid meeting O*
    # in one point: that point is then neither a third point nor a nucleus.
    ost, real = pg.ostar(), pg.secant_third_points
    o = ost if name == "ostar_census_36_84" else next(
        x for x in pg.get_ovoids(pg.standard_quadric(4).context)
        if (x.mask & ost.mask).bit_count() == 1)
    dropped = max(real(o))
    monkeypatch.setattr(pg, "secant_third_points",
                        lambda x: real(x) - {dropped} if x == o else real(x))
    fault = f"35+84=bad: point {join_words((dropped,))} ovoid {join_words(o.points)}"
    assert _row(4, "quick", name)() == (
        fault if o is ost else f"36+84=120 {fault} 36+84=120")


@pytest.fixture(scope="module")
def copied_ovoid():
    """The cached ovoids with the second replaced by a copy of the first,
    and the table's rows that read them; the rows run once."""
    ovoids = pg.get_ovoids(pg.standard_quadric(4).context)
    planted = pg.OvoidSet((ovoids[0],) + ovoids[:1] + ovoids[2:])
    names = ("ovoid_total", "ovoids_through_each_point", "tetrad_dedup_global",
             "pairwise_intersection_law")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pg, "get_ovoids", lambda ctx: planted)
        rows = verify.run_checks(r for r in verify.checks(4, "full") if r[0] in names)
    return ovoids, {row.name: row for row in rows}


def test_census_rows_name_the_first_offender_of_a_copied_ovoid(copied_ovoid):
    # 960 ovoids still, so the count passes; the three censuses name, in
    # words, the first point off 64, the first tetrad off 24 and the pair.
    ovoids, rows = copied_ovoid
    first, lost = ovoids[0], ovoids[1]
    assert rows.pop("ovoid_total").ok
    assert not any(row.ok for row in rows.values())
    p = min(set(first.points) ^ set(lost.points))
    assert rows["ovoids_through_each_point"].computed == (
        f"point {join_words((p,))} on {65 if p in first else 63} ovoids")
    quadric = pg.standard_quadric(4)

    def tetrads(o):
        return [pg.tetrad_of_partition(o, part, quadric) for part in pg.triple_partitions(o)]

    lost_sets = {frozenset(itertools.chain(*lines)) for lines in tetrads(lost)}
    lines = next(lines for lines in tetrads(first)
                 if frozenset(itertools.chain(*lines)) not in lost_sets)
    assert rows["tetrad_dedup_global"].computed == (
        f"11200 distinct, tetrad {';'.join(map(join_words, lines))} multiplicity 25")
    assert rows["pairwise_intersection_law"].computed == (
        f"ovoids {join_words(first.points)} and {join_words(first.points)} meet in 9 points")


@pytest.mark.parametrize("k", [0, 1, 3])
def test_random_ovoid_censuses_row_names_a_missing_class(k, monkeypatch):
    # No ovoid meets O* in k points: the row names the class it lacks.
    ost, ovoids = pg.ostar(), pg.get_ovoids(pg.standard_quadric(4).context)
    planted = pg.OvoidSet(o for o in ovoids if (o.mask & ost.mask).bit_count() != k)
    monkeypatch.setattr(pg, "get_ovoids", lambda ctx: planted)
    assert _row(4, "quick", "random_ovoid_censuses")() == (
        f"no ovoid meets O* in {k} point" + "s" * (k != 1))


@pytest.mark.parametrize("kind", ["symmetric", "skew"])
def test_commutation_profiles_row_names_the_point(kind, monkeypatch):
    # A profile of fours planted on the last point of its kind that the row
    # reads: the quadric points off the six-ovoid family, or the skew points.
    ost, quadric, real = pg.ostar(), pg.standard_quadric(4), pg.commutation_profile
    fam = pg.six_ovoid_family(ost, pg.triple_partitions(ost)[0],
                              pg.get_generators(quadric.context, "quadric"))
    w = max(set(quadric.points) - fam.points if kind == "symmetric" else quadric.off_points)
    monkeypatch.setattr(pg, "commutation_profile",
                        lambda p, six: (4,) * 6 if p == w else real(p, six))
    assert _row(4, "quick", "commutation_profiles")() == (
        f"{kind} profile (4, 4, 4, 4, 4, 4): point {join_words((w,))}")


def test_sextet_sections_are_built_once_for_both_rows(monkeypatch):
    # The section row and the fan row share O*'s 84 sextet sections.
    real, calls = pg.sextet_intersection, []

    def sextet_intersection(o, sx, quadric):
        calls.append(sx)
        return real(o, sx, quadric)

    monkeypatch.setattr(pg, "sextet_intersection", sextet_intersection)
    rows = verify.run_checks(r for r in verify.checks(4, "quick")
                             if r[0] in ("sextet_sections", "nuclei_fans"))
    assert [(row.computed, row.ok) for row in rows] == [
        ("84/84 sections", True), ("252/252 fans", True)]
    assert len(calls) == len(set(calls)) == 84


def test_reference_figures_are_built_once_per_table(monkeypatch):
    # fig8 and fig9 serve both their reference row and the figure_reports
    # row; heptad-family is built once per kind.
    real, built = cfg.figure, Counter()

    def figure(name, *args, **choices):
        built[name] += 1
        return real(name, *args, **choices)

    monkeypatch.setattr(cfg, "figure", figure)
    rows = verify.run_checks(verify.checks(4, "quick"))
    assert [row.name for row in rows if not row.ok] == []
    assert built == {**dict.fromkeys([*(f"fig{i}" for i in range(1, 11)), "split63"], 1),
                     "heptad-family": 2}


def test_criterion_14_determinism():
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "pauligeom", "verify", "--n", "4",
           "--level", "full", "--no-timings"]
    src = os.path.dirname(os.path.dirname(pauligeom.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env={**os.environ, "PYTHONPATH": path,
                              "PYTHONHASHSEED": seed})
        for seed in ("0", "1")
    ]
    (out0, err0), (out1, err1) = (p.communicate() for p in procs)
    assert [p.returncode for p in procs] == [0, 0], (err0, err1)
    assert out0 == out1
    assert out0.endswith(b"overall: PASS (33 checks, n=4, level=full)\n")
    _report(14, "byte-identical reports across hash seeds", t0)
