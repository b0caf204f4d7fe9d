"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion; each test also prints its own summary line.
"""

import itertools
import os
import random
import subprocess
import sys
import time

import pauligeom
from pauligeom import configurations as cfg
from pauligeom import gf2_core, matrix_oracle, pauli_codec
from pauligeom import polar_geometry as pg
from pauligeom.pauli_codec import GeometryContext, point_to_word, word_to_point


def _report(k, label, t0):
    print(f"criterion {k:02d} [{label}]: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_cardinalities(ctx4, quadric4):
    t0 = time.perf_counter()
    points = list(ctx4.points())
    assert len(points) == 255
    assert len(quadric4.points) == 135
    assert len(quadric4.off_points()) == 120
    for v in points:
        word = point_to_word(v, 4)
        assert pauli_codec.is_symmetric(word) == quadric4.contains(v)
        assert pauli_codec.is_symmetric(word) == (word.count("Y") % 2 == 0)
    _report(1, "cardinalities 255/135/120", t0)


def test_criterion_02_oracle_agreement():
    t0 = time.perf_counter()
    for n in (2, 3):
        stats = matrix_oracle.check_agreement(n)
        count = 4**n - 1
        assert stats["commutation_pairs"] == count * (count - 1) // 2
        assert stats["product_pairs"] == count * count
    stats = matrix_oracle.check_agreement(4)
    assert stats["words"] == 255
    assert stats["commutation_pairs"] == 32385
    assert stats["product_pairs"] == 65025
    _report(2, "matrix oracle agreement n=2,3,4", t0)


def test_criterion_03_generators(sympl4, gens4):
    t0 = time.perf_counter()
    assert len(sympl4) == 2295
    assert all(len(f) == 15 for f in sympl4.flats)
    assert len(gens4) == 270
    assert gens4.family_sizes() == (135, 135)
    assert len(pg.get_generators(GeometryContext(3), "symplectic")) == 135
    assert len(pg.get_generators(GeometryContext(2), "symplectic")) == 15
    _report(3, "generators 2295/270(135+135)/135/15", t0)


def test_criterion_04_coordinate_transform():
    t0 = time.perf_counter()
    images = [gf2_core.edge_to_standard(y) for y in pg.EDGE_OVOID_Y]
    assert images == [word_to_point(w) for w in pg.OSTAR_WORDS]
    assert len({gf2_core.edge_to_standard(y) for y in range(256)}) == 256
    _report(4, "coordinate transform", t0)


def test_criterion_05_ovoids(ctx4, gens4, quadric4, ovoids, ostar):
    t0 = time.perf_counter()
    assert pg.is_ovoid(ostar.points, gens4)
    assert len(ovoids) == 960
    for p in quadric4.points:
        assert len(pg.ovoids_through(ovoids, p)) == 64
    for o in ovoids:
        assert all(
            ctx4.sigma(u, v) == 1 for u, v in itertools.combinations(o.points, 2)
        )
        assert pg.is_ovoid(o.points, gens4)
    rng = random.Random(99)
    rejected = 0
    while rejected < 40:
        cand = tuple(sorted(rng.sample(quadric4.points, 9)))
        if any(ctx4.sigma(u, v) == 0
               for u, v in itertools.combinations(cand, 2)):
            assert not pg.is_ovoid(cand, gens4)
            rejected += 1
    _report(5, "960 ovoids, 64 per point, clique law", t0)


def test_criterion_06_fixed_ovoid_census(ovoids, ostar, quadric4):
    t0 = time.perf_counter()
    rng = random.Random(402)
    sample = [ostar] + rng.sample(
        [o for o in ovoids if o.points != ostar.points], 3
    )
    off = set(quadric4.off_points())
    for o in sample:
        thirds = pg.secant_third_points(o)
        nuclei = {c.nucleus for c in pg.conics_of(o)}
        assert len(thirds) == 36
        assert len(nuclei) == 84
        assert not thirds & nuclei
        assert thirds | nuclei == off
    _report(6, "36 secants + 84 nuclei = 120, four ovoids", t0)


def test_criterion_07_axes_and_tetrads(ovoids, ostar, quadric4, ctx4):
    t0 = time.perf_counter()
    partitions = pg.triple_partitions(ostar)
    assert len(partitions) == 280
    for part in partitions:
        axis = pg.axis_of_partition(ostar, part)
        assert all(not ctx4.is_on_quadric(p) for p in axis)
        tetrad = pg.tetrad_of_partition(ostar, part, quadric4)
        pts = tetrad.points()
        assert len(pts) == 12
        assert gf2_core.rank(pts) == 8
        assert all(not quadric4.contains(p) for p in pts)
    census = pg.tetrad_census(ovoids)
    assert sum(census.values()) == 268_800
    assert len(census) == 11_200
    assert set(census.values()) == {24}
    _report(7, "280 axes; 11200 tetrads, multiplicity 24", t0)


def test_criterion_08_solids(ostar, quadric4, ctx4):
    t0 = time.perf_counter()
    extras = []
    for quad in itertools.combinations(ostar.points, 4):
        extra = pg.solid_extra_point(ostar, quad)
        extras.append(extra)
        section = [
            p for p in gf2_core.span_points(quad) if quadric4.contains(p)
        ]
        assert len(section) == 5
        assert all(
            not quadric4.contains(u ^ v)
            for u, v in itertools.combinations(section, 2)
        )
    assert len(set(extras)) == 126
    assert set(extras) == set(quadric4.points) - set(ostar.points)
    _report(8, "126 solid extras, elliptic sections", t0)


def test_criterion_09_two_ovoid_law(ovoids, ostar):
    t0 = time.perf_counter()
    sizes = pg.pairwise_intersection_sizes(ovoids)
    assert set(sizes) <= {0, 1, 3}
    assert sum(sizes.values()) == 960 * 959 // 2
    for p in ostar.points:
        assert pg.ovoid_intersection_census(ovoids, ostar, p) == (35, 28)
    _report(9, f"intersection law {dict(sorted(sizes.items()))}", t0)


def test_criterion_10_higher_intersections(ostar, quadric4):
    t0 = time.perf_counter()
    for pentad in itertools.combinations(ostar.points, 5):
        cone = pg.pentad_intersection(ostar, pentad, quadric4)
        assert len(cone.points) == 11
        assert cone.vertex == pg.solid_extra_point(
            ostar, ostar.complement_in(pentad)
        )
        assert all(cone.vertex in line for line in cone.lines)
    for sextet in itertools.combinations(ostar.points, 6):
        section = pg.sextet_intersection(ostar, sextet, quadric4)
        assert len(section.points) == 27
        assert len(section.lines) == 45
        rest = ostar.complement_in(sextet)
        assert section.pairing_nucleus == rest[0] ^ rest[1] ^ rest[2]
    ref_triple = tuple(word_to_point(w) for w in ("ZIIX", "XZXI", "XXXX"))
    ref_section = pg.sextet_intersection(
        ostar, ostar.complement_in(ref_triple), quadric4
    )
    assert point_to_word(ref_section.pairing_nucleus, 4) == "ZYII"
    for heptad in itertools.combinations(ostar.points, 7):
        section = pg.heptad_intersection(ostar, heptad, quadric4)
        assert len(section.points) == 63
        pair = ostar.complement_in(heptad)
        assert section.nucleus == pair[0] ^ pair[1]
    _report(10, "pentad/sextet/heptad sections", t0)


def test_criterion_11_nuclei_aggregates(ostar, gens4):
    t0 = time.perf_counter()
    for p in ostar.points:
        others = ostar.complement_in((p,))
        nuclei = {p ^ a ^ b for a, b in itertools.combinations(others, 2)}
        assert len(nuclei) == 28
        for nucleus in nuclei:
            fan = cfg.nuclei_fan_structure(ostar, p, nucleus)
            assert len(fan.six_through_first) == 6
            assert len(fan.six_through_second) == 6
            assert len(fan.fan15) == 15
            assert fan.gq_lines == 45
    ref_fan = cfg.nuclei_fan_structure(
        ostar, word_to_point("XXXX"), word_to_point("ZYII")
    )
    assert point_to_word(ref_fan.concurrence, 4) == "YZXX"
    for p1, p2 in itertools.combinations(ostar.points, 2):
        rep = cfg.heptad_analogue(ostar, p1, p2)
        roles = rep.roles()
        assert roles["heptad-nucleus"] == 7
        assert roles["heptad-line-point"] == 21
        assert roles["triple-nucleus"] == 35
    a, b, c, d = ostar.points[:4]
    tri = cfg.heptad_family(ostar, ((a, b), (b, c), (a, c)), gens4)
    assert tri.annotations["heptads"] == "6"
    assert tri.annotations["common_point"] == point_to_word(a ^ b ^ c, 4)
    quad = cfg.heptad_family(ostar, ((a, b), (b, c), (c, d), (d, a)), gens4)
    assert quad.annotations["concurrence"] == point_to_word(
        pg.solid_extra_point(ostar, (a, b, c, d)), 4
    )
    assert len(quad.lines) == 4
    _report(11, "252 fans, 36 heptad analogues, heptad families", t0)


def test_criterion_12_commutation_profiles(ostar, gens4, quadric4):
    t0 = time.perf_counter()
    part = pg.triple_partitions(ostar)[0]
    family = pg.six_ovoid_family(ostar, part, gens4).all_ovoids()
    fam_points = {p for o in family for p in o.points}
    for w in quadric4.points:
        if w not in fam_points:
            assert pg.commutation_profile(w, family) == (5,) * 6
    from collections import Counter

    distribution = Counter()
    for w in quadric4.off_points():
        profile = pg.commutation_profile(w, family)
        assert set(profile) <= {3, 7}
        distribution[tuple(sorted(profile))] += 1
    print(f"  skew profile distribution: {dict(sorted(distribution.items()))}")
    _report(12, "commutation profiles 5s and {3,7}", t0)


def test_criterion_13_low_rank_sanity(ctx2, ctx3):
    t0 = time.perf_counter()
    q3 = pg.Quadric.standard_hyperbolic(ctx3)
    assert len(q3.points) == 35
    assert len(q3.off_points()) == 28
    heptads = pg.conwell_heptads(ctx3)
    assert len(heptads) == 8
    for a, b in itertools.combinations(heptads, 2):
        assert len(a & b) == 1
    q2 = pg.Quadric.standard_hyperbolic(ctx2)
    assert len(q2.points) == 9
    assert len(pg.get_generators(ctx2, "symplectic")) == 15
    _report(13, "rank 3: 35/28 and 8 heptads; rank 2: 9 points", t0)


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
