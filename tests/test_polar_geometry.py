import functools
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauligeom import configurations as cfg
from pauligeom import gf2_core
from pauligeom import polar_geometry as pg
from pauligeom.errors import InternalConsistencyError, UsageError
from pauligeom.gf2_core import rank, span_mask
from pauligeom.pauli_codec import GeometryContext, join_words, point_to_word, word_to_point


def _span(basis):
    """The nonzero vectors in the span of `basis`, as a set, from `span_mask`."""
    return set(pg.mask_points(span_mask(basis)))


def _is_rref(basis):
    """Reduced row-echelon form: the rows are nonzero, their leading bits
    strictly descend, and each is set in its own row alone."""
    tops = [r.bit_length() - 1 for r in basis]
    return (all(a > b for a, b in zip(tops, tops[1:] + [-1]))
            and all(sum(r >> t & 1 for r in basis) == 1 for t in tops))


def test_expected_count_examples():
    assert pg.expected_count("hyperbolic", "points", 4) == 135
    assert pg.expected_count("hyperbolic", "generators", 4) == 270
    assert pg.expected_count("symplectic", "generators", 4) == 2295


def test_expected_count_table():
    assert pg.expected_count("symplectic", "points", 4) == 255
    assert pg.expected_count("symplectic", "generators", 3) == 135
    assert pg.expected_count("symplectic", "generators", 2) == 15
    assert pg.expected_count("hyperbolic", "points", 3) == 35
    assert pg.expected_count("hyperbolic", "points", 2) == 9
    assert pg.expected_count("hyperbolic", "generators", 3) == 30
    assert pg.expected_count("hyperbolic", "generators", 2) == 6
    assert pg.expected_count("elliptic", "points", 3) == 27
    assert pg.expected_count("elliptic", "points", 2) == 5
    assert pg.expected_count("parabolic", "points", 3) == 63
    assert pg.expected_count("parabolic", "points", 1) == 3


def test_expected_count_usage_errors():
    with pytest.raises(UsageError):
        pg.expected_count("round", "points", 4)
    with pytest.raises(UsageError):
        pg.expected_count("hyperbolic", "corners", 4)
    with pytest.raises(UsageError):
        pg.expected_count("hyperbolic", "generators", 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadric_point_counts(n):
    q = pg.standard_quadric(n)
    assert len(q.points) == pg.expected_count("hyperbolic", "points", n)
    assert len(q.off_points) == 4**n - 1 - len(q.points)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_standard_quadric_is_the_zero_set_of_the_quadratic_form(n):
    ctx = GeometryContext(n)
    q = pg.standard_quadric(n)
    assert q is pg.standard_quadric(n) is pg.get_generators(ctx, "quadric").quadric
    assert q.context == ctx
    assert q.points == tuple(v for v in ctx.points() if ctx.quadratic(v) == 0)
    assert q.mask == sum(1 << v for v in q.points)
    # the off-quadric points are built once, with the quadric
    assert q.off_points is pg.standard_quadric(n).off_points
    assert q.off_points == tuple(v for v in ctx.points() if v not in set(q.points))


def _brute_force_generators(ctx, space_kind):
    """The span masks of all n-subsets of ground points of rank n whose
    span is totally isotropic (every pair has sigma 0), and for the
    quadric also totally singular, in sorted order."""
    n = ctx.n_qubits
    ground = [p for p in ctx.points() if space_kind == "symplectic" or ctx.quadratic(p) == 0]
    found = set()
    for subset in itertools.combinations(ground, n):
        if any(ctx.sigma(u, v) for u, v in itertools.combinations(subset, 2)):
            continue
        pts = _span(subset)
        isotropic = all(ctx.sigma(u, v) == 0 for u, v in itertools.combinations(pts, 2))
        singular = space_kind == "symplectic" or all(ctx.quadratic(p) == 0 for p in pts)
        if rank(subset) == n and isotropic and singular:
            found.add(span_mask(subset))
    return sorted(found)


def _assert_generators_complete(gs, count):
    """Every flat is a totally isotropic (n-1)-flat whose mask is its point
    set, and the masks are pairwise distinct; with the closed-form count
    the list is then exactly the set of generators."""
    ctx = gs.context
    n = ctx.n_qubits
    perp = {p: ctx.perp_mask(p) for p in ctx.points()}
    assert len(gs) == len(gs.masks) == count
    for basis, mask in zip(gs.bases, gs.masks):
        pts = _span(basis)
        assert len(basis) == n and len(pts) == 2**n - 1
        assert mask == sum(1 << p for p in pts)
        assert all(mask & ~perp[p] == 0 for p in pts)
    assert len(set(gs.masks)) == count


@pytest.mark.parametrize("n,count", [(2, 15), (3, 135), (4, 2295)])
def test_symplectic_generators(n, count):
    gs = pg.get_generators(GeometryContext(n), "symplectic")
    assert count == pg.expected_count("symplectic", "generators", n)
    _assert_generators_complete(gs, count)


@pytest.mark.parametrize("n,count", [(2, 6), (3, 30), (4, 270)])
def test_quadric_generators(n, count):
    gq = pg.get_generators(GeometryContext(n), "quadric")
    assert count == pg.expected_count("hyperbolic", "generators", n)
    _assert_generators_complete(gq, count)
    assert gq.family_sizes() == (count // 2, count // 2)
    quadric = gq.quadric
    for basis in gq.bases:
        assert all(quadric.contains(p) for p in _span(basis))


@pytest.mark.parametrize("space_kind", ["symplectic", "quadric"])
@pytest.mark.parametrize("n", [2, 3])
def test_generators_match_brute_force_spans(n, space_kind):
    ctx = GeometryContext(n)
    gens = pg.enumerate_generators(ctx, space_kind)
    # A span has one RREF basis, so RREF bases of the same spans are the same bases.
    assert all(_is_rref(b) for b in gens.bases)
    assert [span_mask(b) for b in gens.bases] == list(gens.masks)
    assert sorted(gens.masks) == _brute_force_generators(ctx, space_kind)


@pytest.mark.parametrize("space_kind", ["symplectic", "quadric"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_bases_are_in_reduced_row_echelon_form(n, space_kind):
    gens = pg.get_generators(GeometryContext(n), space_kind)
    assert len(gens.bases) == len(gens)
    assert all(_is_rref(b) and rank(b) == len(b) == n for b in gens.bases)
    assert list(gens.bases) == sorted(gens.bases)


def test_repeated_generator_is_named_in_words(monkeypatch):
    # Bands holding every point up to their column let a flat be reached
    # from bases that are not reduced, so it is built more than once.
    monkeypatch.setattr(pg, "_column_bands",
                        lambda dim: tuple((1 << (2 << c)) - 2 for c in range(dim)))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.enumerate_generators(GeometryContext(3), "symplectic")
    assert str(exc.value) == "symplectic generator IZI,XII,IIX is built twice"


@pytest.mark.parametrize("space_kind,limit_kb", [("symplectic", 1536), ("quadric", 256)])
def test_generator_enumeration_holds_one_path_of_flats(space_kind, limit_kb):
    # Depth first, only the flats on the current echelon path are held
    # besides the generators found: W(7,2)'s 2 295 generators peak at
    # about 0.5 MB, where holding each whole level of flats takes 3.9 MB
    # (quadric: about 50 KB, against 0.5 MB).
    ctx = GeometryContext(4)
    # Fill the tables the enumeration reads first, so only it is traced.
    gf2_core.xor_tables(ctx.dim)
    pg.standard_quadric(4)
    tracemalloc.start()
    try:
        pg.enumerate_generators(ctx, space_kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_kb * 1024


def test_unequal_generator_families_are_named_in_words(monkeypatch):
    # Every generator put in the first family: the halves check gives both
    # counts and the reference generator, the first in sorted order.
    first = pg.get_generators(GeometryContext(2), "quadric").bases[0]
    monkeypatch.setattr(pg, "_family_of", lambda ref, g, n: 0)
    with pytest.raises(InternalConsistencyError) as exc:
        pg.enumerate_generators(GeometryContext(2), "quadric")
    assert str(exc.value) == ("generator families are not equal halves: 6 and 0"
                              f" against generator {join_words(first, 2)}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_perp_masks_by_bilinearity_match_direct_masks(n):
    ctx = GeometryContext(n)
    assert pg.standard_quadric(n).perp == {p: ctx.perp_mask(p) for p in ctx.points()}


# Runs one command line in a fresh process and prints its exit status and
# the rank of each `_perp_masks` call: a profiler counts the calls made by
# importing `polar_geometry`, a wrapper those made by the command.
_COUNT_PERP_FILLS = """\
import sys
ranks = []
def count(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "_perp_masks":
        ranks.append(frame.f_locals["ctx"].n_qubits)
sys.setprofile(count)
import pauligeom.polar_geometry as pg
sys.setprofile(None)
fill = pg._perp_masks
pg._perp_masks = lambda ctx: ranks.append(ctx.n_qubits) or fill(ctx)
from pauligeom import cli
status = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(status, *sorted(ranks), file=sys.stderr)
"""


@pytest.mark.parametrize("argv,fills", [
    ([], "0"),
    (["config", "fig1"], "0 4"),
    (["verify", "--n", "4", "--level", "full", "--no-timings"], "0 3 4"),
], ids=["import", "config-fig1", "verify-full"])
def test_each_rank_fills_its_perp_masks_once_and_on_first_use(argv, fills):
    # The rank's quadric owns its perp masks: importing fills none, and a
    # command fills each rank it reads exactly once.
    env = dict(os.environ, PYTHONPATH=str(Path(pg.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", _COUNT_PERP_FILLS, *argv], env=env,
                          capture_output=True, text=True)
    assert done.stderr == fills + "\n"


def test_family_relation_is_consistent(gens4):
    # same label iff the linear intersection dimension has the rank parity
    n = 4
    bases, fams = gens4.bases, gens4.families
    rng = random.Random(13)
    idx = rng.sample(range(len(bases)), 60)
    for i, j in itertools.combinations(idx, 2):
        inter = 2 * n - rank(bases[i] + bases[j])
        same = (inter - n) % 2 == 0
        assert same == (fams[i] == fams[j])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_families_by_popcount_match_the_echelon_rule(n):
    # every generator against the first: same family iff the linear
    # dimension of the intersection, from the rank of both bases, has
    # the parity of n
    gens = pg.get_generators(GeometryContext(n), "quadric")
    ref = gens.bases[0]
    assert list(gens.families) == [
        (2 * n - rank(ref + b) - n) % 2 for b in gens.bases]


def test_generator_cache_is_keyed_by_rank():
    a, b = GeometryContext(4), GeometryContext(4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != GeometryContext(3)
    assert pg.get_generators(a, "quadric") is pg.get_generators(b, "quadric")


def test_equal_records_compare_and_hash_equal(ostar, gens4):
    again = pg.Ovoid.from_points(reversed(ostar.points))
    assert again is not ostar and again == ostar and hash(again) == hash(ostar)
    assert ostar != pg.second_ovoid_on_conic(ostar, ostar.points[:3], gens4)


def test_families_at_rank_two_are_reguli():
    gq = pg.get_generators(GeometryContext(2), "quadric")
    for fam in (0, 1):
        lines = [b for b, lab in zip(gq.bases, gq.families) if lab == fam]
        assert len(lines) == 3
        pts = [_span(b) for b in lines]
        assert not (pts[0] & pts[1] or pts[0] & pts[2] or pts[1] & pts[2])
        assert len(pts[0] | pts[1] | pts[2]) == 9


def test_ostar_is_an_ovoid(gens4, ostar):
    assert pg.is_ovoid(ostar.points, gens4)


def test_subsets_and_perturbations_are_not_ovoids(gens4, quadric4, ostar):
    for drop in range(9):
        sub = tuple(p for i, p in enumerate(ostar.points) if i != drop)
        assert not pg.is_ovoid(sub, gens4)
    replaced = 0
    for q in quadric4.points:
        if q in ostar:
            continue
        cand = ostar.points[1:] + (q,)
        assert not pg.is_ovoid(cand, gens4)
        replaced += 1
    assert replaced == 126


def test_is_ovoid_rejects_off_quadric_points(gens4):
    with pytest.raises(UsageError, match="point IYZX is not on the quadric"):
        pg.is_ovoid((word_to_point("IYZX"),), gens4)


def test_failed_ovoid_certificate_names_the_cover(monkeypatch, gens4):
    monkeypatch.setattr(pg, "is_ovoid", lambda points, gens: False)
    with pytest.raises(InternalConsistencyError,
                       match=r"^cover [IXYZ]{4}(,[IXYZ]{4}){8} fails the ovoid test$"):
        pg.enumerate_ovoids(gens4.quadric, gens4)


def test_ovoid_enumeration_counts(ovoids, quadric4):
    assert len(ovoids) == 960
    through = [len(pg.ovoids_through(ovoids, p)) for p in quadric4.points]
    assert set(through) == {64}


def test_ovoid_index_matches_membership(ovoids, quadric4):
    # Bit i of through[p] is set exactly when p lies on ovoid i: all
    # 135 x 960 pairs.
    through = ovoids.through
    assert isinstance(ovoids, pg.OvoidSet) and isinstance(ovoids, tuple)
    assert set(through) == set(quadric4.points)
    for p in quadric4.points:
        assert [bool(through[p] >> i & 1) for i in range(960)] == [p in o for o in ovoids]


def test_generator_index_matches_membership(gens4, quadric4):
    # Bit j of generators_through[p] is set exactly when p lies on
    # generator j, read from the span of its basis: all 135 x 270 pairs.
    through = gens4.generators_through
    spans = [_span(b) for b in gens4.bases]
    assert set(through) == set(quadric4.points)
    for p in quadric4.points:
        assert [bool(through[p] >> j & 1) for j in range(270)] == [p in f for f in spans]


def test_ovoids_through_equals_the_membership_filter(ovoids, quadric4):
    for p in quadric4.points:
        assert pg.ovoids_through(ovoids, p) == tuple(o for o in ovoids if p in o)


def test_ovoids_through_reads_the_index_of_an_ovoid_subset(ovoids, quadric4):
    first = pg.OvoidSet(ovoids[:10])
    for p in quadric4.points:
        assert pg.ovoids_through(first, p) == tuple(o for o in first if p in o)


def test_every_ovoid_is_a_nonperp_clique_and_conversely(ovoids, quadric4):
    # Exhaustive: the 9-cliques of the sigma = 1 graph on the quadric are
    # the ovoids the exact-cover search finds, set for set.
    pts, ctx = quadric4.points, quadric4.context
    adj = [sum(1 << j for j, q in enumerate(pts) if ctx.sigma(p, q)) for p in pts]
    cliques = pg._cliques(adj, 9)
    assert sorted(tuple(pts[i] for i in c) for c in cliques) == [o.points for o in ovoids]


def test_points_sharing_a_generator_are_the_perpendicular_quadric_points(gens4, quadric4):
    # The reference for the ovoid search's blocking: the search blocks a
    # chosen point's perp mask, and the points sharing a generator with it,
    # read off the generators, are that perp mask on the quadric, for all
    # 135 points.
    perp = quadric4.perp
    for p in quadric4.points:
        clash = 0
        for m in gens4.masks:
            if m >> p & 1:
                clash |= m
        assert clash == perp[p] & quadric4.mask


def _meets_every_generator_once(points, gens):
    """The definition of an ovoid, read straight off the generator masks."""
    m = sum(1 << p for p in set(points))
    return all((m & gm).bit_count() == 1 for gm in gens.masks)


def test_is_ovoid_agrees_with_the_definition(ovoids, gens4, quadric4, ostar):
    pts = ostar.points
    cases = [o.points for o in ovoids]
    cases += [pts[:i] + pts[i + 1:] + (q,) for i in range(9)
              for q in quadric4.points if q not in ostar]
    cases += [pts[:i] + pts[i + 1:] for i in range(9)]
    cases += [o.points[1:] for o in ovoids]
    cases += [pts + pts[:1], pts[1:] + pts[1:2]]
    assert len(cases) == 960 + 9 * 126 + 9 + 960 + 2
    verdicts = [pg.is_ovoid(c, gens4) for c in cases]
    assert verdicts == [_meets_every_generator_once(c, gens4) for c in cases]
    assert verdicts.count(True) == 961


@given(st.data())
def test_is_ovoid_agrees_with_the_definition_on_drawn_lists(gens4, ovoids, data):
    # Nine draws with replacement: plain quadric points, or an ovoid with up
    # to two points replaced; both can repeat a point.
    on_quadric = gens4.quadric.points
    if data.draw(st.booleans()):
        pts = data.draw(st.lists(st.sampled_from(on_quadric), min_size=9, max_size=9))
    else:
        pts = list(data.draw(st.sampled_from(ovoids)).points)
        edits = st.tuples(st.integers(0, 8), st.sampled_from(on_quadric))
        for i, q in data.draw(st.lists(edits, max_size=2)):
            pts[i] = q
    assert pg.is_ovoid(pts, gens4) == _meets_every_generator_once(pts, gens4)


def test_secant_third_points(ostar, quadric4):
    thirds = pg.secant_third_points(ostar)
    assert len(thirds) == 36
    assert all(not quadric4.contains(t) for t in thirds)
    spot = word_to_point("ZIIX") ^ word_to_point("XXXX")
    assert point_to_word(spot, 4) == "YXXI"
    assert spot in thirds


def test_repeated_secant_third_point_names_the_ovoid():
    # Nine points of a solid hold lines, so two secants share a third point.
    o = pg.Ovoid.from_points(range(1, 10))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.secant_third_points(o)
    assert str(exc.value) == ("secant third points are not distinct:"
                              " ovoid IIIX,IIXI,IIXX,IXII,IXIX,IXXI,IXXX,XIII,XIIX")


def test_conic_census(ostar, quadric4):
    triples = list(itertools.combinations(ostar.points, 3))
    assert len(triples) == 84
    nuclei = {a ^ b ^ c for a, b, c in triples}
    assert len(nuclei) == 84
    thirds = pg.secant_third_points(ostar)
    assert not (nuclei & thirds)
    off = set(quadric4.off_points)
    assert nuclei | thirds == off
    assert len(off) == 120
    for a, b, c in triples:
        plane = _span((a, b, c))
        assert len(plane) == 7 and a ^ b ^ c in plane
        assert sorted(p for p in plane if quadric4.contains(p)) == [a, b, c]


def test_section_builders_reject_repeated_points(ostar, gens4, quadric4):
    a, b, c, d, e, f, g = ostar.points[:7]
    with pytest.raises(UsageError, match="need 3 distinct points"):
        pg.second_ovoid_on_conic(ostar, (a, b, b), gens4)
    with pytest.raises(UsageError, match="need 4 distinct points"):
        pg.solid_extra_point(ostar, (a, b, c, c), quadric4)
    with pytest.raises(UsageError, match="need 5 distinct points"):
        pg.pentad_intersection(ostar, (a, a, b, c, d), quadric4)
    with pytest.raises(UsageError, match="need 6 distinct points"):
        pg.sextet_intersection(ostar, (a, b, c, d, e, e), quadric4)
    with pytest.raises(UsageError, match="need 7 distinct points"):
        pg.heptad_intersection(ostar, (a, b, c, d, e, f, f), quadric4)
    assert ostar.distinct_points((c, a, b), 3) == (a, b, c)
    assert pg.heptad_intersection(ostar, (a, b, c, d, e, f, g), quadric4)


def test_partitions_axes_and_tetrads(ostar, quadric4):
    partitions = pg.triple_partitions(ostar)
    assert len(partitions) == 280
    seen = set()
    for part in partitions:
        axis = pg.axis_of_partition(ostar, part, quadric4)
        assert all(not quadric4.contains(p) and p for p in axis)
        lines = pg.tetrad_of_partition(ostar, part, quadric4)
        points = [p for line in lines for p in line]
        assert len(points) == len(set(points)) == 12
        assert rank(points) == 8
        assert all(not quadric4.contains(p) for p in points)
        seen.add(tuple(lines))
    assert len(seen) == 280


def _reference_tetrad(part, quadric):
    """Mask and lines of a partition's tetrad, from each conic plane's
    four off-quadric points: the plane's one off-quadric line plus the
    nucleus, with the three nuclei making the axis."""
    lines, nuclei, points = [], [], set()
    for triple in part:
        off = {p for p in _span(triple) if not quadric.contains(p)}
        assert len(off) == 4
        (line,) = {tuple(sorted((u, v, u ^ v)))
                   for u, v in itertools.combinations(off, 2) if u ^ v in off}
        lines.append(line)
        (nucleus,) = off - set(line)
        nuclei.append(nucleus)
        points |= off
    lines.append(tuple(sorted(nuclei)))
    assert len(points) == 12 and rank(points) == 8
    return sum(1 << p for p in points), tuple(sorted(lines))


@functools.cache
def _off_index(quadric):
    return {p: i for i, p in enumerate(quadric.off_points)}


def _to_frame(mask, quadric):
    """The frame key of a mask of skew points: bit i for off point i."""
    index = _off_index(quadric)
    return sum(1 << index[p] for p in pg.mask_points(mask))


def _from_frame(key, quadric):
    """The point mask of a frame key."""
    return sum(1 << quadric.off_points[i] for i in pg.mask_points(key))


def _lines_of(mask):
    """The full lines inside a point mask."""
    return pg._mask_lines(pg.mask_points(mask), mask)


@pytest.mark.parametrize("n, size", [(2, 6), (3, 28), (4, 120)])
def test_skew_frame_indexes_the_off_points_in_order_with_sigma(n, size):
    ctx = GeometryContext(n)
    bit, points, anti = pg._skew_frame(n)
    assert points == pg.standard_quadric(n).off_points and list(points) == sorted(points)
    assert len(points) == size
    assert bit == tuple(1 << points.index(p) if p in points else 0 for p in range(1 << 2 * n))
    # every ordered pair of skew points, against sigma itself
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            assert anti[i] >> j & 1 == ctx.sigma(p, q)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cliques_on_the_rank3_frame_are_the_brute_force_cliques(k):
    # Full neighbour masks: each clique once, ascending, in lexicographic
    # order, rooted at its lowest index.
    anti = pg._skew_frame(3)[2]
    brute = [c for c in itertools.combinations(range(28), k)
             if all(anti[i] >> j & 1 for i, j in itertools.combinations(c, 2))]
    assert pg._cliques(anti, k) == brute


def test_tetrad_census_is_the_full_mask_census_mapped_into_the_frame(
        ovoids, census, quadric4):
    # Each partition's 12-point mask over point values, as
    # `_reference_tetrad` returns it: per conic {a, b, c}, the points
    # a^b, a^c, b^c and a^b^c.  (That those are the conic plane's four
    # off-quadric points is checked through span_mask on O*.)
    full = Counter()
    for o in ovoids:
        conic = [1 << (a ^ b) | 1 << (a ^ c) | 1 << (b ^ c) | 1 << (a ^ b ^ c)
                 for a, b, c in itertools.combinations(o.points, 3)]
        full.update([conic[x] | conic[y] | conic[z] for x, y, z in pg._PATTERN_TRIPLES])
    assert all(mask.bit_count() == 12 and not mask & quadric4.mask for mask in full)
    mapped = Counter()
    for mask, count in full.items():
        mapped[_to_frame(mask, quadric4)] += count
    assert mapped == census
    assert len(census) == 11200 and set(census.values()) == {24}


def test_single_ovoid_tetrad_census(ostar, quadric4):
    census = pg.tetrad_census([ostar])
    assert len(census) == 280
    assert set(census.values()) == {1}
    # independent construction through span_mask and rank
    reference = {}
    for part in pg.triple_partitions(ostar):
        mask, lines = _reference_tetrad(part, quadric4)
        assert tuple(pg.tetrad_of_partition(ostar, part, quadric4)) == lines
        reference[_to_frame(mask, quadric4)] = lines
    assert set(census) == set(reference)
    assert all(tuple(pg.certify_tetrad(_from_frame(key, quadric4), quadric4.mask))
               == tuple(pg.tetrad_lines(key)) == reference[key] for key in census)


def test_tetrad_census_certifies_each_distinct_key_once(ovoids, monkeypatch):
    certified = []
    walk = pg.tetrad_lines

    def recording(key):
        certified.append(key)
        return walk(key)

    monkeypatch.setattr(pg, "tetrad_lines", recording)
    census = pg.tetrad_census(ovoids[:20])
    assert sum(census.values()) == 20 * 280 > len(census)
    assert sorted(certified) == sorted(census)


def test_tetrad_certifier_rejects_four_skew_lines_of_rank_7(quadric4):
    words = "IXYI,XYIX,XZYX;XIIY,ZXYI,YXYY;XIZY,YXII,ZXZY;IIYI,ZYXX,ZYZX"
    lines = [[word_to_point(w) for w in line.split(",")] for line in words.split(";")]
    points = [p for line in lines for p in line]
    assert all(u ^ v == w for u, v, w in lines)
    assert len(set(points)) == 12 and rank(points) == 7
    assert not any(map(quadric4.contains, points))
    mask = sum(1 << p for p in points)
    rendered = ";".join(",".join(point_to_word(p, 4) for p in line)
                        for line in _lines_of(mask))
    assert sorted(rendered.split(";")) == sorted(words.split(";"))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.certify_tetrad(mask, quadric4.mask)
    assert str(exc.value) == f"tetrad does not span the whole space: {rendered}"


# Four skew spanning lines that do not commute.  In the second, the lowest
# point of each line commutes with the other three lines, so only the check
# on each line's second point rejects it.
@pytest.mark.parametrize("words,lowest_commute", [
    ("IXIY,XIYX,XXYZ;XXIY,ZZYX,YYYZ;IIZY,ZXXY,ZXYI;IZZY,YXXZ,YYYX", False),
    ("IIYI,IYXX,IYZX;IXYX,IYII,IZYX;IYYY,YIIX,YYYZ;XYYY,YXIX,ZZYZ", True),
], ids=["some lowest point anticommutes", "only second points anticommute"])
def test_tetrad_certifier_rejects_four_skew_spanning_lines_that_do_not_commute(
        words, lowest_commute, quadric4):
    lines = [[word_to_point(w) for w in line.split(",")] for line in words.split(";")]
    points = [p for line in lines for p in line]
    assert all(u ^ v == w for u, v, w in lines)
    assert len(set(points)) == 12 and rank(points) == 8
    assert not any(map(quadric4.contains, points))
    sigma = quadric4.context.sigma
    assert any(sigma(p, q) for k, line in enumerate(lines) for other in lines[k + 1:]
               for p in line for q in other)
    assert lowest_commute == all(not sigma(min(line), q) for line in lines
                                 for other in lines if other is not line for q in other)
    mask = sum(1 << p for p in points)
    rendered = ";".join(",".join(point_to_word(p, 4) for p in line)
                        for line in _lines_of(mask))
    assert sorted(rendered.split(";")) == sorted(words.split(";"))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.certify_tetrad(mask, quadric4.mask)
    assert str(exc.value) == f"tetrad lines do not commute: {rendered}"


def test_tetrad_walk_rejects_every_one_point_swap_of_a_census_key(census):
    # The first key with one of its 12 points traded for one of the 108
    # other skew points: 11 points of a tetrad fix its four lines, so no
    # such key is a tetrad.
    key = next(iter(census))
    swapped = [key ^ 1 << i | 1 << j for i in range(120) if key >> i & 1
               for j in range(120) if not key >> j & 1]
    assert len(swapped) == 12 * 108
    assert pg.tetrad_lines(key) is not None
    assert [k for k in swapped if pg.tetrad_lines(k) is not None] == []


def test_tetrad_walk_rejects_the_lines_of_a_tetrad_short_of_twelve_points(ostar):
    # One, two or three of a tetrad's four commuting lines, as a census key
    # of a set holding quadric points or 0 can be.
    bit = pg._skew_frame(4)[0]
    for key in pg.tetrad_census([ostar]):
        lines = [bit[u] | bit[v] | bit[w] for u, v, w in pg.tetrad_lines(key)]
        for k in (1, 2, 3):
            for kept in itertools.combinations(lines, k):
                assert pg.tetrad_lines(sum(kept)) is None


@pytest.fixture(scope="module")
def census_masks(census, quadric4):
    """The point mask of each census key."""
    return [_from_frame(key, quadric4) for key in census]


def test_tetrad_certificate_lists_the_full_lines_of_every_census_key(census_masks, quadric4):
    # The former certificate, kept as the reference: the set holds exactly
    # four full lines, and their eight generators have rank 8.
    assert len(census_masks) == 11200
    for mask in census_masks:
        lines = _lines_of(mask)
        assert pg.certify_tetrad(mask, quadric4.mask) == lines
        assert len(lines) == 4
        assert gf2_core.rank([p for u, v, _ in lines for p in (u, v)]) == 8


def _no_partner_set(mask, quadric):
    # A tetrad with one point w of its first line traded for an
    # off-quadric point that leaves some point with no partner.
    w = pg.certify_tetrad(mask, quadric.mask)[0][2]
    for x in quadric.off_points:
        pts = pg.mask_points(mask ^ 1 << w | 1 << x)
        if len(pts) == 12 and any(
                not any(p ^ q in pts for q in pts if q != p) for p in pts):
            return mask ^ 1 << w | 1 << x
    raise AssertionError("no such point")


# Twelve off-quadric points on four disjoint lines that also hold a fifth
# line, so that no four of their lines make a tetrad.  In the first, the
# lowest point's lowest partner lies on one of the four lines; in the
# second, on the fifth.
_FIFTH_LINE_SETS = {
    "fifth line off the lowest point": "XXXY,YIXI,ZXIY;IXZY,IZIY,IYZI;XIYZ,YIXX,ZIZY;"
                                       "IYXI,YIZI,YYYI",
    "fifth line on the lowest point": "IXYZ,YIXI,YXZZ;XZXY,YXZI,ZYYY;XYXZ,YIII,ZYXZ;"
                                      "XYZX,YXIZ,ZZZY",
}


@pytest.mark.parametrize("plant", ["no partner", "eleven points", "on quadric",
                                   *_FIFTH_LINE_SETS])
def test_tetrad_certifier_rejects_sets_that_are_not_four_skew_lines(
        plant, ostar, quadric4):
    mask = min(_from_frame(key, quadric4) for key in pg.tetrad_census([ostar]))
    if plant in _FIFTH_LINE_SETS:
        mask = sum(1 << word_to_point(w) for w in re.split("[,;]", _FIFTH_LINE_SETS[plant]))
        assert mask.bit_count() == 12 and len(_lines_of(mask)) == 5
    elif plant == "no partner":
        mask = _no_partner_set(mask, quadric4)
        assert mask.bit_count() == 12 and len(set().union(*_lines_of(mask))) < 12
    elif plant == "eleven points":
        mask &= mask - 1
    else:
        low = mask & -mask
        mask ^= low | 1 << min(quadric4.points)
        assert mask.bit_count() == 12
    with pytest.raises(InternalConsistencyError) as exc:
        pg.certify_tetrad(mask, quadric4.mask)
    assert str(exc.value) == "tetrad is not four skew off-quadric lines: " + ",".join(
        point_to_word(p, 4) for p in pg.mask_points(mask))


def _census_fault_parts(message, o):
    """The certifier's reason and the partition's three point triples from
    a census failure on ovoid `o`, checking that the message names `o`."""
    ovoid_words = ",".join(point_to_word(p, 4) for p in o.points)
    reason, named, part = message.partition(f": ovoid {ovoid_words} partition ")
    assert named, message
    groups = [[word_to_point(w) for w in g.split(",")] for g in part.split("/")]
    assert sorted(p for g in groups for p in g) == list(o.points)
    assert [len(g) for g in groups] == [3, 3, 3]
    return reason, groups


_NOT_FOUR_LINES = "tetrad is not four skew off-quadric lines"


@pytest.mark.parametrize("words,what", [
    # O* with XXXX replaced by IIIX: a partition nucleus lands on the quadric.
    ("IIIX,IXXZ,XIZI,XZXI,IZYY,ZIIX,ZXZZ,ZZIZ,YYZX", _NOT_FOUR_LINES),
    # Not an ovoid: two conics of a partition share an off-quadric point.
    ("IIIX,IIXZ,IXZZ,XIZY,XZXZ,XYZZ,ZIZZ,YYIY,YYYZ", _NOT_FOUR_LINES),
    # O* with its third point replaced by the sum of the first two: that
    # collinear triple's nucleus is the zero vector, which has no word.
    ("XXXX,IXXZ,XIIY,XZXI,IZYY,ZIIX,ZXZZ,ZZIZ,YYZX", "tetrad holds the zero vector"),
], ids=["point on quadric", "lines overlap", "collinear triple"])
def test_tetrad_census_names_the_failing_ovoid_and_partition(words, what):
    o = pg.Ovoid.from_points(word_to_point(w) for w in words.split(","))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.tetrad_census([o])
    reason, groups = _census_fault_parts(str(exc.value), o)
    # The reason is the certifier's, on the named partition's 12-point set,
    # worded without the zero vector.
    key = 0
    for a, b, c in groups:
        key |= 1 << (a ^ b) | 1 << (a ^ c) | 1 << (b ^ c) | 1 << (a ^ b ^ c)
    assert reason == f"{what}: " + ",".join(
        point_to_word(p, 4) for p in pg.mask_points(key) if p)


def test_tetrad_census_names_the_ovoid_and_partition_of_a_commutation_failure(
        ostar, quadric4, monkeypatch):
    # sigma planted wrong at one pair of points, on two lines of the tetrad
    # of O*'s first partition, in the perp table; the walk reads the skew
    # frame built from it, so a fresh frame cache is put in place for the test.
    _, lines = _reference_tetrad(pg.triple_partitions(ostar)[0], quadric4)
    u, x = lines[0][0], lines[1][0]
    table = quadric4.perp
    monkeypatch.setitem(table, u, table[u] ^ 1 << x)
    monkeypatch.setitem(table, x, table[x] ^ 1 << u)
    monkeypatch.setattr(pg, "_skew_frame", functools.cache(pg._skew_frame.__wrapped__))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.tetrad_census([ostar])
    reason, groups = _census_fault_parts(str(exc.value), ostar)
    # Keys are certified in order of first occurrence: O*'s first partition.
    assert groups == [list(t) for t in pg.triple_partitions(ostar)[0]]
    assert reason == "tetrad lines do not commute: " + ";".join(
        ",".join(point_to_word(p, 4) for p in line) for line in lines)


def _direct_intersection_sizes(ovoids):
    return Counter((a.mask & b.mask).bit_count() for a, b in itertools.combinations(ovoids, 2))


def test_pairwise_intersection_sizes_match_the_direct_count(ovoids):
    got = pg.pairwise_intersection_sizes(ovoids)
    assert dict(got) == dict(_direct_intersection_sizes(ovoids))
    assert dict(got) == {0: 268800, 1: 151200, 3: 40320}
    # A repeated ovoid meets itself in all nine points.
    listed = [ovoids[5], ovoids[0], ovoids[5], ovoids[17]]
    got = pg.pairwise_intersection_sizes(pg.OvoidSet(listed))
    assert dict(got) == dict(_direct_intersection_sizes(listed))
    assert got[9] == 1


@given(st.data())
def test_pairwise_intersection_sizes_on_drawn_lists(ovoids, data):
    listed = data.draw(st.lists(st.sampled_from(ovoids), max_size=40))
    got = pg.pairwise_intersection_sizes(pg.OvoidSet(listed))
    assert dict(got) == dict(_direct_intersection_sizes(listed))


def test_second_ovoid_on_conic(ostar, gens4, quadric4):
    triple = ostar.points[:3]
    other = pg.second_ovoid_on_conic(ostar, triple, gens4)
    assert (other.mask & ostar.mask).bit_count() == 3
    union = set(ostar.points) | set(other.points)
    assert len(union) == 15
    assert all(quadric4.contains(p) for p in union)
    nucleus = triple[0] ^ triple[1] ^ triple[2]
    sym_diff = union - set(triple)
    lines = {frozenset((u, nucleus ^ u, nucleus)) for u in sym_diff}
    assert len(lines) == 6


def test_six_ovoid_family(ostar, gens4, quadric4):
    part = pg.triple_partitions(ostar)[0]
    fam = pg.six_ovoid_family(ostar, part, gens4)
    assert len(fam.points) == 27
    assert fam.axis == pg.axis_of_partition(ostar, part, quadric4)
    for ov in fam.all_ovoids():
        assert pg.is_ovoid(ov.points, gens4)
    for x in fam.triad_with_base:
        for y in fam.triad_other:
            assert (x.mask & y.mask).bit_count() == 3
    # each of the 27 points carries one label per triad
    for p in fam.points:
        assert sum(p in o for o in fam.triad_with_base) == 1
        assert sum(p in o for o in fam.triad_other) == 1


def test_six_ovoid_family_rejects_an_overlapping_mate(ostar, gens4, monkeypatch):
    # The second conic's mate planted as the first conic's: the other triad
    # overlaps and covers 18 points, which the 27-point union test rejects.
    part = pg.triple_partitions(ostar)[0]
    second = pg.second_ovoid_on_conic
    monkeypatch.setattr(pg, "second_ovoid_on_conic", lambda o, triple, gens: second(
        o, part[0] if triple == part[1] else triple, gens))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.six_ovoid_family(ostar, part, gens4)
    assert str(exc.value) == (
        f"triads do not share the same 27 points: ovoid {join_words(ostar.points)} "
        f"partition {'/'.join(map(join_words, part))}")


def test_commutation_profiles(ostar, gens4, quadric4):
    part = pg.triple_partitions(ostar)[0]
    fam = pg.six_ovoid_family(ostar, part, gens4)
    six = fam.all_ovoids()
    for w in quadric4.points:
        if w in fam.points:
            continue
        assert pg.commutation_profile(w, six) == (5, 5, 5, 5, 5, 5)
    for w in quadric4.off_points:
        assert set(pg.commutation_profile(w, six)) <= {3, 7}
    inside = six[0].points[0]
    profile = pg.commutation_profile(inside, six)
    assert profile[0] == 1


def test_solid_extra_points(ostar, quadric4):
    extras = [
        pg.solid_extra_point(ostar, quad, quadric4)
        for quad in itertools.combinations(ostar.points, 4)
    ]
    assert len(extras) == 126
    assert len(set(extras)) == 126
    off_ovoid = set(quadric4.points) - set(ostar.points)
    assert set(extras) == off_ovoid
    assert not (set(extras) & set(ostar.points))


def test_a_failed_solid_certificate_raises_on_every_call(quadric4):
    # O* with XXXX replaced by IIIX: this quartet's solid meets the quadric
    # in nine points, and the memo keeps no failure.
    words = ("IIIX", "IXXZ", "XIZI", "XZXI")
    o = pg.Ovoid.from_points(word_to_point(w) for w in words)
    messages = []
    for _ in range(2):
        with pytest.raises(InternalConsistencyError) as exc:
            pg.solid_extra_point(o, o.points, quadric4)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("solid section is not five points: IIIX,IXXZ,XIZI,XZXI")


def test_a_remembered_solid_still_checks_its_quartet_on_the_ovoid(ostar, ovoids, quadric4):
    # The quartet's solid is certified and remembered on O*; on an ovoid
    # that misses it, the same quartet is a usage error.
    quad = ostar.points[:4]
    extra = pg.solid_extra_point(ostar, quad, quadric4)
    other = next(o for o in ovoids if not set(quad) <= set(o.points))
    for o, points in ((other, quad), (ostar, quad[:3] + (extra,))):
        with pytest.raises(UsageError, match="need 4 distinct points of the ovoid"):
            pg.solid_extra_point(o, points, quadric4)
    assert pg.solid_extra_point(ostar, quad[::-1], quadric4) == extra


def test_fig6_split_extras(ostar, gens4, quadric4):
    p = word_to_point("XXXX")
    wanted = {word_to_point("XXII"), word_to_point("IIXX")}
    matches = [
        split
        for split in pg.rest_splits(ostar, p)
        if {pg.solid_extra_point(ostar, split[0], quadric4),
            pg.solid_extra_point(ostar, split[1], quadric4)} == wanted
    ]
    assert len(matches) == 1
    extras, mate = pg.point_partition_line(ostar, p, matches[0], gens4)
    assert extras == tuple(pg.solid_extra_point(ostar, half, quadric4) for half in matches[0])
    assert set(extras) == wanted
    assert (mate.mask & ostar.mask) == 1 << p


def test_point_partition_lines_per_point(ostar, gens4):
    for p in ostar.points:
        splits = pg.rest_splits(ostar, p)
        assert len(splits) == 35
        mates = set()
        for split in splits:
            (e1, e2), mate = pg.point_partition_line(ostar, p, split, gens4)
            assert e1 ^ e2 == p
            mates.add(mate.points)
        assert len(mates) == 35


def _sextet_case(o, gens):
    return (lambda: pg.sextet_intersection(o, o.points[:6], gens.quadric),
            f"sextet {join_words(o.points[:6])}")


def _heptad_case(o, gens):
    return (lambda: pg.heptad_intersection(o, o.points[:7], gens.quadric),
            f"heptad {join_words(o.points[:7])}")


def _six_ovoids_case(o, gens):
    part = pg.triple_partitions(o)[0]
    return (lambda: pg.six_ovoid_family(o, part, gens),
            f"ovoid {join_words(o.points)} partition {'/'.join(map(join_words, part))}")


def _point_line_case(o, gens):
    p = o.points[0]
    s1, s2 = pg.rest_splits(o, p)[0]
    return (lambda: pg.point_partition_line(o, p, (s1, s2), gens),
            f"point {join_words((p,))} split {join_words(s1)}/{join_words(s2)}")


def _second_ovoid_case(o, gens):
    triple = o.points[:3]
    return (lambda: pg.second_ovoid_on_conic(o, triple, gens),
            f"ovoid {join_words(o.points)} conic {join_words(triple)}")


# (builder, the helper it trusts, a broken stand-in, the call and its object)
_SECTION_FAULTS = [
    ("sextet", "_mask_lines", lambda pts, mask: [], _sextet_case),
    ("heptad", "_radical", lambda span, points, quadric: span, _heptad_case),
    ("six_ovoids", "second_ovoid_on_conic", lambda o, triple, gens: o, _six_ovoids_case),
    ("point_line", "is_ovoid", lambda points, gens: False, _point_line_case),
    ("second_ovoid", "is_ovoid", lambda points, gens: False, _second_ovoid_case),
]


@pytest.mark.parametrize("helper,broken,case", [f[1:] for f in _SECTION_FAULTS],
                         ids=[f[0] for f in _SECTION_FAULTS])
def test_section_failures_name_their_object_in_words(helper, broken, case, ostar, gens4,
                                                     monkeypatch):
    call, named = case(ostar, gens4)
    monkeypatch.setattr(pg, helper, broken)
    with pytest.raises(InternalConsistencyError) as exc:
        call()
    assert str(exc.value).endswith(": " + named)
    assert re.search(r"[IXYZ]{4}", named)


def test_second_ovoid_off_the_conic_is_named_in_words(ostar, gens4, monkeypatch):
    # A broken reflection that hands back the ovoid itself: it passes the
    # ovoid test but meets the ovoid in nine points, not in the conic.
    triple = ostar.points[:3]
    monkeypatch.setattr(pg.Ovoid, "from_points", classmethod(lambda cls, points: ostar))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.second_ovoid_on_conic(ostar, triple, gens4)
    words = join_words(ostar.points)
    assert str(exc.value) == (f"second ovoid {words} does not meet in the conic: "
                              f"ovoid {words} conic {join_words(triple)}")


def test_intersection_census_for_ostar(ovoids, ostar):
    for p in ostar.points:
        assert pg.ovoid_intersection_census(pg.ovoids_through(ovoids, p), ostar, p) == (35, 28)


def test_pentad_cones(ostar, quadric4):
    for pentad in itertools.combinations(ostar.points, 5):
        cone = pg.pentad_intersection(ostar, pentad, quadric4)
        assert len(cone.points) == 11
        complement = ostar.complement_in(pentad)
        assert cone.vertex == pg.solid_extra_point(ostar, complement, quadric4)
        assert len(cone.lines) == 5
        assert all(cone.vertex in line for line in cone.lines)
        paired = set()
        for line in cone.lines:
            rest = [p for p in line if p != cone.vertex]
            assert len(rest) == 2
            paired.update(rest)
        assert len(paired) == 10


def _quadric_with_mask(quadric, mask):
    return pg.Quadric(quadric.context, quadric.points, mask, quadric.off_points, quadric.perp)


@pytest.mark.parametrize("plant", ["third point off", "extra point on", "quartet extra"])
def test_pentad_faults_name_the_pentad_in_words(plant, ostar, quadric4, monkeypatch):
    pent = ostar.points[:5]
    vertex = pg.pentad_intersection(ostar, pent, quadric4).vertex
    line = join_words((vertex, pent[0], vertex ^ pent[0]))
    quadric = quadric4
    if plant == "third point off":
        quadric = _quadric_with_mask(quadric4, quadric4.mask ^ 1 << (vertex ^ pent[0]))
        what = f"cone line {line} leaves the section"
    elif plant == "extra point on":
        # a secant's third point of the pentad, off the quadric, planted on
        # it; the quartet solids read the standard quadric, so that only the
        # section check sees the plant
        quadric = _quadric_with_mask(quadric4, quadric4.mask | 1 << (pent[0] ^ pent[1]))
        real = pg.solid_extra_point
        monkeypatch.setattr(pg, "solid_extra_point", lambda o, quad, _: real(o, quad, quadric4))
        section = sorted(v for v in _span(pent) if quadric.contains(v))
        assert len(section) == 12
        what = (f"section {join_words(section)} is not the 11-point cone"
                f" at {join_words((vertex,))}")
    else:
        # the extra point of every quartet inside the pentad moved onto the ovoid
        real = pg.solid_extra_point
        monkeypatch.setattr(pg, "solid_extra_point", lambda o, quad, quadric: o.points[0]
                            if set(quad) <= set(pent) else real(o, quad, quadric))
        what = (f"cone line {line} misses the quartet extra point"
                f" {join_words(ostar.points[:1])}")
    with pytest.raises(InternalConsistencyError) as exc:
        pg.pentad_intersection(ostar, pent, quadric)
    assert str(exc.value) == f"{what}: pentad {join_words(pent)}"


def test_sextet_mate_fault_names_the_sextet(ostar, quadric4):
    # A secant point of the conic off the sextet planted on the quadric: it
    # is off the sextet's span, so the section still has 27 points, but
    # every solid of one sextet point and the conic meets the quadric in six.
    sextet, conic = ostar.points[:6], ostar.points[6:]
    quadric = _quadric_with_mask(quadric4, quadric4.mask | 1 << (conic[0] ^ conic[1]))
    quartet = tuple(sorted(sextet[:1] + conic))
    on = [v for v in _span(quartet) if quadric.contains(v)]
    assert len(on) == 6
    with pytest.raises(InternalConsistencyError) as exc:
        pg.sextet_intersection(ostar, sextet, quadric)
    assert str(exc.value) == (f"solid section is not five points: {join_words(quartet)}"
                              f" meet the quadric in {join_words(sorted(on))}:"
                              f" sextet {join_words(sextet)}")


def test_sextet_sections(ostar, quadric4):
    for sextet in itertools.combinations(ostar.points, 6):
        section = pg.sextet_intersection(ostar, sextet, quadric4)
        assert len(section.points) == 27
        assert len(section.lines) == 45
        assert len(section.core15) == 15


def _swap_one_point(lines, points):
    # Replace the first point of the first line by a section point off it.
    first = lines[0]
    other = next(p for p in points if p not in first)
    return [(other,) + first[1:]] + list(lines[1:])


def _exchange_two_points(lines, which=0):
    # Exchange one point between the first line and the `which`-th later
    # line that misses it: sizes and degrees stay right.
    first = lines[0]
    p = first[0]
    second = [ln for ln in lines[1:] if p not in ln
              and any(q not in first for q in ln)][which]
    q = next(x for x in second if x not in first)
    swapped = {first: tuple(q if x == p else x for x in first),
               second: tuple(p if x == q else x for x in second)}
    return [swapped.get(ln, ln) for ln in lines]


def test_generalized_quadrangle_check_rejects_a_perturbed_section(ostar, quadric4):
    section = pg.sextet_intersection(ostar, ostar.points[:6], quadric4)
    pg._check_generalized_quadrangle(section.points, section.lines)
    swapped = _swap_one_point(section.lines, section.points)
    # The point taken off the first line drops to degree 4 and the one put
    # on rises to 6: the check names both, in point order.
    moved = sorted((section.lines[0][0], swapped[0][0]))
    with pytest.raises(InternalConsistencyError) as exc:
        pg._check_generalized_quadrangle(section.points, swapped)
    assert str(exc.value) == "point degree is not t+1: " + ",".join(
        point_to_word(p, 4) for p in moved)
    exchanged = _exchange_two_points(section.lines)
    with pytest.raises(InternalConsistencyError) as exc:
        pg._check_generalized_quadrangle(section.points, exchanged)
    found = re.fullmatch(r"quadrangle axiom fails: point (\w{4}) off line"
                         r" (\w{4}),(\w{4}),(\w{4})", str(exc.value))
    assert found
    point, *line = (word_to_point(w) for w in found.groups())
    assert tuple(line) in exchanged and point not in line
    collinear = {q for ln in exchanged if point in ln for q in ln}
    assert len(collinear & set(line)) != 1


@pytest.mark.parametrize("make,what", [
    (lambda first, other: (1, 2, 3), "line leaves the point set"),
    (lambda first, other: first[:2], "line size is not s+1"),
    (lambda first, other: first + (other,), "line size is not s+1"),
    (lambda first, other: first[:1] + first[:2], "line size is not s+1"),
], ids=["off-the-point-set", "two-points", "four-points", "repeated-point"])
def test_generalized_quadrangle_check_names_a_malformed_line(make, what, ostar, quadric4):
    # (1, 2, 3) is IIIX,IIXI,IIXX, none of them on the section.
    section = pg.sextet_intersection(ostar, ostar.points[:6], quadric4)
    first = section.lines[0]
    line = make(first, next(p for p in section.points if p not in first))
    with pytest.raises(InternalConsistencyError) as exc:
        pg._check_generalized_quadrangle(section.points, [line] + list(section.lines[1:]))
    assert str(exc.value) == f"{what}: {join_words(line)}"


def _first_quadrangle_fault(points, lines):
    # Brute force: the first line, and on it the first point in point
    # order, that is off the line and not collinear with exactly one of
    # its points.
    for line in lines:
        for p in points:
            if p not in line and sum(
                    any(p in ln and q in ln for ln in lines) for q in line) != 1:
                return p, line


@pytest.mark.parametrize("which", [1, 2, 3])
def test_quadrangle_axiom_names_the_first_fault_of_a_brute_force_scan(
        which, ostar, quadric4):
    section = pg.sextet_intersection(ostar, ostar.points[:6], quadric4)
    lines = _exchange_two_points(section.lines, which)
    point, line = _first_quadrangle_fault(section.points, lines)
    with pytest.raises(InternalConsistencyError) as exc:
        pg._check_generalized_quadrangle(section.points, lines)
    assert str(exc.value) == (f"quadrangle axiom fails: point {point_to_word(point, 4)}"
                              f" off line {','.join(point_to_word(x, 4) for x in line)}")


def test_axis_and_solid_checks_name_their_points_in_words(quadric4):
    # O* with XXXX replaced by IIIX: the nine points no longer sum to zero.
    words = "IIIX,IXXZ,XIZI,XZXI,IZYY,ZIIX,ZXZZ,ZZIZ,YYZX"
    o = pg.Ovoid.from_points(word_to_point(w) for w in words.split(","))
    part = pg.triple_partitions(o)[0]
    with pytest.raises(InternalConsistencyError) as exc:
        pg.axis_of_partition(o, part, quadric4)
    assert str(exc.value) == "partition nuclei are not a line: XXYY,YIZZ,YIIX"
    quad = [word_to_point(w) for w in ("IIIX", "IXXZ", "XIZI", "XZXI")]
    with pytest.raises(InternalConsistencyError) as exc:
        pg.solid_extra_point(o, quad, quadric4)
    assert str(exc.value) == (
        "solid section is not five points: IIIX,IXXZ,XIZI,XZXI meet the quadric in"
        " IIIX,IXXZ,XIZI,XIZX,XXYY,XZXI,XZXX,XYIY,IYZY")


def test_solid_extra_point_names_a_quadric_line_in_words(quadric4):
    # Four quadric points, not of one ovoid: XXXX and YXYI are perpendicular,
    # so their solid meets the quadric in five points that hold a line.
    quad = [word_to_point(w) for w in ("XXXX", "XIXZ", "YXYI", "ZXZZ")]
    with pytest.raises(InternalConsistencyError) as exc:
        pg.solid_extra_point(pg.Ovoid.from_points(quad), quad, quadric4)
    assert str(exc.value) == "solid section carries a quadric line: XXXX,ZIZX,YXYI"


def _on_quadric(quadric, point):
    return _quadric_with_mask(quadric, quadric.mask | 1 << point)


def _gens_on_quadric(gens, point):
    # The generators with `point` planted on their quadric, which the
    # generator-taking certifiers hand to their solids and axis checks.
    return pg.GeneratorSet(gens.context, gens.bases, gens.masks, gens.families,
                           _on_quadric(gens.quadric, point))


def _solid_fault(o, quad, planted):
    # solid_extra_point's message once `planted`, a skew point in the solid
    # of `quad`, is put on the quadric.
    on = sorted({*quad, pg.solid_extra_point(o, quad, pg.standard_quadric(4)), planted})
    return (f"solid section is not five points: {join_words(sorted(quad))}"
            f" meet the quadric in {join_words(on)}")


def _nested_sextet_solid(o, gens, monkeypatch):
    sextet, rest = o.points[:6], o.points[6:]
    inner = _solid_fault(o, (sextet[0],) + rest, rest[0] ^ rest[1])
    planted = _on_quadric(gens.quadric, rest[0] ^ rest[1])
    return (lambda: pg.sextet_intersection(o, sextet, planted), inner,
            f"sextet {join_words(sextet)}")


def _nested_sextet_quadrangle(o, gens, monkeypatch):
    # One point of the first section line swapped for another section point:
    # the quadrangle check, not a degree count of the section's own, fails.
    sextet = o.points[:6]
    section = pg.sextet_intersection(o, sextet, gens.quadric)
    swapped = _swap_one_point(section.lines, section.points)
    moved = sorted((section.lines[0][0], swapped[0][0]))
    monkeypatch.setattr(pg, "_mask_lines", lambda pts, mask: swapped)
    return (lambda: pg.sextet_intersection(o, sextet, gens.quadric),
            f"point degree is not t+1: {join_words(moved)}", f"sextet {join_words(sextet)}")


def _nested_pentad_vertex(o, gens, monkeypatch):
    pentad, quartet = o.points[:5], o.points[5:]
    inner = _solid_fault(o, quartet, quartet[0] ^ quartet[1])
    planted = _on_quadric(gens.quadric, quartet[0] ^ quartet[1])
    return (lambda: pg.pentad_intersection(o, pentad, planted), inner,
            f"pentad {join_words(pentad)}")


def _nested_pentad_quartet(o, gens, monkeypatch):
    # A secant point of the pentad lies in the solid of the quartet without
    # its first point, but not in the solid of the complementary quartet.
    pentad = o.points[:5]
    inner = _solid_fault(o, pentad[1:], pentad[1] ^ pentad[2])
    planted = _on_quadric(gens.quadric, pentad[1] ^ pentad[2])
    return (lambda: pg.pentad_intersection(o, pentad, planted), inner,
            f"pentad {join_words(pentad)}")


def _nested_point_line(o, gens, monkeypatch):
    p = o.points[0]
    s1, s2 = pg.rest_splits(o, p)[0]
    inner = _solid_fault(o, s1, s1[0] ^ s1[1])
    planted = _gens_on_quadric(gens, s1[0] ^ s1[1])
    return (lambda: pg.point_partition_line(o, p, (s1, s2), planted), inner,
            f"point {join_words((p,))} split {join_words(s1)}/{join_words(s2)}")


def _nested_six_ovoids(o, gens, monkeypatch):
    part = pg.triple_partitions(o)[0]
    nuclei = [t[0] ^ t[1] ^ t[2] for t in part]
    planted = _gens_on_quadric(gens, nuclei[0])
    return (lambda: pg.six_ovoid_family(o, part, planted),
            f"axis touches the quadric: {join_words(nuclei)}",
            f"ovoid {join_words(o.points)} partition {'/'.join(map(join_words, part))}")


def _nested_quadrangle_solid(o, gens, monkeypatch):
    # The concurrence point of a heptad quadrangle, the solid extra point
    # of its four vertices, read on the generators' quadric.
    a, b, c, d = quad = o.points[:4]
    pairs = ((a, b), (b, c), (c, d), (d, a))
    planted = _gens_on_quadric(gens, a ^ b)
    return (lambda: cfg.heptad_family(o, pairs, planted), _solid_fault(o, quad, a ^ b),
            f"ovoid {join_words(o.points)} quadrangle "
            + "/".join(join_words(sorted(pr)) for pr in pairs))


_NESTED_FAULTS = {
    "sextet-solid": _nested_sextet_solid,
    "sextet-quadrangle": _nested_sextet_quadrangle,
    "pentad-vertex": _nested_pentad_vertex,
    "pentad-quartet": _nested_pentad_quartet,
    "point-line": _nested_point_line,
    "six-ovoids": _nested_six_ovoids,
    "quadrangle-solid": _nested_quadrangle_solid,
}


@pytest.mark.parametrize("case", _NESTED_FAULTS.values(), ids=_NESTED_FAULTS.keys())
def test_nested_faults_name_the_outer_object(case, ostar, gens4, monkeypatch):
    # A failed certificate inside an outer certifier keeps its own message,
    # naming the inner object, and the outer certifier names its object once.
    call, inner, outer = case(ostar, gens4, monkeypatch)
    with pytest.raises(InternalConsistencyError) as exc:
        call()
    assert str(exc.value) == f"{inner}: {outer}"
    assert re.search(r"[IXYZ]{4}", inner) and re.search(r"[IXYZ]{4}", outer)


def test_sextet_double_six_is_two_ovoid_difference(ostar, gens4, quadric4):
    sextet = ostar.points[:6]
    section = pg.sextet_intersection(ostar, sextet, quadric4)
    rest = ostar.complement_in(sextet)
    other = pg.second_ovoid_on_conic(ostar, rest, gens4)
    sym_diff = (set(ostar.points) | set(other.points)) - (
        set(ostar.points) & set(other.points)
    )
    assert sym_diff == set(section.sextet) | set(section.mates)


def test_reference_sextet_nucleus(ostar, quadric4):
    triple = tuple(word_to_point(w) for w in ("ZIIX", "XZXI", "XXXX"))
    sextet = ostar.complement_in(triple)
    section = pg.sextet_intersection(ostar, sextet, quadric4)
    assert point_to_word(section.pairing_nucleus, 4) == "ZYII"


def test_heptad_sections(ostar, quadric4):
    for heptad in itertools.combinations(ostar.points, 7):
        section = pg.heptad_intersection(ostar, heptad, quadric4)
        assert len(section.points) == 63
        pair = ostar.complement_in(heptad)
        assert section.nucleus == pair[0] ^ pair[1]
        assert not quadric4.contains(section.nucleus)


def _radical_by_sigma(points, ctx):
    """The radical of sigma on the span of `points`, from its definition."""
    return {v for v in _span(points)
            if all(ctx.sigma(v, b) == 0 for b in points)}


def _radical(points, quadric):
    """The radical's points, from `_radical` on the span mask of `points`."""
    span = span_mask(points)
    return set(pg.mask_points(pg._radical(span, points, quadric)))


def test_radical_matches_its_definition_on_ostar_subsets(ostar, quadric4, ctx4):
    cases = [ostar.points] + [t for k in (5, 6, 7)
                              for t in itertools.combinations(ostar.points, k)]
    assert len(cases) == 1 + 126 + 84 + 36
    for pts in cases:
        assert _radical(pts, quadric4) == _radical_by_sigma(pts, ctx4)


def test_radical_of_a_generator_is_the_generator(gens4, quadric4, ctx4):
    for basis in gens4.bases:
        rad = _radical(basis, quadric4)
        assert len(rad) == 15 and rad == _span(basis)
        assert rad == _radical_by_sigma(basis, ctx4)


def test_radical_of_the_unit_vectors_is_empty(quadric4):
    assert _radical([1 << i for i in range(8)], quadric4) == set()


def test_conwell_heptads(ctx3):
    heptads = pg.conwell_heptads(ctx3)
    assert len(heptads) == 8
    assert all(len(h) == 7 for h in heptads)
    for a, b in itertools.combinations(heptads, 2):
        assert len(a & b) == 1
    quadric = pg.standard_quadric(3)
    for h in heptads:
        lines = {
            frozenset((u, v, u ^ v)) for u, v in itertools.combinations(sorted(h), 2)
        }
        assert len(lines) == 21
        assert all(not quadric.contains(p) for line in lines for p in line)


def test_conwell_heptad_line_on_the_quadric_is_named_in_rank3_words(ctx3, monkeypatch):
    # A clique search that returns the first seven external points: some
    # line joining two of them has its third point on the quadric.
    monkeypatch.setattr(pg, "_cliques", lambda adj, size: [tuple(range(7))])
    quadric = pg.standard_quadric(3)
    heptad = sorted(quadric.off_points[:7])
    u, v = next((u, v) for u, v in itertools.combinations(heptad, 2)
                if quadric.contains(u ^ v))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.conwell_heptads(ctx3)
    assert str(exc.value) == (f"heptad line {join_words((u, v, u ^ v), 3)} touches the"
                              f" quadric: heptad {join_words(heptad, 3)}")


def test_conwell_heptads_need_rank_three(ctx4):
    with pytest.raises(UsageError):
        pg.conwell_heptads(ctx4)

