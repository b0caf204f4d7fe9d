import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauligeom import polar_geometry as pg
from pauligeom.errors import InternalConsistencyError, UsageError
from pauligeom.gf2_core import echelon, rank, span_points
from pauligeom.pauli_codec import GeometryContext, join_words, point_to_word, word_to_point


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
    """Echelon bases of the spans of all n-subsets of ground points whose
    span is totally isotropic (every pair has sigma 0), and for the
    quadric also totally singular, in sorted order."""
    n = ctx.n_qubits
    ground = [p for p in ctx.points() if space_kind == "symplectic" or ctx.quadratic(p) == 0]
    found = set()
    for subset in itertools.combinations(ground, n):
        if any(ctx.sigma(u, v) for u, v in itertools.combinations(subset, 2)):
            continue
        basis = echelon(subset)
        pts = span_points(basis)
        isotropic = all(ctx.sigma(u, v) == 0 for u, v in itertools.combinations(pts, 2))
        singular = space_kind == "symplectic" or all(ctx.quadratic(p) == 0 for p in pts)
        if len(basis) == n and isotropic and singular:
            found.add(basis)
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
        pts = span_points(basis)
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
        assert all(quadric.contains(p) for p in span_points(basis))


@pytest.mark.parametrize("space_kind", ["symplectic", "quadric"])
@pytest.mark.parametrize("n", [2, 3])
def test_generators_match_brute_force_spans(n, space_kind):
    ctx = GeometryContext(n)
    gens = pg.enumerate_generators(ctx, space_kind)
    assert list(gens.bases) == _brute_force_generators(ctx, space_kind)


@pytest.mark.parametrize("space_kind", ["symplectic", "quadric"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_bases_are_in_reduced_row_echelon_form(n, space_kind):
    gens = pg.get_generators(GeometryContext(n), space_kind)
    assert len(gens.bases) == len(gens)
    assert all(echelon(b) == b for b in gens.bases)


def test_repeated_generator_is_named_in_words(monkeypatch):
    # Bands holding every point up to their column let a flat be reached
    # from bases that are not reduced, so it is built more than once.
    monkeypatch.setattr(pg, "_column_bands",
                        lambda dim: tuple((1 << (2 << c)) - 2 for c in range(dim)))
    with pytest.raises(InternalConsistencyError,
                       match=r"^symplectic generator [IXYZ]{3}(,[IXYZ]{3}){2} is built twice$"):
        pg.enumerate_generators(GeometryContext(3), "symplectic")


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
    assert pg._perp_masks.__wrapped__(ctx) == {p: ctx.perp_mask(p) for p in ctx.points()}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nonperp_adjacency_is_the_sigma_graph(n):
    ctx = GeometryContext(n)
    for pts in (pg.standard_quadric(n).points, tuple(ctx.points())):
        adj = pg._nonperp_adjacency(ctx, pts)
        assert adj == [
            sum(1 << j for j in range(i + 1, len(pts)) if ctx.sigma(p, pts[j]) == 1)
            for i, p in enumerate(pts)
        ]


def test_family_relation_is_consistent(gens4):
    # same label iff the linear intersection dimension has the rank parity
    n = 4
    bases, fams = gens4.bases, gens4.families
    rng = random.Random(13)
    idx = rng.sample(range(len(bases)), 60)
    for i, j in itertools.combinations(idx, 2):
        inter = 2 * n - len(echelon(bases[i] + bases[j]))
        same = (inter - n) % 2 == 0
        assert same == (fams[i] == fams[j])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_families_by_popcount_match_the_echelon_rule(n):
    # every generator against the first: same family iff the linear
    # dimension of the intersection, from the echelon of both bases, has
    # the parity of n
    gens = pg.get_generators(GeometryContext(n), "quadric")
    ref = gens.bases[0]
    assert list(gens.families) == [
        (2 * n - len(echelon(ref + b)) - n) % 2 for b in gens.bases]


def test_generator_cache_is_keyed_by_rank():
    a, b = GeometryContext(4), GeometryContext(4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != GeometryContext(3)
    assert pg.get_generators(a, "quadric") is pg.get_generators(b, "quadric")


def test_equal_records_compare_and_hash_equal(ostar, gens4):
    again = pg.Ovoid.from_points(reversed(ostar.points))
    assert again is not ostar and again == ostar and hash(again) == hash(ostar)
    assert ostar != pg.second_ovoid_on_conic(ostar, ostar.points[:3], gens4)
    mask = next(iter(pg.tetrad_census([ostar])))
    one, two = pg.Tetrad(mask), pg.Tetrad(mask)
    assert one is not two and one == two and hash(one) == hash(two)
    assert one != mask and len({one, two}) == 1


def test_tetrad_lines_are_computed_once(ostar, monkeypatch):
    calls = []
    partition = pg._line_partition

    def recording(mask):
        calls.append(mask)
        return partition(mask)

    mask = next(iter(pg.tetrad_census([ostar])))
    monkeypatch.setattr(pg, "_line_partition", recording)
    tetrad = pg.Tetrad(mask)
    assert tetrad.lines == tetrad.lines
    assert calls == [mask]


def test_families_at_rank_two_are_reguli():
    gq = pg.get_generators(GeometryContext(2), "quadric")
    for fam in (0, 1):
        lines = [b for b, lab in zip(gq.bases, gq.families) if lab == fam]
        assert len(lines) == 3
        pts = [span_points(b) for b in lines]
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


def test_failed_ovoid_certificate_names_the_clique(monkeypatch, gens4):
    monkeypatch.setattr(pg, "is_ovoid", lambda points, gens: False)
    with pytest.raises(InternalConsistencyError,
                       match=r"^clique [IXYZ]{4}(,[IXYZ]{4}){8} fails the ovoid test$"):
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
    spans = [span_points(b) for b in gens4.bases]
    assert set(through) == set(quadric4.points)
    for p in quadric4.points:
        assert [bool(through[p] >> j & 1) for j in range(270)] == [p in f for f in spans]


def test_ovoids_through_equals_the_membership_filter(ovoids, quadric4):
    for p in quadric4.points:
        assert pg.ovoids_through(ovoids, p) == tuple(o for o in ovoids if p in o)


def test_a_slice_of_the_ovoid_set_is_an_ovoid_set(ovoids, quadric4):
    first = ovoids[:10]
    assert type(first) is pg.OvoidSet and list(first) == list(ovoids)[:10]
    assert type(ovoids[::48]) is pg.OvoidSet and len(ovoids[::48]) == 20
    assert type(ovoids[3]) is pg.Ovoid and ovoids[-1] == list(ovoids)[-1]
    for p in quadric4.points:
        assert pg.ovoids_through(first, p) == tuple(o for o in first if p in o)


def test_every_ovoid_is_a_nonperp_clique_and_conversely(ovoids, quadric4):
    # Exhaustive: the 9-cliques of the sigma = 1 graph on the quadric are
    # the ovoids the exact-cover search finds, set for set.
    pts = quadric4.points
    cliques = pg._cliques(pg._nonperp_adjacency(quadric4.context, pts), 9, range(len(pts)))
    assert sorted(tuple(pts[i] for i in c) for c in cliques) == [o.points for o in ovoids]


def test_points_sharing_a_generator_are_the_perpendicular_quadric_points(gens4, quadric4):
    # The ovoid search's clash mask, read off the generators, is the perp
    # mask on the quadric: for all 135 points.
    perp = pg._perp_masks(quadric4.context)
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
        plane = span_points((a, b, c))
        assert len(plane) == 7 and a ^ b ^ c in plane
        assert sorted(p for p in plane if quadric4.contains(p)) == [a, b, c]


def test_section_builders_reject_repeated_points(ostar, gens4, quadric4):
    a, b, c, d, e, f, g = ostar.points[:7]
    with pytest.raises(UsageError, match="need 3 distinct points"):
        pg.second_ovoid_on_conic(ostar, (a, b, b), gens4)
    with pytest.raises(UsageError, match="need 4 distinct points"):
        pg.solid_extra_point(ostar, (a, b, c, c))
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
        axis = pg.axis_of_partition(ostar, part)
        assert all(not quadric4.contains(p) and p for p in axis)
        tetrad = pg.tetrad_of_partition(ostar, part, quadric4)
        points = [p for line in tetrad.lines for p in line]
        assert len(points) == len(set(points)) == 12
        assert rank(points) == 8
        assert all(not quadric4.contains(p) for p in points)
        seen.add(tetrad.mask)
    assert len(seen) == 280


def _reference_tetrad(part, quadric):
    """Mask and lines of a partition's tetrad, from each conic plane's
    four off-quadric points: the plane's one off-quadric line plus the
    nucleus, with the three nuclei making the axis."""
    lines, nuclei, points = [], [], set()
    for triple in part:
        off = {p for p in span_points(triple) if not quadric.contains(p)}
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


def test_single_ovoid_tetrad_census(ostar, quadric4):
    census = pg.tetrad_census([ostar])
    assert len(census) == 280
    assert set(census.values()) == {1}
    # independent construction through span_points and rank
    reference = {}
    for part in pg.triple_partitions(ostar):
        mask, lines = _reference_tetrad(part, quadric4)
        tetrad = pg.tetrad_of_partition(ostar, part, quadric4)
        assert (tetrad.mask, tetrad.lines) == (mask, lines)
        reference[mask] = lines
    assert set(census) == set(reference)
    assert all(pg.Tetrad(key).lines == reference[key] for key in census)
    tetrad = pg.Tetrad(next(iter(census)))
    assert tetrad.lines is tetrad.lines


def test_tetrad_census_certifies_each_distinct_key_once(ovoids, monkeypatch):
    certified = []
    certify = pg._certify_tetrad

    def recording(mask, qmask):
        certified.append(mask)
        certify(mask, qmask)

    monkeypatch.setattr(pg, "_certify_tetrad", recording)
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
                        for line in pg.Tetrad(mask).lines)
    assert sorted(rendered.split(";")) == sorted(words.split(";"))
    with pytest.raises(InternalConsistencyError) as exc:
        pg._certify_tetrad(mask, quadric4.mask)
    assert str(exc.value) == f"tetrad does not span the whole space: {rendered}"


def test_line_partition_matches_mask_lines_on_every_census_key(ovoids):
    census = pg.tetrad_census(ovoids)
    assert len(census) == 11200
    for key in census:
        assert pg._line_partition(key) == pg._mask_lines(key)


def _no_partner_set(mask, quadric):
    # A tetrad with one point w of its first line traded for an
    # off-quadric point that leaves some point with no partner.
    w = pg.Tetrad(mask).lines[0][2]
    for x in quadric.off_points:
        pts = pg._mask_points(mask ^ 1 << w | 1 << x)
        if len(pts) == 12 and any(
                not any(p ^ q in pts for q in pts if q != p) for p in pts):
            return mask ^ 1 << w | 1 << x
    raise AssertionError("no such point")


@pytest.mark.parametrize("plant", ["no partner", "eleven points", "on quadric"])
def test_tetrad_certifier_rejects_sets_that_are_not_four_skew_lines(
        plant, ostar, quadric4):
    mask = min(pg.tetrad_census([ostar]))
    if plant == "no partner":
        mask = _no_partner_set(mask, quadric4)
        assert mask.bit_count() == 12 and pg._line_partition(mask) == []
    elif plant == "eleven points":
        mask &= mask - 1
    else:
        low = mask & -mask
        mask ^= low | 1 << min(quadric4.points)
        assert mask.bit_count() == 12
    with pytest.raises(InternalConsistencyError) as exc:
        pg._certify_tetrad(mask, quadric4.mask)
    assert str(exc.value) == "tetrad is not four skew off-quadric lines: " + ",".join(
        point_to_word(p, 4) for p in pg._mask_points(mask))


@pytest.mark.parametrize("words,fault", [
    # O* with XXXX replaced by IIIX: a partition nucleus lands on the quadric.
    ("IIIX,IXXZ,XIZI,XZXI,IZYY,ZIIX,ZXZZ,ZZIZ,YYZX", "tetrad point on quadric"),
    ("IIIX,IIXZ,IXZZ,XIZY,XZXZ,XYZZ,ZIZZ,YYIY,YYYZ", "tetrad lines overlap"),
])
def test_tetrad_census_names_the_failing_ovoid_and_partition(words, fault):
    o = pg.Ovoid.from_points(word_to_point(w) for w in words.split(","))
    with pytest.raises(InternalConsistencyError) as exc:
        pg.tetrad_census([o])
    ovoid_words = ",".join(point_to_word(p, 4) for p in o.points)
    head = f"{fault}: ovoid {ovoid_words} partition "
    message = str(exc.value)
    assert message.startswith(head)
    groups = [g.split(",") for g in message[len(head):].split("/")]
    assert sorted(w for g in groups for w in g) == sorted(ovoid_words.split(","))
    assert [len(g) for g in groups] == [3, 3, 3]


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


def test_six_ovoid_family(ostar, gens4):
    part = pg.triple_partitions(ostar)[0]
    fam = pg.six_ovoid_family(ostar, part, gens4)
    assert len(fam.points) == 27
    assert fam.axis == pg.axis_of_partition(ostar, part)
    for ov in fam.all_ovoids():
        assert pg.is_ovoid(ov.points, gens4)
    for x in fam.triad_with_base:
        for y in fam.triad_other:
            assert (x.mask & y.mask).bit_count() == 3
    # each of the 27 points carries one label per triad
    for p in fam.points:
        assert sum(p in o for o in fam.triad_with_base) == 1
        assert sum(p in o for o in fam.triad_other) == 1


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
        pg.solid_extra_point(ostar, quad)
        for quad in itertools.combinations(ostar.points, 4)
    ]
    assert len(extras) == 126
    assert len(set(extras)) == 126
    off_ovoid = set(quadric4.points) - set(ostar.points)
    assert set(extras) == off_ovoid
    assert not (set(extras) & set(ostar.points))


def test_fig6_split_extras(ostar, gens4):
    p = word_to_point("XXXX")
    wanted = {word_to_point("XXII"), word_to_point("IIXX")}
    matches = [
        split
        for split in pg.rest_splits(ostar, p)
        if {pg.solid_extra_point(ostar, split[0]),
            pg.solid_extra_point(ostar, split[1])} == wanted
    ]
    assert len(matches) == 1
    line, mate = pg.point_partition_line(ostar, p, matches[0], gens4)
    assert line == frozenset({p} | wanted)
    assert (mate.mask & ostar.mask) == 1 << p


def test_point_partition_lines_per_point(ostar, gens4):
    for p in ostar.points:
        splits = pg.rest_splits(ostar, p)
        assert len(splits) == 35
        mates = set()
        for split in splits:
            line, mate = pg.point_partition_line(ostar, p, split, gens4)
            assert p in line
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
    ("sextet", "_mask_lines", lambda mask: [], _sextet_case),
    ("heptad", "radical", lambda points, ctx: [], _heptad_case),
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
        assert cone.vertex == pg.solid_extra_point(ostar, complement)
        assert len(cone.lines) == 5
        assert all(cone.vertex in line for line in cone.lines)
        paired = set()
        for line in cone.lines:
            rest = [p for p in line if p != cone.vertex]
            assert len(rest) == 2
            paired.update(rest)
        assert len(paired) == 10


def _quadric_with_mask(quadric, mask):
    return pg.Quadric(quadric.context, quadric.points, mask, quadric.off_points)


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
        # a secant's third point of the pentad, off the quadric, planted on it
        quadric = _quadric_with_mask(quadric4, quadric4.mask | 1 << (pent[0] ^ pent[1]))
        section = sorted(v for v in span_points(pent) if quadric.contains(v))
        assert len(section) == 12
        what = (f"section {join_words(section)} is not the 11-point cone"
                f" at {join_words((vertex,))}")
    else:
        # the extra point of every quartet inside the pentad moved onto the ovoid
        real = pg.solid_extra_point
        monkeypatch.setattr(pg, "solid_extra_point", lambda o, quad: o.points[0]
                            if set(quad) <= set(pent) else real(o, quad))
        what = (f"cone line {line} misses the quartet extra point"
                f" {join_words(ostar.points[:1])}")
    with pytest.raises(InternalConsistencyError) as exc:
        pg.pentad_intersection(ostar, pent, quadric)
    assert str(exc.value) == f"{what}: pentad {join_words(pent)}"


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
    pg._check_generalized_quadrangle(section.points, section.lines, 2, 4)
    swapped = _swap_one_point(section.lines, section.points)
    # The point taken off the first line drops to degree 4 and the one put
    # on rises to 6: the check names both, in point order.
    moved = sorted((section.lines[0][0], swapped[0][0]))
    with pytest.raises(InternalConsistencyError) as exc:
        pg._check_generalized_quadrangle(section.points, swapped, 2, 4)
    assert str(exc.value) == "point degree is not t+1: " + ",".join(
        point_to_word(p, 4) for p in moved)
    exchanged = _exchange_two_points(section.lines)
    with pytest.raises(InternalConsistencyError) as exc:
        pg._check_generalized_quadrangle(section.points, exchanged, 2, 4)
    found = re.fullmatch(r"quadrangle axiom fails: point (\w{4}) off line"
                         r" (\w{4}),(\w{4}),(\w{4})", str(exc.value))
    assert found
    point, *line = (word_to_point(w) for w in found.groups())
    assert tuple(line) in exchanged and point not in line
    collinear = {q for ln in exchanged if point in ln for q in ln}
    assert len(collinear & set(line)) != 1


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
        pg._check_generalized_quadrangle(section.points, lines, 2, 4)
    assert str(exc.value) == (f"quadrangle axiom fails: point {point_to_word(point, 4)}"
                              f" off line {','.join(point_to_word(x, 4) for x in line)}")


def test_axis_and_solid_checks_name_their_points_in_words():
    # O* with XXXX replaced by IIIX: the nine points no longer sum to zero.
    words = "IIIX,IXXZ,XIZI,XZXI,IZYY,ZIIX,ZXZZ,ZZIZ,YYZX"
    o = pg.Ovoid.from_points(word_to_point(w) for w in words.split(","))
    part = pg.triple_partitions(o)[0]
    with pytest.raises(InternalConsistencyError) as exc:
        pg.axis_of_partition(o, part)
    assert str(exc.value) == "partition nuclei are not a line: XXYY,YIZZ,YIIX"
    quad = [word_to_point(w) for w in ("IIIX", "IXXZ", "XIZI", "XZXI")]
    with pytest.raises(InternalConsistencyError) as exc:
        pg.solid_extra_point(o, quad)
    assert str(exc.value) == (
        "solid section is not five points: IIIX,IXXZ,XIZI,XZXI meet the quadric in"
        " IIIX,IXXZ,XIZI,XIZX,XXYY,XZXI,XZXX,XYIY,IYZY")


def test_solid_extra_point_names_a_quadric_line_in_words():
    # Four quadric points, not of one ovoid: XXXX and YXYI are perpendicular,
    # so their solid meets the quadric in five points that hold a line.
    quad = [word_to_point(w) for w in ("XXXX", "XIXZ", "YXYI", "ZXZZ")]
    with pytest.raises(InternalConsistencyError) as exc:
        pg.solid_extra_point(pg.Ovoid.from_points(quad), quad)
    assert str(exc.value) == "solid section carries a quadric line: XXXX,ZIZX,YXYI"


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
    return {v for v in span_points(points)
            if all(ctx.sigma(v, b) == 0 for b in points)}


def test_radical_matches_its_definition_on_ostar_subsets(ostar, ctx4):
    cases = [ostar.points] + [t for k in (5, 6, 7)
                              for t in itertools.combinations(ostar.points, k)]
    assert len(cases) == 1 + 126 + 84 + 36
    for pts in cases:
        assert set(span_points(pg.radical(pts, ctx4))) == _radical_by_sigma(pts, ctx4)


def test_radical_of_a_generator_is_the_generator(gens4, ctx4):
    for basis in gens4.bases:
        rad = pg.radical(basis, ctx4)
        assert len(rad) == 4 and span_points(rad) == span_points(basis)
        assert set(span_points(rad)) == _radical_by_sigma(basis, ctx4)


def test_radical_of_the_unit_vectors_is_empty(ctx4):
    assert pg.radical([1 << i for i in range(8)], ctx4) == []


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
    monkeypatch.setattr(pg, "_cliques", lambda adj, size, roots: [tuple(range(7))])
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

