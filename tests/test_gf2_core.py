import functools
import itertools
import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauligeom import gf2_core as g
from pauligeom.errors import UsageError
from pauligeom.polar_geometry import EDGE_OVOID_Y, OSTAR_WORDS
from pauligeom.pauli_codec import word_to_point


def vec(s):
    return g.from_string(s)


def points_of(mask):
    return [p for p in range(256) if mask >> p & 1]


def test_span_dimensions():
    assert g.rank([]) == 0
    assert g.rank([vec("10000000"), vec("01000000")]) == 2
    p, q = 0b1010, 0b0110
    assert g.rank([p, q, p ^ q]) == 2
    ostar_points = [word_to_point(w) for w in OSTAR_WORDS]
    assert g.rank(ostar_points) == 8


def test_flat_points_cardinalities():
    line = [vec("10000000"), vec("01000000")]
    assert g.span_mask(line).bit_count() == 3
    solid = [1, 2, 4, 8]
    assert g.rank(solid) == 4
    assert g.span_mask(solid).bit_count() == 15
    full = [1 << i for i in range(8)]
    assert g.span_mask(full).bit_count() == 255


def test_span_idempotent_and_order_independent():
    rng = random.Random(11)
    for _ in range(25):
        pts = [rng.randrange(1, 256) for _ in range(rng.randrange(1, 6))]
        span = g.span_mask(pts)
        # Points of the span add nothing to it: its points have the rank of `pts`.
        extra = rng.sample(points_of(span), min(3, span.bit_count()))
        assert g.span_mask(pts + extra) == span
        assert g.rank(points_of(span)) == g.rank(pts) == (span.bit_count() + 1).bit_length() - 1
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert g.span_mask(shuffled) == span


def test_edge_to_standard_unit_vectors_and_all_ones():
    assert g.edge_to_standard(vec("10000000")) == vec("10000001")
    assert g.edge_to_standard(vec("11111111")) == vec("00001111")
    assert g.edge_to_standard(0) == 0


def test_edge_to_standard_is_a_bijection():
    images = {g.edge_to_standard(y) for y in range(256)}
    assert len(images) == 256
    for y in range(256):
        assert g.standard_to_edge(g.edge_to_standard(y)) == y


def test_edge_ovoid_maps_row_by_row():
    expected = [word_to_point(w) for w in OSTAR_WORDS]
    assert [g.edge_to_standard(y) for y in EDGE_OVOID_Y] == expected


def test_string_round_trip_and_errors():
    assert g.to_string(vec("01100101"), 8) == "01100101"
    assert g.from_string("01100101") == 0b01100101
    with pytest.raises(UsageError):
        g.from_string("01102")
    with pytest.raises(UsageError):
        g.from_string("")
    with pytest.raises(UsageError):
        g.to_string(256, 8)
    with pytest.raises(UsageError):
        g.edge_to_standard(300)


@given(st.lists(st.integers(0, 255), max_size=8), st.data())
def test_span_mask_and_rank_depend_only_on_the_span(rows, data):
    # Reordering, repeating a row and adding one row to another keep the
    # span, so they must keep its point mask and its rank.
    mixed = data.draw(st.permutations(rows + rows[:3]))
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)))):
        if i != j and max(i, j) < len(mixed):
            mixed[i] ^= mixed[j]
    span = g.span_mask(rows)
    assert g.span_mask(mixed) == span
    assert g.rank(mixed) == g.rank(rows) == (span.bit_count() + 1).bit_length() - 1


def _brute_span(rows):
    # Every sum of a subset of the rows, 0 left out.
    sums = {functools.reduce(operator.xor, c, 0)
            for k in range(len(rows) + 1) for c in itertools.combinations(rows, k)}
    return sorted(sums - {0})


@pytest.mark.parametrize("rank", range(1, 9))
def test_span_mask_matches_a_brute_force_span(rank):
    rng = random.Random(rank)
    while g.rank(rows := [rng.randrange(1, 256) for _ in range(rank)]) != rank:
        pass
    a, b = rows[0], rows[-1]
    for basis in (rows, rows + [a], rows + [a ^ b], rows + [0], [0] + rows[::-1]):
        span = _brute_span(basis)
        assert len(span) == 2**rank - 1
        assert points_of(g.span_mask(basis)) == span
        assert g.span_mask(basis) == g.points_mask(span)
    assert g.span_mask([]) == g.span_mask([0]) == 0


def test_xor_tables_translate_by_each_vector():
    tables = g.xor_tables(3)
    assert len(tables) == 8
    for v, table in enumerate(tables):
        assert bytes(range(8)).translate(table) == bytes(u ^ v for u in range(8))
