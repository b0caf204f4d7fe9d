import itertools
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


def test_span_dimensions():
    assert g.echelon([]) == ()
    assert len(g.echelon([vec("10000000"), vec("01000000")])) == 2
    p, q = 0b1010, 0b0110
    assert len(g.echelon([p, q, p ^ q])) == 2
    ostar_points = [word_to_point(w) for w in OSTAR_WORDS]
    assert len(g.echelon(ostar_points)) == 8


def test_flat_points_cardinalities():
    line = g.echelon([vec("10000000"), vec("01000000")])
    assert len(g.span_points(line)) == 3
    solid = g.echelon([1, 2, 4, 8])
    assert len(solid) == 4
    assert len(g.span_points(solid)) == 15
    full = g.echelon([1 << i for i in range(8)])
    assert len(g.span_points(full)) == 255


def test_span_idempotent_and_order_independent():
    rng = random.Random(11)
    for _ in range(25):
        pts = [rng.randrange(1, 256) for _ in range(rng.randrange(1, 6))]
        basis = g.echelon(pts)
        assert g.echelon(g.span_points(basis)) == basis
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert g.echelon(shuffled) == basis


def test_echelon_is_canonical():
    basis = g.echelon([0b1110, 0b0111, 0b1001])
    for perm in itertools.permutations([0b1110, 0b0111, 0b1001]):
        assert g.echelon(perm) == basis
    # adding dependent rows changes nothing
    assert g.echelon([0b1110, 0b0111, 0b1110 ^ 0b0111]) == g.echelon([0b1110, 0b0111])


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
def test_echelon_depends_only_on_the_span(rows, data):
    # Reordering, repeating a row and adding one row to another keep the
    # span, so they must keep the canonical basis.
    mixed = data.draw(st.permutations(rows + rows[:3]))
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)))):
        if i != j and max(i, j) < len(mixed):
            mixed[i] ^= mixed[j]
    basis = g.echelon(rows)
    assert g.echelon(mixed) == basis
    assert g.span_points(basis) == g.span_points(rows)
