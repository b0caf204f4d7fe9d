import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauligeom import gf2_core as g
from pauligeom.errors import DegenerateInputError, UsageError
from pauligeom.polar_geometry import EDGE_OVOID_Y, OSTAR_WORDS
from pauligeom.pauli_codec import word_to_point


def vec(s):
    return g.from_string(s)


def test_vec_add_third_point_example():
    assert g.vec_add(vec("01110100"), vec("11000110")) == vec("10110010")


def test_vec_add_self_inverse_and_identity():
    for v in range(16):
        assert g.vec_add(v, v) == 0
        assert g.vec_add(v, 0) == v


def test_vec_add_group_axioms_exhaustive_two_qubits():
    for a, b, c in itertools.product(range(16), repeat=3):
        assert g.vec_add(a, b) == g.vec_add(b, a)
        assert g.vec_add(g.vec_add(a, b), c) == g.vec_add(a, g.vec_add(b, c))


def test_vec_add_group_axioms_random_eight_coords():
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert g.vec_add(a, b) == g.vec_add(b, a)
        assert g.vec_add(g.vec_add(a, b), c) == g.vec_add(a, g.vec_add(b, c))


def test_line_through_example_and_symmetry():
    p, q = vec("01110100"), vec("11000110")
    line = g.line_through(p, q)
    assert line == {p, q, vec("10110010")}
    assert g.line_through(q, p) == line
    assert g.line_through(vec("10000000"), vec("01000000")) == {
        vec("10000000"),
        vec("01000000"),
        vec("11000000"),
    }


def test_line_through_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        g.line_through(5, 5)
    with pytest.raises(DegenerateInputError):
        g.line_through(0, 5)


def test_span_dimensions():
    assert g.span([]).proj_dim == -1
    assert g.span([vec("10000000"), vec("01000000")]).proj_dim == 1
    p, q = 0b1010, 0b0110
    assert g.span([p, q, p ^ q]).proj_dim == 1
    ostar_points = [word_to_point(w) for w in OSTAR_WORDS]
    assert g.span(ostar_points).proj_dim == 7


def test_flat_points_cardinalities():
    line = g.span([vec("10000000"), vec("01000000")])
    assert len(g.flat_points(line)) == 3
    solid = g.span([1, 2, 4, 8])
    assert solid.proj_dim == 3
    assert len(g.flat_points(solid)) == 15
    full = g.span([1 << i for i in range(8)])
    assert len(g.flat_points(full)) == 255


def test_span_idempotent_and_order_independent():
    rng = random.Random(11)
    for _ in range(25):
        pts = [rng.randrange(1, 256) for _ in range(rng.randrange(1, 6))]
        f = g.span(pts)
        assert g.span(g.flat_points(f)) == f
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert g.span(shuffled) == f


def test_flat_membership():
    f = g.span([0b1100, 0b0011])
    assert 0b1111 in f
    assert 0b1100 in f
    assert 0b1000 not in f


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
