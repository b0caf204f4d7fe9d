import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauligeom import pauli_codec as pc
from pauligeom.errors import IdentityNotAPointError, UsageError
from pauligeom.gf2_core import from_string
from pauligeom.polar_geometry import OSTAR_WORDS


def test_word_to_point_examples():
    assert pc.word_to_point("IYZX") == from_string("01100101")
    assert pc.word_to_point("ZIIX") == from_string("10000001")
    assert pc.word_to_point("XXXX") == from_string("00001111")


def test_point_to_word_examples():
    assert pc.point_to_word(from_string("01100101"), 4) == "IYZX"
    assert pc.point_to_word(from_string("11010000"), 4) == "ZZIZ"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_trip_on_all_points(n):
    ctx = pc.GeometryContext(n)
    for v in ctx.points():
        assert pc.word_to_point(pc.point_to_word(v, n)) == v


def test_identity_is_not_a_point():
    with pytest.raises(IdentityNotAPointError):
        pc.word_to_point("IIII")
    with pytest.raises(IdentityNotAPointError):
        pc.point_to_word(0, 4)


def test_word_validation():
    with pytest.raises(UsageError):
        pc.word_to_point("ABCD")
    with pytest.raises(UsageError):
        pc.word_product("XX", "XXX")


def test_word_product_examples():
    assert pc.word_product("IYZZ", "ZYXI") == "ZIYZ"
    assert pc.word_product("XZYI", "XZYI") == "IIII"
    assert pc.word_product("XZYI", "IIII") == "XZYI"


def test_product_compatibility_with_vector_sum():
    words = [pc.point_to_word(v, 3) for v in pc.GeometryContext(3).points()]
    for a, b in itertools.combinations(words, 2):
        expect = pc.point_to_word(pc.word_to_point(a) ^ pc.word_to_point(b), 3)
        assert pc.word_product(a, b) == expect


def test_commutes_examples():
    assert pc.commutes("XZYI", "XZYI")
    assert not pc.commutes("XIII", "ZIII")
    assert pc.commutes("IIII", "XYZX")
    for a, b in itertools.combinations(OSTAR_WORDS, 2):
        assert not pc.commutes(a, b)


def test_commutation_symmetry():
    words = [pc.point_to_word(v, 2) for v in pc.GeometryContext(2).points()]
    for a, b in itertools.combinations(words, 2):
        assert pc.commutes(a, b) == pc.commutes(b, a)


def test_is_symmetric_examples():
    assert pc.is_symmetric("XXXX")
    assert not pc.is_symmetric("IYZX")
    assert pc.is_symmetric("YYZX")
    ctx = pc.GeometryContext(4)
    assert ctx.quadratic(pc.word_to_point("IYZX")) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetry_matches_quadratic_form(n):
    ctx = pc.GeometryContext(n)
    for v in ctx.points():
        w = pc.point_to_word(v, n)
        assert pc.is_symmetric(w) == (ctx.quadratic(v) == 0)


def test_partition_counts_four_qubits():
    ctx = pc.GeometryContext(4)
    words = [pc.point_to_word(v, 4) for v in ctx.points()]
    assert len(words) == 255
    symmetric = [w for w in words if pc.is_symmetric(w)]
    assert len(symmetric) == 135
    assert len(words) - len(symmetric) == 120


def test_polarization_identity_four_qubits():
    ctx = pc.GeometryContext(4)
    pts = list(ctx.points())
    for u in pts:
        qu = ctx.quadratic(u)
        for v in pts:
            assert ctx.quadratic(u ^ v) == (qu + ctx.quadratic(v) + ctx.sigma(u, v)) % 2


def test_sigma_is_alternating():
    for n in (2, 3, 4):
        ctx = pc.GeometryContext(n)
        assert all(ctx.sigma(v, v) == 0 for v in ctx.points())


def _vectors(k):
    """A context of 1 to 4 qubits and `k` vectors of its space."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(pc.GeometryContext(n)), *[st.integers(0, 4**n - 1)] * k))


@given(_vectors(2))
def test_polarization_identity(case):
    ctx, u, v = case
    assert ctx.quadratic(u ^ v) == (ctx.quadratic(u) + ctx.quadratic(v) + ctx.sigma(u, v)) % 2


@given(_vectors(3))
def test_sigma_is_alternating_symmetric_and_bilinear(case):
    ctx, u, v, w = case
    assert ctx.sigma(u, u) == 0
    assert ctx.sigma(u, v) == ctx.sigma(v, u)
    assert ctx.sigma(u ^ w, v) == ctx.sigma(u, v) ^ ctx.sigma(w, v)


@given(_vectors(1).filter(lambda case: case[1] != 0), st.data())
def test_word_point_round_trip(case, data):
    ctx, v = case
    n = ctx.n_qubits
    assert pc.word_to_point(pc.point_to_word(v, n)) == v
    word = data.draw(st.text("IXYZ", min_size=n, max_size=n).filter(lambda w: set(w) != {"I"}))
    assert pc.point_to_word(pc.word_to_point(word), n) == word


_ALPHABET = "not a Pauli word over I/X/Y/Z: "
# (a, b, exception, message) for word_product and commutes: a's alphabet
# is checked before b's, b's before the length match.
_BAD_PAIRS = [
    ("XQ", "ZQ", UsageError, _ALPHABET + "'XQ'"),
    ("XX", "ZQ", UsageError, _ALPHABET + "'ZQ'"),
    ("XX", "QQQ", UsageError, _ALPHABET + "'QQQ'"),
    ("XX", "XXX", UsageError, "expected 2 letters, got 'XXX'"),
    ("XI", "IIII", UsageError, "expected 2 letters, got 'IIII'"),
    ("", "X", UsageError, _ALPHABET + "''"),
    ("X", "", UsageError, _ALPHABET + "''"),
    ("x", "X", UsageError, _ALPHABET + "'x'"),
    (None, "X", UsageError, _ALPHABET + "None"),
    ("X", None, UsageError, _ALPHABET + "None"),
    ({}, "X", UsageError, _ALPHABET + "{}"),
    ("X", [], UsageError, _ALPHABET + "[]"),
    (5, "X", AttributeError, "'int' object has no attribute 'strip'"),
    ("X", 5, AttributeError, "'int' object has no attribute 'strip'"),
    (["X"], "X", AttributeError, "'list' object has no attribute 'strip'"),
    ("X", ["X"], AttributeError, "'list' object has no attribute 'strip'"),
    (b"X", "X", TypeError, "a bytes-like object is required, not 'str'"),
]


@pytest.mark.parametrize("fn", [pc.word_product, pc.commutes])
@pytest.mark.parametrize("a,b,exc,message", _BAD_PAIRS)
def test_pair_functions_reject_bad_words_in_order(fn, a, b, exc, message):
    fn("XX", "ZI")  # a valid call first: a memo must not let a bad word through
    for _ in range(2):  # and a failed call is not remembered either way
        with pytest.raises(exc) as err:
            fn(a, b)
        assert type(err.value) is exc
        assert str(err.value) == message


@pytest.mark.parametrize("word,exc,message", [
    ("YQ", UsageError, _ALPHABET + "'YQ'"),
    ("", UsageError, _ALPHABET + "''"),
    ("y", UsageError, _ALPHABET + "'y'"),
    (None, UsageError, _ALPHABET + "None"),
    ([], UsageError, _ALPHABET + "[]"),
    (5, AttributeError, "'int' object has no attribute 'strip'"),
    (["Y"], AttributeError, "'list' object has no attribute 'strip'"),
    (b"Y", TypeError, "a bytes-like object is required, not 'str'"),
])
def test_is_symmetric_rejects_bad_words(word, exc, message):
    for _ in range(2):
        with pytest.raises(exc) as err:
            pc.is_symmetric(word)
        assert type(err.value) is exc
        assert str(err.value) == message


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_tables_agree_with_the_letter_by_letter_codec(n):
    words, vectors = pc._tables(n)
    every = list(map("".join, itertools.product(pc.LETTERS, repeat=n)))
    assert len(words) == len(vectors) == len(every) == 4**n
    assert sorted(words) == sorted(vectors) == sorted(every)
    for w in every:
        v = pc._encode(w)
        assert vectors[w] == v and words[v] == w == pc._decode(v, n)
        assert pc.is_symmetric(w) == (w.count("Y") % 2 == 0)
        if v:
            assert pc.word_to_point(w) == v and pc.point_to_word(v, n) == w


def test_words_longer_than_the_tables_are_coded_letter_by_letter():
    a, b = "IXYZZYXIX", "ZZZZZZZZY"
    u, v = pc.word_to_point(a), pc.word_to_point(b)
    assert (u, v) == (pc._encode(a), pc._encode(b))
    assert pc.point_to_word(u, 9) == a
    assert pc.word_product(a, b) == pc._decode(u ^ v, 9) == "ZYXIIXYZZ"
    assert pc.word_product(a, a) == "I" * 9
    assert pc.commutes(a, b) == (pc.GeometryContext(9).sigma(u, v) == 0)
    # five letters, one above the largest command rank, get no table either
    assert pc.word_to_point("XYZIX") == pc._encode("XYZIX")
    assert pc.point_to_word(pc._encode("XYZIX"), 5) == "XYZIX"
    assert pc.word_product("XYZIX", "ZZZZZ") == "YXIZY"
    assert not {5, 9} & set(pc._TABLES)


@pytest.mark.parametrize("v,n,exc,message", [
    (0, 4, IdentityNotAPointError, "the zero vector has no word"),
    (0, 9, IdentityNotAPointError, "the zero vector has no word"),
    (-1, 4, UsageError, "point -1 does not fit 4 qubits"),
    (-255, 2, UsageError, "point -255 does not fit 2 qubits"),
    (256, 4, UsageError, "point 256 does not fit 4 qubits"),
    (16, 2, UsageError, "point 16 does not fit 2 qubits"),
    (1, 0, UsageError, "point 1 does not fit 0 qubits"),
    (1 << 18, 9, UsageError, "point 262144 does not fit 9 qubits"),
])
def test_point_to_word_rejects_points_off_the_rank(v, n, exc, message):
    for _ in range(2):  # a failed call is not remembered
        with pytest.raises(exc) as err:
            pc.point_to_word(v, n)
        assert type(err.value) is exc
        assert str(err.value) == message
    assert 0 not in pc._TABLES


@pytest.mark.parametrize("fn", [pc.word_product, pc.commutes])
def test_bad_words_raise_alike_with_no_table_and_build_only_valid_ranks(fn, monkeypatch):
    # From no table at all: each bad pair raises as with its rank's tables
    # built, and only the valid words' ranks get tables.
    monkeypatch.setattr(pc, "_TABLES", {})
    for _ in range(2):
        for a, b, exc, message in _BAD_PAIRS:
            with pytest.raises(exc) as err:
                fn(a, b)
            assert type(err.value) is exc and str(err.value) == message
    valid = {w for a, b, *_ in _BAD_PAIRS for w in (a, b)
             if isinstance(w, str) and w and not w.strip(pc.LETTERS)}
    assert sorted(pc._TABLES) == sorted({len(w) for w in valid}) == [1, 2, 3, 4]
