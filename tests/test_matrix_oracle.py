import itertools
import random

import numpy as np
import pytest

from pauligeom import matrix_oracle as mo
from pauligeom import pauli_codec as pc
from pauligeom.errors import InternalConsistencyError, UsageError

_DENSE = {
    "I": np.array([[1, 0], [0, 1]]),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1], [1, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


def dense(word):
    out = np.array([[1]])
    for c in word:
        out = np.kron(out, _DENSE[c])
    return out


def as_dense(m):
    # Entry i of the bytes is 2*c + s where M[i, c] = (-1)^s.
    out = np.zeros((len(m), len(m)), dtype=int)
    for i, x in enumerate(m):
        out[i, x >> 1] = -1 if x & 1 else 1
    return out


def test_identity_realization():
    m = mo.realize("IIII")
    assert m == bytes(range(0, 32, 2))


def test_single_y_matrix():
    m = mo.realize("Y")
    assert m == bytes((3, 0))
    assert np.array_equal(as_dense(m), _DENSE["Y"])


def test_kron_matches_dense_for_xz():
    assert np.array_equal(as_dense(mo.realize("XZ")), np.kron(_DENSE["X"], _DENSE["Z"]))


def test_realize_matches_dense_all_two_qubit_words():
    for word in map("".join, itertools.product("IXYZ", repeat=2)):
        assert np.array_equal(as_dense(mo.realize(word)), dense(word))


def test_realize_matches_dense_all_four_qubit_words():
    words = mo.all_words(4)
    assert len(words) == 255
    for word in words:
        assert np.array_equal(as_dense(mo.realize(word)), dense(word))


def test_check_agreement_builds_each_matrix_and_action_table_once(monkeypatch):
    # One matrix per rank-4 word, identity included, and one action table
    # per non-identity word: the squares are read through the same tables.
    calls = {"realize": 0, "_action": 0}

    def counted(name):
        real = getattr(mo, name)

        def wrapper(m):
            calls[name] += 1
            return real(m)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mo, name, counted(name))
    mo.check_agreement(4)
    assert calls == {"realize": 256, "_action": 255}


def test_matmul_matches_dense():
    rng = random.Random(3)
    words = ["".join(rng.choice("IXYZ") for _ in range(3)) for _ in range(40)]
    for a, b in zip(words[::2], words[1::2]):
        got = as_dense(mo.matmul(mo.realize(a), mo.realize(b)))
        assert np.array_equal(got, dense(a) @ dense(b))


def test_matmul_matches_dense_on_every_rank3_pair():
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=3)]
    for a, b in itertools.product(words, repeat=2):
        got = as_dense(mo.matmul(mo.realize(a), mo.realize(b)))
        assert np.array_equal(got, dense(a) @ dense(b)), (a, b)


def test_matmul_matches_dense_on_every_rank4_pair_with_one_word():
    fixed = "YXZY"
    for word in map("".join, itertools.product("IXYZ", repeat=4)):
        for a, b in ((fixed, word), (word, fixed)):
            got = as_dense(mo.matmul(mo.realize(a), mo.realize(b)))
            assert np.array_equal(got, dense(a) @ dense(b)), (a, b)


def test_realize_takes_words_up_to_seven_letters():
    m = mo.realize("XYZIXYZ")
    assert len(m) == 128 and max(m) <= 255
    assert mo.matmul(m, m) == mo.realize("I" * 7)  # two Y letters: +I
    # Entries 2c+s of an 8-letter word reach 511 and do not fit in a byte.
    with pytest.raises(UsageError, match="at most 7 letters"):
        mo.realize("XYZIXYZI")


@pytest.mark.parametrize("call", [
    lambda: mo.realize("XQ"),
    lambda: mo.realize(""),
    lambda: mo.matmul(mo.realize("XX"), mo.realize("XXX")),
], ids=["bad-letter", "empty", "size-mismatch"])
def test_bad_words_are_usage_errors(call):
    with pytest.raises(UsageError):
        call()


def test_realize_is_homomorphism_up_to_sign():
    pairs = list(itertools.product(mo.all_words(3), repeat=2))
    assert len(pairs) == 3969
    for a, b in pairs:
        prod = mo.matmul(mo.realize(a), mo.realize(b))
        expect = mo.realize(pc.word_product(a, b))
        assert prod == expect or prod == mo.negated(expect)


@pytest.mark.parametrize("n", [2, 3])
def test_check_agreement_small(n):
    stats = mo.check_agreement(n)
    count = 4**n - 1
    assert stats["words"] == count
    assert stats["commutation_pairs"] == count * (count - 1) // 2
    assert stats["product_pairs"] == count * count


def test_check_agreement_catches_one_wrong_product(monkeypatch):
    # A single wrong ordered pair among the 65025.  YYYY*YYZY is one of
    # the 13910 pairs that the former seeded sample of 100000 random
    # products never drew, so only the exhaustive check catches it.
    bad = ("YYYY", "YYZY")
    real = pc.word_product

    def word_product(a, b):
        return a if (a, b) == bad else real(a, b)

    monkeypatch.setattr(pc, "word_product", word_product)
    with pytest.raises(InternalConsistencyError) as exc:
        mo.check_agreement(4)
    assert "product" in str(exc.value)
    assert f"{bad[0]},{bad[1]}" in str(exc.value)


def test_check_agreement_catches_one_wrong_commutation(monkeypatch):
    words = mo.all_words(4)
    bad = {words[-2], words[-1]}
    real = pc.commutes

    def commutes(a, b):
        return real(a, b) != ({a, b} == bad)

    monkeypatch.setattr(pc, "commutes", commutes)
    with pytest.raises(InternalConsistencyError) as exc:
        mo.check_agreement(4)
    assert "commutation" in str(exc.value)
    assert f"{words[-2]},{words[-1]}" in str(exc.value)


def test_check_agreement_names_a_wrong_reversed_product(monkeypatch):
    # Only word_product(b, a) is wrong, for one pair with a before b: the
    # fault is named as the ordered pair b,a.
    words = mo.all_words(4)
    a, b = words[10], words[200]
    real = pc.word_product

    def word_product(x, y):
        return x if (x, y) == (b, a) else real(x, y)

    monkeypatch.setattr(pc, "word_product", word_product)
    with pytest.raises(InternalConsistencyError) as exc:
        mo.check_agreement(4)
    assert str(exc.value) == f"product disagreement {b},{a}"


def test_check_agreement_names_the_first_faulty_pair_of_a_row(monkeypatch):
    # A commutation fault at (a, b1) and a product fault at (a, b2), with
    # b1 before b2 in a's row: the earlier pair is named, whatever its kind.
    words = mo.all_words(4)
    a, b1, b2 = words[5], words[50], words[100]
    real_product, real_commutes = pc.word_product, pc.commutes

    def word_product(x, y):
        return x if (x, y) == (a, b2) else real_product(x, y)

    def commutes(x, y):
        return real_commutes(x, y) != ({x, y} == {a, b1})

    monkeypatch.setattr(pc, "word_product", word_product)
    monkeypatch.setattr(pc, "commutes", commutes)
    with pytest.raises(InternalConsistencyError) as exc:
        mo.check_agreement(4)
    assert str(exc.value) == f"commutation disagreement {a},{b1}"


def test_check_agreement_catches_one_wrong_symmetry(monkeypatch):
    bad = mo.all_words(4)[100]
    real = pc.is_symmetric

    def is_symmetric(w):
        return real(w) != (w == bad)

    monkeypatch.setattr(pc, "is_symmetric", is_symmetric)
    with pytest.raises(InternalConsistencyError) as exc:
        mo.check_agreement(4)
    assert str(exc.value) == f"symmetry disagreement at {bad}"


def test_check_agreement_catches_a_corrupted_realization(monkeypatch):
    # One sign flipped in one row of one word's matrix: every product
    # with that word leaves the signed realizations.
    bad = "XZYI"
    real = mo.realize

    def realize(word):
        m = real(word)
        if word != bad:
            return m
        return bytes([m[0] ^ 1]) + m[1:]

    monkeypatch.setattr(mo, "realize", realize)
    with pytest.raises(InternalConsistencyError) as exc:
        mo.check_agreement(4)
    message = str(exc.value)
    assert "is not +/- a Pauli realization" in message
    pair = message.split()[1].split(",")
    assert bad in pair


def test_signed_table_holds_every_signed_realization():
    table = mo._signed_table(2)
    assert len(table) == 2 * 4**2
    for word in map("".join, itertools.product("IXYZ", repeat=2)):
        m = mo.realize(word)
        assert table[m] == (word, 1)
        assert table[mo.negated(m)] == (word, -1)


def test_check_agreement_names_the_pair_a_wrong_word_table_entry_breaks(monkeypatch):
    # One entry of the codec's rank-4 word table is wrong: the word of
    # XZYI's vector reads ZZZZ.  The oracle multiplies matrices and calls
    # the codec's public functions, so it names the first ordered pair, in
    # its own order, whose product is that vector.
    words, vectors = pc._tables(4)
    v = vectors["XZYI"]
    monkeypatch.setitem(pc._TABLES, 4, (words[:v] + ("ZZZZ",) + words[v + 1:], vectors))
    listed = mo.all_words(4)  # lists ZZZZ twice, through the same table
    a, b = next((a, b) for i, a in enumerate(listed) for b in listed[i + 1:]
                if vectors[a] ^ vectors[b] == v)
    with pytest.raises(InternalConsistencyError) as exc:
        mo.check_agreement(4)
    assert str(exc.value) == f"product disagreement {a},{b}"


def test_check_agreement_names_a_codec_word_that_is_no_pauli_word(monkeypatch):
    # The codec's rank-4 word table lists QQQQ at XZYI's vector.  Matrices
    # are read by word from the table built from the letters, so the word
    # is a failed check, not a usage error.
    words, vectors = pc._tables(4)
    v = vectors["XZYI"]
    monkeypatch.setitem(pc._TABLES, 4, (words[:v] + ("QQQQ",) + words[v + 1:], vectors))
    with pytest.raises(InternalConsistencyError) as exc:
        mo.check_agreement(4)
    assert str(exc.value) == "codec word 'QQQQ' has no rank-4 matrix"
