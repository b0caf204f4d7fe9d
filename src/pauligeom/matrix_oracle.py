"""Independent ground truth for the word algebra via exact matrices.

Every Pauli word is a signed permutation matrix of size 2^N: one nonzero
entry ±1 per row.  Such a matrix is stored as one `bytes` object whose
entry i is 2*c + s when M[i, c] = (-1)^s, so matrices compare and hash as
byte strings.  A product is one `bytes.translate`: `_action(b)` is the
256-byte table sending each signed basis vector 2c+s to row c of b with
its sign flipped by s, and translating the rows of a through it is the
product a @ b, computed in C.  Entries must fit in a byte, so words have
at most 7 letters (2^7 rows, entries below 2^8).  Only `_BASE`, `matmul`,
`_action`, `kron` and `negated` read or write this encoding, and
`check_agreement`, which translates a whole row of products through the
`_action` tables itself.

A product is read back by looking it up among the 2·4^N signed
realizations ±realize(w) (identity included), which gives its word and
its sign.  This is a second, representation-independent route to symmetry
class, commutation and products that never touches the coordinate
bijection: the square of a word is ±identity with sign + exactly when the
word is symmetric, and two words commute exactly when ab and ba carry the
same sign.  There is no memo: `check_agreement` realizes each word once,
in `_signed_table`, reads the codec's words' matrices from it by word (a
codec word missing from it fails the check), builds one `_action` table
per word and computes each of the (4^N - 1)² ordered products once.
"""

from __future__ import annotations

import itertools
from operator import eq

from . import pauli_codec
from .errors import InternalConsistencyError, UsageError

_BASE = {"I": bytes((0, 2)), "X": bytes((2, 0)), "Y": bytes((3, 0)), "Z": bytes((0, 3))}
_MAX_QUBITS = 7


def _action(b: bytes) -> bytes:
    """Translate table of b: signed basis vector 2c+s goes to b[c] ^ s."""
    return bytes([y ^ s for y in b for s in (0, 1)]).ljust(256, b"\0")


def matmul(a: bytes, b: bytes) -> bytes:
    """The product a @ b: row i of a picks row c of b and scales it by ±1."""
    if len(a) != len(b):
        raise UsageError("size mismatch in matrix product")
    return a.translate(_action(b))


def kron(a: bytes, b: bytes) -> bytes:
    """The Kronecker product a ⊗ b: row (i, j) is column (c_a, c_b), sign s_a·s_b."""
    step = 2 * len(b)
    return bytes([(x >> 1) * step + (y ^ (x & 1)) for x in a for y in b])


def negated(m: bytes) -> bytes:
    return bytes([x ^ 1 for x in m])


def realize(word: str) -> bytes:
    """Kronecker product of the base matrices in letter order.

    Words longer than `_MAX_QUBITS` letters are a usage error: their
    entries would not fit in a byte.
    """
    pauli_codec.validate_word(word)
    if len(word) > _MAX_QUBITS:
        raise UsageError(f"matrix oracle takes at most {_MAX_QUBITS} letters, got {word!r}")
    out = _BASE[word[0]]
    for c in word[1:]:
        out = kron(out, _BASE[c])
    return out


def _signed_table(n_qubits: int) -> dict[bytes, tuple[str, int]]:
    """Map each signed realization ±realize(w) of rank N to (w, ±1).

    The words are spelled from the letters, not read from the codec it
    checks.  The 2·4^N entries must be distinct: a realization that
    coincides with another up to sign would make the lookup ambiguous.
    """
    table = {}
    for letters in itertools.product(_BASE, repeat=n_qubits):
        word = "".join(letters)
        m = realize(word)
        table[m] = (word, 1)
        table[negated(m)] = (word, -1)
    if len(table) != 2 * 4**n_qubits:
        raise InternalConsistencyError("signed realizations are not distinct")
    return table


def _lookup(table, m: bytes, a: str, b: str) -> tuple[str, int]:
    """(word, sign) of the product m = matmul(realize(a), realize(b))."""
    try:
        return table[m]
    except KeyError:
        raise InternalConsistencyError(
            f"product {a},{b} is not +/- a Pauli realization"
        ) from None


def all_words(n_qubits: int):
    """All non-identity words in canonical point order."""
    return [pauli_codec.point_to_word(v, n_qubits) for v in range(1, 4 ** n_qubits)]


def check_agreement(n_qubits: int) -> dict[str, int]:
    """Cross-check the codec against the matrix realization, exhaustively.

    One pass computes every ordered matrix product once: the square of
    each word gives its symmetry class, and ab and ba of each unordered
    pair give both ordered products and, by their signs, commutation.
    Each is compared with `pauli_codec`, a row at a time: for word a, the
    products ab and ba with every later word b are looked up as two lists
    and compared with the codec's as two maps.  A row that disagrees is
    checked again pair by pair, so that the error names its first
    disagreeing ordered pair.  Returns the numbers of checks performed.
    """
    table = _signed_table(n_qubits)
    matrix = {w: m for m, (w, sign) in table.items() if sign == 1}
    identity = "I" * n_qubits
    words = all_words(n_qubits)
    try:
        mats = [matrix[w] for w in words]
    except KeyError as exc:
        raise InternalConsistencyError(
            f"codec word {exc.args[0]!r} has no rank-{n_qubits} matrix") from None
    acts = [_action(m) for m in mats]
    for i, (a, ma, act_a) in enumerate(zip(words, mats, acts)):
        square, sign = _lookup(table, ma.translate(act_a), a, a)
        if square != pauli_codec.word_product(a, a):
            raise InternalConsistencyError(f"product disagreement {a},{a}")
        if square != identity:
            raise InternalConsistencyError(f"{a} does not square to +/- identity")
        if pauli_codec.is_symmetric(a) != (sign == 1):
            raise InternalConsistencyError(f"symmetry disagreement at {a}")
        later, later_mats = words[i + 1 :], mats[i + 1 :]
        try:
            ab = [table[ma.translate(act)] for act in acts[i + 1 :]]
            ba = [table[mb.translate(act_a)] for mb in later_mats]
        except KeyError:
            _check_pairs(table, a, ma, later, later_mats)
            continue
        same = itertools.repeat(a)
        if ([w for w, _ in ab] != list(map(pauli_codec.word_product, same, later))
                or [w for w, _ in ba] != list(map(pauli_codec.word_product, later, same))
                or list(map(eq, ab, ba)) != list(map(pauli_codec.commutes, same, later))):
            _check_pairs(table, a, ma, later, later_mats)
    count = len(words)
    return {
        "words": count,
        "commutation_pairs": count * (count - 1) // 2,
        "product_pairs": count * count,
    }


def _check_pairs(table, a: str, ma: bytes, later, later_mats) -> None:
    """Word a's row, pair by pair: raises on its first disagreeing pair."""
    for b, mb in zip(later, later_mats):
        ab = _lookup(table, matmul(ma, mb), a, b)
        ba = _lookup(table, matmul(mb, ma), b, a)
        if ab[0] != pauli_codec.word_product(a, b):
            raise InternalConsistencyError(f"product disagreement {a},{b}")
        if ba[0] != pauli_codec.word_product(b, a):
            raise InternalConsistencyError(f"product disagreement {b},{a}")
        if pauli_codec.commutes(a, b) != (ab == ba):
            raise InternalConsistencyError(f"commutation disagreement {a},{b}")
