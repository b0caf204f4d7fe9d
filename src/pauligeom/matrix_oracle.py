"""Independent ground truth for the word algebra via exact matrices.

Every Pauli word is a signed permutation matrix of size 2^N, so instead of
dense arrays we store the permutation and the per-row sign, multiply in
O(2^N) integer arithmetic, and compare matrices exactly.  This gives a
second, representation-independent route to symmetry class, commutation
and products that never touches the coordinate bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import pauli_codec
from .errors import InternalConsistencyError, UsageError


@dataclass(frozen=True)
class SignedPermMatrix:
    """Matrix with one nonzero entry per row: M[i, perm[i]] = signs[i]."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.perm)

    def __matmul__(self, other: "SignedPermMatrix") -> "SignedPermMatrix":
        if self.size != other.size:
            raise UsageError("size mismatch in matrix product")
        # Row i of the product: self picks column self.perm[i], i.e. row
        # self.perm[i] of `other`, scaled by signs[i].
        operm, osigns = other.perm, other.signs
        perm = tuple([operm[p] for p in self.perm])
        signs = tuple([s * osigns[p] for s, p in zip(self.signs, self.perm)])
        return SignedPermMatrix(perm, signs)

    def is_plus_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm)) and all(
            s == 1 for s in self.signs
        )

    def negated(self) -> "SignedPermMatrix":
        return SignedPermMatrix(self.perm, tuple(-s for s in self.signs))

    @classmethod
    def identity(cls, size: int) -> "SignedPermMatrix":
        return cls(tuple(range(size)), (1,) * size)

    def kron(self, other: "SignedPermMatrix") -> "SignedPermMatrix":
        n = other.size
        perm = tuple(
            self.perm[i] * n + other.perm[j]
            for i in range(self.size)
            for j in range(n)
        )
        signs = tuple(
            self.signs[i] * other.signs[j]
            for i in range(self.size)
            for j in range(n)
        )
        return SignedPermMatrix(perm, signs)


_BASE = {
    "I": SignedPermMatrix((0, 1), (1, 1)),
    "X": SignedPermMatrix((1, 0), (1, 1)),
    "Y": SignedPermMatrix((1, 0), (-1, 1)),
    "Z": SignedPermMatrix((0, 1), (1, -1)),
}


@lru_cache(maxsize=512)
def realize(word: str) -> SignedPermMatrix:
    """Kronecker product of the base matrices in letter order.

    Memoized: there are only 4^N words, and the checks below realize each
    one thousands of times.  The 340 words of one to four letters all fit
    in the cache; the result is immutable, so sharing it is safe.
    """
    pauli_codec.validate_word(word)
    out = _BASE[word[0]]
    for c in word[1:]:
        out = out.kron(_BASE[c])
    return out


def oracle_symmetric(word: str) -> bool:
    """True iff the realized matrix squares to plus identity."""
    m = realize(word)
    sq = m @ m
    if sq.is_plus_identity():
        return True
    if sq.negated().is_plus_identity():
        return False
    raise InternalConsistencyError(f"{word} does not square to +/- identity")


def oracle_commutes(a: str, b: str) -> bool:
    """Exact matrix-level commutation test."""
    ma, mb = realize(a), realize(b)
    return ma @ mb == mb @ ma


def _decode(m: SignedPermMatrix, n_qubits: int) -> str:
    """Recover the word of a matrix known to be +/- a Pauli realization."""
    flip = m.perm[0]
    if any(p != i ^ flip for i, p in enumerate(m.perm)):
        raise InternalConsistencyError("permutation is not a coordinate XOR")
    letters = []
    for q in range(n_qubits):
        pos = n_qubits - 1 - q
        xbit = (flip >> pos) & 1
        # The sign pattern depends on bit `pos` exactly for Z and Y.
        zbit = 0 if m.signs[0] == m.signs[1 << pos] else 1
        letters.append(pauli_codec._PAIR_LETTER[(zbit, xbit)])
    return "".join(letters)


def oracle_product(a: str, b: str) -> str:
    """Sign-stripped matrix product decoded back to a word.

    `realize` rejects a bad alphabet or an empty word and the matrix
    product rejects words of different lengths, both with UsageError.
    """
    m = realize(a) @ realize(b)
    word = _decode(m, len(a))
    check = realize(word)
    if m != check and m != check.negated():
        raise InternalConsistencyError("product is not +/- a Pauli realization")
    return word


def all_words(n_qubits: int):
    """All non-identity words in canonical point order."""
    ctx = pauli_codec.GeometryContext(n_qubits)
    return [pauli_codec.point_to_word(v, n_qubits) for v in ctx.points()]


def check_agreement(n_qubits: int) -> dict[str, int]:
    """Cross-check the codec against the matrix realization, exhaustively.

    Symmetry is checked on every word, commutation on every unordered
    pair and products on every ordered pair.  Returns the numbers of
    checks performed; raises on the first disagreement.
    """
    words = all_words(n_qubits)
    for w in words:
        if pauli_codec.is_symmetric(w) != oracle_symmetric(w):
            raise InternalConsistencyError(f"symmetry disagreement at {w}")
    pair_count = 0
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            if pauli_codec.commutes(a, b) != oracle_commutes(a, b):
                raise InternalConsistencyError(f"commutation disagreement {a},{b}")
            pair_count += 1
    for a in words:
        for b in words:
            if oracle_product(a, b) != pauli_codec.word_product(a, b):
                raise InternalConsistencyError(f"product disagreement {a},{b}")
    return {
        "words": len(words),
        "commutation_pairs": pair_count,
        "product_pairs": len(words) ** 2,
    }
