"""Dictionary between sign-free Pauli words and binary projective points.

A word is a string of N letters over {I, X, Y, Z}; signs are dropped
throughout (the factor group modulo the center), which is exactly the
setting where the group becomes the point set of a binary symplectic
space.  Each letter maps to the coordinate pair (x_i, x_{i+N}):

    I -> (0,0)   X -> (0,1)   Y -> (1,1)   Z -> (1,0)

so the word occupies one int with the first-letter pair in the highest
coordinates.  The sign-free product is then plain vector addition, and
commutation is vanishing of the alternating form sigma.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import IdentityNotAPointError, UsageError

LETTERS = "IXYZ"

_LETTER_PAIR = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}
_PAIR_LETTER = {v: k for k, v in _LETTER_PAIR.items()}


def validate_word(word: str, n_qubits: int | None = None) -> str:
    """Check a word's alphabet (and length when `n_qubits` is given)."""
    if not word or word.strip(LETTERS):
        raise UsageError(f"not a Pauli word over I/X/Y/Z: {word!r}")
    if n_qubits is not None and len(word) != n_qubits:
        raise UsageError(f"expected {n_qubits} letters, got {word!r}")
    return word


@lru_cache(maxsize=1024)
def _valid_vector(word: str) -> int:
    """Vector of a word that passes :func:`validate_word`; the identity is 0.

    Memoized, like :func:`point_to_word`: the checks convert the same few
    hundred words over and over, so each is validated and encoded once.
    1024 entries hold every word of one to four qubits; a word that fails
    validation raises and is not remembered.
    """
    validate_word(word)
    n = len(word)
    hi = lo = 0
    for c in word:
        a, b = _LETTER_PAIR[c]
        hi = (hi << 1) | a
        lo = (lo << 1) | b
    return (hi << n) | lo


def _vector(word: str) -> int:
    """:func:`_valid_vector`, raising exactly what `validate_word` raises.

    An input the memo cannot hash (a list, a dict) is validated outside
    it, so the caller sees validation's own error, not the memo's.
    """
    try:
        return _valid_vector(word)
    except TypeError:
        pass
    validate_word(word)
    return _valid_vector(word)


def word_to_point(word: str) -> int:
    """Projective point of a non-identity word."""
    v = _vector(word)
    if v == 0:
        raise IdentityNotAPointError("the identity word is not a projective point")
    return v


@lru_cache(maxsize=1024)
def point_to_word(v: int, n_qubits: int) -> str:
    """Word of a nonzero point; inverse of :func:`word_to_point`."""
    if v == 0:
        raise IdentityNotAPointError("the zero vector has no word")
    if v < 0 or v >> (2 * n_qubits):
        raise UsageError(f"point {v} does not fit {n_qubits} qubits")
    hi, lo = v >> n_qubits, v & ((1 << n_qubits) - 1)
    return "".join(
        _PAIR_LETTER[(hi >> i) & 1, (lo >> i) & 1]
        for i in range(n_qubits - 1, -1, -1)
    )


def word_product(a: str, b: str) -> str:
    """Sign-free product; addition of coordinate pairs letter by letter.

    Like :func:`commutes`, it checks a's alphabet, b's, then the length,
    and reads both vectors from the memo in its own frame: the matrix
    oracle calls both pair functions for every pair of words.
    """
    try:
        u, v = _valid_vector(a), _valid_vector(b)
    except TypeError:  # an argument the memo cannot hash
        u, v = _vector(a), _vector(b)
    n = len(a)
    if len(b) != n:
        validate_word(b, n)  # raises the length mismatch
    return "I" * n if u == v else point_to_word(u ^ v, n)


def is_symmetric(word: str) -> bool:
    """Whether the word squares to plus identity: even number of Y letters."""
    _vector(word)
    return word.count("Y") % 2 == 0


def _sigma(u: int, v: int, n: int) -> int:
    """The alternating form on N-qubit vectors (see GeometryContext)."""
    m = (1 << n) - 1
    return (((u >> n) & v & m).bit_count() + ((v >> n) & u & m).bit_count()) & 1


class GeometryContext:
    """Ambient data for N qubits: dimension, alternating and quadratic forms.

    sigma(u, v) = sum_i (u_i v_{i+N} + u_{i+N} v_i) and
    Q(v) = sum_i v_i v_{i+N}, both mod 2; they satisfy the polarization
    identity Q(u+v) = Q(u) + Q(v) + sigma(u, v).
    """

    __slots__ = ("n_qubits", "dim")

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise UsageError("need at least one qubit")
        self.n_qubits = n_qubits
        self.dim = 2 * n_qubits

    def __eq__(self, other) -> bool:
        return type(other) is GeometryContext and other.n_qubits == self.n_qubits

    def __hash__(self) -> int:
        return hash(self.n_qubits)

    @property
    def _lo_mask(self) -> int:
        return (1 << self.n_qubits) - 1

    def sigma(self, u: int, v: int) -> int:
        return _sigma(u, v, self.n_qubits)

    def quadratic(self, v: int) -> int:
        return ((v >> self.n_qubits) & v & self._lo_mask).bit_count() & 1

    def points(self) -> range:
        """All projective points, in canonical (integer) order."""
        return range(1, 1 << self.dim)

    def perp_mask(self, p: int) -> int:
        """Bitmask over point values v with sigma(p, v) = 0."""
        mask = 0
        for v in self.points():
            if self.sigma(p, v) == 0:
                mask |= 1 << v
        return mask


def commutes(a: str, b: str) -> bool:
    """Whether two words commute: sigma of their points vanishes."""
    try:
        u, v = _valid_vector(a), _valid_vector(b)
    except TypeError:  # an argument the memo cannot hash
        u, v = _vector(a), _vector(b)
    n = len(a)
    if len(b) != n:
        validate_word(b, n)  # raises the length mismatch
    m = (1 << n) - 1
    return not (((u >> n) & v & m).bit_count() + ((v >> n) & u & m).bit_count()) & 1


def words_to_points(words) -> tuple[int, ...]:
    return tuple(word_to_point(w) for w in words)


def join_words(points, n_qubits: int = 4) -> str:
    """Points as comma-separated Pauli words: listings and error messages."""
    return ",".join(point_to_word(p, n_qubits) for p in points)
