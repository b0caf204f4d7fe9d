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

from .errors import IdentityNotAPointError, InternalConsistencyError, UsageError

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


# The rank-n codec tables, rank -> (word of each vector, identity at 0;
# vector of each word), built by `_tables` on first use of the rank.
# Ranks above `_MAX_TABLED`, the largest rank of any command (`--n` is 2, 3
# or 4), get no table: their words are encoded and decoded letter by
# letter on every call, so no call builds more than 256 words.
_TABLES: dict[int, tuple[tuple[str, ...], dict[str, int]]] = {}
_MAX_TABLED = 4


def _encode(word: str) -> int:
    """Vector of a valid word, letter by letter; the identity is 0."""
    n = len(word)
    hi = lo = 0
    for c in word:
        a, b = _LETTER_PAIR[c]
        hi = (hi << 1) | a
        lo = (lo << 1) | b
    return (hi << n) | lo


def _decode(v: int, n: int) -> str:
    """Word of a vector of rank n, letter by letter; 0 is the identity."""
    hi, lo = v >> n, v & ((1 << n) - 1)
    return "".join(_PAIR_LETTER[(hi >> i) & 1, (lo >> i) & 1] for i in range(n - 1, -1, -1))


def _tables(n: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The two tables of rank n (1 to `_MAX_TABLED`), built on first use.

    The words come from the decoder; the build checks that the encoder
    inverts it on all 4^n of them, so a table read gives exactly what the
    letter-by-letter code gives.
    """
    if n not in _TABLES:
        words = tuple(_decode(v, n) for v in range(4**n))
        vectors = {w: v for v, w in enumerate(words)}
        if len(vectors) != len(words) or any(_encode(w) != v for w, v in vectors.items()):
            raise InternalConsistencyError(f"rank-{n} encoder does not invert the decoder")
        _TABLES[n] = words, vectors
    return _TABLES[n]


def _vector(word: str) -> int:
    """Vector of a word, raising exactly what `validate_word` raises; the
    identity is 0.  A word of a tabled rank is read from its table, which
    holds only valid words, so only a miss is validated."""
    try:
        return _TABLES[len(word)][1][word]
    except (KeyError, TypeError):  # rank not built yet, or not a word of it
        pass
    validate_word(word)
    n = len(word)
    return _tables(n)[1][word] if n <= _MAX_TABLED else _encode(word)


def _word(v: int, n: int) -> str:
    """Word of a vector 0 <= v < 4^n."""
    return _tables(n)[0][v] if n <= _MAX_TABLED else _decode(v, n)


def word_to_point(word: str) -> int:
    """Projective point of a non-identity word."""
    v = _vector(word)
    if v == 0:
        raise IdentityNotAPointError("the identity word is not a projective point")
    return v


def point_to_word(v: int, n_qubits: int) -> str:
    """Word of a nonzero point; inverse of :func:`word_to_point`."""
    if v == 0:
        raise IdentityNotAPointError("the zero vector has no word")
    if v < 0 or v >> (2 * n_qubits):
        raise UsageError(f"point {v} does not fit {n_qubits} qubits")
    try:
        return _TABLES[n_qubits][0][v]
    except KeyError:  # the rank's tables are not built yet, or it has none
        return _word(v, n_qubits)


def word_product(a: str, b: str) -> str:
    """Sign-free product; addition of coordinate pairs letter by letter.

    Two words of one built rank are read from its tables: the product is
    the word of u ^ v.  Otherwise, like :func:`commutes`, it checks a's
    alphabet, b's, then the length, and builds the rank's tables (or, above
    `_MAX_TABLED` letters, encodes the product letter by letter).
    """
    try:
        words, vectors = _TABLES[len(a)]
        return words[vectors[a] ^ vectors[b]]
    except (KeyError, TypeError):  # a miss: validate, then build or encode
        pass
    u, v = _vector(a), _vector(b)
    n = len(a)
    if len(b) != n:
        validate_word(b, n)  # raises the length mismatch
    return _word(u ^ v, n)


def is_symmetric(word: str) -> bool:
    """Whether the word squares to plus identity: even number of Y letters."""
    _vector(word)
    return word.count("Y") % 2 == 0


def point_class(v: int, n_qubits: int) -> tuple[str, str]:
    """(word, class) of a nonzero point, the class "symmetric" or "skew"
    read off the word by :func:`is_symmetric`.

    A codec word that fails validation here is a failed check, not a
    usage error, as the codec gave it; the error names the point by its
    letter-by-letter word.
    """
    word = point_to_word(v, n_qubits)
    try:
        return word, "symmetric" if is_symmetric(word) else "skew"
    except UsageError:
        raise InternalConsistencyError(f"codec word {word!r} of point"
                                       f" {_decode(v, n_qubits)} is not a Pauli word") from None


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
    """Whether two words commute: sigma of their points vanishes.

    sigma is the parity of one popcount: (u >> n) & v and (v >> n) & u
    hold only the low n bits, and the parities of two masks add as their
    xor's.
    """
    try:
        vectors = _TABLES[len(a)][1]
        u, v = vectors[a], vectors[b]
    except (KeyError, TypeError):  # a miss: validate as `word_product` does
        u, v = _vector(a), _vector(b)
        if len(b) != len(a):
            validate_word(b, len(a))  # raises the length mismatch
    n = len(a)
    return not (u >> n & v ^ v >> n & u).bit_count() & 1


def words_to_points(words) -> tuple[int, ...]:
    return tuple(word_to_point(w) for w in words)


def join_words(points, n_qubits: int = 4) -> str:
    """Points as comma-separated Pauli words: listings and error messages."""
    return ",".join(point_to_word(p, n_qubits) for p in points)
