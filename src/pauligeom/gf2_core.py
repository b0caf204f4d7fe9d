"""Exact linear and projective algebra over GF(2).

A vector of GF(2)^d is a plain Python int whose bit (d-1) holds the first
printed coordinate x1 and whose bit 0 holds x_d.  Reading a coordinate
tuple (x1, ..., xd) left to right therefore matches reading the integer
MSB to LSB, and the canonical order on projective points is ordinary
integer order.  The zero vector is a valid vector but never a projective
point.

A subspace is held as a basis, read through `rank` and `span_mask`: the
point mask of its nonzero vectors, one canonical key per subspace.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache

from .errors import UsageError


def to_string(v: int, dim: int) -> str:
    """Serialize as a '0'/'1' string in x1..x_dim order, e.g. '01100101'."""
    if v < 0 or v >> dim:
        raise UsageError(f"value {v} does not fit in {dim} coordinates")
    return format(v, f"0{dim}b")


def from_string(s: str) -> int:
    """Parse a '0'/'1' coordinate string (length fixes the dimension)."""
    if not s or any(c not in "01" for c in s):
        raise UsageError(f"not a binary coordinate string: {s!r}")
    return int(s, 2)


def rank(rows: Iterable[int]) -> int:
    """GF(2) rank of a collection of vectors (one pivot per leading bit)."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r and (top := r.bit_length() - 1) in pivots:
            r ^= pivots[top]
        if r:
            pivots[top] = r
    return len(pivots)


def points_mask(points: Iterable[int]) -> int:
    """The point mask of `points`: bit p set for each point p."""
    m = 0
    for p in points:
        m |= 1 << p
    return m


@cache
def xor_tables(dim: int) -> tuple[bytes, ...]:
    """Per vector v of `dim` <= 8 coordinates, the `bytes.translate` table
    sending u to u ^ v.

    Built by doubling: the tables of the vectors below 2^(c+1) are those
    below 2^c, each followed by the unit table of column c.
    """
    tables = [bytes(range(256))]
    for c in range(dim):
        unit = bytes(v ^ 1 << c for v in range(256))
        tables += [t.translate(unit) for t in tables]
    return tuple(tables)


def span_mask(basis: Iterable[int]) -> int:
    """The `points_mask` of the nonzero vectors spanned by `basis` (at most
    8 coordinates): the span doubles as bytes, one `translate` per vector,
    and the repeats of a dependent basis fall away in the mask."""
    xor = xor_tables(8)
    span = b"\0"
    for b in basis:
        span += span.translate(xor[b])
    return points_mask(span) ^ 1


# Coordinate change between the frame where the 8-dimensional hyperbolic
# quadric is the all-products form (sum over i<j of y_i y_j) and the split
# frame x1x5+x2x6+x3x7+x4x8.  Row i lists the 1-based y-indices entering x_i.
_EDGE_ROWS = (
    (1, 4, 6, 8),
    (2, 3, 6, 8),
    (2, 4, 5, 8),
    (2, 4, 6, 7),
    (3, 5, 8),
    (4, 7, 8),
    (2, 3, 7),
    (1, 2, 8),
)

_EDGE_MASKS = tuple(
    sum(1 << (8 - i) for i in row) for row in _EDGE_ROWS
)


def _apply_masks(masks: Sequence[int], v: int) -> int:
    out = 0
    for m in masks:
        out = (out << 1) | ((v & m).bit_count() & 1)
    return out


def _invert_masks(masks: Sequence[int]) -> tuple[int, ...]:
    # Gauss-Jordan on [M | I]; rows are 2d-bit ints with the identity half
    # in the low d bits.
    d = len(masks)
    rows = [(m << d) | (1 << (d - 1 - i)) for i, m in enumerate(masks)]
    for col in range(2 * d - 1, d - 1, -1):
        piv = next(i for i in range(2 * d - 1 - col, d) if (rows[i] >> col) & 1)
        target = 2 * d - 1 - col
        rows[piv], rows[target] = rows[target], rows[piv]
        for i in range(d):
            if i != target and (rows[i] >> col) & 1:
                rows[i] ^= rows[target]
    return tuple(r & ((1 << d) - 1) for r in rows)


_EDGE_INV_MASKS = _invert_masks(_EDGE_MASKS)


def edge_to_standard(y: int) -> int:
    """Map product-of-pairs (y) coordinates to split-frame (x) coordinates."""
    if y < 0 or y >> 8:
        raise UsageError("the coordinate change is defined on 8 coordinates")
    return _apply_masks(_EDGE_MASKS, y)


def standard_to_edge(x: int) -> int:
    """Inverse of :func:`edge_to_standard`."""
    if x < 0 or x >> 8:
        raise UsageError("the coordinate change is defined on 8 coordinates")
    return _apply_masks(_EDGE_INV_MASKS, x)
