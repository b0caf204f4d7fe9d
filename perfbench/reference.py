"""Independent reference for the benchmark's inputs and output checks.

Nothing here imports pauligeom.  It restates the published conventions
(the letter code I=(0,0), X=(0,1), Y=(1,1), Z=(1,0) with the first letter
in the highest coordinates, the alternating form sigma and the quadratic
form Q) and rebuilds from them the objects the workloads draw inputs
from and the checks compare against: the 135 quadric points, the 270
quadric generators and the 960 ovoids of the rank-4 hyperbolic quadric.
"""

from __future__ import annotations

import itertools
from functools import cached_property

_PAIR = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}
_LETTER = {v: k for k, v in _PAIR.items()}


def word_to_point(word: str) -> int:
    n = len(word)
    hi = lo = 0
    for c in word:
        a, b = _PAIR[c]
        hi = (hi << 1) | a
        lo = (lo << 1) | b
    return (hi << n) | lo


def point_to_word(v: int, n: int = 4) -> str:
    hi, lo = v >> n, v & ((1 << n) - 1)
    return "".join(_LETTER[(hi >> i) & 1, (lo >> i) & 1] for i in range(n - 1, -1, -1))


def coords(v: int, n: int = 4) -> str:
    return format(v, f"0{2 * n}b")


def sigma(u: int, v: int, n: int = 4) -> int:
    m = (1 << n) - 1
    return (((u >> n) & v & m).bit_count() + ((v >> n) & u & m).bit_count()) & 1


def quadratic(v: int, n: int = 4) -> int:
    return ((v >> n) & v & ((1 << n) - 1)).bit_count() & 1


def perp_mask(p: int, n: int = 4) -> int:
    """Mask of the points v with sigma(p, v) = 0."""
    return sum(1 << v for v in range(1, 1 << 2 * n) if not sigma(p, v, n))


def is_symmetric(word: str) -> bool:
    return word.count("Y") % 2 == 0


def generator_count(space: str, n: int) -> int:
    """Closed forms: prod_{i<=n}(2^i+1) maximal totally isotropic subspaces
    of W(2n-1,2); 2 prod_{i<n}(2^i+1) generators of Q+(2n-1,2)."""
    top = n if space == "symplectic" else n - 1
    out = 1
    for i in range(1, top + 1):
        out *= 2**i + 1
    return out if space == "symplectic" else 2 * out


def gf2_rank(rows) -> int:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def is_subspace(points) -> bool:
    """Nonzero points of a linear subspace: closed under addition."""
    pts = set(points)
    return 0 not in pts and all(a ^ b in pts for a, b in itertools.combinations(pts, 2))


def triple_partitions(points):
    """The 280 partitions of nine points into three unordered triples."""
    first, rest = points[0], points[1:]
    out = []
    for pair in itertools.combinations(rest, 2):
        t1 = (first, *pair)
        left = [p for p in rest if p not in pair]
        head = left[0]
        for pair2 in itertools.combinations(left[1:], 2):
            t2 = (head, *pair2)
            t3 = tuple(p for p in left[1:] if p not in pair2)
            out.append((t1, t2, t3))
    return out


class Rank4:
    """The rank-4 hyperbolic quadric and its ovoids, built once."""

    n = 4

    @cached_property
    def quadric_points(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, 256) if quadratic(v) == 0)

    @cached_property
    def perp(self) -> tuple[int, ...]:
        """perp[p]: mask of the points v with sigma(p, v) = 0."""
        return tuple(perp_mask(p) for p in range(256))

    @cached_property
    def generator_masks(self) -> tuple[int, ...]:
        """Point masks of the 270 totally singular solids."""
        qmask = sum(1 << p for p in self.quadric_points)
        level = {(1 << p, self.perp[p] & qmask) for p in self.quadric_points}
        for _ in range(3):
            nxt = set()
            for m, room in level:
                cand = room & ~m
                while cand:
                    low = cand & -cand
                    cand ^= low
                    c = low.bit_length() - 1
                    new, rest = m | low, m
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        new |= 1 << ((bit.bit_length() - 1) ^ c)
                    nxt.add((new, room & self.perp[c]))
            level = nxt
        return tuple(sorted(m for m, _ in level))

    @cached_property
    def ovoids(self) -> tuple[tuple[int, ...], ...]:
        """All 960 ovoids as ascending point tuples, in ascending order.

        An ovoid of Q+(7,2) is nine quadric points, pairwise
        non-perpendicular; every one found is also certified to meet each
        generator exactly once."""
        q = self.quadric_points
        adj = [0] * len(q)
        for i, j in itertools.combinations(range(len(q)), 2):
            if sigma(q[i], q[j]):
                adj[i] |= 1 << j
        found = []

        def grow(chosen, cand):
            if len(chosen) == 9:
                found.append(tuple(q[i] for i in chosen))
                return
            while cand and cand.bit_count() >= 9 - len(chosen):
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                grow(chosen + [i], cand & adj[i])

        for i in range(len(q)):
            grow([i], adj[i])
        for o in found:
            m = sum(1 << p for p in o)
            if any((m & g).bit_count() != 1 for g in self.generator_masks):
                raise AssertionError(f"reference clique {o} is not an ovoid")
        if len(found) != 960:
            raise AssertionError(f"reference found {len(found)} ovoids, not 960")
        return tuple(sorted(found))

    def is_ovoid(self, points) -> bool:
        m = 0
        for p in points:
            m |= 1 << p
        return (
            len(set(points)) == 9
            and all(quadratic(p) == 0 for p in points)
            and all((m & g).bit_count() == 1 for g in self.generator_masks)
        )
