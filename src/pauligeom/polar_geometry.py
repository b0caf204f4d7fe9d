"""Enumeration engine for the binary polar spaces behind the Pauli groups.

Everything here is exact and exhaustively certified: closed-form counts
double-check every enumeration, and constructed objects (ovoids, tetrads,
section structures) are confirmed against their defining incidence
property rather than trusted from the construction that produced them.

Point sets are bitmask ints over point values, so intersection sizes and
membership tests are single machine-word style operations even for the
full 255-point space.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache

from . import gf2_core
from .errors import InternalConsistencyError, UsageError
from .gf2_core import echelon, span_points
from .pauli_codec import GeometryContext, join_words, point_to_word, words_to_points

# The distinguished ovoid: in the product-of-pairs frame it is the eight
# basis vectors plus the all-ones vector; the split frame and the word
# form are its image under the coordinate change and the letter code.
EDGE_OVOID_Y = (128, 64, 32, 16, 8, 4, 2, 1, 255)
OSTAR_WORDS = ("ZIIX", "IZYY", "XZXI", "ZXZZ", "XIZI", "ZZIZ", "IXXZ", "YYZX", "XXXX")


def _points_mask(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _mask_points(mask: int) -> list[int]:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return out


def _transpose(masks) -> dict[int, int]:
    """The per-point index: per point, the mask of the indices i whose masks[i] hold it."""
    through: dict[int, int] = {}
    for i, m in enumerate(masks):
        bit = 1 << i
        for p in _mask_points(m):
            through[p] = through.get(p, 0) | bit
    return through


def _sorted3(a: int, b: int, c: int) -> tuple[int, int, int]:
    return tuple(sorted((a, b, c)))


def expected_count(kind: str, measure: str, n: int) -> int:
    """Closed-form point/generator counts for quadrics and symplectic spaces.

    `n` is the rank: the space lives in PG(2n-1, 2), except for the
    parabolic quadric which lives in PG(2n, 2).
    """
    if measure not in ("points", "generators"):
        raise UsageError(f"unknown measure {measure!r}")
    if n < 1 or (measure == "generators" and n < 2):
        raise UsageError(f"rank {n} out of range for {measure}")

    def prod(lo, hi):
        out = 1
        for i in range(lo, hi + 1):
            out *= 2**i + 1
        return out

    if kind in ("symplectic", "parabolic"):
        return 2 ** (2 * n) - 1 if measure == "points" else prod(1, n)
    if kind == "hyperbolic":
        if measure == "points":
            return (2 ** (n - 1) + 1) * (2**n - 1)
        return 2 * prod(1, n - 1)
    if kind == "elliptic":
        if measure == "points":
            return (2 ** (n - 1) - 1) * (2**n + 1)
        return prod(2, n)
    raise UsageError(f"unknown kind {kind!r}")


class Quadric:
    """A quadric as an explicit point set with a membership bitmask, and
    the points off it."""

    __slots__ = ("context", "points", "mask", "off_points")

    def __init__(self, context: GeometryContext, points: tuple[int, ...], mask: int,
                 off_points: tuple[int, ...]):
        self.context = context
        self.points = points
        self.mask = mask
        self.off_points = off_points

    def contains(self, v: int) -> bool:
        return bool(self.mask >> v & 1)


@cache
def standard_quadric(n_qubits: int) -> Quadric:
    """The standard hyperbolic quadric {v : Q(v) = 0} of N qubits, one per rank."""
    ctx = GeometryContext(n_qubits)
    pts = tuple(v for v in ctx.points() if ctx.quadratic(v) == 0)
    mask = _points_mask(pts)
    return Quadric(ctx, pts, mask, tuple(v for v in ctx.points() if not mask >> v & 1))


class GeneratorSet:
    """All maximal totally isotropic/singular flats of one space.

    Generator i is `bases[i]`, its reduced row-echelon basis, and
    `masks[i]`, the int mask of its points.  A quadric generator set also
    carries the transposed incidence (`_transpose`): per quadric point,
    the int mask of the indices of the generators through it.
    """

    __slots__ = ("context", "bases", "masks", "families", "quadric", "generators_through")

    def __init__(self, context: GeometryContext, bases: tuple[tuple[int, ...], ...],
                 masks: tuple[int, ...], families: tuple[int, ...] | None = None,
                 quadric: Quadric | None = None):
        self.context = context
        self.bases = bases
        self.masks = masks
        self.families = families
        self.quadric = quadric
        self.generators_through = _transpose(masks) if quadric is not None else {}

    def __len__(self) -> int:
        return len(self.masks)

    def family_sizes(self) -> tuple[int, int]:
        if self.families is None:
            raise UsageError("only quadric generators carry families")
        return self.families.count(0), self.families.count(1)


@cache
def _perp_masks(ctx: GeometryContext) -> dict[int, int]:
    """`ctx.perp_mask` of every point; only the unit vectors compute it.

    sigma is bilinear, so the non-perp masks add: with `low` the lowest
    bit of p, nonperp(p) = nonperp(p ^ low) ^ nonperp(low).
    """
    every = (1 << (1 << ctx.dim)) - 2
    perp: dict[int, int] = {}
    for p in ctx.points():
        low = p & -p
        perp[p] = ctx.perp_mask(p) if p == low else perp[p ^ low] ^ perp[low] ^ every
    return perp


@cache
def _column_bands(dim: int) -> tuple[int, ...]:
    """Per column c, the mask of the points whose top bit is c."""
    return tuple((1 << (2 << c)) - (1 << (1 << c)) for c in range(dim))


@cache
def _xor_tables(dim: int) -> tuple[bytes, ...]:
    """Per point p, the `bytes.translate` table sending v to v ^ p.

    Built by doubling: the tables of the points below 2^(c+1) are those
    below 2^c, each followed by the unit table of column c.
    """
    tables = [bytes(range(256))]
    for c in range(dim):
        unit = bytes(v ^ 1 << c for v in range(256))
        tables += [t.translate(unit) for t in tables]
    return tuple(tables)


def enumerate_generators(ctx: GeometryContext, space_kind: str) -> GeneratorSet:
    """All generators of W(2N-1,2) or of the standard hyperbolic quadric.

    Orderly generation on reduced row-echelon bases: a flat is held as
    its RREF basis (descending pivots) and extended only by a
    perpendicular ground point p whose top bit c lies below the lowest
    pivot and is a zero column of every row.  The extended basis is then
    again in RREF, and its parent is the span of all but its last row,
    so every totally isotropic (resp. singular) flat is built exactly
    once and needs no deduplication or re-echelonisation.  Candidates are
    read from per-column point bands.  A flat's points are held as bytes:
    adding p appends p and the old points translated by `v -> v ^ p`, and
    the int masks are formed once, at the last level.  Three certificates
    close it: the point-set masks are pairwise distinct, the count equals
    the closed form, and in the quadric case the two families are equal
    halves.
    """
    if space_kind not in ("symplectic", "quadric"):
        raise UsageError(f"unknown space kind {space_kind!r}")
    n = ctx.n_qubits
    perp = _perp_masks(ctx)
    bands = _column_bands(ctx.dim)
    quadric = standard_quadric(n) if space_kind == "quadric" else None
    if quadric is not None:
        ground = quadric.points
        ground_mask = quadric.mask
    else:
        ground = tuple(ctx.points())
        ground_mask = _points_mask(ground)

    # level entries: (RREF basis, its points as bytes, perp mask, OR of the rows)
    xor = _xor_tables(ctx.dim)
    level = [((p,), bytes((p,)), perp[p], p) for p in ground]
    for _ in range(n - 1):
        nxt = []
        for basis, pts, perpmask, rows in level:
            free = ~rows & ((1 << (basis[-1].bit_length() - 1)) - 1)
            allowed = 0
            while free:
                c = free.bit_length() - 1
                free ^= 1 << c
                allowed |= bands[c]
            cand = perpmask & ground_mask & allowed
            while cand:
                bit = cand & -cand
                cand ^= bit
                p = bit.bit_length() - 1
                nxt.append((basis + (p,), pts + bytes((p,)) + pts.translate(xor[p]),
                            perpmask & perp[p], rows | p))
        level = nxt

    level.sort()
    bases = tuple(basis for basis, _, _, _ in level)
    masks = tuple(_points_mask(pts) for _, pts, _, _ in level)
    if len(set(masks)) != len(masks):
        twice = next(m for m, k in Counter(masks).items() if k > 1)
        raise InternalConsistencyError(
            f"{space_kind} generator {join_words(bases[masks.index(twice)], n)} is built twice")
    expected = expected_count(
        "hyperbolic" if space_kind == "quadric" else "symplectic", "generators", n
    )
    if len(masks) != expected:
        raise InternalConsistencyError(
            f"{space_kind} generator count {len(masks)} != {expected}"
        )

    families = None
    if space_kind == "quadric":
        families = tuple(_family_of(masks[0], m, n) for m in masks)
        if families.count(0) != families.count(1):
            raise InternalConsistencyError(
                f"generator families are not equal halves: {families.count(0)} and"
                f" {families.count(1)} against generator {join_words(bases[0], n)}")
    return GeneratorSet(ctx, bases, masks, families, quadric)


def _family_of(ref: int, g: int, n: int) -> int:
    # Two generators lie in the same family iff the linear dimension k of
    # their intersection has the parity of n (regulus behaviour at n=2).
    # Their point masks share the 2^k - 1 points of that intersection.
    k = ((ref & g).bit_count() + 1).bit_length() - 1
    return (k - n) % 2


class Ovoid:
    """Nine quadric points meeting every generator exactly once.

    Two ovoids are equal when their point masks are.
    """

    __slots__ = ("points", "mask")

    def __init__(self, points: tuple[int, ...], mask: int):
        self.points = points
        self.mask = mask

    def __eq__(self, other) -> bool:
        return type(other) is Ovoid and other.mask == self.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    @classmethod
    def from_points(cls, points) -> "Ovoid":
        pts = tuple(sorted(points))
        return cls(pts, _points_mask(pts))

    def __contains__(self, v: int) -> bool:
        return bool(self.mask >> v & 1)

    def distinct_points(self, points, k: int) -> tuple[int, ...]:
        """`points` sorted, if they are `k` distinct points of this ovoid."""
        t = tuple(sorted(points))
        if len(t) != k or len(set(t)) != k or any(p not in self for p in t):
            raise UsageError(f"need {k} distinct points of the ovoid")
        return t

    def complement_in(self, subset) -> tuple[int, ...]:
        chosen = set(subset)
        return tuple(p for p in self.points if p not in chosen)


class OvoidSet(tuple):
    """A tuple of ovoids that carries `through`, the `_transpose` of their
    masks: per point, the int mask of the indices of the ovoids on it.
    A slice is an `OvoidSet` too."""

    def __init__(self, ovoids):
        self.through = _transpose([o.mask for o in self])

    def __getitem__(self, i):
        if type(i) is slice:
            return OvoidSet(tuple.__getitem__(self, i))
        return tuple.__getitem__(self, i)


def ostar() -> Ovoid:
    return Ovoid.from_points(words_to_points(OSTAR_WORDS))


def is_ovoid(points, gens: GeneratorSet) -> bool:
    """Defining test: nine quadric points, one on each quadric generator.

    Read through the transposed incidence: the nine points' masks of
    generators through them are pairwise disjoint (no generator holds
    two of the points) and together cover every generator.
    """
    if gens.quadric is None:
        raise UsageError("is_ovoid needs quadric generators")
    pts = set(points)
    for p in pts:
        if not gens.quadric.contains(p):
            word = point_to_word(p, gens.context.n_qubits)
            raise UsageError(f"point {word} is not on the quadric")
    if len(pts) != 9:
        return False
    through = gens.generators_through
    covered = 0
    for p in pts:
        if covered & through[p]:
            return False
        covered |= through[p]
    return covered == (1 << len(gens.masks)) - 1


def _nonperp_adjacency(ctx: GeometryContext, points: tuple[int, ...]):
    """Index-space masks of strictly-greater neighbours with sigma = 1.

    Read off the perp masks: sigma(p, q) = 1 iff bit q of p's perp mask is clear.
    """
    perp = _perp_masks(ctx)
    adj = []
    for i, p in enumerate(points):
        row, mask = 0, perp[p]
        for j in range(i + 1, len(points)):
            if not mask >> points[j] & 1:
                row |= 1 << j
        adj.append(row)
    return adj


def _cliques(adj_gt: list[int], size: int, roots) -> list[tuple[int, ...]]:
    """All `size`-cliques (as ascending index tuples) rooted at `roots`."""
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def rec(cand: int):
        if len(stack) == size:
            out.append(tuple(stack))
            return
        need = size - len(stack)
        while cand:
            if cand.bit_count() < need:
                return
            bit = cand & -cand
            cand ^= bit
            i = bit.bit_length() - 1
            stack.append(i)
            rec(cand & adj_gt[i])
            stack.pop()

    for r in roots:
        stack[:] = [r]
        rec(adj_gt[r])
    return out


def enumerate_ovoids(quadric: Quadric, gens: GeneratorSet) -> OvoidSet:
    """All ovoids of the hyperbolic quadric in PG(7,2), canonically sorted.

    Search: exact cover of the 270 generators by quadric points, straight
    from the definition.  Each step branches on the points of the lowest
    generator not yet covered that share no generator with a point
    already chosen (per point, its clash mask is the union of the
    generators through it), and a search that covers every generator has
    found an ovoid.  An ovoid holds exactly one point of that lowest
    generator, so the search reaches every ovoid exactly once.  Every
    result is still confirmed by :func:`is_ovoid` before it is returned.
    """
    ctx = quadric.context
    if ctx.n_qubits != 4:
        raise UsageError("ovoid enumeration targets the rank-4 hyperbolic quadric")
    masks, through = gens.masks, gens.generators_through
    clash = {}
    for p in quadric.points:
        m = 0
        for g in _mask_points(through[p]):
            m |= masks[g]
        clash[p] = m
    every = (1 << len(masks)) - 1
    found: list[int] = []

    def cover(chosen: int, covered: int, blocked: int):
        if covered == every:
            found.append(chosen)
            return
        cand = masks[(~covered & (covered + 1)).bit_length() - 1] & ~blocked
        while cand:
            bit = cand & -cand
            cand ^= bit
            p = bit.bit_length() - 1
            cover(chosen | bit, covered | through[p], blocked | clash[p])

    cover(0, 0, 0)
    ovoids = OvoidSet(Ovoid(pts, m) for pts, m in sorted(
        (tuple(_mask_points(m)), m) for m in found))
    for o in ovoids:
        if not is_ovoid(o.points, gens):
            raise InternalConsistencyError(
                f"clique {join_words(o.points, ctx.n_qubits)} fails the ovoid test")
    return ovoids


@cache
def get_generators(ctx: GeometryContext, space_kind: str) -> GeneratorSet:
    """Process-wide cached generator sets (immutable, shared freely)."""
    return enumerate_generators(ctx, space_kind)


@cache
def get_ovoids(ctx: GeometryContext) -> OvoidSet:
    gens = get_generators(ctx, "quadric")
    return enumerate_ovoids(gens.quadric, gens)


def ovoids_through(ovoids: OvoidSet, p: int) -> tuple[Ovoid, ...]:
    """The ovoids on point `p`, in their order in `ovoids`, read off its index."""
    get = super(OvoidSet, ovoids).__getitem__  # tuple's own lookup, in C
    return tuple(map(get, _mask_points(ovoids.through.get(p, 0))))


def secant_third_points(o: Ovoid) -> frozenset[int]:
    """Third points of the 36 secant lines; all off the quadric."""
    thirds = {a ^ b for a, b in itertools.combinations(o.points, 2)}
    if len(thirds) != 36:
        raise InternalConsistencyError(
            f"secant third points are not distinct: ovoid {join_words(o.points)}")
    return frozenset(thirds)


def _partition_patterns() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    # Partitions of indices 0..8 into three triples, canonically ordered:
    # index 0 leads the first triple, the smallest leftover the second.
    out = []
    rest0 = list(range(1, 9))
    for pair0 in itertools.combinations(rest0, 2):
        t0 = (0,) + pair0
        rest1 = [i for i in rest0 if i not in pair0]
        for pair1 in itertools.combinations(rest1[1:], 2):
            t1 = (rest1[0],) + pair1
            t2 = tuple(i for i in rest1 if i not in t1)
            out.append((t0, t1, t2))
    return tuple(out)


PARTITION_PATTERNS = _partition_patterns()


def triple_partitions(o: Ovoid):
    """The 280 partitions of an ovoid into three point triples."""
    pts = o.points
    return tuple(
        tuple(tuple(pts[i] for i in tri) for tri in pat)
        for pat in PARTITION_PATTERNS
    )


def axis_of_partition(o: Ovoid, partition) -> frozenset[int]:
    """The off-quadric line carrying the three nuclei of a partition."""
    flat = [p for t in partition for p in t]
    if sorted(flat) != list(o.points):
        raise UsageError("partition must cover the ovoid by disjoint triples")
    nuclei = [t[0] ^ t[1] ^ t[2] for t in partition]
    if len(set(nuclei)) != 3 or nuclei[0] ^ nuclei[1] ^ nuclei[2] != 0:
        raise InternalConsistencyError(
            f"partition nuclei are not a line: {join_words(nuclei)}")
    if any(map(standard_quadric(4).contains, nuclei)):
        raise InternalConsistencyError(f"axis touches the quadric: {join_words(nuclei)}")
    return frozenset(nuclei)


class Tetrad:
    """Four pairwise disjoint off-quadric lines spanning the whole space.

    The key is the int mask of the 12 points; the lines, sorted tuples of
    sorted points, are rendered from it only for output, once.
    """

    __slots__ = ("mask", "_lines")

    def __init__(self, mask: int):
        self.mask = mask
        self._lines = None

    def __eq__(self, other) -> bool:
        return type(other) is Tetrad and other.mask == self.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    @property
    def lines(self) -> tuple[tuple[int, int, int], ...]:
        if self._lines is None:
            self._lines = tuple(_line_partition(self.mask))
        return self._lines


# Each of the 84 point triples of an ovoid, by index, and every partition
# pattern as three positions in that list.
_TRIPLES = tuple(itertools.combinations(range(9), 3))
_PATTERN_TRIPLES = tuple(
    tuple(_TRIPLES.index(t) for t in pat) for pat in PARTITION_PATTERNS
)


def _conic_masks(pts) -> list[int]:
    """Per triple of `_TRIPLES`, the mask of the conic's external line
    {a^b, a^c, b^c} and nucleus a^b^c; a partition's tetrad is the union
    of its three conics' masks."""
    return [
        1 << (a ^ b) | 1 << (a ^ c) | 1 << (b ^ c) | 1 << (a ^ b ^ c)
        for a, b, c in itertools.combinations(pts, 3)
    ]


def _mask_lines(mask: int) -> list[tuple[int, int, int]]:
    """The full lines inside a point mask, as ascending sorted triples."""
    pts = _mask_points(mask)
    return [(u, v, u ^ v) for i, u in enumerate(pts) for v in pts[i + 1:]
            if u ^ v > v and mask >> (u ^ v) & 1]


def _line_partition(mask: int) -> list[tuple[int, int, int]]:
    """Split a point mask into disjoint full lines, as ascending triples.

    Greedy: the lowest point left goes with its lowest partner whose sum
    is also left, and that line is removed.  Returns [] as soon as some
    point has no partner.  On a set that holds exactly its partition's
    lines (a tetrad) this lists the same lines in the same order as
    `_mask_lines`.
    """
    lines = []
    while mask:
        low = mask & -mask
        u = low.bit_length() - 1
        rest = scan = mask ^ low
        while scan:
            bit = scan & -scan
            v = bit.bit_length() - 1
            if rest >> (u ^ v) & 1:
                break
            scan ^= bit
        else:
            return []
        lines.append((u, v, u ^ v))
        mask = rest ^ bit ^ 1 << (u ^ v)
    return lines


def _certify_tetrad(mask: int, qmask: int) -> None:
    """Twelve off-quadric points that are four skew lines spanning PG(7, 2).

    The points must split into four disjoint lines (`_line_partition`)
    whose eight generators, two per line, have rank 8.  Then the space is
    the direct sum of the four lines, and the set holds no fifth line: a
    line through points of two different summands has its third point in
    their sum, which meets neither summand nor the other two.
    """
    lines = _line_partition(mask)
    if mask.bit_count() != 12 or mask & qmask or len(lines) != 4:
        raise InternalConsistencyError(
            f"tetrad is not four skew off-quadric lines: {join_words(_mask_points(mask))}")
    if gf2_core.rank([p for u, v, _ in lines for p in (u, v)]) != 8:
        raise InternalConsistencyError(
            f"tetrad does not span the whole space: {';'.join(map(join_words, lines))}")


def tetrad_of_partition(o: Ovoid, partition, quadric: Quadric) -> Tetrad:
    """Axis plus the three in-plane external lines of a partition."""
    axis_of_partition(o, partition)
    masks = _conic_masks(o.points)
    x, y, z = (_TRIPLES.index(tuple(sorted(map(o.points.index, t)))) for t in partition)
    tetrad = Tetrad(masks[x] | masks[y] | masks[z])
    _certify_tetrad(tetrad.mask, quadric.mask)
    return tetrad


def tetrad_census(ovoids) -> Counter:
    """Deduplicated tetrads over every (ovoid, partition) pair.

    Returns a counter keyed by the tetrad's 12-point mask (as
    `Tetrad.mask`) whose values are raw multiplicities; the sum of
    the values is 280 times the number of ovoids.  Every tetrad is
    checked to be twelve off-quadric points, and each distinct key is
    then certified once.  Both depend on the key alone, so each runs once
    per distinct key; keys iterate in order of first occurrence, so the
    first bad key is that of the first bad (ovoid, partition) pair.
    """
    ovoids = tuple(ovoids)
    qmask = standard_quadric(4).mask
    counts: Counter = Counter()
    for o in ovoids:
        masks = _conic_masks(o.points)
        counts.update([masks[x] | masks[y] | masks[z] for x, y, z in _PATTERN_TRIPLES])
    for key in counts:
        if key & qmask or key.bit_count() != 12:
            raise _tetrad_fault(ovoids, key, qmask)
    for key in counts:
        _certify_tetrad(key, qmask)
    return counts


def _tetrad_fault(ovoids, key: int, qmask: int) -> InternalConsistencyError:
    """Name, in words, the first ovoid and partition whose tetrad is `key`."""
    what = "tetrad point on quadric" if key & qmask else "tetrad lines overlap"
    for o in ovoids:  # `key` came from these ovoids, so the scan finds it
        masks = _conic_masks(o.points)
        for triples in _PATTERN_TRIPLES:
            x, y, z = triples
            if masks[x] | masks[y] | masks[z] == key:
                pts = o.points
                part = "/".join(join_words(pts[i] for i in _TRIPLES[t]) for t in triples)
                return InternalConsistencyError(
                    f"{what}: ovoid {join_words(pts)} partition {part}")


def pairwise_intersection_sizes(ovoids: OvoidSet) -> Counter:
    """Distribution of |A ∩ B| over all unordered pairs of ovoids.

    Bit-sliced over the pairs, reading the set's index: `ovoids.through[p]`
    is the mask of the indices of the ovoids on point p (a repeated ovoid
    sets one bit per copy).  For ovoid i, the masks of its points, shifted
    so that bit j stands for ovoid i + 1 + j, are added into counters held
    as bit planes (plane b holds bit b of every counter).  Splitting the
    positions plane by plane into the masks of equal low bits, and then
    one popcount per size k, counts every pair (i, j) with i < j once.
    """
    points = [o.points for o in ovoids]
    through = ovoids.through
    width = max(map(len, points), default=0).bit_length()
    counts: Counter = Counter()
    for i, pts in enumerate(points[:-1]):
        planes = [0] * width
        for p in pts:
            carry = through[p] >> (i + 1)
            for b, plane in enumerate(planes):
                planes[b], carry = plane ^ carry, plane & carry
                if not carry:
                    break
        sizes = {0: (1 << (len(points) - i - 1)) - 1}
        for b, plane in enumerate(planes):
            split = {}
            for k, m in sizes.items():
                if low := m & ~plane:
                    split[k] = low
                if high := m & plane:
                    split[k | 1 << b] = high
            sizes = split
        for k, m in sizes.items():
            counts[k] += m.bit_count()
    return counts


def second_ovoid_on_conic(o: Ovoid, triple, gens: GeneratorSet) -> Ovoid:
    """The unique other ovoid through a conic of `o`.

    Constructed by reflecting the six remaining points through the
    nucleus (the pairing lines of the two ovoids concur there), then
    certified against every generator.
    """
    t = o.distinct_points(triple, 3)
    nucleus = t[0] ^ t[1] ^ t[2]
    other = Ovoid.from_points(t + tuple(nucleus ^ u for u in o.complement_in(t)))

    def fault(what: str) -> InternalConsistencyError:
        return InternalConsistencyError(
            f"{what}: ovoid {join_words(o.points)} conic {join_words(t)}")

    if not is_ovoid(other.points, gens):
        raise fault(f"nucleus pairing {join_words(other.points)} is not an ovoid")
    if (o.mask & other.mask).bit_count() != 3:
        raise fault(f"second ovoid {join_words(other.points)} does not meet in the conic")
    return other


class SixOvoidFamily:
    """Six ovoids on one axis: 27 points, partitioned into triads twice."""

    __slots__ = ("axis", "triad_with_base", "triad_other", "points")

    def __init__(self, axis: frozenset[int], triad_with_base: tuple[Ovoid, Ovoid, Ovoid],
                 triad_other: tuple[Ovoid, Ovoid, Ovoid], points: frozenset[int]):
        self.axis = axis
        self.triad_with_base = triad_with_base
        self.triad_other = triad_other
        self.points = points

    def all_ovoids(self) -> tuple[Ovoid, ...]:
        return self.triad_with_base + self.triad_other


def six_ovoid_family(o: Ovoid, partition, gens: GeneratorSet) -> SixOvoidFamily:
    """Both triads of disjoint ovoids determined by one partition of `o`."""
    t1, t2, t3 = [tuple(sorted(t)) for t in partition]
    axis = axis_of_partition(o, (t1, t2, t3))

    def fault(what: str) -> InternalConsistencyError:
        part = "/".join(join_words(t) for t in (t1, t2, t3))
        return InternalConsistencyError(f"{what}: ovoid {join_words(o.points)} partition {part}")

    n1, n2, n3 = (t[0] ^ t[1] ^ t[2] for t in (t1, t2, t3))
    others = tuple(second_ovoid_on_conic(o, t, gens) for t in (t1, t2, t3))

    def shifted(nucleus, triple):
        return tuple(nucleus ^ p for p in triple)

    # The 18 points off `o` regroup into two more ovoids along the two
    # cyclic pairings of nuclei with opposite triples.
    a = Ovoid.from_points(shifted(n1, t2) + shifted(n2, t3) + shifted(n3, t1))
    b = Ovoid.from_points(shifted(n1, t3) + shifted(n2, t1) + shifted(n3, t2))
    for cand in (a, b):
        if not is_ovoid(cand.points, gens):
            raise fault(f"triad completion {join_words(cand.points)} is not an ovoid")
    union_other = others[0].mask | others[1].mask | others[2].mask
    union_base = o.mask | a.mask | b.mask
    if union_other != union_base or union_other.bit_count() != 27:
        raise fault("triads do not share the same 27 points")
    for x, y in itertools.combinations((o, a, b), 2):
        if x.mask & y.mask:
            raise fault("base triad is not disjoint")
    for x, y in itertools.combinations(others, 2):
        if x.mask & y.mask:
            raise fault("other triad is not disjoint")
    for x in (o, a, b):
        for y in others:
            if (x.mask & y.mask).bit_count() != 3:
                raise fault("cross-triad overlap is not a conic")
    pts = frozenset(p for ov in (o, a, b) for p in ov.points)
    return SixOvoidFamily(axis, (o, a, b), others, pts)


def commutation_profile(word_point: int, family) -> tuple[int, ...]:
    """Per-ovoid counts of elements commuting with the given point."""
    perp = _perp_masks(standard_quadric(4).context)[word_point]
    return tuple((perp & ov.mask).bit_count() for ov in family)


def solid_extra_point(o: Ovoid, quad) -> int:
    """The unique fifth quadric point in the solid of four ovoid points."""
    q = o.distinct_points(quad, 4)
    qmask = standard_quadric(4).mask
    span = [0]
    for b in q:
        span += [p ^ b for p in span]
    on = sorted({p for p in span if qmask >> p & 1})  # a set: dependent points repeat
    extra = [p for p in on if p not in q]
    if len(on) != 5 or len(extra) != 1:
        raise InternalConsistencyError(f"solid section is not five points: {join_words(q)}"
                                       f" meet the quadric in {join_words(on)}")
    for u, v in itertools.combinations(on, 2):
        if qmask >> (u ^ v) & 1:
            raise InternalConsistencyError(
                f"solid section carries a quadric line: {join_words((u, v, u ^ v))}")
    return extra[0]


def rest_splits(o: Ovoid, p: int):
    """The 35 unordered 4+4 splits of the eight points off `p`."""
    if p not in o:
        raise UsageError("split point must lie on the ovoid")
    rest = o.complement_in((p,))
    head, tail = rest[0], rest[1:]
    out = []
    for combo in itertools.combinations(tail, 3):
        s1 = tuple(sorted((head,) + combo))
        s2 = tuple(q for q in rest if q not in s1)
        out.append((s1, s2))
    return tuple(out)


def point_partition_line(o: Ovoid, p: int, split, gens: GeneratorSet):
    """Line through `p` carried by a 4+4 split, plus the one-point mate.

    The two solids of the split meet the quadric in one extra point each;
    those extras are collinear with `p`, and reflecting each half through
    the opposite extra rebuilds the unique second ovoid meeting `o` in
    `p` alone.
    """
    s1, s2 = split
    if set(s1) | set(s2) | {p} != set(o.points) or len(s1) != 4 or len(s2) != 4:
        raise UsageError("split must partition the other eight points into fours")

    def fault(what: str) -> InternalConsistencyError:
        return InternalConsistencyError(
            f"{what}: point {join_words((p,))} split {join_words(s1)}/{join_words(s2)}")

    e1 = solid_extra_point(o, s1)
    e2 = solid_extra_point(o, s2)
    if e1 ^ e2 != p:
        raise fault(f"solid extras {join_words((e1, e2))} are not collinear with the point")
    line = frozenset((p, e1, e2))
    mate = Ovoid.from_points(
        (p,) + tuple(e1 ^ u for u in s2) + tuple(e2 ^ v for v in s1)
    )
    if not is_ovoid(mate.points, gens):
        raise fault(f"split reflection {join_words(mate.points)} is not an ovoid")
    if (mate.mask & o.mask) != (1 << p):
        raise fault(f"mate {join_words(mate.points)} shares more than the chosen point")
    return line, mate


def ovoid_intersection_census(through, o: Ovoid, p: int) -> tuple[int, int]:
    """(one-point, three-point) counts among the ovoids `through` point `p`
    (as `ovoids_through` lists them) other than `o`."""
    if p not in o:
        raise UsageError("census point must lie on the ovoid")
    one = three = 0
    for other in through:
        if other == o:
            continue
        size = (other.mask & o.mask).bit_count()
        if size == 1:
            one += 1
        elif size == 3:
            three += 1
        else:
            raise InternalConsistencyError(
                f"intersection of size {size} through point {join_words((p,))}: "
                f"ovoid {join_words(o.points)} and ovoid {join_words(other.points)}")
    return one, three


class PentadCone:
    """Five concurrent quadric lines: section of the span of five points."""

    __slots__ = ("vertex", "lines", "points")

    def __init__(self, vertex: int, lines: tuple[tuple[int, int, int], ...],
                 points: tuple[int, ...]):
        self.vertex = vertex
        self.lines = lines
        self.points = points


def pentad_intersection(o: Ovoid, pentad, quadric: Quadric) -> PentadCone:
    """Quadric section of the span of five ovoid points: an 11-point cone."""
    pent = o.distinct_points(pentad, 5)

    def fault(what: str) -> InternalConsistencyError:
        return InternalConsistencyError(f"{what}: pentad {join_words(pent)}")

    section = sorted(
        v for v in span_points(pent) if quadric.contains(v)
    )
    vertex = solid_extra_point(o, o.complement_in(pent))
    lines = []
    for p in pent:
        third = vertex ^ p
        if third not in section:
            raise fault(f"cone line {join_words((vertex, p, third))} leaves the section")
        extra = solid_extra_point(o, tuple(q for q in pent if q != p))
        if third != extra:
            raise fault(f"cone line {join_words((vertex, p, third))} misses the quartet"
                        f" extra point {join_words((extra,))}")
        lines.append(_sorted3(vertex, p, third))
    expected = {vertex} | set(pent) | {vertex ^ p for p in pent}
    if len(section) != 11 or set(section) != expected:
        raise fault(f"section {join_words(section)} is not the 11-point cone"
                    f" at {join_words((vertex,))}")
    return PentadCone(vertex, tuple(sorted(lines)), tuple(section))


class SextetSection:
    """Elliptic section over six ovoid points: 27 points and 45 lines."""

    __slots__ = ("points", "lines", "sextet", "mates", "core15", "pairing_nucleus",
                 "pairing_lines")

    def __init__(self, points: tuple[int, ...], lines: tuple[tuple[int, int, int], ...],
                 sextet: tuple[int, ...], mates: tuple[int, ...], core15: tuple[int, ...],
                 pairing_nucleus: int, pairing_lines: tuple[tuple[int, int, int], ...]):
        self.points = points
        self.lines = lines
        self.sextet = sextet
        self.mates = mates
        self.core15 = core15
        self.pairing_nucleus = pairing_nucleus
        self.pairing_lines = pairing_lines


def sextet_intersection(o: Ovoid, sextet, quadric: Quadric) -> SextetSection:
    """Quadric section of the span of six ovoid points.

    The 27 points carry the generalized-quadrangle structure of an
    elliptic quadric in five dimensions: the sextet and its six mates
    form a double six whose pairing lines concur at the nucleus of the
    complementary conic; the remaining 15 points are the concurrence
    points of the cross lines.
    """
    sx = o.distinct_points(sextet, 6)

    def fault(what: str) -> InternalConsistencyError:
        return InternalConsistencyError(f"{what}: sextet {join_words(sx)}")

    rest = o.complement_in(sx)
    nucleus = rest[0] ^ rest[1] ^ rest[2]
    section = sorted(v for v in span_points(sx) if quadric.contains(v))
    if len(section) != expected_count("elliptic", "points", 3):
        raise fault("sextet section is not a 27-point quadric")
    mates = tuple(solid_extra_point(o, (s,) + rest) for s in sx)
    for s, m in zip(sx, mates):
        if s ^ m != nucleus:
            raise fault(f"mate pairing {join_words((s, m))} misses the conic nucleus")
    pairing = tuple(sorted(_sorted3(s, m, nucleus) for s, m in zip(sx, mates)))
    lines = _mask_lines(_points_mask(section))
    if len(lines) != 45:
        raise fault(f"sextet section has {len(lines)} lines")
    degree = Counter(p for line in lines for p in line)
    if set(degree.values()) != {5}:
        raise fault("section points do not have degree 5")
    double_six = set(sx) | set(mates)
    core = tuple(p for p in section if p not in double_six)
    if len(core) != 15:
        raise fault("double six is not 12 distinct points")
    for i, s in enumerate(sx):
        for j, m in enumerate(mates):
            if i != j and (s ^ m) not in core:
                raise fault(f"cross line {join_words((s, m, s ^ m))} leaves the 15-point core")
    _check_generalized_quadrangle(section, lines, 2, 4)
    return SextetSection(tuple(section), tuple(lines), sx, mates, core, nucleus, pairing)


def _check_generalized_quadrangle(points, lines, s: int, t: int):
    """Axiomatic GQ(s, t) check on an explicit incidence structure.

    Lines and collinearity sets are masks over the points' indices.  The
    quadrangle axiom (a point off a line is collinear with exactly one of
    its points) is checked for all points of a line at once, bit-sliced:
    OR-ing the line's points' collinearity masks into `once` and, where
    already set, into `more` leaves `once & ~more` as the points collinear
    with exactly one point of the line.  With the line's own points added,
    that must be every point.  A failure names the lowest failing point
    of the first failing line.
    """
    index = {p: i for i, p in enumerate(points)}
    on_lines = [0] * len(index)
    collinear = [0] * len(index)
    line_masks = []
    for line in lines:
        if len(set(line)) != s + 1:
            raise InternalConsistencyError(f"line size is not s+1: {join_words(line)}")
        m = 0
        for p in line:
            m |= 1 << index[p]
        line_masks.append(m)
        for p in line:
            on_lines[index[p]] += 1
            collinear[index[p]] |= m
    bad = [p for p, d in zip(points, on_lines) if d != t + 1]
    if bad:
        raise InternalConsistencyError(f"point degree is not t+1: {join_words(bad)}")
    full = (1 << len(index)) - 1
    for line, m in zip(lines, line_masks):
        once = more = 0
        for p in set(line):
            near = collinear[index[p]]
            more |= once & near
            once |= near
        bad = full & ~(once & ~more | m)
        if bad:
            i = (bad & -bad).bit_length() - 1
            raise InternalConsistencyError(f"quadrangle axiom fails: point "
                f"{join_words(points[i:i + 1])} off line {join_words(line)}")


class HeptadSection:
    """Parabolic section over seven ovoid points, with its nucleus."""

    __slots__ = ("points", "nucleus")

    def __init__(self, points: tuple[int, ...], nucleus: int):
        self.points = points
        self.nucleus = nucleus


def heptad_intersection(o: Ovoid, heptad, quadric: Quadric) -> HeptadSection:
    """Quadric section of the span of seven ovoid points: 63 points.

    The restricted alternating form degenerates on the hyperplane; its
    radical is the nucleus, which coincides with the third point on the
    line of the two complementary ovoid points.
    """
    hp = o.distinct_points(heptad, 7)

    def fault(what: str) -> InternalConsistencyError:
        return InternalConsistencyError(f"{what}: heptad {join_words(hp)}")

    section = sorted(v for v in span_points(hp) if quadric.contains(v))
    if len(section) != expected_count("parabolic", "points", 3):
        raise fault("heptad section is not a 63-point quadric")
    rad = radical(hp, quadric.context)
    if len(rad) != 1:
        raise fault(f"restricted form has a radical of dimension {len(rad)}")
    nucleus = rad[0]
    pair = o.complement_in(hp)
    if nucleus != pair[0] ^ pair[1]:
        raise fault(f"radical {join_words(rad)} is not the complementary secant point")
    if quadric.contains(nucleus):
        raise fault(f"section nucleus {join_words(rad)} lies on the quadric")
    return HeptadSection(tuple(section), nucleus)


def radical(points, ctx: GeometryContext) -> list[int]:
    """A basis of the radical of sigma restricted to the span of `points`:
    the span's points perpendicular to every one of `points`."""
    masks, perp = _perp_masks(ctx), -1
    for p in points:
        perp &= masks[p]
    return list(echelon(v for v in span_points(points) if perp >> v & 1))


def conwell_heptads(ctx: GeometryContext):
    """Maximal exterior sets of the rank-3 hyperbolic quadric.

    Seven external points whose 21 connecting lines all miss the quadric;
    found as 7-cliques of the "joining line misses the quadric" graph on
    the 28 external points.  For skew u and v, Q(u + v) = sigma(u, v), so
    that graph is the sigma = 1 graph on those points (`_nonperp_adjacency`).
    """
    if ctx.n_qubits != 3:
        raise UsageError("Conwell heptads live off the rank-3 quadric")
    quadric = standard_quadric(3)
    off = quadric.off_points
    cliques = _cliques(_nonperp_adjacency(ctx, off), 7, range(len(off)))
    heptads = tuple(frozenset(off[i] for i in c) for c in cliques)
    for h in heptads:
        for u, v in itertools.combinations(sorted(h), 2):
            if quadric.contains(u ^ v):
                raise InternalConsistencyError(
                    f"heptad line {join_words((u, v, u ^ v), 3)} touches the quadric:"
                    f" heptad {join_words(sorted(h), 3)}")
    return heptads
