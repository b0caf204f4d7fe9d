"""Enumeration engine for the binary polar spaces behind the Pauli groups.

Everything here is exact and exhaustively certified: closed-form counts
double-check every enumeration, and constructed objects (ovoids, tetrads,
section structures) are confirmed against their defining incidence
property rather than trusted from the construction that produced them.

Point sets are bitmask ints over point values, so intersection sizes and
membership tests are single machine-word style operations even for the
full 255-point space.  The hot loops write the points of x outside m as
`x ^ (x & m)`, never `x & ~m`: a negated int is negative, and `&` on a
negative int of hundreds of bits first converts it to two's complement.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, lru_cache, partial

from . import gf2_core
from .errors import InternalConsistencyError, UsageError
from .gf2_core import points_mask, span_mask, xor_tables
from .pauli_codec import GeometryContext, join_words, point_to_word, words_to_points

# The distinguished ovoid: in the product-of-pairs frame it is the eight
# basis vectors plus the all-ones vector; the split frame and the word
# form are its image under the coordinate change and the letter code.
EDGE_OVOID_Y = (128, 64, 32, 16, 8, 4, 2, 1, 255)
OSTAR_WORDS = ("ZIIX", "IZYY", "XZXI", "ZXZZ", "XIZI", "ZZIZ", "IXXZ", "YYZX", "XXXX")


def mask_points(mask: int) -> list[int]:
    """The points whose bits `mask` sets, in ascending order."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return out


def _transpose(point_lists) -> dict[int, int]:
    """The per-point index of numbered point sets: per point, the mask of
    the indices i whose `point_lists[i]` hold it."""
    through: dict[int, int] = {}
    get = through.get
    for i, pts in enumerate(point_lists):
        bit = 1 << i
        for p in pts:
            through[p] = get(p, 0) | bit
    return through


def fault(what: str, **named) -> InternalConsistencyError:
    """The error of a failed certificate: `what`, then each named object
    in four-qubit words, as `what: label words label words ...`.

    A value is a point, a tuple of points, or a tuple of point groups,
    whose words are joined group by group with '/'.
    """
    parts = [f"{what}:"]
    for label, value in named.items():
        if isinstance(value, int):
            words = join_words((value,))
        else:
            value = tuple(value)
            grouped = value and not isinstance(value[0], int)
            words = "/".join(map(join_words, value)) if grouped else join_words(value)
        parts += [label, words]
    return InternalConsistencyError(" ".join(parts))


def nested(fail, certify, *args):
    """`certify(*args)` inside an outer certifier: its failed certificate
    is raised again through `fail`, so that it names the outer object too."""
    try:
        return certify(*args)
    except InternalConsistencyError as exc:
        raise fail(str(exc)) from None


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
    """A quadric as an explicit point set with a membership bitmask, the
    points off it, and `perp`: per point p of its rank, the mask of the
    points v with sigma(p, v) = 0 (`_perp_masks`)."""

    __slots__ = ("context", "points", "mask", "off_points", "perp")

    def __init__(self, context: GeometryContext, points: tuple[int, ...], mask: int,
                 off_points: tuple[int, ...], perp: dict[int, int]):
        self.context = context
        self.points = points
        self.mask = mask
        self.off_points = off_points
        self.perp = perp

    def contains(self, v: int) -> bool:
        return bool(self.mask >> v & 1)


@cache
def standard_quadric(n_qubits: int) -> Quadric:
    """The standard hyperbolic quadric {v : Q(v) = 0} of N qubits, one per
    rank, which holds that rank's perp masks."""
    ctx = GeometryContext(n_qubits)
    pts = tuple(v for v in ctx.points() if ctx.quadratic(v) == 0)
    mask = points_mask(pts)
    return Quadric(ctx, pts, mask, tuple(v for v in ctx.points() if not mask >> v & 1),
                   _perp_masks(ctx))


class GeneratorSet:
    """All maximal totally isotropic/singular flats of one space.

    Generator i is `bases[i]`, its reduced row-echelon basis, and
    `masks[i]`, the int mask of its points.  A quadric generator set also
    carries the transposed incidence, the `_transpose` of the generators'
    point lists (`points`, or read off `masks` if not given): per quadric
    point, the int mask of the indices of the generators through it.
    """

    __slots__ = ("context", "bases", "masks", "families", "quadric", "generators_through")

    def __init__(self, context: GeometryContext, bases: tuple[tuple[int, ...], ...],
                 masks: tuple[int, ...], families: tuple[int, ...] | None = None,
                 quadric: Quadric | None = None, points=None):
        self.context = context
        self.bases = bases
        self.masks = masks
        self.families = families
        self.quadric = quadric
        if quadric is None:
            self.generators_through = {}
        else:
            self.generators_through = _transpose(
                map(mask_points, masks) if points is None else points)

    def __len__(self) -> int:
        return len(self.masks)

    def family_sizes(self) -> tuple[int, int]:
        if self.families is None:
            raise UsageError("only quadric generators carry families")
        return self.families.count(0), self.families.count(1)


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


def _column_bands(dim: int) -> tuple[int, ...]:
    """Per column c, the mask of the points whose top bit is c."""
    return tuple((1 << (2 << c)) - (1 << (1 << c)) for c in range(dim))


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
    adding p appends p and the old points translated by `v -> v ^ p`.
    The search looks one step ahead: a child's candidate mask is computed
    before the child is built, and a child that is no generator and has
    no candidate (about two thirds of them at rank 4) is never built.
    Flats are extended depth first, so only the current path of at most
    N flats is held besides the generators found, each kept as its basis
    and int mask; they are found in sorted order of basis.  Three
    certificates close it: the point-set masks are pairwise distinct, the
    count equals the closed form, and in the quadric case the two
    families are equal halves.  The quadric set's index of generators
    through each point is read off the generators' point bytes.
    """
    if space_kind not in ("symplectic", "quadric"):
        raise UsageError(f"unknown space kind {space_kind!r}")
    n = ctx.n_qubits
    if not 2 <= n <= 4:  # a flat holds its points as bytes
        raise UsageError(f"generator enumeration needs rank 2, 3 or 4, not rank {n}")
    quadric = standard_quadric(n)
    perp = quadric.perp
    bands = _column_bands(ctx.dim)
    on_quadric = space_kind == "quadric"
    if on_quadric:
        ground_mask = quadric.mask
    else:
        ground_mask = points_mask(ctx.points())

    # Per set of free columns (bit c for column c), the OR of their bands.
    allowed = [0]
    for band in bands:
        allowed += [m | band for m in allowed]

    # A flat is its RREF basis, its points as bytes, the mask of the ground
    # points perpendicular to it, the OR of its rows and its candidates.
    xor = xor_tables(ctx.dim)
    bases, points, masks = [], [], []

    def extend(basis, pts, perpmask, rows, cand):
        last = len(basis) == n - 1
        while cand:
            bit = cand & -cand
            cand ^= bit
            p = bit.bit_length() - 1
            if last:
                child = pts + bytes((p,)) + pts.translate(xor[p])
                bases.append(basis + (p,))
                masks.append(points_mask(child))
                if on_quadric:  # only the quadric set indexes its points
                    points.append(child)
                continue
            sub = perpmask & perp[p]
            below = sub & allowed[~(rows | p) & ((1 << (p.bit_length() - 1)) - 1)]
            if below:
                extend(basis + (p,), pts + bytes((p,)) + pts.translate(xor[p]),
                       sub, rows | p, below)

    # The empty flat's candidates are the ground points.  Candidates are
    # taken in ascending order and every basis has n rows, so the bases
    # come out sorted.
    extend((), b"", ground_mask, 0, ground_mask)
    del extend  # empty its closure cell, so no reference cycle outlives the call
    bases, masks = tuple(bases), tuple(masks)
    if len(set(masks)) != len(masks):
        twice = next(m for m, k in Counter(masks).items() if k > 1)
        raise InternalConsistencyError(
            f"{space_kind} generator {join_words(bases[masks.index(twice)], n)} is built twice")
    expected = expected_count(
        "hyperbolic" if on_quadric else "symplectic", "generators", n
    )
    if len(masks) != expected:
        raise InternalConsistencyError(
            f"{space_kind} generator count {len(masks)} != {expected}"
        )

    if not on_quadric:
        return GeneratorSet(ctx, bases, masks)
    families = tuple(_family_of(masks[0], m, n) for m in masks)
    if families.count(0) != families.count(1):
        raise InternalConsistencyError(
            f"generator families are not equal halves: {families.count(0)} and"
            f" {families.count(1)} against generator {join_words(bases[0], n)}")
    return GeneratorSet(ctx, bases, masks, families, quadric, points)


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
        return cls(pts, points_mask(pts))

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
    point lists: per point, the int mask of the indices of the ovoids on it.

    A slice of an `OvoidSet` is a plain tuple without the index; wrap it
    as `OvoidSet(...)` to read it through `ovoids_through`.
    """

    def __init__(self, ovoids):
        self.through = _transpose([o.points for o in self])


def ostar() -> Ovoid:
    return Ovoid.from_points(words_to_points(OSTAR_WORDS))


def is_ovoid(points, gens: GeneratorSet) -> bool:
    """Defining test: nine quadric points, one on each quadric generator.

    Read through the transposed incidence: the nine points' masks of
    generators through them are pairwise disjoint (no generator holds
    two of the points) and together cover every generator.  It tests
    single sets; `enumerate_ovoids` tests all its covers at once
    (`_failing_covers`).
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


def _cliques(adj: list[int], size: int) -> list[tuple[int, ...]]:
    """All `size`-cliques (as ascending index tuples) in the graph of full
    neighbour masks `adj`: each is rooted at its lowest index, which keeps
    its neighbours above it, and each later candidate lies above the last."""
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
            rec(cand & adj[i])
            stack.pop()

    for r in range(len(adj)):
        stack[:] = [r]
        rec(adj[r] >> r + 1 << r + 1)
    return out


def enumerate_ovoids(quadric: Quadric, gens: GeneratorSet) -> OvoidSet:
    """All ovoids of the hyperbolic quadric in PG(7,2), canonically sorted.

    Search: exact cover of the 270 generators by quadric points, straight
    from the definition.  Each step branches on the points of the lowest
    generator not yet covered that share no generator with a point
    already chosen (two quadric points share one exactly when they are
    perpendicular, so a chosen point blocks its mask in `quadric.perp`; the
    test `test_points_sharing_a_generator_are_the_perpendicular_quadric_points`
    checks this on all 135 points), and a search that covers every
    generator has found an ovoid.  An ovoid holds exactly one point of that
    lowest generator, so the search reaches every ovoid exactly once.  A
    cover carries its points down the search, so the sort and the set's
    index read them as found.  Every cover is still certified against the
    definition, all at once by `_failing_covers`, before it is returned.
    """
    ctx = quadric.context
    if ctx.n_qubits != 4:
        raise UsageError("ovoid enumeration targets the rank-4 hyperbolic quadric")
    masks, through, perp = gens.masks, gens.generators_through, quadric.perp
    every = (1 << len(masks)) - 1
    found: list[tuple[tuple[int, ...], int]] = []

    def cover(pts: tuple[int, ...], chosen: int, covered: int, blocked: int):
        if covered == every:
            found.append((tuple(sorted(pts)), chosen))
            return
        lowest = masks[(covered ^ (covered + 1)).bit_length() - 1]
        cand = lowest ^ (lowest & blocked)
        while cand:
            bit = cand & -cand
            cand ^= bit
            p = bit.bit_length() - 1
            cover(pts + (p,), chosen | bit, covered | through[p], blocked | perp[p])

    cover((), 0, 0, 0)
    del cover  # empty its closure cell, so no reference cycle outlives the call
    found.sort()
    ovoids = OvoidSet(Ovoid(pts, m) for pts, m in found)
    if bad := _failing_covers(ovoids, gens):
        o = ovoids[(bad & -bad).bit_length() - 1]
        raise InternalConsistencyError(
            f"cover {join_words(o.points, ctx.n_qubits)} fails the ovoid test")
    return ovoids


def _failing_covers(ovoids: OvoidSet, gens: GeneratorSet) -> int:
    """The mask of the indices of the sets in `ovoids` that are no ovoid.

    The test of :func:`is_ovoid`, read generator by generator over all
    the sets at once through their index `ovoids.through`: a set must
    have nine points, all on the quadric, and for every generator the
    index masks of its points must be pairwise disjoint (no set holds two
    of them) and together hold every set (each set meets it).
    """
    qmask, through = gens.quadric.mask, ovoids.through
    every = (1 << len(ovoids)) - 1
    bad = 0
    for i, o in enumerate(ovoids):
        if o.mask.bit_count() != 9 or o.mask ^ (o.mask & qmask):
            bad |= 1 << i
    for g in gens.masks:
        seen = 0
        while g:
            bit = g & -g
            g ^= bit
            on = through.get(bit.bit_length() - 1, 0)
            bad |= seen & on
            seen |= on
        bad |= every ^ seen
    return bad


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
    return tuple(map(ovoids.__getitem__, mask_points(_index(ovoids).get(p, 0))))


def _index(ovoids: OvoidSet) -> dict[int, int]:
    """`ovoids.through`, or a usage error if `ovoids` carries no index."""
    try:
        return ovoids.through
    except AttributeError:
        raise UsageError(f"need an OvoidSet, not a {type(ovoids).__name__}; wrap a slice"
                         " of one as OvoidSet(...)") from None


def secant_third_points(o: Ovoid) -> frozenset[int]:
    """Third points of the 36 secant lines; all off the quadric."""
    thirds = {a ^ b for a, b in itertools.combinations(o.points, 2)}
    if len(thirds) != 36:
        raise fault("secant third points are not distinct", ovoid=o.points)
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


def axis_of_partition(o: Ovoid, partition, quadric: Quadric) -> frozenset[int]:
    """The line off `quadric` carrying the three nuclei of a partition."""
    flat = [p for t in partition for p in t]
    if any(len(t) != 3 for t in partition) or sorted(flat) != list(o.points):
        raise UsageError("partition must cover the ovoid by disjoint triples")
    nuclei = [t[0] ^ t[1] ^ t[2] for t in partition]
    if 0 in nuclei:  # the zero vector has no word
        raise fault("collinear triple has no nucleus", triple=partition[nuclei.index(0)])
    if len(set(nuclei)) != 3 or nuclei[0] ^ nuclei[1] ^ nuclei[2] != 0:
        raise InternalConsistencyError(
            f"partition nuclei are not a line: {join_words(nuclei)}")
    if any(map(quadric.contains, nuclei)):
        raise InternalConsistencyError(f"axis touches the quadric: {join_words(nuclei)}")
    return frozenset(nuclei)


# Each of the 84 point triples of an ovoid, by index, and every partition
# pattern as three positions in that list.
_TRIPLES = tuple(itertools.combinations(range(9), 3))
_PATTERN_TRIPLES = tuple(
    tuple(_TRIPLES.index(t) for t in pat) for pat in PARTITION_PATTERNS
)


@cache
def _skew_frame(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The skew frame of rank `n`, built on first use: bit i of a frame key
    is point i of `standard_quadric(n).off_points`, the 6, 28 or 120 skew points.

    Returns the frame bit of each point value (0 for quadric points and
    0), the point of each index, and per index the full mask of the skew
    points that anticommute with it: the sigma = 1 graph, read from the perp
    masks, of the tetrad walk (rank 4) and the Conwell search (rank 3).
    """
    quadric = standard_quadric(n)
    points = quadric.off_points
    bit = [0] * (1 << quadric.context.dim)
    for i, p in enumerate(points):
        bit[p] = 1 << i
    perp = quadric.perp
    anti = tuple(sum(bit[q] for q in points if not perp[p] >> q & 1) for p in points)
    return tuple(bit), points, anti


def _conic_masks(pts) -> list[int]:
    """Per point triple of `pts` (of a rank-4 ovoid's points, in `_TRIPLES`
    order), the frame key of the conic's external line {a^b, a^c, b^c} and
    nucleus a^b^c; a partition's tetrad key is the union of its three
    conics' keys.  A quadric point or 0 among the four has no frame bit."""
    bit = _skew_frame(4)[0]
    return [
        bit[a ^ b] | bit[a ^ c] | bit[b ^ c] | bit[a ^ b ^ c]
        for a, b, c in itertools.combinations(pts, 3)
    ]


def _partition_mask(partition) -> int:
    """The 12-point mask of a partition's tetrad, over point values."""
    mask = 0
    for a, b, c in partition:
        mask |= 1 << (a ^ b) | 1 << (a ^ c) | 1 << (b ^ c) | 1 << (a ^ b ^ c)
    return mask


def _mask_lines(pts, mask: int) -> list[tuple[int, int, int]]:
    """The full lines inside a point mask, as ascending sorted triples;
    `pts` lists the mask's points in ascending order."""
    return [(u, v, u ^ v) for i, u in enumerate(pts) for v in pts[i + 1:]
            if u ^ v > v and mask >> (u ^ v) & 1]


def tetrad_lines(key: int) -> list[tuple[int, int, int]] | None:
    """The commutation walk on a frame key (`_skew_frame(4)`): the four lines
    of the tetrad on the key's twelve points, as ascending triples ordered
    by lowest point, or None if the key is no tetrad.  `certify_tetrad`
    shows why a key that passes is one.

    The points of the set that anticommute with the lowest point u left
    must be exactly v and u+v, and those that anticommute with v exactly
    u and u+v; that line is removed, four times over.  Frame bits ascend
    with the points, so the lowest bit is the lowest point.
    """
    if key.bit_count() != 12:
        return None
    bit, points, anti = _skew_frame(4)
    lines = []
    rest = key
    while rest:
        ubit = rest & -rest
        u = ubit.bit_length() - 1
        partners = key & anti[u]
        if partners.bit_count() != 2:
            return None
        vbit = partners & -partners
        v = vbit.bit_length() - 1
        w = points[u] ^ points[v]
        if partners != vbit | bit[w] or key & anti[v] != ubit | bit[w]:
            return None
        lines.append((points[u], points[v], w))
        rest ^= partners | ubit  # u commutes with the lines removed, so its line is left
    return lines


def certify_tetrad(mask: int, qmask: int) -> list[tuple[int, int, int]]:
    """Twelve off-quadric points on four mutually commuting lines, which
    are then four skew lines spanning PG(7, 2); returns the four lines as
    ascending triples, ordered by lowest point.

    `mask` is over point values.  A 12-point off-quadric mask is mapped
    into the skew frame and walked there (`tetrad_lines`).  Each line
    that the walk removes is non-degenerate (sigma(u, v) = 1) and
    orthogonal to the other three.  Such lines are independent: a point of
    one line in the span of the others would be orthogonal to its own
    line, which has no radical.  So the space is the direct sum of the
    four lines, and the set holds no fifth line: a line through points of
    two different summands has its third point in their sum, which meets
    neither summand nor the other two.

    Every tetrad of an ovoid partition passes.  A point of an off-quadric
    line {u, v, u+v} anticommutes with the other two, as Q(u+v) = Q(u) +
    Q(v) + sigma(u, v) reads 1 = 1 + 1 + sigma.  Two points of an ovoid
    anticommute (else their line lies on the quadric, in a generator
    that holds both), so for conics {a, b, c} and {d, e, f} of a
    partition, sigma(a+b, d+e) is a sum of four 1s, sigma(a+b+c, d+e) of
    six and sigma(a+b+c, a+b) of four: the conics' external lines and the
    axis of their nuclei commute.

    On failure only, `_tetrad_error` names the set.
    """
    if mask.bit_count() == 12 and not mask & (qmask | 1):  # bit 0 is no point
        bit = _skew_frame(4)[0]
        lines = tetrad_lines(sum(bit[p] for p in mask_points(mask)))
        if lines is not None:
            return lines
    raise _tetrad_error(mask, qmask)


def _tetrad_error(mask: int, qmask: int) -> InternalConsistencyError:
    """Why the point mask `mask` failed the certificate, given that it did.

    A set holding the zero vector (three collinear points make a zero
    nucleus) is worded without it, since it has no word.  Otherwise the
    set's full lines (`_mask_lines`) and the rank of their generators pick
    it: not exactly four lines covering twelve off-quadric points, four
    lines that do not span the space, or four spanning lines that do not
    commute.
    """
    pts = mask_points(mask)
    if mask & 1:
        return InternalConsistencyError(f"tetrad holds the zero vector: {join_words(pts[1:])}")
    lines = _mask_lines(pts, mask)
    if (mask.bit_count() != 12 or mask & qmask or len(lines) != 4
            or len({p for line in lines for p in line}) != 12):
        return InternalConsistencyError(
            f"tetrad is not four skew off-quadric lines: {join_words(pts)}")
    named = ";".join(map(join_words, lines))
    if gf2_core.rank([p for u, v, _ in lines for p in (u, v)]) != 8:
        return InternalConsistencyError(f"tetrad does not span the whole space: {named}")
    return InternalConsistencyError(f"tetrad lines do not commute: {named}")


def tetrad_of_partition(o: Ovoid, partition, quadric: Quadric) -> list[tuple[int, int, int]]:
    """The four lines of a partition's tetrad, the axis plus the three
    in-plane external lines, as `certify_tetrad` certifies and lists them."""
    axis_of_partition(o, partition, quadric)
    return certify_tetrad(_partition_mask(partition), quadric.mask)


def tetrad_census(ovoids) -> Counter:
    """Deduplicated tetrads over every (ovoid, partition) pair of rank 4.

    Returns a counter keyed by the tetrad's frame key, the 120-bit mask of
    its 12 points in the skew frame (`tetrad_lines` lists its lines), whose
    values are raw multiplicities; the sum of the values is 280 times the
    number of ovoids.  Each distinct key is walked once (it depends on the
    key alone).  The frame is injective on skew points, and a set holding
    a quadric point or 0 has fewer than 12 frame bits, so a key passes
    exactly when its 12-point set does.  Keys iterate in order of first
    occurrence, so the first bad key is that of the first bad (ovoid,
    partition) pair, and the failure names that pair.
    """
    ovoids = tuple(ovoids)
    counts: Counter = Counter()
    for o in ovoids:
        masks = _conic_masks(o.points)
        counts.update([masks[x] | masks[y] | masks[z] for x, y, z in _PATTERN_TRIPLES])
    for key in counts:
        if tetrad_lines(key) is None:
            raise _tetrad_fault(ovoids, key)
    return counts


def _tetrad_fault(ovoids, key: int) -> InternalConsistencyError:
    """The certificate's failure on the 12-point set of the first ovoid
    partition whose frame key is `key`, naming that ovoid and partition in
    words."""
    for o in ovoids:  # `key` came from these ovoids, so the scan finds it
        masks = _conic_masks(o.points)
        for triples in _PATTERN_TRIPLES:
            x, y, z = triples
            if masks[x] | masks[y] | masks[z] == key:
                pts = o.points
                partition = tuple(tuple(pts[i] for i in _TRIPLES[t]) for t in triples)
                reason = _tetrad_error(_partition_mask(partition), standard_quadric(4).mask)
                return fault(str(reason), ovoid=pts, partition=partition)


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
    through = _index(ovoids)
    points = [o.points for o in ovoids]
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
                high = m & plane
                if low := m ^ high:
                    split[k] = low
                if high:
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
    fail = partial(fault, ovoid=o.points, conic=t)
    if not is_ovoid(other.points, gens):
        raise fail(f"nucleus pairing {join_words(other.points)} is not an ovoid")
    if (o.mask & other.mask).bit_count() != 3:
        raise fail(f"second ovoid {join_words(other.points)} does not meet in the conic")
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
    triples = tuple(tuple(sorted(t)) for t in partition)
    fail = partial(fault, ovoid=o.points, partition=triples)
    axis = nested(fail, axis_of_partition, o, triples, gens.quadric)
    t1, t2, t3 = triples

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
            raise fail(f"triad completion {join_words(cand.points)} is not an ovoid")
    union_other = others[0].mask | others[1].mask | others[2].mask
    union_base = o.mask | a.mask | b.mask
    if union_other != union_base or union_other.bit_count() != 27:
        raise fail("triads do not share the same 27 points")
    # Three masks of at most 9 points cover 27 only if they are disjoint,
    # and o meets each mate in its conic by `second_ovoid_on_conic`.
    for x in (a, b):
        for y in others:
            if (x.mask & y.mask).bit_count() != 3:
                raise fail("cross-triad overlap is not a conic")
    pts = frozenset(p for ov in (o, a, b) for p in ov.points)
    return SixOvoidFamily(axis, (o, a, b), others, pts)


def commutation_profile(word_point: int, family) -> tuple[int, ...]:
    """Per-ovoid counts of elements commuting with the given point."""
    mask = standard_quadric(4).perp[word_point]
    return tuple((mask & ov.mask).bit_count() for ov in family)


def solid_extra_point(o: Ovoid, quad, quadric: Quadric) -> int:
    """The unique fifth point of `quadric` in the solid of four ovoid points.

    `distinct_points` checks the quartet on every call; its certificate
    (`_solid_extra`) runs once per process for each quartet and quadric.
    """
    return _solid_extra(o.distinct_points(quad, 4), quadric.mask)


@lru_cache(maxsize=128)
def _solid_extra(q: tuple[int, ...], qmask: int) -> int:
    """The certificate of :func:`solid_extra_point` on a sorted quartet and
    a quadric mask: the solid's `span_mask` meets the quadric in five points
    on no quadric line.  Memoized, bounded by one ovoid's 126 quartets: a
    full verify asks for O*'s 126 solids 2 067 times, while figure queries
    over many ovoids rarely repeat one.  A failed certificate is not remembered.
    """
    on = mask_points(span_mask(q) & qmask)
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
    """The line through `p` carried by a 4+4 split, as its two solid
    extras in split order, plus the one-point mate.

    The two solids of the split meet the quadric in one extra point each;
    those extras are collinear with `p`, and reflecting each half through
    the opposite extra rebuilds the unique second ovoid meeting `o` in
    `p` alone.
    """
    s1, s2 = split
    if set(s1) | set(s2) | {p} != set(o.points) or len(s1) != 4 or len(s2) != 4:
        raise UsageError("split must partition the other eight points into fours")

    fail = partial(fault, point=p, split=(s1, s2))

    e1 = nested(fail, solid_extra_point, o, s1, gens.quadric)
    e2 = nested(fail, solid_extra_point, o, s2, gens.quadric)
    if e1 ^ e2 != p:
        raise fail(f"solid extras {join_words((e1, e2))} are not collinear with the point")
    mate = Ovoid.from_points(
        (p,) + tuple(e1 ^ u for u in s2) + tuple(e2 ^ v for v in s1)
    )
    if not is_ovoid(mate.points, gens):
        raise fail(f"split reflection {join_words(mate.points)} is not an ovoid")
    if (mate.mask & o.mask) != (1 << p):
        raise fail(f"mate {join_words(mate.points)} shares more than the chosen point")
    return (e1, e2), mate


def ovoid_intersection_census(through, o: Ovoid, p: int) -> tuple[int, int]:
    """(one-point, three-point) counts among the ovoids `through` point `p`
    (as `ovoids_through` lists them) other than `o`."""
    sizes = ovoid_intersection_sizes(through, o, p)
    return sizes.count(1), sizes.count(3)


def ovoid_intersection_sizes(through, o: Ovoid, p: int) -> tuple[int, ...]:
    """How many points each ovoid `through` point `p` shares with `o`:
    1 or 3 for each ovoid other than `o`, whose mask it does not equal,
    and 9 for `o` itself."""
    if p not in o:
        raise UsageError("census point must lie on the ovoid")
    sizes = tuple((other.mask & o.mask).bit_count() for other in through)
    for other, size in zip(through, sizes):
        if size != 1 and size != 3 and other.mask != o.mask:
            raise InternalConsistencyError(
                f"intersection of size {size} through point {join_words((p,))}: "
                f"ovoid {join_words(o.points)} and ovoid {join_words(other.points)}")
    return sizes


class PentadCone:
    """Five concurrent quadric lines: section of the span of five points."""

    __slots__ = ("vertex", "lines", "points")

    def __init__(self, vertex: int, lines: tuple[tuple[int, int, int], ...],
                 points: tuple[int, ...]):
        self.vertex = vertex
        self.lines = lines
        self.points = points


def pentad_intersection(o: Ovoid, pentad, quadric: Quadric) -> PentadCone:
    """Quadric section of the span of five ovoid points, one `span_mask`:
    an 11-point cone whose vertex, the radical of sigma on the span (the
    mask ANDed with the points' perps), is the complementary quartet's
    solid extra point."""
    pent = o.distinct_points(pentad, 5)
    fail = partial(fault, pentad=pent)
    span = span_mask(pent)
    vertex = nested(fail, solid_extra_point, o, o.complement_in(pent), quadric)
    rad = _radical(span, pent, quadric)
    if rad != 1 << vertex:
        raise fail(f"radical {join_words(mask_points(rad))} is not the vertex"
                   f" {join_words((vertex,))}")
    section = span & quadric.mask
    lines = []
    for p in pent:
        third = vertex ^ p
        if not section >> third & 1:
            raise fail(f"cone line {join_words((vertex, p, third))} leaves the section")
        extra = nested(fail, solid_extra_point, o, tuple(q for q in pent if q != p), quadric)
        if third != extra:
            raise fail(f"cone line {join_words((vertex, p, third))} misses the quartet"
                       f" extra point {join_words((extra,))}")
        lines.append(tuple(sorted((vertex, p, third))))
    if section != 1 << vertex | points_mask(pent) | points_mask(vertex ^ p for p in pent):
        raise fail(f"section {join_words(mask_points(section))} is not the 11-point cone"
                   f" at {join_words((vertex,))}")
    return PentadCone(vertex, tuple(sorted(lines)), tuple(mask_points(section)))


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
    complementary conic; the remaining 15 points, a mask like the
    section (the `span_mask` ANDed with the quadric), are the concurrence
    points of the cross lines.
    """
    sx = o.distinct_points(sextet, 6)
    fail = partial(fault, sextet=sx)
    rest = o.complement_in(sx)
    nucleus = rest[0] ^ rest[1] ^ rest[2]
    section = span_mask(sx) & quadric.mask
    if section.bit_count() != expected_count("elliptic", "points", 3):
        raise fail("sextet section is not a 27-point quadric")
    # Each quartet (s,) + rest holds distinct points of `o`, as `sx` and
    # `rest` do, so it goes to the solid certificate sorted, unchecked.
    mates = nested(fail, lambda: tuple(_solid_extra(tuple(sorted((s,) + rest)), quadric.mask)
                                       for s in sx))
    for s, m in zip(sx, mates):
        if s ^ m != nucleus:
            raise fail(f"mate pairing {join_words((s, m))} misses the conic nucleus")
    pairing = tuple(sorted(tuple(sorted((s, m, nucleus))) for s, m in zip(sx, mates)))
    points = tuple(mask_points(section))
    lines = _mask_lines(points, section)
    if len(lines) != 45:
        raise fail(f"sextet section has {len(lines)} lines")
    core = section ^ (section & points_mask(sx + mates))
    if core.bit_count() != 15:
        raise fail("double six is not 12 distinct points")
    for i, s in enumerate(sx):
        for j, m in enumerate(mates):
            if i != j and not core >> (s ^ m) & 1:
                raise fail(f"cross line {join_words((s, m, s ^ m))} leaves the 15-point core")
    core15 = tuple(mask_points(core))
    nested(fail, _check_generalized_quadrangle, points, lines)
    return SextetSection(points, tuple(lines), sx, mates, core15, nucleus, pairing)


def _check_generalized_quadrangle(points, lines):
    """Axiomatic GQ(s, t) check, s = 2 and t = 4, on an incidence structure
    of point triples: the elliptic quadric's in PG(5, 2).

    Lines and collinearity sets are masks over the points' indices.  The
    quadrangle axiom (a point off a line is collinear with exactly one of
    its points) is checked for all points at once: with na, nb, nc the
    collinearity masks of the line's points a, b, c, the points in exactly
    one are na ^ nb ^ nc ^ (na & nb & nc), the XOR less the points in all
    three.  With the line's own points added, that must be every point.  A
    failure names the first failing point, in `points` order, of the first
    failing line.
    """
    bit = {p: 1 << i for i, p in enumerate(points)}
    collinear, line_masks = dict.fromkeys(bit, 0), []
    for line in lines:
        if len(line) != 3:
            raise InternalConsistencyError(f"line size is not s+1: {join_words(line)}")
        a, b, c = line
        try:
            m = bit[a] | bit[b] | bit[c]
        except KeyError:
            raise InternalConsistencyError(
                f"line leaves the point set: {join_words(line)}") from None
        if m.bit_count() != 3:
            raise InternalConsistencyError(f"line size is not s+1: {join_words(line)}")
        line_masks.append(m)
        collinear[a] |= m
        collinear[b] |= m
        collinear[c] |= m
    degree = Counter(itertools.chain.from_iterable(lines))
    bad = [p for p in points if degree[p] != 5]
    if bad:
        raise InternalConsistencyError(f"point degree is not t+1: {join_words(bad)}")
    full = (1 << len(bit)) - 1
    for (a, b, c), m in zip(lines, line_masks):
        na, nb, nc = collinear[a], collinear[b], collinear[c]
        bad = full ^ (na ^ nb ^ nc ^ (na & nb & nc) | m)
        if bad:
            i = (bad & -bad).bit_length() - 1
            raise InternalConsistencyError(f"quadrangle axiom fails: point "
                f"{join_words(points[i:i + 1])} off line {join_words((a, b, c))}")


def heptad_intersection(o: Ovoid, heptad, quadric: Quadric) -> int:
    """The nucleus of the quadric section of the span of seven ovoid
    points, certified with the section's 63 points.

    The restricted alternating form degenerates on the hyperplane; its
    radical (the `span_mask` ANDed with the points' perps) is the nucleus,
    which coincides with the third point on the line of the two
    complementary ovoid points.
    """
    hp = o.distinct_points(heptad, 7)
    fail = partial(fault, heptad=hp)
    span = span_mask(hp)
    section = span & quadric.mask
    if section.bit_count() != expected_count("parabolic", "points", 3):
        raise fail("heptad section is not a 63-point quadric")
    pair = o.complement_in(hp)
    nucleus = pair[0] ^ pair[1]
    rad = _radical(span, hp, quadric)
    if rad != 1 << nucleus:
        raise fail(f"radical {join_words(mask_points(rad))} is not the complementary"
                   f" secant point {join_words((nucleus,))}")
    if quadric.contains(nucleus):
        raise fail(f"section nucleus {join_words((nucleus,))} lies on the quadric")
    return nucleus


def _radical(span: int, points, quadric: Quadric) -> int:
    """The mask of the radical of sigma on the subspace of point mask `span`
    spanned by `points`: its points perpendicular to every one of them."""
    for p in points:
        span &= quadric.perp[p]
    return span


def nuclei_heptad(o: Ovoid, p1: int, p2: int) -> tuple[int, ...]:
    """The nuclei p1 ^ p2 ^ x of the seven conics of `o` on p1 and p2, sorted."""
    return tuple(sorted(p1 ^ p2 ^ x for x in o.complement_in((p1, p2))))


def certify_heptad(heptad, quadric: Quadric) -> tuple[int, ...]:
    """The sorted 35 triple nuclei x + y + z of an exterior heptad of
    `quadric`, at any rank: seven distinct skew (nonzero) points whose 21
    joining lines miss the quadric, as a Conwell heptad at rank 3 and the
    nuclei heptad of two ovoid points at rank 4.  Its 21 third points are
    then distinct and outside it, and its triple nuclei 35 quadric points.
    A failure of any of the four names the heptad, or its failing line,
    in words of the quadric's rank.
    """
    h, fail = tuple(heptad), InternalConsistencyError
    words = partial(join_words, n_qubits=quadric.context.n_qubits)
    if len(set(h)) != 7 or any(map(quadric.contains, h)):
        raise fail(f"heptad {words(h)} is not seven distinct skew points")
    thirds = set()
    for u, v in itertools.combinations(h, 2):
        if quadric.contains(u ^ v):
            raise fail(f"heptad line {words((u, v, u ^ v))} touches the quadric")
        thirds.add(u ^ v)
    if len(thirds) != 21 or thirds.intersection(h):
        raise fail(f"the 28 external points of heptad {words(h)} are not distinct")
    nuclei = sorted({x ^ y ^ z for x, y, z in itertools.combinations(h, 3)})
    if len(nuclei) != 35 or not all(map(quadric.contains, nuclei)):
        raise fail(f"the triple nuclei of heptad {words(h)} are not 35 symmetric points")
    return tuple(nuclei)


def conwell_heptads(ctx: GeometryContext) -> tuple[tuple[int, ...], ...]:
    """The Conwell heptads, the maximal exterior sets of the rank-3
    hyperbolic quadric, as ascending point tuples in ascending order.

    Found as 7-cliques of the "joining line misses the quadric" graph on
    the 28 external points.  For skew u and v, Q(u + v) = sigma(u, v), so
    that graph is the sigma = 1 graph of the skew frame `_skew_frame(3)`,
    whose points ascend with their indices, as the cliques do.  Each one
    is certified by `certify_heptad`, and a failure names it in rank-3 words.
    """
    if ctx.n_qubits != 3:
        raise UsageError("Conwell heptads live off the rank-3 quadric")
    quadric = standard_quadric(3)
    _, off, anti = _skew_frame(3)
    heptads = tuple(tuple(off[i] for i in c) for c in _cliques(anti, 7))
    for h in heptads:
        nested(lambda what: InternalConsistencyError(f"{what}: heptad {join_words(h, 3)}"),
               certify_heptad, h, quadric)
    return heptads
