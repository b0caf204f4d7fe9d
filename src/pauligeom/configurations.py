"""Named, exportable configurations of the four-qubit dissection.

Each extractor builds one of the distinguished ovoid substructures as a
ConfigReport of four qubits: labelled points (coordinates, word, symmetry
class, role), the collinear triples that the structure draws, and
free-form annotations.  `done` self-verifies each report: every listed
line sums to zero and every class tag agrees with the quadric membership
of the point's coordinates.
"""

from __future__ import annotations

import itertools
from functools import cache, partial
from json.encoder import encode_basestring_ascii

from . import polar_geometry as pg
from .errors import InternalConsistencyError, UsageError
from .gf2_core import span_mask, to_string
from .pauli_codec import (GeometryContext, join_words, point_class, point_to_word,
                          word_table, word_to_point, words_to_points)
from .polar_geometry import GeneratorSet, Ovoid, Quadric


class PointEntry:
    __slots__ = ("coords", "word", "cls", "role")

    def __init__(self, coords: str, word: str, cls: str, role: str):
        self.coords = coords
        self.word = word
        self.cls = cls
        self.role = role


class ConfigReport:
    """A named configuration: points with roles, lines, annotations.

    A report is its own builder: `add` lists a rank-4 point by value
    (`index` maps it to its position), `line` joins three listed points,
    `note` annotates and `done` sorts the lines and verifies.  Per-point
    work is memoized per process, none at import: `add` reads (coords,
    word, class) from `_point_fields` by value, `verify` reads value and
    class off the coordinates (never the word) from `_coords_point`, and
    `to_json` the escaped head from `_json_head`, keyed by that triple.
    """

    __slots__ = ("name", "points", "lines", "annotations", "index")

    def __init__(self, name: str):
        self.name = name
        self.points: list[PointEntry] = []
        self.lines: list[tuple[int, int, int]] = []
        self.annotations: dict[str, str] = {}
        self.index: dict[int, int] = {}

    def add(self, value: int, role: str):
        """List the point with `role`, unless it is listed already."""
        if value not in self.index:
            self.index[value] = len(self.points)
            self.points.append(PointEntry(*_point_fields(value), role))

    def add_all(self, values, role: str):
        add = self.add
        for v in sorted(values):
            add(v, role)

    def line(self, a: int, b: int, c: int):
        self.lines.append((self.index[a], self.index[b], self.index[c]))

    def note(self, key: str, value):
        self.annotations[key] = str(value)

    def done(self) -> "ConfigReport":
        self.lines.sort()
        return self.verify()

    def roles(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for p in self.points:
            counts[p.role] = counts.get(p.role, 0) + 1
        return counts

    def verify(self) -> "ConfigReport":
        """Check each class tag against the quadric membership of the
        point's coordinates (not its word), and that each line sums to zero."""
        values = []
        for p in self.points:
            v, cls = _coords_point(p.coords)
            if v == 0:
                raise InternalConsistencyError("zero vector listed as a point")
            if p.cls != cls:
                raise InternalConsistencyError(f"class tag of {p.word} is wrong")
            values.append(v)
        for i, j, k in self.lines:
            if values[i] ^ values[j] ^ values[k] != 0:
                words = ",".join(self.points[t].word for t in (i, j, k))
                raise InternalConsistencyError(f"listed line {words} does not sum to zero")
        return self

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "points": [
                {"coords": p.coords, "word": p.word, "class": p.cls, "role": p.role}
                for p in self.points
            ],
            "lines": [list(line) for line in self.lines],
            "annotations": dict(self.annotations),
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_json_dict(), indent=2)`, written by schema.

        With `indent`, `json.dumps` leaves its C encoder for a pure-Python
        one, so the fixed layout is written here instead: every string
        through the C escaper `json.dumps` uses (ASCII output), every int
        with %d, each nesting level two spaces deeper.  Points and lines
        open four spaces in, so each is one format with its keys as text.
        A point's lines up to its role come from `_json_head`; each distinct
        role is escaped once per call.
        """
        q = encode_basestring_ascii
        roles = {r: q(r) for r in {p.role for p in self.points}}
        points = [f"{_json_head(p.coords, p.word, p.cls)}{roles[p.role]}\n    }}"
                  for p in self.points]
        lines = ["[\n      %d,\n      %d,\n      %d\n    ]" % line for line in self.lines]
        notes = [f"{q(k)}: {q(v)}" for k, v in self.annotations.items()]
        return _json_block([
            f'"name": {q(self.name)}',
            f'"points": {_json_block(points, 2, "[]")}',
            f'"lines": {_json_block(lines, 2, "[]")}',
            f'"annotations": {_json_block(notes, 2, "{}")}',
        ], 0, "{}")

    def to_dot(self, line_style: str = "clique") -> str:
        """Undirected DOT graph: circles for symmetric points, hexagons
        for skew ones; lines either as 3-cliques or as subdivided
        line-nodes."""
        if line_style not in ("clique", "node"):
            raise UsageError(f"unknown line style {line_style!r}")
        out = [f'graph "{self.name}" {{']
        out.append("  overlap=false;")
        for p in self.points:
            shape = "circle" if p.cls == "symmetric" else "hexagon"
            out.append(
                f'  "{p.word}" [shape={shape}, tooltip="{p.role} {p.coords}"];'
            )
        if line_style == "clique":
            for i, j, k in self.lines:
                a, b, c = (self.points[t].word for t in (i, j, k))
                out.append(f'  "{a}" -- "{b}"; "{b}" -- "{c}"; "{a}" -- "{c}";')
        else:
            for idx, (i, j, k) in enumerate(self.lines):
                node = f"line{idx}"
                out.append(f'  "{node}" [shape=point, width=0.05];')
                for t in (i, j, k):
                    out.append(f'  "{node}" -- "{self.points[t].word}";')
        out.append("}")
        return "\n".join(out) + "\n"


def _json_block(members: list[str], indent: int, brackets: str) -> str:
    """Encoded members in brackets, as `json.dumps(..., indent=2)` lays
    them out when the block opens `indent` spaces in."""
    if not members:
        return brackets
    inner = "\n" + " " * (indent + 2)
    return (f"{brackets[0]}{inner}{(',' + inner).join(members)}"
            f"\n{' ' * indent}{brackets[1]}")


@cache
def _point_fields(value: int) -> tuple[str, str, str]:
    """(coords, word, class) of a rank-4 point: they depend on its value alone."""
    return (to_string(value, 8), *point_class(value, 4))


@cache
def _coords_point(coords: str) -> tuple[int, str]:
    """(value, class) of a coordinate string, the class read off the
    quadric of its length (len // 2 qubits), never off a word: what
    `ConfigReport.verify` checks each point's tag against.  Memoized by
    the string.
    """
    v = int(coords, 2)
    return v, "symmetric" if pg.standard_quadric(len(coords) // 2).mask >> v & 1 else "skew"


@cache
def _json_head(coords: str, word: str, cls: str) -> str:
    """A point block of `ConfigReport.to_json` up to its role's value.

    Memoized by the exact triple, so an entry whose word or class
    disagrees with its coordinates gets its own head.
    """
    q = encode_basestring_ascii
    return (f'{{\n      "coords": {q(coords)},\n      "word": {q(word)},'
            f'\n      "class": {q(cls)},\n      "role": ')


def _word(v: int) -> str:
    return point_to_word(v, 4)


def fig_secants(o: Ovoid, ctx: GeometryContext) -> ConfigReport:
    """The ovoid and the 36 skew third points of its secant lines."""
    b = ConfigReport("fig1")
    b.add_all(o.points, "ovoid")
    thirds = pg.secant_third_points(o)
    b.add_all(thirds, "secant-point")
    for u, v in itertools.combinations(o.points, 2):
        b.line(u, v, u ^ v)
    b.note("ovoid", " ".join(map(_word, o.points)))
    b.note("secant_points", len(thirds))
    return b.done()


def fig_conic_partition(o: Ovoid, partition, quadric: Quadric) -> ConfigReport:
    """A partition into three conics, its axis, and the full tetrad."""
    fail = partial(pg.fault, ovoid=o.points, partition=partition)
    lines = pg.nested(fail, pg.tetrad_of_partition, o, partition, quadric)
    b = ConfigReport("fig2")
    for k, triple in enumerate(partition, start=1):
        b.add_all(triple, f"conic-{k}")
    # The tetrad's axis, certified with it: the line of the three nuclei.
    axis = sorted(a ^ b ^ c for a, b, c in partition)
    b.add_all(axis, "nucleus")
    for line in lines:  # the axis points keep their nucleus role
        b.add_all(line, "tetrad-point")
        b.line(*line)
    b.note("axis", " ".join(map(_word, axis)))
    b.note("tetrad_lines", len(lines))
    return b.done()


def fig_two_ovoids_conic(o: Ovoid, triple, gens: GeneratorSet) -> ConfigReport:
    """Two ovoids on a conic: 15 symmetric points, six lines on the nucleus."""
    triple = tuple(sorted(triple))
    other = pg.second_ovoid_on_conic(o, triple, gens)
    nucleus = triple[0] ^ triple[1] ^ triple[2]
    b = ConfigReport("fig3")
    b.add_all(triple, "shared-conic")
    b.add_all(o.complement_in(triple), "ovoid-1")
    b.add_all(other.complement_in(triple), "ovoid-2")
    b.add(nucleus, "nucleus")
    for u in o.complement_in(triple):
        b.line(u, nucleus ^ u, nucleus)
    plane = pg.mask_points(span_mask(triple))
    b.note("conic_plane", " ".join(map(_word, plane)))
    b.note("nucleus", _word(nucleus))
    return b.done()


def fig_six_ovoids(o: Ovoid, partition, gens: GeneratorSet) -> ConfigReport:
    """27 symmetric points that split into three ovoids in two ways."""
    fam = pg.six_ovoid_family(o, partition, gens)
    b = ConfigReport("fig4")
    # Each triad is three disjoint ovoids: one index per point and triad.
    first, second = ({p: k for k, ov in enumerate(triad, 1) for p in ov.points}
                     for triad in (fam.triad_with_base, fam.triad_other))
    for p in sorted(fam.points):
        b.add(p, f"triad1-{first[p]}|triad2-{second[p]}")
    axis = sorted(fam.axis)
    b.add_all(axis, "axis-point")
    b.line(*axis)
    for k, ov in enumerate(fam.triad_with_base, 1):
        b.note(f"triad1_{k}", " ".join(map(_word, ov.points)))
    for k, ov in enumerate(fam.triad_other, 1):
        b.note(f"triad2_{k}", " ".join(map(_word, ov.points)))
    b.note("axis", " ".join(map(_word, axis)))
    return b.done()


def fig_commutation(
    o: Ovoid,
    partition,
    gens: GeneratorSet,
    symmetric_center: int | None = None,
    skew_center: int | None = None,
) -> ConfigReport:
    """Commutation pattern of the 27-point family against two centers.

    Defaults: the first symmetric point outside the family and the first
    skew point, in canonical order.
    """
    fam = pg.six_ovoid_family(o, partition, gens)
    six = fam.all_ovoids()
    quadric = gens.quadric
    if symmetric_center is None:
        symmetric_center = next(
            p for p in quadric.points if p not in fam.points
        )
    if skew_center is None:
        skew_center = quadric.off_points[0]
    if skew_center not in quadric.off_points or symmetric_center not in quadric.points:
        raise UsageError("centers must be one symmetric and one skew point")
    if symmetric_center in fam.points:
        raise UsageError("symmetric center must lie outside the 27-point family")
    b = ConfigReport("fig5")
    sym_perp, skew_perp = quadric.perp[symmetric_center], quadric.perp[skew_center]
    for p in sorted(fam.points):
        with_sym = sym_perp >> p & 1
        with_skew = skew_perp >> p & 1
        role = (
            "commutes-with-both"
            if with_sym and with_skew
            else "commutes-with-symmetric"
            if with_sym
            else "commutes-with-skew"
            if with_skew
            else "commutes-with-neither"
        )
        b.add(p, role)
    b.add(symmetric_center, "center-symmetric")
    b.add(skew_center, "center-skew")
    sym_profile = pg.commutation_profile(symmetric_center, six)
    skew_profile = pg.commutation_profile(skew_center, six)
    fail = partial(pg.fault, ovoid=o.points, partition=partition)
    if sym_profile != (5, 5, 5, 5, 5, 5):
        raise fail(f"symmetric center {_word(symmetric_center)} profile {sym_profile}"
                   " is not all fives")
    if not set(skew_profile) <= {3, 7}:
        raise fail(f"skew center {_word(skew_center)} profile {skew_profile} leaves {{3, 7}}")
    b.note("symmetric_center", _word(symmetric_center))
    b.note("skew_center", _word(skew_center))
    b.note("symmetric_profile", ",".join(map(str, sym_profile)))
    b.note("skew_profile", ",".join(map(str, skew_profile)))
    return b.done()


def standard_split(o: Ovoid, p: int):
    """The 4+4 split of the reference point whose solid extras are
    XXII and IIXX; falls back to the first split for other inputs."""
    wanted = {word_to_point("XXII"), word_to_point("IIXX")}
    quadric = pg.standard_quadric(4)
    for split in pg.rest_splits(o, p):
        extras = {
            pg.solid_extra_point(o, split[0], quadric),
            pg.solid_extra_point(o, split[1], quadric),
        }
        if extras == wanted:
            return split
    return pg.rest_splits(o, p)[0]


def fig_two_ovoids_point(o: Ovoid, p: int, split, gens: GeneratorSet) -> ConfigReport:
    """Two ovoids on one point: 19 symmetric points and the through line."""
    (e1, e2), mate = pg.point_partition_line(o, p, split, gens)
    b = ConfigReport("fig6")
    b.add(p, "shared-point")
    b.add_all(split[0], "quad-1")
    b.add_all(split[1], "quad-2")
    b.add(e1, "extra-point")
    b.add(e2, "extra-point")
    b.add_all(mate.complement_in((p,)), "second-ovoid")
    b.line(p, e1, e2)
    # the eight on-quadric lines joining each extra to the opposite quad
    for u in split[1]:
        b.line(e1, u, e1 ^ u)
    for u in split[0]:
        b.line(e2, u, e2 ^ u)
    b.note("through_line", " ".join(map(_word, sorted((p, e1, e2)))))
    b.note("extra_points", f"{_word(e1)} {_word(e2)}")
    if len(b.points) != 19:
        raise pg.fault(f"configuration is {len(b.points)} points, not 19",
                       point=p, split=split)
    return b.done()


def fig_pentad(o: Ovoid, pentad, quadric: Quadric) -> ConfigReport:
    """The 11-point cone cut by the span of five ovoid points."""
    cone = pg.pentad_intersection(o, pentad, quadric)
    b = ConfigReport("fig7")
    b.add(cone.vertex, "vertex")
    b.add_all(sorted(pentad), "pentad")
    b.add_all((p for p in cone.points if p != cone.vertex and p not in pentad),
              "quartet-extra")
    for line in cone.lines:
        b.line(*line)
    b.note("vertex", _word(cone.vertex))
    b.note("complement_quartet",
           " ".join(map(_word, o.complement_in(pentad))))
    return b.done()


def fig_sextet(o: Ovoid, sextet, quadric: Quadric) -> ConfigReport:
    """The 27-point elliptic section over six ovoid points."""
    section = pg.sextet_intersection(o, sextet, quadric)
    b = ConfigReport("fig8")
    b.add_all(section.sextet, "double-six-ovoid")
    b.add_all(section.mates, "double-six-mate")
    b.add_all(section.core15, "core")
    b.add(section.pairing_nucleus, "pairing-nucleus")
    for line in section.lines:
        b.line(*line)
    for line in section.pairing_lines:
        b.line(*line)
    b.note("pairing_nucleus", _word(section.pairing_nucleus))
    b.note("section_lines", len(section.lines))
    return b.done()


def section_fan(o: Ovoid, section: pg.SextetSection, p: int) -> tuple[tuple[int, ...], ...]:
    """The fan of `p` behind the nucleus p + a + b, as `section` moved into
    place, where {p, a, b} is the conic of `o` off the section's sextet:
    the six nuclei p + a + x, the six p + b + x and the 15 cross points,
    each sorted.

    The sextet moves by p + a onto the nuclei p + a + x, its mates
    x + p + a + b move by a onto the nuclei p + b + x, and the 15 core
    points move by p onto the cross points a + b + x + y.  Each of the 30
    section lines through a sextet point holds one point of each part,
    so it still sums to 0; each of the 15 core lines sums to p.  The
    move is a bijection once the 27 moved points are distinct, and then
    it carries the section's 45 lines and its certified quadrangle
    GQ(2, 4) onto the fan: no line is built or checked again.
    """
    conic = o.complement_in(section.sextet)
    if p not in conic:
        raise UsageError("fan point must lie on the conic off the sextet")
    a, _ = (x for x in conic if x != p)
    fail = partial(pg.fault, ovoid=o.points, point=p, nucleus=section.pairing_nucleus)
    quadric = pg.standard_quadric(4)
    for c in section.core15:
        if not quadric.contains(c ^ p):
            raise fail(f"core point {_word(c)} moves off the quadric to {_word(c ^ p)}")
    six_a = tuple(sorted(x ^ p ^ a for x in section.sextet))
    six_b = tuple(sorted(m ^ a for m in section.mates))
    cross15 = tuple(sorted(c ^ p for c in section.core15))
    if len(moved := set(six_a + six_b + cross15)) != 27:
        raise fail(f"the 27 moved points are {len(moved)} points")
    return six_a, six_b, cross15


def fig_nuclei_fan(o: Ovoid, p: int, singled_nucleus: int) -> ConfigReport:
    """28 nuclei on a point with the 15 + 2x6 split behind one of them.

    The singled nucleus p + a + b names the conic {p, a, b}.  The fan is
    the elliptic section over the six other points of `o`, certified as
    a GQ(2, 4) by `sextet_intersection` and moved into place part by part
    by `section_fan`: a move that keeps the 27 points distinct carries
    the section's 45 lines, and so its quadrangle, onto the fan.  The
    other 15 nuclei p + x + y, over pairs of the sextet, fan out from p.
    """
    if p not in o:
        raise UsageError("fan point must lie on the ovoid")
    fail = partial(pg.fault, ovoid=o.points, point=p, nucleus=singled_nucleus)
    conics = {p ^ a ^ b: (a, b) for a, b in itertools.combinations(o.complement_in((p,)), 2)}
    if len(conics) != 28:
        raise fail(f"the 28 conic nuclei are {len(conics)} points")
    if singled_nucleus not in conics:
        raise UsageError("singled point is not a nucleus of a conic on the point")
    a, bb = conics[singled_nucleus]
    section = pg.nested(fail, pg.sextet_intersection, o, o.complement_in((p, a, bb)),
                        pg.standard_quadric(4))
    six_a, six_b, cross15 = section_fan(o, section, p)
    concurrence = p ^ singled_nucleus
    b = ConfigReport("fig9")
    b.add(p, "common-point")
    b.add(singled_nucleus, "singled-nucleus")
    b.add(a, "distinguished-conic-point")
    b.add(bb, "distinguished-conic-point")
    b.add_all(six_a, "six-1")
    b.add_all(six_b, "six-2")
    b.add_all((p ^ x ^ y for x, y in itertools.combinations(section.sextet, 2)), "fan-nucleus")
    b.add(concurrence, "concurrence-point")
    b.add_all(cross15, "gq-core")
    # the six concurrent pairing lines of the double six
    for na in six_a:
        b.line(na, na ^ concurrence, concurrence)
    b.line(p, singled_nucleus, concurrence)
    b.note("concurrence", _word(concurrence))
    b.note("singled_nucleus", _word(singled_nucleus))
    b.note("gq_lines", len(section.lines))
    b.note("gq_parameters", "s=2 t=4 points=27")
    return b.done()


def heptad_analogue(o: Ovoid, p1: int, p2: int) -> ConfigReport:
    """Nuclei of the seven conics on two shared ovoid points.

    A seven-point external set whose 21 joining lines stay off the
    quadric, together with the 35 symmetric nuclei of its own triples,
    as `polar_geometry.certify_heptad` certifies them.
    """
    o.distinct_points((p1, p2), 2)
    fail = partial(pg.fault, ovoid=o.points, pair=(p1, p2))
    heptad = pg.nuclei_heptad(o, p1, p2)
    if 0 in heptad:  # the zero vector has no word
        raise fail("collinear triple has no nucleus", triple=sorted((p1, p2, p1 ^ p2)))
    triple_nuclei = pg.nested(fail, pg.certify_heptad, heptad, pg.standard_quadric(4))
    b = ConfigReport("fig10")
    b.add(p1, "shared-ovoid-point")
    b.add(p2, "shared-ovoid-point")
    b.add_all(heptad, "heptad-nucleus")
    b.add_all((u ^ v for u, v in itertools.combinations(heptad, 2)), "heptad-line-point")
    b.add_all(triple_nuclei, "triple-nucleus")
    # A triple nucleus on p1 or p2, which are on the quadric, merges with it.
    if len(b.points) != 65:
        raise fail(f"configuration is {len(b.points)} points, not 65")
    for u, v in itertools.combinations(heptad, 2):
        b.line(u, v, u ^ v)
    b.note("shared_points", f"{_word(p1)} {_word(p2)}")
    b.note("heptad", " ".join(map(_word, heptad)))
    b.note("triple_nuclei", len(triple_nuclei))
    return b.done()


def heptad_family(o: Ovoid, pair_set, gens: GeneratorSet, kind: str | None = None
                  ) -> ConfigReport:
    """Families of external heptads over a triangle or quadrangle of pairs;
    a given `kind` must name the shape of the pairs."""
    pairs = [o.distinct_points(pr, 2) for pr in pair_set]
    vertices = sorted({p for pr in pairs for p in pr})
    degree = {v: sum(v in pr for pr in pairs) for v in vertices}
    # n distinct pairs on n vertices of degree 2 form one n-cycle for n = 3
    # or 4; four pairs that repeat make two doubled edges instead.
    shape = {3: "triangle", 4: "quadrangle"}.get(len(pairs))
    if not (shape and len(vertices) == len(set(pairs)) == len(pairs)
            and set(degree.values()) == {2}):
        raise UsageError("pair set is neither a triangle nor a quadrangle")
    if kind not in (None, shape):
        raise UsageError(f"the pairs are a {shape}, not a {kind}")
    build = _heptad_triangle if shape == "triangle" else _heptad_quadrangle
    return build(o, pairs, vertices, gens)


def _heptad_triangle(o, pairs, vertices, gens) -> ConfigReport:
    nucleus = vertices[0] ^ vertices[1] ^ vertices[2]
    fail = partial(pg.fault, ovoid=o.points, triangle=vertices)
    other = pg.second_ovoid_on_conic(o, tuple(vertices), gens)
    heptads = [frozenset(pg.nuclei_heptad(ov, *pr)) for ov in (o, other) for pr in pairs]
    for h1, h2 in itertools.combinations(heptads, 2):
        if h1 & h2 != {nucleus}:
            raise fail(f"heptads {join_words(sorted(h1))} and {join_words(sorted(h2))} "
                       f"meet in [{join_words(sorted(h1 & h2))}], "
                       f"not in the nucleus {_word(nucleus)}")
    b = ConfigReport("heptad-family")
    b.add_all(vertices, "triangle-vertex")
    b.add(nucleus, "common-nucleus")
    # The heptads meet only in the nucleus, so each other point has one owner.
    for k, h in enumerate(heptads, 1):
        b.add_all(h - {nucleus}, f"heptad-{k}({'base' if k <= 3 else 'mate'})")
    b.note("kind", "triangle")
    b.note("common_point", _word(nucleus))
    b.note("heptads", len(heptads))
    return b.done()


def _heptad_quadrangle(o, pairs, vertices, gens) -> ConfigReport:
    # order the pairs around the cycle
    cycle = [pairs[0]]
    rest = list(pairs[1:])
    while rest:
        last = cycle[-1]
        nxt = next(pr for pr in rest if set(pr) & set(last))
        rest.remove(nxt)
        cycle.append(nxt)
    fail = partial(pg.fault, ovoid=o.points, quadrangle=cycle)
    heptads = [frozenset(pg.nuclei_heptad(o, *pr)) for pr in cycle]
    meet = pg.nested(fail, pg.solid_extra_point, o, tuple(vertices), gens.quadric)
    shared = []
    for i in range(4):
        h1, h2 = heptads[i], heptads[(i + 1) % 4]
        if len(h1 & h2) != 1:
            raise fail(f"consecutive heptads {join_words(sorted(h1))} and "
                       f"{join_words(sorted(h2))} meet in {len(h1 & h2)} points")
        shared.append(next(iter(h1 & h2)))
    for i in range(2):
        if heptads[i] & heptads[i + 2]:
            raise fail(f"opposite heptads {join_words(sorted(heptads[i]))} and "
                       f"{join_words(sorted(heptads[i + 2]))} meet")
    b = ConfigReport("heptad-family")
    b.add_all(vertices, "quadrangle-vertex")
    b.add(meet, "concurrence-point")
    roles: dict[int, str] = {}  # each point's heptads, in heptad order
    for k, h in enumerate(heptads, 1):
        for v in sorted(h):
            roles[v] = f"{roles[v]}|heptad-{k}" if v in roles else f"heptad-{k}"
    for v, role in roles.items():
        b.add(v, role)
    for s in shared:
        v = s ^ meet
        if v not in vertices:
            raise fail(f"the line of {_word(s)} and {_word(meet)} misses the vertices")
        b.line(s, v, meet)
    b.note("kind", "quadrangle")
    b.note("concurrence", _word(meet))
    b.note("shared_points", " ".join(map(_word, sorted(shared))))
    return b.done()


def sixty_three_split(all_ovoids: pg.OvoidSet, o: Ovoid, p: int) -> ConfigReport:
    """The 64 ovoids on a point and their 35/28 census against `o`."""
    if p not in o:
        raise UsageError("census point must lie on the reference ovoid")
    through = pg.ovoids_through(all_ovoids, p)
    if len(through) != 64:
        raise pg.fault(f"point is on {len(through)} ovoids, not 64", point=p)
    sizes = pg.ovoid_intersection_sizes(through, o, p)
    b = ConfigReport("split63")
    b.add(p, "common-point")
    b.note("ovoids_through_point", len(through))
    b.note("one_point_neighbours", sizes.count(1))
    b.note("conic_neighbours", sizes.count(3))
    b.note("reference", " ".join(map(_word, o.points)))
    tags = {1: "one-point", 3: "conic", 9: "reference"}
    words = word_table(4)
    for k, (ov, size) in enumerate(zip(through, sizes)):
        b.note(f"ovoid_{k:02d}[{tags[size]}]", " ".join([words[q] for q in ov.points]))
    return b.done()


# The reference choices, each spelled once: the common point of fig6,
# fig9 and split63, fig9's singled nucleus, the conic whose complement
# is fig8's sextet, and fig10's shared pair.
REFERENCE_POINT = word_to_point("XXXX")
REFERENCE_NUCLEUS = word_to_point("ZYII")
REFERENCE_CONIC = words_to_points(("ZIIX", "XZXI", "XXXX"))
REFERENCE_PAIR = words_to_points(("ZZIZ", "IXXZ"))

# Each figure: its builder, called with the ovoid, the quadric generators
# and every choice by name, and the choices it takes, each with the
# function that gives its reference value from the ovoid and the choices
# filled in before it.  A reference value off the ovoid falls back to the
# ovoid's own first points.  fig5's centres are left to `fig_commutation`,
# and heptad-family's kind to the shape of its pairs.
_PARTITION = {"partition": lambda o, c: pg.triple_partitions(o)[0]}
_POINT = {"point": lambda o, c: REFERENCE_POINT if REFERENCE_POINT in o else o.points[0]}


def _reference_nucleus(o, c):
    """ZYII if it is the nucleus of a conic of `o` on the point, else the
    nucleus p ^ a ^ b of the conic on the point and the first two others."""
    p = c["point"]
    nuclei = [p ^ a ^ b for a, b in itertools.combinations(o.complement_in((p,)), 2)]
    return REFERENCE_NUCLEUS if REFERENCE_NUCLEUS in nuclei else nuclei[0]


def _reference_pairs(o, c):
    """The triangle of pairs on the first three points of `o`, or the
    quadrangle on its first four."""
    a, b, x, y = o.points[:4]
    if c["kind"] == "quadrangle":
        return ((a, b), (b, x), (x, y), (y, a))
    return ((a, b), (b, x), (a, x))


_ANALOGUE = (lambda o, gens, pair: heptad_analogue(o, *pair), {
    "pair": lambda o, c: REFERENCE_PAIR if all(p in o for p in REFERENCE_PAIR) else o.points[:2]})
FIGURES = {
    "fig1": (lambda o, gens: fig_secants(o, gens.context), {}),
    "fig2": (lambda o, gens, partition: fig_conic_partition(o, partition, gens.quadric),
             _PARTITION),
    "fig3": (lambda o, gens, triple: fig_two_ovoids_conic(o, triple, gens),
             {"triple": lambda o, c: o.points[:3]}),
    "fig4": (lambda o, gens, partition: fig_six_ovoids(o, partition, gens), _PARTITION),
    "fig5": (lambda o, gens, partition, point, nucleus:
             fig_commutation(o, partition, gens, point, nucleus),
             {**_PARTITION, "point": lambda o, c: None, "nucleus": lambda o, c: None}),
    "fig6": (lambda o, gens, point, split: fig_two_ovoids_point(o, point, split, gens),
             {**_POINT, "split": lambda o, c: standard_split(o, c["point"])}),
    "fig7": (lambda o, gens, pentad: fig_pentad(o, pentad, gens.quadric),
             {"pentad": lambda o, c: o.points[:5]}),
    "fig8": (lambda o, gens, sextet: fig_sextet(o, sextet, gens.quadric),
             {"sextet": lambda o, c: o.complement_in(REFERENCE_CONIC)
              if all(p in o for p in REFERENCE_CONIC) else o.points[:6]}),
    "fig9": (lambda o, gens, point, nucleus: fig_nuclei_fan(o, point, nucleus),
             {**_POINT, "nucleus": _reference_nucleus}),
    "fig10": _ANALOGUE,
    "fig11": _ANALOGUE,
    "heptad-analogue": _ANALOGUE,
    "heptad-family": (lambda o, gens, kind, pairs: heptad_family(o, pairs, gens, kind),
                      {"kind": lambda o, c: None, "pairs": _reference_pairs}),
    "split63": (lambda o, gens, point: sixty_three_split(pg.get_ovoids(gens.context), o, point),
                _POINT),
}


def figure(name: str, o: Ovoid, gens: GeneratorSet, **choices) -> ConfigReport:
    """The figure `name` of ovoid `o`: each choice it takes and is not
    given takes its reference value; any other choice is a usage error."""
    if name not in FIGURES:
        raise UsageError(f"unknown configuration {name!r}; choose from " + ", ".join(FIGURES))
    build, takes = FIGURES[name]
    extra = [k for k in choices if k not in takes]
    if extra:
        raise UsageError(f"{name} takes no --{extra[0]}; it takes "
                         + (", ".join(f"--{t}" for t in takes) or "no choices"))
    filled = {}
    for k, reference in takes.items():
        filled[k] = choices[k] if k in choices else reference(o, filled)
    report = build(o, gens, **filled)
    report.name = name
    return report
