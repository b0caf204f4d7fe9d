"""The verification table: every closed-form check of the package, once.

`checks(n, level)` returns rows `(name, expected, fn)`.  A row passes
when `str(fn())` equals `str(expected)`; `run_checks` times each row and
turns an exception into a failed row.  `pauligeom verify` renders the
table and the acceptance suite parametrizes over it, so a criterion and
its expected value are written here and nowhere else.

A row that certifies more than its summary shows returns a different
string naming the offending object in Pauli words when a check fails,
and the same summary as always when every check holds.  A row that
delegates to a certifier or a figure builder repeats none of its checks:
it fails with that code's message, which names the object in words.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter

from . import gf2_core, matrix_oracle, pauli_codec
from . import polar_geometry as pg
from .errors import UsageError
from .pauli_codec import join_words, word_to_point


class VerifyRow:
    __slots__ = ("name", "expected", "computed", "ok", "ms")

    def __init__(self, name: str, expected: str, computed: str, ok: bool, ms: float):
        self.name = name
        self.expected = expected
        self.computed = computed
        self.ok = ok
        self.ms = ms


class VerificationReport:
    __slots__ = ("n_qubits", "level", "rows")

    def __init__(self, n_qubits: int, level: str, rows: list[VerifyRow]):
        self.n_qubits = n_qubits
        self.level = level
        self.rows = rows

    @property
    def overall_pass(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_text(self, show_ms: bool = True) -> str:
        headers = ("check", "expected", "computed", "status")
        widths = [
            max(len(headers[0]), *(len(r.name) for r in self.rows)),
            max(len(headers[1]), *(len(r.expected) for r in self.rows)),
            max(len(headers[2]), *(len(r.computed) for r in self.rows)),
            max(len(headers[3]), 4),
        ]
        out = []
        head = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
        out.append(head + (" | ms" if show_ms else ""))
        out.append("-" * len(out[0]))
        for r in self.rows:
            cells = [
                r.name.ljust(widths[0]),
                r.expected.ljust(widths[1]),
                r.computed.ljust(widths[2]),
                ("pass" if r.ok else "FAIL").ljust(widths[3]),
            ]
            line = " | ".join(cells)
            if show_ms:
                line += f" | {r.ms:.1f}"
            out.append(line)
        status = "PASS" if self.overall_pass else "FAIL"
        out.append(f"overall: {status} ({len(self.rows)} checks, n={self.n_qubits},"
                   f" level={self.level})")
        return "\n".join(out) + "\n"

    def to_json_dict(self, include_ms: bool = True) -> dict:
        rows = []
        for r in self.rows:
            d = {
                "check": r.name,
                "expected": r.expected,
                "computed": r.computed,
                "pass": r.ok,
            }
            if include_ms:
                d["ms"] = round(r.ms, 1)
            rows.append(d)
        return {
            "n": self.n_qubits,
            "level": self.level,
            "pass": self.overall_pass,
            "rows": rows,
        }


def run_checks(checks) -> list[VerifyRow]:
    """Run table rows in order, timing each; an exception fails its row."""
    rows = []
    for name, expected, fn in checks:
        t0 = time.perf_counter()
        try:
            computed = str(fn())
        except Exception as exc:  # a failed invariant is a failed check
            computed = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append(VerifyRow(name, str(expected), computed, str(expected) == computed, ms))
    return rows


def checks(n: int, level: str) -> list[tuple]:
    """The verification table for rank `n` (2, 3 or 4) at `level`.

    Rows are `(name, expected, fn)` in report order.  Each `fn` does its
    own work when called, so the cached generators and ovoids fill in the
    first row that needs them.  Level "full" adds the two global censuses
    over all 960 rank-4 ovoids.
    """
    if n not in (2, 3, 4):
        raise UsageError("supported ranks are 2, 3, 4")
    quadric = pg.standard_quadric(n)
    ctx = quadric.context
    total = 4**n - 1
    on = pg.expected_count("hyperbolic", "points", n)
    n_gens = pg.expected_count("hyperbolic", "generators", n)
    pairs = total * (total - 1) // 2
    rows = [
        ("points_total", total, lambda: len(list(ctx.points()))),
        ("quadric_points", on, lambda: len(quadric.points)),
        ("off_quadric_points", total - on, lambda: len(quadric.off_points)),
        ("symmetry_matches_quadric", f"{total}/{total}",
         lambda: _symmetry_agreement(ctx, quadric)),
        ("symplectic_generators", pg.expected_count("symplectic", "generators", n),
         lambda: len(pg.get_generators(ctx, "symplectic"))),
        ("symplectic_generator_sizes", f"{{{2**n - 1}}}",
         lambda: str({m.bit_count() for m in pg.get_generators(ctx, "symplectic").masks})),
        ("quadric_generators", n_gens, lambda: len(pg.get_generators(ctx, "quadric"))),
        ("quadric_generator_families", str((n_gens // 2,) * 2),
         lambda: str(pg.get_generators(ctx, "quadric").family_sizes())),
        ("oracle_agreement", f"words={total} pairs={pairs} products={total * total}",
         lambda: _oracle_stats(n)),
    ]
    if n == 2:
        return rows + [("regulus_families", "two spreads of 3 skew lines",
                        lambda: _reguli(ctx))]
    if n == 3:
        return rows + [("conwell_heptads", "8 heptads, pairwise [1]",
                        lambda: _conwell_heptads(ctx))]

    # The figure builders, which only rank 4's rows run.
    from . import configurations as cfg

    ost = pg.ostar()
    subsets = lambda k: itertools.combinations(ost.points, k)
    gens = lambda: pg.get_generators(ctx, "quadric")
    ovoids = lambda: pg.get_ovoids(ctx)
    # O*'s 84 sextet sections, certified as they are built, for both the
    # section row and the fan row, and O*'s figures, each built once for
    # every row that reads it; a failed build raises again, as
    # `functools.cache` keeps no exception.
    sections = functools.cache(
        lambda: tuple(pg.sextet_intersection(ost, sx, quadric) for sx in subsets(6)))
    figure = functools.cache(lambda name, **choices: cfg.figure(name, ost, gens(), **choices))
    rows += [
        ("edge_map_bijection", 256,
         lambda: len({gf2_core.edge_to_standard(y) for y in range(256)})),
        ("edge_ovoid_rows_mapped", 9, _edge_rows),
        ("ostar_is_ovoid", True, lambda: pg.is_ovoid(ost.points, gens())),
        ("ovoid_total", 960, lambda: len(ovoids())),
        ("ovoids_through_each_point", "{64}",
         lambda: _ovoids_on_each_point(ovoids(), quadric)),
        ("ostar_census_36_84", "36+84=120", lambda: _census(ost, quadric)),
        ("random_ovoid_censuses", "36+84=120 36+84=120 36+84=120",
         lambda: _census_per_intersection_class(ovoids(), ost, quadric)),
        ("axes_and_tetrads", "280 partitions, 280 tetrads",
         lambda: _axes_and_tetrads(ost, quadric)),
        ("solid_extra_points", "126 distinct extras = complement: True",
         lambda: _solid_extras(ost, quadric)),
        ("point_partition_lines", "per point [35]",
         lambda: _point_partition_lines(ost, gens())),
        ("two_ovoid_census", "[(35, 28)]",
         lambda: str(sorted({pg.ovoid_intersection_census(
             pg.ovoids_through(ovoids(), p), ost, p) for p in ost.points}))),
        ("pentad_cones", "126/126 cones", lambda: _certify_every(
            pg.pentad_intersection, ((ost, pent, quadric) for pent in subsets(5)), "cones")),
        ("sextet_sections", "84/84 sections",
         lambda: "{0}/{0} sections".format(len(sections()))),
        ("reference_sextet_nucleus", "ZYII",
         lambda: figure("fig8").annotations["pairing_nucleus"]),
        ("heptad_sections", "36/36 sections", lambda: _certify_every(
            pg.heptad_intersection, ((ost, hp, quadric) for hp in subsets(7)), "sections")),
        ("nuclei_fans", "252/252 fans", lambda: _certify_every(cfg.section_fan, (
            (ost, section, p)
            for section in sections() for p in ost.complement_in(section.sextet)), "fans")),
        ("fan_concurrence_point", "YZXX",
         lambda: figure("fig9").annotations["concurrence"]),
        ("heptad_analogues", "36/36 pairs", lambda: _certify_every(
            cfg.heptad_analogue, ((ost, *pair) for pair in subsets(2)), "pairs")),
        ("heptad_families", "triangle+quadrangle", lambda: "+".join(
            figure("heptad-family", kind=kind).annotations["kind"]
            for kind in ("triangle", "quadrangle"))),
        ("commutation_profiles", "sym all 5s; skew shapes 3",
         lambda: _commutation_profiles(ost, quadric, gens())),
        ("figure_reports", "45,21,16,30,29,19,11,28,47,65,1", lambda: ",".join(
            str(len(figure(name).points))
            for name in [*(f"fig{i}" for i in range(1, 11)), "split63"])),
        ("conwell_heptads_rank3", "8",
         lambda: len(pg.conwell_heptads(pg.standard_quadric(3).context))),
    ]
    if level == "full":
        rows += [
            ("tetrad_dedup_global", "11200 distinct, multiplicity [24]",
             lambda: _tetrad_dedup(ovoids())),
            ("pairwise_intersection_law", "0:268800 1:151200 3:40320",
             lambda: _pairwise_law(ovoids())),
        ]
    return rows


def _fmt_counter(counter: Counter) -> str:
    return " ".join(f"{k}:{counter[k]}" for k in sorted(counter))


def _first_off_mean(counts: dict):
    """The first (key, count) of `counts` whose count is off their mean, or
    None when the counts are all equal (and so each is the mean)."""
    total, n = sum(counts.values()), len(counts)
    return next(((key, k) for key, k in counts.items() if k * n != total), None)


def _symmetry_agreement(ctx, quadric):
    """Words squaring to +I (even number of Y) are the quadric points; a
    failure names the first word that disagrees."""
    bad = []
    for v in ctx.points():
        w, cls = pauli_codec.point_class(v, ctx.n_qubits)
        if not ((cls == "symmetric") == (w.count("Y") % 2 == 0)
                == quadric.contains(v) == (ctx.quadratic(v) == 0)):
            bad.append(w)
    total = len(ctx.points())
    agree = f"{total - len(bad)}/{total}"
    return f"{agree}: first disagreement {bad[0]}" if bad else agree


def _oracle_stats(n):
    stats = matrix_oracle.check_agreement(n)
    return (
        f"words={stats['words']} pairs={stats['commutation_pairs']}"
        f" products={stats['product_pairs']}"
    )


def _reguli(ctx):
    """Both rank-2 line families are spreads; a family that is not is named by its lines."""
    gq = pg.get_generators(ctx, "quadric")
    for fam in (0, 1):
        fam_masks = [m for m, lab in zip(gq.masks, gq.families) if lab == fam]
        union = 0
        for m in fam_masks:
            union |= m
        if union.bit_count() != 9 or sum(m.bit_count() for m in fam_masks) != 9:
            lines = ";".join(join_words(pg.mask_points(m), 2) for m in fam_masks)
            return f"family {fam} is not a spread: {lines}"
    return "two spreads of 3 skew lines"


def _conwell_heptads(ctx):
    hs = pg.conwell_heptads(ctx)
    inter = {len(set(a).intersection(b)) for a, b in itertools.combinations(hs, 2)}
    return f"{len(hs)} heptads, pairwise {sorted(inter)}"


def _edge_rows():
    imgs = [gf2_core.edge_to_standard(y) for y in pg.EDGE_OVOID_Y]
    return sum(1 for got, w in zip(imgs, pg.OSTAR_WORDS) if got == word_to_point(w))


def _census(o, quadric):
    """36 secant third points and 84 conic nuclei split the 120 skew points;
    a failure names the first point in both or in neither, and the ovoid."""
    thirds = pg.secant_third_points(o)
    nuclei = {a ^ b ^ c for a, b, c in itertools.combinations(o.points, 3)}
    bad = (thirds & nuclei) | ((thirds | nuclei) ^ set(quadric.off_points))
    if bad:
        return (f"{len(thirds)}+{len(nuclei)}=bad: point {join_words((min(bad),))}"
                f" ovoid {join_words(o.points)}")
    return f"{len(thirds)}+{len(nuclei)}=120"


def _ovoids_on_each_point(ovoids, quadric):
    """The set of the numbers of ovoids on each quadric point; if they
    differ, the first point whose number is off their mean, in words."""
    through = ovoids.through
    counts = {p: through.get(p, 0).bit_count() for p in quadric.points}
    if off := _first_off_mean(counts):
        return f"point {join_words(off[:1])} on {off[1]} ovoids"
    return str(set(counts.values()))


# Two distinct rank-4 ovoids meet in 0, 1 or 3 points (a conic).
_MEETINGS = (0, 1, 3)


def _census_per_intersection_class(ovoids, ost, quadric):
    # The first ovoid, in canonical order, meeting O* in 0, 1 and 3
    # points: one of each relation to O* besides O* itself.
    firsts = {}
    for o in ovoids:
        firsts.setdefault((o.mask & ost.mask).bit_count(), o)
    for k in _MEETINGS:
        if k not in firsts:
            return f"no ovoid meets O* in {k} point" + "s" * (k != 1)
    return " ".join(_census(firsts[k], quadric) for k in _MEETINGS)


def _axes_and_tetrads(ost, quadric):
    # tetrad_of_partition checks the axis and certifies the tetrad; a
    # failure raises with the offending lines in words.
    parts = pg.triple_partitions(ost)
    keys = {tuple(pg.tetrad_of_partition(ost, part, quadric)) for part in parts}
    return f"{len(parts)} partitions, {len(keys)} tetrads"


def _solid_extras(ost, quadric):
    # solid_extra_point checks each section is five points on no quadric
    # line; a failure raises with the solid in words.
    extras = {pg.solid_extra_point(ost, q, quadric)
              for q in itertools.combinations(ost.points, 4)}
    ok = len(extras) == 126 and extras == set(quadric.points) - set(ost.points)
    return f"126 distinct extras = complement: {ok}"


def _point_partition_lines(ost, gens):
    counts = set()
    for p in ost.points:
        mates = {pg.point_partition_line(ost, p, split, gens)[1].points
                 for split in pg.rest_splits(ost, p)}
        counts.add(len(mates))
    return f"per point {sorted(counts)}"


def _certify_every(certify, choices, noun):
    """Call `certify` on each argument tuple in `choices`, "k/k noun" after
    k calls.  A certifier raises, naming its object in words, on a failed
    invariant, and that fails the row."""
    k = 0
    for args in choices:
        certify(*args)
        k += 1
    return f"{k}/{k} {noun}"


def _commutation_profiles(ost, quadric, gens):
    part = pg.triple_partitions(ost)[0]
    fam = pg.six_ovoid_family(ost, part, gens)
    six = fam.all_ovoids()
    for w in quadric.points:
        if w in fam.points:
            continue
        prof = pg.commutation_profile(w, six)
        if prof != (5,) * 6:
            return f"symmetric profile {prof}: point {join_words((w,))}"
    shapes = Counter()
    for w in quadric.off_points:
        prof = pg.commutation_profile(w, six)
        if not set(prof) <= {3, 7}:
            return f"skew profile {prof}: point {join_words((w,))}"
        shapes[tuple(sorted(prof))] += 1
    return f"sym all 5s; skew shapes {len(shapes)}"


def _tetrad_dedup(ovoids):
    """Distinct tetrads and their multiplicities; if these differ, the first
    tetrad in census order whose multiplicity is off their mean, by its four
    lines in words."""
    counts = pg.tetrad_census(ovoids)
    if off := _first_off_mean(counts):
        key, k = off
        lines = ";".join(map(join_words, pg.tetrad_lines(key)))
        return f"{len(counts)} distinct, tetrad {lines} multiplicity {k}"
    return f"{len(counts)} distinct, multiplicity {sorted(set(counts.values()))}"


def _pairwise_law(ovoids):
    """The census of |A ∩ B| over unordered pairs of ovoids; a size off the
    law (`_MEETINGS`) names the first pair, in the ovoids' order, that has it."""
    counts = pg.pairwise_intersection_sizes(ovoids)
    if counts.keys() <= set(_MEETINGS):
        return _fmt_counter(counts)
    for i, a in enumerate(ovoids):
        for b in ovoids[i + 1:]:
            if (k := (a.mask & b.mask).bit_count()) not in _MEETINGS:
                return (f"ovoids {join_words(a.points)} and {join_words(b.points)}"
                        f" meet in {k} points")
