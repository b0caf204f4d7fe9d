"""Command-line driver: verification suite, enumeration dumps, configs.

Exit codes: 0 all good, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

from . import configurations as cfg
from . import gf2_core, matrix_oracle, pauli_codec
from . import polar_geometry as pg
from .errors import UsageError
from .pauli_codec import GeometryContext, point_to_word, word_to_point


@dataclass
class VerifyRow:
    name: str
    expected: str
    computed: str
    ok: bool
    ms: float


@dataclass
class VerificationReport:
    n_qubits: int
    level: str
    rows: list[VerifyRow]

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


def _run_checks(checks) -> list[VerifyRow]:
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


def _fmt_counter(counter: Counter) -> str:
    return " ".join(f"{k}:{counter[k]}" for k in sorted(counter))


def _checks_common(n: int):
    ctx = GeometryContext(n)
    quadric = pg.Quadric.standard_hyperbolic(ctx)
    total = 4**n - 1
    on = pg.expected_count("hyperbolic", "points", n)

    def symmetry_agreement():
        good = sum(
            1
            for v in ctx.points()
            if pauli_codec.is_symmetric(point_to_word(v, n)) == (ctx.quadratic(v) == 0)
        )
        return f"{good}/{total}"

    def oracle_stats():
        stats = matrix_oracle.check_agreement(n)
        return (
            f"words={stats['words']} pairs={stats['commutation_pairs']}"
            f" products={stats['product_pairs']}"
        )

    pairs = total * (total - 1) // 2
    return [
        ("points_total", total, lambda: len(list(ctx.points()))),
        ("quadric_points", on, lambda: len(quadric.points)),
        ("off_quadric_points", total - on, lambda: len(quadric.off_points())),
        ("symmetry_matches_quadric", f"{total}/{total}", symmetry_agreement),
        (
            "symplectic_generators",
            pg.expected_count("symplectic", "generators", n),
            lambda: len(pg.get_generators(ctx, "symplectic")),
        ),
        (
            "symplectic_generator_sizes",
            f"{{{2**n - 1}}}",
            lambda: str({len(f) for f in pg.get_generators(ctx, "symplectic").flats}),
        ),
        (
            "quadric_generators",
            pg.expected_count("hyperbolic", "generators", n),
            lambda: len(pg.get_generators(ctx, "quadric")),
        ),
        (
            "quadric_generator_families",
            str((pg.expected_count("hyperbolic", "generators", n) // 2,) * 2),
            lambda: str(pg.get_generators(ctx, "quadric").family_sizes()),
        ),
        (
            "oracle_agreement",
            f"words={total} pairs={pairs} products={total * total}",
            oracle_stats,
        ),
    ]


def _checks_rank2(ctx):
    def reguli():
        gq = pg.get_generators(ctx, "quadric")
        for fam in (0, 1):
            fam_pts = [
                f.points() for f, lab in zip(gq.flats, gq.families) if lab == fam
            ]
            union = set().union(*fam_pts)
            if len(union) != 9 or sum(len(p) for p in fam_pts) != 9:
                return "not a spread"
        return "two spreads of 3 skew lines"

    return [("regulus_families", "two spreads of 3 skew lines", reguli)]


def _checks_rank3(ctx):
    def heptads():
        hs = pg.conwell_heptads(ctx)
        inter = {len(a & b) for a, b in itertools.combinations(hs, 2)}
        return f"{len(hs)} heptads, pairwise {sorted(inter)}"

    return [("conwell_heptads", "8 heptads, pairwise [1]", heptads)]


def _checks_rank4(ctx, level: str):
    quadric = pg.Quadric.standard_hyperbolic(ctx)
    ost = pg.ostar()
    gens = lambda: pg.get_generators(ctx, "quadric")
    ovoids = lambda: pg.get_ovoids(ctx)

    def edge_rows():
        imgs = [gf2_core.edge_to_standard(y) for y in pg.EDGE_OVOID_Y]
        return sum(1 for got, w in zip(imgs, pg.OSTAR_WORDS) if got == word_to_point(w))

    def census(o):
        thirds = pg.secant_third_points(o)
        nuclei = {c.nucleus for c in pg.conics_of(o)}
        off = set(quadric.off_points())
        ok = (not thirds & nuclei) and thirds | nuclei == off
        return f"{len(thirds)}+{len(nuclei)}={'120' if ok else 'bad'}"

    def random_ovoid_censuses():
        # The first ovoid, in canonical order, meeting O* in 0, 1 and 3
        # points: one of each relation to O* besides O* itself.
        firsts = {}
        for o in ovoids():
            firsts.setdefault((o.mask & ost.mask).bit_count(), o)
        return " ".join(census(firsts[k]) for k in (0, 1, 3))

    def axes_tetrads():
        parts = pg.triple_partitions(ost)
        keys = set()
        for part in parts:
            tetrad = pg.tetrad_of_partition(ost, part, quadric)
            if gf2_core.rank(tetrad.points()) != 8:
                return "tetrad does not span"
            keys.add(tetrad.key())
        return f"{len(parts)} partitions, {len(keys)} tetrads"

    def solids():
        extras = [
            pg.solid_extra_point(ost, quad)
            for quad in itertools.combinations(ost.points, 4)
        ]
        complement = set(quadric.points) - set(ost.points)
        ok = len(set(extras)) == 126 and set(extras) == complement
        return f"126 distinct extras = complement: {ok}"

    def point_lines():
        counts = set()
        for p in ost.points:
            mates = set()
            for split in pg.rest_splits(ost, p):
                _, mate = pg.point_partition_line(ost, p, split, gens())
                mates.add(mate.points)
            counts.add(len(mates))
        return f"per point {sorted(counts)}"

    def census_split():
        res = {pg.ovoid_intersection_census(ovoids(), ost, p) for p in ost.points}
        return str(sorted(res))

    def pentads():
        n_ok = sum(
            1
            for pent in itertools.combinations(ost.points, 5)
            if len(pg.pentad_intersection(ost, pent, quadric).points) == 11
        )
        return f"{n_ok}/126 cones"

    def sextets():
        n_ok = 0
        for sx in itertools.combinations(ost.points, 6):
            sec = pg.sextet_intersection(ost, sx, quadric)
            if len(sec.points) == 27 and len(sec.lines) == 45:
                n_ok += 1
        return f"{n_ok}/84 sections"

    def reference_sextet_nucleus():
        triple = tuple(word_to_point(w) for w in ("ZIIX", "XZXI", "XXXX"))
        sec = pg.sextet_intersection(ost, ost.complement_in(triple), quadric)
        return point_to_word(sec.pairing_nucleus, 4)

    def heptads():
        n_ok = sum(
            1
            for hp in itertools.combinations(ost.points, 7)
            if len(pg.heptad_intersection(ost, hp, quadric).points) == 63
        )
        return f"{n_ok}/36 sections"

    def nuclei_fans():
        n_ok = 0
        for p in ost.points:
            others = ost.complement_in((p,))
            for a, b in itertools.combinations(others, 2):
                fan = cfg.nuclei_fan_structure(ost, p, p ^ a ^ b)
                if fan.gq_lines == 45:
                    n_ok += 1
        return f"{n_ok}/252 fans"

    def fan_concurrence():
        fan = cfg.nuclei_fan_structure(
            ost, word_to_point("XXXX"), word_to_point("ZYII")
        )
        return point_to_word(fan.concurrence, 4)

    def heptad_analogues():
        n_ok = 0
        for p1, p2 in itertools.combinations(ost.points, 2):
            rep = cfg.heptad_analogue(ost, p1, p2)
            roles = rep.roles()
            if (
                roles.get("heptad-nucleus") == 7
                and roles.get("heptad-line-point") == 21
                and roles.get("triple-nucleus") == 35
            ):
                n_ok += 1
        return f"{n_ok}/36 pairs"

    def heptad_families():
        tri = cfg.heptad_family(ost, _triangle_pairs(ost), gens())
        quad = cfg.heptad_family(ost, _quadrangle_pairs(ost), gens())
        return f"{tri.annotations['kind']}+{quad.annotations['kind']}"

    def commutation():
        part = pg.triple_partitions(ost)[0]
        fam = pg.six_ovoid_family(ost, part, gens())
        six = fam.all_ovoids()
        for w in quadric.points:
            if w not in fam.points and pg.commutation_profile(w, six) != (5,) * 6:
                return "symmetric profile broken"
        shapes = Counter()
        for w in quadric.off_points():
            prof = pg.commutation_profile(w, six)
            if not set(prof) <= {3, 7}:
                return f"skew profile {prof}"
            shapes[tuple(sorted(prof))] += 1
        return f"sym all 5s; skew shapes {len(shapes)}"

    def fig_reports():
        part = pg.triple_partitions(ost)[0]
        counts = []
        counts.append(len(cfg.fig_secants(ost, ctx).points))
        counts.append(len(cfg.fig_conic_partition(ost, part, quadric).points))
        counts.append(len(cfg.fig_two_ovoids_conic(ost, ost.points[:3], gens()).points))
        counts.append(len(cfg.fig_six_ovoids(ost, part, gens()).points))
        counts.append(len(cfg.fig_commutation(ost, part, gens()).points))
        p = word_to_point("XXXX")
        split = _standard_split(ost, p)
        counts.append(len(cfg.fig_two_ovoids_point(ost, p, split, gens()).points))
        counts.append(len(cfg.fig_pentad(ost, ost.points[:5], quadric).points))
        triple = tuple(word_to_point(w) for w in ("ZIIX", "XZXI", "XXXX"))
        counts.append(
            len(cfg.fig_sextet(ost, ost.complement_in(triple), quadric).points)
        )
        counts.append(
            len(cfg.fig_nuclei_fan(ost, p, word_to_point("ZYII")).points)
        )
        counts.append(
            len(cfg.heptad_analogue(
                ost, word_to_point("ZZIZ"), word_to_point("IXXZ")).points)
        )
        counts.append(len(cfg.sixty_three_split(ovoids(), ost, p).points))
        return ",".join(map(str, counts))

    checks = [
        ("edge_map_bijection", 256,
         lambda: len({gf2_core.edge_to_standard(y) for y in range(256)})),
        ("edge_ovoid_rows_mapped", 9, edge_rows),
        ("ostar_is_ovoid", True, lambda: pg.is_ovoid(ost.points, gens())),
        ("ovoid_total", 960, lambda: len(ovoids())),
        ("ovoids_through_each_point", "{64}",
         lambda: str({len(pg.ovoids_through(ovoids(), p)) for p in quadric.points})),
        ("ostar_census_36_84", "36+84=120", lambda: census(ost)),
        ("random_ovoid_censuses", "36+84=120 36+84=120 36+84=120",
         random_ovoid_censuses),
        ("axes_and_tetrads", "280 partitions, 280 tetrads", axes_tetrads),
        ("solid_extra_points", "126 distinct extras = complement: True", solids),
        ("point_partition_lines", "per point [35]", point_lines),
        ("two_ovoid_census", "[(35, 28)]", census_split),
        ("pentad_cones", "126/126 cones", pentads),
        ("sextet_sections", "84/84 sections", sextets),
        ("reference_sextet_nucleus", "ZYII", reference_sextet_nucleus),
        ("heptad_sections", "36/36 sections", heptads),
        ("nuclei_fans", "252/252 fans", nuclei_fans),
        ("fan_concurrence_point", "YZXX", fan_concurrence),
        ("heptad_analogues", "36/36 pairs", heptad_analogues),
        ("heptad_families", "triangle+quadrangle", heptad_families),
        ("commutation_profiles", "sym all 5s; skew shapes 3", commutation),
        ("figure_reports", "45,21,16,30,29,19,11,28,47,65,1", fig_reports),
        ("conwell_heptads_rank3", "8",
         lambda: len(pg.conwell_heptads(GeometryContext(3)))),
    ]
    if level == "full":
        def tetrad_global():
            counts = pg.tetrad_census(ovoids())
            mult = set(counts.values())
            return f"{len(counts)} distinct, multiplicity {sorted(mult)}"

        def pairwise():
            sizes = pg.pairwise_intersection_sizes(ovoids())
            return _fmt_counter(sizes)

        checks += [
            ("tetrad_dedup_global", "11200 distinct, multiplicity [24]",
             tetrad_global),
            ("pairwise_intersection_law", "0:268800 1:151200 3:40320", pairwise),
        ]
    return checks


def _triangle_pairs(o):
    a, b, c = o.points[:3]
    return ((a, b), (b, c), (a, c))


def _quadrangle_pairs(o):
    a, b, c, d = o.points[:4]
    return ((a, b), (b, c), (c, d), (d, a))


def _standard_split(o, p):
    """The 4+4 split of the reference point whose solid extras are
    XXII and IIXX; falls back to the first split for other inputs."""
    wanted = {word_to_point("XXII"), word_to_point("IIXX")}
    for split in pg.rest_splits(o, p):
        extras = {
            pg.solid_extra_point(o, split[0]),
            pg.solid_extra_point(o, split[1]),
        }
        if extras == wanted:
            return split
    return pg.rest_splits(o, p)[0]


def cmd_verify(n: int, level: str) -> VerificationReport:
    """Run the verification suite for a rank and level."""
    ctx = GeometryContext(n)
    checks = _checks_common(n)
    if n == 2:
        checks += _checks_rank2(ctx)
    elif n == 3:
        checks += _checks_rank3(ctx)
    elif n == 4:
        checks += _checks_rank4(ctx, level)
    else:
        raise UsageError("supported ranks are 2, 3, 4")
    return VerificationReport(n, level, _run_checks(checks))


def _resolve_ovoid(token: str, gens) -> pg.Ovoid:
    if token == "Ostar":
        return pg.ostar()
    words = [w.strip().upper() for w in token.split(",")]
    if len(words) != 9:
        raise UsageError("an ovoid needs nine comma-separated words")
    o = pg.Ovoid.from_points(word_to_point(w) for w in words)
    if not pg.is_ovoid(o.points, gens):
        raise UsageError("the given nine points are not an ovoid")
    return o


def _parse_point(token: str) -> int:
    token = token.strip()
    if set(token) <= {"0", "1"} and len(token) > 2:
        return gf2_core.from_string(token)
    return word_to_point(token.upper())


def _parse_groups(token: str, sizes) -> tuple[tuple[int, ...], ...]:
    groups = [g for g in token.split("/") if g]
    if len(groups) != len(sizes):
        raise UsageError(f"expected {len(sizes)} groups separated by '/'")
    out = []
    for g, size in zip(groups, sizes):
        pts = tuple(_parse_point(t) for t in g.split(","))
        if len(pts) != size:
            raise UsageError(f"group {g!r} must have {size} points")
        out.append(pts)
    return tuple(out)


def _open_output(path: str):
    """Open an --output file; an OS error is a usage error (exit 2)."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _write_output(text: str, path: str | None) -> None:
    """Write finished command output to `path`, or to stdout without one."""
    if path:
        with _open_output(path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args) -> int:
    _write_output("".join(line + "\n" for line in _enumeration_lines(args)),
                  args.output)
    return 0


def _enumeration_lines(args) -> list[str]:
    n = args.n
    ctx = GeometryContext(n)
    if args.what == "generators":
        gens = pg.get_generators(ctx, args.space)
        lines = [",".join(point_to_word(p, n) for p in sorted(flat.points()))
                 for flat in gens.flats]
        if gens.families is not None:
            lines = [f"{w}\tfamily={fam}" for w, fam in zip(lines, gens.families)]
        return lines
    if args.what == "heptads":
        if n == 3:
            return [
                ",".join(point_to_word(p, 3) for p in h)
                for h in sorted(tuple(sorted(x)) for x in pg.conwell_heptads(ctx))
            ]
        o = _resolve_ovoid(args.ovoid, pg.get_generators(ctx, "quadric"))
        lines = []
        for p1, p2 in itertools.combinations(o.points, 2):
            hept = sorted(p1 ^ p2 ^ x for x in o.complement_in((p1, p2)))
            lines.append(f"{point_to_word(p1, 4)},{point_to_word(p2, 4)}\t"
                         + ",".join(point_to_word(h, 4) for h in hept))
        return lines
    if n != 4:
        raise UsageError(f"{args.what} enumeration needs --n 4")
    gens = pg.get_generators(ctx, "quadric")
    if args.what == "ovoids":
        ovoids = pg.get_ovoids(ctx)
        if args.through_point:
            ovoids = pg.ovoids_through(ovoids, _parse_point(args.through_point))
        return [",".join(point_to_word(p, 4) for p in o.points) for o in ovoids]
    if args.what == "tetrads":
        if args.dedup:
            keys = sorted(pg.tetrad_census(pg.get_ovoids(ctx)))
        else:
            o = _resolve_ovoid(args.ovoid, gens)
            keys = sorted(
                pg.tetrad_of_partition(o, part, gens.quadric).key()
                for part in pg.triple_partitions(o)
            )
        return [
            ";".join(",".join(point_to_word(p, 4) for p in line) for line in key)
            for key in keys
        ]
    raise UsageError(f"unknown enumeration target {args.what!r}")


_CONFIG_NAMES = [f"fig{i}" for i in range(1, 12)] + [
    "heptad-analogue",
    "heptad-family",
    "split63",
]


def _build_config(args) -> cfg.ConfigReport:
    ctx = GeometryContext(4)
    gens = pg.get_generators(ctx, "quadric")
    quadric = gens.quadric
    o = _resolve_ovoid(args.ovoid, gens)
    name = args.name

    def default_partition():
        if args.partition:
            return _parse_groups(args.partition, (3, 3, 3))
        return pg.triple_partitions(o)[0]

    if name == "fig1":
        return cfg.fig_secants(o, ctx)
    if name == "fig2":
        return cfg.fig_conic_partition(o, default_partition(), quadric)
    if name == "fig3":
        triple = (
            _parse_groups(args.triple, (3,))[0] if args.triple else o.points[:3]
        )
        return cfg.fig_two_ovoids_conic(o, triple, gens)
    if name == "fig4":
        return cfg.fig_six_ovoids(o, default_partition(), gens)
    if name == "fig5":
        sym = _parse_point(args.point) if args.point else None
        skew = _parse_point(args.nucleus) if args.nucleus else None
        return cfg.fig_commutation(o, default_partition(), gens, sym, skew)
    if name == "fig6":
        p = _parse_point(args.point) if args.point else word_to_point("XXXX")
        split = (
            _parse_groups(args.split, (4, 4)) if args.split else _standard_split(o, p)
        )
        return cfg.fig_two_ovoids_point(o, p, split, gens)
    if name == "fig7":
        pentad = (
            _parse_groups(args.pentad, (5,))[0] if args.pentad else o.points[:5]
        )
        return cfg.fig_pentad(o, pentad, quadric)
    if name == "fig8":
        if args.sextet:
            sextet = _parse_groups(args.sextet, (6,))[0]
        else:
            triple = tuple(word_to_point(w) for w in ("ZIIX", "XZXI", "XXXX"))
            sextet = o.complement_in(triple) if all(t in o for t in triple) \
                else o.points[:6]
        return cfg.fig_sextet(o, sextet, quadric)
    if name == "fig9":
        p = _parse_point(args.point) if args.point else word_to_point("XXXX")
        nucleus = (
            _parse_point(args.nucleus) if args.nucleus else word_to_point("ZYII")
        )
        return cfg.fig_nuclei_fan(o, p, nucleus)
    if name in ("fig10", "fig11", "heptad-analogue"):
        if args.pair:
            (p1, p2), = _parse_groups(args.pair, (2,))
        else:
            p1, p2 = word_to_point("ZZIZ"), word_to_point("IXXZ")
            if p1 not in o or p2 not in o:
                p1, p2 = o.points[:2]
        report = cfg.heptad_analogue(o, p1, p2)
        report.name = name
        return report
    if name == "heptad-family":
        if args.pairs:
            groups = tuple(
                tuple(_parse_point(t) for t in g.split(","))
                for g in args.pairs.split("/")
            )
        elif args.kind == "quadrangle":
            groups = _quadrangle_pairs(o)
        else:
            groups = _triangle_pairs(o)
        return cfg.heptad_family(o, groups, gens)
    if name == "split63":
        p = _parse_point(args.point) if args.point else word_to_point("XXXX")
        return cfg.sixty_three_split(pg.get_ovoids(ctx), o, p)
    raise UsageError(f"unknown configuration {name!r}; choose from "
                     + ", ".join(_CONFIG_NAMES))


def cmd_config(args) -> int:
    report = _build_config(args)
    if args.format == "json":
        text = report.to_json() + "\n"
    elif args.format == "dot":
        text = report.to_dot(args.line_style)
    else:
        roles = ", ".join(f"{k}:{v}" for k, v in sorted(report.roles().items()))
        lines = [
            f"name: {report.name}",
            f"points: {len(report.points)} ({roles})",
            f"lines: {len(report.lines)}",
        ]
        for k in sorted(report.annotations):
            lines.append(f"{k}: {report.annotations[k]}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0


def cmd_map(token: str, n: int) -> int:
    token = token.strip()
    if set(token) <= {"0", "1"} and len(token) > 2:
        v = gf2_core.from_string(token)
        if len(token) != 2 * n:
            raise UsageError(f"coordinate string must have {2 * n} bits")
        if v == 0:
            raise UsageError("the zero vector is not a projective point")
        word = point_to_word(v, n)
    else:
        word = pauli_codec.validate_word(token.upper(), n)
        v = word_to_point(word)
    cls = "symmetric" if pauli_codec.is_symmetric(word) else "skew"
    print(f"word:   {word}")
    print(f"coords: {gf2_core.to_string(v, 2 * n)}")
    print(f"class:  {cls}")
    if n == 4:
        print(f"edge:   {gf2_core.to_string(gf2_core.standard_to_edge(v), 8)}")
    return 0


def cmd_oracle_check(n: int) -> int:
    stats = matrix_oracle.check_agreement(n)
    print(
        f"n={n}: symmetry on {stats['words']} words, commutation on "
        f"{stats['commutation_pairs']} pairs, products on "
        f"{stats['product_pairs']} pairs: all agree"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauligeom",
        description="Finite-geometry model of the real N-qubit Pauli group",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--n", type=int, default=4, choices=(2, 3, 4))
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--no-timings", action="store_true",
                          help="omit the ms column (for byte comparisons)")

    p_enum = sub.add_parser("enumerate", help="dump objects in canonical order")
    p_enum.add_argument("what",
                        choices=("ovoids", "generators", "tetrads", "heptads"))
    p_enum.add_argument("--n", type=int, default=4, choices=(2, 3, 4))
    p_enum.add_argument("--space", choices=("symplectic", "quadric"),
                        default="symplectic")
    p_enum.add_argument("--through-point",
                        help="keep only ovoids through this word/coords")
    p_enum.add_argument("--dedup", action="store_true",
                        help="tetrads: dedup globally over all 960 ovoids")
    p_enum.add_argument("--ovoid", default="Ostar",
                        help='nine comma-separated words or "Ostar"')
    p_enum.add_argument("--output", help="write to file instead of stdout")

    p_cfg = sub.add_parser("config", help="extract a named configuration")
    p_cfg.add_argument("name", metavar="name",
                       help="one of: " + ", ".join(_CONFIG_NAMES))
    p_cfg.add_argument("--ovoid", default="Ostar")
    p_cfg.add_argument("--format", choices=("text", "json", "dot"),
                       default="json")
    p_cfg.add_argument("--line-style", choices=("clique", "node"),
                       default="clique", help="DOT rendering of 3-point lines")
    p_cfg.add_argument("--partition", help="three point triples a,b,c/d,e,f/g,h,i")
    p_cfg.add_argument("--triple", help="three points a,b,c")
    p_cfg.add_argument("--pentad", help="five points")
    p_cfg.add_argument("--sextet", help="six points")
    p_cfg.add_argument("--split", help="two point quadruples a,b,c,d/e,f,g,h")
    p_cfg.add_argument("--pair", help="two points a,b")
    p_cfg.add_argument("--pairs", help="point pairs a,b/c,d/...")
    p_cfg.add_argument("--kind", choices=("triangle", "quadrangle"),
                       default="triangle")
    p_cfg.add_argument("--point", help="distinguished point (word or coords)")
    p_cfg.add_argument("--nucleus", help="distinguished nucleus (word or coords)")
    p_cfg.add_argument("--output")

    p_map = sub.add_parser("map", help="convert between word and coordinates")
    p_map.add_argument("token", help="a Pauli word or a 0/1 coordinate string")
    p_map.add_argument("--n", type=int, default=4, choices=(2, 3, 4))

    p_oracle = sub.add_parser("oracle-check",
                              help="cross-check the word algebra against matrices")
    p_oracle.add_argument("--n", type=int, default=4, choices=(2, 3, 4))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            report = cmd_verify(args.n, args.level)
            if args.format == "json":
                print(json.dumps(
                    report.to_json_dict(include_ms=not args.no_timings), indent=2
                ))
            else:
                sys.stdout.write(report.to_text(show_ms=not args.no_timings))
            return 0 if report.overall_pass else 1
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "config":
            return cmd_config(args)
        if args.command == "map":
            return cmd_map(args.token, args.n)
        if args.command == "oracle-check":
            return cmd_oracle_check(args.n)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
