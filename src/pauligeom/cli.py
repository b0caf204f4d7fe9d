"""Command-line driver: verification suite, enumeration dumps, configs.

Exit codes: 0 all good, 1 verification failure, 2 usage error or output
that cannot be written (a full disk, a closed pipe).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys

from . import configurations as cfg
from . import gf2_core, matrix_oracle, pauli_codec, verify
from . import polar_geometry as pg
from .errors import UsageError
from .pauli_codec import GeometryContext, join_words, point_to_word, word_to_point


def cmd_verify(n: int, level: str) -> verify.VerificationReport:
    """Run the verification table for a rank and level."""
    return verify.VerificationReport(n, level, verify.run_checks(verify.checks(n, level)))


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


def _parse_point(token: str, n: int = 4) -> int:
    """A point of rank `n`, given as a word or as 2n coordinate bits."""
    token = token.strip()
    if set(token) <= {"0", "1"} and len(token) > 2:
        v = gf2_core.from_string(token)
        if len(token) != 2 * n:
            raise UsageError(f"coordinate string must have {2 * n} bits")
        if v == 0:
            raise UsageError("the zero vector is not a projective point")
        return v
    return word_to_point(pauli_codec.validate_word(token.upper(), n))


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


def _write_output(text: str, path: str | None) -> None:
    """Write finished command output to `path`, or to stdout without one.

    An OS error opening or writing `path` is a usage error (exit 2)."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def cmd_enumerate(args) -> int:
    _write_output("".join(line + "\n" for line in _enumeration_lines(args)),
                  args.output)
    return 0


def _enumeration_lines(args) -> list[str]:
    n = args.n
    ctx = GeometryContext(n)
    if args.what == "generators":
        gens = pg.get_generators(ctx, args.space)
        lines = [join_words(sorted(gf2_core.span_points(b)), n) for b in gens.bases]
        if gens.families is not None:
            lines = [f"{w}\tfamily={fam}" for w, fam in zip(lines, gens.families)]
        return lines
    if args.what == "heptads":
        if n == 3:
            return [join_words(h, 3)
                    for h in sorted(tuple(sorted(x)) for x in pg.conwell_heptads(ctx))]
        if n != 4:
            raise UsageError("heptads enumeration needs --n 3 or --n 4")
        o = _resolve_ovoid(args.ovoid, pg.get_generators(ctx, "quadric"))
        return [f"{join_words((p1, p2))}\t{join_words(cfg.nuclei_heptad(o, p1, p2))}"
                for p1, p2 in itertools.combinations(o.points, 2)]
    if n != 4:
        raise UsageError(f"{args.what} enumeration needs --n 4")
    gens = pg.get_generators(ctx, "quadric")
    if args.what == "ovoids":
        ovoids = pg.get_ovoids(ctx)
        if args.through_point:
            p = _parse_point(args.through_point)
            if not gens.quadric.contains(p):
                raise UsageError(f"point {point_to_word(p, 4)} is not on the quadric")
            ovoids = pg.ovoids_through(ovoids, p)
        return [join_words(o.points) for o in ovoids]
    if args.what == "tetrads":
        if args.dedup:
            tetrads = map(pg.Tetrad, pg.tetrad_census(pg.get_ovoids(ctx)))
        else:
            o = _resolve_ovoid(args.ovoid, gens)
            tetrads = (pg.tetrad_of_partition(o, part, gens.quadric)
                       for part in pg.triple_partitions(o))
        return [";".join(map(join_words, lines))
                for lines in sorted(t.lines for t in tetrads)]
    raise UsageError(f"unknown enumeration target {args.what!r}")


# Each `config` choice flag: its help, and how it parses into points.
_CHOICE_FLAGS = {
    "partition": ("three point triples a,b,c/d,e,f/g,h,i",
                  lambda t: _parse_groups(t, (3, 3, 3))),
    "triple": ("three points a,b,c", lambda t: _parse_groups(t, (3,))[0]),
    "pentad": ("five points", lambda t: _parse_groups(t, (5,))[0]),
    "sextet": ("six points", lambda t: _parse_groups(t, (6,))[0]),
    "split": ("two point quadruples a,b,c,d/e,f,g,h", lambda t: _parse_groups(t, (4, 4))),
    "pair": ("two points a,b", lambda t: _parse_groups(t, (2,))[0]),
    "pairs": ("point pairs a,b/c,d/...",
              lambda t: tuple(tuple(map(_parse_point, g.split(","))) for g in t.split("/"))),
    "kind": ("heptad-family's shape", str),
    "point": ("distinguished point (word or coords)", _parse_point),
    "nucleus": ("distinguished nucleus (word or coords)", _parse_point),
}


def _build_config(args) -> cfg.ConfigReport:
    gens = pg.get_generators(GeometryContext(4), "quadric")
    o = _resolve_ovoid(args.ovoid, gens)
    # Parse only the flags the figure takes; `figure` names any other one.
    takes = cfg.FIGURES[args.name][1] if args.name in cfg.FIGURES else {}
    choices = {k: parse(token) if k in takes else token
               for k, (_, parse) in _CHOICE_FLAGS.items()
               if (token := getattr(args, k)) is not None}
    return cfg.figure(args.name, o, gens, **choices)


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
    v = _parse_point(token, n)
    word = point_to_word(v, n)
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
                       help="one of: " + ", ".join(cfg.FIGURES))
    p_cfg.add_argument("--ovoid", default="Ostar")
    p_cfg.add_argument("--format", choices=("text", "json", "dot"),
                       default="json")
    p_cfg.add_argument("--line-style", choices=("clique", "node"),
                       default="clique", help="DOT rendering of 3-point lines")
    for k, (text, _) in _CHOICE_FLAGS.items():
        p_cfg.add_argument(f"--{k}", help=text,
                           choices=("triangle", "quadrangle") if k == "kind" else None)
    p_cfg.add_argument("--output")

    p_map = sub.add_parser("map", help="convert between word and coordinates")
    p_map.add_argument("token", help="a Pauli word or a 0/1 coordinate string")
    p_map.add_argument("--n", type=int, default=4, choices=(2, 3, 4))

    p_oracle = sub.add_parser("oracle-check",
                              help="cross-check the word algebra against matrices")
    p_oracle.add_argument("--n", type=int, default=4, choices=(2, 3, 4))
    return parser


def _run(args) -> int:
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


def _buffered_stdout():
    """Stdout, with a buffer in front of it where it writes straight to the file.

    Under PYTHONUNBUFFERED (or `-u`) the text layer sits on a raw `FileIO`
    and drops, without an error, what a short write to a pipe leaves over.
    A `BufferedWriter` writes that rest again, so a closed pipe raises
    `BrokenPipeError` as it does by default.  It has its own `FileIO` on
    the same descriptor, so closing it leaves `sys.stdout` open.
    """
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.FileIO):
        return out
    return io.TextIOWrapper(io.BufferedWriter(io.FileIO(raw.fileno(), "w", closefd=False)),
                            encoding=out.encoding, errors=out.errors)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    stdout = _buffered_stdout()
    try:
        with contextlib.redirect_stdout(stdout):
            code = _run(args)
        stdout.flush()  # buffered output fails here, not at interpreter exit
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Stdout cannot take the rest: point it at devnull so that the flush
        # at exit does not fail again (the `signal` docs' "Note on SIGPIPE").
        # A closed pipe is the reader's choice (`| head`), so it ends quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
