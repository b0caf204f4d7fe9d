"""Seeded inputs for the workloads.

Every input is drawn from the reference objects in `reference.py`, so the
program only ever sees generated inputs, and every one is valid: each
command should exit 0 and each query should succeed.  Both streams come
in shuffled blocks that hold every kind of operation once, and a run
measures whole blocks only, so the mix is uniform over the kinds the
workload names, whatever the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import reference as ref

# Point counts of each figure, for every ovoid and every parameter choice
# drawn below (confirmed over all 960 ovoids).  The reference ovoid O*
# gives the same numbers in `verify`'s figure_reports row.
FIGURE_POINTS = {
    "fig1": 45, "fig2": 21, "fig3": 16, "fig4": 30, "fig5": 29, "fig6": 19,
    "fig7": 11, "fig8": 28, "fig9": 47, "fig10": 65, "fig11": 65,
    "heptad-analogue": 65, "heptad-family/triangle": 40,
    "heptad-family/quadrangle": 29, "split63": 1,
}
CONFIG_NAMES = [f"fig{i}" for i in range(1, 12)] + [
    "heptad-analogue", "heptad-family", "split63"]


@dataclass
class Op:
    """One CLI command, or one in-process query, and what to check."""

    kind: str
    argv: list
    expect: dict


def _words(points, rng=None) -> str:
    pts = list(points)
    if rng is not None:
        rng.shuffle(pts)
    return ",".join(ref.point_to_word(p) for p in pts)


def _config(rng, r4: ref.Rank4, name: str) -> Op:
    o = rng.choice(r4.ovoids)
    fmt = rng.choice(("json", "text", "dot"))
    argv = ["config", name, "--ovoid", _words(o, rng), "--format", fmt]
    p, a, b = rng.sample(o, 3)
    if name == "fig5":
        argv += ["--nucleus", ref.point_to_word(a ^ b)]
    elif name in ("fig6", "split63"):
        argv += ["--point", ref.point_to_word(p)]
    elif name == "fig9":
        argv += ["--point", ref.point_to_word(p), "--nucleus", ref.point_to_word(p ^ a ^ b)]
    elif name in ("fig10", "fig11", "heptad-analogue"):
        argv += ["--pair", _words((a, b))]
    key = "heptad-family/triangle" if name == "heptad-family" else name
    return Op("config", argv, {"name": name, "format": fmt, "points": FIGURE_POINTS[key]})


def cli_session_block(rng: random.Random, r4: ref.Rank4) -> list[Op]:
    """One shuffled block of 25 commands, each kind once: `config` for
    every name, `map` (on a word or on coordinates), `enumerate ovoids`,
    `enumerate tetrads`, `enumerate generators` for both spaces and
    n = 2, 3, 4, and `verify` for n = 2 and n = 3."""
    ops = [_config(rng, r4, name) for name in CONFIG_NAMES]
    v = rng.randrange(1, 256)
    ops.append(Op("map", ["map", rng.choice((ref.point_to_word, ref.coords))(v)],
                  {"point": v}))
    p = rng.choice(r4.quadric_points)
    ops.append(Op("ovoids", ["enumerate", "ovoids", "--through-point",
                             ref.point_to_word(p)], {"point": p}))
    o = rng.choice(r4.ovoids)
    ops.append(Op("tetrads", ["enumerate", "tetrads", "--ovoid", _words(o, rng)],
                  {"ovoid": o}))
    for space, n in itertools.product(("symplectic", "quadric"), (2, 3, 4)):
        ops.append(Op("generators", ["enumerate", "generators", "--space", space,
                                     "--n", str(n)], {"space": space, "n": n}))
    for n in (2, 3):
        ops.append(Op("verify", ["verify", "--n", str(n)], {"n": n, "level": "quick"}))
    rng.shuffle(ops)
    return ops


def cli_session(seed: int, r4: ref.Rank4):
    """Endless seeded stream of command blocks."""
    rng = random.Random(seed)
    while True:
        yield cli_session_block(rng, r4)


VERIFY_FULL = Op("verify", ["verify", "--n", "4", "--level", "full", "--no-timings"],
                 {"n": 4, "level": "full"})


def verify_full(seed: int, r4=None):
    """Endless stream of one-command blocks; the seed only labels the run."""
    return itertools.repeat([VERIFY_FULL])

QUERY_KINDS = ("fig_secants", "fig_conic_partition", "fig_two_ovoids_conic",
               "fig_six_ovoids", "fig_commutation", "fig_two_ovoids_point",
               "fig_pentad", "fig_sextet", "fig_nuclei_fan", "heptad_analogue",
               "heptad_family", "sixty_three_split")


def _query(rng, r4: ref.Rank4, kind: str) -> Op:
    o = rng.choice(r4.ovoids)
    p, a, b = rng.sample(o, 3)
    name = {"heptad_analogue": "fig10", "heptad_family": "heptad-family",
            "sixty_three_split": "split63"}.get(kind, f"fig{QUERY_KINDS.index(kind) + 1}")
    key = name
    if kind in ("fig_conic_partition", "fig_six_ovoids", "fig_commutation"):
        args = {"partition": rng.choice(ref.triple_partitions(o))}
        if kind == "fig_commutation":
            args["skew_center"] = a ^ b
    elif kind == "fig_two_ovoids_conic":
        args = {"triple": tuple(sorted(rng.sample(o, 3)))}
    elif kind == "fig_two_ovoids_point":
        rest = [q for q in o if q != p]
        half = sorted(rng.sample(rest, 4))
        args = {"point": p, "split": (tuple(half), tuple(q for q in rest if q not in half))}
    elif kind in ("fig_pentad", "fig_sextet"):
        args = {"subset": tuple(sorted(rng.sample(o, 5 if kind == "fig_pentad" else 6)))}
    elif kind == "fig_nuclei_fan":
        args = {"point": p, "nucleus": p ^ a ^ b}
    elif kind == "heptad_analogue":
        args = {"pair": (a, b)}
    elif kind == "heptad_family":
        shape = rng.choice(("triangle", "quadrangle"))
        v = rng.sample(o, 3 if shape == "triangle" else 4)
        args = {"pairs": tuple(zip(v, v[1:] + v[:1]))}
        key = f"heptad-family/{shape}"
    elif kind == "sixty_three_split":
        args = {"point": p}
    else:
        args = {}
    return Op(kind, [], {"ovoid": o, "args": args, "name": name,
                         "points": FIGURE_POINTS[key]})


def query_warm(seed: int, r4: ref.Rank4):
    """Endless seeded stream of shuffled blocks of every query kind once."""
    rng = random.Random(seed)
    while True:
        block = [_query(rng, r4, kind) for kind in QUERY_KINDS]
        rng.shuffle(block)
        yield block
