"""Output checks.  Each returns None when the output is right, else a
one-line reason; any wrong exit code is a failure too, since every
generated input is valid.

The checks hold for any seed: they compare against closed forms and the
independent objects in `reference.py`, never against a stored digest,
so a later change may add or reword verify rows, but not drop one.
"""

from __future__ import annotations

import json

import reference as ref

# The check names `verify` printed at the commit that defined this
# benchmark; every one must still be present and pass.
VERIFY_COMMON = [
    "points_total", "quadric_points", "off_quadric_points",
    "symmetry_matches_quadric", "symplectic_generators",
    "symplectic_generator_sizes", "quadric_generators",
    "quadric_generator_families", "oracle_agreement",
]
VERIFY_ROWS = {
    2: VERIFY_COMMON + ["regulus_families"],
    3: VERIFY_COMMON + ["conwell_heptads"],
    4: VERIFY_COMMON + [
        "edge_map_bijection", "edge_ovoid_rows_mapped", "ostar_is_ovoid",
        "ovoid_total", "ovoids_through_each_point", "ostar_census_36_84",
        "random_ovoid_censuses", "axes_and_tetrads", "solid_extra_points",
        "point_partition_lines", "two_ovoid_census", "pentad_cones",
        "sextet_sections", "reference_sextet_nucleus", "heptad_sections",
        "nuclei_fans", "fan_concurrence_point", "heptad_analogues",
        "heptad_families", "commutation_profiles", "figure_reports",
        "conwell_heptads_rank3",
    ],
}
VERIFY_FULL_ROWS = ["tetrad_dedup_global", "pairwise_intersection_law"]


def check_op(op, returncode: int, stdout: str, r4: ref.Rank4):
    """Check one CLI command's exit code and output."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return _CHECKS[op.kind](stdout, r4=r4, **op.expect)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def check_verify(out: str, n: int, level: str, **_):
    lines = out.rstrip("\n").split("\n")
    if not lines[-1].startswith("overall: PASS"):
        return f"last line is {lines[-1]!r}"
    rows = {}
    for line in lines[2:-1]:
        cells = [c.strip() for c in line.split("|")]
        rows[cells[0]] = cells[3]
    want = VERIFY_ROWS[n] + (VERIFY_FULL_ROWS if n == 4 and level == "full" else [])
    missing = [name for name in want if name not in rows]
    if missing:
        return f"verify rows missing: {missing}"
    failed = [name for name, status in rows.items() if status != "pass"]
    return f"verify rows not passing: {failed}" if failed else None


def check_map(out: str, point: int, **_):
    got = dict(line.split(":", 1) for line in out.strip().split("\n"))
    word = ref.point_to_word(point)
    want = {"word": word, "coords": ref.coords(point),
            "class": "symmetric" if ref.is_symmetric(word) else "skew"}
    for key, value in want.items():
        if got.get(key, "").strip() != value:
            return f"map {key}: {got.get(key)!r} != {value!r}"
    edge = got.get("edge", "").strip()
    if len(edge) != 8 or set(edge) - {"0", "1"}:
        return f"map edge {edge!r} is not 8 bits"
    return None


def _points(csv: str) -> list[int]:
    return [ref.word_to_point(w) for w in csv.split(",")]


def check_generators(out: str, space: str, n: int, r4: ref.Rank4, **_):
    """All of them: the closed-form number of distinct maximal totally
    isotropic (symplectic) or totally singular (quadric) subspaces."""
    rows = [line.split("\t") for line in out.strip().split("\n")]
    want = ref.generator_count(space, n)
    if len(rows) != want:
        return f"{len(rows)} {space} generators for n={n}, expected {want}"
    perp = r4.perp if n == 4 else [ref.perp_mask(p, n) for p in range(1 << 2 * n)]
    masks, families = [], []
    for row in rows:
        pts = _points(row[0])
        if len(set(pts)) != 2**n - 1 or not ref.is_subspace(pts):
            return f"generator {row[0]} is not a {n}-dimensional subspace"
        m = sum(1 << p for p in pts)
        if any(m & ~perp[p] for p in pts):
            return f"generator {row[0]} is not totally isotropic"
        if space == "quadric":
            if any(ref.quadratic(p, n) for p in pts):
                return f"generator {row[0]} leaves the quadric"
            families.append(int(row[1].removeprefix("family=")))
        masks.append(m)
    if len(set(masks)) != want:
        return "generators repeat"
    if space == "quadric":
        if families.count(0) != families.count(1):
            return "generator families are not equal halves"
        # same family iff the intersection's dimension has the parity of n
        for m, fam in zip(masks, families):
            dim = (m & masks[0]).bit_count().bit_length()
            if (fam == families[0]) != ((dim - n) % 2 == 0):
                return "generator family labels are inconsistent"
    return None


def check_ovoids_through(out: str, point: int, r4: ref.Rank4, **_):
    """The 64 ovoids through the point, each meeting every generator once."""
    rows = out.strip().split("\n")
    got = {tuple(sorted(_points(line))) for line in rows}
    want = {o for o in r4.ovoids if point in o}
    if len(rows) != 64 or len(want) != 64 or got != want:
        return f"{len(rows)} ovoids listed through {ref.point_to_word(point)}, expected 64"
    if not all(r4.is_ovoid(o) for o in got):
        return "a listed ovoid misses some generator"
    return None


def check_tetrads(out: str, ovoid, **_):
    """The 280 tetrads of the ovoid: per partition into conics, the three
    off-quadric plane lines and the axis of nuclei."""
    want = set()
    for part in ref.triple_partitions(ovoid):
        lines = [tuple(sorted((a ^ b, a ^ c, b ^ c))) for a, b, c in part]
        lines.append(tuple(sorted(a ^ b ^ c for a, b, c in part)))
        want.add(frozenset(lines))
    got = set()
    for row in out.strip().split("\n"):
        lines = [tuple(sorted(_points(line))) for line in row.split(";")]
        pts = [p for line in lines for p in line]
        if len(lines) != 4 or len(set(pts)) != 12 or ref.gf2_rank(pts) != 8:
            return f"tetrad {row} is not four skew lines spanning the space"
        if any(a ^ b ^ c for a, b, c in lines) or any(ref.quadratic(p) == 0 for p in pts):
            return f"tetrad {row} has a non-line or a quadric point"
        got.add(frozenset(lines))
    if len(got) != 280 or got != want:
        return f"{len(got)} tetrads listed, not the ovoid's 280"
    return None


def check_config(out: str, name: str, format: str, points: int, **_):
    if format == "json":
        return check_report(json.loads(out), name, points)
    if format == "text":
        head = dict(line.split(": ", 1) for line in out.strip().split("\n"))
        count = int(head["points"].split(" ", 1)[0])
        if head["name"] != name or count != points:
            return f"text report {head['name']} has {count} points, expected {points}"
        return None
    lines = out.strip().split("\n")
    nodes = [line for line in lines if "shape=circle" in line or "shape=hexagon" in line]
    if lines[0] != f'graph "{name}" {{' or lines[-1] != "}" or len(nodes) != points:
        return f"dot graph {lines[0]!r} has {len(nodes)} nodes, expected {points}"
    for line in nodes:
        word = line.split('"')[1]
        if ("shape=circle" in line) != ref.is_symmetric(word):
            return f"dot node {word} has the wrong shape"
    return None


def check_report(doc: dict, name: str, points: int, **_):
    """A configuration's JSON: name, point count, each point's coordinates,
    word and class, and every listed line summing to zero."""
    if doc["name"] != name or len(doc["points"]) != points:
        return f"report {doc['name']} has {len(doc['points'])} points, expected {points}"
    values = []
    for p in doc["points"]:
        v = int(p["coords"], 2)
        cls = "symmetric" if ref.is_symmetric(p["word"]) else "skew"
        if v == 0 or ref.point_to_word(v) != p["word"] or p["class"] != cls:
            return f"report point {p} is inconsistent"
        values.append(v)
    for i, j, k in doc["lines"]:
        if values[i] ^ values[j] ^ values[k]:
            return f"report line {i},{j},{k} does not sum to zero"
    return None


_CHECKS = {
    "verify": check_verify,
    "map": check_map,
    "generators": check_generators,
    "ovoids": check_ovoids_through,
    "tetrads": check_tetrads,
    "config": check_config,
}
