"""Spans and counts around pauligeom's layer entry points, from outside.

`install` replaces each entry point, wherever a pauligeom module binds it,
with a wrapper that records a span (name, start, end, parent span, op id)
or bumps a counter.  Rebinding every module that holds the function
catches callers that imported it by name: `polar_geometry` looks up its
own `echelon`, `configurations` its own `point_to_word`.  Entry points a
later version no longer has are skipped, so their metrics read 0.

`layer_metrics` turns one process's spans and counts into the per-layer
metrics.  A `.ms` metric is self time: a span's duration minus what its
child spans cover, summed over the spans of that layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PG = "pauligeom.polar_geometry"
CFG = "pauligeom.configurations"

SECTIONS = ("pentad_intersection", "sextet_intersection", "heptad_intersection",
            "second_ovoid_on_conic", "six_ovoid_family", "conwell_heptads")
BUILDERS = ("fig_secants", "fig_conic_partition", "fig_two_ovoids_conic",
            "fig_six_ovoids", "fig_commutation", "fig_two_ovoids_point",
            "fig_pentad", "fig_sextet", "fig_nuclei_fan", "nuclei_fan_structure",
            "heptad_analogue", "heptad_family", "sixty_three_split")

# (module, attribute, span name); a dotted attribute is a method.
SPANS = [
    ("pauligeom.cli", "main", "cli.main"),
    ("pauligeom.cli", "cmd_verify", "cli.cmd_verify"),
    ("pauligeom.cli", "cmd_enumerate", "cli.cmd_enumerate"),
    ("pauligeom.cli", "cmd_config", "cli.cmd_config"),
    ("pauligeom.cli", "cmd_map", "cli.cmd_map"),
    ("pauligeom.matrix_oracle", "check_agreement", "matrix_oracle.check_agreement"),
    (PG, "_perp_masks", "polar_geometry.perp_fill"),
    (PG, "enumerate_generators", "polar_geometry.enumerate_generators"),
    (PG, "get_generators", "polar_geometry.generator_cache"),
    (PG, "enumerate_ovoids", "polar_geometry.enumerate_ovoids"),
    (PG, "get_ovoids", "polar_geometry.ovoid_cache"),
    (PG, "tetrad_census", "polar_geometry.tetrad_census"),
    (PG, "pairwise_intersection_sizes", "polar_geometry.pairwise_intersection_sizes"),
    *((PG, f, "polar_geometry.sections") for f in SECTIONS),
    *((CFG, f, "configurations.builders") for f in BUILDERS),
    (CFG, "ConfigReport.to_json", "configurations.serialize"),
    (CFG, "ConfigReport.to_json_dict", "configurations.serialize"),
    (CFG, "ConfigReport.to_dot", "configurations.serialize"),
]

# (module, attribute, counter name): calls too frequent for a span each.
COUNTERS = [
    ("pauligeom.matrix_oracle", "realize", "matrix_oracle.realize.calls"),
    ("pauligeom.gf2_core", "echelon", "gf2_core.echelon.calls"),
    ("pauligeom.pauli_codec", "point_to_word", "pauli_codec.point_to_word.calls"),
    (PG, "is_ovoid", "polar_geometry.is_ovoid.calls"),
    ("pauligeom.pauli_codec", "GeometryContext.perp_mask", "perp_mask.calls"),
]

# A cache span is a miss when its fill ran inside it: the watched
# counter moved while the span was open.
WATCH = {
    "polar_geometry.perp_fill": "perp_mask.calls",
    "polar_geometry.generator_cache": "polar_geometry.enumerate_generators",
    "polar_geometry.ovoid_cache": "polar_geometry.enumerate_ovoids",
}

# Sizes taken from a span's return value.
RESULT_COUNTS = {
    "polar_geometry.enumerate_generators": ("polar_geometry.enumerate_generators.flats", len),
    "polar_geometry.enumerate_ovoids": ("polar_geometry.enumerate_ovoids.cliques", len),
    "polar_geometry.tetrad_census": ("polar_geometry.tetrad_census.keys", len),
    "polar_geometry.pairwise_intersection_sizes": (
        "polar_geometry.pairwise_intersection_sizes.pairs", lambda c: sum(c.values())),
    "matrix_oracle.check_agreement": (
        "matrix_oracle.products_checked", lambda s: s["product_pairs"]),
}

FILLS = ("polar_geometry.perp_fill", "polar_geometry.enumerate_generators",
         "polar_geometry.enumerate_ovoids")

# Per-layer metrics in report order, with units.
LAYER_METRICS = {
    "matrix_oracle.check_agreement.ms": "ms",
    "matrix_oracle.realize.calls": "count",
    "matrix_oracle.products_checked": "count",
    "polar_geometry.perp_fill.ms": "ms",
    "polar_geometry.perp_fill.misses": "count",
    "polar_geometry.enumerate_generators.ms": "ms",
    "polar_geometry.enumerate_generators.flats": "count",
    "gf2_core.echelon.calls": "count",
    "polar_geometry.generator_cache.hits": "count",
    "polar_geometry.generator_cache.misses": "count",
    "polar_geometry.enumerate_ovoids.ms": "ms",
    "polar_geometry.enumerate_ovoids.cliques": "count",
    "polar_geometry.is_ovoid.calls": "count",
    "polar_geometry.ovoid_cache.hits": "count",
    "polar_geometry.ovoid_cache.misses": "count",
    "polar_geometry.pool.spawns": "count",
    "polar_geometry.tetrad_census.ms": "ms",
    "polar_geometry.tetrad_census.keys": "count",
    "polar_geometry.pairwise_intersection_sizes.ms": "ms",
    "polar_geometry.pairwise_intersection_sizes.pairs": "count",
    "polar_geometry.sections.ms": "ms",
    "polar_geometry.sections.calls": "count",
    "configurations.builders.ms": "ms",
    "configurations.builders.calls": "count",
    "configurations.serialize.ms": "ms",
    "pauli_codec.point_to_word.calls": "count",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.verify.fill_ms": "ms",
    "cli.verify.check_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        # span: [name, start_s, end_s, parent index or -1, op id, watched delta]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        watch = WATCH.get(name)
        sized = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            counts[name] += 1
            before = counts[watch] if watch else 0
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if watch:
                rec[5] = counts[watch] - before
            if sized:
                try:
                    counts[sized[0]] += sized[1](result)
                except (TypeError, KeyError):  # a later return type: count nothing
                    pass
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every entry point in the imported pauligeom modules."""
        undo = [_rebind(module, attr, lambda fn, name=name: self._span(name, fn))
                for module, attr, name in SPANS]
        undo += [_rebind(module, attr, lambda fn, name=name: self._counter(name, fn))
                 for module, attr, name in COUNTERS]
        pg = sys.modules.get(PG)
        pool = getattr(pg, "ProcessPoolExecutor", None)
        if pool is not None:
            counts = self.counts

            class CountedPool(pool):
                def __init__(self, *args, **kwargs):
                    counts["polar_geometry.pool.spawns"] += 1
                    super().__init__(*args, **kwargs)

            _replace_everywhere(pool, CountedPool)
            undo.append(lambda: _replace_everywhere(CountedPool, pool))
        self._undo = [u for u in undo if u is not None]

    def uninstall(self):
        """Put back every entry point `install` wrapped."""
        for undo in reversed(self._undo):
            undo()
        self._undo = []


def _rebind(module: str, attr: str, wrap):
    """Wrap one entry point; returns how to put it back, or None if the
    module or the entry point is absent."""
    mod = sys.modules.get(module)
    if mod is None:
        return None
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        if cls is None or meth not in vars(cls):
            return None
        fn = vars(cls)[meth]
        setattr(cls, meth, wrap(fn))
        return lambda: setattr(cls, meth, fn)
    fn = getattr(mod, attr, None)
    if fn is None:
        return None
    new = wrap(fn)
    _replace_everywhere(fn, new)
    return lambda: _replace_everywhere(new, fn)


def _replace_everywhere(old, new) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "pauligeom" or name.startswith("pauligeom."):
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def layer_metrics(spans, counts, import_ms: float = 0.0) -> dict[str, float]:
    """Per-layer metrics of one traced process (all but trace.overhead_pct)."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ms[s[3]] += (s[2] - s[1]) * 1000.0
    self_ms: Counter = Counter()
    hits: Counter = Counter()
    misses: Counter = Counter()
    fill_ms = check_ms = 0.0
    for i, s in enumerate(spans):
        name, dur = s[0], (s[2] - s[1]) * 1000.0
        self_ms[name] += dur - child_ms[i]
        if name in WATCH:
            (misses if s[5] else hits)[name] += 1
        if name == "cli.cmd_verify":
            check_ms += dur
        elif name in FILLS and _outermost_fill_in_verify(spans, s):
            fill_ms += dur
    out = {k: 0.0 for k in LAYER_METRICS}
    for k in RESULT_COUNTS.values():
        out[k[0]] = counts[k[0]]
    for _, _, name in COUNTERS:
        if name in out:
            out[name] = counts[name]
    out.update({
        "matrix_oracle.check_agreement.ms": self_ms["matrix_oracle.check_agreement"],
        "polar_geometry.perp_fill.ms": self_ms["polar_geometry.perp_fill"],
        "polar_geometry.perp_fill.misses": misses["polar_geometry.perp_fill"],
        "polar_geometry.enumerate_generators.ms":
            self_ms["polar_geometry.enumerate_generators"],
        "polar_geometry.generator_cache.hits": hits["polar_geometry.generator_cache"],
        "polar_geometry.generator_cache.misses":
            misses["polar_geometry.generator_cache"],
        "polar_geometry.enumerate_ovoids.ms": self_ms["polar_geometry.enumerate_ovoids"],
        "polar_geometry.ovoid_cache.hits": hits["polar_geometry.ovoid_cache"],
        "polar_geometry.ovoid_cache.misses": misses["polar_geometry.ovoid_cache"],
        "polar_geometry.pool.spawns": counts["polar_geometry.pool.spawns"],
        "polar_geometry.tetrad_census.ms": self_ms["polar_geometry.tetrad_census"],
        "polar_geometry.pairwise_intersection_sizes.ms":
            self_ms["polar_geometry.pairwise_intersection_sizes"],
        "polar_geometry.sections.ms": self_ms["polar_geometry.sections"],
        "polar_geometry.sections.calls": counts["polar_geometry.sections"],
        "configurations.builders.ms": self_ms["configurations.builders"],
        "configurations.builders.calls": counts["configurations.builders"],
        "configurations.serialize.ms": self_ms["configurations.serialize"],
        "cli.import_ms": import_ms,
        "cli.main.self_ms": sum(v for k, v in self_ms.items() if k.startswith("cli.")),
        "cli.verify.fill_ms": fill_ms,
        "cli.verify.check_ms": check_ms - fill_ms,
    })
    return {k: float(v) for k, v in out.items()}


def _outermost_fill_in_verify(spans, s) -> bool:
    """A fill span inside `cli.cmd_verify` with no fill span above it."""
    parent = s[3]
    while parent >= 0:
        name = spans[parent][0]
        if name in FILLS:
            return False
        if name == "cli.cmd_verify":
            return True
        parent = spans[parent][3]
    return False
