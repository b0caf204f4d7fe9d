"""Finite-geometry model of the real N-qubit Pauli group (N = 2, 3, 4).

The sign-free group is identified with the points of a binary projective
space carrying an alternating form; the symmetric elements fill a
hyperbolic quadric, and for four qubits that quadric is dissected through
its ovoids: secants, conics and nuclei, axes and tetrads, solids, higher
sections, and the external heptads of the rank-3 case.

The names below are imported from their modules on first use (PEP 562),
so that importing the package, or one of its modules, loads only the
modules it needs.
"""

import importlib

# Each re-exported name, by the module that defines it.
_EXPORTS = {
    "errors": ("IdentityNotAPointError", "InternalConsistencyError", "UsageError"),
    "gf2_core": ("edge_to_standard", "from_string", "standard_to_edge", "to_string"),
    "pauli_codec": ("GeometryContext", "commutes", "is_symmetric", "point_to_word",
                    "word_product", "word_to_point"),
    "polar_geometry": ("OSTAR_WORDS", "GeneratorSet", "Ovoid", "OvoidSet", "Quadric",
                       "enumerate_generators", "enumerate_ovoids", "expected_count",
                       "get_generators", "get_ovoids", "is_ovoid", "ostar",
                       "standard_quadric"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
