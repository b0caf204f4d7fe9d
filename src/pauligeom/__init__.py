"""Finite-geometry model of the real N-qubit Pauli group (N = 2, 3, 4).

The sign-free group is identified with the points of a binary projective
space carrying an alternating form; the symmetric elements fill a
hyperbolic quadric, and for four qubits that quadric is dissected through
its ovoids: secants, conics and nuclei, axes and tetrads, solids, higher
sections, and the external heptads of the rank-3 case.
"""

from .errors import (
    IdentityNotAPointError,
    InternalConsistencyError,
    UsageError,
)
from .gf2_core import (
    edge_to_standard,
    from_string,
    standard_to_edge,
    to_string,
)
from .pauli_codec import (
    GeometryContext,
    commutes,
    is_symmetric,
    point_to_word,
    word_product,
    word_to_point,
)
from .polar_geometry import (
    OSTAR_WORDS,
    GeneratorSet,
    Ovoid,
    OvoidSet,
    Quadric,
    enumerate_generators,
    enumerate_ovoids,
    expected_count,
    get_generators,
    get_ovoids,
    is_ovoid,
    ostar,
    standard_quadric,
)

__all__ = [
    "IdentityNotAPointError",
    "InternalConsistencyError",
    "UsageError",
    "edge_to_standard",
    "from_string",
    "standard_to_edge",
    "to_string",
    "GeometryContext",
    "commutes",
    "is_symmetric",
    "point_to_word",
    "word_product",
    "word_to_point",
    "OSTAR_WORDS",
    "GeneratorSet",
    "Ovoid",
    "OvoidSet",
    "Quadric",
    "enumerate_generators",
    "enumerate_ovoids",
    "expected_count",
    "get_generators",
    "get_ovoids",
    "is_ovoid",
    "ostar",
    "standard_quadric",
]

__version__ = "0.1.0"
