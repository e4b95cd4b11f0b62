"""Regular polyhedra and regular maps over finite rings.

The pipeline: pick parameters (x, y) in a finite ring (or specialize a
catalog entry), build the universal rotation matrices, close them into a
finite matrix group, and read off the regular map: (p, q), vertex/edge/face
counts, genus, group identification, and dart permutations.
"""

from .catalog import (
    CATALOG,
    BadPrimeReport,
    NamedPolyhedron,
    TilingClass,
    bad_primes,
    classify_pq,
    platonic_params,
    specialize,
)
from .errors import PolyffError
from .groupgen import (
    GeneratedGroup,
    GroupFingerprint,
    generate,
    order_spectrum,
    recognize,
)
from .mat3 import Mat3
from .regmap import (
    DartModel,
    RegularMapReport,
    analyze,
    dart_model,
    genus_formula,
    maps_equivalent,
)
from .rings import (
    GaloisField,
    QuadRational,
    Ring,
    RingElem,
    ZMod,
    reduce_quadrational,
    ring_make,
    sqrt_in_field,
)
from .universal import (
    GeneratorSet,
    PolyhedronParams,
    RelationReport,
    make_rhos,
    make_sigmas,
    survey_relations,
    verify_relations,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "BadPrimeReport",
    "DartModel",
    "GaloisField",
    "GeneratedGroup",
    "GeneratorSet",
    "GroupFingerprint",
    "Mat3",
    "NamedPolyhedron",
    "PolyffError",
    "PolyhedronParams",
    "QuadRational",
    "RegularMapReport",
    "RelationReport",
    "Ring",
    "RingElem",
    "TilingClass",
    "ZMod",
    "analyze",
    "bad_primes",
    "classify_pq",
    "dart_model",
    "generate",
    "genus_formula",
    "make_rhos",
    "make_sigmas",
    "maps_equivalent",
    "order_spectrum",
    "platonic_params",
    "recognize",
    "reduce_quadrational",
    "ring_make",
    "specialize",
    "sqrt_in_field",
    "survey_relations",
    "verify_relations",
]
