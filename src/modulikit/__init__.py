"""Weight gradings, covariant connection data, chain-quiver invariants,
and Jordan triple spectral tools for complex matrix groups."""

from . import connection, errors, jordan, jsonio, linalg, quiver, selftest, weights
from .connection import (
    CheckReport,
    ConnectionData,
    FrameTuple,
    PurityResult,
    PurityWitness,
    gauge,
    involution,
    is_hermitian,
    is_pure,
    validate_covariance,
)
from .jordan import (
    ConstantField,
    QuadraticField,
    SpectralDecomposition,
    are_orthogonal,
    field_bracket,
    is_tripotent,
    quadratic_field,
    reconstruct,
    spectral,
    triple_product,
)
from .linalg import (
    commutator,
    hermitian_sqrt,
    is_unitary,
    lie_sharp,
    sharp,
)
from .quiver import (
    Arrow,
    DoubleQuiver,
    DoubleQuiverRep,
    EquivalenceCertificate,
    InvariantVector,
    Quiver,
    chain_quiver,
    double,
    enumerate_cycles,
    equivalence_certificate,
    from_connection,
    gauge_action,
    invariants,
    moment_map,
    to_connection,
)
from .weights import (
    Chain,
    ChainDecomposition,
    WeightBlock,
    WeightData,
    WeightDecomposition,
    chains,
    commutant_contains,
    commutant_dim,
    decompose,
    f_of,
    sample_commutant,
)

__version__ = "0.1.0"

# The public names are exactly the modules and names imported above.
__all__ = sorted(name for name in globals() if not name.startswith("_"))
