"""Finite-dimensional modular operator toolkit.

Numerical machinery for the standard form of the d x d matrix algebra:
the operator-vector (vec) correspondence, Schmidt decomposition, modular
and relative modular operators with their flow and cocycle, the Gibbs/KMS
worked example, the natural positive cone, and a verifier kernel for the
Powers-Stormer family of trace inequalities.
"""

from .cone import (
    ConeElement,
    cone_contains,
    cone_pairing,
    decompose_general,
    decompose_j_fixed,
)
from .errors import (
    BadBeta,
    BadExponent,
    DimensionMismatch,
    DomainError,
    ModkitError,
    NotHermitian,
    NotJFixed,
    NotPSD,
    NotSquare,
    OrderViolation,
    OutsideStrip,
    ParseError,
    ShapeMismatch,
    SingularState,
    UnknownSuite,
    UsageError,
    ZeroVector,
)
from .inequalities import (
    InequalityReport,
    MONOTONE_FUNCTIONS,
    MonotoneFunction,
    hoa_generalized,
    norm_sandwich,
    ogata_modular,
    ozawa_s,
    phillips,
    powers_stormer,
)
from .kms import (
    GibbsSystem,
    centralizer_dimension,
    gibbs_hamiltonian,
    heisenberg_evolve,
    kms_function,
)
from .linalg import (
    SpectralDecomposition,
    check_psd,
    schatten_norm,
    spectral_decomposition,
    trace_norm,
)
from .modular import (
    connes_cocycle,
    modular_conjugation,
    modular_flow,
    relative_f_matrix,
    relative_modular_operator,
    relative_modular_power,
    relative_modular_unitary,
    relative_s_matrix,
    verify_tomita_takesaki,
)
from .schmidt import SchmidtData, is_cyclic_separating, schmidt_decompose
from .states import (
    DensityMatrix,
    PositiveFunctional,
    functional_distance,
    is_faithful,
    purify,
)
from .vecops import (
    BipartiteVector,
    SuperOperator,
    conjugate_vec,
    partial_trace,
    swap_operator,
    unvec,
    vec,
)

__version__ = "0.1.0"
