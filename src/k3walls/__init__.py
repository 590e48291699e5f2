"""Exact wall-and-chamber numerics for degree-k elliptic K3 surfaces.

Lattice pairings, central-ray walls, destabilization-type strata and their
dimensions, a displacement-tableau oracle for the pencil-adjusted
Brill-Noether numbers rho_k, and elliptic-chain ramification bookkeeping that
re-checks its own closed form against the classical rho.
"""

from .errors import DomainError, OracleViolation, SearchBudgetExceeded
from .lattice import (
    MukaiVector,
    PicClass,
    SurfaceParams,
    discriminant,
    gram_signature,
    intersection,
    line_bundle_vector,
    mukai_pairing,
    square,
)
from .hbn import (
    DegeneracyDims,
    EllDecomposition,
    SplittingType,
    balanced_correspondence,
    degeneracy_dims,
    ell_decompose,
    rho,
    rho_k,
    splitting_nonneg_part,
)
from .stability import (
    INFINITE_SLOPE,
    StabilityParams,
    StabilityPoint,
    WallPoint,
    central_charge,
    default_epsilon,
    epsilon_threshold,
    nowall_threshold,
    projection,
    slope,
    two_value_violations,
    wall_on_axis,
)
from .strata import (
    StabilityType,
    StratumExtremes,
    TypeEnumeration,
    Verdict,
    balanced_type,
    dimension_extremes,
    ell_value,
    enumerate_types,
    passes_square_filter,
    stratum_dimension,
    type_verdict,
    wall_sequence,
)
from .tableaux import Tableau, is_valid, max_omitted, oracle_check
from .chains import (
    ChainComponent,
    ChainSeries,
    RamificationSequence,
    build_chain,
    complement,
    verify_chain,
)

__version__ = "0.1.0"
