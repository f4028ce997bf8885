"""Exact curvature cocycles for operator algebras on the circle.

Two independent computation levels over one exact scalar field:
quasi-banded operators on the Fourier lattice (lattice, forms) and the
formal classical symbol calculus (symbols), cross-validated by the
replication harness (repro) and exposed through the CLI (cli).
"""

from .errors import (
    BlockNotTraceComputable,
    BudgetExceeded,
    DepthInsufficient,
    DimensionMismatch,
    InternalMismatch,
    NotCommuting,
    NotTraceComputable,
    OperatorParseError,
    PdoCyclesError,
    ReproAssertionFailed,
    UnknownBuiltin,
)
from .scalars import GaussianRational
from .matrices import MatrixCoeff, MatPoly
from .laurent import LaurentPoly
from .lattice import (
    DiagonalProfile,
    FiniteRankSupport,
    LatticeOperator,
    commutator,
    compose,
    op_abs_derivative,
    op_derivative,
    op_finite,
    op_from_laurent,
    op_projection_minus,
    op_projection_plus,
    op_projection_zero,
    op_z_power,
)
from .forms import (
    Cochain,
    ce_coboundary,
    chern_cochain,
    chern_cocycle,
    chern_expansion,
    curvature,
    hochschild_coboundary,
    nonvanishing_witness,
    schwinger_cocycle,
    theta,
)
from .symbols import (
    FormalSymbol,
    PartialSymbol,
    builtin_symbol,
    log_laplacian_bracket,
    multiplication_symbol,
    radul_cocycle,
    renormalized_bracket_trace,
    star_commutator,
    star_product,
    symbol_p_minus,
    symbol_p_plus,
    wodzicki_residue,
)

__version__ = "0.1.0"
