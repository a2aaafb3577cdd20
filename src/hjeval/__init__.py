"""Grid-free evaluation of viscosity solutions to Hamilton-Jacobi equations.

For equations ∂_t S + H(∇_x S) = 0 with convex, state-independent
Hamiltonians, two exact min-of-branches representations evaluate the
viscosity solution at any point of R^n × [0, ∞) without meshing space or
time:

* :class:`LagrangianNet` — driven by a globally Lipschitz convex activation
  L; the Hamiltonian is the conjugate of L and the initial data is a min of
  shifted copies of L's recession function.
* :class:`InitialDataNet` — driven by a real-valued concave activation J;
  the Hamiltonian is max-affine in the gradient and its conjugate comes from
  a small simplex LP.

The :mod:`~hjeval.oracle` module supplies desk-scale brute-force ground
truth (variational minimization on a grid, finite-difference PDE residuals)
to verify both representations, and :mod:`~hjeval.cli` exposes the
``hjeval`` command with ``eval``, ``slice``, ``verify`` and ``bench``
subcommands.
"""

from .branches import EvalResult
from .catalog import (
    ClippedQuadratic1D,
    ConcaveFn,
    ConvexFn,
    HalfSquaredNorm,
    IntervalQuadratic1D,
    MaxAffine,
    NormOnBall,
    PNorm,
    ShiftedNormPlus,
    UnitBallIndicator,
)
from .config import ConfigError, ProblemConfig, load_problem, load_slice, parse_problem, parse_slice
from .initialdata import InitialDataNet, norm_hamiltonian_rows
from .lagrangian import LagrangianNet
from .numeric import grid_conjugate, grid_inf_convolution, recession_quotient
from .oracle import (
    OracleConfig,
    OracleDomainError,
    VerifyReport,
    gradient_fd,
    hj_residual,
    lax_oleinik_bruteforce,
    verify_report,
)
from .simplex import (
    EnvelopeCertificate,
    EnvelopeViolationError,
    SimplexSolution,
    check_witnesses,
    lower_envelope_certificate,
    minimize_over_simplex,
)
from .slicing import SliceSpec, evaluate_slice

__version__ = "0.1.0"

__all__ = [
    "EvalResult",
    "ConvexFn",
    "ConcaveFn",
    "ClippedQuadratic1D",
    "IntervalQuadratic1D",
    "PNorm",
    "UnitBallIndicator",
    "ShiftedNormPlus",
    "NormOnBall",
    "HalfSquaredNorm",
    "MaxAffine",
    "ConfigError",
    "ProblemConfig",
    "load_problem",
    "load_slice",
    "parse_problem",
    "parse_slice",
    "InitialDataNet",
    "norm_hamiltonian_rows",
    "LagrangianNet",
    "grid_conjugate",
    "grid_inf_convolution",
    "recession_quotient",
    "OracleConfig",
    "OracleDomainError",
    "VerifyReport",
    "gradient_fd",
    "hj_residual",
    "lax_oleinik_bruteforce",
    "verify_report",
    "EnvelopeCertificate",
    "EnvelopeViolationError",
    "SimplexSolution",
    "check_witnesses",
    "lower_envelope_certificate",
    "minimize_over_simplex",
    "SliceSpec",
    "evaluate_slice",
    "__version__",
]
