"""Sharp constants, extremal curves, remainder terms and asymptotic
approximants for critical Sobolev-type interpolation inequalities of
zero-mean periodic functions on tori.

The package is organized around the objects it computes:

``specfun``
    certified special-function kernel (Bessel K, Lambert W, Riemann and
    Hurwitz zeta, Dirichlet beta);
``lattice``
    every lattice sum: the 2D critical triple (f, g, h), the general
    algebraic (d, n) triple, Hardy-type sums, rigorous tail brackets and
    sum-of-two-squares counting;
``curve``
    the extremal curve Theta(delta), its approximants, the tangent
    condition and the sharp double-log constant L;
``bounds``
    the elementary-approach bounds (fractional embedding, loss factor
    alpha, mode-splitting bound P);
``algebraic``
    sharp remainder constants K_d(n) and deviation curves;
``largen``
    the scaled large-n deviations and their explicit limit profiles;
``field``
    extremal functions on a torus grid from closed-form row sums, the
    Laplacian Green function and inequality verification on user Fourier
    data;
``cli``
    the ``torsob`` command-line front end.
"""

from __future__ import annotations

__version__ = "1.0.0"


def _load_numpy_for_cli() -> None:
    """Load numpy with a one-thread OpenBLAS when the torsob CLI is the program.

    Every BLAS call of the package is a ``lattice._dot`` block of at most
    8192 elements, which OpenBLAS runs on one thread, so the pool that numpy
    starts by default would only cost CPU.  ``OPENBLAS_NUM_THREADS=1`` is
    set only around the numpy import, so ``os.environ`` and child processes
    see the user's environment.  A thread variable the user set wins, and a
    program that imports torsob keeps numpy's default pool.
    """
    import os
    import sys

    argv0 = sys.argv[0] if sys.argv else ""
    # while ``python -m torsob.cli`` imports this package, argv[0] is "-m";
    # the console script runs from a file named torsob
    cli = (argv0 == "-m" and "torsob.cli" in sys.orig_argv) or (
        os.path.splitext(os.path.basename(argv0))[0] == "torsob"
    )
    thread_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if not cli or "numpy" in sys.modules or any(v in os.environ for v in thread_vars):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_for_cli()

from .algebraic import (
    RemainderReport,
    delta_plateau,
    deviation,
    expansion_dn,
    leading_constant,
    lowest_shell_theta,
    positive_crossings,
    remainder_constant,
    remainder_upper_bound,
    shifted_deviation,
    theta_dn,
)
from .bounds import (
    ElementaryComparison,
    alpha_constant,
    elementary_comparison,
    embedding_constant,
    first_method_bound,
    mode_splitting_bound,
)
from .curve import (
    FOUR_MODE_THETA,
    MODELS,
    LConstantReport,
    ThetaSample,
    delta_critical,
    find_L,
    gap,
    loglog_lower_constant,
    mu_of_delta,
    tangent_condition,
    theta_model,
    theta_point,
)
from .errors import (
    DomainError,
    InputFormatError,
    ResourceLimitError,
    TorsobError,
    ToleranceUnreachableError,
)
from .field import (
    FieldGrid,
    FourierInput,
    VerificationReport,
    extremal_field,
    g0_value,
    verify_inequality,
)
from .largen import ScaledPoint, limit_1d, limit_2d, scaled_deviation
from .lattice import (
    DEFAULT_CONFIG,
    CaseDN,
    PrecisionConfig,
    SumTriple,
    beta_constant,
    critical_sums,
    general_sums,
    hardy_sum,
    hardy_sum_theta_split,
    is_representable,
    next_representable,
    partial_inverse_square_sum,
    r2_count,
    tail_bracket,
)
from .specfun import (
    CATALAN,
    EULER_GAMMA,
    SpecialValue,
    bessel_k,
    dirichlet_beta,
    dirichlet_beta_prime_at_1,
    lambert_w,
    zeta_dirichlet,
)

__all__ = [
    "__version__",
    # errors
    "TorsobError",
    "DomainError",
    "InputFormatError",
    "ToleranceUnreachableError",
    "ResourceLimitError",
    # configuration
    "PrecisionConfig",
    "DEFAULT_CONFIG",
    # special functions
    "SpecialValue",
    "CATALAN",
    "EULER_GAMMA",
    "bessel_k",
    "lambert_w",
    "dirichlet_beta",
    "dirichlet_beta_prime_at_1",
    "zeta_dirichlet",
    # lattice sums
    "SumTriple",
    "CaseDN",
    "critical_sums",
    "general_sums",
    "hardy_sum",
    "hardy_sum_theta_split",
    "beta_constant",
    "partial_inverse_square_sum",
    "tail_bracket",
    "r2_count",
    "is_representable",
    "next_representable",
    # extremal curve
    "ThetaSample",
    "LConstantReport",
    "MODELS",
    "FOUR_MODE_THETA",
    "delta_critical",
    "theta_point",
    "mu_of_delta",
    "theta_model",
    "tangent_condition",
    "gap",
    "find_L",
    "loglog_lower_constant",
    # elementary bounds
    "ElementaryComparison",
    "embedding_constant",
    "elementary_comparison",
    "alpha_constant",
    "mode_splitting_bound",
    "first_method_bound",
    # algebraic remainder constants
    "RemainderReport",
    "leading_constant",
    "remainder_upper_bound",
    "lowest_shell_theta",
    "delta_plateau",
    "theta_dn",
    "expansion_dn",
    "deviation",
    "shifted_deviation",
    "positive_crossings",
    "remainder_constant",
    # large-n limits
    "ScaledPoint",
    "scaled_deviation",
    "limit_1d",
    "limit_2d",
    # fields
    "FieldGrid",
    "FourierInput",
    "VerificationReport",
    "extremal_field",
    "g0_value",
    "verify_inequality",
]
