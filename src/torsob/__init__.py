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

# the namespace is each module's own __all__; the submodules import numpy,
# so they are imported only after the call above
from . import algebraic, bounds, curve, errors, field, largen, lattice, specfun
from .algebraic import *
from .bounds import *
from .curve import *
from .errors import *
from .field import *
from .largen import *
from .lattice import *
from .specfun import *

__all__ = [
    "__version__",
    *errors.__all__,
    *specfun.__all__,
    *lattice.__all__,
    *curve.__all__,
    *bounds.__all__,
    *algebraic.__all__,
    *largen.__all__,
    *field.__all__,
]
