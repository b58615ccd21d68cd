"""Scalar references that only the tests call: the Hardy sum by theta
splitting, the partial inverse-square sum and Bessel K at one point, each
on top of a library kernel, and the critical triple at |mu| > 1 in mpmath.
"""

import functools
import math

import mpmath as mp
import numpy as np

from torsob.errors import DomainError, ResourceLimitError
from torsob.lattice import _epstein_theta_split, _partial_sums_at, _shells
from torsob.specfun import _BESSEL_REL_BOUND, SpecialValue, _bessel_k01

#: the smallest cut of the row kernel: from there every row tail starts at
#: a^2 + k2^2 >= _EM_RADIUS^2, where Euler-Maclaurin holds to 2.5e-16
_EM_RADIUS = 100

# Bessel K underflows to an exact IEEE zero around x ~ 745; beyond ~740 the
# true value is below 1e-318 and we report exactly 0 with that bound.
_BESSEL_UNDERFLOW_X = 740.0


def hardy_sum_theta_split(eps: float) -> SpecialValue:
    """sum' over Z^2 of |k|^{-2(1+eps)} by incomplete-gamma theta splitting
    (``lattice._epstein_theta_split`` with d = 2, s = 1 + eps), a route
    independent of the library's ``hardy_sum``."""
    if not (eps > 0.0):
        raise DomainError(f"hardy_sum_theta_split: need eps > 0, got {eps!r}")
    out = _epstein_theta_split(2, mp.fadd(1, eps, exact=True))
    return SpecialValue(out, max(1e-13 * abs(out), 1e-14))


def partial_inverse_square_sum(N: float) -> float:
    """Sum of 1/|k|^2 over lattice points 0 < |k| <= N: below N = 100 the
    shells summed directly, from there the one-cut S2 of
    ``lattice._partial_sums_at``, full rows less their tails."""
    if not (N >= 1.0):
        raise DomainError(f"partial_inverse_square_sum: need N >= 1, got {N!r}")
    if N > 30000:
        raise ResourceLimitError(
            f"partial_inverse_square_sum: N={N:g} exceeds the point budget"
        )
    m = math.floor(N * N)
    if m < _EM_RADIUS**2:
        q, c = _shells(2, _EM_RADIUS)
        return math.fsum(c[q <= m] / q[q <= m])
    return float(_partial_sums_at(np.array([float(m)]))[0][0])


def bessel_k(order: int, x: float) -> SpecialValue:
    """Modified Bessel function of the second kind, order 0 or 1, at one
    strictly positive x: K_order(x) from ``specfun._bessel_k01``.

    For 0 < x < 740 the bound is ``_BESSEL_REL_BOUND`` (about 2.4e-15)
    relative plus 5e-324 absolute, which covers the subnormal values past x
    of about 703; K1 overflows to inf below x of about 1e-308.  From x = 740
    on the true value is below 1e-318, reported as exactly 0.0 with the
    threshold as its bound.
    """
    if order not in (0, 1):
        raise DomainError(f"bessel_k: order must be 0 or 1, got {order!r}")
    if not (x > 0.0):
        raise DomainError(f"bessel_k: argument must be positive, got {x!r}")
    if x >= _BESSEL_UNDERFLOW_X:
        # e^-x sqrt(pi/2x) < 1e-318 here: the value is not representable.
        return SpecialValue(0.0, 1e-317)
    v = float(_bessel_k01(np.array([x]))[order][0])
    return SpecialValue(v, _BESSEL_REL_BOUND * abs(v) + 5e-324)


@functools.lru_cache(maxsize=None)
def _z2_less_lowest_shell(j: int):
    """Z2(j) - 4 = 4 zeta(j) beta(j) - 4 at 60 digits: the lattice sum of
    |k|^{-2j} over Z^2 without its four points at |k| = 1.  The absolute
    error is below 1e-58 for every j, which is what the series below need."""
    with mp.workdps(60):
        return 4 * mp.zeta(j) * mp.dirichlet(j, [0, 1, 0, -1]) - 4


def critical_triple_mp(mu: float):
    """The critical triple (f, g, h) at |mu| > 1 to 50 digits, as mpf.

    The q = |k|^2 = 1 shell is taken in closed form, 4/(1+mu), 4/(1+mu)^2
    and 4/(1+mu)^2; the rest is the power series in eps = 1/mu,

        f - 4/(1+mu)   = eps   sum_k (-eps)^k (Z2(k+2) - 4),
        g - 4/(1+mu)^2 = eps^2 sum_k (k+1) (-eps)^k (Z2(k+3) - 4),
        h - 4/(1+mu)^2 = eps^2 sum_k (k+1) (-eps)^k (Z2(k+2) - 4),

    with Z2(j) = 4 zeta(j) beta(j) (Borwein, Glasser, McPhedran, Wan &
    Zucker, Lattice Sums Then and Now, 2013).  Z2(j) - 4 is below 9 2^-j
    for j >= 2, so the series fall with ratio |eps|/2 <= 1/2; they stop
    where that bound on the rest is below 1e-58.
    """
    if not abs(mu) > 1.0:
        raise DomainError(f"critical_triple_mp: need |mu| > 1, got {mu!r}")
    with mp.workdps(60):
        m = mp.mpf(mu)
        eps = 1 / m
        r = abs(eps) / 2
        terms = int(mp.ceil(mp.log(mp.mpf(10) ** -62) / mp.log(r))) + 20
        f = g = h = mp.mpf(0)
        for k in range(terms):
            a = (-eps) ** k
            f += a * _z2_less_lowest_shell(k + 2)
            g += (k + 1) * a * _z2_less_lowest_shell(k + 3)
            h += (k + 1) * a * _z2_less_lowest_shell(k + 2)
        one = 1 + m
        return (
            4 / one + eps * f,
            4 / one**2 + eps**2 * g,
            4 / one**2 + eps**2 * h,
        )
