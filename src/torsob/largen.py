"""Scaling limits of the interpolation deviation at large smoothness order.

For d = 1 the natural variable is the turnover radius z = mu^{-1/(2n)}: as
the order n grows, the deviation converges pointwise (away from integer z)
to an explicit piecewise-parabolic sawtooth governed by the integer part of
z.  For d = 2 the natural variable is the squared turnover radius
z = mu^{-1/n}, and the limit profile is number-theoretic: its breakpoints
are the integers representable as a sum of two squares, and its height
involves the lattice disk count, so the limit is unbounded in both
directions along the Gauss-circle fluctuations.
"""

from __future__ import annotations

import math

from .algebraic import leading_constant
from .curve import _theta_sample
from .errors import DomainError
from .lattice import (
    DEFAULT_CONFIG,
    CaseDN,
    PrecisionConfig,
    _largest_two_squares,
    general_sums,
    next_representable,
    r2_count,
)

__all__ = [
    "scaled_deviation",
    "limit_1d",
    "limit_2d",
]

_INV_PI = 1.0 / math.pi


def scaled_deviation(
    d: int, n: int, z: float, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> float:
    """Deviation from the leading power law in the scaled variable z.

    d = 1 screens at mu = z^{-2n} (z is the turnover radius), d = 2 at
    mu = z^{-n} (z the squared turnover radius); either way the value is
    Theta - c_d(n) * delta^{d/(2n)} along the curve, with the delta power
    taken in log space so orders up to n ~ 100 stay finite.
    """
    if d not in (1, 2):
        raise DomainError(f"scaled_deviation: d must be 1 or 2, got {d!r}")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"scaled_deviation: n must be a positive integer, got {n!r}")
    if not (z > 1.0):
        raise DomainError(f"scaled_deviation: need z > 1, got {z!r}")
    expo = 2 * n if d == 1 else n
    log_mu = -expo * math.log(z)
    if log_mu < -700.0:
        raise DomainError(
            f"scaled_deviation: z**{expo} overflows double range (z={z!r}, n={n})"
        )
    case = CaseDN(d, n)
    tr = general_sums(case, math.exp(log_mu), cfg)
    p = d / (2.0 * n)
    delta_pow = math.exp(p * (math.log(tr.h.value) - math.log(tr.g.value)))
    return _theta_sample(tr, d).theta - leading_constant(case) * delta_pow


def limit_1d(z: float) -> tuple[float, float, float]:
    """The 1D infinite-order profile (delta_inf, theta_inf, F_inf) at z.

    Between consecutive integers l and l+1 the curve parameter freezes at
    delta_inf = l until z reaches sqrt(l(l+1)), then follows the parabola
    z^2/(l+1); theta_inf counts the 2l active modes; the deviation is
    (l - delta_inf)/pi, a sawtooth of parabolic teeth with range
    [-1/pi, 0].  Integer z sits on a jump, where the pointwise limit takes
    a slightly different (and structurally unimportant) value, so it is
    rejected.
    """
    if not (z > 1.0) or not math.isfinite(z):
        raise DomainError(f"limit_1d: need finite z > 1, got {z!r}")
    if z == math.floor(z):
        raise DomainError(
            f"limit_1d: the pointwise limit is not defined at integer z = {z!r}"
        )
    l = int(math.floor(z))
    breakpoint_ = math.sqrt(l * (l + 1.0))
    delta_inf = float(l) if z <= breakpoint_ else z * z / (l + 1.0)
    theta_inf = 2.0 * l
    f_inf = (l - delta_inf) * _INV_PI
    return delta_inf, theta_inf, f_inf


def limit_2d(z: float) -> float:
    """The 2D infinite-order deviation profile at z.

    With l1 < l2 the representable integers bracketing z, the profile is
    (R2(l1) - pi*l1)/(4 pi^2) up to the geometric midpoint sqrt(l1 l2) and
    (R2(l1) - pi*z^2/l2)/(4 pi^2) beyond it, where R2 counts the nonzero
    lattice points in the closed disk of squared radius l1.  Representable
    z sits on a jump of the count and is rejected.
    """
    if not (z > 1.0) or not math.isfinite(z):
        raise DomainError(f"limit_2d: need finite z > 1, got {z!r}")
    l1 = _largest_two_squares(math.floor(z))
    if z == l1:
        raise DomainError(
            f"limit_2d: the pointwise limit jumps at representable z = {z!r}"
        )
    l2 = next_representable(l1)
    disk = r2_count(l1)
    quarter = 1.0 / (4.0 * math.pi * math.pi)
    if z <= math.sqrt(l1 * float(l2)):
        return (disk - math.pi * l1) * quarter
    return (disk - math.pi * z * z / l2) * quarter
