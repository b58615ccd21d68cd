"""The algebraic interpolation inequality on d-dimensional tori.

For zero-mean periodic u in d dimensions (d < 2n) the sup norm obeys

    ||u||_C^2  <=  c_d(n) ||u||_{L^2}^{2-d/n} ||(-Lap)^{n/2} u||_{L^2}^{d/n}
                   - K_d(n) ||u||_{L^2}^2,

where c_d(n) is the closed-form whole-space constant and K_d(n) is sharp:
the infimum over delta >= 1 of c_d(n) delta^{d/2n} - Theta_{d,n}(delta),
with Theta_{d,n} the parametric sharp curve built from the screened sums
f, g, h of 1/(1 + mu |k|^{2n}).  The published formula states a supremum;
the tabulated values, the bound K <= 2n/((2pi)^d (2n-d)), and the
extremal-existence criterion are all consistent only with the infimum,
which is what this module computes.

The infimum sits either at a finite maximizer of the deviation
F = Theta - c delta^{d/2n} (then exact extremals exist) or is approached
as delta -> inf, where F creeps up to -2n/((2pi)^d (2n-d)) from below.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._optim import brentq, envelope_max
from .curve import ThetaSample, _delta_root, _ladder, _tangent_row
from .errors import DomainError, ToleranceUnreachableError
from .lattice import (
    DEFAULT_CONFIG,
    CaseDN,
    PrecisionConfig,
    _full_moment,
    _general_sums_batch,
    _omega,
)

__all__ = [
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
]

#: |K| below this is reported as zero-within-tol instead of a sign; the
#: known near-zero case (3,6) sits around -1e-5, an order of magnitude up.
_SIGN_TOL = 1e-7

_ATT_TOL = 1e-9


def leading_constant(case: CaseDN) -> float:
    """c_d(n): the sharp leading interpolation constant (closed form)."""
    d, n = case.d, case.n
    s = math.sin(math.pi * d / (2.0 * n))
    return (
        math.pi
        * _omega(d)
        / ((2.0 * math.pi) ** d * s * d ** (d / (2.0 * n)) * (2.0 * n - d) ** (1.0 - d / (2.0 * n)))
    )


def remainder_upper_bound(case: CaseDN) -> float:
    """2n/((2 pi)^d (2n - d)): the delta -> inf limit of the K objective."""
    d, n = case.d, case.n
    return 2.0 * n / ((2.0 * math.pi) ** d * (2.0 * n - d))


def lowest_shell_theta(d: int) -> float:
    """Theta at delta = 1, where the extremal lives on the |k|^2 = 1 shell
    alone (2d points): Theta = (2d)^2/((2 pi)^d 2d) = 2d/(2 pi)^d."""
    if d not in (1, 2, 3):
        raise DomainError(f"lowest_shell_theta: need d in {{1,2,3}}, got {d!r}")
    return 2.0 * d / (2.0 * math.pi) ** d


def delta_plateau(case: CaseDN) -> float:
    """delta at mu -> +inf: the positive-branch floor of the parametric map,
    equal to the ratio of the 2n-th to the 4n-th inverse lattice moments."""
    return _full_moment(case.d, case.n).value / _full_moment(case.d, 2 * case.n).value


def _samples_at(case: CaseDN, lms, cfg: PrecisionConfig, tails=None) -> list[tuple]:
    """The envelope rows and curve samples at each log mu of lms, from one batched sum."""
    sums = _general_sums_batch(case, [math.exp(lm) for lm in lms], cfg, tails)
    return [_tangent_row(tr, case.d, 1.0) for tr in sums]


def theta_dn(
    case: CaseDN, delta: float, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> ThetaSample:
    """Sharp curve sample at delta for the algebraic case: solves the
    strictly decreasing map mu -> h/g in log mu, with the bracket grown
    from log mu = 0 in steps of 2.

    delta = 1 is the lowest-shell degeneration and is returned in closed
    form; delta strictly between 1 and the mu -> inf plateau would need the
    resonant negative-mu branch, which is not implemented, so it is
    rejected.
    """
    if not (1.0 <= delta < math.inf):
        raise DomainError(f"theta_dn: need finite delta >= 1, got {delta!r}")
    if delta == 1.0:
        return ThetaSample(-1.0, 1.0, lowest_shell_theta(case.d), "exact", 0.0)
    plateau = delta_plateau(case)
    if delta <= plateau * (1.0 + 1e-12):
        raise DomainError(
            f"theta_dn: delta={delta!r} is at or below the positive-branch "
            f"plateau {plateau:.12g}; the resonant branch is not implemented"
        )

    at = functools.cache(lambda lm: _samples_at(case, [lm], cfg)[0][1])
    lm = _delta_root(
        lambda x: at(x).delta, delta, _ladder(0.0, operator.sub, 2.0),
        _ladder(0.0, operator.add, 2.0), True, 1e-13, 1e-10, "theta_dn",
    )
    return at(lm)


def expansion_dn(case: CaseDN, delta: float) -> float:
    """Three-term large-delta expansion of Theta_{d,n}: leading
    c_d(n) delta^{d/2n}, constant -2n/((2pi)^d(2n-d)), and the strictly
    negative delta^{-d/2n} correction."""
    d, n = case.d, case.n
    p = d / (2.0 * n)
    s = math.sin(math.pi * d / (2.0 * n))
    third = (
        2.0
        * d ** (1.0 + p)
        * n
        * n
        * s
        / (math.pi * _omega(d) * (2.0 * n - d) ** (2.0 + p))
    ) / (2.0 * math.pi) ** d
    return (
        leading_constant(case) * delta**p
        - remainder_upper_bound(case)
        - third * delta ** (-p)
    )


def deviation(
    case: CaseDN, delta: float, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> float:
    """F_{d,n}(delta) = Theta_{d,n}(delta) - c_d(n) delta^{d/2n}; tends to
    -2n/((2pi)^d(2n-d)) from below as delta grows."""
    sample = theta_dn(case, delta, cfg)
    p = case.d / (2.0 * case.n)
    return sample.theta - leading_constant(case) * delta**p


def shifted_deviation(
    case: CaseDN, delta: float, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> float:
    """The plotting convention that adds the limit constant back:
    F + 2n/((2pi)^d(2n-d)), which tends to 0 at infinity and whose
    positive excursions mark where exact extremals can live."""
    return deviation(case, delta, cfg) + remainder_upper_bound(case)


def positive_crossings(
    case: CaseDN, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """The principal positive window of the shifted deviation: its first
    up-crossing and the down-crossing that follows, as delta at the roots
    of the parametric Theta(mu) - c delta(mu)^{d/2n} + U, each solved in
    log mu between the two points of a 500-point z scan that bracket it.
    (The oscillatory transient can open further windows of tiny amplitude
    at larger delta -- e.g. (2,3) goes positive again near delta ~ 140-170
    at the 3e-5 level -- which are not part of the reported interval.)"""
    d, n = case.d, case.n
    U = remainder_upper_bound(case)
    c = leading_constant(case)
    p = d / (2.0 * n)

    lms = -2.0 * n * np.log(np.linspace(0.35, 6.0, 500))
    # the scan is one batched sum; the root solves start from its samples
    samples = {lm: s for lm, (_, s) in zip(lms.tolist(), _samples_at(case, lms, cfg))}

    def at(lm: float) -> ThetaSample:
        if lm not in samples:
            samples[lm] = _samples_at(case, [lm], cfg)[0][1]
        return samples[lm]

    def shifted_at(lm: float) -> float:
        sample = at(lm)
        return sample.theta - c * sample.delta**p + U

    pos = np.array([shifted_at(lm) for lm in lms]) > 0.0
    if not pos.any():
        raise DomainError(
            f"positive_crossings: shifted deviation never positive for (d,n)=({d},{n})"
        )
    i0 = int(np.argmax(pos))
    after = np.nonzero(~pos[i0:])[0]
    if i0 == 0 or after.size == 0:
        raise ToleranceUnreachableError("positive_crossings: positive window hits the scan edge")
    i1 = i0 + int(after[0]) - 1

    def end(a: float, b: float) -> float:
        return at(brentq(shifted_at, a, b, xtol=1e-13, rtol=8.9e-16, maxiter=300)).delta

    return end(lms[i0 - 1], lms[i0]), end(lms[i1 + 1], lms[i1])


@dataclass(frozen=True)
class RemainderReport:
    """Sharp remainder constant K_d(n) with its classification."""

    case: CaseDN
    K: float
    delta_argmax: float  # math.inf marks the at-infinity class
    upper_bound: float
    sign: str
    attained: bool

    def __post_init__(self) -> None:
        if self.sign not in ("positive", "negative", "zero-within-tol"):
            raise DomainError(f"RemainderReport: bad sign {self.sign!r}")
        if self.K > self.upper_bound + 1e-9:
            raise DomainError("RemainderReport: K exceeds its a priori bound")
        if self.attained and not math.isfinite(self.delta_argmax):
            raise DomainError("RemainderReport: attained requires a finite maximizer")


def _tail_samples(
    case: CaseDN, z_hi: float, cfg: PrecisionConfig, tails: dict
) -> tuple[bool, float]:
    """Probe the curve just below the cap z_hi against the three-term
    expansion, summing with the search's tail terms tails.

    Returns (strong, R) where strong means the expansion remainder --
    including the certified evaluation error -- is dominated by the third
    (negative) term itself at every probe, so beyond the cap
    F + U = -third + remainder stays negative and the tail cannot carry the
    maximum; R is a bound on |remainder| at the cap, usable for the weaker
    argument that the tail stays below an already-found interior maximum
    (every remainder component decays with z past the probes)."""
    d, n = case.d, case.n
    p = d / (2.0 * n)
    U = remainder_upper_bound(case)
    c = leading_constant(case)
    strong = True
    R = 0.0
    lms = [-2.0 * n * math.log(z_hi * frac) for frac in (1.0, 0.94, 0.89)]
    for (theta, theta_err, dd, dd_err, _, _), _ in _samples_at(case, lms, cfg, tails):
        third = (c * dd**p - U) - expansion_dn(case, dd)
        # evaluation error: theta's propagated bound, plus the expansion's
        # sensitivity to the delta coordinate's own error
        slope = c * p * dd ** (p - 1.0) + (1.0 + p) * abs(third) / dd
        eval_err = theta_err * 1.05 + slope * dd_err
        err = abs(theta - expansion_dn(case, dd)) + eval_err
        if err > 0.5 * third + 1e-10:
            strong = False
        R = max(R, err)
    return strong, R


def remainder_constant(
    case: CaseDN, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> RemainderReport:
    """K_d(n) by maximizing the deviation F over the curve.

    F is Theta less the concave c delta^{d/2n}, so
    :func:`~torsob._optim.envelope_max` maximizes it in the turnover
    coordinate z = mu^{-1/(2n)}, from 200 seeds (one batched sum) on
    [0.2, z_hi], z_hi = max(1000^{1/2n}, 6).  F tends to -U as delta -> inf,
    so sup F >= -U always holds and -U is the search's incumbent: only an
    interval whose bound beats -U can hold a finite maximizer, and in the
    at-infinity class, where F stays below -U, no interval is refined.
    The tail beyond z_hi is then certified once against the large-delta
    expansion; if that fails, :class:`ToleranceUnreachableError` is
    raised.  K and delta_argmax are the best sample's own values, unless
    the delta = 1 endpoint or the limit at infinity wins.
    """
    d, n = case.d, case.n
    if d not in (1, 2, 3):
        raise DomainError(f"remainder_constant: need d in {{1, 2, 3}}, got d={d!r}")
    U = remainder_upper_bound(case)
    c = leading_constant(case)
    p = d / (2.0 * n)

    z_hi = max(1000.0 ** (1.0 / (2.0 * n)), 6.0)
    F_of = lambda sample: sample.theta - c * sample.delta**p  # noqa: E731
    tails: dict = {}  # the tail terms of every batch of this search
    best = envelope_max(
        lambda zs: tuple(zip(*_samples_at(case, -2.0 * n * np.log(zs), cfg, tails))),
        lambda delta: c * delta**p, np.linspace(0.2, z_hi, 200), known=-U,
    )[0]
    f_at_one = lowest_shell_theta(d) - c  # delta = 1 endpoint, closed form

    # certify that the tail beyond z_hi cannot beat what was found: either
    # the expansion remainder sits below the third term (tail below -U for
    # good), or it sits below the gap to an interior maximum
    strong, R = _tail_samples(case, z_hi, cfg, tails)
    gap = max(F_of(best), f_at_one) + U
    if not (strong or (gap > 10.0 * _ATT_TOL * max(1.0, U) and R <= 0.6 * gap)):
        raise ToleranceUnreachableError(
            f"remainder_constant: tail beyond z = {z_hi:g} not certified "
            f"for (d,n)=({d},{n})"
        )

    best_val = F_of(best)
    endpoint_wins = f_at_one > best_val

    if not endpoint_wins and best_val <= -U + _ATT_TOL * max(1.0, U):
        return RemainderReport(
            case=case,
            K=U,
            delta_argmax=math.inf,
            upper_bound=U,
            sign="positive",
            attained=False,
        )
    if endpoint_wins:
        K, delta_star = -f_at_one, 1.0
    else:
        K, delta_star = -best_val, best.delta
    if abs(K) < _SIGN_TOL:
        sign = "zero-within-tol"
    else:
        sign = "positive" if K > 0.0 else "negative"
    return RemainderReport(
        case=case,
        K=K,
        delta_argmax=delta_star,
        upper_bound=U,
        sign=sign,
        attained=True,
    )
