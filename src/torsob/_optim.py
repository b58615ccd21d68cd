"""Derivative-free 1D search helpers shared across modules.

* ``golden_min``: a plain golden-section bracketing minimizer; no
  gradients, no surprises.  The objective is evaluated once per shrink
  step, matching the classical scheme (Kiefer 1953).
* ``envelope_max``: the certified maximum of a lower envelope of tangent
  lines minus a concave function, by branch-and-bound between samples; it
  gives both sharp constants, L and K_d(n).
* ``brentq``: bracketed root finding by Brent's method (Brent 1973,
  *Algorithms for Minimization without Derivatives*, ch. 4), ported line
  for line from scipy's C routine ``brentq.c``: the same floating-point
  operations in the same order, so roots (and the cases that raise) agree
  bit for bit with scipy's ``brentq`` at the same tolerances.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceUnreachableError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 0.382...


def golden_min(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Minimize ``func`` on [lo, hi]; returns (argmin, min).

    Assumes the bracket contains a single local minimum; with several the
    iteration converges to one of them, so call it from every coarse-grid
    candidate when multimodality is possible.
    """
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    h = b - a
    if h <= xtol:
        mid = 0.5 * (a + b)
        return mid, func(mid)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = func(c)
    fd = func(d)
    for _ in range(max_iter):
        if h <= xtol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = func(d)
    if fc < fd:
        return c, fc
    return d, fd


_ULPS = 16.0 * sys.float_info.epsilon  # outward rounding, per largest term
_MAXIMIZER_TOL = 1e-9  # the sample spacing at which find_L and K_d(n) stop


def envelope_max(
    probe: Callable,
    phi: Callable,
    ts: np.ndarray,
    tol: float = _MAXIMIZER_TOL,
    known: float = -math.inf,
) -> tuple:
    """Maximize J = Y(delta) - phi(delta) over a coordinate t in which delta
    increases, for phi concave and increasing (vectorized) and Y below a
    line at every sample: (best payload, lower, upper), where [lower, upper]
    encloses sup J.  probe(ts) samples increasing points in one call; row i
    of its (rows, payloads) is (y, y_err, delta, delta_err, c0, c1), with Y
    within y_err of y at the true delta(t_i), that delta within delta_err of
    delta, and Y <= c0 + c1 delta everywhere.  A line minus phi is convex,
    so between samples a and b, for any c, J is at most line_a - phi at the
    left end or at c, or line_b - phi at c or at the right end; c is where
    the lines cross.  known is a value that the maximum sought is known to
    reach, on the range or beyond it (the incumbent; by default none): an
    interval that cannot beat it cannot hold that maximum.  Intervals whose
    bound beats both the best sample plus its error and known, by more than
    their ends' errors, are bisected, as are the neighbours of an interior
    best sample that is not below known, one probe call per generation,
    until none wider than tol is left.  Bounds are rounded out by 16 ulp of
    their largest term.  (Pruning against an incumbent as in Hansen &
    Walster, *Global Optimization Using Interval Analysis*, 2004.)
    """
    t = np.asarray(ts, dtype=np.float64)
    if t.size < 2 or not np.all(np.diff(t) > 0.0):
        raise DomainError("envelope_max: need at least two increasing seeds")
    rows, payloads = probe(t)
    rows, payloads, ref = np.asarray(rows, dtype=np.float64), list(payloads), np.arange(t.size)
    while True:
        y, y_err, delta, delta_err, c0, c1 = rows.T
        value, far = y - phi(delta), phi(delta + delta_err)
        lower = y - y_err - far - _ULPS * (np.abs(y) + np.abs(far))
        err = value - lower
        lo, hi = (delta - delta_err)[:-1], (delta + delta_err)[1:]
        a0, a1, b0, b1 = c0[:-1], c1[:-1], c0[1:], c1[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.fmax(lo, np.fmin((b0 - a0) / (a1 - b1), hi))  # nan -> hi
        ub = np.maximum.reduce([
            a0 + a1 * lo - phi(lo),
            np.maximum(a0 + a1 * c, b0 + b1 * c) - phi(c),
            b0 + b1 * hi - phi(hi),
        ]) + _ULPS * (np.abs(a0) + np.abs(b0) + (np.abs(a1) + np.abs(b1)) * hi + np.abs(phi(hi)))
        best = int(np.argmax(value))
        split = ub > max(value[best] + err[best], known) + np.maximum(err[:-1], err[1:])
        if 0 < best < t.size - 1 and value[best] >= known:
            split[best - 1 : best + 1] = True
        at = np.nonzero(split & (np.diff(t) > tol))[0] + 1
        if at.size == 0:
            return payloads[ref[best]], float(lower[best]), float(ub.max())
        new_rows, new_payloads = probe(mids := 0.5 * (t[at - 1] + t[at]))
        t, rows = np.insert(t, at, mids), np.insert(rows, at, new_rows, axis=0)
        ref = np.insert(ref, at, np.arange(len(payloads), len(payloads) + at.size))
        payloads += new_payloads


# the defaults of scipy's brentq
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def brentq(
    func: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = _BRENT_XTOL,
    rtol: float = _BRENT_RTOL,
    maxiter: int = _BRENT_MAXITER,
) -> float:
    """A root of ``func`` in the bracket [a, b] by Brent's method.

    Stops once the bracket is narrower than xtol + rtol |x|, and returns
    the endpoint with the smaller |func|.  Raises :class:`DomainError` (a
    ``ValueError``) when func(a) and func(b) have the same sign or func
    returns NaN, and :class:`ToleranceUnreachableError` (a
    ``RuntimeError``) when maxiter steps do not meet the tolerance.
    """
    if not xtol > 0.0:
        raise DomainError(f"brentq: xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise DomainError(f"brentq: rtol too small ({rtol:g} < {_BRENT_RTOL:g})")

    def value(x: float) -> float:
        fx = float(func(x))
        if math.isnan(fx):
            raise DomainError(f"brentq: the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError(
            f"brentq: f(a) and f(b) must have different signs "
            f"(f({xpre!r}) = {fpre!r}, f({xcur!r}) = {fcur!r})"
        )
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
            except ZeroDivisionError:
                stry = math.inf  # C divides to inf or NaN here and bisects
            bound = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise ToleranceUnreachableError(
        f"brentq: failed to converge after {maxiter} iterations, value is {xcur!r}"
    )
