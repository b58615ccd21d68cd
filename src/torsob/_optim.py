"""Derivative-free 1D search helpers shared across modules.

* ``golden_min``/``golden_max``: a plain golden-section bracketing
  minimizer; no gradients, no surprises.  The objective is evaluated once
  per shrink step, matching the classical scheme (Kiefer 1953).
* ``grid_max``: the maximum of a function sampled on a grid, every
  interior local maximum polished by ``golden_max``.
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


def golden_max(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Maximize ``func`` on [lo, hi]; returns (argmax, max)."""
    x, negf = golden_min(lambda t: -func(t), lo, hi, xtol=xtol, max_iter=max_iter)
    return x, -negf


def grid_max(
    func: Callable[[float], float],
    xs: np.ndarray,
    vals: np.ndarray,
    xtol: float,
) -> tuple[float, float]:
    """Maximize ``func`` from its values ``vals`` on the grid ``xs``;
    returns (argmax, max).  Every interior local maximum is golden-polished
    between its neighbours; an edge that beats them all is returned as
    sampled, ``(xs[0], vals[0])`` or ``(xs[-1], vals[-1])``."""
    best_x, best_val = float(xs[0]), -math.inf
    interior = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    for i in np.nonzero(interior)[0] + 1:
        lo, hi = min(xs[i + 1], xs[i - 1]), max(xs[i + 1], xs[i - 1])
        x, v = golden_max(func, lo, hi, xtol=xtol)
        if v > best_val:
            best_x, best_val = x, v
    for i in (0, len(vals) - 1):
        if vals[i] > best_val:
            best_x, best_val = float(xs[i]), float(vals[i])
    return best_x, best_val


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
