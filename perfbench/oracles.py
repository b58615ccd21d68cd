"""Reference values computed apart from torsob, for the benchmark's checks.

Nothing here imports torsob.  Each routine takes the slow, obvious route:
brute-force lattice sums over a disk table with a continuum tail, direct 1D
sums, row-by-row closed forms of the defining series, and closed forms
evaluated with mpmath.  The benchmark compares the program's outputs with
these, outside the timed interval.  Results are cached, so the checks of
later rounds reuse the references of the first.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.optimize import minimize_scalar

PI = math.pi


@lru_cache(maxsize=None)
def beta() -> float:
    """Finite part of sum' |k|^-2 over Z^2:
    pi (2 gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4))."""
    with mp.workdps(40):
        v = mp.pi * (
            2 * mp.euler + 2 * mp.log(2) + 3 * mp.log(mp.pi) - 4 * mp.loggamma(mp.mpf(1) / 4)
        )
        return float(v)


@lru_cache(maxsize=None)
def catalan() -> float:
    with mp.workdps(40):
        return float(mp.catalan)


def z2_inverse_fourth() -> float:
    """sum' |k|^-4 over Z^2 = 4 zeta(2) beta(2) = (2 pi^2 / 3) Catalan."""
    return 2.0 * PI * PI / 3.0 * catalan()


@lru_cache(maxsize=4)
def disk_table(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, c): every squared norm 0 < q <= radius^2 taken by k in Z^2, with
    its number of lattice points, counted row by row over the full disk."""
    r2 = radius * radius
    rows = []
    for k1 in range(-radius, radius + 1):
        top = math.isqrt(r2 - k1 * k1)
        rows.append(k1 * k1 + np.arange(-top, top + 1, dtype=np.int64) ** 2)
    counts = np.bincount(np.concatenate(rows), minlength=r2 + 1)
    counts[0] = 0
    q = np.nonzero(counts)[0]
    return q.astype(np.float64), counts[q].astype(np.float64)


@lru_cache(maxsize=None)
def screened_sums(mu: float, radius: int = 1000) -> tuple[float, float, float]:
    """f, g, h of the critical triple at mu (mu > 0 or mu < -1) by direct
    summation over the disk plus the continuum tail 2 pi int_a^inf s S(s) ds.

    The tail starts at the radius a whose disk has the area of the cells
    already summed (origin included), which removes the lattice-count error
    at the cut to first order.
    """
    q, c = disk_table(radius)
    s = 1.0 + mu * q
    f = math.fsum(c / (q * s))
    g = math.fsum(c / (q * s * s))
    h = math.fsum(c / (s * s))
    a2 = (float(c.sum()) + 1.0) / PI
    t = mu * a2
    f += PI * math.log1p(1.0 / t)
    g += PI * (math.log1p(1.0 / t) - 1.0 / (1.0 + t))
    h += PI / (mu * (1.0 + t))
    return f, g, h


def leading_constant(d: int, n: int) -> float:
    """c_d(n) = pi omega_d / ((2pi)^d sin(pi d/2n) d^{d/2n} (2n-d)^{1-d/2n})."""
    omega = 2.0 * PI ** (d / 2.0) / math.gamma(d / 2.0)
    p = d / (2.0 * n)
    return PI * omega / (
        (2.0 * PI) ** d * math.sin(PI * p) * d**p * (2.0 * n - d) ** (1.0 - p)
    )


def remainder_bound(d: int, n: int) -> float:
    """The at-infinity value 2n / ((2pi)^d (2n - d))."""
    return 2.0 * n / ((2.0 * PI) ** d * (2.0 * n - d))


_K1 = np.arange(1.0, 20001.0)


def curve_1d(n: int, mu: float) -> tuple[float, float]:
    """(delta, Theta) of the 1D algebraic curve at mu by direct sums over
    0 < |k| <= 20000; the rest is below 1e-20 for the mu used here."""
    k2n = _K1 ** (2 * n)
    t = 1.0 / (1.0 + mu * k2n)
    f = 2.0 * math.fsum(t)
    g = 2.0 * math.fsum(t * t)
    h = 2.0 * math.fsum(k2n * t * t)
    return h / g, f * f / (2.0 * PI * g)


@lru_cache(maxsize=None)
def deviation_1d(n: int, mu: float) -> float:
    """Theta - c_1(n) delta^{1/2n} at mu."""
    delta, theta = curve_1d(n, mu)
    return theta - leading_constant(1, n) * delta ** (1.0 / (2.0 * n))


@lru_cache(maxsize=None)
def deviation_2d(n: int, mu: float, radius: int = 200) -> float:
    """Theta - c_2(n) delta^{1/n} at mu, by direct sums over the disk; the
    screen 1/(1 + mu q^n) leaves a negligible rest for mu q^n >> 1 at the cut."""
    q, c = disk_table(radius)
    with np.errstate(over="ignore"):
        t = 1.0 / (1.0 + mu * q**n)
    f = math.fsum(c * t)
    g = math.fsum(c * t * t)
    h = math.fsum(c * q**n * t * t)
    delta = h / g
    theta = f * f / (4.0 * PI * PI * g)
    return theta - leading_constant(2, n) * delta ** (1.0 / n)


def _maximize(fun, lo: float, hi: float, points: int = 400) -> tuple[float, float]:
    """Global maximum of fun on [lo, hi]: grid scan, then bounded Brent."""
    xs = np.linspace(lo, hi, points)
    vals = [fun(float(x)) for x in xs]
    i = int(np.argmax(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]
    res = minimize_scalar(
        lambda x: -fun(x), bounds=(a, b), method="bounded", options={"xatol": 1e-12}
    )
    return float(res.x), float(-res.fun)


@lru_cache(maxsize=None)
def k_1_3() -> float:
    """K_1(3) = -max over mu of the 1D deviation, maximized in log mu."""
    _, best = _maximize(lambda lm: deviation_1d(3, math.exp(lm)), -8.0, 8.0)
    return -best


def _theta0_objective(log_mu: float) -> float:
    mu = math.exp(log_mu)
    lg = PI * math.log(1.0 / mu) + beta()
    a = lg + mu
    b = lg - PI + 2.0 * mu
    delta = (PI / mu - 1.0) / b
    theta = a * a / (4.0 * PI * PI * b)
    return 4.0 * PI * theta - math.log(delta) - math.log1p(math.log(delta))


@lru_cache(maxsize=None)
def l_theta0() -> float:
    """Maximum of 4 pi Theta0 - log delta - log(1 + log delta) along the
    closed-form theta0 curve, parametrized by mu in [e^-6, e^-0.5]."""
    return _maximize(_theta0_objective, -6.0, -0.5)[1]


@lru_cache(maxsize=None)
def split_continuum(delta: float) -> float:
    """P(delta) of the continuum model 4 pi^2 P = a + 2 pi + pi^2 / a,
    a = pi log(delta a / pi) + beta (a contraction, iterated to a fixed point)."""
    a = PI * math.log(delta) + beta()
    for _ in range(200):
        nxt = PI * math.log(delta * a / PI) + beta()
        if abs(nxt - a) <= 1e-15 * a:
            break
        a = nxt
    return (a + 2.0 * PI + PI * PI / a) / (4.0 * PI * PI)


def is_two_squares(m: int) -> bool:
    for a in range(math.isqrt(m) + 1):
        b = math.isqrt(m - a * a)
        if b * b == m - a * a:
            return True
    return False


@lru_cache(maxsize=None)
def split_at_cut(delta: float, n_sq: int) -> float:
    """(sqrt(S_low) + sqrt(delta S_high))^2 / (4 pi^2) at the cut |k|^2 <= n_sq,
    S_high being the full sum of |k|^-4 minus the part inside the cut."""
    q, c = disk_table(math.isqrt(n_sq) + 1)
    inside = q <= n_sq
    s_low = math.fsum(c[inside] / q[inside])
    s_high = z2_inverse_fourth() - math.fsum(c[inside] / (q[inside] * q[inside]))
    return (math.sqrt(s_low) + math.sqrt(delta * s_high)) ** 2 / (4.0 * PI * PI)


def disk_count(m: int) -> int:
    """Lattice points k != 0 with |k|^2 <= m."""
    return sum(2 * math.isqrt(m - k1 * k1) + 1 for k1 in range(-math.isqrt(m), math.isqrt(m) + 1)) - 1


@lru_cache(maxsize=None)
def limit_2d(z: float) -> float:
    """The 2D infinite-order profile: l1 < z < l2 the sums of two squares
    around z, (R2(l1) - pi l1)/(4 pi^2) up to sqrt(l1 l2), then
    (R2(l1) - pi z^2 / l2)/(4 pi^2)."""
    l1 = math.floor(z)
    while not is_two_squares(l1):
        l1 -= 1
    l2 = l1 + 1
    while not is_two_squares(l2):
        l2 += 1
    cut = PI * l1 if z <= math.sqrt(l1 * l2) else PI * z * z / l2
    return (disk_count(l1) - cut) / (4.0 * PI * PI)


def _row_pair(t: float, b: np.ndarray) -> np.ndarray:
    """sum over k in Z of cos(k t)/(k^2 + b^2) = (pi/b) cosh(b(pi - t))/sinh(pi b),
    for 0 <= t <= pi and b > 0, in decaying exponentials."""
    return (PI / b) * np.exp(-b * t) * (1.0 + np.exp(-2.0 * b * (PI - t))) / (
        1.0 - np.exp(-2.0 * PI * b)
    )


@lru_cache(maxsize=None)
def green_series(x: tuple[float, float], mu: float | None) -> float:
    """sum' e^{ik.x}/k^2 (mu None) or sum' e^{ik.x}/(k^2 (1 + mu k^2)) at
    x != 0, summed over rows k1 with each row in closed form; rows decay like
    e^{-k1 t2} with t2 the larger |component|, so 60/t2 rows suffice."""
    t1, t2 = sorted((abs(x[0]), abs(x[1])))
    rows = int(60.0 / t2) + 8
    k1 = np.arange(1.0, rows + 1.0)
    row0 = PI * PI / 3.0 - PI * t2 + t2 * t2 / 2.0
    rest = np.cos(k1 * t1) * _row_pair(t2, k1)
    if mu is not None:
        a = 1.0 / math.sqrt(mu)
        row0 -= float(_row_pair(t2, np.array([a]))[0]) - mu
        rest -= np.cos(k1 * t1) * _row_pair(t2, np.sqrt(k1 * k1 + 1.0 / mu))
    return row0 + 2.0 * math.fsum(rest)
