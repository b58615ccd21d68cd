"""Torus fields: the extremal family, the Laplacian Green function, and
inequality verification on user-supplied Fourier data.

Normalization convention, fixed once for the whole package: a field given
by coefficients u_k (k in Z^2 \\ {0}, Hermitian) is

    u(x) = (1/2pi) sum' u_k e^{i k.x},

so that ||u||^2_{L2} = sum' |u_k|^2, ||grad u||^2 = sum' k^2 |u_k|^2 and
||lap u||^2 = sum' k^4 |u_k|^2.  The extremal family is evaluated exactly
as written in its defining series, u_mu(x) = sum' e^{i k.x}/(k^2(1+mu k^2))
(no prefactor), which corresponds to u_k = 2pi/(k^2(1+mu k^2)); hence its
peak value is the lattice sum f(mu) and its norms are (2pi)^2 g(mu) and
(2pi)^2 h(mu).  Away from the origin the series is summed in closed form
row by row, so no Fourier truncation enters the grid values; the Green
function sum' e^{i k.x}/k^2 is summed by the same rows.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .algebraic import leading_constant, remainder_constant
from .curve import find_L, theta_model
from .errors import DomainError, InputFormatError, ResourceLimitError, ToleranceUnreachableError
from .lattice import (
    DEFAULT_CONFIG,
    CaseDN,
    PrecisionConfig,
    _dot,
    _shells,
    critical_sums,
    tail_bracket,
)

__all__ = [
    "FieldGrid",
    "FourierInput",
    "VerificationReport",
    "extremal_field",
    "g0_value",
    "verify_inequality",
]

_MIN_RESOLUTION = 32
#: the largest grid FourierInput.synthesize and extremal_field build: a
#: 2048^2 complex grid and its inverse FFT take about 200 MiB, a little
#: above the 158 MiB traced peak of building the largest shell table,
#: _shells(2, 6000), from an empty cache
_MAX_SYNTH_RESOLUTION = 2048


@dataclass(frozen=True)
class FieldGrid:
    """A real field sampled on the uniform grid x_i = -pi + 2pi*i/res over
    [-pi, pi)^2, together with its spectral norms and refined grid
    supremum.  For the extremal u_mu the norms are those of the full
    series: grad and lap from the closed sums g(mu) and h(mu), l2 summed
    term by term to within (2pi)^2 cfg.target_abs_tol."""

    resolution: int
    values: np.ndarray
    mu: float
    sup_value: float
    grad_norm_sq: float
    lap_norm_sq: float
    l2_norm_sq: float

    def __post_init__(self) -> None:
        if self.resolution < _MIN_RESOLUTION:
            raise DomainError(
                f"FieldGrid: resolution must be >= {_MIN_RESOLUTION}, "
                f"got {self.resolution}"
            )
        if self.values.shape != (self.resolution, self.resolution):
            raise DomainError("FieldGrid: values array does not match resolution")
        scale = float(np.max(np.abs(self.values)))
        if scale > 0.0 and abs(float(np.mean(self.values))) > 1e-10 * scale:
            raise DomainError("FieldGrid: synthesized field is not mean-free")

    def axis(self) -> np.ndarray:
        """Grid coordinates along one axis."""
        return -math.pi + 2.0 * math.pi * np.arange(self.resolution) / self.resolution

    def delta(self) -> float:
        """Curve parameter of this field."""
        return self.lap_norm_sq / self.grad_norm_sq


def _refined_sup(values: np.ndarray) -> float:
    """Grid maximum of |values| polished by an axis-wise quadratic fit
    through the periodic neighbors of the argmax."""
    av = np.abs(values)
    i, j = np.unravel_index(int(np.argmax(av)), av.shape)
    res = values.shape[0]
    s = 1.0 if values[i, j] >= 0.0 else -1.0
    v0 = float(s * values[i, j])
    total = v0
    for vm, vp in (
        (s * values[(i - 1) % res, j], s * values[(i + 1) % res, j]),
        (s * values[i, (j - 1) % res], s * values[i, (j + 1) % res]),
    ):
        denom = float(vm - 2.0 * v0 + vp)
        if denom < 0.0:
            total += float(vp - vm) ** 2 / (-8.0 * denom)
    return float(total)


def _row_terms(k1: np.ndarray, t2: float, mu: float) -> np.ndarray:
    """pi (h(k1) - h(a)) for rows k1 >= 1, h(x) = cosh(x(pi - t2))/(x sinh(pi x))
    and a = sqrt(k1^2 + 1/mu): row k1 of sum' cos(k2 t2)/(k^2 (1 + mu k^2)).

    The two closed forms agree to about 1/mu, so the difference is taken
    as a quotient: h(k1) - h(a) = -h(k1) expm1(log(h(a)/h(k1))), where the
    logarithm is a sum of log1p/expm1 terms in d = a - k1 = (1/mu)/(a + k1),
    each of one sign.  e^{-k1 t2} is a product over the float32 head of t2
    and its remainder, so that the argument k1 t2 (up to about 70) is not
    rounded.
    """
    d = (1.0 / mu) / (np.sqrt(k1 * k1 + 1.0 / mu) + k1)
    u = math.pi - t2
    y = np.exp(-2.0 * u * k1)
    z = np.exp(-2.0 * math.pi * k1)
    head = float(np.float32(t2))
    h = np.exp(-head * k1) * np.exp((head - t2) * k1) * (1.0 + y) / ((1.0 - z) * k1)
    log_ratio = (
        -d * t2
        + np.log1p(y * np.expm1(-2.0 * u * d) / (1.0 + y))
        - np.log1p(-z * np.expm1(-2.0 * math.pi * d) / (1.0 - z))
        - np.log1p(d / k1)
    )
    return -math.pi * h * np.expm1(log_ratio)


def _cosh_ratio(a, t2: float):
    """cosh(a(pi - t2))/sinh(pi a), stable for large a: (pi/a) times it is
    sum_{k in Z} cos(k t2)/(k^2 + a^2)."""
    return (
        np.exp(-a * t2)
        * (1.0 + np.exp(-2.0 * a * (math.pi - t2)))
        / (1.0 - np.exp(-2.0 * math.pi * a))
    )


def _row_wavenumbers(t2: float) -> np.ndarray:
    """The rows k1 = 1..M summed at larger coordinate t2 > 0: row k1 is
    O(e^{-k1 t2}), so they run past the factor e^{-42}."""
    reach = 42.0 / t2  # checked as a float: near the origin it is inf
    if reach > 2_000_000 - 8:
        raise ToleranceUnreachableError(
            f"Green function: point too close to the lattice "
            f"singularity (row cutoff {reach + 8.0:.7g} exceeds budget 2000000)"
        )
    return np.arange(1.0, math.ceil(reach) + 9.0)


def _synth_rows(t1: np.ndarray, t2: float, mu: float) -> np.ndarray:
    """sum' e^{i k.x} / (k^2 (1 + mu k^2)) at the points x = (t1[i], t2),
    0 <= t1[i] <= t2 <= pi, t2 > 0, by exact row summation.

    The summand splits as 1/k^2 - 1/(k^2 + 1/mu).  Rows run over k1, the
    wavenumber of the smaller coordinate t1; each row closes in the larger
    coordinate t2 via the identities
    sum_{k in Z} cos(k t)/(k^2+a^2) = (pi/a) cosh(a(pi-|t|))/sinh(pi a) and
    sum_{k != 0} cos(k t)/k^2 = pi^2/3 - pi|t| + t^2/2, and the difference of
    the two is formed without cancellation (:func:`_row_terms`).  Row k1
    is O(e^{-k1 t2}), so rows stop once that factor is below e^{-42}.
    """
    # row 0: sum_{k != 0} cos(k t2) (1/k^2 - 1/(k^2 + b^2)), b = 1/sqrt(mu)
    sq = math.sqrt(mu)
    plain0 = math.pi**2 / 3.0 - math.pi * t2 + t2 * t2 / 2.0
    if sq > 1.0:
        # the screened sum is pi b cosh(b u) - sinh(pi b) over b^2 sinh(pi b),
        # u = pi - t2, and it is within O(b^2) of plain0; so plain0 enters the
        # Taylor series over the same denominator, where the b^3 terms cancel
        # exactly and terms past n = 17 are below 1e-21
        b, u = 1.0 / sq, math.pi - t2
        row0 = sum(
            b ** (2 * n - 1)
            * math.pi
            * (plain0 * math.pi ** (2 * n - 2) / math.factorial(2 * n - 1)
               - u ** (2 * n) / math.factorial(2 * n)
               + math.pi ** (2 * n) / math.factorial(2 * n + 1))
            for n in range(2, 18)
        ) / math.sinh(math.pi * b)
    else:
        s_full = (math.pi / sq) * float(_cosh_ratio(np.asarray(1.0 / sq), t2))
        row0 = plain0 - mu * (s_full - 1.0)

    k1 = _row_wavenumbers(t2)
    terms = np.cos(np.multiply.outer(t1, k1)) * _row_terms(k1, t2, mu)
    return row0 + 2.0 * terms.sum(axis=-1)


def _certified_radius(mu: float, cfg: PrecisionConfig) -> int:
    """Smallest radius R on a x1.6 ladder from 64 at which the l2 sum
    sum' 1/(k^2 (1 + mu k^2))^2 over |k| <= R is within cfg.target_abs_tol.

    Beyond R, k^2 > R^2, so the neglected part is at most the top of the
    screened-g tail bracket (:func:`~torsob.lattice.tail_bracket`) divided
    by R^2.
    """
    R = min(64, cfg.max_radius)
    while tail_bracket(R, mu)[1] / (R * R) > cfg.target_abs_tol:
        if R >= cfg.max_radius:
            raise ToleranceUnreachableError(
                f"extremal_field: cannot certify the l2 norm at mu={mu:g} "
                f"within radius {cfg.max_radius}"
            )
        R = min(int(R * 1.6), cfg.max_radius)
    return R


@lru_cache(maxsize=6)
def _extremal_cached(
    mu: float, resolution: int, cfg: PrecisionConfig
) -> FieldGrid:
    triple = critical_sums(mu, cfg=cfg)
    # g ~ 4.66/mu^2 leaves the normal floats past mu ~ 1.4e154, then loses
    # bits to gradual underflow (h > g, and the l2 sum ~ 0.92 g, under one bit)
    if not triple.g.value >= sys.float_info.min:
        raise DomainError(f"extremal_field: the norms underflow at mu={mu:g}")
    R = _certified_radius(mu, cfg)  # refuses before the table is built
    # |x_i| = pi |2i - res| / res: u_mu is even in each coordinate and
    # symmetric under x1 <-> x2, so one table over the distinct distances
    # fills the grid, and the mirrored grid is exactly symmetric
    dist, idx = np.unique(
        np.abs(2 * np.arange(resolution) - resolution), return_inverse=True
    )
    t = math.pi * dist / resolution
    table = np.empty((len(t), len(t)))
    for m, t2 in enumerate(t):
        if t2 == 0.0:
            table[0, 0] = triple.f.value  # the series at the origin
        else:
            table[m, : m + 1] = table[: m + 1, m] = _synth_rows(t[: m + 1], t2, mu)
    values = table[np.ix_(idx, idx)]
    # the grid mean is the aliasing of the modes k = 0 mod res onto the
    # zero mode, which the field does not have
    values -= np.mean(values)
    q, c = _shells(2, R)
    w = 1.0 / (q * (1.0 + mu * q))
    four_pi_sq = 4.0 * math.pi * math.pi
    return FieldGrid(
        resolution=resolution,
        values=values,
        mu=mu,
        sup_value=_refined_sup(values),
        grad_norm_sq=four_pi_sq * triple.g.value,
        lap_norm_sq=four_pi_sq * triple.h.value,
        l2_norm_sq=four_pi_sq * _dot(c, w * w),
    )


def extremal_field(
    mu: float, resolution: int, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> FieldGrid:
    """The radial-spike extremal u_mu sampled on a resolution^2 grid.

    Node values are the series summed in closed form row by row (the rows
    stop below e^{-42} of their decay), f(mu) at the origin, less the grid
    mean, which is the aliasing of the modes k = 0 mod res.  grad and lap
    are (2pi)^2 g(mu) and (2pi)^2 h(mu) from critical_sums, with its
    certified bounds; l2 is summed term by term over |k| <= R, with R the
    smallest radius whose rigorous tail bound is within cfg.target_abs_tol.
    mu past about 1e154, where the norms underflow, is a DomainError.
    Results are cached per (mu, resolution, config).
    """
    if not (mu > 0.0) or not math.isfinite(mu):
        raise DomainError(f"extremal_field: mu must be positive, got {mu!r}")
    if resolution < _MIN_RESOLUTION:
        raise DomainError(
            f"extremal_field: resolution must be >= {_MIN_RESOLUTION}, "
            f"got {resolution}"
        )
    if resolution > _MAX_SYNTH_RESOLUTION:
        raise ResourceLimitError(
            f"extremal_field: resolution {resolution} is beyond the cap "
            f"{_MAX_SYNTH_RESOLUTION}"
        )
    return _extremal_cached(float(mu), int(resolution), cfg)


# ---------------------------------------------------------------------------
# Laplacian Green function
# ---------------------------------------------------------------------------


def g0_value(x) -> float:
    """The zero-mean Laplacian Green function sum' e^{i k.x}/k^2 at x != 0
    in [-pi, pi]^2, summed row by row in closed form.

    With t1 <= t2 the sorted |x_i|, rows run over k1, the wavenumber of
    t1, and each closes in t2 by the identities of :func:`_synth_rows`:
    g0 = pi^2/3 - pi t2 + t2^2/2 + 2 sum_{k1 >= 1} cos(k1 t1)
    pi cosh(k1(pi - t2))/(k1 sinh(pi k1)), the rows stopping below e^{-42}
    of their decay.  At (pi, pi) the value is -pi log 2.
    """
    x1, x2 = float(x[0]), float(x[1])
    if not (abs(x1) <= math.pi + 1e-12 and abs(x2) <= math.pi + 1e-12):
        raise DomainError(f"g0_value: point {(x1, x2)!r} outside [-pi, pi]^2")
    if x1 == 0.0 and x2 == 0.0:
        raise DomainError("g0_value: the Green function is singular at the origin")
    t1, t2 = sorted((abs(x1), abs(x2)))
    k1 = _row_wavenumbers(t2)
    rows = np.cos(t1 * k1) * (math.pi * _cosh_ratio(k1, t2) / k1)
    return float(math.pi**2 / 3.0 - math.pi * t2 + t2 * t2 / 2.0 + 2.0 * rows.sum())


# ---------------------------------------------------------------------------
# User Fourier data and inequality verification
# ---------------------------------------------------------------------------


class FourierInput:
    """Finite-support Hermitian coefficients u_k on Z^2 \\ {0}.

    The stored map is exactly what was passed in; Hermitian symmetry
    u_{-k} = conj(u_k) is required (the field must be real), and the zero
    mode and non-finite coefficients are forbidden.
    """

    def __init__(self, coefficients: Mapping[tuple[int, int], complex]):
        coeffs: dict[tuple[int, int], complex] = {}
        for k, v in coefficients.items():
            k = (int(k[0]), int(k[1]))
            if k == (0, 0):
                raise DomainError("FourierInput: zero mode k=(0,0) is not allowed")
            coeffs[k] = complex(v)
            if not cmath.isfinite(coeffs[k]):
                raise DomainError(f"FourierInput: coefficient at k={k} is not finite")
        if not coeffs:
            raise DomainError("FourierInput: empty coefficient set")
        scale = max(abs(v) for v in coeffs.values())
        for (k1, k2), v in coeffs.items():
            partner = coeffs.get((-k1, -k2))
            if partner is None or abs(partner - v.conjugate()) > 1e-12 * max(
                1.0, scale
            ):
                raise DomainError(
                    f"FourierInput: coefficients are not Hermitian at k={(k1, k2)}"
                )
        self.coefficients = coeffs

    @classmethod
    def from_file(cls, path) -> "FourierInput":
        """Parse 'k1 k2 re im' lines; '#' comments and blank lines skipped."""
        coeffs: dict[tuple[int, int], complex] = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"FourierInput: {path}: not UTF-8 text ({exc})") from exc
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise DomainError(
                    f"FourierInput: malformed line {lineno}: expected "
                    f"'k1 k2 re im', got {raw.rstrip()!r}"
                )
            try:
                k = (int(parts[0]), int(parts[1]))
                v = complex(float(parts[2]), float(parts[3]))
            except ValueError as exc:
                raise DomainError(
                    f"FourierInput: unparsable numbers on line {lineno}"
                ) from exc
            if k in coeffs:
                raise DomainError(
                    f"FourierInput: duplicate mode {k} on line {lineno}"
                )
            coeffs[k] = v
        return cls(coeffs)

    def norms(self) -> tuple[float, float, float]:
        """(l2, grad, lap) squared norms in the 1/2pi convention."""
        return self.sobolev_norm_sq(0), self.sobolev_norm_sq(1), self.sobolev_norm_sq(2)

    def sobolev_norm_sq(self, n: int) -> float:
        """sum' |k|^{2n} |u_k|^2; a sum beyond double range raises
        :class:`DomainError`."""
        try:
            total = sum(
                float(k1 * k1 + k2 * k2) ** n * abs(v) ** 2
                for (k1, k2), v in self.coefficients.items()
            )
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise DomainError(f"FourierInput: the squared H^{n} norm overflows double precision")
        return total

    def max_wavenumber(self) -> int:
        return max(
            max(abs(k1), abs(k2)) for (k1, k2) in self.coefficients
        )

    def synthesize(self, resolution: int | None = None) -> np.ndarray:
        """Real grid values of (1/2pi) sum' u_k e^{i k.x}."""
        kmax = self.max_wavenumber()
        if resolution is None:
            resolution = max(128, 1 << (4 * kmax - 1).bit_length())
        if resolution <= 2 * kmax:
            raise DomainError(
                f"FourierInput: resolution {resolution} cannot resolve modes "
                f"up to {kmax}"
            )
        if resolution > _MAX_SYNTH_RESOLUTION:
            raise ResourceLimitError(
                f"FourierInput: modes up to {kmax} need a {resolution}^2 grid, "
                f"beyond the cap {_MAX_SYNTH_RESOLUTION}"
            )
        inv_2pi = 1.0 / (2.0 * math.pi)
        # e^{i k.x_i} = (-1)^k e^{2 pi i k i/res}: one DFT bin per mode, and
        # res > 2 kmax keeps the bins distinct and (0, 0) empty
        A = np.zeros((resolution, resolution), dtype=complex)
        for (k1, k2), v in self.coefficients.items():
            phase = -1.0 if (k1 + k2) % 2 else 1.0
            A[k1 % resolution, k2 % resolution] += v * inv_2pi * phase
        return (resolution * resolution * np.fft.ifft2(A)).real


_WHICH = ("log_theta0", "log_doublelog", "algebraic")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one inequality on one input field."""

    which: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    delta: float
    case: CaseDN | None = None


@lru_cache(maxsize=8)
def _loglog_constant(cfg: PrecisionConfig) -> float:
    return find_L(cfg).L


@lru_cache(maxsize=32)
def _remainder_k(case: CaseDN, cfg: PrecisionConfig) -> float:
    return remainder_constant(case, cfg).K


def verify_inequality(
    inp: FourierInput,
    which: str,
    case: CaseDN | None = None,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
) -> VerificationReport:
    """Check one of the sharp peak bounds on a finite-mode field.

    which selects the right-hand side:
      - "log_theta0":   ||grad u||^2 * Theta0(delta) with the closed-form
                        upper curve at delta = ||lap u||^2/||grad u||^2;
      - "log_doublelog": (1/4pi)||grad u||^2 (log delta + log(1+log delta) + L);
      - "algebraic":    c_d(n) ||u||^{2-d/n} ||(-lap)^{n/2} u||^{d/n}
                        - K_d(n) ||u||^2, needing case with d = 2.

    lhs is the squared refined grid supremum of |u|; holds allows a 1e-9
    relative slack for roundoff. A field with ||grad u||^2 = 0 (u = 0, or
    coefficients so small that their squares underflow) has no delta and is
    rejected.
    """
    if which not in _WHICH:
        raise DomainError(f"verify_inequality: unknown inequality {which!r}")
    l2, grad, lap = inp.norms()
    if grad == 0.0:
        raise DomainError(
            "verify_inequality: ||grad u||^2 = 0, so delta = "
            "||lap u||^2/||grad u||^2 is undefined"
        )
    delta = lap / grad
    values = inp.synthesize()
    sup = _refined_sup(values)
    lhs = sup * sup

    if which == "log_theta0":
        rhs = grad * theta_model("theta0", delta, cfg)
    elif which == "log_doublelog":
        L = _loglog_constant(cfg)
        rhs = (
            grad
            / (4.0 * math.pi)
            * (math.log(delta) + math.log1p(math.log(delta)) + L)
        )
    else:
        if case is None:
            raise DomainError("verify_inequality: algebraic form needs a case")
        if case.d != 2:
            raise DomainError(
                "verify_inequality: planar Fourier data verifies d = 2 cases only"
            )
        p = case.d / (2.0 * case.n)
        hn = inp.sobolev_norm_sq(case.n)
        rhs = (
            leading_constant(case) * l2 ** (1.0 - p) * hn**p
            - _remainder_k(case, cfg) * l2
        )
    lhs, rhs = float(lhs), float(rhs)
    margin = rhs - lhs
    return VerificationReport(
        which=which,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=bool(margin >= -1e-9 * abs(rhs)),
        delta=float(delta),
        case=case,
    )
