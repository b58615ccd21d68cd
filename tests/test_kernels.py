"""The numeric kernels that replace scipy on torsob's import path.

``_optim.brentq`` and the zeta routines of ``specfun`` are ports of the
scipy/Cephes code and must give the same bits; scipy stays installed as a
test dependency, so each port is checked against it with ``==`` on seeded
samples.  The zeta values are also checked against mpmath at 30 digits
within the error bounds the library reports for them.  The import tests
run in child processes and guard that ``import torsob``, and CLI calls that
never evaluate a Bessel function, load no scipy module.
"""

import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.special import zeta as scipy_zeta

from torsob import cli, curve
from torsob._optim import brentq, envelope_max
from torsob.errors import DomainError, ToleranceUnreachableError
from torsob.specfun import _hurwitz_zeta, _riemann_zeta, zeta_dirichlet

SRC = Path(__file__).resolve().parents[1] / "src"


# ------------------------------------------------------------------ brentq


def _problem(rng: random.Random):
    c = [rng.uniform(-3.0, 3.0) for _ in range(3)]
    return rng.choice(
        [
            lambda x: c[0] + c[1] * x + c[2] * x**3,
            lambda x: math.exp(c[0] * x) - abs(c[1]) - 0.1,
            # tiny values: the extrapolation step's denominator underflows
            lambda x: math.tanh(c[0] * (x - c[1])) * 1e-160,
            lambda x: (x - c[0]) ** 3 * 1e-110,
            lambda x: math.atan(x - c[0]) ** 3,
            lambda x: (x - c[0]) * (x - c[1]) * (x - c[2]),
            lambda x: math.copysign(abs(x - c[0]) ** 0.3, x - c[0]),
        ]
    )


def _outcome(solver, f, a, b, kw):
    try:
        return "root", solver(f, a, b, **kw)
    except ValueError:
        return "ValueError", None
    except RuntimeError:
        return "RuntimeError", None


def test_brentq_matches_scipy_bit_for_bit():
    rng = random.Random(20101209)
    kinds = set()
    for _ in range(3000):
        f = _problem(rng)
        a, b = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        for _ in range(30):  # mostly sign-changing brackets, some not
            if (f(a) > 0.0) != (f(b) > 0.0) or rng.random() < 0.05:
                break
            a, b = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        kw = {}
        if rng.random() < 0.5:
            kw["xtol"] = 10.0 ** rng.uniform(-15.0, -2.0)
        if rng.random() < 0.3:
            kw["rtol"] = 8.9e-16 * 10.0 ** rng.uniform(0.0, 5.0)
        if rng.random() < 0.3:
            kw["maxiter"] = rng.randrange(1, 20)
        want = _outcome(scipy_brentq, f, a, b, kw)
        got = _outcome(brentq, f, a, b, kw)
        assert got == want, (a, b, kw)
        if want[0] == "root":
            assert math.copysign(1.0, got[1]) == math.copysign(1.0, want[1])
        kinds.add(want[0])
    assert kinds == {"root", "ValueError", "RuntimeError"}


def test_brentq_converges_to_tolerance():
    root = brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-15)
    assert abs(root - math.sqrt(2.0)) <= 1e-15
    assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0  # exact root at an end


def test_brentq_without_sign_change_is_a_domain_error():
    with pytest.raises(DomainError, match="different signs") as exc:
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    assert isinstance(exc.value, ValueError)
    assert exc.value.exit_code == 2


def test_brentq_nan_objective_is_a_domain_error():
    with pytest.raises(DomainError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)


def test_brentq_out_of_iterations_is_tolerance_unreachable():
    with pytest.raises(ToleranceUnreachableError, match="3 iterations") as exc:
        brentq(lambda x: math.atan(x - 0.3), -100.0, 100.0, xtol=1e-15, maxiter=3)
    assert isinstance(exc.value, RuntimeError)
    assert exc.value.exit_code == 3


@pytest.mark.parametrize("kw", [{"xtol": 0.0}, {"rtol": 1e-16}])
def test_brentq_rejects_tolerances_scipy_rejects(kw):
    with pytest.raises(DomainError):
        brentq(lambda x: x, -1.0, 1.0, **kw)
    with pytest.raises(ValueError):
        scipy_brentq(lambda x: x, -1.0, 1.0, **kw)


def test_failed_root_solve_maps_to_cli_domain_error(monkeypatch, capsys):
    # a model whose delta map never reaches 1 leaves the range solve of
    # theta --model exp without a sign change
    monkeypatch.setattr(curve, "_exp_pair", lambda mu: (5.0, 0.1))
    monkeypatch.setattr(curve, "_MODEL_RANGE", {})
    code = cli.main(["theta", "--model", "exp", "--delta-grid", "1:2:3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("torsob: domain-error: brentq: f(a) and f(b) must have")
    assert "Traceback" not in err


# ------------------------------------------------------------ envelope_max

# A concave Y as the lower envelope of known lines, a tent of slopes +-3
# with its apex at (4.3, 20), less a concave phi of slope 3.01 up to
# t = 4.1 and flat after it: J falls slowly from its left end, then rises
# to a narrow peak at the apex that the integer seeds straddle.
_LINES = ((20.0 - 3.0 * 4.3, 3.0), (20.0 + 3.0 * 4.3, -3.0))
_PEAK_T = 4.3
_PEAK = 20.0 - 3.01 * 4.1


def _phi(t):
    return np.minimum(3.01 * t, 3.01 * 4.1)


def _envelope_probe(ts, calls=None, lines=_LINES):
    """Exact samples of the envelope, each with its active line."""
    rows = []
    for t in ts:
        a, b = min(lines, key=lambda ab: ab[0] + ab[1] * t)
        rows.append((a + b * t, 0.0, t, 0.0, a, b))
    if calls is not None:
        calls.append(len(ts))
    return rows, list(ts)


def test_envelope_max_finds_the_peak_the_seeds_miss():
    # the best seed is the left end, so only the bound of the interval
    # [4, 5] can send the search to the peak
    seeds = np.linspace(0.0, 6.0, 7)
    rows, _ = _envelope_probe(seeds)
    seed_values = [y - _phi(t) for y, _, t, *_ in rows]
    assert int(np.argmax(seed_values)) == 0 and max(seed_values) < _PEAK - 0.5
    calls = []
    best, lower, upper = envelope_max(lambda ts: _envelope_probe(ts, calls), _phi, seeds, 1e-12)
    assert lower <= _PEAK <= upper
    assert upper - lower < 1e-11
    assert abs(best - _PEAK_T) < 1e-11
    # one batched probe per generation, each small next to the seeds
    assert calls[0] == 7 and len(calls) < 60 and max(calls[1:]) <= 4


@pytest.mark.parametrize("n_seeds", [3, 8, 40])
def test_envelope_max_seed_count_changes_the_cost_not_the_result(n_seeds):
    _, lower, upper = envelope_max(_envelope_probe, _phi, np.linspace(0.0, 6.0, n_seeds), 1e-12)
    assert lower <= _PEAK <= upper
    assert upper - lower < 1e-11


def test_envelope_max_takes_a_higher_edge():
    # J = t - sqrt(t) rises to the right end of the range
    probe = lambda ts: _envelope_probe(ts, lines=((0.0, 1.0),))  # noqa: E731
    best, lower, upper = envelope_max(probe, np.sqrt, np.linspace(1.0, 4.0, 8), 1e-9)
    assert best == 4.0
    assert lower <= 2.0 <= upper < 2.0 + 1e-13


def test_envelope_max_holds_the_sample_errors():
    # every sample off by its own error bound: the enclosure widens to hold
    # the true maximum instead of the computed one
    def probe(ts):
        rows, payloads = _envelope_probe(ts)
        return [(y + 1e-6, 2e-6, t, 0.0, a + 2e-6, b) for y, _, t, _, a, b in rows], payloads

    _, lower, upper = envelope_max(probe, _phi, np.linspace(0.0, 6.0, 7), 1e-12)
    assert lower <= _PEAK <= upper
    assert upper - lower < 1e-5


def test_envelope_max_resolves_the_argmax_below_the_sample_errors():
    # a smooth peak with samples good to 1e-6 only: the bounds stop
    # splitting at intervals about 1e-3 wide, and the neighbours of the
    # best sample are split on down to tol
    def probe(ts):
        # Y = -(t - 2.2)^2 and its tangent lines, each moved up by the error
        rows = [(-((t - 2.2) ** 2), 1e-6, t, 0.0, (t - 2.2) * (t + 2.2) + 1e-6, -2.0 * (t - 2.2))
                for t in ts]
        return rows, list(ts)

    best, lower, upper = envelope_max(probe, np.zeros_like, np.linspace(0.0, 6.0, 7), 1e-9)
    assert lower <= 0.0 <= upper
    assert abs(best - 2.2) < 1e-6


def test_envelope_max_needs_two_increasing_seeds():
    for seeds in ([1.0], [2.0, 1.0]):
        with pytest.raises(DomainError):
            envelope_max(_envelope_probe, np.sqrt, np.array(seeds), 1e-9)


# -------------------------------------------------------------------- zeta

_RIEMANN_BRANCHES = {
    # integer s <= 30: the table of zeta(j) - 1
    "table": lambda rng: float(rng.randrange(2, 31)),
    # s <= 10: rational function of 1/s
    "rational": lambda rng: 1.0 + 10.0 ** rng.uniform(-12.0, math.log10(9.0)),
    # 10 < s <= 50: exponentiated rational function of s
    "exp_rational": lambda rng: rng.uniform(10.0, 50.0),
    # s > 50: the sum over odd integers
    "odd_sum": lambda rng: rng.uniform(50.0, 140.0),
}


@pytest.mark.parametrize("branch", sorted(_RIEMANN_BRANCHES))
def test_riemann_zeta_matches_scipy(branch):
    rng = random.Random(branch)
    draw = _RIEMANN_BRANCHES[branch]
    for _ in range(2000):
        s = draw(rng)
        assert _riemann_zeta(s) == float(scipy_zeta(s)), s
    for s in (10.0, 50.0, math.nextafter(10.0, 11.0), 127.0, 31.0, 200.0):
        assert _riemann_zeta(s) == float(scipy_zeta(s)), s


def _general_sums_moments(rng: random.Random, count: int, p_max: int):
    """(p, q) as general_sums passes them for d = 1: p = 2 n m <= p_max
    and q = T + 1, with T between the base radius 64 and the cap 6000."""
    pairs = []
    while len(pairs) < count:
        p = 2 * rng.randrange(1, 9) * rng.randrange(1, 30)
        if p <= p_max:
            pairs.append((float(p), float(rng.randrange(65, 6002))))
    return pairs


def test_hurwitz_zeta_matches_scipy():
    rng = random.Random(1012)
    for p, q in _general_sums_moments(rng, 4000, p_max=464):
        assert _hurwitz_zeta(p, q) == float(scipy_zeta(p, q)), (p, q)
    for _ in range(2000):  # off the integer grid, large q included
        p, q = 1.0 + 10.0 ** rng.uniform(-3.0, 2.5), 10.0 ** rng.uniform(-3.0, 9.5)
        assert _hurwitz_zeta(p, q) == float(scipy_zeta(p, q)), (p, q)


def test_hurwitz_zeta_underflow_and_domain():
    assert _hurwitz_zeta(400.0, 6001.0) == 0.0 == float(scipy_zeta(400.0, 6001.0))
    with pytest.raises(DomainError):
        _hurwitz_zeta(1.0, 2.0)
    with pytest.raises(DomainError):
        _hurwitz_zeta(2.0, 0.0)


def test_riemann_zeta_within_reported_bound():
    rng = random.Random(2061)
    points = [draw(rng) for draw in _RIEMANN_BRANCHES.values() for _ in range(60)]
    with mp.workdps(30):
        for s in points:
            z = zeta_dirichlet(s)[0]
            assert abs(mp.mpf(z.value) - mp.zeta(s)) <= z.abs_error_bound, s
            assert z.abs_error_bound <= 4e-15 * z.value


def _hurwitz_reference(p: float, q: float) -> mp.mpf:
    """zeta(p, q) at 30 digits: direct terms until k + q >= 2p + 10, then
    Euler-Maclaurin with exact Bernoulli numbers.  mpmath's own zeta(s, a)
    is not used: for s >= 12 and a in the hundreds it is off by up to
    1e-9 relative at this precision (mpmath 1.3)."""
    p, q = mp.mpf(p), mp.mpf(q)
    n_direct = int(max(0, 2 * p - q)) + 10
    a = q + n_direct
    s = mp.fsum((q + k) ** (-p) for k in range(n_direct))
    s += a ** (1 - p) / (p - 1) + a ** (-p) / 2
    rising = p  # (p)_{2j-1}
    for j in range(1, 25):
        term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * rising * a ** (-p - 2 * j + 1)
        s += term
        rising *= (p + 2 * j - 1) * (p + 2 * j)
    assert abs(term) < mp.mpf("1e-25") * s  # the reference is converged
    return s


def test_hurwitz_zeta_within_reported_bound():
    # general_sums charges each d = 1 moment it evaluates 8e-16 relative.
    # It evaluates order m only while the scaled moment can reach tol/12;
    # x >= 8^(2n) on the tail caps that term near 2 (T + 1) 8^-p / (p - 1),
    # so p stays below about 40 and the moment above 1e-150.  (Near
    # underflow Cephes' correction terms turn subnormal and the relative
    # error grows: 2.3e-15 at p = 100, q = 1085, where the value is
    # 3.3e-303.)
    rng = random.Random(61)
    with mp.workdps(30):
        for p, q in _general_sums_moments(rng, 150, p_max=48):
            v = _hurwitz_zeta(p, q)
            ref = _hurwitz_reference(p, q)
            assert abs(mp.mpf(v) - ref) <= 8e-16 * ref, (p, q)


# ---------------------------------------------------------- import hygiene


def _child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_torsob_loads_no_scipy():
    r = _child(f"import sys, torsob; print({_SCIPY_LOADED})")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["kdn", "--d", "1", "--n", "3", "--delta-grid", "1.2:5:4"],
        ["limit", "--d", "2", "--n", "8", "--z-grid", "1.5:4:3"],
    ],
)
def test_cli_without_bessel_loads_no_scipy(argv):
    r = _child(
        f"""
        import contextlib, io, runpy, sys
        sys.argv = ["torsob"] + {argv!r}
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                runpy.run_module("torsob.cli", run_name="__main__")
            except SystemExit as exc:
                assert not exc.code, exc.code
        assert out.getvalue().count("\\n") > 3
        print({_SCIPY_LOADED})
        """
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
