"""The numeric kernels that replace scipy in torsob.

``_optim.brentq`` and the zeta routines of ``specfun`` are ports of the
scipy/Cephes code and must give the same bits; scipy stays installed as a
test dependency, so each port is checked against it with ``==`` on seeded
samples.  The zeta values are also checked against mpmath at 30 digits
within the error bounds the library reports for them.  The import tests
run in child processes and guard that ``import torsob``, every CLI
subcommand and ``g0_value`` load no scipy module, that the lattice sums
of d = 1, 2, 3 load neither scipy nor mpmath, and that numpy is the one
runtime dependency.
``lattice._dot`` is the package's one dot product: it is checked against
np.dot and against exact sums, every other BLAS call is ruled out by a
source scan, and child processes under different OpenBLAS thread counts
must print the same bits.
"""

import ast
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.special import zeta as scipy_zeta

from torsob import cli, curve
from torsob._optim import brentq, envelope_max
from torsob.errors import DomainError, ToleranceUnreachableError
from torsob.lattice import _DOT_BLOCK, _dot
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


def test_unreached_delta_maps_to_cli_tolerance_unreachable(monkeypatch, capsys):
    # an exact curve whose delta stays at 1.5 never brackets delta = 2
    stuck = lambda mu, cfg=None: curve.ThetaSample(mu, 1.5, 0.1, "exact", 0.0)  # noqa: E731
    monkeypatch.setattr(curve, "theta_point", stuck)
    code = cli.main(["theta", "--model", "exact", "--delta-grid", "2:3:2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("torsob: tolerance-unreachable: mu_of_delta: no upper bracket")


def test_delta_root_checks_the_residual():
    # Brent's method converges onto a jump of the map, which never reaches 1
    jump = lambda x: 0.0 if x < 0.3 else 2.0  # noqa: E731
    with pytest.raises(ToleranceUnreachableError, match="root residual"):
        curve._delta_root(jump, 1.0, [-1.0], [1.0], False, 1e-15, 1e-11, "jump")
    assert curve._delta_root(lambda x: 1.0 + x, 1.0, [-1.0], [1.0], False, 1e-15, 0.0,
                             "line") == 0.0


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


def _bump_probe(ts, calls=None):
    """Y = -(t - 2.2)^2 with samples good to 1e-6, and its tangent lines,
    each moved up by that error."""
    rows = [(-((t - 2.2) ** 2), 1e-6, t, 0.0, (t - 2.2) * (t + 2.2) + 1e-6, -2.0 * (t - 2.2))
            for t in ts]
    if calls is not None:
        calls.append(len(ts))
    return rows, list(ts)


def test_envelope_max_resolves_the_argmax_below_the_sample_errors():
    # a smooth peak with samples good to 1e-6 only: the bounds stop
    # splitting at intervals about 1e-3 wide, and the neighbours of the
    # best sample are split on down to tol
    best, lower, upper = envelope_max(_bump_probe, np.zeros_like, np.linspace(0.0, 6.0, 7), 1e-9)
    assert lower <= 0.0 <= upper
    assert abs(best - 2.2) < 1e-6


def test_envelope_max_stops_at_an_incumbent_above_every_bound():
    # the best seed t = 2 is interior, but below the incumbent: neither its
    # neighbours nor any interval is split, so the seeds are the only probe
    calls = []
    probe = lambda ts: _bump_probe(ts, calls)  # noqa: E731
    seeds = np.linspace(0.0, 6.0, 7)
    best, lower, upper = envelope_max(probe, np.zeros_like, seeds, 1e-9, known=1.0)
    assert calls == [7]
    assert best == 2.0 and lower <= -0.04 <= upper < 1.0


def test_envelope_max_splits_an_interval_that_beats_the_incumbent():
    # the incumbent lies between the best seed and the peak, so the bound of
    # [4, 5] beats it and the search still reaches the peak
    seeds = np.linspace(0.0, 6.0, 7)
    calls = []
    probe = lambda ts: _envelope_probe(ts, calls)  # noqa: E731
    best, lower, upper = envelope_max(probe, _phi, seeds, 1e-12, known=_PEAK - 0.1)
    assert len(calls) > 1
    assert lower <= _PEAK <= upper and upper - lower < 1e-11
    assert abs(best - _PEAK_T) < 1e-11


@pytest.mark.parametrize("case", ["tent", "bump"])
def test_envelope_max_incumbent_below_the_best_sample_changes_nothing(case):
    probe, phi, tol, seed_best = {
        "tent": (_envelope_probe, _phi, 1e-12, 20.0 - 3.0 * 4.3),
        "bump": (_bump_probe, np.zeros_like, 1e-9, -0.04),
    }[case]
    seeds = np.linspace(0.0, 6.0, 7)
    calls, known_calls = [], []
    plain = envelope_max(lambda ts: probe(ts, calls), phi, seeds, tol)
    known = envelope_max(lambda ts: probe(ts, known_calls), phi, seeds, tol, known=seed_best - 1.0)
    assert known == plain and known_calls == calls


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


def _child(code: str, **env_vars: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, **env_vars)
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
        ["theta", "--model", "exact", "--delta-grid", "1:30:4"],
        ["constants"],
        ["bounds", "--delta-grid", "4:1000:3"],
        ["verify", "--input", "MODES", "--inequality", "loglog"],
        None,  # g0_value
    ],
)
def test_cli_loads_no_scipy(argv, tmp_path):
    modes = tmp_path / "modes.txt"
    modes.write_text("1 0 3.141592653589793 0\n-1 0 3.141592653589793 0\n")
    if argv is not None:
        argv = [str(modes) if a == "MODES" else a for a in argv]
    r = _child(
        f"""
        import contextlib, io, runpy, sys
        import torsob
        argv = {argv!r}
        if argv is None:
            torsob.g0_value((1.1, 0.4))
        else:
            sys.argv = ["torsob"] + argv
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


def test_lattice_sums_of_every_dimension_load_neither_scipy_nor_mpmath():
    import tomllib

    r = _child(
        """
        import sys
        from torsob import CaseDN, critical_sums, delta_plateau, general_sums
        from torsob import remainder_constant
        critical_sums(0.5, "direct")
        critical_sums(0.5, "accelerated")
        for case in (CaseDN(1, 1), CaseDN(2, 2), CaseDN(3, 2)):
            general_sums(case, 0.5)
        delta_plateau(CaseDN(3, 4))
        remainder_constant(CaseDN(3, 2))
        print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")))
        """
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]


# ----------------------------------------------------------- the dot product

_U = 2.0**-53


@pytest.mark.parametrize("n", [0, 1, 7, 1000, _DOT_BLOCK - 1, _DOT_BLOCK])
def test_dot_is_np_dot_up_to_one_block(n):
    rng = np.random.default_rng(n)
    a, b = rng.random(n), rng.normal(size=n)
    assert _dot(a, b) == float(np.dot(a, b))
    assert _dot(a[::-1], b[::-1]) == float(np.dot(a[::-1], b[::-1]))


@pytest.mark.parametrize("n", [_DOT_BLOCK + 1, 10**5 + 3, 10**6])
def test_dot_of_exact_block_partials_is_the_rounded_sum(n):
    # integers below 2^20: every product and every partial of one block is
    # exact, so the only rounding is the one of math.fsum, and the result is
    # the correctly rounded sum of all n products (for n >= 10^5 the total
    # passes 2^53, so that rounding acts)
    rng = np.random.default_rng(n)
    ia, ib = rng.integers(0, 2**20, n), rng.integers(0, 2**20, n)
    exact = int(np.dot(ia, ib))  # int64: below n 2^40 < 2^63
    assert n < 10**5 or exact > 2**53
    assert _dot(ia.astype(np.float64), ib.astype(np.float64)) == float(exact)


def test_dot_adds_block_partials_exactly():
    # block partials 2^60 and 121 times 8292, each exact; added one by one
    # to an accumulator that holds 2^60 (ulp 256), each 8292 rounds to 8192,
    # and the lost 100s add up to more than an ulp of the total
    a = np.ones(122 * _DOT_BLOCK)
    a[0] = 2.0**30
    b = np.ones_like(a)
    b[:_DOT_BLOCK] = 0.0
    b[0] = 2.0**30
    b[2 * _DOT_BLOCK - 1 :: _DOT_BLOCK] = 101.0
    partials = [2.0**60] + [float(_DOT_BLOCK - 1 + 101)] * 121
    exact = float(sum(map(Fraction, partials)))
    assert sum(partials) != exact
    assert float(np.add.reduce(partials)) != exact
    assert _dot(a, b) == exact


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_dot_within_stated_bound_of_exact_sum(n):
    # dyadic inputs with 21-bit mantissas: each product is exact in float64,
    # so math.fsum of the products is the correctly rounded exact sum;
    # exponents over 2^-30..2^30 make the block partials round
    rng = np.random.default_rng(n)
    a = rng.integers(-(2**20), 2**20, n) * np.exp2(rng.integers(-30, 31, n))
    b = rng.integers(-(2**20), 2**20, n) * np.exp2(rng.integers(-30, 31, n))
    prods = a * b
    ref = math.fsum(prods)
    gamma = _DOT_BLOCK * _U / (1.0 - _DOT_BLOCK * _U)
    # the _dot docstring's bound, and the rounding of ref itself
    bound = 2.0 * _U * abs(ref) * (1.0 + 2.0 * _U) + (1.0 + _U) * gamma * math.fsum(np.abs(prods))
    assert abs(_dot(a, b) - ref) <= bound


_BLAS_NAMES = frozenset({"dot", "matmul", "inner", "vdot", "einsum", "tensordot", "linalg"})


def _blas_calls(tree: ast.AST, skip: ast.AST | None = None) -> list[int]:
    """Lines of tree that name a BLAS routine or use @, outside skip."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    lines = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            names = ["matmul"] if isinstance(node.op, ast.MatMult) else []
        else:
            continue
        if _BLAS_NAMES.intersection(names):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_blas_guard_sees_every_form():
    sample = (
        "import numpy.linalg\nfrom numpy import inner\n"
        "x = np.dot(a, b)\ny = a @ b\ny @= b\nz = a.dot(b)\n"
        "w = np.einsum('i,i', a, b) + np.vdot(a, b) + np.tensordot(a, b, 1)\n"
        "v = np.matmul(a, b) + np.linalg.norm(a) + inner(a, b)\n"
        "@lru_cache\ndef f(a, b):\n    return np.add.reduce(a * b)\n"
    )
    assert _blas_calls(ast.parse(sample)) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_no_blas_call_outside_dot():
    found = []
    for path in sorted((SRC / "torsob").glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = next(
            (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_dot"),
            None,
        )
        if path.name == "lattice.py":
            assert skip is not None
        found += [f"{path.name}:{line}" for line in _blas_calls(tree, skip)]
    assert found == []


# every value but the field's l2 and the (2, 3) rows takes a dot product
# over more than 10^4 shells, where OpenBLAS splits np.dot over its threads
_THREAD_PROBE = """
    from torsob.algebraic import remainder_constant
    from torsob.bounds import elementary_comparison
    from torsob.field import extremal_field
    from torsob.lattice import CaseDN, critical_sums, general_sums
    direct = critical_sums(0.3, "direct")
    batch = general_sums(CaseDN(3, 2), 6.0**-4)
    rows = general_sums(CaseDN(2, 3), 3.0**-6)
    comparison = elementary_comparison(0.01)
    values = [
        *(v.value for v in (direct.f, direct.g, direct.h, batch.f, batch.g, batch.h)),
        *(v.value for v in (rows.f, rows.g, rows.h)),
        extremal_field(0.5, 64).l2_norm_sq,
        comparison.A,
        comparison.B,
        remainder_constant(CaseDN(3, 2)).K,
    ]
    print(" ".join(float(v).hex() for v in values))
"""


def _probe(threads: str) -> str:
    r = _child(_THREAD_PROBE, OPENBLAS_NUM_THREADS=threads)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_sums_do_not_depend_on_the_blas_thread_count():
    one = _probe("1")
    two = _probe("2")
    four = _probe("4")
    assert len(one.split()) == 13
    assert two == one
    assert four == one
