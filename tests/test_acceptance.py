"""Release gate: one test per numbered acceptance criterion.

Each test prints a single line

    [criterion NN] PASS|FAIL — detail

before asserting, so the full scoreboard is readable from the captured
stdout of a `pytest -rA` run whatever the outcome.  Reference values and
tolerances are pinned here verbatim; where an independently computed
quantity genuinely disagrees with its pinned reference the test is left
to fail rather than loosened (see README, "known disagreements").
"""

import math
import time

import numpy as np
import pytest

from torsob import algebraic, bounds, curve, field, largen, lattice
from torsob.lattice import CaseDN, PrecisionConfig, critical_sums

from green_images import g0_image_route
from scalar_oracles import hardy_sum_theta_split

CFG10 = PrecisionConfig(target_abs_tol=1e-10)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_theta_tables():
    t0 = time.perf_counter()
    exact_ref = {1.0: 0.10134, 2.0: 0.26651, 4.0: 0.35112}
    theta0_ref = {1.0: 0.17797, 2.0: 0.26660, 4.0: 0.35112}
    worst_exact = max(
        abs(curve.theta_model("exact", d) - r) for d, r in exact_ref.items()
    )
    worst_theta0 = max(
        abs(curve.theta_model("theta0", d) - r) for d, r in theta0_ref.items()
    )
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 5e-5 and worst_theta0 <= 5e-6 and elapsed < 10.0
    _report(
        1,
        ok,
        f"exact table off by {worst_exact:.2e} (tol 5e-5), "
        f"theta0 by {worst_theta0:.2e} (tol 5e-6), {elapsed:.1f}s",
    )


def test_criterion_02_sharp_double_log_constant():
    t0 = time.perf_counter()
    rep = curve.find_L()
    elapsed = time.perf_counter() - t0
    dL = abs(rep.L - 2.15627)
    dd = abs(rep.delta_star - 3.92888)
    ok = (
        dL <= 2e-5
        and dd <= 5e-4
        and rep.L > 1.82283
        and elapsed < 120.0
    )
    _report(
        2,
        ok,
        f"L={rep.L:.10f} vs pinned 2.15627 (|diff|={dL:.2e}, tol 2e-5), "
        f"delta*={rep.delta_star:.7f} vs 3.92888 (|diff|={dd:.2e}, tol 5e-4), "
        f"L>1.82283 {'ok' if rep.L > 1.82283 else 'violated'}, {elapsed:.1f}s",
    )


def test_criterion_03_named_constants():
    t0 = time.perf_counter()
    beta = lattice.beta_constant().value
    euler_route = math.pi * 0.5772156649015329 + 4.0 * 0.1929013167969134
    d_routes = abs(beta - euler_route)
    d_ratio = abs((beta + math.pi) / math.pi - 1.82283)
    from torsob.specfun import dirichlet_beta_prime_at_1, lambert_w

    bp1 = dirichlet_beta_prime_at_1().value
    d_bp1 = abs(bp1 - 0.19290)
    w = lambert_w(0, -2.0 * math.exp(-2.0)).value
    alpha = (math.exp(w + 2.0) - 1.0) / (w + 2.0) ** 2
    d_alpha = abs(alpha - 1.544)
    elapsed = time.perf_counter() - t0
    ok = (
        d_routes <= 1e-10
        and d_ratio <= 1e-5
        and d_bp1 <= 1e-5
        and d_alpha <= 1e-3
        and elapsed < 1.0
    )
    _report(
        3,
        ok,
        f"beta routes agree to {d_routes:.1e} (tol 1e-10), "
        f"(beta+pi)/pi off {d_ratio:.1e}, beta'(1) off {d_bp1:.1e}, "
        f"alpha off {d_alpha:.1e}, {elapsed:.2f}s",
    )


def test_criterion_04_model_dominates_exact():
    t0 = time.perf_counter()
    worst = math.inf
    for d in np.linspace(1.0, 50.0, 500):
        delta = float(d)
        if delta == 1.0:
            th = curve.theta_model("exact", 1.0)
            err = 1e-15
        else:
            mu = curve.mu_of_delta(delta)
            s = critical_sums(mu)
            th = s.f.value**2 / (4.0 * math.pi**2 * s.g.value)
            err = (
                2.0 * abs(s.f.value) * s.f.abs_error_bound
                / (4.0 * math.pi**2 * s.g.value)
                + th * s.g.abs_error_bound / s.g.value
            )
        g = curve.theta_model("theta0", delta) - th
        worst = min(worst, g + 10.0 * (err + 1e-13))
    gap4 = curve.gap(4.0)
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.0 and gap4 < 1e-5 and elapsed < 300.0
    _report(
        4,
        ok,
        f"min(gap + 10*err_bound)={worst:.2e} over 500 points of [1,50] "
        f"(needs >= 0), gap(4)={gap4:.2e} < 1e-5, {elapsed:.1f}s",
    )


def test_criterion_05_tangency_sign():
    t0 = time.perf_counter()
    vals = [curve.tangent_condition(float(m)) for m in np.geomspace(1e-4, 0.3, 100)]
    elapsed = time.perf_counter() - t0
    ok = all(v < 0.0 for v in vals) and elapsed < 1.0
    _report(
        5,
        ok,
        f"tangency expression negative at all 100 log-spaced mu in "
        f"(1e-4, 0.3] (max {max(vals):.3e}), {elapsed:.2f}s",
    )


def test_criterion_06_remainder_constant_table():
    t0 = time.perf_counter()
    checks = []

    def at_inf(d, n, k_ref):
        r = algebraic.remainder_constant(CaseDN(d, n))
        checks.append(
            (
                f"({d},{n}) at-infinity K={r.K:.8f}",
                abs(r.K - k_ref) <= 1e-9
                and not r.attained
                and r.delta_argmax == math.inf
                and r.sign == "positive",
            )
        )

    at_inf(1, 1, 1.0 / math.pi)
    at_inf(1, 2, 2.0 / (3.0 * math.pi))
    at_inf(2, 2, 1.0 / (2.0 * math.pi**2))

    r13 = algebraic.remainder_constant(CaseDN(1, 3))
    checks.append(
        (
            f"(1,3) K={r13.K:.6f}@{r13.delta_argmax:.5f}",
            abs(r13.K - 0.181232) <= 5e-5
            and abs(r13.delta_argmax - 1.43404) <= 5e-3
            and r13.attained,
        )
    )

    r23 = algebraic.remainder_constant(CaseDN(2, 3))
    lo, hi = algebraic.positive_crossings(CaseDN(2, 3))
    checks.append(
        (
            f"(2,3) attained, shifted crossings ({lo:.3f},{hi:.3f})",
            r23.attained and abs(lo - 1.98) <= 0.1 and abs(hi - 13.2) <= 0.1,
        )
    )

    r32 = algebraic.remainder_constant(CaseDN(3, 2))
    checks.append(
        (
            f"(3,2) K={r32.K:.6f}@{r32.delta_argmax:.2f}",
            abs(r32.K - 0.01605) <= 2e-4 and abs(r32.delta_argmax - 25.6) <= 0.5,
        )
    )

    r210 = algebraic.remainder_constant(CaseDN(2, 10))
    checks.append((f"(2,10) sign={r210.sign}", r210.sign == "negative"))

    r36 = algebraic.remainder_constant(CaseDN(3, 6))
    checks.append(
        (
            f"(3,6) sign={r36.sign} |K|={abs(r36.K):.2e}",
            r36.sign == "negative" and abs(r36.K) < 1e-4,
        )
    )

    elapsed = time.perf_counter() - t0
    bad = [label for label, good in checks if not good]
    ok = not bad and elapsed < 1800.0
    _report(
        6,
        ok,
        (f"all 8 cases as pinned, {elapsed:.1f}s" if ok
         else f"failing cases: {bad}, {elapsed:.1f}s"),
    )


def test_criterion_07_dual_route_sums():
    t0 = time.perf_counter()
    worst_triple = 0.0
    for mu in (0.05, 0.1, 0.3, 1.0, 3.0, 10.0):
        a = critical_sums(mu, method="direct", cfg=CFG10)
        b = critical_sums(mu, method="accelerated", cfg=CFG10)
        worst_triple = max(
            worst_triple,
            abs(a.f.value - b.f.value),
            abs(a.g.value - b.g.value),
            abs(a.h.value - b.h.value),
        )
    worst_hardy = max(
        abs(lattice.hardy_sum(e).value - hardy_sum_theta_split(e).value)
        for e in (0.5, 1.0, 2.0)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_triple <= 1e-10 and worst_hardy <= 1e-9 and elapsed < 60.0
    _report(
        7,
        ok,
        f"direct vs accelerated agree to {worst_triple:.1e} (tol 1e-10) at six mu, "
        f"zeta-product vs theta-split to {worst_hardy:.1e} (tol 1e-9), "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_green_function_anchor():
    t0 = time.perf_counter()
    d_anchor = abs(field.g0_value((math.pi, math.pi)) + math.pi * math.log(2.0))
    drift = 0.0
    for pt in ((1.0, 0.3), (2.2, -1.1)):
        vals = [g0_image_route(pt[0], pt[1], mu) for mu in (0.5, 1.0, 2.0)]
        drift = max(drift, max(vals) - min(vals))
    elapsed = time.perf_counter() - t0
    ok = d_anchor <= 1e-9 and drift <= 1e-9 and elapsed < 10.0
    _report(
        8,
        ok,
        f"g0(pi,pi) off -pi log 2 by {d_anchor:.1e} (tol 1e-9), screening-mu "
        f"drift {drift:.1e} over mu in {{0.5,1,2}} (tol 1e-9), {elapsed:.1f}s",
    )


def test_criterion_09_mode_splitting_expansion():
    t0 = time.perf_counter()
    delta = 1e6
    P, _ = bounds.mode_splitting_bound(delta)
    pred = (
        math.log(delta) + math.log(math.log(delta)) + curve.loglog_lower_constant()
    ) / (4.0 * math.pi)
    diff = P - pred
    target = (1.0 + math.log(2.0)) / (4.0 * math.pi)
    d_const = abs(diff - target)

    dominated = True
    for d in np.geomspace(1.0, 1e3, 25):
        Pd, _ = bounds.mode_splitting_bound(float(d))
        if Pd < curve.theta_model("exact", float(d)):
            dominated = False
    elapsed = time.perf_counter() - t0
    ok = d_const <= 0.02 and dominated and elapsed < 120.0
    _report(
        9,
        ok,
        f"P(1e6)-prediction={diff:.5f} vs pinned (1+log2)/4pi={target:.5f} "
        f"(|diff|={d_const:.4f}, tol 0.02), P>=Theta on [1,1e3] "
        f"{'ok' if dominated else 'violated'}, {elapsed:.1f}s",
    )


def test_criterion_10_large_n_limit():
    t0 = time.perf_counter()
    grid = np.linspace(1.05, 9.95, 179)
    grid = grid[np.abs(grid - np.round(grid)) > 1e-3]
    limits = np.array([largen.limit_1d(float(z))[2] for z in grid])
    range_ok = (
        limits.max() == 0.0
        and limits.min() >= -1.0 / math.pi - 1e-12
        and abs(largen.limit_1d(2.0 - 1e-9)[2] + 1.0 / math.pi) <= 1e-6
    )
    sups = []
    for n in (10, 25, 50, 100):
        devs = np.array([largen.scaled_deviation(1, n, float(z)) for z in grid])
        sups.append(float(np.max(np.abs(devs - limits))))
    decreasing = all(a > b for a, b in zip(sups, sups[1:]))

    argmin_ok = True
    for l2 in (2, 4, 5, 8, 9, 10):
        zs = np.linspace(l2 - 0.6, l2 - 0.02, 59)
        vals = [largen.limit_2d(float(z)) for z in zs]
        z_star = float(zs[int(np.argmin(vals))])
        if not (l2 - 0.4 < z_star < l2):
            argmin_ok = False
    elapsed = time.perf_counter() - t0
    ok = range_ok and decreasing and argmin_ok and elapsed < 600.0
    _report(
        10,
        ok,
        f"1d limit range [-1/pi,0] {'ok' if range_ok else 'violated'}, "
        f"sup distances {['%.4f' % s for s in sups]} "
        f"{'strictly decreasing' if decreasing else 'NOT decreasing'} over "
        f"n=10,25,50,100, 2d minima sit just below each representable "
        f"breakpoint {'ok' if argmin_ok else 'violated'}, {elapsed:.1f}s",
    )


def test_criterion_11_random_fields_and_truncated_extremal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    trials_ok = True
    for _ in range(100):
        modes = {}
        while len(modes) < 20:
            k1 = int(rng.integers(-8, 9))
            k2 = int(rng.integers(-8, 9))
            if (k1, k2) == (0, 0) or (k1, k2) in modes:
                continue
            re, im = rng.normal(size=2)
            modes[(k1, k2)] = complex(re, im)
            modes[(-k1, -k2)] = complex(re, -im)
        fi = field.FourierInput(modes)
        for which, case in (
            ("log_theta0", None),
            ("log_doublelog", None),
            ("algebraic", CaseDN(2, 2)),
        ):
            if not field.verify_inequality(fi, which, case=case).holds:
                trials_ok = False

    mu_star = 0.1221104705136475
    modes = {}
    for k1 in range(-100, 101):
        for k2 in range(-100, 101):
            q = k1 * k1 + k2 * k2
            if 0 < q <= 100 * 100:
                modes[(k1, k2)] = 2.0 * math.pi / (q * (1.0 + mu_star * q))
    rep = field.verify_inequality(field.FourierInput(modes), "log_doublelog")
    tight = rep.holds and rep.margin < 1e-3 * rep.rhs
    elapsed = time.perf_counter() - t0
    ok = trials_ok and tight and elapsed < 120.0
    _report(
        11,
        ok,
        f"100 random 20-mode fields satisfy all three inequalities "
        f"{'ok' if trials_ok else 'violated'}, truncated extremal margin/rhs="
        f"{rep.margin / rep.rhs:.2e} (< 1e-3), {elapsed:.1f}s",
    )
