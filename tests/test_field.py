"""Torus grids: extremal synthesis, Green-function anchor, inequality checks.

Grid convention: resolution x resolution over [-pi, pi)^2, values[i, j] =
u(x_i, y_j) with x_i = -pi + 2 pi i / resolution (origin at index res/2).
Norm convention: u = (1/2pi) sum' u_k e^{ik.x} with ||u||^2 = sum' |u_k|^2,
so the extremal u_mu (coefficients u_k = 2 pi/(q(1+mu q))) has
grad_norm_sq = 4 pi^2 g(mu) and lap_norm_sq = 4 pi^2 h(mu).
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torsob import field
from torsob.errors import DomainError, ResourceLimitError, ToleranceUnreachableError
from torsob.lattice import CaseDN, PrecisionConfig, _z2_moment, critical_sums

from green_images import g0_image_route, image_sum_ring_loop

MU_STAR = 0.1221104705136475
DELTA_STAR = 3.9288361657183553


@pytest.fixture(scope="module")
def star_grid():
    return field.extremal_field(MU_STAR, 256)


@pytest.fixture(scope="module")
def tenth_grid():
    return field.extremal_field(0.1, 128)


# -------------------------------------------------------- Green function


def test_g0_anchor_value():
    assert abs(field.g0_value((math.pi, math.pi)) + math.pi * math.log(2.0)) < 1e-9


def test_g0_symmetry():
    a = field.g0_value((1.1, 0.4))
    b = field.g0_value((0.4, 1.1))
    assert abs(a - b) < 1e-9


def test_g0_near_origin_constant():
    # g0(x) - 2 pi log(1/|x|) -> beta - 2 pi (gamma - log 2)
    truth = 3.313400955403254
    r = 1e-4
    got = field.g0_value((r, 0.0)) - 2.0 * math.pi * math.log(1.0 / r)
    assert abs(got - truth) < 1e-5


def test_g0_singularity_rejected():
    with pytest.raises(DomainError):
        field.g0_value((0.0, 0.0))


@pytest.mark.parametrize("mu", [0.5, 2.0])
def test_g0_matches_image_route(mu):
    # the rows of 1/k^2 against the screened rows plus the K0 image sum,
    # at two screenings
    rng = np.random.default_rng(8)
    points = [(1.0, 0.3), (2.2, -1.1), (math.pi, math.pi)]
    points += [tuple(x) for x in rng.uniform(-math.pi, math.pi, (20, 2)).tolist()]
    for x1, x2 in points:
        want = g0_image_route(x1, x2, mu)
        assert abs(field.g0_value((x1, x2)) - want) <= 1e-12, (x1, x2)


# ------------------------------------------------------ extremal synthesis


def test_extremal_origin_and_sup(star_grid):
    res = star_grid.resolution
    c = res // 2
    s = critical_sums(MU_STAR)
    # grid sup = origin value, lower-bounding the true sup f(mu)
    assert star_grid.sup_value == star_grid.values[c, c]
    assert star_grid.sup_value <= s.f.value
    assert s.f.value - star_grid.sup_value < 1e-5 * s.f.value


def test_extremal_zero_mean(star_grid):
    assert abs(np.mean(star_grid.values)) <= 1e-10 * np.max(np.abs(star_grid.values))


def test_extremal_symmetry(star_grid):
    v = star_grid.values
    res = star_grid.resolution
    idx = (res - np.arange(res)) % res
    assert np.max(np.abs(v - v[idx, :])) < 1e-10
    assert np.max(np.abs(v - v[:, idx])) < 1e-10
    assert np.max(np.abs(v - v.T)) < 1e-10


def test_extremal_delta_ratio(star_grid):
    s = critical_sums(MU_STAR)
    exact = s.h.value / s.g.value
    assert abs(star_grid.delta() - exact) <= 1e-8
    assert abs(star_grid.delta() - DELTA_STAR) < 2e-8


def test_extremal_spectral_norms(star_grid):
    s = critical_sums(MU_STAR)
    assert abs(star_grid.grad_norm_sq - 4.0 * math.pi**2 * s.g.value) < 1e-9
    # grad and lap are the closed sums themselves, so the deficit is 0;
    # l2 is summed over |k| <= R with a rigorous tail bound, checked in
    # test_extremal_l2_matches_partial_fractions
    assert 0.0 <= 4.0 * math.pi**2 * s.h.value - star_grid.lap_norm_sq < 1e-4
    assert star_grid.l2_norm_sq > 0.0


def test_extremal_axis(star_grid):
    ax = star_grid.axis()
    res = star_grid.resolution
    assert len(ax) == res
    assert ax[0] == -math.pi
    assert ax[res // 2] == 0.0
    assert abs(ax[1] - ax[0] - 2.0 * math.pi / res) < 1e-15


def test_extremal_level_set_isotropy(star_grid):
    # levels above 80% of max deviate from circles by well under 1%
    v = star_grid.values
    res = star_grid.resolution
    level = 0.8 * star_grid.sup_value

    def interp(x, y):
        fx = ((x + math.pi) * res / (2.0 * math.pi)) % res
        fy = ((y + math.pi) * res / (2.0 * math.pi)) % res
        i0, j0 = int(fx) % res, int(fy) % res
        i1, j1 = (i0 + 1) % res, (j0 + 1) % res
        tx, ty = fx - int(fx), fy - int(fy)
        return (
            (1 - tx) * (1 - ty) * v[i0, j0]
            + tx * (1 - ty) * v[i1, j0]
            + (1 - tx) * ty * v[i0, j1]
            + tx * ty * v[i1, j1]
        )

    radii = []
    for ang in np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False):
        lo, hi = 1e-3, 2.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if interp(mid * math.cos(ang), mid * math.sin(ang)) > level:
                lo = mid
            else:
                hi = mid
        radii.append(0.5 * (lo + hi))
    radii = np.array(radii)
    assert (radii.max() - radii.min()) / radii.mean() < 0.01


def test_extremal_spike_profile(tenth_grid):
    # u_mu(x) - 2 pi (log(1/|x|) - K0(|x|/sqrt(mu))) stays in an O(1) band
    # near the origin; the x -> 0 limit is beta + mu - 2 pi (gamma - log 2)
    v = tenth_grid.values
    res = tenth_grid.resolution
    c = res // 2
    sq = math.sqrt(0.1)
    for i in range(-3, 4):
        for j in range(-3, 4):
            if i == 0 and j == 0:
                continue
            x = 2.0 * math.pi * i / res
            y = 2.0 * math.pi * j / res
            r = math.hypot(x, y)
            rem = v[c + i, c + j] - 2.0 * math.pi * (
                math.log(1.0 / r) - float(mp.besselk(0, r / sq))
            )
            assert 3.0 < rem < 3.8


def test_extremal_validation():
    with pytest.raises(DomainError):
        field.extremal_field(-0.3, 64)
    with pytest.raises(DomainError):
        field.extremal_field(0.0, 64)
    with pytest.raises(DomainError):
        field.extremal_field(1.0, 24)  # resolution floor is 32


def test_extremal_unreachable_mu():
    # the certified error of critical_sums at mu = 10 (about 7e-15) cannot
    # reach the requested target
    with pytest.raises(ToleranceUnreachableError):
        field.extremal_field(10.0, 64, PrecisionConfig(target_abs_tol=1e-17))
    # the l2 sum at mu = 0.5 needs a radius of 163
    with pytest.raises(ToleranceUnreachableError, match="l2 norm"):
        field.extremal_field(0.5, 64, PrecisionConfig(max_radius=100))


@pytest.mark.parametrize("mu", [0.3, 3.0])
def test_extremal_nodes_match_image_route(mu):
    # the screened series is g0 minus the K0 image sum plus mu; node
    # differences cancel the grid mean
    fg = field.extremal_field(mu, 64)
    ax = fg.axis()

    def image_route(i, j):
        x1, x2 = float(ax[i]), float(ax[j])
        return field.g0_value((x1, x2)) - 2.0 * math.pi * image_sum_ring_loop(x1, x2, mu) + mu

    n0 = (0, 0)
    for n in [(5, 40), (31, 33), (10, 63), (32, 0), (50, 17)]:
        got = fg.values[n] - fg.values[n0]
        assert abs(got - (image_route(*n) - image_route(*n0))) < 1e-12


@pytest.mark.parametrize("mu", [0.001, 0.1, 0.5])
def test_extremal_l2_matches_partial_fractions(mu):
    # 1/(q(1+mu q))^2 = 1/q^2 - 2 mu/(q(1+mu q)) + mu^2/(1+mu q)^2
    s = critical_sums(mu)
    ident = 4.0 * math.pi**2 * (
        _z2_moment(2).value - 2.0 * mu * s.f.value + mu * mu * s.h.value
    )
    l2 = field.extremal_field(mu, 64).l2_norm_sq
    assert abs(l2 - ident) <= 1e-12 * ident


@pytest.mark.parametrize("mu", [0.001, 1e4])
def test_extremal_origin_is_f_less_aliasing(mu):
    # the grid mean is the aliasing sum over k = res m, m != 0, which is
    # f(mu res^2)/res^2; the origin node is f(mu) less that.  At mu = 0.001
    # the aliasing is largest; at mu = 1e4 a rounding error common to all
    # nodes would shift the mean and with it the origin
    f = critical_sums(mu).f.value
    for res in (64, 128):
        origin = field.extremal_field(mu, res).values[res // 2, res // 2]
        alias = critical_sums(mu * res * res).f.value / res**2
        assert abs(origin - (f - alias)) <= 1e-11 * f
    assert f - origin < 1e-5 * f


def _rows_40_digits(t2: float, mu: float, M: int) -> tuple[mp.mpf, list]:
    """Row 0 and rows k1 = 1..M of sum' cos(k.x)/(k^2 (1 + mu k^2)) at
    x2 = t2, from the closed forms at 40 digits."""
    with mp.workdps(40):
        t, b = mp.mpf(t2), 1 / mp.sqrt(mp.mpf(mu))

        def h(x):
            return mp.cosh(x * (mp.pi - t)) / (x * mp.sinh(mp.pi * x))

        row0 = (mp.pi**2 / 3 - mp.pi * t + t**2 / 2) - (mp.pi * h(b) - 1 / b**2)
        rows = [mp.pi * (h(mp.mpf(k)) - h(mp.sqrt(k * k + b * b))) for k in range(1, M + 1)]
        return row0, rows


@pytest.mark.parametrize("mu", [1e4, 1e6, 1e8])
def test_synth_rows_match_40_digit_rows(mu):
    # the two closed forms of a row agree to about 1/mu; their difference,
    # taken directly, lost mu * 1e-16 relative (2e-7 at mu = 1e8)
    for t2 in (0.3, 1.7, 2.5, math.pi):
        M = int(math.ceil(42.0 / t2)) + 8
        row0, rows = _rows_40_digits(t2, mu, M)
        got = field._row_terms(np.arange(1.0, M + 1.0), t2, mu)
        for g, r in zip(got, rows):
            assert abs(g - r) <= 1e-14 * abs(r)
        t1 = np.array([0.0, 0.37 * t2, t2])
        values = field._synth_rows(t1, t2, mu)
        for x1, v in zip(t1, values):
            with mp.workdps(40):
                ref = row0 + 2 * mp.fsum(mp.cos(k * mp.mpf(x1)) * r for k, r in enumerate(rows, 1))
            assert abs(v - ref) <= 1e-14 * abs(ref)


def test_field_grid_validation(star_grid):
    with pytest.raises(DomainError):
        field.FieldGrid(
            resolution=16,
            values=np.zeros((16, 16)),
            mu=1.0,
            sup_value=0.0,
            grad_norm_sq=1.0,
            lap_norm_sq=1.0,
            l2_norm_sq=1.0,
        )
    with pytest.raises(DomainError):
        field.FieldGrid(
            resolution=32,
            values=np.ones((32, 32)),  # mean far from zero
            mu=1.0,
            sup_value=1.0,
            grad_norm_sq=1.0,
            lap_norm_sq=1.0,
            l2_norm_sq=1.0,
        )


# ----------------------------------------------------------- FourierInput


def cosx() -> field.FourierInput:
    return field.FourierInput({(1, 0): math.pi, (-1, 0): math.pi})


def test_cos_norms():
    l2, grad, lap = cosx().norms()
    assert abs(l2 - 2.0 * math.pi**2) < 1e-12
    assert abs(grad - 2.0 * math.pi**2) < 1e-12
    assert abs(lap - 2.0 * math.pi**2) < 1e-12
    assert cosx().sobolev_norm_sq(2) == pytest.approx(lap)
    assert cosx().max_wavenumber() == 1


def test_cos_synthesis_matches_cosine():
    vals = cosx().synthesize()
    res = vals.shape[0]
    ax = -math.pi + 2.0 * math.pi * np.arange(res) / res
    assert np.max(np.abs(vals - np.cos(ax)[:, None])) < 1e-12


def test_fourier_input_rejections():
    with pytest.raises(DomainError):
        field.FourierInput({(1, 0): 1.0 + 0.5j, (-1, 0): 1.0 + 0.5j})
    with pytest.raises(DomainError):
        field.FourierInput({(0, 0): 1.0})
    with pytest.raises(DomainError):
        field.FourierInput({})
    with pytest.raises(DomainError):
        cosx().synthesize(resolution=2)


def test_synthesis_past_the_grid_cap_raises_before_allocating():
    # modes at +-(10^5, 0) would ask for a 524288^2 complex grid (4.4 TB)
    far = field.FourierInput({(100_000, 0): 1.0, (-100_000, 0): 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            far.synthesize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    with pytest.raises(ResourceLimitError):
        cosx().synthesize(resolution=4096)


def test_extremal_field_past_the_grid_cap_raises_before_allocating():
    # a 10^5 grid would ask for a (5 10^4)^2 float64 node table (20 GB)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            field.extremal_field(10.0, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    with pytest.raises(ResourceLimitError):
        field.extremal_field(10.0, field._MAX_SYNTH_RESOLUTION + 1)


def test_fourier_input_from_file(tmp_path):
    p = tmp_path / "modes.txt"
    p.write_text("# cosine\n1 0 3.141592653589793 0\n-1 0 3.141592653589793 0\n")
    fi = field.FourierInput.from_file(str(p))
    assert fi.norms() == pytest.approx(cosx().norms())

    bad = tmp_path / "dupe.txt"
    bad.write_text("1 0 1 0\n1 0 1 0\n-1 0 1 0\n")
    with pytest.raises(DomainError):
        field.FourierInput.from_file(str(bad))


# ----------------------------------------------------- verify_inequality


def test_verify_cos_frozen_ratios():
    fi = cosx()
    for which, case, rhs in [
        ("log_theta0", None, 3.5128916367553478),
        ("log_doublelog", None, 3.3869911393660277),
        ("algebraic", CaseDN(2, 2), 3.934802200544678),
    ]:
        rep = field.verify_inequality(fi, which, case=case)
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(rhs, abs=1e-9)
        assert rep.margin == pytest.approx(rep.rhs - rep.lhs, abs=1e-12)
        assert rep.delta == pytest.approx(1.0, abs=1e-12)
        assert rep.which == which


def test_verify_rejects_mismatched_case():
    with pytest.raises(DomainError):
        field.verify_inequality(cosx(), "algebraic", case=CaseDN(1, 2))
    with pytest.raises(DomainError):
        field.verify_inequality(cosx(), "algebraic")  # case required
    with pytest.raises(DomainError):
        field.verify_inequality(cosx(), "bogus")


def test_verify_rejects_zero_field():
    zero = field.FourierInput({(1, 0): 0.0, (-1, 0): 0.0})
    with pytest.raises(DomainError):
        field.verify_inequality(zero, "log_theta0")


@st.composite
def hermitian_inputs(draw):
    n_modes = draw(st.integers(min_value=1, max_value=5))
    modes = {}
    for _ in range(n_modes):
        k1 = draw(st.integers(min_value=-5, max_value=5))
        k2 = draw(st.integers(min_value=-5, max_value=5))
        if (k1, k2) == (0, 0):
            continue
        re = draw(st.floats(min_value=-3.0, max_value=3.0))
        im = draw(st.floats(min_value=-3.0, max_value=3.0))
        modes[(k1, k2)] = complex(re, im)
        modes[(-k1, -k2)] = complex(re, -im)
    if not modes:
        modes = {(1, 0): math.pi, (-1, 0): math.pi}
    # u = 0 has no delta (verify_inequality rejects it). Every bound is
    # 2-homogeneous in u, so a field scaled into the underflow range checks
    # nothing that its rescaled copy does not.
    assume(max(abs(v) for v in modes.values()) >= 1e-3)
    return field.FourierInput(modes)


@given(hermitian_inputs())
@settings(max_examples=20, deadline=None)
def test_verify_random_fields_hold(fi):
    for which, case in [
        ("log_theta0", None),
        ("log_doublelog", None),
        ("algebraic", CaseDN(2, 2)),
    ]:
        rep = field.verify_inequality(fi, which, case=case)
        assert rep.holds
