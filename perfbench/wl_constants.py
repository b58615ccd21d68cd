"""The ``constants`` workload: one library session from an empty shell cache.

Lattice sums on a mu grid over all three regimes, the exact Theta table,
the gap, L and the tangent condition, the remainder constants of the
acceptance gate, the (2,3) crossings and the large-n profiles.  Lattice
sums, root solves and golden-section maximizers do nearly all the work; the
shell table is filled once per round and then reused, and the d = 3 shells
set the peak memory.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as O
from harness import Op

#: (d, n) cases of acceptance criterion 06
GATE_CASES = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (2, 10), (3, 6))
AT_INFINITY = {(1, 1), (1, 2), (2, 2)}


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: float(lo + (hi - lo) * rng.random())  # noqa: E731
    z1 = rng.uniform(1.05, 12.0, 30)
    z2 = rng.uniform(1.05, 60.0, 30)
    return {
        # one route each, the one "auto" picks: direct for mu <= -1 and for
        # mu > 4 (where the accelerated image sum is past its budget by
        # mu = 100), accelerated for small mu
        "single": [u(-4.0, -1.2), u(-48.0, -8.0), u(0.05, 0.25), u(20.0, 100.0)],
        # both routes apply: 0 < mu <= 4 and just above 4.  Fixed, because
        # the direct route's shell radius, and so the peak memory, steps
        # with mu
        "both": [0.5, 1.5, 3.5, 6.0],
        "theta_grid": [1.0] + sorted(10.0 ** rng.uniform(0.0, 3.0, 22)) + [1e3],
        "gap_deltas": sorted(10.0 ** rng.uniform(0.2, 2.0, 3)),
        "tangent_mus": sorted(10.0 ** rng.uniform(-4.0, math.log10(0.3), 20)),
        "z1": [z for z in z1 if z != math.floor(z)],
        "z2": [z for z in z2 if z != math.floor(z)],
        "sd1": [(n, u(1.1, 6.0)) for n in (10, 10, 30, 30)],
        "sd2": [(10, u(1.2, 6.0)) for _ in range(4)],
    }


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol:
        raise AssertionError(f"{what}: {got!r} vs reference {want!r} (tol {tol:g})")


def _check_triple(tr, mu: float) -> None:
    f, g, h = O.screened_sums(mu)
    for part, ref in (("f", f), ("g", g), ("h", h)):
        got = getattr(tr, part).value
        _close(got, ref, 1e-6 * max(1.0, abs(ref)), f"{part}({mu:g}) {tr.method}")


def _check_pair(pair, mu: float) -> None:
    direct, accel = pair
    _check_triple(direct, mu)
    _check_triple(accel, mu)
    for part in "fgh":
        a, b = getattr(direct, part), getattr(accel, part)
        _close(a.value, b.value, a.abs_error_bound + b.abs_error_bound,
               f"{part}({mu:g}) direct vs accelerated")


def _check_theta_table(values: list[float], grid: list[float]) -> None:
    if values[0] != 1.0 / math.pi**2 or grid[0] != 1.0:
        raise AssertionError(f"Theta(1) = {values[0]!r}, not 1/pi^2")
    if any(b < a for a, b in zip(values, values[1:])):
        raise AssertionError("Theta decreases on the grid")


def _check_L(rep) -> None:
    if not rep.L > (O.beta() + math.pi) / math.pi:
        raise AssertionError(f"L = {rep.L!r} not above (beta + pi)/pi")
    _close(rep.L, O.l_theta0(), 1e-6, "L against the theta0 maximum")


def _check_K(rep, d: int, n: int) -> None:
    bound = O.remainder_bound(d, n)
    if rep.K > bound + 1e-12:
        raise AssertionError(f"K_{d}({n}) = {rep.K!r} above 2n/((2pi)^d (2n-d)) = {bound!r}")
    if (d, n) in AT_INFINITY:
        _close(rep.K, bound, 1e-9, f"at-infinity K_{d}({n})")
    elif (d, n) == (1, 3):
        _close(rep.K, O.k_1_3(), 1e-8, "K_1(3) against direct 1D sums")
    elif (d, n) == (3, 2):
        # paper values, tolerances of acceptance criterion 06
        _close(rep.K, 0.01605, 2e-4, "K_3(2)")
        _close(rep.delta_argmax, 25.6, 0.5, "argmax of K_3(2)")
    elif (d, n) in ((2, 10), (3, 6)) and rep.sign != "negative":
        raise AssertionError(f"K_{d}({n}) sign {rep.sign}, paper: negative")


def _check_crossings(window) -> None:
    lo, hi = window
    _close(lo, 1.98, 0.1, "(2,3) up-crossing")
    _close(hi, 13.2, 0.1, "(2,3) down-crossing")


def _check_limit_1d(values) -> None:
    for dlt, th, val in values:
        if not -1.0 / math.pi - 1e-12 <= val <= 1e-12:
            raise AssertionError(f"1D limit value {val!r} outside [-1/pi, 0]")


def operations(inputs: dict) -> list[Op]:
    import torsob as T

    ops = []
    for mu in inputs["single"]:
        ops.append(Op(f"critical_sums[{mu:.6g}]", lambda mu=mu: T.critical_sums(mu),
                      lambda r, mu=mu: _check_triple(r, mu)))
    for mu in inputs["both"]:
        ops.append(Op(
            f"critical_sums_both[{mu:.6g}]",
            lambda mu=mu: (T.critical_sums(mu, "direct"), T.critical_sums(mu, "accelerated")),
            lambda r, mu=mu: _check_pair(r, mu),
        ))
    grid = inputs["theta_grid"]
    ops.append(Op("theta_table", lambda: [T.theta_model("exact", d) for d in grid],
                  lambda r: _check_theta_table(r, grid)))
    for d in inputs["gap_deltas"]:
        ops.append(Op(f"gap[{d:.6g}]", lambda d=d: T.gap(d), _check_nonnegative))
    ops.append(Op("find_L", T.find_L, _check_L))
    mus = inputs["tangent_mus"]
    ops.append(Op("tangent_condition", lambda: [T.tangent_condition(m) for m in mus],
                  _check_negative))
    for d, n in GATE_CASES:
        ops.append(Op(f"remainder_constant[{d},{n}]",
                      lambda d=d, n=n: T.remainder_constant(T.CaseDN(d, n)),
                      lambda r, d=d, n=n: _check_K(r, d, n)))
    ops.append(Op("positive_crossings[2,3]", lambda: T.positive_crossings(T.CaseDN(2, 3)),
                  _check_crossings))
    z1, z2 = inputs["z1"], inputs["z2"]
    ops.append(Op("limit_1d", lambda: [T.limit_1d(z) for z in z1], _check_limit_1d))
    ops.append(Op("limit_2d", lambda: [T.limit_2d(z) for z in z2],
                  lambda r: [_close(v, O.limit_2d(z), 1e-12, f"limit_2d({z:g})")
                             for v, z in zip(r, z2)]))
    for tag, pairs, oracle in (("1", inputs["sd1"], _sd1), ("2", inputs["sd2"], _sd2)):
        ops.append(Op(
            f"scaled_deviation_{tag}d",
            lambda pairs=pairs, d=int(tag): [T.scaled_deviation(d, n, z) for n, z in pairs],
            lambda r, pairs=pairs, oracle=oracle: [
                _close(v, oracle(n, z), 1e-9, f"scaled deviation n={n} z={z:g}")
                for v, (n, z) in zip(r, pairs)],
        ))
    return ops


def _sd1(n: int, z: float) -> float:
    return O.deviation_1d(n, z ** (-2.0 * n))


def _sd2(n: int, z: float) -> float:
    return O.deviation_2d(n, z ** (-float(n)))


def _check_nonnegative(value: float) -> None:
    # far out the gap is exponentially small, and the difference of two
    # O(1) floats carries a few ulps of rounding either way
    if not value >= -1e-15:
        raise AssertionError(f"gap {value!r} < 0")


def _check_negative(values: list[float]) -> None:
    if not max(values) < 0.0:
        raise AssertionError(f"tangent condition not negative: max {max(values)!r}")
