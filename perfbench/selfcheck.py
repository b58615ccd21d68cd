"""Fast self-check of the benchmark's own code; runs in a few seconds.

    python3 perfbench/selfcheck.py

Checks that each oracle reproduces a closed form it must match, that self
time comes out right on a synthetic span tree, and that the metric names and
units the benchmark prints are those of BENCHMARK.json.  Exit code 0 when
every check passes.  Needs no torsob sources.
"""

from __future__ import annotations

import json
import math
import sys
import traceback

import numpy as np
from scipy.special import k0

import oracles as O
import run
import spans
from harness import ROOT

PI = math.pi
CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol:
        raise AssertionError(f"{what}: {got!r} vs {want!r} (tol {tol:g})")


@check
def beta_and_moments():
    # beta from the lattice: sum' over the disk of |k|^-2 minus pi log R^2,
    # with the disk-area tail correction, converges to beta
    q, c = O.disk_table(1000)
    a2 = (c.sum() + 1.0) / PI
    close(math.fsum(c / q) - PI * math.log(a2), O.beta(), 1e-5, "beta from the disk")
    tail = PI / a2  # 2 pi int_a^inf s^-3 ds
    close(math.fsum(c / q**2) + tail, O.z2_inverse_fourth(), 1e-12, "sum' |k|^-4")


@check
def screened_sums_match_bessel_images():
    # f(mu) = pi log(1/mu) + beta + mu - 2 pi sum'_m K0(2 pi |m| / sqrt(mu))
    # (Poisson summation), and h = (f - g)/mu exactly
    for mu in (0.3, 1.0, 3.0):
        q, c = O.disk_table(12)
        images = float(np.dot(c, k0(2.0 * PI * np.sqrt(q / mu))))
        ref = PI * math.log(1.0 / mu) + O.beta() + mu - 2.0 * PI * images
        f, g, h = O.screened_sums(mu)
        close(f, ref, 1e-10, f"f({mu}) against Bessel images")
        close(f - g, mu * h, 1e-12, f"f - g = mu h at {mu}")


@check
def green_series_closed_forms():
    close(O.green_series((PI, PI), None), -PI * math.log(2.0), 1e-12, "G0(pi, pi)")
    # one row in closed form against its direct sum
    t, b = 0.7, 1.3
    k = np.arange(-200000, 200001, dtype=float)
    direct = math.fsum(np.cos(k * t) / (k * k + b * b))
    close(float(O._row_pair(t, np.array([b]))[0]), direct, 1e-9, "row closed form")
    # symmetric in the coordinates and in their signs
    x = (0.4, -2.1)
    close(O.green_series(x, 2.0), O.green_series((2.1, 0.4), 2.0), 1e-13, "swap symmetry")


@check
def one_dimensional_curve():
    # mu -> inf: delta -> zeta(6)/zeta(12) = 638512875/(945 * 691 pi^6) for n = 3
    delta, _ = O.curve_1d(3, 1e14)
    close(delta, 638512875.0 / (945.0 * 691.0 * PI**6), 1e-12, "1D plateau")
    close(O.leading_constant(1, 1), 1.0, 1e-15, "c_1(1)")
    close(O.remainder_bound(1, 1), 1.0 / PI, 1e-15, "2n/((2pi)^d (2n-d)) at (1,1)")
    close(O.k_1_3(), 0.181232, 5e-5, "K_1(3), paper value")


@check
def split_and_counting():
    assert [m for m in range(14) if O.is_two_squares(m)] == [0, 1, 2, 4, 5, 8, 9, 10, 13]
    assert [O.disk_count(m) for m in (1, 2, 4, 5)] == [4, 8, 12, 20]
    n_sq, delta = 50, 30.0
    s_low = s4 = 0.0
    for k1 in range(-8, 9):
        for k2 in range(-8, 9):
            q = k1 * k1 + k2 * k2
            if 0 < q <= n_sq:
                s_low += 1.0 / q
                s4 += 1.0 / q**2
    ref = (math.sqrt(s_low) + math.sqrt(delta * (O.z2_inverse_fourth() - s4))) ** 2 / (4 * PI**2)
    close(O.split_at_cut(delta, n_sq), ref, 1e-13, "split at a cut")
    for delta in (1e3, 1e6):
        P = O.split_continuum(delta)
        a = (4 * PI**2 * P - 2 * PI + math.sqrt((4 * PI**2 * P - 2 * PI) ** 2 - 4 * PI**2)) / 2
        close(PI * math.log(delta * a / PI) + O.beta(), a, 1e-9, "continuum fixed point")
    # README, "Known disagreements": the theta0 route to L
    close(O.l_theta0(), 2.1562255822, 1e-9, "L along theta0")


@check
def self_time_on_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the union counts once
        ["c", 2.0, 3.0, 1],
        ["d", 9.5, 12.0, 0],  # runs past its parent: clipped
    ]
    got = spans.self_times(tree)
    for want, value in zip([4.5, 2.0, 3.0, 1.0, 2.5], got):
        close(value, want, 1e-15, "self time")
    group = {
        "spans": [
            ["cli.theta", 0.0, 5.0, -1],
            ["lattice.shells", 1.0, 2.0, 0],
            ["cli.emit", 4.0, 5.0, 0],
        ],
        "counts": {"lattice.shells.calls": 1},
        "maxima": {"field.certified_radius": 7.0},
        "values": {"cli.import.s": 0.5},
    }
    m = spans.layer_metrics([group, group])
    close(m["cli.theta.s"], 8.0, 1e-15, "cli handler time without emission")
    close(m["cli.emit.s"], 2.0, 1e-15, "emission")
    close(m["lattice.shells.s"], 2.0, 1e-15, "layer self time")
    close(m["lattice.shells.calls"], 2.0, 0.0, "summed count")
    close(m["field.certified_radius"], 7.0, 0.0, "maximum")
    close(m["cli.import.s"], 1.0, 1e-15, "summed value")


@check
def importtime_parsing():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |       2500 |     scipy.special\n"
        "import time:       300 |     700000 |   scipy.optimize\n"
        "import time:       900 |     800000 | torsob\n"
    )
    assert spans.parse_importtime(text) == {
        "import.scipy_special_s": 0.0025,
        "import.scipy_optimize_s": 0.7,
        "import.torsob_s": 0.8,
    }


@check
def metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS


def main() -> int:
    failures = 0
    for fn in CHECKS:
        try:
            fn()
            print(f"ok   {fn.__name__}")
        except Exception:
            failures += 1
            print(f"FAIL {fn.__name__}\n{traceback.format_exc()}")
    print(f"selfcheck: {len(CHECKS) - failures} of {len(CHECKS)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
