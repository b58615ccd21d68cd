"""The ``bounds`` workload: the elementary upper bounds.

``mode_splitting_bound`` on a delta grid from 1e2 to 1e6 with points on
both sides of its exact-enumeration switch (n*^2 = delta log delta = 1e5:
delta = 1e4 below it, 1.08e4 above it), ``first_method_bound`` and
``elementary_comparison``.  The row kernel ``_partial_sums_at`` and the
representability tests dominate; nothing else exercises them.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as O
from harness import Op

#: fixed points: the switch neighbours and the two large deltas
ANCHORS = (1e3, 1e4, 1.08e4, 1e5, 1e6)


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "split": sorted(10.0 ** rng.uniform(2.0, 3.0, 8)) + list(ANCHORS),
        "first": sorted(10.0 ** rng.uniform(0.0, 6.0, 4)),
        "comparison": sorted(rng.uniform(0.01, 0.5, 3)),
    }


def _check_split(result, delta: float) -> None:
    import torsob as T

    P, N = result
    m = round(N * N)
    if N != math.sqrt(m) or not O.is_two_squares(m):
        raise AssertionError(f"cut N = {N!r} is not the root of a sum of two squares")
    if delta >= 1e3:
        ref = O.split_continuum(delta)
        if not abs(P - ref) <= 1e-6:
            raise AssertionError(f"P({delta:g}) = {P!r}, continuum model {ref!r}")
    if delta <= 1e3 and not P >= T.theta_model("exact", delta):
        raise AssertionError(f"P({delta:g}) = {P!r} below Theta")
    if delta <= 1e4:
        ref = O.split_at_cut(delta, m)
        if not abs(P - ref) <= 1e-10 * ref:
            raise AssertionError(f"P({delta:g}) = {P!r}, brute-force sums at N give {ref!r}")


def _check_first(value: float, delta: float) -> None:
    import torsob as T

    theta = T.theta_model("exact", delta)
    if not value >= theta:
        raise AssertionError(f"first_method_bound({delta:g}) = {value!r} below Theta {theta!r}")


def _check_comparison(rep) -> None:
    if not rep.B >= rep.A:
        raise AssertionError(f"B = {rep.B!r} below A = {rep.A!r} at mu = {rep.mu:g}")


def operations(inputs: dict) -> list[Op]:
    import torsob as T

    ops = []
    for d in inputs["split"]:
        ops.append(Op(f"mode_splitting_bound[{d:.6g}]", lambda d=d: T.mode_splitting_bound(d),
                      lambda r, d=d: _check_split(r, d)))
    for d in inputs["first"]:
        ops.append(Op(f"first_method_bound[{d:.6g}]", lambda d=d: T.first_method_bound(d),
                      lambda r, d=d: _check_first(r, d)))
    for mu in inputs["comparison"]:
        ops.append(Op(f"elementary_comparison[{mu:.6g}]",
                      lambda mu=mu: T.elementary_comparison(mu), _check_comparison))
    return ops

