"""Benchmark of the torsob library and CLI.

    python3 perfbench/run.py --workload {cli,constants,bounds,fields} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  Run records and trace files go to
``.perfbench-out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import OUT, ROOT, SRC

WORKLOADS = ("cli", "constants", "bounds", "fields")
END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def reset_torsob() -> None:
    """Empty the program's caches, so every round starts as a fresh session."""
    from torsob import curve, field, lattice

    lattice._SHELL_CACHE.clear()
    lattice._Z3_CACHE.clear()
    curve._MODEL_RANGE.clear()
    for cached in (field._extremal_cached, field._loglog_constant, field._remainder_k):
        cached.cache_clear()


def layer_medians(run: harness.Run, import_split: dict) -> dict:
    """Median over rounds of each per-layer metric."""
    import spans

    per_round = []
    for groups in run.groups:
        layer = spans.layer_metrics(groups)
        child_splits = [g["importtime"] for g in groups if "importtime" in g]
        layer.update(harness.median_split(child_splits) if child_splits else import_split)
        per_round.append(layer)
    return {
        name: (statistics.median(r.get(name, 0.0) for r in per_round), unit)
        for name, unit in spans.LAYER_METRICS.items()
    }


def write_trace(workload: str, seed: int, run: harness.Run) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "rounds": run.groups}))


def run_inprocess(name: str, args) -> None:
    t0 = time.perf_counter()
    import torsob  # noqa: F401

    own_import = time.perf_counter() - t0
    module = __import__(f"wl_{name}")
    t0 = time.perf_counter()
    inputs = module.make_inputs(args.seed)
    generate = time.perf_counter() - t0
    secs, splits = harness.import_samples(harness.SETUP_CHILDREN, importtime=bool(args.trace))
    setup = statistics.median([own_import] + secs) + generate

    tracer = after_round = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        after_round = lambda outcomes: [  # noqa: E731
            {"spans": [], "counts": {},
             "maxima": {"lattice.shells.peak_mb": spans.shell_peak_mb(tracer)}}
        ]
    run = harness.run_rounds(
        lambda i: module.operations(inputs), args.seconds, reset_torsob, tracer, after_round
    )
    peak = harness.peak_rss_mb(resource.RUSAGE_SELF)
    attempted, failed, unexpected = harness.check_rounds(run)
    finish(name, args, run, attempted, failed, unexpected, setup, peak,
           harness.median_split(splits))


def run_cli(args) -> None:
    import wl_cli

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        setup_samples = []
        for _ in range(harness.SETUP_CHILDREN + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "torsob.cli", "--version"],
                env=harness.child_env(), cwd=ROOT, capture_output=True, timeout=120,
            )
            setup_samples.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"torsob --version failed: {proc.stderr[-400:]!r}")
        t0 = time.perf_counter()
        inputs = wl_cli.make_inputs(args.seed, work)
        setup = statistics.median(setup_samples) + (time.perf_counter() - t0)

        expected_cache: dict = {}

        def expected(op_name: str) -> dict:
            if op_name not in expected_cache:
                reset_torsob()
                expected_cache[op_name] = wl_cli.library_values(inputs, op_name)
            return expected_cache[op_name]

        def make_ops(index: int):
            round_dir = work / f"round{index}"
            round_dir.mkdir()
            return wl_cli.operations(inputs, round_dir, bool(args.trace), expected)

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        run = harness.run_rounds(
            make_ops, args.seconds, lambda: None, tracer,
            wl_cli.child_groups if args.trace else None,
        )
        peak = harness.peak_rss_mb(resource.RUSAGE_CHILDREN)
        import torsob  # noqa: F401  (library values for the checks)

        attempted, failed, unexpected = harness.check_rounds(run, wl_cli.EXPECTED_FAILURES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    finish("cli", args, run, attempted, failed, unexpected, setup, peak, {})


def finish(name, args, run, attempted, failed, unexpected, setup, peak, import_split) -> None:
    run_s = statistics.median(run.wall)
    extra = {"rounds": len(run.wall), "round_wall_s": run.wall, "round_cpu_s": run.cpu}
    if args.trace:
        metrics = layer_medians(run, import_split)
        write_trace(name, args.seed, run)
        print(f"traced run_s {run_s:.4f} over {len(run.wall)} round(s)")
        extra["traced_run_s"] = run_s
    else:
        values = {"setup_s": setup, "run_s": run_s, "cpu_s": statistics.median(run.cpu),
                  "peak_rss_mb": peak}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    harness.report(workload=name, seed=args.seed, trace=bool(args.trace), attempted=attempted,
                   failed=failed, unexpected=unexpected, metrics=metrics, extra=extra)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "torsob" / "__init__.py").is_file():
        print(f"perfbench: no torsob sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TORSOB_WORKERS", None)
    if args.workload == "cli":
        run_cli(args)
    else:
        run_inprocess(args.workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
