"""Round loop, resource accounting and the result line shared by every workload.

A workload is a list of operations, run one at a time in one process (for
``cli``, one child process at a time).  A run repeats whole rounds of the
same operations until ``--seconds`` have passed, so the share of failed
operations does not depend on the run length.  Outputs are checked after the
last round, outside the timed interval.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: fresh interpreters timing ``import torsob`` for setup_s, besides the
#: workload process itself
SETUP_CHILDREN = 2

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import torsob; "
    "print(repr(time.perf_counter() - t))"
)


@dataclass
class Op:
    """One operation: fn runs timed, check(result) runs afterwards and raises
    on a wrong output."""

    name: str
    fn: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Outcome:
    result: Any = None
    error: str | None = None


@dataclass
class Run:
    """What the round loop measured."""

    ops: list[list[Op]] = field(default_factory=list)
    rounds: list[list[Outcome]] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    groups: list[list[dict]] = field(default_factory=list)


def child_env() -> dict[str, str]:
    """Environment of every child: torsob from this checkout, one worker."""
    env = dict(os.environ)
    env.pop("TORSOB_WORKERS", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(who: int) -> float:
    """ru_maxrss in MB (2^20 bytes); for RUSAGE_CHILDREN, of the largest child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_samples(count: int, importtime: bool) -> tuple[list[float], list[dict]]:
    """Seconds of ``import torsob`` in count fresh interpreters, and with
    importtime the per-package split of each."""
    secs, splits = [], []
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    for _ in range(count):
        proc = subprocess.run(
            cmd + ["-c", _IMPORT_PROBE],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        secs.append(float(proc.stdout.split()[-1]))
        if importtime:
            import spans

            splits.append(spans.parse_importtime(proc.stderr))
    return secs, splits


def median_split(splits: list[dict]) -> dict[str, float]:
    keys = {k for s in splits for k in s}
    return {k: statistics.median(s[k] for s in splits if k in s) for k in keys}


def run_rounds(
    make_ops: Callable[[int], list[Op]],
    seconds: float,
    reset: Callable[[], None],
    tracer=None,
    after_round: Callable[[list[Outcome]], list[dict]] | None = None,
) -> Run:
    """Repeat whole rounds until seconds have passed (at least one round).

    reset() and a garbage collection run before each round, untimed, so
    every round starts from the same program state.  With a tracer, each
    operation sits in an ``op.*`` span and the round's spans are taken
    after it.
    """
    run = Run()
    start = time.perf_counter()
    index = 0
    while True:
        reset()
        ops = make_ops(index)
        gc.collect()
        outcomes = []
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        for op in ops:
            try:
                if tracer is None:
                    result = op.fn()
                else:
                    with tracer.region("op." + op.name):
                        result = op.fn()
                outcomes.append(Outcome(result))
            except Exception:  # an operation that raises counts as failed
                outcomes.append(Outcome(error=traceback.format_exc(limit=3)))
        run.wall.append(time.perf_counter() - t0)
        run.cpu.append(cpu_seconds() - cpu0)
        run.ops.append(ops)
        run.rounds.append(outcomes)
        if tracer is not None:
            groups = [tracer.take()]
            if after_round is not None:
                groups.extend(after_round(outcomes))
            run.groups.append(groups)
        index += 1
        if time.perf_counter() - start >= seconds:
            return run


def check_rounds(run: Run, expected_failures: frozenset[str] = frozenset()):
    """Check every outcome; returns (attempted, failed, unexpected failures)."""
    attempted = failed = 0
    unexpected = []
    for ops, outcomes in zip(run.ops, run.rounds):
        for op, out in zip(ops, outcomes):
            attempted += 1
            problem = out.error
            if problem is None:
                try:
                    op.check(out.result)
                except Exception:
                    problem = traceback.format_exc(limit=4)
            if problem is not None:
                failed += 1
                if op.name not in expected_failures:
                    unexpected.append((op.name, problem))
    return attempted, failed, unexpected


def report(
    *,
    workload: str,
    seed: int,
    trace: bool,
    attempted: int,
    failed: int,
    unexpected: list,
    metrics: dict[str, tuple[float, str]],
    extra: dict | None = None,
) -> None:
    """Write the run record under .perfbench-out and print the result line."""
    for name, problem in unexpected:
        print(f"perfbench: {workload}: {name} failed:\n{problem}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=trace, **(extra or {}))
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
