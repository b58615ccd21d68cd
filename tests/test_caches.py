"""The benchmark's cache reset empties every cache in torsob.

``perfbench/run.py::reset_torsob`` runs between benchmark rounds so that
each round starts as a fresh session.  A cache it misses stays warm after
the first round and flatters the code that fills it.  This test warms the
library, resets it, and checks every module-level dict against its size
right after import and every ``lru_cache`` for emptiness.
"""

import inspect
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import torsob
from torsob.curve import theta_model
from torsob.field import extremal_field, g0_value
from torsob.lattice import CaseDN, critical_sums, general_sums

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import reset_torsob  # noqa: E402


def scan_torsob() -> dict:
    """Sizes of the module-level dicts, and names of the lru_caches, of
    every torsob module.  Self-contained, so a fresh interpreter can run
    its source."""
    import pkgutil
    from importlib import import_module

    import torsob

    dicts, lru = {}, []
    for info in pkgutil.iter_modules(torsob.__path__):
        module = import_module("torsob." + info.name)
        for name, value in vars(module).items():
            where = module.__name__ + "." + name
            if isinstance(value, dict) and not name.startswith("__"):
                dicts[where] = len(value)
            elif hasattr(value, "cache_info"):
                lru.append(where)
    return {"dicts": dicts, "lru": lru}


def _scan_fresh_interpreter() -> dict:
    env = dict(os.environ)
    src = str(Path(torsob.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = inspect.getsource(scan_torsob) + "\nprint(json.dumps(scan_torsob()))"
    out = subprocess.run(
        [sys.executable, "-c", "import json\n" + code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def _lru_sizes(names) -> dict:
    sizes = {}
    for where in names:
        module, name = where.rsplit(".", 1)
        sizes[where] = getattr(import_module(module), name).cache_info().currsize
    return sizes


def test_reset_torsob_empties_every_cache():
    at_import = _scan_fresh_interpreter()
    critical_sums(0.5, "direct")
    critical_sums(0.5, "accelerated")
    general_sums(CaseDN(3, 2), 0.5)
    theta_model("exp_corrected", 2.0)
    extremal_field(0.5, 32)
    g0_value((1.0, 0.5))
    warm = scan_torsob()
    # the warm-up reaches caches of both kinds, so the check below bites
    assert warm["dicts"] != at_import["dicts"]
    assert any(_lru_sizes(warm["lru"]).values())

    reset_torsob()
    after = scan_torsob()
    assert after["dicts"] == at_import["dicts"]
    assert sorted(after["lru"]) == sorted(at_import["lru"])
    assert not any(_lru_sizes(after["lru"]).values())


def test_benchmark_wraps_names_that_exist():
    # perfbench/spans.py wraps layer functions by (module, name) and counts
    # the calls of is_representable and golden_min, and the cli workload
    # calls curve._invert_model: a rename in torsob must fail here rather
    # than break a benchmark run
    from spans import CLI_LAYERS, LAYERS

    wrapped = [(mod, name) for mod, name, _ in LAYERS + CLI_LAYERS]
    wrapped += [("lattice", "is_representable"), ("_optim", "golden_min"),
                ("curve", "_invert_model")]
    for mod, name in wrapped:
        assert callable(getattr(import_module("torsob." + mod), name, None)), (mod, name)
