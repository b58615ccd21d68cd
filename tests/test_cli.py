"""End-to-end checks of the torsob command line, via subprocess except where
a test counts calls inside the library.

Exit-code contract: 0 success, 2 domain error, 3 tolerance unreachable,
with a single `torsob: {kind}: {message}` line on stderr for failures.
Stdout tables carry `#`-comment headers including a manifest sha256 that
depends only on the canonical parameters, so repeat runs are byte-stable.

A CLI process loads OpenBLAS with one thread unless the user set a thread
variable; a probe on the children's import path counts their threads at
exit, and the CLI's bytes must not depend on the thread count.
"""

import ast
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torsob import cli, curve

#: the checkout's package, put first on the children's import path
SRC = Path(__file__).resolve().parents[1] / "src"

COS_FILE_BODY = "1 0 3.141592653589793 0\n-1 0 3.141592653589793 0\n"


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "torsob.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_theta_table_frozen():
    r = run_cli("theta", "--model", "exact", "--delta-grid", "1:4:4")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("# torsob ")
    assert any(ln.startswith("# manifest sha256: ") for ln in lines[:4])
    assert "delta,theta,mu,err_bound" in lines
    rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    # 50-digit (Theta, mu) from the image sums (tests/scalar_oracles.py):
    # (0.26651186311040792965, 0.52054486310305185932) at delta = 2 and
    # (0.35111590832941106922, 0.11840222010268301805) at delta = 4; Theta
    # is 3.8 and 2.3 ulp off, within its err_bound, and mu 18 and 6 ulp off
    # from the root solve
    assert rows[0].startswith("1.0,0.10132118364233778,-1.0,")
    assert rows[1].startswith("2.0,0.26651186311040814,0.5205448631030498,")
    assert rows[3].startswith("4.0,0.3511159083294112,0.11840222010268293,")


def test_theta_exp_model_at_huge_delta():
    r = run_cli("theta", "--model", "exp", "--delta-grid", "1e246:1e246:1")
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


def test_theta_exp_model_from_delta_one():
    r = run_cli("theta", "--model", "exp", "--delta-grid", "1:2:3")
    assert r.returncode == 0, r.stderr
    rows = [ln for ln in r.stdout.splitlines() if ln and not ln.startswith("#")][1:]
    assert [row.split(",")[0] for row in rows] == ["1.0", "1.5", "2.0"]


def test_theta_stdout_deterministic():
    a = run_cli("theta", "--model", "theta0", "--delta-grid", "1:8:5,log")
    b = run_cli("theta", "--model", "theta0", "--delta-grid", "1:8:5,log")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_theta_output_files_and_manifest(tmp_path):
    base = tmp_path / "curve"
    r = run_cli("theta", "--model", "exact", "--delta-grid", "1:4:4",
                "--output", str(base))
    assert r.returncode == 0
    csv_path = tmp_path / "curve.csv"
    man_path = tmp_path / "curve.manifest.json"
    assert csv_path.exists() and man_path.exists()
    man = json.loads(man_path.read_text())
    assert man["tool"] == "torsob"
    assert man["subcommand"] == "theta"
    assert man["parameters"] == {"model": "exact", "delta_grid": "1:4:4"}
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert man["outputs"]["curve.csv"] == digest
    # the manifest id ignores --output/argv, so it matches the stdout run
    direct = run_cli("theta", "--model", "exact", "--delta-grid", "1:4:4")
    assert f"# manifest sha256: {man['manifest_sha256']}" in direct.stdout


def test_gnuplot_needs_output(tmp_path):
    r = run_cli("theta", "--model", "exact", "--delta-grid", "2:2:1", "--gnuplot")
    assert r.returncode == 2
    assert r.stderr.startswith("torsob: domain-error:")
    base = tmp_path / "g"
    r2 = run_cli("theta", "--model", "exact", "--delta-grid", "2:2:1",
                 "--output", str(base), "--gnuplot")
    assert r2.returncode == 0
    assert (tmp_path / "g.gnuplot").exists()


def test_gnuplot_without_output_is_refused_before_computing(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("cmd_kdn ran")

    monkeypatch.setattr(cli, "cmd_kdn", fail)
    assert cli.main(["kdn", "--d", "3", "--n", "2", "--gnuplot"]) == 2
    err = capsys.readouterr().err
    assert err == "torsob: domain-error: --gnuplot needs --output to name the data file\n"


@pytest.mark.parametrize("sub", ["constants", "verify"])
def test_gnuplot_refused_without_a_csv_before_any_write(sub, tmp_path):
    # constants and verify emit JSON only; --gnuplot must fail before the
    # computation leaves a BASE.json without its manifest
    src = tmp_path / "in.txt"
    src.write_text(COS_FILE_BODY)
    argv = {"constants": ["constants"],
            "verify": ["verify", "--input", str(src), "--inequality", "log0"]}[sub]
    r = run_cli(*argv, "--output", str(tmp_path / "g" / "c"), "--gnuplot")
    assert r.returncode == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]


def test_kdn_json_at_infinity_case():
    r = run_cli("kdn", "--d", "2", "--n", "2")
    assert r.returncode == 0
    payload = json.loads(r.stdout[: r.stdout.index("\n# torsob")])
    assert payload["K"] == pytest.approx(1.0 / (2.0 * math.pi**2), abs=1e-14)
    assert payload["attained"] is False
    assert payload["class"] == "at-infinity"
    assert payload["delta_argmax"] is None
    assert payload["sign"] == "positive"


def test_kdn_json_critical_case():
    r = run_cli("kdn", "--d", "1", "--n", "1")
    assert r.returncode == 0
    payload = json.loads(r.stdout[: r.stdout.index("\n# torsob")])
    assert payload["K"] == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_limit_frozen_values():
    r = run_cli("limit", "--d", "1", "--n", "inf", "--z-grid", "1.9:1.9:1")
    assert r.returncode == 0
    row = [ln for ln in r.stdout.splitlines() if ln.startswith("1.9,")][0]
    assert row.split(",")[1] == "-0.2562394583779515"
    r2 = run_cli("limit", "--d", "1", "--n", "10", "--z-grid", "1.2:1.2:1")
    row2 = [ln for ln in r2.stdout.splitlines() if ln.startswith("1.2,")][0]
    assert row2.split(",")[1] == "-0.07150377285904319"


def test_limit_integer_z_is_domain_error():
    r = run_cli("limit", "--d", "1", "--n", "inf", "--z-grid", "2:2:1")
    assert r.returncode == 2
    assert r.stderr.startswith("torsob: domain-error:")
    assert r.stdout == ""


def test_bounds_row_frozen():
    # P(2) at 40 digits is 0.38183122552141753564
    r = run_cli("bounds", "--delta-grid", "2:2:1")
    assert r.returncode == 0
    rows = [ln for ln in r.stdout.splitlines() if ln.startswith("2.0,")]
    assert rows[0] == (
        "2.0,0.26651186311040814,0.3818312255214175,0.2981978110014028"
    )


def test_constants_json():
    r = run_cli("constants")
    assert r.returncode == 0
    payload = json.loads(r.stdout[: r.stdout.rindex("}") + 1])
    assert payload["beta"]["value"] == pytest.approx(2.584981759579253, abs=1e-11)
    assert payload["L"]["value"] == pytest.approx(2.1562255281542130, abs=1e-8)
    assert 0.0 < payload["L"]["abs_error_bound"] <= 1e-10
    assert payload["alpha"]["value"] == pytest.approx(1.5441386523708702, abs=1e-12)
    assert payload["loglog_lower_bound"]["value"] == pytest.approx(
        1.8228252496788484, abs=1e-12
    )


def test_verify_json(tmp_path):
    modes = tmp_path / "cos.txt"
    modes.write_text(COS_FILE_BODY)
    r = run_cli("verify", "--input", str(modes), "--inequality", "loglog")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["holds"] is True
    assert payload["rhs"] == pytest.approx(3.3869911393660277, abs=1e-9)
    assert payload["lhs"] == pytest.approx(1.0, abs=1e-12)
    out = tmp_path / "vr"
    r2 = run_cli("verify", "--input", str(modes), "--inequality", "alg:2:2",
                 "--output", str(out))
    assert r2.returncode == 0
    man = json.loads((tmp_path / "vr.manifest.json").read_text())
    expected = hashlib.sha256(COS_FILE_BODY.encode()).hexdigest()
    assert man["parameters"]["input_sha256"] == expected


#: the options that route output or set the config; every other argument
#: of a subcommand is a parameter of its computation
_NOT_PARAMETERS = {"help", "output", "gnuplot", "config", "tol", "max_radius"}

_EVERY_SUBCOMMAND = {
    "theta": ["--model", "theta0", "--delta-grid", "2:3:2"],
    "constants": [],
    "kdn": ["--d", "2", "--n", "2", "--shifted-convention", "--delta-grid", "3:4:2"],
    "limit": ["--d", "1", "--n", "inf", "--z-grid", "1.5:2.7:2"],
    "field": ["--mu", "10", "--resolution", "32"],
    "verify": ["--inequality", "loglog", "--input", "MODES"],
    "bounds": ["--delta-grid", "2:3:2"],
}


@pytest.mark.parametrize("sub", sorted(_EVERY_SUBCOMMAND))
def test_manifest_parameters_are_the_subcommands_own_arguments(sub, tmp_path):
    modes = tmp_path / "modes.txt"
    modes.write_text(COS_FILE_BODY)
    argv = [sub] + [str(modes) if a == "MODES" else a for a in _EVERY_SUBCOMMAND[sub]]
    routing = ["--tol", "1e-12", "--max-radius", "6000", "--output", str(tmp_path / "o")]
    assert cli.main(argv + routing) == 0
    parser = cli.build_parser()
    choices = next(a for a in parser._actions if a.dest == "subcommand").choices
    own = [a.dest for a in choices[sub]._actions if a.dest not in _NOT_PARAMETERS]
    parsed = vars(parser.parse_args(argv))
    want = {dest: parsed[dest] for dest in own}
    if sub == "verify":
        want["input_sha256"] = hashlib.sha256(COS_FILE_BODY.encode()).hexdigest()
    man = json.loads((tmp_path / "o.manifest.json").read_text())
    # key order too: the manifest file lists them as declared
    assert list(man["parameters"].items()) == list(want.items())


def test_config_file_and_tol_precedence(tmp_path):
    cfg = tmp_path / "prec.cfg"
    cfg.write_text("target_abs_tol = 1e-10\nmax_radius = 3000\n")
    base = tmp_path / "out"
    r = run_cli("theta", "--model", "exact", "--delta-grid", "2:2:1",
                "--config", str(cfg), "--tol", "1e-8", "--output", str(base))
    assert r.returncode == 0
    man = json.loads((tmp_path / "out.manifest.json").read_text())
    assert man["config"]["target_abs_tol"] == 1e-8  # flag beats file
    assert man["config"]["max_radius"] == 3000

    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key = 3\n")
    r2 = run_cli("theta", "--model", "exact", "--delta-grid", "2:2:1",
                 "--config", str(bad))
    assert r2.returncode == 2
    assert "unknown config key" in r2.stderr


@pytest.mark.parametrize(
    "line",
    ["max_radius = inf", "max_radius = 1e400", "max_radius = 3000.5",
     "max_radius = nan"],
)
def test_config_integer_keys_refuse_non_integers(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    code = cli.main(["theta", "--model", "theta0", "--delta-grid", "2:2:1",
                     "--config", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith("torsob: domain-error:")


@pytest.mark.parametrize(
    "argv",
    [["theta", "--model", "theta0", "--delta-grid", "1:2:2", "--config", "FILE"],
     ["verify", "--input", "FILE", "--inequality", "log0"]],
)
def test_a_file_that_is_not_utf8_is_a_domain_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"max_radius = 3000\n\xff\n")
    code = cli.main([str(bad) if a == "FILE" else a for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("torsob: domain-error:") and len(err.splitlines()) == 1
    assert f"{bad}: not UTF-8 text" in err


def test_config_integer_keys_accept_integral_floats(tmp_path):
    cfg = tmp_path / "prec.cfg"
    cfg.write_text("max_radius = 3e3\n")
    base = tmp_path / "out"
    code = cli.main(["theta", "--model", "theta0", "--delta-grid", "2:2:1",
                     "--config", str(cfg), "--output", str(base)])
    assert code == 0
    man = json.loads((tmp_path / "out.manifest.json").read_text())
    assert man["config"]["max_radius"] == 3000


def test_config_keys_are_the_two_that_act(tmp_path, capsys):
    assert cli._CONFIG_FIELDS == {"target_abs_tol": float, "max_radius": int}
    old = tmp_path / "old.cfg"
    old.write_text("root_tol = 1e-13\n")
    code = cli.main(["theta", "--model", "theta0", "--delta-grid", "2:2:1",
                     "--config", str(old)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("torsob: domain-error:") and "unknown config key" in err


def _sources() -> dict:
    return {p: p.read_text() for p in sorted((SRC / "torsob").glob("*.py"))}


def test_every_config_field_is_read():
    text = "".join(_sources().values())
    for field in dataclasses.fields(cli.PrecisionConfig):
        assert f"cfg.{field.name}" in text, field.name


def test_no_function_takes_a_config_it_never_reads():
    unread = []
    for path, text in _sources().items():
        for fn in ast.walk(ast.parse(text)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if "cfg" in [a.arg for a in fn.args.args + fn.args.kwonlyargs] and not any(
                isinstance(n, ast.Name) and n.id == "cfg"
                for stmt in fn.body for n in ast.walk(stmt)
            ):
                unread.append(f"{path.name}:{fn.name}")
    assert unread == []


@pytest.mark.parametrize("value", ["nan", "inf", "1e200"])
def test_verify_bad_coefficients_exit_code(tmp_path, value):
    modes = tmp_path / "bad.txt"
    modes.write_text(f"1 0 {value} 0\n-1 0 {value} 0\n")
    for inequality in ("loglog", "alg:2:3"):
        r = run_cli("verify", "--input", str(modes), "--inequality", inequality)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("torsob: domain-error: FourierInput:")
        assert len(r.stderr.splitlines()) == 1 and r.stdout == ""


@pytest.mark.parametrize(
    "args",
    [("field", "--mu", "1e-300", "--resolution", "32"),
     ("theta", "--model", "exact", "--delta-grid", "1e300:1e300:1")],
)
def test_tiny_mu_exit_code(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stderr == "torsob: domain-error: critical_sums: mu underflows double precision\n"


@pytest.mark.parametrize("mu, code", [("1e300", 2), ("1e-200", 3)])
def test_field_extreme_mu_exit_code(mu, code):
    # norms that underflow are a domain error; an l2 tail that cannot be
    # certified within max_radius is unreachable
    r = run_cli("field", "--mu", mu, "--resolution", "32")
    assert r.returncode == code
    assert len(r.stderr.splitlines()) == 1 and r.stdout == ""


def _count_calls(monkeypatch, module, name) -> list:
    """Count the calls of module.name through every torsob module that
    binds it."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("torsob") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_theta_rows_solve_each_point_once(monkeypatch):
    inversions = _count_calls(monkeypatch, curve, "_invert_model")
    assert cli.main(["theta", "--model", "theta0", "--delta-grid", "1:100:12"]) == 0
    assert len(inversions) == 12  # one per row
    sums = _count_calls(monkeypatch, curve, "critical_sums")
    assert cli.main(["theta", "--model", "exact", "--delta-grid", "1:40:10"]) == 0
    assert len(sums) == 61  # nine root solves; delta = 1 is closed form
    assert len(set(sums)) == len(sums)


@pytest.mark.parametrize("steps", ["1000000000000000", "99999999999999999999999"])
def test_grid_steps_past_the_cap_exit_code(steps):
    r = run_cli("theta", "--model", "theta0", "--delta-grid", f"1:2:{steps}")
    assert r.returncode == 2
    assert r.stderr.startswith("torsob: domain-error: grid spec needs 1 <= steps <= 1000000")
    assert len(r.stderr.splitlines()) == 1 and r.stdout == ""


def test_domain_error_exit_code():
    r = run_cli("theta", "--model", "exact", "--delta-grid", "0.5:4:4")
    assert r.returncode == 2
    assert r.stderr.startswith("torsob: domain-error:")


def test_kdn_unsupported_dimension_exit_code():
    r = run_cli("kdn", "--d", "4", "--n", "3")
    assert r.returncode == 2
    assert r.stderr == "torsob: domain-error: remainder_constant: need d in {1, 2, 3}, got d=4\n"
    assert r.stdout == ""


def test_tolerance_unreachable_exit_code():
    r = run_cli("field", "--mu", "10", "--resolution", "64", "--tol", "1e-17")
    assert r.returncode == 3
    assert r.stderr.startswith("torsob: tolerance-unreachable:")


def test_field_resolution_cap_exit_code():
    r = run_cli("field", "--mu", "10", "--resolution", "100000")
    assert r.returncode == 3
    assert r.stderr.startswith("torsob: tolerance-unreachable: extremal_field:")
    assert r.stdout == ""


def test_field_repeat_runs_same_bytes(tmp_path):
    a = tmp_path / "r1"
    b = tmp_path / "r2"
    ra = run_cli("field", "--mu", "10", "--resolution", "64", "--output", str(a))
    rb = run_cli("field", "--mu", "10", "--resolution", "64", "--output", str(b))
    assert ra.returncode == rb.returncode == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    header = (tmp_path / "r1.csv").read_text().splitlines()
    assert any(ln.startswith("x,y,value") for ln in header[:8])


# ---------------------------------------------------------- BLAS threads

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: imported by every child that has its directory on the import path; at
#: exit it prints the process's thread count and whether os.environ is
#: what the process started with
_TASK_PROBE = """\
import atexit, os, sys
_start = dict(os.environ)
atexit.register(lambda: print(
    "tasks", len(os.listdir("/proc/self/task")), dict(os.environ) == _start,
    file=sys.stderr,
))
"""

#: what pip writes as the ``torsob`` console script
_CONSOLE_SCRIPT = """\
import re
import sys
from torsob.cli import main
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit(main())
"""

needs_task_count = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/task and at least two cores",
)


def _python(argv, path=(), **env_vars) -> subprocess.CompletedProcess:
    """A child ``python argv`` with src and path on its import path, under
    this environment less its thread variables, plus env_vars."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), *map(str, path), env.get("PYTHONPATH")])
    )
    r = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert r.returncode == 0, r.stderr
    return r


def _tasks(tmp_path, *argv, **env_vars) -> int:
    """Threads of a child ``python argv`` at exit; its os.environ must end
    as it started."""
    (tmp_path / "sitecustomize.py").write_text(_TASK_PROBE)
    r = _python(argv, [tmp_path], **env_vars)
    word, tasks, same_env = r.stderr.splitlines()[-1].split()
    assert (word, same_env) == ("tasks", "True")
    return int(tasks)


@needs_task_count
def test_cli_runs_one_blas_thread(tmp_path):
    assert _tasks(tmp_path, "-m", "torsob.cli", "--version") == 1
    script = tmp_path / "bin" / "torsob"
    script.parent.mkdir()
    script.write_text(_CONSOLE_SCRIPT)
    assert _tasks(tmp_path, str(script), "--version") == 1


@needs_task_count
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_keeps_the_users_thread_variable(tmp_path, var):
    assert _tasks(tmp_path, "-m", "torsob.cli", "--version", **{var: "2"}) == 2


@needs_task_count
def test_import_torsob_keeps_numpys_default_pool(tmp_path):
    default = _tasks(tmp_path, "-c", "import numpy")
    assert default >= 2
    assert _tasks(tmp_path, "-c", "import torsob") == default
    # a user's package run by -m also imports torsob while argv[0] is "-m"
    (tmp_path / "userpkg").mkdir()
    (tmp_path / "userpkg" / "__init__.py").write_text("import torsob\n")
    (tmp_path / "userpkg" / "main.py").write_text("")
    assert _tasks(tmp_path, "-m", "userpkg.main") == default


def test_cli_bytes_do_not_depend_on_the_blas_thread_count():
    argv = ["-m", "torsob.cli", "kdn", "--d", "3", "--n", "2"]
    assert _python(argv).stdout == _python(argv, OPENBLAS_NUM_THREADS="2").stdout
