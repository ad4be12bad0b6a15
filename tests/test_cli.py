"""End-to-end checks of the experiment CLI: exit codes, manifests, determinism."""

import csv
import hashlib
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oja_diffusion
from oja_diffusion import __version__, rate_bound_sin2, stepsize_rule
from oja_diffusion import montecarlo
from oja_diffusion import cli
from oja_diffusion.cli import cmd_mc, main
from oja_diffusion.montecarlo import _worker_count

RUN_CFG = {"spec": [2.0, 1.0], "beta": 1e-3, "n_steps": 400, "seed": 7}


def write_cfg(tmp_path, payload, name="cfg.json"):
    """Write ``payload`` as JSON, or as it is when it is already JSON text."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_console_script_version():
    """The declared console script reports the version, installed or not.

    The target comes from ``[project.scripts]`` in ``pyproject.toml`` and runs
    in a fresh interpreter the way pip's generated wrapper runs it, with the
    imported package's source directory first on ``PYTHONPATH``. Where an
    ``oja-diffusion`` executable is on ``PATH`` it is checked the same way.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["oja-diffusion"]
    module, attr = target.split(":")
    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'oja-diffusion'; sys.exit({attr}())"
    )
    env = dict(os.environ)
    src = str(Path(oja_diffusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = [[sys.executable, "-c", wrapper, "--version"]]
    installed = shutil.which("oja-diffusion")
    if installed:
        commands.append([installed, "--version"])
    for command in commands:
        out = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == f"oja-diffusion {__version__}\n"


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh CLI import loads no scipy module."""
    env = dict(os.environ)
    src = str(Path(oja_diffusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, oja_diffusion.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_cli_import_loads_no_process_pool():
    """A CLI run with the default one worker is serial: a fresh import loads no pool module."""
    env = dict(os.environ)
    src = str(Path(oja_diffusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, oja_diffusion.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def _fresh_modules(code):
    """Exit code, and the numpy and oja_diffusion modules loaded, of ``code`` in a fresh interpreter.

    The module list is printed at exit, so it also covers a ``sys.exit``
    from argparse.
    """
    env = dict(os.environ)
    src = str(Path(oja_diffusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import atexit, json, sys; atexit.register(lambda: print(json.dumps(sorted("
        "m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'oja_diffusion'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe + code], capture_output=True, text=True,
                         env=env, timeout=60)
    return out.returncode, set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0), (["--help"], 0), (["run", "--help"], 0), (["bogus"], 2),
    (["ode", "--help"], 0), (["sde", "--help"], 0), (["phases", "--help"], 0),
    (["mc", "--help"], 0), (["rates", "--help"], 0),
], ids=["version", "help", "run-help", "unknown-subcommand", "ode-help", "sde-help",
        "phases-help", "mc-help", "rates-help"])
def test_version_help_and_usage_errors_load_no_library(argv, code):
    rc, loaded = _fresh_modules(f"from oja_diffusion.cli import main; main({argv!r})")
    assert rc == code
    assert loaded == {"oja_diffusion", "oja_diffusion.cli"}


def test_run_loads_only_its_own_modules(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG)
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "out")]
    rc, loaded = _fresh_modules(f"from oja_diffusion.cli import main; main({argv!r})")
    assert rc == 0
    assert "numpy" in loaded
    assert not loaded & {f"oja_diffusion.{m}" for m in ("montecarlo", "phases", "sde")}


def test_package_import_loads_no_submodule():
    rc, loaded = _fresh_modules("import oja_diffusion")
    assert rc == 0
    assert loaded == {"oja_diffusion"}


def test_package_dir_lists_names_before_first_use():
    rc, _ = _fresh_modules(
        "import sys, oja_diffusion as p; names = set(dir(p)); "
        "sys.exit(0 if names >= {*p.__all__, *p._MODULES} else 3)"
    )
    assert rc == 0


def test_package_reexports_every_module_api():
    from oja_diffusion import montecarlo, ode, oja, phases, sde, spectrum

    modules = (spectrum, oja, ode, sde, phases, montecarlo)
    assert set(oja_diffusion.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(oja_diffusion, name) is getattr(module, name), name
    star = {}
    exec("from oja_diffusion import *", star)
    assert set(star) - {"__builtins__"} == set(oja_diffusion.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        oja_diffusion.no_such_name


def test_missing_config_is_exit_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_malformed_json_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_invalid_spectrum_names_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"spec": [1.0, 1.0], "beta": 1e-3, "n_steps": 10})
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "spec" in err and "eigengap" in err
    # nothing partial left behind
    assert not (tmp_path / "o").exists()


def test_missing_required_field_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"spec": [2.0, 1.0], "n_steps": 10})
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_run_outputs_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["master_seed"] == 7
    assert manifest["config"] == RUN_CFG
    assert manifest["tool_version"] == __version__
    assert manifest["wall_time_s"] >= 0.0
    for name, digest in manifest["outputs"].items():
        assert sha256(out / name) == digest
    assert set(manifest["outputs"]) == {"trajectory.csv", "summary.json"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_step"] == 400
    assert 0.0 <= summary["final_sin2"] <= 1.0


def test_run_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(out1)])
    main(["run", "--config", cfg, "--out", str(out2)])
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_run_outputs_get_the_mode_open_gives(tmp_path, umask):
    cfg = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    expected = 0o666 & ~umask
    assert modes == {"manifest.json": expected, "summary.json": expected,
                     "trajectory.csv": expected}


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(out1)])
    main(["run", "--config", cfg, "--out", str(out2), "--seed", "8"])
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["master_seed"] == 8
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


def test_out_env_var_and_flag_precedence(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, RUN_CFG)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OJA_DIFFUSION_OUT", str(tmp_path / "from_env"))
    assert main(["run", "--config", cfg]) == 0
    assert (tmp_path / "from_env" / "trajectory.csv").exists()
    # an explicit flag beats the environment
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "trajectory.csv").exists()


def test_output_dir_collision_is_runtime_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG)
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    rc = main(["run", "--config", cfg, "--out", str(target)])
    assert rc == 1


def test_ode_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {
        "spec": [2.0, 1.0], "v0": "warm:0.75",
        "t_grid": {"start": 0.0, "stop": 3.0, "num": 7}, "delta": 0.25,
    })
    out = tmp_path / "out"
    assert main(["ode", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["crossing_time"] == pytest.approx(math.log(3.0), rel=1e-6)
    curve = (out / "ode_curve.csv").read_text().splitlines()
    assert curve[0] == "t,v1_sq,v2_sq"
    assert len(curve) == 8
    first = [float(x) for x in curve[1].split(",")]
    assert first[1] == pytest.approx(0.25, abs=1e-12)


def test_sde_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {
        "spec": [2.0, 1.0], "k": 1, "t_end": 1.0, "dt": 1e-3,
        "u0": 0.3, "n_paths": 60,
    })
    out = tmp_path / "out"
    assert main(["sde", "--config", cfg, "--out", str(out)]) == 0
    moments = (out / "ou_moments.csv").read_text().splitlines()
    assert moments[0] == "t,mean_u1,var_u1,closed_mean_u1,closed_var_u1"
    last = [float(x) for x in moments[-1].split(",")]
    assert last[0] == 1.0
    assert last[3] == pytest.approx(0.3 * math.exp(-1.0), rel=1e-12)
    assert last[4] == pytest.approx(-math.expm1(-2.0), rel=1e-12)
    path_rows = (out / "ou_path.csv").read_text().splitlines()
    assert len(path_rows) == 1002


def test_overflowing_sde_is_exit_1_with_only_the_manifest(tmp_path, capsys):
    # Around the bottom axis the overlap grows like e^t and overflows near t = 710.
    cfg = write_cfg(tmp_path, {"spec": [2, 1], "k": 2, "dt": 5e-3, "t_end": 800,
                               "n_paths": 10})
    out = tmp_path / "out"
    assert main(["sde", "--config", cfg, "--out", str(out)]) == 1
    assert "FloatingPointError" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_sde_bad_dt_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"spec": [2.0, 1.0], "t_end": 1.0, "dt": 0.5})
    assert main(["sde", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, field", [
    ("ode", {"spec": [2.0, 1.0], "v0": "warm:0.5", "t_grid": [0.0, math.nan]}, "t_grid"),
    ("ode", {"spec": [2.0, 1.0], "v0": "warm:0.5",
             "t_grid": {"start": 0.0, "stop": math.nan, "num": 3}}, "t_grid"),
    ("mc", {"experiment": "ode_convergence", "spec": [2.0, 1.0], "beta": 1e-3,
            "n_chains": 10, "t_grid": [0.5, math.nan], "init": "warm:0.75"}, "t_grid"),
    ("sde", {"spec": [2.0, 1.0], "t_end": 0.1, "dt": 1e-3, "u0": math.nan}, "u0"),
    ("sde", {"spec": [2.0, 1.0], "t_end": math.inf, "dt": 1e-3}, "t_end"),
    ("mc", {"experiment": "finite_sample", "spec": [2.0, 1.0], "t_list": [50]}, "t_list"),
    ("mc", {"experiment": "finite_sample", "spec": [2.0, 1.0], "t_list": [1000.7]}, "t_list"),
    ("rates", {"spec": [2.0, 1.0], "t_samples": 1e5, "b": math.nan}, "b"),
    ("rates", {"spec": [2.0, 1.0], "t_samples": 1e5, "sigma_star2": "abc"}, "sigma_star2"),
    ("phases", {"spec": [2.0, 1.0], "beta": 1e-3, "delta": 0.25,
                "betas_for_cutoff": [math.nan]}, "betas_for_cutoff"),
    ("mc", {"experiment": "finite_sample", "spec": [2.0, 1.0], "t_list": [100],
            "sampler": "foo"}, "sampler"),
    ("mc", {"experiment": "phase_portrait", "spec": [2.0, 1.0], "beta": 1e-3, "delta": 0.25,
            "n_steps": 100, "n_chains": 4, "k": 1}, "k"),
    ("ode", {"spec": [2.0, 1.0], "v0": "warm:0.5", "t_grid": [0.0, 1.0], "delta": 0.9}, "delta"),
    ("run", dict(RUN_CFG, init=[math.nan, 1.0]), "init"),
    ("mc", {"experiment": "ode_convergence", "spec": [2.0, 1.0], "beta": 1e-3,
            "n_chains": 10, "t_grid": [0.5], "init": "uniform"}, "init"),
    ("mc", {"experiment": "sde_covariance", "spec": [2.0, 1.0], "beta": 1e-4,
            "n_chains": 10, "t_grid": [0.5], "sampler": "bounded"}, "sampler"),
    ("mc", {"experiment": "finite_sample", "spec": [1.0, 0.99], "t_list": [100],
            "sampler": "bounded"}, "t_list"),
    ("phases", {"spec": [2.0, 1.0], "beta": 1e-2, "delta": 0.25, "n_steps": "abc",
                "sampler": "gaussian", "trajectory_csv": "no/such/trajectory.csv"}, "n_steps"),
    ("phases", {"spec": [2.0, 1.0], "beta": 1e-2, "delta": 0.25, "n_steps": 1500,
                "sampler": "gaussian", "trajectory_csv": "no/such/trajectory.csv"},
     "trajectory_csv"),
    ("run", dict(RUN_CFG, n_steps="abc"), "n_steps"),
    ("run", dict(RUN_CFG, n_steps=None), "n_steps"),
    ("sde", {"spec": [2.0, 1.0], "t_end": 0.1, "dt": 1e-3, "n_paths": "x"}, "n_paths"),
    ("run", dict(RUN_CFG, include_states="no"), "include_states"),
    ("sde", {"spec": [2.0, 1.0], "t_end": 0.1, "dt": math.nan}, "dt"),
    ("mc", {"experiment": "sde_covariance", "spec": [2.0, 1.0], "beta": 1e-3,
            "n_chains": 1, "t_grid": [0.05]}, "n_chains"),
    ("mc", {"experiment": "finite_sample", "spec": [2.0, 1.0], "t_list": [100],
            "n_chains": 1}, "n_chains"),
    ("mc", {"experiment": "ode_convergence", "spec": [2.0, 1.0], "beta": 1e-3,
            "n_chains": 1, "t_grid": [0.5, 1.0]}, "n_chains"),
    ("sde", {"spec": [2, 1], "t_end": 1.0, "dt": 1e-3, "n_paths": 10, "t_grid": [0.5, 1e300]},
     "t_grid"),
    ("sde", {"spec": [2, 1], "t_end": 1e300, "dt": 1e-3, "n_paths": 0}, "t_end"),
    ("mc", {"experiment": "ode_convergence", "spec": [2, 1], "beta": 1e-3, "n_chains": 4,
            "t_grid": [1e300]}, "t_grid"),
    ("mc", {"experiment": "ode_convergence", "spec": [2, 1], "beta": 1e-5, "n_chains": 2,
            "t_grid": [1e15], "n_steps": 10**30}, "n_steps"),
    ("run", '{"spec": [2, 1], "beta": 1e-3, "beta": 1e-2, "n_steps": 10}', "beta"),
    ("ode", '{"spec": [2, 1], "v0": "warm:0.5", "t_grid": {"start": 0, "stop": 1, "num": 3, '
            '"num": 4}}', "num"),
    ("ode", {"spec": [2, 1], "v0": "warm:0.5",
             "t_grid": {"start": 0, "stop": 1, "num": 3, "nmu": 50}}, "t_grid"),
    ("sde", {"spec": [2, 1], "t_end": 0.1, "dt": 1e-3, "n_paths": 4,
             "t_grid": {"start": 0, "stop": 0.1, "num": 3, "step": 0.05}}, "t_grid"),
    ("mc", {"experiment": "ode_convergence", "spec": [2, 1], "beta": 1e-2, "n_chains": 4,
            "t_grid": {"start": 0.5, "stop": 1, "num": 2, "nmu": 50}}, "t_grid"),
    ("run", {"spec": [True, 0.5], "beta": 1e-3, "n_steps": 10}, "spec"),
    ("run", dict(RUN_CFG, init=["1", "0"]), "init"),
    ("sde", {"spec": [2, 1], "t_end": 0.1, "dt": 1e-3, "n_paths": 0, "u0": "0.5"}, "u0"),
    ("run", {"spec": [2, 1], "beta": 1e-3, "n_steps": 10, "sampeler": "gaussian"}, "sampeler"),
    ("rates", {"spec": [2, 1], "t_samples": 1e5, "sigma_star": 2.0}, "sigma_star"),
    ("sde", {"spec": [2, 1], "t_end": 0.1, "dt": 1e-3, "npaths": 0}, "npaths"),
    ("mc", {"experiment": "finite_sample", "spec": [2, 1], "t_list": [100], "n_chains": 4,
            "beta": 0.5}, "beta"),
    ("run", {"spec": [2, 1], "beta": 1e-3, "nsteps": 10}, "nsteps"),
], ids=["ode-nan-t_grid", "ode-nan-grid-object", "mc-nan-t_grid", "sde-nan-u0",
        "sde-inf-t_end", "mc-short-t_list", "mc-fractional-t_list", "rates-nan-b",
        "rates-text-sigma_star2",
        "phases-nan-betas_for_cutoff", "mc-unknown-sampler", "mc-saddle-k-1",
        "ode-delta-0.9", "run-nan-init", "mc-uniform-init-ode_convergence",
        "mc-bounded-sde_covariance", "mc-finite_sample-bounded-cap",
        "phases-trajectory-n_steps-abc", "phases-missing-trajectory_csv", "run-n_steps-abc",
        "run-n_steps-null", "sde-text-n_paths", "run-text-include_states",
        "sde-nan-dt", "mc-sde_covariance-one-chain", "mc-finite_sample-one-chain",
        "mc-ode_convergence-one-chain", "sde-huge-t_grid", "sde-huge-t_end",
        "mc-huge-t_grid-default-n_steps", "mc-huge-n_steps", "run-repeated-key",
        "ode-repeated-nested-key", "ode-t_grid-extra-key", "sde-t_grid-extra-key",
        "mc-t_grid-extra-key", "run-bool-spec", "run-string-init", "sde-string-u0",
        "run-unknown-key", "rates-unknown-key", "sde-unknown-key", "mc-key-of-another-experiment",
        "run-misspelt-required-key"])
def test_bad_input_is_exit_2_before_any_file(tmp_path, capsys, command, payload, field):
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_mc_default_n_steps_is_the_step_of_the_last_grid_time(monkeypatch):
    """Only the parse step runs: t = 168.1 at beta = 1e-5 maps to step 16810000."""
    built = []
    monkeypatch.setattr(montecarlo, "prepare_ode_convergence", built.append)
    cmd_mc({"experiment": "ode_convergence", "spec": [2, 1], "beta": 1e-5, "t_grid": [168.1],
            "n_chains": 2}, 0, 1)
    assert built[0].base.n_steps == 16_810_000


# Small valid configs, one per subcommand (and per mc experiment); the fuzz below
# perturbs one top-level field of one of them.  The phases config reads a
# trajectory that the module fixture writes with the same chain fields.
FUZZ_CHAIN = {"spec": [2.0, 1.0], "beta": 1e-2, "n_steps": 300, "init": "near_saddle:2:1e-4",
              "sampler": "gaussian", "record_stride": 2, "seed": 3}
FUZZ_CONFIGS = [
    ("run", dict(FUZZ_CHAIN, include_states=True)),
    ("ode", {"spec": [2.0, 1.0], "v0": "warm:0.5", "t_grid": [0.0, 0.5, 1.0], "delta": 0.25,
             "seed": 1}),
    ("sde", {"spec": [2.0, 1.0], "k": 1, "t_end": 0.05, "dt": 1e-3, "u0": 0.3, "n_paths": 8,
             "t_grid": [0.0, 0.05], "seed": 2}),
    ("phases", dict(FUZZ_CHAIN, delta=0.25, k=2, betas_for_cutoff=[1e-3, 1e-4])),
    ("mc", {"experiment": "ode_convergence", "spec": [2.0, 1.0], "beta": 1e-2, "n_chains": 4,
            "t_grid": [0.5], "n_steps": 60, "init": "warm:0.5", "sampler": "bounded", "seed": 4}),
    ("mc", {"experiment": "sde_covariance", "spec": [2.0, 1.0], "beta": 1e-3, "n_chains": 4,
            "t_grid": [0.05], "k": 1, "init": "saddle:1", "sampler": "gaussian"}),
    ("mc", {"experiment": "finite_sample", "spec": [2.0, 1.0], "t_list": [100], "n_chains": 4,
            "sampler": "gaussian"}),
    ("mc", {"experiment": "phase_portrait", "spec": [2.0, 1.0], "beta": 1e-2, "delta": 0.25,
            "n_steps": 200, "n_chains": 4, "init": "saddle:2", "sampler": "gaussian", "k": 2,
            "record_stride": 2}),
    ("rates", {"spec": [2.0, 1.0], "t_samples": 1e5, "b": 3.0, "sigma_star2": 2.0}),
]
_DELETE = object()
PERTURBATIONS = [math.nan, math.inf, -math.inf, -1, 0, "abc", None, True, [0.5], _DELETE]


@pytest.fixture(scope="module")
def fuzz_trajectory(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    assert main(["run", "--config", write_cfg(tmp, FUZZ_CHAIN), "--out", str(tmp / "run")]) == 0
    return str(tmp / "run" / "trajectory.csv")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=st.sampled_from(FUZZ_CONFIGS), data=st.data())
def test_fuzzed_config_exits_0_with_valid_json_or_2_with_nothing_written(
        fuzz_trajectory, case, data):
    command, base = case
    cfg = dict(base, trajectory_csv=fuzz_trajectory) if command == "phases" else dict(base)
    key = data.draw(st.sampled_from(sorted(cfg)), label="field")
    value = data.draw(st.sampled_from(PERTURBATIONS), label="value")
    if value is _DELETE:
        del cfg[key]
    else:
        cfg[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc = main([command, "--config", write_cfg(Path(tmp), cfg), "--out", str(out)])
        assert rc in (0, 2)
        if rc == 2:
            assert not out.exists()
            return
        for path in out.glob("*.json"):
            json.dumps(json.loads(path.read_text()), allow_nan=False)


@pytest.mark.parametrize("command, base", FUZZ_CONFIGS,
                         ids=[base.get("experiment", command) for command, base in FUZZ_CONFIGS])
def test_misspelt_key_is_exit_2_naming_it_before_any_file(tmp_path, capsys, command, base):
    key = list(base)[-1]
    typo = key[1] + key[0] + key[2:]  # its first two letters swapped
    cfg = write_cfg(tmp_path, dict(base, **{typo: base[key]}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"config field '{typo}': unknown key for {command}" in capsys.readouterr().err
    assert not out.exists()


# The config keys each subcommand reads, besides seed; for mc, those every experiment
# reads, and then each experiment's own.
DECLARED = {
    "run": {"spec", "beta", "n_steps", "init", "sampler", "record_stride", "include_states"},
    "ode": {"spec", "v0", "t_grid", "delta"},
    "sde": {"spec", "k", "t_end", "dt", "u0", "n_paths", "t_grid"},
    "phases": {"spec", "beta", "delta", "k", "betas_for_cutoff", "trajectory_csv", "n_steps",
               "init", "sampler", "record_stride"},
    "rates": {"spec", "t_samples", "b", "sigma_star2"},
    "mc": {"experiment", "spec", "n_chains"},
}
MC_DECLARED = {
    "ode_convergence": {"t_grid", "beta", "n_steps", "init", "sampler", "record_stride"},
    "sde_covariance": {"t_grid", "k", "beta", "n_steps", "init", "sampler", "record_stride"},
    "finite_sample": {"t_list", "sampler"},
    "phase_portrait": {"beta", "n_steps", "init", "sampler", "record_stride", "delta", "k"},
}


@pytest.mark.parametrize("command", sorted(DECLARED))
def test_help_lists_every_declared_key_with_its_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed, section = {"": {}}, ""
    for line in capsys.readouterr().out.split("config keys:\n")[1].splitlines():
        if line.endswith(" adds:"):
            section = line[:-len(" adds:")]
            listed[section] = {}
        elif line.startswith("  "):
            key, shown = re.fullmatch(r"  (\S+) +.*\((required|default .*)\)", line).groups()
            listed[section][key] = shown
    expected = {"": DECLARED[command] | {"seed"}, **(MC_DECLARED if command == "mc" else {})}
    assert {name: set(keys) for name, keys in listed.items()} == expected
    for name, keys in listed.items():
        table = cli._EXPERIMENTS[name] if name else cli._KEYS[command]
        for key, shown in keys.items():
            default = table[key]
            assert shown == ("required" if default is cli._REQUIRED
                             else f"default {json.dumps(default)}"), (name, key)
    assert listed[""]["seed"] == "default 0"


def test_readme_cli_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = re.search(r"cat > run\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, config), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["final_step"] == 20000


@pytest.mark.parametrize("command, payload", [
    ("run", RUN_CFG),
    ("sde", {"spec": [2.0, 1.0], "k": 1, "t_end": 0.2, "dt": 1e-3, "u0": 0.3, "n_paths": 20,
             "seed": 5}),
    ("mc", {"experiment": "ode_convergence", "spec": [2.0, 1.0], "beta": 1e-2, "n_chains": 20,
            "t_grid": [0.5, 1.0], "init": "warm:0.75", "seed": 9}),
])
def test_manifest_config_and_seed_rerun_the_same_outputs(tmp_path, command, payload):
    first = tmp_path / "first"
    assert main([command, "--config", write_cfg(tmp_path, payload), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    again = tmp_path / "again"
    cfg = write_cfg(tmp_path, manifest["config"], name="from_manifest.json")
    assert main([command, "--config", cfg, "--out", str(again),
                 "--seed", str(manifest["master_seed"])]) == 0
    rerun = json.loads((again / "manifest.json").read_text())
    assert rerun["outputs"] == manifest["outputs"]


@pytest.mark.parametrize("command, payload", [
    ("run", RUN_CFG),
    ("rates", {"spec": [2.0, 1.0], "t_samples": 1e5}),
])
def test_manifest_records_stage_times(tmp_path, command, payload):
    cfg = write_cfg(tmp_path, payload)
    manifests = []
    for out in (tmp_path / "one", tmp_path / "two"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    for manifest in manifests:
        stages = manifest["stages"]
        assert set(stages) == {"parse_s", "run_s", "write_s"}
        assert all(math.isfinite(v) and v >= 0.0 for v in stages.values()), stages
        # wall_time_s spans the run and write stages
        assert manifest["wall_time_s"] == pytest.approx(stages["run_s"] + stages["write_s"],
                                                        abs=2e-6)
    assert manifests[0]["outputs"] == manifests[1]["outputs"]


@pytest.mark.parametrize("text", [
    "",
    "step,v1,v2,sin2_angle\n",
    "step,v1,v2,sin2_angle\n0,1.0,0.0,0.0\n\n",
    "step,v1,v2,sin2_angle\n0,1.0,0.0\n",
    "step,v1,v2,v3,sin2_angle\n0,1.0,0.0,0.0,0.0\n",
    "step,v1,v2,sin2_angle\n0,1.0,0.0,0.0\n11,1.0,0.0,0.0\n",
    "step,v1,v2,sin2_angle\n0,1.0,0.0,0.0\n5,1.0,0.0,0.0\n5,1.0,0.0,0.0\n",
], ids=["empty", "header-only", "blank-row", "short-row", "d-3-under-d-2-spec",
        "step-past-n_steps", "repeated-step"])
def test_malformed_trajectory_csv_is_exit_2(tmp_path, capsys, text):
    csv_path = tmp_path / "trajectory.csv"
    csv_path.write_text(text)
    cfg = write_cfg(tmp_path, {"spec": [2.0, 1.0], "beta": 1e-2, "delta": 0.25, "n_steps": 10,
                               "sampler": "gaussian", "trajectory_csv": str(csv_path)})
    out = tmp_path / "out"
    assert main(["phases", "--config", cfg, "--out", str(out)]) == 2
    assert "config field 'trajectory_csv'" in capsys.readouterr().err
    assert not out.exists()


def test_phases_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {
        "spec": [2.0, 1.0], "beta": 1e-3, "delta": 0.25,
        "betas_for_cutoff": [1e-3, 1e-4, 1e-5],
    })
    out = tmp_path / "out"
    assert main(["phases", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "crossing_report.json").read_text())
    assert report["predicted"]["N3"] == pytest.approx(500 * math.log(250.0), rel=1e-12)
    assert report["empirical"]["N1"] is None  # no trajectory supplied
    assert "N1" in (out / "crossing_report.txt").read_text()
    cutoff = (out / "cutoff.csv").read_text().splitlines()
    assert cutoff[0] == "beta,r21,r31"
    r21s = [float(r.split(",")[1]) for r in cutoff[1:]]
    assert r21s == sorted(r21s, reverse=True)


def test_phases_with_trajectory(tmp_path):
    run_cfg = write_cfg(tmp_path, {
        "spec": [2.0, 1.0], "beta": 1e-2, "n_steps": 1500, "seed": 3,
        "init": "near_saddle:2:1e-4", "sampler": "gaussian", "record_stride": 1,
    }, name="run.json")
    out_run = tmp_path / "run_out"
    assert main(["run", "--config", run_cfg, "--out", str(out_run)]) == 0
    ph_cfg = write_cfg(tmp_path, {
        "spec": [2.0, 1.0], "beta": 1e-2, "delta": 0.25, "n_steps": 1500,
        "init": "near_saddle:2:1e-4", "sampler": "gaussian", "record_stride": 1,
        "seed": 3, "trajectory_csv": str(out_run / "trajectory.csv"),
    }, name="ph.json")
    out = tmp_path / "ph_out"
    assert main(["phases", "--config", ph_cfg, "--out", str(out)]) == 0
    report = json.loads((out / "crossing_report.json").read_text())
    assert report["empirical"]["N1"] is not None
    assert report["config"]["k"] == 2


def test_mc_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": "ode_convergence", "spec": [2.0, 1.0], "beta": 1e-3,
        "n_chains": 50, "t_grid": [0.5, 1.0], "init": "warm:0.75",
    })
    out = tmp_path / "out"
    assert main(["mc", "--config", cfg, "--out", str(out), "--workers", "2"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "ode_convergence"
    assert summary["summary"]["sup_abs_diff"] < 0.1
    table = (out / "ode_convergence_table.csv").read_text().splitlines()
    assert table[0].startswith("t,step,mean_v1sq")


def test_mc_table_cells_parse_as_numbers(tmp_path):
    # A numpy float cell must read as a plain float, not as np.float64(...).
    cfg = write_cfg(tmp_path, {
        "experiment": "sde_covariance", "spec": [2.0, 1.0], "beta": 1e-3,
        "n_chains": 20, "t_grid": [0.05, 0.1],
    })
    out = tmp_path / "out"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sde_covariance_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    for cell in (c for row in rows for c in row):
        if cell not in ("", "True", "False"):
            float(cell)


def test_mc_unknown_experiment_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"experiment": "bootstrap", "spec": [2.0, 1.0]})
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "experiment" in capsys.readouterr().err


def test_mc_finite_sample_defaults_to_gaussian(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": "finite_sample", "spec": [2.0, 1.0],
        "t_list": [1000], "n_chains": 40,
    })
    out = tmp_path / "out"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["sampler"] == "gaussian"
    assert "unbounded" in summary["config"]["sampler_note"]


def test_rates_subcommand_and_gnuplot_stub(tmp_path):
    cfg = write_cfg(tmp_path, {"spec": [2.0, 1.0], "t_samples": 1e5})
    out = tmp_path / "out"
    assert main(["rates", "--config", cfg, "--out", str(out), "--gnuplot-stub"]) == 0
    report = json.loads((out / "rate_report.json").read_text())
    assert report["beta_used"] == stepsize_rule_value()
    assert report["bound_sin2"] == rate_bound_sin2_value()
    assert dict(report["table1_rows"])["oja-diffusion"] == 2e-5
    assert "minimax" in (out / "rate_table.txt").read_text()
    stub = (out / "plot.gp").read_text()
    assert stub.startswith("#") and "set datafile separator" in stub
    manifest = json.loads((out / "manifest.json").read_text())
    assert "plot.gp" in manifest["outputs"]


def stepsize_rule_value():
    from oja_diffusion import make_spectrum

    return stepsize_rule(make_spectrum([2.0, 1.0]), 1e5)


def rate_bound_sin2_value():
    from oja_diffusion import make_spectrum

    return rate_bound_sin2(make_spectrum([2.0, 1.0]), 1e5)


def test_workers_do_not_change_mc_output(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": "ode_convergence", "spec": [2.0, 1.0], "beta": 1e-3,
        "n_chains": 40, "t_grid": [0.5], "init": "warm:0.75",
    })
    out1, out2 = tmp_path / "w1", tmp_path / "w3"
    assert main(["mc", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["mc", "--config", cfg, "--out", str(out2), "--workers", "3"]) == 0
    a = json.loads((out1 / "manifest.json").read_text())["outputs"]
    b = json.loads((out2 / "manifest.json").read_text())["outputs"]
    assert a == b


@pytest.mark.parametrize("workers", ["0", "-5", "two"])
def test_workers_below_one_is_exit_2_before_any_file(tmp_path, capsys, workers):
    cfg = write_cfg(tmp_path, {"experiment": "ode_convergence", "spec": [2.0, 1.0],
                               "beta": 1e-3, "n_chains": 4, "t_grid": [0.5]})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--config", cfg, "--out", str(out), "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, payload, target", [
    ("run", RUN_CFG, "oja_diffusion.oja.Table.to_csv"),
    ("sde", {"spec": [2.0, 1.0], "t_end": 0.1, "dt": 1e-3, "n_paths": 1},
     "oja_diffusion.oja.Table.to_csv"),
    ("ode", {"spec": [2.0, 1.0], "v0": "warm:0.5", "t_grid": [0.0, 1.0]},
     "oja_diffusion.oja.Table.to_csv"),
])
def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, capsys, command, payload, target):
    def broken(*args, **kwargs):
        path = next(a for a in args if isinstance(a, str))
        with open(path, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    monkeypatch.setattr(target, broken)
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["manifest.json"]


@pytest.mark.parametrize("command, payload, workers, processes", [
    ("run", RUN_CFG, 3, 1),
    ("mc", {"experiment": "ode_convergence", "spec": [2.0, 1.0], "beta": 1e-3, "n_chains": 6,
            "t_grid": [0.5]}, 2, _worker_count(2, 6)),
    ("mc", {"experiment": "ode_convergence", "spec": [2.0, 1.0], "beta": 1e-3, "n_chains": 3,
            "t_grid": [0.5]}, 4, 1),
])
def test_manifest_records_requested_workers_and_processes(tmp_path, command, payload, workers,
                                                          processes):
    # The manifest names the --workers asked for and the processes the run
    # used; the result files are those of a one-worker run.
    cfg = write_cfg(tmp_path, payload)
    one, many = tmp_path / "one", tmp_path / "many"
    assert main([command, "--config", cfg, "--out", str(one)]) == 0
    assert main([command, "--config", cfg, "--out", str(many), "--workers", str(workers)]) == 0
    a = json.loads((one / "manifest.json").read_text())
    b = json.loads((many / "manifest.json").read_text())
    assert a["workers"] == {"requested": 1, "processes": 1}
    assert b["workers"] == {"requested": workers, "processes": processes}
    assert b["outputs"] == a["outputs"]
