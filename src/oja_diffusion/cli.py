"""Command-line front end.

Subcommands: run, ode, sde, phases, mc, rates.  Each takes a JSON config via
--config, writes results to --out (default from OJA_DIFFUSION_OUT, then
./out), and exits 0 on success, 2 on config/validation errors (the message
names the failing field), 1 on runtime errors.  A manifest.json naming the
command, config, seed and tool version is written atomically before any
result file; wall time and output hashes are added once results exist.
Every file write goes through one temp-then-rename writer, so an interrupted
or failed write leaves neither a partial file nor a stray temp file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .oja import OjaConfig, _config_echo, run_chain, trajectory_from_csv
from .ode import export_curve, ode_crossing_time
from .phases import (
    CrossingReport,
    EmpiricalCrossings,
    PhaseThresholds,
    _saddle_index,
    crossing_report,
    cutoff_ratios,
    predict_crossings,
    rate_report,
)
from .montecarlo import (
    EnsembleConfig,
    Table,
    _check_t_list,
    finite_sample_experiment,
    ode_convergence_experiment,
    phase_portrait_experiment,
    sde_covariance_experiment,
)
from .sde import OuSpec, _as_u0, _check_dt, ou_mean_cov, ou_ensemble_moments, simulate_ou
from .spectrum import get_sampler, make_spectrum

ENV_OUT = "OJA_DIFFUSION_OUT"


class ConfigError(ValueError):
    """Invalid configuration; the message names the failing field."""


_REQUIRED = object()


def _field(cfg: dict, key: str, default=_REQUIRED):
    if key in cfg:
        return cfg[key]
    if default is _REQUIRED:
        raise ConfigError(f"config field '{key}' is required")
    return default


def _spectrum(cfg: dict):
    try:
        return make_spectrum(_field(cfg, "spec"))
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(f"config field 'spec': {e}") from None


def _number(cfg: dict, key: str, default=_REQUIRED):
    val = _field(cfg, key, default)
    try:
        return float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"config field '{key}': expected a number, got {val!r}") from None


def _positive(key: str, val) -> float:
    """``val`` as a finite positive number; ConfigError naming ``key`` otherwise."""
    try:
        x = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"config field '{key}': expected a number, got {val!r}") from None
    if not 0.0 < x < np.inf:
        raise ConfigError(f"config field '{key}': must be a finite positive number, got {val!r}")
    return x


def _integer(cfg: dict, key: str, default=_REQUIRED):
    val = _field(cfg, key, default)
    if isinstance(val, bool) or (not isinstance(val, int) and int(val) != val):
        raise ConfigError(f"config field '{key}': expected an integer, got {val!r}")
    return int(val)


def _t_grid(cfg: dict, key: str = "t_grid", default=_REQUIRED):
    val = _field(cfg, key, default)
    if isinstance(val, dict):
        try:
            grid = np.linspace(float(val["start"]), float(val["stop"]), int(val["num"]))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ConfigError(
                f"config field '{key}': a grid object needs numeric 'start', 'stop' and integer 'num'"
            ) from None
    else:
        try:
            grid = np.asarray([float(t) for t in val], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(
                f"config field '{key}': expected a list of times or a start/stop/num object"
            ) from None
    if grid.size == 0:
        raise ConfigError(f"config field '{key}': grid must not be empty")
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"config field '{key}': times must be finite, got {grid.tolist()}")
    return grid


def _atomic_write(path: str, write) -> None:
    """Produce ``path`` by ``write(tmp)`` in a private sibling directory, then rename it.

    ``write`` creates the file itself, so it gets the mode a plain ``open``
    gives (0o666 less the umask).  The temp directory is always removed, with
    the temp file in it when ``write`` or the rename fails, so a failed write
    leaves neither a partial ``path`` nor a stray temp file.
    """
    tmp_dir = tempfile.mkdtemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
    tmp = os.path.join(tmp_dir, os.path.basename(path))
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
        os.rmdir(tmp_dir)


def _write_text(path: str, text: str) -> None:
    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(text)

    _atomic_write(path, write)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Runner:
    """Shared manifest/output bookkeeping for one CLI invocation."""

    def __init__(self, command: str, config_path: str, config: dict, out_dir: str, seed):
        self.out_dir = out_dir
        self.outputs: list[str] = []
        self.started = time.monotonic()
        self.manifest = {
            "command": command,
            "config_path": os.path.abspath(config_path),
            "config": config,
            "master_seed": seed,
            "output_dir": os.path.abspath(out_dir),
            "tool_version": __version__,
        }

    def manifest_path(self) -> str:
        return os.path.join(self.out_dir, "manifest.json")

    def begin(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        _write_json(self.manifest_path(), self.manifest)

    def path(self, name: str) -> str:
        path = os.path.join(self.out_dir, name)
        self.outputs.append(path)
        return path

    def finish(self) -> None:
        self.manifest["wall_time_s"] = round(time.monotonic() - self.started, 6)
        self.manifest["outputs"] = {
            os.path.basename(p): _sha256(p) for p in self.outputs if os.path.exists(p)
        }
        _write_json(self.manifest_path(), self.manifest)


def _gnuplot_stub(runner: _Runner) -> None:
    csvs = [os.path.basename(p) for p in runner.outputs if p.endswith(".csv")]
    lines = [
        "# gnuplot stub: plots the first two columns of each CSV output",
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set grid",
    ]
    for name in csvs:
        lines.append(f'plot "{name}" using 1:2 with lines')
        lines.append("pause -1")
    _write_text(runner.path("plot.gp"), "\n".join(lines) + "\n")


def _oja_config(cfg: dict, spec, seed, default_init="uniform", default_sampler="bounded"):
    try:
        return OjaConfig(
            spec=spec,
            beta=_number(cfg, "beta"),
            n_steps=_integer(cfg, "n_steps"),
            init=_field(cfg, "init", default_init),
            seed=seed,
            sampler=_field(cfg, "sampler", default_sampler),
            record_stride=cfg.get("record_stride"),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(f"config for chain is invalid: {e}") from None


def cmd_run(cfg: dict, runner: _Runner, args) -> None:
    spec = _spectrum(cfg)
    chain_cfg = _oja_config(cfg, spec, runner.manifest["master_seed"])
    include_states = bool(_field(cfg, "include_states", True))
    runner.begin()
    traj = run_chain(chain_cfg)
    _atomic_write(runner.path("trajectory.csv"),
                  lambda tmp: traj.to_csv(tmp, include_states=include_states))
    _write_json(
        runner.path("summary.json"),
        {
            "n_records": int(len(traj.times)),
            "final_step": int(traj.times[-1]),
            "final_sin2": float(traj.sin2_angle[-1]),
        },
    )


def cmd_ode(cfg: dict, runner: _Runner, args) -> None:
    spec = _spectrum(cfg)
    v0_spec = _field(cfg, "v0")
    from .oja import resolve_init
    from .spectrum import chain_rng

    try:
        v0 = resolve_init(spec, v0_spec, chain_rng(runner.manifest["master_seed"], 0))
    except (ValueError, TypeError) as e:
        raise ConfigError(f"config field 'v0': {e}") from None
    grid = _t_grid(cfg)
    if np.any(grid < 0):
        raise ConfigError("config field 't_grid': times must be nonnegative")
    delta = cfg.get("delta")
    runner.begin()
    _atomic_write(runner.path("ode_curve.csv"), lambda tmp: export_curve(spec, v0, grid, tmp))
    summary = {"d": spec.d, "t_max": float(grid.max())}
    if delta is not None:
        summary["delta"] = float(delta)
        summary["crossing_time"] = ode_crossing_time(spec, v0, float(delta))
    _write_json(runner.path("summary.json"), summary)


def cmd_sde(cfg: dict, runner: _Runner, args) -> None:
    spec = _spectrum(cfg)
    k = _integer(cfg, "k", 1)
    try:
        ou = OuSpec(spec=spec, k=k)
    except ValueError as e:
        raise ConfigError(f"config field 'k': {e}") from None
    t_end = _number(cfg, "t_end")
    if not (0.0 <= t_end < np.inf):
        raise ConfigError(f"config field 't_end': must be finite and nonnegative, got {t_end}")
    dt = _number(cfg, "dt")
    try:
        _check_dt(spec, dt)
    except ValueError as e:
        raise ConfigError(f"config field 'dt': {e}") from None
    u0 = _field(cfg, "u0", 0.0)
    try:
        u0 = _as_u0(ou, u0)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config field 'u0': {e}") from None
    n_paths = _integer(cfg, "n_paths", 1000)
    grid = _t_grid(cfg, default=np.linspace(0.0, t_end, 11))
    seed = runner.manifest["master_seed"]
    runner.begin()
    path_obj = simulate_ou(ou, u0, t_end, dt, seed)
    _atomic_write(runner.path("ou_path.csv"), path_obj.to_csv)
    if n_paths >= 2:
        times, means, varis = ou_ensemble_moments(ou, u0, grid, dt, n_paths, seed)
        m = spec.d - 1
        cols = (
            ["t"]
            + [f"mean_u{i + 1}" for i in range(m)]
            + [f"var_u{i + 1}" for i in range(m)]
            + [f"closed_mean_u{i + 1}" for i in range(m)]
            + [f"closed_var_u{i + 1}" for i in range(m)]
        )
        rows = []
        for j, t in enumerate(times):
            mean_c, var_c = ou_mean_cov(ou, u0, float(t))
            rows.append(
                (float(t),)
                + tuple(float(x) for x in means[j])
                + tuple(float(x) for x in varis[j])
                + tuple(float(x) for x in mean_c)
                + tuple(float(x) for x in var_c)
            )
        table = Table(columns=tuple(cols), rows=rows)
        _atomic_write(runner.path("ou_moments.csv"), table.to_csv)


def cmd_phases(cfg: dict, runner: _Runner, args) -> None:
    spec = _spectrum(cfg)
    beta = _number(cfg, "beta")
    delta = _number(cfg, "delta")
    k = _integer(cfg, "k", 2)
    try:
        thresholds = PhaseThresholds(delta=delta)
        predicted = predict_crossings(spec, beta, delta, k)
    except ValueError as e:
        raise ConfigError(f"phase parameters are invalid: {e}") from None
    traj_csv = cfg.get("trajectory_csv")
    betas = cfg.get("betas_for_cutoff")
    if betas is not None:
        if not isinstance(betas, list):
            raise ConfigError(f"config field 'betas_for_cutoff': expected a list, got {betas!r}")
        betas = [_positive("betas_for_cutoff", b) for b in betas]
        try:
            cutoff_rows = [(b, *cutoff_ratios(spec, b, delta, k)) for b in betas]
        except ValueError as e:
            raise ConfigError(f"config field 'betas_for_cutoff': {e}") from None
    runner.begin()
    if traj_csv is not None:
        chain_cfg = _oja_config(cfg, spec, runner.manifest["master_seed"])
        traj = trajectory_from_csv(traj_csv, chain_cfg)
        report = crossing_report(traj, thresholds, k=k)
    else:
        report = CrossingReport(
            empirical=EmpiricalCrossings(n1=None, n2=None, n3=None),
            predicted=predicted,
            config=_config_echo(spec=spec, beta=beta, delta=delta, k=k),
        )
    _write_text(runner.path("crossing_report.json"), report.to_json() + "\n")
    _write_text(runner.path("crossing_report.txt"), report.to_text() + "\n")
    if betas is not None:
        table = Table(columns=("beta", "r21", "r31"), rows=cutoff_rows)
        _atomic_write(runner.path("cutoff.csv"), table.to_csv)


def cmd_mc(cfg: dict, runner: _Runner, args) -> None:
    experiment = _field(cfg, "experiment")
    spec = _spectrum(cfg)
    seed = runner.manifest["master_seed"]
    workers = args.workers
    n_chains = _integer(cfg, "n_chains", 200)

    if experiment == "finite_sample":
        t_list = _field(cfg, "t_list")
        try:
            t_list = _check_t_list(t_list)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"config field 't_list': {e}") from None
        sampler = _field(cfg, "sampler", "gaussian")
        try:
            get_sampler(sampler)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"config field 'sampler': {e}") from None
        runner.begin()
        try:
            result = finite_sample_experiment(
                spec, t_list, n_chains, seed, sampler=sampler, workers=workers
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None
    elif experiment in ("ode_convergence", "sde_covariance", "phase_portrait"):
        grid = None
        if experiment == "phase_portrait":
            n_steps = _integer(cfg, "n_steps")
        else:
            grid = _t_grid(cfg)
            if "n_steps" in cfg:
                n_steps = _integer(cfg, "n_steps")
            else:
                beta = _number(cfg, "beta")
                n_steps = int(np.floor(float(grid.max()) / beta + 1e-9)) if grid.size else 0
        defaults = {
            "ode_convergence": ("warm:0.5", "bounded"),
            "sde_covariance": (f"saddle:{_integer(cfg, 'k', 1)}", "gaussian"),
            "phase_portrait": ("saddle:2", "gaussian"),
        }
        default_init, default_sampler = defaults[experiment]
        local = dict(cfg)
        local["n_steps"] = n_steps
        base = _oja_config(local, spec, seed, default_init=default_init,
                           default_sampler=default_sampler)
        try:
            ens = EnsembleConfig(
                base=base, n_chains=n_chains,
                t_grid=tuple(grid) if grid is not None else (0.0,),
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if experiment == "phase_portrait":
            delta = _number(cfg, "delta")
            try:
                PhaseThresholds(delta=delta)
            except ValueError as e:
                raise ConfigError(f"config field 'delta': {e}") from None
            try:
                k = _saddle_index(base, cfg.get("k"))
            except (TypeError, ValueError, OverflowError) as e:
                raise ConfigError(f"config field 'k': {e}") from None
        try:
            if experiment == "ode_convergence":
                runner.begin()
                result = ode_convergence_experiment(ens, workers=workers)
            elif experiment == "sde_covariance":
                k = _integer(cfg, "k", 1)
                runner.begin()
                result = sde_covariance_experiment(ens, k, workers=workers)
            else:
                runner.begin()
                result = phase_portrait_experiment(ens, delta, k=k, workers=workers)
        except ValueError as e:
            raise ConfigError(str(e)) from None
    else:
        raise ConfigError(
            f"config field 'experiment': unknown experiment {experiment!r}; expected "
            f"one of ode_convergence, sde_covariance, finite_sample, phase_portrait"
        )

    for key, table in result.tables.items():
        _atomic_write(runner.path(f"{result.name}_{key}.csv"), table.to_csv)
    _write_json(
        runner.path("summary.json"),
        {"experiment": result.name, "summary": result.summary, "config": result.config_echo},
    )


def cmd_rates(cfg: dict, runner: _Runner, args) -> None:
    spec = _spectrum(cfg)
    t_samples = _number(cfg, "t_samples")
    b, sigma_star2 = (
        None if cfg.get(key) is None else _positive(key, cfg[key]) for key in ("b", "sigma_star2")
    )
    try:
        report = rate_report(spec, t_samples, b=b, sigma_star2=sigma_star2)
    except ValueError as e:
        raise ConfigError(f"rate parameters are invalid: {e}") from None
    runner.begin()
    _write_text(runner.path("rate_report.json"), report.to_json() + "\n")
    _write_text(runner.path("rate_table.txt"), report.to_text() + "\n")


_COMMANDS = {
    "run": (cmd_run, "simulate one chain and export its trajectory", """\
config keys:
  spec           eigenvalues, descending, strict top gap (required)
  beta           stepsize, > 0; <= 1/(3 trace) for the bounded sampler (required)
  n_steps        number of update steps, >= 0 (required)
  init           "uniform" | "saddle:k" | "near_saddle:k:eps" | "warm:delta" | vector (default "uniform")
  seed           master seed, integer in [0, 2^64) (default 0)
  sampler        "bounded" | "gaussian" (default "bounded")
  record_stride  record every k-th step (default n_steps/10000, at least 1)
  include_states write state columns, not just sin^2 (default true)
outputs: trajectory.csv, summary.json"""),
    "ode": (cmd_ode, "evaluate the closed-form flow on a grid", """\
config keys:
  spec    eigenvalues (required)
  v0      initial unit vector or init preset (required)
  t_grid  list of times or {"start","stop","num"} (required)
  delta   optional; adds the time to reach v_1^2 = 1 - delta to summary.json
outputs: ode_curve.csv, summary.json"""),
    "sde": (cmd_sde, "simulate the fluctuation SDE around a basis point", """\
config keys:
  spec     eigenvalues (required)
  k        anchor coordinate, 1-based (default 1)
  t_end    simulation horizon in diffusion time (required)
  dt       Euler step, <= 1e-2/lambda_1 (required)
  u0       initial rescaled state, scalar or (d-1)-vector (default 0)
  n_paths  ensemble size for the moment table; < 2 skips it (default 1000)
  t_grid   moment-table times (default 11 points spanning [0, t_end])
  seed     master seed (default 0)
outputs: ou_path.csv, ou_moments.csv"""),
    "phases": (cmd_phases, "predict (and optionally detect) phase crossings", """\
config keys:
  spec              eigenvalues (required)
  beta              stepsize (required)
  delta             phase threshold in (0, 1/2) (required)
  k                 saddle index, >= 2 (default 2)
  betas_for_cutoff  optional list of stepsizes; adds cutoff.csv with (beta, N2/N1, N3/N1)
  trajectory_csv    optional path to a 'run' trajectory (needs matching beta/n_steps
                    config keys here) to fill the empirical column
outputs: crossing_report.json, crossing_report.txt [, cutoff.csv]"""),
    "mc": (cmd_mc, "run a Monte Carlo validation experiment", """\
config keys (common):
  experiment  "ode_convergence" | "sde_covariance" | "finite_sample" | "phase_portrait" (required)
  spec        eigenvalues (required)
  n_chains    ensemble size (default 200)
  seed        master seed (default 0)
per experiment:
  ode_convergence: beta, t_grid (required); init (default "warm:0.5"), sampler
    (default "bounded"), n_steps (default from grid)
  sde_covariance: beta, t_grid (required); k (default 1); sampler must be
    "gaussian"; init must be e_k (default "saddle:k")
  finite_sample: t_list (required), sampler (default "gaussian")
  phase_portrait: beta, delta, n_steps (required); init (default "saddle:2"),
    sampler (default "gaussian"), k (default from init), record_stride
outputs: <experiment>_*.csv, summary.json"""),
    "rates": (cmd_rates, "evaluate stepsize rule and rate formulas", """\
config keys:
  spec         eigenvalues (required)
  t_samples    sample horizon T >= e (required)
  b            norm bound for reference rates (default trace)
  sigma_star2  minimax variance proxy (default lambda_1 lambda_2 / gap^2)
outputs: rate_report.json, rate_table.txt"""),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oja-diffusion",
        description="Diffusion-limit toolkit for Oja's streaming PCA iteration.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, epilog) in _COMMANDS.items():
        p = sub.add_parser(
            name, help=help_line, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument(
            "--out", default=None,
            help=f"output directory (default: ${ENV_OUT} if set, else ./out)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=1, help="worker threads for ensembles")
        p.add_argument(
            "--gnuplot-stub", action="store_true",
            help="also write plot.gp referencing the CSV outputs",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out if args.out is not None else os.environ.get(ENV_OUT, "out")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: config is not valid JSON: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        print(f"error: config field 'seed': must be an integer in [0, 2^64), got {seed!r}",
              file=sys.stderr)
        return 2

    runner = _Runner(args.command, args.config, cfg, out_dir, seed)
    handler = _COMMANDS[args.command][0]
    try:
        handler(cfg, runner, args)
        if args.gnuplot_stub:
            _gnuplot_stub(runner)
        runner.finish()
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure after config validation
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
