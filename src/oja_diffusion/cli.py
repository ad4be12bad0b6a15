"""Command-line front end.

Subcommands: run, ode, sde, phases, mc, rates.  Each takes a JSON config via
--config and writes results to --out (default from OJA_DIFFUSION_OUT, then
./out).  :func:`main` runs every invocation in the same steps:

1. parse argv.  This module imports only the standard library, so
   --version, --help and a usage error exit before numpy or any library
   module is loaded.
2. import and parse the config: the subcommand imports the library names
   it uses (``run``, ``ode`` and ``sde`` never load montecarlo or phases),
   reads every config field and builds every library object its run needs
   (spectrum, chain and ensemble configs, OU block, thresholds, grids, an
   input trajectory, the cutoff table); for ``mc`` that ends in the
   experiment's ``prepare_*``, which checks its inputs and returns its run.
   The library checks every field as written, in the object or call that
   takes it; a value it only sees at run time (t_end, grid times, n_paths)
   gets the same check here.  A bad field is a ConfigError, "config field
   '<key>': <name> must be <kind> in <interval>, got <value>" for a number;
   the exit code is 2 and nothing has been written, not even the output
   directory.
3. begin: manifest.json, naming the command, config, seed, tool version, the
   requested workers with the processes the run uses, and the time the
   first two steps took, is written atomically.
4. run: the simulation.  The run step returns its result files as
   {file name: content}, where content is a Table (written as CSV), a JSON
   object or a text string.  Once the whole run has finished, one writer
   writes them in that order, then the manifest again with their wall time,
   the time of each stage and their hashes.  Any exception here is a runtime
   error and exits 1; a run that fails leaves only manifest.json.

Every file goes through one temp-then-rename writer, so an interrupted or
failed write leaves neither a partial file nor a stray temp file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from functools import partial

from . import __version__

ENV_OUT = "OJA_DIFFUSION_OUT"
_EXPERIMENTS = ("ode_convergence", "sde_covariance", "finite_sample", "phase_portrait")


class ConfigError(ValueError):
    """Invalid configuration; the message names the failing field."""


_REQUIRED = object()


@contextlib.contextmanager
def _blame(key: str):
    """Re-raise ValueError/TypeError/OverflowError/OSError as ConfigError naming e.field or key."""
    try:
        yield
    except (ValueError, TypeError, OverflowError, OSError) as e:
        raise ConfigError(f"config field '{getattr(e, 'field', key)}': {e}") from None


def _field(cfg: dict, key: str, convert=lambda v: v, default=_REQUIRED):
    """``convert(cfg[key])``, or ``convert(default)`` when the key is absent.

    A missing required key, or any error of the conversion (a library
    constructor or check included), is a ConfigError naming ``key``.
    """
    if key not in cfg and default is _REQUIRED:
        raise ConfigError(f"config field '{key}' is required")
    with _blame(key):
        return convert(cfg.get(key, default))


# Converters for _field: each returns the parsed value or raises ValueError/TypeError.
def _typed(kind: type):
    def check(v):
        if not isinstance(v, kind):
            raise TypeError(f"expected a JSON {kind.__name__}, got {v!r}")
        return v

    return check


def _optional(convert):
    return lambda v: None if v is None else convert(v)


def _sampler(name) -> str:
    from .spectrum import get_sampler

    get_sampler(name)
    return name


def _grid(val):
    """A nonempty list of times or a {"start", "stop", "num"} object, as an array of times >= 0."""
    import numpy as np

    from .spectrum import _check_count, _check_real

    at = partial(_check_real, "t_grid", low=0.0)
    if isinstance(val, dict) and val.keys() >= {"start", "stop", "num"}:
        return np.linspace(at(val["start"]), at(val["stop"]), _check_count("num", val["num"]))
    if not isinstance(val, list):
        raise TypeError(f"expected a list of times or a start/stop/num object, got {val!r}")
    _check_count("number of t_grid times", len(val))
    return np.array([at(t) for t in val])


def _chain(cfg: dict, spec, seed: int, init="uniform", sampler="bounded", steps_for=None):
    """The chain's OjaConfig, checking each field as it is read; ``steps_for(beta)``, when
    given, is the default n_steps.  The sampler comes last, as its stepsize cap blames beta."""
    from dataclasses import replace

    from .oja import OjaConfig

    chain = _field(cfg, "beta", lambda v: OjaConfig(spec=spec, beta=v, n_steps=0, seed=seed,
                                                    sampler="gaussian"))
    default = _REQUIRED if steps_for is None or "n_steps" in cfg else steps_for(chain.beta)
    chain = _field(cfg, "n_steps", lambda v: replace(chain, n_steps=v), default)
    sampler = _field(cfg, "sampler", _sampler, sampler)
    chain = _field(cfg, "init", lambda v: replace(chain, init=v), init)
    chain = _field(cfg, "record_stride", lambda v: replace(chain, record_stride=v), None)
    with _blame("beta"):
        return replace(chain, sampler=sampler)


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


def _write(path: str, content) -> None:
    """Write one file atomically: a JSON object sorted and indented, a str as is, a Table as CSV."""
    if isinstance(content, dict):
        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    if not isinstance(content, str):
        return _atomic_write(path, content.to_csv)

    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(content)

    _atomic_write(path, write)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Runner:
    """The manifest of one CLI invocation, and the writing of its files.

    It is made when the parse step, which began at the monotonic time
    ``parse_started``, has returned.  The manifest's ``stages`` split the
    invocation's time: ``parse_s`` from ``main`` being called to here, the
    library import included; ``run_s`` for ``begin`` and the run step;
    ``write_s`` for the result files.  ``wall_time_s`` is ``run_s + write_s``.
    """

    def __init__(self, command: str, config_path: str, config: dict, out_dir: str, seed,
                 workers: int, processes: int, parse_started: float):
        self.out_dir = out_dir
        self.manifest_path = os.path.join(out_dir, "manifest.json")
        self.started = time.monotonic()
        self.manifest = {
            "command": command,
            "config_path": os.path.abspath(config_path),
            "config": config,
            "master_seed": seed,
            "output_dir": os.path.abspath(out_dir),
            "tool_version": __version__,
            "workers": {"requested": workers, "processes": processes},
            "stages": {"parse_s": round(self.started - parse_started, 6)},
        }

    def begin(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        _write(self.manifest_path, self.manifest)

    def finish(self, files: dict) -> None:
        """Write every result file in order, then the manifest with their hashes."""
        paths = {name: os.path.join(self.out_dir, name) for name in files}
        ran = time.monotonic()
        for name, content in files.items():
            _write(paths[name], content)
        written = time.monotonic()
        self.manifest["stages"].update(run_s=round(ran - self.started, 6),
                                       write_s=round(written - ran, 6))
        self.manifest["wall_time_s"] = round(written - self.started, 6)
        self.manifest["outputs"] = {name: _sha256(path) for name, path in paths.items()}
        _write(self.manifest_path, self.manifest)


def _gnuplot_stub(files: dict) -> str:
    lines = [
        "# gnuplot stub: plots the first two columns of each CSV output",
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set grid",
    ]
    for name in (n for n in files if n.endswith(".csv")):
        lines += [f'plot "{name}" using 1:2 with lines', "pause -1"]
    return "\n".join(lines) + "\n"


# Each cmd_* is a subcommand's parse step.  It imports the library names it uses, and
# returns the run step, a function of no arguments that returns the result files as
# {file name: content} in write order, and the number of processes the run will use
# for the requested workers.
def cmd_run(cfg: dict, seed: int, workers: int):
    from .oja import run_chain
    from .spectrum import make_spectrum

    chain = _chain(cfg, _field(cfg, "spec", make_spectrum), seed)
    include_states = _field(cfg, "include_states", _typed(bool), True)

    def run() -> dict:
        traj = run_chain(chain)
        return {
            "trajectory.csv": traj.table(include_states),
            "summary.json": {
                "n_records": int(len(traj.times)),
                "final_step": int(traj.times[-1]),
                "final_sin2": float(traj.sin2_angle[-1]),
            },
        }

    return run, 1


def cmd_ode(cfg: dict, seed: int, workers: int):
    from .ode import logistic_solution, ode_crossing_time
    from .oja import Table, resolve_init
    from .spectrum import chain_rng, make_spectrum

    spec = _field(cfg, "spec", make_spectrum)
    v0 = _field(cfg, "v0", lambda v: resolve_init(spec, v, chain_rng(seed, 0)))
    grid = _field(cfg, "t_grid", _grid)
    summary = {"d": spec.d, "t_max": float(grid.max())}
    delta = _field(cfg, "delta", default=None)
    if delta is not None:
        with _blame("delta"):
            summary.update(delta=delta, crossing_time=ode_crossing_time(spec, v0, delta))

    def run() -> dict:
        cols = ("t", *(f"v{i + 1}_sq" for i in range(spec.d)))
        curve = logistic_solution(spec, v0, grid) ** 2
        return {"ode_curve.csv": Table(columns=cols, data=(grid, *curve.T)),
                "summary.json": summary}

    return run, 1


def cmd_sde(cfg: dict, seed: int, workers: int):
    from .oja import Table
    from .sde import OuSpec, _as_u0, _step_count, ou_ensemble_moments, ou_mean_cov, simulate_ou
    from .spectrum import _check_count, _check_real, make_spectrum

    spec = _field(cfg, "spec", make_spectrum)
    ou = _field(cfg, "k", lambda v: OuSpec(spec=spec, k=v), 1)
    t_end = _field(cfg, "t_end")
    dt = _field(cfg, "dt", lambda v: _check_real("dt", v, 0.0, spec._max_dt, "(]"))
    with _blame("t_end"):
        _step_count(spec, "t_end", t_end, dt)
    u0 = _field(cfg, "u0", lambda v: _as_u0(ou, v), 0.0)
    n_paths = _field(cfg, "n_paths", lambda v: _check_count("n_paths", v, 0), 1000)
    grid = _field(cfg, "t_grid", _grid, {"start": 0.0, "stop": t_end, "num": 11})
    with _blame("t_grid"):
        _step_count(spec, "t_grid", grid, dt)

    def run() -> dict:
        path = simulate_ou(ou, u0, t_end, dt, seed)
        cols = ("t", *(f"u{i + 1}" for i in range(spec.d - 1)))
        files = {"ou_path.csv": Table(columns=cols, data=(path.times, *path.states.T))}
        if n_paths < 2:
            return files
        times, means, varis = ou_ensemble_moments(ou, u0, grid, dt, n_paths, seed)
        mean_c, var_c = ou_mean_cov(ou, u0, times[:, None])
        cols = ("t", *(f"{stat}_u{i + 1}" for stat in ("mean", "var", "closed_mean", "closed_var")
                       for i in range(spec.d - 1)))
        files["ou_moments.csv"] = Table(columns=cols, data=(times, *means.T, *varis.T,
                                                            *mean_c.T, *var_c.T))
        return files

    return run, 1


def cmd_phases(cfg: dict, seed: int, workers: int):
    import numpy as np

    from .oja import Table, _config_echo, trajectory_from_csv
    from .phases import (CrossingReport, EmpiricalCrossings, PhaseThresholds, crossing_report,
                         cutoff_ratios, predict_crossings)
    from .spectrum import _check_real, make_spectrum

    spec = _field(cfg, "spec", make_spectrum)
    # Checked on its own: predict_crossings would blame a bad beta on k.
    beta = _field(cfg, "beta", lambda v: _check_real("beta", v, 0.0, math.inf, "()"))
    thresholds = _field(cfg, "delta", lambda v: PhaseThresholds(delta=v))
    delta = thresholds.delta
    k = _field(cfg, "k", default=2)
    with _blame("k"):
        predicted = predict_crossings(spec, beta, delta, k)

    def cutoff_table(betas) -> Table:
        ratios = np.array([cutoff_ratios(spec, b, delta, k) for b in _typed(list)(betas)])
        return Table(columns=("beta", "r21", "r31"),
                     data=(np.array(betas, dtype=float), *ratios.reshape(-1, 2).T))

    cutoff = _field(cfg, "betas_for_cutoff", _optional(cutoff_table), None)
    traj = None
    traj_csv = _field(cfg, "trajectory_csv", _optional(_typed(str)), None)
    if traj_csv is not None:
        chain = _chain(cfg, spec, seed)
        with _blame("trajectory_csv"):
            traj = trajectory_from_csv(traj_csv, chain)

    def run() -> dict:
        if traj is not None:
            report = crossing_report(traj, thresholds, k=k)
        else:
            report = CrossingReport(
                empirical=EmpiricalCrossings(n1=None, n2=None, n3=None),
                predicted=predicted,
                config=_config_echo(spec=spec, beta=beta, delta=delta, k=int(k)),
            )
        files = {"crossing_report.json": report.to_json_dict(),
                 "crossing_report.txt": report.to_text() + "\n"}
        if cutoff is not None:
            files["cutoff.csv"] = cutoff
        return files

    return run, 1


def cmd_mc(cfg: dict, seed: int, workers: int):
    from .montecarlo import (EnsembleConfig, _worker_count, grid_to_steps, prepare_finite_sample,
                             prepare_ode_convergence, prepare_phase_portrait,
                             prepare_sde_covariance)
    from .oja import _MAX_STEPS
    from .sde import OuSpec
    from .spectrum import make_spectrum

    experiment = _field(cfg, "experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"config field 'experiment': unknown experiment {experiment!r}; "
                          f"expected one of {', '.join(_EXPERIMENTS)}")
    spec = _field(cfg, "spec", make_spectrum)
    n_chains = _field(cfg, "n_chains", default=200)
    if experiment == "finite_sample":
        prepare = partial(prepare_finite_sample, spec, _field(cfg, "t_list"), n_chains, seed,
                          _field(cfg, "sampler", default="gaussian"))
    elif experiment == "phase_portrait":
        base = _chain(cfg, spec, seed, init="saddle:2", sampler="gaussian")
        prepare = partial(prepare_phase_portrait, base, n_chains, _field(cfg, "delta"),
                          _field(cfg, "k", default=None))
    else:
        grid = _field(cfg, "t_grid", _grid)

        def steps_for(beta):  # the default n_steps: the step of the last grid time
            with _blame("t_grid"):
                return grid_to_steps(grid, beta, _MAX_STEPS).max()

        if experiment == "ode_convergence":
            base = _chain(cfg, spec, seed, "warm:0.5", "bounded", steps_for)
        else:
            k = _field(cfg, "k", lambda v: OuSpec(spec=spec, k=v).k, 1)
            base = _chain(cfg, spec, seed, f"saddle:{k}", "gaussian", steps_for)
        with _blame("t_grid"):  # the grid alone, with a valid n_chains
            EnsembleConfig(base, 1, tuple(grid))
        ens = _field(cfg, "n_chains", lambda v: EnsembleConfig(base, v, tuple(grid)), 200)
        prepare = (partial(prepare_ode_convergence, ens) if experiment == "ode_convergence"
                   else partial(prepare_sde_covariance, ens, k))
    with _blame("experiment"):  # each check the experiment has names its own field
        experiment_run = prepare()

    def run() -> dict:
        result = experiment_run(workers)
        files = {f"{result.name}_{key}.csv": table for key, table in result.tables.items()}
        files["summary.json"] = {"experiment": result.name, "summary": result.summary,
                                 "config": result.config_echo}
        return files

    return run, _worker_count(workers, int(n_chains))


def cmd_rates(cfg: dict, seed: int, workers: int):
    from .phases import rate_report
    from .spectrum import make_spectrum

    spec = _field(cfg, "spec", make_spectrum)
    given = {}
    for key, default in (("t_samples", _REQUIRED), ("b", None), ("sigma_star2", None)):
        given[key] = _field(cfg, key, default=default)
        with _blame(key):  # rate_report checks the fields given so far
            report = rate_report(spec, **given)

    return (lambda: {"rate_report.json": report.to_json_dict(),
                     "rate_table.txt": report.to_text() + "\n"}), 1


_COMMANDS = {
    "run": (cmd_run, "simulate one chain and export its trajectory", """\
config keys:
  spec           eigenvalues, descending, strict top gap (required)
  beta           stepsize, > 0; <= 1/(3 trace) for the bounded sampler (required)
  n_steps        number of update steps, in [0, 2^62] (required)
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
  n_paths  ensemble size for the moment table; 0 or 1 skips it (default 1000)
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
  n_chains    ensemble size (default 200; at least 2 except for phase_portrait)
  seed        master seed (default 0)
per experiment:
  ode_convergence: beta, t_grid (required); init (default "warm:0.5"), sampler
    (default "bounded"), n_steps (default: the step of the last grid time)
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


def _workers(text: str) -> int:
    """The --workers value, at least 1, else argparse exits 2; plain Python, run before numpy."""
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


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
        p.add_argument("--workers", type=_workers, default=1,
                       help="worker processes for ensembles, at least 1 (default 1)")
        p.add_argument(
            "--gnuplot-stub", action="store_true",
            help="also write plot.gp referencing the CSV outputs",
        )
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except ValueError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def main(argv=None) -> int:
    started = time.monotonic()
    args = _build_parser().parse_args(argv)
    out_dir = args.out if args.out is not None else os.environ.get(ENV_OUT, "out")
    parse = _COMMANDS[args.command][0]
    from .spectrum import MAX_SEED, _check_count

    try:
        cfg = _load_config(args.config)
        seed = _field(cfg if args.seed is None else {"seed": args.seed}, "seed",
                      lambda v: _check_count("seed", v, 0, MAX_SEED), 0)
        run, processes = parse(cfg, seed, args.workers)
        runner = _Runner(args.command, args.config, cfg, out_dir, seed, args.workers, processes,
                         started)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        runner.begin()
        files = run()
        if args.gnuplot_stub:
            files["plot.gp"] = _gnuplot_stub(files)
        runner.finish(files)
    except Exception as e:  # every fault after begin() is a runtime error
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
