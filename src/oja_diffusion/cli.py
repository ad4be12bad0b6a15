"""Command-line front end.

Subcommands: run, ode, sde, phases, mc, rates.  Each takes a JSON config via
--config and writes results to --out (default from OJA_DIFFUSION_OUT, then
./out).  :func:`main` runs every invocation in the same steps:

1. parse argv.  This module imports only the standard library, so
   --version, --help and a usage error exit before numpy or any library
   module is loaded.  Each subcommand's config keys, with their defaults and
   help, are declared once, in ``_KEYS`` (and ``_EXPERIMENTS`` for mc) and
   ``_HELP``; its --help lists them from there.
2. import and parse the config.  A key repeated in a JSON object, or one the
   subcommand (for mc, the experiment) does not declare, is refused before
   any other field is read.  The subcommand then imports the library names it
   uses (``run``, ``ode`` and ``sde`` never load montecarlo or phases) and
   builds every library object its run needs, each of which checks the
   fields it takes; for ``mc`` that ends in the experiment's ``prepare_*``.
   A bad field is a FieldError, "config field '<key>': <name> must be <kind>
   in <interval>, got <value>" for a number; the exit code is 2 and nothing
   has been written, not even the output directory.
3. begin: manifest.json, naming the command, config, seed, tool version, the
   requested workers with the processes the run uses, and the time the
   first two steps took, is written atomically.
4. run: the simulation.  The run step returns its result files as
   {file name: content}, where content is a Table (written as CSV), a JSON
   object or a text string.  Once the whole run has finished, one writer
   writes them in that order, then the manifest again with their wall time,
   the time of each stage and their hashes.  Any exception here is a runtime
   error and exits 1; a run that fails leaves only manifest.json.

From step 2 on, SIGTERM raises KeyboardInterrupt as SIGINT does: forked
ensemble workers are killed and reaped, and the exit code is 128 + the signal
number (130 or 143).
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

# The config keys of each subcommand and mc experiment with their defaults (_REQUIRED: none),
# and one help line per key, whose "; null: ..." clause shows only where the default is null.
_REQUIRED = object()
_SEED = {"seed": 0}
_CHAIN = {"beta": _REQUIRED, "n_steps": _REQUIRED, "init": "uniform", "sampler": "bounded",
          "record_stride": None}
_GAUSSIAN = {"sampler": "gaussian"}  # the stream the diffusion limits are calibrated to
_EXPERIMENTS = {
    "ode_convergence": {"t_grid": _REQUIRED, **_CHAIN, "n_steps": None, "init": "warm:0.5"},
    "sde_covariance": {"t_grid": _REQUIRED, "k": 1, **_CHAIN, "n_steps": None, "init": None,
                       **_GAUSSIAN},
    "finite_sample": {"t_list": _REQUIRED, **_GAUSSIAN},
    "phase_portrait": {**_CHAIN, "init": "saddle:2", **_GAUSSIAN, "delta": _REQUIRED, "k": None},
}
_KEYS = {
    "run": {"spec": _REQUIRED, **_CHAIN, "include_states": True, **_SEED},
    "ode": {"spec": _REQUIRED, "v0": _REQUIRED, "t_grid": _REQUIRED, "delta": None, **_SEED},
    "sde": {"spec": _REQUIRED, "k": 1, "t_end": _REQUIRED, "dt": _REQUIRED, "u0": 0.0,
            "n_paths": 1000, "t_grid": None, **_SEED},
    "phases": {"spec": _REQUIRED, "delta": _REQUIRED, "k": 2, "betas_for_cutoff": None,
               "trajectory_csv": None, **_CHAIN, **_SEED},
    "rates": {"spec": _REQUIRED, "t_samples": _REQUIRED, "b": None, "sigma_star2": None, **_SEED},
    "mc": {"experiment": _REQUIRED, "spec": _REQUIRED, "n_chains": 200, **_SEED},
}
_HELP = {
    "experiment": ", ".join(_EXPERIMENTS),
    "spec": "eigenvalues: positive, descending, with a strict top gap",
    "beta": "stepsize, > 0; at most 1/(3 trace) for the bounded sampler",
    "n_steps": "update steps, in [0, 2^62]; null: the step of the last t_grid time",
    "init": '"uniform", "saddle:k", "near_saddle:k:eps", "warm:delta" or a vector; null: e_k',
    "sampler": '"bounded" or "gaussian"',
    "record_stride": "record every k-th step; null: n_steps // 10000, at least 1",
    "include_states": "write the states, not only sin^2",
    "v0": "initial vector, or an init as in run",
    "t_grid": 'times >= 0: a list, or {"start": a, "stop": b, "num": n}; null: 11 from 0 to t_end',
    "delta": "phase threshold, in (0, 1/2); null: no time to reach v_1^2 = 1 - delta",
    "k": "1-based axis: the OU anchor e_k, or the saddle (>= 2); null: the init's saddle",
    "t_end": "horizon of the single path, in diffusion time",
    "dt": "Euler step, in (0, 1e-2/lambda_1]",
    "u0": "initial rescaled state, a number or a (d-1)-vector",
    "n_paths": "paths of the moment table; 0 or 1 skips it",
    "betas_for_cutoff": "stepsizes; adds cutoff.csv of (beta, N2/N1, N3/N1)",
    "trajectory_csv": "a run's trajectory.csv, read with its chain keys, for the empirical column",
    "t_samples": "sample horizon T, >= e",
    "b": "norm bound of the reference rates; null: the trace",
    "sigma_star2": "minimax variance proxy; null: lambda_1 lambda_2 / gap^2",
    "n_chains": "ensemble size, at least 2 except for phase_portrait",
    "t_list": "horizons T, integers >= 100, each run at beta(T)",
    "seed": "master seed, an integer in [0, 2^64); --seed overrides it",
}


def _declared(cfg: dict, command: str) -> dict:
    """``cfg`` with the default of each declared key it lacks (for mc, its experiment's
    keys too); FieldError on an undeclared key."""
    from .spectrum import FieldError

    experiment = _field(cfg, "experiment", _experiment) if command == "mc" else ""
    keys = {**_KEYS[command], **_EXPERIMENTS.get(experiment, {})}
    for key in cfg:
        if key not in keys:
            raise FieldError(key, f"unknown key for {command} {experiment}".rstrip()
                             + f"; expected one of {', '.join(keys)}")
    return {**{key: default for key, default in keys.items() if default is not _REQUIRED}, **cfg}


def _field(cfg: dict, key: str, convert=lambda v: v):
    """``convert(cfg[key])``; a missing key, or any error of the conversion (a library
    constructor or check included), is a FieldError naming ``key``."""
    from .spectrum import _blame

    with _blame(key):
        if key not in cfg:
            raise ValueError("required key is missing")
        return convert(cfg[key])


# Converters for _field: each returns the parsed value or raises ValueError/TypeError.
def _typed(kind: type):
    def check(v):
        if not isinstance(v, kind):
            raise TypeError(f"expected a JSON {kind.__name__}, got {v!r}")
        return v

    return check


def _optional(convert):
    return lambda v: None if v is None else convert(v)


def _experiment(name) -> str:
    if not (isinstance(name, str) and name in _EXPERIMENTS):
        raise ValueError(f"unknown experiment {name!r}; expected one of {', '.join(_EXPERIMENTS)}")
    return name


def _grid(val):
    """A nonempty list of times >= 0, or an object of exactly start, stop and num, as an array."""
    import numpy as np

    from .spectrum import _check_count, _check_real

    at = partial(_check_real, "t_grid", low=0.0)
    if isinstance(val, dict) and val.keys() == {"start", "stop", "num"}:
        return np.linspace(at(val["start"]), at(val["stop"]), _check_count("num", val["num"]))
    if not isinstance(val, list):
        raise TypeError(f"expected a list of times or a start/stop/num object, got {val!r}")
    _check_count("number of t_grid times", len(val))
    return np.array([at(t) for t in val])


def _chain(cfg: dict, spec, seed: int, steps_for=None):
    """The chain's OjaConfig, checking each field as it is read; ``steps_for(beta)``, when
    given, replaces a null n_steps.  The sampler comes last, as its stepsize cap blames beta."""
    from dataclasses import replace

    from .oja import OjaConfig
    from .spectrum import _blame, get_sampler

    chain = _field(cfg, "beta", lambda v: OjaConfig(spec=spec, beta=v, n_steps=0, seed=seed,
                                                    sampler="gaussian"))
    chain = _field(cfg, "n_steps", lambda v: replace(
        chain, n_steps=steps_for(chain.beta) if v is None and steps_for else v))
    sampler = _field(cfg, "sampler", lambda v: get_sampler(v) and v)
    chain = _field(cfg, "init", lambda v: replace(chain, init=v))
    chain = _field(cfg, "record_stride", lambda v: replace(chain, record_stride=v))
    with _blame("beta"):
        return replace(chain, sampler=sampler)


def _write(path: str, content) -> None:
    """Write one file atomically: a JSON object sorted and indented, a str as is, a Table as CSV.

    Every file the CLI writes is made here, with the mode ``open`` gives, in a private sibling
    directory, and then renamed.  That directory is always removed, with the temp file in it
    when the write or the rename fails, so a failed write leaves no partial or stray file.
    """
    if isinstance(content, dict):
        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    tmp_dir = tempfile.mkdtemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
    tmp = os.path.join(tmp_dir, os.path.basename(path))
    try:
        if isinstance(content, str):
            with open(tmp, "w") as fh:
                fh.write(content)
        else:
            content.to_csv(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
        os.rmdir(tmp_dir)


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

    cfg = _declared(cfg, "run")
    chain = _chain(cfg, _field(cfg, "spec", make_spectrum), seed)
    include_states = _field(cfg, "include_states", _typed(bool))

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

    cfg = _declared(cfg, "ode")
    spec = _field(cfg, "spec", make_spectrum)
    v0 = _field(cfg, "v0", lambda v: resolve_init(spec, v, chain_rng(seed, 0)))
    grid = _field(cfg, "t_grid", _grid)
    summary = {"d": spec.d, "t_max": float(grid.max())}
    _field(cfg, "delta", _optional(lambda v: summary.update(
        delta=v, crossing_time=ode_crossing_time(spec, v0, v))))

    def run() -> dict:
        cols = ("t", *(f"v{i + 1}_sq" for i in range(spec.d)))
        curve = logistic_solution(spec, v0, grid) ** 2
        return {"ode_curve.csv": Table(columns=cols, data=(grid, *curve.T)),
                "summary.json": summary}

    return run, 1


def cmd_sde(cfg: dict, seed: int, workers: int):
    from .oja import Table
    from .sde import OuSpec, _as_u0, _step_count, ou_ensemble_moments, ou_mean_cov, simulate_ou
    from .spectrum import _blame, _check_count, _check_real, make_spectrum

    cfg = _declared(cfg, "sde")
    spec = _field(cfg, "spec", make_spectrum)
    ou = _field(cfg, "k", lambda v: OuSpec(spec=spec, k=v))
    t_end = _field(cfg, "t_end")
    dt = _field(cfg, "dt", lambda v: _check_real("dt", v, 0.0, spec._max_dt, "(]"))
    with _blame("t_end"):
        _step_count(spec, "t_end", t_end, dt)
    u0 = _field(cfg, "u0", lambda v: _as_u0(ou, v))
    n_paths = _field(cfg, "n_paths", lambda v: _check_count("n_paths", v, 0))
    grid = _field(cfg, "t_grid", lambda v: _grid(
        {"start": 0.0, "stop": t_end, "num": 11} if v is None else v))
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
    from .spectrum import _blame, _check_real, make_spectrum

    cfg = _declared(cfg, "phases")
    spec = _field(cfg, "spec", make_spectrum)
    # Checked on its own: predict_crossings would blame a bad beta on k.
    beta = _field(cfg, "beta", lambda v: _check_real("beta", v, 0.0, math.inf, "()"))
    thresholds = _field(cfg, "delta", lambda v: PhaseThresholds(delta=v))
    delta = thresholds.delta
    k = _field(cfg, "k")
    with _blame("k"):
        predicted = predict_crossings(spec, beta, delta, k)

    def cutoff_table(betas) -> Table:
        ratios = np.array([cutoff_ratios(spec, b, delta, k) for b in _typed(list)(betas)])
        return Table(columns=("beta", "r21", "r31"),
                     data=(np.array(betas, dtype=float), *ratios.reshape(-1, 2).T))

    cutoff = _field(cfg, "betas_for_cutoff", _optional(cutoff_table))
    # The chain's keys are read only with a trajectory, and blame themselves.
    traj = _field(cfg, "trajectory_csv", _optional(
        lambda v: trajectory_from_csv(_typed(str)(v), _chain(cfg, spec, seed))))

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
    from .spectrum import _blame, make_spectrum

    cfg = _declared(cfg, "mc")
    experiment = cfg["experiment"]
    spec = _field(cfg, "spec", make_spectrum)
    n_chains = _field(cfg, "n_chains")
    if experiment == "finite_sample":
        last_steps = _field(cfg, "t_list")  # one ensemble per horizon, each to step t
        prepare = partial(prepare_finite_sample, spec, last_steps, n_chains, seed,
                          _field(cfg, "sampler"))
    elif experiment == "phase_portrait":
        base = _chain(cfg, spec, seed)
        last_steps = [base.n_steps]
        prepare = partial(prepare_phase_portrait, base, n_chains, _field(cfg, "delta"),
                          _field(cfg, "k"))
    else:
        grid = _field(cfg, "t_grid", _grid)

        def steps_for(beta):  # a null n_steps: the step of the last grid time
            with _blame("t_grid"):
                return grid_to_steps(grid, beta, _MAX_STEPS).max()

        if experiment == "sde_covariance":
            k = _field(cfg, "k", lambda v: OuSpec(spec=spec, k=v).k)
            cfg["init"] = f"saddle:{k}" if cfg["init"] is None else cfg["init"]
        base = _chain(cfg, spec, seed, steps_for)
        with _blame("t_grid"):  # the grid alone, with a valid n_chains
            EnsembleConfig(base, 1, tuple(grid))
        ens = _field(cfg, "n_chains", lambda v: EnsembleConfig(base, v, tuple(grid)))
        last_steps = [ens._steps.max()]
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

    return run, max(_worker_count(workers, int(n_chains), int(last)) for last in last_steps)


def cmd_rates(cfg: dict, seed: int, workers: int):
    from .phases import rate_report
    from .spectrum import _blame, make_spectrum

    cfg = _declared(cfg, "rates")
    spec = _field(cfg, "spec", make_spectrum)
    given = {}
    for key in ("t_samples", "b", "sigma_star2"):
        given[key] = _field(cfg, key)
        with _blame(key):  # rate_report checks the fields given so far
            report = rate_report(spec, **given)

    return (lambda: {"rate_report.json": report.to_json_dict(),
                     "rate_table.txt": report.to_text() + "\n"}), 1


_COMMANDS = {
    "run": (cmd_run, "simulate one chain, export its trajectory", "trajectory.csv, summary.json"),
    "ode": (cmd_ode, "evaluate the closed-form flow on a grid", "ode_curve.csv, summary.json"),
    "sde": (cmd_sde, "simulate the fluctuation SDE around e_k", "ou_path.csv, ou_moments.csv"),
    "phases": (cmd_phases, "predict (and detect) phase crossings",
               "crossing_report.json, crossing_report.txt [, cutoff.csv]"),
    "mc": (cmd_mc, "run a Monte Carlo validation experiment", "<experiment>_*.csv, summary.json"),
    "rates": (cmd_rates, "evaluate the rate formulas", "rate_report.json, rate_table.txt"),
}


def _epilog(command: str, outputs: str) -> str:
    """A subcommand's --help epilog: each declared config key with its help and default."""
    sections = {"config keys": _KEYS[command]}
    if command == "mc":
        sections.update((f"{name} adds", keys) for name, keys in _EXPERIMENTS.items())
    lines = []
    for title, keys in sections.items():
        lines.append(f"{title}:")
        for key, default in keys.items():
            text = _HELP[key] if default is None else _HELP[key].split("; null: ")[0]
            shown = "required" if default is _REQUIRED else f"default {json.dumps(default)}"
            lines.append(f"  {key:<16} {text} ({shown})")
    return "\n".join([*lines, f"outputs: {outputs}"])


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
    for name, (_, help_line, outputs) in _COMMANDS.items():
        p = sub.add_parser(
            name, help=help_line, epilog=_epilog(name, outputs),
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
    """The config's JSON object; FieldError if it cannot be read as one, or repeats a key."""
    from .spectrum import FieldError

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            raise FieldError(next(k for k in obj if keys.count(k) > 1), "repeated key")
        return obj

    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=unique)
    except (OSError, UnicodeError, json.JSONDecodeError) as e:
        raise FieldError(None, f"cannot be read as JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise FieldError(None, "must be a JSON object")
    return cfg


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    started = time.monotonic()
    args = _build_parser().parse_args(argv)
    import signal  # after the parse, so --version and --help never load it

    # SIGTERM (kill, timeout(1), a scheduler) takes Ctrl-C's path: forked workers
    # are killed and reaped, and the run exits 128 + the signal number.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        return _main(args, started)
    except KeyboardInterrupt as e:
        signum = e.args[0] if e.args else signal.SIGINT
        print(f"interrupted: {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    finally:
        signal.signal(signal.SIGTERM, previous)


def _main(args, started: float) -> int:
    out_dir = args.out if args.out is not None else os.environ.get(ENV_OUT, "out")
    from .spectrum import MAX_SEED, FieldError, _check_count

    try:
        cfg = _load_config(args.config)
        # An undeclared key is named before any value, the seed included, is read.
        declared = _declared(cfg, args.command)
        seed = args.seed if args.seed is not None else declared["seed"]
        seed = _field({"seed": seed}, "seed", lambda v: _check_count("seed", v, 0, MAX_SEED))
        run, processes = _COMMANDS[args.command][0](cfg, seed, args.workers)
        runner = _Runner(args.command, args.config, cfg, out_dir, seed, args.workers, processes,
                         started)
    except FieldError as e:
        where = "config" if e.field is None else f"config field '{e.field}'"
        print(f"error: {where}: {e}", file=sys.stderr)
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
