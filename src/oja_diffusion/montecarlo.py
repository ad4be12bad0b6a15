"""Ensemble simulation and the validation experiments.

The engine splits the chains into one chunk per worker and runs each chunk
through the lockstep kernel of :mod:`oja_diffusion.oja`, the same kernel that
:func:`oja.run_chain` runs on chain 0 alone.  From 5e5 chain-steps on, with more
than one worker, each chunk runs in a child forked from the caller, which writes
its states into one shared buffer.  Chain i draws ``chain_rng(master_seed, i)``'s
stream (keyed with its chunk's in one pass) ``SAMPLE_BLOCK`` draws per call, so results
are bit-identical for a given config no matter how chains are chunked, and chain
0 reproduces :func:`oja.run_chain` with the same master seed.

Experiments map diffusion-limit predictions onto ensemble statistics:

* ``ode_convergence``: mean overlap vs the closed-form flow on a
  diffusion-time grid; the sup discrepancy shrinks with beta.
* ``sde_covariance``: rescaled off-axis moments around e_k vs the
  closed-form OU mean/variance (Gaussian stream only).
* ``finite_sample``: terminal sin^2 at the horizon-tuned stepsize
  vs the predicted rate level, over several horizons.
* ``phase_portrait``: three-phase crossings of every chain, plus median sin^2
  curves from a saddle start, reduced a chunk of records at a time.

``prepare_<name>`` checks the experiment's inputs once, raising
:class:`FieldError` naming a bad one, and returns ``run(workers=1)``, which
returns named tables plus a summary dict; ``<name>_experiment`` is
``prepare_<name>(...)(workers)``.  The CLI writes each table as a CSV.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ode import logistic_solution
from .oja import (
    OjaConfig,
    Table,
    _MAX_STEPS,
    _config_echo,
    _run_lockstep,
    _sin2,
    record_steps as _record_steps,
)
from .phases import (
    PhaseThresholds,
    _CrossingScan,
    _saddle_index,
    _trailing_window,
    crossing_report,  # unused here; the benchmark tracer patches it on this module
    predict_crossings,
    rate_bound_sin2,
    stepsize_rule,
)
from .sde import OuSpec, ou_mean_cov, stationary_sin2
from .spectrum import (
    EigenSpectrum,
    FieldError,
    GAUSSIAN_SAMPLER_NOTE,
    _blame,
    _check_count,
    _check_real,
    _out_of_range,
    _real_array,
    chain_rng,  # unused here; the benchmark tracer patches it on this module
    derive_seed,
    get_sampler,
)

__all__ = [
    "EnsembleConfig",
    "EnsembleSummary",
    "ExperimentResult",
    "run_ensemble_states",
    "ensemble_summary",
    "prepare_ode_convergence",
    "prepare_sde_covariance",
    "prepare_finite_sample",
    "prepare_phase_portrait",
    "ode_convergence_experiment",
    "sde_covariance_experiment",
    "finite_sample_experiment",
    "phase_portrait_experiment",
]


def grid_to_steps(t_grid, beta: float, n_steps: int) -> np.ndarray:
    """Map diffusion times to step indices floor(t / beta).

    A relative nudge counters float junk in t / beta (e.g. 0.5 / 1e-3 landing
    at 499.9999...), so grid points that are exact multiples of beta hit their
    step exactly.  ValueError unless every step is at most n_steps, an integer
    in [0, 2**62] as in :class:`OjaConfig`.
    """
    t_grid = _real_array("t_grid", t_grid, 0.0)
    n_steps = _check_count("n_steps", n_steps, 0, _MAX_STEPS)
    ratio = t_grid / beta
    # Compared as floats: a step past the integer range would not survive the cast.
    steps = np.floor(ratio + 1e-9 * np.maximum(1.0, np.abs(ratio)))
    if np.any(steps > n_steps):
        bad = float(t_grid[np.argmax(steps)])
        raise ValueError(
            f"grid time {bad} maps to step {steps.max():.15g} beyond n_steps={n_steps}"
        )
    return steps.astype(int)


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """A chain config fanned out to n_chains, observed on a diffusion-time grid.

    ``base.seed`` acts as the master seed; chain i uses stream
    ``chain_rng(seed, i)``.  Every grid time must satisfy
    floor(t / beta) <= n_steps; those steps are worked out once, here.
    """

    base: OjaConfig
    n_chains: int
    t_grid: tuple

    def __post_init__(self):
        object.__setattr__(self, "n_chains", _check_count("n_chains", self.n_chains))
        grid = tuple(_check_real("t_grid", t, 0.0) for t in self.t_grid)
        _check_count("number of t_grid times", len(grid))
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be nondecreasing")
        steps = grid_to_steps(grid, self.base.beta, self.base.n_steps)
        steps.setflags(write=False)
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "_steps", steps)


_CHUNK = 1024  # records the phase portrait reduces at a time
_FORK_MIN_CHAIN_STEPS = 500_000  # fewer run in one process: a fork costs about 7 ms


def _worker_count(workers: int, n_chains: int, last_step: int) -> int:
    """Processes an ensemble of n_chains to ``last_step`` runs in: the request, capped by the
    CPUs and at two chains each; 1 without fork or below _FORK_MIN_CHAIN_STEPS chain-steps."""
    if not hasattr(os, "fork") or n_chains * last_step < _FORK_MIN_CHAIN_STEPS:
        return 1
    return max(1, min(workers, os.cpu_count() or 1, n_chains // 2))


def run_ensemble_states(
    base: OjaConfig, n_chains: int, rec_steps: np.ndarray, workers: int = 1
) -> np.ndarray:
    """States of every chain at the requested steps: shape (n_rec, n_chains, d).

    ``rec_steps`` must be a nonempty 1-D integer array, strictly increasing
    within [0, n_steps].  The worker count only chunks the chain axis, so it
    never affects values: with more than one worker (:func:`_worker_count`)
    each chunk runs in a forked process.  Without ``fork`` the chains run serially.
    """
    n_chains = _check_count("n_chains", n_chains)
    workers = _check_count("workers", workers)
    try:
        steps = np.asarray(rec_steps)
    except ValueError:  # a ragged nesting
        steps = np.asarray(rec_steps, dtype=object)
    # Compared, not differenced: a difference of unsigned steps wraps.
    if not (steps.ndim == 1 and steps.size and np.issubdtype(steps.dtype, np.integer)
            and np.all(steps[1:] > steps[:-1]) and steps[0] >= 0 and steps[-1] <= base.n_steps):
        raise _out_of_range("record steps", "a nonempty, strictly increasing 1-D integer array",
                            steps, 0, base.n_steps, "[]")
    rec_steps = steps.astype(int)
    workers = _worker_count(workers, n_chains, int(rec_steps[-1]))
    if workers > 1:
        return _run_forked(base, n_chains, rec_steps, workers)
    return _run_lockstep(base, range(n_chains), rec_steps)


def _run_forked(base: OjaConfig, n_chains: int, rec_steps: np.ndarray, workers: int):
    """One chunk of chains per forked child, each written into one shared buffer.

    The children inherit the buffer, an anonymous shared mapping, so nothing is
    pickled.  The parent only waits for them.  If one fails (raises or is killed),
    the parent reruns all chains serially: the kernel is deterministic, so that
    raises the serial run's exception or returns its states.  If the parent's wait
    is left by an exception, an interrupt say, it kills and reaps every child
    still running and re-raises."""
    import mmap
    import numpy.random  # loaded once here, not once in each child

    shape = (len(rec_steps), n_chains, base.spec.d)
    states = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)
    bounds = np.linspace(0, n_chains, workers + 1).astype(int)
    pids, statuses = [], []
    try:
        for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            pid = os.fork()
            if pid == 0:  # the child: it never returns into the caller
                try:
                    # A forked child starts on its parent's CPU, and Linux can leave
                    # two children sharing one CPU for a whole chunk while another
                    # idles.  Moving chunk i once to the i-th allowed CPU, then
                    # allowing all again, spreads them; it is only a hint, so a
                    # refusal is ignored.
                    if hasattr(os, "sched_setaffinity"):
                        cpus = sorted(os.sched_getaffinity(0))
                        with contextlib.suppress(OSError):
                            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
                            os.sched_setaffinity(0, cpus)
                    _run_lockstep(base, range(lo, hi), rec_steps, out=states[:, lo:hi])
                    os._exit(0)
                finally:  # reached only when the chunk raised
                    os._exit(1)
            pids.append(pid)
        for pid in pids:
            statuses.append(os.waitpid(pid, 0)[1])
    except BaseException:  # an interrupt, say: no child may outlive the call
        import signal
        for pid in pids[len(statuses):]:
            os.kill(pid, signal.SIGKILL)
        for pid in pids[len(statuses):]:
            os.waitpid(pid, 0)
        raise
    if any(statuses):
        return _run_lockstep(base, range(n_chains), rec_steps, out=states)
    return states


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Cross-chain moments on the grid (se_* are standard errors of means)."""

    times: np.ndarray
    steps: np.ndarray
    n_chains: int
    mean_v: np.ndarray  # (n_t, d)
    var_v: np.ndarray  # (n_t, d), ddof=1
    mean_v1sq: np.ndarray  # (n_t,)
    se_v1sq: np.ndarray
    mean_sin2: np.ndarray
    se_sin2: np.ndarray

    def table(self) -> "Table":
        d = self.mean_v.shape[1]
        cols = ("t", "step", "mean_v1sq", "se_v1sq", "mean_sin2", "se_sin2",
                *(f"mean_v{i + 1}" for i in range(d)), *(f"var_v{i + 1}" for i in range(d)))
        return Table(columns=cols, data=(self.times, self.steps, self.mean_v1sq, self.se_v1sq,
                                         self.mean_sin2, self.se_sin2, *self.mean_v.T,
                                         *self.var_v.T))


def _grid_states(cfg: EnsembleConfig, workers: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid's steps and the states there, (n_t, n_chains, d); repeated steps run once."""
    steps_for_grid = cfg._steps
    rec_steps = np.unique(steps_for_grid)
    states = run_ensemble_states(cfg.base, cfg.n_chains, rec_steps, workers=workers)
    return steps_for_grid, states[np.searchsorted(rec_steps, steps_for_grid)]


def ensemble_summary(cfg: EnsembleConfig, workers: int = 1) -> EnsembleSummary:
    """Run the ensemble and reduce to grid moments (deterministic in config)."""
    steps_for_grid, states = _grid_states(cfg, workers)
    n = cfg.n_chains
    v1sq = states[:, :, 0] ** 2
    sin2 = _sin2(states)
    se = lambda x: x.std(axis=1, ddof=1) / np.sqrt(n)
    return EnsembleSummary(
        times=np.asarray(cfg.t_grid),
        steps=steps_for_grid,
        n_chains=n,
        mean_v=states.mean(axis=1),
        var_v=states.var(axis=1, ddof=1),
        mean_v1sq=v1sq.mean(axis=1),
        se_v1sq=se(v1sq),
        mean_sin2=sin2.mean(axis=1),
        se_sin2=se(sin2),
    )


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Named tables plus a JSON-ready summary and config echo."""

    name: str
    tables: dict
    summary: dict
    config_echo: dict


def _deterministic_init_vector(base: OjaConfig) -> np.ndarray:
    """The init's unit vector when it does not depend on the chain stream; FieldError otherwise."""
    if base._init.start is None:
        raise FieldError("init", f"experiment needs a deterministic init shared by all "
                         f"chains, got random preset {base.init!r}")
    return base._init.start


def _two_chains(n_chains: int) -> int:
    """n_chains as an int; FieldError below two chains, as a variance over one (ddof=1) is NaN."""
    with _blame("n_chains"):
        return _check_count("n_chains", n_chains, 2)


# Each prepare_* checks every input of its experiment, raising FieldError, and returns
# run(workers=1) -> ExperimentResult, which only simulates and reduces.
def prepare_ode_convergence(cfg: EnsembleConfig):
    """Mean overlap of the ensemble vs the closed-form flow on the grid.

    Requires a deterministic init with nonzero overlap (off the equator);
    the summary's ``sup_abs_diff`` is the weak-convergence discrepancy that
    shrinks as beta does.
    """
    _two_chains(cfg.n_chains)
    v0 = _deterministic_init_vector(cfg.base)
    if v0[0] == 0.0:
        raise FieldError("init", "init lies on the equator (v_1 = 0); the flow never leaves it")

    def run(workers: int = 1) -> ExperimentResult:
        summ = ensemble_summary(cfg, workers=workers)
        ode_v1sq = logistic_solution(cfg.base.spec, v0, cfg.t_grid)[:, 0] ** 2
        abs_diff = np.abs(summ.mean_v1sq - ode_v1sq)
        table = Table(
            columns=("t", "step", "mean_v1sq", "ode_v1sq", "abs_diff", "se_v1sq"),
            data=(summ.times, summ.steps, summ.mean_v1sq, ode_v1sq, abs_diff, summ.se_v1sq),
        )
        summary = {"sup_abs_diff": float(abs_diff.max()), "beta": cfg.base.beta,
                   "n_chains": cfg.n_chains, "sampler": cfg.base.sampler}
        echo = _config_echo(cfg.base, n_chains=int(cfg.n_chains), t_grid=list(cfg.t_grid))
        return ExperimentResult("ode_convergence", {"table": table}, summary, echo)

    return run


def prepare_sde_covariance(cfg: EnsembleConfig, k: int):
    """Rescaled off-axis moments around e_k vs the closed-form OU values.

    Requires the Gaussian stream (the bounded stream's fourth moments differ
    from the diffusion coefficient, so its local fluctuations are not the OU
    limit) and the exact init e_k.  Cells whose predicted variance sits below
    beta are reported but excluded from the deviation summary (noise floor).
    """
    base = cfg.base
    if base.sampler != "gaussian":
        raise FieldError("sampler", f"sde_covariance_experiment requires sampler='gaussian': "
                         f"the '{base.sampler}' stream has E[Y_k^2 Y_i^2] != lambda_k lambda_i, "
                         f"so its local fluctuations follow a different diffusion")
    _two_chains(cfg.n_chains)
    with _blame("k"):
        ou = OuSpec(spec=base.spec, k=k)
    if not np.array_equal(_deterministic_init_vector(base), np.eye(base.spec.d)[int(k) - 1]):
        raise FieldError("init", f"init must be exactly e_{k} (preset 'saddle:{k}')")

    def run(workers: int = 1) -> ExperimentResult:
        states = _grid_states(cfg, workers)[1]
        other = [i for i in range(base.spec.d) if i != k - 1]
        times = np.asarray(cfg.t_grid)
        # One row per (t, coord): the (n_t, d-1) arrays below, read in C order.  A cell
        # whose predicted variance is below beta has an empty rel_dev_var.
        u = states[:, :, other] / np.sqrt(base.beta)
        emp_mean, emp_var = u.mean(axis=1), u.var(axis=1, ddof=1)
        mean_c, var_c = ou_mean_cov(ou, 0.0, times[:, None])
        included = var_c >= base.beta
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(emp_var - var_c) / var_c
        table = Table(
            columns=("t", "coord", "emp_mean", "emp_var", "closed_mean", "closed_var",
                     "rel_dev_var", "included"),
            data=(np.repeat(times, len(other)), np.tile(np.add(other, 1), len(times)),
                  emp_mean.ravel(), emp_var.ravel(), mean_c.ravel(), var_c.ravel(),
                  np.where(included, rel, None).ravel(), included.ravel()),
        )
        summary = {
            "max_rel_dev_var": float(rel[included].max(initial=0.0)),
            "n_cells_included": int(included.sum()),
            "beta": base.beta,
            "k": int(k),
            "n_chains": cfg.n_chains,
            "sampler_note": GAUSSIAN_SAMPLER_NOTE,
        }
        echo = _config_echo(base, n_chains=int(cfg.n_chains), t_grid=list(cfg.t_grid), k=int(k))
        return ExperimentResult("sde_covariance", {"table": table}, summary, echo)

    return run


def prepare_finite_sample(spec: EigenSpectrum, t_list, n_chains: int, seed: int,
                          sampler: str = "gaussian"):
    """Terminal sin^2 at the tuned stepsize vs the predicted level, per horizon.

    Each horizon T (an integer >= 100) runs n_chains fresh uniform-start
    chains for T steps at beta(T) = log T / (gap T) (independent master seed
    per horizon) and reports the ratio of the empirical mean to the formula
    level.

    Defaults to the Gaussian stream: the predicted level is the stationary
    variance of the local diffusion, which is calibrated to fourth moments
    E[Y_1^2 Y_i^2] = lambda_1 lambda_i.  The axis-atomic bounded stream has
    E[Y_1^2 Y_i^2] = 0, injects no noise at e_1, and its sin^2 decays
    geometrically instead of levelling off, so ratios to the formula are not
    meaningful for it.
    """
    n_chains = _two_chains(n_chains)
    with _blame("sampler"):
        get_sampler(sampler)
    with _blame("t_list"):  # beta(T) of a short horizon can break the bounded stream's cap
        horizons = [_check_count("horizon", t, 100) for t in t_list]
        _check_count("number of horizons", len(horizons))
        bases = [OjaConfig(spec=spec, beta=stepsize_rule(spec, t), n_steps=t, init="uniform",
                           seed=derive_seed(seed, j), sampler=sampler)
                 for j, t in enumerate(horizons)]

    def run(workers: int = 1) -> ExperimentResult:
        # Terminal sin^2 of every chain, one row per horizon.
        sin2 = np.array([
            _sin2(run_ensemble_states(base, n_chains, np.array([base.n_steps]),
                                      workers=workers)[0])
            for base in bases
        ])
        mean = sin2.mean(axis=1)
        bound = np.array([rate_bound_sin2(spec, t) for t in horizons])
        ratios = (mean / bound).tolist()
        table = Table(
            columns=("t_samples", "beta", "mean_sin2", "se_sin2", "bound_sin2", "ratio"),
            data=(horizons, [base.beta for base in bases], mean,
                  sin2.std(axis=1, ddof=1) / np.sqrt(n_chains), bound, ratios),
        )
        summary = {
            "ratios": ratios,
            "min_ratio": min(ratios),
            "max_ratio": max(ratios),
            "spread": max(ratios) / min(ratios),
            "n_chains": int(n_chains),
            "sampler": sampler,
        }
        echo = _config_echo(spec=spec, t_list=horizons, n_chains=int(n_chains),
                            seed=seed, sampler=sampler)
        return ExperimentResult("finite_sample", {"table": table}, summary, echo)

    return run


def prepare_phase_portrait(base: OjaConfig, n_chains: int, delta: float,
                           k: Optional[int] = None):
    """Saddle-start ensemble: the crossings of every chain and the median sin^2 curve.

    The grid for recording is every ``record_stride``-th step of the base
    config (plus endpoints); detection granularity equals that stride.  The
    states are reduced :data:`_CHUNK` records at a time, through the crossing
    scan of :mod:`oja_diffusion.phases`, to the same bits as all at once.  The
    summary holds median empirical crossings next to the predictions and the
    median terminal plateau (per-chain trailing-window mean at the horizon).
    """
    with _blame("n_chains"):
        n_chains = _check_count("n_chains", n_chains)
    with _blame("delta"):
        delta = PhaseThresholds(delta=delta).delta
    with _blame("k"):
        k = _saddle_index(base, k)

    def run(workers: int = 1) -> ExperimentResult:
        rec_steps = _record_steps(base.n_steps, base.resolved_stride())
        states = run_ensemble_states(base, n_chains, rec_steps, workers=workers)
        # Reduced _CHUNK records at a time: beside the states only one chunk's
        # (k, n_chains) features, the scan's window of history and the curve are held.
        scan = _CrossingScan(rec_steps, base, delta, n_chains)
        curve = np.empty((3, len(rec_steps)))  # median, q25 and q75 of sin^2 per record
        for lo in range(0, len(rec_steps), _CHUNK):
            chunk = states[lo:lo + _CHUNK]
            sin2 = _sin2(chunk)
            scan.feed(chunk[:, :, 0] ** 2, sin2)
            curve[:, lo:lo + len(sin2)] = (np.median(sin2, axis=1),
                                           *np.quantile(sin2, [0.25, 0.75], axis=1))
        crossings = scan.crossings()
        predicted = predict_crossings(base.spec, base.beta, delta, k)
        # Plateau window: at least the detection window, but no shorter than 10%
        # of the horizon, so the per-chain means average over several correlation
        # times and their median is not skew-biased.
        window = max(_trailing_window(base, rec_steps), len(rec_steps) // 10)
        tail_mean = _sin2(states[-window:]).mean(axis=0)  # per-chain plateau estimate

        summary = {}
        for name, col in zip(("n1", "n2", "n3"), crossings):
            present = col[col >= 0]
            summary[f"{name}_median_empirical"] = (float(np.median(present)) if present.size
                                                   else None)
            summary[f"n_detected_{name}"] = int(present.size)
        summary.update({
            "predicted": predicted.to_json_dict(),
            "plateau_median": float(np.median(tail_mean)),
            "stationary_sin2": stationary_sin2(base.spec, base.beta),
            "delta": float(delta),
            "k": k,
        })
        tables = {
            "curve": Table(columns=("step", "median_sin2", "q25_sin2", "q75_sin2"),
                           data=(rec_steps, *curve)),
            # A phase never reached (-1) is an empty cell.
            "crossings": Table(columns=("chain", "n1", "n2", "n3"),
                               data=(np.arange(n_chains),
                                     *np.where(crossings < 0, None, crossings))),
        }
        echo = _config_echo(base, n_chains=n_chains, delta=float(delta), k=k)
        return ExperimentResult("phase_portrait", tables, summary, echo)

    return run


# Each experiment in one call: its prepare_*, run with the given workers.
def ode_convergence_experiment(cfg: EnsembleConfig, workers: int = 1) -> ExperimentResult:
    return prepare_ode_convergence(cfg)(workers)


def sde_covariance_experiment(cfg: EnsembleConfig, k: int, workers: int = 1) -> ExperimentResult:
    return prepare_sde_covariance(cfg, k)(workers)


def finite_sample_experiment(spec: EigenSpectrum, t_list, n_chains: int, seed: int,
                             sampler: str = "gaussian", workers: int = 1) -> ExperimentResult:
    return prepare_finite_sample(spec, t_list, n_chains, seed, sampler)(workers)


def phase_portrait_experiment(cfg: EnsembleConfig, delta: float, k: Optional[int] = None,
                              workers: int = 1) -> ExperimentResult:
    return prepare_phase_portrait(cfg.base, cfg.n_chains, delta, k)(workers)
