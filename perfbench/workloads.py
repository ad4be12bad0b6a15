"""The benchmark's four workloads, their output checks and their sanity probes.

A workload is a list of operations that one client issues in order, each one
only after the previous one returned: a closed loop with a single client.
Every input comes from the workload seed.  The shapes are those of the tier-1
acceptance tests and the threshold pilots (``tests/test_acceptance.py``,
``demos/pilot_thresholds.py``), so the benchmark runs the traffic the repo
really runs.  Every operation is checked; the statistical gates use the values
the pilots locked and apply only at full size (``tiny`` shrinks every shape
for the smoke test, where those gates would mean nothing).

Operations call the package through module attributes (``mc.run_ensemble_states``
rather than a name imported once), so the tracer in ``tracer.py`` sees them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from oja_diffusion import montecarlo as mc
from oja_diffusion import ode, oja, phases, sde, spectrum

SPEC2 = (2.0, 1.0)
SPEC3 = (2.0, 1.0, 0.5)
SPEC5 = (3.0, 2.0, 1.5, 1.0, 0.5)
SPEC50 = (2.0,) + tuple(float(x) for x in np.linspace(1.0, 0.1, 49))


class Op:
    """One call the client makes, the check of its output and its output digest."""

    def __init__(self, name, call, check, digest, chain_steps=0):
        self.name = name
        self.call = call
        self.check = check  # (result, results of earlier ops in the pass) -> faults
        self.digest = digest  # result -> str, equal across passes with one seed
        self.chain_steps = chain_steps


class Workload:
    def __init__(self, name, ops):
        self.name = name
        self.ops = ops

    def begin_pass(self):
        pass

    def end_pass(self):
        return {}

    def close(self):
        pass


def seeds(seed, n):
    """n master seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def experiment_digest(result):
    return digest(result.summary, {key: table.rows for key, table in result.tables.items()})


def norm_dev(states):
    """Largest | ||v|| - 1 | over the state vectors on the last axis."""
    if states.size == 0:
        return 0.0
    return float(np.max(np.abs(np.sqrt(np.sum(states * states, axis=-1)) - 1.0)))


def state_faults(states, what):
    """Unit norm within 1e-12 and finite entries at every record."""
    if not np.all(np.isfinite(states)):
        return [f"{what}: state that is not finite"]
    dev = norm_dev(states)
    return [f"{what}: unit-norm deviation {dev:.3e} > 1e-12"] if dev > 1e-12 else []


def sin2_underflow(traj):
    """Records whose sin^2 reads 0 while the tail mass of the state is positive."""
    tail = np.sum(traj.states[:, 1:] ** 2, axis=1)
    return int(np.count_nonzero((traj.sin2_angle == 0.0) & (tail > 0.0)))


def _bracket(name, value, lo, hi):
    if value is None or not lo <= value <= hi:
        return [f"{name} = {value} outside [{lo}, {hi}]"]
    return []


class EnsembleObserver:
    """Keeps every ``run_ensemble_states`` call with its states and its time.

    Experiments reduce the ensemble states away; the observer lets the
    benchmark check those states (unit norm, finite) after the operation, and
    lets the traced run repeat the largest call with one worker.
    """

    def __init__(self):
        self.calls = []
        self._original = mc.run_ensemble_states
        mc.run_ensemble_states = self._observe

    def _observe(self, base, n_chains, rec_steps, workers=1):
        start = time.perf_counter()
        states = self._original(base, n_chains, rec_steps, workers=workers)
        elapsed = time.perf_counter() - start
        self.calls.append({"base": base, "n_chains": n_chains, "rec_steps": np.array(rec_steps),
                           "workers": workers, "states": states, "seconds": elapsed})
        return states

    def close(self):
        mc.run_ensemble_states = self._original


# ----------------------------------------------------------------------------
# stationary_gaussian


def stationary_gaussian(seed, tiny):
    s = seeds(seed, 3)
    spec2 = spectrum.make_spectrum(SPEC2)
    spec50 = spectrum.make_spectrum(SPEC50)

    # Criterion 4: d=2, 2000 chains, beta=1e-4, one record at t=3.
    chains4, steps4, t4 = (40, 3_000, 0.3) if tiny else (2000, 30_000, 3.0)
    base4 = oja.OjaConfig(spec=spec2, beta=1e-4, n_steps=steps4, init="saddle:1",
                          seed=s[0], sampler="gaussian")
    ens4 = mc.EnsembleConfig(base=base4, n_chains=chains4, t_grid=(t4,))

    def check_covariance(res, results):
        if tiny:
            return []
        faults = _bracket("max_rel_dev_var", res.summary["max_rel_dev_var"], 0.0, 0.15)
        if res.summary["n_cells_included"] < 1:
            faults.append("no variance cell above the noise floor")
        return faults

    # Criterion 6: 200 chains at the tuned stepsize over three horizons.
    horizons, chains6 = ([100, 1_000], 10) if tiny else ([1_000, 10_000, 100_000], 200)

    def check_rate(res, results):
        if tiny:
            return []
        ratios = res.summary["ratios"]
        means = [row[2] for row in res.tables["table"].rows]
        faults = [f for r in ratios for f in _bracket("rate ratio", r, 0.05, 5.0)]
        if not res.summary["spread"] < 4.0:
            faults.append(f"ratio spread {res.summary['spread']} >= 4")
        if not all(a > b for a, b in zip(means, means[1:])):
            faults.append(f"mean sin^2 not decreasing in T: {means}")
        return faults

    # One lockstep ensemble at d=50, so that a kernel cost growing with d shows.
    chains50, steps50 = (10, 500) if tiny else (100, 10_000)
    base50 = oja.OjaConfig(spec=spec50, beta=1e-3, n_steps=steps50, init="saddle:1",
                           seed=s[2], sampler="gaussian")

    def check_d50(states, results):
        if tiny:
            return []
        level = float(np.mean(1.0 - states[-1, :, 0] ** 2)) / sde.stationary_sin2(spec50, 1e-3)
        return _bracket("d=50 stationary sin^2 ratio", level, 0.5, 2.0)

    return Workload("stationary_gaussian", [
        Op("sde_covariance", lambda: mc.sde_covariance_experiment(ens4, k=1, workers=2),
           check_covariance, experiment_digest, chains4 * steps4),
        Op("finite_sample",
           lambda: mc.finite_sample_experiment(spec2, horizons, chains6, s[1], workers=2),
           check_rate, experiment_digest, chains6 * sum(horizons)),
        Op("ensemble_d50",
           lambda: mc.run_ensemble_states(base50, chains50, np.array([steps50]), workers=2),
           check_d50, digest, chains50 * steps50),
    ])


# ----------------------------------------------------------------------------
# flow_bounded


def flow_bounded(seed, tiny):
    s = seeds(seed, 4)
    spec2 = spectrum.make_spectrum(SPEC2)
    grid = tuple(0.5 * j for j in range(1, 11))
    chains3 = 20 if tiny else 500

    def check_small(res, results):
        return [] if tiny else _bracket("sup_abs_diff at beta=1e-3", res.summary["sup_abs_diff"], 0.0, 0.02)

    def check_large(res, results):
        small = results.get("ode_convergence_0.001")
        if tiny or small is None:
            return []
        if not res.summary["sup_abs_diff"] > small.summary["sup_abs_diff"]:
            return [f"sup_abs_diff does not grow with beta: {res.summary['sup_abs_diff']} "
                    f"<= {small.summary['sup_abs_diff']}"]
        return []

    ops = []
    # Criterion 3: warm start, bounded stream, beta in {1e-3, 1e-2}, 10-point grid.
    for i, (beta, check) in enumerate(((1e-3, check_small), (1e-2, check_large))):
        steps = int(round(5.0 / beta))
        base = oja.OjaConfig(spec=spec2, beta=beta, n_steps=steps, init="warm:0.75",
                             seed=s[i], sampler="bounded")
        ens = mc.EnsembleConfig(base=base, n_chains=chains3, t_grid=grid)
        ops.append(Op(f"ode_convergence_{beta:g}",
                      lambda ens=ens: mc.ode_convergence_experiment(ens, workers=2),
                      check, experiment_digest, chains3 * steps))

    # Long single chains with the default stride; past ~20k steps the tail
    # mass drops below 1e-16 and sin^2 = 1 - v_1^2 reads exactly 0.
    steps = 2_000 if tiny else 60_000
    for i, spec in ((2, SPEC3), (3, SPEC50)):
        cfg = oja.OjaConfig(spec=spectrum.make_spectrum(spec), beta=1e-3, n_steps=steps,
                            init="uniform", seed=s[i], sampler="bounded")

        def check_chain(traj, results, cfg=cfg):
            expected = len(oja.record_steps(cfg.n_steps, cfg.resolved_stride()))
            faults = state_faults(traj.states, "run_chain")
            if len(traj.times) != expected:
                faults.append(f"{len(traj.times)} records, expected {expected}")
            if not tiny:
                faults += _bracket("terminal sin^2", float(traj.sin2_angle[-1]), 0.0, 0.01)
            return faults

        ops.append(Op(f"run_chain_d{len(spec)}", lambda cfg=cfg: oja.run_chain(cfg),
                      check_chain, lambda t: digest(t.times, t.states, t.sin2_angle), steps))
    return Workload("flow_bounded", ops)


# ----------------------------------------------------------------------------
# saddle_escape


def saddle_escape(seed, tiny):
    s = seeds(seed, 6)
    spec2 = spectrum.make_spectrum(SPEC2)
    spec3 = spectrum.make_spectrum(SPEC3)

    # Criterion 5: 100 chains from near the saddle e_2, every step recorded.
    chains5, steps5 = (10, 1_200) if tiny else (100, 12_000)
    base5 = oja.OjaConfig(spec=spec2, beta=1e-3, n_steps=steps5, init="near_saddle:2:1e-6",
                          seed=s[0], sampler="gaussian")
    ens5 = mc.EnsembleConfig(base=base5, n_chains=chains5, t_grid=(1.0,))

    def check_portrait(res, results):
        if tiny:
            return []
        pred = phases.predict_crossings(spec2, 1e-3, 0.25, 2)
        n2, n3 = res.summary["n2_median_empirical"], res.summary["n3_median_empirical"]
        return (_bracket("N2 median ratio", None if n2 is None else n2 / pred.n2_high, 0.5, 2.0)
                + _bracket("N3 median ratio", None if n3 is None else n3 / pred.n3, 0.5, 2.0))

    # Phase-I equator SDE along the closed-form flow from an equator point.
    v0 = np.array([0.0, math.sqrt(0.5), math.sqrt(0.5)])

    def flow(t):
        return ode.logistic_solution(spec3, v0, t)

    t_end = 0.3 if tiny else 3.0
    eq_grid = [t_end * j / 6 for j in range(1, 7)]
    eq_paths = 20 if tiny else 2000

    def check_path(path, results):
        ok = np.all(np.isfinite(path.states)) and len(path.times) == int(round(t_end / 1e-3)) + 1
        return [] if ok else ["equator path is not finite or has the wrong length"]

    def check_moment(res, results):
        moment = res[1]
        return [] if np.all(np.isfinite(moment)) and np.all(moment > 0.0) else [
            f"equator second moment not finite and positive: {moment}"]

    ops = [
        Op("phase_portrait", lambda: mc.phase_portrait_experiment(ens5, delta=0.25, workers=2),
           check_portrait, experiment_digest, chains5 * steps5),
        Op("equator_path", lambda: sde.simulate_equator_sde(spec3, flow, 0.0, t_end, 1e-3, s[1]),
           check_path, lambda p: digest(p.times, p.states)),
        Op("equator_ensemble",
           lambda: sde.equator_ensemble_second_moment(spec3, flow, 0.0, eq_grid, 1e-3, eq_paths, s[2]),
           check_moment, lambda r: digest(*r)),
    ]

    # Criterion 2: OU ensemble moments against the closed form, 5 sigma + O(dt).
    m = 20 if tiny else 2000
    dt = 1e-3
    for i, (lambdas, k) in enumerate(((SPEC2, 1), (SPEC5, 1), (SPEC5, 5))):
        ou = sde.OuSpec(spec=spectrum.make_spectrum(lambdas), k=k)

        def check_ou(res, results, ou=ou):
            if tiny:
                return []
            _, means, varis = res
            faults = []
            for j, t in enumerate((0.5, 1.0)):
                cm, cv = sde.ou_mean_cov(ou, 0.3, t)
                for c in range(len(cm)):
                    tol_m = 5 * math.sqrt(cv[c] / m) + 5 * dt * (abs(cm[c]) + 1)
                    tol_v = 5 * cv[c] * math.sqrt(2.0 / (m - 1)) + 5 * dt * (cv[c] + 1)
                    if abs(means[j, c] - cm[c]) > tol_m:
                        faults.append(f"OU mean k={ou.k} d={ou.spec.d} t={t} coord {c}")
                    if abs(varis[j, c] - cv[c]) > tol_v:
                        faults.append(f"OU variance k={ou.k} d={ou.spec.d} t={t} coord {c}")
            return faults

        ops.append(Op(f"ou_moments_{i + 1}",
                      lambda ou=ou, seed=s[3 + i]: sde.ou_ensemble_moments(ou, 0.3, [0.5, 1.0], dt, m,
                                                                           seed=seed),
                      check_ou, lambda r: digest(*r)))

    # Criterion 5 formulas and the cutoff trend.
    def predictions():
        pred = phases.predict_crossings(spec2, 1e-3, 0.25, 2)
        return pred, [phases.cutoff_ratios(spec2, b, 0.25, 2) for b in (1e-3, 1e-4, 1e-5)]

    def check_predictions(res, results):
        pred, ratios = res
        faults = []
        if abs(pred.n3 - 500 * math.log(250.0)) > 1e-9 * pred.n3:
            faults.append(f"N3 formula: {pred.n3}")
        if abs(pred.n2_high - 1000 * math.log(3.0)) > 1e-9 * pred.n2_high:
            faults.append(f"N2 formula: {pred.n2_high}")
        r21 = [r[0] for r in ratios]
        if not r21[0] > r21[1] > r21[2]:
            faults.append(f"N2/N1 not decreasing in beta: {r21}")
        return faults + _bracket("N3/N1 at beta=1e-5", ratios[2][1], 0.8, 1.25)

    ops.append(Op("predictions", predictions, check_predictions,
                  lambda r: digest(repr(r[0]), r[1])))
    return Workload("saddle_escape", ops)


# ----------------------------------------------------------------------------
# cli_session


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class CliSession(Workload):
    """Fresh ``python -m oja_diffusion.cli`` processes, one at a time.

    The configs live in a temp directory inside the checkout; each pass writes
    its outputs under ``pass/`` there, and the directory is emptied after the
    pass so that its bytes and files count once.
    """

    SUBCOMMANDS = ("version", "run", "phases", "ode", "sde", "rates", "mc")

    def __init__(self, seed, tiny, src, scratch):
        s = seeds(seed, 3)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=scratch)
        self.pass_dir = os.path.join(self.dir, "pass")
        self.env = {k: v for k, v in os.environ.items() if k != "OJA_DIFFUSION_OUT"}
        self.env["PYTHONPATH"] = src
        n_steps = 1_200 if tiny else 12_000
        chain = {"spec": list(SPEC2), "beta": 1e-3, "n_steps": n_steps,
                 "init": "near_saddle:2:1e-6", "sampler": "gaussian", "seed": s[0]}
        mc_chains = 20 if tiny else 500
        configs = {
            "run": chain,
            "phases": dict(chain, delta=0.25, k=2, betas_for_cutoff=[1e-3, 1e-4, 1e-5],
                           trajectory_csv=os.path.join(self.pass_dir, "run", "trajectory.csv")),
            "ode": {"spec": list(SPEC3), "v0": "warm:0.75", "delta": 0.25,
                    "t_grid": {"start": 0.0, "stop": 10.0, "num": 201}},
            "sde": {"spec": list(SPEC2), "k": 1, "t_end": 3.0, "dt": 1e-3, "u0": 0.3,
                    "n_paths": 20 if tiny else 2000, "seed": s[1]},
            "rates": {"spec": list(SPEC2), "t_samples": 100_000},
            "mc": {"experiment": "ode_convergence", "spec": list(SPEC2), "beta": 1e-2,
                   "t_grid": [0.5 * j for j in range(1, 11)], "init": "warm:0.75",
                   "sampler": "bounded", "n_chains": mc_chains, "seed": s[2]},
        }
        for name, cfg in configs.items():
            with open(os.path.join(self.dir, f"{name}.json"), "w") as fh:
                json.dump(cfg, fh)
        steps = {"run": n_steps, "mc": mc_chains * 500}
        super().__init__("cli_session", [
            Op(name, functools.partial(self._invoke, name), functools.partial(self._check, name),
               self._digest, steps.get(name, 0))
            for name in self.SUBCOMMANDS
        ])

    def _invoke(self, name):
        argv = [sys.executable, "-m", "oja_diffusion.cli"]
        out = os.path.join(self.pass_dir, name)
        if name == "version":
            argv.append("--version")
        else:
            argv += [name, "--config", os.path.join(self.dir, f"{name}.json"), "--out", out]
        proc = subprocess.run(argv, cwd=self.dir, env=self.env, capture_output=True, text=True,
                              timeout=120)
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "out": out}

    def _check(self, name, res, results):
        if res["rc"] != 0:
            return [f"exit {res['rc']}: {res['stderr'].strip()[-300:]}"]
        if name == "version":
            return [] if res["stdout"].startswith("oja-diffusion ") else [f"version output {res['stdout']!r}"]
        try:
            with open(os.path.join(res["out"], "manifest.json")) as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as e:
            return [f"manifest unreadable: {e}"]
        listed = manifest.get("outputs", {})
        present = sorted(f for f in os.listdir(res["out"]) if f != "manifest.json")
        faults = [] if sorted(listed) == present else [f"manifest lists {sorted(listed)}, found {present}"]
        faults += [f"sha256 mismatch for {f}" for f, h in listed.items()
                   if f in present and sha256_file(os.path.join(res["out"], f)) != h]
        res["handler_s"] = manifest.get("wall_time_s")
        res["outputs"] = listed
        if res["handler_s"] is None:
            faults.append("manifest has no wall_time_s")
        return faults

    @staticmethod
    def _digest(res):
        return digest(res.get("outputs") or res["stdout"])

    def begin_pass(self):
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        os.makedirs(self.pass_dir)

    def end_pass(self):
        files = nbytes = 0
        for dirpath, _, names in os.walk(self.pass_dir):
            for name in names:
                files += 1
                nbytes += os.path.getsize(os.path.join(dirpath, name))
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        return {"bytes_written": nbytes, "files_written": files}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def build(name, seed, tiny, src, scratch):
    if name == "cli_session":
        return CliSession(seed, tiny, src, scratch)
    return {"stationary_gaussian": stationary_gaussian, "flow_bounded": flow_bounded,
            "saddle_escape": saddle_escape}[name](seed, tiny)


# ----------------------------------------------------------------------------
# machine sanity probes


def sanity_probes():
    """Throughput at the shapes the ROADMAP re-anchor quotes, untraced."""
    spec3 = spectrum.make_spectrum(SPEC3)
    cfg = oja.OjaConfig(spec=spec3, beta=1e-3, n_steps=20_000, init="uniform", seed=1,
                        sampler="bounded")
    start = time.perf_counter()
    oja.run_chain(cfg)
    chain_rate = cfg.n_steps / (time.perf_counter() - start)
    base = oja.OjaConfig(spec=spec3, beta=1e-3, n_steps=2_000, init="uniform", seed=2,
                         sampler="gaussian")
    start = time.perf_counter()
    mc.run_ensemble_states(base, 1000, np.array([base.n_steps]), workers=1)
    ens_rate = 1000 * base.n_steps / (time.perf_counter() - start)
    return {"run_chain_steps_per_s": chain_rate, "ensemble_d3_w1_chain_steps_per_s": ens_rate}
