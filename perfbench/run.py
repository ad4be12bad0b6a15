#!/usr/bin/env python3
"""Benchmark of oja_diffusion: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stationary_gaussian --seed 1 --seconds 10 --trace 0

Workloads: stationary_gaussian, flow_bounded, saddle_escape, cli_session (see
README.md next to this file for why each exists).  The package is imported
from ``src/`` of the checkout, never from an installed copy.

A run first sets up three times in fresh interpreters (import the package and
build the workload's configs) and starts ``python -m oja_diffusion.cli
--version`` four times.  It then repeats full passes over the workload's
operations until ``--seconds`` have gone by, always at least one.  Every
operation's output is checked after its timed call.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes, repeats the largest
ensemble call with one worker, runs the machine sanity probes and reports the
per-layer metrics from the traced passes.  The last line of stdout is one JSON
object; a human-readable line per metric comes before it.  Run records and
spans go to ``.bench_out/`` in the checkout.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("stationary_gaussian", "flow_bounded", "saddle_escape", "cli_session")
LIBRARY = WORKLOADS[:3]
# Set-ups and cold starts per run.  Cold starts drift with the machine by
# about 10% between samples, so they get more samples than set-up does.
SETUP_REPEATS = 3
COLD_STARTS = 4

END_TO_END = {
    "wall_s": "s",
    "chain_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_start_s": "s",
}

CLI_SUBCOMMANDS = ("version", "run", "phases", "ode", "sde", "rates", "mc")
PER_LAYER = {
    "spectrum.sample_s": "s",
    "spectrum.draws": "count",
    "spectrum.draws_per_s": "1/s",
    "spectrum.chain_rng_s": "s",
    "oja.run_chain_s": "s",
    "oja.chain_steps": "count",
    "oja.steps_per_s": "1/s",
    "oja.sin2_underflow_records": "count",
    "montecarlo.ensemble_s": "s",
    "montecarlo.ensemble_chain_steps_per_s": "1/s",
    "montecarlo.kernel_self_s": "s",
    "montecarlo.reduce_self_s": "s",
    "montecarlo.records_returned": "count",
    "montecarlo.workers_speedup": "ratio",
    "montecarlo.max_norm_dev": "1",
    "ode.logistic_solution_s": "s",
    "ode.logistic_solution_calls": "count",
    "sde.path_steps": "count",
    "sde.path_steps_per_s": "1/s",
    "sde.self_s": "s",
    "phases.crossing_report_s": "s",
    "phases.crossing_report_calls": "count",
    "phases.predict_s": "s",
    "cli.import_s": "s",
    **{f"cli.{sub}.process_s": "s" for sub in CLI_SUBCOMMANDS},
    **{f"cli.{sub}.handler_s": "s" for sub in CLI_SUBCOMMANDS if sub != "version"},
    "cli.startup_share": "ratio",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "trace.overhead_ratio": "ratio",
}

EXPERIMENTS = ("ode_convergence_experiment", "sde_covariance_experiment",
               "finite_sample_experiment", "phase_portrait_experiment")
SDE_PATHS = ("simulate_ou", "ou_ensemble_moments", "simulate_equator_sde",
             "equator_ensemble_second_moment")

# Figures measured at the ROADMAP re-anchor; a run more than 2x outside flags.
REFERENCE = {
    "run_chain_steps_per_s": (50e3, 60e3),
    "ensemble_d3_w1_chain_steps_per_s": (3.3e6, 4.5e6),
    "import_s": (1.1, 1.5),
}


class SetupError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every shape for the smoke test; gates then do not apply")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_package():
    """Import oja_diffusion from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    import oja_diffusion.cli

    where = os.path.realpath(oja_diffusion.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"oja_diffusion was imported from {where}, not from {SRC}")
    return oja_diffusion


def probe(args):
    """One set-up in a fresh interpreter: import the package, build the configs."""
    start = time.perf_counter()
    import_package()
    imported = time.perf_counter()
    import workloads

    wl = workloads.build(args.workload, args.seed, args.size == "tiny", SRC, SCRATCH)
    done = time.perf_counter()
    wl.close()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "OJA_DIFFUSION_OUT"}
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(args):
    probe_cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
                 "--seed", str(args.seed), "--size", args.size]
    version_cmd = [sys.executable, "-m", "oja_diffusion.cli", "--version"]
    samples = {"setup_s": [], "import_s": [], "cold_start_s": []}
    for i in range(COLD_STARTS):
        if i < SETUP_REPEATS:
            proc = subprocess.run(probe_cmd, capture_output=True, text=True, env=child_env(),
                                  cwd=SCRATCH, timeout=150)
            if proc.returncode != 0:
                raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
            probed = json.loads(proc.stdout.strip().splitlines()[-1])
            samples["setup_s"].append(probed["setup_s"])
            samples["import_s"].append(probed["import_s"])
        start = time.perf_counter()
        proc = subprocess.run(version_cmd, capture_output=True, text=True, env=child_env(),
                              cwd=SCRATCH, timeout=150)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.startswith("oja-diffusion "):
            raise SetupError(f"--version failed: {proc.stderr.strip()[-2000:]}")
        samples["cold_start_s"].append(elapsed)
    return samples


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without walking up to other repos."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(pkg):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bit_generator": type(pkg.spectrum.chain_rng(0, 0).bit_generator).__name__,
        "package_version": pkg.__version__,
        "git_commit": git_commit(),
    }


def install_tracer(tracer, pkg):
    """Wrap the public functions at the attributes their callers look them up through."""
    mc, oja, ode, sde, phases, spectrum = (pkg.montecarlo, pkg.oja, pkg.ode, pkg.sde,
                                           pkg.phases, pkg.spectrum)

    def draws(args, kwargs, result):
        return {"draws": 1 if result.ndim == 1 else result.shape[0]}

    def ensemble(args, kwargs, result):
        base, n_chains = args[0], args[1]
        return {"chain_steps": int(n_chains) * int(base.n_steps),
                "records": result.shape[0] * result.shape[1]}

    def chain(args, kwargs, result):
        return {"chain_steps": int(args[0].n_steps)}

    def one_path(args, kwargs, result):
        return {"path_steps": result.states.shape[0] - 1}

    def lockstep(at):
        # (..., t_grid, dt, n_paths, seed) with t_grid at position ``at``
        def count(args, kwargs, result):
            t_grid, dt, n_paths = args[at:at + 3]
            return {"path_steps": (max(round(float(t) / dt) for t in t_grid) + 1) * int(n_paths)}
        return count

    for key in ("bounded", "gaussian"):
        tracer.patch(spectrum.SAMPLERS, key, "spectrum.sample", draws)
    for module in (spectrum, oja, mc, sde):
        tracer.patch(module, "chain_rng", "spectrum.chain_rng")
    tracer.patch(oja, "run_chain", "oja.run_chain", chain)
    tracer.patch(mc, "run_ensemble_states", "montecarlo.run_ensemble_states", ensemble)
    tracer.patch(mc, "ensemble_summary", "montecarlo.ensemble_summary")
    for name in EXPERIMENTS:
        tracer.patch(mc, name, f"montecarlo.{name}")
    for module in (ode, mc):
        tracer.patch(module, "logistic_solution", "ode.logistic_solution")
    tracer.patch(sde, "simulate_ou", "sde.simulate_ou", one_path)
    tracer.patch(sde, "simulate_equator_sde", "sde.simulate_equator_sde", one_path)
    tracer.patch(sde, "ou_ensemble_moments", "sde.ou_ensemble_moments", lockstep(2))
    tracer.patch(sde, "equator_ensemble_second_moment", "sde.equator_ensemble_second_moment",
                 lockstep(3))
    for module in (phases, mc):
        tracer.patch(module, "crossing_report", "phases.crossing_report")
        tracer.patch(module, "predict_crossings", "phases.predict_crossings")
    tracer.patch(phases, "cutoff_ratios", "phases.cutoff_ratios")


class Session:
    """All passes of one benchmark run, their checks and their records."""

    def __init__(self, pkg, wl, observer, tracer):
        import workloads

        self.pkg, self.wl = pkg, wl
        self.observer, self.tracer = observer, tracer
        self.helpers = workloads
        self.passes = []
        self.faults = []  # (pass id, op, message)
        self.attempted = 0
        self.failed_ops = set()

    def fault(self, pass_id, op, messages):
        for msg in messages:
            self.faults.append((pass_id, op, msg))
        if messages:
            self.failed_ops.add((pass_id, op))

    def run_pass(self, traced):
        pass_id = len(self.passes)
        rec = {"id": pass_id, "traced": traced, "ops": {}, "wall_s": 0.0, "chain_steps": 0,
               "max_norm_dev": 0.0, "underflow": 0, "largest": None}
        results = {}
        tracer = self.tracer
        self.wl.begin_pass()
        if traced:
            install_tracer(tracer, self.pkg)
            tracer.pass_id = pass_id
            tracer.active = True
        try:
            with tracer.span("pass"):
                for op in self.wl.ops:
                    self.observer.calls.clear()
                    self.attempted += 1
                    start = time.perf_counter()
                    try:
                        with tracer.span("op." + op.name):
                            result = op.call()
                    except Exception as e:  # an operation that raised counts as failed
                        elapsed = time.perf_counter() - start
                        result = None
                        self.fault(pass_id, op.name, [f"raised {type(e).__name__}: {e}"])
                    else:
                        elapsed = time.perf_counter() - start
                    digest = None
                    if result is not None:
                        with tracer.paused():
                            try:
                                digest = self.check(op, result, results, rec)
                            except Exception as e:  # a check that cannot run is a failed check
                                self.fault(pass_id, op.name, [f"check raised {type(e).__name__}: {e}"])
                    results[op.name] = result
                    rec["ops"][op.name] = {"seconds": elapsed, "digest": digest}
                    if isinstance(result, dict) and "handler_s" in result:
                        rec["ops"][op.name]["handler_s"] = result["handler_s"]
                    rec["wall_s"] += elapsed
                    rec["chain_steps"] += op.chain_steps
        finally:
            tracer.active = False
            tracer.unpatch()
            rec["extras"] = self.wl.end_pass()
            self.observer.calls.clear()
        self.passes.append(rec)
        return rec

    def check(self, op, result, results, rec):
        h = self.helpers
        faults = list(op.check(result, results))
        digests = [op.digest(result)]
        for call in self.observer.calls:
            states = call["states"]
            faults += h.state_faults(states, "ensemble states")
            rec["max_norm_dev"] = max(rec["max_norm_dev"], h.norm_dev(states))
            digests.append(h.digest(states))
            # Only traced passes keep the largest call, for the workers=1 repeat;
            # holding its states in every pass would inflate peak_rss_mb.
            size = call["n_chains"] * call["base"].n_steps
            if rec["traced"] and (rec["largest"] is None
                                  or size > rec["largest"]["n_chains"] * rec["largest"]["base"].n_steps):
                rec["largest"] = call
        if isinstance(result, self.pkg.oja.Trajectory):
            rec["underflow"] += h.sin2_underflow(result)
        self.fault(rec["id"], op.name, faults)
        return h.digest(digests)

    def compare_digests(self):
        """Same seed, same bytes: every pass must reproduce the first one's outputs."""
        first = self.passes[0]["ops"]
        for rec in self.passes[1:]:
            for name, op in rec["ops"].items():
                ref = first.get(name, {}).get("digest")
                if op["digest"] is not None and ref is not None and op["digest"] != ref:
                    self.fault(rec["id"], name, ["output differs from the first pass with the same seed"])

    def workers_repeat(self):
        """Repeat the largest traced ensemble call with one worker; states must match."""
        traced = [r for r in self.passes if r["traced"] and r["largest"] is not None]
        if not traced:
            return None
        largest = traced[0]["largest"]
        tracer, mc = self.tracer, self.pkg.montecarlo
        self.attempted += 1
        install_tracer(tracer, self.pkg)
        tracer.pass_id = "workers_1"
        tracer.active = True
        try:
            with tracer.span("op.workers_1"):
                mc.run_ensemble_states(largest["base"], largest["n_chains"], largest["rec_steps"],
                                       workers=1)
        except Exception as e:  # counts as a failed operation
            self.fault("workers_1", "workers_1", [f"raised {type(e).__name__}: {e}"])
            return None
        finally:
            tracer.active = False
            tracer.unpatch()
        single = self.observer.calls.pop()
        self.observer.calls.clear()
        if single["states"].tobytes() != largest["states"].tobytes():
            self.fault("workers_1", "workers_1",
                       [f"states with workers=1 differ from workers={largest['workers']}"])
        return single["seconds"] / largest["seconds"]


def median(values):
    return statistics.median(values) if values else 0.0


def rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def end_to_end(session, setup):
    untraced = [r for r in session.passes if not r["traced"]]
    walls = [r["wall_s"] for r in untraced]
    cold = list(setup["cold_start_s"])
    cold += [r["ops"]["version"]["seconds"] for r in untraced if "version" in r["ops"]]
    who = resource.RUSAGE_CHILDREN if session.wl.name == "cli_session" else resource.RUSAGE_SELF
    values = {
        "wall_s": median(walls),
        "chain_steps_per_s": median([rate(r["chain_steps"], r["wall_s"]) for r in untraced]),
        "setup_s": median(setup["setup_s"]),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "cold_start_s": median(cold),
    }
    details = {
        "wall_s": f"median of {len(walls)} passes, min {min(walls):.4g}, max {max(walls):.4g}",
        "setup_s": f"median of {len(setup['setup_s'])} set-ups in fresh interpreters",
        "cold_start_s": f"median of {len(cold)} --version processes",
        "peak_rss_mb": "children" if who == resource.RUSAGE_CHILDREN else "benchmark process",
    }
    return values, details


def pass_layers(session, rec, tracer_mod):
    spans = [s for s in session.tracer.spans if s[5] == rec["id"]]
    t = tracer_mod.summarize(spans)

    def dur(name, key="dur"):
        return t[name][key] if name in t else 0.0

    def count(name, key):
        return t[name]["counts"].get(key, 0.0) if name in t else 0.0

    def calls(name):
        return t[name]["calls"] if name in t else 0

    ens = "montecarlo.run_ensemble_states"
    m = {
        "spectrum.sample_s": dur("spectrum.sample"),
        "spectrum.draws": count("spectrum.sample", "draws"),
        "spectrum.chain_rng_s": dur("spectrum.chain_rng"),
        "oja.run_chain_s": dur("oja.run_chain"),
        "oja.chain_steps": count("oja.run_chain", "chain_steps"),
        "oja.sin2_underflow_records": rec["underflow"],
        "montecarlo.ensemble_s": dur(ens),
        "montecarlo.kernel_self_s": dur(ens, "self"),
        "montecarlo.reduce_self_s": sum(dur(f"montecarlo.{e}", "self")
                                        for e in EXPERIMENTS + ("ensemble_summary",)),
        "montecarlo.records_returned": count(ens, "records"),
        "montecarlo.max_norm_dev": rec["max_norm_dev"],
        "ode.logistic_solution_s": dur("ode.logistic_solution"),
        "ode.logistic_solution_calls": calls("ode.logistic_solution"),
        "sde.path_steps": sum(count(f"sde.{f}", "path_steps") for f in SDE_PATHS),
        "sde.self_s": sum(dur(f"sde.{f}", "self") for f in SDE_PATHS),
        "phases.crossing_report_s": dur("phases.crossing_report"),
        "phases.crossing_report_calls": calls("phases.crossing_report"),
        "phases.predict_s": dur("phases.predict_crossings"),
    }
    m["spectrum.draws_per_s"] = rate(m["spectrum.draws"], m["spectrum.sample_s"])
    m["oja.steps_per_s"] = rate(m["oja.chain_steps"], m["oja.run_chain_s"])
    m["montecarlo.ensemble_chain_steps_per_s"] = rate(count(ens, "chain_steps"), m["montecarlo.ensemble_s"])
    m["sde.path_steps_per_s"] = rate(m["sde.path_steps"], sum(dur(f"sde.{f}") for f in SDE_PATHS))

    cli = session.wl.name == "cli_session"
    process = handler = 0.0
    for sub in CLI_SUBCOMMANDS:
        op = rec["ops"].get(sub, {}) if cli else {}
        m[f"cli.{sub}.process_s"] = op.get("seconds", 0.0)
        if sub != "version":
            m[f"cli.{sub}.handler_s"] = op.get("handler_s") or 0.0
            process += op.get("seconds", 0.0)
            handler += op.get("handler_s") or 0.0
    m["cli.startup_share"] = 1.0 - handler / process if process > 0 else 0.0
    m["cli.bytes_written"] = rec["extras"].get("bytes_written", 0)
    m["cli.files_written"] = rec["extras"].get("files_written", 0)
    return m


def per_layer(session, setup, speedup):
    import tracer as tracer_mod

    traced = [r for r in session.passes if r["traced"]]
    per_pass = [pass_layers(session, r, tracer_mod) for r in traced]
    values = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    values["cli.import_s"] = median(setup["import_s"])
    values["montecarlo.workers_speedup"] = speedup or 0.0
    values["trace.overhead_ratio"] = (median([r["wall_s"] for r in traced])
                                      / median([r["wall_s"] for r in session.passes if not r["traced"]]))
    return {name: values[name] for name in PER_LAYER}


def sanity(figures):
    lines = []
    for name, value in figures.items():
        lo, hi = REFERENCE[name]
        verdict = "ok" if lo / 2 <= value <= 2 * hi else "OFF by more than 2x"
        lines.append(f"sanity {name} = {value:.4g} (re-anchor {lo:g}-{hi:g}): {verdict}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    if not os.path.isfile(os.path.join(SRC, "oja_diffusion", "__init__.py")):
        print(f"error: no package source at {SRC}/oja_diffusion; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        setup = measure_setup(args)
        pkg = import_package()
    except (SetupError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    env = environment(pkg)
    print("machine " + json.dumps(env, sort_keys=True))
    wl = workloads.build(args.workload, args.seed, args.size == "tiny", SRC, SCRATCH)
    observer = workloads.EnsembleObserver()
    session = Session(pkg, wl, observer, tracer_mod.Tracer())
    speedup = None
    figures = {}
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            session.run_pass(traced=bool(args.trace) and len(session.passes) % 2 == 1)
            n = len(session.passes)
            if time.perf_counter() >= deadline and (not args.trace or n % 2 == 0):
                break
        session.compare_digests()
        if args.trace and args.workload in LIBRARY:
            speedup = session.workers_repeat()
    finally:
        observer.close()
        wl.close()
    if args.trace:
        figures = workloads.sanity_probes()
        figures["import_s"] = median(setup["import_s"])

    if args.trace:
        values = per_layer(session, setup, speedup)
        units, details = PER_LAYER, {}
    else:
        values, details = end_to_end(session, setup)
        units = END_TO_END
    failed = len(session.failed_ops)
    correct = failed == 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": env, "setup": setup,
              "passes": [{k: v for k, v in r.items() if k != "largest"} for r in session.passes],
              "faults": session.faults, "sanity": figures, "metrics": values}
    with open(os.path.join(SCRATCH, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        session.tracer.write(os.path.join(SCRATCH, tag + "-spans.jsonl"))

    for line in sanity(figures):
        print(line)
    for pass_id, op, msg in session.faults:
        print(f"FAIL pass {pass_id} {op}: {msg}")
    for name, value in values.items():
        extra = f"  ({details[name]})" if name in details else ""
        print(f"{name} = {value:.6g} {units[name]}{extra}")
    print(f"error_rate = {failed / session.attempted:.6g} ({failed} failed of "
          f"{session.attempted} attempted operations)")
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
