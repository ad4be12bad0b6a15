"""The lockstep Oja kernel: one chain is an ensemble of one, and its checks hold under -O."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oja_diffusion
from oja_diffusion import (
    OjaConfig,
    chain_rng,
    increment_parts,
    make_spectrum,
    oja_step,
    random_rotation,
    resolve_init,
    run_chain,
    run_ensemble_states,
    sample_bounded,
    sample_gaussian,
)
from oja_diffusion.oja import SAMPLE_BLOCK, _renorm_period, _run_lockstep, record_steps
from oja_diffusion.spectrum import get_sampler

INITS = ("uniform", "warm:0.3", "saddle:2", "near_saddle:1:0.01")


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    d=st.integers(2, 6),
    sampler=st.sampled_from(("bounded", "gaussian")),
    seed=st.integers(0, 2**64 - 1),
    n_chains=st.integers(1, 7),
    workers=st.integers(1, 3),
    chain=st.integers(0, 6),
    init=st.sampled_from(INITS),
    n_steps=st.integers(0, 2100),
    stride=st.integers(1, 700),
)
def test_chain_is_an_ensemble_of_one(d, sampler, seed, n_chains, workers, chain, init,
                                     n_steps, stride):
    spec = make_spectrum(np.arange(d, 0, -1, dtype=float) + np.eye(d)[0])
    cfg = OjaConfig(spec=spec, beta=0.5 / (3.0 * spec.trace), n_steps=n_steps, init=init,
                    seed=seed, sampler=sampler, record_stride=stride)
    steps = record_steps(n_steps, stride)
    states = run_ensemble_states(cfg, n_chains, steps, workers=workers)
    i = chain % n_chains
    np.testing.assert_array_equal(states[:, i], _run_lockstep(cfg, range(i, i + 1), steps)[:, 0])
    np.testing.assert_array_equal(run_chain(cfg).states, states[:, 0])
    assert np.all(np.abs(np.linalg.norm(states, axis=-1) - 1.0) <= 1e-12)


@st.composite
def bounded_runs(draw):
    """A valid spectrum, a stepsize within 1/(3 tr), an init and increasing records."""
    tail = sorted(draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=5)), reverse=True)
    spec = make_spectrum([tail[0] + draw(st.floats(0.01, 5.0))] + tail)
    beta = draw(st.floats(0.01, 1.0)) / (3.0 * spec.trace)
    presets = ["uniform", f"saddle:{spec.d}", "near_saddle:1:0.01", "warm:0.3"]
    coords = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    explicit = st.lists(coords, min_size=spec.d, max_size=spec.d).filter(
        lambda v: np.linalg.norm(v) > 1e-3)
    init = draw(st.one_of(st.sampled_from(presets), explicit))
    n_steps = draw(st.integers(SAMPLE_BLOCK + 1, 3 * SAMPLE_BLOCK))
    rec = sorted(draw(st.lists(st.integers(0, n_steps), min_size=1, max_size=12, unique=True)))
    cfg = OjaConfig(spec=spec, beta=beta, n_steps=n_steps, init=init,
                    seed=draw(st.integers(0, 2**64 - 1)), sampler="bounded")
    return cfg, np.array(rec)


def _step_loop_reference(cfg, chain, rec_steps, sample=sample_bounded):
    """``oja_step`` on ``sample`` blocks from the chain's own stream."""
    rng = chain_rng(cfg.seed, chain)
    v = resolve_init(cfg.spec, cfg.init, rng)
    out = [v] if rec_steps[0] == 0 else []
    step = 0
    while step < rec_steps[-1]:
        for y in sample(cfg.spec, rng, min(SAMPLE_BLOCK, rec_steps[-1] - step)):
            v = oja_step(v, y, cfg.beta)
            step += 1
            if step in rec_steps:
                out.append(v)
    return np.array(out)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(run=bounded_runs())
def test_bounded_closed_form_matches_step_loop(run):
    cfg, rec_steps = run
    states = run_ensemble_states(cfg, 2, rec_steps)
    for chain in range(2):
        got = states[:, chain]
        ref = _step_loop_reference(cfg, chain, rec_steps)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
        assert np.all(got[ref == 0.0] == 0.0)
        assert np.all(np.abs(np.linalg.norm(got, axis=-1) - 1.0) <= 1e-12)


@st.composite
def gaussian_runs(draw):
    """d in 2..50, a stepsize up to 1/(3 tr), up to three blocks and random records."""
    d = draw(st.integers(2, 50))
    tail = sorted(draw(st.lists(st.floats(0.01, 5.0), min_size=d - 1, max_size=d - 1)),
                  reverse=True)
    spec = make_spectrum([tail[0] + draw(st.floats(0.01, 5.0))] + tail)
    beta = draw(st.floats(1e-4, 1.0)) / (3.0 * spec.trace)
    n_steps = draw(st.integers(1, 3 * SAMPLE_BLOCK))
    rec = sorted(draw(st.lists(st.integers(0, n_steps), min_size=1, max_size=12, unique=True)))
    cfg = OjaConfig(spec=spec, beta=beta, n_steps=n_steps, init=draw(st.sampled_from(INITS)),
                    seed=draw(st.integers(0, 2**64 - 1)), sampler="gaussian")
    return cfg, np.array(rec)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(run=gaussian_runs())
def test_deferred_normalisation_matches_projected_steps(run):
    # The Gaussian kernel normalises only every K steps and at records; the
    # projected step replayed on the same stream agrees within 1e-13.
    cfg, rec_steps = run
    states = run_ensemble_states(cfg, 2, rec_steps)
    for chain in range(2):
        got = states[:, chain]
        ref = _step_loop_reference(cfg, chain, rec_steps, sample_gaussian)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
        assert np.all(np.abs(np.linalg.norm(got, axis=-1) - 1.0) <= 1e-12)


def test_renormalisation_period():
    # K steps cannot overflow ||w||: the largest power of two up to a block
    # that the stepsize allows, down to a projection every step.
    spec = make_spectrum([2.0, 1.0, 0.5])
    periods = [_renorm_period(OjaConfig(spec=spec, beta=beta, n_steps=1, sampler="gaussian"))
               for beta in (1e-4, 0.05, 1e300)]
    assert periods == [SAMPLE_BLOCK, 64, 1]


@pytest.mark.parametrize("beta", [1e-4, 0.05])
def test_gaussian_state_does_not_depend_on_the_records(beta):
    # A record writes w / ||w|| and leaves w alone, and the normalisation runs
    # on a schedule of step numbers, so the state at T is the same bits
    # whichever other steps are recorded.
    t = 2 * SAMPLE_BLOCK + 300
    cfg = OjaConfig(spec=make_spectrum([2.0, 1.0, 0.5]), beta=beta, n_steps=t, init="uniform",
                    seed=21, sampler="gaussian")
    last = [run_ensemble_states(cfg, 3, np.array(rec))[-1]
            for rec in ([t], [0, 37, t], range(t + 1))]
    np.testing.assert_array_equal(last[1], last[0])
    np.testing.assert_array_equal(last[2], last[0])


@pytest.mark.parametrize("sampler", ["bounded", "gaussian"])
def test_stream_stops_at_the_last_record(monkeypatch, sampler):
    # With records far short of n_steps, each chain's generator must end where
    # drawing the init and then the samples up to the last record leaves it.
    spec = make_spectrum([2.0, 1.0, 0.5])
    cfg = OjaConfig(spec=spec, beta=1e-3, n_steps=20_000, init="uniform", seed=5,
                    sampler=sampler)
    last = SAMPLE_BLOCK + 476
    full = run_ensemble_states(cfg, 3, np.array([0, 100, last, cfg.n_steps]))
    made = []

    def recording_rng(seed, *index):
        made.append(chain_rng(seed, *index))
        return made[-1]

    monkeypatch.setattr(oja_diffusion.oja, "chain_rng", recording_rng)
    states = run_ensemble_states(cfg, 3, np.array([0, 100, last]))
    # Stopping early changes no recorded value.
    np.testing.assert_array_equal(states, full[:3])
    assert len(made) == 3
    draw = get_sampler(sampler)
    for i, rng in enumerate(made):
        ref = chain_rng(cfg.seed, i)
        resolve_init(spec, cfg.init, ref)
        draw(spec, ref, SAMPLE_BLOCK)
        draw(spec, ref, last - SAMPLE_BLOCK)
        np.testing.assert_array_equal(rng.bit_generator.state["state"]["counter"],
                                      ref.bit_generator.state["state"]["counter"])
        np.testing.assert_array_equal(rng.random(8), ref.random(8))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=st.integers(2, 50), beta=st.floats(1e-6, 1e-1), seed=st.integers(0, 2**32 - 1))
def test_update_is_rotation_equivariant(d, beta, seed):
    # The update is built from inner products alone, so rotating the state and
    # the sample rotates the step: oja_step(Qv, Qy) = Q oja_step(v, y).
    rng = np.random.default_rng(seed)
    q = random_rotation(d, rng)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    y = rng.standard_normal(d)
    np.testing.assert_allclose(oja_step(q @ v, q @ y, beta), q @ oja_step(v, y, beta),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(increment_parts(q @ v, q @ y, beta).main,
                               q @ increment_parts(v, y, beta).main, rtol=0, atol=1e-13)


_OVERFLOW_SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np
    from oja_diffusion import OjaConfig, make_spectrum, run_chain, run_ensemble_states
    from oja_diffusion.cli import main

    # With its errors ignored numpy never raises FloatingPointError itself, so
    # one seen here comes from the kernel's own state check.
    np.seterr(all="ignore")
    cfg = OjaConfig(spec=make_spectrum([2.0, 1.0]), beta=1e300, n_steps=50,
                    init="warm:0.5", sampler="gaussian")
    calls = {"run_chain": lambda: run_chain(cfg),
             "ensemble": lambda: run_ensemble_states(cfg, 3, np.array([0, 25, 50]))}
    outcome = {"optimize": sys.flags.optimize}
    for name, call in calls.items():
        try:
            call()
            outcome[name] = None
        except Exception as e:
            outcome[name] = type(e).__name__
    outcome["mc"] = main(["mc", "--config", sys.argv[1], "--out", sys.argv[2]])
    print(json.dumps(outcome))
""")


def test_state_checks_survive_optimize(tmp_path):
    # A huge Gaussian stepsize overflows the update; the kernel must raise a
    # runtime fault even with asserts stripped, and mc must exit 1, not 0 or 2.
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({
        "experiment": "ode_convergence", "spec": [2, 1], "beta": 1e300, "n_steps": 50,
        "t_grid": [5e301], "init": "warm:0.5", "sampler": "gaussian", "n_chains": 3,
    }))
    env = dict(os.environ)
    src = str(Path(oja_diffusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OVERFLOW_SCRIPT, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    assert outcome == {"optimize": 1, "run_chain": "FloatingPointError",
                       "ensemble": "FloatingPointError", "mc": 1}, proc.stderr
