"""The lockstep Oja kernel: one chain is an ensemble of one, and its checks hold under -O."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import oja_diffusion
from oja_diffusion import OjaConfig, make_spectrum, run_chain, run_ensemble_states
from oja_diffusion.oja import _run_lockstep, record_steps

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
