"""Single-step algebra, drift estimation, and chain running."""

import math

import numpy as np
import pytest

from oja_diffusion import (
    OjaConfig,
    chain_rng,
    empirical_drift,
    increment_parts,
    make_spectrum,
    oja_step,
    resolve_init,
    run_chain,
    sin2_angle,
)
from oja_diffusion.oja import record_steps, trajectory_from_csv

SPEC2 = make_spectrum([2.0, 1.0])


def test_step_hand_value():
    v = np.array([1.0, 0.0])
    y = np.array([1.0, 1.0])
    out = oja_step(v, y, 0.1)
    # s = 1, w = (1.1, 0.1), ||w|| = sqrt(1.22)
    np.testing.assert_allclose(out, np.array([1.1, 0.1]) / math.sqrt(1.22), rtol=1e-15)


def test_step_preserves_unit_norm():
    rng = chain_rng(21, 0)
    for _ in range(500):
        g = rng.standard_normal(4)
        v = g / np.linalg.norm(g)
        y = rng.standard_normal(4) * 2.0
        out = oja_step(v, y, 0.05)
        assert abs(out @ out - 1.0) <= 1e-12


def test_step_batched_matches_rows():
    rng = chain_rng(22, 0)
    g = rng.standard_normal((8, 3))
    v = g / np.linalg.norm(g, axis=1, keepdims=True)
    y = rng.standard_normal((8, 3))
    batch = oja_step(v, y, 0.02)
    for i in range(8):
        np.testing.assert_array_equal(batch[i], oja_step(v[i], y[i], 0.02))


def test_step_rejects_nan_sample():
    with pytest.raises(ValueError, match="collapsed"):
        oja_step(np.array([1.0, 0.0]), np.array([np.nan, 0.0]), 0.1)


def test_e1_is_exact_fixed_point_of_bounded_atoms():
    # Axis atoms either hit coordinate 1 (pure rescaling, normalization undoes
    # it bit-exactly) or are orthogonal to v (s = 0, no update at all).
    e1 = np.array([1.0, 0.0])
    r = math.sqrt(SPEC2.trace)
    for atom in ([r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]):
        out = oja_step(e1, np.array(atom), 1e-3)
        assert np.array_equal(out, e1)


def test_sin2_angle():
    e1 = np.array([1.0, 0.0])
    assert sin2_angle(e1, e1) == 0.0
    assert sin2_angle(e1, np.array([0.0, 1.0])) == 1.0
    diag = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert sin2_angle(e1, diag) == pytest.approx(0.5, abs=1e-15)


def test_sin2_angle_keeps_precision_near_zero():
    # (v.w)^2 rounds to exactly 1 here, so 1 - (v.w)^2 would read 0.
    v = np.array([1.0, 1e-10])
    v /= np.linalg.norm(v)
    e1 = np.array([1.0, 0.0])
    assert sin2_angle(v, e1) == pytest.approx(1e-20, rel=1e-12, abs=0.0)
    assert sin2_angle(e1, v) == pytest.approx(1e-20, rel=1e-12, abs=0.0)


def test_increment_parts_fuzz():
    # Randomized corpus over dimensions, spectra, in-ball samples and
    # admissible stepsizes.  The main term is the O(beta) drift direction and
    # the remainder collects everything the normalization adds; its measured
    # ceiling is ~0.34 * (beta ||y||^2)^2, asserted with slack at 4.
    rng = np.random.default_rng(424242)
    worst_rec = worst_rem = worst_step = 0.0
    for d in (2, 3, 5):
        for _ in range(2000):
            lam = np.sort(rng.uniform(0.1, 5.0, d))[::-1]
            lam[0] += 0.05
            sp = make_spectrum(lam)
            g = rng.standard_normal(d)
            v = g / np.linalg.norm(g)
            y = rng.standard_normal(d)
            y *= rng.uniform(0, 1) ** (1 / d) * math.sqrt(sp.trace) / np.linalg.norm(y)
            beta = rng.uniform(1e-6, 1 / (3 * sp.trace))
            parts = increment_parts(v, y, beta)
            step = oja_step(v, y, beta) - v
            scale = beta * float(y @ y)
            worst_rec = max(worst_rec, np.max(np.abs(parts.main + parts.remainder - step)))
            worst_rem = max(worst_rem, np.linalg.norm(parts.remainder) / scale**2)
            worst_step = max(worst_step, np.linalg.norm(step) / scale)
    assert worst_rec <= 1e-14
    assert worst_rem <= 4.0
    assert worst_step <= 4.0


def test_increment_main_term_formula():
    rng = chain_rng(23, 0)
    g = rng.standard_normal(3)
    v = g / np.linalg.norm(g)
    y = rng.standard_normal(3)
    beta = 1e-3
    s = float(v @ y)
    parts = increment_parts(v, y, beta)
    np.testing.assert_allclose(parts.main, beta * (s * y - s * s * v), rtol=1e-14)


def test_empirical_drift_is_exactly_zero_at_e1():
    e1 = np.array([1.0, 0.0])
    d = empirical_drift(SPEC2, e1, 1e-3, 50_000, chain_rng(42, 0), sampler="bounded")
    assert np.all(d == 0.0)


def test_empirical_drift_matches_atom_enumeration():
    # The bounded stream has 2d atoms, so the exact one-step expectation is a
    # finite sum; the Monte Carlo average must agree within its own CLT error.
    v = np.array([0.6, 0.8])
    beta = 1e-3
    r = math.sqrt(SPEC2.trace)
    exact = np.zeros(2)
    for i, p in enumerate(np.asarray(SPEC2.lambdas) / SPEC2.trace):
        for sgn in (1.0, -1.0):
            y = np.zeros(2)
            y[i] = sgn * r
            exact += p * 0.5 * (oja_step(v, y, beta) - v)
    reps = np.array(
        [empirical_drift(SPEC2, v, beta, 50_000, chain_rng(778, j), sampler="bounded")
         for j in range(20)]
    )
    se = reps.std(axis=0, ddof=1) / math.sqrt(20)
    assert np.all(np.abs(reps.mean(axis=0) - exact) <= 4 * se + 1e-15)


def test_empirical_drift_gaussian_matches_ode_field():
    # E[delta v] = beta (Lambda - v'Lambda v) v + O(beta^2) for the gaussian
    # stream; the bias allowance is (beta B)^2.
    lam = np.array([2.0, 1.0])
    v = np.array([0.6, 0.8])
    beta = 1e-3
    reps = np.array(
        [empirical_drift(SPEC2, v, beta, 50_000, chain_rng(777, j), sampler="gaussian")
         for j in range(20)]
    )
    se = reps.std(axis=0, ddof=1) / math.sqrt(20)
    formula = beta * (lam - (v @ (lam * v))) * v
    tol = 4 * se + (beta * SPEC2.trace) ** 2
    assert np.all(np.abs(reps.mean(axis=0) - formula) <= tol)


def test_empirical_drift_noise_scales_like_clt():
    # Doubling the sample count shrinks the estimator sd by sqrt(2).
    v = np.array([0.6, 0.8])

    def sd(master, m):
        reps = np.array(
            [empirical_drift(SPEC2, v, 1e-3, m, chain_rng(master, j), sampler="gaussian")
             for j in range(100)]
        )
        return reps.std(axis=0, ddof=1)

    ratio = sd(1313, 10_000) / sd(1414, 20_000)
    assert np.all(ratio > 1.15) and np.all(ratio < 1.75)


def test_config_validation():
    with pytest.raises(ValueError, match="beta"):
        OjaConfig(spec=SPEC2, beta=0.0, n_steps=10)
    # bounded stream requires beta <= 1/(3B) with B = trace = 3
    with pytest.raises(ValueError, match=r"beta must be a finite number in \(0, 0.111111\]"):
        OjaConfig(spec=SPEC2, beta=0.2, n_steps=10, sampler="bounded")
    # the same stepsize is fine for the unbounded stream
    OjaConfig(spec=SPEC2, beta=0.2, n_steps=10, sampler="gaussian")
    with pytest.raises(ValueError, match="n_steps"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=-1)
    with pytest.raises(ValueError, match="unknown sampler"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, sampler="levy")
    with pytest.raises(ValueError, match="record_stride"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, record_stride=0)
    with pytest.raises(ValueError, match="preset"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, init="thermal")
    with pytest.raises(ValueError, match="axis"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, init="saddle:3")
    with pytest.raises(ValueError, match="delta"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, init="warm:1.5")
    with pytest.raises(ValueError, match="radius"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, init="near_saddle:2:2.0")
    # a vector init is checked when the config is built, not when a chain runs
    with pytest.raises(ValueError, match="init vector norm"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, init=[0.0, 0.0])
    with pytest.raises(ValueError, match="shape"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, init=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="init vector must be a finite"):
        OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, init=[math.nan, 1.0])


@pytest.mark.parametrize("init, start", [([1e200, 1.0], [1.0, 1e-200]),
                                         ([1e308, 1e308], [math.sqrt(0.5)] * 2),
                                         ([-1e308, 1.0], [-1.0, 1e-308])])
def test_init_vector_whose_squared_norm_overflows_gives_a_unit_start(init, start):
    # The norm of these vectors overflows; scaled by the largest entry first,
    # they name a direction like any other.
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=10, init=init)
    assert np.all(np.isfinite(cfg._init.start))
    np.testing.assert_allclose(cfg._init.start, start, rtol=1e-15)
    assert abs(np.linalg.norm(cfg._init.start) - 1.0) <= 1e-15
    np.testing.assert_allclose(run_chain(cfg).states[0], start, rtol=1e-15)


def test_resolved_stride():
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=1_000_000)
    assert cfg.resolved_stride() == 100
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=500)
    assert cfg.resolved_stride() == 1
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=500, record_stride=7)
    assert cfg.resolved_stride() == 7


def test_resolve_init_presets():
    sp = make_spectrum([2.0, 1.0, 0.5])
    u = resolve_init(sp, "uniform", chain_rng(0, 0))
    np.testing.assert_array_equal(u, resolve_init(sp, "uniform", chain_rng(0, 0)))
    assert abs(u @ u - 1.0) <= 1e-12

    np.testing.assert_array_equal(resolve_init(sp, "saddle:2", chain_rng(0, 0)),
                                  [0.0, 1.0, 0.0])

    w = resolve_init(sp, "warm:0.75", chain_rng(0, 0))
    assert w[0] ** 2 == pytest.approx(0.25, abs=1e-14)
    assert w[1] ** 2 == pytest.approx(0.375, abs=1e-14)
    assert w[2] ** 2 == pytest.approx(0.375, abs=1e-14)

    eps = 1e-3
    ns = resolve_init(sp, f"near_saddle:2:{eps}", chain_rng(0, 0))
    assert ns[1] ** 2 == pytest.approx(1.0 / (1.0 + eps**2), rel=1e-12)

    explicit = resolve_init(sp, [3.0, 0.0, 4.0], chain_rng(0, 0))
    np.testing.assert_allclose(explicit, [0.6, 0.0, 0.8], rtol=1e-15)


def test_record_steps():
    np.testing.assert_array_equal(record_steps(2050, 1000), [0, 1000, 2000, 2050])
    np.testing.assert_array_equal(record_steps(5, 1), [0, 1, 2, 3, 4, 5])
    np.testing.assert_array_equal(record_steps(10, 20), [0, 10])
    np.testing.assert_array_equal(record_steps(2000, 1000), [0, 1000, 2000])


def test_run_chain_records_and_sin2():
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=300, seed=9, record_stride=100)
    traj = run_chain(cfg)
    np.testing.assert_array_equal(traj.times, [0, 100, 200, 300])
    assert traj.states.shape == (4, 2)
    np.testing.assert_allclose(np.sum(traj.states**2, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.sin2_angle, 1.0 - traj.states[:, 0] ** 2, atol=1e-15)


def test_sin2_keeps_the_tail_mass_after_1_minus_v1sq_underflows():
    # Past ~20k bounded steps the tail mass drops below the spacing of floats
    # near 1, so 1 - v_1^2 would read exactly 0; sin^2 must track the tail.
    cfg = OjaConfig(spec=make_spectrum([2.0, 1.0, 0.5]), beta=1e-3, n_steps=60_000,
                    init="uniform", seed=3, sampler="bounded")
    traj = run_chain(cfg)
    tail = np.sum(traj.states[:, 1:] ** 2, axis=1)
    assert tail[-1] < 1e-40
    assert np.all(traj.sin2_angle > 0.0)
    np.testing.assert_allclose(traj.sin2_angle, tail, rtol=1e-12, atol=0.0)


def test_sin2_angle_matches_the_tail_mass_on_a_long_chain():
    cfg = OjaConfig(spec=make_spectrum([2.0, 1.0, 0.5]), beta=1e-3, n_steps=60_000,
                    init="uniform", seed=3, sampler="bounded")
    traj = run_chain(cfg)
    e1 = np.array([1.0, 0.0, 0.0])
    angles = np.array([sin2_angle(state, e1) for state in traj.states])
    np.testing.assert_allclose(angles, traj.sin2_angle, rtol=1e-12, atol=0.0)


def test_run_chain_deterministic_in_seed():
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=200, seed=5, record_stride=50)
    a = run_chain(cfg)
    b = run_chain(cfg)
    np.testing.assert_array_equal(a.states, b.states)
    c = run_chain(OjaConfig(spec=SPEC2, beta=1e-3, n_steps=200, seed=6, record_stride=50))
    assert not np.array_equal(a.states, c.states)


def test_trajectory_csv_roundtrip(tmp_path):
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=120, seed=4, record_stride=40)
    traj = run_chain(cfg)
    path = tmp_path / "traj.csv"
    traj.table().to_csv(path)
    back = trajectory_from_csv(path, cfg)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.states, traj.states)
    np.testing.assert_array_equal(back.sin2_angle, traj.sin2_angle)


def test_long_run_concentrates_on_top_axis():
    # At beta = 1e-3 the stationary sin^2 level is ~1e-3; after 20k steps from
    # a balanced start essentially every chain sits below 0.01.
    for sampler in ("bounded", "gaussian"):
        finals = []
        for seed in range(15):
            cfg = OjaConfig(
                spec=SPEC2, beta=1e-3, n_steps=20_000,
                init=[1.0, 1.0], seed=seed, sampler=sampler, record_stride=20_000,
            )
            finals.append(run_chain(cfg).sin2_angle[-1])
        assert sum(f < 0.01 for f in finals) >= 14


def test_bounded_chain_never_leaves_equator():
    # Axis samples cannot create a coordinate-1 component when it starts at
    # exactly zero: either s = 0 or the sample has no e_1 part.
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=2000, init="saddle:2",
                    seed=123, sampler="bounded", record_stride=1)
    traj = run_chain(cfg)
    assert np.all(traj.states[:, 0] == 0.0)
