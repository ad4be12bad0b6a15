"""Local OU limits, stationary fluctuation levels, escape law, equator SDE."""

import math
import tracemalloc

import numpy as np
import pytest

from oja_diffusion import (
    OuSpec,
    chain_rng,
    equator_drift_coeff,
    equator_ensemble_second_moment,
    make_spectrum,
    ou_ensemble_moments,
    ou_mean_cov,
    ou_stationary_var,
    phase1_exit_law,
    simulate_equator_sde,
    simulate_ou,
    stationary_sin2,
)
from oja_diffusion.oja import SAMPLE_BLOCK, _DRAW_TILE
from oja_diffusion.sde import _equator_coeffs, _euler_maruyama, _ou_coeffs

SPEC2 = make_spectrum([2.0, 1.0])


def test_ouspec_coefficients():
    sp = make_spectrum([3.0, 2.0, 1.0])
    ou = OuSpec(spec=sp, k=1)
    np.testing.assert_array_equal(ou.other_lambdas, [2.0, 1.0])
    np.testing.assert_array_equal(ou.drift_rates, [1.0, 2.0])
    np.testing.assert_allclose(ou.noise_scales, [math.sqrt(6.0), math.sqrt(3.0)])
    ou = OuSpec(spec=sp, k=2)
    np.testing.assert_array_equal(ou.other_lambdas, [3.0, 1.0])
    np.testing.assert_array_equal(ou.drift_rates, [-1.0, 1.0])
    with pytest.raises(ValueError):
        OuSpec(spec=sp, k=0)
    with pytest.raises(ValueError):
        OuSpec(spec=sp, k=4)


def test_mean_cov_closed_form():
    ou = OuSpec(spec=SPEC2, k=1)
    mean, var = ou_mean_cov(ou, 0.3, 3.0)
    assert mean[0] == pytest.approx(0.3 * math.exp(-3.0), rel=1e-14)
    # var(t) = lam1 lam2 (1 - e^{-2 gap t}) / (2 gap) = 1 - e^{-6}
    assert var[0] == pytest.approx(-math.expm1(-6.0), rel=1e-14)
    mean, var = ou_mean_cov(ou, 0.3, 0.0)
    assert mean[0] == 0.3 and var[0] == 0.0


def test_mean_cov_zero_rate_is_linear_in_t():
    # Around the middle axis of [2,1,1] the rate toward the tied eigenvalue
    # vanishes: variance grows like lam_k lam_i t and the mean freezes.
    sp = make_spectrum([2.0, 1.0, 1.0])
    ou = OuSpec(spec=sp, k=2)
    mean, var = ou_mean_cov(ou, np.array([0.1, 0.2]), 1.7)
    assert var[1] == pytest.approx(1.0 * 1.0 * 1.7, rel=1e-14)
    assert mean[1] == pytest.approx(0.2, rel=1e-14)
    # the coordinate toward lambda_1 is unstable (rate -1): mean inflates
    assert mean[0] == pytest.approx(0.1 * math.exp(1.7), rel=1e-12)


def test_stationary_var():
    ou = OuSpec(spec=SPEC2, k=1)
    np.testing.assert_allclose(ou_stationary_var(ou), [1.0], rtol=1e-15)
    with pytest.raises(ValueError):
        ou_stationary_var(OuSpec(spec=SPEC2, k=2))


def test_simulate_ou_reproducible():
    ou = OuSpec(spec=SPEC2, k=1)
    a = simulate_ou(ou, 0.3, 1.0, 1e-3, seed=5)
    b = simulate_ou(ou, 0.3, 1.0, 1e-3, seed=5)
    np.testing.assert_array_equal(a.states, b.states)
    assert a.seed == 5
    assert a.states.shape == (1001, 1)
    assert a.times[-1] == pytest.approx(1.0)
    c = simulate_ou(ou, 0.3, 1.0, 1e-3, seed=6)
    assert not np.array_equal(a.states, c.states)


def test_simulate_ou_zero_diffusion_is_euler_decay():
    ou = OuSpec(spec=SPEC2, k=1)
    dt = 1e-3
    path = simulate_ou(ou, 1.0, 0.1, dt, seed=0, diffusion_scale=0.0)
    u = 1.0
    for n in range(1, 101):
        u = u + (-1.0 * u) * dt  # drift rate lam1 - lam2 = 1
        assert path.states[n, 0] == pytest.approx(u, rel=1e-12)


def test_simulate_ou_dt_validation():
    ou = OuSpec(spec=SPEC2, k=1)
    with pytest.raises(ValueError, match="dt"):
        simulate_ou(ou, 0.3, 1.0, 0.5, seed=0)


def test_ou_ensemble_moments_match_closed_form():
    ou = OuSpec(spec=SPEC2, k=1)
    grid = [0.5, 1.0]
    m = 400
    dt = 1e-3
    times, mean, var = ou_ensemble_moments(ou, 0.3, grid, dt, m, seed=7)
    np.testing.assert_allclose(times, grid)
    for j, t in enumerate(grid):
        cm, cv = ou_mean_cov(ou, 0.3, t)
        se_mean = math.sqrt(cv[0] / m)
        se_var = cv[0] * math.sqrt(2.0 / (m - 1))
        assert abs(mean[j, 0] - cm[0]) <= 5 * se_mean + 5 * dt * (abs(cm[0]) + 1)
        assert abs(var[j, 0] - cv[0]) <= 5 * se_var + 5 * dt * (cv[0] + 1)


@pytest.mark.filterwarnings("error")  # NaN cast to an integer only warns
def test_ou_ensemble_duplicate_grid_times():
    ou = OuSpec(spec=SPEC2, k=1)
    times, mean, var = ou_ensemble_moments(ou, 0.3, [1.0, 1.0], 1e-3, 50, seed=3)
    assert mean[0, 0] == mean[1, 0]
    assert var[0, 0] == var[1, 0]
    for bad in ([0.1, math.nan], [math.inf], [-math.inf]):
        with pytest.raises(ValueError, match="finite"):
            ou_ensemble_moments(ou, 0.3, bad, 1e-3, 50, seed=3)
    with pytest.raises(ValueError, match="finite"):
        equator_ensemble_second_moment(SPEC2, 0.0, 0.1, [math.nan], 1e-3, 50, seed=3)
    # a finite time whose step count no integer holds
    with pytest.raises(ValueError, match="t_grid"):
        ou_ensemble_moments(ou, 0.3, [1e300], 1e-3, 50, seed=3)


def test_stationary_sin2_values():
    assert stationary_sin2(SPEC2, 1e-3) == pytest.approx(1e-3, rel=1e-14)
    sp = make_spectrum([2.0, 1.0, 1.0])
    assert stationary_sin2(sp, 1e-3) == pytest.approx(2e-3, rel=1e-14)
    sp = make_spectrum([4.0, 1.0])
    beta = 2e-4
    assert stationary_sin2(sp, beta) == pytest.approx(beta * 4.0 / 6.0, rel=1e-14)


def test_phase1_exit_law_reference_values():
    law = phase1_exit_law(SPEC2, k=2, beta=1e-3, delta=0.25)
    assert law.rate == 1.0
    assert law.sigma_w == pytest.approx(1.0, rel=1e-15)
    # N(chi) = (log(sqrt(delta)/(|chi| sigma)) + log(1/beta)/2) / (rate beta)
    expected = (math.log(0.5) + 0.5 * math.log(1e3)) / 1e-3
    assert law.steps_given_chi(1.0) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(2760.7304589311226, rel=1e-12)
    # Standard normal quantiles at 0.75, 0.95 and 0.55, as scipy 1.17.1's norm.ppf gives them;
    # 0.6744897501960817 is the median of |chi|.
    chi_med = 0.6744897501960817
    assert law.median == pytest.approx(law.steps_given_chi(chi_med), rel=1e-13)
    assert law.median == pytest.approx(3154.529258532014, rel=1e-12)
    assert law.quantile(0.10) == pytest.approx(law.steps_given_chi(1.6448536269514722), rel=1e-13)
    assert law.quantile(0.90) == pytest.approx(law.steps_given_chi(0.12566134685507416), rel=1e-13)
    assert law.quantile(0.10) < law.median < law.quantile(0.90)


def test_phase1_exit_law_clamps_and_extremes():
    law = phase1_exit_law(SPEC2, k=2, beta=1e-3, delta=0.25)
    assert law.steps_given_chi(1e9) == 0.0
    assert law.steps_given_chi(0.0) == math.inf


def test_phase1_sample():
    law = phase1_exit_law(SPEC2, k=2, beta=1e-3, delta=0.25)
    draws = law.sample(chain_rng(8, 0), 4000)
    again = law.sample(chain_rng(8, 0), 4000)
    np.testing.assert_array_equal(draws, again)
    assert np.all(draws >= 0.0)
    assert np.median(draws) == pytest.approx(law.median, rel=0.1)


def test_phase1_validation():
    with pytest.raises(ValueError):
        phase1_exit_law(SPEC2, k=1, beta=1e-3, delta=0.25)
    with pytest.raises(ValueError):
        phase1_exit_law(SPEC2, k=2, beta=-1e-3, delta=0.25)
    with pytest.raises(ValueError):
        phase1_exit_law(SPEC2, k=2, beta=1e-3, delta=0.6)


def test_equator_drift_coeff():
    sp = make_spectrum([2.0, 1.0, 0.5])
    assert equator_drift_coeff(sp, np.array([0.0, 1.0, 0.0])) == 1.0
    # convex combination of the tail eigenvalues
    v = np.array([0.0, 0.6, 0.8])
    expected = (1.0 * 0.36 + 0.5 * 0.64) / 1.0
    assert equator_drift_coeff(sp, v) == pytest.approx(expected, rel=1e-14)
    lo = equator_drift_coeff(sp, np.array([0.0, 0.0, 1.0]))
    assert lo == 0.5
    with pytest.raises(ValueError, match="e_1"):
        equator_drift_coeff(sp, np.array([1.0, 0.0, 0.0]))


def test_equator_sde_constant_path_growth():
    # With V frozen at e_2 and no noise, the overlap obeys the Euler
    # recurrence u <- u (1 + gap dt).
    dt = 1e-3
    path = simulate_equator_sde(SPEC2, np.array([0.0, 1.0]), 0.5, 0.1, dt,
                                seed=2, diffusion_scale=0.0)
    u = 0.5
    for n in range(1, 101):
        u = u + 1.0 * u * dt
        assert path.states[n, 0] == pytest.approx(u, rel=1e-12)


def test_equator_sde_callable_path():
    def vee(t):
        return np.array([0.0, math.cos(t), math.sin(t)])

    sp = make_spectrum([2.0, 1.0, 0.5])
    path = simulate_equator_sde(sp, vee, 0.1, 0.5, 1e-3, seed=4)
    assert path.states.shape == (501, 1)
    again = simulate_equator_sde(sp, vee, 0.1, 0.5, 1e-3, seed=4)
    np.testing.assert_array_equal(path.states, again.states)


def test_equator_second_moment_matches_unstable_ou():
    # E[U^2](t) = u0^2 e^{2at} + lam1 lam2 (e^{2at}-1)/(2a) with a = gap = 1.
    m = 600
    dt = 1e-3
    u0 = 0.3
    grid = [0.5, 1.0]
    times, second = equator_ensemble_second_moment(
        SPEC2, np.array([0.0, 1.0]), u0, grid, dt, m, seed=9
    )
    for j, t in enumerate(grid):
        mean = u0 * math.exp(t)
        var = 2.0 * (math.exp(2 * t) - 1.0) / 2.0
        closed = mean**2 + var
        # Var(U^2) = 2 var^2 + 4 mean^2 var for a gaussian U
        se = math.sqrt((2 * var**2 + 4 * mean**2 * var) / m)
        assert abs(second[j] - closed) <= 5 * se + 5 * dt * (closed + 1)


def _euler_maruyama_reference(u, rec_steps, dt, coeffs, rng):
    # _euler_maruyama as a step loop with its own record cursor, one draw per step
    out = np.empty((len(rec_steps),) + u.shape)
    root_dt = math.sqrt(dt)
    pos = 0
    for step in range(int(rec_steps[-1]) + 1):
        if step:
            b, c = coeffs((step - 1) * dt)
            u = u + b * u * dt + c * root_dt * rng.standard_normal(u.shape)
        if step == rec_steps[pos]:
            out[pos] = u
            pos += 1
    return out


def _edge_steps(u, n_blocks):
    # Record steps on both sides of the first block edges, and a last step
    # inside block n_blocks + 1.
    blk = min(SAMPLE_BLOCK, _DRAW_TILE * SAMPLE_BLOCK // u.size)
    edges = [0, 1, blk - 1, blk, blk + 1, 2 * blk - 1, 2 * blk + 1, n_blocks * blk + blk // 2]
    return blk, np.unique(edges)


@pytest.mark.parametrize("u, coeffs, n_blocks", [
    # one OU path; blocks of SAMPLE_BLOCK steps
    (np.array([[0.3, -0.1]]), _ou_coeffs(OuSpec(spec=make_spectrum([3.0, 2.0, 1.0]), k=2), 1.0), 3),
    # 2000 paths of an m=4 OU block; the noise tile cap shortens the blocks
    (np.full((2000, 4), 0.3), _ou_coeffs(OuSpec(spec=make_spectrum([3, 2, 1.5, 1, 0.5]), k=1),
                                         1.0), 4),
    # the equator overlap along a constant path and along a callable that takes only floats
    (np.array([[0.1]]), _equator_coeffs(make_spectrum([2.0, 1.0, 0.5]), np.array([0.0, 0.6, 0.8]),
                                        1.0), 2),
    (np.full((5, 1), 0.1), _equator_coeffs(make_spectrum([2.0, 1.0, 0.5]),
                                           lambda t: np.array([0.0, math.cos(t), math.sin(t)]),
                                           1.0), 2),
], ids=["ou_path", "ou_ensemble", "equator_constant", "equator_callable"])
def test_euler_maruyama_blocks_are_bit_identical_to_the_step_loop(u, coeffs, n_blocks):
    blk, steps = _edge_steps(u, n_blocks)
    assert steps[-1] > n_blocks * blk
    for seed in (0, 1):
        np.testing.assert_array_equal(
            _euler_maruyama(u, steps, 1e-3, coeffs, seed),
            _euler_maruyama_reference(u, steps, 1e-3, coeffs, chain_rng(seed)))


def test_single_paths_are_bit_identical_to_the_step_loop():
    ou = OuSpec(spec=SPEC2, k=1)
    path = simulate_ou(ou, 0.3, 2.5, 1e-3, seed=11)
    steps = np.arange(2501)
    ref = _euler_maruyama_reference(np.array([[0.3]]), steps, 1e-3, _ou_coeffs(ou, 1.0),
                                    chain_rng(11))
    np.testing.assert_array_equal(path.states, ref[:, 0])
    sp = make_spectrum([2.0, 1.0, 0.5])

    def vee(t):
        return np.array([0.0, math.cos(t), math.sin(t)])

    path = simulate_equator_sde(sp, vee, 0.1, 2.5, 1e-3, seed=4)
    ref = _euler_maruyama_reference(np.array([[0.1]]), steps, 1e-3,
                                    _equator_coeffs(sp, vee, 1.0), chain_rng(4))
    np.testing.assert_array_equal(path.states, ref[:, 0])


def test_ensemble_noise_is_drawn_in_bounded_tiles():
    ou = OuSpec(spec=make_spectrum([3, 2, 1.5, 1, 0.5]), k=1)
    tracemalloc.start()
    try:
        ou_ensemble_moments(ou, 0.3, [0.5, 1.0], 1e-3, 2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# Around the bottom axis of [1, 1e-6] the overlap grows at rate ~1, and
# dt = 1e-2 is the largest step allowed: e^t overflows near t = 710.
UNSTABLE = OuSpec(spec=make_spectrum([1.0, 1e-6]), k=2)


@pytest.mark.filterwarnings("error")
def test_overflowing_path_is_a_runtime_fault():
    with pytest.raises(FloatingPointError, match="not finite by step"):
        simulate_ou(UNSTABLE, 0.3, 750.0, 1e-2, seed=1)


@pytest.mark.filterwarnings("error")
def test_overflowing_ensemble_is_a_runtime_fault():
    with pytest.raises(FloatingPointError, match="not finite by step"):
        ou_ensemble_moments(UNSTABLE, 0.3, [1.0, 750.0], 1e-2, 10, seed=1)


@pytest.mark.filterwarnings("error")
def test_overflowing_ensemble_variance_is_a_runtime_fault():
    # The paths stay finite, but past about 1.3e154 their squares do not.
    with pytest.raises(FloatingPointError, match="overflow"):
        ou_ensemble_moments(OuSpec(spec=make_spectrum([2, 1]), k=2), 0.0, [0, 400], 5e-3, 10, 1)
