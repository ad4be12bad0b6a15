"""Every public float parameter is checked at the library boundary.

For each float parameter of every public function, the sweep tries NaN, +-inf,
0, -0.0, 1e-300 and 1e300 with the other arguments held at valid values.  Each
call must raise ValueError or return a result whose numbers are all finite.
CI runs this file under ``-W error::RuntimeWarning`` too, so an overflow that
only warns fails it.  The sweep also tries a bool and a numeric string, which
are not real numbers: each call must raise ValueError for them, not cast them.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from oja_diffusion import (
    EnsembleConfig,
    chain_rng,
    OjaConfig,
    OuSpec,
    PhaseThresholds,
    cutoff_ratios,
    empirical_drift,
    equator_ensemble_second_moment,
    increment_parts,
    integrate_rk4,
    logistic_solution,
    make_spectrum,
    minimax_lower_bound,
    ode_crossing_time,
    oja_step,
    ou_ensemble_moments,
    ou_mean_cov,
    phase1_exit_law,
    phase_portrait_experiment,
    predict_crossings,
    prepare_phase_portrait,
    rate_bound_rayleigh,
    rate_bound_sin2,
    rate_report,
    simulate_equator_sde,
    simulate_ou,
    stationary_sin2,
    stepsize_rule,
    table1_rows,
)

VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1e300]
NOT_REAL = [True, "0.5"]

SPEC = make_spectrum([2.0, 1.0])
OU = OuSpec(spec=SPEC, k=1)
V = np.array([0.6, 0.8])
Y = np.array([1.0, 0.5])
LAW = phase1_exit_law(SPEC, 2, 1e-3, 0.25)
SADDLE = OjaConfig(spec=SPEC, beta=1e-2, n_steps=20, init="saddle:2", sampler="gaussian",
                   record_stride=5)
LONG = dataclasses.replace(SADDLE, n_steps=10**6)

# Each entry calls one public function with its named float parameter set to x.
# steps_given_chi is left out: chi is a normal draw, and N(0) = inf is the law's value.
CALLS = {
    "make_spectrum(lambda_1)": lambda x: make_spectrum([x, 1.0]),
    "make_spectrum(lambda_2)": lambda x: make_spectrum([2.0, x]),
    "OjaConfig(beta)": lambda x: OjaConfig(spec=SPEC, beta=x, n_steps=10),
    "OjaConfig(init[0])": lambda x: OjaConfig(spec=SPEC, beta=1e-2, n_steps=10, init=[x, 1.0]),
    "oja_step(beta)": lambda x: oja_step(V, Y, x),
    "increment_parts(beta)": lambda x: increment_parts(V, Y, x),
    "empirical_drift(beta)": lambda x: empirical_drift(SPEC, V, x, 4, chain_rng(0)),
    "logistic_solution(t)": lambda x: logistic_solution(SPEC, V, x),
    "logistic_solution(t[1])": lambda x: logistic_solution(SPEC, V, [0.5, x]),
    "integrate_rk4(t_end)": lambda x: integrate_rk4(SPEC, V, x, 5e-3),
    "integrate_rk4(dt)": lambda x: integrate_rk4(SPEC, V, 0.01, x),
    "ode_crossing_time(delta)": lambda x: ode_crossing_time(SPEC, V, x),
    "ou_mean_cov(u0)": lambda x: ou_mean_cov(OU, x, 1.0),
    "ou_mean_cov(t)": lambda x: ou_mean_cov(OU, 0.3, x),
    "ou_mean_cov(t), unstable k=2": lambda x: ou_mean_cov(OuSpec(spec=SPEC, k=2), 0.3, x),
    "simulate_ou(u0)": lambda x: simulate_ou(OU, x, 0.01, 1e-3, 0),
    "simulate_ou(t_end)": lambda x: simulate_ou(OU, 0.3, x, 1e-3, 0),
    "simulate_ou(dt)": lambda x: simulate_ou(OU, 0.3, 0.01, x, 0),
    "simulate_ou(diffusion_scale)": lambda x: simulate_ou(OU, 0.3, 0.01, 1e-3, 0, x),
    "ou_ensemble_moments(u0)": lambda x: ou_ensemble_moments(OU, x, [0.01], 1e-3, 2, 0),
    "ou_ensemble_moments(t_grid[0])": lambda x: ou_ensemble_moments(OU, 0.3, [x], 1e-3, 2, 0),
    "ou_ensemble_moments(dt)": lambda x: ou_ensemble_moments(OU, 0.3, [0.01], x, 2, 0),
    "stationary_sin2(beta)": lambda x: stationary_sin2(SPEC, x),
    "stationary_sin2(beta), gap 1e-12":
        lambda x: stationary_sin2(make_spectrum([1.0, 1.0 - 1e-12]), x),
    "Phase1ExitLaw(rate)": lambda x: dataclasses.replace(LAW, rate=x).median,
    "Phase1ExitLaw(sigma_w)": lambda x: dataclasses.replace(LAW, sigma_w=x).median,
    "Phase1ExitLaw(beta)": lambda x: dataclasses.replace(LAW, beta=x).median,
    "Phase1ExitLaw(delta)": lambda x: dataclasses.replace(LAW, delta=x).median,
    "Phase1ExitLaw.quantile(q)": lambda x: LAW.quantile(x),
    "phase1_exit_law(beta)": lambda x: phase1_exit_law(SPEC, 2, x, 0.25).median,
    "phase1_exit_law(delta)": lambda x: phase1_exit_law(SPEC, 2, 1e-3, x).median,
    "simulate_equator_sde(u0)": lambda x: simulate_equator_sde(SPEC, [0, 1], x, 0.01, 1e-3, 0),
    "simulate_equator_sde(t_end)": lambda x: simulate_equator_sde(SPEC, [0, 1], 0.1, x, 1e-3, 0),
    "simulate_equator_sde(dt)": lambda x: simulate_equator_sde(SPEC, [0, 1], 0.1, 0.01, x, 0),
    "simulate_equator_sde(diffusion_scale)":
        lambda x: simulate_equator_sde(SPEC, [0, 1], 0.1, 0.01, 1e-3, 0, x),
    "equator_ensemble_second_moment(u0)":
        lambda x: equator_ensemble_second_moment(SPEC, [0, 1], x, [0.01], 1e-3, 2, 0),
    "equator_ensemble_second_moment(t_grid[0])":
        lambda x: equator_ensemble_second_moment(SPEC, [0, 1], 0.1, [x], 1e-3, 2, 0),
    "equator_ensemble_second_moment(dt)":
        lambda x: equator_ensemble_second_moment(SPEC, [0, 1], 0.1, [0.01], x, 2, 0),
    "PhaseThresholds(delta)": lambda x: PhaseThresholds(delta=x),
    "predict_crossings(beta)": lambda x: predict_crossings(SPEC, x, 0.25, 2),
    "predict_crossings(delta)": lambda x: predict_crossings(SPEC, 1e-3, x, 2),
    "cutoff_ratios(beta)": lambda x: cutoff_ratios(SPEC, x, 0.25, 2),
    "cutoff_ratios(delta)": lambda x: cutoff_ratios(SPEC, 1e-3, x, 2),
    "stepsize_rule(t_samples)": lambda x: stepsize_rule(SPEC, x),
    "rate_bound_sin2(t_samples)": lambda x: rate_bound_sin2(SPEC, x),
    "rate_bound_rayleigh(t_samples)": lambda x: rate_bound_rayleigh(SPEC, x),
    "minimax_lower_bound(n)": lambda x: minimax_lower_bound(SPEC, x),
    "minimax_lower_bound(sigma_star2)": lambda x: minimax_lower_bound(SPEC, 1e5, x),
    "table1_rows(b)": lambda x: table1_rows(SPEC, x, 1e5),
    "table1_rows(n)": lambda x: table1_rows(SPEC, 3.0, x),
    "table1_rows(sigma_star2)": lambda x: table1_rows(SPEC, 3.0, 1e5, x),
    "rate_report(t_samples)": lambda x: rate_report(SPEC, x),
    "rate_report(b)": lambda x: rate_report(SPEC, 1e5, b=x),
    "rate_report(sigma_star2)": lambda x: rate_report(SPEC, 1e5, sigma_star2=x),
    "EnsembleConfig(t_grid[0])": lambda x: EnsembleConfig(base=SADDLE, n_chains=2, t_grid=(x,)),
    "EnsembleConfig(t_grid[0]), 10^6 steps":
        lambda x: EnsembleConfig(base=LONG, n_chains=2, t_grid=(0.0, x)),
    "prepare_phase_portrait(delta)": lambda x: prepare_phase_portrait(SADDLE, 2, x),
    "phase_portrait_experiment(delta)":
        lambda x: phase_portrait_experiment(EnsembleConfig(SADDLE, 2, (0.0,)), x),
}


def _numbers(result):
    """Every float or int inside a result: arrays, containers, dataclasses and tables."""
    if isinstance(result, (float, int, np.number)) and not isinstance(result, bool):
        yield float(result)
    elif isinstance(result, np.ndarray):
        for x in result.ravel().tolist():
            yield from _numbers(x)
    elif isinstance(result, dict):
        for x in result.values():
            yield from _numbers(x)
    elif isinstance(result, (list, tuple)):
        for x in result:
            yield from _numbers(x)
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            yield from _numbers(getattr(result, f.name))


CASES = [(call, x) for call in sorted(CALLS) for x in VALUES + NOT_REAL]


# Derandomized, and with room for every case: hypothesis stops once it has run each one.
@settings(derandomize=True, max_examples=2 * len(CASES), deadline=None)
@given(case=st.sampled_from(CASES))
def test_every_float_parameter_raises_value_error_or_gives_finite_numbers(case):
    call, x = case
    try:
        result = CALLS[call](x)
    except ValueError:
        return
    assert not isinstance(x, (bool, str)), f"{call} accepted {x!r}"
    bad = [v for v in _numbers(result) if not math.isfinite(v)]
    assert not bad, f"{call} at x={x!r} returned non-finite numbers {bad[:5]}"
