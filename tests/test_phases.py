"""Crossing predictions, phase detection, stepsize and rate formulas."""

import json
import math

import numpy as np
import pytest

from oja_diffusion import (
    OjaConfig,
    PhaseThresholds,
    crossing_report,
    cutoff_ratios,
    detect_phases,
    make_spectrum,
    minimax_lower_bound,
    ode_crossing_time,
    phase1_exit_law,
    predict_crossings,
    rate_bound_rayleigh,
    rate_bound_sin2,
    rate_report,
    resolve_init,
    run_chain,
    stationary_sin2,
    stepsize_rule,
    table1_rows,
    chain_rng,
)
from oja_diffusion.montecarlo import run_ensemble_states
from oja_diffusion.oja import Trajectory, _sin2, record_steps
from oja_diffusion.phases import _CrossingScan, _detect_crossings, _trailing_window

SPEC2 = make_spectrum([2.0, 1.0])


def test_thresholds_validation():
    PhaseThresholds(0.25)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            PhaseThresholds(bad)


def test_predict_crossings_reference_config():
    pred = predict_crossings(SPEC2, beta=1e-3, delta=0.25, k=2)
    # transit and settle numbers have simple closed forms here
    assert pred.n2_high == pytest.approx(1000.0 * math.log(3.0), rel=1e-14)
    assert pred.n2_low == pred.n2_high  # d = 2: both transit gaps coincide
    assert pred.n3 == pytest.approx(500.0 * math.log(250.0), rel=1e-14)
    # escape quantiles route through the exit law
    law = phase1_exit_law(SPEC2, k=2, beta=1e-3, delta=0.25)
    assert pred.n1_median == law.median
    assert pred.n1_q10 == law.quantile(0.10)
    assert pred.n1_q90 == law.quantile(0.90)
    assert pred.n1_q10 < pred.n1_median < pred.n1_q90


def _ramp_trajectory(n_total, ceiling=1.0):
    # v1^2(n) = min(ceiling, n/1000), recorded every step.  sqrt followed by
    # squaring can land one ulp short of the intended level, so nudge the
    # coordinate up where that happens (the detector squares the state).
    steps = np.arange(n_total + 1)
    v1sq = np.minimum(ceiling, steps / 1000.0)
    v1 = np.sqrt(v1sq)
    v1 = np.where(v1 * v1 < v1sq, np.nextafter(v1, 2.0), v1)
    states = np.column_stack([v1, np.sqrt(1.0 - v1sq)])
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=n_total, record_stride=1)
    return Trajectory(config=cfg, times=steps, states=states, sin2_angle=1.0 - v1sq)


def test_detect_phases_on_monotone_ramp():
    traj = _ramp_trajectory(2500)
    out = detect_phases(traj, PhaseThresholds(0.25))
    assert out.n1 == 250
    assert out.n2 == 500
    # The trailing window holds 1/(beta*gap) = 1000 records and the target
    # level is 2 * stationary = 2e-3.  The window mean over [a, i] is
    # (1000-a)(1001-a)/2e6, first <= 2e-3 at a = 938, i.e. record 1937.
    assert out.n3 == 1937 - 750


def test_detect_phases_absent_cases():
    out = detect_phases(_ramp_trajectory(2500, ceiling=0.1), PhaseThresholds(0.25))
    assert out.n1 is None and out.n2 is None and out.n3 is None
    out = detect_phases(_ramp_trajectory(2500, ceiling=0.3), PhaseThresholds(0.25))
    assert out.n1 == 250
    assert out.n2 is None and out.n3 is None


def test_ensemble_detector_reduces_every_column():
    # The three ramps of the single-chain tests above, stacked as columns of
    # one (n_rec, n_chains) record.
    trajs = [_ramp_trajectory(2500, ceiling=c) for c in (0.1, 0.3, 1.0)]
    crossings = _detect_crossings(
        np.column_stack([t.states[:, 0] ** 2 for t in trajs]),
        np.column_stack([t.sin2_angle for t in trajs]),
        trajs[0].times, trajs[0].config, 0.25,
    )
    found = [tuple(None if n < 0 else n for n in col) for col in crossings.T.tolist()]
    assert found == [(None, None, None), (250, None, None), (250, 500, 1937 - 750)]


def test_detect_phases_equator_stuck_chain():
    # From exactly e_2 the bounded stream never creates coordinate-1 mass, so
    # all three phases stay absent; escape needs gaussian noise or a
    # perturbed start.
    cfg = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=2000, init="saddle:2",
                    seed=1, sampler="bounded", record_stride=10)
    out = detect_phases(run_chain(cfg), PhaseThresholds(0.25))
    assert out.n1 is None and out.n2 is None and out.n3 is None


def test_crossing_report_structure():
    sp3 = make_spectrum([2.0, 1.0, 0.5])
    cfg = OjaConfig(spec=sp3, beta=1e-2, n_steps=1200, init="near_saddle:3:1e-4",
                    seed=3, sampler="gaussian", record_stride=1)
    traj = run_chain(cfg)
    rep = crossing_report(traj, PhaseThresholds(0.25))
    doc = rep.to_json_dict()
    assert set(doc) == {"empirical", "predicted", "config", "note"}
    assert set(doc["empirical"]) == {"N1", "N2", "N3"}
    assert set(doc["predicted"]) == {"N1_median", "N1_q10", "N1_q90",
                                     "N2_low", "N2_high", "N3"}
    # k is inferred from the near_saddle preset
    assert doc["config"]["k"] == 3
    pred = predict_crossings(sp3, 1e-2, 0.25, 3)
    assert doc["predicted"]["N1_median"] == pred.n1_median
    json.loads(json.dumps(rep.to_json_dict()))  # round-trips
    text = rep.to_text()
    assert "N1" in text and "N2" in text and "N3" in text


def test_crossing_report_absent_in_text():
    rep = crossing_report(_ramp_trajectory(2500, ceiling=0.1), PhaseThresholds(0.25), k=2)
    assert "absent" in rep.to_text()


def test_crossing_report_requires_k_for_anonymous_init():
    with pytest.raises(ValueError, match="k is required"):
        crossing_report(_ramp_trajectory(2500), PhaseThresholds(0.25))


def test_stepsize_rule():
    # beta(T) = log T / (gap T)
    assert stepsize_rule(SPEC2, 1e5) == pytest.approx(math.log(1e5) / 1e5, rel=1e-14)
    wide = make_spectrum([3.0, 1.0])
    assert stepsize_rule(wide, 1e5) == pytest.approx(stepsize_rule(SPEC2, 1e5) / 2, rel=1e-14)
    assert stepsize_rule(SPEC2, math.e) == pytest.approx(1.0 / math.e, rel=1e-14)
    with pytest.raises(ValueError):
        stepsize_rule(SPEC2, 2.5)


@pytest.mark.parametrize("t_samples", [math.inf, math.nan, 2.5])
@pytest.mark.parametrize("formula", [stepsize_rule, rate_bound_sin2, rate_bound_rayleigh])
def test_t_samples_must_be_finite_and_at_least_e(formula, t_samples):
    # an infinite horizon is refused for being infinite, not for being too small
    with pytest.raises(ValueError, match=r"t_samples must be a finite number in \[2.71828, inf\)"):
        formula(SPEC2, t_samples)


def test_rate_bound_identity():
    # the sin^2 bound is exactly the stationary level at the tuned stepsize
    for lambdas in ([2.0, 1.0], [2.0, 1.0, 1.0], [3.0, 2.0, 1.0, 0.5]):
        sp = make_spectrum(lambdas)
        for t in (1e3, 1e4, 1e5):
            lhs = rate_bound_sin2(sp, t)
            rhs = stationary_sin2(sp, stepsize_rule(sp, t))
            assert abs(lhs - rhs) <= 1e-14


def test_rate_bound_values():
    assert rate_bound_sin2(SPEC2, 1e5) == pytest.approx(math.log(1e5) / 1e5, rel=1e-12)
    sp = make_spectrum([2.0, 1.0, 1.0])
    assert rate_bound_sin2(sp, 1e5) == pytest.approx(2 * math.log(1e5) / 1e5, rel=1e-12)
    # rayleigh bound: (lam1 * trace - lam1^2)/2 * log T/(gap T)
    expected = (2.0 * 3.0 - 4.0) / 2.0 * math.log(1e5) / 1e5
    assert rate_bound_rayleigh(SPEC2, 1e5) == pytest.approx(expected, rel=1e-12)


def test_minimax_lower_bound():
    # sigma*^2 (d-1)/n with the tight sigma*^2 = lam1 lam2 / gap^2
    assert minimax_lower_bound(SPEC2, 1e5) == 2e-5
    sp = make_spectrum([2.0, 1.0, 1.0])
    assert minimax_lower_bound(sp, 1e5) == pytest.approx(2 * 2e-5, rel=1e-14)
    assert minimax_lower_bound(SPEC2, 1e5, sigma_star2=8.0) == pytest.approx(8e-5, rel=1e-14)
    with pytest.raises(ValueError):
        minimax_lower_bound(SPEC2, 0)


def test_table1_reference_spectrum():
    rows = dict(table1_rows(SPEC2, b=3.0, n=1e5))
    assert list(dict(table1_rows(SPEC2, b=3.0, n=1e5))) == [
        "minimax", "alecton", "block-power", "oja-balsubramani",
        "oja-shamir", "oja-jain", "oja-diffusion",
    ]
    assert rows["oja-diffusion"] == 2e-5  # (lam1/gap) * (lam2/gap) / n exactly
    assert rows["minimax"] == pytest.approx(4e-5, rel=1e-14)
    assert rows["alecton"] == pytest.approx(3.0 * 2.0 * 2.0 / 1e5, rel=1e-14)
    assert rows["block-power"] == pytest.approx(3.0 * 4.0 / 1e5, rel=1e-14)
    assert rows["oja-balsubramani"] == pytest.approx(9.0 / 1e5, rel=1e-14)
    assert rows["oja-shamir"] == pytest.approx(18.0 / 1e5, rel=1e-14)
    assert rows["oja-jain"] == pytest.approx(6.0 / 1e5, rel=1e-14)
    assert all(v > 0 for v in rows.values())


def test_table1_equal_tail_identity():
    for d in (2, 3, 6):
        lam = [2.0] + [1.0] * (d - 1)
        sp = make_spectrum(lam)
        rows = dict(table1_rows(sp, b=sp.trace, n=1e4))
        ratio = rows["oja-diffusion"] / rows["minimax"]
        assert abs(ratio - (d - 1) / d) <= 1e-12
        assert rows["minimax"] <= rows["oja-diffusion"] * d / (d - 1) * (1 + 1e-12)


def test_cutoff_ratios_reference_values():
    # frozen against the formula route below and pinned numerically
    vals = {beta: cutoff_ratios(SPEC2, beta, 0.25, 2) for beta
            in (1e-3, 1e-4, 1e-5, 1e-6)}
    chi_med = 0.6744897501960817  # the median of |chi|: scipy 1.17.1's norm.ppf(0.75)
    for beta, (r21, r31) in vals.items():
        n1 = (math.log(math.sqrt(0.25) / chi_med) + 0.5 * math.log(1 / beta)) / beta
        assert r21 == pytest.approx(math.log(3.0) / beta / n1, rel=1e-12)
        assert r31 == pytest.approx(0.5 * math.log(0.25 / beta) / beta / n1, rel=1e-12)
    assert vals[1e-3][0] == pytest.approx(0.3482650495939157, rel=1e-12)
    assert vals[1e-6][0] == pytest.approx(0.1662446495231342, rel=1e-12)
    # transit shrinks relative to escape as beta -> 0; settle approaches it
    r21s = [vals[b][0] for b in (1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(a > b for a, b in zip(r21s, r21s[1:]))
    r31s = [vals[b][1] for b in (1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(a < b for a, b in zip(r31s, r31s[1:]))
    assert 0.8 < vals[1e-5][1] < 1.25


def test_cutoff_ratios_degenerate_beta():
    with pytest.raises(ValueError, match="median is zero"):
        cutoff_ratios(SPEC2, 2.0, 0.25, 2)


def test_transit_prediction_sandwiches_ode_crossing():
    # The ODE started at the phase-2 entry level v1^2 = delta crosses to
    # 1 - delta in a time bracketed by the two transit displays.
    for lambdas, delta in (([3.0, 2.0, 1.0, 0.5], 0.2), ([2.0, 1.5, 0.7], 0.25)):
        sp = make_spectrum(lambdas)
        beta = 1e-3
        v0 = resolve_init(sp, f"warm:{1.0 - delta}", chain_rng(0, 0))
        steps = ode_crossing_time(sp, v0, delta) / beta
        pred = predict_crossings(sp, beta, delta, 2)
        assert pred.n2_low <= steps * (1 + 1e-9)
        assert steps <= pred.n2_high * (1 + 1e-9)


def test_rate_report():
    rep = rate_report(SPEC2, 1e5)
    doc = rep.to_json_dict()
    assert set(doc) == {"t_samples", "beta_used", "bound_sin2", "bound_rayleigh",
                        "minimax_reference", "table1_rows", "note"}
    assert doc["beta_used"] == stepsize_rule(SPEC2, 1e5)
    assert doc["bound_sin2"] == rate_bound_sin2(SPEC2, 1e5)
    assert doc["minimax_reference"] == 2e-5
    assert dict(doc["table1_rows"])["oja-diffusion"] == 2e-5
    assert "constants" in doc["note"]
    text = rep.to_text()
    assert "oja-diffusion" in text and "minimax" in text
    json.loads(json.dumps(rep.to_json_dict()))


def _whole_record_crossings(v1sq, sin2, steps, cfg, delta):
    """The detector as it ran on the whole (n_rec, n_chains) record at once, kept as the
    reference for the scan: any split of the records must give these crossings."""
    steps = np.asarray(steps)
    rows = np.arange(len(steps))[:, None]
    hit = v1sq >= delta
    found1 = hit.any(axis=0)
    i1 = hit.argmax(axis=0)
    hit = (v1sq >= 1.0 - delta) & (rows >= i1)
    found2 = found1 & hit.any(axis=0)
    i2 = hit.argmax(axis=0)
    window = _trailing_window(cfg, steps)
    trailing = np.cumsum(sin2, axis=0)
    for end in range(len(trailing), window, -window):
        start = max(window, end - window)
        trailing[start:end] -= trailing[start - window:end - window]
    trailing /= np.minimum(rows + 1, window)
    hit = (rows > i2) & (trailing <= 2.0 * stationary_sin2(cfg.spec, cfg.beta))
    found3 = found2 & hit.any(axis=0)
    i3 = hit.argmax(axis=0)
    n1 = steps[i1]
    return np.where(
        [found1, found2, found3], [n1, steps[i2] - n1, steps[i3] - steps[i2]], -1
    )


def _scan_in_chunks(v1sq, sin2, steps, cfg, delta, chunk):
    scan = _CrossingScan(steps, cfg, delta, v1sq.shape[1])
    for lo in range(0, len(steps), chunk):
        scan.feed(v1sq[lo:lo + chunk], sin2[lo:lo + chunk])
    return scan.crossings()


def _assert_scan_matches_whole_record(v1sq, sin2, steps, cfg, delta, extra_chunks=()):
    expected = _whole_record_crossings(v1sq, sin2, steps, cfg, delta)
    window = _trailing_window(cfg, np.asarray(steps))
    for chunk in {1, 7, window - 1, window, window + 1, len(steps), *extra_chunks} - {0}:
        found = _scan_in_chunks(v1sq, sin2, steps, cfg, delta, chunk)
        assert found.dtype == expected.dtype and np.array_equal(found, expected), chunk
    return expected


def test_scan_matches_whole_record_on_ramps_split_at_their_crossings():
    # Chains that never reach N1, reach only N1, and reach all three, at
    # crossing rows 250, 750 and 1937; chunks that start or end at each of them.
    trajs = [_ramp_trajectory(2500, ceiling=c) for c in (0.1, 0.3, 1.0)]
    v1sq = np.column_stack([t.states[:, 0] ** 2 for t in trajs])
    sin2 = np.column_stack([t.sin2_angle for t in trajs])
    found = _assert_scan_matches_whole_record(v1sq, sin2, trajs[0].times, trajs[0].config, 0.25,
                                              (250, 251, 750, 751, 1937, 1938))
    assert found.T.tolist() == [[-1, -1, -1], [250, -1, -1], [250, 500, 1937 - 750]]


@pytest.mark.parametrize("lambdas, stride", [([2.0, 1.0], 1), ([3.0, 2.0, 1.0], 3),
                                             (list(range(9, 0, -1)), 1)])
def test_scan_matches_whole_record_on_ensembles(lambdas, stride):
    base = OjaConfig(spec=make_spectrum(lambdas), beta=2e-2, n_steps=500,
                     init="near_saddle:2:1e-3", seed=len(lambdas), sampler="gaussian",
                     record_stride=stride)
    steps = record_steps(base.n_steps, stride)
    states = run_ensemble_states(base, 12, steps)
    v1sq, sin2 = states[:, :, 0] ** 2, _sin2(states)
    rows = _whole_record_crossings(v1sq, sin2, steps, base, 0.25)
    # Chunks whose boundaries fall on chain 0's first-hit rows, and one row later.
    hit_rows = [int(np.searchsorted(steps, s)) for s in np.cumsum(rows[:, 0]) if s >= 0]
    found = _assert_scan_matches_whole_record(v1sq, sin2, steps, base, 0.25,
                                              [r + e for r in hit_rows for e in (0, 1)])
    assert (found >= 0).any(axis=1).all()  # every phase is reached by some chain
    # One chain alone, through detect_phases (the scan fed once).
    traj = Trajectory(config=base, times=steps, states=states[:, 0], sin2_angle=sin2[:, 0])
    emp = detect_phases(traj, PhaseThresholds(0.25))
    assert [emp.n1, emp.n2, emp.n3] == [None if n < 0 else n for n in found[:, 0].tolist()]
