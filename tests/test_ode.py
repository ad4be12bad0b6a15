"""Flow field, closed-form solution, RK4 cross-check, crossing times."""

import csv
import json
import math

import numpy as np
import pytest

from oja_diffusion import (
    chain_rng,
    integrate_rk4,
    logistic_solution,
    make_spectrum,
    ode_crossing_time,
    ode_rhs,
)
from oja_diffusion.cli import main

SPEC2 = make_spectrum([2.0, 1.0])


def test_rhs_vanishes_at_every_axis():
    sp = make_spectrum([2.0, 1.5, 0.5])
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        assert np.all(ode_rhs(sp, e) == 0.0)


def test_rhs_mixed_state_value():
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    # Rayleigh quotient 1.5, so the field is ((2-1.5) v1, (1-1.5) v2)
    expected = np.array([0.5, -0.5]) / math.sqrt(2.0)
    np.testing.assert_allclose(ode_rhs(SPEC2, v), expected, rtol=1e-14)


def test_rhs_is_tangent_to_sphere():
    rng = chain_rng(31, 0)
    sp = make_spectrum([3.0, 2.0, 1.0, 0.5])
    for _ in range(50):
        g = rng.standard_normal(4)
        v = g / np.linalg.norm(g)
        assert abs(v @ ode_rhs(sp, v)) <= 1e-14


def test_logistic_identity_at_t_zero():
    rng = chain_rng(32, 0)
    g = rng.standard_normal(3)
    v0 = g / np.linalg.norm(g)
    sp = make_spectrum([2.0, 1.0, 0.5])
    np.testing.assert_allclose(logistic_solution(sp, v0, 0.0), v0, atol=1e-15)


def test_logistic_matches_unstabilized_formula():
    # For moderate horizons the naive exponential-reweighting formula is
    # numerically safe and serves as an independent route.
    rng = chain_rng(33, 0)
    sp = make_spectrum([2.0, 1.3, 0.7])
    lam = np.array([2.0, 1.3, 0.7])
    for _ in range(20):
        g = rng.standard_normal(3)
        v0 = g / np.linalg.norm(g)
        t = rng.uniform(0.0, 20.0)
        w = v0 * np.exp(lam * t)
        np.testing.assert_allclose(
            logistic_solution(sp, v0, t), w / np.linalg.norm(w), atol=1e-14
        )


def test_logistic_equator_start_stays_put_at_huge_t():
    # Support restriction keeps coordinates that start at exactly zero out of
    # the exponentials, so no overflow and no spurious escape.
    e2 = np.array([0.0, 1.0])
    out = logistic_solution(SPEC2, e2, 2e4)
    np.testing.assert_array_equal(out, e2)
    mixed = np.array([1e-8, 1.0])
    mixed /= np.linalg.norm(mixed)
    out = logistic_solution(SPEC2, mixed, 2e4)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_logistic_times_must_be_finite_and_nonnegative():
    v0 = np.array([0.6, 0.8])
    assert logistic_solution(SPEC2, v0, 1.0).shape == (2,)
    assert logistic_solution(SPEC2, v0, [0.0, 1.0, 2.0]).shape == (3, 2)
    assert logistic_solution(SPEC2, v0, []).shape == (0, 2)
    for bad in (-1.0, math.nan, math.inf, [0.5, -1e-300], [1.0, math.nan]):
        with pytest.raises(ValueError, match=r"t must be a finite number in \[0, inf\)"):
            logistic_solution(SPEC2, v0, bad)
    with pytest.raises(ValueError, match="initial vector must be nonzero"):
        logistic_solution(SPEC2, [0.0, 0.0], 1.0)


def test_logistic_top_overlap_is_monotone():
    v0 = np.array([0.1, 0.99498743710662])
    ts = np.linspace(0.0, 10.0, 40)
    overlap = [logistic_solution(SPEC2, v0, t)[0] ** 2 for t in ts]
    assert np.all(np.diff(overlap) > 0.0)


def test_rk4_matches_closed_form():
    rng = np.random.default_rng(20260814)
    for _ in range(10):
        d = rng.integers(2, 11)
        lam = np.sort(rng.uniform(0.2, 4.0, d))[::-1]
        lam[0] += 0.1
        sp = make_spectrum(lam)
        g = rng.standard_normal(d)
        v0 = g / np.linalg.norm(g)
        t = rng.uniform(0.1, 10.0)
        dt = min(2e-3, 1e-2 / lam[0])
        err = np.max(np.abs(integrate_rk4(sp, v0, t, dt) - logistic_solution(sp, v0, t)))
        assert err < 1e-8


def test_rk4_axis_start_is_stationary():
    e2 = np.array([0.0, 1.0, 0.0])
    sp = make_spectrum([2.0, 1.5, 0.5])
    np.testing.assert_array_equal(integrate_rk4(sp, e2, 3.0, 2e-3), e2)


def test_rk4_fourth_order_error_decay():
    # Halving dt should divide the error by ~16; the bracket tolerates noise
    # from the renormalization and the remainder step.
    sp = make_spectrum([2.0, 1.2, 0.5])
    v0 = np.array([0.1, 0.3, 0.9])
    v0 /= np.linalg.norm(v0)
    ref = logistic_solution(sp, v0, 2.0)
    e_coarse = np.max(np.abs(integrate_rk4(sp, v0, 2.0, 4e-3) - ref))
    e_fine = np.max(np.abs(integrate_rk4(sp, v0, 2.0, 2e-3) - ref))
    assert 8.0 < e_coarse / e_fine < 32.0


def test_rk4_validation():
    v0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="dt"):
        integrate_rk4(SPEC2, v0, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"dt must be a finite number in \(0, 0.005\]"):
        integrate_rk4(SPEC2, v0, 1.0, 0.01)  # needs dt <= 1e-2/2
    with pytest.raises(ValueError, match=r"t_end must be a finite number in \[0, "):
        integrate_rk4(SPEC2, v0, -1.0, 1e-3)


def _logistic_reference(spec, v0, t):
    # logistic_solution as first written: np.max and np.linalg.norm
    v0 = np.asarray(v0, dtype=float)
    lam = np.asarray(spec.lambdas)
    support = v0 != 0.0
    m = float(np.max(lam[support]))
    w = np.zeros_like(v0)
    w[support] = v0[support] * np.exp((lam[support] - m) * t)
    return w / np.linalg.norm(w)


def _rk4_reference(spec, v0, t_end, dt):
    # integrate_rk4 as first written: ode_rhs per stage, np.linalg.norm per step
    v = np.asarray(v0, dtype=float).copy()
    n_full = int(np.floor(t_end / dt + 1e-12))
    rem = t_end - n_full * dt
    hs = [dt] * n_full + ([rem] if rem > 1e-12 * max(1.0, t_end) else [])
    for h in hs:
        k1 = ode_rhs(spec, v)
        k2 = ode_rhs(spec, v + 0.5 * h * k1)
        k3 = ode_rhs(spec, v + 0.5 * h * k2)
        k4 = ode_rhs(spec, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v /= float(np.linalg.norm(v))
    return v


@pytest.mark.parametrize("d", [2, 3, 5, 50])
def test_flow_solvers_are_bit_identical_to_the_reference_formulas(d):
    rng = chain_rng(34, d)
    lam = np.sort(rng.uniform(0.1, 3.0, d))[::-1]
    lam[0] += 0.5
    sp = make_spectrum(lam)
    for i in range(12):
        v0 = rng.standard_normal(d)
        v0[rng.random(d) < (0.0, 0.5, 0.3)[i % 3]] = 0.0  # starts with zero coordinates
        if i % 3 == 2:
            v0[0] = 0.0  # equator start
        if not v0.any():
            v0[-1] = 1.0
        v0 /= np.linalg.norm(v0)
        for t in (0.0, 0.37, 5.0, 81.0, 500.0):
            np.testing.assert_array_equal(logistic_solution(sp, v0, t),
                                          _logistic_reference(sp, v0, t))
        times = (0.0, 0.37, 5.0, 81.0, 500.0)
        np.testing.assert_array_equal(logistic_solution(sp, v0, np.array(times)),
                                      [_logistic_reference(sp, v0, t) for t in times])
        if i < 3:
            dt = 1e-2 / lam[0]
            np.testing.assert_array_equal(integrate_rk4(sp, v0, 1.23, dt),
                                          _rk4_reference(sp, v0, 1.23, dt))


def test_crossing_time_closed_form():
    # d = 2 admits the explicit answer t = log((1-delta)(1-a)/(delta a))/(2 gap)
    # with a = v1(0)^2; the bisection must reproduce it.
    for a, delta in ((0.25, 0.25), (0.3, 0.1), (0.5, 0.05)):
        v0 = np.array([math.sqrt(a), math.sqrt(1.0 - a)])
        expected = math.log((1.0 - delta) * (1.0 - a) / (delta * a)) / 2.0
        got = ode_crossing_time(SPEC2, v0, delta)
        assert got == pytest.approx(expected, rel=1e-8)


def test_crossing_time_edges():
    assert ode_crossing_time(SPEC2, np.array([0.9, math.sqrt(0.19)]), 0.25) == 0.0
    with pytest.raises(ValueError, match="equator"):
        ode_crossing_time(SPEC2, np.array([0.0, 1.0]), 0.25)
    with pytest.raises(ValueError, match="below the entry"):
        ode_crossing_time(SPEC2, np.array([0.1, math.sqrt(0.99)]), 0.25)
    with pytest.raises(ValueError, match="delta"):
        ode_crossing_time(SPEC2, np.array([0.6, 0.8]), 0.5)


def test_export_curve(tmp_path):
    sp = make_spectrum([2.0, 1.0, 0.5])
    v0 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    grid = [0.0, 0.5, 1.0, 2.0]
    cfg = tmp_path / "ode.json"
    cfg.write_text(json.dumps({"spec": sp.lambdas.tolist(), "v0": v0.tolist(), "t_grid": grid}))
    assert main(["ode", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "ode_curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "v1_sq", "v2_sq", "v3_sq"]
    assert len(rows) == 1 + len(grid)
    for row, t in zip(rows[1:], grid):
        assert float(row[0]) == t
        expect = logistic_solution(sp, v0, t) ** 2
        np.testing.assert_allclose([float(x) for x in row[1:]], expect, atol=1e-15)
