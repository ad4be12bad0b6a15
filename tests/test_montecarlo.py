"""Ensemble engine determinism and the four canned experiments."""

import math
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from oja_diffusion import (
    EnsembleConfig,
    OjaConfig,
    PhaseThresholds,
    crossing_report,
    ensemble_summary,
    finite_sample_experiment,
    logistic_solution,
    make_spectrum,
    montecarlo,
    ode_convergence_experiment,
    ou_mean_cov,
    phase_portrait_experiment,
    rate_bound_sin2,
    run_chain,
    run_ensemble_states,
    sde_covariance_experiment,
    stepsize_rule,
)
from oja_diffusion.montecarlo import (
    FieldError,
    Table,
    _worker_count,
    grid_to_steps,
    prepare_finite_sample,
    prepare_ode_convergence,
    prepare_phase_portrait,
    prepare_sde_covariance,
)
from oja_diffusion.oja import _CSV_CHUNK, Trajectory, _sin2, record_steps
from oja_diffusion.phases import detect_phases
from oja_diffusion.sde import OuSpec
from oja_diffusion.spectrum import GAUSSIAN_SAMPLER_NOTE, derive_seed

SPEC2 = make_spectrum([2.0, 1.0])


def test_grid_to_steps():
    np.testing.assert_array_equal(grid_to_steps([0.5, 1.0, 2.0], 1e-3, 2000),
                                  [500, 1000, 2000])
    # times sitting a hair below a step boundary still map onto it
    np.testing.assert_array_equal(grid_to_steps([0.9999999999], 1e-3, 2000), [1000])
    np.testing.assert_array_equal(grid_to_steps([0.0005], 1e-3, 2000), [0])
    # a horizon past 2**62 steps is refused, not cast past the int64 range
    with pytest.raises(ValueError, match="n_steps"):
        grid_to_steps([1e15], 1e-5, 10**30)
    # a bool or a numeric string is not a time
    for bad in (["0.5", 1.0], [0.5, True], np.array([True])):
        with pytest.raises(ValueError, match="t_grid"):
            grid_to_steps(bad, 1e-2, 500)


@pytest.mark.filterwarnings("error")  # NaN cast to an integer only warns
def test_ensemble_config_validation():
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=1000)
    with pytest.raises(ValueError, match="n_chains"):
        EnsembleConfig(base=base, n_chains=0, t_grid=(0.5,))
    with pytest.raises(ValueError, match="grid"):
        EnsembleConfig(base=base, n_chains=5, t_grid=())
    with pytest.raises(ValueError, match="nondecreasing"):
        EnsembleConfig(base=base, n_chains=5, t_grid=(1.0, 0.5))
    with pytest.raises(ValueError, match="n_steps"):
        EnsembleConfig(base=base, n_chains=5, t_grid=(5.0,))
    for bad in ((math.nan,), (0.5, math.nan), (math.inf,)):
        with pytest.raises(ValueError, match="finite"):
            EnsembleConfig(base=base, n_chains=5, t_grid=bad)
    # a finite time whose step count no integer holds
    with pytest.raises(ValueError, match="beyond n_steps"):
        EnsembleConfig(base=base, n_chains=5, t_grid=(0.5, 1e300))


def test_ensemble_worker_invariance(always_fork):
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=1500, seed=17)
    rec = np.array([0, 700, 1500])
    a = run_ensemble_states(base, 9, rec, workers=1)
    b = run_ensemble_states(base, 9, rec, workers=3)
    c = run_ensemble_states(base, 9, rec, workers=4)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)
    assert a.shape == (3, 9, 2)


def test_worker_count_is_capped_by_cpus_and_chains():
    # The cap is checked on the computed count: no pool is started here.
    cpus = os.cpu_count() or 1
    assert _worker_count(10**6, 10**9, 1) == cpus
    assert _worker_count(10**6, 6, 10**6) == min(cpus, 3)
    assert _worker_count(4, 3, 10**6) == 1
    assert _worker_count(1, 10**6, 1) == 1


@pytest.mark.parametrize("n_steps, forks", [(4999, False), (5000, True)])
def test_only_an_ensemble_of_enough_chain_steps_forks(monkeypatch, n_steps, forks):
    # 100 chains to step 5000 are exactly montecarlo._FORK_MIN_CHAIN_STEPS:
    # one step fewer runs in the caller, whatever the workers.
    assert 100 * 5000 == montecarlo._FORK_MIN_CHAIN_STEPS
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=n_steps, init="uniform", seed=8)
    rec = np.array([0, 2500, n_steps])
    serial = run_ensemble_states(base, 100, rec, workers=1)
    forked, fork = [], os.fork

    def counted_fork():
        forked.append(os.getpid())
        return fork()

    def no_fork():
        raise AssertionError("an ensemble below the threshold forked")

    monkeypatch.setattr(os, "fork", counted_fork if forks else no_fork)
    for workers in (2, 3):
        np.testing.assert_array_equal(run_ensemble_states(base, 100, rec, workers=workers),
                                      serial)
    assert len(forked) == (_worker_count(2, 100, 5000) + _worker_count(3, 100, 5000) if forks
                           else 0)
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [0, -5, 1.5, "2"])
def test_ensemble_states_rejects_bad_worker_counts(workers):
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=100, seed=1)
    with pytest.raises(ValueError, match=r"workers must be an integer in \[1, inf\)"):
        run_ensemble_states(base, 4, np.array([0, 50]), workers=workers)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_faults_reach_the_caller(always_fork):
    # The overflow is detected in the worker processes; the caller then reruns
    # the chains serially, which raises the serial run's FloatingPointError.
    cfg = OjaConfig(spec=SPEC2, beta=1e300, n_steps=50, init="warm:0.5", sampler="gaussian")
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="unit sphere"):
        run_ensemble_states(cfg, 4, np.array([0, 25, 50]), workers=2)
    _assert_no_child_left()


@pytest.mark.parametrize("die", [lambda: os._exit(9),
                                 lambda: os.kill(os.getpid(), signal.SIGKILL)],
                         ids=["exit-9", "sigkill"])
def test_a_dead_worker_gives_the_serial_states(monkeypatch, always_fork, die):
    # Every forked child dies before writing a state; the caller reruns the
    # chains serially and returns what one worker gives.
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=300, seed=5, sampler="gaussian")
    rec = np.array([0, 150, 300])
    serial = run_ensemble_states(base, 6, rec, workers=1)
    parent, kernel = os.getpid(), montecarlo._run_lockstep

    def dies_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            die()
        return kernel(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_run_lockstep", dies_in_a_child)
    np.testing.assert_array_equal(run_ensemble_states(base, 6, rec, workers=2), serial)
    _assert_no_child_left()


def test_ensemble_chain_zero_equals_run_chain(always_fork):
    # Chains are seeded by index, so the ensemble's first chain is the
    # single-chain runner with the same master seed.
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=2050, init="uniform",
                     seed=99, sampler="gaussian")
    states = run_ensemble_states(base, 4, np.array([0, 1000, 2000, 2050]), workers=2)
    traj = run_chain(OjaConfig(spec=SPEC2, beta=1e-3, n_steps=2050, init="uniform",
                               seed=99, sampler="gaussian", record_stride=1000))
    np.testing.assert_array_equal(traj.times, [0, 1000, 2000, 2050])
    np.testing.assert_array_equal(states[:, 0, :], traj.states)


@pytest.mark.parametrize("n_chains", [0, -3, 2.5, "4", float("inf")])
def test_ensemble_states_rejects_bad_chain_counts(n_chains):
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=100, seed=1)
    with pytest.raises(ValueError, match=r"n_chains must be an integer in \[1, inf\)"):
        run_ensemble_states(base, n_chains, np.array([0, 50]))


def test_ensemble_rejects_unsorted_record_steps():
    # Only a nonempty 1-D integer array, strictly increasing within [0, n_steps],
    # passes: no fractional or textual step is rounded or parsed into another,
    # and a wrapped difference of unsigned steps does not pass for an increase.
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=1000, seed=1)
    for rec in ([500, 100], [0.999999], [-0.5, 3], ["3"], [1e30], [[1, 2]], 10, [],
                [[1], [1, 2]], [True, False], [-1, 3], [0, 1001], [3, 3],
                np.array([5, 3], dtype=np.uint64), [2**64 - 1]):
        with pytest.raises(ValueError, match=r"^record steps must be a nonempty, strictly "
                                             r"increasing 1-D integer array in \[0, 1000\], got "):
            run_ensemble_states(base, 3, rec)


def test_ensemble_takes_record_steps_of_any_integer_dtype():
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=300, seed=1)
    ref = run_ensemble_states(base, 2, np.array([0, 7, 300]))
    for rec in ([0, 7, 300], np.array([0, 7, 300], dtype=np.uint16)):
        np.testing.assert_array_equal(run_ensemble_states(base, 2, rec), ref)


def test_ensemble_summary_statistics():
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=800, seed=23)
    cfg = EnsembleConfig(base=base, n_chains=40, t_grid=(0.3, 0.8))
    summ = ensemble_summary(cfg)
    states = run_ensemble_states(base, 40, np.array([300, 800]))
    v1sq = states[:, :, 0] ** 2
    np.testing.assert_array_equal(summ.steps, [300, 800])
    np.testing.assert_allclose(summ.mean_v1sq, v1sq.mean(axis=1), rtol=1e-14)
    np.testing.assert_allclose(
        summ.se_v1sq, v1sq.std(axis=1, ddof=1) / np.sqrt(40), rtol=1e-12
    )
    sin2 = 1.0 - v1sq
    np.testing.assert_allclose(summ.mean_sin2, sin2.mean(axis=1), rtol=1e-12)
    tab = summ.table()
    assert tab.columns[0] == "t"
    assert len(tab.rows) == 2


def test_table_to_csv(tmp_path):
    # Longer than one write chunk, so the chunk boundaries are crossed.
    n = 2 * _CSV_CHUNK + 3
    floats = [0.1 * i - 7.0 for i in range(n)]
    floats[1] = np.float64(0.1)  # a numpy float reads as a plain float
    floats[2] = 1e-300
    ints = np.arange(n) - 5
    flags = np.arange(n) % 3 == 0
    maybe = [None if i % 4 else 1.0 / (i + 1) for i in range(n)]
    tab = Table(columns=("a", "b", "c", "d"), data=(floats, ints, flags, maybe))
    expected = [("a", "b", "c", "d")] + [
        (repr(float(a)), repr(int(b)), repr(bool(c)), "" if d is None else repr(d))
        for a, b, c, d in zip(floats, ints, flags, maybe)
    ]
    path = tmp_path / "t.csv"
    tab.to_csv(path)
    with open(path, newline="") as fh:
        assert fh.read() == "".join(",".join(row) + "\r\n" for row in expected)
    assert tab.rows == [(float(a), int(b), bool(c), d)
                        for a, b, c, d in zip(floats, ints, flags, maybe)]
    assert all(type(x) in (float, int, bool, type(None)) for row in tab.rows for x in row)


def test_table_rejects_ragged_columns():
    with pytest.raises(ValueError, match="common length"):
        Table(columns=("a", "b"), data=([1.0, 2.0], [1.0]))
    with pytest.raises(ValueError, match="common length"):
        Table(columns=("a", "b"), data=([1.0, 2.0],))


def test_ode_convergence_experiment():
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=2000, init="warm:0.75", seed=3)
    cfg = EnsembleConfig(base=base, n_chains=80, t_grid=(0.5, 1.0, 2.0))
    res = ode_convergence_experiment(cfg)
    assert res.name == "ode_convergence"
    tab = res.tables["table"]
    assert tab.columns == ("t", "step", "mean_v1sq", "ode_v1sq", "abs_diff", "se_v1sq")
    assert res.summary["sup_abs_diff"] < 0.05
    # the ODE column is the closed-form curve
    v0 = np.sqrt([0.25, 0.75])
    for row in tab.rows:
        assert row[3] == pytest.approx(logistic_solution(SPEC2, v0, row[0])[0] ** 2,
                                       rel=1e-12)


def test_ode_convergence_rejects_equator_init():
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=1000, init="saddle:2", seed=3)
    with pytest.raises(ValueError, match="equator"):
        ode_convergence_experiment(EnsembleConfig(base=base, n_chains=5, t_grid=(0.5,)))


def test_sde_covariance_experiment():
    base = OjaConfig(spec=SPEC2, beta=1e-4, n_steps=30_000, init="saddle:1",
                     seed=3, sampler="gaussian")
    cfg = EnsembleConfig(base=base, n_chains=200, t_grid=(1.0, 3.0))
    res = sde_covariance_experiment(cfg, k=1)
    tab = res.tables["table"]
    assert tab.columns == ("t", "coord", "emp_mean", "emp_var",
                           "closed_mean", "closed_var", "rel_dev_var", "included")
    assert res.summary["n_cells_included"] == 2
    assert res.summary["max_rel_dev_var"] < 0.4  # loose at 200 chains
    assert res.summary["sampler_note"] == GAUSSIAN_SAMPLER_NOTE
    # closed-form column: stationary-approach variance of the stable OU
    row = [r for r in tab.rows if r[0] == 3.0][0]
    assert row[5] == pytest.approx(-np.expm1(-6.0), rel=1e-12)


def test_sde_covariance_table_matches_a_per_cell_loop():
    # d=3 around e_2: a stable and an unstable coordinate, and cells on both
    # sides of the noise floor (the t=0 cells have closed_var 0).
    base = OjaConfig(spec=make_spectrum([3.0, 1.0, 0.5]), beta=1e-3, n_steps=400,
                     init="saddle:2", seed=2, sampler="gaussian")
    cfg = EnsembleConfig(base=base, n_chains=30, t_grid=(0.0, 0.01, 0.3, 0.3))
    res = sde_covariance_experiment(cfg, k=2)
    states = run_ensemble_states(base, 30, np.array([0, 10, 300]))[[0, 1, 2, 2]]
    ou = OuSpec(spec=base.spec, k=2)
    rows = []
    for j, t in enumerate(cfg.t_grid):
        u = states[j][:, [0, 2]] / np.sqrt(base.beta)
        mean, var = u.mean(axis=0), u.var(axis=0, ddof=1)
        mean_c, var_c = ou_mean_cov(ou, 0.0, t)
        for m, coord in enumerate((1, 3)):
            included = bool(var_c[m] >= base.beta)
            rel = float(abs(var[m] - var_c[m]) / var_c[m]) if included else None
            rows.append((t, coord, float(mean[m]), float(var[m]), float(mean_c[m]),
                         float(var_c[m]), rel, included))
    assert res.tables["table"].rows == rows
    rels = [r[6] for r in rows if r[7]]
    assert 0 < len(rels) < len(rows)
    assert res.summary["max_rel_dev_var"] == max(rels)
    assert res.summary["n_cells_included"] == len(rels)


def test_finite_sample_table_matches_a_per_horizon_loop():
    res = finite_sample_experiment(SPEC2, [100, 300], 20, seed=5)
    rows = []
    for j, t in enumerate((100, 300)):
        base = OjaConfig(spec=SPEC2, beta=stepsize_rule(SPEC2, t), n_steps=t, init="uniform",
                         seed=derive_seed(5, j), sampler="gaussian")
        sin2 = _sin2(run_ensemble_states(base, 20, np.array([t]))[0])
        mean = float(sin2.mean())
        bound = rate_bound_sin2(SPEC2, t)
        rows.append((t, base.beta, mean, float(sin2.std(ddof=1) / np.sqrt(20)), bound,
                     mean / bound))
    assert res.tables["table"].rows == rows
    assert res.summary["ratios"] == [r[5] for r in rows]


def test_sde_covariance_rejects_bounded_stream():
    base = OjaConfig(spec=SPEC2, beta=1e-4, n_steps=30_000, init="saddle:1",
                     seed=3, sampler="bounded")
    with pytest.raises(ValueError, match="gaussian"):
        sde_covariance_experiment(EnsembleConfig(base=base, n_chains=5, t_grid=(1.0,)), k=1)


def test_sde_covariance_rejects_random_init():
    base = OjaConfig(spec=SPEC2, beta=1e-4, n_steps=30_000, init="uniform",
                     seed=3, sampler="gaussian")
    with pytest.raises(ValueError, match="deterministic init"):
        sde_covariance_experiment(EnsembleConfig(base=base, n_chains=5, t_grid=(1.0,)), k=1)


def test_finite_sample_experiment():
    res = finite_sample_experiment(SPEC2, [1000, 10_000], 100, seed=5)
    assert res.summary["sampler"] == "gaussian"  # default stream
    tab = res.tables["table"]
    assert tab.columns == ("t_samples", "beta", "mean_sin2", "se_sin2",
                           "bound_sin2", "ratio")
    for row in tab.rows:
        assert row[1] == stepsize_rule(SPEC2, row[0])
        assert row[4] == rate_bound_sin2(SPEC2, row[0])
        assert row[5] > 0.0
    # more samples, smaller error
    means = [row[2] for row in tab.rows]
    assert means[1] < means[0]
    # explicit bounded stream is allowed (its ratios collapse; documented in
    # the experiment docstring)
    res_b = finite_sample_experiment(SPEC2, [1000], 50, seed=5, sampler="bounded")
    assert res_b.summary["sampler"] == "bounded"


def test_phase_portrait_experiment():
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=12_000,
                     init="near_saddle:2:1e-6", seed=11, sampler="gaussian")
    cfg = EnsembleConfig(base=base, n_chains=40, t_grid=(1.0,))
    res = phase_portrait_experiment(cfg, delta=0.25)
    assert set(res.tables) == {"curve", "crossings"}
    assert res.tables["crossings"].columns == ("chain", "n1", "n2", "n3")
    assert len(res.tables["crossings"].rows) == 40
    s = res.summary
    assert s["n_detected_n1"] == 40
    pred = s["predicted"]
    assert 0.5 * pred["N1_median"] < s["n1_median_empirical"] < 2.0 * pred["N1_median"]
    assert 0.5 * pred["N2_high"] < s["n2_median_empirical"] < 2.0 * pred["N2_high"]
    assert 0.5 * pred["N3"] < s["n3_median_empirical"] < 2.0 * pred["N3"]
    assert 0.2 < s["plateau_median"] / s["stationary_sin2"] < 5.0


def test_phase_portrait_matches_per_record_and_per_chain_reductions():
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=12_000,
                     init="near_saddle:2:1e-6", seed=11, sampler="gaussian")
    res = phase_portrait_experiment(EnsembleConfig(base=base, n_chains=40, t_grid=(1.0,)),
                                    delta=0.25)
    steps = record_steps(base.n_steps, base.resolved_stride())
    states = run_ensemble_states(base, 40, steps)
    sin2 = _sin2(states)
    assert res.tables["curve"].rows == [
        (int(s), float(np.median(row)), float(np.quantile(row, 0.25)),
         float(np.quantile(row, 0.75)))
        for s, row in zip(steps, sin2)
    ]
    for c, row in enumerate(res.tables["crossings"].rows):
        traj = Trajectory(config=base, times=steps, states=states[:, c], sin2_angle=sin2[:, c])
        emp = detect_phases(traj, PhaseThresholds(0.25))
        assert row == (c, emp.n1, emp.n2, emp.n3)


@pytest.mark.parametrize("workers", [1, 2])
def test_phase_portrait_does_not_depend_on_its_chunk(monkeypatch, always_fork, workers):
    # The portrait reduces montecarlo._CHUNK records at a time; any chunk, and any
    # worker count, gives the same tables and summary.
    base = OjaConfig(spec=SPEC2, beta=2e-2, n_steps=600, init="near_saddle:2:1e-3", seed=5,
                     sampler="gaussian", record_stride=1)
    ens = EnsembleConfig(base=base, n_chains=6, t_grid=(0.0,))
    expected = phase_portrait_experiment(ens, 0.25)
    assert expected.summary["n_detected_n3"] > 0
    for chunk in (1, 7, montecarlo._CHUNK):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        res = phase_portrait_experiment(ens, 0.25, workers=workers)
        assert res.summary == expected.summary
        for name, table in expected.tables.items():
            assert res.tables[name].rows == table.rows


def test_experiment_deterministic_and_writable(tmp_path, always_fork):
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=1000, init="warm:0.75", seed=3)
    cfg = EnsembleConfig(base=base, n_chains=30, t_grid=(0.5, 1.0))
    a = ode_convergence_experiment(cfg, workers=2)
    b = ode_convergence_experiment(cfg, workers=1)
    assert a.tables["table"].rows == b.tables["table"].rows
    paths = {key: tmp_path / f"{a.name}_{key}.csv" for key in a.tables}
    for key, table in a.tables.items():
        table.to_csv(paths[key])
    assert set(paths) == {"table"}
    for p in paths.values():
        assert os.path.exists(p) and str(p).endswith(".csv")


def test_variance_experiments_need_two_chains():
    # One chain has no ddof=1 variance: the fit would be NaN, not a number to report.
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=50, init="saddle:1", seed=1,
                     sampler="gaussian")
    with pytest.raises(ValueError, match=r"n_chains must be an integer in \[2, inf\)"):
        sde_covariance_experiment(EnsembleConfig(base=base, n_chains=1, t_grid=(0.05,)), 1)
    with pytest.raises(ValueError, match=r"n_chains must be an integer in \[2, inf\)"):
        finite_sample_experiment(SPEC2, [100], 1, seed=1)


def test_ode_convergence_needs_two_chains():
    # One chain has no standard error: se_v1sq would read 0, as if exact.
    base = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=1000, init="warm:0.75", seed=3)
    with pytest.raises(ValueError, match=r"n_chains must be an integer in \[2, inf\)"):
        ode_convergence_experiment(EnsembleConfig(base=base, n_chains=1, t_grid=(0.5, 1.0)))


@pytest.mark.parametrize("sampler", ["bounded", "gaussian"])
def test_crossing_report_and_experiments_share_one_config_echo(sampler):
    # Every echo formats the chain fields alike, and a Gaussian one carries
    # the sampler note, the crossing report included.
    base = OjaConfig(spec=SPEC2, beta=1e-2, n_steps=300, init=np.array([0.6, 0.8]),
                     seed=3, sampler=sampler, record_stride=1)
    chain = {"spec": [2.0, 1.0], "beta": 1e-2, "n_steps": 300, "init": [0.6, 0.8],
             "seed": 3, "sampler": sampler}
    if sampler == "gaussian":
        chain["sampler_note"] = GAUSSIAN_SAMPLER_NOTE
    report = crossing_report(run_chain(base), PhaseThresholds(0.25), k=2)
    assert report.config == {**chain, "delta": 0.25, "k": 2}
    ens = EnsembleConfig(base=base, n_chains=3, t_grid=(1.0,))
    portrait = phase_portrait_experiment(ens, 0.25, k=2)
    assert portrait.config_echo == {**chain, "n_chains": 3, "delta": 0.25, "k": 2}
    flow = ode_convergence_experiment(ens)
    assert flow.config_echo == {**chain, "n_chains": 3, "t_grid": [1.0]}


# Valid chain configs for the prepare_* contract below.
WARM = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=100, init="warm:0.75", seed=1)
AT_E1 = OjaConfig(spec=SPEC2, beta=1e-3, n_steps=100, init="saddle:1", seed=1, sampler="gaussian")
NEAR_E2 = replace(AT_E1, init="near_saddle:2:1e-4")


def _ens(base, n_chains=4):
    return EnsembleConfig(base=base, n_chains=n_chains, t_grid=(0.05,))


# (config key a bad input names, or None for valid inputs; the prepare call), by id
PREPARE_CASES = {
    "ode_convergence": (None, lambda: prepare_ode_convergence(_ens(WARM))),
    "sde_covariance": (None, lambda: prepare_sde_covariance(_ens(AT_E1), 1)),
    "finite_sample": (None, lambda: prepare_finite_sample(SPEC2, [100, 300.0], 2, seed=1)),
    "phase_portrait-one-chain": (None, lambda: prepare_phase_portrait(NEAR_E2, 1, 0.25)),
    "ode_convergence-one-chain": ("n_chains", lambda: prepare_ode_convergence(_ens(WARM, 1))),
    "sde_covariance-one-chain": ("n_chains",
                                 lambda: prepare_sde_covariance(_ens(AT_E1, 1), 1)),
    "finite_sample-one-chain": ("n_chains",
                                lambda: prepare_finite_sample(SPEC2, [100], 1, seed=1)),
    "phase_portrait-no-chains": ("n_chains", lambda: prepare_phase_portrait(NEAR_E2, 0, 0.25)),
    "ode_convergence-random-init": (
        "init", lambda: prepare_ode_convergence(_ens(replace(WARM, init="uniform")))),
    "ode_convergence-equator-init": (
        "init", lambda: prepare_ode_convergence(_ens(replace(WARM, init="saddle:2")))),
    "sde_covariance-random-init": ("init", lambda: prepare_sde_covariance(_ens(NEAR_E2), 2)),
    "sde_covariance-init-not-e_k": ("init", lambda: prepare_sde_covariance(_ens(AT_E1), 2)),
    "sde_covariance-bounded": (
        "sampler", lambda: prepare_sde_covariance(_ens(replace(AT_E1, sampler="bounded")), 1)),
    "finite_sample-unknown-sampler": (
        "sampler", lambda: prepare_finite_sample(SPEC2, [100], 2, seed=1, sampler="foo")),
    "fractional-t_list": ("t_list", lambda: prepare_finite_sample(SPEC2, [1000.7], 2, seed=1)),
    "bool-t_list": ("t_list", lambda: prepare_finite_sample(SPEC2, [True, 100], 2, seed=1)),
    "short-t_list": ("t_list", lambda: prepare_finite_sample(SPEC2, [100, 99], 2, seed=1)),
    "empty-t_list": ("t_list", lambda: prepare_finite_sample(SPEC2, [], 2, seed=1)),
    "inf-t_list": ("t_list", lambda: prepare_finite_sample(SPEC2, [math.inf], 2, seed=1)),
    "nan-t_list": ("t_list", lambda: prepare_finite_sample(SPEC2, [100, math.nan], 2, seed=1)),
    "t_list-bounded-cap": ("t_list", lambda: prepare_finite_sample(
        make_spectrum([1.0, 0.99]), [100], 2, seed=1, sampler="bounded")),
    "delta-0.5": ("delta", lambda: prepare_phase_portrait(NEAR_E2, 4, 0.5)),
    "nan-delta": ("delta", lambda: prepare_phase_portrait(NEAR_E2, 4, math.nan)),
    "k-1": ("k", lambda: prepare_phase_portrait(NEAR_E2, 4, 0.25, k=1)),
    "text-k": ("k", lambda: prepare_phase_portrait(NEAR_E2, 4, 0.25, k="2")),
    "k-unnamed-by-init": (
        "k", lambda: prepare_phase_portrait(replace(NEAR_E2, init="uniform"), 4, 0.25)),
}


@pytest.mark.parametrize("field, prepare", PREPARE_CASES.values(), ids=PREPARE_CASES)
def test_prepare_checks_every_input_and_simulates_nothing(monkeypatch, field, prepare):
    # The CLI writes its manifest between prepare_* and run: every input check
    # must be done, and no chain run, before run is called.
    def simulate(*args, **kwargs):
        raise AssertionError("simulation called")

    monkeypatch.setattr(montecarlo, "run_ensemble_states", simulate)
    monkeypatch.setattr(montecarlo, "ensemble_summary", simulate)
    if field is None:
        run = prepare()
        assert callable(run)
        # run looks both names up at call time, where the benchmark's tracer patches them
        with pytest.raises(AssertionError, match="simulation called"):
            run()
    else:
        with pytest.raises(FieldError) as raised:
            prepare()
        assert raised.value.field == field
