"""Three-phase crossing predictions, empirical detection, and rate formulas.

A chain started near a saddle e_k passes through three windows, measured in
steps at stepsize beta with delta in (0, 1/2):

* Phase I (escape): noise seeds the unstable overlap; the median step count
  to reach v_1^2 = delta follows the exit law of :mod:`oja_diffusion.sde`.
* Phase II (transit): the deterministic flow carries v_1^2 from delta to
  1 - delta within [(lambda_1 - lambda_d)^-1, (lambda_1 - lambda_2)^-1]
  * beta^-1 log((1-delta)/delta); the two bounds coincide for d = 2.
* Phase III (settle): sin^2 contracts at rate 2 (lambda_1 - lambda_2) beta
  down to the stationary level, taking about
  0.5 (lambda_1 - lambda_2)^-1 beta^-1 log(delta / beta) steps.

Phases II and III are O(beta^-1 log beta^-1) while Phase I is a half order
longer in its log term, which is the cutoff shape: N2/N1 -> 0 while N3/N1
stays order one as beta -> 0.

The rate formulas evaluate the stepsize rule beta(T) = log T / ((lambda_1 -
lambda_2) T) and the resulting sin^2 and Rayleigh-error levels after T
samples, next to reference rates of other streaming PCA analyses.  All
unspecified universal constants are set to 1, and reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oja import OjaConfig, Trajectory, _config_echo
from .sde import phase1_exit_law, stationary_sin2
from .spectrum import EigenSpectrum, _ROOT_FLOAT_MAX, _check_count, _check_real

__all__ = [
    "PhaseThresholds",
    "CrossingPrediction",
    "EmpiricalCrossings",
    "CrossingReport",
    "predict_crossings",
    "detect_phases",
    "crossing_report",
    "stepsize_rule",
    "rate_bound_sin2",
    "rate_bound_rayleigh",
    "minimax_lower_bound",
    "table1_rows",
    "cutoff_ratios",
    "RateReport",
    "rate_report",
]

CONSTANTS_NOTE = "all universal constants are set to 1; values are correct up to constants"


@dataclass(frozen=True)
class PhaseThresholds:
    """Phase boundaries: v_1^2 = delta ends Phase I, 1 - delta ends Phase II."""

    delta: float

    def __post_init__(self):
        object.__setattr__(self, "delta", _check_real("delta", self.delta, 0.0, 0.5, "()"))


@dataclass(frozen=True)
class CrossingPrediction:
    """Formula-level step counts (floats; medians and bounds, not hard limits)."""

    n1_median: float
    n1_q10: float
    n1_q90: float
    n2_low: float
    n2_high: float
    n3: float

    def to_json_dict(self) -> dict:
        return {"N1_median": self.n1_median, "N1_q10": self.n1_q10, "N1_q90": self.n1_q90,
                "N2_low": self.n2_low, "N2_high": self.n2_high, "N3": self.n3}


@dataclass(frozen=True)
class EmpiricalCrossings:
    """Detected step counts for one trajectory; None when never reached."""

    n1: Optional[int]
    n2: Optional[int]
    n3: Optional[int]


def predict_crossings(spec: EigenSpectrum, beta: float, delta: float, k: int) -> CrossingPrediction:
    """Predicted phase durations from saddle e_k at stepsize beta.

    All values are nonnegative; Phase I comes with 10/90 percent quantiles of
    the exit law over the seeding Gaussian.
    """
    law = phase1_exit_law(spec, k, beta, delta)
    beta, delta = law.beta, law.delta
    lam1 = float(spec.lambdas[0])
    lam2 = float(spec.lambdas[1])
    lam_d = float(spec.lambdas[-1])
    log_odds = math.log((1.0 - delta) / delta)
    n2_low = log_odds / ((lam1 - lam_d) * beta)
    n2_high = log_odds / ((lam1 - lam2) * beta)
    n3 = max(0.0, 0.5 * math.log(delta / beta) / ((lam1 - lam2) * beta))
    return CrossingPrediction(
        n1_median=law.median,
        n1_q10=law.quantile(0.1),
        n1_q90=law.quantile(0.9),
        n2_low=n2_low,
        n2_high=n2_high,
        n3=n3,
    )


def _trailing_window(cfg: OjaConfig, steps: np.ndarray) -> int:
    """Records that cover 1/(beta * gap) steps at the median record stride."""
    stride = float(np.median(np.diff(steps))) if len(steps) > 1 else 1.0
    return max(1, int(round(1.0 / (cfg.beta * cfg.spec.gap) / stride)))


def _detect_crossings(
    v1sq: np.ndarray, sin2: np.ndarray, steps: np.ndarray, cfg: OjaConfig, delta: float
) -> np.ndarray:
    """Crossings of every chain from (n_rec, n_chains) v_1^2 and sin^2 records.

    Returns a (3, n_chains) int array of N1, N2 and N3 as defined in
    :func:`detect_phases`, with -1 where a phase is never reached.
    """
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
    # Window sums in place, last block first, so no copy of the array is made.
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


def detect_phases(traj: Trajectory, thresholds: PhaseThresholds) -> EmpiricalCrossings:
    """Detect the three phase boundaries on a recorded trajectory.

    N1 is the first recorded step with v_1^2 >= delta, N2 the further steps
    until v_1^2 >= 1 - delta, and N3 the further steps until the trailing
    mean of sin^2 over a window of 1/(beta * gap) steps falls within twice
    the stationary level.  Detection granularity is the record stride.
    """
    v1sq = traj.states[:, :1] ** 2
    sin2 = np.asarray(traj.sin2_angle)[:, None]
    crossings = _detect_crossings(v1sq, sin2, traj.times, traj.config, thresholds.delta)
    return EmpiricalCrossings(*(None if n < 0 else int(n) for n in crossings[:, 0]))


@dataclass(frozen=True)
class CrossingReport:
    """Empirical and predicted crossings side by side, with the run config."""

    empirical: EmpiricalCrossings
    predicted: CrossingPrediction
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "empirical": {
                "N1": self.empirical.n1,
                "N2": self.empirical.n2,
                "N3": self.empirical.n3,
            },
            "predicted": self.predicted.to_json_dict(),
            "config": self.config,
            "note": CONSTANTS_NOTE,
        }

    def to_text(self) -> str:
        emp = self.empirical
        pred = self.predicted
        def fmt(x):
            return "absent" if x is None else f"{x:.6g}"
        rows = [
            ("phase", "empirical", "predicted"),
            ("N1 (escape)", fmt(emp.n1), f"{pred.n1_median:.6g} [q10 {pred.n1_q10:.6g}, q90 {pred.n1_q90:.6g}]"),
            ("N2 (transit)", fmt(emp.n2), f"[{pred.n2_low:.6g}, {pred.n2_high:.6g}]"),
            ("N3 (settle)", fmt(emp.n3), f"{pred.n3:.6g}"),
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        lines = ["  ".join(r[i].ljust(widths[i]) for i in range(3)) for r in rows]
        lines.append(f"({CONSTANTS_NOTE})")
        return "\n".join(lines)


def _saddle_index(cfg: OjaConfig, k: Optional[int]) -> int:
    """k when given, else the axis named by a 'saddle:k' / 'near_saddle:k:eps' init; in 2..d."""
    if k is None:
        k = cfg._init.axis
    if k is None:
        raise ValueError("saddle index k is required when the init preset does not name one")
    return _check_count("k", k, 2, cfg.spec.d)


def crossing_report(
    traj: Trajectory, thresholds: PhaseThresholds, k: Optional[int] = None
) -> CrossingReport:
    """Detect crossings on a trajectory and pair them with the predictions.

    The saddle index k is read from a 'saddle:k' / 'near_saddle:k:eps' init
    preset when not given explicitly.
    """
    cfg = traj.config
    k = _saddle_index(cfg, k)
    empirical = detect_phases(traj, thresholds)
    predicted = predict_crossings(cfg.spec, cfg.beta, thresholds.delta, k)
    config = _config_echo(cfg, delta=thresholds.delta, k=int(k))
    return CrossingReport(empirical=empirical, predicted=predicted, config=config)


_MIN_T = math.e  # the rule needs log T >= 1 to be a usable stepsize


def stepsize_rule(spec: EigenSpectrum, t_samples) -> float:
    """Horizon-tuned stepsize beta(T) = log T / ((lambda_1 - lambda_2) T)."""
    t = _check_real("t_samples", t_samples, _MIN_T)
    return math.log(t) / (spec.gap * t)


def rate_bound_sin2(spec: EigenSpectrum, t_samples) -> float:
    """Predicted stationary sin^2 level after T samples at the tuned stepsize.

    sum_{k>=2} lambda_1 lambda_k / (2 (lambda_1 - lambda_k)) * log T / ((lambda_1 - lambda_2) T).
    """
    t = _check_real("t_samples", t_samples, _MIN_T)
    lam1 = float(spec.lambdas[0])
    tail = spec.tail()
    coeff = float(np.sum(lam1 * tail / (2.0 * (lam1 - tail))))
    return coeff * math.log(t) / (spec.gap * t)


def rate_bound_rayleigh(spec: EigenSpectrum, t_samples) -> float:
    """Rayleigh-error bound lambda_1 - E[v' Lambda v] after T tuned samples.

    (lambda_1 tr(Lambda) - lambda_1^2) / 2 * log T / ((lambda_1 - lambda_2) T),
    with the universal constant set to 1.
    """
    t = _check_real("t_samples", t_samples, _MIN_T)
    lam1 = float(spec.lambdas[0])
    coeff = (lam1 * spec.trace - lam1 * lam1) / 2.0
    return coeff * math.log(t) / (spec.gap * t)


def minimax_lower_bound(spec: EigenSpectrum, n, sigma_star2: Optional[float] = None) -> float:
    """Reference minimax level sigma*^2 (d-1) / n with the constant set to 1.

    Default sigma*^2 is the tight value lambda_1 lambda_2 / (lambda_1 - lambda_2)^2.
    """
    n = _check_real("n", n, 0.0, math.inf, "()")
    if sigma_star2 is None:
        sigma_star2 = float(spec.lambdas[0] * spec.lambdas[1]) / spec.gap**2
    sigma_star2 = _check_real("sigma_star2", sigma_star2, 0.0, math.inf, "()")
    return _check_real("minimax level", sigma_star2 * (spec.d - 1) / n)


def table1_rows(
    spec: EigenSpectrum, b: float, n, sigma_star2: Optional[float] = None
) -> list[tuple[str, float]]:
    """Reference sin^2 rates after n samples for streaming PCA analyses.

    ``b`` is the almost-sure bound on ||Y||^2 (the bounded sampler attains
    b = tr(Lambda)); b**2 must be a float.  Constants are set to 1 throughout.
    The 'oja-diffusion' row is this package's rate,
    (lambda_1 / (lambda_1 - lambda_2)) sum_{k>=2} lambda_k / (lambda_1 - lambda_k) / n.
    ValueError naming the row when a rate overflows.
    """
    n = _check_real("n", n, 0.0, math.inf, "()")
    b = _check_real("b", b, 0.0, _ROOT_FLOAT_MAX, "(]")
    lam1 = float(spec.lambdas[0])
    lam2 = float(spec.lambdas[1])
    gap = spec.gap
    d = spec.d
    tail = spec.tail()
    if sigma_star2 is None:
        sigma_star2 = lam1 * lam2 / gap**2
    sigma_star2 = _check_real("sigma_star2", sigma_star2, 0.0, math.inf, "()")
    own = (lam1 / gap) * float(np.sum(tail / (lam1 - tail))) / n
    rows = [
        ("minimax", sigma_star2 * d / n),
        ("alecton", b * lam1 * d / (gap**2 * n)),
        ("block-power", b * lam1**2 / (gap**3 * n)),
        ("oja-balsubramani", b**2 / (gap**2 * n)),
        ("oja-shamir", b**2 * d / (gap**2 * n)),
        ("oja-jain", b * lam1 / (gap**2 * n)),
        ("oja-diffusion", own),
    ]
    return [(name, _check_real(f"{name} rate", rate)) for name, rate in rows]


def cutoff_ratios(spec: EigenSpectrum, beta: float, delta: float, k: int) -> tuple[float, float]:
    """(N2/N1_median, N3/N1_median) at stepsize beta.

    N2 uses the upper transit display (gap lambda_1 - lambda_2); at d = 2 the
    two transit bounds coincide.  As beta -> 0 the first ratio vanishes while
    the second tends to one: transit is abrupt on the escape timescale.
    """
    pred = predict_crossings(spec, beta, delta, k)
    if not pred.n1_median > 0.0:
        raise ValueError("escape median is zero at these parameters; ratios are undefined")
    return pred.n2_high / pred.n1_median, pred.n3 / pred.n1_median


@dataclass(frozen=True)
class RateReport:
    """Evaluated rate formulas for a spectrum and sample horizon."""

    t_samples: float
    beta_used: float
    bound_sin2: float
    bound_rayleigh: float
    minimax_reference: float
    table1_rows: list

    def to_json_dict(self) -> dict:
        return {
            "t_samples": self.t_samples,
            "beta_used": self.beta_used,
            "bound_sin2": self.bound_sin2,
            "bound_rayleigh": self.bound_rayleigh,
            "minimax_reference": self.minimax_reference,
            "table1_rows": [[name, value] for name, value in self.table1_rows],
            "note": CONSTANTS_NOTE,
        }

    def to_text(self) -> str:
        lines = [
            f"T = {self.t_samples:.6g} samples, tuned stepsize beta = {self.beta_used:.6g}",
            f"sin^2 bound      {self.bound_sin2:.6g}",
            f"rayleigh bound   {self.bound_rayleigh:.6g}",
            f"minimax ref      {self.minimax_reference:.6g}",
            "",
            "reference rates (constants set to 1):",
        ]
        width = max(len(name) for name, _ in self.table1_rows)
        for name, value in self.table1_rows:
            lines.append(f"  {name.ljust(width)}  {value:.6g}")
        lines.append(f"({CONSTANTS_NOTE})")
        return "\n".join(lines)


def rate_report(
    spec: EigenSpectrum,
    t_samples,
    b: Optional[float] = None,
    sigma_star2: Optional[float] = None,
) -> RateReport:
    """Evaluate every rate formula at horizon T (b defaults to tr(Lambda))."""
    t = _check_real("t_samples", t_samples, _MIN_T)
    if b is None:
        b = spec.trace
    return RateReport(
        t_samples=t,
        beta_used=stepsize_rule(spec, t),
        bound_sin2=rate_bound_sin2(spec, t),
        bound_rayleigh=rate_bound_rayleigh(spec, t),
        minimax_reference=minimax_lower_bound(spec, t, sigma_star2),
        table1_rows=table1_rows(spec, b, t, sigma_star2),
    )
