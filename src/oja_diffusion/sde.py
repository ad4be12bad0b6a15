"""Local Gaussian fluctuation limits around the flow's stationary points.

Near the basis point e_k, rescale the off-axis coordinates by beta^{-1/2} and
run time as t = beta * n.  The rescaled block U = (v_i / sqrt(beta))_{i != k}
converges to the linear SDE

    dU = -(lambda_k I - Lambda_k) U dt + (lambda_k Lambda_k)^{1/2} dB,

where Lambda_k drops the k-th eigenvalue.  Coordinates decouple: coordinate i
is an Ornstein-Uhlenbeck process with drift rate a_i = lambda_k - lambda_i
(negative rates mean exponential instability) and noise scale
sqrt(lambda_k lambda_i), so

    mean_i(t) = u_i(0) e^{-a_i t},
    var_i(t)  = lambda_k lambda_i (1 - e^{-2 a_i t}) / (2 a_i),

with the tie limit lambda_k lambda_i t when a_i = 0.  Around the optimum
(k = 1) all rates are positive and the stationary variances
lambda_1 lambda_i / (2 (lambda_1 - lambda_i)) sum, times beta, to the
stationary sin^2 level of the chain.

On the equator v_1 = 0 the overlap itself obeys the scalar SDE

    dU = (lambda_1 - L(V(t))) U dt + (lambda_1 L(V(t)))^{1/2} dB,
    L(v) = sum_{k>=2} lambda_k v_k^2 / sum_{k>=2} v_k^2  in  [lambda_d, lambda_2],

whose unstable growth out of U(0) = sqrt(beta) chi seeds the Phase I escape
law exposed by :func:`phase1_exit_law`.

Both SDEs have the form dU = b(t) U dt + c(t) dB and are simulated by one
Euler-Maruyama loop over an (n_paths, m) array driven by one generator: the
OU block with b = -a_i and c = sqrt(lambda_k lambda_i), the equator overlap
with b = lambda_1 - L(V(t)) and c = (lambda_1 L(V(t)))^{1/2}.  A single path
is an ensemble of one recorded at every step; an ensemble records only its
distinct grid steps and reduces them to moments.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .spectrum import EigenSpectrum, chain_rng, _check_seed

__all__ = [
    "OuSpec",
    "OuPath",
    "ou_mean_cov",
    "ou_stationary_var",
    "simulate_ou",
    "ou_ensemble_moments",
    "stationary_sin2",
    "Phase1ExitLaw",
    "phase1_exit_law",
    "equator_drift_coeff",
    "simulate_equator_sde",
    "equator_ensemble_second_moment",
]


@dataclass(frozen=True, eq=False)
class OuSpec:
    """Fluctuation block anchored at basis point e_k (k is 1-based)."""

    spec: EigenSpectrum
    k: int

    def __post_init__(self):
        if int(self.k) != self.k or not 1 <= self.k <= self.spec.d:
            raise ValueError(f"anchor k must be an integer in 1..{self.spec.d}, got {self.k}")

    @cached_property
    def other_lambdas(self) -> np.ndarray:
        """Eigenvalues of the d-1 off-anchor coordinates, in original order."""
        lam = np.asarray(self.spec.lambdas)
        out = np.delete(lam, self.k - 1)
        out.setflags(write=False)
        return out

    @cached_property
    def drift_rates(self) -> np.ndarray:
        """Per-coordinate rates a_i = lambda_k - lambda_i (sign = stability)."""
        lam_k = float(self.spec.lambdas[self.k - 1])
        out = lam_k - self.other_lambdas
        out.setflags(write=False)
        return out

    @cached_property
    def noise_scales(self) -> np.ndarray:
        """Per-coordinate diffusion coefficients sqrt(lambda_k lambda_i)."""
        lam_k = float(self.spec.lambdas[self.k - 1])
        out = np.sqrt(lam_k * self.other_lambdas)
        out.setflags(write=False)
        return out


def _as_u0(ou: OuSpec, u0) -> np.ndarray:
    arr = np.asarray(u0, dtype=float)
    if arr.ndim == 0:
        arr = np.full(ou.spec.d - 1, float(arr))
    if arr.shape != (ou.spec.d - 1,):
        raise ValueError(f"u0 must be scalar or shape ({ou.spec.d - 1},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"u0 must be finite, got {arr.tolist()}")
    return arr


def ou_mean_cov(ou: OuSpec, u0, t: float):
    """Closed-form mean and per-coordinate variance at time t >= 0.

    mean_i = u_i(0) e^{-a_i t}; var_i = lambda_k lambda_i (1 - e^{-2 a_i t}) / (2 a_i),
    valid for stable, unstable and tied rates (the tie limit is
    lambda_k lambda_i t).  Coordinates are independent, so the variance vector
    is the full covariance.  An array t broadcasts against the coordinates:
    ``times[:, None]`` gives one row per time.
    """
    if np.any(t < 0.0):
        raise ValueError(f"t must be nonnegative, got {t}")
    u0 = _as_u0(ou, u0)
    a = ou.drift_rates
    lam_prod = ou.noise_scales**2
    mean = u0 * np.exp(-a * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = lam_prod * (-np.expm1(-2.0 * a * t)) / (2.0 * a)
    var = np.where(a == 0.0, lam_prod * t, var)
    return mean, var


def ou_stationary_var(ou: OuSpec) -> np.ndarray:
    """Stationary variances lambda_k lambda_i / (2 (lambda_k - lambda_i)).

    Only defined when every rate is positive, i.e. the anchor is the top
    eigendirection.
    """
    a = ou.drift_rates
    if np.any(a <= 0.0):
        raise ValueError(
            "stationary variances require a strictly stable block "
            "(anchor at the top eigendirection)"
        )
    return ou.noise_scales**2 / (2.0 * a)


@dataclass(frozen=True, eq=False)
class OuPath:
    """One sampled path on a uniform time grid."""

    times: np.ndarray  # (n_times,)
    states: np.ndarray  # (n_times, m)
    seed: Optional[int]


def _check_dt(spec: EigenSpectrum, dt: float) -> float:
    cap = 1e-2 / max(float(spec.lambdas[0]), float(spec.lambdas[0] - spec.lambdas[-1]))
    if not 0.0 < dt <= cap:
        raise ValueError(f"dt must lie in (0, {cap:.6g}], got {dt}")
    return dt


def _rng_from(seed) -> tuple[np.random.Generator, Optional[int]]:
    if isinstance(seed, np.random.Generator):
        return seed, None
    _check_seed(seed)
    return chain_rng(seed), int(seed)


def _euler_maruyama(u: np.ndarray, rec_steps: np.ndarray, dt: float, coeffs, rng) -> np.ndarray:
    """Lockstep Euler-Maruyama paths u <- u + b(t) u dt + c(t) sqrt(dt) xi.

    ``u`` holds the (n_paths, m) initial states and ``coeffs(t)`` gives the
    drift and noise coefficients (b, c) at t = step * dt, each a scalar or a
    length-m vector.  One generator supplies every xi, path-major within a
    step.  Returns the states after each of the sorted, unique ``rec_steps``,
    shape (n_rec, n_paths, m); the run stops at the last of them.
    """
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


def _single_path(u0: np.ndarray, t_end: float, dt: float, seed, coeffs) -> OuPath:
    """One path from the (m,) state u0, recorded at every step up to t_end."""
    if t_end < 0.0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    rng, seed_out = _rng_from(seed)
    steps = np.arange(int(round(t_end / dt)) + 1)
    states = _euler_maruyama(u0[None, :], steps, dt, coeffs, rng)[:, 0]
    return OuPath(times=steps * dt, states=states, seed=seed_out)


def _grid_states(u0: np.ndarray, t_grid, dt: float, n_paths: int, seed, coeffs):
    """n_paths lockstep paths from u0 observed on ``t_grid`` snapped to the step grid.

    Returns (snapped times, states at each distinct grid step, and the index
    of each grid time into those states).
    """
    if n_paths < 2:
        raise ValueError(f"need at least two paths, got {n_paths}")
    rng, _ = _rng_from(seed)
    grid_steps = np.round(np.asarray(t_grid, dtype=float) / dt).astype(int)
    if grid_steps.size == 0 or np.any(grid_steps < 0):
        raise ValueError("t_grid must be a nonempty list of nonnegative times")
    rec_steps, sel = np.unique(grid_steps, return_inverse=True)
    states = _euler_maruyama(np.tile(u0, (n_paths, 1)), rec_steps, dt, coeffs, rng)
    return grid_steps * dt, states, sel


def _ou_coeffs(ou: OuSpec, scale: float):
    b, c = -ou.drift_rates, ou.noise_scales * scale
    return lambda t: (b, c)


def simulate_ou(
    ou: OuSpec, u0, t_end: float, dt: float, seed, diffusion_scale: float = 1.0
) -> OuPath:
    """Euler-Maruyama discretization of the anchored block.

    ``seed`` is an integer master seed (recorded on the path) or an existing
    generator.  ``diffusion_scale=0`` switches the noise off, leaving the
    exact exponential mean flow for step-level verification.
    """
    _check_dt(ou.spec, dt)
    return _single_path(_as_u0(ou, u0), t_end, dt, seed, _ou_coeffs(ou, float(diffusion_scale)))


def ou_ensemble_moments(ou: OuSpec, u0, t_grid, dt: float, n_paths: int, seed):
    """Empirical mean and variance over n_paths lockstep Euler paths.

    Returns (times, mean, var) with rows aligned to ``t_grid`` snapped to the
    step grid.  One generator drives all paths in lockstep, so the result is
    deterministic for a given seed but individual paths are not addressable.
    """
    _check_dt(ou.spec, dt)
    coeffs = _ou_coeffs(ou, 1.0)
    times, states, sel = _grid_states(_as_u0(ou, u0), t_grid, dt, n_paths, seed, coeffs)
    means = np.array([u.mean(axis=0) for u in states])
    varis = np.array([u.var(axis=0, ddof=1) for u in states])
    return times, means[sel], varis[sel]


def stationary_sin2(spec: EigenSpectrum, beta: float) -> float:
    """Stationary fluctuation level of sin^2 at stepsize beta.

    Equals beta * sum_{k>=2} lambda_1 lambda_k / (2 (lambda_1 - lambda_k)),
    the total stationary variance of the rescaled off-axis block around e_1,
    scaled back by beta.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    lam1 = float(spec.lambdas[0])
    tail = spec.tail()
    return beta * float(np.sum(lam1 * tail / (2.0 * (lam1 - tail))))


@dataclass(frozen=True)
class Phase1ExitLaw:
    """Escape-time law from a saddle e_k under noise-seeded instability.

    The unstable overlap grows like sqrt(beta) |chi| sigma_W
    e^{(lambda_1 - lambda_k) beta n} with chi standard normal and
    sigma_W^2 = lambda_1 lambda_k / (2 (lambda_1 - lambda_k)).  Solving for
    the first n with v_1^2 = delta gives, per realization of chi,

        N(chi) = (ln(sqrt(delta) / (|chi| sigma_W)) + ln beta^{-1/2})
                 / ((lambda_1 - lambda_k) beta),

    clamped at zero.  Quantiles come from the |chi| quantiles (N is
    decreasing in |chi|), so the median uses |chi| ~ 0.6745.
    """

    rate: float  # lambda_1 - lambda_k
    sigma_w: float
    beta: float
    delta: float

    def steps_given_chi(self, chi) -> np.ndarray:
        chi = np.abs(np.asarray(chi, dtype=float))
        with np.errstate(divide="ignore"):
            val = (np.log(math.sqrt(self.delta) / (chi * self.sigma_w))
                   + 0.5 * math.log(1.0 / self.beta)) / (self.rate * self.beta)
        return np.maximum(val, 0.0)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        chi = rng.standard_normal(1 if size is None else size)
        out = self.steps_given_chi(chi)
        return out[0] if size is None else out

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must lie in (0, 1), got {q}")
        # P(N <= x) = P(|chi| >= chi(x)); the q-quantile of N uses the
        # (1-q)-quantile of |chi|, which is Phi^{-1}(1 - q/2) for the half-normal.
        chi_q = statistics.NormalDist().inv_cdf(1.0 - q / 2.0)
        return float(self.steps_given_chi(chi_q))

    @property
    def median(self) -> float:
        return self.quantile(0.5)


def phase1_exit_law(spec: EigenSpectrum, k: int, beta: float, delta: float) -> Phase1ExitLaw:
    """Exit law from saddle e_k to overlap level v_1^2 = delta."""
    if int(k) != k or not 2 <= k <= spec.d:
        raise ValueError(f"saddle index k must be an integer in 2..{spec.d}, got {k}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    lam1 = float(spec.lambdas[0])
    lam_k = float(spec.lambdas[k - 1])
    rate = lam1 - lam_k
    sigma_w = math.sqrt(lam1 * lam_k / (2.0 * rate))
    return Phase1ExitLaw(rate=rate, sigma_w=sigma_w, beta=beta, delta=delta)


def equator_drift_coeff(spec: EigenSpectrum, v: np.ndarray) -> float:
    """Tail Rayleigh quotient L(v) = sum_{k>=2} lambda_k v_k^2 / sum_{k>=2} v_k^2.

    A convex combination of the tail eigenvalues, so always inside
    [lambda_d, lambda_2]; undefined at v = +/- e_1.
    """
    v = np.asarray(v, dtype=float)
    tail = v[1:]
    denom = float(tail @ tail)
    if denom == 0.0:
        raise ValueError("L(v) is undefined at v = +/- e_1 (no equator component)")
    lam_tail = np.asarray(spec.tail())
    return float((lam_tail * tail * tail).sum() / denom)


PathLike = Union[np.ndarray, Callable[[float], np.ndarray]]


def _equator_coeffs(spec: EigenSpectrum, v_path: PathLike, scale: float):
    """(lambda_1 - L(V(t)), scale sqrt(lambda_1 L(V(t)))) along the frozen path."""
    if callable(v_path):
        path = v_path
    else:
        arr = np.asarray(v_path, dtype=float)
        path = lambda t: arr
    lam1 = float(spec.lambdas[0])

    def coeffs(t):
        ell = equator_drift_coeff(spec, path(t))
        return lam1 - ell, scale * math.sqrt(lam1 * ell)

    return coeffs


def simulate_equator_sde(
    spec: EigenSpectrum,
    v_path: PathLike,
    u0: float,
    t_end: float,
    dt: float,
    seed,
    diffusion_scale: float = 1.0,
) -> OuPath:
    """Euler-Maruyama for the scalar overlap SDE along a frozen equator path.

    ``v_path`` is a callable t -> unit vector (e.g. the closed-form flow) or a
    constant vector.  With a constant path V == e_k this is exactly the
    unstable OU with rate lambda_1 - lambda_k and noise sqrt(lambda_1 lambda_k).
    """
    _check_dt(spec, dt)
    coeffs = _equator_coeffs(spec, v_path, float(diffusion_scale))
    return _single_path(np.array([float(u0)]), t_end, dt, seed, coeffs)


def equator_ensemble_second_moment(
    spec: EigenSpectrum, v_path: PathLike, u0: float, t_grid, dt: float, n_paths: int, seed
):
    """E[U^2(t)] over n_paths lockstep paths of the equator SDE."""
    _check_dt(spec, dt)
    coeffs = _equator_coeffs(spec, v_path, 1.0)
    times, states, sel = _grid_states(np.array([float(u0)]), t_grid, dt, n_paths, seed, coeffs)
    return times, np.array([float(np.mean(u * u)) for u in states])[sel]
