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

Both SDEs have the form dU = b(t) U dt + c(t) dB and are simulated by
Euler-Maruyama over an (n_paths, m) array: the OU block with b = -a_i and
c = sqrt(lambda_k lambda_i), the equator overlap with b = lambda_1 - L(V(t)) and
c = (lambda_1 L(V(t)))^{1/2}, V mapping a (K,) array of times to (K, d) rows.  The
block walk runs K steps at once in closed form by correctly rounded sums, products
and quotients: within 1e-12 of the step loop relative to the path's largest |u|,
with the same bytes on every numpy SIMD target.  A recorded state that is not
finite raises ``FloatingPointError``.  A single path is an ensemble of one
recorded at every step; an ensemble records only its distinct grid steps.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .oja import SAMPLE_BLOCK, _DRAW_TILE, _walk_blocks
from .spectrum import (EigenSpectrum, chain_rng, _ROOT_FLOAT_MAX, _check_count, _check_real,
                       _read_only, _real_array)

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
        object.__setattr__(self, "k", _check_count("k", self.k, 1, self.spec.d))

    @cached_property
    def other_lambdas(self) -> np.ndarray:
        """Eigenvalues of the d-1 off-anchor coordinates, in original order."""
        return _read_only(np.delete(self.spec.lambdas, self.k - 1))

    @cached_property
    def drift_rates(self) -> np.ndarray:
        """Per-coordinate rates a_i = lambda_k - lambda_i (sign = stability)."""
        lam_k = float(self.spec.lambdas[self.k - 1])
        return _read_only(lam_k - self.other_lambdas)

    @cached_property
    def noise_scales(self) -> np.ndarray:
        """Per-coordinate diffusion coefficients sqrt(lambda_k lambda_i)."""
        lam_k = float(self.spec.lambdas[self.k - 1])
        return _read_only(np.sqrt(lam_k * self.other_lambdas))


def _as_u0(ou: OuSpec, u0) -> np.ndarray:
    arr = _real_array("u0", u0)
    if arr.ndim == 0:
        arr = np.full(ou.spec.d - 1, float(arr))
    if arr.shape != (ou.spec.d - 1,):
        raise ValueError(f"u0 must be scalar or shape ({ou.spec.d - 1},), got {arr.shape}")
    return arr


def ou_mean_cov(ou: OuSpec, u0, t: float):
    """Closed-form mean and per-coordinate variance at time t >= 0.

    mean_i = u_i(0) e^{-a_i t}; var_i = lambda_k lambda_i (1 - e^{-2 a_i t}) / (2 a_i),
    valid for stable, unstable and tied rates (the tie limit is
    lambda_k lambda_i t).  Coordinates are independent, so the variance vector
    is the full covariance.  An array t broadcasts against the coordinates:
    ``times[:, None]`` gives one row per time.  ValueError when an unstable
    coordinate's moments overflow.
    """
    t = _real_array("t", t, 0.0)
    u0 = _as_u0(ou, u0)
    a = ou.drift_rates
    lam_prod = ou.noise_scales**2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = u0 * np.exp(-a * t)
        var = lam_prod * (-np.expm1(-2.0 * a * t)) / (2.0 * a)
    var = np.where(a == 0.0, lam_prod * t, var)
    return _check_real("closed-form mean", mean), _check_real("closed-form variance", var)


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
    """One sampled path on a uniform time grid, with the master seed that drew it."""

    times: np.ndarray  # (n_times,)
    states: np.ndarray  # (n_times, m)
    seed: int


def _step_count(spec: EigenSpectrum, name: str, t, dt: float) -> np.ndarray:
    """round(t / dt) as int64, for a time or a list or array of times ``t``.

    ValueError naming dt unless 0 < dt <= 1e-2 / lambda_1, or naming ``name``
    unless each t is finite, nonnegative and below 2**63 steps.  Below that
    bound the float t / dt is at most 2**63 - 1024, so the cast cannot overflow.
    """
    dt = _check_real("dt", dt, 0.0, spec._max_dt, "(]")
    return np.round(_real_array(name, t, 0.0, 2.0**63 * dt, "[)") / dt).astype(np.int64)


def _euler_maruyama(u: np.ndarray, rec_steps: np.ndarray, dt: float, coeffs, seed) -> np.ndarray:
    """Lockstep Euler-Maruyama paths u <- a_n u + c_n sqrt(dt) xi_n, a_n = 1 + b(t_n) dt.

    ``u`` holds the (n_paths, m) initial states and ``coeffs(t)`` gives (b, c) at the (K,)
    times t = step * dt, each broadcastable to (K, 1, m).  A block's xi, drawn as one draw per
    step would, fill one reused buffer (new ones cost page faults) and become w_k = u_0 +
    sum_{j<k} c_j sqrt(dt) xi_j / A_{j+1}, so that u_k = A_k w_k with A = cumprod(a).  ``cumsum``
    sums them in step order up to the block's last record and ``np.add.reduce`` past it, so
    no state depends on which others are recorded.  Returns the (n_rec, n_paths, m) states
    after the sorted, unique ``rec_steps``, drawn from ``chain_rng(seed)``.
    """
    rng = chain_rng(seed)
    root_dt, done = math.sqrt(dt), 0
    block = max(1, min(SAMPLE_BLOCK, _DRAW_TILE * SAMPLE_BLOCK // u.size))
    noise = np.empty((block,) + u.shape)

    def advance(blk: int, offsets: np.ndarray, dest: np.ndarray) -> None:
        nonlocal u, done
        w = rng.standard_normal(out=noise[:blk])
        b, c = coeffs(np.arange(done, done + blk) * dt)
        growth = np.cumprod(np.broadcast_to(1.0 + b * dt, (blk, 1, u.shape[1])), axis=0)
        # A lone column's reduce sums pairwise, so one path sums the whole block in order.
        last = blk if u.size == 1 else int(offsets.max(initial=1))
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(w, c * root_dt / growth, w)
            w[0] += u
            np.cumsum(w[:last], axis=0, out=w[:last])
            dest[...] = w[offsets - 1] * growth[offsets - 1]
            u = np.add.reduce(w[last - 1:], axis=0) * growth[-1]
        done += blk

    fault = f"Euler-Maruyama paths are not finite by step {{step}} (dt={dt})"
    return _walk_blocks(u, rec_steps, block, advance, lambda s: not np.isfinite(s).all(), fault)


def _single_path(spec: EigenSpectrum, u0: np.ndarray, t_end: float, dt: float, seed: int,
                 coeffs) -> OuPath:
    """One path from the (m,) state u0, recorded at every step up to t_end."""
    steps = np.arange(_step_count(spec, "t_end", t_end, dt) + 1)
    states = _euler_maruyama(u0[None, :], steps, dt, coeffs, seed)[:, 0]
    return OuPath(times=steps * dt, states=states, seed=int(seed))


def _grid_states(spec: EigenSpectrum, u0: np.ndarray, t_grid, dt: float, n_paths: int, seed,
                 coeffs):
    """Snapped times, states at the distinct steps and each time's index, of n_paths paths."""
    n_paths = _check_count("n_paths", n_paths, 2)
    steps = _step_count(spec, "t_grid", t_grid, dt)
    _check_count("number of t_grid times", steps.size)
    rec_steps, sel = np.unique(steps, return_inverse=True)
    states = _euler_maruyama(np.tile(u0, (n_paths, 1)), rec_steps, dt, coeffs, seed)
    return steps * dt, states, sel


def _ou_coeffs(ou: OuSpec, scale: float):
    b, c = -ou.drift_rates, ou.noise_scales * scale
    return lambda t: (b, c)


def simulate_ou(
    ou: OuSpec, u0, t_end: float, dt: float, seed, diffusion_scale: float = 1.0
) -> OuPath:
    """Euler-Maruyama discretization of the anchored block.

    ``seed`` is the integer master seed, recorded on the path.
    ``diffusion_scale=0`` switches the noise off, leaving the
    exact exponential mean flow for step-level verification.
    """
    scale = _check_real("diffusion_scale", diffusion_scale, 0.0)
    return _single_path(ou.spec, _as_u0(ou, u0), t_end, dt, seed, _ou_coeffs(ou, scale))


def ou_ensemble_moments(ou: OuSpec, u0, t_grid, dt: float, n_paths: int, seed):
    """Empirical mean and variance over n_paths lockstep Euler paths.

    Returns (times, mean, var) with rows aligned to ``t_grid`` snapped to the
    step grid.  One generator drives all paths in lockstep, so the result is
    deterministic for a given seed but individual paths are not addressable.
    A mean or variance that overflows raises ``FloatingPointError``.
    """
    times, states, sel = _grid_states(ou.spec, _as_u0(ou, u0), t_grid, dt, n_paths, seed,
                                      _ou_coeffs(ou, 1.0))
    with np.errstate(over="raise"):
        return times, states.mean(axis=1)[sel], states.var(axis=1, ddof=1)[sel]


def stationary_sin2(spec: EigenSpectrum, beta: float) -> float:
    """Stationary fluctuation level of sin^2 at stepsize beta.

    Equals beta * sum_{k>=2} lambda_1 lambda_k / (2 (lambda_1 - lambda_k)),
    the total stationary variance of the rescaled off-axis block around e_1,
    scaled back by beta.  ValueError when it overflows.
    """
    beta = _check_real("beta", beta, 0.0, math.inf, "()")
    lam1 = float(spec.lambdas[0])
    tail = spec.tail()
    level = beta * float(np.sum(lam1 * tail / (2.0 * (lam1 - tail))))
    return _check_real("stationary sin^2", level)


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
    decreasing in |chi|), so the median uses |chi| ~ 0.6745.  The rate,
    sigma_W and beta are positive, and delta lies in (0, 1/2).
    """

    rate: float  # lambda_1 - lambda_k
    sigma_w: float
    beta: float
    delta: float

    def __post_init__(self):
        for name, high in (("rate", math.inf), ("sigma_w", math.inf), ("beta", math.inf),
                           ("delta", 0.5)):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), 0.0, high, "()"))

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
        # P(N <= x) = P(|chi| >= chi(x)); the q-quantile of N uses the
        # (1-q)-quantile of |chi|, which is Phi^{-1}(1 - q/2) for the half-normal.
        # For q <= 2**-53, 1 - q/2 rounds to 1, whose normal quantile is infinite.
        q = _check_real("q", q, 2.0**-53, 1.0, "()")
        chi_q = statistics.NormalDist().inv_cdf(1.0 - q / 2.0)
        return float(self.steps_given_chi(chi_q))

    @property
    def median(self) -> float:
        return self.quantile(0.5)


def phase1_exit_law(spec: EigenSpectrum, k: int, beta: float, delta: float) -> Phase1ExitLaw:
    """Exit law from saddle e_k to overlap level v_1^2 = delta."""
    lam1 = float(spec.lambdas[0])
    lam_k = float(spec.lambdas[_check_count("k", k, 2, spec.d) - 1])
    rate = lam1 - lam_k
    sigma_w = math.sqrt(lam1 * lam_k / (2.0 * rate))
    return Phase1ExitLaw(rate=rate, sigma_w=sigma_w, beta=beta, delta=delta)


def equator_drift_coeff(spec: EigenSpectrum, v: np.ndarray):
    """Tail Rayleigh quotient L(v) = sum_{k>=2} lambda_k v_k^2 / sum_{k>=2} v_k^2.

    A convex combination of the tail eigenvalues, so always inside
    [lambda_d, lambda_2]; undefined at v = +/- e_1 and where the tail is not finite.
    A vector v gives a float, and (K, d) rows give the (K,) quotients of the rows.
    """
    v = np.asarray(v, dtype=float)
    sq = v[..., 1:] * v[..., 1:]
    denom = sq.sum(axis=-1)
    bad = ~((0.0 < denom) & (denom < math.inf))
    if bad.any():
        raise ValueError(f"L(v) is undefined at v = +/- e_1 (no equator component) and at a "
                         f"tail that is not finite, got {v[bad][0].tolist()}")
    ell = (spec.tail() * sq).sum(axis=-1) / denom
    return float(ell) if v.ndim == 1 else ell


PathLike = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]


def _equator_coeffs(spec: EigenSpectrum, v_path: PathLike, scale: float):
    """(lambda_1 - L(V(t)), scale sqrt(lambda_1 L(V(t)))) along the frozen path, (K, 1, 1)."""
    lam1 = float(spec.lambdas[0])

    def coeffs(t):
        v = np.asarray(v_path(t) if callable(v_path) else v_path, dtype=float)
        if v.shape != ((len(t), spec.d) if callable(v_path) else (spec.d,)):
            raise ValueError(f"v_path must be a ({spec.d},) vector or map (K,) times to "
                             f"(K, {spec.d}) rows, got shape {v.shape} for K = {len(t)}")
        ell = np.reshape(equator_drift_coeff(spec, v), (-1, 1, 1))
        return lam1 - ell, scale * np.sqrt(lam1 * ell)

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

    ``v_path`` is a constant vector or maps (K,) times to (K, d) rows, as the closed-form
    flow ``logistic_solution`` does.  With a constant path V == e_k this is exactly the
    unstable OU with rate lambda_1 - lambda_k and noise sqrt(lambda_1 lambda_k).
    """
    coeffs = _equator_coeffs(spec, v_path, _check_real("diffusion_scale", diffusion_scale, 0.0))
    return _single_path(spec, np.array([_check_real("u0", u0)]), t_end, dt, seed, coeffs)


def equator_ensemble_second_moment(
    spec: EigenSpectrum, v_path: PathLike, u0: float, t_grid, dt: float, n_paths: int, seed
):
    """E[U^2(t)] over n_paths lockstep paths of the equator SDE.

    U^2 must be a float: |u0| is at most the square root of the largest
    float, and a path that outgrows it raises ``FloatingPointError``.
    """
    u0 = _check_real("u0", u0, -_ROOT_FLOAT_MAX, _ROOT_FLOAT_MAX)
    times, states, sel = _grid_states(spec, np.array([u0]), t_grid, dt, n_paths, seed,
                                      _equator_coeffs(spec, v_path, 1.0))
    with np.errstate(over="raise"):
        return times, (states * states).mean(axis=(1, 2))[sel]
