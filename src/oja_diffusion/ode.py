"""Deterministic small-stepsize limit of the rescaled iteration.

On the timescale t = beta * n the iterates track the flow

    dV/dt = (Lambda - V' Lambda V) V,
    dV_k/dt = V_k sum_i (lambda_k - lambda_i) V_i^2,

on the unit sphere.  The flow has the closed form

    V_k(t) = V_k(0) e^{lambda_k t} / sqrt(sum_i V_i(0)^2 e^{2 lambda_i t}),

a multi-species logistic: coordinate mass flows monotonically toward the
largest eigenvalue present in the initial condition.  ``logistic_solution``
evaluates this with max-exponent subtraction so large t never overflows, and
``integrate_rk4`` provides an independent fixed-step integrator to check it
against.  For d = 2 and V_1(0)^2 = delta the time to reach V_1^2 = 1 - delta
is log((1-delta)/delta) / (2 (lambda_1 - lambda_2)); in general the crossing
time is sandwiched between that expression evaluated at the extreme tail
eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np

from .spectrum import EigenSpectrum, _check_real

__all__ = [
    "ode_rhs",
    "logistic_solution",
    "integrate_rk4",
    "ode_crossing_time",
]


def ode_rhs(spec: EigenSpectrum, v: np.ndarray) -> np.ndarray:
    """Right-hand side (Lambda - v' Lambda v) v of the limiting flow.

    Tangent to the sphere at v (v . rhs = 0 up to rounding) and exactly zero
    at every basis vector, which are the flow's stationary points.
    """
    v = np.asarray(v, dtype=float)
    lam = np.asarray(spec.lambdas)
    rayleigh = float(v @ (lam * v))
    return (lam - rayleigh) * v


def logistic_solution(spec: EigenSpectrum, v0: np.ndarray, t) -> np.ndarray:
    """Closed-form flow at time t >= 0 from unit vector v0; an array of times gives (n_t, d).

    A row is bit for bit the state for its time alone.  Stable for large t:
    exponents are shifted by the largest eigenvalue carried by a nonzero
    coordinate of v0, so entries only ever underflow toward zero and the
    normalizing sum keeps a Theta(1) leading term.
    """
    t = _check_real("t", np.asarray(t, dtype=float), 0.0)
    v0 = np.asarray(v0, dtype=float)
    support = v0 != 0.0
    if not support.any():
        raise ValueError("initial vector must be nonzero")
    # Exponents are taken relative to the largest eigenvalue actually present
    # in v0 and only on its support: off-support coordinates stay zero instead
    # of multiplying an overflowing exponential by zero.
    lam = spec.lambdas[support]
    w = np.zeros(t.shape + v0.shape)
    w[..., support] = v0[support] * np.exp((lam - float(lam.max())) * t[..., None])
    # One (1, d) @ (d, 1) product per row sums w.w in the order of the 1-D w @ w.
    return w / np.sqrt(w[..., None, :] @ w[..., :, None])[..., 0]


def integrate_rk4(spec: EigenSpectrum, v0: np.ndarray, t_end: float, dt: float) -> np.ndarray:
    """Classical fixed-step RK4 for the flow, renormalizing each step.

    Requires dt <= 1e-2 / lambda_1; under that restriction the per-step
    departure from the sphere stays below 1e-10 in norm, which is asserted
    before the renormalization snaps the iterate back.  The horizon t_end
    must be below 2**63 steps.
    """
    dt = _check_real("dt", dt, 0.0, spec._max_dt, "(]")
    t_end = _check_real("t_end", t_end, 0.0, 2.0**63 * dt, "[)")
    v = np.asarray(v0, dtype=float).copy()
    n_full = int(np.floor(t_end / dt + 1e-12))
    rem = t_end - n_full * dt
    hs = [dt] * n_full
    if rem > 1e-12 * max(1.0, t_end):
        hs.append(rem)
    for h in hs:
        k1 = ode_rhs(spec, v)
        k2 = ode_rhs(spec, v + 0.5 * h * k1)
        k3 = ode_rhs(spec, v + 0.5 * h * k2)
        k4 = ode_rhs(spec, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nrm = math.sqrt(v @ v)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(
                f"renormalization correction {abs(nrm - 1.0):.3e} exceeds 1e-10; "
                f"integration step is too coarse"
            )
        v /= nrm
    return v


def ode_crossing_time(spec: EigenSpectrum, v0: np.ndarray, delta: float) -> float:
    """Time for the closed-form flow to reach V_1^2 = 1 - delta.

    Requires 0 < delta < 1/2 and an initial overlap V_1(0)^2 >= delta; with
    the entry condition V_1(0)^2 = delta the result is sandwiched between
    log((1-delta)/delta) / (lambda_1 - lambda_2) and the same expression with
    lambda_d.  Returns 0 when the target is already met.  Solved by bisection
    to 1e-10 relative accuracy.
    """
    delta = _check_real("delta", delta, 0.0, 0.5, "()")
    v0 = np.asarray(v0, dtype=float)
    v1sq = float(v0[0] ** 2)
    if v0[0] == 0.0:
        raise ValueError("initial vector lies on the equator (v_1 = 0): the flow never crosses")
    if v1sq < delta * (1.0 - 1e-12):
        raise ValueError(f"initial overlap v_1^2 = {v1sq:.6g} is below the entry level delta={delta}")
    target = 1.0 - delta
    if v1sq >= target:
        return 0.0

    def overlap(t: float) -> float:
        return float(logistic_solution(spec, v0, t)[0] ** 2)

    gap = spec.gap
    hi = float(np.log((1.0 - delta) * (1.0 - v1sq) / (delta * v1sq)) / (2.0 * gap)) * 1.0000001
    while overlap(hi) < target:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-10 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if overlap(mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
