"""Exact laws of the simulated processes, for tests that separate a scheme's bias from noise.

Every SDE that ``oja_diffusion.sde`` simulates is linear in u with deterministic
coefficients: the OU block, and the equator overlap along a frozen path.  Its
Euler-Maruyama step u <- a_n u + c_n sqrt(dt) xi_n, with a_n = 1 + b(t_n) dt, keeps
a Gaussian start Gaussian, so the paths' law after n steps is the normal law with

    mean_n = u_0 prod_{j<n} a_j,    var_{n+1} = a_n^2 var_n + c_n^2 dt,    var_0 = 0.

Tests compare sample moments with it at a z-score, with no dt term.
"""

import math

import numpy as np


def euler_maruyama_moments(u0, b, c, dt):
    """Exact mean and variance of the paths after each step: (n + 1,) + shape arrays.

    ``b`` and ``c`` hold the drift and noise coefficients of the n steps along
    axis 0 (shape (n,) + shape, or broadcastable to it); ``u0`` is the start.
    """
    b, c = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(c, dtype=float))
    a = 1.0 + b * dt
    mean = np.empty((len(a) + 1,) + a.shape[1:])
    var = np.empty_like(mean)
    mean[0], var[0] = u0, 0.0
    for n in range(len(a)):
        mean[n + 1] = a[n] * mean[n]
        var[n + 1] = a[n] ** 2 * var[n] + c[n] ** 2 * dt
    return mean, var


def mean_z(sample_mean, m, mean, var):
    """z-score of the mean of m independent draws from N(mean, var)."""
    return (sample_mean - mean) / np.sqrt(var / m)


def var_z(sample_var, m, var):
    """z-score of the ddof=1 sample variance of m normal draws: its se is var sqrt(2 / (m - 1))."""
    return (sample_var - var) / (var * math.sqrt(2.0 / (m - 1)))


def second_moment_z(sample_second, m, mean, var):
    """z-score of the mean of U^2 over m draws of U ~ N(mean, var).

    Var(U^2) = 2 var^2 + 4 mean^2 var for a Gaussian U.
    """
    return (sample_second - (mean**2 + var)) / np.sqrt((2 * var**2 + 4 * mean**2 * var) / m)
