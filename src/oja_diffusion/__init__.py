"""Diffusion-limit toolkit for Oja's streaming PCA iteration.

The iterate w <- Pi[w + beta Z Z' w] on the unit sphere, viewed in the
eigenbasis of E[Z Z'] = Lambda, admits three tractable approximations at
small stepsize beta: a deterministic logistic flow on the timescale
t = beta n, Ornstein-Uhlenbeck fluctuations of size sqrt(beta) around the
flow's stationary points, and a three-phase decomposition of the journey
from a saddle start to the stationary fluctuation level.  This package
implements the iteration, the closed-form limits, the phase and rate
formulas, and Monte Carlo experiments that check each limit against
simulated ensembles.
"""

from . import montecarlo, ode, oja, phases, sde, spectrum
from .spectrum import *
from .oja import *
from .ode import *
from .sde import *
from .phases import *
from .montecarlo import *

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package re-exports all of them.
__all__ = ["__version__"] + [
    name for module in (spectrum, oja, ode, sde, phases, montecarlo) for name in module.__all__
]
