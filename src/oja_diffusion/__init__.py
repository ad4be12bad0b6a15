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

The package re-exports the public API (each module's ``__all__``) of its six
library modules: spectrum, oja, ode, sde, phases and montecarlo.  Importing
the package loads none of them, nor numpy: a submodule, or a re-exported
name, is imported on first access (PEP 562), so ``oja_diffusion.cli`` can
answer ``--version`` and ``--help`` without the library.  ``dir()`` lists
every name, which imports the six modules.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("spectrum", "oja", "ode", "sde", "phases", "montecarlo")


def __getattr__(name: str):
    """A submodule, ``__all__``, or a name from a submodule's ``__all__``, imported on first use."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    modules = map(__getattr__, _MODULES)
    if name == "__all__":
        value = ["__version__"] + [n for module in modules for n in module.__all__]
    else:
        module = next((m for m in modules if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    """The package namespace with every submodule and re-exported name, loaded or not."""
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
