"""Covariance models in the eigenbasis, sample-stream generators, and RNG plumbing.

Everything downstream works in rescaled coordinates where the covariance matrix
is diagonal, Lambda = diag(lambda_1, ..., lambda_d), ordered so that

    lambda_1 > lambda_2 >= ... >= lambda_d > 0.

The strict top gap lambda_1 - lambda_2 is what makes the top eigenvector
identifiable, so it is validated here once and assumed everywhere else.

Two zero-mean sample distributions with E[Y Y^T] = Lambda exactly are provided:

* ``sample_bounded``: atomic, supported on the 2d points +/- sqrt(tr) e_i with
  axis probabilities lambda_i / tr.  Every draw has the same squared norm
  tr(Lambda), so the almost-sure bound B = tr(Lambda) holds with equality.
* ``sample_gaussian``: independent N(0, lambda_i) coordinates.  Unbounded (no
  almost-sure norm bound), but with the product fourth moments
  E[Y_k^2 Y_i^2] = lambda_k lambda_i (i != k) that the local diffusion limits
  are calibrated to.

Randomness contract: all chain streams come from the counter-based Philox
generator, seeded through ``SeedSequence(master_seed, spawn_key=(index,...))``.
Chain i of any ensemble uses ``chain_rng(master_seed, i)``, which makes every
run reproducible and independent of worker scheduling.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "EigenSpectrum",
    "FieldError",
    "make_spectrum",
    "sample_bounded",
    "sample_gaussian",
    "random_rotation",
    "chain_rng",
    "derive_seed",
]

ArrayLike = Union[Sequence[float], np.ndarray]

# Largest admissible master seed: SeedSequence entropy is used as an unsigned
# 64-bit word so configs stay portable across serialization formats.
MAX_SEED = 2**64 - 1

# The largest float whose square is a float.
_ROOT_FLOAT_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Diagonal covariance spectrum with a strict top eigengap.

    Construct through :func:`make_spectrum`, which validates the ordering
    constraints; the constructor itself does not re-check.
    """

    lambdas: np.ndarray = field(repr=True)

    @property
    def d(self) -> int:
        return self.lambdas.shape[0]

    @property
    def gap(self) -> float:
        """Top eigengap lambda_1 - lambda_2 (strictly positive)."""
        return float(self.lambdas[0] - self.lambdas[1])

    @property
    def trace(self) -> float:
        """tr(Lambda), also the exact norm bound B of the bounded sampler."""
        return float(np.sum(self.lambdas))

    @property
    def sample_bound(self) -> float:
        """Almost-sure bound B on ||Y||^2 for the bounded sampler."""
        return self.trace

    @property
    def _max_dt(self) -> float:
        """Largest time step of the Euler-Maruyama and RK4 integrators, 1e-2 / lambda_1."""
        return 1e-2 / float(self.lambdas[0])

    def tail(self) -> np.ndarray:
        """Eigenvalues below the top one, i.e. (lambda_2, ..., lambda_d)."""
        return self.lambdas[1:]

    @cached_property
    def _axis_cdf(self) -> np.ndarray:
        """Axis cdf of the bounded sampler, built as ``Generator.choice`` builds it."""
        cdf = np.cumsum(np.asarray(self.lambdas) / self.trace)
        return _read_only(cdf / cdf[-1])

    @cached_property
    def _root_lambdas(self) -> np.ndarray:
        """Coordinate scales sqrt(lambda_i) of the Gaussian stream."""
        return _read_only(np.sqrt(np.asarray(self.lambdas)))


def make_spectrum(lambdas: ArrayLike) -> EigenSpectrum:
    """Validate and freeze an eigenvalue sequence.

    Requirements: dimension >= 2, every entry strictly positive, strict top
    gap lambda_1 > lambda_2, and a nonincreasing tail
    lambda_2 >= lambda_3 >= ... >= lambda_d.
    """
    arr = _real_array("eigenvalues", lambdas, 0.0, math.inf, "()")
    if arr.ndim != 1:
        raise ValueError(f"eigenvalues must form a 1-d sequence, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError(f"need dimension d >= 2, got d={arr.shape[0]}")
    if not arr[0] > arr[1]:
        raise ValueError(
            f"top eigengap must be strictly positive (lambda_1 > lambda_2), "
            f"got lambda_1={arr[0]} and lambda_2={arr[1]}"
        )
    if np.any(np.diff(arr[1:]) > 0.0):
        raise ValueError(
            f"tail eigenvalues must be nonincreasing, got {arr[1:].tolist()}"
        )
    return EigenSpectrum(lambdas=_read_only(arr.copy()))


def sample_bounded(
    spec: EigenSpectrum, rng: np.random.Generator, size: Optional[int] = None
) -> np.ndarray:
    """Draw from the atomic distribution +/- sqrt(tr) e_i, P(axis i) = lambda_i/tr.

    By construction E[Y] = 0, E[Y Y^T] = Lambda, and ||Y||^2 = tr(Lambda) on
    every draw, so the bounded-stream assumption holds with B = tr(Lambda).
    Returns shape (d,) when ``size`` is None, else (size, d).  A single draw
    equals the first row of a block draw from the same generator state.
    """
    n = 1 if size is None else _check_count("size", size)
    idx, signs = _axis_draws(spec, rng, n)
    y = np.zeros((n, spec.d))
    y[np.arange(n), idx] = signs * np.sqrt(spec.trace)
    return y[0] if size is None else y


def _axis_draws(spec: EigenSpectrum, rng: np.random.Generator, n: int):
    """Axes and signs of n bounded-stream draws; the axes are those of
    ``rng.choice(d, size=n, p=lambda/tr)``, without its per-call checks."""
    u = np.empty(n)
    signs = _axis_uniforms(rng, u)
    return spec._axis_cdf.searchsorted(u, side="right"), signs * 2 - 1


def _axis_uniforms(rng: np.random.Generator, out: np.ndarray, signs: bool = True):
    """Draw a bounded-stream block: its axis uniforms into ``out``, then its signs, as 0 or 1.

    ``signs=False`` skips an even number of signs, each one 32-bit half of a
    64-bit word, by using up as many words as drawing them would."""
    rng.random(out=out)
    if signs or len(out) % 2:
        return rng.integers(0, 2, size=len(out))
    rng.bit_generator.random_raw(len(out) // 2)


def sample_gaussian(
    spec: EigenSpectrum, rng: np.random.Generator, size: Optional[int] = None
) -> np.ndarray:
    """Draw independent N(0, lambda_i) coordinates.

    Matches Lambda in second moments and has E[Y_k^2 Y_i^2] = lambda_k lambda_i
    for i != k and E[Y_k^4] = 3 lambda_k^2.  Unbounded: there is no almost-sure
    norm bound, which outputs that use this sampler must flag.
    """
    n = 1 if size is None else _check_count("size", size)
    y = rng.standard_normal((n, spec.d))
    y *= spec._root_lambdas
    return y[0] if size is None else y


SAMPLERS = {"bounded": sample_bounded, "gaussian": sample_gaussian}

# Human-readable caveat attached to any report produced with the Gaussian stream.
GAUSSIAN_SAMPLER_NOTE = (
    "gaussian samples are unbounded: the almost-sure norm bound ||Y||^2 <= B "
    "does not hold for this stream"
)


def get_sampler(name: str):
    try:
        return SAMPLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown sampler {name!r}, expected one of {sorted(SAMPLERS)}"
        ) from None


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation via QR of a Gaussian matrix with sign correction."""
    a = rng.standard_normal((_check_count("d", d),) * 2)
    q, r = np.linalg.qr(a)
    # Fix the sign ambiguity of QR so the distribution is exactly Haar.
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    # Haar on the orthogonal group lands in either component; flip one column
    # to stay in the rotation subgroup the name promises.
    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return q


def chain_rng(master_seed: int, *index: int) -> np.random.Generator:
    """Philox generator for one chain of an ensemble.

    ``chain_rng(seed, i)`` is the stream of chain i; distinct indices give
    statistically independent streams and the derivation is pure, so results
    never depend on how chains are scheduled across workers.
    """
    ss = np.random.SeedSequence(_check_count("seed", master_seed, 0, MAX_SEED),
                                spawn_key=tuple(int(k) for k in index))
    return np.random.Generator(np.random.Philox(ss))


def _chain_rngs(master_seed: int, chains: range) -> list:
    """``[chain_rng(master_seed, i) for i in chains]``, the Philox keys of all one-word i
    hashed at once in uint32 arithmetic; an index of 2**32 or more takes chain_rng."""
    if chains.stop > 2**32:
        return [chain_rng(master_seed, i) for i in chains]
    pool = np.random.SeedSequence(_check_count("seed", master_seed, 0, MAX_SEED)).pool[:, None]
    x = np.arange(chains.start, chains.stop, chains.step, dtype=np.uint32)
    x = (x ^ _HASH_MIX[:-1]) * _HASH_MIX[1:]
    x = pool * 0xCA01F9DD - (x ^ x >> 16) * 0x4973F715
    x = (x ^ x >> 16 ^ _HASH_STATE[:-1]) * _HASH_STATE[1:]
    words = (x ^ x >> 16).astype(np.uint64)
    from numpy.random.bit_generator import ISeedSequence  # here, so importing this loads none
    ISeedSequence.register(_KeySequence)
    return [np.random.Generator(np.random.Philox(_KeySequence(key)))
            for key in (words[0::2] | words[1::2] << 32).T]


class _KeySequence:
    """Hands ``Philox`` its key; ``Philox(key=...)`` would draw OS entropy it never uses."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


# SeedSequence's k-th hash of x is (x ^ h_k) * h_k+1, then x ^ x >> 16, h_k = init * mult**k
# mod 2**32.  Index i's hashes 16-19 mix into the seed's pool words p as p * 0xCA01F9DD - hash
# * 0x4973F715, then ^ >> 16; generate_state hashes the pool (hashes 0-3, its own init, mult).
_HASH_MIX, _HASH_STATE = (
    np.array([init * pow(mult, k, 2**32) % 2**32 for k in ks], dtype=np.uint32)[:, None]
    for init, mult, ks in ((0x43B0D7E5, 0x931E8875, range(16, 21)),
                           (0x8B51F9DD, 0x58F38DED, range(5))))


def derive_seed(master_seed: int, *index: int) -> int:
    """Derive a child 64-bit seed from a master seed and an index path."""
    ss = np.random.SeedSequence(_check_count("seed", master_seed, 0, MAX_SEED),
                                spawn_key=tuple(int(k) for k in index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _out_of_range(name: str, kind: str, value, low, high, brackets: str) -> ValueError:
    """The one message of both checks: ``name`` must be ``kind`` in the interval, got ``value``."""
    if isinstance(value, np.generic):
        value = value.item()
    ends = [f"{x:.6g}" if isinstance(x, float) else str(x) for x in (low, high)]
    lo = "(" if low == -math.inf else brackets[0]
    hi = ")" if high == math.inf else brackets[1]
    return ValueError(f"{name} must be {kind} in {lo}{ends[0]}, {ends[1]}{hi}, got {value!r}")


def _check_real(name: str, value, low: float = -math.inf, high: float = math.inf,
                brackets: str = "[]"):
    """The real number ``value`` as a float, checked to be finite, not a bool, and in range.

    The range runs from ``low`` to ``high``; ``brackets`` says whether each end is
    closed, "[" or "]", or open, "(" or ")".  Each comparison fails on NaN.  An
    ndarray is checked entry by entry, or by its least and greatest entries
    (NaN is both) when it has more than two, and is returned as it is.
    ValueError naming ``name`` otherwise.
    """
    if isinstance(value, np.ndarray):
        for x in value.ravel().tolist() if value.size < 3 else (value.min(), value.max()):
            _check_real(name, x, low, high, brackets)
        return value
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    x = float(value) if real and abs(value) <= sys.float_info.max else math.nan
    if not (math.isfinite(x) and (low < x if brackets[0] == "(" else low <= x)
            and (x < high if brackets[1] == ")" else x <= high)):
        raise _out_of_range(name, "a finite number", value, low, high, brackets)
    return x


def _check_count(name: str, value, low: int = 1, high: float = math.inf) -> int:
    """The integer ``value`` as an int, checked to be in [low, high] and not a bool.

    Pure Python, as ``chain_rng`` runs it on every call.  ValueError naming
    ``name`` otherwise.
    """
    try:
        valid = not isinstance(value, bool) and int(value) == value and low <= value <= high
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise _out_of_range(name, "an integer", value, low, high, "[]")
    return int(value)


def _real_array(name: str, value, low=-math.inf, high=math.inf, brackets="[]") -> np.ndarray:
    """``value`` as a checked float ndarray; list and tuple entries are checked before the cast."""
    if isinstance(value, (list, tuple)):
        return np.array([_check_real(name, x, low, high, brackets) for x in value], dtype=float)
    if isinstance(value, np.ndarray) and value.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got an array of dtype {value.dtype}")
    return np.asarray(_check_real(name, value, low, high, brackets), dtype=float)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class FieldError(ValueError):
    """A failed input check; ``field`` names the input's config key, None the whole config."""

    def __init__(self, field, message: str):
        super().__init__(message)
        self.field = field


@contextlib.contextmanager
def _blame(field: str):
    """Re-raise a ValueError, TypeError, OverflowError or OSError as a FieldError naming field."""
    try:
        yield
    except (ValueError, TypeError, OverflowError, OSError) as e:  # a FieldError keeps its field
        raise FieldError(getattr(e, "field", field), str(e)) from None
