"""Oja's streaming iteration in rescaled coordinates.

One step with stepsize beta and sample Y is

    v  <-  (v + beta (v . Y) Y) / || v + beta (v . Y) Y ||,

i.e. a rank-one stochastic power update followed by projection back to the
unit sphere.  Because the samples live in the eigenbasis, the quality of the
iterate is read off the coordinates: sin^2 of the angle to the top
eigendirection is the tail mass sum_{i>=2} v_i^2, which equals 1 - v_1^2 but
keeps its precision where that difference cancels to 0.

``increment_parts`` splits a single update into the main chain term

    main_k = beta ((v.Y) Y_k - v_k (v.Y)^2)

and the remainder of the projection, which is O(B^2 beta^2) whenever
||Y||^2 <= B and beta <= 1/(3B).  ``empirical_drift`` averages raw increments
over a fresh stream to expose the drift beta v_k (lambda_k - v' Lambda v) that
the deterministic limit integrates.

Every trajectory comes from one lockstep kernel over an (n_chains, d) array of
states, which keys all its chains' streams as ``chain_rng`` does, in one numpy pass.
``run_chain`` runs it on chain 0 alone and the ensembles on chunks of chains, so
a chain is bit for bit chain 0 of an ensemble.  It draws nothing past the last record.

For the Gaussian stream it leaves out the projection.  Before it, a step is
the linear map w <- (I + beta Y Y^T) w, so the chain on the sphere is the
normalised form of a stochastic power method.  The kernel steps
w += beta (w.Y) Y in place, normalises w at every K-th step (counted from
step 0), and records w / ||w|| without touching w.  K is the largest power
of two up to ``SAMPLE_BLOCK`` for which K steps cannot overflow ||w||,
chosen from beta and the trace alone.  So a recorded state depends only on
the chain's stream and the step.

The Gaussian kernel keeps the states coordinate-major, as (d, n_chains), and
each sample block as (block, d, n_chains), so every numpy call of a step
loops over the chains, not over the d coordinates of one chain.  A dot
product w.Y and a squared norm are a fixed pairwise tree of elementwise adds
over the coordinate rows, so a chain's bits never depend on how many chains
share the array; an ``einsum`` or ``add.reduce`` over the coordinate axis
would not give that, as numpy sums a lone chain's column in another order.
At d = 2 the tree is w_1 Y_1 + w_2 Y_2, the order of a sequential sum, so
the states are bit for bit those of a chain-major ``einsum`` kernel, and
with K = 1 every step is bit for bit the projected update of ``oja_step``.
At d >= 3 the order differs and states move by rounding only: against
``oja_step`` replayed on the same stream they agree within 1e-13 per
coordinate.

For the bounded stream it uses the closed form: each draw +/- sqrt(tr) e_i only
scales coordinate i by 1 + beta tr, so the updates commute and the state after n
steps is v_0 * (1 + beta tr)^c(n), normalised, where c(n) counts the draws of each
axis (the discrete form of the logistic flow), taken by one ``bincount`` per tile of
chains and block (a few chains' block spans several sample blocks).  It agrees with the
step loop to about 1e-14 per coordinate.  One block walk runs both streams, and the
Euler-Maruyama SDEs of ``sde`` too: after each block it checks the states recorded in it
(here finite, unit norm within 1e-11; there finite) and raises ``FloatingPointError``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .spectrum import (
    EigenSpectrum, GAUSSIAN_SAMPLER_NOTE, MAX_SEED, get_sampler, _axis_uniforms, _chain_rngs,
    _check_count, _check_real, _read_only, _real_array,
    chain_rng,  # unused here; the benchmark tracer patches it on this module
)

__all__ = [
    "OjaConfig",
    "Trajectory",
    "Table",
    "IncrementParts",
    "oja_step",
    "sin2_angle",
    "increment_parts",
    "empirical_drift",
    "resolve_init",
    "run_chain",
    "trajectory_from_csv",
]

# Sample streams are drawn in blocks of this size; a chain consuming its
# stream stepwise or blockwise sees the exact same values.
SAMPLE_BLOCK = 1024

# The unprojected Gaussian chain keeps ||w|| below exp(_LOG_NORM_MAX) between
# normalisations, so ||w||^2 stays finite.  A numpy float64 normal is at most
# 13.71 in magnitude (its ziggurat tail is r - log(u) / r with r = 3.654 and
# u >= 2^-53), so _Z2_MAX bounds every squared coordinate draw.  A draw past
# it could only overflow w to inf, which the record check reports.
_LOG_NORM_MAX = 345.0
_Z2_MAX = 200.0

# The Gaussian kernel draws the sample blocks of at most this many chains into
# one tile before it scales them into its coordinate-major buffer.
_DRAW_TILE = 64

# The bounded kernel bincounts as many chains of a tile at once as keep the
# (segments, chains, d) int64 counts within this many bytes, and at least one.
_COUNT_BYTES = 8 << 20

# Default number of recorded states per trajectory (plus endpoints).
_TARGET_RECORDS = 10_000

# The most steps a chain may take: every step index, grid steps included, is an int64.
_MAX_STEPS = 2**62

InitSpec = Union[str, Sequence[float], np.ndarray]


def _off_sphere(states: np.ndarray, tol: float) -> bool:
    """True when some state on the last axis is not a unit vector within tol.

    NaN never compares as within tol, so non-finite states count as off.
    """
    return not np.all(np.abs(np.einsum("...d,...d->...", states, states) - 1.0) <= tol)


def oja_step(v: np.ndarray, y: np.ndarray, beta) -> np.ndarray:
    """One projected update.  Accepts batched inputs on leading axes."""
    beta = _check_real("beta", beta, 0.0, math.inf, "()")
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    w = v + beta * np.einsum("...d,...d->...", v, y)[..., None] * y
    out = w / np.sqrt(np.einsum("...d,...d->...", w, w))[..., None]
    if _off_sphere(out, 1e-12):
        raise ValueError("update collapsed the iterate: the result is not a finite unit vector")
    return out


def sin2_angle(v: np.ndarray, w: np.ndarray) -> float:
    """sin^2 of the angle between two unit vectors, as ||v - (v.w) w||^2.

    It equals 1 - (v.w)^2, which cancels: that form reads 0 once sin^2 drops
    below the spacing of floats near 1.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    r = v - np.dot(v, w) * w
    return float(np.dot(r, r))


class IncrementParts(NamedTuple):
    main: np.ndarray
    remainder: np.ndarray


def increment_parts(v: np.ndarray, y: np.ndarray, beta) -> IncrementParts:
    """Split one update increment into main term and projection remainder.

    ``v + main + remainder`` reconstructs ``oja_step(v, y, beta)`` exactly up
    to float associativity.  For ||y||^2 <= B and beta <= 1/(3B) the remainder
    is uniformly O(B^2 beta^2) per coordinate.
    """
    beta = _check_real("beta", beta, 0.0, math.inf, "()")
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.sum(v * y, axis=-1, keepdims=True)
    main = beta * (s * y - v * s * s)
    remainder = oja_step(v, y, beta) - v - main
    return IncrementParts(main=main, remainder=remainder)


def empirical_drift(
    spec: EigenSpectrum,
    v: np.ndarray,
    beta: float,
    m: int,
    rng: np.random.Generator,
    sampler: str = "bounded",
) -> np.ndarray:
    """Average of m one-step increments from state v over a fresh stream.

    Estimates E[Delta v | v] = beta v_k (lambda_k - v' Lambda v) + O(beta^2);
    the standard error of each coordinate shrinks as m^{-1/2}.
    """
    m = _check_count("m", m)
    beta = _check_real("beta", beta, 0.0, math.inf, "()")
    v = np.asarray(v, dtype=float)
    draw = get_sampler(sampler)
    total = np.zeros(spec.d)
    done = 0
    while done < m:
        chunk = min(200_000, m - done)
        ys = draw(spec, rng, chunk)
        total += np.sum(oja_step(v, ys, beta) - v, axis=0)
        done += chunk
    return total / m


@dataclass(frozen=True, eq=False)
class OjaConfig:
    """Everything needed to reproduce one chain (or one ensemble member).

    ``init`` is either an explicit vector or a preset string: "uniform",
    "saddle:k", "near_saddle:k:eps", "warm:delta".  The warm start puts
    v_1^2 = 1 - delta with the remaining mass spread evenly.  It is parsed and
    checked once, here, into the private ``_init`` (an :class:`_Init`).
    ``seed`` is the master seed; the chain stream is ``chain_rng(seed, 0)``
    so that a lone chain coincides with chain 0 of an ensemble.  The bounded
    sampler needs beta <= 1/(3B), B = trace.  Each number is checked and kept
    as a plain float or int.
    """

    spec: EigenSpectrum
    beta: float
    n_steps: int
    init: InitSpec = "uniform"
    seed: int = 0
    sampler: str = "bounded"
    record_stride: Optional[int] = None

    def __post_init__(self):
        get_sampler(self.sampler)
        cap = 1.0 / (3.0 * self.spec.sample_bound) if self.sampler == "bounded" else math.inf
        checked = dict(beta=_check_real("beta", self.beta, 0.0, cap, "(]"),
                       n_steps=_check_count("n_steps", self.n_steps, 0, _MAX_STEPS),
                       seed=_check_count("seed", self.seed, 0, MAX_SEED))
        if self.record_stride is not None:
            checked["record_stride"] = _check_count("record_stride", self.record_stride)
        checked["_init"] = _parse_init(self.spec, self.init)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def resolved_stride(self) -> int:
        if self.record_stride is not None:
            return int(self.record_stride)
        return max(1, int(self.n_steps) // _TARGET_RECORDS)


def _config_echo(chain: Optional[OjaConfig] = None, **fields) -> dict:
    """The JSON-ready config echo that every report and experiment carries.

    ``chain`` contributes its spec, beta, n_steps, init, seed and sampler;
    ``fields`` add the rest and must include ``spec`` when there is no chain.
    A Gaussian sampler gets :data:`GAUSSIAN_SAMPLER_NOTE`.
    """
    if chain is not None:
        fields = dict(spec=chain.spec, beta=chain.beta, n_steps=int(chain.n_steps),
                      init=chain.init, seed=chain.seed, sampler=chain.sampler, **fields)
    echo = dict(fields, spec=[float(x) for x in fields["spec"].lambdas])
    if not isinstance(fields.get("init", ""), str):
        echo["init"] = [float(x) for x in np.asarray(fields["init"])]
    if "seed" in fields:
        echo["seed"] = int(fields["seed"])
    if fields.get("sampler") == "gaussian":
        echo["sampler_note"] = GAUSSIAN_SAMPLER_NOTE
    return echo


class _Init(NamedTuple):
    """An init as :class:`OjaConfig` parses it.

    ``axis`` is the k of "saddle:k" and "near_saddle:k:eps" (else None) and
    ``radius`` the eps of the latter; ``start`` is the unit start of an init
    that draws nothing, read-only, and None for "uniform" and "near_saddle".
    """

    axis: Optional[int]
    radius: float
    start: Optional[np.ndarray]

    def draw(self, d: int, rng: np.random.Generator) -> np.ndarray:
        """A chain's unit start; the random presets draw it from ``rng``."""
        if self.start is not None:
            return self.start
        g = rng.standard_normal(d)
        if self.axis is None:
            return g / np.linalg.norm(g)
        g[self.axis - 1] = 0.0
        v = self.radius * (g / np.linalg.norm(g))
        v[self.axis - 1] = 1.0
        return v / np.linalg.norm(v)


def _parse_init(spec: EigenSpectrum, init: InitSpec) -> _Init:
    """Parse and check an init: a preset string, or a vector of shape (d,) whose
    entries are finite and whose norm is above 1e-12.  ValueError otherwise."""
    d = spec.d
    axis, radius, start = None, 0.0, None
    if not isinstance(init, str):
        arr = _real_array("init vector", init)
        if arr.shape != (d,):
            raise ValueError(f"init vector must have shape ({d},), got {arr.shape}")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(arr))
        if norm == math.inf:  # the squares overflow: scale by the largest entry first
            arr = arr / np.abs(arr).max()
            norm = float(np.linalg.norm(arr))
        start = arr / _check_real("init vector norm", norm, 1e-12, math.inf, "(]")
    else:
        kind, *params = init.split(":")
        takes = {"uniform": (0, "no parameters"), "saddle": (1, "an axis, e.g. 'saddle:2'"),
                 "near_saddle": (2, "an axis and a radius, e.g. 'near_saddle:2:1e-4'"),
                 "warm": (1, "a delta, e.g. 'warm:0.25'")}
        if kind not in takes:
            raise ValueError(f"unknown init preset {init!r}; expected 'uniform', 'saddle:k', "
                             f"'near_saddle:k:eps' or 'warm:delta'")
        if len(params) != takes[kind][0]:
            raise ValueError(f"preset {kind!r} takes {takes[kind][1]}, got {init!r}")
        if kind == "warm":
            delta = _check_real("warm delta", float(params[0]), 0.0, 1.0, "()")
            start = np.full(d, np.sqrt(delta / (d - 1)))
            start[0] = np.sqrt(1.0 - delta)
        elif kind == "near_saddle":
            axis = _check_count("near_saddle axis", int(params[0]), 1, d)
            radius = _check_real("near_saddle radius", float(params[1]), 0.0, 1.0, "()")
        elif kind == "saddle":
            axis = _check_count("saddle axis", int(params[0]), 1, d)
            start = np.zeros(d)
            start[axis - 1] = 1.0
    return _Init(axis, radius, None if start is None else _read_only(start))


def resolve_init(spec: EigenSpectrum, init: InitSpec, rng: np.random.Generator) -> np.ndarray:
    """Materialize an init spec into a unit vector.

    Random presets consume the chain generator before the sample stream, in a
    fixed order, so trajectories stay reproducible.
    """
    return np.array(_parse_init(spec, init).draw(spec.d, rng))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of one chain at a fixed stride (endpoints always kept)."""

    config: OjaConfig
    times: np.ndarray  # integer step counts, shape (n_records,)
    states: np.ndarray  # shape (n_records, d)
    sin2_angle: np.ndarray  # tail mass sum_{i>=2} states[:, i]**2, i.e. 1 - v_1^2

    def table(self, include_states: bool = True) -> "Table":
        """The CSV table (step, v1..vd, sin2_angle), or (step, sin2_angle) without states."""
        if not include_states:
            return Table(columns=("step", "sin2_angle"), data=(self.times, self.sin2_angle))
        cols = ("step", *(f"v{i + 1}" for i in range(self.states.shape[1])), "sin2_angle")
        return Table(columns=cols, data=(self.times, *self.states.T, self.sin2_angle))


# Table.to_csv formats and writes this many rows at a time.
_CSV_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class Table:
    """Named columns of one length; :meth:`to_csv` writes every CSV the package writes.

    ``data`` holds one 1-D array, or list of Python scalars and None, per
    name in ``columns``; a list is kept as the array ``np.asarray`` makes.
    """

    columns: tuple
    data: tuple

    def __post_init__(self):
        data = tuple(np.asarray(col) for col in self.data)
        if not data or len(data) != len(self.columns) or any(
            col.ndim != 1 or len(col) != len(data[0]) for col in data
        ):
            raise ValueError(f"need one 1-D column of a common length per name in {self.columns}")
        object.__setattr__(self, "data", data)

    @property
    def rows(self) -> list:
        """The rows, as tuples of Python scalars."""
        return list(zip(*(col.tolist() for col in self.data)))

    def to_csv(self, path) -> None:
        """Write the header, then the rows a chunk at a time.

        A chunk's cells are its column slices' ``tolist()``, Python scalars
        that the csv writer writes as their repr, and None as an empty cell.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for lo in range(0, len(self.data[0]), _CSV_CHUNK):
                writer.writerows(zip(*(col[lo:lo + _CSV_CHUNK].tolist() for col in self.data)))


def trajectory_from_csv(path, config: OjaConfig) -> Trajectory:
    """Rebuild a trajectory from the CSV of :meth:`Trajectory.table`.

    ValueError unless it has a state column per coordinate of ``config.spec``
    and its steps increase strictly within [0, config.n_steps].
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:1] != ["step"] or header[-1:] != ["sin2_angle"]:
            raise ValueError(f"not a trajectory CSV: unexpected header {header}")
        if len(header) != config.spec.d + 2:
            raise ValueError(f"trajectory CSV has {len(header) - 2} state columns, but the "
                             f"config's spec has d={config.spec.d}")
        rows = [row for row in reader]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError(f"trajectory CSV needs at least one row, each of {len(header)} cells")
    times = np.array([int(r[0]) for r in rows])
    if times[0] < 0 or times[-1] > config.n_steps or np.any(np.diff(times) <= 0):
        raise ValueError(f"trajectory steps must increase strictly within [0, n_steps="
                         f"{config.n_steps}]")
    states = np.array([[float(x) for x in r[1:-1]] for r in rows])
    sin2 = np.array([float(r[-1]) for r in rows])
    return Trajectory(config=config, times=times, states=states, sin2_angle=sin2)


def record_steps(n_steps: int, stride: int) -> np.ndarray:
    """Steps to record: every stride-th step plus the final one."""
    steps = np.arange(0, n_steps + 1, stride)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps


def _renorm_period(base: OjaConfig) -> int:
    """Steps K between two normalisations of the unprojected Gaussian chain.

    A step multiplies ||w|| by at most 1 + beta ||y||^2, and a Gaussian draw
    has ||y||^2 <= _Z2_MAX tr, so K steps from a unit vector keep ||w|| below
    exp(_LOG_NORM_MAX) and ||w||^2 finite.  K is the largest power of two up to
    :data:`SAMPLE_BLOCK` that allows this, and 1 when even one step might not.
    """
    growth = math.log1p(base.beta * _Z2_MAX * base.spec.trace)
    k = SAMPLE_BLOCK
    while k > 1 and k * growth > _LOG_NORM_MAX:
        k //= 2
    return k


def _pairwise_folds(rows: np.ndarray) -> list:
    """View pairs (a, b) over ``rows`` that sum its rows as a fixed pairwise tree.

    ``np.add(a, b, out=a)`` over the pairs in order leaves the sum of the rows
    in ``rows[0]``.  Every add is elementwise, so a column's sum never depends
    on the other columns, and two rows sum as rows[0] + rows[1].
    """
    folds = []
    m = len(rows)
    while m > 1:
        h = m // 2
        folds.append((rows[:h], rows[m - h:m]))
        m -= h
    return folds


def _step_loop(base: OjaConfig, rngs: list, v: np.ndarray):
    """Advance the Gaussian stream by w += beta (w.y) y, normalising every K steps.

    The normalisation runs at the steps divisible by K (:func:`_renorm_period`)
    and a record holds w / ||w||, so a recorded state depends only on the
    chain's stream and the step.  States and samples are coordinate-major,
    (d, n) and (block, d, n), and each dot product and squared norm is the
    pairwise tree of :func:`_pairwise_folds` over the coordinate rows.
    """
    # Positional outs: numpy takes about twice as long to parse out= on the
    # few-element rows of a single chain.
    mul, add, div, sqrt = np.multiply, np.add, np.divide, np.sqrt
    k = _renorm_period(base)
    n, d = v.shape
    root = base.spec._root_lambdas[:, None]
    ys = np.empty((SAMPLE_BLOCK, d, n))
    tile = np.empty((min(n, _DRAW_TILE), SAMPLE_BLOCK, d))
    w = v.T.copy()
    prod = np.empty_like(w)
    folds = _pairwise_folds(prod)
    s = prod[0]
    sy = np.empty_like(w)
    # The scaling by beta and the square root run over the first two rows of
    # prod, the second only scratch: numpy takes about twice as long over a
    # one-element array, which is what s is for a single chain.
    s2 = prod[:2]
    beta = np.full(s2.shape, base.beta)

    def advance(blk: int, offsets: np.ndarray, dest: np.ndarray) -> None:
        # Chain i draws its block as sample_gaussian does, into a row of the
        # tile; one multiply per tile scales it and moves it to ys.
        for lo in range(0, n, _DRAW_TILE):
            chunk = rngs[lo:lo + _DRAW_TILE]
            for i, rng in enumerate(chunk):
                rng.standard_normal(out=tile[i, :blk])
            np.multiply(tile[:len(chunk), :blk].transpose(1, 2, 0), root,
                        out=ys[:blk, :, lo:lo + len(chunk)])
        # A record keeps w as it is; all of them are divided by their norms
        # after the block, through the same tree as in the loop.
        rows = dict(zip(offsets.tolist(), dest.transpose(0, 2, 1)))
        for step, y in enumerate(ys[:blk], 1):
            mul(w, y, prod)
            for a, b in folds:
                add(a, b, a)
            mul(s2, beta, s2)
            mul(s, y, sy)
            add(w, sy, w)
            if step in rows:
                rows[step][...] = w
            if step % k == 0:
                mul(w, w, prod)
                for a, b in folds:
                    add(a, b, a)
                sqrt(s2, s2)
                div(w, s, w)
        if rows:
            sq = mul(dest, dest)
            for a, b in _pairwise_folds(np.moveaxis(sq, -1, 0)):
                add(a, b, a)
            norm = sqrt(sq[..., :1], sq[..., :1])
            div(dest, norm, dest)

    return advance


def _axis_counts(base: OjaConfig, rngs: list, v0: np.ndarray, rec_steps: np.ndarray):
    """Advance the bounded stream in closed form, by per-axis draw counts; and its block.

    A draw +/- sqrt(tr) e_i scales coordinate i by 1 + beta tr and leaves the
    rest alone, so the updates commute: after n steps the state is
    v0 * (1 + beta tr)^c(n), normalised, where c(n) counts the draws of each
    axis.  It is formed in log space, shifted by its row maximum, so it never
    overflows, and coordinates that start at 0 stay exactly 0.  A block is
    counted :data:`_DRAW_TILE` chains at a time: their axis uniforms fill one
    buffer, their signs are skipped, their axes are found on the axis cdf (by d - 1
    compares for (d - 1) * SAMPLE_BLOCK draws or more), and one ``bincount`` over
    (segment, chain, axis) counts them, a segment being the draws between two records;
    fewer chains share a ``bincount`` when their counts would pass :data:`_COUNT_BYTES`.
    A tile of t chains counts k sample blocks at once, k <= _DRAW_TILE / t and k <=
    SAMPLE_BLOCK / (most records in a sample block): within a full tile's memory.
    """
    d, cdf = base.spec.d, base.spec._axis_cdf
    with np.errstate(divide="ignore"):
        log_v0 = np.log(np.abs(v0))
    sign = np.sign(v0)
    log_gain = np.log1p(base.beta * base.spec.trace)
    tile = min(len(rngs), _DRAW_TILE)
    densest = np.unique((rec_steps - 1) // SAMPLE_BLOCK, return_counts=True)[1].max()
    block = SAMPLE_BLOCK * min(_DRAW_TILE // tile, SAMPLE_BLOCK // densest)
    uniforms = np.empty(tile * block)
    keys = np.empty(tile * block, dtype=np.intp)
    counts = np.zeros(v0.shape, dtype=np.int64)

    def advance(blk: int, offsets: np.ndarray, dest: np.ndarray) -> None:
        segment = offsets[offsets < blk].searchsorted(np.arange(blk), side="right")
        per = max(1, min(tile, _COUNT_BYTES // (8 * d * (int(segment[-1]) + 1))))
        for lo in range(0, len(rngs), per):
            t = min(per, len(rngs) - lo)
            u = uniforms[:t * blk].reshape(t, blk)
            for row, rng in zip(u, rngs[lo:lo + t]):
                for i in range(0, blk, SAMPLE_BLOCK):
                    _axis_uniforms(rng, row[i:i + SAMPLE_BLOCK], signs=False)
            key = keys[:t * blk].reshape(t, blk)
            np.add.outer(np.arange(t) * d, segment * (t * d), out=key)
            if (d - 1) * SAMPLE_BLOCK <= u.size:
                for c in cdf[:-1]:
                    key += u >= c
            else:
                key += cdf.searchsorted(u, side="right")
            hits = np.bincount(key.ravel(), minlength=(segment[-1] + 1) * t * d).reshape(-1, t, d)
            np.cumsum(hits, axis=0, out=hits)
            np.add(hits[: len(offsets)], counts[lo:lo + t], out=dest[:, lo:lo + t])
            counts[lo:lo + t] += hits[-1]
        # Shift the (exact, integer) counts so the row's largest is 0 before
        # scaling: the exponents of comparable coordinates stay small, and so
        # does their rounding error, however long the chain.
        dest -= dest.max(axis=-1, keepdims=True)
        dest *= log_gain
        dest += log_v0
        dest -= dest.max(axis=-1, keepdims=True)
        np.exp(dest, out=dest)
        dest *= sign
        dest /= np.sqrt(np.einsum("...d,...d->...", dest, dest))[..., None]

    return advance, block


def _walk_blocks(v0: np.ndarray, rec_steps: np.ndarray, block: int, advance, bad, fault: str,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """States (n_rec,) + v0.shape from v0 at strictly increasing ``rec_steps`` (into ``out``).

    ``advance(blk, offsets, dest)`` takes the next ``blk`` steps, at most ``block``, and
    writes the states after its steps ``offsets`` (1..blk) into ``dest``; when ``bad(dest)``,
    ``FloatingPointError(fault.format(step=...))`` names the block's last step.
    """
    if out is None:
        out = np.empty((len(rec_steps),) + v0.shape)
    pos = int(rec_steps[0] == 0)
    out[:pos] = v0
    last = int(rec_steps[-1])
    for start in range(0, last, block):
        blk = min(block, last - start)
        first, pos = pos, int(np.searchsorted(rec_steps, start + blk, side="right"))
        advance(blk, rec_steps[first:pos] - start, out[first:pos])
        if bad(out[first:pos]):
            raise FloatingPointError(fault.format(step=start + blk))
    return out


def _run_lockstep(base: OjaConfig, chains: range, rec_steps: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Run chains ``chains`` of ``base`` in lockstep: states (n_rec, n_chains, d).

    Chain i draws its init (when random) and then its samples from
    ``chain_rng(base.seed, i)``'s stream, :data:`SAMPLE_BLOCK` draws per call, so a
    chain's values never depend on which other chains share the run.  ``rec_steps``
    must be strictly increasing within [0, n_steps]; nothing is drawn past the
    last of them.  The bounded stream advances in closed form, the Gaussian
    stream by the step loop.  After each block the states recorded in it must
    be finite unit vectors within 1e-11, else ``FloatingPointError`` (a
    runtime fault, not a config error).  The states go into ``out`` when
    given.
    """
    rngs = _chain_rngs(base.seed, chains)
    v = np.array([base._init.draw(base.spec.d, rng) for rng in rngs])
    advance, block = (_axis_counts(base, rngs, v, rec_steps) if base.sampler == "bounded"
                      else (_step_loop(base, rngs, v), SAMPLE_BLOCK))
    fault = (f"chain states left the unit sphere by step {{step}} (non-finite, or squared norm "
             f"off 1 by more than 1e-11); beta={base.beta} is likely too large for the "
             f"'{base.sampler}' stream")
    return _walk_blocks(v, rec_steps, block, advance, lambda s: _off_sphere(s, 1e-11),
                        fault, out)


def _sin2(states: np.ndarray) -> np.ndarray:
    """sin^2 to e_1 of unit states on the last axis, as the tail mass sum_{i>=2} v_i^2.

    It equals 1 - v_1^2, which cancels: that form reads 0 once the tail mass
    drops below the spacing of floats near 1.
    """
    tail = states[..., 1:]
    return np.einsum("...d,...d->...", tail, tail)


def run_chain(config: OjaConfig) -> Trajectory:
    """Run one chain and record every ``record_stride``-th state.

    Deterministic given the config: the chain is chain 0 of a lockstep run, so
    its stream is ``chain_rng(seed, 0)``, the init (when random) is drawn from
    it first, and samples are consumed in blocks of :data:`SAMPLE_BLOCK`.
    """
    steps = record_steps(config.n_steps, config.resolved_stride())
    states = _run_lockstep(config, range(1), steps)[:, 0]
    return Trajectory(config=config, times=steps, states=states, sin2_angle=_sin2(states))
