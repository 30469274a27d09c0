"""Analytic test distributions with known phase space singularities.

Each member pairs a sampling rule with the exact conic set of its
singular directions, so estimator output can be scored against ground
truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._read import number
from .cones import ConicSet, empty_set, full_space, graph_set, product_set
from .grids import Grid, SampledField


@dataclass(frozen=True)
class Delta:
    """Point mass at `a`, represented on grids as a single impulse of
    height 1/spacing^n so its Riemann sum is exactly one."""

    a: tuple[float, ...]

    def __init__(self, a=0.0):
        object.__setattr__(self, "a", _as_point(a))


@dataclass(frozen=True)
class PlaneWave:
    """Complex exponential exp(i a.x) with constant frequency `a`."""

    a: tuple[float, ...]

    def __init__(self, a=0.0):
        object.__setattr__(self, "a", _as_point(a))


@dataclass(frozen=True)
class Chirp:
    """Quadratic phase exp((i/2) x.Ax) for symmetric A, optionally
    damped by a unit Gaussian envelope."""

    a: tuple[tuple[float, ...], ...]
    envelope: bool = False

    def __init__(self, a, envelope: bool = False):
        m = np.atleast_2d(np.asarray(a, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ValueError("chirp matrix must be square")
        if not np.array_equal(m, m.T):
            raise ValueError("chirp matrix must be symmetric")
        object.__setattr__(self, "a", tuple(tuple(r) for r in m))
        object.__setattr__(self, "envelope", bool(envelope))

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.a, dtype=float)


@dataclass(frozen=True)
class GaussianPacket:
    """Modulated Gaussian exp(-|x-mu|^2/(2 sigma^2)) exp(i b.x)."""

    mu: tuple[float, ...]
    sigma: float = 1.0
    b: tuple[float, ...] = field(default=())

    def __init__(self, mu=0.0, sigma: float = 1.0, b=None):
        mu_t = _as_point(mu)
        # the samples divide by sigma^2, which must not overflow or underflow
        sigma = number(sigma, "sigma", "a positive number whose square is a positive finite float",
                       lambda s: s > 0 and 0.0 < s * s < math.inf)
        b_t = _as_point(b) if b is not None else tuple(0.0 for _ in mu_t)
        if len(b_t) != len(mu_t):
            raise ValueError("mu and b must have matching length")
        object.__setattr__(self, "mu", mu_t)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "b", b_t)


AnalyticDistribution = Delta | PlaneWave | Chirp | GaussianPacket


def _as_point(a) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    if arr.ndim != 1:
        raise ValueError("expected a point in R^n")
    return tuple(float(x) for x in arr)


def _dim_of(d: AnalyticDistribution) -> int:
    if isinstance(d, Chirp):
        return len(d.a)
    if isinstance(d, GaussianPacket):
        return len(d.mu)
    return len(d.a)


def _check_wave_band(freqs: np.ndarray, grid: Grid, what: str) -> None:
    limit = grid.nyquist
    worst = float(np.max(np.abs(freqs)))
    if worst > limit:
        raise ValueError(
            f"{what} frequency {worst:.6g} exceeds the grid band {limit:.6g}; "
            "refine the grid instead of sampling aliased data"
        )


def sample_analytic(d: AnalyticDistribution, grid: Grid) -> SampledField:
    """Sample a catalog member on a grid.

    Deltas snap to the nearest grid point (with a warning when the
    requested center is off the lattice) and error outside the box.
    Oscillatory members are rejected rather than aliased when their
    instantaneous frequency leaves the grid band.
    """
    n = grid.n
    if _dim_of(d) != n:
        raise ValueError(f"distribution dimension {_dim_of(d)} != grid dimension {n}")
    if isinstance(d, Delta):
        idx = []
        for ai in d.a:
            if abs(ai) > grid.L:
                raise ValueError(f"impulse center {ai} outside the box [-{grid.L}, {grid.L}]")
            j = int(round((ai + grid.L) / grid.spacing))
            j = min(max(j, 0), grid.N - 1)
            snapped = -grid.L + j * grid.spacing
            if abs(snapped - ai) > 1e-9 * max(1.0, abs(ai)):
                warnings.warn(
                    f"impulse center {ai} is off the lattice; snapped to {snapped}",
                    stacklevel=2,
                )
            idx.append(j)
        values = np.zeros((grid.N,) * n, dtype=complex)
        values[tuple(idx)] = grid.spacing ** (-n)
        return SampledField(grid, values)
    pts = grid.points()
    if isinstance(d, PlaneWave):
        _check_wave_band(np.asarray(d.a), grid, "plane wave")
        values = np.exp(1j * (pts @ np.asarray(d.a)))
    elif isinstance(d, Chirp):
        m = d.matrix
        # peak instantaneous frequency |A x|_inf over the box
        _check_wave_band(np.abs(m).sum(axis=1) * grid.L, grid, "chirp")
        values = np.exp(0.5j * np.einsum("ki,ij,kj->k", pts, m, pts))
        if d.envelope:
            values = values * np.exp(-0.5 * np.sum(pts * pts, axis=1))
    else:
        mu = np.asarray(d.mu)
        b = np.asarray(d.b)
        sq = np.sum((pts - mu) ** 2, axis=1)
        values = np.exp(-sq / (2.0 * d.sigma**2) + 1j * (pts @ b))
    return SampledField(grid, values.reshape((grid.N,) * n))


def exact_wf(d: AnalyticDistribution) -> ConicSet:
    """Ground-truth conic singularity set of a catalog member."""
    n = _dim_of(d)
    if isinstance(d, Delta):
        return product_set(None, full_space(n))
    if isinstance(d, PlaneWave):
        return product_set(full_space(n), None)
    if isinstance(d, GaussianPacket):
        return empty_set(2 * n)
    if d.envelope:
        return empty_set(2 * n)
    if np.allclose(d.matrix, 0.0):
        return product_set(full_space(n), None)
    return graph_set(d.a)
