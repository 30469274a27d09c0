"""Continuum-calibrated discrete Fourier transforms and the windowed
(short-time) transform used by the wavefront estimator.

Convention, fixed project-wide: F f(xi) = (2pi)^{-n/2} integral of
f(x) exp(-i xi.x) dx.  On a centered grid with spacing d = 2L/N this is
realized per axis as

    F_hat[k] = (2pi)^{-1/2} d (-1)^{N/2} (-1)^k FFT[(-1)^j f_j][k]

which is exactly unitary from the grid to its dual and has the sampled
unit Gaussian as a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid, SampledField


def _axis_shape(v: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = v.size
    return v.reshape(shape)


def _fft_scale(g: Grid) -> float:
    return ((2.0 * np.pi) ** -0.5 * g.spacing * (-1.0) ** (g.N // 2)) ** g.n


def fourier_forward(f: SampledField) -> SampledField:
    """Unitary Fourier transform; the result lives on the dual grid."""
    g = f.grid
    signs = (-1.0) ** np.arange(g.N)
    w = np.asarray(f.values, dtype=complex)
    for ax in range(g.n):
        s = _axis_shape(signs, ax, g.n)
        w = np.fft.fft(w * s, axis=ax) * s
    return SampledField(g.dual(), w * _fft_scale(g))


def fourier_inverse(f: SampledField) -> SampledField:
    """Inverse transform, also mapping a grid to its dual (the dual of
    the dual is the original grid, so round trips land home)."""
    g = f.grid
    back = fourier_forward(SampledField(g, np.conj(f.values)))
    return SampledField(back.grid, np.conj(back.values))


# ---------------------------------------------------------------------------
# windows

@dataclass(frozen=True, eq=False)
class WindowFunction:
    """A sampled window on `grid`.

    `factors`, when given, are one profile of length N per axis, and
    `values` must equal their outer product (axis 0 outermost, as
    `_outer` forms it).  The spectrogram then transforms such a window
    one axis at a time; a window of values alone takes the general
    route, one n-dimensional transform per position.
    """

    grid: Grid
    values: np.ndarray
    factors: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).reshape((self.grid.N,) * self.grid.n)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("window values must be finite")
        if not np.any(vals):
            raise ValueError("window must not vanish identically")
        if self.factors is not None:
            factors = _check_factors(self.grid, self.factors)
            if not np.array_equal(vals, _outer(factors)):
                raise ValueError("window values must equal the outer product of factors")
            object.__setattr__(self, "factors", factors)

    @cached_property
    def l2norm(self) -> float:
        g = self.grid
        return float(np.sqrt(g.spacing**g.n * np.sum(np.abs(self.values) ** 2)))

    @cached_property
    def sigma_x(self) -> float:
        """Largest per-axis amplitude-weighted spatial spread."""
        return _spread(self.grid, self.values)

    @cached_property
    def sigma_xi(self) -> float:
        """Largest per-axis amplitude-weighted spread of the transform."""
        hat = fourier_forward(SampledField(self.grid, self.values))
        return _spread(hat.grid, hat.values)

    @cached_property
    def _stft_arrays(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """What `_stft_rows` needs of the window whatever the field and
        reach, built once, read-only: the sign grid (-1)^(j_1 + ... + j_n)
        and the conjugate translates, where `table[j]` is conj(window)
        moved to x_j with zero fill.  A window with factors has one
        (N, N) table per axis, any other one n-dimensional table."""
        g = self.grid
        n, N, h = g.n, g.N, g.N // 2
        signs = np.ones((N,) * n)
        for ax in range(n):
            signs = signs * _axis_shape((-1.0) ** np.arange(N), ax, n)
        signs.flags.writeable = False
        profiles = (self.values,) if self.factors is None else self.factors
        tables = []
        for f in profiles:
            pad = np.zeros((3 * N,) * f.ndim, dtype=complex)
            pad[(slice(N, 2 * N),) * f.ndim] = f
            # a strided, read-only view: nothing is copied
            tables.append(sliding_window_view(np.conj(pad), (N,) * f.ndim)
                          [(slice(N + h, h, -1),) * f.ndim])
        return signs, tuple(tables)


def _check_factors(g: Grid, factors) -> tuple[np.ndarray, ...]:
    """The per-axis profiles as read-only float or complex arrays, or a
    ValueError naming `factors`."""
    factors = tuple(factors)
    if len(factors) != g.n:
        raise ValueError(f"factors: expected {g.n} per-axis profiles, got {len(factors)}")
    out = []
    for a, f in enumerate(factors):
        f = np.array(f, dtype=complex if np.iscomplexobj(f) else float)
        if f.shape != (g.N,):
            raise ValueError(f"factors[{a}]: expected shape ({g.N},), got {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"factors[{a}]: entries must be finite")
        if not np.any(f):
            raise ValueError(f"factors[{a}]: must not vanish identically")
        f.flags.writeable = False
        out.append(f)
    return tuple(out)


def _outer(factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """f_0 (x) f_1 (x) ... (x) f_{n-1}, multiplied in axis order."""
    vals = factors[0]
    for f in factors[1:]:
        vals = vals[..., None] * f
    return vals


def _spread(g: Grid, values: np.ndarray) -> float:
    amp = np.abs(values)
    total = float(amp.sum())
    if total == 0.0:
        return 0.0
    axis_pts = g.axis()
    worst = 0.0
    for ax in range(g.n):
        x2 = _axis_shape(axis_pts**2, ax, g.n)
        worst = max(worst, float(np.sum(x2 * amp)) / total)
    return float(np.sqrt(worst))


@lru_cache(maxsize=8)
def gaussian_window(g: Grid) -> WindowFunction:
    """pi^{-n/4} exp(-|x|^2/2); unit mass in L2 up to grid truncation.

    The product of the profile pi^{-1/4} exp(-x^2/2) on every axis, so
    the spectrogram transforms it one axis at a time.  Memoised per grid
    with read-only values, so its spreads, norm and translates are
    computed once per process."""
    profile = np.pi ** -0.25 * np.exp(-0.5 * g.axis() ** 2)
    factors = (profile,) * g.n
    window = WindowFunction(g, _outer(factors), factors)
    window.values.flags.writeable = False
    return window


_HANN_HALF_WIDTH = 2.5
"""Default half-width of `hann_window`, also the `twistlab wf` default."""


def hann_window(g: Grid, half_width: float = _HANN_HALF_WIDTH) -> WindowFunction:
    """Compactly supported cos^2 bump, product over axes; an unrelated
    window family for cross-checking estimator invariance."""
    if not (math.isfinite(half_width) and half_width > 0):
        raise ValueError(f"half_width must be finite and positive, got {half_width!r}")
    ax = g.axis()
    profile = np.where(
        np.abs(ax) < half_width,
        np.cos(np.pi * ax / (2.0 * half_width)) ** 2,
        0.0,
    )
    factors = (profile,) * g.n
    return WindowFunction(g, _outer(factors), factors)


# ---------------------------------------------------------------------------
# windowed transform

@dataclass(frozen=True, eq=False)
class STFTData:
    """Windowed spectrogram over the full position-frequency lattice.

    `values[j, k]` (multi-indices j over positions, k over frequencies)
    holds V(x_j, xi_k), the (2pi)^{-n/2} and 1/|window| factors included.
    """

    base_grid: Grid
    freq_grid: Grid
    values: np.ndarray
    window_sigma_x: float = 0.0
    window_sigma_xi: float = 0.0

    def __post_init__(self):
        n = self.base_grid.n
        expected = (self.base_grid.N,) * n + (self.freq_grid.N,) * n
        vals = np.asarray(self.values, dtype=complex).reshape(expected)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.base_grid.n

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Coordinates of the 2n axes of `values`: the full lattice."""
        return (self.base_grid.axis(),) * self.n + (self.freq_grid.axis(),) * self.n

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass(frozen=True, eq=False)
class STFTMagnitude:
    """|V| on the box of the position-frequency lattice that `axes`
    spans, with the window spreads the estimator's trusted radii are
    read from; what `estimate_wf_from_stft` needs of an `STFTData`."""

    base_grid: Grid
    freq_grid: Grid
    values: np.ndarray
    window_sigma_x: float
    window_sigma_xi: float
    axes: tuple[np.ndarray, ...]

    def magnitude(self) -> np.ndarray:
        return self.values


def _box(g: Grid, reach: float) -> slice:
    """Indices of the axis points within reach + one spacing of 0,
    rounded out to whole steps: every corner that multilinear
    interpolation reads for a coordinate in [-reach, reach]."""
    if not math.isfinite(reach):
        return slice(0, g.N)
    k = math.ceil(reach / g.spacing) + 1
    h = g.N // 2
    return slice(max(h - k, 0), min(h + k + 1, g.N))


def _stft_rows(u: SampledField, window: WindowFunction, reach: float = math.inf):
    """V(x, xi) at the positions |x| <= reach + sqrt(n) spacing, cropped
    to the box `_box(., reach)` in every position and frequency axis.

    Yields (row, cols, block) one position row at a time: `row` indexes
    the box's first n-1 position axes, the slice `cols` its last, and
    `block` of shape (cols,) + (box,) * n holds V there.  Positions of
    the box outside the reach are not yielded.

    The window is translated by whole grid steps with zero fill, so any
    sampled window works; the (2pi)^{-n/2} lives inside the transform.
    A window without factors takes the general route: one batched FFT
    transforms the row's window translates in reach, bit-identical to
    applying `fourier_forward` to each in turn.  A window with factors
    is separable, V(x, xi) = F_{y_n}[... F_{y_1}[u f_1(y_1 - x_1)] ...
    f_n(y_n - x_n)], so axis a is transformed once per admitted
    (x_1, ..., x_a) and every later y, and cropped to the frequency box
    before axis a + 1 is.  At n=1 both routes are the same operations;
    at n >= 2 the separable one rounds differently.  Either way every
    FFT line depends only on its own position, so the reach never
    changes a cell's bytes.
    """
    g = u.grid
    if not g.compatible(window.grid):
        raise ValueError("field and window grids differ")
    n = g.n
    xs, fs = _box(g, reach), _box(g.dual(), reach)
    # fourier_forward's per-axis sign flips, moved out of the transform
    # (flipping a sign is exact)
    signs, tables = window._stft_arrays
    signed = u.values * signs
    post = (signs * _fft_scale(g))[(fs,) * n]
    nrm = 1.0 / window.l2norm
    pos2 = g.axis()[xs] ** 2
    limit2 = (reach + math.sqrt(n) * g.spacing) ** 2
    dist2 = 0
    for ax in range(n):
        dist2 = dist2 + _axis_shape(pos2, ax, n)
    inside = dist2 <= limit2

    def admitted(mask):
        hit = np.flatnonzero(mask)
        return slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else None

    def finish(row, cols, block):
        block = block * post
        block *= nrm
        return row, cols, block

    if window.factors is None:
        for row in np.ndindex(*(pos2.size,) * (n - 1)):
            cols = admitted(inside[row])
            if cols is None:
                continue
            full_row = tuple(xs.start + i for i in row)
            block = signed * tables[0][full_row][xs.start + cols.start:xs.start + cols.stop]
            for ax in range(-n, 0):  # axis order as in fourier_forward
                # crop each transformed axis before the next one is transformed
                block = np.fft.fft(block, axis=ax)[(Ellipsis, fs) + (slice(None),) * (-ax - 1)]
            yield finish(row, cols, block)
        return

    def descend(part, row):
        # part: V transformed along the axes before a = len(row), at
        # the positions `row`, shape (fs,) * a + (N,) * (n - a)
        a = len(row)
        sel = admitted(inside[row].reshape(pos2.size, -1).any(axis=1))
        if sel is None:
            return
        t = tables[a][xs.start + sel.start:xs.start + sel.stop]
        t = t.reshape(t.shape[:1] + (1,) * a + t.shape[1:] + (1,) * (n - a - 1))
        block = np.fft.fft(part * t, axis=a + 1)[(slice(None),) * (a + 1) + (fs,)]
        if a == n - 1:
            yield finish(row, sel, block)
            return
        for i in range(block.shape[0]):
            yield from descend(block[i], row + (sel.start + i,))

    yield from descend(signed, ())


def stft(u: SampledField, window: WindowFunction) -> STFTData:
    """V(x, xi) on the full lattice: for each grid point x, transform
    y -> u(y) conj(window(y - x)) and divide by the window norm."""
    n, N = u.grid.n, u.grid.N
    out = np.empty((N,) * n + (N,) * n, dtype=complex)
    for row, cols, block in _stft_rows(u, window):
        out[row][cols] = block
    return STFTData(
        base_grid=u.grid,
        freq_grid=u.grid.dual(),
        values=out,
        window_sigma_x=window.sigma_x,
        window_sigma_xi=window.sigma_xi,
    )


def stft_magnitude(u: SampledField, window: WindowFunction,
                   reach: float = math.inf) -> STFTMagnitude:
    """|V| where multilinear interpolation at points of norm <= reach
    reads it, equal there to `abs(stft(u, window).values)` at the same
    lattice points, without ever holding the complex spectrogram.

    The array covers the box `_box(., reach)` of every position and
    frequency axis; its cells at positions |x| > reach + sqrt(n) spacing
    are never transformed and hold 0.  So `estimate_wf_from_stft` reads
    it right only when its r_max is at most `reach`."""
    g = u.grid
    d = g.dual()
    xs, fs = _box(g, reach), _box(d, reach)
    px, pf = g.axis()[xs], d.axis()[fs]
    mag = np.zeros(px.shape * g.n + pf.shape * g.n)
    for row, cols, block in _stft_rows(u, window, reach):
        np.abs(block, out=mag[row][cols])
    return STFTMagnitude(g, d, mag, window.sigma_x, window.sigma_xi,
                         (px,) * g.n + (pf,) * g.n)


def parseval_constant(g: Grid) -> float:
    """Exact lattice Parseval factor: spacing^{2n} sum |V|^2 equals this
    times |u|_2^2 for a unit-norm window."""
    return float((2.0 * g.L**2 / (np.pi * g.N)) ** g.n)
