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

from ._read import number
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
    half_width = number(half_width, "half_width", "a positive finite number",
                        lambda x: 0.0 < x < math.inf)
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
    def axes(self) -> tuple[np.ndarray, ...]:
        """Coordinates of the 2n axes of `values`: the full lattice."""
        n = self.base_grid.n
        return (self.base_grid.axis(),) * n + (self.freq_grid.axis(),) * n

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass(frozen=True, eq=False)
class STFTMagnitude:
    """|V| on the box of the position-frequency lattice that `axes`
    spans, 0 off the set B of `_stft_rows` for `reach`, with the window
    spreads the estimator's trusted radii are read from; what
    `estimate_wf_from_stft` needs of an `STFTData`."""

    base_grid: Grid
    freq_grid: Grid
    values: np.ndarray
    window_sigma_x: float
    window_sigma_xi: float
    axes: tuple[np.ndarray, ...]
    reach: float = math.inf

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


@lru_cache(maxsize=8)
def _reach_set(n: int, N: int, L: float, reach: float):
    """The lines of the set B of `_stft_rows` on the grid (n, N, L): the
    admitted box indices x_1 and, per x_1 at n >= 2, each later level's
    (source row, table index) pairs and the box rows its last level
    fills, memoised as `wavefront._geometry` is, in read-only int32
    arrays (2^31 rows of at least 3 cells would be a box of over 50 GB)."""
    g = Grid(n, N, L)
    ex, ef = (np.maximum(np.abs(h.axis()[_box(h, reach)]) - h.spacing, 0.0) ** 2
              for h in (g, g.dual()))
    r2, P, F = reach * reach, ex.size, ef.size
    x0s, rows = np.flatnonzero(ex <= r2), []
    for x0 in x0s[:, None] if n > 1 else ():
        # partial sums in coordinate order: ((e(x_1) + e(xi_1)) + e(x_2)) + ...
        s, xrow, frow, levels = ex[x0], x0, np.zeros(1, np.intp), []
        for _ in range(n - 1):
            t = (s[:, None] + ef).ravel()
            src, j = np.nonzero(t[:, None] + ex <= r2)
            q, f = np.divmod(src, F)
            s, xrow, frow = t[src] + ex[j], xrow[q] * P + j, frow[q] * F + f
            levels.append((src.astype(np.int32), j.astype(np.int32)))
        rows.append((tuple(levels), (xrow * F ** (n - 1) + frow).astype(np.int32)))
    for a in (x0s, *(a for levels, dst in rows for a in (dst, *sum(levels, ())))):
        a.flags.writeable = False
    return x0s, tuple(rows)


def _stft_rows(u: SampledField, window: WindowFunction, reach: float = math.inf):
    """The FFT lines of V(x, xi) on the set B of the box `_box(., reach)`
    that multilinear interpolation reads at points of norm <= reach: the
    cells c with sum over a in (x_1, xi_1, ..., x_n) of max(|c_a| - D_a,
    0)^2 <= reach^2, D_a the spacing of axis a.  The last frequency axis
    is kept whole, since one FFT line yields all of it.  B is enough: a
    stencil corner c of a point p lies within D_a of p on every axis, so
    max(|c_a| - D_a, 0) <= |p_a| and the sum is at most |p|^2 <= reach^2.

    Yields (rows, lines): times the sign (-1)^(k_1 + ... + k_n) of its
    frequency indices, `_fft_scale` and 1/|window|, `lines[i]` is V on
    row `rows[i]` of the box with its first 2n - 1 axes (x_1, ..., x_n,
    xi_1, ..., xi_{n-1}) folded into one.

    The window is translated by whole grid steps with zero fill.  One
    without factors takes the general route: per x_1, one batched FFT of
    its translates at the x_2 its lines use, bit-identical to
    `fourier_forward` of each.  One with factors is separable, V(x, xi)
    = F_{y_n}[... F_{y_1}[u f_1(y_1 - x_1)] ... f_n(y_n - x_n)]: y_1 is
    transformed for all admitted x_1 at once, then level a > 1, one
    gathered batch per x_1, transforms y_a on the lines whose prefix
    (x_1, xi_1, ..., x_a) has a partial sum <= reach^2 and keeps xi_a
    where it still fits; it rounds differently at n >= 2.  Each FFT line
    depends only on its own position, so no cell's bytes depend on reach.
    """
    g = u.grid
    if not g.compatible(window.grid):
        raise ValueError("field and window grids differ")
    n, N, xs, fs = g.n, g.N, _box(g, reach), _box(g.dual(), reach)
    x0s, rows = _reach_set(n, N, g.L, reach)
    # fourier_forward's per-axis sign flips, moved out of the transform (exact)
    signs, tables = window._stft_arrays
    signed = u.values * signs
    if window.factors is None and n > 1:
        per_x2 = (xs.stop - xs.start) ** (n - 2) * (fs.stop - fs.start) ** (n - 1)
        for x0, (_, dst) in zip(x0s, rows):
            local = dst - x0 * (xs.stop - xs.start) * per_x2
            lo, hi = local.min() // per_x2, local.max() // per_x2 + 1
            block = signed * tables[0][(xs.start + x0, slice(xs.start + lo, xs.start + hi),
                                        *(xs,) * (n - 2))]
            for ax in range(-n, 0):  # axis order as in fourier_forward
                block = np.fft.fft(block, axis=ax)[(Ellipsis, fs) + (slice(None),) * (-ax - 1)]
            yield dst, block.reshape(-1, block.shape[-1])[local - lo * per_x2]
        return
    # the admitted x_1 are consecutive, so the table slice is a view, not a copy
    t = tables[0][xs.start + x0s[0]:xs.start + x0s[-1] + 1]
    block = np.fft.fft(signed * t.reshape((-1, N) + (1,) * (n - 1)), axis=1)[:, fs]
    if n == 1:
        yield x0s, block
    for part, (levels, dst) in zip(block, rows):    # no rows at n=1
        for a, (src, j) in enumerate(levels, 1):
            lines = part.reshape((-1,) + (N,) * (n - a))[src]
            lines *= tables[a][xs.start + j].reshape((-1, N) + (1,) * (n - a - 1))
            part = np.fft.fft(lines, axis=1, out=lines)[:, fs]
        yield dst, part


def stft(u: SampledField, window: WindowFunction) -> STFTData:
    """V(x, xi) on the full lattice: for each grid point x, transform
    y -> u(y) conj(window(y - x)) and divide by the window norm."""
    n, N = u.grid.n, u.grid.N
    out = np.empty((N,) * n + (N,) * n, dtype=complex)
    post, nrm = (window._stft_arrays[0] * _fft_scale(u.grid)).reshape(-1, N), 1.0 / window.l2norm
    for dst, lines in _stft_rows(u, window):
        lines = lines * post[dst % N ** (n - 1)]
        lines *= nrm
        out.reshape(-1, N)[dst] = lines
    return STFTData(u.grid, u.grid.dual(), out, window.sigma_x, window.sigma_xi)


def stft_magnitude(u: SampledField, window: WindowFunction,
                   reach: float = math.inf) -> STFTMagnitude:
    """|V| where multilinear interpolation at points of norm <= reach
    reads it, equal there to `abs(stft(u, window).values)` at the same
    lattice points, without ever holding the complex spectrogram.

    The array covers the box `_box(., reach)`; only its cells in the set
    B of `_stft_rows` are transformed, the others hold 0;
    `estimate_wf_from_stft` refuses it when `reach` is below its fit's.
    The signs `stft` applies are left out: flipping a sign is exact, so
    |(z s) / |w|| = |(z |s|) / |w|| bit for bit."""
    g, d = u.grid, u.grid.dual()
    px, pf = g.axis()[_box(g, reach)], d.axis()[_box(d, reach)]
    mag = np.zeros(px.shape * g.n + pf.shape * g.n)
    scale, nrm = abs(_fft_scale(g)), 1.0 / window.l2norm
    for dst, lines in _stft_rows(u, window, reach):
        lines = lines * scale     # a contiguous copy of the strided crop
        lines *= nrm
        mag.reshape(-1, pf.size)[dst] = np.abs(lines)
    return STFTMagnitude(g, d, mag, window.sigma_x, window.sigma_xi,
                         (px,) * g.n + (pf,) * g.n, reach)


def parseval_constant(g: Grid) -> float:
    """Exact lattice Parseval factor: spacing^{2n} sum |V|^2 equals this
    times |u|_2^2 for a unit-norm window."""
    return float((2.0 * g.L**2 / (np.pi * g.N)) ** g.n)
