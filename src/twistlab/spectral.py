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
import threading
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
        plan, built once, read-only: the sign grid (-1)^(j_1 + ... + j_n)
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

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass(frozen=True, eq=False)
class LinePlan:
    """The FFT lines of V a spectrogram on `grid` transforms, on the box
    of the lattice with indices `xs` on each position axis and `fs` on
    each frequency axis.  A row is a cell of the box's first 2n - 1 axes
    (x_1, ..., x_n, xi_1, ..., xi_{n-1}), one FFT line along the last.
    `rows` are the rows filled, sorted, and `x0s` their x_1; the rows of
    x_1 = `x0s[i]` are `rows[bounds[i]:bounds[i + 1]]`.  At n >= 2,
    `lines[i]` holds for that x_1 each later level's (source row, table
    index) pairs: source-major below the last level, and at the last one
    pair per row in row order, so that its lines come out in the order of
    `rows`.  Every array is read-only int32: 2^31 rows would be a box of
    over 50 GB."""

    grid: Grid
    xs: slice
    fs: slice
    rows: np.ndarray
    x0s: np.ndarray
    bounds: np.ndarray
    lines: tuple


def _line_plan(g: Grid, xs: slice, fs: slice, rows) -> LinePlan:
    """The plan that fills the box rows `rows`, sorted and distinct: per
    x_1, level a >= 1 transforms the distinct prefixes (x_1, xi_1, ...,
    xi_a, x_{a+1}) of those rows, the last level each row's own."""
    n, P, F = g.n, xs.stop - xs.start, fs.stop - fs.start
    digits = np.unravel_index(rows, (P,) * n + (F,) * (n - 1))
    x0s, starts = np.unique(digits[0], return_index=True)
    bounds = np.append(starts, len(rows))
    lines = []
    for lo, hi in zip(bounds[:-1], bounds[1:]) if n > 1 else ():
        line, levels = np.zeros(hi - lo, np.intp), []   # each row's line at the level before
        for a in range(1, n):
            key = (line * F + digits[n + a - 1][lo:hi]) * P + digits[a][lo:hi]
            if a < n - 1:   # the last level's keys, one per row, stay in row order
                key, line = np.unique(key, return_inverse=True)
            levels.append(tuple(k.astype(np.int32) for k in np.divmod(key, P)))
        lines.append(tuple(levels))
    rows, x0s, bounds = (a.astype(np.int32, copy=False) for a in (rows, x0s, bounds))
    for a in (rows, x0s, bounds, *(a for levels in lines for pair in levels for a in pair)):
        a.flags.writeable = False
    return LinePlan(g, xs, fs, rows, x0s, bounds, tuple(lines))


def _lattice_plan(g: Grid) -> LinePlan:
    """The plan of every row of the full lattice."""
    return _line_plan(g, slice(0, g.N), slice(0, g.N), np.arange(g.N ** (2 * g.n - 1)))


@dataclass(frozen=True, eq=False)
class STFTMagnitude:
    """|V| on the FFT lines `plan` names, as a (plan rows, F) array whose
    line i is box row `plan.rows[i]`, with the window spreads the
    estimator's trusted radii are read from; what `estimate_wf_from_stft`
    needs of an `STFTData`."""

    base_grid: Grid
    freq_grid: Grid
    values: np.ndarray
    window_sigma_x: float
    window_sigma_xi: float
    plan: LinePlan

    def magnitude(self) -> np.ndarray:
        return self.values


_BLOCK_ELEMS = 1 << 16
"""Complex values in each of a thread's two block workspaces (1 MiB
each): the separable route of `_stft_rows` transforms y_1 in the first
for as many consecutive x_1 at once as it holds, and always for at
least one, and `products` works its blocks in both."""
_local = threading.local()


def _workspace(which: int, size: int) -> np.ndarray:
    """This thread's workspace `which` (0 or 1), a flat complex array of
    `_BLOCK_ELEMS` values made at its first use (or again if that
    constant changed), so that a repeated call maps no fresh pages; a
    buffer of its own when a block of `size` values is wider."""
    if size > _BLOCK_ELEMS:
        return np.empty(size, dtype=complex)
    ws = _local.__dict__.setdefault("ws", [None, None])
    if ws[which] is None or ws[which].size != _BLOCK_ELEMS:
        ws[which] = np.empty(_BLOCK_ELEMS, dtype=complex)
    return ws[which]


def _stft_rows(u: SampledField, window: WindowFunction, plan: LinePlan):
    """The FFT lines of V(x, xi) that `plan` names.

    Yields (run, lines), `run` a slice of the plan's rows: times the sign
    (-1)^(k_1 + ... + k_n) of its frequency indices, `_fft_scale` and
    1/|window|, `lines[i]` is V on box row `plan.rows[run][i]`.  Each
    x_1's rows are one run, and the lines are the caller's to overwrite.
    The separable route transforms y_1 in this thread's first
    workspace, so a thread consumes one such generator at a time and
    runs no twisted product while it does.

    The window is translated by whole grid steps with zero fill.  One
    without factors takes the general route: per x_1, one batched FFT of
    its translates at the x_2 its lines use, bit-identical to
    `fourier_forward` of each.  One with factors is separable, V(x, xi)
    = F_{y_n}[... F_{y_1}[u f_1(y_1 - x_1)] ... f_n(y_n - x_n)]: y_1 is
    transformed for the range of the plan's x_1 at once, then level
    a > 1, one gathered batch per x_1, transforms y_a on the plan's
    prefixes (x_1, xi_1, ..., x_a); it rounds differently at n >= 2.
    Each FFT line depends only on its own position, so no cell's bytes
    depend on the plan.
    """
    g = u.grid
    if not g.compatible(window.grid):
        raise ValueError("field and window grids differ")
    if not g.compatible(plan.grid):
        raise ValueError("field and plan grids differ")
    n, N, xs, fs, x0s, bounds = g.n, g.N, plan.xs, plan.fs, plan.x0s, plan.bounds
    runs = [slice(lo, hi) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    # fourier_forward's per-axis sign flips, moved out of the transform (exact)
    signs, tables = window._stft_arrays
    signed = u.values * signs
    if window.factors is None and n > 1:
        per_x2 = (xs.stop - xs.start) ** (n - 2) * (fs.stop - fs.start) ** (n - 1)
        for x0, run in zip(x0s, runs):
            local = plan.rows[run] - x0 * (xs.stop - xs.start) * per_x2
            lo, hi = local[0] // per_x2, local[-1] // per_x2 + 1
            block = signed * tables[0][(xs.start + x0, slice(xs.start + lo, xs.start + hi),
                                        *(xs,) * (n - 2))]
            for ax in range(-n, 0):  # axis order as in fourier_forward
                block = np.fft.fft(block, axis=ax)[(Ellipsis, fs) + (slice(None),) * (-ax - 1)]
            yield run, block.reshape(-1, block.shape[-1])[local - lo * per_x2]
        return
    # y_1 is transformed for a range of consecutive x_1 at a time through a view
    # of the table, and the lines of x_1 the plan skips are dropped: cheaper
    # than a gather
    width = max(1, _BLOCK_ELEMS // N ** n)
    lo = 0
    while lo < len(x0s):
        hi = int(np.searchsorted(x0s, x0s[lo] + width))
        t = tables[0][xs.start + x0s[lo]:xs.start + x0s[hi - 1] + 1]
        size = len(t) * signed.size
        block = _workspace(0, size)[:size].reshape((len(t),) + signed.shape)
        np.multiply(signed, t.reshape((-1, N) + (1,) * (n - 1)), out=block)
        block = np.fft.fft(block, axis=1, out=block)[:, fs]
        if n == 1:
            yield slice(lo, hi), block[x0s[lo:hi] - x0s[lo]]
        for x0, levels, run in zip(x0s[lo:hi], plan.lines[lo:hi], runs[lo:hi]):  # none at n=1
            yield run, _later_levels(block[x0 - x0s[lo]], levels, tables, xs.start, fs)
        lo = hi


def _later_levels(part: np.ndarray, levels, tables, x_start: int, fs: slice) -> np.ndarray:
    """One x_1's lines after y_2, ..., y_n are transformed on the plan's
    prefixes, from its level-1 block `part`; a function, so that nothing
    of one x_1's lines stays referenced while the next x_1's are built."""
    n, N = len(levels) + 1, part.shape[-1]
    for a, (src, j) in enumerate(levels, 1):
        lines = part.reshape((-1,) + (N,) * (n - a))[src]
        lines *= tables[a][x_start + j].reshape((-1, N) + (1,) * (n - a - 1))
        part = np.fft.fft(lines, axis=1, out=lines)[:, fs]
    return part


def stft(u: SampledField, window: WindowFunction) -> STFTData:
    """V(x, xi) on the full lattice: for each grid point x, transform
    y -> u(y) conj(window(y - x)) and divide by the window norm."""
    n, N = u.grid.n, u.grid.N
    plan = _lattice_plan(u.grid)
    out = np.empty((len(plan.rows), N), dtype=complex)     # every row, in order
    post, nrm = (window._stft_arrays[0] * _fft_scale(u.grid)).reshape(-1, N), 1.0 / window.l2norm
    for run, lines in _stft_rows(u, window, plan):
        lines = lines * post[plan.rows[run] % N ** (n - 1)]
        lines *= nrm
        out[run] = lines
    return STFTData(u.grid, u.grid.dual(), out, window.sigma_x, window.sigma_xi)


def stft_magnitude(u: SampledField, window: WindowFunction, plan: LinePlan) -> STFTMagnitude:
    """|V| on the rows of `plan`, as the (rows, F) array of its lines:
    line i equals `abs(stft(u, window).values)` on box row
    `plan.rows[i]`, and the complex spectrogram is never held.

    Each run of lines `_stft_rows` yields is scaled into a contiguous
    copy, which costs less than scaling the strided crop of F of N
    columns in place, and its `abs` is written straight into the array,
    with no box, zero fill or scatter.  The signs `stft` applies are
    left out: flipping a sign is exact, so |(z s) / |w|| = |(z |s|) / |w||
    bit for bit.  `estimate_wf_from_stft` refuses the result unless the
    plan is its fit's."""
    g = u.grid
    mag = np.empty((len(plan.rows), plan.fs.stop - plan.fs.start))
    scale, nrm = abs(_fft_scale(g)), 1.0 / window.l2norm
    for run, lines in _stft_rows(u, window, plan):
        lines = lines * scale
        lines *= nrm
        np.abs(lines, out=mag[run])
        del lines   # freed before the next run's lines are built
    return STFTMagnitude(g, g.dual(), mag, window.sigma_x, window.sigma_xi, plan)


def parseval_constant(g: Grid) -> float:
    """Exact lattice Parseval factor: spacing^{2n} sum |V|^2 equals this
    times |u|_2^2 for a unit-norm window."""
    return float((2.0 * g.L**2 / (np.pi * g.N)) ** g.n)
