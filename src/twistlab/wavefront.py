"""Phase space singularity estimation by ray-wise decay regression on
the windowed spectrogram.

A direction on the unit sphere of R^{2n} is declared singular when the
fitted polynomial decay order of |V(r w)| along the ray falls below a
fixed threshold `k_test`.  The estimator is deliberately plain: log-spaced
radii inside the trusted (truncation-free) band, multilinear
interpolation of |V|, one least squares fit per direction.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._read import ReadError, integer, number, show
from .grids import Grid, SampledField
from .spectral import (
    LinePlan,
    STFTData,
    STFTMagnitude,
    WindowFunction,
    _line_plan,
    fourier_forward,
    gaussian_window,
    stft_magnitude,
)

_SPHERE_SEED = 20240817
# the most radii a ray fit takes: its stencil holds 40 bytes per radius
# and direction at n=2, so 2048 directions take 21 MB at the cap
MAX_RADII = 256
# the most directions a grid takes: 8 times 2048, the S^3 default and the
# most any caller in this repository asks for; at MAX_RADII the stencil
# of that many directions holds 168 MB at n=2
MAX_DIRECTIONS = 16384
# |V| at r_max at or below this counts as infinitely fast decay
_DEAD_FLOOR = 1e-13


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """Antipodally closed unit vectors with a covering-radius estimate.
    The grid owns a read-only copy of its directions, so one grid can be
    shared by every caller, and the text its estimates write for the
    directions is formatted once per grid."""

    directions: np.ndarray
    resolution_deg: float

    def __post_init__(self):
        dirs = np.atleast_2d(np.array(self.directions, dtype=float))
        norms = np.linalg.norm(dirs, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            raise ValueError("directions must be unit vectors")
        dirs.flags.writeable = False
        object.__setattr__(self, "directions", dirs)

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    @cached_property
    def json_array(self) -> str:
        """The directions as the JSON array `json.dumps` writes."""
        return json.dumps(self.directions.tolist())

    @cached_property
    def csv_prefixes(self) -> tuple[str, ...]:
        """Per direction, its components as `%.12g` fields, each
        followed by a comma."""
        fmt = "%.12g," * self.dim
        return tuple(fmt % tuple(w) for w in self.directions.tolist())


_DEFAULT_COUNTS = {2: 360, 4: 2048}
_PROBES, _PROBE_BLOCK = 4096, 64


def direction_grid(dim: int, count: int | None = None, seed: int = _SPHERE_SEED) -> DirectionGrid:
    """Standard sphere samplings: uniform angles on S^1, a scrambled
    Sobol net mapped to S^3; both closed under negation.  On S^3 the
    count is twice a power of two, the sizes at which Sobol points keep
    their balance.  A count above `MAX_DIRECTIONS` is refused before
    anything is allocated.

    Grids are pure in (dim, count, seed) and memoised per process, so
    repeated calls return the same read-only object."""
    d = (_DEFAULT_COUNTS.get(dim, 0) if count is None
         else integer(count, "count", least=4, most=MAX_DIRECTIONS))
    return _direction_grid(dim, d, seed)


@lru_cache(maxsize=8)
def _direction_grid(dim: int, d: int, seed: int) -> DirectionGrid:
    if dim == 2:
        if d < 4 or d % 2:
            raise ReadError("count", "an even integer of at least 4", show(d))
        ang = np.arange(d) * (2.0 * np.pi / d)
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        return DirectionGrid(dirs, resolution_deg=180.0 / d)
    if dim == 4:
        half = d // 2
        if d < 8 or d % 2 or half & (half - 1):
            raise ReadError("count", "twice a power of two, at least 8", show(d))
        u = _sobol3(half, seed)
        s1 = np.sqrt(1.0 - u[:, 0])
        s2 = np.sqrt(u[:, 0])
        q = np.column_stack(
            [
                s1 * np.sin(2.0 * np.pi * u[:, 1]),
                s1 * np.cos(2.0 * np.pi * u[:, 1]),
                s2 * np.sin(2.0 * np.pi * u[:, 2]),
                s2 * np.cos(2.0 * np.pi * u[:, 2]),
            ]
        )
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        dirs = np.concatenate([q, -q], axis=0)
        # covering radius probed on a deterministic random cloud, a block
        # of probes at a time to bound the probe-direction cosine matrix;
        # max |cos| is max(max cos, -min cos), with no |cos| temporary
        rng = np.random.default_rng(seed + 1)
        probes = rng.standard_normal((_PROBES, 4))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        cosmax = np.empty(_PROBES)
        for start in range(0, _PROBES, _PROBE_BLOCK):
            c = probes[start:start + _PROBE_BLOCK] @ dirs.T
            np.maximum(c.max(axis=1), -c.min(axis=1), out=cosmax[start:start + _PROBE_BLOCK])
        worst = np.max(np.arccos(np.clip(cosmax, -1.0, 1.0)))
        return DirectionGrid(dirs, resolution_deg=float(np.degrees(worst)))
    raise ValueError("direction grids are provided for phase space dimensions 2 and 4")


def _sobol3(count: int, seed) -> np.ndarray:
    """The first `count` points of the 3-D Sobol sequence with Joe & Kuo
    direction numbers (SIAM J. Sci. Comput. 30, 2008), Matousek's linear
    matrix scramble and a digital shift, on 30 bits: the same float64
    bytes as scipy's `qmc.Sobol(3, scramble=True, seed=seed).random(count)`,
    whose random draws it repeats in order."""
    bits = 30
    top = bits - 1 - np.arange(bits, dtype=np.uint32)
    # dimension 0: all ones; 1: polynomial x + 1, m = (1); 2: x^2 + x + 1,
    # m = (1, 3); then m_j = 2 m_{j-1} ^ m_{j-1} and 4 m_{j-2} ^ 2 m_{j-1} ^ m_{j-2}
    v = np.ones((3, bits), dtype=np.uint32)
    v[2, 1] = 3
    for j in range(1, bits):
        v[1, j] = v[1, j - 1] ^ (v[1, j - 1] << 1)
        if j >= 2:
            v[2, j] = v[2, j - 2] ^ (v[2, j - 1] << 1) ^ (v[2, j - 2] << 2)
    v <<= top
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(3, bits), dtype=np.uint32) @ (2 ** np.arange(bits, dtype=np.uint32))
    ltm = np.tril(rng.integers(2, size=(3, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # over GF(2): row p of a matrix gives output bit 29 - p, column q reads input bit 29 - q
    scrambled = np.einsum("dpq,djq->djp", ltm, (v[:, :, None] >> top) & 1) & 1
    sv = (scrambled << top).sum(axis=2, dtype=np.uint32)
    # point i = shift ^ XOR of sv[:, b] over the bits b of gray(i)
    i = np.arange(count, dtype=np.uint32)
    gray = i ^ (i >> 1)
    pts = np.broadcast_to(shift, (count, 3)).copy()
    for b in range(max(count - 1, 0).bit_length()):
        pts ^= ((gray >> b) & 1)[:, None] * sv[:, b]
    return pts * 2.0 ** -bits


@dataclass(frozen=True)
class WavefrontParams:
    """Estimator configuration; every field is checked on construction."""

    # fitted on the n=1 analytic catalog (N=128, L=12, 360 directions); see wf-k-test-margin
    k_test: float = 0.0073
    r_max_frac: float = 0.8
    r_min_frac: float = 0.2
    radii: int = 12
    directions: DirectionGrid | None = None

    def __post_init__(self):
        """Read every field, refusing a bad one by name; k_test may be infinite."""
        for key, value in (
            ("k_test", number(self.k_test, "k_test", "a number", lambda x: not math.isnan(x))),
            ("r_max_frac", number(self.r_max_frac, "r_max_frac", "a number in (0, 1]",
                                  lambda x: 0.0 < x <= 1.0)),
            ("r_min_frac", number(self.r_min_frac, "r_min_frac", "a number in (0, 1)",
                                  lambda x: 0.0 < x < 1.0)),
            ("radii", integer(self.radii, "radii", least=8, most=MAX_RADII)),
        ):
            object.__setattr__(self, key, value)
        if not (self.directions is None or isinstance(self.directions, DirectionGrid)):
            raise ReadError("directions", "a direction grid or null", show(self.directions))


@dataclass(frozen=True, eq=False)
class WavefrontEstimate:
    directions: DirectionGrid
    k_hat: np.ndarray
    residual: np.ndarray
    value_at_rmax: np.ndarray
    k_test: float
    r_min: float
    r_max: float
    radii: int

    @property
    def flagged(self) -> np.ndarray:
        """Boolean mask: decay order below threshold."""
        return self.k_hat < self.k_test

    def flagged_directions(self) -> np.ndarray:
        return self.directions.directions[self.flagged]

    def to_json(self) -> str:
        """`json.dumps` of {"directions", "k_hat", "flagged", "params"},
        with the grid's cached array spliced in as the first value."""
        rest = json.dumps(
            {
                "k_hat": [None if not math.isfinite(v) else v for v in self.k_hat.tolist()],
                "flagged": self.flagged.tolist(),
                "params": {
                    "k_test": self.k_test,
                    "r_min": self.r_min,
                    "r_max": self.r_max,
                    "radii": self.radii,
                    "resolution_deg": self.directions.resolution_deg,
                },
            }
        )
        return '{"directions": ' + self.directions.json_array + ", " + rest[1:]

    def to_csv(self) -> str:
        """One row per direction: its components, k_hat and residual as
        `%.12g`, and the flag; the components come from the grid's cache."""
        d = self.directions.dim
        head = ",".join([f"w{i+1}" for i in range(d)] + ["k_hat", "residual", "flagged"])
        rows = zip(self.directions.csv_prefixes, self.k_hat.tolist(),
                   self.residual.tolist(), self.flagged.tolist())
        return head + "\n" + "".join(["%s%.12g,%.12g,%s\n" % row for row in rows])


@dataclass(frozen=True, eq=False)
class _Geometry:
    """An estimate configuration's geometry, derived once, read-only: the
    radii r in [r_min, r_max] with the design [log(1 + r^2), 1] and its
    pseudo-inverse, the stencil of the ray samples r w on the lattice
    axes cut to the box the fit reads, rows direction by direction, and
    the plan of the FFT lines its corners read, which are the stencil's
    lines (one array)."""

    r: np.ndarray
    design: np.ndarray
    pinv: np.ndarray
    directions: DirectionGrid
    stencil: _Stencil
    plan: LinePlan

    def samples(self, v: STFTData | STFTMagnitude) -> np.ndarray:
        """|V| at r w, one row per direction w and one column per radius
        r: from an `STFTData` through the plan's lines, gathered from a
        view cropped to the plan's box, and from an `STFTMagnitude` only
        if its lines are the plan's."""
        vals, p, q = v.magnitude(), getattr(v, "plan", None), self.plan
        if p is None:
            vals = vals[(q.xs,) * v.base_grid.n + (q.fs,) * v.base_grid.n]
            vals = vals[np.unravel_index(q.rows, self.stencil.box[:-1])]
        elif (p.xs, p.fs) != (q.xs, q.fs) or not np.array_equal(p.rows, q.rows):
            raise ValueError("the spectrogram is not filled on the lines this fit reads")
        return self.stencil.read(vals).reshape(self.directions.count, -1)


def _geometry_of(g: Grid, window_sigma_x: float, window_sigma_xi: float,
                 params: WavefrontParams) -> _Geometry:
    """The memoised geometry of `params` on g for a window of these spreads."""
    return _geometry(g, window_sigma_x, window_sigma_xi, params.r_min_frac, params.r_max_frac,
                     params.radii, params.directions)


@lru_cache(maxsize=8)
def _geometry(g: Grid, window_sigma_x: float, window_sigma_xi: float, r_min_frac: float,
              r_max_frac: float, radii: int, dirs: DirectionGrid | None) -> _Geometry:
    """r_max is a fraction of the largest |x| and |xi| not contaminated by
    box truncation, the box half-width minus twice the window spread on
    each side; `dirs` None is the default grid, resolved here, once per
    entry.  An entry holds 8 bytes per ray sample and phase-space axis
    plus 8, and at n=2 24 per FFT line: about 1.09 MB for 2048 directions
    and 12 radii at n=2, N=32."""
    tx = g.L - 2.0 * window_sigma_x
    tf = g.dual().L - 2.0 * window_sigma_xi
    if tx <= 0.0 or tf <= 0.0:
        raise ValueError(
            "trusted region is empty: the grid box is too small for the window "
            f"(spatial margin {tx:.3g}, frequency margin {tf:.3g})"
        )
    if dirs is None:
        dirs = direction_grid(2 * g.n)
    if dirs.dim != 2 * g.n:
        raise ValueError(f"direction grid dimension {dirs.dim} != phase space dimension {2 * g.n}")
    r_max = r_max_frac * min(tx, tf)
    # the box holds, per axis, the points within reach + one spacing of 0,
    # rounded out to whole steps: every corner that multilinear interpolation
    # reads for a coordinate in [-reach, reach].  The reach r_max (1 + 1e-9)
    # covers the rounding of |w| = 1 in the samples r w, which DirectionGrid
    # admits up to 1e-12
    k = [math.ceil(r_max * (1.0 + 1e-9) / h.spacing) + 1 for h in (g, g.dual())]
    xs, fs = (slice(max(g.N // 2 - m, 0), min(g.N // 2 + m + 1, g.N)) for m in k)
    r = np.geomspace(r_min_frac * r_max, r_max, radii)   # its ends are exactly r_min and r_max
    design = np.column_stack([np.log1p(r**2), np.ones_like(r)])
    pinv = np.linalg.pinv(design)
    for a in (r, design, pinv):
        a.flags.writeable = False
    stencil = _stencil((g.axis()[xs],) * g.n + (g.dual().axis()[fs],) * g.n,
                       (r, dirs.directions))
    # only the box rows (all axes but the last) that a corner reads are transformed
    return _Geometry(r, design, pinv, dirs, stencil, _line_plan(g, xs, fs, stencil.lines))


def estimate_wf(
    u: SampledField,
    window: WindowFunction | None = None,
    params: WavefrontParams | None = None,
) -> WavefrontEstimate:
    """Fit the decay order of |V| along each ray of a direction grid.

    Per direction w: sample |V| at R log-spaced radii in
    [r_min, r_max] (multilinear interpolation), regress -log|V| against
    log(1 + r^2), and flag the ray when the slope stays below k_test.
    Rays whose spectrogram is already at the numerical floor at r_max
    count as infinitely fast decay.
    """
    if params is None:
        params = WavefrontParams()
    if not np.any(u.values):
        raise ValueError("cannot estimate singularities of the zero field")
    if window is None:
        window = gaussian_window(u.grid)
    geo = _geometry_of(u.grid, window.sigma_x, window.sigma_xi, params)
    return estimate_wf_from_stft(stft_magnitude(u, window, geo.plan), params)


def estimate_wf_from_stft(v: STFTData | STFTMagnitude,
                          params: WavefrontParams | None = None) -> WavefrontEstimate:
    """`estimate_wf` on a spectrogram already computed: `stft(u, window)`
    on the full lattice, or `stft_magnitude(u, window, plan)` with the
    plan of the fit's geometry, which `estimate_wf` passes.  A magnitude
    filled on other lines is refused with a ValueError."""
    if params is None:
        params = WavefrontParams()
    geo = _geometry_of(v.base_grid, v.window_sigma_x, v.window_sigma_xi, params)
    vals = geo.samples(v)
    k_hat, residual = _decay_fit(vals, geo)
    return WavefrontEstimate(
        directions=geo.directions,
        k_hat=k_hat,
        residual=residual,
        value_at_rmax=vals[:, -1].copy(),
        k_test=params.k_test,
        r_min=float(geo.r[0]),
        r_max=float(geo.r[-1]),
        radii=params.radii,
    )


def _decay_fit(samples: np.ndarray, geo: _Geometry) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `samples` (one ray at the radii of `geo`), the
    least-squares fit of -log|V| against log(1 + r^2): the slope k_hat
    and the RMS residual.  A ray at or below the numerical floor at
    r_max is dead: k_hat +inf, residual 0."""
    live = ~(samples[:, -1] <= _DEAD_FLOOR)
    every = bool(live.all())
    if every:
        y = np.maximum(samples, 1e-300)
    else:
        y = samples[live]
        np.maximum(y, 1e-300, out=y)
    np.log(y, out=y)
    np.negative(y, out=y)
    coef = geo.pinv @ y.T
    fit = geo.design @ coef
    fit -= y.T
    fit *= fit
    res = np.sqrt(np.mean(fit, axis=0))
    if every:
        return coef[0], res
    k_hat = np.full(len(samples), math.inf)
    residual = np.zeros(len(samples))
    k_hat[live] = coef[0]
    residual[live] = res
    return k_hat, residual


_READ_BLOCK = 4096
"""The samples `_Stencil.read` interpolates at a time: its work buffers
hold this many values each, whatever the stencil's size."""


@dataclass(frozen=True, eq=False)
class _Stencil:
    """Where multilinear interpolation on equispaced axes reads for a
    fixed set of points, on two or more axes.  A row of the box is a
    cell of every axis but the last, one line of F values along it; the
    stencil reads only `lines`, the sorted rows some corner of a point's
    cell lies in, as the (lines, F) array `shape`.  It depends only on
    the axes and the points, so one stencil serves every such array.

    Per point, `base` is the flat offset in that array of its cell's
    lower corner and `y` each axis's fractional weight of the point in
    its cell; `outside` are the indices of the points outside the box.
    The row one step up the second-last axis is the next line, so the
    four corners that differ in the last two axes lie at base + (0, 1,
    F, F + 1).  For each other corner c of the axes before those two,
    `steps[c - 1][line]` is the offset from a point's lower line to that
    corner's, 0 for a line no point's cell starts on.

    The samples are held in memory order, sorted (stably) by their
    offset, so that each corner's gather walks the array forwards;
    `rows` maps them back to the points' order.

    The cell along each axis is floor((x - a0)/step), moved by at most
    one node each way so that it equals searchsorted(ax, x, "right") - 1
    clipped to [0, m - 2].  `read` visits the corners in
    itertools.product order with weights ((w0*w1)*w2)*..., and
    accumulates the sum in that order, so every in-box value comes from
    the floating-point operations of scipy's generic
    RegularGridInterpolator linear path.  The indices are int32, which
    `_stencil` checks they fit, and every array is read-only.
    """

    box: tuple[int, ...]
    lines: np.ndarray
    base: np.ndarray
    steps: tuple[np.ndarray, ...]
    y: tuple[np.ndarray, ...]
    rows: np.ndarray
    outside: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.lines), self.box[-1])

    def read(self, values: np.ndarray) -> np.ndarray:
        """The interpolated values at the stencil's points, zero outside
        the box, from `values`, the (lines, F) array of the stencil's
        lines.  Works through `_READ_BLOCK` samples at a time, so beyond
        its output it allocates only fixed work buffers."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValueError(f"values of shape {values.shape} for the {self.shape[0]} lines "
                             f"of a box of shape {self.box}")
        flat = np.ascontiguousarray(values).ravel()
        d, F, size = len(self.box), self.box[-1], len(self.base)
        # the four corners that differ in the last two axes, in product order
        shifted = [flat[c2 * F + c1:] for c2 in (0, 1) for c1 in (0, 1)]
        out = np.empty(size)
        block = min(_READ_BLOCK, size)
        work = np.empty((d + 5, block))
        index = np.empty((3, block), dtype=np.intp)
        step = np.empty(block, dtype=np.int32)
        for lo in range(0, size, block):
            m = min(block, size - lo)
            one_minus, (acc, term, pre, part, w) = work[:d, :m], work[d:, :m]
            at, line, start = index[:, :m]
            # weights of the low and the high node on each axis, as (1 - y, y)
            weights = [(np.subtract(1, y[lo:lo + m], b), y[lo:lo + m])
                       for y, b in zip(self.y, one_minus)]
            np.copyto(at, self.base[lo:lo + m])
            if self.steps:
                np.floor_divide(at, F, line)
            acc.fill(0.0)
            for c, corner in enumerate(itertools.product((0, 1), repeat=d - 2)):
                first = at      # the lower line's offset, or this row corner's
                if c:
                    self.steps[c - 1].take(line, out=step[:m])
                    first = np.add(at, step[:m], start)
                # the weight prefix over the axes before the last two
                p = weights[0][corner[0]] if d > 2 else None
                for k in range(1, d - 2):
                    p = np.multiply(p, weights[k][corner[k]], pre)
                for c2, w2 in enumerate(weights[d - 2]):
                    pw = w2 if p is None else np.multiply(p, w2, part)
                    for c1, w1 in enumerate(weights[d - 1]):
                        # every index is in range; "clip" only spares take a bounds check
                        shifted[2 * c2 + c1].take(first, out=term, mode="clip")
                        np.multiply(pw, w1, w)
                        term *= w
                        acc += term
            np.copyto(at, self.rows[lo:lo + m])
            out[at] = acc
        out[self.outside] = 0.0
        return out


def _cell(ax: np.ndarray, x: np.ndarray) -> np.ndarray:
    """searchsorted(ax, x, "right") - 1 clipped to [0, len(ax) - 2], on
    the equispaced `ax`: floor((x - a0)/step) moved by at most a node."""
    top = len(ax) - 2
    i = np.floor((x - ax[0]) / (ax[1] - ax[0])).astype(np.intp)
    np.clip(i, 0, top, out=i)
    i -= (x < ax[i]) & (i > 0)
    i += (x >= ax[i + 1]) & (i < top)
    return i


def _stencil(axes, pts) -> _Stencil:
    """The multilinear interpolation stencil on the equispaced `axes` of
    the points r w, for a pair `pts` = (r, w) of radii and directions,
    direction by direction, built without the array of those points.
    Refused with a ValueError when an index it holds would not fit int32."""
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    r, w = pts
    count = len(r) * len(w)

    def coord(k):
        return np.multiply.outer(w[:, k], r).ravel()

    box = tuple(len(ax) for ax in axes)
    d, F = len(box), box[-1]
    limit = np.iinfo(np.int32).max
    if max(count, math.prod(box[:-1])) > limit:
        raise ValueError(f"{count} points on a box of shape {box} overflow int32 indices")
    strides = [math.prod(box[k + 1:]) for k in range(d)]
    base = np.zeros(count, dtype=np.intp)
    outside = np.zeros(count, dtype=bool)
    for k, ax in enumerate(axes):
        x = coord(k)
        base += _cell(ax, x) * strides[k]
        outside |= (x < ax[0]) | (x > ax[-1])
    rows = np.argsort(base, kind="stable")
    base = base[rows]
    ys = []
    for k, ax in enumerate(axes):   # each weight once, in memory order
        x = coord(k)[rows]
        i = base // strides[k] % box[k]
        ys.append((x - ax[i]) / (ax[i + 1] - ax[i]))
    # the rows the corners read: each point's lower row plus a row corner
    lower, col = np.divmod(base, F)
    row_strides = [s // F for s in strides[:-1]]
    read = np.zeros(math.prod(box[:-1]), dtype=bool)
    for c in itertools.product((0, 1), repeat=d - 1):
        read[lower + int(np.dot(c, row_strides))] = True
    lines = np.flatnonzero(read)
    if len(lines) * F > limit:
        raise ValueError(f"{len(lines)} lines of {F} values overflow int32 offsets")
    base = (np.searchsorted(lines, lower) * F + col).astype(np.int32)
    steps = []
    for c in list(itertools.product((0, 1), repeat=d - 2))[1:]:
        target = lines + int(np.dot(c, row_strides[:-1]))
        to = np.minimum(np.searchsorted(lines, target), len(lines) - 1)
        steps.append(np.where(lines[to] == target, (to - np.arange(len(lines))) * F, 0)
                     .astype(np.int32))
    lines, rows = lines.astype(np.int32), rows.astype(np.int32)
    outside = np.flatnonzero(outside)
    for a in (lines, base, rows, outside, *steps, *ys):
        a.flags.writeable = False
    return _Stencil(box, lines, base, tuple(steps), tuple(ys), rows, outside)


# ---------------------------------------------------------------------------
# set-level comparisons

def hausdorff_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric angular Hausdorff distance between two direction sets;
    empty-vs-empty is 0, empty-vs-nonempty is infinite."""
    a = np.atleast_2d(np.asarray(a, dtype=float)) if np.size(a) else np.empty((0, 1))
    b = np.atleast_2d(np.asarray(b, dtype=float)) if np.size(b) else np.empty((0, 1))
    if a.shape[0] == 0 and b.shape[0] == 0:
        return 0.0
    if a.shape[0] == 0 or b.shape[0] == 0:
        return math.inf
    # chord form: exact zero for coincident rays, stable near zero
    chord = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    ang = 2.0 * np.degrees(np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))
    return float(max(ang.min(axis=1).max(), ang.min(axis=0).max()))


@dataclass(frozen=True, eq=False)
class TransformCheckReport:
    hausdorff_deg: float
    estimate_u: WavefrontEstimate
    estimate_v: WavefrontEstimate
    mapped_directions: np.ndarray


def _rotate90_dirs(dirs: np.ndarray, n: int) -> np.ndarray:
    x, xi = dirs[:, :n], dirs[:, n:]
    return np.concatenate([xi, -x], axis=1)


def check_fourier_symmetry(
    u: SampledField,
    window_factory=gaussian_window,
    params: WavefrontParams | None = None,
) -> TransformCheckReport:
    """Estimate on u and on its transform; the flagged set of the
    transform should be the (x, xi) -> (xi, -x) rotation of the flagged
    set of u."""
    n = u.grid.n
    est_u = estimate_wf(u, window_factory(u.grid), params)
    fu = fourier_forward(u)
    est_f = estimate_wf(fu, window_factory(fu.grid), params)
    rotated = _rotate90_dirs(est_u.flagged_directions(), n)
    dist = hausdorff_deg(rotated, est_f.flagged_directions())
    return TransformCheckReport(dist, est_u, est_f, rotated)


def check_chirp_shear(
    u: SampledField,
    a,
    window: WindowFunction | None = None,
    params: WavefrontParams | None = None,
) -> TransformCheckReport:
    """Estimate on u and on exp((i/2) x.Ax) u; flagged rays should
    follow the shear (x, xi) -> (x, xi + Ax)."""
    from .catalog import Chirp, sample_analytic

    n = u.grid.n
    factor = sample_analytic(Chirp(a), u.grid)
    sheared_field = SampledField(u.grid, u.values * factor.values)
    est_u = estimate_wf(u, window, params)
    est_c = estimate_wf(sheared_field, window, params)
    am = np.atleast_2d(np.asarray(a, dtype=float))
    dirs = est_u.flagged_directions()
    if dirs.size and np.any(am):
        x, xi = dirs[:, :n], dirs[:, n:]
        mapped = np.concatenate([x, xi + x @ am.T], axis=1)
        mapped /= np.linalg.norm(mapped, axis=1, keepdims=True)
    else:
        mapped = dirs
    dist = hausdorff_deg(mapped, est_c.flagged_directions())
    return TransformCheckReport(dist, est_u, est_c, mapped)
