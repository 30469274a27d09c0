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
    STFTData,
    STFTMagnitude,
    WindowFunction,
    _box,
    fourier_forward,
    gaussian_window,
    stft_magnitude,
)

_SPHERE_SEED = 20240817
# the most radii a ray fit takes: its stencil holds 48 bytes per radius
# and direction at n=2, so 2048 directions take 25 MB at the cap
MAX_RADII = 256
# the most directions a grid takes: 8 times 2048, the S^3 default and the
# most any caller in this repository asks for; at MAX_RADII the stencil
# of that many directions holds 201 MB at n=2
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
    reach of the |V| the fit reads, the lattice axes cut to the `_box` of
    that reach, the radii r in [r_min, r_max] with the design
    [log(1 + r^2), 1] and its pseudo-inverse, and the stencil of the ray
    samples r w on those axes, rows direction by direction."""

    reach: float
    axes: tuple[np.ndarray, ...]
    r: np.ndarray
    design: np.ndarray
    pinv: np.ndarray
    directions: DirectionGrid
    stencil: _Stencil

    def samples(self, v: STFTData | STFTMagnitude) -> np.ndarray:
        """|V| at r w, one row per direction w and one column per radius
        r, read through a view of `v` cropped to the box axes."""
        crop = []
        for ax, box in zip(v.axes, self.axes):
            lo = int(np.searchsorted(ax, box[0]))
            crop.append(slice(lo, lo + box.size))
        # a box-sized |V| holds 0 off the set B of its own reach
        if (isinstance(v, STFTMagnitude) and v.reach < self.reach) or not all(
                np.array_equal(ax[c], box) for ax, c, box in zip(v.axes, crop, self.axes)):
            raise ValueError(f"the spectrogram does not cover the fit's reach {self.reach!r}")
        return self.stencil.read(v.magnitude()[tuple(crop)]).reshape(self.directions.count, -1)


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
    plus 16: about 1.2 MB for 2048 directions and 12 radii at n=2."""
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
    # only |V| within reach of the ray samples is read, so nothing else
    # is transformed or stored; the slack covers the rounding of |w| = 1
    # in the samples r w, which DirectionGrid admits up to 1e-12
    reach = r_max * (1.0 + 1e-9)
    px, pf = (h.axis()[_box(h, reach)] for h in (g, g.dual()))
    r = np.geomspace(r_min_frac * r_max, r_max, radii)   # its ends are exactly r_min and r_max
    design = np.column_stack([np.log1p(r**2), np.ones_like(r)])
    pinv = np.linalg.pinv(design)
    for a in (px, pf, r, design, pinv):
        a.flags.writeable = False
    axes = (px,) * g.n + (pf,) * g.n
    pts = (r[None, :, None] * dirs.directions[:, None, :]).reshape(-1, dirs.dim)
    return _Geometry(reach, axes, r, design, pinv, dirs, _stencil(axes, pts))


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
    return estimate_wf_from_stft(stft_magnitude(u, window, geo.reach), params)


def estimate_wf_from_stft(v: STFTData | STFTMagnitude,
                          params: WavefrontParams | None = None) -> WavefrontEstimate:
    """`estimate_wf` on a spectrogram already computed: `stft(u, window)`
    on the full lattice, or `stft_magnitude(u, window, reach)` for a
    reach of at least the fit's, r_max (1 + 1e-9), which `estimate_wf`
    passes.  A smaller reach, or axes that do not contain the box of the
    fit's reach, is refused with a ValueError naming that reach."""
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


@dataclass(frozen=True, eq=False)
class _Stencil:
    """Where multilinear interpolation on equispaced axes reads for a
    fixed set of points: the flat offset of each point's lower cell
    corner, each axis's fractional weight y of the point in its cell, and
    the indices of the points outside the box.  It depends only on the
    axes and the points, so one stencil serves every array of `shape`.

    The samples are held in memory order, sorted (stably) by their
    offset, so that each corner's gather walks the array forwards;
    `rows` maps them back to the points' order.

    The cell along each axis is floor((x - a0)/step), moved by at most
    one node each way so that it equals searchsorted(ax, x, "right") - 1
    clipped to [0, m - 2].  `read` visits the corners in
    itertools.product order with weights ((w0*w1)*w2)*..., and
    accumulates the sum in that order, so every in-box value comes from
    the floating-point operations of scipy's generic
    RegularGridInterpolator linear path.  Every array is read-only.
    """

    shape: tuple[int, ...]
    offsets: tuple[int, ...]
    base: np.ndarray
    y: tuple[np.ndarray, ...]
    rows: np.ndarray
    outside: np.ndarray

    def read(self, values: np.ndarray) -> np.ndarray:
        """The interpolated `values` at the stencil's points, zero
        outside the box."""
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValueError(f"values of shape {values.shape} on axes of shape {self.shape}")
        flat = values.ravel()
        weights = [(1 - y, y) for y in self.y]
        # weight prefixes over all axes but the last (the first axis's
        # weights themselves); the last factor is applied per corner so
        # that only one corner weight is held at a time
        prefixes = list(weights[0]) if len(weights) > 1 else [1.0]
        for w in weights[1:-1]:
            prefixes = [p * wk for p in prefixes for wk in w]
        acc = np.zeros(len(self.base))
        term, w = np.empty(len(self.base)), np.empty(len(self.base))
        for off, (p, wk) in zip(self.offsets, itertools.product(prefixes, weights[-1])):
            # every index is in range; "clip" only spares take a bounds check
            np.take(flat[off:], self.base, out=term, mode="clip")
            np.multiply(p, wk, out=w)
            term *= w
            acc += term
        out = np.empty(len(self.base))
        out[self.rows] = acc
        out[self.outside] = 0.0
        return out


def _stencil(axes, pts: np.ndarray) -> _Stencil:
    """The multilinear interpolation stencil of the rows of `pts` on the
    equispaced `axes`."""
    shape = tuple(len(ax) for ax in axes)
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    base = np.zeros(len(pts), dtype=np.intp)
    outside = np.zeros(len(pts), dtype=bool)
    ys = []
    for k, ax in enumerate(axes):
        ax = np.asarray(ax, dtype=float)
        x = np.ascontiguousarray(pts[:, k], dtype=float)
        top = len(ax) - 2
        i = np.floor((x - ax[0]) / (ax[1] - ax[0])).astype(np.intp)
        np.clip(i, 0, top, out=i)
        i -= (x < ax[i]) & (i > 0)
        i += (x >= ax[i + 1]) & (i < top)
        ys.append((x - ax[i]) / (ax[i + 1] - ax[i]))
        base += i * strides[k]
        outside |= (x < ax[0]) | (x > ax[-1])
    rows = np.argsort(base, kind="stable")
    # rows stay intp: scattering through int32 indices converts them on every read
    base, ys = base[rows], [y[rows] for y in ys]
    outside = np.flatnonzero(outside)
    for a in (base, rows, outside, *ys):
        a.flags.writeable = False
    offsets = tuple(int(np.dot(c, strides)) for c in itertools.product((0, 1), repeat=len(axes)))
    return _Stencil(shape, offsets, base, tuple(ys), rows, outside)


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
