"""Verification suites: every numeric claim the package makes, checked
against an independent oracle or an exact symbolic computation.

Checks are self-contained callables, run and reported in declaration
order.  Anchor strings are stable check-family ids.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .calculus import (
    _escape,
    shift_algebra_check,
    existence_condition,
    existence_condition_theta_inv,
    feasible_with_nonzero,
    pair_condition,
    predicted_product_wf,
    predicted_star_wf,
    wf_pullback,
)
from .catalog import Chirp, Delta, GaussianPacket, PlaneWave, exact_wf, sample_analytic
from .cones import (
    ConicSet,
    PolyhedralCone,
    _projector,
    angular_distance_deg,
    conic_equal,
    empty_set,
    full_space,
    polyhedral,
    product_set,
    ray_set,
    set_gencones,
)
from .grids import SampledField, field_l2_distance, make_grid
from .products import (
    associativity_defect,
    pointwise_product,
    star_via_product,
    twisted_convolution,
    twisted_convolution_product,
)
from .rational import (
    cone_contains,
    extreme_rays,
    identity,
    integer_form,
    mat_t,
    matmul,
    matvec,
    nonneg_solve,
    vadd,
    vneg,
)
from .reports import CheckResult, VerificationReport
from .spectral import (
    WindowFunction,
    fourier_forward,
    fourier_inverse,
    gaussian_window,
    hann_window,
    stft,
)
from .wavefront import (
    WavefrontParams,
    check_chirp_shear,
    check_fourier_symmetry,
    estimate_wf,
    estimate_wf_from_stft,
    hausdorff_deg,
)

SUITE_NAMES = ("products", "wavefront", "calculus", "bridge")

_REGISTRY: list[tuple[str, int | None, object]] = []


def _check(suite: str, criterion: int | None = None):
    def deco(fn):
        _REGISTRY.append((suite, criterion, fn))
        return fn

    return deco


def _tol(name: str, anchor: str, measured: float, tol: float, detail: str = "") -> CheckResult:
    ok = measured <= tol
    return CheckResult(name, "pass" if ok else "fail", float(measured), float(tol),
                       anchor, detail=detail if not ok else "")


def _cond(name: str, anchor: str, ok: bool, detail: str = "",
          measured: float | None = None) -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", measured, None, anchor,
                       detail=detail if not ok else "")


# ---------------------------------------------------------------------------
# products suite

def _oracle_convolution(f: SampledField, g: SampledField, theta, probes: np.ndarray,
                        wrap: bool = False) -> np.ndarray:
    """Brute-force twisted quadrature at selected output points.

    Deliberately naive: full-lattice sum with fancy-index shifts, no
    factorisation, no FFT.  Out-of-box arguments of f are zero, or
    periodic when `wrap`.  Serves as the independent oracle.
    """
    grid = f.grid
    n, big_n = grid.n, grid.N
    pts = grid.points()
    th = np.asarray(theta, dtype=float)
    jidx = np.stack(np.unravel_index(np.arange(grid.M), (big_n,) * n), axis=1)
    out = np.empty(len(probes), dtype=complex)
    for row, p in enumerate(probes):
        pidx = np.unravel_index(int(p), (big_n,) * n)
        kidx = np.asarray(pidx)[None, :] - jidx + big_n // 2
        if wrap:
            kidx %= big_n
        valid = np.all((kidx >= 0) & (kidx < big_n), axis=1)
        fk = f.values[tuple(np.clip(kidx, 0, big_n - 1).T)] * valid
        phase = np.exp(-0.5j * (pts[int(p)] @ th @ pts.T))
        out[row] = np.sum(fk * g.values.reshape(-1) * phase)
    return out * grid.spacing**n


@_check("products", 1)
def check_conv_oracle_1d() -> CheckResult:
    g = make_grid(1, 64, 8.0)
    f = sample_analytic(GaussianPacket(0.4, 1.0, 0.6), g)
    h = sample_analytic(GaussianPacket(-0.3, 0.8, -0.2), g)
    direct = twisted_convolution(f, h, [[0.0]])
    oracle = _oracle_convolution(f, h, [[0.0]], np.arange(g.M))
    rel = float(np.linalg.norm(direct.values.reshape(-1) - oracle) / np.linalg.norm(oracle))
    return _tol("conv-oracle-1d-theta0", "conv-def", rel, 1e-8)


@_check("products", 1)
def check_conv_oracle_2d() -> CheckResult:
    g = make_grid(2, 32, 6.0)
    theta = [[0.0, 1.0], [-1.0, 0.0]]
    f = sample_analytic(GaussianPacket([0.3, -0.1], 1.0, [0.4, 0.0]), g)
    h = sample_analytic(GaussianPacket([-0.2, 0.2], 0.9, [0.0, -0.3]), g)
    direct = twisted_convolution(f, h, theta)
    # a 4x4 lattice over the whole box plus the output's peak
    ticks = np.arange(4) * (g.N // 4) + g.N // 8
    lattice = np.ravel_multi_index(np.meshgrid(ticks, ticks, indexing="ij"), (g.N,) * 2)
    peak = int(np.argmax(np.abs(direct.values)))
    probes = np.unique(np.append(lattice.reshape(-1), peak))
    oracle = _oracle_convolution(f, h, theta, probes)
    got = direct.values.reshape(-1)[probes]
    rel = float(np.linalg.norm(got - oracle) / np.linalg.norm(oracle))
    return _tol("conv-oracle-2d-symplectic", "conv-def", rel, 1e-6)


@_check("products", 1)
def check_conv_fast_vs_oracle() -> CheckResult:
    # seeded fields without decay, random antisymmetric theta, both
    # boundary modes; error is the worst point over the oracle's peak
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n, big_n in ((1, 16), (2, 10), (3, 6)):
        g = make_grid(n, big_n, float(rng.uniform(2.0, 6.0)))
        upper = np.triu(rng.uniform(-1.5, 1.5, (n, n)), 1)
        theta = upper - upper.T
        shape = (big_n,) * n
        f, h = (SampledField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                for _ in range(2))
        for wrap in (False, True):
            got = twisted_convolution(f, h, theta, wrap=wrap).values.reshape(-1)
            want = _oracle_convolution(f, h, theta, np.arange(g.M), wrap=wrap)
            worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    return _tol("conv-fast-vs-oracle", "conv-def", worst, 1e-12)


@_check("products", 2)
def check_product_theta0() -> CheckResult:
    g = make_grid(1, 64, 8.0)
    pairs = [
        (GaussianPacket(0.2, 1.0, 0.5), GaussianPacket(-0.4, 0.9, -0.3)),
        (GaussianPacket(0.0, 1.2, 0.0), PlaneWave(0.4)),
        (GaussianPacket(0.5, 0.8, 1.0), GaussianPacket(0.1, 1.1, 0.2)),
    ]
    worst = 0.0
    for du, dv in pairs:
        u, v = sample_analytic(du, g), sample_analytic(dv, g)
        got = twisted_convolution_product(u, v, [[0.0]])
        want = pointwise_product(u, v)
        worst = max(worst, field_l2_distance(got, want))
    return _tol("product-theta0-pointwise", "product-def", worst, 1e-10)


def _assoc_fields(big_n: int):
    g = make_grid(2, big_n, 6.0)
    f = sample_analytic(GaussianPacket([0.3, -0.1], 1.0, [0.4, 0.0]), g)
    h = sample_analytic(GaussianPacket([-0.2, 0.2], 0.9, [0.0, -0.3]), g)
    k = sample_analytic(GaussianPacket([0.0, 0.1], 1.1, [0.2, 0.1]), g)
    return f, h, k


_SYMPLECTIC_2 = [[0.0, 1.0], [-1.0, 0.0]]


@_check("products", 3)
def check_assoc_star() -> CheckResult:
    f, h, k = _assoc_fields(32)
    d = associativity_defect(f, h, k, _SYMPLECTIC_2, product="star")
    return _tol("assoc-star-n2", "assoc", d, 1e-4)


@_check("products", 3)
def check_assoc_product() -> CheckResult:
    f, h, k = _assoc_fields(32)
    d = associativity_defect(f, h, k, _SYMPLECTIC_2, product="product")
    return _tol("assoc-product-n2", "assoc", d, 1e-4)


@_check("products", 3)
def check_assoc_refinement() -> CheckResult:
    coarse = _assoc_fields(32)
    fine = _assoc_fields(64)
    msgs = []
    ok = True
    for kind in ("star", "product"):
        d32 = associativity_defect(*coarse, _SYMPLECTIC_2, product=kind)
        d64 = associativity_defect(*fine, _SYMPLECTIC_2, product=kind)
        msgs.append(f"{kind}: {d32:.3e} -> {d64:.3e}")
        ok = ok and d64 < d32
    return _cond("assoc-defect-shrinks-with-n", "assoc", ok, "; ".join(msgs))


@_check("products", 4)
def check_star_route() -> CheckResult:
    g = make_grid(2, 32, 8.0)
    f = sample_analytic(GaussianPacket([0.3, -0.1], 1.0, [0.4, 0.0]), g)
    h = sample_analytic(GaussianPacket([-0.2, 0.2], 0.9, [0.0, -0.3]), g)
    direct = twisted_convolution(f, h, _SYMPLECTIC_2)
    routed = star_via_product(f, h, _SYMPLECTIC_2)
    return _tol("star-route-bridge-n2", "route-bridge", field_l2_distance(routed, direct), 1e-6)


@_check("products")
def check_star_constant_closed_form() -> CheckResult:
    # least-squares fit of c(n) between the direct twisted convolution
    # and the unscaled product route, against c(n) = (2 pi)^{n/2}
    worst = 0.0
    for n, theta in ((1, [[0.0]]), (2, _SYMPLECTIC_2)):
        g = make_grid(n, 32 if n == 2 else 64, 6.0 if n == 2 else 8.0)
        f = sample_analytic(GaussianPacket([0.3] * n, 1.0, [0.5] * n), g)
        h = sample_analytic(GaussianPacket([-0.2] * n, 0.8, [0.0] * n), g)
        direct = twisted_convolution(f, h, theta).values
        raw = fourier_forward(twisted_convolution_product(
            fourier_inverse(f), fourier_inverse(h), theta)).values
        fit = np.vdot(raw, direct) / np.vdot(raw, raw)
        closed = (2.0 * np.pi) ** (n / 2.0)
        worst = max(worst, float(abs(fit - closed) / closed))
    return _tol("star-constant-closed-form", "route-bridge", worst, 1e-9)


@_check("products")
def check_conv_closed_form() -> CheckResult:
    # centered unit Gaussians, symplectic coupling: the twisted kernel
    # integrates to pi * exp(-(5/16)|x|^2) at n=2
    g = make_grid(2, 32, 6.0)
    u = SampledField(g, np.exp(-0.5 * np.sum(g.points() ** 2, axis=1)).reshape((g.N,) * g.n))
    got = twisted_convolution(u, u, _SYMPLECTIC_2)
    want = SampledField(
        g, np.pi * np.exp(-(5.0 / 16.0) * np.sum(g.points() ** 2, axis=1)).reshape((g.N,) * g.n)
    )
    return _tol("conv-gaussian-closed-form", "conv-def", field_l2_distance(got, want), 1e-6)


@_check("products")
def check_product_closed_form() -> CheckResult:
    # same pair through the frequency-side product at theta = 0:
    # plain square exp(-|x|^2), then a twisted variant against the
    # closed form 0.8 exp(-0.8 |x|^2) at the pinned coupling
    g = make_grid(2, 32, 6.0)
    u = SampledField(g, np.exp(-0.5 * np.sum(g.points() ** 2, axis=1)).reshape((g.N,) * g.n))
    theta = [[0.0, 1.0], [-1.0, 0.0]]
    got = twisted_convolution_product(u, u, theta)
    want = SampledField(
        g, 0.8 * np.exp(-0.8 * np.sum(g.points() ** 2, axis=1)).reshape((g.N,) * g.n)
    )
    return _tol("product-gaussian-closed-form", "product-def", field_l2_distance(got, want), 1e-8)


# ---------------------------------------------------------------------------
# wavefront suite

def _shift_zero_pad(values: np.ndarray, shifts: tuple[int, ...]) -> np.ndarray:
    """Integer lattice translate; samples pushed past the box vanish."""
    out = np.zeros_like(values)
    src = []
    dst = []
    for s, size in zip(shifts, values.shape):
        if abs(s) >= size:
            return out
        if s >= 0:
            src.append(slice(0, size - s))
            dst.append(slice(s, size))
        else:
            src.append(slice(-s, size))
            dst.append(slice(0, size + s))
    out[tuple(dst)] = values[tuple(src)]
    return out


def _oracle_stft(u: SampledField, window) -> np.ndarray:
    """Windowed transform one position at a time: translate the window
    with zero fill, multiply, `fourier_forward`.  Serves as the
    reference for the batched `stft`."""
    g = u.grid
    n, big_n = g.n, g.N
    nrm = 1.0 / window.l2norm
    out = np.empty((big_n,) * (2 * n), dtype=complex)
    for j in np.ndindex(*(big_n,) * n):
        shifted = _shift_zero_pad(window.values, tuple(idx - big_n // 2 for idx in j))
        out[j] = fourier_forward(SampledField(g, u.values * np.conj(shifted))).values * nrm
    return out


@_check("wavefront")
def check_stft_batched_vs_loop() -> CheckResult:
    # windows of values alone take the general route, which does the
    # loop's floating-point operations on every sample, so any
    # difference at all is a defect
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n, big_n in ((1, 64), (2, 12)):
        g = make_grid(n, big_n, float(rng.uniform(3.0, 8.0)))
        shape = (big_n,) * n
        u = SampledField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for win in (gaussian_window(g), hann_window(g)):
            win = WindowFunction(g, win.values)
            diff = np.abs(stft(u, win).values - _oracle_stft(u, win))
            worst = max(worst, float(diff.max()))
    return _tol("stft-batched-vs-loop", "stft-def", worst, 0.0)


@_check("wavefront")
def check_stft_separable_vs_loop() -> CheckResult:
    # windows with factors are transformed one axis at a time: the
    # loop's operations at n=1, where any difference is a defect, and a
    # reordering of them at n=2 (N=34: an FFT length with the prime
    # factor 17); measured is max |V - V_loop| / max |V_loop| at n=2
    rng = np.random.default_rng(20240817)
    worst, n1_equal = 0.0, True
    for n, big_n in ((1, 64), (2, 12), (2, 34)):
        g = make_grid(n, big_n, float(rng.uniform(3.0, 8.0)))
        shape = (big_n,) * n
        u = SampledField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for win in (gaussian_window(g), hann_window(g)):
            got, want = stft(u, win).values, _oracle_stft(u, win)
            if n == 1:
                n1_equal = n1_equal and got.tobytes() == want.tobytes()
            else:
                scale = float(np.abs(want).max())
                got -= want     # in place: at N=34 each array holds 21 MB
                worst = max(worst, float(np.abs(got).max()) / scale)
            del got, want       # before the next window's pair is built
    r = _tol("stft-separable-vs-loop", "stft-def", worst if n1_equal else math.inf, 1e-13)
    return r if n1_equal else replace(r, detail="n=1 bytes differ from the loop")


_WF_GRID = (1, 128, 12.0)
_TRUE_DIRS = {
    "delta": [(0.0, 1.0), (0.0, -1.0)],
    "planewave": [(1.0, 0.0), (-1.0, 0.0)],
    "chirp": [(1.0, 1.0), (-1.0, -1.0)],
}
_MEMBERS = (
    ("delta", Delta(0.0)),
    ("planewave", PlaneWave(0.1)),
    ("gauss", GaussianPacket()),
    ("chirp", Chirp([[1.0]])),
)


def _catalog_estimate(dist, window=None, params=None):
    g = make_grid(*_WF_GRID)
    u = sample_analytic(dist, g)
    win = window if window is not None else gaussian_window(g)
    return estimate_wf(u, win, params)


def _two_sided_angle(name: str, dist) -> tuple[float, str]:
    """Max of (worst flagged-ray distance to truth, worst truth-ray
    distance to a flagged ray); inf when nothing is flagged."""
    est = _catalog_estimate(dist)
    flagged = est.flagged_directions()
    truth = exact_wf(dist)
    if not len(flagged):
        return math.inf, "empty flagged set"
    out = max(angular_distance_deg(truth, w) for w in flagged)
    reps = np.asarray(_TRUE_DIRS[name], dtype=float)
    reps /= np.linalg.norm(reps, axis=1, keepdims=True)
    cov = float(np.max(np.min(
        2.0 * np.degrees(np.arcsin(np.clip(
            np.linalg.norm(reps[:, None, :] - flagged[None, :, :], axis=2) / 2.0, 0, 1))),
        axis=1)))
    return max(out, cov), f"containment {out:.2f} deg, coverage {cov:.2f} deg"


@_check("wavefront", 5)
def check_catalog_delta() -> CheckResult:
    ang, detail = _two_sided_angle("delta", Delta(0.0))
    r = _tol("wf-catalog-delta", "wf-def", ang, 5.0)
    return replace(r, detail=detail)


@_check("wavefront", 5)
def check_catalog_planewave() -> CheckResult:
    ang, detail = _two_sided_angle("planewave", PlaneWave(0.1))
    r = _tol("wf-catalog-planewave", "wf-def", ang, 5.0)
    return replace(r, detail=detail)


@_check("wavefront", 5)
def check_catalog_gauss() -> CheckResult:
    est = _catalog_estimate(GaussianPacket())
    count = int(est.flagged.sum())
    return _cond("wf-catalog-gauss-empty", "wf-regularity", count == 0,
                 f"{count} directions flagged", measured=float(count))


@_check("wavefront", 5)
def check_catalog_chirp() -> CheckResult:
    ang, detail = _two_sided_angle("chirp", Chirp([[1.0]]))
    r = _tol("wf-catalog-chirp", "wf-def", ang, 5.0)
    return replace(r, detail=detail)


@_check("wavefront", 6)
def check_fourier_rotation() -> CheckResult:
    g = make_grid(*_WF_GRID)
    worst, worst_name = 0.0, ""
    for name, dist in _MEMBERS:
        rep = check_fourier_symmetry(sample_analytic(dist, g))
        if rep.hausdorff_deg > worst:
            worst, worst_name = rep.hausdorff_deg, name
    return _tol("wf-fourier-rotation-catalog", "wf-fourier-rotate", worst, 10.0,
                f"worst member: {worst_name}")


@_check("wavefront", 6)
def check_shear_covariance() -> CheckResult:
    g = make_grid(*_WF_GRID)
    win = gaussian_window(g)
    worst, worst_name = 0.0, ""
    for name, dist in _MEMBERS:
        rep = check_chirp_shear(sample_analytic(dist, g), [[1.0]], win)
        if rep.hausdorff_deg > worst:
            worst, worst_name = rep.hausdorff_deg, name
    return _tol("wf-chirp-shear-catalog", "wf-chirp-shear", worst, 5.0,
                f"worst member: {worst_name}")


@_check("wavefront")
def check_window_independence() -> CheckResult:
    g = make_grid(*_WF_GRID)
    hann = hann_window(g)
    worst = 0.0
    for _, dist in _MEMBERS:
        a = _catalog_estimate(dist).flagged_directions()
        b = _catalog_estimate(dist, window=hann).flagged_directions()
        worst = max(worst, hausdorff_deg(a, b))
    # gate: twice the direction-grid resolution (0.5 deg at D=360)
    return _tol("wf-window-independence", "wf-def", worst, 1.0 + 1e-9)


@_check("wavefront")
def check_conicity() -> CheckResult:
    worst = 0.0
    for _, dist in _MEMBERS:
        a = _catalog_estimate(dist).flagged_directions()
        b = _catalog_estimate(
            dist, params=WavefrontParams(r_max_frac=0.4, r_min_frac=0.2)
        ).flagged_directions()
        worst = max(worst, hausdorff_deg(a, b))
    # the flag boundary moves by up to ~2 grid steps when the radial
    # band doubles; gate at 5x resolution
    return _tol("wf-conicity-band-doubling", "wf-def", worst, 2.5)


@_check("wavefront")
def check_k_test_margin() -> CheckResult:
    # the default threshold must lie strictly between the slowest decay
    # on the true set (rays within the grid resolution) and the fastest
    # decay more than 5 deg off it, across the catalog; measured is the
    # larger of on/k_test and k_test/off, below 1 when both margins hold
    k_test = WavefrontParams().k_test
    on_max, off_min = 0.0, math.inf
    for _, dist in _MEMBERS:
        est = _catalog_estimate(dist, params=WavefrontParams(k_test=math.inf))
        truth = exact_wf(dist)
        for k_hat, ray in zip(est.k_hat, est.directions.directions):
            if not math.isfinite(k_hat):
                continue
            deg = angular_distance_deg(truth, ray)
            if deg <= est.directions.resolution_deg:
                on_max = max(on_max, k_hat)
            elif deg > 5.0:
                off_min = min(off_min, k_hat)
    worst = float(max(on_max / k_test, k_test / off_min))
    r = _cond("wf-k-test-margin", "wf-def", on_max < k_test < off_min, measured=worst)
    return replace(r, detail=f"on-set max {on_max:.3g}, k_test {k_test:g}, "
                             f"off-set min {off_min:.3g}")


@_check("wavefront")
def check_reach_vs_full_lattice() -> CheckResult:
    # estimate_wf transforms and stores |V| only on the lines its ray
    # samples read; every value the fit reads is the full lattice's, so
    # any difference at all is a defect
    chirp2 = Chirp(0.5 * np.eye(2))
    cases = ((make_grid(1, 128, 12.0), [dist for _, dist in _MEMBERS]),
             (make_grid(2, 20, 7.0), [Delta((0.0, 0.0)), PlaneWave((0.1, -0.1)),
                                      GaussianPacket((0.0, 0.0)), chirp2]))
    params = WavefrontParams(k_test=0.05)
    worst = 0.0
    for g, dists in cases:
        for dist in dists:
            u = sample_analytic(dist, g)
            for win in (gaussian_window(g), hann_window(g)):
                got = estimate_wf(u, win, params)
                want = estimate_wf_from_stft(stft(u, win), params)
                for a, b in ((got.k_hat, want.k_hat), (got.value_at_rmax, want.value_at_rmax)):
                    with np.errstate(invalid="ignore"):   # inf - inf where both are inf
                        diff = np.where(a == b, 0.0, np.abs(a - b))
                    worst = max(worst, float(np.max(np.nan_to_num(diff, nan=math.inf))))
    return _tol("wf-reach-vs-full-lattice", "wf-def", worst, 0.0,
                "max |delta k_hat|, |delta value_at_rmax| over the catalog at n=1 (N=128) "
                "and n=2 (N=20), Gaussian and Hann windows")


# ---------------------------------------------------------------------------
# calculus suite

def _j_theta(n: int, scale: Fraction = Fraction(1)) -> list[list[Fraction]]:
    """Tridiagonal antisymmetric n x n coupling; the rotation block J
    at n=2, a forced zero at n=1."""
    z = Fraction(0)
    th = [[z] * n for _ in range(n)]
    for i in range(n - 1):
        th[i][i + 1] = scale
        th[i + 1][i] = -scale
    return th


def _zero_theta(n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(n)]


@_check("calculus", 7)
def check_existence_forced() -> CheckResult:
    ok = True
    notes = []
    for n in (1, 2):
        wfu = product_set(full_space(n), None)
        wfv = product_set(None, full_space(n))
        thetas = [_zero_theta(n)]
        if n == 2:
            thetas += [_j_theta(2), _j_theta(2, Fraction(3, 7))]
        for th in thetas:
            res = existence_condition(wfu, wfv, th)
            ok = ok and bool(res)
            if not res:
                notes.append(f"n={n} witness {_witness_text(res.witness)}")
    return _cond("existence-forced-pairs", "wf-product-existence", ok, "; ".join(notes))


@_check("calculus", 7)
def check_existence_delta_pair() -> CheckResult:
    n = 2
    d = product_set(None, full_space(n))
    res = existence_condition(d, d, _zero_theta(n))
    if bool(res):
        return _cond("existence-delta-pair-fails", "wf-product-existence", False,
                     "condition unexpectedly holds")
    w = res.witness
    ok = w is not None and any(x != 0 for x in w[0])
    detail = f"witness {tuple(map(str, w[0]))}" if w else "no witness"
    return _cond("existence-delta-pair-fails", "wf-product-existence", ok, detail)


def _random_polyhedral(rng: random.Random, dim: int, planted: tuple | None = None) -> ConicSet:
    """One or two random polyhedral components, each carrying the
    selector "x != 0" with probability one half; a `planted` vector
    joins the first component's generators."""
    comps = []
    for k in range(rng.randint(1, 2)):
        gens = [planted] if planted is not None and k == 0 else []
        for _ in range(rng.randint(2, 3)):
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim))
            if any(x != 0 for x in v):
                gens.append(v)
        if gens:
            comp = polyhedral(gens).components[0]
            if rng.random() < 0.5:
                comp = PolyhedralCone(comp.generators, (_projector(dim // 2, 0),), comp.den)
            comps.append(comp)
    return ConicSet(dim, tuple(comps)) if comps else empty_set(dim)


def _random_pair(rng: random.Random, theta) -> tuple[ConicSet, ConicSet]:
    """Two random sets in R^4.  About a third of the draws plant a
    violating pair, (x, xi) in the first set and (x, -xi) in the second
    on the slice x = theta xi / 2; at theta = 0 the selector "x != 0"
    of a planted component removes it again."""
    planted = (None, None)
    if rng.random() < 1 / 3:
        xi = (0, 0)
        while not any(xi):
            xi = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2))
        x = tuple(sum(t * c for t, c in zip(row, xi)) / 2 for row in theta)
        planted = (x + xi, x + tuple(-c for c in xi))
    return _random_polyhedral(rng, 4, planted[0]), _random_polyhedral(rng, 4, planted[1])


_THETA_FAMILY = (
    _j_theta(2),
    _j_theta(2, Fraction(2)),
    _j_theta(2, Fraction(1, 3)),
)


@_check("calculus", 7)
def check_phrasings_agree() -> CheckResult:
    rng = random.Random(11)
    mismatches = violating = 0
    for i in range(100):
        th = _THETA_FAMILY[i % len(_THETA_FAMILY)]
        wfu, wfv = _random_pair(rng, th)
        a = bool(existence_condition(wfu, wfv, th))
        b = bool(existence_condition_theta_inv(wfu, wfv, th))
        mismatches += a != b
        violating += not a
    r = _cond("existence-phrasings-agree-100", "existence-theta-inverse",
              mismatches == 0, measured=float(mismatches))
    return replace(r, detail=f"{mismatches} mismatches; {violating} of 100 pairs violate")


@_check("calculus")
def check_theta0_cross() -> CheckResult:
    rng = random.Random(23)
    zero2 = _zero_theta(2)
    bad = violating = 0
    for _ in range(100):
        wfu, wfv = _random_pair(rng, zero2)
        a = bool(existence_condition(wfu, wfv, zero2))
        bad += a == _pointwise_theta0(wfu, wfv)
        violating += not a
    r = _cond("existence-theta0-crosscheck-100", "wf-product-existence",
              bad == 0, measured=float(bad))
    return replace(r, detail=f"{bad} mismatches; {violating} of 100 pairs violate")


def _pointwise_theta0(wfu: ConicSet, wfv: ConicSet) -> bool:
    """True iff a violating frequency pair exists: (0, xi) in WFu with
    (0, -xi) in WFv.  Assembled directly from the projector rows, with
    each exclude selector E lifted to E G on its own weight columns."""
    n = wfu.dim // 2
    for gu in set_gencones(wfu):
        for gv in set_gencones(wfv):
            mu, mv = mat_t(gu.generators), mat_t(gv.generators)
            cu, cv = len(mu[0]), len(mv[0])
            rows = []
            for i in range(n):                       # x parts vanish
                rows.append(tuple(mu[i]) + (0,) * cv)
                rows.append((0,) * cu + tuple(mv[i]))
            for i in range(n):                       # xi_u + xi_v = 0
                rows.append(tuple(mu[n + i]) + tuple(mv[n + i]))
            selectors = [tuple(tuple(mu[n + i]) + (0,) * cv for i in range(n))]
            selectors += [tuple(r + (0,) * cv for r in matmul(e, mu)) for e in gu.excludes]
            selectors += [tuple((0,) * cu + r for r in matmul(e, mv)) for e in gv.excludes]
            if feasible_with_nonzero(tuple(rows), cu + cv, selectors) is not None:
                return True
    return False


_LEFT_HALF = polyhedral([(-1, 0), (0, 1), (0, -1)])
_THETA_LIGHT = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))


@_check("calculus", 7)
def check_lightcone_upward() -> CheckResult:
    gamma2 = polyhedral([(1, 1), (-1, 1)])
    rep = shift_algebra_check(_LEFT_HALF, gamma2, _THETA_LIGHT)
    return _cond("shift-algebra-lightcone", "twisted-shift-algebra",
                 rep.passed and rep.verdict == "exact",
                 "; ".join(f"{c.name}={c.passed}" for c in rep.conditions))


@_check("calculus")
def check_lightcone_as_printed() -> CheckResult:
    # the two-wedge reading (positivity on the subordinate coordinate):
    # a union that is not closed under addition
    wedges = ConicSet(2, polyhedral([(0, 1), (1, 1)]).components
                      + polyhedral([(0, -1), (1, -1)]).components)
    rep = shift_algebra_check(_LEFT_HALF, wedges, _THETA_LIGHT)
    c = rep.additive_salient
    ok = (not c.passed) and c.witness is not None
    s = sum(np.asarray([float(x) for x in w]) for w in c.witness) if c.witness else None
    ok = ok and s is not None and np.allclose(s, 0.0)
    return _cond("shift-algebra-two-wedge-reading", "twisted-shift-algebra", ok,
                 f"witness {_witness_text(c.witness)}")


@_check("calculus")
def check_lightcone_time_forward() -> CheckResult:
    forward = polyhedral([(1, 1), (1, -1)])
    rep = shift_algebra_check(_LEFT_HALF, forward, _THETA_LIGHT)
    ok = rep.additive_salient.passed and not rep.shift_stability.passed \
        and rep.shift_stability.witness is not None
    return _cond("shift-algebra-time-forward-reading", "twisted-shift-algebra", ok,
                 f"shift witness {_witness_text(rep.shift_stability.witness)}")


@_check("calculus", 7)
def check_double_cone() -> CheckResult:
    double = ConicSet(2, polyhedral([(1, 1), (-1, 1)]).components
                      + polyhedral([(-1, -1), (1, -1)]).components)
    rep = shift_algebra_check(_LEFT_HALF, double, _THETA_LIGHT)
    c = rep.additive_salient
    ok = (not rep.passed) and (not c.passed) and c.witness is not None
    return _cond("shift-algebra-double-cone-fails", "twisted-shift-algebra", ok,
                 f"witness {_witness_text(c.witness)}")


@_check("calculus")
def check_shift_algebra_zero_coupling() -> CheckResult:
    zero2 = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    rep = shift_algebra_check(_LEFT_HALF, polyhedral([(1, 1), (-1, 1)]), zero2)
    return _cond("shift-algebra-zero-coupling", "twisted-shift-algebra",
                 rep.passed and rep.shift_stability.passed,
                 rep.shift_stability.note)


@_check("calculus")
def check_shift_algebra_vs_lattice() -> CheckResult:
    """`shift_algebra_check` and `conic_equal` on 100 seeded R^2 pairs
    (theta = J) against lattice points of {-3..3}^2, whose membership
    `rational.cone_contains` and the selectors decide, not `cones.member`.
    Failing witnesses are re-checked; a shift-stability pass is probed at
    x0 + (1/2) theta xi for all lattice members x0 of gamma1 and xi of
    gamma2; conic_equal(gamma1, gamma1 u gamma2) must read True only when
    every lattice member of gamma2 is in gamma1, and when it reads False
    the `_escape` witness of gamma2 leaving gamma1 is re-checked.  The
    measured value is the number of mismatches."""
    rng, half_theta = random.Random(1), ((0, Fraction(1, 2)), (Fraction(-1, 2), 0))
    lattice = [tuple(map(Fraction, v)) for v in product(range(-3, 4), repeat=2) if any(v)]
    bad = failed = 0
    for _ in range(100):
        g1, g2 = _random_polyhedral(rng, 2), _random_polyhedral(rng, 2)
        memo: dict = {}

        def inside(s, v):
            if (key := (id(s), _primitive(v))) not in memo:
                memo[key] = any(cone_contains(c.generators, key[1]) and all(
                    any(matvec(e, key[1])) for e in c.excludes) for c in set_gencones(s))
            return memo[key]

        sal, _, shift = shift_algebra_check(g1, g2, _j_theta(2)).conditions
        if not sal.passed:
            p, q, *rest = sal.witness
            bad += not (inside(g2, p) and inside(g2, q)) or (
                rest[0] != _primitive(vadd(p, q)) or inside(g2, rest[0]) if rest else q != vneg(p))
        if not shift.passed:
            x0, xi, pt = shift.witness
            bad += not (inside(g1, x0) and inside(g2, xi)) or inside(g1, pt) \
                or pt != _primitive(vadd(x0, matvec(half_theta, xi)))
        else:
            m1, m2 = ([v for v in lattice if inside(g, v)] for g in (g1, g2))
            shifts = [matvec(half_theta, xi) for xi in m2]
            bad += any(any(pt) and not inside(g1, pt) for pt in {vadd(x0, h) for x0 in m1 for h in shifts})
        failed += not (sal.passed and shift.passed)
        if conic_equal(g1, ConicSet(2, g1.components + g2.components)):
            bad += any(inside(g2, v) and not inside(g1, v) for v in lattice)
        else:
            w = _escape((g2,), identity(2), g1)
            bad += w is None or not inside(g2, w[0]) or inside(g1, w[0])
    r = _tol("shift-algebra-vs-lattice", "twisted-shift-algebra", bad, 0.0)
    return replace(r, detail=f"{bad} mismatches; {failed} of 100 pairs fail a condition")


@_check("calculus", 7)
def check_pair_condition() -> CheckResult:
    one_sided = product_set(full_space(1), ray_set((1,)))
    sym = product_set(None, full_space(1))
    pos_ray = product_set(None, ray_set((1,)))
    a = pair_condition(one_sided)
    b = pair_condition(sym)
    c = pair_condition(pos_ray)
    ok = bool(a) and (not bool(b)) and b.witness is not None and bool(c)
    return _cond("pair-condition-verdicts", "pair-condition", ok,
                 f"one_sided={bool(a)} symmetric={bool(b)} pos_ray={bool(c)}")


@_check("calculus", 9)
def check_star_closure() -> CheckResult:
    ok = True
    notes = []
    for n, theta in ((1, _zero_theta(1)), (2, _j_theta(2)),
                     (2, _j_theta(2, Fraction(3, 7))), (3, _j_theta(3))):
        d = product_set(None, full_space(n))
        got = predicted_star_wf(d, d, theta)
        if not conic_equal(got, d):
            ok = False
            notes.append(f"n={n} closure broken")
    return _cond("star-wf-closure-exact", "star-wf-closure", ok, "; ".join(notes))


@_check("calculus")
def check_product_prediction() -> CheckResult:
    notes = []
    # oscillation times impulse at symplectic coupling
    pw = product_set(full_space(2), None)
    dl = product_set(None, full_space(2))
    got = predicted_product_wf(pw, dl, _j_theta(2))
    ok = conic_equal(got, dl)
    if not ok:
        notes.append("planewave*delta prediction off")
    # zero coupling: impulse times oscillation
    got2 = predicted_product_wf(dl, pw, _zero_theta(2))
    if not conic_equal(got2, dl):
        ok = False
        notes.append("theta=0 delta*osc prediction off")
    # empty inputs
    if not predicted_product_wf(empty_set(4), empty_set(4), _j_theta(2)).is_empty:
        ok = False
        notes.append("empty*empty not empty")
    return _cond("product-wf-prediction-cases", "product-wf-bound", ok, "; ".join(notes))


@_check("calculus")
def check_schwartz_factor_slice() -> CheckResult:
    # one Schwartz factor: the survivors are exactly the rays of WFu
    # annihilated by x + (1/2) theta xi, enumerable by hand on ray sets
    th = _j_theta(2)
    r_keep = (Fraction(0), Fraction(1), Fraction(2), Fraction(0))   # x = -theta xi / 2
    r_drop = (Fraction(1), Fraction(0), Fraction(1), Fraction(0))
    wfu = ConicSet(4, ray_set(r_keep).components + ray_set(r_drop).components)
    got = predicted_product_wf(wfu, empty_set(4), th)
    ok = conic_equal(got, ray_set(r_keep))
    # and symmetrically for the other factor
    sym_keep = (Fraction(0), Fraction(-1), Fraction(2), Fraction(0))  # x = +theta xi / 2
    wfv = ConicSet(4, ray_set(sym_keep).components + ray_set(r_drop).components)
    got2 = predicted_product_wf(empty_set(4), wfv, th)
    ok = ok and conic_equal(got2, ray_set(sym_keep))
    return _cond("schwartz-factor-slice", "product-wf-bound", ok)


@_check("calculus")
def check_pullback() -> CheckResult:
    notes = []
    s = product_set(None, full_space(1))
    res = wf_pullback(s, [[Fraction(1)]])
    ok = res.defined and conic_equal(res.wavefront, s)
    if not ok:
        notes.append("identity pullback off")
    diag = ((Fraction(1),), (Fraction(1),))
    good = wf_pullback(ray_set((0, 0, 1, 1)), diag)
    if not (good.defined and conic_equal(good.wavefront, ray_set((0, 1)))):
        ok = False
        notes.append("diagonal restriction off")
    bad = wf_pullback(ray_set((0, 0, 1, -1)), diag)
    if bad.defined or bad.undefined_witness is None:
        ok = False
        notes.append("normal-direction case not refused")
    return _cond("pullback-cases", "pullback", ok, "; ".join(notes))


def _oracle_rref(a) -> tuple[tuple, tuple[int, ...]]:
    """Gauss-Jordan over Fractions, the rref's definition step by step:
    its nonzero rows and pivot columns."""
    rows = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in a]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and (f := rows[i][c]) != 0:
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return tuple(map(tuple, rows[:len(pivots)])), tuple(pivots)


def _primitive(v) -> tuple[int, ...]:
    """A rational vector scaled by a positive rational to coprime ints."""
    v = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _witness_text(w) -> str:
    """A witness's points with Fraction entries, as check details write them."""
    return repr(w if w is None else tuple(tuple(map(Fraction, p)) for p in w))


def _oracle_extreme_rays(a, ncols: int) -> list:
    """Extreme rays of {w >= 0 : A w = 0} by the Fraction subset
    enumerator: one Gauss-Jordan per candidate support, by increasing
    size, keeping the supports with a one-dimensional kernel positive on
    them.  A support that holds a ray's support is skipped, since its
    kernel, where one-dimensional, is that ray, which is not positive on
    it; so every ray kept has a minimal support.  Serves as the reference
    for `rational.extreme_rays`, and shares none of its code."""
    if ncols == 0:
        return []
    if not a:
        # free nonnegative orthant: extreme rays are the unit vectors
        return [tuple(int(j == i) for j in range(ncols)) for i in range(ncols)]
    max_support = min(ncols, len(_oracle_rref(a)[1]) + 1)
    cols = list(zip(*a))
    rays, found = [], []
    for size in range(1, max_support + 1):
        for support in combinations(range(ncols), size):
            if any(f.issubset(support) for f in found):
                continue
            red, pivots = _oracle_rref(tuple(zip(*(cols[j] for j in support))))
            if len(pivots) != size - 1:
                continue
            # the one kernel vector: 1 at the free column
            fc = next(c for c in range(size) if c not in pivots)
            gen = [Fraction(0)] * size
            gen[fc] = Fraction(1)
            for row, pc in zip(red, pivots):
                gen[pc] = -row[fc]
            if all(x < 0 for x in gen):
                gen = [-x for x in gen]
            elif not all(x > 0 for x in gen):
                continue
            w = [Fraction(0)] * ncols
            for j, val in zip(support, gen):
                w[j] = val
            rays.append(_primitive(w))
            found.append(set(support))
    return rays


def _oracle_nonneg_solve(gens, v):
    """`rational.nonneg_solve` over the oracle's ray list."""
    k = len(gens)
    if all(x == 0 for x in v):
        return (Fraction(0),) * k
    if k == 0:
        return None
    a = tuple(tuple(g[i] for g in gens) + (-v[i],) for i in range(len(v)))
    for ray in _oracle_extreme_rays(a, k + 1):
        if ray[k] > 0:
            return tuple(Fraction(x, ray[k]) for x in ray[:k])
    return None


def _random_rational_matrix(rng: random.Random, rows: int, cols: int) -> tuple:
    """Small rational entries, some zero; sometimes a dependent last row
    and a zero column."""
    a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.8 else Fraction(0)
          for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        a[-1] = [c * x for x in a[0]]
    if rng.random() < 0.2:
        j = rng.randrange(cols)
        for row in a:
            row[j] = Fraction(0)
    return tuple(tuple(row) for row in a)


@_check("calculus")
def check_extreme_rays_int_vs_oracle() -> CheckResult:
    # both sides are exact, so any difference in the lists, order
    # included, or in the membership coefficients is a defect
    rng = random.Random(20240817)
    mismatches = 0
    for _ in range(150):
        m, k = rng.randint(1, 4), rng.randint(1, 6)
        a = _random_rational_matrix(rng, m, k)
        if extreme_rays(integer_form(a)[0], k) != _oracle_extreme_rays(a, k):
            mismatches += 1
        gens = mat_t(a)
        if nonneg_solve(gens[:-1], gens[-1]) != _oracle_nonneg_solve(gens[:-1], gens[-1]):
            mismatches += 1
    return _tol("extreme-rays-int-vs-oracle", "extreme-rays", float(mismatches), 0.0)


# ---------------------------------------------------------------------------
# bridge suite

def _bridge_product():
    g = make_grid(2, 32, 7.0)
    theta = _SYMPLECTIC_2
    a_vec = np.array([0.875, -0.875])
    u = sample_analytic(PlaneWave(tuple(a_vec)), g)
    half = 0.5 * (np.asarray(theta) @ a_vec)
    v = sample_analytic(Delta(tuple(half)), g)
    return twisted_convolution_product(u, v, theta), g


@_check("bridge", 8)
def check_bridge_impulse() -> CheckResult:
    w, g = _bridge_product()
    mag = np.abs(w.values)
    peak = np.unravel_index(int(np.argmax(mag)), mag.shape)
    at_origin = all(abs(g.axis()[i]) < g.spacing / 2 for i in peak)
    side = float(np.partition(mag.reshape(-1), -2)[-2] / mag.max())
    ok = at_origin and side <= 0.2
    return _cond("bridge-impulse-at-origin", "product-def", ok,
                 f"peak index {peak}, sidelobe {side:.3f}", measured=side)


@_check("bridge", 8)
def check_bridge_prediction_exact() -> CheckResult:
    pw = product_set(full_space(2), None)
    dl = product_set(None, full_space(2))
    got = predicted_product_wf(pw, dl, _j_theta(2))
    return _cond("bridge-predicted-set", "product-wf-bound", conic_equal(got, dl))


@_check("bridge", 8)
def check_bridge_containment() -> CheckResult:
    w, g = _bridge_product()
    est = estimate_wf(w, gaussian_window(g), WavefrontParams(k_test=0.05))
    flagged = est.flagged_directions()
    if not len(flagged):
        return _cond("bridge-angular-containment", "product-wf-bound", False,
                     "nothing flagged")
    predicted = product_set(None, full_space(2))
    worst = max(angular_distance_deg(predicted, d) for d in flagged)
    r = _tol("bridge-angular-containment", "product-wf-bound", worst, 10.0)
    return replace(r, detail=f"{len(flagged)} directions flagged")


# ---------------------------------------------------------------------------
# runner

def _timed(fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        res = fn()
    except Exception as exc:  # a crashed check is a failed check
        res = CheckResult(fn.__name__, "fail", detail=f"{type(exc).__name__}: {exc}")
    return replace(res, seconds=time.perf_counter() - t0)


def suite_checks(name: str) -> list:
    if name == "all":
        return [fn for _, _, fn in _REGISTRY]
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return [fn for s, _, fn in _REGISTRY if s == name]


def criterion_checks(k: int) -> list:
    return [fn for _, c, fn in _REGISTRY if c == k]


def run_suite(name: str) -> VerificationReport:
    return VerificationReport(name, tuple(_timed(fn) for fn in suite_checks(name)))
