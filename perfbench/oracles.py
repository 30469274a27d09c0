"""Reference computations the benchmark checks twistlab's outputs against.

Nothing here calls twistlab's kernels: the twisted sums are written out
as dense brute-force quadratures with their own index arithmetic and
their own Fourier matrices, cone membership is decided by exact
Caratheodory enumeration over `Fraction`, and angles to the exact
singular sets of catalog members come from plain linear algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# twisted sums on centered grids (x_j = (j - N/2) d, d = 2L/N)

def axis_points(N: int, L: float) -> np.ndarray:
    return (np.arange(N) - N // 2) * (2.0 * L / N)


def lattice(n: int, N: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer multi-indices (M, n) and coordinates (M, n), row-major."""
    idx = np.stack(np.unravel_index(np.arange(N**n), (N,) * n), axis=1)
    return idx, axis_points(N, L)[idx]


def twisted_sum(f: np.ndarray, g: np.ndarray, theta: np.ndarray, L: float,
                probes: np.ndarray, wrap: bool) -> np.ndarray:
    """d^n sum_y f(x - y) g(y) exp(-(i/2) x.theta y) at the probe indices x.

    Out-of-box arguments of f are zero, or periodic when `wrap`.
    """
    n, N = f.ndim, f.shape[0]
    idx, pts = lattice(n, N, L)
    diff = idx[probes][:, None, :] - idx[None, :, :] + N // 2
    if wrap:
        inside = np.ones(diff.shape[:2], dtype=bool)
        diff = diff % N
    else:
        inside = np.all((diff >= 0) & (diff < N), axis=2)
        diff = np.clip(diff, 0, N - 1)
    fv = np.where(inside, f[tuple(np.moveaxis(diff, 2, 0))], 0.0)
    phase = np.exp(-0.5j * (pts[probes] @ theta @ pts.T))
    return (fv * g.reshape(-1)[None, :] * phase).sum(axis=1) * (2.0 * L / N) ** n


def _dft_matrix(N: int, L: float, inverse: bool) -> np.ndarray:
    """Continuum-normalized DFT between the grid of half-width L and its
    dual (half-width pi N / (2L)): (2 pi)^{-1/2} d exp(-/+ i xi x)."""
    x = axis_points(N, L)
    dxi = math.pi / L
    xi = (np.arange(N) - N // 2) * dxi
    if inverse:
        return (2.0 * math.pi) ** -0.5 * dxi * np.exp(1j * np.outer(x, xi))
    return (2.0 * math.pi) ** -0.5 * (2.0 * L / N) * np.exp(-1j * np.outer(xi, x))


def _apply_axes(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    for ax in range(a.ndim):
        a = np.moveaxis(np.tensordot(m, a, axes=([1], [ax])), 0, ax)
    return a


def twisted_product(u: np.ndarray, v: np.ndarray, theta: np.ndarray, L: float) -> np.ndarray:
    """Frequency-side twisted product: transform both factors, take the
    periodic twisted sum over the dual grid times (2 pi)^{-n/2}, and
    transform back.  Zero coupling reduces it to u v."""
    n, N = u.ndim, u.shape[0]
    fwd = _dft_matrix(N, L, inverse=False)
    uh, vh = _apply_axes(fwd, u), _apply_axes(fwd, v)
    L_dual = math.pi * N / (2.0 * L)
    w = twisted_sum(uh, vh, theta, L_dual, np.arange(N**n), wrap=True).reshape(u.shape)
    w *= (2.0 * math.pi) ** (-n / 2.0)
    return _apply_axes(_dft_matrix(N, L, inverse=True), w)


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


# ---------------------------------------------------------------------------
# angles between directions and linear subspaces

def angle_to_span_deg(w: np.ndarray, basis) -> float:
    """Angle between the direction w and the span of the basis rows."""
    q, _ = np.linalg.qr(np.asarray(basis, dtype=float).T)
    proj = q @ (q.T @ w)
    return math.degrees(math.atan2(np.linalg.norm(w - proj), np.linalg.norm(proj)))


# ---------------------------------------------------------------------------
# exact cone membership

def _solve_exact(cols: list[tuple[Fraction, ...]], p: tuple[Fraction, ...]):
    """The unique lam with sum lam_i cols_i = p, or None when the columns
    are dependent or the system is inconsistent (Gauss-Jordan on Fraction)."""
    k, d = len(cols), len(p)
    rows = [[cols[j][i] for j in range(k)] + [p[i]] for i in range(d)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, d) if rows[i][c] != 0), None)
        if piv is None:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(d):
            if i != r and rows[i][c] != 0:
                fac = rows[i][c]
                rows[i] = [x - fac * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][k] != 0 for i in range(r, d)):
        return None
    return [rows[i][k] for i in range(k)]


def in_hull(gens, p) -> bool:
    """Exact test of p in {sum lam_i g_i : lam >= 0}.  By Caratheodory a
    member is a nonnegative combination of linearly independent
    generators, so trying every independent subset decides it."""
    p = tuple(Fraction(x) for x in p)
    if not any(p):
        return True
    gens = [tuple(Fraction(x) for x in g) for g in gens]
    for size in range(1, min(len(gens), len(p)) + 1):
        for sub in combinations(gens, size):
            lam = _solve_exact(list(sub), p)
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def in_union(hulls, p) -> bool:
    """p != 0 lies in one of the generator hulls."""
    return any(x != 0 for x in p) and any(in_hull(h, p) for h in hulls)
