"""Twisted convolution and the twisted frequency-side product.

Both evaluate the same finite twisted sum

    out(x) = d^n sum_y f(x - y) g(y) exp(-(i/2) x.theta y)

over the grid, with out-of-box arguments of f zero-padded or periodic.
The bilinear chirp factorises one axis at a time: writing x = (x', x_n),
y = (y', y_n), m = N^{n-1} leading points x' and c = theta[:-1, -1],

    x.theta y = x'.theta' y' + (x'.c) y_n - x_n (c.y').

For each pair (x', y') the sum over y_n is a 1-D convolution, done by
FFT, and one contraction over y' gives the output.  The cost is
O(N^{2n-1} log N) in place of the O(N^{2n}) direct sum: N^3 log N at
n=2, and at n=1 (theta = 0) a plain FFT convolution.  The direct sum
survives only as the oracle in `suites`.

Zero-padded sums pre-chirp both factors (Bluestein's factorisation,
applied to the coupling).  With the half-chirp Q(x) = exp((i/2)(x'.c) x_n),

    exp(-(i/2) x.theta y) = exp(-(i/2) x'.theta' y') conj(Q(x))
                            exp(i x_n c.y') Q(x - y) conj(Q(y)),

so out = d^n conj(Q) sum_{y'} exp(-(i/2) x'.theta' y') exp(i x_n c.y')
[(fQ)_{x'-y'} * (g conj(Q))_{y'}](x_n): every row of fQ and of g conj(Q)
is transformed once, 2m + 1 forward FFTs with the zero row that stands
for out-of-box x' - y', and only the m^2 inverse FFTs remain per pair.
The lags of f lie in [-N/2, N/2), so a circular length P >= 3N/2 gives
the linear sum on outputs 0..N-1; P is the least 7-smooth such length
(54 at N=36, where 2N would be 72).

Periodic sums keep one forward FFT of length N per pair: Q(x - y) needs
the unwrapped lag, which the periodic index forgets.  Each g row is
modulated by conj(Q(x', .)) for its x' row instead, and the output phase
is Q(y', x_n).

`_plan` keeps per (n, N, L, theta, mode) only O(m N) read-only data: the
leading indices and coordinates, P, the half-chirp and the output phase.
The index maps
and lead phases exp(-(i/2) x'.theta' y') of a block of x' rows are O(m)
per row and built per block; cached, they would be O(m^2).  Each thread
keeps two workspaces of `_BLOCK_ELEMS` complex elements that every
block is taken, multiplied and transformed in, so a repeated call maps
no fresh pages; a block wider than a workspace gets a buffer of its own.
FFTs with `out=` need numpy >= 2.0.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grids import Grid, SampledField
from .matrices import AntisymmetricMatrix
from .spectral import fourier_forward, fourier_inverse

# complex elements in each of a thread's two block workspaces (1 MiB each)
_BLOCK_ELEMS = 1 << 16
_local = threading.local()


def _theta_matrix(theta, n: int) -> np.ndarray:
    if not isinstance(theta, AntisymmetricMatrix):
        try:
            theta = AntisymmetricMatrix.from_matrix(np.atleast_2d(theta))
        except ValueError as exc:
            raise ValueError(f"theta must be an antisymmetric {n}x{n} matrix: {exc}") from exc
    if theta.n != n:
        raise ValueError(
            f"theta must be an antisymmetric {n}x{n} matrix, got {theta.n}x{theta.n}"
        )
    return theta.matrix


def pointwise_product(u: SampledField, v: SampledField) -> SampledField:
    if not u.grid.compatible(v.grid):
        raise ValueError("grids differ")
    return SampledField(u.grid, u.values * v.values)


def _smooth_length(k: int) -> int:
    """The least 7-smooth integer >= k."""
    while True:
        r = k
        for p in (2, 3, 5, 7):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


class _Plan(NamedTuple):
    P: int                  # FFT length: N periodic, else least 7-smooth >= 3N/2
    lead: np.ndarray        # (m, n-1) leading indices
    strides: np.ndarray     # flat index of a leading index
    xp: np.ndarray          # (m, n-1) leading coordinates
    lead_form: np.ndarray   # theta' xp^T, (n-1, m)
    chirp: np.ndarray       # Q(x', x_n) = exp((i/2)(x'.c) x_n), (m, N)
    out_phase: np.ndarray   # (m, P), zero past column N: exp(i x_n c.y'), or Q periodic


@lru_cache(maxsize=16)      # a products-n2 round uses 12 configurations
def _plan(n: int, N: int, L: float, theta_bytes: bytes, wrap: bool) -> _Plan:
    theta = np.frombuffer(theta_bytes).reshape(n, n)
    m = N ** (n - 1)
    ax = Grid(n, N, L).axis()
    lead = np.indices((N,) * (n - 1)).reshape(n - 1, m).T
    xp = ax[lead]
    xc = np.outer(xp @ theta[:-1, -1], ax)             # (x'.c) x_n, also (c.y') x_n
    chirp = np.exp(0.5j * xc)
    P = N if wrap else _smooth_length(-(-3 * N // 2))
    out_phase = np.zeros((m, P), dtype=complex)
    out_phase[:, :N] = chirp if wrap else np.exp(1j * xc)
    plan = _Plan(P, lead, N ** np.arange(n - 2, -1, -1), xp, theta[:-1, :-1] @ xp.T,
                 chirp, out_phase)
    for a in plan[1:]:
        a.setflags(write=False)
    return plan


def _workspaces(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two block workspaces (made at the first call, or
    again if `_BLOCK_ELEMS` changed), or new buffers when one block of
    `size` elements is wider than they are."""
    if size > _BLOCK_ELEMS:
        return np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    ws = getattr(_local, "ws", None)
    if ws is None or ws[0].size != _BLOCK_ELEMS:
        ws = _local.ws = (np.empty(_BLOCK_ELEMS, dtype=complex),
                          np.empty(_BLOCK_ELEMS, dtype=complex))
    return ws


def _twisted_sum(f: SampledField, g: SampledField, theta: np.ndarray, wrap: bool) -> np.ndarray:
    """d^n sum_y f(x - y) g(y) exp(-(i/2) x.theta y) on the whole grid,
    by the factorisations in the module docstring."""
    grid = f.grid
    N, n = grid.N, grid.n
    m = N ** (n - 1)                       # number of leading points x' (and y')
    plan = _plan(n, N, grid.L, theta.tobytes(), wrap)
    P, half = plan.P, N // 2
    chirp_conj = plan.chirp.conj()
    fvals, gvals = f.values.reshape(m, N), g.values.reshape(m, N)
    # f-rows by leading index, rotated by N/2 so that the lag x_n - y_n + N/2
    # of f sits at index x_n - y_n mod P and output x_n is entry x_n.
    # Zero-padded, row m is the zero row for out-of-box x' - y' and the
    # pre-chirped g rows follow it.
    if wrap:
        rows = np.empty((m, P), dtype=complex)
    else:
        rows = np.zeros((2 * m + 1, P), dtype=complex)
        fvals = fvals * plan.chirp
        np.multiply(gvals, chirp_conj, out=rows[m + 1:, :N])
    rows[:m, :half] = fvals[:, half:]
    rows[:m, P - half:] = fvals[:, :half]
    np.fft.fft(rows, axis=-1, out=rows)
    fhat, ghat = rows[:m + 1], rows[m + 1:]
    out = np.empty((m, 1, N), dtype=complex)
    per = max(1, _BLOCK_ELEMS // (m * P))  # x' rows per block
    work, taken = _workspaces(per * m * P)
    for start in range(0, m, per):
        b = slice(start, min(start + per, m))
        size = (b.stop - start) * m * P
        diff = plan.lead[b, None, :] - plan.lead[None, :, :] + half
        if wrap:
            frow = np.mod(diff, N) @ plan.strides
        else:
            inside = np.all((diff >= 0) & (diff < N), axis=-1)
            frow = np.where(inside, diff @ plan.strides, m)
        # every index is in range; mode="clip" takes straight into the
        # workspace, where the default mode would buffer a copy of the block
        conv = work[:size].reshape(-1, m, P)
        if wrap:
            np.multiply(gvals, chirp_conj[b, None, :], out=conv)
            np.fft.fft(conv, axis=-1, out=conv)
            conv *= np.take(fhat, frow, axis=0, mode="clip", out=taken[:size].reshape(-1, m, P))
        else:
            np.take(fhat, frow, axis=0, mode="clip", out=conv)
            conv *= ghat
        np.fft.ifft(conv, axis=-1, out=conv)
        conv *= plan.out_phase
        conv = conv[..., :N]                              # (x', y', x_n)
        lead_phase = np.exp(-0.5j * (plan.xp[b] @ plan.lead_form))
        np.matmul(lead_phase[:, None, :], conv, out=out[b])
    out = out.reshape(m, N)
    if not wrap:
        out *= chirp_conj
    out *= grid.spacing**n
    return out.reshape((N,) * n)


def twisted_convolution(
    f: SampledField,
    g: SampledField,
    theta,
    wrap: bool = False,
) -> SampledField:
    """Grid quadrature of f*g(x) = integral f(x-y) g(y) exp(-(i/2) x.theta y) dy.

    Out-of-box arguments of f are treated as zero by default (Schwartz
    surrogate picture); `wrap=True` switches to periodic indexing.
    """
    if not f.grid.compatible(g.grid):
        raise ValueError("grids differ")
    th = _theta_matrix(theta, f.grid.n)
    return SampledField(f.grid, _twisted_sum(f, g, th, wrap))


def twisted_convolution_product(
    u: SampledField,
    v: SampledField,
    theta,
) -> SampledField:
    """Frequency-side twisted quadrature, normalized so the zero
    coupling gives exactly the pointwise product u v.

    The frequency integral uses periodic wrap (the transform of a
    sampled field is periodic by construction), and the quadrature
    absorbs (2pi)^{-n/2}.
    """
    if not u.grid.compatible(v.grid):
        raise ValueError("grids differ")
    n = u.grid.n
    th = _theta_matrix(theta, n)
    uhat = fourier_forward(u)
    vhat = fourier_forward(v)
    w = _twisted_sum(uhat, vhat, th, True)
    w = w * (2.0 * np.pi) ** (-n / 2.0)
    return fourier_inverse(SampledField(uhat.grid, w))


def star_via_product(
    f: SampledField,
    g: SampledField,
    theta,
) -> SampledField:
    """The twisted convolution computed through the product route:
    transform both factors back, multiply with the twisted product, and
    transform forward, times the route constant c(n) = (2 pi)^{n/2}."""
    if not f.grid.compatible(g.grid):
        raise ValueError("grids differ")
    n = f.grid.n
    fb = fourier_inverse(f)
    gb = fourier_inverse(g)
    prod = twisted_convolution_product(fb, gb, theta)
    out = fourier_forward(prod)
    return SampledField(out.grid, out.values * (2.0 * np.pi) ** (n / 2.0))


def _interior_mask(grid: Grid) -> np.ndarray:
    half = grid.L / 2.0
    ax = np.abs(grid.axis()) <= half
    mask = np.ones((grid.N,) * grid.n, dtype=bool)
    for a in range(grid.n):
        shape = [1] * grid.n
        shape[a] = grid.N
        mask &= ax.reshape(shape)
    return mask


def associativity_defect(
    f: SampledField,
    g: SampledField,
    h: SampledField,
    theta,
    product: str = "star",
) -> float:
    """Relative L2 gap between the two associations on the interior
    half-box (the outer region carries truncation error, not algebra)."""
    if product == "star":
        op = twisted_convolution
    elif product == "product":
        op = twisted_convolution_product
    else:
        raise ValueError("product must be 'star' or 'product'")
    left = op(op(f, g, theta), h, theta)
    right = op(f, op(g, h, theta), theta)
    mask = _interior_mask(f.grid)
    diff = np.sqrt(np.sum(np.abs(left.values - right.values)[mask] ** 2))
    ref = max(
        np.sqrt(np.sum(np.abs(left.values)[mask] ** 2)),
        np.sqrt(np.sum(np.abs(right.values)[mask] ** 2)),
        1e-300,
    )
    return float(diff / ref)
