"""Twisted convolution and the twisted frequency-side product.

Both evaluate the same finite twisted sum

    out(x) = d^n sum_y f(x - y) g(y) exp(-(i/2) x.theta y)

over the grid, with out-of-box arguments of f zero-padded or periodic.
The bilinear chirp factorises one axis at a time: writing x = (x', x_n),
y = (y', y_n) and c = theta[:-1, -1],

    x.theta y = x'.theta' y' + (x'.c) y_n - x_n (c.y').

For each pair (x', y') the sum over y_n is then a 1-D convolution of the
f-row at x' - y' with g(y', .) exp(-(i/2)(x'.c) y_n), done by FFT, and
one contraction over y' against exp(-(i/2) x'.theta'y')
exp(+(i/2) x_n c.y') gives the output.  The cost is O(N^{2n-1} log N)
in place of the O(N^{2n}) direct sum: N^3 log N at n=2, and at n=1
(theta = 0) a plain FFT convolution.  The zero-padded sum uses FFTs of
length 2N, the periodic one circular FFTs of length N.  The direct sum
survives only as the oracle in `suites`.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid, SampledField
from .matrices import AntisymmetricMatrix
from .spectral import fourier_forward, fourier_inverse

# complex elements in each transient array of one block of x' rows (4 MiB)
_BLOCK_ELEMS = 1 << 18


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


def _twisted_sum(f: SampledField, g: SampledField, theta: np.ndarray, wrap: bool) -> np.ndarray:
    """d^n sum_y f(x - y) g(y) exp(-(i/2) x.theta y) on the whole grid,
    by the last-axis factorisation in the module docstring."""
    grid = f.grid
    N, n = grid.N, grid.n
    m = N ** (n - 1)                       # number of leading points x' (and y')
    P = N if wrap else 2 * N               # circular, or zero-padded linear
    ax = grid.axis()
    lead = np.indices((N,) * (n - 1)).reshape(n - 1, m).T
    xp = ax[lead]                          # (m, n-1) leading coordinates
    c = theta[:-1, -1]
    xc = xp @ c                            # x'.c, also c.y' on the y' side
    out_phase = np.exp(0.5j * np.outer(xc, ax))          # (y', x_n)
    strides = N ** np.arange(n - 2, -1, -1)
    # f-rows by leading index, row m being the zero row for out-of-box
    # x' - y'.  Each row is rotated by N/2 so that the lag x_n - y_n + N/2
    # of f sits at index x_n - y_n mod P, and output x_n is entry x_n.
    frows = np.zeros((m + 1, P), dtype=complex)
    frows[:m, :N] = f.values.reshape(m, N)
    fhat = np.fft.fft(np.roll(frows, -(N // 2), axis=-1), axis=-1)
    gvals = g.values.reshape(m, N)
    out = np.empty((m, N), dtype=complex)
    rows = max(1, _BLOCK_ELEMS // (m * P))
    for start in range(0, m, rows):
        b = slice(start, min(start + rows, m))
        diff = lead[b, None, :] - lead[None, :, :] + N // 2
        if wrap:
            frow = np.mod(diff, N) @ strides
        else:
            inside = np.all((diff >= 0) & (diff < N), axis=-1)
            frow = np.where(inside, diff @ strides, m)
        mod = np.exp(-0.5j * np.outer(xc[b], ax))         # (x', y_n)
        conv = np.fft.fft(gvals[None, :, :] * mod[:, None, :], P, axis=-1)
        conv *= fhat[frow]
        conv = np.fft.ifft(conv, axis=-1)[..., :N]        # (x', y', x_n)
        lead_phase = np.exp(-0.5j * (xp[b] @ theta[:-1, :-1] @ xp.T))
        out[b] = np.einsum("aj,jt,ajt->at", lead_phase, out_phase, conv)
    return (out * grid.spacing**n).reshape((N,) * n)


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
