import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistlab import products
from twistlab.catalog import GaussianPacket, sample_analytic
from twistlab.grids import SampledField, field_l2_distance, make_grid
from twistlab.products import (
    pointwise_product,
    star_via_product,
    twisted_convolution,
    twisted_convolution_product,
)
from twistlab.spectral import fourier_forward, fourier_inverse
from twistlab.suites import _oracle_convolution

J = [[0.0, 1.0], [-1.0, 0.0]]
NEG_J = [[0.0, -1.0], [1.0, 0.0]]


def _rand_field(grid, rng, decay=0.4):
    shape = (grid.N,) * grid.n
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pts_sq = (grid.points() ** 2).sum(-1).reshape(shape)
    return SampledField(grid, v * np.exp(-decay * pts_sq))


def test_theta_validation(grid2d, rng):
    f = _rand_field(grid2d, rng)
    with pytest.raises(ValueError, match="antisymmetric"):
        twisted_convolution(f, f, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="antisymmetric"):
        twisted_convolution_product(f, f, [[1.0]])
    # off by 1e-6: within np.allclose's default rtol, still not antisymmetric
    with pytest.raises(ValueError, match="antisymmetric 2x2"):
        twisted_convolution(f, f, [[0.0, 1.0], [-1.000001, 0.0]])


def test_grid_mismatch(grid2d, rng):
    f = _rand_field(grid2d, rng)
    g = _rand_field(make_grid(2, 16, 4.0), rng)
    with pytest.raises(ValueError):
        twisted_convolution(f, g, J)


def test_bilinearity(grid2d, rng):
    f, g, h = (_rand_field(grid2d, rng) for _ in range(3))
    a, b = 1.7, -0.3 + 2.1j
    lhs = twisted_convolution(
        SampledField(grid2d, a * f.values + b * g.values), h, J)
    rhs = a * twisted_convolution(f, h, J).values + b * twisted_convolution(g, h, J).values
    assert np.linalg.norm(lhs.values - rhs) / np.linalg.norm(rhs) < 1e-12


def test_conjugation_flips_coupling(grid2d, rng):
    # conj(f star_theta g) = conj(f) star_{-theta} conj(g), exactly,
    # term by term in the quadrature
    f, g = _rand_field(grid2d, rng), _rand_field(grid2d, rng)
    lhs = np.conj(twisted_convolution(f, g, J).values)
    rhs = twisted_convolution(
        SampledField(grid2d, np.conj(f.values)),
        SampledField(grid2d, np.conj(g.values)), NEG_J).values
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-13


def test_swap_flips_coupling(grid2d, rng):
    # g star_theta f = f star_{-theta} g under the zero-padded quadrature
    f, g = _rand_field(grid2d, rng), _rand_field(grid2d, rng)
    lhs = twisted_convolution(g, f, J)
    rhs = twisted_convolution(f, g, NEG_J)
    assert field_l2_distance(lhs, rhs) < 1e-12


def test_zero_coupling_is_plain_convolution(grid64, rng):
    # cross-check against numpy's convolution on the same truncation
    f, g = _rand_field(grid64, rng), _rand_field(grid64, rng)
    got = twisted_convolution(f, g, [[0.0]])
    full = np.convolve(f.values, g.values)  # length 127
    # node x_k corresponds to lag index k + N/2 of the full convolution
    expected = full[grid64.N // 2: grid64.N // 2 + grid64.N] * grid64.spacing
    # zero-padded quadrature keeps exactly the in-box part
    assert np.linalg.norm(got.values - expected) / np.linalg.norm(expected) < 1e-12


def test_pointwise_product_matches_values(grid2d, rng):
    f, g = _rand_field(grid2d, rng), _rand_field(grid2d, rng)
    h = pointwise_product(f, g)
    np.testing.assert_allclose(h.values, f.values * g.values, rtol=1e-14)


def test_product_at_zero_coupling_is_pointwise(grid64):
    u = sample_analytic(GaussianPacket(0.0, 1.0), grid64)
    v = sample_analytic(GaussianPacket(0.5, 1.5), grid64)
    w = twisted_convolution_product(u, v, [[0.0]])
    assert field_l2_distance(w, pointwise_product(u, v)) < 1e-10


def test_star_route_matches_direct():
    g = make_grid(2, 32, 8.0)
    u = sample_analytic(GaussianPacket((0.0, 0.0), 1.0), g)
    v = sample_analytic(GaussianPacket((0.5, -0.5), 1.2), g)
    direct = twisted_convolution(u, v, J)
    routed = star_via_product(u, v, J)
    assert field_l2_distance(routed, direct) < 1e-6


@pytest.mark.parametrize("n, theta", [(1, [[0.0]]), (2, J)])
def test_star_route_constant_is_closed_form(n, theta):
    # the route constant c(n) = (2 pi)^{n/2} is one final multiply
    g = make_grid(n, 32 if n == 2 else 64, 8.0)
    u = sample_analytic(GaussianPacket((0.3,) * n, 1.0, (0.4,) * n), g)
    v = sample_analytic(GaussianPacket((-0.2,) * n, 0.9), g)
    raw = fourier_forward(twisted_convolution_product(fourier_inverse(u), fourier_inverse(v), theta))
    want = raw.values * (2.0 * np.pi) ** (0.5 * n)
    assert star_via_product(u, v, theta).values.tobytes() == want.tobytes()


def test_wrap_and_pad_agree_for_interior_mass(grid64, rng):
    # fast-decaying inputs leave nothing to wrap
    f = _rand_field(grid64, rng, decay=1.5)
    g = _rand_field(grid64, rng, decay=1.5)
    a = twisted_convolution(f, g, [[0.0]], wrap=False)
    b = twisted_convolution(f, g, [[0.0]], wrap=True)
    assert field_l2_distance(a, b) < 1e-10


@given(st.integers(0, 2**31 - 1))
def test_product_deterministic(seed):
    g = make_grid(1, 16, 4.0)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    f = SampledField(g, v * np.exp(-0.5 * g.axis() ** 2))
    a = twisted_convolution_product(f, f, [[0.0]])
    b = twisted_convolution_product(f, f, [[0.0]])
    np.testing.assert_array_equal(a.values, b.values)


def _random_case(n, big_n, seed):
    rng = np.random.default_rng(seed)
    grid = make_grid(n, big_n, float(rng.uniform(1.0, 6.0)))
    upper = np.triu(rng.uniform(-2.0, 2.0, (n, n)), 1)
    shape = (big_n,) * n
    f, g = (SampledField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(2))
    return f, g, upper - upper.T


@given(st.sampled_from((1, 2, 3)), st.sampled_from((4, 6, 8, 10)), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_kernel_matches_oracle(n, big_n, wrap, seed):
    # fields without decay, so both boundary modes matter; the error at
    # every grid point is measured against the oracle's peak magnitude
    f, g, theta = _random_case(n, big_n, seed)
    got = twisted_convolution(f, g, theta, wrap=wrap).values.reshape(-1)
    want = _oracle_convolution(f, g, theta, np.arange(f.grid.M), wrap=wrap)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("wrap", [False, True])
def test_kernel_independent_of_block_size(monkeypatch, wrap):
    f, g, theta = _random_case(3, 8, 7)
    whole = twisted_convolution(f, g, theta, wrap=wrap).values
    # three x' rows per block zero-padded (P = 12), five periodic (the last block short)
    monkeypatch.setattr(products, "_BLOCK_ELEMS", 3000)
    split = twisted_convolution(f, g, theta, wrap=wrap).values
    np.testing.assert_allclose(split, whole, rtol=0.0, atol=1e-14 * np.abs(whole).max())


@pytest.mark.parametrize("big_n", [22, 26, 34])
@pytest.mark.parametrize("wrap", [False, True])
def test_kernel_matches_oracle_at_awkward_lengths(big_n, wrap):
    # zero-padded lengths P = 35, 40 and 54 (least 7-smooth >= 3N/2), and
    # periodic lengths N with the primes 11, 13 and 17
    f, g, theta = _random_case(2, big_n, big_n)
    got = twisted_convolution(f, g, theta, wrap=wrap).values.reshape(-1)
    want = _oracle_convolution(f, g, theta, np.arange(f.grid.M), wrap=wrap)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n, wrap", [(1, False), (1, True), (2, False), (2, True),
                                     (3, False), (3, True)])
def test_kernel_transforms(monkeypatch, n, wrap):
    # zero-padded: one forward FFT per f row, per g row and the zero row,
    # 2m + 1 in all; periodic: one per f row and one per (x', y') pair.
    # Both invert once per pair.
    f, g, theta = _random_case(n, 6, 11)
    m = 6 ** (n - 1)
    rows = {"fft": 0, "ifft": 0}
    for name in rows:
        def counted(a, *args, _real=getattr(np.fft, name), _name=name, **kwargs):
            rows[_name] += np.size(a) // np.shape(a)[-1]
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    twisted_convolution(f, g, theta, wrap=wrap)
    assert rows == {"fft": m + m * m if wrap else 2 * m + 1, "ifft": m * m}


@pytest.mark.parametrize("big_n, wrap", [(36, False), (38, True)])
def test_repeat_call_allocates_no_block(big_n, wrap):
    # the plan and this thread's workspaces are built by the first call;
    # a repeat call allocates per-call rows and small per-block maps, never
    # a block (1 MiB here)
    f, g, theta = _random_case(2, big_n, 5)
    twisted_convolution(f, g, theta, wrap=wrap)
    tracemalloc.start()
    try:
        twisted_convolution(f, g, theta, wrap=wrap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_threads_share_no_workspace():
    # each thread blocks in its own workspaces: products of different sizes
    # and modes, run at once from more threads than cores, give the bytes
    # of serial runs
    cases = [(_random_case(2, 36, 1), {}), (_random_case(2, 38, 2), {"wrap": True}),
             (_random_case(3, 10, 3), {}), (_random_case(2, 30, 4), {"wrap": True})]

    def run(case):
        (f, g, theta), kw = case
        return twisted_convolution(f, g, theta, **kw).values.tobytes()

    serial = [run(c) for c in cases]
    got = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def worker(i):
        start.wait()
        for _ in range(10):
            got[i].append(run(cases[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[s] * 10 for s in serial]


@pytest.mark.parametrize("wrap", [False, True])
def test_block_wider_than_workspace(monkeypatch, wrap):
    # one x' row (m P = 36 * 54 zero-padded, 36 * 36 periodic) is wider than
    # the patched workspace, so every block gets a buffer of its own
    f, g, theta = _random_case(2, 36, 9)
    whole = twisted_convolution(f, g, theta, wrap=wrap).values
    monkeypatch.setattr(products, "_BLOCK_ELEMS", 1000)
    split = twisted_convolution(f, g, theta, wrap=wrap).values
    np.testing.assert_allclose(split, whole, rtol=0.0, atol=1e-14 * np.abs(whole).max())
