import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twistlab.catalog import Delta, GaussianPacket, PlaneWave, sample_analytic
from twistlab.grids import SampledField, field_l2_distance, make_grid
from twistlab.spectral import (
    WindowFunction,
    _outer,
    fourier_forward,
    fourier_inverse,
    gaussian_window,
    hann_window,
    parseval_constant,
    stft,
    stft_magnitude,
)
from twistlab.suites import _oracle_stft
from twistlab.wavefront import WavefrontParams, _radius_band, _stencil, direction_grid


@pytest.fixture
def grid128():
    return make_grid(1, 128, 12.0)


def _rand_field(grid, rng):
    shape = (grid.N,) * grid.n
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SampledField(grid, v)


def _in_reach_set(mag, reach):
    """The set B of `_stft_rows` on the axes of `mag`: the cells whose
    max(|c_a| - spacing_a, 0)^2, summed in the order x_1, xi_1, ..., x_n
    (all axes but the last frequency one), stay within reach^2."""
    n = mag.base_grid.n
    spacings = (mag.base_grid.spacing,) * n + (mag.freq_grid.spacing,) * n
    total = 0.0
    for a in [a for k in range(n) for a in (k, n + k)][:-1]:
        shape = [1] * (2 * n)
        shape[a] = -1
        total = total + (np.maximum(np.abs(mag.axes[a]) - spacings[a], 0.0) ** 2).reshape(shape)
    return np.broadcast_to(total <= reach * reach, mag.values.shape)


def test_unitarity(grid64, rng):
    f = _rand_field(grid64, rng)
    fhat = fourier_forward(f)
    assert fhat.norm() == pytest.approx(f.norm(), rel=1e-12)
    back = fourier_inverse(fhat)
    assert field_l2_distance(f, back) < 1e-12


def test_forward_twice_is_reflection(grid64, rng):
    # F(F f)(x) = f(-x); on the half-open grid the -L node is fixed
    f = _rand_field(grid64, rng)
    ff = fourier_forward(fourier_forward(f))
    refl = np.roll(f.values[::-1], 1)
    assert np.linalg.norm(ff.values - refl) / np.linalg.norm(f.values) < 1e-10


def test_gaussian_maps_to_gaussian(grid128):
    # exp(-x^2/2) is a fixed point of the unitary transform; the image
    # lives on the dual grid
    f = sample_analytic(GaussianPacket(), grid128)
    fhat = fourier_forward(f)
    xi = fhat.grid.axis()
    np.testing.assert_allclose(fhat.values, np.exp(-0.5 * xi * xi), atol=1e-10)


def test_unitarity_2d(grid2d, rng):
    f = _rand_field(grid2d, rng)
    assert fourier_forward(f).norm() == pytest.approx(f.norm(), rel=1e-12)
    assert field_l2_distance(f, fourier_inverse(fourier_forward(f))) < 1e-12


def test_window_normalization(grid128):
    w = gaussian_window(grid128)
    # unit L2 mass: ||psi||^2 = sum |psi|^2 * spacing = 1
    assert np.sum(np.abs(w.values) ** 2) * grid128.spacing == pytest.approx(1.0, rel=1e-10)
    # peak value pi^{-1/4} for the standard gaussian
    assert np.max(np.abs(w.values)) == pytest.approx(np.pi ** -0.25, rel=1e-10)
    h = hann_window(grid128, half_width=2.5)
    # cos^2 bump: peak one at the origin, compactly supported
    assert h.values[grid128.N // 2] == 1.0
    x = grid128.axis()
    assert np.all(h.values[np.abs(x) >= 2.5] == 0.0)
    with pytest.raises(ValueError):
        hann_window(grid128, half_width=0.0)


@pytest.mark.parametrize("n, big_n", [(1, 64), (2, 16), (3, 8)])
def test_product_windows_carry_their_factors(n, big_n):
    g = make_grid(n, big_n, 5.0)
    ax = g.axis()
    gauss, hann = gaussian_window(g), hann_window(g, 1.5)
    for win in (gauss, hann):
        assert len(win.factors) == n
        np.testing.assert_array_equal(win.values, _outer(win.factors))
    # Hann's values are the parent's bytes at every n, the Gaussian's at n=1
    old = np.ones((big_n,) * n)
    for a in range(n):
        prof = np.where(np.abs(ax) < 1.5, np.cos(np.pi * ax / 3.0) ** 2, 0.0)
        old = old * prof.reshape((-1,) + (1,) * (n - 1 - a))
    assert hann.values.tobytes() == old.astype(complex).tobytes()
    if n == 1:
        want = np.pi ** (-1 / 4.0) * np.exp(-0.5 * (np.zeros(big_n) + ax**2))
        assert gauss.values.tobytes() == want.astype(complex).tobytes()


def test_stft_arrays_built_once_read_only(grid2d, rng):
    u = _rand_field(grid2d, rng)
    for win in (gaussian_window(grid2d), WindowFunction(grid2d, hann_window(grid2d).values)):
        stft_magnitude(u, win, 2.0)
        signs, tables = win._stft_arrays
        stft(u, win)
        assert win._stft_arrays[0] is signs and win._stft_arrays[1] is tables
        assert len(tables) == (1 if win.factors is None else 2)
        for arr in (signs, *tables):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0
    for f in gaussian_window(grid2d).factors:
        with pytest.raises(ValueError, match="read-only"):
            f[0] = 0.0


@pytest.mark.parametrize("factors, match", [
    ([np.ones(16)], r"factors: expected 2 per-axis profiles, got 1"),
    ([np.ones(16)] * 3, r"factors: expected 2 per-axis profiles, got 3"),
    ([np.ones(16), np.ones(15)], r"factors\[1\]: expected shape \(16,\)"),
    ([np.ones((16, 1)), np.ones(16)], r"factors\[0\]: expected shape \(16,\)"),
    ([np.ones(16), np.r_[np.nan, np.ones(15)]], r"factors\[1\]: entries must be finite"),
    ([np.r_[np.ones(15), np.inf], np.ones(16)], r"factors\[0\]: entries must be finite"),
    ([np.zeros(16), np.ones(16)], r"factors\[0\]: must not vanish identically"),
    ([np.ones(16), 2.0 * np.ones(16)], r"values must equal the outer product of factors"),
])
def test_window_factors_rejected(grid2d, factors, match):
    with pytest.raises(ValueError, match=match):
        WindowFunction(grid2d, np.ones((16, 16)), factors)


@pytest.mark.parametrize("half_width", [np.inf, -np.inf, np.nan])
def test_hann_rejects_non_finite_half_width(grid128, half_width):
    with pytest.raises(ValueError, match="half_width must be finite and positive"):
        hann_window(grid128, half_width)


def test_stft_point_values(grid128):
    # closed forms for V(0, 0) with the unit gaussian window
    c = (2.0 * np.pi) ** -0.5 * np.pi ** -0.25
    mid = grid128.N // 2
    u = sample_analytic(Delta(0.0), grid128)
    v = stft(u, gaussian_window(grid128))
    assert abs(v.values[mid, mid]) == pytest.approx(c, rel=1e-10)

    const = sample_analytic(PlaneWave(0.0), grid128)
    vc = stft(const, gaussian_window(grid128))
    assert abs(vc.values[mid, mid]) == pytest.approx(np.pi ** -0.25, rel=1e-8)

    g = sample_analytic(GaussianPacket(), grid128)
    vg = stft(g, gaussian_window(grid128))
    assert abs(vg.values[mid, mid]) == pytest.approx(c * np.sqrt(np.pi), rel=1e-8)


def test_stft_shift_covariance(grid128):
    # translating the input translates the spectrogram in position
    u = sample_analytic(GaussianPacket(0.0), grid128)
    sh = sample_analytic(GaussianPacket(1.5), grid128)
    a, b = stft(u, gaussian_window(grid128)), stft(sh, gaussian_window(grid128))
    shift_nodes = int(round(1.5 / grid128.spacing))
    moved = np.roll(np.abs(a.values), shift_nodes, axis=0)
    # compare away from the wrapped band
    err = np.abs(np.abs(b.values)[shift_nodes:] - moved[shift_nodes:]).max()
    assert err < 1e-8


def test_stft_modulation_covariance(grid128):
    # modulating by exp(i b x) translates the spectrogram in frequency
    u = sample_analytic(GaussianPacket(), grid128)
    mod = 8.0 * grid128.dual().spacing  # exactly eight dual nodes
    m = sample_analytic(GaussianPacket(0.0, 1.0, mod), grid128)
    a, b = stft(u, gaussian_window(grid128)), stft(m, gaussian_window(grid128))
    shift_nodes = 8
    moved = np.roll(np.abs(a.values), shift_nodes, axis=1)
    err = np.abs(np.abs(b.values)[:, shift_nodes:] - moved[:, shift_nodes:]).max()
    assert err < 1e-8


def test_parseval_constant(grid64):
    from twistlab.catalog import GaussianPacket

    f = sample_analytic(GaussianPacket(), grid64)
    v = stft(f, gaussian_window(grid64))
    lhs = grid64.spacing ** 2 * np.sum(np.abs(v.values) ** 2)
    rhs = parseval_constant(grid64) * f.norm() ** 2
    assert lhs == pytest.approx(rhs, rel=1e-6)


@given(st.sampled_from((1, 2)), st.sampled_from(tuple(range(4, 17, 2)) + (34,)),
       st.sampled_from(("gaussian", "hann", "random", "gaussian-factors", "hann-factors",
                        "random-factors")),
       st.integers(0, 2**31 - 1))
@example(2, 34, "gaussian-factors", 0)
@example(2, 34, "hann-factors", 0)
@example(2, 8, "random-factors", 0)
def test_stft_matches_loop_oracle(n, big_n, kind, seed):
    # a window of values alone takes the general route, which does the
    # loop's floating-point operations in the same order, so the bytes
    # agree, not just the values; a window with factors is transformed
    # one axis at a time, the same operations at n=1 and within 1e-13
    # of max |V| at n=2 (N=34: an FFT length with the prime factor 17)
    rng = np.random.default_rng(seed)
    g = make_grid(n, big_n, float(rng.uniform(1.0, 8.0)))
    u = _rand_field(g, rng)
    if kind.startswith("gaussian"):
        win = gaussian_window(g)
    elif kind.startswith("hann"):
        win = hann_window(g, float(rng.uniform(0.5, 4.0)))
    elif kind == "random":
        win = WindowFunction(g, _rand_field(g, rng).values)
    else:   # a different complex profile on each axis
        factors = [_rand_field(make_grid(1, big_n, g.L), rng).values for _ in range(n)]
        win = WindowFunction(g, _outer(factors), factors)
    if not kind.endswith("factors"):
        win = WindowFunction(g, win.values)
    want = _oracle_stft(u, win)
    lattice_stft = stft(u, win)
    full = lattice_stft.values
    if win.factors is None or n == 1:
        assert full.tobytes() == want.tobytes()
    else:
        assert np.abs(full - want).max() <= 1e-13 * np.abs(want).max()
    assert stft_magnitude(u, win).values.tobytes() == np.abs(full).tobytes()
    # within a finite reach, |V| is computed on the set B of a box
    # covering [-reach - spacing, reach + spacing] on each axis, and
    # equals the full lattice's there
    reach = float(rng.uniform(0.0, g.L))
    mag = stft_magnitude(u, win, reach)
    box = []
    for axis, lattice in zip(mag.axes, lattice_stft.axes):
        lo = int(np.searchsorted(lattice, axis[0]))
        np.testing.assert_array_equal(axis, lattice[lo:lo + axis.size])
        assert axis[0] <= max(-reach - lattice[1] + lattice[0], lattice[0])
        assert axis[-1] >= min(reach + lattice[1] - lattice[0], lattice[-1])
        box.append(slice(lo, lo + axis.size))
    computed = _in_reach_set(mag, reach)
    expect = np.abs(full[tuple(box)])
    assert mag.values[computed].tobytes() == expect[computed].tobytes()
    assert not np.any(mag.values[~computed])


@pytest.mark.parametrize("n, sizes", [(1, (32, 64, 128, 130)), (2, (12, 20, 28, 34, 42))])
def test_ray_stencil_reads_only_the_reach_set(n, sizes):
    # every corner that multilinear interpolation weights at a point of
    # norm <= r_max (the estimator's ray samples and random points of the
    # ball) lies in the set B that stft_magnitude computes for the reach
    # estimate_wf asks for
    rng = np.random.default_rng(26)
    params = WavefrontParams()
    for big_n, win_of in itertools.product(sizes, (gaussian_window, hann_window)):
        g = make_grid(n, big_n, 7.0)
        win = win_of(g)
        r_min, r_max = _radius_band(g, win.sigma_x, win.sigma_xi, params)
        reach = r_max * (1.0 + 1e-9)
        mag = stft_magnitude(_rand_field(g, rng), win, reach)
        inside = _in_reach_set(mag, reach)
        assert n == 1 or not inside.all()
        dirs = direction_grid(2 * n).directions
        ball = rng.standard_normal((4000, 2 * n))
        ball *= (r_max * rng.uniform(0.0, 1.0, (4000, 1)) ** (1.0 / (2 * n))
                 / np.linalg.norm(ball, axis=1, keepdims=True))
        radii = np.geomspace(r_min, r_max, params.radii)
        pts = np.concatenate([(radii[None, :, None] * dirs[:, None, :]).reshape(-1, 2 * n), ball])
        st = _stencil(mag.axes, pts)
        assert st.outside.size == 0
        for off, corner in zip(st.offsets, itertools.product((0, 1), repeat=2 * n)):
            weight = np.prod([y if c else 1 - y for y, c in zip(st.y, corner)], axis=0)
            assert inside.ravel()[st.base[weight != 0] + off].all(), (big_n, win_of, corner)
