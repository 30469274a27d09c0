import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistlab.catalog import Delta, GaussianPacket, PlaneWave, sample_analytic
from twistlab.grids import SampledField, field_l2_distance, make_grid
from twistlab.spectral import (
    WindowFunction,
    fourier_forward,
    fourier_inverse,
    gaussian_window,
    hann_window,
    parseval_constant,
    stft,
    stft_magnitude,
)
from twistlab.suites import _oracle_stft


@pytest.fixture
def grid128():
    return make_grid(1, 128, 12.0)


def _rand_field(grid, rng):
    shape = (grid.N,) * grid.n
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SampledField(grid, v)


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


@given(st.sampled_from((1, 2)), st.sampled_from(tuple(range(4, 17, 2))),
       st.sampled_from(("gaussian", "hann", "random")), st.integers(0, 2**31 - 1))
def test_stft_matches_loop_oracle(n, big_n, kind, seed):
    # the batched transform does the loop's floating-point operations in
    # the same order, so the bytes agree, not just the values
    rng = np.random.default_rng(seed)
    g = make_grid(n, big_n, float(rng.uniform(1.0, 8.0)))
    u = _rand_field(g, rng)
    if kind == "gaussian":
        win = gaussian_window(g)
    elif kind == "hann":
        win = hann_window(g, float(rng.uniform(0.5, 4.0)))
    else:
        win = WindowFunction(g, _rand_field(g, rng).values)
    want = _oracle_stft(u, win)
    assert stft(u, win).values.tobytes() == want.tobytes()
    assert stft_magnitude(u, win).values.tobytes() == np.abs(want).tobytes()
    # within a finite reach, |V| is computed at every position with
    # |x| <= reach + sqrt(n) spacing of a box covering [-reach - spacing,
    # reach + spacing] on each axis, and equals the full lattice's there
    reach = float(rng.uniform(0.0, g.L))
    mag = stft_magnitude(u, win, reach)
    box = []
    for axis, lattice in zip(mag.axes, stft(u, win).axes):
        lo = int(np.searchsorted(lattice, axis[0]))
        np.testing.assert_array_equal(axis, lattice[lo:lo + axis.size])
        assert axis[0] <= max(-reach - lattice[1] + lattice[0], lattice[0])
        assert axis[-1] >= min(reach + lattice[1] - lattice[0], lattice[-1])
        box.append(slice(lo, lo + axis.size))
    pos = np.meshgrid(*mag.axes[:n], indexing="ij")
    computed = np.sqrt(sum(p**2 for p in pos)) <= reach + np.sqrt(n) * g.spacing
    expect = np.abs(want[tuple(box)])
    assert mag.values[computed].tobytes() == expect[computed].tobytes()
    assert not np.any(mag.values[~computed])
