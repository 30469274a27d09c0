import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twistlab import spectral
from twistlab.catalog import Delta, GaussianPacket, PlaneWave, sample_analytic
from twistlab.grids import SampledField, field_l2_distance, make_grid
from twistlab.spectral import (
    WindowFunction,
    _lattice_plan,
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
from twistlab.wavefront import WavefrontParams, _geometry_of


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
        stft_magnitude(u, win, _lattice_plan(grid2d))
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
    with pytest.raises(ValueError, match="^half_width: expected a positive finite number, got "):
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
    full = stft(u, win).values
    if win.factors is None or n == 1:
        assert full.tobytes() == want.tobytes()
    else:
        assert np.abs(full - want).max() <= 1e-13 * np.abs(want).max()
    assert stft_magnitude(u, win, _lattice_plan(g)).values.tobytes() == np.abs(full).tobytes()


@pytest.mark.parametrize("n, sizes", [(1, (32, 64, 128, 130)), (2, (12, 20, 28, 34))])
def test_magnitude_fills_exactly_the_stencil_rows(n, sizes):
    # the magnitude estimate_wf reads holds one line per box row (all axes
    # but the last frequency one) that some corner of a ray sample's cell
    # lies in, in row order, each with the full lattice's bytes there; the
    # window without factors takes the general route at n=2
    rng = np.random.default_rng(26)
    windows = (gaussian_window, hann_window, lambda g: WindowFunction(g, hann_window(g).values))
    for big_n, win_of in itertools.product(sizes, windows):
        g = make_grid(n, big_n, 7.0)
        u, win = _rand_field(g, rng), win_of(g)
        geo = _geometry_of(g, win.sigma_x, win.sigma_xi, WavefrontParams())
        plan = geo.plan
        axes = (g.axis()[plan.xs],) * n + (g.dual().axis()[plan.fs],) * n
        pts = (geo.r[None, :, None] * geo.directions.directions[:, None, :]).reshape(-1, 2 * n)
        assert all(np.all((ax[0] <= x) & (x <= ax[-1])) for ax, x in zip(axes, pts.T))
        cells = [np.clip(np.searchsorted(ax, x, "right") - 1, 0, len(ax) - 2)
                 for ax, x in zip(axes, pts.T)]
        box = tuple(len(ax) for ax in axes)
        read = np.unique(np.concatenate([
            np.ravel_multi_index([c + k for c, k in zip(cells, corner)], box[:-1])
            for corner in itertools.product((0, 1), repeat=2 * n - 1)]))
        assert np.array_equal(plan.rows, read)
        lines = stft_magnitude(u, win, plan).values
        assert lines.shape == (len(read), box[-1])
        full = np.abs(stft(u, win).values)[(plan.xs,) * n + (plan.fs,) * n]
        assert lines.tobytes() == full.reshape(-1, box[-1])[plan.rows].tobytes(), (big_n, win)
    # a plan names rows of its own grid's box only
    other = make_grid(n, big_n + 2, 7.0)
    with pytest.raises(ValueError, match="^field and plan grids differ$"):
        stft_magnitude(_rand_field(other, rng), gaussian_window(other), plan)


@pytest.mark.parametrize("n, big_n", [(1, 128), (2, 20)])
def test_y1_blocks_change_no_byte(monkeypatch, n, big_n):
    # y_1 is transformed a few x_1 at a time, or one x_1 per buffer of its
    # own when one x_1 is wider than the workspace; neither moves a byte
    rng = np.random.default_rng(33)
    g = make_grid(n, big_n, 7.0)
    u = _rand_field(g, rng)
    for win in (gaussian_window(g), hann_window(g)):
        plan = _geometry_of(g, win.sigma_x, win.sigma_xi, WavefrontParams()).plan
        want = stft_magnitude(u, win, plan).values.tobytes()
        for elems in (3 * big_n ** n, big_n ** n - 1):
            monkeypatch.setattr(spectral, "_BLOCK_ELEMS", elems)
            assert stft_magnitude(u, win, plan).values.tobytes() == want, elems
            monkeypatch.undo()


def test_threads_share_no_y1_workspace():
    # each thread transforms y_1 in its own workspace: spectrograms of
    # different sizes, run at once from more threads than cores, give the
    # bytes of serial runs
    rng = np.random.default_rng(34)
    cases = []
    for n, big_n in ((2, 28), (2, 32), (2, 36), (1, 512)):
        g = make_grid(n, big_n, 7.0)
        win = gaussian_window(g)
        cases.append((_rand_field(g, rng), win,
                      _geometry_of(g, win.sigma_x, win.sigma_xi, WavefrontParams()).plan))

    def run(case):
        return stft_magnitude(*case).values.tobytes()

    serial = [run(c) for c in cases]
    got = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def worker(i):
        start.wait(timeout=30)
        for _ in range(5):
            got[i].append(run(cases[i]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == [[s] * 5 for s in serial]
