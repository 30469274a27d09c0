import dataclasses
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.stats import qmc

from twistlab import spectral, wavefront
from twistlab.catalog import Chirp, Delta, GaussianPacket, PlaneWave, sample_analytic
from twistlab.grids import SampledField, make_grid
from twistlab.spectral import WindowFunction, gaussian_window, hann_window, stft
from twistlab.wavefront import (
    DirectionGrid,
    WavefrontEstimate,
    WavefrontParams,
    _SPHERE_SEED,
    _sobol3,
    _stencil,
    check_chirp_shear,
    check_fourier_symmetry,
    direction_grid,
    estimate_wf,
    estimate_wf_from_stft,
    hausdorff_deg,
)


@pytest.fixture(scope="module")
def grid128():
    return make_grid(1, 128, 12.0)


@pytest.fixture(scope="module")
def delta_estimate(grid128):
    u = sample_analytic(Delta(0.0), grid128)
    return estimate_wf(u, params=WavefrontParams(k_test=0.05))


def test_direction_grid_circle():
    d = direction_grid(2)
    assert d.count == 360
    assert d.resolution_deg == pytest.approx(0.5)
    np.testing.assert_allclose(np.linalg.norm(d.directions, axis=1), 1.0, rtol=1e-12)
    # closed under negation
    neg = -d.directions
    dots = neg @ d.directions.T
    assert np.all(dots.max(axis=1) > 1.0 - 1e-12)
    with pytest.raises(ValueError):
        direction_grid(2, count=7)
    with pytest.raises(ValueError):
        direction_grid(3)


def test_direction_grid_sphere_seeded():
    a = direction_grid(4, count=256, seed=1)
    b = direction_grid(4, count=256, seed=1)
    c = direction_grid(4, count=256, seed=2)
    np.testing.assert_array_equal(a.directions, b.directions)
    assert not np.array_equal(a.directions, c.directions)
    np.testing.assert_allclose(np.linalg.norm(a.directions, axis=1), 1.0, rtol=1e-12)
    # antipodal halves
    half = a.count // 2
    np.testing.assert_allclose(a.directions[half:], -a.directions[:half], rtol=1e-15)
    assert 0.0 < a.resolution_deg < 45.0
    # Sobol nets are balanced only at powers of two; other halves are
    # refused by name instead of warned about on every run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for count in (6, 12, 100, 2050):
            with pytest.raises(ValueError, match=r"^count: expected twice a power of two, at least 8, got "):
                direction_grid(4, count)


def _scipy_sobol3(count, seed):
    return qmc.Sobol(3, scramble=True, seed=seed).random(count)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=2**63))
@example(_SPHERE_SEED)
def test_sobol3_is_scipys_scrambled_sobol(seed):
    for h in (2**k for k in range(2, 13)):
        assert _sobol3(h, seed).tobytes() == _scipy_sobol3(h, seed).tobytes(), h


def test_sphere_grid_as_built_on_scipy(monkeypatch):
    new = {c: wavefront._direction_grid.__wrapped__(4, c, _SPHERE_SEED) for c in (8, 512, 2048, 8192)}
    monkeypatch.setattr(wavefront, "_sobol3", _scipy_sobol3)
    for c, grid in new.items():
        old = wavefront._direction_grid.__wrapped__(4, c, _SPHERE_SEED)
        assert grid.directions.tobytes() == old.directions.tobytes()
        assert grid.resolution_deg == old.resolution_deg


def test_direction_grid_memoised_read_only():
    a = direction_grid(4)
    assert direction_grid(4) is a
    assert direction_grid(4, 2048) is a
    assert direction_grid(2) is direction_grid(2, 360)
    with pytest.raises(ValueError):
        a.directions[0, 0] = 0.0
    # a grid built from a caller's array copies it and leaves it writable
    raw = np.eye(2)
    DirectionGrid(raw, resolution_deg=45.0)
    raw[0, 0] = 1.0


@pytest.mark.parametrize("d", [2, 4])
@given(data=st.data())
def test_multilinear_matches_scipy(d, data):
    # the estimator's kernel against scipy's linear RegularGridInterpolator
    # on equispaced axes, at points inside, on nodes and one ulp either
    # side of them, on both edges of the box and outside it
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    axes = [data.draw(st.floats(-5.0, 5.0)) + data.draw(st.floats(0.01, 2.0)) * np.arange(m)
            for m in data.draw(st.tuples(*[st.integers(2, 9)] * d))]
    values = rng.random(tuple(len(ax) for ax in axes))
    lo, hi = np.array([ax[0] for ax in axes]), np.array([ax[-1] for ax in axes])
    nodes = np.column_stack([rng.choice(ax, 50) for ax in axes])
    pts = np.concatenate([
        rng.uniform(lo, hi, (200, d)),
        nodes,
        np.nextafter(nodes, -np.inf),
        np.nextafter(nodes, np.inf),
        np.where(rng.random((50, d)) < 0.5, lo, hi),
        rng.uniform(lo - (hi - lo) / 2, hi + (hi - lo) / 2, (200, d)),
    ])
    want = RegularGridInterpolator(axes, values, method="linear", bounds_error=False,
                                   fill_value=0.0)(pts)
    # the points are r w for the one radius 1, and the stencil reads its lines
    stencil = _stencil(axes, (np.ones(1), pts))
    got = stencil.read(values[np.unravel_index(stencil.lines, stencil.box[:-1])])
    if d == 4:      # scipy's generic path: same operations in the same order
        assert got.tobytes() == want.tobytes()
    else:           # scipy's 2-D path multiplies in another order
        np.testing.assert_array_equal(got == 0, want == 0)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("n, big_n", [(1, 128), (2, 32)])
def test_ray_stencil_in_memory_order(n, big_n):
    # the samples are held sorted by offset, and `rows` takes them back
    # to direction-major order
    g = make_grid(n, big_n, 7.0)
    win = gaussian_window(g)
    geo = wavefront._geometry_of(g, win.sigma_x, win.sigma_xi, WavefrontParams())
    stencil = geo.stencil
    assert np.all(np.diff(stencil.base) >= 0)
    assert np.array_equal(np.sort(stencil.rows), np.arange(geo.directions.count * geo.r.size))
    # back in point order, each offset is the lower corner's cell on the
    # plan's box as searchsorted finds it, mapped through the plan's rows
    # to its line, and each row corner's step leads to that corner's line
    pts = (geo.r[None, :, None] * geo.directions.directions[:, None, :]).reshape(-1, 2 * n)
    axes = (g.axis()[geo.plan.xs],) * n + (g.dual().axis()[geo.plan.fs],) * n
    cells = [np.clip(np.searchsorted(ax, pts[:, k], "right") - 1, 0, len(ax) - 2)
             for k, ax in enumerate(axes)]
    box = tuple(len(ax) for ax in axes)
    assert stencil.box == box and stencil.lines is geo.plan.rows
    width = box[-1]

    def line_of(cells):
        row = np.ravel_multi_index(cells, box[:-1])
        at = np.searchsorted(geo.plan.rows, row)
        assert np.array_equal(geo.plan.rows[at], row)
        return at

    base = np.empty_like(stencil.base)
    base[stencil.rows] = stencil.base
    assert np.array_equal(base, line_of(cells[:-1]) * width + cells[-1])
    corners = list(itertools.product((0, 1), repeat=2 * n - 2))
    assert len(stencil.steps) == len(corners) - 1
    for corner, step in zip(corners[1:], stencil.steps):
        moved = [c + k for c, k in zip(cells, corner)] + cells[-2:]
        assert np.array_equal(base + step[base // width], line_of(moved[:-1]) * width + cells[-1])
    # the one step up the second-last axis is the next line
    up = cells[:-2] + [cells[-2] + 1]
    assert np.array_equal(line_of(up), line_of(cells[:-1]) + 1)
    # the lines are those of the spectrogram estimate_wf reads
    mag = spectral.stft_magnitude(sample_analytic(Delta((0.0,) * n), g), win, geo.plan)
    assert mag.values.shape == stencil.shape == (len(geo.plan.rows), width)


def test_stencil_refuses_int32_overflow():
    # one point in every second cell of a 65537-node axis reads 65536 rows,
    # so lines of F = 32768 values make an array of 2^31 cells, one more
    # than int32 offsets address; F = 32767 fits.  Only the stencil is
    # built, never the (lines, F) array it would read
    axis = np.arange(65537.0)
    for F, fits in ((32767, True), (32768, False)):
        pts = np.column_stack([np.arange(0.5, 65536.0, 2.0), np.full(32768, F / 2)])
        axes = (axis, np.arange(float(F)))
        if fits:
            stencil = _stencil(axes, (np.ones(1), pts))
            assert stencil.shape == (65536, F) and stencil.base.dtype == np.int32
            assert stencil.base.max() == 65534 * F + F // 2
        else:
            with pytest.raises(ValueError, match="^65536 lines of 32768 values overflow int32 offsets$"):
                _stencil(axes, (np.ones(1), pts))
    # a box of more rows than int32 indexes is refused before its rows are marked
    big = np.arange(50000.0)
    with pytest.raises(ValueError, match="overflow int32 indices$"):
        _stencil((big, big, np.arange(2.0)), (np.ones(1), np.zeros((1, 3))))


def _arrays_held(obj, seen=None):
    """The bytes of the distinct arrays a geometry holds in its fields,
    its stencil's and its plan's, nested tuples included; the direction
    grid is shared between entries and not counted."""
    seen = {} if seen is None else seen
    if isinstance(obj, np.ndarray):
        seen[id(obj)] = obj.nbytes
    elif isinstance(obj, tuple):
        for item in obj:
            _arrays_held(item, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, DirectionGrid):
        for field in dataclasses.fields(obj):
            _arrays_held(getattr(obj, field.name), seen)
    return sum(seen.values())


def test_geometry_entry_holds_no_more_than_its_budget():
    # n=2, N=32 with 2048 directions and 12 radii: 40 bytes per ray sample
    # and a few per FFT line; 48 per sample and 16 per line came to 1.25 MB
    g = make_grid(2, 32, 7.0)
    win = gaussian_window(g)
    geo = wavefront._geometry_of(g, win.sigma_x, win.sigma_xi, WavefrontParams())
    assert geo.directions.count * geo.r.size == 24576
    assert _arrays_held(geo) <= 1.1e6


def test_repeat_estimate_allocates_no_box():
    # once its geometry is built, an estimate at n=2, N=64, L=10 holds |V|
    # on its lines only: its peak stays under half the box of that reach
    g = make_grid(2, 64, 10.0)
    u = sample_analytic(GaussianPacket((0.3, 0.3), 0.9, (-0.5, -0.5)), g)
    win = gaussian_window(g)
    estimate_wf(u, win)
    plan = wavefront._geometry_of(g, win.sigma_x, win.sigma_xi, WavefrontParams()).plan
    box = ((plan.xs.stop - plan.xs.start) * (plan.fs.stop - plan.fs.start)) ** 2
    tracemalloc.start()
    try:
        estimate_wf(u, win)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * box / 2


def test_direction_grid_probe_matches_one_shot_oracle():
    # resolution_deg takes max |cos| block by block as max(max, -min);
    # the oracle takes abs and max over the whole probe-direction matrix
    for count, seed in [(c, s) for c in (8, 64, 512) for s in (1, 2, _SPHERE_SEED)]:
        grid = wavefront._direction_grid.__wrapped__(4, count, seed)
        probes = np.random.default_rng(seed + 1).standard_normal((4096, 4))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        cosmax = np.abs(probes @ grid.directions.T).max(axis=1)
        want = float(np.degrees(np.max(np.arccos(np.clip(cosmax, -1.0, 1.0)))))
        assert grid.resolution_deg == want, (count, seed)


def _clear_estimator_caches():
    wavefront._geometry.cache_clear()
    spectral.gaussian_window.cache_clear()


def test_cold_and_warm_estimates_agree():
    # the memoised geometry and window change no byte of an estimate
    cases = [(make_grid(1, 64, 8.0), Delta(0.5), None),
             (make_grid(1, 64, 8.0), GaussianPacket((0.3,), 0.9, (-0.5,)), direction_grid(2, 90)),
             (make_grid(2, 16, 6.0), Delta((0.0, 0.75)), direction_grid(4, 256)),
             (make_grid(2, 16, 6.0), PlaneWave((0.2, -0.1)), direction_grid(4, 256))]

    def run():
        out = []
        for g, dist, dirs in cases:
            e = estimate_wf(sample_analytic(dist, g),
                            params=WavefrontParams(k_test=0.05, directions=dirs))
            out.append((e.k_hat.tobytes(), e.residual.tobytes(), e.value_at_rmax.tobytes()))
        return out

    _clear_estimator_caches()
    cold = run()
    assert run() == cold
    _clear_estimator_caches()
    assert run() == cold


def test_one_stencil_per_configuration():
    # one geometry is built per configuration; an estimate looks it up
    # twice, for the plan and for the fit
    _clear_estimator_caches()
    g = make_grid(2, 16, 6.0)
    params = WavefrontParams(k_test=0.05, directions=direction_grid(4, 256))
    for dist in (Delta((0.0, 0.0)), PlaneWave((0.1, -0.2)), GaussianPacket((0.0, 0.0), 1.0)):
        estimate_wf(sample_analytic(dist, g), params=params)
    info = wavefront._geometry.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    # another grid, another radius count or another direction grid is
    # another configuration; another k_test is not
    u = sample_analytic(Delta((0.0, 0.0)), g)
    estimate_wf(sample_analytic(Delta((0.0, 0.0)), make_grid(2, 18, 6.0)), params=params)
    estimate_wf(u, params=WavefrontParams(radii=10, directions=params.directions))
    estimate_wf(u, params=WavefrontParams(directions=direction_grid(4, 128)))
    estimate_wf(u, params=WavefrontParams(k_test=0.01, directions=params.directions))
    info = wavefront._geometry.cache_info()
    assert (info.misses, info.hits) == (4, 10)


def test_cached_stencil_and_window_are_read_only():
    g = make_grid(1, 8, 3.0)
    params = WavefrontParams(directions=direction_grid(2, 4))
    geo = wavefront._geometry_of(g, 0.5, 0.5, params)
    assert wavefront._geometry_of(g, 0.5, 0.5, params) is geo
    with pytest.raises(dataclasses.FrozenInstanceError):
        geo.plan = None
    stencil, plan = geo.stencil, geo.plan
    for arr in (geo.r, geo.design, geo.pinv, geo.directions.directions,
                stencil.lines, stencil.base, stencil.rows, stencil.outside, *stencil.steps,
                *stencil.y, plan.rows, plan.x0s, plan.bounds):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    g = make_grid(2, 16, 6.0)
    win = gaussian_window(g)
    assert gaussian_window(g) is win
    with pytest.raises(ValueError, match="read-only"):
        win.values[0, 0] = 0.0


def _random_estimate(dirs, seed):
    """An estimate on `dirs` with k_hat and residual over the whole
    float range, some k_hat infinite."""
    rng = np.random.default_rng(seed)
    m = dirs.count
    k_hat = rng.standard_normal(m) * 10.0 ** rng.uniform(-300, 300, m)
    residual = rng.standard_normal(m) * 10.0 ** rng.uniform(-300, 300, m)
    k_hat[::7] = np.inf
    k_hat[1:6] = [0.0, -0.0, 1e-300, -1e300, 0.1][:m - 1]
    residual[1:4] = [-0.0, 5e-324, 1e300][:m - 1]
    return WavefrontEstimate(dirs, k_hat, residual, np.zeros(m), 0.05, 1.0, 2.0, 12)


def test_estimate_csv_matches_per_value_format():
    # one % per row over Python floats writes what per-value f-strings write;
    # the second estimate on the grid reads the grid's cached columns
    dirs = direction_grid(4, 256)
    for seed in (5, 6):
        est = _random_estimate(dirs, seed)
        want = ["w1,w2,w3,w4,k_hat,residual,flagged"]
        for w, k, r, f in zip(dirs.directions, est.k_hat, est.residual, est.flagged):
            want.append(",".join([f"{v:.12g}" for v in w] + [f"{k:.12g}", f"{r:.12g}", str(bool(f))]))
        assert est.to_csv() == "\n".join(want) + "\n"


def _oracle_to_json(est):
    """`WavefrontEstimate.to_json` as one `json.dumps` of the whole dict."""
    return json.dumps(
        {
            "directions": est.directions.directions.tolist(),
            "k_hat": [None if not np.isfinite(v) else v for v in est.k_hat.tolist()],
            "flagged": est.flagged.tolist(),
            "params": {
                "k_test": est.k_test,
                "r_min": est.r_min,
                "r_max": est.r_max,
                "radii": est.radii,
                "resolution_deg": est.directions.resolution_deg,
            },
        }
    )


@pytest.mark.parametrize("dim,count", [(2, 4), (2, 90), (2, 360), (4, 8), (4, 256), (4, 2048)])
def test_estimate_json_matches_dict_dumps(dim, count):
    # a fresh grid, so the first call builds the cached array and the
    # second and the other estimate on the grid read it
    dirs = wavefront._direction_grid.__wrapped__(dim, count, _SPHERE_SEED)
    ests = [_random_estimate(dirs, seed) for seed in (1, 2)]
    assert any(v is None for v in json.loads(ests[0].to_json())["k_hat"])
    for est in ests * 2:
        assert est.to_json() == _oracle_to_json(est)


def test_estimate_text_of_a_grid_built_by_hand():
    ang = np.radians([0.0, 30.0, 90.0, 180.0, 210.0, 270.0])
    dirs = DirectionGrid(np.column_stack([np.cos(ang), np.sin(ang)]), resolution_deg=30.0)
    est = _random_estimate(dirs, 3)
    for _ in range(2):
        assert est.to_json() == _oracle_to_json(est)
        assert est.to_csv().splitlines()[1:] == [
            f"{w[0]:.12g},{w[1]:.12g},{k:.12g},{r:.12g},{bool(f)}"
            for w, k, r, f in zip(dirs.directions, est.k_hat, est.residual, est.flagged)]


def test_grid_text_cached_once_per_grid():
    dirs = direction_grid(4, 256)
    a, b = _random_estimate(dirs, 1), _random_estimate(dirs, 2)
    a.to_json(), a.to_csv()
    array, prefixes = dirs.json_array, dirs.csv_prefixes
    b.to_json(), b.to_csv()
    assert b.directions.json_array is array and b.directions.csv_prefixes is prefixes
    assert direction_grid(4, 256).json_array is array
    with pytest.raises(ValueError, match="read-only"):
        dirs.directions[0, 0] = 0.0
    # the text follows the grid: same count, different seed, different text
    other = direction_grid(4, 256, seed=_SPHERE_SEED + 1)
    assert other.json_array != array
    assert other.csv_prefixes != prefixes


def test_delta_flags_frequency_axis(delta_estimate):
    est = delta_estimate
    flagged = est.flagged_directions()
    assert len(flagged) > 0
    # every flagged direction within 4 degrees of the vertical axis
    ang = np.degrees(np.arccos(np.clip(np.abs(flagged[:, 1]), -1.0, 1.0)))
    assert ang.max() <= 4.0 + 1e-9
    # the axis itself is flagged
    up = np.array([0.0, 1.0])
    assert np.any(np.all(np.abs(flagged - up) < 1e-12, axis=1))


def test_khat_values_on_and_off_set(delta_estimate):
    est = delta_estimate
    # exactly on the singular direction the decay order vanishes
    idx_up = int(np.argmin(np.linalg.norm(est.directions.directions - [0.0, 1.0], axis=1)))
    assert est.k_hat[idx_up] == pytest.approx(0.0, abs=1e-6)
    # transversal rays die into the dead floor: infinite order
    idx_right = int(np.argmin(np.linalg.norm(est.directions.directions - [1.0, 0.0], axis=1)))
    assert est.k_hat[idx_right] == np.inf


def test_flag_monotone_in_threshold(grid128):
    u = sample_analytic(Delta(0.0), grid128)
    lo = estimate_wf(u, params=WavefrontParams(k_test=0.01))
    hi = estimate_wf(u, params=WavefrontParams(k_test=0.05))
    assert np.all(hi.flagged[lo.flagged])  # nested by definition
    assert hi.flagged.sum() >= lo.flagged.sum()


def test_gaussian_flags_nothing(grid128):
    u = sample_analytic(GaussianPacket(), grid128)
    est = estimate_wf(u, params=WavefrontParams(k_test=0.05))
    assert est.flagged.sum() == 0
    # every finite decay order sits well above the threshold
    assert est.k_hat.min() > 1.0


def test_planewave_flags_position_axis(grid128):
    u = sample_analytic(PlaneWave(0.1), grid128)
    est = estimate_wf(u, params=WavefrontParams(k_test=0.05))
    flagged = est.flagged_directions()
    assert len(flagged) > 0
    ang = np.degrees(np.arccos(np.clip(np.abs(flagged[:, 0]), -1.0, 1.0)))
    assert ang.max() <= 4.0 + 1e-9


def test_chirp_flags_diagonal(grid128):
    u = sample_analytic(Chirp([[1.0]]), grid128)
    est = estimate_wf(u, params=WavefrontParams(k_test=0.05))
    flagged = est.flagged_directions()
    assert len(flagged) > 0
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    cosines = np.abs(flagged @ diag)
    assert np.degrees(np.arccos(np.clip(cosines, -1, 1))).max() <= 4.0 + 1e-9


def test_window_independence(grid128):
    u = sample_analytic(Delta(0.0), grid128)
    params = WavefrontParams(k_test=0.05)
    a = estimate_wf(u, gaussian_window(grid128), params)
    b = estimate_wf(u, hann_window(grid128), params)
    d = hausdorff_deg(a.flagged_directions(), b.flagged_directions())
    assert d <= 1.0 + 1e-9


def test_fourier_symmetry_delta(grid128):
    u = sample_analytic(Delta(0.0), grid128)
    rep = check_fourier_symmetry(u, params=WavefrontParams(k_test=0.05))
    assert rep.hausdorff_deg < 1e-6


def test_chirp_shear_zero_matrix_is_identity(grid128):
    u = sample_analytic(GaussianPacket(), grid128)
    rep = check_chirp_shear(u, [[0.0]], params=WavefrontParams(k_test=0.05))
    assert rep.hausdorff_deg == 0.0


def test_chirp_shear_unit_matrix(grid128):
    u = sample_analytic(Delta(0.0), grid128)
    rep = check_chirp_shear(u, [[1.0]], params=WavefrontParams(k_test=0.05))
    assert rep.hausdorff_deg <= 2.0


def test_hausdorff_properties():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    none = np.empty((0, 2))
    assert hausdorff_deg(a, a) == 0.0
    assert hausdorff_deg(none, none) == 0.0
    assert hausdorff_deg(a, none) == np.inf
    assert hausdorff_deg(a, b) == pytest.approx(90.0, rel=1e-12)
    # chord formula is exact for antipodes
    assert hausdorff_deg(a, -a) == pytest.approx(180.0, rel=1e-12)


def test_zero_field_rejected(grid128):
    z = SampledField(grid128, np.zeros(128, dtype=complex))
    with pytest.raises(ValueError):
        estimate_wf(z)


@pytest.mark.parametrize("kw, key", [
    ({"r_min_frac": 2.0}, "r_min_frac"),
    ({"r_min_frac": 0.0}, "r_min_frac"),
    ({"r_max_frac": 1.2}, "r_max_frac"),
    ({"radii": 7}, "radii"),
    ({"radii": "12"}, "radii"),
    ({"k_test": None}, "k_test"),
])
def test_params_rejected_by_name(kw, key):
    with pytest.raises(ValueError, match=f"^{key}:"):
        WavefrontParams(**kw)


def test_radii_cap():
    assert wavefront.MAX_RADII == 256
    assert WavefrontParams(radii=256).radii == 256
    for radii in (7, 257, 10**400):
        with pytest.raises(ValueError, match=r"^radii: expected an integer from 8 to 256, got "):
            WavefrontParams(radii=radii)


def test_trust_region_must_be_nonempty(monkeypatch):
    # a unit window overflows a half-width-1 box: no trusted radii, and
    # the estimator says so before it transforms anything
    def no_stft(*args, **kwargs):
        raise AssertionError("spectrogram computed for an empty trusted region")

    monkeypatch.setattr(spectral, "_stft_rows", no_stft)
    for n in (1, 2):
        g = make_grid(n, 16, 1.0)
        u = sample_analytic(GaussianPacket((0.0,) * n), g)
        with pytest.raises(ValueError, match="^trusted region is empty: the grid box is too small"):
            estimate_wf(u)


def test_estimate_serialization(delta_estimate):
    est = delta_estimate
    doc = json.loads(est.to_json())
    assert set(doc) >= {"directions", "k_hat", "flagged", "params"}
    assert len(doc["k_hat"]) == est.directions.count
    # infinities encode as nulls
    assert any(v is None for v in doc["k_hat"])
    lines = est.to_csv().splitlines()
    assert lines[0].startswith("w1,w2,k_hat")
    assert len(lines) == est.directions.count + 1


def test_estimate_deterministic(grid128):
    u = sample_analytic(Delta(0.0), grid128)
    a = estimate_wf(u, params=WavefrontParams(k_test=0.05))
    b = estimate_wf(u, params=WavefrontParams(k_test=0.05))
    np.testing.assert_array_equal(a.k_hat, b.k_hat)
    np.testing.assert_array_equal(a.flagged, b.flagged)


@pytest.mark.parametrize("n, big_n, L", [(1, 128, 12.0), (2, 20, 7.0)])
def test_estimate_from_magnitude_matches_full_stft(n, big_n, L):
    # estimate_wf fits |V| built a row at a time; the complex route gives the same bytes
    g = make_grid(n, big_n, L)
    u = sample_analytic(GaussianPacket((0.3,) * n, 0.9, (-0.5,) * n), g)
    params = WavefrontParams(k_test=0.05)
    for win in (gaussian_window(g), hann_window(g)):
        got = estimate_wf(u, win, params)
        want = estimate_wf_from_stft(stft(u, win), params)
        assert got.k_hat.tobytes() == want.k_hat.tobytes()
        assert got.value_at_rmax.tobytes() == want.value_at_rmax.tobytes()
        assert (got.r_min, got.r_max) == (want.r_min, want.r_max)


@pytest.mark.parametrize("big_n", range(28, 43, 2))
def test_separable_route_keeps_verdicts(big_n):
    # a window's factors send it one axis at a time through the
    # spectrogram, which rounds differently from the general route at
    # n=2; the estimates must not tell the two apart
    g = make_grid(2, big_n, 7.0)
    params = WavefrontParams(k_test=0.05)
    for win, dist in itertools.product(
            (gaussian_window(g), hann_window(g)),
            (Delta((0.0, 0.0)), PlaneWave((0.2, -0.1)), Chirp([[0.3, 0.1], [0.1, -0.2]]),
             GaussianPacket((0.4, -0.3), 1.1, (0.5, 0.2)))):
        u = sample_analytic(dist, g)
        a, b = estimate_wf(u, win, params), estimate_wf(u, WindowFunction(g, win.values), params)
        np.testing.assert_array_equal(a.flagged, b.flagged)
        np.testing.assert_array_equal(np.isfinite(a.k_hat), np.isfinite(b.k_hat))
        live = np.isfinite(a.k_hat)
        assert np.max(np.abs(a.k_hat[live] - b.k_hat[live]), initial=0.0) <= 1e-12


def _lstsq_fit(samples, radii):
    """The ray fit as np.linalg.lstsq computes it: k_hat and the RMS
    residual of each live row, +inf and 0 on a dead one."""
    k_hat, residual = np.full(len(samples), np.inf), np.zeros(len(samples))
    live = ~(samples[:, -1] <= wavefront._DEAD_FLOOR)
    t = np.log1p(radii**2)
    design = np.column_stack([t, np.ones_like(t)])
    y = -np.log(np.maximum(samples[live], 1e-300))
    coef, *_ = np.linalg.lstsq(design, y.T, rcond=None)
    k_hat[live] = coef[0]
    residual[live] = np.sqrt(np.mean((design @ coef - y.T) ** 2, axis=0))
    return k_hat, residual


@pytest.mark.parametrize("n, big_n, L", [(1, 128, 12.0), (2, 32, 7.0)])
def test_decay_fit_matches_lstsq(n, big_n, L):
    # the cached pseudo-inverse fit against lstsq on the same ray samples
    g = make_grid(n, big_n, L)
    for win, dist in itertools.product(
            (gaussian_window(g), hann_window(g)),
            (Delta((0.0,) * n), PlaneWave((0.2,) * n), Chirp(0.3 * np.eye(n)),
             GaussianPacket((0.4,) * n, 1.1, (0.5,) * n))):
        u = sample_analytic(dist, g)
        est = estimate_wf(u, win)
        geo = wavefront._geometry_of(g, win.sigma_x, win.sigma_xi, WavefrontParams())
        samples = geo.samples(spectral.stft_magnitude(u, win, geo.plan))
        k_hat, residual = wavefront._decay_fit(samples, geo)
        want_k, want_res = _lstsq_fit(samples, geo.r)
        assert k_hat.tobytes() == est.k_hat.tobytes()
        np.testing.assert_array_equal(np.isinf(k_hat), np.isinf(want_k))
        live = np.isfinite(want_k)
        assert np.all(residual[~live] == 0.0)
        assert np.max(np.abs(k_hat[live] - want_k[live]), initial=0.0) <= 1e-14, (win, dist)
        assert np.max(np.abs(residual - want_res), initial=0.0) <= 1e-14, (win, dist)
        for k_test in (est.k_test, 0.05):
            np.testing.assert_array_equal(k_hat < k_test, want_k < k_test)


@pytest.mark.parametrize("kind", ["gaussian", "hann", "random"])
@pytest.mark.parametrize("n", [1, 2])
@given(size=st.integers(0, 48), L=st.floats(2.5, 8.0), count=st.integers(0, 178),
       r_max_frac=st.floats(0.1, 1.0), r_min_frac=st.floats(0.05, 0.9),
       seed=st.integers(0, 2**31 - 1))
# at n=1, 4, 6 and 8 directions read x_1 lines with a gap between 0 and r_min
@example(size=32, L=7.0, count=0, r_max_frac=0.8, r_min_frac=0.2, seed=0)
@example(size=32, L=7.0, count=1, r_max_frac=0.8, r_min_frac=0.2, seed=0)
@example(size=32, L=7.0, count=2, r_max_frac=0.8, r_min_frac=0.2, seed=0)
def test_estimate_reach_matches_full_lattice(n, kind, size, L, count, r_max_frac, r_min_frac,
                                             seed):
    # estimate_wf transforms and stores |V| only on the lines its ray
    # samples read; the fit must read the bytes the full spectrogram holds.
    # N is 32..128 at n=1 and 12..24 at n=2; the grid holds 4..360
    # directions at n=1 and 8..512 at n=2
    big_n = 32 + 2 * size if n == 1 else 12 + 2 * (size % 7)
    g = make_grid(n, big_n, L)
    count = 4 + 2 * count if n == 1 else 2 ** (3 + count % 7)
    params = WavefrontParams(k_test=0.05, r_max_frac=r_max_frac, r_min_frac=r_min_frac,
                             directions=direction_grid(2 * n, count))
    rng = np.random.default_rng(seed)
    shape = (big_n,) * n
    u = SampledField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if kind == "gaussian":
        win = gaussian_window(g)
    elif kind == "hann":
        win = hann_window(g, float(rng.uniform(0.5, 3.0)))
    else:   # random complex sum of Gaussian bumps: irregular, yet localized in x and xi
        win = WindowFunction(g, sum(
            complex(*rng.standard_normal(2)) * sample_analytic(GaussianPacket(
                rng.uniform(-1.0, 1.0, n), rng.uniform(0.6, 1.4), rng.uniform(-1.0, 1.0, n)),
                g).values
            for _ in range(3)))

    def outcome(route):
        try:
            e = route()
        except ValueError as exc:
            return str(exc)
        return e.k_hat.tobytes(), e.residual.tobytes(), e.value_at_rmax.tobytes()

    got = outcome(lambda: estimate_wf(u, win, params))
    assert got == outcome(lambda: estimate_wf_from_stft(stft(u, win), params))


def test_default_threshold(grid128):
    assert WavefrontParams().k_test == 0.0073
    u = sample_analytic(Delta(0.0), grid128)
    est = estimate_wf(u)
    assert est.k_test == 0.0073
    # the default threshold still finds the axis
    assert est.flagged.sum() > 0


@pytest.mark.parametrize("n, big_n, shrink", [(1, 128, 0.5), (2, 32, 0.5), (2, 64, 0.99)])
def test_spectrogram_short_of_the_reach_refused(n, big_n, shrink):
    # a magnitude filled for `shrink` times the default r_max_frac: at
    # half of it the box misses cells the fit reads; at n=2, N=64, 0.99 of
    # it keeps the fit's box, but cells the fit weights are not filled and
    # hold 0, so a read would give dead rays or moved slopes without an error
    g = make_grid(n, big_n, 7.0)
    u = sample_analytic(GaussianPacket((0.3,) * n, 0.9, (-0.5,) * n), g)
    win = gaussian_window(g)
    params = WavefrontParams(r_max_frac=shrink * WavefrontParams().r_max_frac)
    other = wavefront._geometry_of(g, win.sigma_x, win.sigma_xi, params).plan
    mag = spectral.stft_magnitude(u, win, other)
    with pytest.raises(ValueError, match="^the spectrogram is not filled on the lines this fit "
                                         "reads$"):
        estimate_wf_from_stft(mag)
    # the fit's own lines are read, also from a plan its geometry has dropped
    own = spectral.stft_magnitude(
        u, win, wavefront._geometry_of(g, win.sigma_x, win.sigma_xi, WavefrontParams()).plan)
    wavefront._geometry.cache_clear()
    assert estimate_wf_from_stft(own).k_hat.tobytes() == estimate_wf(u, win).k_hat.tobytes()


def test_direction_count_cap(monkeypatch):
    assert wavefront.MAX_DIRECTIONS == 16384
    assert direction_grid(2, wavefront.MAX_DIRECTIONS).count == 16384
    # a past-cap count is refused before any grid is built
    monkeypatch.setattr(wavefront, "_direction_grid",
                        lambda *args: pytest.fail("a past-cap grid was built"))
    for dim, count in ((2, 16385), (2, 16386), (4, 32768), (4, 2**20)):
        with pytest.raises(ValueError, match=rf"^count: expected an integer from 4 to 16384, "
                                             rf"got {count}$"):
            direction_grid(dim, count)
