import numpy as np
import pytest

from twistlab.catalog import (
    Chirp,
    Delta,
    GaussianPacket,
    PlaneWave,
    exact_wf,
    sample_analytic,
)
from twistlab.cones import conic_equal, empty_set, full_space, member, product_set
from twistlab.grids import make_grid


def test_delta_impulse_height(grid64):
    f = sample_analytic(Delta(0.0), grid64)
    assert f.values[32] == 1.0 / grid64.spacing
    assert np.count_nonzero(f.values) == 1
    # Riemann sum is exactly one
    assert f.values.sum() * grid64.spacing == pytest.approx(1.0, rel=1e-15)


def test_delta_snaps_with_warning(grid64):
    with pytest.warns(UserWarning, match="snapped"):
        f = sample_analytic(Delta(0.1), grid64)  # nearest node is 0.0 (spacing 0.25)
    assert f.values[32] != 0.0
    with pytest.raises(ValueError, match="outside the box"):
        sample_analytic(Delta(9.0), grid64)


def test_planewave_values_and_band(grid64):
    f = sample_analytic(PlaneWave(1.0), grid64)
    np.testing.assert_allclose(np.abs(f.values), 1.0, rtol=1e-15)
    x = grid64.axis()
    np.testing.assert_allclose(f.values, np.exp(1j * x), rtol=1e-14)
    with pytest.raises(ValueError, match="exceeds the grid band"):
        sample_analytic(PlaneWave(100.0), grid64)


def test_chirp_values(grid64):
    f = sample_analytic(Chirp([[1.0]]), grid64)
    np.testing.assert_allclose(np.abs(f.values), 1.0, rtol=1e-15)
    # at the node x = 1: exp((i/2) * 1 * 1^2)
    j = 32 + 4  # spacing 0.25
    assert f.values[j] == pytest.approx(np.exp(0.5j), rel=1e-14)
    # zero matrix gives the constant function
    g = sample_analytic(Chirp([[0.0]]), grid64)
    np.testing.assert_array_equal(g.values, np.ones(64, dtype=complex))


def test_chirp_validation(grid64):
    with pytest.raises(ValueError, match="symmetric"):
        Chirp([[0.0, 1.0], [-1.0, 0.0]])
    # instantaneous frequency A*L beyond the band is rejected
    with pytest.raises(ValueError, match="exceeds the grid band"):
        sample_analytic(Chirp([[40.0]]), grid64)


def test_chirp_envelope_decays(grid64):
    f = sample_analytic(Chirp([[1.0]], envelope=True), grid64)
    assert abs(f.values[32]) == pytest.approx(1.0, rel=1e-15)
    assert abs(f.values[0]) == pytest.approx(np.exp(-0.5 * 64.0), rel=1e-12)


def test_gaussian_packet_values(grid64):
    f = sample_analytic(GaussianPacket(), grid64)
    assert f.values[32] == 1.0
    # one sigma out, on the lattice
    j = 32 + 4
    assert abs(f.values[j]) == pytest.approx(np.exp(-0.5), rel=1e-14)
    m = sample_analytic(GaussianPacket(0.0, 1.0, 2.0), grid64)
    x = grid64.axis()
    np.testing.assert_allclose(m.values, np.exp(-0.5 * x * x + 2j * x), rtol=1e-13)


def test_gaussian_validation():
    with pytest.raises(ValueError):
        GaussianPacket(0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianPacket((0.0, 0.0), 1.0, (1.0,))


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf"), 1e-300, 1e200])
def test_gaussian_sigma_square_must_be_positive_finite(sigma):
    # the samples divide by sigma^2: 1e-300 squared underflows to 0 and
    # 1e200 squared overflows, which used to end in non-finite samples
    with pytest.raises(ValueError, match="^sigma: expected a positive number whose square"):
        GaussianPacket(0.0, sigma)
    assert GaussianPacket(0.0, 1e-150).sigma == 1e-150


def test_dimension_mismatch(grid64):
    with pytest.raises(ValueError, match="dimension"):
        sample_analytic(Delta((0.0, 0.0)), grid64)


def test_exact_wf_ground_truth():
    assert conic_equal(exact_wf(Delta(0.0)), product_set(None, full_space(1)))
    assert conic_equal(exact_wf(PlaneWave(0.1)), product_set(full_space(1), None))
    assert exact_wf(GaussianPacket()).is_empty
    assert exact_wf(Chirp([[1.0]], envelope=True)).is_empty
    # zero chirp matrix degenerates to the constant's set
    assert conic_equal(exact_wf(Chirp([[0.0]])), product_set(full_space(1), None))
    # unit chirp: the diagonal graph {(x, x)}
    wf = exact_wf(Chirp([[1.0]]))
    assert member(wf, (1, 1)) and member(wf, (-1, -1))
    assert not member(wf, (1, 0)) and not member(wf, (0, 1))


def test_exact_wf_2d_chirp():
    a = [[1.0, 0.0], [0.0, 2.0]]
    wf = exact_wf(Chirp(a))
    assert member(wf, (1, 0, 1, 0))
    assert member(wf, (0, 1, 0, 2))
    assert not member(wf, (1, 0, 0, 1))
