import warnings

import numpy as np
import pytest

from twistlab.matrices import AntisymmetricMatrix


def test_entries_exactly_antisymmetric():
    m = AntisymmetricMatrix(2, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(m.entries, -m.entries.T)
    assert m.entries[0, 1] == 1.0


def test_rebuilt_from_strict_upper_triangle():
    # lower triangle and diagonal of the input are ignored
    m = AntisymmetricMatrix(2, [[5.0, 1.0], [7.0, 9.0]])
    np.testing.assert_array_equal(m.entries, [[0.0, 1.0], [-1.0, 0.0]])


def test_from_matrix_validates():
    a = AntisymmetricMatrix.from_matrix([[0.0, 2.0], [-2.0, 0.0]])
    assert a.n == 2
    with pytest.raises(ValueError):
        AntisymmetricMatrix.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        AntisymmetricMatrix.from_matrix([[1.0, 0.0]])


def test_shape_and_finiteness():
    with pytest.raises(ValueError):
        AntisymmetricMatrix(3, [[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        AntisymmetricMatrix(2, [[0.0, np.inf], [0.0, 0.0]])


@pytest.mark.parametrize("a, message", [
    ([[0.0, 1.0], [-1.0 - 5e-13, 0.0]], None),        # within 1e-12
    ([[1e-13, 0.0], [0.0, 0.0]], None),
    ([[0.0, 1.0], [-1.000001, 0.0]], "not antisymmetric"),
    ([[0.0, np.nan], [np.nan, 0.0]], "not antisymmetric"),
    ([[np.inf, 0.0], [0.0, 0.0]], "not antisymmetric"),
    ([[0.0, np.inf], [5.0, 0.0]], "not antisymmetric"),
    ([[0.0, np.inf], [-np.inf, 0.0]], "entries must be finite"),
    ([[0.0, np.inf, 1.0], [-np.inf, 0.0, 0.0], [-1.0 - 1e-13, 0.0, 0.0]],
     "entries must be finite"),
])
def test_from_matrix_tolerance_and_messages(a, message):
    # |a + a^T| <= 1e-12 entrywise, with the verdicts and messages of
    # np.allclose(a, -a.T, rtol=0, atol=1e-12), and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            m = AntisymmetricMatrix.from_matrix(a)
            np.testing.assert_array_equal(m.entries, -m.entries.T)
        else:
            with pytest.raises(ValueError, match=message):
                AntisymmetricMatrix.from_matrix(a)
