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
