import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistlab.rational import (
    MAX_SUPPORTS,
    cone_contains,
    dot,
    extreme_rays,
    frac,
    hcat,
    identity,
    inverse,
    is_zero_vec,
    madd,
    mat,
    matmul,
    mscale,
    nonneg_solve,
    nullspace,
    primitive_ray,
    rank,
    row_space_canonical,
    rref,
    vec,
    zeros,
)
from twistlab.suites import _oracle_extreme_rays, _oracle_nonneg_solve

fracs = st.fractions(max_denominator=6)
small_vecs = st.lists(fracs, min_size=2, max_size=4).map(tuple)


def test_frac_exact_on_floats():
    assert frac(0.5) == Fraction(1, 2)
    assert frac(Fraction(2, 3)) == Fraction(2, 3)
    assert frac(3) == 3


@pytest.mark.parametrize("x", [[1, 0], (3, 0), [0, 0], "1/0", "-2/0"])
def test_frac_zero_denominator_is_value_error(x):
    with pytest.raises(ValueError, match="zero denominator"):
        frac(x)


def test_primitive_ray_scaling_and_sign():
    assert primitive_ray(vec([2, 4, -6])) == (1, 2, -3)
    assert primitive_ray(vec([Fraction(1, 2), Fraction(3, 2)])) == (1, 3)
    # sign of the ray is preserved, not normalized away
    assert primitive_ray(vec([-2, 4])) == (-1, 2)


def test_row_space_canonical_leads_positive():
    rows = [vec([-2, 4, 0]), vec([0, 0, Fraction(-3, 2)]), vec([1, -2, 5])]
    assert row_space_canonical(rows) == ((1, -2, 0), (0, 0, 1))


def test_rref_pivots():
    r, piv = rref(mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert piv == (0, 2)
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_matrix_helpers():
    a = mat([[1, 2], [3, 4]])
    assert hcat(a, identity(2), zeros(2, 0), ()) == mat([[1, 2, 1, 0], [3, 4, 0, 1]])
    assert madd(a, mscale(Fraction(-1), a)) == zeros(2, 2)
    assert matmul(a, inverse(a)) == identity(2)
    assert inverse(mat([[1, 2], [2, 4]])) is None              # singular
    assert inverse(mat([[0], [1]])) is None                    # not square
    assert inverse(mat([[1, 0, 0], [0, 1, 0]])) is None


def test_nullspace_orthogonality():
    a = mat([[1, 1, 0], [0, 1, 1]])
    basis = nullspace(a)
    assert len(basis) == 1
    for row in a:
        assert dot(row, basis[0]) == 0


def test_extreme_rays_standard_form():
    # cone {w >= 0 : a w = 0}
    assert extreme_rays(mat([[1, 0], [0, 1]]), 2) == []          # only the origin
    assert extreme_rays(mat([[1, 0]]), 2) == [(0, 1)]            # one free axis
    assert sorted(extreme_rays(mat([]), 2)) == [(0, 1), (1, 0)]  # full orthant


def test_extreme_rays_balance_constraint():
    # w1 = w2 inside the orthant: the diagonal ray
    rays = extreme_rays(mat([[1, -1]]), 2)
    assert rays == [(1, 1)]


def test_nonneg_solve_and_membership():
    gens = [vec([1, 0]), vec([1, 1])]
    c = nonneg_solve(gens, vec([3, 1]))
    assert c is not None and all(x >= 0 for x in c)
    assert cone_contains(gens, vec([3, 1]))
    assert not cone_contains(gens, vec([0, 1]))
    assert not cone_contains(gens, vec([-1, 0]))


@given(small_vecs)
def test_primitive_ray_idempotent(v):
    if is_zero_vec(v):
        return
    p = primitive_ray(v)
    assert primitive_ray(p) == p
    # integer entries with content 1
    denoms = [Fraction(x).denominator for x in p]
    assert set(denoms) == {1}


entries = st.fractions(-3, 3, max_denominator=3)


@st.composite
def cone_matrices(draw):
    """(A, k): 1-4 rows over 1-7 columns, with a dependent last row and a
    zero column now and then."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    rows = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        c = draw(st.fractions(-2, 2, max_denominator=2))
        rows[-1] = [c * x for x in rows[0]]
    zero_col = draw(st.one_of(st.none(), st.integers(0, k - 1)))
    if zero_col is not None:
        for row in rows:
            row[zero_col] = Fraction(0)
    return tuple(tuple(r) for r in rows), k


@given(cone_matrices())
def test_extreme_rays_match_subset_oracle(case):
    a, k = case
    rays = extreme_rays(a, k)
    assert rays == _oracle_extreme_rays(a, k)          # order included
    assert all(type(x) is Fraction for r in rays for x in r)
    gens = [tuple(row[j] for row in a) for j in range(k)]
    assert nonneg_solve(gens[:-1], gens[-1]) == _oracle_nonneg_solve(gens[:-1], gens[-1])


def _random_gens(count, seed):
    rng = random.Random(seed)
    return [vec([rng.randint(-3, 3) for _ in range(4)]) for _ in range(count)]


def test_enumeration_budget_refuses_large_cones():
    # 24 generators in R^4: 25 columns of rank 4, 68,405 candidate supports
    gens = _random_gens(24, 1)
    with pytest.raises(ValueError, match=r"k=25 columns of rank 4 give 68405 candidate"):
        nonneg_solve(gens, vec([1, 2, 3, 4]))
    a = tuple(zip(*gens))
    with pytest.raises(ValueError, match=str(MAX_SUPPORTS)):
        extreme_rays(a, 24)


def test_enumeration_budget_admits_18_generators():
    # 19 columns of rank 4: 16,663 candidate supports, inside the budget
    gens = _random_gens(18, 2)
    assert cone_contains(gens, gens[0])
