import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twistlab.rational import (
    MAX_RAYS,
    cone_contains,
    dot,
    extreme_rays,
    frac,
    hcat,
    identity,
    inverse,
    is_zero_vec,
    left_solve,
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


def test_left_solve():
    m = mat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])             # third row = first + second
    e = mat([[2, 3, 5], [0, 0, 0]])
    f = left_solve(e, m)
    assert matmul(f, m) == e
    assert f[0][2] == 0                                    # free entry set to 0
    assert left_solve(mat([[0, 0, 1]]), m) is None         # outside the row space
    assert left_solve(mat([[1, 2]]), ()) is None           # m without rows
    assert left_solve((), m) == ()


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


def _oracle_rref(a):
    """Gauss-Jordan over Fractions: the rref's definition, step by step."""
    rows = [list(r) for r in a]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


@given(cone_matrices())
def test_rref_matches_gauss_jordan(case):
    a, _ = case
    red, pivots = rref(a)
    assert (red, pivots) == _oracle_rref(a)
    assert all(type(x) is Fraction for row in red for x in row)
    assert rank(a) == len(pivots)


@given(cone_matrices())
def test_extreme_rays_match_subset_oracle(case):
    a, k = case
    rays = extreme_rays(a, k)
    assert rays == _oracle_extreme_rays(a, k)          # order included
    assert all(type(x) is Fraction for r in rays for x in r)
    gens = [tuple(row[j] for row in a) for j in range(k)]
    assert nonneg_solve(gens[:-1], gens[-1]) == _oracle_nonneg_solve(gens[:-1], gens[-1])


@st.composite
def wide_cone_matrices(draw):
    """(A, k): 1-6 rows over 1-12 columns, with a dependent row, a zero
    row, and zero, repeated and negated columns now and then."""
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rows = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(m)]
    if m > 2 and draw(st.booleans()):
        c, d = draw(st.fractions(-2, 2, max_denominator=2)), draw(st.fractions(-2, 2, max_denominator=2))
        rows[-1] = [c * x + d * y for x, y in zip(rows[0], rows[1])]
    if m > 1 and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [Fraction(0)] * k
    cols = [list(c) for c in zip(*rows)]
    edits = st.tuples(st.sampled_from(("zero", "repeat", "negate")),
                      st.integers(0, k - 1), st.integers(0, k - 1))
    for kind, i, j in draw(st.lists(edits, max_size=3)):
        cols[j] = [0 * x if kind == "zero" else x if kind == "repeat" else -x for x in cols[i]]
    return tuple(zip(*cols)), k


def _wide_example():
    """Six rows over twelve columns: row 2 is zero and row 5 is row 0 plus
    twice row 3; column 3 is zero, column 10 repeats column 0 and column
    11 is minus column 1."""
    rng = random.Random(6)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(12)] for _ in range(6)]
    rows[2] = [Fraction(0)] * 12
    rows[5] = [x + 2 * y for x, y in zip(rows[0], rows[3])]
    for row in rows:
        row[3], row[10], row[11] = Fraction(0), row[0], -row[1]
    return tuple(map(tuple, rows)), 12


@example(_wide_example())
@given(wide_cone_matrices())
def test_kernel_matches_oracle_on_wide_systems(case):
    a, k = case
    assert extreme_rays(a, k) == _oracle_extreme_rays(a, k)     # order included
    gens = [tuple(row[j] for row in a) for j in range(k)]
    assert nonneg_solve(gens[:-1], gens[-1]) == _oracle_nonneg_solve(gens[:-1], gens[-1])


def _random_gens(count, seed):
    rng = random.Random(seed)
    return [vec([rng.randint(-3, 3) for _ in range(4)]) for _ in range(count)]


def test_enumeration_budget_refuses_large_cones():
    # 24 generators in R^4: their 24 columns have 3,102 rays, inside the
    # budget; nonneg_solve's 25th column, -v, takes cut 4 past it
    gens = _random_gens(24, 1)
    assert len(extreme_rays(tuple(zip(*gens)), 24)) == 3102
    with pytest.raises(ValueError, match=rf"k=25 columns of rank 4 hold more than {MAX_RAYS} "
                                         r"rays in cut 4"):
        nonneg_solve(gens, vec([1, 2, 3, 4]))
    a = tuple(zip(*_random_gens(28, 1)))
    with pytest.raises(ValueError, match=rf"k=28 columns of rank 4 hold more than {MAX_RAYS}"):
        extreme_rays(a, 28)


def test_enumeration_budget_admits_18_generators():
    # 19 columns of rank 4: 16,663 candidate supports, inside the budget
    gens = _random_gens(18, 2)
    assert cone_contains(gens, gens[0])


def test_extreme_rays_of_18_generators_pinned():
    # 593 rays; the digest was taken from the support-enumeration kernel
    # that double description replaced, so the list and its order are pinned
    rays = extreme_rays(tuple(zip(*_random_gens(18, 2))), 18)
    assert len(rays) == 593
    digest = hashlib.sha256(repr(rays).encode()).hexdigest()
    assert digest == "5d928ccd247746d8ea018ef4fd7ae41b1402c01c226e854e3bf2d9ed4d4acc56"
