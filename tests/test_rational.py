import hashlib
import random
from fractions import Fraction
from math import gcd

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
    integer_form,
    integer_ray,
    inverse,
    left_solve,
    madd,
    mat,
    matmul,
    matvec,
    mscale,
    nonneg_solve,
    nullspace,
    rank,
    row_space_canonical,
    rref,
    vec,
    zeros,
)
from twistlab.suites import _oracle_extreme_rays, _oracle_nonneg_solve, _oracle_rref

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


def test_integer_ray_scaling_and_sign():
    assert integer_ray(vec([2, 4, -6])) == (1, 2, -3)
    assert integer_form([vec([Fraction(1, 2), Fraction(3, 2)])]) == (((1, 3),), 2)
    # sign of the ray is preserved, not normalized away
    assert integer_ray(vec([-2, 4])) == (-1, 2)
    assert integer_ray((0, 0)) == (0, 0)


def test_row_space_canonical_leads_positive():
    rows, _ = integer_form([vec([-2, 4, 0]), vec([0, 0, Fraction(-3, 2)]), vec([1, -2, 5])])
    assert row_space_canonical(rows) == ((1, -2, 0), (0, 0, 1))


def test_rref_pivots():
    r, d, piv = rref(mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert piv == (0, 2) and d > 0
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_matrix_helpers():
    a = mat([[1, 2], [3, 4]])
    assert hcat(a, identity(2), zeros(2, 0), ()) == mat([[1, 2, 1, 0], [3, 4, 0, 1]])
    assert madd(a, mscale(-1, a)) == zeros(2, 2)
    f, d = inverse(a)
    assert matmul(a, f) == mscale(d, identity(2)) and d > 0
    assert inverse(mat([[1, 2], [2, 4]])) is None              # singular
    assert inverse(mat([[0], [1]])) is None                    # not square
    assert inverse(mat([[1, 0, 0], [0, 1, 0]])) is None


def test_left_solve():
    m = mat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])             # third row = first + second
    e = mat([[2, 3, 5], [0, 0, 0]])
    f, d = left_solve(e, m)
    assert matmul(f, m) == mscale(d, e) and d > 0
    assert f[0][2] == 0                                    # free entry set to 0
    assert left_solve(mat([[0, 0, 1]]), m) is None         # outside the row space
    assert left_solve(mat([[1, 2]]), ()) is None           # m without rows
    assert left_solve((), m)[0] == ()


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
def test_integer_ray_idempotent(v):
    if not any(v):
        return
    (w,), d = integer_form([v])
    assert tuple(Fraction(x, d) for x in w) == v
    p = integer_ray(w)
    assert integer_ray(p) == p
    # integer entries with content 1, on the ray of v
    assert all(type(x) is int for x in p) and gcd(*p) == 1
    assert tuple(gcd(*w) * x for x in p) == w


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
def test_rref_matches_gauss_jordan(case):
    a, _ = case
    ai, _ = integer_form(a)
    red, d, pivots = rref(ai)
    assert (tuple(tuple(Fraction(x, d) for x in row) for row in red), pivots) == _oracle_rref(a)
    assert d > 0 and all(type(x) is int for row in red for x in row)
    assert rank(ai) == len(pivots)


@given(cone_matrices())
def test_extreme_rays_match_subset_oracle(case):
    a, k = case
    rays = extreme_rays(integer_form(a)[0], k)
    assert rays == _oracle_extreme_rays(a, k)          # order included
    assert all(type(x) is int for r in rays for x in r)
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
    assert extreme_rays(integer_form(a)[0], k) == _oracle_extreme_rays(a, k)     # order included
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
    # the digest is of the rays written as Fractions, as the kernel first returned them
    digest = hashlib.sha256(repr([tuple(map(Fraction, r)) for r in rays]).encode()).hexdigest()
    assert digest == "5d928ccd247746d8ea018ef4fd7ae41b1402c01c226e854e3bf2d9ed4d4acc56"


# ---------------------------------------------------------------------------
# the integer kernels against plain Fraction arithmetic, on rational inputs
# brought to integer form at the parse boundary

def _rational_matrix(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols).map(tuple),
                    min_size=rows, max_size=rows).map(tuple)


def _values(m, d):
    return tuple(tuple(Fraction(x, d) for x in row) for row in m)


def _ref_matmul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b))
                 for row in a)


def _ref_gauss_jordan(a):
    """Reduced rows and pivot columns of a Fraction matrix."""
    rows, pivots = [list(r) for r in a], []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], [x / rows[pr][c] for x in rows[pr]]
        rows = [row if i == r or not row[c] else [x - row[c] * y for x, y in zip(row, rows[r])]
                for i, row in enumerate(rows)]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _ref_left_solve(e, m):
    """F with F m = e and 0 at free entries, or None."""
    k = len(m)
    red, pivots = _ref_gauss_jordan([list(mc) + list(ec) for mc, ec in zip(zip(*m), zip(*e))])
    if pivots and pivots[-1] >= k:
        return None
    ft = [(Fraction(0),) * len(e)] * k
    for row, c in zip(red, pivots):
        ft[c] = tuple(row[k:])
    return tuple(zip(*ft))


@given(st.data())
def test_int_products_match_fractions(data):
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(_rational_matrix(m, k)), data.draw(_rational_matrix(k, n))
    x = data.draw(_rational_matrix(1, k))[0]
    (ai, da), (bi, db), ((xi,), dx) = integer_form(a), integer_form(b), integer_form([x])
    assert _values(matmul(ai, bi), da * db) == _ref_matmul(a, b)
    ax = tuple(row[0] for row in _ref_matmul(a, tuple((v,) for v in x)))
    assert _values([matvec(ai, xi)], da * dx) == (ax,)
    assert Fraction(dot(ai[0], xi), da * dx) == ax[0]


@given(st.data())
def test_int_solvers_match_fractions(data):
    m, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a = data.draw(_rational_matrix(m, k))
    ai, _ = integer_form(a)
    # nullspace: the same vectors once scaled to 1 at their free column
    red, pivots = _ref_gauss_jordan(a)
    want = []
    for fc in (c for c in range(k) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(k)]
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        want.append(tuple(v))
    got = nullspace(ai)
    assert [tuple(Fraction(x, v[fc]) for x in v)
            for v, fc in zip(got, (c for c in range(k) if c not in pivots))] == want
    # left_solve of a right-hand side with the same columns
    e = data.draw(_rational_matrix(data.draw(st.integers(1, 3)), k))
    (ei, de), ref = integer_form(e), _ref_left_solve(e, a)
    got = left_solve(ei, ai)
    assert (got is None) == (ref is None)
    if got is not None:
        # (F / d) (A d_a) = E d_e, so F / d = ref d_e / d_a
        f, d = got
        _, da = integer_form(a)
        assert _values(f, d) == tuple(tuple(x * de / da for x in row) for row in ref)
    # inverse of the square part
    sq = tuple(row[:m] for row in a) if k >= m else None
    if sq is not None:
        si, ds = integer_form(sq)
        ref = _ref_left_solve(tuple(tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m)), sq)
        got = inverse(si)
        assert (got is None) == (ref is None)
        if got is not None:
            assert _values(got[0], got[1]) == tuple(tuple(x / ds for x in row) for row in ref)


@pytest.mark.parametrize("parse, value, error, message", [
    (frac, True, TypeError, "bool is not a rational scalar"),
    (vec, [1, False], TypeError, "bool is not a rational scalar"),
    (mat, [[1, 2], [3, True]], TypeError, "bool is not a rational scalar"),
    (vec, [[1, 0]], ValueError, "zero denominator in"),
    (mat, [["1/2"], ["2/0"]], ValueError, "zero denominator in"),
    (mat, [[1, 2], [3]], ValueError, "ragged matrix"),
    (mat, [[[1, 2], [3, 1]], [[1, 1]]], ValueError, "ragged matrix"),
])
def test_parse_boundary_refuses(parse, value, error, message):
    with pytest.raises(error, match=message):
        parse(value)


def test_integer_kernels_refuse_non_integer_entries():
    # each would divide inexactly and answer wrongly without an error: on
    # this matrix inverse gave (((0, 2, 0), (0, 0, 0), (0, 0, 0)), 2), rref
    # a denominator of 2 and extreme_rays(m, 3) no ray at all
    m = mat([[Fraction(1, 2), Fraction(1, 3), 1], [1, Fraction(1, 5), Fraction(1, 7)],
             [Fraction(2, 3), 1, 5]])
    first = r"\[0\]\[0\]: expected an int, got Fraction\(1, 2\)$"
    for call in (rref, rank, inverse, nullspace, lambda a: extreme_rays(a, 3)):
        with pytest.raises(TypeError, match="^a" + first):
            call(m)
    with pytest.raises(TypeError, match="^m" + first):
        left_solve(identity(3), m)
    with pytest.raises(TypeError, match=r"^e\[1\]\[2\]: expected an int, got 0.5$"):
        left_solve(((1, 0, 0), (0, 1, 0.5)), identity(3))
    with pytest.raises(TypeError, match=r"^a\[0\]\[1\]: expected an int, got True$"):
        rank(((1, True),))
    # the same matrix in integer form is answered exactly
    a, d = integer_form(m)
    f, q = inverse(a)
    assert matmul(f, a) == tuple(tuple(q * x for x in row) for row in identity(3))
