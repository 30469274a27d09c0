"""Exact rational linear algebra for small polyhedral cone problems.

Everything here works over tuples of fractions.Fraction and is exact.
The central primitive is extreme-ray enumeration for cones of the form
{w >= 0 : A w = 0}; dimensions stay tiny (a handful of rows, at most a
few dozen columns), so minimal-support enumeration over column subsets
is both exact and fast.  It runs over Python integers, with fraction-free
elimination, and refuses cones past a budget of candidate supports.  No
external solver is used: verdicts built on these routines are meant to
certify counterexamples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Exact Fraction from int/Fraction/float/(num, den) pair/decimal string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return Fraction(int(x[0]), int(x[1]))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as a rational scalar")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vscale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    # the calculus multiplies by projector and selector matrices, mostly zeros
    return sum((x * y for x, y in zip(a, b) if x and y), ZERO)


def matvec(a: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in a)


def mat_t(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def matmul(a: Mat, b: Mat) -> Mat:
    bt = mat_t(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def identity(d: int) -> Mat:
    return tuple(tuple(ONE if j == i else ZERO for j in range(d)) for i in range(d))


def zeros(rows: int, cols: int) -> Mat:
    return tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows))


def hcat(*blocks: Mat) -> Mat:
    """Blocks of equal row count side by side; blocks without rows are skipped."""
    return tuple(sum(rows, ()) for rows in zip(*(b for b in blocks if b)))


def mscale(c: Fraction, a: Mat) -> Mat:
    return tuple(vscale(c, r) for r in a)


def madd(a: Mat, b: Mat) -> Mat:
    return tuple(vadd(ra, rb) for ra, rb in zip(a, b))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def primitive_ray(a: Vec) -> Vec:
    """Scale by a positive rational to coprime integers, keeping direction."""
    if is_zero_vec(a):
        return a
    den = lcm(*(x.denominator for x in a))
    ints = [x.numerator * (den // x.denominator) for x in a]
    g = gcd(*ints)
    return tuple(Fraction(v // g) for v in ints)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    rows = [list(r) for r in a]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        # the calculus's block matrices are mostly 0 and 1: skip no-op products
        if rows[r][c] != 1:
            inv = ONE / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    reduced = tuple(tuple(row) for row in rows[:r])
    return reduced, tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def left_solve(e: Mat, m: Mat) -> Mat | None:
    """A matrix F with F m = e, or None when a row of e leaves the row
    space of m.

    One rref of [m^T | e^T]; the entries of F at free columns are 0, so
    F is the unique solution when m has independent rows.
    """
    k = len(m)
    red, pivots = rref(hcat(mat_t(m), mat_t(e)))
    if pivots and pivots[-1] >= k:
        return None
    ft = [(ZERO,) * len(e)] * k
    for row, c in zip(red, pivots):
        ft[c] = row[k:]
    return tuple(zip(*ft)) if ft else tuple(() for _ in e)


def inverse(a: Mat) -> Mat | None:
    """Inverse of a square matrix, or None when a is singular or not square."""
    n = len(a)
    if any(len(r) != n for r in a):
        return None
    return left_solve(identity(n), a)


def nullspace(a: Mat, ncols: int | None = None) -> list[Vec]:
    """Basis of {x : A x = 0}; pass ncols when A may be empty."""
    if not a:
        if ncols is None:
            raise ValueError("need ncols for an empty matrix")
        return list(identity(ncols))
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [ZERO] * ncols
        x[fc] = ONE
        for ri, pc in enumerate(pivots):
            x[pc] = -red[ri][fc]
        basis.append(tuple(x))
    return basis


def row_space_canonical(rows: Sequence[Vec]) -> Mat:
    """Canonical (rref, primitive-scaled) basis of the row space."""
    # an rref row leads with a 1, so its primitive ray is sign-normalised
    red, _ = rref(tuple(rows))
    return tuple(primitive_ray(r) for r in red if not is_zero_vec(r))


MAX_SUPPORTS = 1 << 15
"""Most candidate supports `extreme_rays` will try.  For scale: 18
generators in R^4 give 16,663, enumerated in full in about 1 s."""


def _integer_rows(a: Mat) -> list[list[int]]:
    """Each row times the lcm of its denominators: integers, same nullspace."""
    out = []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _eliminate(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of an integer
    matrix, in place.

    Returns the pivot columns and the last pivot d.  Afterwards pivot row
    i holds d in column pivots[i], every other row holds 0 there, and
    each row is d times the corresponding row of the rref.  Each step
    divides by the previous pivot, and the division is exact: every entry
    is a minor of the input (Bareiss 1968).
    """
    pivots: list[int] = []
    prev = 1
    k = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(k, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[k], m[pr] = m[pr], m[k]
        top = m[k]
        p = top[c]
        for i, row in enumerate(m):
            if i != k:
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        k += 1
        if k == len(m):
            break
    return pivots, prev


def _positive_kernel_ray(cols: list[tuple[int, ...]]) -> list[int] | None:
    """Coprime generator of the kernel of the integer matrix with these
    columns, when that kernel is one-dimensional and can be signed
    strictly positive; None otherwise."""
    m = [list(r) for r in zip(*cols)]
    pivots, d = _eliminate(m)
    if len(cols) - len(pivots) != 1:
        return None
    free = next(c for c in range(len(cols)) if c not in pivots)
    # row i reads d w[pivots[i]] + m[i][free] w[free] = 0; take w[free] = d
    gen = [d] * len(cols)
    for row, pc in zip(m, pivots):
        gen[pc] = -row[free]
    if all(x < 0 for x in gen):
        gen = [-x for x in gen]
    elif not all(x > 0 for x in gen):
        return None
    g = gcd(*gen)
    return [x // g for x in gen]


def _ray_stream(a: Mat, ncols: int) -> Iterator[Vec]:
    """Extreme rays of {w >= 0 : A w = 0}, lazily, in `extreme_rays` order.

    The size budget is checked before the first ray is asked for.
    """
    if ncols == 0:
        return iter(())
    if not a:
        # free nonnegative orthant: extreme rays are the unit vectors
        return iter(identity(ncols))
    rows = _integer_rows(a)
    r = len(_eliminate([row[:] for row in rows])[0])
    max_support = min(ncols, r + 1)
    count = sum(comb(ncols, s) for s in range(1, max_support + 1))
    if count > MAX_SUPPORTS:
        raise ValueError(
            f"cone too large for exact ray enumeration: k={ncols} columns of rank {r} "
            f"give {count} candidate supports, above the budget of {MAX_SUPPORTS}"
        )
    return _minimal_support_rays(list(zip(*rows)), ncols, max_support)


def _minimal_support_rays(cols: list[tuple[int, ...]], ncols: int,
                          max_support: int) -> Iterator[Vec]:
    found: list[int] = []  # supports of the rays yielded so far, as bit masks
    for size in range(1, max_support + 1):
        for support in combinations(range(ncols), size):
            mask = sum(1 << j for j in support)
            # the kernel of a strict superset of a found support contains
            # that ray, so it is not one-dimensional and strictly positive
            if any(f & mask == f for f in found):
                continue
            gen = _positive_kernel_ray([cols[j] for j in support])
            if gen is None:
                continue
            found.append(mask)
            w = [ZERO] * ncols
            for j, val in zip(support, gen):
                w[j] = Fraction(val)
            yield tuple(w)


def extreme_rays(a: Mat, ncols: int) -> list[Vec]:
    """Extreme rays of the pointed cone {w >= 0 : A w = 0}.

    Enumerates candidate supports by size, then in `combinations` order:
    a ray with support S exists iff the columns of A restricted to S have
    a one-dimensional nullspace whose generator can be signed strictly
    positive.  Supports of extreme rays have size at most rank(A_S) + 1,
    so subsets up to full rank + 1 suffice, and supports that strictly
    contain one already found are skipped.  Arithmetic is over integers
    (rows scaled to integers, fraction-free elimination); rays are
    coprime integer vectors.  Raises ValueError when the number of
    candidate supports exceeds MAX_SUPPORTS.
    """
    return list(_ray_stream(a, ncols))


def nonneg_solve(gens: Sequence[Vec], v: Vec) -> Vec | None:
    """Coefficients lam >= 0 with sum lam_i g_i = v, or None.

    Homogenize: rays of {(lam, s) >= 0 : G lam - s v = 0} with s > 0
    witness membership of v in the cone hull of gens.
    """
    k = len(gens)
    if is_zero_vec(v):
        return tuple([ZERO] * k)
    if k == 0:
        return None
    d = len(v)
    a = tuple(
        tuple(gens[j][i] for j in range(k)) + (-v[i],)
        for i in range(d)
    )
    for ray in _ray_stream(a, k + 1):
        s = ray[k]
        if s > 0:
            return tuple(x / s for x in ray[:k])
    return None


def cone_contains(gens: Sequence[Vec], v: Vec) -> bool:
    """Exact membership of v in the closed cone of nonnegative combinations."""
    return nonneg_solve(gens, v) is not None
