"""Exact linear algebra over the integers for small polyhedral cone problems.

Vectors and matrices are tuples of Python ints.  Rational data enters
through `frac`, `vec` and `mat`, the one parse boundary, and
`integer_form` scales it to integers with one positive denominator.
Cones are homogeneous, so every kernel here works on those integers:
`rref`, `left_solve` and `inverse`, rational by nature, return an
integer matrix and a positive denominator, and only `nonneg_solve`
returns fractions.Fraction coefficients.  The kernels refuse a matrix
entry that is not an int with a TypeError naming its row and column.
The central primitive is extreme-ray enumeration for cones of the form
{w >= 0 : A w = 0}: incremental double description, one independent
row of A at a time, with a combinatorial adjacency test on ray supports.  Rank, rref and
that enumeration share one fraction-free (Bareiss) elimination.
Dimensions stay tiny (a handful of rows, at most a few dozen columns),
and an enumeration that holds more than MAX_RAYS rays after a cut is
refused.  No external solver is used: verdicts built on these routines
are meant to certify counterexamples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


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


def vec(xs: Iterable) -> tuple:
    """The exact values of `frac` inputs; integral ones as ints."""
    out = []
    for x in xs:
        if type(x) is list and len(x) == 2 and type(x[0]) is int and x[1] == 1:
            x = x[0]                       # [k, 1], as JSON writes an integer
        elif type(x) is not int:
            x = frac(x)
            if x.denominator == 1:
                x = x.numerator
        out.append(x)
    return tuple(out)


def mat(rows: Iterable[Iterable]) -> tuple:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def integer_form(rows: Sequence[Sequence]) -> tuple[Mat, int]:
    """Rational rows times the least common denominator d > 0 of their
    entries: the integer matrix and d."""
    d = lcm(*(x.denominator for r in rows for x in r))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in r) for r in rows), d


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def dot(a: Vec, b: Vec) -> int:
    return sum(map(mul, a, b))


def matvec(a: Mat, x: Vec) -> Vec:
    return tuple(sum(map(mul, row, x)) for row in a)


def mat_t(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def matmul(a: Mat, b: Mat) -> Mat:
    bt = mat_t(b)
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in a)


def identity(d: int) -> Mat:
    return tuple(tuple(int(j == i) for j in range(d)) for i in range(d))


def zeros(rows: int, cols: int) -> Mat:
    return ((0,) * cols,) * rows


def hcat(*blocks: Mat) -> Mat:
    """Blocks of equal row count side by side; blocks without rows are skipped."""
    return tuple(sum(rows, ()) for rows in zip(*(b for b in blocks if b)))


def mscale(c: int, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in r) for r in a)


def madd(a: Mat, b: Mat) -> Mat:
    return tuple(vadd(ra, rb) for ra, rb in zip(a, b))


def integer_ray(a: Vec) -> Vec:
    """a divided by the gcd of its entries: coprime ints in the same
    direction, all zero for a = 0."""
    g = gcd(*a)
    return tuple(x // g for x in a) if g > 1 else tuple(a)


def _integers(a: Mat, name: str = "a") -> None:
    """Refuse an entry of `a` that is not an int, with a TypeError naming
    its row and column: the kernels below divide exactly only on ints."""
    if set(map(type, chain.from_iterable(a))) - {int}:
        i, j, x = next((i, j, x) for i, row in enumerate(a) for j, x in enumerate(row)
                       if type(x) is not int)
        raise TypeError(f"{name}[{i}][{j}]: expected an int, got {x!r}")


def rref(a: Mat) -> tuple[Mat, int, tuple[int, ...]]:
    """The reduced row echelon form as (r, d, pivot columns), r an
    integer matrix and d > 0 with r / d the rref: the rows of the integer
    elimination `_eliminate`, which are its last pivot times the rref's
    (the rref is unique)."""
    _integers(a)
    rows = list(a)
    pivots, d = _eliminate(rows)
    s = 1 if d > 0 else -1
    return tuple(tuple(s * x for x in row) for row in rows[:len(pivots)]), s * d, tuple(pivots)


def rank(a: Mat) -> int:
    _integers(a)
    return len(_eliminate(list(a))[0])


def left_solve(e: Mat, m: Mat) -> tuple[Mat, int] | None:
    """(F, d) with d > 0 and (F / d) m = e, or None when a row of e
    leaves the row space of m.

    One rref of [m^T | e^T]; the entries of F at free columns are 0, so
    F / d is the unique solution when m has independent rows.
    """
    _integers(e, "e")
    _integers(m, "m")
    k = len(m)
    red, d, pivots = rref(hcat(mat_t(m), mat_t(e)))
    if pivots and pivots[-1] >= k:
        return None
    ft = [(0,) * len(e)] * k
    for row, c in zip(red, pivots):
        ft[c] = row[k:]
    return (tuple(zip(*ft)) if ft else tuple(() for _ in e)), d


def inverse(a: Mat) -> tuple[Mat, int] | None:
    """(F, d) with F / d the inverse of a square matrix, or None when a
    is singular or not square."""
    _integers(a)
    n = len(a)
    if any(len(r) != n for r in a):
        return None
    return left_solve(identity(n), a)


def nullspace(a: Mat, ncols: int | None = None) -> list[Vec]:
    """Basis of {x : A x = 0}, each vector the rref's denominator times
    the usual one (1 at its free column); pass ncols when A may be empty."""
    if not a:
        if ncols is None:
            raise ValueError("need ncols for an empty matrix")
        return list(identity(ncols))
    ncols = len(a[0])
    red, d, pivots = rref(a)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [0] * ncols
        x[fc] = d
        for row, pc in zip(red, pivots):
            x[pc] = -row[fc]
        basis.append(tuple(x))
    return basis


def row_space_canonical(rows: Sequence[Vec]) -> Mat:
    """Canonical basis of the row space: the rref's rows, each scaled to
    coprime integers (leading positive)."""
    return tuple(map(integer_ray, rref(tuple(rows))[0]))


MAX_RAYS = 4096
"""Budget of `extreme_rays`: the most rays the double description may
hold.  For scale: `nonneg_solve` on 18 generators in R^4 peaks at 724
rays, and the 24 seeded columns of rank 4 that tools/bench.py probes at
2,057."""


def _eliminate(m: list[Sequence[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of an integer
    matrix, given as a list of rows, in place: rows are replaced, never
    mutated.

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


def extreme_rays(a: Mat, ncols: int) -> list[Vec]:
    """Extreme rays of the pointed cone {w >= 0 : A w = 0}, as coprime
    integer vectors, ordered by support size and then by support in
    `combinations` order.

    Incremental double description (Motzkin et al. 1953; Fukuda & Prodon
    1996) over integer rows: start from the unit vectors of the orthant
    and cut by one independent row at a time.  The rays on which the row
    is 0 stay; each adjacent pair of a positive ray p and a negative ray q
    adds (a p) q - (a q) p, whose support is supp(p) | supp(q).  The pair
    is adjacent when no third ray's support lies inside that union, which
    needs the union to be at most rank + 2 columns, rank that of the rows
    cut so far.  Raises ValueError as soon as the rays held pass
    MAX_RAYS; they only grow within a cut, so this refuses exactly the
    cones with more than MAX_RAYS rays after some cut.
    """
    _integers(a)
    if ncols == 0:
        return []
    # a row is a pivot of the transpose iff the rows before it do not span it
    cuts, _ = _eliminate(list(zip(*a)))
    # rays as (support bit mask, coprime nonnegative ints)
    rays = [(1 << j, [int(i == j) for i in range(ncols)]) for j in range(ncols)]
    for done, i in enumerate(cuts):
        row = a[i]
        masks = [mask for mask, _ in rays]
        kept, pos, neg = [], [], []
        for ray in rays:
            s = sum(map(mul, row, ray[1]))
            if s:
                (pos if s > 0 else neg).append((s, ray))
            else:
                kept.append(ray)
        rays = kept
        for sp, (mp, p) in pos:
            for sq, (mq, q) in neg:
                u = mp | mq
                if u.bit_count() > done + 2 or any(m | u == u and m != mp and m != mq
                                                   for m in masks):
                    continue
                w = [sp * y - sq * x for x, y in zip(p, q)]
                g = gcd(*w)
                rays.append((u, [x // g for x in w]))
                if len(rays) > MAX_RAYS:
                    raise ValueError(
                        f"cone too large for exact ray enumeration: k={ncols} columns of rank "
                        f"{len(cuts)} hold more than {MAX_RAYS} rays in cut {done + 1}")
    rays.sort(key=lambda ray: (ray[0].bit_count(), [j for j, x in enumerate(ray[1]) if x]))
    return [tuple(w) for _, w in rays]


def nonneg_solve(gens: Sequence, v: Sequence) -> tuple[Fraction, ...] | None:
    """Coefficients lam >= 0 with sum lam_i g_i = v, or None; gens and v
    may be rational, and lam is exact.

    Homogenize: rays of {(lam, s) >= 0 : G lam - s v = 0} with s > 0
    witness membership of v in the cone hull of gens.  The answer is the
    first such ray in `extreme_rays` order, scaled to s = 1; the whole
    ray list is built, under that function's MAX_RAYS budget.
    """
    k = len(gens)
    if not any(v):
        return (Fraction(0),) * k
    if k == 0:
        return None
    a, _ = integer_form(tuple(tuple(g[i] for g in gens) + (-x,) for i, x in enumerate(v)))
    for ray in extreme_rays(a, k + 1):
        s = ray[k]
        if s > 0:
            return tuple(Fraction(x, s) for x in ray[:k])
    return None


def cone_contains(gens: Sequence[Vec], v: Vec) -> bool:
    """Exact membership of v in the closed cone of nonnegative combinations."""
    return nonneg_solve(gens, v) is not None
