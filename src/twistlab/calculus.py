"""Exact conic calculus: product existence, predicted wavefront sets,
cone algebra conditions, and the pullback transform.

All verdicts here are exact.  Rational inputs (theta, maps) are
brought to integer form once, T / q with T an integer matrix and q > 0,
and the equations are written over the integers: x = (1/2) theta xi
becomes 2q x - T xi = 0, which has the same kernel and the same image
cone, and a map such as (x, xi) -> x + (1/2) theta xi is applied times
2q.  Every yes/no
verdict is one witness search (`_witness`) over tuples of generator
cones, or a few, chosen by the complement search `_escape`.  Its
workhorse is nonnegative feasibility with "nonzero" side conditions: a
pointed cone C = {w >= 0 : A w = 0} admits a point with S_j w != 0 for
every selector S_j if and only if each selector individually is nonzero
somewhere on C (a convex cone is never covered by finitely many proper
subspace slices), and an explicit witness is a positive combination
sum t^i r_i of the extreme rays r_i for all but finitely many t > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from operator import mul

from .matrices import AntisymmetricMatrix
from .rational import (
    Mat,
    Vec,
    dot,
    extreme_rays,
    hcat,
    identity,
    integer_form,
    integer_ray,
    inverse,
    madd,
    mat,
    mat_t,
    matmul,
    matvec,
    mscale,
    nullspace,
    vneg,
    zeros,
)
from .cones import (
    ConicSet,
    PolyhedralCone,
    _fourier_rotation,
    _hform,
    _image,
    _kernel_slice,
    _projector,
    _stacked,
    full_space,
    gencone_member,
    polyhedral,
    set_gencones,
)


# ---------------------------------------------------------------------------
# shared rational plumbing

def as_rational_antisym(theta, n: int) -> Mat:
    """Rational antisymmetric matrix from floats, Fractions, or wrapper."""
    if isinstance(theta, AntisymmetricMatrix):
        rows = theta.matrix.tolist()
    elif hasattr(theta, "tolist"):
        rows = theta.tolist()
    else:
        rows = [list(r) for r in theta]
    tm = mat(rows)
    if len(tm) != n or any(len(r) != n for r in tm):
        raise ValueError(f"theta must be {n}x{n}")
    for i in range(n):
        for j in range(n):
            if tm[i][j] != -tm[j][i]:
                raise ValueError("theta must be antisymmetric")
    return tm


def _flip(n: int) -> Mat:
    """F: (x, xi) -> (x, -xi) on R^{2n}."""
    return _projector(n, 0) + mscale(-1, _projector(n, 1))


def _half_dim(wfu: ConicSet, wfv: ConicSet) -> int:
    if wfu.dim != wfv.dim or wfu.dim % 2 != 0:
        raise ValueError("wavefront sets must share an even dimension")
    return wfu.dim // 2


def feasible_with_nonzero(a: Mat, ncols: int, selectors: list[Mat]) -> Vec | None:
    """A point of {w >= 0 : A w = 0} with S w != 0 for every selector, or None.

    Exactness: the cone is covered by the union of the selector kernels
    iff it lies inside one of them, which happens iff that selector
    vanishes on every extreme ray.
    """
    rays = extreme_rays(a, ncols)
    if not rays or not all(any(any(dot(row, r) for row in sel) for r in rays) for sel in selectors):
        return None
    # deterministic generic combination: w(t) = sum t^i r_i
    for t in range(1, 1 + max(4, len(rays) * (len(selectors) + 1) * 4)):
        w = tuple(sum(t ** i * x for i, x in enumerate(col)) for col in zip(*rays))
        if all(any(dot(row, w) for row in sel) for sel in selectors):
            return w
    raise RuntimeError("generic witness search failed; selector degrees exceeded bound")


def _witness(sets: tuple[ConicSet, ...], rows: Mat, *nonzero: Mat) -> tuple[Vec, ...] | None:
    """Points p_i in sets[i] whose stack p = (p_1, ..., p_m) has rows p = 0
    and S p != 0 for every S in nonzero, or None.

    Every point also satisfies the exclude selectors of its generator
    cone.  This is the one search behind every exact yes/no verdict: one
    `feasible_with_nonzero` call per tuple of `_stacked` generator cones.
    The stacked point is scaled to a primitive ray as a whole, so the
    points keep their relation.
    """
    ends = tuple(accumulate(s.dim for s in sets))
    for g, excludes in _stacked(sets):
        selectors = [matmul(e, g) for e in (*nonzero, *excludes)]
        w = feasible_with_nonzero(matmul(rows, g), len(g[0]), selectors)
        if w is not None:
            point = integer_ray(matvec(g, w))
            return tuple(point[e - s.dim:e] for s, e in zip(sets, ends))
    return None


MAX_PIECE_SEARCHES = 1 << 9
"""Most `_piece_witness` searches of one `_escape` call; past it,
ValueError."""


def _complement(gc: PolyhedralCone, ycols: list[tuple[int, ...]]):
    """The pieces of the complement of the target cone gc that may hold a
    point of cone(ycols), each {y : A y = 0, B y >= 0} as (A, B, strict),
    strict meaning B y > 0 for B's one row: the open half-spaces c y < 0
    for c = +-a, a an equality of `_hform`, and c = h, a facet, unless
    every column has c y >= 0; and hull(gc) intersect ker E, in its own
    H-form, for each selector E that cuts the hull."""
    eqs, facets = _hform(gc.generators)
    for c in (*eqs, *map(vneg, eqs), *facets):
        if any(sum(map(mul, c, y)) < 0 for y in ycols):
            yield (), (vneg(c),), True
    for e in gc.excludes:
        if (kept := _kernel_slice(e, gc.generators)):
            yield *_hform(kept), False


def _piece_witness(parts: tuple[ConicSet, ...], ymap: Mat, pieces: tuple,
                   den: int = 1) -> tuple[Vec, ...] | None:
    """Nonzero members p_i of parts[i] whose image y = ymap p / den is
    nonzero and lies in every piece, as (p_1, ..., p_m, primitive y), or
    None.  One `_witness` call, with a slack s >= 0 per inequality row b
    of the pieces, b ymap p - den s = 0, and s != 0 for a strict piece;
    den keeps s the slack of the exact map, so witnesses do not depend on
    how ymap is scaled."""
    eqs, ineqs = (sum((piece[i] for piece in pieces), ()) for i in (0, 1))
    width, k = len(ymap[0]), len(ineqs)

    def coords(lo: int, n: int) -> Mat:
        """The rows picking n coordinates from lo of the point (p, s)."""
        return hcat(zeros(n, lo), identity(n), zeros(n, width + k - lo - n))

    rows = hcat(matmul(eqs + ineqs, ymap), zeros(len(eqs), k) + mscale(-den, identity(k)))
    starts = accumulate((len(piece[1]) for piece in pieces), initial=width)
    # a strict piece keeps y != 0, and a selector of p_i's cone keeps p_i != 0
    nonzero = [coords(lo, 1) for lo, piece in zip(starts, pieces) if piece[2]]
    nonzero = nonzero or [hcat(ymap, zeros(len(ymap), k))]
    nonzero += [coords(lo, s.dim) for lo, s in zip(accumulate((s.dim for s in parts), initial=0), parts)
                if not s.components[0].excludes]
    orthant = (polyhedral(identity(k)),) if k else ()
    w = _witness((*parts, *orthant), rows, *nonzero)
    return w and (*w[:len(parts)], integer_ray(matvec(ymap, sum(w[:len(parts)], ()))))


def _escape(sets: tuple[ConicSet, ...], ymap: Mat, target: ConicSet,
            den: int = 1) -> tuple[Vec, ...] | None:
    """Nonzero members p_i of sets[i] whose image y = ymap (p_1, ..., p_m)
    / den is nonzero and outside target, as (p_1, ..., p_m, primitive y),
    or None; ymap is an integer matrix and den > 0.

    Per tuple of the sets' generator cones.  A target cone whose hull
    holds every image column and whose selectors do not cut it holds the
    tuple's image, with no search.  Otherwise a depth-first search starts
    from any image point and, while its witness lies in a target cone,
    branches over the complement pieces of that cone (`_complement`);
    each conjunction of pieces is one `_piece_witness` search.  A point
    outside target lies in one piece of every target cone, so the search
    finds one if there is one, within MAX_PIECE_SEARCHES searches.
    """
    tcones = set_gencones(target)
    budget = MAX_PIECE_SEARCHES

    def search(parts, ycols, chosen=()):
        nonlocal budget
        if (budget := budget - 1) < 0:
            raise ValueError(f"complement search past its budget of {MAX_PIECE_SEARCHES} "
                             f"piece choices over {len(tcones)} target cones")
        w = _piece_witness(parts, ymap, chosen, den)
        held = w and next((gc for gc in tcones if gencone_member(gc, w[-1])), None)
        if not held:
            return w
        return next(filter(None, (search(parts, ycols, chosen + (piece,))
                                  for piece in _complement(held, ycols))), None)

    for cones in product(*(set_gencones(s) for s in sets)):
        parts = tuple(ConicSet(s.dim, (c,)) for s, c in zip(sets, cones))
        ycols = [integer_ray(y) for y in mat_t(matmul(ymap, next(_stacked(parts))[0]))]
        if all(next(_complement(gc, ycols), None) for gc in tcones):
            if (w := search(parts, ycols)) is not None:
                return w
    return None


# ---------------------------------------------------------------------------
# existence condition for the twisted product

@dataclass(frozen=True)
class ExistenceResult:
    holds: bool
    witness: tuple[Vec, Vec] | None = None
    phrasing: str = "position-shift"

    def __bool__(self) -> bool:
        return self.holds


def existence_condition(wfu: ConicSet, wfv: ConicSet, theta) -> ExistenceResult:
    """Check that x = (1/2) theta xi has no nonzero solution with
    (x, xi) in wfu and (x, -xi) in wfv.

    Returns holds=True when the twisted product criterion is satisfied;
    otherwise holds=False together with the violating pair of phase
    space points ((x, xi), (x, -xi)).
    """
    n = _half_dim(wfu, wfv)
    tm, q = integer_form(as_rational_antisym(theta, n))
    # q = F p, and p lies on the slice x = (1/2) theta xi: 2q x - T xi = 0
    slice_rows = hcat(mscale(2 * q, identity(n)), mscale(-1, tm))
    mu = mscale(-1, _flip(n)) + slice_rows
    mv = identity(2 * n) + zeros(n, 2 * n)
    w = _witness((wfu, wfv), hcat(mu, mv), hcat(identity(2 * n), zeros(2 * n, 2 * n)))
    return ExistenceResult(w is None, w)


def existence_condition_theta_inv(wfu: ConicSet, wfv: ConicSet, theta) -> ExistenceResult:
    """Same criterion, phrased through the inverse of theta.

    For invertible theta the condition reads: no x != 0 has
    (x, 2 theta^{-1} x) in wfu and (x, -2 theta^{-1} x) in wfv.  This is
    an independent elimination path used to cross-check
    `existence_condition`.
    """
    n = _half_dim(wfu, wfv)
    tm, q = integer_form(as_rational_antisym(theta, n))
    if (tinv := inverse(tm)) is None:
        raise ValueError("theta is not invertible; use existence_condition")
    # theta^{-1} = q ti / d
    ti, d = tinv
    px, pxi = _projector(n, 0), _projector(n, 1)
    ti2px, dpxi = matmul(mscale(2 * q, ti), px), mscale(d, pxi)
    zero = zeros(n, 2 * n)
    # xi_p = 2 theta^{-1} x_p, x_q = x_p, xi_q = -2 theta^{-1} x_q, the
    # first and last times d
    mu = madd(dpxi, mscale(-1, ti2px)) + mscale(-1, px) + zero
    mv = zero + px + madd(dpxi, ti2px)
    w = _witness((wfu, wfv), hcat(mu, mv), hcat(px, zero))
    return ExistenceResult(w is None, w, "theta-inverse")


# ---------------------------------------------------------------------------
# predicted wavefront sets of the two twisted operations

def predicted_product_wf(wfu: ConicSet, wfv: ConicSet, theta) -> ConicSet:
    """Conic superset of the wavefront set of the twisted product.

    Three families of components:
      * interaction pairs p from wfu, q from wfv constrained by
        x_p + (1/2) theta xi_p = x_q - (1/2) theta xi_q, contributing
        p + ((1/2) theta xi_q, xi_q);
      * points of wfu on the slice x + (1/2) theta xi = 0 paired with a
        trivial second factor, contributing p itself;
      * symmetrically for wfv on x - (1/2) theta xi = 0, contributing
        ((1/2) theta xi_q, xi_q).

    Every component keeps the selectors that `cones._image` can carry
    forward: a single-factor component all of its factor's selectors, an
    interaction component those that are a function of its image point;
    it is closed where a selector is dropped.  On its slice a point q of
    wfv already reads ((1/2) theta xi_q, xi_q), so both single-factor
    families are the factor's own points there.
    """
    return _predicted(wfu, wfv, theta)


def predicted_star_wf(wfu: ConicSet, wfv: ConicSet, theta) -> ConicSet:
    """Conic superset for the twisted convolution, via the frequency
    side: the product prediction conjugated by the Fourier rotation R,
    that is, of R^-1 wfu and R^-1 wfv, mapped by R."""
    return _predicted(wfu, wfv, theta, _fourier_rotation(_half_dim(wfu, wfv)))


def _predicted(wfu: ConicSet, wfv: ConicSet, theta, rot: Mat | None = None) -> ConicSet:
    """`predicted_product_wf` of rot^-1 wfu and rot^-1 wfv, mapped by rot
    (the identity when None): one `_image` call per family, whose rows and
    output map act on the factors' own points through rot^-1.  The slices
    x +- (1/2) theta xi and the interaction family's output map are
    written times 2q, theta = T / q."""
    n = _half_dim(wfu, wfv)
    tm, q = integer_form(as_rational_antisym(theta, n))
    px, pxi = _projector(n, 0), _projector(n, 1)
    theta_xi, qpx, qpxi = matmul(tm, pxi), mscale(2 * q, px), mscale(2 * q, pxi)
    plus, minus = madd(qpx, theta_xi), madd(qpx, mscale(-1, theta_xi))
    eye = identity(2 * n)
    # (sets, rows, out) with one block per set
    families = [((wfu, wfv), (mscale(-1, plus), minus), (mscale(2 * q, eye), theta_xi + qpxi)),
                ((wfu,), (plus,), (eye,)), ((wfv,), (minus,), (eye,))]
    if rot is not None:
        back, _ = inverse(rot)
        families = [(sets, [matmul(b, back) for b in rows], [matmul(rot, matmul(b, back)) for b in out])
                    for sets, rows, out in families]
    comps = [c for sets, rows, out in families for c in _image(sets, hcat(*rows), hcat(*out))]
    # drop duplicate components (same generators and selectors)
    uniq: dict[tuple, PolyhedralCone] = {}
    for c in comps:
        uniq.setdefault((tuple(sorted(c.generators)), c.excludes), c)
    return ConicSet(2 * n, tuple(uniq.values()))


# ---------------------------------------------------------------------------
# cone algebra conditions

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    witness: tuple | None = None
    note: str = ""
    exact = True  # every condition is settled exactly, not a field


@dataclass(frozen=True)
class ShiftAlgebraReport:
    """Outcome of the three cone-algebra conditions for a pair
    (gamma1, gamma2) of cones and an antisymmetric coupling."""

    additive_salient: ConditionCheck
    origin_excluded: ConditionCheck
    shift_stability: ConditionCheck

    @property
    def conditions(self) -> tuple[ConditionCheck, ...]:
        return (self.additive_salient, self.origin_excluded, self.shift_stability)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    exact, verdict = True, "exact"


def shift_algebra_check(gamma1: ConicSet, gamma2: ConicSet, theta) -> ShiftAlgebraReport:
    """Evaluate the three conditions under which the conic calculus is
    closed for the pair (gamma1, gamma2): gamma2 additively salient,
    origin excluded, and gamma1 stable under x -> x + (1/2) theta xi for
    xi in gamma2.

    Every verdict is exact, and every witness is made of members: an
    additive-salient witness is (p, -p), or (p, q, primitive(p + q)) with
    p + q outside gamma2; a shift-stability witness (x0, xi, pt) has x0
    in gamma1, xi in gamma2 and pt = primitive(x0 + (1/2) theta xi)
    outside gamma1.  Closure and shift stability are `_escape` searches;
    scaling xi absorbs the t > 0 of x0 + t (1/2) theta xi.
    """
    if gamma1.dim != gamma2.dim:
        raise ValueError("cones must live in the same dimension")
    eye, zero = identity(gamma1.dim), zeros(gamma1.dim, gamma1.dim)
    tm, q = integer_form(as_rational_antisym(theta, gamma1.dim))
    # salience, within one cone and across two: no members p, q with p + q = 0
    if (w := _witness((gamma2, gamma2), hcat(eye, eye), hcat(eye, zero))) is not None:
        salient = ConditionCheck("additive-salient", False, w, "two members sum to zero")
    elif (w := _escape((gamma2, gamma2), hcat(eye, eye), gamma2)) is not None:
        salient = ConditionCheck("additive-salient", False, w, "sum of two members leaves the set")
    else:
        salient = ConditionCheck("additive-salient", True,
                                 note="no two members sum to zero or leave the set")
    origin = ConditionCheck("origin-excluded", True,
                            note="conic sets exclude the origin by representation")
    # x0 + (1/2) theta xi = (2q x0 + T xi) / 2q
    w = _escape((gamma1, gamma2), hcat(mscale(2 * q, eye), tm), gamma1, 2 * q)
    stable = ConditionCheck("shift-stability", w is None, w, "shifted point leaves gamma1" if w
                            else "no member of gamma1 shifted along gamma2 leaves it")
    return ShiftAlgebraReport(salient, origin, stable)


# ---------------------------------------------------------------------------
# pair condition and pullback

@dataclass(frozen=True)
class PairConditionResult:
    holds: bool
    witness: tuple[Vec, Vec] | None = None

    def __bool__(self) -> bool:
        return self.holds


def pair_condition(gamma: ConicSet) -> PairConditionResult:
    """Check that gamma never meets its own frequency reflection:
    no (x, xi) in gamma with (x, -xi) also in gamma.  Exact."""
    if gamma.dim % 2 != 0:
        raise ValueError("phase space dimension must be even")
    flip, eye = _flip(gamma.dim // 2), identity(gamma.dim)
    w = _witness((gamma, gamma), hcat(mscale(-1, flip), eye),
                 hcat(eye, zeros(gamma.dim, gamma.dim)))
    return PairConditionResult(w is None, w)


@dataclass(frozen=True)
class PullbackResult:
    defined: bool
    wavefront: ConicSet
    undefined_witness: Vec | None = None


def wf_pullback(s: ConicSet, amap) -> PullbackResult:
    """Pull a phase space conic set back through the linear map
    y = A x (A an m-by-n rational matrix, s living over y-space).

    The pullback is flagged undefined when s meets the conormal set
    {(0, eta) : A^T eta = 0, eta != 0}.  The returned set collects
    (x, A^T eta) over pairs with (A x, eta) in s, together with
    ker(A) x {0} directions contributed by the loss of injectivity.
    """
    am = mat([list(r) for r in (amap.tolist() if hasattr(amap, "tolist") else amap)])
    if not am or not am[0]:
        raise ValueError("pullback map must have at least one row and one column")
    m = len(am)
    n = len(am[0])
    if s.dim != 2 * m:
        raise ValueError(f"set dimension {s.dim} does not match map rows {m}")
    px, pxi = _projector(m, 0), _projector(m, 1)
    # A = ai / d
    ai, d = integer_form(am)
    at = mat_t(ai)
    # s meets the conormal set: (y, eta) in s with y = 0, A^T eta = 0, eta != 0
    w = _witness((s,), px + matmul(at, pxi), pxi)
    # (x, A^T eta) over x in R^n and (y, eta) in s with A x = y, both
    # times d; a selector (E_y, E_eta) on (y, eta) carries as (E_y A, F)
    # on (x, xi) when E_eta = F A^T, which holds for every selector when
    # A is invertible
    out_comps = list(_image((full_space(n), s), hcat(ai, mscale(-d, px)),
                            hcat(mscale(d, identity(n)), zeros(n, 2 * m))
                            + hcat(zeros(n, n), matmul(at, pxi))))
    kernel = nullspace(ai, n)
    if kernel:
        kgens = []
        for b in kernel:
            v = integer_ray(b + (0,) * n)
            kgens += [v, vneg(v)]
        out_comps.append(PolyhedralCone(tuple(kgens)))
    return PullbackResult(w is None, ConicSet(2 * n, tuple(out_comps)),
                          None if w is None else w[0])
