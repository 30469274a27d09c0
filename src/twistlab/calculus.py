"""Exact conic calculus: product existence, predicted wavefront sets,
cone algebra conditions, and the pullback transform.

All verdicts here are exact over rational arithmetic.  Every yes/no
verdict is one witness search (`_witness`) over tuples of generator
cones.  Its workhorse is nonnegative feasibility with "nonzero" side
conditions: a pointed cone C = {w >= 0 : A w = 0} admits a point with
S_j w != 0 for every selector S_j if and only if each selector
individually is nonzero somewhere on C (a convex cone is never covered
by finitely many proper subspace slices), and an explicit witness is a
positive combination sum t^i r_i of the extreme rays r_i for all but
finitely many t > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

from .matrices import AntisymmetricMatrix
from .rational import (
    Mat,
    Vec,
    cone_contains,
    extreme_rays,
    hcat,
    identity,
    inverse,
    is_zero_vec,
    madd,
    mat,
    mat_t,
    matmul,
    matvec,
    mscale,
    nullspace,
    primitive_ray,
    vadd,
    vneg,
    vscale,
    zeros,
)
from .cones import (
    ConicSet,
    PolyhedralCone,
    _projector,
    full_space,
    member,
    set_gencones,
    wf_fourier_rotate,
)

ZERO = Fraction(0)
ONE = Fraction(1)


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
    return _projector(n, 0) + mscale(-ONE, _projector(n, 1))


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
    if not rays:
        return None
    for sel in selectors:
        if all(is_zero_vec(matvec(sel, r)) for r in rays):
            return None
    # deterministic generic combination: w(t) = sum t^i r_i
    for t in range(1, 1 + max(4, len(rays) * (len(selectors) + 1) * 4)):
        w = tuple(ZERO for _ in range(ncols))
        power = ONE
        for r in rays:
            w = vadd(w, vscale(power, r))
            power *= t
        if all(not is_zero_vec(matvec(sel, w)) for sel in selectors):
            return w
    raise RuntimeError("generic witness search failed; selector degrees exceeded bound")


def _stacked(sets: tuple[ConicSet, ...]):
    """For each tuple of generator cones, one from each set, in
    `itertools.product` order: the matrix G whose columns are the cones'
    generators stacked block-diagonally, so that G w = (p_1, ..., p_m)
    with p_i in the hull of the i-th cone for every w >= 0, and the cones'
    exclude selectors as selectors on that stacked point."""
    ends = tuple(accumulate(s.dim for s in sets))
    pads = [(e - s.dim, ends[-1] - e) for s, e in zip(sets, ends)]

    def lift(v: Vec, i: int) -> Vec:
        return (ZERO,) * pads[i][0] + v + (ZERO,) * pads[i][1]

    for cones in product(*(set_gencones(s) for s in sets)):
        g = mat_t([lift(v, i) for i, c in enumerate(cones) for v in c.generators])
        yield g, [tuple(lift(r, i) for r in e) for i, c in enumerate(cones) for e in c.excludes]


def _witness(sets: tuple[ConicSet, ...], rows: Mat, nonzero: Mat) -> tuple[Vec, ...] | None:
    """Points p_i in sets[i] whose stack p = (p_1, ..., p_m) has rows p = 0
    and nonzero p != 0, or None.

    Every point also satisfies the exclude selectors of its generator
    cone.  This is the one search behind every exact yes/no verdict: one
    `feasible_with_nonzero` call per tuple of `_stacked` generator cones.
    The stacked point is scaled to a primitive ray as a whole, so the
    points keep their relation.
    """
    ends = tuple(accumulate(s.dim for s in sets))
    for g, excludes in _stacked(sets):
        selectors = [matmul(e, g) for e in (nonzero, *excludes)]
        w = feasible_with_nonzero(matmul(rows, g), len(g[0]), selectors)
        if w is not None:
            point = primitive_ray(matvec(g, w))
            return tuple(point[e - s.dim:e] for s, e in zip(sets, ends))
    return None


def _image(sets: tuple[ConicSet, ...], rows: Mat, out: Mat):
    """For each tuple of `_stacked` generator cones whose image is not
    {0}: the cone out G {w >= 0 : rows G w = 0}, generated by the
    primitive, deduplicated, nonzero images of that cone's extreme rays.
    This is the one ray enumeration behind the predicted sets.

    Where out, or out with rows beneath it, is invertible, the stacked
    point is a linear function of its image, p = L out p with L the
    leading columns of the inverse; a selector E of the tuple's cones
    then carries over exactly, as E L.  Otherwise the image components
    are closed hulls.
    """
    inv = inverse(out) or inverse(out + rows)
    lift = None if inv is None else tuple(r[:len(out)] for r in inv)
    for g, excludes in _stacked(sets):
        og = matmul(out, g)
        gens: dict[Vec, None] = {}
        for r in extreme_rays(matmul(rows, g), len(g[0])):
            v = matvec(og, r)
            if not is_zero_vec(v):
                gens.setdefault(primitive_ray(v), None)
        if gens:
            yield PolyhedralCone(tuple(gens), () if lift is None else
                                 tuple(matmul(e, lift) for e in excludes))


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
    tm = as_rational_antisym(theta, n)
    px, pxi = _projector(n, 0), _projector(n, 1)
    # q = F p, and p lies on the slice x = (1/2) theta xi
    slice_rows = madd(px, matmul(mscale(Fraction(-1, 2), tm), pxi))
    mu = mscale(-ONE, _flip(n)) + slice_rows
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
    tinv = inverse(as_rational_antisym(theta, n))
    if tinv is None:
        raise ValueError("theta is not invertible; use existence_condition")
    px, pxi = _projector(n, 0), _projector(n, 1)
    ti2px = matmul(mscale(Fraction(2), tinv), px)
    zero = zeros(n, 2 * n)
    # xi_p = 2 theta^{-1} x_p, x_q = x_p, xi_q = -2 theta^{-1} x_q
    mu = madd(pxi, mscale(-ONE, ti2px)) + mscale(-ONE, px) + zero
    mv = zero + px + madd(pxi, ti2px)
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

    The interaction components are returned as closed hulls (their
    exclusion data does not map forward); the one-sided components keep
    their exact nonzero selectors.  On its slice a point q of wfv already
    reads ((1/2) theta xi_q, xi_q), so both one-sided families are the
    factor's own points there.
    """
    n = _half_dim(wfu, wfv)
    tm = as_rational_antisym(theta, n)
    px, pxi = _projector(n, 0), _projector(n, 1)
    half_theta_xi = matmul(mscale(Fraction(1, 2), tm), pxi)
    plus, minus = madd(px, half_theta_xi), madd(px, mscale(-ONE, half_theta_xi))
    eye = identity(2 * n)
    # p + ((1/2) theta xi_q, xi_q) over pairs with -plus p + minus q = 0
    comps = [*_image((wfu, wfv), hcat(mscale(-ONE, plus), minus), hcat(eye, half_theta_xi + pxi)),
             *_image((wfu,), plus, eye), *_image((wfv,), minus, eye)]
    # drop duplicate components (same generators and selectors)
    uniq: dict[tuple, PolyhedralCone] = {}
    for c in comps:
        uniq.setdefault((tuple(sorted(c.generators)), c.excludes), c)
    return ConicSet(2 * n, tuple(uniq.values()))


def predicted_star_wf(wfu: ConicSet, wfv: ConicSet, theta) -> ConicSet:
    """Conic superset for the twisted convolution, via the frequency
    side: conjugate the product prediction by the Fourier rotation."""
    ru = wf_fourier_rotate(wfu, inverse=True)
    rv = wf_fourier_rotate(wfv, inverse=True)
    return wf_fourier_rotate(predicted_product_wf(ru, rv, theta))


# ---------------------------------------------------------------------------
# cone algebra conditions

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    exact: bool
    witness: tuple | None = None
    note: str = ""


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

    @property
    def exact(self) -> bool:
        return all(c.exact for c in self.conditions)

    @property
    def verdict(self) -> str:
        return "exact" if self.exact else "one-sided"


def _check_additive_salient(gamma2: ConicSet) -> ConditionCheck:
    name = "additive-salient"
    comps = set_gencones(gamma2)
    if not comps:
        return ConditionCheck(name, True, True, note="empty cone")
    eye = identity(gamma2.dim)
    p_nonzero = hcat(eye, zeros(gamma2.dim, gamma2.dim))
    # salience, within one cone and across two: no members p, q with p + q = 0
    w = _witness((gamma2, gamma2), hcat(eye, eye), p_nonzero)
    if w is not None:
        return ConditionCheck(name, False, True, w, "two members sum to zero")
    if len(comps) == 1:
        # p + q != 0 lies in the hull, so it leaves the cone iff a selector
        # E removes it: E (p + q) = 0
        for e in comps[0].excludes:
            w = _witness((gamma2, gamma2), hcat(e, e), p_nonzero)
            if w is not None:
                p, q = w
                return ConditionCheck(name, False, True, (p, q, primitive_ray(vadd(p, q))),
                                      "sum of two members leaves the cone")
        note = ("no sum of two members meets an excluded slice" if comps[0].excludes
                else "closure automatic")
        return ConditionCheck(name, True, True, note=f"convex component; {note}")
    # union: additive closure checked on sums of member generators (necessary);
    # salience holds, so no sum below is zero
    gens = [[g for g in c.generators if member(gamma2, g)] for c in comps]
    for i, ha in enumerate(gens):
        for hb in gens[i + 1:]:
            for ga in ha:
                for gb in hb:
                    ssum = vadd(ga, gb)
                    if not member(gamma2, ssum):
                        return ConditionCheck(
                            name, False, True, (ga, gb, primitive_ray(ssum)),
                            "generator sum escapes the union",
                        )
    return ConditionCheck(
        name, True, False, None,
        "union: salience exact; closure verified on generator sums only",
    )


def _member_point(gc: PolyhedralCone) -> Vec | None:
    """A member of the generator cone gc, or None when it has none."""
    w = _witness((ConicSet(gc.dim, (gc,)),), (), identity(gc.dim))
    return None if w is None else w[0]


def _check_shift_stability(gamma1: ConicSet, gamma2: ConicSet, half_theta: Mat) -> ConditionCheck:
    name = "shift-stability"
    comps1, comps2 = set_gencones(gamma1), set_gencones(gamma2)
    if not comps2 or not comps1:
        return ConditionCheck(name, True, True, note="vacuous (empty cone)")
    hulls1 = [c.generators for c in comps1]
    # convex target: stability is equivalent to every shifted generator
    # lying in the recession cone, i.e. the hull itself; a union target is
    # spot-checked from one member of each component (one-sided)
    convex = len(comps1) == 1
    anchors = [x0 for c in comps1 if (x0 := _member_point(c)) is not None]
    if not anchors:
        return ConditionCheck(name, True, True, note="vacuous (gamma1 has no member)")

    def leave(x0: Vec, v: Vec) -> Vec | None:
        """Primitive x0 + t v, t > 0, outside every hull of gamma1, or None."""
        if convex and cone_contains(hulls1[0], v):
            return None
        ts = (ONE * 2 ** k for k in range(64)) if convex else (Fraction(1, 2), ONE, 2, 8, 64)
        for t in ts:
            pt = vadd(x0, vscale(t, v))
            if not is_zero_vec(pt) and not any(cone_contains(h, pt) for h in hulls1):
                return primitive_ray(pt)
        if convex:
            raise RuntimeError("recession witness search failed")
        return None

    def escape(x0: Vec, c2: PolyhedralCone, g: Vec) -> tuple[Vec, Vec] | None:
        """A member xi of c2 along the generator g, and the point where
        x0 shifted along (1/2) theta xi leaves gamma1, or None.  xi is g
        when g is a member, else m + t g with m a member of c2, for the
        first t in 1, 2, 4, ... that is a member and still leaves.  Both
        lie in c2's hull, so only zero and the selectors can exclude them."""
        def kept(xi: Vec) -> bool:
            return not is_zero_vec(xi) and all(not is_zero_vec(matvec(e, xi)) for e in c2.excludes)

        v = matvec(half_theta, g)
        if is_zero_vec(v) or (pt := leave(x0, v)) is None:
            return None
        if kept(g):
            return g, pt
        m = _member_point(c2)
        if m is None:
            return None
        t = ONE
        for _ in range(64):
            xi = vadd(m, vscale(t, g))
            if kept(xi) and (pt := leave(x0, vscale(1 / t, matvec(half_theta, xi)))):
                return primitive_ray(xi), pt
            t *= 2
        raise RuntimeError("member witness search failed")

    for x0 in anchors:
        for c2 in comps2:
            for g in c2.generators:
                found = escape(x0, c2, primitive_ray(g))
                if found is not None:
                    return ConditionCheck(name, False, True, (x0, *found),
                                          f"shifted point leaves the {'cone' if convex else 'union'}")
    if convex:
        return ConditionCheck(
            name, True, True, None,
            "every shifted generator lies in the recession cone "
            "(membership taken on the closed hull)",
        )
    return ConditionCheck(name, True, False, None,
                          "union target: verified from one member of each component only")


def shift_algebra_check(gamma1: ConicSet, gamma2: ConicSet, theta) -> ShiftAlgebraReport:
    """Evaluate the three conditions under which the conic calculus is
    closed for the pair (gamma1, gamma2): gamma2 additively salient,
    origin excluded, and gamma1 stable under x -> x + (1/2) theta xi for
    xi in gamma2.

    Every witness is exact and made of members: a shift-stability
    witness (x0, xi, pt) has x0 in gamma1, xi in gamma2 and pt outside
    gamma1 on the ray of x0 + t (1/2) theta xi, t > 0.  A convex gamma2
    or gamma1 settles its condition exactly; on a union, additive
    closure is checked on generator sums and shift stability from one
    member of each gamma1 component, so a pass there is one-sided
    (necessary conditions only) and the report's verdict reads
    "one-sided".
    """
    if gamma1.dim != gamma2.dim:
        raise ValueError("cones must live in the same dimension")
    half_theta = mscale(Fraction(1, 2), as_rational_antisym(theta, gamma1.dim))
    origin = ConditionCheck(
        "origin-excluded", True, True, None,
        "conic sets exclude the origin by representation",
    )
    return ShiftAlgebraReport(_check_additive_salient(gamma2), origin,
                              _check_shift_stability(gamma1, gamma2, half_theta))


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
    w = _witness((gamma, gamma), hcat(mscale(-ONE, flip), eye),
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
    m = len(am)
    n = len(am[0])
    if s.dim != 2 * m:
        raise ValueError(f"set dimension {s.dim} does not match map rows {m}")
    px, pxi = _projector(m, 0), _projector(m, 1)
    at = mat_t(am)
    # s meets the conormal set: (y, eta) in s with y = 0, A^T eta = 0, eta != 0
    w = _witness((s,), px + matmul(at, pxi), pxi)
    # (x, A^T eta) over x in R^n and (y, eta) in s with A x = y; for
    # invertible A a selector E on (y, eta) reads E diag(A, A^{-T}) on (x, xi)
    out_comps = list(_image((full_space(n), s), hcat(am, mscale(-ONE, px)),
                            hcat(identity(n), zeros(n, 2 * m))
                            + hcat(zeros(n, n), matmul(at, pxi))))
    kernel = nullspace(am, n)
    if kernel:
        kgens = []
        for b in kernel:
            v = tuple(b) + tuple(ZERO for _ in range(n))
            kgens.append(primitive_ray(v))
            kgens.append(primitive_ray(vneg(v)))
        out_comps.append(PolyhedralCone(tuple(kgens)))
    return PullbackResult(w is None, ConicSet(2 * n, tuple(out_comps)),
                          None if w is None else w[0])
