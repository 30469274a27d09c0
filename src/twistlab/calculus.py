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
    is_zero_vec,
    mat,
    mat_t,
    matmul,
    matvec,
    nullspace,
    primitive_ray,
    vadd,
    vneg,
    vscale,
)
from .cones import (
    ConicSet,
    PolyhedralCone,
    _block,
    _identity,
    _projector,
    _rational_inverse,
    _zeros,
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


def _hcat(*blocks: Mat) -> Mat:
    blocks = tuple(b for b in blocks if b)
    rows = len(blocks[0])
    return tuple(
        tuple(x for b in blocks for x in b[i]) for i in range(rows)
    )


def _scale_mat(c: Fraction, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in r) for r in a)


def _mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _gen_matrix(gc: PolyhedralCone) -> Mat:
    """Generators as columns (d x k)."""
    return mat_t(gc.generators)


def _flip(n: int) -> Mat:
    """F: (x, xi) -> (x, -xi) on R^{2n}."""
    return _projector(n, 0) + _scale_mat(-ONE, _projector(n, 1))


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


def _witness(sets: tuple[ConicSet, ...], rows: Mat, nonzero: Mat) -> tuple[Vec, ...] | None:
    """Points p_i in sets[i] whose stack p = (p_1, ..., p_m) has rows p = 0
    and nonzero p != 0, or None.

    Every point also satisfies the exclude selectors of its generator
    cone.  This is the one search behind every exact yes/no verdict: one
    `feasible_with_nonzero` call per tuple of generator cones, one from
    each set, in `itertools.product` order.  The stacked point is scaled
    to a primitive ray as a whole, so the points keep their relation.
    """
    ends = tuple(accumulate(s.dim for s in sets))
    pads = [(e - s.dim, ends[-1] - e) for s, e in zip(sets, ends)]

    def lift(v: Vec, i: int) -> Vec:
        return (ZERO,) * pads[i][0] + v + (ZERO,) * pads[i][1]

    for cones in product(*(set_gencones(s) for s in sets)):
        g = mat_t([lift(v, i) for i, c in enumerate(cones) for v in c.generators])
        selectors = [matmul(nonzero, g)] + [
            matmul(tuple(lift(r, i) for r in e), g)
            for i, c in enumerate(cones) for e in c.excludes
        ]
        w = feasible_with_nonzero(matmul(rows, g), len(g[0]), selectors)
        if w is not None:
            point = primitive_ray(matvec(g, w))
            return tuple(point[e - s.dim:e] for s, e in zip(sets, ends))
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
    tm = as_rational_antisym(theta, n)
    px, pxi = _projector(n, 0), _projector(n, 1)
    # q = F p, and p lies on the slice x = (1/2) theta xi
    slice_rows = _mat_sub(px, matmul(_scale_mat(Fraction(1, 2), tm), pxi))
    mu = _scale_mat(-ONE, _flip(n)) + slice_rows
    mv = _identity(2 * n) + _zeros(n, 2 * n)
    w = _witness((wfu, wfv), _hcat(mu, mv), _hcat(_identity(2 * n), _zeros(2 * n, 2 * n)))
    return ExistenceResult(w is None, w)


def existence_condition_theta_inv(wfu: ConicSet, wfv: ConicSet, theta) -> ExistenceResult:
    """Same criterion, phrased through the inverse of theta.

    For invertible theta the condition reads: no x != 0 has
    (x, 2 theta^{-1} x) in wfu and (x, -2 theta^{-1} x) in wfv.  This is
    an independent elimination path used to cross-check
    `existence_condition`.
    """
    n = _half_dim(wfu, wfv)
    tinv = _rational_inverse(as_rational_antisym(theta, n))
    if tinv is None:
        raise ValueError("theta is not invertible; use existence_condition")
    px, pxi = _projector(n, 0), _projector(n, 1)
    ti2px = matmul(_scale_mat(Fraction(2), tinv), px)
    zero = _zeros(n, 2 * n)
    # xi_p = 2 theta^{-1} x_p, x_q = x_p, xi_q = -2 theta^{-1} x_q
    mu = _mat_sub(pxi, ti2px) + _scale_mat(-ONE, px) + zero
    mv = zero + px + _mat_add(pxi, ti2px)
    w = _witness((wfu, wfv), _hcat(mu, mv), _hcat(px, _zeros(n, 2 * n)))
    return ExistenceResult(w is None, w, "theta-inverse")


# ---------------------------------------------------------------------------
# predicted wavefront sets of the two twisted operations

def _dedup_gens(gens: list[Vec]) -> tuple[Vec, ...]:
    seen: dict[Vec, None] = {}
    for g in gens:
        if not is_zero_vec(g):
            seen.setdefault(primitive_ray(g), None)
    return tuple(seen.keys())


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
    their exact nonzero selectors.
    """
    n = _half_dim(wfu, wfv)
    tm = as_rational_antisym(theta, n)
    pxi = _projector(n, 1)
    half_theta_xi = matmul(_scale_mat(Fraction(1, 2), tm), pxi)
    plus = _mat_add(_projector(n, 0), half_theta_xi)
    minus = _mat_sub(_projector(n, 0), half_theta_xi)
    # output map applied to the second factor: q -> ((1/2) theta xi_q, xi_q)
    bv = half_theta_xi + pxi
    cus, cvs = set_gencones(wfu), set_gencones(wfv)
    comps = []
    for cu in cus:
        gu = _gen_matrix(cu)
        ku = len(cu.generators)
        for cv in cvs:
            gv = _gen_matrix(cv)
            a = _hcat(_scale_mat(-ONE, matmul(plus, gu)), matmul(minus, gv))
            bgv = matmul(bv, gv)
            gens = _dedup_gens([
                vadd(matvec(gu, r[:ku]), matvec(bgv, r[ku:]))
                for r in extreme_rays(a, ku + len(cv.generators))
            ])
            if gens:
                comps.append(PolyhedralCone(gens))
    # one-sided: wfu on its slice as is, wfv on its slice mapped by bv
    for cs, slice_rows, out in ((cus, plus, _identity(2 * n)), (cvs, minus, bv)):
        for c in cs:
            g = _gen_matrix(c)
            og = matmul(out, g)
            rays = extreme_rays(matmul(slice_rows, g), len(c.generators))
            gens = _dedup_gens([matvec(og, r) for r in rays])
            if gens:
                comps.append(PolyhedralCone(gens, c.excludes))
    # drop duplicate components (same generators and selectors)
    uniq = []
    seen = set()
    for c in comps:
        key = (tuple(sorted(c.generators)), c.excludes)
        if key not in seen:
            seen.add(key)
            uniq.append(c)
    return ConicSet(2 * n, tuple(uniq))


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
    d = gamma2.dim
    p_nonzero = _hcat(_identity(d), _zeros(d, d))
    # salience, within one cone and across two: no members p, q with p + q = 0
    w = _witness((gamma2, gamma2), _hcat(_identity(d), _identity(d)), p_nonzero)
    if w is not None:
        return ConditionCheck(name, False, True, w, "two members sum to zero")
    if len(comps) == 1:
        # p + q != 0 lies in the hull, so it leaves the cone iff a selector
        # E removes it: E (p + q) = 0
        for e in comps[0].excludes:
            w = _witness((gamma2, gamma2), _hcat(e, e), p_nonzero)
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


def _anchor_point(gc: PolyhedralCone) -> Vec:
    total = tuple(ZERO for _ in range(len(gc.generators[0])))
    for g in gc.generators:
        total = vadd(total, g)
    return total


def _check_shift_stability(gamma1: ConicSet, gamma2: ConicSet, half_theta: Mat) -> ConditionCheck:
    name = "shift-stability"
    comps1, comps2 = set_gencones(gamma1), set_gencones(gamma2)
    if not comps2 or not comps1:
        return ConditionCheck(name, True, True, note="vacuous (empty cone)")
    hulls1 = [c.generators for c in comps1]
    gens2 = [primitive_ray(g) for c in comps2 for g in c.generators]
    if len(comps1) == 1:
        # convex target: stability is equivalent to every shifted
        # generator lying in the recession cone, i.e. the hull itself
        hull = hulls1[0]
        for g in gens2:
            v = matvec(half_theta, g)
            if is_zero_vec(v):
                continue
            if not cone_contains(hull, v):
                x0 = _anchor_point(comps1[0])
                t = ONE
                for _ in range(64):
                    pt = vadd(x0, vscale(t, v))
                    if not cone_contains(hull, pt):
                        return ConditionCheck(
                            name, False, True, (primitive_ray(x0), g, primitive_ray(pt)),
                            "shifted point leaves the cone",
                        )
                    t *= 2
                raise RuntimeError("recession witness search failed")
        return ConditionCheck(
            name, True, True, None,
            "every shifted generator lies in the recession cone "
            "(membership taken on the closed hull)",
        )
    # union target: spot check along each component anchor (one-sided)
    for ci, hull_all in zip(comps1, hulls1):
        x0 = _anchor_point(ci)
        for g in gens2:
            v = matvec(half_theta, g)
            if is_zero_vec(v):
                continue
            for t in (Fraction(1, 2), ONE, Fraction(2), Fraction(8), Fraction(64)):
                pt = vadd(x0, vscale(t, v))
                if is_zero_vec(pt):
                    continue
                if not any(cone_contains(h, pt) for h in hulls1):
                    return ConditionCheck(
                        name, False, True, (primitive_ray(x0), g, primitive_ray(pt)),
                        "shifted point leaves the union",
                    )
    return ConditionCheck(
        name, True, False, None,
        "union target: verified along anchor rays only",
    )


def shift_algebra_check(gamma1: ConicSet, gamma2: ConicSet, theta) -> ShiftAlgebraReport:
    """Evaluate the three conditions under which the conic calculus is
    closed for the pair (gamma1, gamma2): gamma2 additively salient,
    origin excluded, and gamma1 stable under x -> x + (1/2) theta xi for
    xi in gamma2.

    Every witness is exact.  A convex gamma2 or gamma1 settles its
    condition exactly; on a union, additive closure is checked on
    generator sums and shift stability along anchor rays, so a pass
    there is one-sided (necessary conditions only) and the report's
    verdict reads "one-sided".
    """
    if gamma1.dim != gamma2.dim:
        raise ValueError("cones must live in the same dimension")
    half_theta = _scale_mat(Fraction(1, 2), as_rational_antisym(theta, gamma1.dim))
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
    flip, eye = _flip(gamma.dim // 2), _identity(gamma.dim)
    w = _witness((gamma, gamma), _hcat(_scale_mat(-ONE, flip), eye),
                 _hcat(eye, _zeros(gamma.dim, gamma.dim)))
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
    out_comps: list[PolyhedralCone] = []
    # for invertible A, a selector E on (y, eta) reads E diag(A, A^{-T}) on (x, xi)
    inv = _rational_inverse(am) if m == n else None
    lift = _block(am, _zeros(n, n), _zeros(n, n), mat_t(inv)) if inv is not None else None
    for gc in set_gencones(s):
        g = _gen_matrix(gc)
        sys = _hcat(am, _scale_mat(-ONE, am), _scale_mat(-ONE, matmul(px, g)))
        at_eta = matmul(at, matmul(pxi, g))
        gens = _dedup_gens([
            tuple(r[i] - r[n + i] for i in range(n)) + matvec(at_eta, r[2 * n:])
            for r in extreme_rays(sys, 2 * n + len(gc.generators))
        ])
        if not gens:
            continue
        excl = tuple(matmul(e, lift) for e in gc.excludes) if lift is not None else ()
        out_comps.append(PolyhedralCone(gens, excl))
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
