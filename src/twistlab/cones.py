"""Exact finite representations of closed conic subsets of R^d \\ {0}.

A ConicSet is a finite union of generator cones, over integer
arithmetic.  A generator cone (`PolyhedralCone`) is a tuple of integer
generators with one positive denominator for the whole cone, plus
"exclude" selectors with primitive integer rows, and represents

    {v in cone(generators) : v != 0 and  E v != 0 for every selector E}.

Cones are homogeneous, so the denominator matters only where exact
values leave the layer (`set_to_obj`) and where cones are stacked side
by side (`_stacked`), which brings them to a common denominator.

Polyhedral cones, rays, subspaces, graphs {(x, Ax)} and products of two
lower dimensional sets are input forms: their constructors, and the
matching JSON kinds, build the generator cones once.  The selector
mechanism is what keeps product sets like {0} x (R^n \\ 0) exact under
the calculus in `calculus`.  Membership, linear images, equality and
every verdict work on this one form; floats enter only in the angular
distances measured against estimator output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, product
from math import gcd, lcm
from operator import mul

import numpy as np

from ._read import ReadError, flag, integer, matrix, need, show
from .rational import (
    Mat,
    Vec,
    _eliminate,
    extreme_rays,
    hcat,
    identity,
    integer_form,
    integer_ray,
    left_solve,
    mat,
    mat_t,
    matmul,
    matvec,
    mscale,
    nullspace,
    rank,
    row_space_canonical,
    vec,
    vneg,
    zeros,
)


# ---------------------------------------------------------------------------
# the cone type and the set

@dataclass(frozen=True)
class PolyhedralCone:
    """Nonnegative combinations of the exact generators g / den, origin
    excluded.

    Generators are stored as integer tuples, and `den` as the least
    common denominator of their exact values; rational generators, or
    integer ones with a `den`, are brought to that form here.  `excludes`
    is a tuple of selector matrices E, stored with primitive integer
    rows; points with E v = 0 are removed from the set.  An empty tuple
    means the cone minus the origin.
    """

    generators: Mat
    excludes: tuple[Mat, ...] = ()
    den: int = 1

    def __post_init__(self):
        if not self.generators:
            raise ValueError("polyhedral component needs at least one generator")
        gens, d = integer_form(self.generators)
        den = self.den * d
        if den > 1 and (g := gcd(den, *chain.from_iterable(gens))) > 1:
            gens, den = tuple(tuple(x // g for x in r) for r in gens), den // g
        if not all(map(any, gens)):
            raise ValueError("zero generator not allowed")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "excludes", tuple(
            tuple(map(integer_ray, integer_form(e)[0])) for e in self.excludes))

    @property
    def dim(self) -> int:
        return len(self.generators[0])


@dataclass(frozen=True)
class ConicSet:
    """Finite union of generator cones in R^dim \\ {0}; may be empty."""

    dim: int
    components: tuple[PolyhedralCone, ...] = ()

    def __post_init__(self):
        for c in self.components:
            if c.dim != self.dim:
                raise ValueError(f"component dimension {c.dim} != set dimension {self.dim}")

    @property
    def is_empty(self) -> bool:
        return not self.components


def set_gencones(s: ConicSet) -> list[PolyhedralCone]:
    """The generator cones whose union is s."""
    return list(s.components)


# ---------------------------------------------------------------------------
# constructors: each builds its generator cones once

def polyhedral(gens) -> ConicSet:
    g = mat(gens)
    return ConicSet(len(g[0]), (PolyhedralCone(g),))


def ray_set(v, both: bool = False) -> ConicSet:
    """The ray {t v : t > 0}, or the antipodal pair when both=True."""
    w = vec(v)
    if not any(w):
        raise ValueError("ray direction must be nonzero")
    rays = (w, vneg(w)) if both else (w,)
    return ConicSet(len(w), tuple(PolyhedralCone((r,)) for r in rays))


def subspace_set(basis) -> ConicSet:
    """span(basis) minus the origin, encoded with +-basis generators."""
    b = mat(basis)
    gens = b + tuple(vneg(r) for r in b)
    return ConicSet(len(b[0]), (PolyhedralCone(gens),))


def full_space(d: int) -> ConicSet:
    """R^d minus the origin."""
    return subspace_set(identity(d))


def graph_set(a) -> ConicSet:
    """The graph {(x, A x) : x != 0} of a square rational matrix A."""
    am = mat(a)
    if not am or any(len(r) != len(am) for r in am):
        raise ValueError("graph matrix must be square")
    n = len(am)
    gens = []
    for e, col in zip(identity(n), mat_t(am)):
        gens.append(e + col)
        gens.append(vneg(e + col))
    return ConicSet(2 * n, (PolyhedralCone(tuple(gens)),))


def product_set(
    x_part: ConicSet | None,
    xi_part: ConicSet | None,
    x_includes_zero: bool = False,
    xi_includes_zero: bool = False,
) -> ConicSet:
    """The product {(x, xi) != 0 : x in X, xi in Xi} in R^{2n}.

    Each part is a ConicSet in R^n or None, where None stands for {0}.
    The flags admit 0 into a non-None part, so e.g. a half space
    containing the origin is (part, includes_zero=True).  There is one
    generator cone per pair of part cones.
    """
    if x_part is None and xi_part is None:
        raise ValueError("product of {0} with {0} is empty")
    half = x_part.dim if x_part is not None else xi_part.dim
    if xi_part is not None and xi_part.dim != half:
        raise ValueError("product parts must share the same dimension")
    gxs, x_zero = _part_cones(x_part, x_includes_zero)
    gxis, xi_zero = _part_cones(xi_part, xi_includes_zero)
    px, pxi = _projector(half, 0), _projector(half, 1)
    cones = []
    for x_gens, x_den, x_excl in gxs:
        for xi_gens, xi_den, xi_excl in gxis:
            den = lcm(x_den, xi_den)
            gens = _embed(x_gens, den // x_den, half, 0) + _embed(xi_gens, den // xi_den, half, 1)
            if not gens:                       # {0} x {0} holds no point
                continue
            excludes = [matmul(e, px) for e in x_excl]
            excludes += [matmul(e, pxi) for e in xi_excl]
            if not x_zero:
                excludes.append(px)
            if not xi_zero:
                excludes.append(pxi)
            cones.append(PolyhedralCone(gens, tuple(excludes), den))
    return ConicSet(2 * half, tuple(cones))


def empty_set(d: int) -> ConicSet:
    return ConicSet(d, ())


def _embed(gens: Mat, c: int, half: int, side: int) -> Mat:
    """Embed R^half generators, times c, into R^{2*half} on side 0 (x)
    or 1 (xi)."""
    zero = (0,) * half
    if c != 1:
        gens = mscale(c, gens)
    if side == 0:
        return tuple(g + zero for g in gens)
    return tuple(zero + g for g in gens)


def _projector(half: int, side: int) -> Mat:
    """The rows picking x (side 0) or xi (side 1) out of (x, xi) in R^{2*half}."""
    eye, zero = identity(half), zeros(half, half)
    return hcat(zero, eye) if side else hcat(eye, zero)


def _part_cones(part: ConicSet | None, includes_zero: bool) -> tuple[list, bool]:
    """(generators, den, excludes) triples whose union is one side of a
    product (the part, with 0 where it admits 0), and whether 0 is in
    that union.

    A cone without selectors holds 0; any selector removes it (E 0 = 0).
    So where the part admits 0, selectors that only remove the origin are
    dropped, and the origin cone is added when every cone still carries a
    selector, which covers empty parts; None is {0}."""
    if part is None:
        return [((), 1, ())], True
    cones = [(c.generators, c.den, c.excludes) for c in part.components]
    if includes_zero:
        cones = [(g, d, tuple(e for e in excl if _kernel_slice(e, g))) for g, d, excl in cones]
        if all(excl for _, _, excl in cones):
            cones.append(((), 1, ()))
    return cones, includes_zero


@lru_cache(maxsize=1024)
def _kernel_slice(e: Mat, gens: Mat) -> Mat:
    """The generators `_image` gives cone(gens) intersect ker(e); empty
    when the kernel of selector e meets the cone only at the origin."""
    hull = polyhedral(gens)
    return next((c.generators for c in _image((hull,), e, identity(hull.dim))), ())


# ---------------------------------------------------------------------------
# membership

@lru_cache(maxsize=1024)
def _hform(gens: Mat) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The H-form of cone(gens) as coprime integer rows: equalities a, a
    basis of span(gens)^perp, and facet normals h, with cone(gens) = {v :
    a v = 0, h v >= 0} (Minkowski-Weyl).  The slacks (g_i h)_i of the
    facets are the extreme rays of the dependency cone {w >= 0 : L w = 0},
    L a basis of the generators' linear dependencies, and one `left_solve`
    of h g_i = w_i, h a = 0 maps them back.  Facets come in the order of
    their first spanning (r - 1)-subset of generators, r the rank: the
    greedy pivots `_eliminate` picks among the generators with zero
    slack.  `extreme_rays` budgets the work.  Cached per cone."""
    eqs = tuple(map(integer_ray, nullspace(gens)))
    rows = mat_t(gens)
    slacks = extreme_rays(nullspace(rows), len(gens))
    normals, _ = left_solve(tuple(w + (0,) * len(eqs) for w in slacks), hcat(rows, mat_t(eqs)))

    def first_basis(w: Vec) -> tuple[int, ...]:
        on = [j for j, x in enumerate(w) if not x]
        return tuple(on[p] for p in _eliminate([[row[j] for j in on] for row in rows])[0])

    facets = sorted(zip(map(first_basis, slacks), map(integer_ray, normals)))
    return eqs, tuple(h for _, h in facets)


def gencone_member(gc: PolyhedralCone, v: Vec) -> bool:
    """Membership of an integer vector, or any positive multiple of it."""
    if not any(v):
        return False
    eqs, facets = _hform(gc.generators)
    return (all(sum(map(mul, a, v)) == 0 for a in eqs)
            and all(sum(map(mul, h, v)) >= 0 for h in facets)
            and all(any(matvec(e, v)) for e in gc.excludes))


def member(s: ConicSet, v) -> bool:
    """Exact membership in one of the generator cones of s.

    The zero vector is rejected: conic sets exclude the origin by
    definition, so membership of 0 is not a meaningful query.
    """
    (w,), _ = integer_form((vec(v),))
    if len(w) != s.dim:
        raise ValueError(f"vector dimension {len(w)} != set dimension {s.dim}")
    if not any(w):
        raise ValueError("membership of the zero vector is undefined for conic sets")
    return any(gencone_member(gc, w) for gc in set_gencones(s))


# ---------------------------------------------------------------------------
# linear transforms

def _stacked(sets: tuple[ConicSet, ...]):
    """For each tuple of generator cones, one from each set, in
    `itertools.product` order: the matrix G whose columns are the cones'
    exact generators stacked block-diagonally, times their common
    denominator, so that G w = (p_1, ..., p_m) with p_i in the hull of the
    i-th cone for every w >= 0, and the cones' exclude selectors as
    selectors on that stacked point.  One common factor keeps each
    generator's weight in G w as the exact generators give it."""
    ends = tuple(accumulate(s.dim for s in sets))
    pads = [((0,) * (e - s.dim), (0,) * (ends[-1] - e)) for s, e in zip(sets, ends)]

    def lift(v: Vec, i: int, c: int = 1) -> Vec:
        return pads[i][0] + (v if c == 1 else tuple(c * x for x in v)) + pads[i][1]

    for cones in product(*(set_gencones(s) for s in sets)):
        den = lcm(*(c.den for c in cones))
        g = mat_t([lift(v, i, den // c.den) for i, c in enumerate(cones) for v in c.generators])
        yield g, [tuple(lift(r, i) for r in e) for i, c in enumerate(cones) for e in c.excludes]


def _image(sets: tuple[ConicSet, ...], rows: Mat, out: Mat):
    """For each tuple of `_stacked` generator cones whose image is not
    {0}: the cone out G {w >= 0 : rows G w = 0}, generated by the
    primitive, deduplicated, nonzero images of that cone's extreme rays.
    This is the one ray enumeration behind every image of a conic set.
    rows and out are integer; a positive factor on a row of rows, or on
    the whole of out, changes no image.

    A selector E of the tuple's cones carries over as F_o exactly when
    E = F_o out + F_r rows: on the image y = out p we have rows p = 0, so
    E p = F_o y.  Otherwise E is dropped and the image is closed there.
    Carried selectors are written as `row_space_canonical(F_o)`, once per
    kernel; one implied by another (its kernel inside the other's) is
    dropped.  A cone inside the kernel of one of them (F_o g = 0 for
    every generator g) holds no point and is not yielded.
    """
    stack = out + rows

    @lru_cache(maxsize=None)
    def carry(e: Mat) -> Mat | None:
        f = left_solve(e, stack)
        return None if f is None else row_space_canonical([r[:len(out)] for r in f[0]])

    for g, excludes in _stacked(sets):
        og = matmul(out, g)
        gens: dict[Vec, None] = {}
        for r in extreme_rays(matmul(rows, g), len(g[0])):
            v = matvec(og, r)
            if any(v):
                gens.setdefault(integer_ray(v), None)
        sels = dict.fromkeys(f for e in excludes if (f := carry(e)) is not None)
        # F' p != 0 forces F p != 0 when rowspace(F') lies in rowspace(F)
        sels = [f for f in sels if not any(f2 != f and rank(f + f2) == len(f) for f2 in sels)]
        # a selector that vanishes on every generator removes every point
        if gens and all(any(any(matvec(f, v)) for v in gens) for f in sels):
            yield PolyhedralCone(tuple(gens), tuple(sels))


def linear_image(s: ConicSet, m: Mat) -> ConicSet:
    """Image of a conic set under a linear map m with s.dim columns: one
    `_image` call.  Exact where every selector carries, as for invertible
    m; closed where one is dropped."""
    cols = len(m[0]) if m else 0
    if cols != s.dim or any(len(r) != cols for r in m):
        raise ValueError(f"linear map has {cols} columns, set dimension is {s.dim}")
    return ConicSet(len(m), tuple(_image((s,), (), integer_form(m)[0])))


def _fourier_rotation(n: int) -> Mat:
    """The map (x, xi) -> (xi, -x) on R^{2n}; its inverse is its negative."""
    eye, zero = identity(n), zeros(n, n)
    return hcat(zero, eye) + hcat(mscale(-1, eye), zero)


def wf_fourier_rotate(s: ConicSet, inverse: bool = False) -> ConicSet:
    """Image under (x, xi) -> (xi, -x); inverse=True applies (x, xi) -> (-xi, x)."""
    if s.dim % 2 != 0:
        raise ValueError("phase-space rotation needs even dimension")
    fwd = _fourier_rotation(s.dim // 2)
    return linear_image(s, mscale(-1, fwd) if inverse else fwd)


def wf_chirp_shear(s: ConicSet, a) -> ConicSet:
    """Image under (x, xi) -> (x, xi + A x) for symmetric A."""
    am = mat(a)
    n = len(am)
    if 2 * n != s.dim:
        raise ValueError("shear matrix dimension must be half the set dimension")
    if am != mat_t(am):
        raise ValueError("shear matrix must be symmetric")
    eye, zero = identity(n), zeros(n, n)
    return linear_image(s, hcat(eye, zero) + hcat(am, eye))


# ---------------------------------------------------------------------------
# equality

def conic_equal(s: ConicSet, t: ConicSet) -> bool:
    """Exact set equality: inclusion both ways, each one
    `calculus._escape` search for a member of one set outside the other."""
    from .calculus import _escape  # calculus imports this module
    return s.dim == t.dim and all(_escape((a,), identity(s.dim), b) is None for a, b in ((s, t), (t, s)))


# ---------------------------------------------------------------------------
# angular distance and containment reports

def _float_gens(gc: PolyhedralCone) -> np.ndarray:
    # int / int rounds the exact value once, as float(Fraction) does
    return np.array([[x / gc.den for x in g] for g in gc.generators], dtype=float)


def angular_distance_deg(s: ConicSet, direction) -> float:
    """Angle in degrees from a unit direction to the nearest point of s.

    Distances are measured to component hulls (closures); exclude
    selectors carve out measure-zero slices that do not change angular
    distances.
    """
    w = np.asarray(direction, dtype=float)
    w = w / np.linalg.norm(w)
    return min((_gencone_angle_deg(gc, w) for gc in set_gencones(s)), default=180.0)


def _gencone_angle_deg(gc: PolyhedralCone, w: np.ndarray) -> float:
    gens = _float_gens(gc)
    if not _hform(gc.generators)[1]:
        # no facets: a subspace; orthogonal projection onto span, basis via
        # SVD (QR column order is not rank-revealing without pivoting)
        u, sv, _ = np.linalg.svd(gens.T, full_matrices=False)
        basis = u[:, sv > 1e-10 * max(sv[0], 1.0)]
        proj = basis @ (basis.T @ w)
        c = np.clip(np.linalg.norm(proj), 0.0, 1.0)
        return float(np.degrees(np.arccos(c)))
    cols = gens.T / np.linalg.norm(gens, axis=1)
    p = cols @ _nnls(cols, w)
    nrm = np.linalg.norm(p)
    if nrm < 1e-12:
        return 90.0
    # p is the nearest point of a convex cone, so w - p is orthogonal to p;
    # atan2 keeps the digits near 0 that arccos |p| would lose
    return float(np.degrees(np.arctan2(np.linalg.norm(w - p), nrm)))


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |a z - b| over z >= 0 by the Lawson-Hanson active-set
    method (Lawson & Hanson, Solving Least Squares Problems, 1974,
    ch. 23): move the column of largest positive gradient into the
    passive set, solve least squares there, and step back to the
    boundary while a passive coefficient is not positive."""
    n = a.shape[1]
    tol = 10.0 * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * max(a.shape)
    z = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        grad = a.T @ (b - a @ z)
        if passive.all() or grad[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, grad))] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if s[passive].min() > 0.0:
                break
            neg = passive & (s <= 0.0)
            z += (z[neg] / (z[neg] - s[neg])).min() * (s - z)
            passive &= z > tol
            z[~passive] = 0.0
        z = s
    return z


@dataclass(frozen=True)
class ContainmentReport:
    total: int
    within: int
    fraction: float
    max_excess_deg: float
    tol_deg: float

    @property
    def passed(self) -> bool:
        return self.fraction == 1.0


def angular_containment(directions, s: ConicSet, tol_deg: float) -> ContainmentReport:
    """Fraction of directions within tol of s, plus the worst excess angle.

    An empty direction list is vacuously contained (fraction 1.0).
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.size == 0:
        return ContainmentReport(0, 0, 1.0, 0.0, float(tol_deg))
    angles = np.array([angular_distance_deg(s, d) for d in dirs])
    within = int(np.sum(angles <= tol_deg + 1e-9))
    return ContainmentReport(
        total=len(angles),
        within=within,
        fraction=within / len(angles),
        max_excess_deg=float(max(0.0, angles.max())),
        tol_deg=float(tol_deg),
    )


# ---------------------------------------------------------------------------
# serialization

def _vec_obj(v: Vec, den: int = 1) -> list[list[int]]:
    """The exact values v / den as [num, den] pairs in lowest terms."""
    return [[x // g, den // g] for x in v for g in (gcd(x, den),)]


def _mat_obj(m: Mat) -> list[list[list[int]]]:
    return [_vec_obj(r) for r in m]


def set_to_obj(s: ConicSet) -> dict:
    comps = []
    for c in s.components:
        obj = {"kind": "polyhedral", "generators": [_vec_obj(g, c.den) for g in c.generators]}
        if c.excludes:
            obj["excludes"] = [_mat_obj(e) for e in c.excludes]
        comps.append(obj)
    return {"dim": s.dim, "components": comps}


def _component_from_obj(obj, where: str) -> ConicSet:
    """One JSON component at `where`, of any input kind, as its set."""
    kind = need(obj, "kind", where)
    if kind == "polyhedral":
        excludes = tuple(matrix(e, f"{where}.excludes[{i}]")
                         for i, e in enumerate(obj.get("excludes", [])))
        gens = matrix(need(obj, "generators", where), f"{where}.generators")
        cone = PolyhedralCone(gens, excludes)
        return ConicSet(cone.dim, (cone,))
    if kind == "ray":
        v = matrix(need(obj, "v", where), f"{where}.v", vector=True)
        return ray_set(v, flag(obj, "both", where))
    if kind == "graph":
        return graph_set(matrix(need(obj, "A", where), f"{where}.A"))
    if kind == "product":
        def part(key):
            p, at = need(obj, key, where), f"{where}.{key}"
            if p is None:
                return None, False
            return set_from_obj(need(p, "set", at), f"{at}.set"), flag(p, "zero", at)

        (xp, xz), (xip, xiz) = part("x"), part("xi")
        return product_set(xp, xip, xz, xiz)
    raise ReadError(f"{where}.kind", "polyhedral, ray, graph or product", show(kind))


def set_from_obj(obj, where: str = "set") -> ConicSet:
    """Read the set at `where` written by `set_to_obj`, or given as a
    union of `polyhedral`, `ray`, `graph` and `product` components."""
    dim = integer(need(obj, "dim", where), f"{where}.dim", least=1)
    listed = need(obj, "components", where)
    if not isinstance(listed, list):
        raise ReadError(f"{where}.components", "a list", show(listed))
    comps = []
    for i, c in enumerate(listed):
        part = _component_from_obj(c, f"{where}.components[{i}]")
        if part.dim != dim:
            raise ValueError(f"component dimension {part.dim} != set dimension {dim}")
        comps.extend(part.components)
    return ConicSet(dim, tuple(comps))


def set_to_json(s: ConicSet) -> str:
    return json.dumps(set_to_obj(s), sort_keys=True)


def set_from_json(text: str, where: str = "set") -> ConicSet:
    return set_from_obj(json.loads(text), where)
