"""Exact finite representations of closed conic subsets of R^d \\ {0}.

A ConicSet is a finite union of components: polyhedral cones, rays,
graphs {(x, Ax)} and products of two lower dimensional sets, all over
Fraction arithmetic.  Every component reduces to one or more generator
cones: a tuple of generators plus "exclude" selectors, where the
represented set is

    {v in cone(generators) : v != 0 and  E v != 0 for every selector E}.

The selector mechanism is what keeps product sets like
{0} x (R^n \\ 0) exact under the calculus in `calculus`.  Membership,
linear images and every verdict work on this one decomposition; floats
enter only in the angular distances measured against estimator output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .rational import (
    Mat,
    Vec,
    cone_contains,
    extreme_rays,
    frac,
    is_zero_vec,
    mat,
    mat_t,
    matmul,
    matvec,
    primitive_ray,
    rref,
    row_space_canonical,
    vec,
    vneg,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class ExactnessError(Exception):
    """Raised when set equality meets a cone shape it cannot canonicalise."""


def _identity(d: int) -> Mat:
    return tuple(tuple(ONE if j == i else ZERO for j in range(d)) for i in range(d))


def _basis_vec(d: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(d))


def _zeros(rows: int, cols: int) -> Mat:
    return tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows))


def _neg_mat(a: Mat) -> Mat:
    return tuple(vneg(r) for r in a)


def _block(a: Mat, b: Mat, c: Mat, e: Mat) -> Mat:
    """The block matrix [[a, b], [c, e]]."""
    return tuple(r + t for r, t in zip(a, b)) + tuple(r + t for r, t in zip(c, e))


# ---------------------------------------------------------------------------
# components

@dataclass(frozen=True)
class PolyhedralCone:
    """Nonnegative rational combinations of `generators`, origin excluded.

    `excludes` is a tuple of selector matrices E; points with E v = 0 are
    removed from the set.  An empty tuple means the cone minus the origin.
    """

    generators: Mat
    excludes: tuple[Mat, ...] = ()

    def __post_init__(self):
        if not self.generators:
            raise ValueError("polyhedral component needs at least one generator")
        if any(is_zero_vec(g) for g in self.generators):
            raise ValueError("zero generator not allowed")

    @property
    def dim(self) -> int:
        return len(self.generators[0])


@dataclass(frozen=True)
class Ray:
    """A single ray {t v : t > 0}, or the antipodal pair when both=True."""

    v: Vec
    both: bool = False

    def __post_init__(self):
        if is_zero_vec(self.v):
            raise ValueError("ray direction must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.v)


@dataclass(frozen=True)
class GraphCone:
    """The graph {(x, A x) : x != 0} of a square rational matrix A."""

    A: Mat

    def __post_init__(self):
        if not self.A or any(len(r) != len(self.A) for r in self.A):
            raise ValueError("graph matrix must be square")

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def dim(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class ProductCone:
    """A product set {(x, xi) != 0 : x in X, xi in Xi} in R^{2n}.

    Each part is a ConicSet in R^n or None, where None stands for {0}.
    The flags admit 0 into a non-None part, so e.g. a half space
    containing the origin is (part, includes_zero=True).
    """

    x_part: "ConicSet | None"
    xi_part: "ConicSet | None"
    x_includes_zero: bool = False
    xi_includes_zero: bool = False

    def __post_init__(self):
        if self.x_part is None and self.xi_part is None:
            raise ValueError("product of {0} with {0} is empty")
        nx = self.x_part.dim if self.x_part is not None else self.xi_part.dim
        nxi = self.xi_part.dim if self.xi_part is not None else nx
        if nx != nxi:
            raise ValueError("product parts must share the same dimension")

    @property
    def half_dim(self) -> int:
        return self.x_part.dim if self.x_part is not None else self.xi_part.dim

    @property
    def dim(self) -> int:
        return 2 * self.half_dim


Component = PolyhedralCone | Ray | GraphCone | ProductCone


@dataclass(frozen=True)
class ConicSet:
    """Finite union of conic components in R^dim \\ {0}; may be empty."""

    dim: int
    components: tuple[Component, ...] = ()

    def __post_init__(self):
        for c in self.components:
            if c.dim != self.dim:
                raise ValueError(f"component dimension {c.dim} != set dimension {self.dim}")

    @property
    def is_empty(self) -> bool:
        return not self.components


# ---------------------------------------------------------------------------
# constructors

def polyhedral(gens) -> ConicSet:
    g = mat(gens)
    return ConicSet(len(g[0]), (PolyhedralCone(g),))


def ray_set(v, both: bool = False) -> ConicSet:
    w = vec(v)
    return ConicSet(len(w), (Ray(w, both),))


def subspace_set(basis) -> ConicSet:
    """span(basis) minus the origin, encoded with +-basis generators."""
    b = mat(basis)
    gens = b + tuple(vneg(r) for r in b)
    return ConicSet(len(b[0]), (PolyhedralCone(gens),))


def full_space(d: int) -> ConicSet:
    """R^d minus the origin."""
    return subspace_set(_identity(d))


def graph_set(a) -> ConicSet:
    g = GraphCone(mat(a))
    return ConicSet(g.dim, (g,))


def product_set(
    x_part: ConicSet | None,
    xi_part: ConicSet | None,
    x_includes_zero: bool = False,
    xi_includes_zero: bool = False,
) -> ConicSet:
    c = ProductCone(x_part, xi_part, x_includes_zero, xi_includes_zero)
    return ConicSet(c.dim, (c,))


def empty_set(d: int) -> ConicSet:
    return ConicSet(d, ())


# ---------------------------------------------------------------------------
# generator-cone view

@dataclass(frozen=True)
class GenCone:
    """gens + exclude selectors; the working form for exact calculus."""

    gens: Mat
    excludes: tuple[Mat, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.gens[0])


def _embed(gens: Mat, half: int, side: int) -> Mat:
    """Embed R^half generators into R^{2*half} on side 0 (x) or 1 (xi)."""
    zero = tuple(ZERO for _ in range(half))
    if side == 0:
        return tuple(g + zero for g in gens)
    return tuple(zero + g for g in gens)


def _projector(half: int, side: int) -> Mat:
    rows = []
    for i in range(half):
        r = [ZERO] * (2 * half)
        r[i + side * half] = ONE
        rows.append(tuple(r))
    return tuple(rows)


def component_gencones(comp: Component) -> list[GenCone]:
    """Exact generator-cone decomposition of one component."""
    if isinstance(comp, PolyhedralCone):
        return [GenCone(comp.generators, comp.excludes)]
    if isinstance(comp, Ray):
        cones = [GenCone((comp.v,))]
        if comp.both:
            cones.append(GenCone((vneg(comp.v),)))
        return cones
    if isinstance(comp, GraphCone):
        n = comp.n
        at = mat_t(comp.A)
        gens = []
        for i in range(n):
            col = tuple(at[i])
            gens.append(_basis_vec(n, i) + col)
            gens.append(vneg(_basis_vec(n, i) + col))
        return [GenCone(tuple(gens))]
    # a ProductCone: one generator cone per pair of part cones
    half = comp.half_dim
    gxs, x_zero = _part_gencones(comp.x_part, comp.x_includes_zero)
    gxis, xi_zero = _part_gencones(comp.xi_part, comp.xi_includes_zero)
    out = []
    px, pxi = _projector(half, 0), _projector(half, 1)
    for gx in gxs:
        for gxi in gxis:
            gens = _embed(gx.gens, half, 0) + _embed(gxi.gens, half, 1)
            if not gens:                       # {0} x {0} holds no point
                continue
            excludes = [matmul(e, px) for e in gx.excludes]
            excludes += [matmul(e, pxi) for e in gxi.excludes]
            if not x_zero:
                excludes.append(px)
            if not xi_zero:
                excludes.append(pxi)
            out.append(GenCone(tuple(gens), tuple(excludes)))
    return out


def _part_gencones(part: ConicSet | None, includes_zero: bool) -> tuple[list[GenCone], bool]:
    """Generator cones whose union is one side of a product (the part, with
    0 where it admits 0), and whether 0 is in that union.

    A cone without selectors holds 0; any selector removes it (E 0 = 0).
    So a part that admits 0 gains the origin cone when every one of its
    cones carries a selector, which covers empty parts; None is {0}."""
    if part is None:
        return [GenCone(())], True
    cones = set_gencones(part)
    if includes_zero and all(gc.excludes for gc in cones):
        cones.append(GenCone(()))
    return cones, includes_zero


def set_gencones(s: ConicSet) -> list[GenCone]:
    out = []
    for comp in s.components:
        out.extend(component_gencones(comp))
    return out


def gencone_member(gc: GenCone, v: Vec) -> bool:
    if is_zero_vec(v):
        return False
    if not cone_contains(gc.gens, v):
        return False
    for e in gc.excludes:
        if is_zero_vec(matvec(e, v)):
            return False
    return True


# ---------------------------------------------------------------------------
# membership

def member(s: ConicSet, v) -> bool:
    """Exact membership, through the generator-cone decomposition.

    The zero vector is rejected: conic sets exclude the origin by
    definition, so membership of 0 is not a meaningful query.
    """
    w = vec(v)
    if len(w) != s.dim:
        raise ValueError(f"vector dimension {len(w)} != set dimension {s.dim}")
    if is_zero_vec(w):
        raise ValueError("membership of the zero vector is undefined for conic sets")
    return any(gencone_member(gc, w) for gc in set_gencones(s))


# ---------------------------------------------------------------------------
# linear transforms

def _rational_inverse(a: Mat) -> Mat | None:
    n = len(a)
    aug = tuple(row + _basis_vec(n, i) for i, row in enumerate(a))
    red, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        return None
    return tuple(r[n:] for r in red)


def _negate_set(s: ConicSet) -> ConicSet:
    neg = _neg_mat(_identity(s.dim))
    return linear_image(s, neg, neg)


def linear_image(s: ConicSet, m: Mat, m_inv: Mat | None = None) -> ConicSet:
    """Exact image of a conic set under an invertible linear map.

    Generators transform by m; exclude selectors need the inverse, which
    is computed when not supplied.
    """
    if m_inv is None:
        m_inv = _rational_inverse(m)
        if m_inv is None:
            raise ValueError("linear_image requires an invertible map")
    comps: list[Component] = []
    for comp in s.components:
        if isinstance(comp, Ray):
            comps.append(Ray(matvec(m, comp.v), comp.both))
            continue
        for gc in component_gencones(comp):
            gens = tuple(matvec(m, g) for g in gc.gens)
            excludes = tuple(matmul(e, m_inv) for e in gc.excludes)
            comps.append(PolyhedralCone(gens, excludes))
    return ConicSet(s.dim, tuple(comps))


def wf_fourier_rotate(s: ConicSet, inverse: bool = False) -> ConicSet:
    """Image under (x, xi) -> (xi, -x); inverse=True applies (x, xi) -> (-xi, x).

    Component kinds are preserved where the image has the same shape:
    products swap their parts, graphs of invertible matrices stay graphs.
    """
    if s.dim % 2 != 0:
        raise ValueError("phase-space rotation needs even dimension")
    n = s.dim // 2
    eye, zero = _identity(n), _zeros(n, n)
    fwd, back = _block(zero, eye, _neg_mat(eye), zero), _block(zero, _neg_mat(eye), eye, zero)
    rot, rot_inv = (back, fwd) if inverse else (fwd, back)
    comps: list[Component] = []
    for comp in s.components:
        if isinstance(comp, ProductCone):
            if not inverse:
                xp = comp.xi_part
                xip = _negate_set(comp.x_part) if comp.x_part is not None else None
                comps.append(
                    ProductCone(xp, xip, comp.xi_includes_zero, comp.x_includes_zero)
                )
            else:
                xp = _negate_set(comp.xi_part) if comp.xi_part is not None else None
                comps.append(
                    ProductCone(xp, comp.x_part, comp.xi_includes_zero, comp.x_includes_zero)
                )
        elif isinstance(comp, GraphCone) and (inv := _rational_inverse(comp.A)) is not None:
            # both rotation senses send {(x, Ax)} to {(y, -A^{-1} y)}
            comps.append(GraphCone(_neg_mat(inv)))
        else:
            comps.extend(linear_image(ConicSet(s.dim, (comp,)), rot, rot_inv).components)
    return ConicSet(s.dim, tuple(comps))


def wf_chirp_shear(s: ConicSet, a) -> ConicSet:
    """Image under (x, xi) -> (x, xi + A x) for symmetric A."""
    am = mat(a)
    n = len(am)
    if 2 * n != s.dim:
        raise ValueError("shear matrix dimension must be half the set dimension")
    if am != mat_t(am):
        raise ValueError("shear matrix must be symmetric")
    eye, zero = _identity(n), _zeros(n, n)
    m, m_inv = _block(eye, zero, am, eye), _block(eye, zero, _neg_mat(am), eye)
    comps: list[Component] = []
    for comp in s.components:
        if isinstance(comp, GraphCone):
            comps.append(GraphCone(tuple(tuple(p + q for p, q in zip(r1, r2))
                                         for r1, r2 in zip(comp.A, am))))
        elif isinstance(comp, ProductCone) and comp.x_part is None:
            comps.append(comp)  # x = 0 rays are fixed by the shear
        elif isinstance(comp, ProductCone) and comp.xi_part is None and not comp.x_includes_zero:
            # {(x, 0)} shears onto the graph over the x part
            for gc in set_gencones(comp.x_part):
                gens = tuple(g + matvec(am, g) for g in gc.gens)
                excludes = tuple(matmul(e, _projector(n, 0)) for e in gc.excludes)
                comps.append(PolyhedralCone(gens, excludes))
        else:
            comps.extend(linear_image(ConicSet(s.dim, (comp,)), m, m_inv).components)
    return ConicSet(s.dim, tuple(comps))


# ---------------------------------------------------------------------------
# canonical forms and equality

@lru_cache(maxsize=256)
def _hull_is_subspace(gens: Mat) -> bool:
    # pure in the exact generators; angular distances ask once per ray
    return all(cone_contains(gens, vneg(g)) for g in gens)


def _minimal_generators(gens: Mat) -> tuple[Vec, ...]:
    prims = []
    for g in gens:
        p = primitive_ray(g)
        if p not in prims:
            prims.append(p)
    keep = []
    for i, g in enumerate(prims):
        others = [h for j, h in enumerate(prims) if j != i]
        if not others or not cone_contains(others, g):
            keep.append(g)
    return tuple(sorted(keep))


def _nontrivial_excludes(gc: GenCone) -> tuple[Mat, ...]:
    """Selectors whose kernel meets the hull away from the origin."""
    g = mat_t(gc.gens)
    out = []
    for e in gc.excludes:
        rays = extreme_rays(matmul(e, g), len(gc.gens))
        if any(not is_zero_vec(matvec(g, r)) for r in rays):
            out.append(row_space_canonical(e))
    return tuple(sorted(out))


def component_canonical(gc: GenCone):
    """Canonical form for equality tests; raises on shapes it cannot settle."""
    excl = _nontrivial_excludes(gc)
    if _hull_is_subspace(gc.gens):
        return ("subspace", row_space_canonical(gc.gens), excl)
    gens = _minimal_generators(gc.gens)
    if any(cone_contains(gens, vneg(g)) for g in gens):
        raise ExactnessError("cone with partial lineality has no canonical form here")
    return ("pointed", gens, excl)


def _reduced_canonicals(s: ConicSet) -> dict:
    """Canonical forms keyed by repr, with duplicate components
    collapsed and components absorbed into exclude-free hulls that
    contain them."""
    forms: dict[str, tuple] = {}
    carriers: dict[str, GenCone] = {}
    for gc in set_gencones(s):
        canon = component_canonical(gc)
        key = repr(canon)
        forms.setdefault(key, canon)
        carriers.setdefault(key, gc)
    closed_keys = [k for k, canon in forms.items() if not canon[-1]]
    kept = {}
    for key, gc in carriers.items():
        absorbed = any(
            hk != key and _gens_inside(gc, carriers[hk]) for hk in closed_keys
        )
        if not absorbed:
            kept[key] = gc
    return kept


def conic_equal(s: ConicSet, t: ConicSet) -> bool:
    """Exact set equality via canonical component forms.

    Supports sets whose components canonicalize to subspaces or pointed
    cones; raises ExactnessError otherwise.
    Duplicate and absorbed components collapse first; unions that match
    the other side only through a genuinely different decomposition are
    out of scope and compare unequal.
    """
    if s.dim != t.dim:
        return False
    cs = _reduced_canonicals(s)
    ct = _reduced_canonicals(t)
    if set(cs) == set(ct):
        return True
    if len(cs) == 1 and len(ct) == 1:
        # both sides convex: generator-wise mutual containment decides
        # equality of the hulls, provided neither side carves more out
        a, b = next(iter(cs.values())), next(iter(ct.values()))
        if component_canonical(a)[-1] == component_canonical(b)[-1]:
            return _gens_inside(a, b) and _gens_inside(b, a)
    return False


def _gens_inside(a: GenCone, b: GenCone) -> bool:
    return all(cone_contains(b.gens, g) for g in a.gens)


# ---------------------------------------------------------------------------
# angular distance and containment reports

def _float_gens(gc: GenCone) -> np.ndarray:
    return np.array([[float(x) for x in g] for g in gc.gens], dtype=float)


def angular_distance_deg(s: ConicSet, direction) -> float:
    """Angle in degrees from a unit direction to the nearest point of s.

    Distances are measured to component hulls (closures); exclude
    selectors carve out measure-zero slices that do not change angular
    distances.
    """
    w = np.asarray(direction, dtype=float)
    w = w / np.linalg.norm(w)
    return min((_gencone_angle_deg(gc, w) for gc in set_gencones(s)), default=180.0)


def _gencone_angle_deg(gc: GenCone, w: np.ndarray) -> float:
    gens = _float_gens(gc)
    if _hull_is_subspace(gc.gens):
        # orthogonal projection onto span, basis via SVD (QR column order
        # is not rank-revealing without pivoting)
        u, sv, _ = np.linalg.svd(gens.T, full_matrices=False)
        basis = u[:, sv > 1e-10 * max(sv[0], 1.0)]
        proj = basis @ (basis.T @ w)
        c = np.clip(np.linalg.norm(proj), 0.0, 1.0)
        return float(np.degrees(np.arccos(c)))
    from scipy.optimize import nnls

    cols = gens.T / np.linalg.norm(gens, axis=1)
    z, _ = nnls(cols, w)
    p = cols @ z
    nrm = np.linalg.norm(p)
    if nrm < 1e-12:
        return 90.0
    # nearest point of a convex cone: cos(angle) = |projection|
    c = np.clip(nrm, 0.0, 1.0)
    return float(np.degrees(np.arccos(c)))


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

def _frac_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _vec_obj(v: Vec) -> list[list[int]]:
    return [_frac_pair(x) for x in v]


def _mat_obj(m: Mat) -> list[list[list[int]]]:
    return [_vec_obj(r) for r in m]


def component_to_obj(c: Component) -> dict:
    if isinstance(c, PolyhedralCone):
        obj = {"kind": "polyhedral", "generators": _mat_obj(c.generators)}
        if c.excludes:
            obj["excludes"] = [_mat_obj(e) for e in c.excludes]
        return obj
    if isinstance(c, Ray):
        return {"kind": "ray", "v": _vec_obj(c.v), "both": c.both}
    if isinstance(c, GraphCone):
        return {"kind": "graph", "A": _mat_obj(c.A)}
    if isinstance(c, ProductCone):
        def part(p, z):
            if p is None:
                return None
            return {"set": set_to_obj(p), "zero": z}

        return {
            "kind": "product",
            "x": part(c.x_part, c.x_includes_zero),
            "xi": part(c.xi_part, c.xi_includes_zero),
        }
    raise TypeError(f"unknown component {c!r}")


def component_from_obj(obj: dict) -> Component:
    kind = obj["kind"]
    if kind == "polyhedral":
        gens = mat([[frac(p) for p in row] for row in obj["generators"]])
        excludes = tuple(
            mat([[frac(p) for p in row] for row in e]) for e in obj.get("excludes", [])
        )
        return PolyhedralCone(gens, excludes)
    if kind == "ray":
        return Ray(vec([frac(p) for p in obj["v"]]), bool(obj.get("both", False)))
    if kind == "graph":
        return GraphCone(mat([[frac(p) for p in row] for row in obj["A"]]))
    if kind == "product":
        def part(p):
            if p is None:
                return None, False
            return set_from_obj(p["set"]), bool(p.get("zero", False))

        xp, xz = part(obj["x"])
        xip, xiz = part(obj["xi"])
        return ProductCone(xp, xip, xz, xiz)
    raise ValueError(f"unknown component kind {kind!r}")


def set_to_obj(s: ConicSet) -> dict:
    return {"dim": s.dim, "components": [component_to_obj(c) for c in s.components]}


def set_from_obj(obj: dict) -> ConicSet:
    comps = tuple(component_from_obj(c) for c in obj["components"])
    return ConicSet(int(obj["dim"]), comps)


def set_to_json(s: ConicSet) -> str:
    return json.dumps(set_to_obj(s), sort_keys=True)


def set_from_json(text: str) -> ConicSet:
    return set_from_obj(json.loads(text))
