"""Exact finite representations of closed conic subsets of R^d \\ {0}.

A ConicSet is a finite union of generator cones, over Fraction
arithmetic.  A generator cone (`PolyhedralCone`) is a tuple of
generators plus "exclude" selectors, and represents

    {v in cone(generators) : v != 0 and  E v != 0 for every selector E}.

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
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .rational import (
    Mat,
    Vec,
    cone_contains,
    extreme_rays,
    hcat,
    identity,
    inverse,
    is_zero_vec,
    mat,
    mat_t,
    matmul,
    matvec,
    mscale,
    primitive_ray,
    row_space_canonical,
    vec,
    vneg,
    zeros,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the cone type and the set

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
    if is_zero_vec(w):
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
    for x_gens, x_excl in gxs:
        for xi_gens, xi_excl in gxis:
            gens = _embed(x_gens, half, 0) + _embed(xi_gens, half, 1)
            if not gens:                       # {0} x {0} holds no point
                continue
            excludes = [matmul(e, px) for e in x_excl]
            excludes += [matmul(e, pxi) for e in xi_excl]
            if not x_zero:
                excludes.append(px)
            if not xi_zero:
                excludes.append(pxi)
            cones.append(PolyhedralCone(gens, tuple(excludes)))
    return ConicSet(2 * half, tuple(cones))


def empty_set(d: int) -> ConicSet:
    return ConicSet(d, ())


def _embed(gens: Mat, half: int, side: int) -> Mat:
    """Embed R^half generators into R^{2*half} on side 0 (x) or 1 (xi)."""
    zero = tuple(ZERO for _ in range(half))
    if side == 0:
        return tuple(g + zero for g in gens)
    return tuple(zero + g for g in gens)


def _projector(half: int, side: int) -> Mat:
    """The rows picking x (side 0) or xi (side 1) out of (x, xi) in R^{2*half}."""
    eye, zero = identity(half), zeros(half, half)
    return hcat(zero, eye) if side else hcat(eye, zero)


def _part_cones(part: ConicSet | None, includes_zero: bool) -> tuple[list, bool]:
    """(generators, excludes) pairs whose union is one side of a product
    (the part, with 0 where it admits 0), and whether 0 is in that union.

    A cone without selectors holds 0; any selector removes it (E 0 = 0).
    So where the part admits 0, selectors that only remove the origin are
    dropped, and the origin cone is added when every cone still carries a
    selector, which covers empty parts; None is {0}."""
    if part is None:
        return [((), ())], True
    cones = [(c.generators, c.excludes) for c in part.components]
    if includes_zero:
        cones = [(g, tuple(e for e in excl if _selector_cuts(e, g))) for g, excl in cones]
        if all(excl for _, excl in cones):
            cones.append(((), ()))
    return cones, includes_zero


def _selector_cuts(e: Mat, gens: Mat) -> bool:
    """Whether the kernel of selector e meets cone(gens) away from the origin."""
    g = mat_t(gens)
    return any(not is_zero_vec(matvec(g, r)) for r in extreme_rays(matmul(e, g), len(gens)))


# ---------------------------------------------------------------------------
# membership

def gencone_member(gc: PolyhedralCone, v: Vec) -> bool:
    if is_zero_vec(v):
        return False
    if not cone_contains(gc.generators, v):
        return False
    for e in gc.excludes:
        if is_zero_vec(matvec(e, v)):
            return False
    return True


def member(s: ConicSet, v) -> bool:
    """Exact membership in one of the generator cones of s.

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

def linear_image(s: ConicSet, m: Mat, m_inv: Mat | None = None) -> ConicSet:
    """Exact image of a conic set under an invertible linear map.

    Generators transform by m; exclude selectors need the inverse, which
    is computed when not supplied.
    """
    if m_inv is None:
        m_inv = inverse(m)
        if m_inv is None:
            raise ValueError("linear_image requires an invertible map")
    return ConicSet(s.dim, tuple(
        PolyhedralCone(tuple(matvec(m, g) for g in c.generators),
                       tuple(matmul(e, m_inv) for e in c.excludes))
        for c in s.components
    ))


def wf_fourier_rotate(s: ConicSet, inverse: bool = False) -> ConicSet:
    """Image under (x, xi) -> (xi, -x); inverse=True applies (x, xi) -> (-xi, x)."""
    if s.dim % 2 != 0:
        raise ValueError("phase-space rotation needs even dimension")
    n = s.dim // 2
    eye, zero = identity(n), zeros(n, n)
    fwd = hcat(zero, eye) + hcat(mscale(-ONE, eye), zero)
    back = hcat(zero, mscale(-ONE, eye)) + hcat(eye, zero)
    return linear_image(s, back, fwd) if inverse else linear_image(s, fwd, back)


def wf_chirp_shear(s: ConicSet, a) -> ConicSet:
    """Image under (x, xi) -> (x, xi + A x) for symmetric A."""
    am = mat(a)
    n = len(am)
    if 2 * n != s.dim:
        raise ValueError("shear matrix dimension must be half the set dimension")
    if am != mat_t(am):
        raise ValueError("shear matrix must be symmetric")
    eye, zero = identity(n), zeros(n, n)
    return linear_image(s, hcat(eye, zero) + hcat(am, eye),
                        hcat(eye, zero) + hcat(mscale(-ONE, am), eye))


# ---------------------------------------------------------------------------
# canonical forms and equality

@lru_cache(maxsize=256)
def _lineality_split(gens: Mat) -> tuple[Mat, tuple[Vec, ...]]:
    """The `row_space_canonical` basis of the lineality space of
    cone(gens), which the generators g with -g in the hull span, and the
    minimal generators of the cone's projection onto the orthogonal
    complement of that space.  The projection is pointed, so both parts
    are canonical.  Pure in the exact generators; angular distances ask
    once per cone."""
    lin = row_space_canonical([g for g in gens if cone_contains(gens, vneg(g))])
    if lin:
        # g minus its orthogonal projection lin^T (lin lin^T)^{-1} lin g
        gram_inv, lin_t = inverse(matmul(lin, mat_t(lin))), mat_t(lin)
        gens = [tuple(x - y for x, y in zip(g, matvec(lin_t, matvec(gram_inv, matvec(lin, g)))))
                for g in gens]
    return lin, _minimal_generators([g for g in gens if not is_zero_vec(g)])


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


def _nontrivial_excludes(gc: PolyhedralCone) -> tuple[Mat, ...]:
    """Selectors whose kernel meets the hull away from the origin."""
    return tuple(sorted(
        row_space_canonical(e) for e in gc.excludes if _selector_cuts(e, gc.generators)
    ))


def component_canonical(gc: PolyhedralCone):
    """Canonical form for equality tests: the lineality basis, the pointed
    generators of the rest (`_lineality_split`) and the selectors that cut
    the hull."""
    return _lineality_split(gc.generators) + (_nontrivial_excludes(gc),)


def _reduced_canonicals(s: ConicSet) -> set[str]:
    """The reprs of the canonical forms of s's components, with duplicate
    components collapsed and components absorbed into exclude-free hulls
    that contain them dropped."""
    carriers: dict[str, tuple] = {}
    for gc in set_gencones(s):
        canon = component_canonical(gc)
        carriers.setdefault(repr(canon), (gc, not canon[-1]))
    closed = [(k, gc) for k, (gc, exclude_free) in carriers.items() if exclude_free]
    return {key for key, (gc, _) in carriers.items()
            if not any(hk != key and _gens_inside(gc, h) for hk, h in closed)}


def conic_equal(s: ConicSet, t: ConicSet) -> bool:
    """Exact set equality via canonical component forms.

    Each hull has one canonical form, so two single components are equal
    exactly when their forms are.  Duplicate and absorbed components
    collapse first; unions that match the other side only through a
    genuinely different decomposition are out of scope and compare
    unequal.
    """
    return s.dim == t.dim and _reduced_canonicals(s) == _reduced_canonicals(t)


def _gens_inside(a: PolyhedralCone, b: PolyhedralCone) -> bool:
    return all(cone_contains(b.generators, g) for g in a.generators)


# ---------------------------------------------------------------------------
# angular distance and containment reports

def _float_gens(gc: PolyhedralCone) -> np.ndarray:
    return np.array([[float(x) for x in g] for g in gc.generators], dtype=float)


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
    if not _lineality_split(gc.generators)[1]:
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


def set_to_obj(s: ConicSet) -> dict:
    comps = []
    for c in s.components:
        obj = {"kind": "polyhedral", "generators": _mat_obj(c.generators)}
        if c.excludes:
            obj["excludes"] = [_mat_obj(e) for e in c.excludes]
        comps.append(obj)
    return {"dim": s.dim, "components": comps}


def _component_from_obj(obj: dict) -> ConicSet:
    """One JSON component, of any input kind, as the set it denotes."""
    kind = obj["kind"]
    if kind == "polyhedral":
        excludes = tuple(mat(e) for e in obj.get("excludes", []))
        cone = PolyhedralCone(mat(obj["generators"]), excludes)
        return ConicSet(cone.dim, (cone,))
    if kind == "ray":
        return ray_set(obj["v"], bool(obj.get("both", False)))
    if kind == "graph":
        return graph_set(obj["A"])
    if kind == "product":
        def part(p):
            if p is None:
                return None, False
            return set_from_obj(p["set"]), bool(p.get("zero", False))

        (xp, xz), (xip, xiz) = part(obj["x"]), part(obj["xi"])
        return product_set(xp, xip, xz, xiz)
    raise ValueError(f"unknown component kind {kind!r}")


def set_from_obj(obj: dict) -> ConicSet:
    """Read a set written by `set_to_obj`, or given as a union of
    `polyhedral`, `ray`, `graph` and `product` components."""
    dim = int(obj["dim"])
    comps = []
    for c in obj["components"]:
        part = _component_from_obj(c)
        if part.dim != dim:
            raise ValueError(f"component dimension {part.dim} != set dimension {dim}")
        comps.extend(part.components)
    return ConicSet(dim, tuple(comps))


def set_to_json(s: ConicSet) -> str:
    return json.dumps(set_to_obj(s), sort_keys=True)


def set_from_json(text: str) -> ConicSet:
    return set_from_obj(json.loads(text))
