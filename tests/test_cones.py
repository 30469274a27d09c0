import json
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from twistlab.cones import (
    ConicSet,
    PolyhedralCone,
    angular_containment,
    angular_distance_deg,
    _gencone_angle_deg,
    _hform,
    _nnls,
    conic_equal,
    empty_set,
    full_space,
    gencone_member,
    graph_set,
    linear_image,
    member,
    polyhedral,
    product_set,
    ray_set,
    set_from_json,
    set_from_obj,
    set_to_json,
    subspace_set,
    wf_chirp_shear,
    wf_fourier_rotate,
)
from twistlab.rational import (
    cone_contains,
    dot,
    integer_ray,
    mat,
    matvec,
    nullspace,
    rank,
    vneg,
)

F = Fraction


def test_membership_constructors():
    quad = polyhedral([(1, 0), (1, 1)])
    assert member(quad, (2, 1))
    assert member(quad, (1, 0))
    assert not member(quad, (0, 1))
    assert not member(quad, (-1, 0))
    # membership of the origin is rejected outright
    with pytest.raises(ValueError):
        member(quad, (0, 0))

    line = subspace_set([(1, 2)])
    assert member(line, (2, 4)) and member(line, (-1, -2))
    assert not member(line, (1, 0))

    r = ray_set((3, 0))
    assert member(r, (1, 0)) and not member(r, (-1, 0))
    both = ray_set((3, 0), both=True)
    assert member(both, (-1, 0))

    assert member(full_space(2), (5, -7))
    assert not member(empty_set(2), (1, 1))


def test_product_set_blocks():
    # {0} x (R^2 \ 0): frequency-axis directions of a point singularity
    s = product_set(None, full_space(2))
    assert member(s, (0, 0, 1, 2))
    assert not member(s, (1, 0, 0, 1))
    t = product_set(full_space(2), None)
    assert member(t, (3, -1, 0, 0))
    assert not member(t, (3, -1, 0, 1))


def test_graph_set_membership():
    g = graph_set([[F(1)]])  # {(x, x)}
    assert member(g, (2, 2))
    assert not member(g, (2, -2))
    assert not member(g, (0, 1))


@given(st.sampled_from([(1, 0), (1, 1), (0, 1), (-2, 3)]),
       st.integers(min_value=1, max_value=5))
def test_member_dilation_invariant(v, c):
    s = polyhedral([(1, 0), (1, 1)])
    scaled = tuple(c * x for x in v)
    assert member(s, v) == member(s, scaled)


def test_fourier_rotate_fourth_power_identity():
    s = polyhedral([(1, 0, 2, 1), (0, 1, 1, 1)])
    t = s
    for _ in range(4):
        t = wf_fourier_rotate(t)
    assert conic_equal(t, s)
    # inverse undoes one application
    assert conic_equal(wf_fourier_rotate(wf_fourier_rotate(s), inverse=True), s)


def test_fourier_rotate_maps_position_to_frequency():
    pos = product_set(full_space(1), None)   # (x, 0) directions
    freq = product_set(None, full_space(1))  # (0, xi) directions
    assert conic_equal(wf_fourier_rotate(pos), freq)


def test_chirp_shear_inverse():
    a = [[F(1), F(1, 2)], [F(1, 2), F(0)]]
    neg = [[-x for x in row] for row in a]
    s = polyhedral([(1, 0, 0, 1), (0, 1, 1, 0)])
    assert conic_equal(wf_chirp_shear(wf_chirp_shear(s, a), neg), s)


def test_chirp_shear_tilts_position_directions():
    # (x, xi) -> (x, xi + A x): position-axis directions pick up slope A,
    # while the frequency axis (x = 0) is left untouched
    pw_wf = product_set(full_space(1), None)
    sheared = wf_chirp_shear(pw_wf, [[F(1)]])
    assert member(sheared, (1, 1)) and member(sheared, (-1, -1))
    assert not member(sheared, (1, 0))
    delta_wf = product_set(None, full_space(1))
    assert conic_equal(wf_chirp_shear(delta_wf, [[F(1)]]), delta_wf)


def test_conic_equal_reduction():
    # the same ray presented twice collapses
    a = ConicSet(2, ray_set((1, 0)).components + ray_set((2, 0)).components)
    assert conic_equal(a, ray_set((1, 0)))
    # a ray absorbed into a hull that contains it
    hull = polyhedral([(1, 0), (1, 1)])
    b = ConicSet(2, hull.components + ray_set((2, 1)).components)
    assert conic_equal(b, hull)
    assert not conic_equal(ray_set((1, 0)), ray_set((0, 1)))


def test_conic_equal_partial_lineality():
    # a closed half plane: lineality xi-axis, pointed part x >= 0
    h = polyhedral([(1, 0), (0, 1), (0, -1)])
    assert conic_equal(h, h)
    assert conic_equal(h, polyhedral([(1, 1), (0, 1), (0, -1)]))
    assert not conic_equal(h, polyhedral([(1, 0), (0, 1)]))
    assert not conic_equal(h, full_space(2))


def test_conic_equal_tilings():
    # eight wedges around the origin are the plane minus the origin; with
    # one wedge missing they are not, which takes one complement piece of
    # several wedges at once
    dirs = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (1, -1)]
    wedges = [polyhedral([a, b]).components[0] for a, b in zip(dirs, dirs[1:] + dirs[:1])]
    assert conic_equal(ConicSet(2, tuple(wedges)), full_space(2))
    for i in range(len(wedges)):
        assert not conic_equal(ConicSet(2, tuple(wedges[:i] + wedges[i + 1:])), full_space(2))


def test_angular_distance_known_values():
    axis = ray_set((1, 0))
    assert angular_distance_deg(axis, (1, 0)) == pytest.approx(0.0, abs=1e-12)
    assert angular_distance_deg(axis, (0, 1)) == pytest.approx(90.0, rel=1e-12)
    # directions with no positive component project to the apex: 90 degrees
    assert angular_distance_deg(axis, (-1, 0)) == pytest.approx(90.0, rel=1e-12)
    diag = ray_set((1, 1))
    assert angular_distance_deg(diag, (1, 0)) == pytest.approx(45.0, rel=1e-10)
    assert angular_distance_deg(empty_set(2), (1, 0)) == 180.0


@st.composite
def _cone_and_direction(draw):
    """Integer generators in R^2 or R^4 and a unit direction: free, along
    a generator, or opposite one."""
    d = draw(st.sampled_from([2, 4]))
    gens = draw(st.lists(_nonzero(d), min_size=1, max_size=8, unique=True))
    pick = draw(st.sampled_from(["free", "generator", "opposite"]))
    if pick == "free":
        w = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
                 .filter(lambda v: np.linalg.norm(v) > 1e-3))
    else:
        w = draw(st.sampled_from(gens))
        w = w if pick == "generator" else [-x for x in w]
    w = np.asarray(w, dtype=float)
    return gens, w / np.linalg.norm(w)


# scipy's nnls returns a point with residual 1.95 here, worse than z = 0
_SCIPY_SHORT = ([(1, 0, -2, 0), (-2, -1, -1, 1), (2, -2, 1, 2), (-1, 0, -1, 0), (-1, -1, -3, 1)],
                np.array([-0.447213595499958, 0.0, 0.894427190999916, 0.0]))


def _kkt_gap(cols, w, z):
    """Zero at an optimum: no ascent direction, zero gradient where z > 0."""
    grad = cols.T @ (w - cols @ z)
    return max(grad.max(), np.abs(grad[z > 0]).max(initial=0.0))


@settings(max_examples=100)
@given(_cone_and_direction())
@example(_SCIPY_SHORT)
def test_nnls_matches_scipy(case):
    gens, w = case
    g = np.array(gens, dtype=float)
    cols = g.T / np.linalg.norm(g, axis=1)
    z, (zs, _) = _nnls(cols, w), nnls(cols, w)
    p, ps = cols @ z, cols @ zs
    assert z.min() >= 0.0 and _kkt_gap(cols, w, z) <= 1e-12
    if _kkt_gap(cols, w, zs) > 1e-10:       # scipy is not optimal: be no worse
        assert np.linalg.norm(w - p) <= np.linalg.norm(w - ps) + 1e-12
        return
    np.testing.assert_allclose(p, ps, rtol=0.0, atol=1e-12)
    cone = PolyhedralCone(mat(gens), ())
    if _hform(cone.generators)[1]:      # not a subspace: the angle is nnls's
        nrm = np.linalg.norm(ps)
        want = 90.0 if nrm < 1e-12 else np.degrees(np.arctan2(np.linalg.norm(w - ps), nrm))
        assert _gencone_angle_deg(cone, w) == pytest.approx(want, rel=0.0, abs=1e-9)


def test_angular_containment_report():
    dirs = np.array([[1.0, 0.0], [np.cos(0.01), np.sin(0.01)]])
    rep = angular_containment(dirs, ray_set((1, 0)), tol_deg=1.0)
    assert rep.passed and rep.fraction == 1.0 and rep.total == 2
    strict = angular_containment(dirs, ray_set((1, 0)), tol_deg=0.1)
    assert not strict.passed and strict.within == 1
    assert strict.max_excess_deg == pytest.approx(np.degrees(0.01), rel=1e-6)
    # empty direction list is vacuously contained
    none = angular_containment(np.zeros((0, 2)), ray_set((1, 0)), tol_deg=1.0)
    assert none.passed and none.fraction == 1.0


def test_json_roundtrip():
    for s in (
        empty_set(4),
        full_space(3),
        ray_set((1, -2)),
        subspace_set([(1, 0, 0), (0, 1, 1)]),
        polyhedral([(1, 0), (1, 1)]),
        product_set(full_space(2), None),
        graph_set([[F(1), F(0)], [F(0), F(2)]]),
    ):
        text = set_to_json(s)
        assert all(c["kind"] == "polyhedral" for c in json.loads(text)["components"])
        t = set_from_json(text)
        assert t.dim == s.dim
        assert conic_equal(s, t)


def test_linear_image_of_ray():
    s = ray_set((1, 0))
    m = ((F(0), F(-1)), (F(1), F(0)))  # rotate 90 degrees
    t = linear_image(s, m)
    assert member(t, (0, 1))
    assert not member(t, (1, 0))


def test_linear_image_checks_map_columns():
    s = ray_set((1, 0))
    for m in (((F(1), F(0), F(0)),), ((F(1),),), ()):
        with pytest.raises(ValueError, match=r"linear map has \d+ columns, set dimension is 2"):
            linear_image(s, m)
    # any map of the right width, also a singular or non-square one
    assert member(linear_image(s, ((F(1), F(1)),)), (3,))


def test_linear_image_drops_implied_selectors():
    # x1 != 0 implies (x1, x2) != 0, so the image writes only the first;
    # x2 != 0 implies neither and stays
    gens = mat([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    x1, x12, x2 = mat([[1, 0, 0]]), mat([[1, 0, 0], [0, 1, 0]]), mat([[0, 1, 0]])
    s = ConicSet(3, (PolyhedralCone(gens, (x12, x1, x2)),))
    t = linear_image(s, mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert [c.excludes for c in t.components] == [(x1, x2)]
    assert conic_equal(s, t)


# ---------------------------------------------------------------------------
# membership against closed-form definitions

_ENTRY = st.integers(min_value=-2, max_value=2)


def _vector(n):
    return st.lists(_ENTRY, min_size=n, max_size=n).map(tuple)


def _nonzero(n):
    return _vector(n).filter(any)


def _on_ray(v, w, both):
    """w = t v with t > 0, or t != 0 when both."""
    n = len(v)
    parallel = all(w[i] * v[j] == w[j] * v[i] for i in range(n) for j in range(n))
    dot = sum(a * b for a, b in zip(v, w))
    return parallel and (dot > 0 or (both and dot < 0))


# polyhedral parts by their closed forms: (generators, predicate)
_CONES = {
    1: [([(1,)], lambda h: h[0] > 0),
        ([(-2,)], lambda h: h[0] < 0)],
    2: [([(1, 0), (0, 1)], lambda h: h[0] >= 0 and h[1] >= 0),
        ([(1, 0), (-1, 0), (0, 1)], lambda h: h[1] >= 0),
        ([(1, 1), (-1, 1)], lambda h: h[1] >= abs(h[0]))],
}


# polyhedral parts with exclude selectors: (generators, selectors, predicate)
_CUT_CONES = {
    1: [([(1,), (-1,)], [[(1,)]], lambda h: True)],
    2: [([(1, 0), (-1, 0), (0, 1), (0, -1)], [[(0, 1)]], lambda h: h[1] != 0),
        ([(1, 0), (-1, 0), (0, 1)], [[(1, 0)]], lambda h: h[1] >= 0 and h[0] != 0)],
}


def _set_obj(n, *components):
    return {"dim": n, "components": list(components)}


def _cone_obj(gens, excludes=()):
    obj = {"kind": "polyhedral", "generators": [list(g) for g in gens]}
    if excludes:
        obj["excludes"] = [[list(r) for r in e] for e in excludes]
    return obj


def _full_obj(n):
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return _set_obj(n, _cone_obj(eye + [[-x for x in r] for r in eye]))


@st.composite
def _part(draw, n):
    """A product part in R^n: (set or None, its JSON input object or
    None, zero flag, predicate on nonzero half vectors, a direction on it
    or None).  "cut" and, in R^2, "nested" parts carry exclude selectors."""
    kinds = ["none", "empty", "ray", "cone", "full", "cut"]
    kind = draw(st.sampled_from(kinds + (["nested"] if n == 2 else [])))
    zero = draw(st.booleans())
    if kind == "cut":
        gens, excludes, pred = draw(st.sampled_from(_CUT_CONES[n]))
        cone = PolyhedralCone(mat(gens), tuple(mat(e) for e in excludes))
        return ConicSet(n, (cone,)), _set_obj(n, _cone_obj(gens, excludes)), zero, pred, gens[0]
    if kind == "nested":
        s, obj, pred, hints = draw(_component(1))
        hint = next((h for h in hints if any(h)), None)
        return s, _set_obj(2, obj), zero, pred, hint
    if kind == "none":
        return None, None, zero, lambda h: False, None
    if kind == "empty":
        return empty_set(n), _set_obj(n), zero, lambda h: False, None
    if kind == "ray":
        v, both = draw(_nonzero(n)), draw(st.booleans())
        obj = _set_obj(n, {"kind": "ray", "v": list(v), "both": both})
        return ray_set(v, both), obj, zero, lambda h: _on_ray(v, h, both), v
    if kind == "cone":
        gens, pred = draw(st.sampled_from(_CONES[n]))
        return polyhedral(gens), _set_obj(n, _cone_obj(gens)), zero, pred, gens[0]
    return full_space(n), _full_obj(n), zero, lambda h: True, None


def _part_holds(part, zero, pred, h):
    if not any(h):
        return part is None or zero
    return part is not None and pred(h)


@st.composite
def _component(draw, n):
    """One ray, graph or product of R^{2n} as a set, its JSON input
    object, its closed-form membership predicate, and directions worth
    probing."""
    kind = draw(st.sampled_from(["ray", "graph", "product"]))
    if kind == "ray":
        v, both = draw(_nonzero(2 * n)), draw(st.booleans())
        obj = {"kind": "ray", "v": list(v), "both": both}
        return ray_set(v, both), obj, (lambda w: _on_ray(v, w, both)), [v]
    if kind == "graph":
        a = [draw(_vector(n)) for _ in range(n)]

        def on_graph(w):
            x, xi = w[:n], w[n:]
            return any(x) and all(xi[i] == sum(a[i][j] * x[j] for j in range(n))
                                  for i in range(n))

        x = draw(_nonzero(n))
        obj = {"kind": "graph", "A": [list(r) for r in a]}
        return graph_set(a), obj, on_graph, \
            [x + tuple(sum(a[i][j] * x[j] for j in range(n)) for i in range(n))]
    xs, xis = draw(_part(n)), draw(_part(n))
    if xs[0] is None and xis[0] is None:       # product_set refuses {0} x {0}
        xis = full_space(n), _full_obj(n), False, lambda h: True, None

    def in_product(w):
        return _part_holds(xs[0], *xs[2:4], w[:n]) and _part_holds(xis[0], *xis[2:4], w[n:])

    def part_obj(p):
        return None if p[0] is None else {"set": p[1], "zero": p[2]}

    obj = {"kind": "product", "x": part_obj(xs), "xi": part_obj(xis)}
    zero = (0,) * n
    hints = [(xs[4] or zero) + (xis[4] or zero)]
    hints += [(xs[4] or zero) + zero, zero + (xis[4] or zero)]
    return product_set(xs[0], xis[0], xs[2], xis[2]), obj, in_product, hints


@st.composite
def _member_case(draw):
    n = draw(st.sampled_from([1, 2]))
    s, obj, pred, hints = draw(_component(n))
    zero = (0,) * n
    points = [
        zero + draw(_vector(n)),                       # x = 0 slice
        draw(_vector(n)) + zero,                       # xi = 0 slice
        draw(_vector(2 * n)),
    ]
    for h in hints:
        t = draw(st.sampled_from([-2, -1, 1, 2]))
        points.append(tuple(t * x for x in h))         # on the ray, or its reflection
    return s, obj, pred, [p for p in points if any(p)]


@settings(max_examples=200)
@given(_member_case())
def test_member_matches_closed_forms(case):
    s, obj, pred, points = case
    read = set_from_obj(_set_obj(s.dim, obj))
    for w in points:
        assert member(s, w) == pred(w), (obj, w)
        assert member(read, w) == pred(w), (obj, w)


# ---------------------------------------------------------------------------
# facets against the LP, equality against the lattice

_SELECTORS = {2: [(), (((1, 0),),)],
              4: [(), (((1, 0, 0, 0), (0, 1, 0, 0)),), (((1, 0, 1, 0),),)]}


@st.composite
def _gen_cone(draw, d=None):
    """A generator cone in R^2 or R^4: random generators, optionally
    flattened to a lower dimension, with a line of lineality, a redundant
    generator (the sum of two) and exclude selectors."""
    d = d or draw(st.sampled_from([2, 4]))
    gens = draw(st.lists(_nonzero(d), min_size=1, max_size=3))
    if draw(st.booleans()):                    # lower dimension: last coordinate 0
        gens = [g[:-1] + (0,) for g in gens if any(g[:-1])] or [(1,) + (0,) * (d - 1)]
    if draw(st.booleans()):                    # lineality
        gens.append(tuple(-x for x in gens[-1]))
    if len(gens) > 1 and draw(st.booleans()):  # redundant
        gens.append(tuple(a + b for a, b in zip(gens[0], gens[1])))
    gens = [g for g in gens if any(g)] or [(1,) + (0,) * (d - 1)]
    if draw(st.booleans()):                    # a duplicate and a parallel generator
        g = draw(st.sampled_from(gens))
        gens.insert(draw(st.integers(0, len(gens))), g)
        gens.insert(draw(st.integers(0, len(gens))), tuple(3 * x for x in g))
    excludes = draw(st.sampled_from(_SELECTORS[d]))
    return PolyhedralCone(mat(gens), tuple(mat(e) for e in excludes))


def _lattice(d, r):
    return [mat([v])[0] for v in product(range(-r, r + 1), repeat=d) if any(v)]


@given(_gen_cone(), st.data())
def test_gencone_member_matches_lp(cone, data):
    d = cone.dim
    gens = cone.generators
    probes = list(gens) + [tuple(-x for x in g) for g in gens]
    probes += [tuple(a + b for a, b in zip(g, h)) for g in gens for h in gens]
    probes += data.draw(st.lists(_nonzero(d).map(lambda v: mat([v])[0]), min_size=8, max_size=8))
    for v in filter(any, probes):
        want = cone_contains(gens, v) and all(any(matvec(e, v)) for e in cone.excludes)
        assert gencone_member(cone, v) == want, (cone, v)


def _oracle_hform(gens):
    """The H-form by brute force: each (r - 1)-subset of the generators
    whose normal inside span(gens) has one sign on all of them gives a
    facet, in `combinations` order."""
    d = len(gens[0])
    eqs = tuple(integer_ray(a) for a in nullspace(gens))
    facets = {}
    for sub in combinations(gens, d - len(eqs) - 1):
        if len(normal := nullspace(sub + eqs, d)) == 1:
            h = normal[0] if any(dot(normal[0], g) > 0 for g in gens) else vneg(normal[0])
            if all(dot(h, g) >= 0 for g in gens):
                facets.setdefault(integer_ray(h), None)
    return eqs, tuple(facets)


@settings(max_examples=100)
@example(PolyhedralCone(mat([[7, -2], [-1, 2]])))     # facets in reverse order of their slacks
@given(_gen_cone())
def test_facets_support_the_cone(cone):
    gens = cone.generators
    eqs, facets = _hform(gens)
    assert (eqs, facets) == _oracle_hform(gens)         # order included
    r = rank(gens)
    assert len(eqs) == cone.dim - r
    assert all(sum(a * g for a, g in zip(row, v)) == 0 for row in eqs for v in gens)
    for h in facets:
        on = [g for g in gens if sum(a * b for a, b in zip(h, g)) == 0]
        assert all(sum(a * b for a, b in zip(h, g)) >= 0 for g in gens)
        assert rank(on) == r - 1 if on else r == 1
    # no facets exactly when the cone is a subspace
    assert (not facets) == all(cone_contains(gens, tuple(-x for x in g)) for g in gens)


@given(st.data())
def test_conic_equal_matches_lattice(data):
    d = data.draw(st.sampled_from([2, 4]))
    cones = data.draw(st.lists(_gen_cone(d), min_size=1, max_size=2))
    s = ConicSet(d, tuple(cones))
    lattice = _lattice(d, 2)
    # s with one more ray: equal exactly when the ray's lattice point is in s
    v = data.draw(st.sampled_from(lattice))
    t = ConicSet(d, s.components + ray_set(v).components)
    same = all(member(s, w) == member(t, w) for w in lattice)
    assert conic_equal(s, t) == conic_equal(t, s) == same == member(s, v)
    # a cone split along a + b into two cones is the same set
    c = cones[0]
    if len(c.generators) > 1:
        a, b, *rest = c.generators
        m = tuple(x + y for x, y in zip(a, b))
        if any(m):
            halves = tuple(PolyhedralCone((a, m, *rest), c.excludes) if i == 0
                           else PolyhedralCone((m, b, *rest), c.excludes) for i in range(2))
            split = ConicSet(d, halves + s.components[1:])
            assert conic_equal(s, split)
            assert all(member(s, w) == member(split, w) for w in lattice)
