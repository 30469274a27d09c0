import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab.calculus import (
    _witness,
    shift_algebra_check,
    as_rational_antisym,
    existence_condition,
    existence_condition_theta_inv,
    pair_condition,
    predicted_product_wf,
    predicted_star_wf,
    wf_pullback,
)
from twistlab.cones import (
    ConicSet,
    PolyhedralCone,
    conic_equal,
    empty_set,
    full_space,
    linear_image,
    member,
    polyhedral,
    product_set,
    ray_set,
    subspace_set,
)
from twistlab.rational import (
    hcat,
    identity,
    integer_form,
    integer_ray,
    inverse,
    madd,
    mat_t,
    matmul,
    matvec,
    mscale,
    vec,
    zeros,
)
from twistlab.suites import _random_polyhedral

F = Fraction
J = ((F(0), F(1)), (F(-1), F(0)))
ZERO2 = ((F(0), F(0)), (F(0), F(0)))

# phase space sets over R^1 and R^2
DELTA_1 = product_set(None, full_space(1))       # {0} x (R \ 0)
OSC_1 = product_set(full_space(1), None)         # (R \ 0) x {0}
DELTA_2 = product_set(None, full_space(2))
OSC_2 = product_set(full_space(2), None)


def test_theta_validation():
    with pytest.raises(ValueError):
        as_rational_antisym(((F(0), F(1)), (F(1), F(0))), 2)
    with pytest.raises(ValueError):
        as_rational_antisym(((F(0),),), 2)
    m = as_rational_antisym([[0, 0.5], [-0.5, 0]], 2)
    assert m[0][1] == F(1, 2)


def test_existence_forced_true_any_coupling():
    # oscillation-only against point-singularity-only can never violate
    # the pairing condition
    for theta in (ZERO2, J, tuple(tuple(3 * x / 7 for x in row) for row in J)):
        assert existence_condition(OSC_2, DELTA_2, theta).holds
        assert existence_condition(DELTA_2, OSC_2, theta).holds


def test_existence_delta_pair_fails_with_valid_witness():
    res = existence_condition(DELTA_1, DELTA_1, ((F(0),),))
    assert not res.holds
    p, q = res.witness
    assert member(DELTA_1, p) and member(DELTA_1, q)
    # q is the frequency flip of p (up to positive scale)
    flip = (p[0], -p[1])
    assert integer_ray(q) == integer_ray(flip)
    # the pairing equation x = (1/2) theta xi degenerates to x = 0
    assert p[0] == 0


def test_existence_witness_solves_pairing_equation():
    # with invertible coupling the diagonal pair fails off the axes
    diag = subspace_set([(1, 0, 1, 0)])  # x1-direction with equal frequency
    res = existence_condition(diag, diag, J)
    if not res.holds:
        (x1, x2, k1, k2), _q = res.witness
        half = matvec(tuple(tuple(v / 2 for v in row) for row in J), (k1, k2))
        assert (x1, x2) == half


def test_phrasings_agree_on_small_cases():
    pairs = [
        (DELTA_2, DELTA_2),
        (OSC_2, OSC_2),
        (DELTA_2, OSC_2),
        (polyhedral([(1, 0, 0, 1), (0, 1, 1, 0)]), polyhedral([(1, 1, 1, 1)])),
    ]
    for u, v in pairs:
        a = existence_condition(u, v, J)
        b = existence_condition_theta_inv(u, v, J)
        assert a.holds == b.holds


X_NONZERO = ((F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)))  # selector "x != 0"
X1_PLUS_XI1 = ((F(1), F(0), F(1), F(0)),)  # "x1 + xi1 != 0": not flip-symmetric
coords = st.integers(-2, 2).map(F)


@st.composite
def _component(draw, planted=None, excludes=None, max_gens=3):
    gens = draw(st.lists(st.tuples(*[coords] * 4).filter(any), min_size=1, max_size=max_gens))
    if planted is not None:
        gens.append(planted)
    if excludes is None:
        excludes = draw(st.sampled_from([(), (X_NONZERO,), (X1_PLUS_XI1,)]))
    return PolyhedralCone(tuple(gens), excludes)


@st.composite
def _pair_in_r4(draw):
    """Two sets of polyhedral components in R^4 and a coupling theta in
    {J, 2J, J/3}.  Most cases plant a pair (x, xi) in u, (x, -xi) in v on
    the slice x = theta xi / 2; in a third of them v's planted component
    carries X1_PLUS_XI1, which vanishes there (xi = (c, 2) gives
    x1 - xi1 = 0), so only v's own selector keeps that pair out."""
    c = draw(st.sampled_from([F(1), F(2), F(1, 3)]))
    theta = tuple(tuple(c * t for t in row) for row in J)
    comps_u = draw(st.lists(_component(), min_size=1, max_size=2))
    comps_v = draw(st.lists(_component(), min_size=1, max_size=2))
    plant = draw(st.sampled_from(["none", "free", "excluded"]))
    if plant != "none":
        xi = draw(st.tuples(coords, coords).filter(any)) if plant == "free" else (c, F(2))
        x = matvec(tuple(tuple(t / 2 for t in row) for row in theta), xi)
        v_excl = (X1_PLUS_XI1,) if plant == "excluded" else None
        comps_u.append(draw(_component(planted=x + xi)))
        comps_v.append(draw(_component(planted=x + (-xi[0], -xi[1]), excludes=v_excl)))
    return ConicSet(4, tuple(comps_u)), ConicSet(4, tuple(comps_v)), theta


def _on_slice(p, theta):
    # x = (1/2) theta xi
    return p[:2] == matvec(tuple(tuple(t / 2 for t in row) for row in theta), p[2:])


def _flip(p):
    return p[:2] + tuple(-t for t in p[2:])


@given(_pair_in_r4())
def test_yes_no_witnesses_solve_their_equations(case):
    u, v, theta = case
    a = existence_condition(u, v, theta)
    b = existence_condition_theta_inv(u, v, theta)
    assert a.holds == b.holds
    for res in (a, b):
        if not res.holds:
            p, q = res.witness
            assert member(u, p) and member(v, q)
            assert _on_slice(p, theta) and integer_ray(q) == integer_ray(_flip(p))
            if res.phrasing == "theta-inverse":
                assert any(p[:2])
    for gamma in (u, v):
        pc = pair_condition(gamma)
        if not pc.holds:
            p, fp = pc.witness
            assert member(gamma, p) and member(gamma, fp) and fp == _flip(p)
        _assert_salience_witness(gamma)
        _assert_shift_witness(gamma, u if gamma is v else v, hcat(theta, ZERO2) + hcat(ZERO2, theta))
        # y = A x with A = (1, 1)^T: the conormal set is (0, eta), eta1 + eta2 = 0
        pb = wf_pullback(gamma, ((F(1),), (F(1),)))
        if not pb.defined:
            w = pb.undefined_witness
            assert member(gamma, w) and w[:2] == (0, 0) and w[2] + w[3] == 0


def _assert_salience_witness(gamma):
    """A failing additive-salient witness holds members only and solves
    its relation: (v, -v), or (a, b, a + b) with a + b not a member."""
    c = shift_algebra_check(gamma, gamma, [[0] * gamma.dim] * gamma.dim).additive_salient
    if c.passed:
        return
    a, b, *rest = c.witness
    assert member(gamma, a) and member(gamma, b)
    if rest:
        assert integer_ray(tuple(x + y for x, y in zip(a, b))) == rest[0]
        assert not member(gamma, rest[0])
    else:
        assert b == tuple(-x for x in a)


def _assert_shift_witness(gamma1, gamma2, theta):
    """A failing shift-stability witness (x0, xi, pt) holds x0 in gamma1,
    xi in gamma2 and pt outside gamma1, with pt = c (x0 + t h) for some
    c, t > 0, where h = (1/2) theta xi."""
    c = shift_algebra_check(gamma1, gamma2, theta).shift_stability
    if c.passed:
        return
    x0, xi, pt = c.witness
    assert member(gamma1, x0) and member(gamma2, xi) and not member(gamma1, pt)
    h = matvec(tuple(tuple(F(t) / 2 for t in row) for row in theta), xi)
    # pt parallel to x0 + t h: every 2x2 minor of (pt, x0 + t h) vanishes,
    # each linear in t; a nonzero t coefficient fixes t
    pairs = [(i, j) for i in range(len(pt)) for j in range(i + 1, len(pt))]
    coef = [(pt[i] * h[j] - pt[j] * h[i], pt[j] * x0[i] - pt[i] * x0[j]) for i, j in pairs]
    t = next((b / a for a, b in coef if a), F(1))
    assert t > 0 and all(a * t == b for a, b in coef)
    assert sum(p * (x + t * y) for p, x, y in zip(pt, x0, h)) > 0


def test_shift_witness_plane_upper_regression():
    # R x {0} shifted along the open upper half plane: the generator
    # (1, 0) of gamma2 is not a member (xi = 0 is excluded) and the sum
    # of gamma1's generators is the origin, so the witness takes member
    # points for both
    plane = product_set(full_space(1), None)
    upper = product_set(full_space(1), ray_set((1,)), x_includes_zero=True)
    c = shift_algebra_check(plane, upper, J).shift_stability
    assert not c.passed and c.exact
    assert c.witness == ((-1, 0), (-4, 16), (7, 2))
    _assert_shift_witness(plane, upper, J)
    # a convex gamma1 without members passes
    hollow = ConicSet(2, (PolyhedralCone(((F(0), F(1)),), (((F(1), F(0)),),)),))
    c = shift_algebra_check(hollow, upper, J).shift_stability
    assert c.passed and c.exact and c.witness is None


def test_shift_stability_sees_excluded_slices_of_gamma1():
    # a convex gamma1 with the selector x != 0: x0 + (1/2) J xi can land on
    # the removed axis x = 0 although it stays in the hull
    gamma1 = ConicSet(2, (PolyhedralCone(((F(-3, 2), F(-1)), (F(2), F(1)), (F(-3, 2), F(3))),
                                         (((F(1), F(0)),),)),))
    gamma2 = polyhedral([(-2, 1), (1, 0)])
    c = shift_algebra_check(gamma1, gamma2, J).shift_stability
    assert not c.passed and c.exact
    assert c.witness[2] == (0, 1)
    _assert_shift_witness(gamma1, gamma2, J)


def test_shift_stability_of_a_union_needs_one_piece_per_cone():
    # the shifted point (1, -3) leaves both cones of gamma1, in one piece
    # of each cone's complement: found only by choosing a piece of the
    # second cone's complement after one of the first's
    gamma1 = ConicSet(2, polyhedral([(-1, F(1, 2)), (F(1, 2), F(3, 2)), (3, 1)]).components
                      + polyhedral([(-1, -2), (F(-1, 2), F(3, 2))]).components)
    gamma2 = polyhedral([(-1, -2), (3, F(-3, 2)), (0, -2)])
    c = shift_algebra_check(gamma1, gamma2, J).shift_stability
    assert not c.passed and c.witness[2] == (1, -3)
    _assert_shift_witness(gamma1, gamma2, J)


def test_pullback_matches_linear_image():
    # for invertible A the pullback is the image under (y, eta) ->
    # (A^{-1} y, A^T eta), selectors included
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        s = _random_polyhedral(rng, 4)
        a = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(2)) for _ in range(2))
        ai, _ = integer_form(a)
        if (a_inv := inverse(ai)) is None:
            continue
        res = wf_pullback(s, a)
        assert res.defined
        # (A^{-1} y, A^T eta), times the denominator of A^{-1}
        fwd = hcat(a_inv[0], zeros(2, 2)) + hcat(zeros(2, 2), mscale(a_inv[1], mat_t(ai)))
        assert conic_equal(res.wavefront, linear_image(s, fwd))
        checked += 1


def _in_image(sets, rows, out, y) -> bool:
    """Whether y = out p for a stacked point p of `sets` with rows p = 0:
    one witness search for (p, t y), t > 0, with rows p = 0 and
    out p = t y.  Uses neither `_image` nor `left_solve`."""
    d, k = len(out), sum(s.dim for s in sets)
    search, _ = integer_form(hcat(rows, zeros(len(rows), d)) + hcat(out, mscale(-1, identity(d))))
    return _witness((*sets, ray_set(y)), search, hcat(zeros(d, k), identity(d))) is not None


def _probes(d, s=None):
    """{-1, 0, 1}^d minus 0, then the generators of s's cones and their
    pairwise sums, where selectors of the definition may vanish."""
    probes = dict.fromkeys(vec(p) for p in product((-1, 0, 1), repeat=d) if any(p))
    for c in () if s is None else s.components:
        for g in c.generators:
            for h in c.generators:
                if any(w := tuple(x + y for x, y in zip(g, h))):
                    probes.setdefault(integer_ray(w), None)
    return list(probes)


def _product_defining(u, v, theta, y) -> bool:
    """y in one of the three families `predicted_product_wf` describes:
    p + ((1/2) theta xi_q, xi_q) over interaction pairs, or a point of u
    (of v) on its slice x = -(1/2) theta xi (x = (1/2) theta xi)."""
    px, pxi = hcat(identity(2), zeros(2, 2)), hcat(zeros(2, 2), identity(2))
    half_theta_xi = matmul(mscale(F(1, 2), theta), pxi)
    plus, minus = madd(px, half_theta_xi), madd(px, mscale(-1, half_theta_xi))
    return ((member(u, y) and not any(matvec(plus, y)))
            or (member(v, y) and not any(matvec(minus, y)))
            or _in_image((u, v), hcat(mscale(-1, plus), minus),
                         hcat(identity(4), half_theta_xi + pxi), y))


def _pullback_defining(s, a, y) -> bool:
    """y = (x, xi) in ker(A) x {0}, or with (t A x, eta) in s and
    A^T eta = t xi for some t > 0."""
    m, n = len(a), len(a[0])
    if not any(y[n:]) and not any(matvec(a, y[:n])):
        return True
    # stacked point (y', eta, t x, t xi): y' = A t x and A^T eta = t xi
    rows = (hcat(identity(m), zeros(m, m), mscale(-1, a), zeros(m, n))
            + hcat(zeros(n, m), mat_t(a), zeros(n, n), mscale(-1, identity(n))))
    return _witness((s, ray_set(y)), integer_form(rows)[0],
                    hcat(zeros(2 * n, 2 * m), identity(2 * n))) is not None


@st.composite
def _image_case(draw):
    """Two sets of R^4 components with and without selectors, a coupling
    c J, a pullback map R^1 or R^2 -> R^2, and a linear map of R^4 with
    one to four rows."""
    u = draw(st.lists(_component(max_gens=2), min_size=1, max_size=2))
    if draw(st.booleans()):
        # a frequency-only generator, which the selector x != 0 removes
        u.append(draw(_component(planted=(F(0), F(0)) + draw(st.tuples(coords, coords).filter(any)),
                                 max_gens=1)))
    u = ConicSet(4, tuple(u))
    v = ConicSet(4, tuple(draw(st.lists(_component(max_gens=2), min_size=1, max_size=2))))
    c = draw(st.sampled_from([F(0), F(1), F(1, 3)]))
    theta = tuple(tuple(c * t for t in row) for row in J)
    cols = draw(st.integers(1, 2))
    a = tuple(draw(st.lists(st.tuples(*[coords] * cols), min_size=2, max_size=2)))
    m = tuple(draw(st.lists(st.tuples(*[coords] * 4), min_size=1, max_size=4)))
    return u, v, theta, a, m


@settings(max_examples=8)
@given(_image_case())
def test_predicted_product_holds_its_defining_points(case):
    # the interaction oracle searches three stacked sets per probe, so
    # this runs fewer draws than the profile's default
    u, v, theta, _, _ = case
    got = predicted_product_wf(u, v, theta)
    for y in _probes(4):
        assert member(got, y) or not _product_defining(u, v, theta, y)


@given(_image_case())
def test_pullback_and_linear_image_match_their_definitions(case):
    # every image holds every point of the set it is defined as; where
    # the map is invertible no selector is dropped and the two agree
    u, _, _, a, m = case
    for got, exact, defining in (
            (wf_pullback(u, a).wavefront, inverse(integer_form(a)[0]) is not None,
             lambda y: _pullback_defining(u, a, y)),
            (linear_image(u, m), inverse(integer_form(m)[0]) is not None,
             lambda y: _in_image((u,), (), m, y))):
        for y in _probes(got.dim, got):
            if exact:
                assert member(got, y) == defining(y)
            else:
                assert member(got, y) or not defining(y)


def test_pullback_keeps_selectors_of_a_non_square_map():
    # the open upper half plane xi > 0 through A = (1, -1): the pullback
    # is (x, (eta, -eta)) with eta > 0, plus ker(A) x {0}, and holds no
    # other point (x, 0)
    upper = product_set(full_space(1), ray_set((1,)), x_includes_zero=True)
    a = ((F(1), F(-1)),)
    wf = wf_pullback(upper, a).wavefront
    assert not member(wf, (1, 0, 0, 0))
    assert member(wf, (1, 1, 0, 0)) and member(wf, (1, 0, 1, -1))
    assert not member(wf, (1, 0, -1, 1))
    for y in _probes(4):
        assert member(wf, y) == _pullback_defining(upper, a, y)


def test_theta_inverse_requires_invertible():
    with pytest.raises(ValueError):
        existence_condition_theta_inv(DELTA_1, DELTA_1, ((F(0),),))


def test_predicted_product_absorbs_point_singularity():
    # delta times oscillation at zero coupling keeps only the delta set
    got = predicted_product_wf(DELTA_1, OSC_1, ((F(0),),))
    assert conic_equal(got, DELTA_1)
    # and symmetrically
    got2 = predicted_product_wf(OSC_1, DELTA_1, ((F(0),),))
    assert conic_equal(got2, DELTA_1)


def test_predicted_product_empty_inputs():
    assert predicted_product_wf(empty_set(2), empty_set(2), ((F(0),),)).is_empty
    # one factor smooth: output reduces to the slice family of the other
    got = predicted_product_wf(DELTA_1, empty_set(2), ((F(0),),))
    assert conic_equal(got, DELTA_1)


def test_predicted_star_closure_exact():
    for n, theta in ((1, ((F(0),),)), (2, J)):
        dl = product_set(None, full_space(n))
        assert conic_equal(predicted_star_wf(dl, dl, theta), dl)


THETA_SHIFT = ((F(0), F(-1)), (F(1), F(0)))
LEFT_HALF = polyhedral([(-1, 0), (0, 1), (0, -1)])


def test_shift_algebra_light_cone_passes():
    upward = polyhedral([(1, 1), (-1, 1)])
    rep = shift_algebra_check(LEFT_HALF, upward, THETA_SHIFT)
    assert rep.passed and rep.exact
    assert rep.verdict == "exact"
    assert [c.passed for c in rep.conditions] == [True, True, True]


def test_shift_algebra_union_pass_is_exact():
    # two adjacent wedges whose union is the quadrant: closure and shift
    # stability are settled exactly on the union
    wedges = ConicSet(2, polyhedral([(1, 0), (1, 1)]).components
                      + polyhedral([(1, 1), (0, 1)]).components)
    rep = shift_algebra_check(LEFT_HALF, wedges, THETA_SHIFT)
    assert rep.passed and rep.exact and rep.verdict == "exact"
    assert conic_equal(wedges, polyhedral([(1, 0), (0, 1)]))
    assert not conic_equal(wedges, polyhedral([(1, 0), (1, 1)]))


def test_shift_algebra_double_cone_fails_with_witness():
    double = ConicSet(2, polyhedral([(1, 1), (-1, 1)]).components
                      + polyhedral([(1, -1), (-1, -1)]).components)
    rep = shift_algebra_check(LEFT_HALF, double, THETA_SHIFT)
    assert not rep.passed
    c = rep.additive_salient
    assert not c.passed and c.witness is not None
    # the witness pair sums to zero: the cone contains a line
    a, b = c.witness[0], c.witness[1]
    assert tuple(x + y for x, y in zip(a, b)) == (0, 0)
    assert member(double, a) and member(double, b)


def test_salience_ignores_points_outside_the_set():
    # the open half plane xi > 0: (1, 0) and (-1, 0) sum to zero but are
    # not members, so the set is additively salient and closed
    upper = product_set(full_space(1), ray_set((1,)), x_includes_zero=True)
    c = shift_algebra_check(upper, upper, ZERO2).additive_salient
    assert c.passed and c.exact and c.witness is None
    _assert_salience_witness(upper)


def test_closure_sees_excluded_slices():
    # the wedge |xi| <= x without its axis xi = 0: (1, 1) + (1, -1) = (2, 0)
    # lies on the removed slice, so the cone is not closed under addition
    slit = ConicSet(2, (PolyhedralCone(((F(1), F(1)), (F(1), F(-1))), (((F(0), F(1)),),)),))
    c = shift_algebra_check(slit, slit, ZERO2).additive_salient
    assert not c.passed and c.exact
    assert c.witness[2] == (1, 0)
    _assert_salience_witness(slit)
    # without the selector the closed wedge is closed under addition
    wedge = polyhedral([(1, 1), (1, -1)])
    c = shift_algebra_check(wedge, wedge, ZERO2).additive_salient
    assert c.passed and c.witness is None


def test_pair_condition_verdicts():
    assert pair_condition(ray_set((1, 1))).holds
    sym = ConicSet(2, ray_set((1, 1)).components + ray_set((1, -1)).components)
    res = pair_condition(sym)
    assert not res.holds
    p, q = res.witness
    assert member(sym, p) and member(sym, q)
    assert q == (p[0], -p[1])
    with pytest.raises(ValueError):
        pair_condition(ConicSet(3, polyhedral([(1, 0, 0)]).components))


def test_empty_part_admitting_zero_is_the_origin():
    # an empty part that admits 0 is {0}: the same set as a None part
    a = product_set(empty_set(1), full_space(1), x_includes_zero=True)
    b = product_set(None, full_space(1))
    assert member(a, (0, 1)) and not member(a, (1, 1))
    assert conic_equal(a, b)
    assert existence_condition(a, a, [[0]]).holds is existence_condition(b, b, [[0]]).holds
    assert not existence_condition(a, a, [[0]]).holds
    assert pair_condition(a).holds is pair_condition(b).holds
    assert not pair_condition(a).holds
    # {0} x {0} is empty however it is written
    c = product_set(empty_set(1), None, x_includes_zero=True)
    assert not member(c, (0, 1)) and not member(c, (1, 0))
    assert existence_condition(c, b, [[0]]).holds


def test_part_with_selectors_admitting_zero():
    # p = {0} x (R \ 0) carries the selector x1 != 0; with 0 admitted it
    # is the line x1 = 0, so s and t are one set written two ways
    p = product_set(None, full_space(1))
    s = product_set(p, full_space(2), x_includes_zero=True)
    t = product_set(subspace_set([[0, 1]]), full_space(2), x_includes_zero=True)
    for w in [(0, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (0, 1, 0, 0)]:
        assert member(s, w) is member(t, w)
    assert member(s, (0, 0, 1, 0))
    u = polyhedral([(1, 0, 0, 1), (0, 1, 1, 0)])
    for theta in ([[0, 0], [0, 0]], [[0, 1], [-1, 0]], [[0, 2], [-2, 0]]):
        assert existence_condition(s, s, theta).holds is existence_condition(t, t, theta).holds
        assert existence_condition(s, u, theta).holds is existence_condition(t, u, theta).holds
        assert existence_condition(u, s, theta).holds is existence_condition(u, t, theta).holds
    assert not existence_condition(s, s, [[0, 0], [0, 0]]).holds
    assert pair_condition(s).holds is pair_condition(t).holds
    assert conic_equal(s, t)


def test_pullback_identity():
    s = polyhedral([(1, 0, 0, 1)])
    ident = ((F(1), F(0)), (F(0), F(1)))
    res = wf_pullback(s, ident)
    assert res.defined
    assert conic_equal(res.wavefront, s)


def test_pullback_diagonal_restriction():
    # restrict a function of two variables to the diagonal x1 = x2
    amap = ((F(1),), (F(1),))  # y = (x, x), A maps R^1 -> R^2
    s = ray_set((0, 0, 1, 1))  # conormal-free direction
    res = wf_pullback(s, amap)
    assert res.defined
    # pulled back frequency is A^T eta = 1 + 1 = 2 over x-direction 0
    assert member(res.wavefront, (0, 1))


def test_pullback_refuses_conormal():
    amap = ((F(1),), (F(1),))
    s = ray_set((0, 0, 1, -1))  # A^T eta = 0: the conormal direction
    res = wf_pullback(s, amap)
    assert not res.defined
    assert res.undefined_witness is not None
    assert member(s, res.undefined_witness)
