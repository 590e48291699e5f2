from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from k3walls.errors import DomainError
from k3walls.lattice import MukaiVector, SurfaceParams, line_bundle_vector
from k3walls.stability import (
    INFINITE_SLOPE,
    KIND_ORIGIN_RAY,
    StabilityParams,
    StabilityPoint,
    WallPoint,
    _wall_kind,
    central_charge,
    default_epsilon,
    epsilon_threshold,
    nowall_threshold,
    projection,
    slope,
    two_value_violations,
    wall_on_axis,
)

P32 = SurfaceParams(3, 2)
SP = StabilityParams(P32, Fraction(1, 10))  # H_eps^2 = 11/25, H.H_eps = 12/5

O_X = MukaiVector(1, 0, 0, 1)
V_H = MukaiVector(0, 1, 0, -1)

fractions = st.fractions(min_value=-20, max_value=20)
small_vectors = st.builds(
    MukaiVector,
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-30, 30),
)


def test_params_validation():
    with pytest.raises(DomainError):
        StabilityParams(P32, Fraction(0))
    with pytest.raises(DomainError):
        StabilityParams(P32, Fraction(-1, 3))


def test_derived_quantities():
    # H_eps^2 = 11/25, H.H_eps = 12/5 and E.H_eps = 1/5, each times scale = 10^2
    assert SP.scale == 100
    assert (SP.h_eps_square_scaled, SP.h_dot_h_eps_scaled, SP.e_dot_h_eps_scaled) == (44, 240, 20)


@given(st.integers(3, 40), st.integers(2, 12), st.fractions(min_value=0, max_value=50).filter(bool))
def test_derived_quantities_match_formulas(g, k, eps):
    sp = StabilityParams(SurfaceParams(g, k), eps)
    assert sp.scale == eps.denominator**2
    scaled = (sp.h_eps_square_scaled, sp.h_dot_h_eps_scaled, sp.e_dot_h_eps_scaled)
    assert all(type(n) is int for n in scaled)
    assert scaled == tuple(
        sp.scale * x for x in (2 * eps * k + eps * eps * (2 * g - 2), k + eps * (2 * g - 2), eps * k)
    )
    # they are attributes, not fields: equality, hashing and repr see surface and eps alone
    assert StabilityParams.__match_args__ == ("surface", "eps")
    twin = StabilityParams(SurfaceParams(g, k), Fraction(eps))
    assert sp == twin and hash(sp) == hash(twin)
    assert repr(sp) == f"StabilityParams(surface={SurfaceParams(g, k)!r}, eps={eps!r})"


def test_point_coordinates_are_fractions():
    pt = StabilityPoint(-1, 2)
    assert type(pt.b) is Fraction and type(pt.w) is Fraction
    assert pt == StabilityPoint(Fraction(-1), Fraction(2))
    assert central_charge(SP, pt, O_X) == central_charge(SP, StabilityPoint(Fraction(-1), Fraction(2)), O_X)
    # built from Fractions, a point compares, hashes and prints as before
    twin = StabilityPoint(Fraction(1, 2), Fraction(3))
    assert twin == StabilityPoint(Fraction(1, 2), Fraction(3)) and hash(twin) == hash((Fraction(1, 2), Fraction(3)))
    assert repr(twin) == "StabilityPoint(b=Fraction(1, 2), w=Fraction(3, 1))"


def test_central_charge_examples():
    pt = StabilityPoint(Fraction(0), Fraction(1))
    assert central_charge(SP, pt, O_X) == (Fraction(11, 25), Fraction(0))
    assert central_charge(SP, pt, V_H) == (Fraction(1), Fraction(12, 5))
    origin = StabilityPoint(Fraction(0), Fraction(0))
    assert central_charge(SP, origin, O_X) == (Fraction(0), Fraction(0))


def test_slope_examples():
    for w in (Fraction(0), Fraction(1, 7), Fraction(3)):
        pt = StabilityPoint(Fraction(0), w)
        assert slope(SP, pt, V_H) == Fraction(-5, 12)
        assert slope(SP, pt, O_X) == INFINITE_SLOPE
        assert slope(SP, pt, line_bundle_vector(1)) == Fraction(-11, 5) * w


@given(fractions, fractions, small_vectors, st.integers(1, 9))
def test_slope_scale_invariant(b, w, v, n):
    pt = StabilityPoint(b, w)
    assert slope(SP, pt, v) == slope(SP, pt, n * v)


@given(fractions, fractions, st.integers(0, 9), st.integers(-9, 9), st.integers(-20, 20))
def test_rank_zero_slope_point_free(b, w, x, y, s):
    v = MukaiVector(0, x, y, s)
    im = SP.pic_dot_h_eps(x, y)
    pt = StabilityPoint(b, w)
    if im == 0:
        assert slope(SP, pt, v) == INFINITE_SLOPE
    else:
        assert slope(SP, pt, v) == Fraction(s) / im


def test_projection_examples():
    assert projection(SP, O_X) == (Fraction(0), Fraction(0))
    assert projection(SP, MukaiVector(1, 0, 1, 1)) == (Fraction(5, 11), Fraction(0))
    with pytest.raises(DomainError, match="rank 0"):
        projection(SP, V_H)


def test_wall_on_axis_examples():
    w1 = wall_on_axis(SP, V_H, MukaiVector(1, 0, 1, 1))
    assert w1.w == Fraction(25, 132)
    assert w1.kind == "line_bundle"
    assert w1.e == 1
    w2 = wall_on_axis(SP, V_H, MukaiVector(1, 0, 2, 1))
    assert w2.w == Fraction(25, 66)
    w3 = wall_on_axis(SP, MukaiVector(1, 0, 1, 1), MukaiVector(1, 0, 2, 1))
    assert w3.w == 0


def test_wall_on_axis_back_substitution():
    # the crossing value must equalize the two slopes
    dest = MukaiVector(1, 0, 1, 1)
    w = wall_on_axis(SP, V_H, dest).w
    pt = StabilityPoint(Fraction(0), w)
    assert slope(SP, pt, V_H) == slope(SP, pt, dest)


@given(small_vectors, small_vectors)
@example(MukaiVector(0, 0, 0, 1), MukaiVector(0, 0, 1, 0))  # Im(v1) = 0, v2 of rank zero
def test_wall_on_axis_random_back_substitution(v1, v2):
    try:
        wall = wall_on_axis(SP, v1, v2)
    except DomainError:
        return
    pt = StabilityPoint(Fraction(0), wall.w)
    if wall.kind == "origin_ray":
        assert wall.w == 0
    else:
        assert slope(SP, pt, v1) == slope(SP, pt, v2)
        assert wall.w >= 0


def test_wall_on_axis_rank_zero_kind():
    # destabilizer of rank zero: the wall has the constant-slope shape
    v1 = MukaiVector(1, 1, 0, 1)
    dest = MukaiVector(0, 1, 0, -1)
    wall = wall_on_axis(SP, v1, dest)
    assert wall.w == Fraction(25, 11)
    assert wall.kind == "rank_zero"
    assert wall.e is None


def test_wall_on_axis_origin_ray():
    # either argument with Im = 0 on b = 0 cuts out the origin ray
    for v1, v2 in ((V_H, O_X), (O_X, V_H)):
        wall = wall_on_axis(SP, v1, v2)
        assert wall.kind == "origin_ray"
        assert wall.w == 0
        assert wall.e is None


def test_wall_on_axis_errors():
    with pytest.raises(DomainError, match="proportional"):
        wall_on_axis(SP, V_H, 2 * V_H)
    # two rank-zero classes of different constant slope never cross
    with pytest.raises(DomainError, match="no intersection"):
        wall_on_axis(SP, V_H, MukaiVector(0, 1, 0, -2))
    # crossing below the ray
    with pytest.raises(DomainError, match="no intersection"):
        wall_on_axis(SP, MukaiVector(0, 1, 0, 1), line_bundle_vector(1))


def test_wall_monotone_in_e():
    for s in (-1, -2, -3):
        v = MukaiVector(0, 1, 0, s)
        ws = [wall_on_axis(SP, v, line_bundle_vector(e)).w for e in range(1, 8)]
        assert all(a < b for a, b in zip(ws, ws[1:]))


def test_epsilon_thresholds():
    assert epsilon_threshold(P32, 0) == Fraction(2, 5)
    assert epsilon_threshold(P32, 1) == Fraction(1, 3)
    assert nowall_threshold(SurfaceParams(4, 2)) == Fraction(2, 5)
    with pytest.raises(DomainError):
        epsilon_threshold(P32, -1)


def test_default_epsilon():
    eps = default_epsilon(P32, V_H)
    assert 0 < eps <= nowall_threshold(P32) / 2
    assert eps <= epsilon_threshold(P32, (P32.g - 1) ** 2) / 2
    with pytest.raises(DomainError):
        default_epsilon(P32, MukaiVector(0, 2, 0, -1))


def lemma_key_scan(params, m, eps, box=12):
    """Search a box for Chern characters violating the two-value constraint on t.

    Looks for (r, t*H + q*E, s) with |r|,|t|,|q|,|s| <= box, -rs <= m,
    0 <= (tH+qE).H_eps <= H.H_eps and discriminant >= -2, whose H-coefficient
    t lies outside {0, 1}.  The band is linear in q, so for each t only the
    q of the band's interval, cut to [-box, box], are visited.  Hits are
    ordered by t, then q, r and s.  The box referee for two_value_violations.
    """
    g, k = params.g, params.k
    # integer form of the band 0 <= (tH+qE).H_eps <= H.H_eps, scaled by denominator(eps):
    # 0 <= base + a*k*q <= band_hi, increasing in q since a, k > 0
    a, b = eps.numerator, eps.denominator
    band_hi = b * k + a * (2 * g - 2)
    step = a * k
    violations = []
    for t in range(-box, box + 1):
        if t in (0, 1):
            continue
        d_no_q = t * t * (2 * g - 2)
        base = b * t * k + a * t * (2 * g - 2)
        q_lo = max(-box, -(base // step))  # ceil(-base/step)
        q_hi = min(box, (band_hi - base) // step)
        for q in range(q_lo, q_hi + 1):
            c1sq = d_no_q + 2 * t * q * k
            # any hit needs rs in [-m, (c1^2+2)/2]; an empty interval rules the
            # whole (r, s) square out, so only then is the inner loop skipped
            hi2 = c1sq + 2  # 2*rs <= hi2
            if hi2 < -2 * m:
                continue
            for r in range(-box, box + 1):
                for s in range(-box, box + 1):
                    rs = r * s
                    if -rs <= m and c1sq - 2 * rs >= -2:
                        violations.append((r, t, q, s))
    return violations


def test_lemma_key_scan_sees_violations_above_threshold():
    # far above every threshold the two-value statement has no reason to hold
    hits = lemma_key_scan(P32, 4, Fraction(3), box=6)
    assert hits, "expected the scan to find classes at a huge eps"
    assert all(t not in (0, 1) for _, t, _, _ in hits)
    # the exact list has them too, t = 2 among them, and the scan sees each one
    listed = two_value_violations(StabilityParams(P32, Fraction(3)), 4)
    assert {t for t, *_ in listed} == {-1, 2}
    assert _boxed(listed, 6) == hits
    # below eps_m nothing is listed, for every Chern character
    assert two_value_violations(StabilityParams(P32, epsilon_threshold(P32, 4) * Fraction(9, 10)), 4) == []


def lemma_key_scan_all_q(params, m, eps, box):
    """The scan of the definition, every q tested against the band: the reference
    for lemma_key_scan, which visits only the q of the band's interval."""
    g, k = params.g, params.k
    a, b = eps.numerator, eps.denominator
    band_hi = b * k + a * (2 * g - 2)
    violations = []
    for t in range(-box, box + 1):
        if t in (0, 1):
            continue
        for q in range(-box, box + 1):
            if not 0 <= b * t * k + a * (t * (2 * g - 2) + q * k) <= band_hi:
                continue
            c1sq = t * t * (2 * g - 2) + 2 * t * q * k
            for r in range(-box, box + 1):
                for s in range(-box, box + 1):
                    if -r * s <= m and c1sq - 2 * r * s >= -2:
                        violations.append((r, t, q, s))
    return violations


def test_lemma_key_scan_matches_all_q_reference():
    eps_values = [Fraction(n, d) for n, d in ((1, 10), (1, 3), (1, 2), (3, 4), (1, 1), (3, 2), (2, 1), (5, 2))]
    hits = 0
    for g in range(3, 12):
        for k in range(2, 7):
            params = SurfaceParams(g, k)
            for m in range(8):
                for eps in eps_values:
                    got = lemma_key_scan(params, m, eps, box=6)
                    assert got == lemma_key_scan_all_q(params, m, eps, 6), (g, k, m, eps)
                    hits += len(got)
    assert hits == 4516  # the grid has hits, so their order is compared too


def _boxed(listed, box):
    """The (r, t, q, s) in the box that two_value_violations' (t, q, rs_min, rs_max) stand for."""
    return [
        (r, t, q, s)
        for t, q, rs_min, rs_max in listed
        if abs(t) <= box and abs(q) <= box
        for r in range(-box, box + 1)
        for s in range(-box, box + 1)
        if rs_min <= r * s <= rs_max
    ]


def test_two_value_violations_match_the_box_scan():
    # the scan referees the exact list inside its box, at and far above eps_m,
    # where hits exist; below eps_m both are empty
    box, cases, hits, whole = 12, 0, 0, 0
    far_above = (Fraction(3), Fraction(7, 2), Fraction(10))
    for g in range(3, 9):
        for k in range(2, 6):
            params = SurfaceParams(g, k)
            for m in range(5):
                eps_m = epsilon_threshold(params, m)
                for eps in (eps_m / 2, eps_m, 2 * eps_m, 5 * eps_m, *far_above):
                    listed = two_value_violations(StabilityParams(params, eps), m)
                    assert _boxed(listed, box) == lemma_key_scan(params, m, eps, box), (g, k, m, eps)
                    assert all(t not in (0, 1) and rs_min == -m <= rs_max for t, _, rs_min, rs_max in listed)
                    if eps < eps_m:
                        assert not listed
                    cases += 1
                    hits += len(listed)
                    # every (t, q) listed lies in the box, so the box holds no other hit
                    whole += all(abs(t) <= box and abs(q) <= box for t, q, _, _ in listed)
    assert cases == 840
    assert hits > 0 and whole == cases


# The Fraction formulas the integer kernels of stability replace, computed from
# eps itself: the references for pic_dot_h_eps, central_charge, slope and wall_on_axis.

def _ref_products(sp):
    """(H_eps^2, H.H_eps, E.H_eps) as Fractions."""
    g, k, eps = sp.surface.g, sp.surface.k, sp.eps
    return 2 * eps * k + eps * eps * (2 * g - 2), k + eps * (2 * g - 2), eps * k


def ref_pic_dot_h_eps(sp, x, y):
    _, h_dot, e_dot = _ref_products(sp)
    return x * h_dot + y * e_dot


def ref_central_charge(sp, pt, v):
    a = _ref_products(sp)[0]
    return -v.ch2 + pt.w * v.r * a, ref_pic_dot_h_eps(sp, v.x, v.y) - pt.b * v.r * a


def ref_slope(sp, pt, v):
    re, im = ref_central_charge(sp, pt, v)
    return INFINITE_SLOPE if im == 0 else -re / im


def ref_wall_on_axis(sp, v1, v2):
    """The wall as (w, kind, e), or the code of the DomainError it raises."""
    a = _ref_products(sp)[0]
    r1, im1, c1 = v1.r, ref_pic_dot_h_eps(sp, v1.x, v1.y), v1.ch2
    r2, im2, c2 = v2.r, ref_pic_dot_h_eps(sp, v2.x, v2.y), v2.ch2
    if r1 * im2 == r2 * im1 and r1 * c2 == r2 * c1 and im1 * c2 == im2 * c1:
        return "proportional_classes"
    if im1 == 0 or im2 == 0:
        return Fraction(0), KIND_ORIGIN_RAY, None
    denom = a * (r2 * im1 - r1 * im2)
    if denom == 0:
        return "no_intersection_on_ray"
    w = (im1 * c2 - im2 * c1) / denom
    if w < 0:
        return "no_intersection_on_ray"
    return (w, *_wall_kind(v2))


def _wall_outcome(sp, v1, v2):
    try:
        wall = wall_on_axis(sp, v1, v2)
    except DomainError as exc:
        return exc.code
    assert type(wall) is WallPoint and wall.destabilizer == v2 and type(wall.w) is Fraction
    return wall.w, wall.kind, wall.e


surfaces = st.builds(SurfaceParams, st.integers(3, 40), st.integers(2, 12))
positive_eps = st.fractions(min_value=0, max_value=50, max_denominator=10**4).filter(bool)
points = st.builds(StabilityPoint, fractions, fractions)


@given(surfaces, positive_eps, points, small_vectors)
@example(P32, Fraction(1, 10), StabilityPoint(0, 1), O_X)  # Im Z = 0
@example(P32, Fraction(1, 10), StabilityPoint(0, 0), MukaiVector(0, 0, 0, 1))  # Z = (-1, 0)
@example(SurfaceParams(7, 3), Fraction(9, 4),
         StabilityPoint(Fraction(-2, 3), Fraction(5, 7)), MukaiVector(3, -2, 5, 4))
def test_integer_kernels_match_fraction_formulas(params, eps, pt, v):
    sp = StabilityParams(params, eps)
    assert sp.pic_dot_h_eps(v.x, v.y) == ref_pic_dot_h_eps(sp, v.x, v.y)
    assert type(sp.pic_dot_h_eps(v.x, v.y)) is Fraction
    got = central_charge(sp, pt, v)
    assert got == ref_central_charge(sp, pt, v)
    assert all(type(part) is Fraction for part in got)
    assert slope(sp, pt, v) == ref_slope(sp, pt, v)


@given(surfaces, positive_eps, small_vectors, small_vectors)
@example(P32, Fraction(1, 10), V_H, O_X)  # origin_ray: Im(v2) = 0
@example(P32, Fraction(1, 10), MukaiVector(0, 0, 0, 1), MukaiVector(0, 0, 1, 0))  # origin_ray: Im(v1) = 0
@example(P32, Fraction(1, 10), V_H, 2 * V_H)  # proportional_classes
@example(P32, Fraction(1, 10), MukaiVector(0, 0, 0, 1), MukaiVector(0, 0, 0, 3))  # proportional, both Im = 0
@example(P32, Fraction(1, 10), V_H, MukaiVector(0, 1, 0, -2))  # no intersection: parallel
@example(P32, Fraction(1, 10), MukaiVector(0, 1, 0, 1), line_bundle_vector(1))  # no intersection: w < 0
@example(SurfaceParams(6, 4), Fraction(7, 3), MukaiVector(0, 1, -1, -3), line_bundle_vector(2))  # line_bundle
@example(P32, Fraction(1, 10), MukaiVector(1, 1, 0, 1), MukaiVector(0, 1, 0, -1))  # rank_zero
def test_wall_on_axis_matches_fraction_formula(params, eps, v1, v2):
    sp = StabilityParams(params, eps)
    assert _wall_outcome(sp, v1, v2) == ref_wall_on_axis(sp, v1, v2)
