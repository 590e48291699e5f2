from fractions import Fraction

import dataclasses

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from k3walls import (
    INFINITE_SLOPE,
    DomainError,
    MukaiVector,
    StabilityParams,
    StabilityPoint,
    SurfaceParams,
    central_charge,
    default_epsilon,
    epsilon_threshold,
    lemma_key_scan,
    line_bundle_vector,
    nowall_threshold,
    projection,
    slope,
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
    assert SP.h_eps_square == Fraction(11, 25)
    assert SP.h_dot_h_eps == Fraction(12, 5)
    assert SP.e_dot_h_eps == Fraction(1, 5)


@given(st.integers(3, 40), st.integers(2, 12), st.fractions(min_value=0, max_value=50).filter(bool))
def test_derived_quantities_match_formulas(g, k, eps):
    sp = StabilityParams(SurfaceParams(g, k), eps)
    assert sp.h_eps_square == 2 * eps * k + eps * eps * (2 * g - 2)
    assert sp.h_dot_h_eps == k + eps * (2 * g - 2)
    assert sp.e_dot_h_eps == eps * k
    # they are attributes, not fields: equality, hashing and repr see surface and eps alone
    assert [f.name for f in dataclasses.fields(sp)] == ["surface", "eps"]
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


def test_lemma_key_scan_sees_violations_above_threshold():
    # far above every threshold the two-value statement has no reason to hold
    hits = lemma_key_scan(P32, 4, Fraction(3), box=6)
    assert hits, "expected the scan to find classes at a huge eps"
    assert all(t not in (0, 1) for _, t, _, _ in hits)


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
