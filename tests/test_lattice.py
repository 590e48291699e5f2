from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3walls.errors import DomainError, OracleViolation
from k3walls.lattice import (
    MukaiVector,
    SurfaceParams,
    _char_poly,
    check_special_shape,
    discriminant,
    line_bundle_vector,
    mukai_pairing,
)

P32 = SurfaceParams(3, 2)
P52 = SurfaceParams(5, 2)
P42 = SurfaceParams(4, 2)


def test_params_validation():
    with pytest.raises(DomainError):
        SurfaceParams(2, 2)
    with pytest.raises(DomainError):
        SurfaceParams(3, 1)


def test_intersection_examples():
    # on rank-0 vectors with s = 0 the pairing is the intersection of the classes
    h = MukaiVector(0, 1, 0, 0)
    e = MukaiVector(0, 0, 1, 0)
    assert mukai_pairing(P32, h, h) == 4
    assert mukai_pairing(P52, MukaiVector(0, 1, -1, 0), MukaiVector(0, 1, -1, 0)) == 4
    assert mukai_pairing(P32, e, e) == 0
    assert mukai_pairing(P42, e, e) == 0


def test_pairing_examples():
    o_x = MukaiVector(1, 0, 0, 1)
    assert mukai_pairing(P32, o_x, o_x) == -2
    assert mukai_pairing(P52, MukaiVector(0, 1, 0, -1), MukaiVector(1, 0, 1, 1)) == 3


def test_discriminant_examples():
    assert discriminant(P32, MukaiVector(1, 0, 0, 1)) == 0
    for s in range(-5, 6):
        assert discriminant(P52, MukaiVector(0, 1, 0, s)) == 8
    # the rank-0 spherical class H - (g/k)E, present exactly when k | g
    assert discriminant(P42, MukaiVector(0, 1, -2, 0)) == -2
    assert discriminant(P42, MukaiVector(0, 1, -2, 7)) == -2


def test_line_bundle_vector():
    assert line_bundle_vector(0) == MukaiVector(1, 0, 0, 1)
    assert line_bundle_vector(3) == MukaiVector(1, 0, 3, 1)
    with pytest.raises(DomainError):
        line_bundle_vector(-1)


def test_check_special_shape():
    for v in (MukaiVector(0, 1, 0, -1), MukaiVector(-2, 1, -3, 5)):
        check_special_shape(v)  # x = 1 and a0 = -y >= 0
    for v in (MukaiVector(0, 2, 0, -1), MukaiVector(0, 1, 1, -1)):
        with pytest.raises(DomainError) as info:
            check_special_shape(v)
        assert info.value.code == "bad_vector_shape"


def fraction_char_poly(mat):
    """Faddeev-LeVerrier over the rationals: the reference for the integer _char_poly."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)] * (n + 1)
    a = [row[:] for row in m]
    for i in range(1, n + 1):
        c = -sum(a[j][j] for j in range(n)) / i
        coeffs[n - i] = c
        if i < n:
            for j in range(n):
                a[j][j] += c
            a = [[sum(m[p][q] * a[q][r] for q in range(n)) for r in range(n)] for p in range(n)]
    return coeffs


@given(st.lists(st.integers(-10**4, 10**4), min_size=10, max_size=10))
def test_char_poly_matches_fraction_reference(upper):
    # a symmetric 4x4 integer matrix from its 10 upper-triangular entries
    entries = iter(upper)
    mat = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            mat[i][j] = mat[j][i] = next(entries)
    got = _char_poly(mat)
    assert got == fraction_char_poly(mat)
    assert all(type(c) is int for c in got)


def test_char_poly_guards_integrality():
    with pytest.raises(OracleViolation, match="not divisible"):
        _char_poly([[1, 0], [0, Fraction(1, 2)]])


vectors = st.builds(MukaiVector, *[st.integers(-10**9, 10**9)] * 4)


@given(st.integers(3, 500), st.integers(2, 500), vectors, vectors)
def test_pairing_matches_pic_class_path(g, k, v1, v2):
    # the formula written out: x*x'(2g-2) + (x*y' + x'*y)k - r*s' - r'*s
    expected = v1.x * v2.x * (2 * g - 2) + (v1.x * v2.y + v2.x * v1.y) * k - v1.r * v2.s - v2.r * v1.s
    assert mukai_pairing(SurfaceParams(g, k), v1, v2) == expected
