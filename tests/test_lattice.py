import pytest

from k3walls import (
    DomainError,
    MukaiVector,
    PicClass,
    SurfaceParams,
    discriminant,
    intersection,
    line_bundle_vector,
    mukai_pairing,
)
from k3walls.lattice import check_special_shape

P32 = SurfaceParams(3, 2)
P52 = SurfaceParams(5, 2)
P42 = SurfaceParams(4, 2)


def test_params_validation():
    with pytest.raises(DomainError):
        SurfaceParams(2, 2)
    with pytest.raises(DomainError):
        SurfaceParams(3, 1)


def test_intersection_examples():
    h = PicClass(1, 0)
    e = PicClass(0, 1)
    assert intersection(P32, h, h) == 4
    assert intersection(P52, PicClass(1, -1), PicClass(1, -1)) == 4
    assert intersection(P32, e, e) == 0
    assert intersection(P42, e, e) == 0


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
