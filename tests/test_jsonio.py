from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3walls.errors import DomainError
from k3walls.jsonio import dumps_canonical, frac_str, parse_frac


def test_frac_str_lowest_terms():
    assert frac_str(Fraction(50, 264)) == "25/132"
    assert frac_str(Fraction(-2, 4)) == "-1/2"
    assert frac_str(0) == "0/1"
    assert frac_str(3) == "3/1"


def test_parse_frac():
    assert parse_frac("25/132") == Fraction(25, 132)
    assert parse_frac("-3") == -3
    with pytest.raises(DomainError):
        parse_frac("1/0")
    with pytest.raises(DomainError):
        parse_frac("1/-2")
    with pytest.raises(DomainError):
        parse_frac("x")


@given(st.fractions())
def test_round_trip(f):
    assert parse_frac(frac_str(f)) == f


def test_dumps_canonical_stable():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}\n'
