import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3walls.errors import DomainError
from k3walls.hbn import (
    SplittingType,
    balanced_correspondence,
    degeneracy_dims,
    ell_decompose,
    rho,
    rho_k,
    splitting_nonneg_part,
)


def test_rho_values():
    assert rho(5, 1, 3) == -1
    assert rho(4, 1, 3) == 0


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_rho_rank_zero(g, d):
    assert rho(g, 0, d) == d


def test_rho_k_values():
    assert rho_k(5, 2, 1, 3) == (1, [1])
    assert rho_k(2, 2, 1, 1) == (-1, [1])
    assert rho_k(7, 10**6, 2, 5) == (rho(7, 2, 5), [0])
    with pytest.raises(DomainError):
        rho_k(5, 2, -1, 3)


def rho_k_by_list(g, k, r, d):
    """rho_k over the list of all r+1 values: the reference for the two-point rho_k."""
    values = [rho(g, r - ell, d) - ell * k for ell in range(r + 1)]
    best = max(values)
    return best, [ell for ell, v in enumerate(values) if v == best]


def test_rho_k_brute_force():
    # independent maximization, kept apart from the library path; the grid
    # reaches vertices below 0, above r and at half-integers
    for g in range(-3, 31):
        for k in range(2, 10):
            for r in range(0, 15):
                for d in range(-5, g + 8):
                    assert rho_k(g, k, r, d) == rho_k_by_list(g, k, r, d), (g, k, r, d)


@given(st.integers(1, 25), st.integers(2, 8), st.integers(0, 6), st.integers(0, 24))
def test_rho_k_dominates(g, k, r, d):
    value, argmax = rho_k(g, k, r, d)
    assert value >= rho(g, r, d)
    assert (value == rho(g, r, d)) == (0 in argmax)


def test_ell_decompose_examples():
    dec = ell_decompose(7, 5)
    assert (dec.e, dec.m1, dec.m2) == (1, 2, 1)
    dec = ell_decompose(1, 0)
    assert (dec.e, dec.m1, dec.m2) == (0, 0, 2)
    dec = ell_decompose(2, 2)
    assert (dec.e, dec.m1, dec.m2) == (2, 0, 1)
    with pytest.raises(DomainError):
        ell_decompose(3, 4)
    with pytest.raises(DomainError):
        ell_decompose(3, -1)


def test_degeneracy_dims_examples():
    dims = degeneracy_dims(5, 2, 3, 1, 1)
    assert dims.expected_dim == 1
    assert dims.s == 4
    assert degeneracy_dims(4, 3, 3, 1, 0).expected_dim == rho(4, 1, 3) == 0
    with pytest.raises(DomainError):
        degeneracy_dims(5, 2, 5, 1, 1)  # d > g-1
    with pytest.raises(DomainError):
        degeneracy_dims(5, 2, 3, 1, 2)  # ell > r


def test_splitting_nonneg_part():
    st1 = SplittingType(((1, 1), (-4, 1)))
    assert splitting_nonneg_part(5, 2, 3, st1).pairs == ((1, 1),)
    st2 = SplittingType(((0, 1), (-3, 1)))
    assert splitting_nonneg_part(5, 2, 3, st2).pairs == ((0, 1),)
    with pytest.raises(DomainError, match="degree mismatch"):
        splitting_nonneg_part(5, 2, 3, SplittingType(((1, 1), (-3, 1))))
    with pytest.raises(DomainError, match="rank mismatch"):
        splitting_nonneg_part(5, 3, 3, SplittingType(((1, 1), (-4, 1))))
    with pytest.raises(DomainError, match="no negative summand"):
        splitting_nonneg_part(9, 2, 8, SplittingType(((0, 2),)))
    with pytest.raises(DomainError) as info:
        splitting_nonneg_part(5, 2, 5, SplittingType(((1, 1), (-4, 1))))  # d > g-1
    assert info.value.code == "degree_out_of_range"


def test_splitting_type_validation():
    with pytest.raises(DomainError):
        SplittingType(((1, 1), (1, 2)))  # not strictly decreasing
    with pytest.raises(DomainError):
        SplittingType(((1, 0),))


def test_balanced_correspondence():
    assert balanced_correspondence((2, 2, 1)) == (1, 2, 1)
    assert balanced_correspondence((0, 0, 0)) == (0, 0, 3)
    with pytest.raises(DomainError, match="not balanced"):
        balanced_correspondence((3, 1))
    with pytest.raises(DomainError, match="not balanced"):
        balanced_correspondence(())
