import pytest

from k3walls import DomainError, SearchBudgetExceeded, Tableau, is_valid, max_omitted, oracle_check
from k3walls.tableaux import max_omitted_naive


def test_is_valid_examples():
    t = Tableau.from_list([[1, 2], [2, 3]])
    assert is_valid(3, 2, 1, 2, t) is True  # 2x2 grid: g-d+r = 2
    assert is_valid(3, 3, 1, 2, t) is False  # -1 != 1 mod 3


def test_is_valid_injective_filling():
    t = Tableau.from_list([[1, 2, 3], [4, 5, 6]])
    assert is_valid(6, 2, 1, 4, t) is True
    assert is_valid(6, 5, 1, 4, t) is True  # congruence vacuous without repeats


def test_is_valid_rejections():
    assert is_valid(3, 2, 1, 2, Tableau.from_list([[1, 2], [1, 3]])) is False  # column not increasing
    assert is_valid(3, 2, 1, 2, Tableau.from_list([[2, 2], [3, 4]])) is False  # row not increasing
    assert is_valid(3, 2, 1, 2, Tableau.from_list([[1, 2], [2, 4]])) is False  # label above cap


def test_is_valid_shape_mismatch():
    with pytest.raises(DomainError, match="shape"):
        is_valid(5, 2, 1, 3, Tableau.from_list([[1, 2], [2, 3]]))


def test_max_omitted_examples():
    res = max_omitted(5, 2, 1, 3)
    assert res.feasible and res.omitted == 1
    assert res.witness.to_list() == [[1, 2, 3], [2, 3, 4]]

    res = max_omitted(2, 2, 1, 1)
    assert not res.feasible

    res = max_omitted(4, 2, 0, 3)
    assert res.feasible and res.omitted == 3


def test_max_omitted_budget():
    with pytest.raises(SearchBudgetExceeded):
        max_omitted(6, 2, 1, 4, budget=5)


def test_witness_is_lex_least():
    # among maximizers, the first in row-major label order is kept
    fast = max_omitted(5, 2, 1, 3)
    slow = max_omitted_naive(5, 2, 1, 3)
    assert fast.witness == slow.witness


def test_oracle_check_examples():
    rep = oracle_check(5, 2, 1, 3)
    assert rep.equality and rep.omitted == rep.rho_k == 1

    rep = oracle_check(2, 2, 1, 1)
    assert not rep.feasible and rep.rho_k == -1

    rep = oracle_check(4, 3, 1, 3)
    assert rep.equality and rep.rho_k == 0 and rep.omitted == 0


def test_oracle_check_witness_valid():
    rep = oracle_check(6, 3, 1, 4)
    assert rep.witness is not None
    assert is_valid(6, 3, 1, 4, rep.witness)


def test_grid_preconditions():
    with pytest.raises(DomainError):
        max_omitted(5, 2, 1, 5)  # d > g-1
    with pytest.raises(DomainError):
        max_omitted(5, 2, -1, 3)
    with pytest.raises(DomainError):
        oracle_check(4, 2, 0, 4)
