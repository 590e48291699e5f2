import pytest

from k3walls import tableaux, verify
from k3walls.errors import DomainError, OracleViolation, SearchBudgetExceeded
from k3walls.tableaux import SearchResult, Tableau, is_valid, max_omitted, max_omitted_naive, oracle_check


def test_is_valid_examples():
    t = Tableau(((1, 2), (2, 3)))
    assert is_valid(3, 2, 1, 2, t) is True  # 2x2 grid: g-d+r = 2
    assert is_valid(3, 3, 1, 2, t) is False  # -1 != 1 mod 3


def test_is_valid_injective_filling():
    t = Tableau(((1, 2, 3), (4, 5, 6)))
    assert is_valid(6, 2, 1, 4, t) is True
    assert is_valid(6, 5, 1, 4, t) is True  # congruence vacuous without repeats


def test_is_valid_rejections():
    assert is_valid(3, 2, 1, 2, Tableau(((1, 2), (1, 3)))) is False  # column not increasing
    assert is_valid(3, 2, 1, 2, Tableau(((2, 2), (3, 4)))) is False  # row not increasing
    assert is_valid(3, 2, 1, 2, Tableau(((1, 2), (2, 4)))) is False  # label above cap


def test_is_valid_shape_mismatch():
    with pytest.raises(DomainError, match="shape"):
        is_valid(5, 2, 1, 3, Tableau(((1, 2), (2, 3))))


def test_max_omitted_examples():
    res = max_omitted(5, 2, 1, 3)
    assert res.feasible and res.omitted == 1
    assert res.witness.to_list() == [[1, 2, 3], [2, 3, 4]]

    res = max_omitted(2, 2, 1, 1)
    assert not res.feasible

    res = max_omitted(4, 2, 0, 3)
    assert res.feasible and res.omitted == 3


@pytest.mark.parametrize(
    "inst, omitted, witness, nodes",
    [
        ((6, 2, 1, 4), 2, [[1, 2, 3], [2, 3, 4]], 46),
        ((9, 4, 1, 6), 2, [[1, 2, 3, 4], [4, 5, 6, 7]], 515),
        ((8, 2, 2, 6), 2, [[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6]], 248),
        ((10, 5, 2, 8), None, None, 845),
        (
            (14, 3, 3, 11),
            2,
            [[1, 2, 3, 4, 5, 6], [3, 4, 5, 6, 7, 8], [5, 6, 7, 8, 9, 10], [7, 8, 9, 10, 11, 12]],
            104041,
        ),
    ],
)
def test_max_omitted_pinned(inst, omitted, witness, nodes):
    # node counts are part of the result: a change to the search order or its
    # pruning shows here even when the maximum stays the same
    res = max_omitted(*inst)
    assert res.feasible == (omitted is not None)
    assert res.omitted == omitted
    assert (res.witness.to_list() if res.witness else None) == witness
    assert res.nodes == nodes


@pytest.mark.parametrize(
    "inst, nodes", [((6, 2, 1, 4), 261), ((9, 4, 1, 6), 2518), ((10, 5, 2, 8), 7666)]
)
def test_max_omitted_naive_nodes_pinned(inst, nodes):
    assert max_omitted_naive(*inst).nodes == nodes


def test_max_omitted_budget():
    with pytest.raises(SearchBudgetExceeded):
        max_omitted(6, 2, 1, 4, budget=5)
    for search in (max_omitted, oracle_check):  # every search is bounded
        with pytest.raises(TypeError):
            search(6, 2, 1, 4, budget=None)


def test_oracle_check_examples():
    rep = oracle_check(5, 2, 1, 3)
    assert rep.equality and rep.omitted == rep.rho_k == 1

    rep = oracle_check(2, 2, 1, 1)
    assert not rep.feasible and rep.rho_k == -1

    rep = oracle_check(4, 3, 1, 3)
    assert rep.equality and rep.rho_k == 0 and rep.omitted == 0


@pytest.mark.parametrize(
    "inst, message",
    [((5, 2, 1, 3), "omitted 1 exceeds rho_k 0"), ((2, 2, 1, 1), "no valid tableau but rho_k 0 >= 0")],
    ids=["feasible", "infeasible"],
)
def test_oracle_check_violations(monkeypatch, inst, message):
    # a formula that disagrees with the search: too small for a feasible search,
    # nonnegative for an infeasible one
    monkeypatch.setattr(tableaux, "rho_k", lambda g, k, r, d: (0, [0]))
    with pytest.raises(OracleViolation, match=message):
        oracle_check(*inst)


def test_oracle_check_takes_a_given_result(monkeypatch):
    # the search is not run, and the result given meets the same rules a search's would
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(tableaux, "max_omitted", no_search)
    rep = oracle_check(5, 2, 1, 3, result=SearchResult(True, 1, None, 0))
    assert rep.equality and rep.omitted == rep.rho_k == 1
    with pytest.raises(OracleViolation, match="omitted 2 exceeds rho_k 1 at"):
        oracle_check(5, 2, 1, 3, result=SearchResult(True, 2, None, 0))
    with pytest.raises(OracleViolation, match="no valid tableau but rho_k 1 >= 0 at"):
        oracle_check(5, 2, 1, 3, result=SearchResult(False, None, None, 0))


def test_g_shift_on_the_10_5_grid():
    # A box (k, r+1, g-d+r) fixes the grid and the residues of its cells, and g bounds
    # only the labels.  So past a box's first feasible g0 in grid order, every search of
    # the box is feasible, omits g - g0 labels more and keeps the witness; and
    # verify._per_box, which searches no instance past g0, gives the search's results.
    first, shifted = {}, 0
    per_box = verify._per_box(max_omitted)
    for g, k, d, r in verify._grid(10, 5, range(4), d_from=0):
        res = max_omitted(g, k, r, d)
        box = (k, r, g - d + r)
        if box in first:
            g0, found = first[box]
            assert (res.feasible, res.omitted, res.witness) == (
                True, found.omitted + g - g0, found.witness
            ), (g, k, r, d)
            shifted += 1
        elif res.feasible:
            first[box] = (g, res)
        shared = per_box(g, k, r, d)
        assert (shared.feasible, shared.omitted, shared.witness) == (
            res.feasible, res.omitted, res.witness
        ), (g, k, r, d)
    # 832 instances: 556 searched, the first feasible instance of each of 84 boxes among them
    assert (len(first), shifted) == (84, 276)


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


@pytest.mark.parametrize("search", [max_omitted, max_omitted_naive])
def test_grid_cell_bound(search):
    assert tableaux.MAX_CELLS == 900
    with pytest.raises(DomainError, match="at most 900 cells, got 1x901"):
        search(901, 2, 0, 0)


def test_grid_at_the_cell_bound_answers():
    # one row of g cells has a single valid filling, one search node per cell
    res = max_omitted(900, 2, 0, 0)
    assert res.feasible and res.omitted == 0 and res.nodes == 901


def test_naive_node_bound(monkeypatch):
    # one row of 900 cells: unbounded, the reference ran for minutes
    assert tableaux.NAIVE_MAX_NODES == 10**5
    monkeypatch.setattr(tableaux, "NAIVE_MAX_NODES", 10**4)
    with pytest.raises(SearchBudgetExceeded, match="10001 nodes > limit 10000"):
        max_omitted_naive(900, 2, 0, 0)
