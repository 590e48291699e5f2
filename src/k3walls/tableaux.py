"""Uniform displacement tableaux as a brute-force oracle for rho_k.

A tableau is a grid labeling t : [r+1] x [g-d+r] -> [g], strictly increasing
along rows and columns, where a label may repeat only on cells whose diagonal
index x - y agrees mod k.  The maximum number of labels omitted from [g] over
all such tableaux is an independent combinatorial computation of rho_k when
the latter is nonnegative, and detects emptiness when it is negative.
"""

from __future__ import annotations

from ._value import set_attr, value_class
from .errors import DomainError, OracleViolation, SearchBudgetExceeded
from .hbn import rho_k
from .lattice import check_pencil_degree


@value_class
class Tableau:
    """Row-major grid of positive labels; first index x, second index y."""

    def __init__(self, grid: tuple[tuple[int, ...], ...]):
        set_attr(self, "grid", grid)

    def to_list(self) -> list[list[int]]:
        return [list(row) for row in self.grid]


def _grid_shape(g: int, r: int, d: int) -> tuple[int, int]:
    if d > g - 1 or r < 0 or g - d + r < 1:
        raise DomainError(
            f"need d <= g-1, r >= 0 and g-d+r >= 1, got (g,r,d)=({g},{r},{d})",
            code="bad_grid",
        )
    return r + 1, g - d + r


#: The most cells a search fills.  The searches recurse once per cell, so
#: the bound keeps them within Python's recursion limit, and it is checked
#: before a grid is allocated.
MAX_CELLS = 900

#: The most nodes a search visits by default: over ten times the 945,230 of
#: (18, 3, 1, 12), the largest that verify or the tests run, and 15-25 s of
#: search (Python 3.11, one core of a 2-CPU host).
MAX_NODES = 10**7


def _search_shape(g: int, r: int, d: int) -> tuple[int, int]:
    rows, cols = _grid_shape(g, r, d)
    if rows * cols > MAX_CELLS:
        raise DomainError(
            f"the search fills at most {MAX_CELLS} cells, got {rows}x{cols}", code="bad_grid"
        )
    return rows, cols


def is_valid(g: int, k: int, r: int, d: int, t: Tableau) -> bool:
    """Both displacement conditions, with every label in [1, g]."""
    rows, cols = _grid_shape(g, r, d)
    if len(t.grid) != rows or any(len(row) != cols for row in t.grid):
        raise DomainError(
            f"grid shape mismatch: expected {rows}x{cols}", code="shape_mismatch"
        )
    residue: dict[int, int] = {}
    for x in range(rows):
        for y in range(cols):
            v = t.grid[x][y]
            if v < 1 or v > g:
                return False
            if x + 1 < rows and t.grid[x + 1][y] <= v:
                return False
            if y + 1 < cols and t.grid[x][y + 1] <= v:
                return False
            if v in residue:
                if residue[v] != (x - y) % k:
                    return False
            else:
                residue[v] = (x - y) % k
    return True


@value_class
class SearchResult:
    def __init__(self, feasible: bool, omitted: int | None, witness: Tableau | None, nodes: int):
        set_attr(self, "feasible", feasible)
        set_attr(self, "omitted", omitted)
        set_attr(self, "witness", witness)
        set_attr(self, "nodes", nodes)


def _result(best: int, witness: Tableau | None, nodes: int) -> SearchResult:
    """best = -1 (and no witness) when no valid tableau was found."""
    feasible = best >= 0
    return SearchResult(feasible, best if feasible else None, witness, nodes)


def max_omitted(g: int, k: int, r: int, d: int, budget: int = MAX_NODES) -> SearchResult:
    """Exhaustive maximum of g - #labels over valid tableaux.

    Backtracks over cells in row-major order with ascending labels, so the
    reported witness is the lexicographically least maximizer in row-major
    label order.  Infeasibility (no valid tableau at all) is an outcome, not
    an error; running out of ``budget`` nodes is an error.
    """
    rows, cols = _search_shape(g, r, d)
    check_pencil_degree(k)
    if budget < 0:
        raise DomainError(f"budget must be >= 0, got {budget}", code="bad_budget")
    total = rows * cols
    grid = [[0] * cols for _ in range(rows)]
    residue: dict[int, int] = {}
    best, witness, nodes = -1, None, 0

    def dfs(idx: int) -> None:
        nonlocal best, witness, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(budget, nodes)
        if idx == total:
            omitted = g - len(residue)
            if omitted > best:
                best = omitted
                witness = Tableau(tuple(tuple(row) for row in grid))
            return
        x, y = divmod(idx, cols)
        # even with only reused labels from here on, can we beat the best?
        if g - len(residue) <= best:
            return
        lo = 1
        if x > 0:
            lo = max(lo, grid[x - 1][y] + 1)
        if y > 0:
            lo = max(lo, grid[x][y - 1] + 1)
        hi = g - (rows - 1 - x) - (cols - 1 - y)
        allow_new = g - len(residue) - 1 > best
        diag = (x - y) % k
        for v in range(lo, hi + 1):
            fresh = v not in residue
            if fresh:
                if not allow_new:
                    continue
                residue[v] = diag
            elif residue[v] != diag:
                continue
            grid[x][y] = v
            dfs(idx + 1)
            grid[x][y] = 0
            # every later cell that reused v has backtracked already, so v
            # leaves the map with the cell that introduced it
            if fresh:
                del residue[v]

    dfs(0)
    return _result(best, witness, nodes)


#: The most nodes the unpruned reference visits before it gives up.
NAIVE_MAX_NODES = 10**5


def max_omitted_naive(g: int, k: int, r: int, d: int) -> SearchResult:
    """Reference enumeration without pruning, for oracle-vs-oracle testing.

    It stops with ``SearchBudgetExceeded`` past ``NAIVE_MAX_NODES`` nodes.
    """
    rows, cols = _search_shape(g, r, d)
    check_pencil_degree(k)
    total = rows * cols
    # per cell: the index above and the index to the left, or the sentinel
    # cell `total`, which always holds 0; and the residue of x - y mod k
    up = [i - cols if i >= cols else total for i in range(total)]
    left = [i - 1 if i % cols else total for i in range(total)]
    diag = [(i // cols - i % cols) % k for i in range(total)]
    labels = [0] * (total + 1)
    residue = [-1] * (g + 1)  # label -> residue of the cells holding it, -1 if unused
    best, witness, nodes = -1, None, 0

    def dfs(idx: int, used: int) -> None:
        nonlocal best, witness, nodes
        nodes += 1
        if nodes > NAIVE_MAX_NODES:
            raise SearchBudgetExceeded(NAIVE_MAX_NODES, nodes)
        if idx == total:
            if g - used > best:
                best = g - used
                witness = Tableau(tuple(tuple(labels[i : i + cols]) for i in range(0, total, cols)))
            return
        here = diag[idx]
        # cells are filled in row-major order, so both neighbours hold labels
        for v in range(max(labels[up[idx]], labels[left[idx]]) + 1, g + 1):
            seen = residue[v]
            if seen < 0:
                labels[idx] = v
                residue[v] = here
                dfs(idx + 1, used + 1)
                residue[v] = -1
            elif seen == here:
                labels[idx] = v
                dfs(idx + 1, used)

    dfs(0, 0)
    return _result(best, witness, nodes)


@value_class
class OracleReport:
    def __init__(
        self,
        feasible: bool,
        omitted: int | None,
        rho_k: int,
        argmax_ell: tuple[int, ...],
        equality: bool,
        witness: Tableau | None,
    ):
        set_attr(self, "feasible", feasible)
        set_attr(self, "omitted", omitted)
        set_attr(self, "rho_k", rho_k)
        set_attr(self, "argmax_ell", argmax_ell)
        set_attr(self, "equality", equality)
        set_attr(self, "witness", witness)


def oracle_check(
    g: int, k: int, r: int, d: int, budget: int = MAX_NODES, result: SearchResult | None = None
) -> OracleReport:
    """Run the tableau search against the closed formula and cross-check.

    ``result``, when given, is taken as max_omitted(g, k, r, d) without a search.
    Hard failures: a feasible search exceeding rho_k, or an infeasible search
    with rho_k >= 0.  Equality of the two values is recorded, not enforced.
    """
    if result is None:
        result = max_omitted(g, k, r, d, budget=budget)
    value, argmax = rho_k(g, k, r, d)
    if result.feasible and result.omitted > value:
        raise OracleViolation(
            f"omitted {result.omitted} exceeds rho_k {value} at (g,k,r,d)=({g},{k},{r},{d})"
        )
    if not result.feasible and value >= 0:
        raise OracleViolation(
            f"no valid tableau but rho_k {value} >= 0 at (g,k,r,d)=({g},{k},{r},{d})"
        )
    feasible, omitted = result.feasible, result.omitted
    return OracleReport(
        feasible, omitted, value, tuple(argmax), feasible and omitted == value, result.witness
    )
