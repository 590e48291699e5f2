"""Classical and pencil-adapted Brill-Noether numerics.

Covers the expected-dimension counts: rho, its gonality-adjusted maximum
rho_k, the decomposition of an index ell into balanced multiplicities, the
degeneracy-locus dimension bookkeeping, section counts of pencil powers, and
splitting types of pushforwards to the projective line.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._value import set_attr, value_class
from .errors import DomainError, OracleViolation
from .lattice import check_pencil_degree


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r).  Accepts any integers."""
    return g - (r + 1) * (g - d + r)


def rho_k(g: int, k: int, r: int, d: int) -> tuple[int, list[int]]:
    """max over 0 <= ell <= r of rho(g, r-ell, d) - ell*k, with all maximizers.

    With A = r+1 and B = g-d+r the objective is g - (A-ell)(B-ell) - ell*k,
    a strictly concave quadratic in ell with vertex (A+B-k)/2.  So the
    maximum over the integers of [0, r] sits at the floor or the ceiling of
    the vertex, each clamped to [0, r].  The two differ only when neither
    was clamped and the vertex is a half-integer; the quadratic is
    symmetric about its vertex, so then both win, and one evaluation does.
    """
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}", code="bad_rank")
    check_pencil_degree(k)
    twice_vertex = (r + 1) + (g - d + r) - k
    half = twice_vertex // 2
    lo, hi = min(max(half, 0), r), min(max(twice_vertex - half, 0), r)  # floor, ceiling
    return rho(g, r - lo, d) - lo * k, [lo] if lo == hi else [lo, hi]


@value_class
class EllDecomposition:
    """Balanced data (e, m1, m2) attached to an index ell.

    Satisfies r+1 = m1(e+2) + m2(e+1) and ell = e(r+1-ell) + m1.
    """

    def __init__(self, ell: int, e: int, m1: int, m2: int):
        set_attr(self, "ell", ell)
        set_attr(self, "e", e)
        set_attr(self, "m1", m1)
        set_attr(self, "m2", m2)


def ell_decompose(r: int, ell: int) -> EllDecomposition:
    """Split ell as e(r+1-ell) + m1 with e = floor(ell/(r+1-ell))."""
    if not 0 <= ell <= r:
        raise DomainError(f"need 0 <= ell <= r, got ell={ell}, r={r}", code="ell_out_of_range")
    width = r + 1 - ell
    e, m1 = divmod(ell, width)
    return EllDecomposition(ell, e, m1, width - m1)


@value_class
class DegeneracyDims:
    """Numerics of the multiplication-map degeneracy locus at index ell."""

    def __init__(self, s: int, rk_e: int, rk_f: int, expected_dim: int):
        set_attr(self, "s", s)
        set_attr(self, "rk_e", rk_e)
        set_attr(self, "rk_f", rk_f)
        set_attr(self, "expected_dim", expected_dim)


def degeneracy_dims(g: int, k: int, d: int, r: int, ell: int) -> DegeneracyDims:
    """Ranks and expected dimension of the degeneracy-locus model.

    The result is cross-checked against the closed form rho(g, r-ell, d) - ell*k;
    a mismatch would be an implementation bug and raises OracleViolation.
    """
    if d > g - 1:
        raise DomainError(f"need d <= g-1, got d={d}, g={g}", code="degree_out_of_range")
    if not max(0, r + 2 - k) <= ell <= r:
        raise DomainError(
            f"need max(0, r+2-k) <= ell <= r, got ell={ell} for r={r}, k={k}", code="ell_out_of_range"
        )
    dec = ell_decompose(r, ell)
    e, m1 = dec.e, dec.m1
    s = g - d + r + e * (k - r - 1 + ell)
    rk_e = g + m1 - 1 + (e + 1) * k - d
    rk_f = g + (e + 2) * k - d - 1
    expected = rho(g, m1 - 1, d - (e + 1) * k) - s * (rk_f - 2 * rk_e + s)
    closed_form = rho(g, r - ell, d) - ell * k
    if expected != closed_form:
        raise OracleViolation(
            f"degeneracy dimension {expected} != {closed_form} "
            f"at (g,k,d,r,ell)=({g},{k},{d},{r},{ell})"
        )
    return DegeneracyDims(s, rk_e, rk_f, expected)


@value_class
class SplittingType:
    """Multidegree {(f_i, n_i)} of a pushforward to the line, f_1 > ... > f_q.

    pairs is a tuple of 2-tuples of plain ints; nothing is coerced.
    """

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        # one pass; an ill-formed pair anywhere is reported before the other two faults
        well_formed, positive, decreasing = type(pairs) is tuple, True, True
        for i, pair in enumerate(pairs if well_formed else ()):
            if not (type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int):
                well_formed = False
                break
            positive = positive and pair[1] > 0
            decreasing = decreasing and (i == 0 or pairs[i - 1][0] > pair[0])
        if not well_formed:
            raise DomainError("a splitting type is a tuple of integer pairs", code="ill_formed_splitting")
        if not positive:
            raise DomainError("splitting multiplicities must be positive", code="ill_formed_splitting")
        if not decreasing:
            raise DomainError("splitting degrees must strictly decrease", code="ill_formed_splitting")
        set_attr(self, "pairs", pairs)

    def values(self) -> list[int]:
        """Degrees expanded with multiplicity, descending."""
        return [f for f, n in self.pairs for _ in range(n)]

    def rank(self) -> int:
        return sum(n for _, n in self.pairs)

    def degree(self) -> int:
        return sum(f * n for f, n in self.pairs)


def splitting_nonneg_part(g: int, k: int, d: int, st: SplittingType) -> SplittingType:
    """Validate a splitting type against (g, k, d) and return its f >= 0 part."""
    if d > g - 1:
        raise DomainError(f"need d <= g-1, got d={d}, g={g}", code="degree_out_of_range")
    if (rank := st.rank()) != k:
        raise DomainError(f"rank mismatch: multiplicities sum to {rank}, expected k={k}", code="rank_mismatch")
    if st.pairs[-1][0] >= 0:
        raise DomainError("no negative summand", code="no_negative_summand")
    want = d + 1 - g - k
    if (degree := st.degree()) != want:
        raise DomainError(f"degree mismatch: degrees sum to {degree}, expected {want}", code="degree_mismatch")
    return SplittingType(tuple([pair for pair in st.pairs if pair[0] >= 0]))


def balanced_correspondence(nonneg: Iterable[int]) -> tuple[int, int, int]:
    """Read balanced data (e, m1, m2) off the nonnegative degrees.

    The degrees must occupy at most two consecutive levels {e+1, e}; a single
    level f with multiplicity n maps to (f, 0, n).
    """
    values = sorted(nonneg, reverse=True)
    if not values or values[-1] < 0:
        raise DomainError("not balanced", code="not_balanced")
    top, bottom = values[0], values[-1]
    if top == bottom:
        return top, 0, len(values)
    if top == bottom + 1:
        m1 = values.count(top)
        return bottom, m1, len(values) - m1
    raise DomainError("not balanced", code="not_balanced")
