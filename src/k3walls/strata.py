"""Destabilization types: validation, enumeration, dimensions, non-emptiness.

A type records how an object is successively destabilized by pencil powers
(1, e_i*E, 1) as the stability parameter descends: an ordered list of pairs
(e_i, m_i) with e_1 > ... > e_p >= 0 and m_i > 0.  The empty type is the
unique type of section count zero (r = -1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DomainError
from .hbn import ell_decompose
from .lattice import (
    MukaiVector,
    SurfaceParams,
    check_special_shape,
    line_bundle_vector,
    square,
)
from .stability import StabilityParams, WallPoint, wall_on_axis


@dataclass(frozen=True)
class StabilityType:
    """Ordered pairs (e_i, m_i), strictly decreasing e, positive m; possibly empty.

    pairs is a tuple of 2-tuples of plain ints; nothing is coerced.
    Construction also sets sum_m = sum m_i and sum_me = sum m_i*e_i, plain
    attributes rather than fields, which every per-type sum below reads.
    """

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = self.pairs
        if type(pairs) is not tuple:
            raise DomainError("ill-formed type", code="ill_formed_type")
        sum_m = sum_me = 0
        for i, pair in enumerate(pairs):
            if not (
                type(pair) is tuple and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int
                and pair[0] >= 0 and pair[1] > 0 and (i == 0 or pairs[i - 1][0] > pair[0])
            ):
                raise DomainError("ill-formed type", code="ill_formed_type")
            sum_m += pair[1]
            sum_me += pair[1] * pair[0]
        object.__setattr__(self, "sum_m", sum_m)
        object.__setattr__(self, "sum_me", sum_me)

    @property
    def p(self) -> int:
        return len(self.pairs)

    def total_multiplicity(self) -> int:
        return self.sum_m

    def weighted_sections(self) -> int:
        """sum of m_i*(e_i+1), the sections contributed by the subobjects."""
        return self.sum_me + self.sum_m

    def sort_key(self) -> tuple:
        return (self.p,) + tuple(x for pair in self.pairs for x in pair)

    def to_list(self) -> list[list[int]]:
        return [[e, m] for e, m in self.pairs]

    @classmethod
    def from_list(cls, pairs) -> "StabilityType":
        """The type of a decoded JSON payload: a list of [e, m] pairs of integers.

        Anything else, including floats, strings, booleans and objects, is an
        ill-formed type rather than something to coerce.
        """
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(type(n) is int for n in pair)
            for pair in pairs
        ):
            raise DomainError(f"malformed type payload: {pairs!r}", code="ill_formed_type")
        return cls(tuple(map(tuple, pairs)))


def ell_value(t: StabilityType, r: int) -> int:
    """The derived index ell = r + 1 - sum(m_i)."""
    return r + 1 - t.total_multiplicity()


def _check_section_count(r: int) -> None:
    """r = -1 (no sections, the empty type) is the least section count."""
    if r < -1:
        raise DomainError(f"r must be >= -1, got {r}", code="bad_rank")


def validate_type(t: StabilityType, r: int, refined: bool = False) -> bool:
    """Check the section-count constraints of a type against r.

    Plain constraints: sum(m_i) <= r+1 <= sum(m_i*(e_i+1)) and
    m_1*(e_1+1) <= r+1.  The refined variant additionally requires
    2*(m_1+...+m_{p-1}) + m_p <= r+1, strengthened to 2*m_1 <= r+1 for a
    single pair with e_1 >= 1.  The empty type is valid exactly for r = -1.
    """
    if t.p == 0:
        return r == -1
    e1, m1 = t.pairs[0]
    if not (t.total_multiplicity() <= r + 1 <= t.weighted_sections()):
        return False
    if m1 * (e1 + 1) > r + 1:
        return False
    if refined:
        if t.p == 1 and e1 >= 1:
            bound = 2 * m1
        else:
            bound = 2 * t.sum_m - t.pairs[-1][1]
        if bound > r + 1:
            return False
    return True


def _residual_square(params: SurfaceParams, v: MukaiVector, sum_m: int, sum_me: int) -> int:
    """Square of v - (M, 0, S, M), the quotient left after pairs with sum(m) = M, sum(m*e) = S.

    With v = (r0, x, y, s) that quotient is (r0 - M, x, y - S, s - M), so
    its square is x^2(2g-2) + 2x(y - S)k - 2(r0 - M)(s - M).
    """
    return (
        v.x * v.x * params.h_square
        + 2 * v.x * (v.y - sum_me) * params.k
        - 2 * (v.r - sum_m) * (v.s - sum_m)
    )


def passes_square_filter(params: SurfaceParams, v: MukaiVector, t: StabilityType) -> bool:
    """Whether the residual vector of t has square >= -2; below that t is empty."""
    return _residual_square(params, v, t.sum_m, t.sum_me) >= -2


@dataclass(frozen=True)
class TypeEnumeration:
    items: tuple[StabilityType, ...]


def enumerate_types(r: int, refined: bool = False) -> TypeEnumeration:
    """All types passing validate_type for this r, canonically sorted.

    The constraints involve r alone, so the table serves every surface and
    vector.  The enumeration is finite: e_1 <= r and p <= r+1.
    """
    _check_section_count(r)
    found: list[StabilityType] = []

    def extend(prefix: list[tuple[int, int]], e_max: int, budget: int) -> None:
        if prefix:
            t = StabilityType(tuple(prefix))
            if validate_type(t, r, refined=refined):
                found.append(t)
        for e in range(e_max, -1, -1):
            for m in range(1, budget + 1):
                if not prefix and m * (e + 1) > r + 1:
                    continue
                prefix.append((e, m))
                extend(prefix, e - 1, budget - m)
                prefix.pop()

    if r == -1:
        found.append(StabilityType())
    else:
        extend([], r, r + 1)
    found.sort(key=StabilityType.sort_key)
    return TypeEnumeration(items=tuple(found))


def _dimension(params: SurfaceParams, v: MukaiVector, sum_m: int, sum_me: int) -> int:
    """stratum_dimension of any type with M = sum m_i and S = sum m_i*e_i.

    The correction sum_j m_j*(x*e_j*k - r0 - s + 2*M_j - m_j) telescopes,
    since 2*M_j*m_j - m_j^2 = M_j^2 - M_{j-1}^2, to x*k*S - (r0 + s)*M + M^2.
    """
    correction = v.x * params.k * sum_me - (v.r + v.s) * sum_m + sum_m * sum_m
    return _residual_square(params, v, sum_m, sum_me) + 2 + correction


def stratum_dimension(params: SurfaceParams, v: MukaiVector, t: StabilityType) -> int:
    """Dimension of the stratum of objects of class v and type t.

    (v - sum m_i*u_i)^2 + 2 + sum_j m_j*(<v - sum_{i<=j} m_i*u_i, u_j> - m_j)
    with u_i = (1, e_i*E, 1).  No positivity check: a negative value signals
    emptiness to the caller.  After the pairs up to j, with M = sum m_i and
    S = sum m_i*e_i, the running quotient is v - (M, 0, S, M), and its pairing
    with u_j is x*e_j*k - r0 - s + 2M for v = (r0, x, y, s).
    """
    return _dimension(params, v, t.sum_m, t.sum_me)


@dataclass(frozen=True)
class StratumExtremes:
    """Stratum dimensions of the valid types of r with one value of ell.

    least and largest are the extremes over all of them; saturated is the
    dimension shared by those with sum m_i*(e_i+1) = r+1, or None when there
    are none.
    """

    ell: int
    least: int
    largest: int
    saturated: int | None


def _type_sums(r: int, refined: bool) -> dict[int, int]:
    """Maps M to the set of S, as a bitmask, over the valid types of r >= 0 with sum(m) = M.

    Pairs are added in descending e, from e = r down to 0.  A state is keyed
    by (M, P) and holds the reachable S as the bits of an integer, so adding
    (e, m) shifts a whole set by m*e.  P is M before the last pair, which
    only the refined constraints read (P = 0 exactly for a single pair);
    plain states keep P = 0.  No transition leaves M > r+1, nor, refined,
    2*(M - m_last) + m_last > r+1, because M and P never decrease.
    """
    top = r + 1
    reach: dict[tuple[int, int], int] = {}
    for e in range(r, -1, -1):
        grown = dict(reach)
        for (sum_m, _), mask in reach.items():
            for m in range(1, top - (2 * sum_m if refined else sum_m) + 1):
                key = (sum_m + m, sum_m if refined else 0)
                grown[key] = grown.get(key, 0) | mask << (m * e)
        for m in range(1, top // (e + 1) + 1):  # a first pair: m*(e+1) <= r+1
            grown[m, 0] = grown.get((m, 0), 0) | 1 << (m * e)
        reach = grown
    sums: dict[int, int] = {}
    for (sum_m, prefix), mask in reach.items():
        if refined and prefix == 0 and 2 * sum_m > top:
            mask &= 1  # a single pair with e >= 1 needs 2*m <= r+1
        mask &= -1 << (top - sum_m)  # r+1 <= S + M
        if mask:
            sums[sum_m] = sums.get(sum_m, 0) | mask
    return sums


def dimension_extremes(
    params: SurfaceParams, v: MukaiVector, r: int, refined: bool = False
) -> tuple[StratumExtremes, ...]:
    """The extremes of stratum_dimension over enumerate_types(r, refined), by ascending ell.

    No type is listed.  With M = sum m_i and S = sum m_i*e_i the dimension
    depends on (M, S) alone (see _dimension) and, for fixed M, is linear in
    S: its extremes sit at the least and the greatest reachable S, and all
    saturated types of one ell share S = r+1-M.
    """
    _check_section_count(r)
    sums = {0: 1} if r == -1 else _type_sums(r, refined)
    out = []
    for sum_m in sorted(sums, reverse=True):
        mask, ell = sums[sum_m], r + 1 - sum_m
        least_s, greatest_s = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        ends = (_dimension(params, v, sum_m, least_s), _dimension(params, v, sum_m, greatest_s))
        out.append(
            StratumExtremes(
                ell=ell,
                least=min(ends),
                largest=max(ends),
                # a saturated type has S = r+1-M = ell
                saturated=_dimension(params, v, sum_m, ell) if mask >> ell & 1 else None,
            )
        )
    return tuple(out)


class Verdict(enum.Enum):
    NON_EMPTY = "non_empty"
    EMPTY_BY_NECESSITY = "empty_by_necessity"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class NonemptinessVerdict:
    verdict: Verdict
    square: int


def _balanced_case(v: MukaiVector, t: StabilityType) -> tuple[int, int, int] | None:
    """The data (e, m1, m2) when balanced_nonempty decides t for v; None otherwise.

    It decides a balanced type {(e+1, m1), (e, m2)}, m1 = 0 allowed, of a
    vector of shape (r0 <= 0, H - a0*E, s0 + r0) in one of two degree cases:
    generic (ch2 < 0) or genus minus one (rank 0 and ch2 = 0).  A vector of
    another shape is an error.
    """
    check_special_shape(v)
    if v.r > 0 or not (v.ch2 < 0 or v.r == v.ch2 == 0):
        return None
    if t.p == 1:
        e, m2 = t.pairs[0]
        return e, 0, m2
    if t.p == 2 and t.pairs[0][0] == t.pairs[1][0] + 1:
        (_, m1), (e, m2) = t.pairs
        return e, m1, m2
    return None


def balanced_type(r: int, ell: int) -> StabilityType:
    """The type {(e+1, m1), (e, m2)} of ell_decompose(r, ell), without a pair of m1 = 0."""
    dec = ell_decompose(r, ell)
    return StabilityType(tuple((e, m) for e, m in ((dec.e + 1, dec.m1), (dec.e, dec.m2)) if m))


def balanced_nonempty(
    params: SurfaceParams, v: MukaiVector, t: StabilityType
) -> NonemptinessVerdict:
    """Decide non-emptiness for a balanced type {(e+1, m1), (e, m2)}.

    Non-empty when the residual square is >= -2 and the multiplicity bound
    holds (m1+m2 <= k+r0 in the generic case; strictly below k, with r0 = 0,
    in the genus-minus-one case).  A square below -2 forces emptiness.  When
    only the multiplicity bound fails the answer is genuinely unknown.
    """
    data = _balanced_case(v, t)
    if data is None:
        raise DomainError(f"no balanced verdict for type {t.to_list()} of {v}", code="not_balanced")
    e, m1, m2 = data
    v2 = v - m1 * line_bundle_vector(e + 1) - m2 * line_bundle_vector(e)
    sq = square(params, v2)
    if sq < -2:
        return NonemptinessVerdict(Verdict.EMPTY_BY_NECESSITY, sq)
    if v.ch2 == 0:  # genus minus one
        sufficient = m1 + m2 < params.k
    else:
        sufficient = m1 + m2 <= params.k + v.r
    if sufficient:
        return NonemptinessVerdict(Verdict.NON_EMPTY, sq)
    return NonemptinessVerdict(Verdict.UNKNOWN, sq)


def type_verdict(params: SurfaceParams, v: MukaiVector, t: StabilityType) -> Verdict:
    """The emptiness verdict of any type of v, a vector of shape (r0, H - a0*E, s0 + r0).

    A type that balanced_nonempty decides gets its verdict.  Any other type
    is empty by necessity when it fails the square filter, which tests the
    square balanced_nonempty tests too, and unknown otherwise.
    """
    if _balanced_case(v, t) is not None:
        return balanced_nonempty(params, v, t).verdict
    if not passes_square_filter(params, v, t):
        return Verdict.EMPTY_BY_NECESSITY
    return Verdict.UNKNOWN


def wall_sequence(sp: StabilityParams, v: MukaiVector, t: StabilityType) -> list[WallPoint]:
    """Walls w_1 > w_2 > ... where each pencil power peels off the running quotient.

    The i-th wall is the crossing of the running quotient
    v_{i-1} = v - sum_{j<i} m_j*(1, e_j*E, 1) with (1, e_i*E, 1); walls at
    e = 0 degenerate to the origin ray at w = 0.  A non-decreasing sequence
    signals an inconsistent (v, t, eps) triple and is an error.
    """
    check_special_shape(v)
    if v.r == 0 and v.ch2 >= 0:
        raise DomainError(f"rank-zero input needs negative ch2, got {v}", code="bad_vector_shape")
    walls: list[WallPoint] = []
    running = v
    for e, m in t.pairs:
        u = line_bundle_vector(e)
        walls.append(wall_on_axis(sp, running, u))
        running = running - m * u
    ws = [wall.w for wall in walls]
    if any(a <= b for a, b in zip(ws, ws[1:])):
        raise DomainError("non-monotone wall sequence", code="non_monotone_walls")
    return walls
