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
    mukai_pairing,
    square,
)
from .stability import StabilityParams, WallPoint, wall_on_axis


@dataclass(frozen=True)
class StabilityType:
    """Ordered pairs (e_i, m_i), strictly decreasing e, positive m; possibly empty."""

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(e), int(m)) for e, m in self.pairs))
        es = [e for e, _ in self.pairs]
        if any(m <= 0 for _, m in self.pairs) or any(e < 0 for e in es):
            raise DomainError("ill-formed type", code="ill_formed_type")
        if any(a <= b for a, b in zip(es, es[1:])):
            raise DomainError("ill-formed type", code="ill_formed_type")

    @property
    def p(self) -> int:
        return len(self.pairs)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.pairs)

    def weighted_sections(self) -> int:
        """sum of m_i*(e_i+1), the sections contributed by the subobjects."""
        return sum(m * (e + 1) for e, m in self.pairs)

    def sort_key(self) -> tuple:
        return (self.p,) + tuple(x for pair in self.pairs for x in pair)

    def to_list(self) -> list[list[int]]:
        return [[e, m] for e, m in self.pairs]

    @classmethod
    def from_list(cls, pairs) -> "StabilityType":
        try:
            return cls(tuple((int(e), int(m)) for e, m in pairs))
        except (TypeError, ValueError) as exc:
            if isinstance(exc, DomainError):
                raise
            raise DomainError(f"malformed type payload: {pairs!r}", code="ill_formed_type") from exc


def ell_value(t: StabilityType, r: int) -> int:
    """The derived index ell = r + 1 - sum(m_i)."""
    return r + 1 - t.total_multiplicity()


def validate_type(t: StabilityType, r: int, refined: bool = False) -> bool:
    """Check the section-count constraints of a type against r.

    Plain constraints: sum(m_i) <= r+1 <= sum(m_i*(e_i+1)) and
    m_1*(e_1+1) <= r+1.  The refined variant additionally requires
    2*(m_1+...+m_{p-1}) + m_p <= r+1, strengthened to 2*m_1 <= r+1 for a
    single pair with e_1 >= 1.  The empty type is valid exactly for r = -1.
    """
    if t.p == 0:
        return r == -1
    if r < 0:
        return False
    e1, m1 = t.pairs[0]
    if not (t.total_multiplicity() <= r + 1 <= t.weighted_sections()):
        return False
    if m1 * (e1 + 1) > r + 1:
        return False
    if refined:
        if t.p == 1 and e1 >= 1:
            bound = 2 * m1
        else:
            bound = 2 * sum(m for _, m in t.pairs[:-1]) + t.pairs[-1][1]
        if bound > r + 1:
            return False
    return True


def residual_vector(params: SurfaceParams, v: MukaiVector, t: StabilityType) -> MukaiVector:
    """v minus the full destabilizing contribution sum m_i*(1, e_i*E, 1)."""
    out = v
    for e, m in t.pairs:
        out = out - m * line_bundle_vector(e)
    return out


def passes_square_filter(params: SurfaceParams, v: MukaiVector, t: StabilityType) -> bool:
    """Whether the residual vector of t has square >= -2; below that t is empty."""
    return square(params, residual_vector(params, v, t)) >= -2


@dataclass(frozen=True)
class TypeEnumeration:
    r: int
    refined: bool
    items: tuple[StabilityType, ...]


def enumerate_types(r: int, refined: bool = False) -> TypeEnumeration:
    """All types passing validate_type for this r, canonically sorted.

    The constraints involve r alone, so the table serves every surface and
    vector.  The enumeration is finite: e_1 <= r and p <= r+1.
    """
    if r < -1:
        raise DomainError(f"r must be >= -1, got {r}", code="bad_rank")
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
    return TypeEnumeration(r=r, refined=refined, items=tuple(found))


def stratum_dimension(params: SurfaceParams, v: MukaiVector, t: StabilityType) -> int:
    """Dimension of the stratum of objects of class v and type t.

    (v - sum m_i*u_i)^2 + 2 + sum_j m_j*(<v - sum_{i<=j} m_i*u_i, u_j> - m_j)
    with u_i = (1, e_i*E, 1).  No positivity check: a negative value signals
    emptiness to the caller.
    """
    running = v
    correction = 0
    for e, m in t.pairs:
        u = line_bundle_vector(e)
        running = running - m * u
        correction += m * (mukai_pairing(params, running, u) - m)
    return square(params, running) + 2 + correction


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
