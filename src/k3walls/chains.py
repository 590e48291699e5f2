"""Ramification bookkeeping for linear series on a chain of g elliptic curves.

Each component of the chain carries a ramification sequence at its incoming
and outgoing node; adjacent components are glued by the complementarity rule
alpha_j^out(a) + alpha_{r-j}^in(a+1) = d - r.  The per-component adjusted
count is rho(1, r, d) minus both weights; it is 0 on the first
(r+1)(g-d+r) components and 1 on the remaining rho(g, r, d) ones, so the
total telescopes to rho(g, r, d).

The incoming sequences of the last range are the arithmetic progression
starting at r(g-d+r) with step 1: this is the unique choice consistent with
the boundary value at component 1+(r+1)(g-d+r), the complementarity rule,
and a unit adjusted count per component.  Torsion of the gluing points is
out of scope here; only the numerical data is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .hbn import rho

LAST_RANGE_NOTE = (
    "last-range incoming ramification follows the arithmetic progression "
    "pinned by the boundary value and the unit adjusted count per component"
)

TORSION_NOTE = (
    "gluing points are taken to be torsion of order k on each component; "
    "only the numerical ramification data is modeled, not the group law"
)


@dataclass(frozen=True)
class RamificationSequence:
    """Non-decreasing integers 0 <= a_0 <= ... <= a_r <= d-r, a tuple of plain ints."""

    alphas: tuple[int, ...]

    def __post_init__(self):
        if type(self.alphas) is not tuple or not all(type(a) is int for a in self.alphas):
            raise DomainError(
                f"entries must be a tuple of integers, got {self.alphas!r}",
                code="ill_formed_ramification",
            )

    def validate(self, r: int, d: int) -> None:
        if r < 0:
            raise DomainError(f"need r >= 0, got {r}", code="bad_rank")
        a = self.alphas
        if len(a) != r + 1:
            raise DomainError(
                f"expected {r + 1} entries, got {len(a)}", code="ill_formed_ramification"
            )
        if any(x < 0 for x in a) or any(x > y for x, y in zip(a, a[1:])) or a[-1] > d - r:
            raise DomainError(
                f"entries must be non-decreasing in [0, {d - r}], got {a}",
                code="ill_formed_ramification",
            )

    @property
    def weight(self) -> int:
        return sum(self.alphas)

    def to_list(self) -> list[int]:
        return list(self.alphas)


def complement(r: int, d: int, seq: RamificationSequence) -> RamificationSequence:
    """The complementary sequence beta_j = d - r - alpha_{r-j}; an involution."""
    seq.validate(r, d)
    a = seq.alphas
    return RamificationSequence(tuple(d - r - a[r - j] for j in range(r + 1)))


@dataclass(frozen=True)
class ChainComponent:
    a: int
    alpha_in: RamificationSequence
    alpha_out: RamificationSequence
    adjusted_rho: int

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "in": self.alpha_in.to_list(),
            "out": self.alpha_out.to_list(),
            "adj_rho": self.adjusted_rho,
        }


@dataclass(frozen=True)
class ChainSeries:
    g: int
    k: int
    r: int
    d: int
    components: tuple[ChainComponent, ...]

    def to_dict(self) -> dict:
        return {"components": [c.to_dict() for c in self.components]}


def _incoming(g: int, r: int, d: int, a: int) -> tuple[int, ...]:
    """Incoming ramification of component a; defined up to the virtual a = g+1."""
    w = g - d + r
    if a == 1:
        return (0,) * (r + 1)
    if a <= 1 + (r + 1) * w:
        b, i = divmod(a - 2, r + 1)
        i += 1  # a = 1 + b(r+1) + i with 1 <= i <= r+1
        return (b * r + i - 1,) * i + (b * r + i,) * (r + 1 - i)
    c = r * w + (a - 1 - (r + 1) * w)
    return (c,) * (r + 1)


def build_chain(g: int, k: int, r: int, d: int) -> ChainSeries:
    """Assemble the full chain of g components with complementary gluing.

    Requires k >= r+2, d <= g-1 and rho(g, r, d) >= 0.  The outgoing sequence
    of each component is the complement of the next incoming one; for the
    final component the (virtual) next incoming sequence zeroes the remaining
    weight budget, which always lands on the zero sequence.
    """
    if k < r + 2:
        raise DomainError(f"need k >= r+2, got k={k}, r={r}", code="pencil_too_small")
    if d > g - 1:
        raise DomainError(f"need d <= g-1, got d={d}, g={g}", code="degree_out_of_range")
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}", code="bad_rank")
    if rho(g, r, d) < 0:
        raise DomainError(
            f"need rho(g,r,d) >= 0, got {rho(g, r, d)}", code="negative_expected_dimension"
        )
    components = []
    rho_elliptic = rho(1, r, d)
    for a in range(1, g + 1):
        alpha_in = RamificationSequence(_incoming(g, r, d, a))
        alpha_out = complement(r, d, RamificationSequence(_incoming(g, r, d, a + 1)))
        components.append(
            ChainComponent(
                a=a,
                alpha_in=alpha_in,
                alpha_out=alpha_out,
                adjusted_rho=rho_elliptic - alpha_in.weight - alpha_out.weight,
            )
        )
    return ChainSeries(g=g, k=k, r=r, d=d, components=tuple(components))


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    failures: tuple[str, ...]
    total_adjusted: int
    expected_total: int
    notes: tuple[str, ...] = field(default=(LAST_RANGE_NOTE, TORSION_NOTE))

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "total_adjusted": self.total_adjusted,
            "expected_total": self.expected_total,
            "notes": list(self.notes),
        }


def verify_chain(chain: ChainSeries) -> ChainReport:
    """Check complementarity, the 0/1 adjusted pattern, and the telescoped total."""
    g, r, d = chain.g, chain.r, chain.d
    failures: list[str] = []
    zero_range = (r + 1) * (g - d + r)
    for comp in chain.components:
        try:
            comp.alpha_in.validate(r, d)
            comp.alpha_out.validate(r, d)
        except DomainError as exc:
            failures.append(f"component {comp.a}: {exc}")
            continue
        expected = rho(1, r, d) - comp.alpha_in.weight - comp.alpha_out.weight
        if comp.adjusted_rho != expected:
            failures.append(
                f"component {comp.a}: stored adjusted count {comp.adjusted_rho} != {expected}"
            )
        want = 0 if comp.a <= zero_range else 1
        if expected != want:
            failures.append(f"component {comp.a}: adjusted count {expected}, expected {want}")
    for left, right in zip(chain.components, chain.components[1:]):
        out, nxt = left.alpha_out.alphas, right.alpha_in.alphas
        if any(out[j] + nxt[r - j] != d - r for j in range(r + 1)):
            failures.append(f"component {left.a}: complementarity fails at node {left.a}")
    total = sum(c.adjusted_rho for c in chain.components)
    expected_total = rho(g, r, d)
    if total != expected_total:
        failures.append(f"total adjusted count {total} != rho = {expected_total}")
    return ChainReport(
        ok=not failures,
        failures=tuple(failures),
        total_adjusted=total,
        expected_total=expected_total,
    )
