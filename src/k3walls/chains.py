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

from ._value import set_attr, value_class
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


@value_class
class RamificationSequence:
    """Non-decreasing integers 0 <= a_0 <= ... <= a_r <= d-r, a tuple of plain ints."""

    def __init__(self, alphas: tuple[int, ...]):
        if type(alphas) is not tuple or not {*map(type, alphas)} <= {int}:
            raise DomainError(
                f"entries must be a tuple of integers, got {alphas!r}",
                code="ill_formed_ramification",
            )
        set_attr(self, "alphas", alphas)

    def validate(self, r: int, d: int) -> None:
        if r < 0:
            raise DomainError(f"need r >= 0, got {r}", code="bad_rank")
        a = self.alphas
        if len(a) != r + 1:
            raise DomainError(
                f"expected {r + 1} entries, got {len(a)}", code="ill_formed_ramification"
            )
        # a non-decreasing sequence is nonnegative when its first entry is
        if list(a) != sorted(a) or a[0] < 0 or a[-1] > d - r:
            raise DomainError(
                f"entries must be non-decreasing in [0, {d - r}], got {a}",
                code="ill_formed_ramification",
            )

    @property
    def weight(self) -> int:
        return sum(self.alphas)

    def to_list(self) -> list[int]:
        return list(self.alphas)


def _complement(r: int, d: int, alphas: tuple[int, ...]) -> RamificationSequence:
    """beta_j = d - r - alpha_{r-j}, for entries already known to be valid."""
    return RamificationSequence(tuple([d - r - x for x in reversed(alphas)]))


def complement(r: int, d: int, seq: RamificationSequence) -> RamificationSequence:
    """The complementary sequence beta_j = d - r - alpha_{r-j}; an involution."""
    seq.validate(r, d)
    return _complement(r, d, seq.alphas)


@value_class
class ChainComponent:
    def __init__(
        self, a: int, alpha_in: RamificationSequence, alpha_out: RamificationSequence, adjusted_rho: int
    ):
        set_attr(self, "a", a)
        set_attr(self, "alpha_in", alpha_in)
        set_attr(self, "alpha_out", alpha_out)
        set_attr(self, "adjusted_rho", adjusted_rho)

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "in": self.alpha_in.to_list(),
            "out": self.alpha_out.to_list(),
            "adj_rho": self.adjusted_rho,
        }


@value_class
class ChainSeries:
    def __init__(self, g: int, k: int, r: int, d: int, components: tuple[ChainComponent, ...]):
        set_attr(self, "g", g)
        set_attr(self, "k", k)
        set_attr(self, "r", r)
        set_attr(self, "d", d)
        set_attr(self, "components", components)

    def to_dict(self) -> dict:
        return {"components": [c.to_dict() for c in self.components]}


def _incoming(g: int, r: int, d: int, a: int) -> tuple[int, ...]:
    """Incoming ramification of component a; defined up to the virtual a = g+1.

    The reading of the column-major standard tableau on the (r+1) x w grid,
    w = g-d+r, whose cell (x, y) has label 1 + y(r+1) + x: alpha_x is a-1
    minus the number of cells of row x with label < a, which is
    ceil((a-1-x)/(r+1)) clamped to [0, w].
    """
    w = g - d + r
    return tuple(a - 1 - min(w, max(0, -((x + 1 - a) // (r + 1)))) for x in range(r + 1))


#: The most components a chain is built with; each takes about 1 KB, and the
#: bound is checked before any is allocated.
MAX_COMPONENTS = 10_000


def build_chain(g: int, k: int, r: int, d: int) -> ChainSeries:
    """Assemble the full chain of g components with complementary gluing.

    Requires k >= r+2, d <= g-1, rho(g, r, d) >= 0 and g <= MAX_COMPONENTS.
    The outgoing sequence of each component is the complement of the next
    incoming one; for the final component the (virtual) next incoming
    sequence zeroes the remaining weight budget, which always lands on the
    zero sequence.
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
    if g > MAX_COMPONENTS:
        raise DomainError(
            f"a chain has at most {MAX_COMPONENTS} components, got g={g}", code="bad_genus"
        )
    components = []
    rho_elliptic = rho(1, r, d)
    incoming = [RamificationSequence(_incoming(g, r, d, a)) for a in range(1, g + 2)]
    for a in range(1, g + 1):
        alpha_in = incoming[a - 1]
        alpha_out = _complement(r, d, incoming[a].alphas)
        adjusted = rho_elliptic - alpha_in.weight - alpha_out.weight
        components.append(ChainComponent(a, alpha_in, alpha_out, adjusted))
    return ChainSeries(g, k, r, d, tuple(components))


@value_class
class ChainReport:
    def __init__(
        self,
        ok: bool,
        failures: tuple[str, ...],
        total_adjusted: int,
        expected_total: int,
        notes: tuple[str, ...] = (LAST_RANGE_NOTE, TORSION_NOTE),
    ):
        set_attr(self, "ok", ok)
        set_attr(self, "failures", failures)
        set_attr(self, "total_adjusted", total_adjusted)
        set_attr(self, "expected_total", expected_total)
        set_attr(self, "notes", notes)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "total_adjusted": self.total_adjusted,
            "expected_total": self.expected_total,
            "notes": list(self.notes),
        }


def verify_chain(chain: ChainSeries) -> ChainReport:
    """Check the numbering 1..g, complementarity, the 0/1 adjusted pattern and the total."""
    g, r, d = chain.g, chain.r, chain.d
    failures: list[str] = []
    if [comp.a for comp in chain.components] != list(range(1, g + 1)):
        failures.append(f"components are not numbered 1..{g}")
    zero_range = (r + 1) * (g - d + r)
    rho_elliptic = rho(1, r, d)
    for comp in chain.components:
        try:
            comp.alpha_in.validate(r, d)
            comp.alpha_out.validate(r, d)
        except DomainError as exc:
            failures.append(f"component {comp.a}: {exc}")
            continue
        expected = rho_elliptic - comp.alpha_in.weight - comp.alpha_out.weight
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
