"""Exact integer arithmetic on the rank-2 Picard lattice and its Mukai extension.

The surface data is a pair (g, k): the Picard lattice is Z.H + Z.E with
H^2 = 2g-2, E^2 = 0, H.E = k.  The extended lattice adds a rank slot and a
degree-4 slot, so a vector is an integer 4-tuple (r, x, y, s) standing for
(r, x*H + y*E, s).  The associated Chern character is (r, x*H + y*E, s - r).

Everything here is pure and uses arbitrary-precision integers; no floats.
"""

from __future__ import annotations

from ._value import set_attr, value_class
from .errors import DomainError, OracleViolation


def check_pencil_degree(k: int) -> None:
    """A degree-k pencil needs k >= 2."""
    if k < 2:
        raise DomainError(f"pencil degree must be >= 2, got {k}", code="bad_pencil_degree")


def check_special_shape(v: MukaiVector) -> None:
    """The vectors whose types are studied have shape (r0, H - a0*E, s0 + r0), a0 >= 0."""
    if v.x != 1 or v.y > 0:
        raise DomainError(
            f"expected a vector of shape (r0, H - a0*E, s0 + r0) with a0 >= 0, got {v}",
            code="bad_vector_shape",
        )


@value_class
class SurfaceParams:
    """The pair (g, k) fixing the lattice: H^2 = 2g-2, E^2 = 0, H.E = k.

    Construction also sets h_square = H^2, a plain attribute rather than a
    field.
    """

    def __init__(self, g: int, k: int):
        if g < 3:
            raise DomainError(f"genus must be >= 3, got {g}", code="bad_genus")
        check_pencil_degree(k)
        set_attr(self, "g", g)
        set_attr(self, "k", k)
        set_attr(self, "h_square", 2 * g - 2)


@value_class
class PicClass:
    """A divisor class x*H + y*E in the (H, E) basis."""

    def __init__(self, x: int, y: int):
        set_attr(self, "x", x)
        set_attr(self, "y", y)


@value_class
class MukaiVector:
    """Integer vector (r, x*H + y*E, s) in the extended lattice.

    Chern character: ch0 = r, ch1 = x*H + y*E, ch2 = s - r.
    """

    def __init__(self, r: int, x: int, y: int, s: int):
        set_attr(self, "r", r)
        set_attr(self, "x", x)
        set_attr(self, "y", y)
        set_attr(self, "s", s)

    @property
    def ch2(self) -> int:
        return self.s - self.r

    @property
    def c1(self) -> PicClass:
        return PicClass(self.x, self.y)

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, self.x + other.x, self.y + other.y, self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r, self.x - other.x, self.y - other.y, self.s - other.s)

    def __mul__(self, n: int) -> "MukaiVector":
        return MukaiVector(n * self.r, n * self.x, n * self.y, n * self.s)

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {"r": self.r, "x": self.x, "y": self.y, "s": self.s}


def _intersect(params: SurfaceParams, x: int, y: int, xp: int, yp: int) -> int:
    """(xH+yE).(x'H+y'E) = xx'(2g-2) + (xy'+x'y)k."""
    return x * xp * params.h_square + (x * yp + xp * y) * params.k


def intersection(params: SurfaceParams, c: PicClass, cp: PicClass) -> int:
    """Intersection product (xH+yE).(x'H+y'E) = xx'(2g-2) + (xy'+x'y)k."""
    return _intersect(params, c.x, c.y, cp.x, cp.y)


def mukai_pairing(params: SurfaceParams, v1: MukaiVector, v2: MukaiVector) -> int:
    """Symmetric bilinear form <v1, v2> = c1(v1).c1(v2) - r1*s2 - r2*s1."""
    return _intersect(params, v1.x, v1.y, v2.x, v2.y) - v1.r * v2.s - v2.r * v1.s


def square(params: SurfaceParams, v: MukaiVector) -> int:
    """Self-pairing <v, v>."""
    return mukai_pairing(params, v, v)


def discriminant(params: SurfaceParams, v: MukaiVector) -> int:
    """Discriminant ch1^2 - 2*ch0*ch2; equals <v,v> + 2*r^2."""
    return _intersect(params, v.x, v.y, v.x, v.y) - 2 * v.r * v.ch2


def line_bundle_vector(e: int) -> MukaiVector:
    """The vector (1, e*E, 1) of the e-th power of the elliptic pencil."""
    if e < 0:
        raise DomainError(f"pencil power must be >= 0, got {e}", code="bad_pencil_power")
    return MukaiVector(1, 0, e, 1)


#: Basis in which the Gram matrix is computed: rank, H, E, degree-4 slots.
STANDARD_BASIS = (
    MukaiVector(1, 0, 0, 0),
    MukaiVector(0, 1, 0, 0),
    MukaiVector(0, 0, 1, 0),
    MukaiVector(0, 0, 0, 1),
)


def gram_matrix(params: SurfaceParams) -> list[list[int]]:
    """Gram matrix of the pairing on the standard basis."""
    return [[mukai_pairing(params, a, b) for b in STANDARD_BASIS] for a in STANDARD_BASIS]


def _char_poly(mat: list[list[int]]) -> list[int]:
    """Coefficients [c_0, ..., c_n] of det(t*I - M), c_n = 1, by Faddeev-LeVerrier.

    For an integer matrix every step stays integral: at step i the trace is
    -i*c_{n-i}, and c_{n-i} is a coefficient of a monic integer polynomial.
    """
    n = len(mat)
    coeffs = [1] * (n + 1)  # filled from the top degree down
    a = [row[:] for row in mat]
    for i in range(1, n + 1):
        c, rest = divmod(-sum(a[j][j] for j in range(n)), i)
        if rest:
            raise OracleViolation(f"trace of step {i} is not divisible by {i}")
        coeffs[n - i] = c
        if i < n:
            for j in range(n):
                a[j][j] += c
            a = [[sum(mat[p][q] * a[q][r] for q in range(n)) for r in range(n)] for p in range(n)]
    return coeffs


def gram_signature(params: SurfaceParams) -> tuple[int, int]:
    """Exact signature (positives, negatives) of the Gram matrix.

    Computed from the characteristic polynomial of the symmetric Gram matrix:
    all roots are real, so Descartes' rule counts positive roots exactly from
    the sign alternations of the coefficient sequence.
    """
    coeffs = _char_poly(gram_matrix(params))
    if coeffs[0] == 0:
        raise DomainError("degenerate Gram matrix", code="degenerate_gram")
    signs = [c for c in coeffs if c != 0]
    pos = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    return pos, len(coeffs) - 1 - pos
