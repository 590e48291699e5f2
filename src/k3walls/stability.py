"""Central charges, slopes, projections and walls on the central ray b = 0.

The polarization is E + eps*H for a positive rational eps.  All computations
are exact rationals; the slope value +infinity (vanishing imaginary part) is
the genuine float infinity, never a sentinel rational.  Walls are only ever
reported on the central ray, as points (0, w) with w >= 0.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import set_attr, value_class
from .errors import DomainError
from .jsonio import frac_str
from .lattice import MukaiVector, SurfaceParams, check_special_shape

#: Slope of classes with vanishing imaginary part.
INFINITE_SLOPE = float("inf")

Slope = Fraction | float

KIND_LINE_BUNDLE = "line_bundle"
KIND_RANK_ZERO = "rank_zero"
KIND_ORIGIN_RAY = "origin_ray"


def _positive_eps(eps) -> Fraction:
    """eps as a Fraction; it must be a positive int (not a bool) or Fraction."""
    if not (type(eps) is int or isinstance(eps, Fraction)):
        raise DomainError(f"eps must be an int or a Fraction, got {eps!r}", code="bad_eps")
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}", code="bad_eps")
    return eps


@value_class
class StabilityParams:
    """Surface data together with the slice parameter eps > 0.

    With H_eps = E + eps*H, construction also sets three plain attributes,
    which are not fields (equality, hashing and repr see surface and eps
    alone):

    - h_eps_square = (E + eps*H)^2 = 2*eps*k + eps^2*(2g-2);
    - h_dot_h_eps = H.H_eps = k + eps*(2g-2);
    - e_dot_h_eps = E.H_eps = eps*k.
    """

    def __init__(self, surface: SurfaceParams, eps: Fraction):
        eps = _positive_eps(eps)
        g, k = surface.g, surface.k
        set_attr(self, "surface", surface)
        set_attr(self, "eps", eps)
        set_attr(self, "h_eps_square", 2 * eps * k + eps * eps * (2 * g - 2))
        set_attr(self, "h_dot_h_eps", k + eps * (2 * g - 2))
        set_attr(self, "e_dot_h_eps", eps * k)

    def pic_dot_h_eps(self, x: int, y: int) -> Fraction:
        """(x*H + y*E).H_eps."""
        return x * self.h_dot_h_eps + y * self.e_dot_h_eps


@value_class
class StabilityPoint:
    """A point (b, w) of the stability plane; construction makes b and w Fractions."""

    def __init__(self, b: Fraction, w: Fraction):
        set_attr(self, "b", Fraction(b))
        set_attr(self, "w", Fraction(w))


@value_class
class WallPoint:
    """A wall position w >= 0 on the ray b = 0.

    ``kind`` records the destabilizer shape: a pencil power (1, e*E, 1), a
    rank-zero class, or the degenerate ray through the origin cut out by a
    class with vanishing imaginary part.
    """

    def __init__(self, w: Fraction, destabilizer: MukaiVector, kind: str, e: int | None = None):
        set_attr(self, "w", w)
        set_attr(self, "destabilizer", destabilizer)
        set_attr(self, "kind", kind)
        set_attr(self, "e", e)

    def to_dict(self) -> dict:
        d = {"w": frac_str(self.w), "destabilizer": self.destabilizer.to_dict(), "kind": self.kind}
        if self.e is not None:
            d["e"] = self.e
        return d


def central_charge(sp: StabilityParams, pt: StabilityPoint, v: MukaiVector) -> tuple[Fraction, Fraction]:
    """(Re Z, Im Z) at (b, w): Re = -ch2 + w*ch0*H_eps^2, Im = ch1.H_eps - b*ch0*H_eps^2."""
    a = sp.h_eps_square
    re = -v.ch2 + pt.w * v.r * a
    im = sp.pic_dot_h_eps(v.x, v.y) - pt.b * v.r * a
    return re, im


def slope(sp: StabilityParams, pt: StabilityPoint, v: MukaiVector) -> Slope:
    """-Re/Im when Im is nonzero, +infinity when Im vanishes."""
    re, im = central_charge(sp, pt, v)
    if im == 0:
        return INFINITE_SLOPE
    return -re / im


def projection(sp: StabilityParams, v: MukaiVector) -> tuple[Fraction, Fraction]:
    """Projection (H_eps.ch1/(H_eps^2*ch0), ch2/(H_eps^2*ch0)) of a ranked class."""
    if v.r == 0:
        raise DomainError("projection undefined for rank 0", code="rank_zero_projection")
    denom = sp.h_eps_square * v.r
    return sp.pic_dot_h_eps(v.x, v.y) / denom, Fraction(v.ch2) / denom


def _axis_invariants(sp: StabilityParams, v: MukaiVector) -> tuple[int, Fraction, int]:
    """Reduced invariants (ch0, ch1.H_eps, ch2) governing slopes on b = 0."""
    return v.r, sp.pic_dot_h_eps(v.x, v.y), v.ch2


def _proportional(t1, t2) -> bool:
    a1, b1, c1 = t1
    a2, b2, c2 = t2
    return a1 * b2 == a2 * b1 and a1 * c2 == a2 * c1 and b1 * c2 == b2 * c1


def _wall_kind(v: MukaiVector) -> tuple[str, int | None]:
    """Shape of a destabilizer whose imaginary part on b = 0 is nonzero."""
    if v.r == 0:
        return KIND_RANK_ZERO, None
    if (v.r, v.x, v.s) == (1, 0, 1) and v.y >= 0:
        return KIND_LINE_BUNDLE, v.y
    return KIND_LINE_BUNDLE, None


def wall_on_axis(sp: StabilityParams, v1: MukaiVector, v2: MukaiVector) -> WallPoint:
    """The unique w >= 0 on b = 0 where the two slopes agree.

    Classes with vanishing imaginary part produce the degenerate wall at
    w = 0 of kind origin_ray.  Proportional reduced invariants, or a crossing
    below the ray, are errors.
    """
    t1 = _axis_invariants(sp, v1)
    t2 = _axis_invariants(sp, v2)
    if _proportional(t1, t2):
        raise DomainError("proportional classes have no wall", code="proportional_classes")
    r1, im1, c1 = t1
    r2, im2, c2 = t2
    if im1 == 0 or im2 == 0:
        return WallPoint(w=Fraction(0), destabilizer=v2, kind=KIND_ORIGIN_RAY)
    numer = im1 * c2 - im2 * c1
    denom = sp.h_eps_square * (r2 * im1 - r1 * im2)
    if denom == 0:
        # parallel slope functions that never meet (equal rank ratio, offset values)
        raise DomainError("no intersection on ray", code="no_intersection_on_ray")
    w = numer / denom
    if w < 0:
        raise DomainError("no intersection on ray", code="no_intersection_on_ray")
    kind, e = _wall_kind(v2)
    return WallPoint(w=w, destabilizer=v2, kind=kind, e=e)


def epsilon_threshold(params: SurfaceParams, m: int) -> Fraction:
    """eps_m = E.H/(H^2 + m + 1) = k/(2g + m - 1)."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}", code="bad_threshold_index")
    return Fraction(params.k, 2 * params.g + m - 1)


def nowall_threshold(params: SurfaceParams) -> Fraction:
    """Below k/(g+1), rank-zero classes supported on the pencil see no wall above the parabola."""
    return Fraction(params.k, params.g + 1)


def default_epsilon(params: SurfaceParams, v: MukaiVector) -> Fraction:
    """Heuristic slice parameter for a vector of shape (r0, H - a0*E, s0 + r0).

    Half the smaller of eps_M (with M the squared half-self-intersection of
    H - a0*E) and the no-wall threshold.  Sufficient for the wall sequences
    exercised here; not claimed minimal.
    """
    check_special_shape(v)
    a0 = -v.y
    m = (params.g - 1 - a0 * params.k) ** 2
    return min(epsilon_threshold(params, m), nowall_threshold(params)) / 2


def lemma_key_scan(
    params: SurfaceParams, m: int, eps: Fraction, box: int = 12
) -> list[tuple[int, int, int, int]]:
    """Search for Chern characters violating the two-value constraint on t.

    Looks for (r, t*H + q*E, s) with |r|,|t|,|q|,|s| <= box, -rs <= m,
    0 <= (tH+qE).H_eps <= H.H_eps and discriminant >= -2, whose H-coefficient
    t lies outside {0, 1}.  The band is linear in q, so for each t only the
    q of the band's interval, cut to [-box, box], are visited.  For eps below
    eps_m no such class should exist; any hits are returned for inspection,
    ordered by t, then q, r and s.
    """
    eps = _positive_eps(eps)
    g, k = params.g, params.k
    # integer form of the band 0 <= (tH+qE).H_eps <= H.H_eps, scaled by denominator(eps):
    # 0 <= base + a*k*q <= band_hi, increasing in q since a, k > 0
    a, b = eps.numerator, eps.denominator
    band_hi = b * k + a * (2 * g - 2)
    step = a * k
    violations = []
    for t in range(-box, box + 1):
        if t in (0, 1):
            continue
        d_no_q = t * t * (2 * g - 2)
        base = b * t * k + a * t * (2 * g - 2)
        q_lo = max(-box, -(base // step))  # ceil(-base/step)
        q_hi = min(box, (band_hi - base) // step)
        for q in range(q_lo, q_hi + 1):
            c1sq = d_no_q + 2 * t * q * k
            # any hit needs rs in [-m, (c1^2+2)/2]; an empty interval rules the
            # whole (r, s) square out, so only then is the inner loop skipped
            hi2 = c1sq + 2  # 2*rs <= hi2
            if hi2 < -2 * m:
                continue
            for r in range(-box, box + 1):
                for s in range(-box, box + 1):
                    rs = r * s
                    if -rs <= m and c1sq - 2 * rs >= -2:
                        violations.append((r, t, q, s))
    return violations
