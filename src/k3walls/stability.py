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


def _fraction(x) -> Fraction:
    """x as a Fraction, built only when x is not one already."""
    return x if type(x) is Fraction else Fraction(x)


@value_class
class StabilityParams:
    """Surface data together with the slice parameter eps > 0, an int (not a bool) or Fraction.

    With H_eps = E + eps*H and eps = a/b in lowest terms, construction also
    sets four plain integer attributes, which are not fields (equality,
    hashing and repr see surface and eps alone): scale = b^2, and scale times

    - h_eps_square_scaled: (E + eps*H)^2 = 2*eps*k + eps^2*(2g-2);
    - h_dot_h_eps_scaled: H.H_eps = k + eps*(2g-2);
    - e_dot_h_eps_scaled: E.H_eps = eps*k.
    """

    def __init__(self, surface: SurfaceParams, eps: Fraction):
        if not (type(eps) is int or isinstance(eps, Fraction)):
            raise DomainError(f"eps must be an int or a Fraction, got {eps!r}", code="bad_eps")
        eps = _fraction(eps)
        if eps <= 0:
            raise DomainError(f"eps must be positive, got {eps}", code="bad_eps")
        a, b = eps.numerator, eps.denominator
        g, k = surface.g, surface.k
        set_attr(self, "surface", surface)
        set_attr(self, "eps", eps)
        set_attr(self, "scale", b * b)
        set_attr(self, "h_eps_square_scaled", 2 * a * b * k + a * a * (2 * g - 2))
        set_attr(self, "h_dot_h_eps_scaled", b * (b * k + a * (2 * g - 2)))
        set_attr(self, "e_dot_h_eps_scaled", a * b * k)

    def pic_dot_h_eps_scaled(self, x: int, y: int) -> int:
        """scale * (x*H + y*E).H_eps, an integer."""
        return x * self.h_dot_h_eps_scaled + y * self.e_dot_h_eps_scaled

    def pic_dot_h_eps(self, x: int, y: int) -> Fraction:
        """(x*H + y*E).H_eps."""
        return Fraction(self.pic_dot_h_eps_scaled(x, y), self.scale)


@value_class
class StabilityPoint:
    """A point (b, w) of the stability plane; construction makes b and w Fractions."""

    def __init__(self, b: Fraction, w: Fraction):
        set_attr(self, "b", _fraction(b))
        set_attr(self, "w", _fraction(w))


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


def _charge_numerators(sp: StabilityParams, pt: StabilityPoint, v: MukaiVector) -> tuple[int, int]:
    """Integers (re_n, im_n) with Re Z = re_n/(wd*scale) and Im Z = im_n/(bd*scale).

    Here w = wn/wd and b = bn/bd in lowest terms, so with H_eps^2 = A/scale,
    Re = -ch2 + w*ch0*A/scale and Im = ch1.H_eps - b*ch0*A/scale.
    """
    a, w, b = sp.h_eps_square_scaled, pt.w, pt.b
    re_n = w.numerator * v.r * a - (v.s - v.r) * w.denominator * sp.scale
    im_n = sp.pic_dot_h_eps_scaled(v.x, v.y) * b.denominator - b.numerator * v.r * a
    return re_n, im_n


def central_charge(sp: StabilityParams, pt: StabilityPoint, v: MukaiVector) -> tuple[Fraction, Fraction]:
    """(Re Z, Im Z) at (b, w): Re = -ch2 + w*ch0*H_eps^2, Im = ch1.H_eps - b*ch0*H_eps^2."""
    re_n, im_n = _charge_numerators(sp, pt, v)
    return Fraction(re_n, pt.w.denominator * sp.scale), Fraction(im_n, pt.b.denominator * sp.scale)


def slope(sp: StabilityParams, pt: StabilityPoint, v: MukaiVector) -> Slope:
    """-Re/Im when Im is nonzero, +infinity when Im vanishes.

    From _charge_numerators, -Re/Im = -re_n*bd/(wd*im_n).
    """
    re_n, im_n = _charge_numerators(sp, pt, v)
    if im_n == 0:
        return INFINITE_SLOPE
    return Fraction(-re_n * pt.b.denominator, pt.w.denominator * im_n)


def projection(sp: StabilityParams, v: MukaiVector) -> tuple[Fraction, Fraction]:
    """Projection (H_eps.ch1/(H_eps^2*ch0), ch2/(H_eps^2*ch0)) of a ranked class."""
    if v.r == 0:
        raise DomainError("projection undefined for rank 0", code="rank_zero_projection")
    denom = sp.h_eps_square_scaled * v.r
    return Fraction(sp.pic_dot_h_eps_scaled(v.x, v.y), denom), Fraction(v.ch2 * sp.scale, denom)


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

    On b = 0 a class has the reduced invariants (ch0, ch1.H_eps, ch2).  They
    are taken with ch1.H_eps times scale, an integer; that scales the middle
    entry of both triples alike, which keeps proportionality, and
    w = scale*(im1*c2 - im2*c1) / (h_eps_square_scaled*(r2*im1 - r1*im2)).
    """
    t1 = (v1.r, sp.pic_dot_h_eps_scaled(v1.x, v1.y), v1.s - v1.r)
    t2 = (v2.r, sp.pic_dot_h_eps_scaled(v2.x, v2.y), v2.s - v2.r)
    if _proportional(t1, t2):
        raise DomainError("proportional classes have no wall", code="proportional_classes")
    r1, im1, c1 = t1
    r2, im2, c2 = t2
    if im1 == 0 or im2 == 0:
        return WallPoint(w=Fraction(0), destabilizer=v2, kind=KIND_ORIGIN_RAY)
    denom = r2 * im1 - r1 * im2
    if denom == 0:
        # parallel slope functions that never meet (equal rank ratio, offset values)
        raise DomainError("no intersection on ray", code="no_intersection_on_ray")
    w = Fraction(sp.scale * (im1 * c2 - im2 * c1), sp.h_eps_square_scaled * denom)
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


def two_value_violations(sp: StabilityParams, m: int) -> list[tuple[int, int, int, int]]:
    """Every class violating the two-value constraint on t, as (t, q, rs_min, rs_max).

    A Chern character (r, t*H + q*E, s) violates it when t is neither 0 nor
    1, -rs <= m, its discriminant c1^2 - 2rs is at least -2, and
    D = (tH+qE).H_eps lies in [0, H.H_eps].  The hits of one (t, q) are
    those with rs_min <= rs <= rs_max, where rs_min = -m and
    rs_max = c1^2/2 + 1 (c1^2 is even); a (t, q) is listed when that range
    is not empty, that is when c1^2 >= -2m - 2.  Ordered by t, then q.

    The list is finite and complete.  Solving D for q gives
    c1^2 = -t^2(2g-2) - 2t^2*k/eps + 2t*D/eps.  For t >= 2, D <= H.H_eps
    bounds it by -(2g-2)t(t-2) - 2k*t(t-1)/eps; for t <= -1, D >= 0 bounds
    it by -2k*t^2/eps.  Either way a hit needs |t|(|t|-1) <= (m+1)*eps/k.
    For each such t the band leaves a finite range of q.  Below
    eps_m = k/(2g+m-1) the bound leaves |t| <= 1, and t = -1 gives
    c1^2 < -2m - 2, so the list is empty there.
    """
    g, k = sp.surface.g, sp.surface.k
    # integer form of the t bound, with eps = a/b: |t|(|t|-1)*k*b <= (m+1)*a; and of
    # the band, scaled by sp.scale: 0 <= base + step*q <= band_hi, increasing in q
    a, b = sp.eps.numerator, sp.eps.denominator
    band_hi, step = sp.h_dot_h_eps_scaled, sp.e_dot_h_eps_scaled
    ts = [-1]
    n = 2
    while n * (n - 1) * k * b <= (m + 1) * a:
        ts += [-n, n]
        n += 1
    violations = []
    for t in sorted(ts):
        base = sp.pic_dot_h_eps_scaled(t, 0)
        for q in range(-(base // step), (band_hi - base) // step + 1):  # ceil(-base/step) up
            rs_max = t * t * (g - 1) + t * q * k + 1  # c1^2/2 + 1
            if rs_max >= -m:
                violations.append((t, q, -m, rs_max))
    return violations
