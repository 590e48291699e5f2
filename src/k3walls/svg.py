"""Static SVG diagrams of the central-ray wall structure.

The picture lives in the (b, w) plane: the parabola 2w = b^2 bounding the
good region, one line per requested wall, and the projection point of the
vector when it has nonzero rank.  Geometry is computed with exact rationals
and rendered at 12 significant decimal digits; the parabola is a single
quadratic Bezier, which is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .lattice import MukaiVector
from .stability import StabilityParams, WallPoint, projection

WIDTH = 640
HEIGHT = 480


def fmt12(value) -> str:
    """Render a rational at 12 significant decimal digits.

    A coordinate beyond the float range means the viewport is too narrow for
    what it shows, which is bad input rather than a crash.
    """
    try:
        return f"{float(value):.12g}"
    except OverflowError as exc:
        raise DomainError("a coordinate overflows this viewport", code="bad_viewport") from exc


class _Canvas:
    def __init__(self, viewport):
        bmin, bmax, wmin, wmax = (Fraction(v) for v in viewport)
        if bmax <= bmin or wmax <= wmin:
            raise DomainError(f"degenerate viewport {viewport}", code="bad_viewport")
        self.bmin, self.bmax, self.wmin, self.wmax = bmin, bmax, wmin, wmax

    def px(self, b: Fraction) -> Fraction:
        return (Fraction(b) - self.bmin) / (self.bmax - self.bmin) * WIDTH

    def py(self, w: Fraction) -> Fraction:
        return (self.wmax - Fraction(w)) / (self.wmax - self.wmin) * HEIGHT

    def xy(self, b, w) -> tuple[str, str]:
        return fmt12(self.px(b)), fmt12(self.py(w))

    def point(self, b, w) -> str:
        return ",".join(self.xy(b, w))


def _parabola(canvas: _Canvas) -> str:
    # a quadratic Bezier whose control point sits at (midpoint, bmin*bmax/2)
    # traces w = b^2/2 exactly
    b0, b1 = canvas.bmin, canvas.bmax
    start = canvas.point(b0, b0 * b0 / 2)
    ctrl = canvas.point((b0 + b1) / 2, b0 * b1 / 2)
    end = canvas.point(b1, b1 * b1 / 2)
    return (
        f'<path class="parabola" d="M {start} Q {ctrl} {end}" '
        'fill="none" stroke="#444444" stroke-width="1.5"/>'
    )


def _axes(canvas: _Canvas) -> list[str]:
    parts = []
    if canvas.bmin <= 0 <= canvas.bmax:
        x = fmt12(canvas.px(0))
        parts.append(
            f'<line class="axis" x1="{x}" y1="0" x2="{x}" y2="{HEIGHT}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
    if canvas.wmin <= 0 <= canvas.wmax:
        y = fmt12(canvas.py(0))
        parts.append(
            f'<line class="axis" x1="0" y1="{y}" x2="{WIDTH}" y2="{y}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
    return parts


def _line_through(canvas: _Canvas, b0: Fraction, w0: Fraction, slope_value: Fraction) -> str:
    x1, y1 = canvas.xy(canvas.bmin, w0 + slope_value * (canvas.bmin - b0))
    x2, y2 = canvas.xy(canvas.bmax, w0 + slope_value * (canvas.bmax - b0))
    return (
        f'<line class="wall" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        'stroke="#c0392b" stroke-width="1.5"/>'
    )


def _vertical_line(canvas: _Canvas, b0: Fraction) -> str:
    x = fmt12(canvas.px(b0))
    return (
        f'<line class="wall" x1="{x}" y1="0" x2="{x}" y2="{HEIGHT}" '
        'stroke="#c0392b" stroke-width="1.5"/>'
    )


def render_wall_diagram(
    sp: StabilityParams,
    v: MukaiVector,
    walls: list[WallPoint],
    viewport,
) -> tuple[str, list[str]]:
    """Build the SVG document; returns (svg_text, warnings)."""
    canvas = _Canvas(viewport)
    warnings: list[str] = []
    body: list[str] = []
    body.extend(_axes(canvas))
    body.append(_parabola(canvas))

    proj: tuple[Fraction, Fraction] | None = None
    if v.r != 0:
        proj = projection(sp, v)

    im_v = sp.pic_dot_h_eps(v.x, v.y)
    for wall in walls:
        axis_pt = (Fraction(0), Fraction(wall.w))
        if proj is not None:
            if proj[0] == axis_pt[0]:
                if proj[1] == axis_pt[1]:
                    warnings.append(f"wall at w={wall.w} degenerates at the projection point")
                    continue
                body.append(_vertical_line(canvas, proj[0]))
            else:
                slope_value = (axis_pt[1] - proj[1]) / (axis_pt[0] - proj[0])
                body.append(_line_through(canvas, proj[0], proj[1], slope_value))
        else:
            if im_v == 0:
                warnings.append("vector has vanishing imaginary part; no wall line drawn")
                continue
            body.append(_line_through(canvas, axis_pt[0], axis_pt[1], Fraction(v.ch2) / im_v))

    if proj is not None:
        cx, cy = fmt12(canvas.px(proj[0])), fmt12(canvas.py(proj[1]))
        body.append(
            f'<circle class="projection" cx="{cx}" cy="{cy}" r="4" fill="#2e6da4"/>'
        )
    if not walls:
        warnings.append("no walls requested; diagram shows the parabola only")

    svg = "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            *body,
            "</svg>",
        ]
    )
    return svg + "\n", warnings
