"""Minimal self-contained SVG line charts, no plotting dependency."""

from __future__ import annotations

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_WIDTH, _HEIGHT = 640, 420
_MARGIN = {"left": 60, "right": 150, "top": 30, "bottom": 45}


def render_line_chart(xs, series: dict[str, list[float]], title: str = "") -> str:
    """Render named series over a shared x axis, labelled p, as an SVG document."""
    xs = list(xs)
    if not xs or not series:
        raise ValueError("need at least one x value and one series")
    plot_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    plot_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]
    x_lo, x_hi = min(xs), max(xs)
    ys_all = [y for ys in series.values() for y in ys]
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN["top"] + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    axis_y = _MARGIN["top"] + plot_h
    parts.append(
        f'<line x1="{_MARGIN["left"]}" y1="{axis_y}" x2="{_MARGIN["left"] + plot_w}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN["left"]}" y1="{_MARGIN["top"]}" x2="{_MARGIN["left"]}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    for t in range(5):
        fx = x_lo + t / 4 * (x_hi - x_lo)
        px = sx(fx)
        parts.append(f'<line x1="{px:.1f}" y1="{axis_y}" x2="{px:.1f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{axis_y + 18}" text-anchor="middle">{fx:.2g}</text>'
        )
        fy = y_lo + t / 4 * (y_hi - y_lo)
        py = sy(fy)
        parts.append(
            f'<line x1="{_MARGIN["left"] - 5}" y1="{py:.1f}" x2="{_MARGIN["left"]}" y2="{py:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN["left"] - 8}" y="{py + 4:.1f}" text-anchor="end">{fy:.3g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN["left"] + plot_w / 2:.1f}" y="{_HEIGHT - 8}" '
        'text-anchor="middle">p</text>'
    )
    for idx, (name, ys) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = _MARGIN["top"] + 14 * idx + 10
        lx = _MARGIN["left"] + plot_w + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{lx + 22}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
