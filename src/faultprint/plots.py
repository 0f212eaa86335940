"""Hand-rolled SVG bar charts for counterfactual fingerprints.

Plain string assembly instead of a plotting library keeps the files
deterministic (no timestamps or version metadata) and text-diffable.
"""

from __future__ import annotations

from html import escape
from typing import Optional, Sequence

_BAR_W = 28
_BAR_GAP = 10
_PLOT_H = 220
_MARGIN_L = 46
_MARGIN_TOP = 16
_LABEL_H = 34


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f"<title>{title}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def bar_chart_svg(
    labels: Sequence[str],
    values: Sequence[float],
    title: str,
    highlight: Optional[int] = None,
    y_limit: Optional[float] = None,
) -> str:
    """Vertical bar chart; bars below zero hang from the axis.

    Labels and the title are escaped as XML text, so a label such as ``T&P``
    keeps the markup well-formed.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    title = escape(title, quote=False)
    n = len(values)
    top = max((abs(float(v)) for v in values), default=0.0)
    span = y_limit if y_limit is not None else max(top, 1e-12)
    width = _MARGIN_L + n * (_BAR_W + _BAR_GAP) + _BAR_GAP
    height = _MARGIN_TOP + _PLOT_H + _LABEL_H
    zero_y = _MARGIN_TOP + _PLOT_H / 2
    scale = (_PLOT_H / 2 - 4) / span

    parts = _svg_header(width, height, title)
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{zero_y}" x2="{width - 4}" y2="{zero_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for tick in (-span, span):
        ty = zero_y - tick * scale
        parts.append(
            f'<text x="4" y="{ty + 4:.1f}">{tick:+.2g}</text>'
        )
    for i, (label, value) in enumerate(zip(labels, values)):
        x = _MARGIN_L + _BAR_GAP + i * (_BAR_W + _BAR_GAP)
        h = abs(float(value)) * scale
        y = zero_y - h if value >= 0 else zero_y
        fill = "#c23b22" if i == highlight else "#4878a8"
        parts.append(
            f'<rect x="{x}" y="{y:.2f}" width="{_BAR_W}" height="{max(h, 0.5):.2f}" '
            f'fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{x + _BAR_W / 2}" y="{height - 14}" text-anchor="middle">'
            f"{escape(label, quote=False)}</text>"
        )
    parts.append(f'<text x="{_MARGIN_L}" y="{_MARGIN_TOP - 4}">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
