"""Minimal deterministic SVG line charts.

Hand-rolled so that identical curve data always yields identical bytes:
fixed layout, fixed number formatting, no timestamps, no external
renderer.
"""

from __future__ import annotations

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

PANEL_W = 240
PANEL_H = 170
MARGIN_L = 46
MARGIN_R = 12
MARGIN_T = 30
MARGIN_B = 34
TITLE_H = 28
LEGEND_H = 22


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def line_chart_grid(
    title: str,
    panels: list[tuple[str, list[tuple[str, list[tuple[float, float]]]]]],
) -> str:
    """One row of panels; each panel holds labelled series of (epoch,
    DSC%) points.  Series colors follow label order, shared across panels."""
    labels: list[str] = []
    for _, series in panels:
        for label, _ in series:
            if label not in labels:
                labels.append(label)
    color = {label: PALETTE[i % len(PALETTE)] for i, label in enumerate(labels)}

    xs = [x for _, series in panels for _, pts in series for x, _ in pts]
    x_min, x_max = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_min == x_max:
        x_max = x_min + 1.0
    y_min, y_max = 0.0, 100.0  # DSC%

    total_w = MARGIN_L + len(panels) * (PANEL_W + MARGIN_R)
    total_h = TITLE_H + PANEL_H + MARGIN_T + MARGIN_B + LEGEND_H
    top = TITLE_H + MARGIN_T
    x_span = x_max - x_min
    y_span = y_max - y_min

    def sy(y: float) -> float:
        return top + (1.0 - (y - y_min) / y_span) * PANEL_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}" font-family="sans-serif" font-size="11">',
        f'<text x="{total_w / 2:.1f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]

    # the gridlines and tick labels of every panel, formatted once per chart;
    # a panel's x coordinate is its left edge plus an offset
    x_tick_step = max(1, int(round((x_max - x_min) / 5)))
    x_ticks = [x_min + i * x_tick_step for i in range(int((x_max - x_min) / x_tick_step) + 1)]
    x_grid = [((xt - x_min) / x_span * PANEL_W, f"{xt:g}") for xt in x_ticks]
    y_ticks = [y_min + i * (y_max - y_min) / 4 for i in range(5)]
    y_grid = [(_fmt(sy(yt)), _fmt(sy(yt) + 3), f"{yt:g}") for yt in y_ticks]

    for p, (panel_title, series) in enumerate(panels):
        left = MARGIN_L + p * (PANEL_W + MARGIN_R)
        parts.append(
            f'<rect x="{left}" y="{top}" width="{PANEL_W}" height="{PANEL_H}" '
            'fill="none" stroke="#888888" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left + PANEL_W / 2:.1f}" y="{top - 8}" text-anchor="middle">{panel_title}</text>'
        )
        for y, label_y, text in y_grid:
            parts.append(
                f'<line x1="{left}" y1="{y}" x2="{left + PANEL_W}" y2="{y}" '
                'stroke="#dddddd" stroke-width="0.5"/>'
            )
            if p == 0:
                parts.append(f'<text x="{left - 6}" y="{label_y}" text-anchor="end">{text}</text>')
        for offset, text in x_grid:
            parts.append(
                f'<text x="{left + offset:.2f}" y="{top + PANEL_H + 14}" text-anchor="middle">{text}</text>'
            )
        parts.append(
            f'<text x="{left + PANEL_W / 2:.1f}" y="{top + PANEL_H + 28}" text-anchor="middle">epoch</text>'
        )
        for label, pts in series:
            if not pts:
                continue
            # the tick offset's and sy's arithmetic written out, operation for operation
            coords = " ".join(
                f"{left + (x - x_min) / x_span * PANEL_W:.2f},{top + (1.0 - (y - y_min) / y_span) * PANEL_H:.2f}"
                for x, y in pts
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color[label]}" stroke-width="1.5"/>'
            )

    parts.append(
        f'<text x="14" y="{TITLE_H + MARGIN_T + PANEL_H / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {TITLE_H + MARGIN_T + PANEL_H / 2:.1f})">DSC%</text>'
    )

    lx = MARGIN_L
    ly = TITLE_H + MARGIN_T + PANEL_H + MARGIN_B + 8
    for label in labels:
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color[label]}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 22}" y="{ly}">{label}</text>')
        lx += 30 + 8 * len(label)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
