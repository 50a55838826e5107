"""Minimal static SVG emission for line plots and heatmaps.

Deliberately tiny: these files exist so experiment outputs can be eyeballed
without a plotting stack.  Values are formatted with repr so identical
inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

from blockspectra import fileio

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 30, 50

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

# Discrete 6-step scale from light to dark; bucket k covers [k/6, (k+1)/6).
HEAT_COLORS = ("#f7fbff", "#d0e1f2", "#94c4df", "#4a98c9", "#1764ab", "#08306b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _axis_ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def line_plot_svg(path, series, title="", x_label="", y_label="", log_y=False) -> None:
    """Polyline plot of (label, xs, ys) triples; log_y plots log10 of y."""
    pts = []
    for _, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if log_y:
            keep = ys > 0
            xs, ys = xs[keep], np.log10(ys[keep])
        if xs.size:
            pts.append((xs, ys))
    if not pts:
        raise ValueError("nothing to plot")
    x_lo = min(float(x.min()) for x, _ in pts)
    x_hi = max(float(x.max()) for x, _ in pts)
    y_lo = min(float(y.min()) for _, y in pts)
    y_hi = max(float(y.max()) for _, y in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # axes
    out.append(
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{HEIGHT - MARGIN_B}" stroke="black"/>'
    )
    for tx in _axis_ticks(x_lo, x_hi):
        out.append(
            f'<text x="{_fmt(sx(tx))}" y="{HEIGHT - MARGIN_B + 16}" text-anchor="middle" '
            f'font-size="10">{_fmt(tx)}</text>'
        )
    for ty in _axis_ticks(y_lo, y_hi):
        label = f"1e{_fmt(ty)}" if log_y else _fmt(ty)
        out.append(
            f'<text x="{MARGIN_L - 6}" y="{_fmt(sy(ty) + 3)}" text-anchor="end" font-size="10">{label}</text>'
        )
    out.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" font-size="12">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT / 2})">{y_label}</text>'
    )
    for k, ((label, _, _), (xs, ys)) in enumerate(zip(series, pts)):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 14 + 14 * k}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    fileio.write_text(path, "\n".join(out) + "\n")


def heatmap_svg(path, matrix, labels, title="") -> None:
    """Discrete-scale heatmap of a square matrix with row/column labels."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    cell = max(24, min(64, 360 // max(n, 1)))
    x0, y0 = 110, 60
    width = x0 + n * cell + 30
    height = y0 + n * cell + 40
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo if hi > lo else 1.0
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for i in range(n):
        for j in range(n):
            frac = (m[i, j] - lo) / span
            bucket = min(int(frac * len(HEAT_COLORS)), len(HEAT_COLORS) - 1)
            out.append(
                f'<rect x="{x0 + j * cell}" y="{y0 + i * cell}" width="{cell}" height="{cell}" '
                f'fill="{HEAT_COLORS[bucket]}" stroke="#cccccc"/>'
            )
            if cell >= 30:
                out.append(
                    f'<text x="{x0 + j * cell + cell / 2}" y="{y0 + i * cell + cell / 2 + 3}" '
                    f'text-anchor="middle" font-size="9">{m[i, j]:.2f}</text>'
                )
    for i, label in enumerate(labels):
        out.append(
            f'<text x="{x0 - 6}" y="{y0 + i * cell + cell / 2 + 3}" text-anchor="end" '
            f'font-size="10">{label}</text>'
        )
        out.append(
            f'<text x="{x0 + i * cell + cell / 2}" y="{y0 - 8}" text-anchor="middle" '
            f'font-size="10">{label}</text>'
        )
    out.append("</svg>")
    fileio.write_text(path, "\n".join(out) + "\n")


def density_overlay_svg(path, densities, labels, title="eigenvalue densities") -> None:
    series = [
        (label, d.grid, np.maximum(d.values, 1e-300))
        for label, d in zip(labels, densities)
    ]
    line_plot_svg(path, series, title=title, x_label="eigenvalue", y_label="density", log_y=False)
