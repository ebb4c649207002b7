"""Rendering of benchmark results: CSV tables and small SVG charts.

Everything here is a pure function from result records to text, with all
numbers formatted through fixed format strings, so rendering the same results
twice yields byte-identical artifacts.  The charts are deliberately plain:
a bar chart of mean C-index with standard-error whiskers, and a line chart
of period-stratified improvement.
"""

from __future__ import annotations

from .data_io import csv_text
from .errors import ValidationError

SVG_W, SVG_H = 640, 400
LEFT, RIGHT, TOP = 70, 20, 40  # plot margins; each chart sets its own bottom one
PLOT_W = SVG_W - LEFT - RIGHT


def _fixed(values) -> list:
    """Six-decimal cells; a missing score (None) is an empty cell."""
    return ["" if v is None else f"{v:.6f}" for v in values]


def comparison_csv(rows: list) -> str:
    """Tabulate per-model scores; one line per model, folds spelled out."""
    if not rows:
        raise ValidationError("no rows to tabulate")
    k = len(rows[0]["scores"])
    if any(len(row["scores"]) != k for row in rows):
        raise ValidationError("rows disagree on fold count")
    header = ["label", "model", "mean_c_index", "stderr", *(f"fold_{i + 1}" for i in range(k))]
    label, model, mean, stderr = ([row[key] for row in rows]
                                  for key in ("label", "model", "mean", "stderr"))
    folds = zip(*(row["scores"] for row in rows))
    return csv_text(header, label, model, _fixed(mean), _fixed(stderr), *map(_fixed, folds))


def period_csv(report: dict) -> str:
    """Tabulate a period-stratified improvement report (dict form)."""
    return csv_text(["threshold", "n_records", "mean_diff", "stderr"],
                    _fixed(report["thresholds"]), report["n_records"],
                    _fixed(report["means"]), _fixed(report["stderrs"]))


def _axis(lo: float, hi: float):
    """Padded range plus five tick values."""
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.08 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    ticks = [lo + i * (hi - lo) / 4 for i in range(5)]
    return lo, hi, ticks


def _svg_chart(title: str, ticks: list, y, tick_format: str, plot_h: int, body: list) -> str:
    """A chart's SVG text: the frame (title, gridlines with tick labels in
    tick_format, both axes) around the body elements; y maps a value to its
    height in the drawing."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" height="{SVG_H}" '
        f'viewBox="0 0 {SVG_W} {SVG_H}" font-family="sans-serif">',
        f'<rect width="{SVG_W}" height="{SVG_H}" fill="white"/>',
        f'<text x="{SVG_W / 2:.1f}" y="24" font-size="16" text-anchor="middle">{title}</text>',
    ]
    for t in ticks:
        parts.append(
            f'<line x1="{LEFT}" y1="{y(t):.2f}" x2="{SVG_W - RIGHT}" y2="{y(t):.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{LEFT - 8}" y="{y(t) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{t:{tick_format}}</text>'
        )
    parts += body
    parts.append(
        f'<line x1="{LEFT}" y1="{TOP}" x2="{LEFT}" y2="{TOP + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{LEFT}" y1="{TOP + plot_h}" x2="{SVG_W - RIGHT}" '
        f'y2="{TOP + plot_h}" stroke="black"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_bar_chart(rows: list, title: str = "C-index by model") -> str:
    """Bar chart of mean C-index per model with stderr whiskers."""
    if not rows:
        raise ValidationError("no rows to chart")
    plot_h = SVG_H - TOP - 80
    lo = min(r["mean"] - r["stderr"] for r in rows)
    hi = max(r["mean"] + r["stderr"] for r in rows)
    lo, hi, ticks = _axis(min(lo, 0.5), hi)

    def y(v):
        return TOP + plot_h * (hi - v) / (hi - lo)

    parts = []
    slot = PLOT_W / len(rows)
    bar_w = slot * 0.6
    for i, row in enumerate(rows):
        cx = LEFT + slot * (i + 0.5)
        x0 = cx - bar_w / 2
        parts.append(
            f'<rect x="{x0:.2f}" y="{y(row["mean"]):.2f}" width="{bar_w:.2f}" '
            f'height="{y(lo) - y(row["mean"]):.2f}" fill="#4878a8"/>'
        )
        se = row["stderr"]
        if se > 0:
            y_hi, y_lo = y(row["mean"] + se), y(row["mean"] - se)
            parts.append(
                f'<line x1="{cx:.2f}" y1="{y_hi:.2f}" x2="{cx:.2f}" y2="{y_lo:.2f}" '
                f'stroke="black" stroke-width="1.5"/>'
            )
            for yy in (y_hi, y_lo):
                parts.append(
                    f'<line x1="{cx - 6:.2f}" y1="{yy:.2f}" x2="{cx + 6:.2f}" y2="{yy:.2f}" '
                    f'stroke="black" stroke-width="1.5"/>'
                )
        parts.append(
            f'<text x="{cx:.2f}" y="{y(row["mean"]) - 6:.2f}" font-size="11" '
            f'text-anchor="middle">{row["mean"]:.4f}</text>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{TOP + plot_h + 16}" font-size="11" '
            f'text-anchor="middle" transform="rotate(-25 {cx:.2f} {TOP + plot_h + 16})">'
            f'{row["label"]}</text>'
        )
    return _svg_chart(title, ticks, y, ".2f", plot_h, parts)


def render_period_chart(report: dict, title: str = "Improvement by observation period") -> str:
    """Line chart of mean C-index difference against period threshold."""
    thresholds = report["thresholds"]
    means = report["means"]
    stderrs = report["stderrs"]
    if not thresholds:
        raise ValidationError("report has no period buckets to chart")
    plot_h = SVG_H - TOP - 60
    lo = min(m - s for m, s in zip(means, stderrs))
    hi = max(m + s for m, s in zip(means, stderrs))
    lo, hi, ticks = _axis(min(lo, 0.0), max(hi, 0.0))
    x_lo, x_hi = min(thresholds), max(thresholds)
    span = (x_hi - x_lo) or 1.0

    def x(v):
        return LEFT + PLOT_W * (v - x_lo) / span

    def y(v):
        return TOP + plot_h * (hi - v) / (hi - lo)

    parts = [
        f'<line x1="{LEFT}" y1="{y(0):.2f}" x2="{SVG_W - RIGHT}" y2="{y(0):.2f}" '
        f'stroke="#888888" stroke-width="1" stroke-dasharray="4 3"/>'
    ]
    points = " ".join(f"{x(t):.2f},{y(m):.2f}" for t, m in zip(thresholds, means))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#b04030" stroke-width="2"/>'
    )
    for t, m, s in zip(thresholds, means, stderrs):
        if s > 0:
            parts.append(
                f'<line x1="{x(t):.2f}" y1="{y(m + s):.2f}" x2="{x(t):.2f}" '
                f'y2="{y(m - s):.2f}" stroke="#b04030" stroke-width="1"/>'
            )
        parts.append(
            f'<circle cx="{x(t):.2f}" cy="{y(m):.2f}" r="3.5" fill="#b04030"/>'
        )
        parts.append(
            f'<text x="{x(t):.2f}" y="{TOP + plot_h + 16}" font-size="11" '
            f'text-anchor="middle">{t:g}</text>'
        )
    return _svg_chart(title, ticks, y, ".3f", plot_h, parts)
