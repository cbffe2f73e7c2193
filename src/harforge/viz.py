"""Radar charts comparing one user's activity signature to the group.

Five per-minute metrics are computed as medians over the minutes a user
spent in a given activity (the two pulse ratios against each day's
heart-rate envelope, the grid's per-row ``min_hr`` and ``max_hr``),
normalized to the group's observed range, and drawn as two overlaid
polygons (group median in red, the individual in blue) with an optional
spread band. Output is plain SVG text built with
fixed formatting, so the same inputs always render byte-identical files.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .align import DayGrid
from .core import csv_text, write_text

METRICS = (
    "distance_per_min",
    "steps_per_min",
    "pulse_per_min",
    "pulse_to_min_ratio",
    "pulse_to_max_ratio",
)

BAND_MODES = ("sd", "range")

GROUP_COLOR = "#c0392b"
INDIVIDUAL_COLOR = "#2563eb"

_WIDTH = 460
_HEIGHT = 420
_CX = 230.0
_CY = 205.0
_RADIUS = 140.0

RADAR_INDEX_HEADER = ("user_id", "activity", "file")


@dataclass(frozen=True)
class ActivityMetricSet:
    """Median per-minute metrics for one user in one activity.

    Pulse-derived entries are None when none of the activity minutes had
    a pulse reading (or, for the ratios, no day envelope to divide by).
    """

    user_id: str
    activity: str
    n_minutes: int
    distance_per_min: float
    steps_per_min: float
    pulse_per_min: float | None
    pulse_to_min_ratio: float | None
    pulse_to_max_ratio: float | None

    def value(self, metric: str) -> float | None:
        if metric not in METRICS:
            raise KeyError(metric)
        return getattr(self, metric)


def activity_metrics(
    user_id: str,
    activity: str,
    days: DayGrid,
) -> ActivityMetricSet:
    """Summarize one user's minutes in one activity across their days; the
    pulse ratios divide by each day's envelope (``days.min_hr`` and
    ``max_hr``)."""
    rows = days.user_rows().get(user_id, slice(0, 0))
    picked = days.map_schedule([label == activity for label in days.labels], False, rows)
    if not picked.any():
        raise ValueError(f"user {user_id!r} has no minutes labeled {activity!r}")
    min_hr, max_hr = days.min_hr[rows, None], days.max_hr[rows, None]
    pulse = days.pulse[rows]
    with_pulse = picked & ~np.isnan(pulse)
    with_ratio = with_pulse & ~np.isnan(min_hr)
    pulses = pulse[with_pulse].tolist()
    min_ratios = (pulse / min_hr)[with_ratio].tolist()
    max_ratios = (pulse / max_hr)[with_ratio].tolist()
    return ActivityMetricSet(
        user_id=user_id,
        activity=activity,
        n_minutes=int(picked.sum()),
        distance_per_min=float(statistics.median(days.distance_m[rows][picked].tolist())),
        steps_per_min=float(statistics.median(days.steps[rows][picked].astype(float).tolist())),
        pulse_per_min=float(statistics.median(pulses)) if pulses else None,
        pulse_to_min_ratio=float(statistics.median(min_ratios)) if min_ratios else None,
        pulse_to_max_ratio=float(statistics.median(max_ratios)) if max_ratios else None,
    )


@dataclass(frozen=True)
class MetricBaseline:
    """Group statistics for one metric: median, population SD, min, max."""

    median: float
    sd: float
    lo: float
    hi: float


@dataclass(frozen=True)
class GroupBaseline:
    activity: str
    n_users: int
    metrics: dict[str, MetricBaseline]


def group_baseline(metric_sets: Sequence[ActivityMetricSet], activity: str) -> GroupBaseline:
    """Aggregate per-user metric sets into a group baseline.

    Every metric needs at least two users with a defined value; otherwise
    there is no group to compare against.
    """
    sets = [s for s in metric_sets if s.activity == activity]
    baselines: dict[str, MetricBaseline] = {}
    for metric in METRICS:
        values = [v for s in sets if (v := s.value(metric)) is not None]
        if len(values) < 2:
            raise ValueError(
                f"metric {metric!r} for {activity!r} needs at least 2 users, got {len(values)}"
            )
        baselines[metric] = MetricBaseline(
            median=float(statistics.median(values)),
            sd=float(statistics.pstdev(values)),
            lo=float(min(values)),
            hi=float(max(values)),
        )
    return GroupBaseline(activity=activity, n_users=len(sets), metrics=baselines)


def normalize_radar(value: float, lo: float, hi: float) -> float:
    """Map value to [0, 100] against [lo, hi]; a degenerate range pins to 50."""
    if not (hi > lo):
        return 50.0
    scaled = (value - lo) / (hi - lo) * 100.0
    return min(100.0, max(0.0, scaled))


def _point(angle_index: int, radius_frac: float) -> tuple[float, float]:
    theta = math.radians(-90.0 + 72.0 * angle_index)
    r = _RADIUS * radius_frac
    return _CX + r * math.cos(theta), _CY + r * math.sin(theta)


def _coords(radii_pct: Sequence[float], within: str, between: str) -> str:
    """The chart point of each radius, x and y joined by ``within`` and the
    points by ``between``."""
    points = (_point(k, pct / 100.0) for k, pct in enumerate(radii_pct))
    return between.join(f"{x:.3f}{within}{y:.3f}" for x, y in points)


def render_radar(
    individual: ActivityMetricSet,
    baseline: GroupBaseline,
    *,
    band: str = "sd",
) -> str:
    """Render the comparison chart as standalone SVG text."""
    if band not in BAND_MODES:
        raise ValueError(f"band must be one of {BAND_MODES}, got {band!r}")
    if individual.activity != baseline.activity:
        raise ValueError(
            f"activity mismatch: {individual.activity!r} vs {baseline.activity!r}"
        )

    ind_pct: list[float] = []
    med_pct: list[float] = []
    band_lo_pct: list[float] = []
    band_hi_pct: list[float] = []
    for metric in METRICS:
        value = individual.value(metric)
        if value is None:
            raise ValueError(f"individual metric {metric!r} is undefined, cannot plot")
        b = baseline.metrics[metric]
        ind_pct.append(normalize_radar(value, b.lo, b.hi))
        med_pct.append(normalize_radar(b.median, b.lo, b.hi))
        if band == "sd":
            band_lo_pct.append(normalize_radar(b.median - b.sd, b.lo, b.hi))
            band_hi_pct.append(normalize_radar(b.median + b.sd, b.lo, b.hi))
        else:
            band_lo_pct.append(normalize_radar(b.lo, b.lo, b.hi))
            band_hi_pct.append(normalize_radar(b.hi, b.lo, b.hi))

    lines: list[str] = []
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    lines.append(
        f"<title>{individual.user_id} vs group: {individual.activity}</title>"
    )
    lines.append(
        "<style>"
        ".ring{fill:none;stroke:#d0d0d0;stroke-width:1}"
        ".axis{stroke:#b0b0b0;stroke-width:1}"
        f".band{{fill:{GROUP_COLOR};fill-opacity:0.12;stroke:none}}"
        f".group{{fill:none;stroke:{GROUP_COLOR};stroke-width:2}}"
        f".individual{{fill:{INDIVIDUAL_COLOR};fill-opacity:0.15;"
        f"stroke:{INDIVIDUAL_COLOR};stroke-width:2}}"
        ".label{font:12px sans-serif;fill:#333;text-anchor:middle}"
        ".legend{font:12px sans-serif;fill:#333}"
        ".title{font:14px sans-serif;fill:#111;text-anchor:middle}"
        "</style>"
    )
    for frac in (0.25, 0.5, 0.75, 1.0):
        lines.append(
            f'<circle class="ring" cx="{_CX:.3f}" cy="{_CY:.3f}" r="{_RADIUS * frac:.3f}"/>'
        )
    for k in range(len(METRICS)):
        x, y = _point(k, 1.0)
        lines.append(
            f'<line class="axis" x1="{_CX:.3f}" y1="{_CY:.3f}" x2="{x:.3f}" y2="{y:.3f}"/>'
        )
    band_path = " ".join(f"M {_coords(pct, ' ', ' L ')} Z" for pct in (band_hi_pct, band_lo_pct))
    lines.append(f'<path class="band" fill-rule="evenodd" d="{band_path}"/>')
    lines.append(f'<polygon class="series group" points="{_coords(med_pct, ",", " ")}"/>')
    lines.append(
        f'<polygon class="series individual" points="{_coords(ind_pct, ",", " ")}"/>'
    )
    for k, metric in enumerate(METRICS):
        x, y = _point(k, 1.13)
        lines.append(f'<text class="label" x="{x:.3f}" y="{y:.3f}">{metric}</text>')
    lines.append(
        f'<text class="title" x="{_CX:.3f}" y="22">'
        f"{individual.user_id} / {individual.activity}</text>"
    )
    legend_y = _HEIGHT - 26
    lines.append(
        f'<rect x="16" y="{legend_y}" width="14" height="14" fill="{GROUP_COLOR}"/>'
    )
    lines.append(
        f'<text class="legend" x="36" y="{legend_y + 11}">group median '
        f"(n={baseline.n_users})</text>"
    )
    lines.append(
        f'<rect x="200" y="{legend_y}" width="14" height="14" fill="{INDIVIDUAL_COLOR}"/>'
    )
    lines.append(
        f'<text class="legend" x="220" y="{legend_y + 11}">{individual.user_id}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def save_radar(svg_text: str, path) -> None:
    write_text(path, svg_text)


def radar_index_csv(entries: Sequence[tuple[str, str, str]]) -> str:
    """Index of rendered charts: (user_id, activity, file) rows, quoted as
    csv.writer quotes them."""
    return csv_text(RADAR_INDEX_HEADER, entries)
