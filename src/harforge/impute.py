"""Rule-based filling of Unknown sleep states on the aligned grid.

Three rules run in order, each only ever resolving Unknown minutes, so
device-reported states are never overwritten and a second application is a
no-op:

  Rule 1 (sleep): a quiet minute (no steps) whose pulse sits below a
      multiple of the personal daily minimum is scored Sleep. The multiple
      is stricter at night than during the day.
  Rule 2 (awake): any steps, or a pulse above the awake multiple of the
      personal minimum, scores the minute Awake.
  Rule 3 (gap fill): a short run of Unknown minutes whose flanking known
      states agree takes that state. Runs touching either day boundary are
      left alone.

The personal daily minimum is the grid's per-row ``min_hr``, the low edge
of the day's heart-rate envelope; a day without an envelope is left as it
is. All comparisons are strict inequalities; a pulse exactly on a threshold
is a no-decision. Minutes without a pulse can only be resolved by the step
clause of Rule 2 or by Rule 3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date
from typing import Sequence

import numpy as np

from .align import SLEEP_CODE, DayGrid
from .core import MINUTES_PER_DAY, SleepState, csv_text

SLEEP = SLEEP_CODE[SleepState.SLEEP]
AWAKE = SLEEP_CODE[SleepState.AWAKE]
UNKNOWN = SLEEP_CODE[SleepState.UNKNOWN]

STATS_HEADER = ("metric", "pre", "after_rules_1_2", "after_rules_1_2_3", "net")


@dataclass(frozen=True)
class ImputeConfig:
    """Thresholds and the night window for the three rules.

    The night window wraps midnight: a minute is nocturnal when its index is
    >= night_start_minute or <= night_end_minute.
    """

    night_start_minute: int = 1260  # 21:00
    night_end_minute: int = 419  # 06:59
    night_sleep_factor: float = 1.05
    day_sleep_factor: float = 1.2
    awake_factor: float = 1.2
    max_gap_minutes: int = 120

    def __post_init__(self) -> None:
        for name in ("night_start_minute", "night_end_minute"):
            value = getattr(self, name)
            if not 0 <= value < MINUTES_PER_DAY:
                raise ValueError(f"{name} must be in [0, {MINUTES_PER_DAY}), got {value}")
        for name in ("night_sleep_factor", "day_sleep_factor", "awake_factor"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.max_gap_minutes < 0:
            raise ValueError(f"max_gap_minutes must be non-negative, got {self.max_gap_minutes}")

    def is_night(self, index):
        """Whether minute ``index`` (an int or an array of them) is nocturnal."""
        return (index >= self.night_start_minute) | (index <= self.night_end_minute)


@dataclass(frozen=True)
class StageCounts:
    """State tally for one user at one point in the rule cascade."""

    sleep_min: int
    awake_min: int
    unknown_min: int

    @property
    def total_min(self) -> int:
        return self.sleep_min + self.awake_min + self.unknown_min


@dataclass(frozen=True)
class ImputationStats:
    """Per-user before/after tallies plus how much each rule resolved."""

    user_id: str
    pre: StageCounts
    after_rules_1_2: StageCounts
    post: StageCounts
    rule1_min: int
    rule2_min: int
    rule3_min: int
    skipped_days: tuple[date, ...] = ()


def _undecided(grid: DayGrid) -> np.ndarray:
    """Unknown minutes of the rows that have a personal minimum."""
    return (grid.sleep == UNKNOWN) & ~np.isnan(grid.min_hr)[:, None]


def rule1_sleep(grid: DayGrid, config: ImputeConfig) -> np.ndarray:
    """Minutes Rule 1 scores Sleep: quiet, with a pulse below the night or day
    multiple of the row's ``min_hr``."""
    factor = np.where(
        config.is_night(np.arange(MINUTES_PER_DAY)),
        config.night_sleep_factor,
        config.day_sleep_factor,
    )
    return (
        _undecided(grid)
        & (grid.steps == 0)
        & (grid.pulse < factor * grid.min_hr[:, None])
    )


def rule2_awake(grid: DayGrid, config: ImputeConfig) -> np.ndarray:
    """Minutes Rule 2 scores Awake: any steps, or a pulse above the awake
    multiple of the row's ``min_hr``."""
    return _undecided(grid) & (
        (grid.steps > 0) | (grid.pulse > config.awake_factor * grid.min_hr[:, None])
    )


def rule3_fill(sleep: np.ndarray, max_gap_minutes: int) -> np.ndarray:
    """Fill each row's interior Unknown runs bounded by the same known state
    on both sides; returns a new array of sleep codes."""
    out = sleep.copy()
    unknown = np.pad(out == UNKNOWN, ((0, 0), (1, 1)))
    edges = np.diff(unknown.view(np.int8), axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]  # run is [start, end)
    inner = (starts > 0) & (ends < out.shape[1]) & (ends - starts <= max_gap_minutes)
    rows, starts, ends = rows[inner], starts[inner], ends[inner]
    flank = out[rows, starts - 1]
    agree = flank == out[rows, ends]
    for r, a, b, state in zip(rows[agree], starts[agree], ends[agree], flank[agree]):
        out[r, a:b] = state
    return out


def _tally(sleep: np.ndarray) -> StageCounts:
    counts = np.bincount(sleep.ravel(), minlength=len(SLEEP_CODE)).tolist()
    return StageCounts(
        sleep_min=counts[SLEEP], awake_min=counts[AWAKE], unknown_min=counts[UNKNOWN]
    )


def impute_cohort(
    days: DayGrid, config: ImputeConfig = ImputeConfig()
) -> tuple[DayGrid, list[ImputationStats], np.ndarray]:
    """Apply the rule cascade to every day with a heart-rate envelope
    (``days.min_hr`` not NaN).

    Days without one are left as-is and reported in their user's
    ``skipped_days``. Returns the imputed grid, per-user stats in user order,
    and an int8 array shaped like the grid recording which rule (1, 2 or 3)
    resolved each minute, 0 for untouched minutes.
    """
    rule1 = rule1_sleep(days, config)
    rule2 = rule2_awake(days, config) & ~rule1
    mid = days.sleep.copy()
    mid[rule1] = SLEEP
    mid[rule2] = AWAKE
    post = mid.copy()
    active = ~np.isnan(days.min_hr)
    post[active] = rule3_fill(mid[active], config.max_gap_minutes)
    marks = np.zeros(mid.shape, dtype=np.int8)
    marks[post != mid] = 3
    marks[rule1] = 1
    marks[rule2] = 2
    stats = []
    for user, rows in days.user_rows().items():
        rule_min = np.bincount(marks[rows].ravel(), minlength=4).tolist()
        stats.append(
            ImputationStats(
                user_id=user,
                pre=_tally(days.sleep[rows]),
                after_rules_1_2=_tally(mid[rows]),
                post=_tally(post[rows]),
                rule1_min=rule_min[1],
                rule2_min=rule_min[2],
                rule3_min=rule_min[3],
                skipped_days=tuple(
                    day for (_, day), ok in zip(days.keys[rows], active[rows]) if not ok
                ),
            )
        )
    return replace(days, sleep=post), stats, marks


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def write_stats_report(stats: Sequence[ImputationStats]) -> str:
    """Tabulate the cascade: per-user averages for each state at each stage,
    percentage shares, per-rule resolution counts, and cohort totals."""
    if not stats:
        raise ValueError("no imputation stats to report")
    n = len(stats)
    states = ("sleep", "awake", "unknown")
    # per stage: the sleep, awake and unknown minutes of the cohort and their total
    totals = []
    for stage in ("pre", "after_rules_1_2", "post"):
        counts = [
            sum(getattr(getattr(s, stage), f"{state}_min") for s in stats) for state in states
        ]
        totals.append((*counts, sum(counts)))
    pre, _, post = totals
    rows = [
        [f"{name}_min_per_user", *(_fmt(t[i] / n) for t in totals), _fmt((post[i] - pre[i]) / n)]
        for i, name in enumerate((*states, "total"))
    ]
    rows += [
        [
            f"{name}_pct",
            *(_fmt(100.0 * t[i] / t[3]) if t[3] else "" for t in totals),
            _fmt(100.0 * (post[i] / post[3] - pre[i] / pre[3])) if pre[3] else "",
        ]
        for i, name in enumerate(states)
    ]
    # rules 1 and 2 resolve minutes after_rules_1_2, rule 3 after all three
    for rule, stage in ((1, 1), (2, 1), (3, 2)):
        cells = ["", "", ""]
        cells[stage] = _fmt(sum(getattr(s, f"rule{rule}_min") for s in stats) / n)
        rows.append([f"rule{rule}_min_per_user", *cells, ""])
    rows.append(["cohort_total_min", *(str(t[3]) for t in totals), str(post[3] - pre[3])])
    return csv_text(STATS_HEADER, rows)
