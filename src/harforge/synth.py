"""Deterministic synthetic cohort generator with per-minute ground truth.

Each user gets a resting heart rate and a dynamic range drawn once, then a
daily routine: sleep across the night boundary, a jittered block schedule of
activities by day, and plain wakefulness in between. Per-minute heart rate
is resting + an activity-specific fraction of the user's range + Gaussian
noise; it is emitted as four samples per minute with second-level jitter.
Per-minute step truth is summed into the 15-minute device blocks, so block
redistribution can be scored against a known answer. Sleep/awake truth is
cut into chunks and a configurable fraction of chunks is dropped, which is
what leaves Unknown minutes for the imputation rules to fill.

The truth is a DayGrid with one row per user-day, in key order: ``sleep``
holds the true state (sleep or awake), ``schedule`` and ``labels`` the true
activity, ``steps`` and ``distance_m`` the true movement, and ``pulse`` is
NaN. ``truth.csv`` is that grid in the per-minute format of ``aligned.csv``
(``align.MinuteFormat``) with its own fields (``TRUTH_FORMAT``), so both
share one writer, one columnar reader and one per-row reader.

Everything is driven by per-user seeded generators in a fixed draw order,
so the same config always produces byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date
from typing import IO, Iterable, Mapping

import numpy as np

from .align import (
    LABEL_FIELD,
    SLEEP_CODE,
    STEPS_FIELD,
    DayGrid,
    MinuteFormat,
    state_field,
    value_field,
)
from .core import (
    DEFAULT_LEVEL2_LABELS,
    DEFAULT_TZ_OFFSET_MINUTES,
    EPOCH_ORDINAL,
    MINUTES_PER_DAY,
    ScheduleBlock,
    SleepState,
    from_epoch_second,
    write_text,
)
from .ingest import (
    RawActivityBlock,
    RawSleepSegment,
    hr_chunks,
    serialize_activity_blocks,
    serialize_schedule,
    serialize_sleep_segments,
)

TRUTH_HEADER = (
    "user_id",
    "date",
    "minute",
    "true_sleep",
    "true_activity",
    "true_steps",
    "true_distance_m",
)

#: Per-sample second offsets inside a minute; jitter stays within [1, 50].
_SAMPLE_SECONDS = (3, 18, 33, 48)


@dataclass(frozen=True)
class ActivityProfile:
    """How an activity expresses itself in heart rate and movement.

    hr_frac scales the user's dynamic range (max minus resting) to an
    offset above resting; steps are drawn per minute from a clipped normal.
    """

    hr_frac: float
    hr_sd: float
    steps_mean: float
    steps_sd: float
    m_per_step: float


@dataclass(frozen=True)
class TemplateEntry:
    """One schedule slot: runs on days where day_index % period == phase."""

    start_minute: int
    label: str
    duration_min: int
    period_days: int = 1
    phase: int = 0


DEFAULT_ACTIVITY_PROFILES: Mapping[str, ActivityProfile] = {
    "Wake Up": ActivityProfile(0.22, 2.5, 12.0, 4.0, 0.7),
    "Running Exercise": ActivityProfile(0.72, 3.0, 160.0, 12.0, 1.1),
    "Firearms Training": ActivityProfile(0.38, 2.5, 18.0, 6.0, 0.7),
    "Military Drills": ActivityProfile(0.50, 3.0, 45.0, 8.0, 0.75),
    "Kitchen Duties": ActivityProfile(0.16, 2.0, 14.0, 5.0, 0.65),
    "Fitness Test": ActivityProfile(0.78, 3.0, 120.0, 15.0, 0.9),
    "Other": ActivityProfile(0.25, 2.5, 15.0, 6.0, 0.7),
    "Obstacle Course Training": ActivityProfile(0.62, 3.0, 95.0, 10.0, 0.85),
    "Contact-Combat": ActivityProfile(0.55, 3.0, 35.0, 8.0, 0.75),
    "General Working": ActivityProfile(0.19, 2.0, 8.0, 4.0, 0.65),
    "Security Mission": ActivityProfile(0.30, 2.5, 22.0, 6.0, 0.8),
}

#: Slot starts leave at least twice the schedule jitter between blocks, so
#: jittered blocks can never collide.
DEFAULT_SCHEDULE_TEMPLATE: tuple[TemplateEntry, ...] = (
    TemplateEntry(380, "Wake Up", 20),
    TemplateEntry(410, "Running Exercise", 45),
    TemplateEntry(480, "Firearms Training", 90),
    TemplateEntry(600, "Military Drills", 75),
    TemplateEntry(700, "Kitchen Duties", 45, period_days=2, phase=0),
    TemplateEntry(700, "Fitness Test", 40, period_days=6, phase=3),
    TemplateEntry(760, "Other", 30, period_days=8, phase=5),
    TemplateEntry(820, "Obstacle Course Training", 60, period_days=2, phase=1),
    TemplateEntry(900, "Contact-Combat", 50, period_days=4, phase=2),
    TemplateEntry(970, "General Working", 120),
    TemplateEntry(1120, "Security Mission", 60, period_days=2, phase=1),
)


@dataclass(frozen=True)
class CohortConfig:
    """Knobs for one synthetic cohort."""

    n_users: int = 20
    n_days: int = 30
    seed: int = 7
    start_date: date = date(2024, 3, 4)
    tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES
    resting_hr_mean: float = 55.0
    resting_hr_sd: float = 5.0
    hr_range_mean: float = 135.0
    hr_range_sd: float = 8.0
    awake_hr_frac: float = 0.15
    awake_hr_sd: float = 3.0
    sleep_hr_sd: float = 2.0
    hr_sample_sd: float = 0.3
    hr_sd_scale: float = 1.0
    user_frac_jitter_sd: float = 0.0
    awake_steps_mean: float = 4.0
    awake_steps_sd: float = 5.0
    awake_m_per_step: float = 0.7
    sleep_start_minute: int = 1320  # 22:00 local
    sleep_end_minute: int = 360  # 06:00 local
    sleep_jitter_min: int = 10
    schedule_jitter_min: int = 4
    sleep_dropout: float = 0.40
    hr_dropout: float = 0.02
    activity_profiles: Mapping[str, ActivityProfile] = field(
        default_factory=lambda: dict(DEFAULT_ACTIVITY_PROFILES)
    )
    schedule_template: tuple[TemplateEntry, ...] = DEFAULT_SCHEDULE_TEMPLATE

    def __post_init__(self) -> None:
        if self.n_users < 0 or self.n_days < 0:
            raise ValueError("cohort sizes must be non-negative")
        if not 0.0 <= self.sleep_dropout < 1.0 or not 0.0 <= self.hr_dropout < 1.0:
            raise ValueError("dropout fractions must be in [0, 1)")
        if self.tz_offset_minutes % 15 != 0:
            raise ValueError("tz offset must be a multiple of 15 minutes")
        sj = self.schedule_jitter_min
        for entry in self.schedule_template:
            if entry.label not in self.activity_profiles:
                raise ValueError(f"template label {entry.label!r} has no profile")
            if not (
                entry.duration_min > 0
                and sj <= entry.start_minute
                and entry.start_minute + entry.duration_min + sj <= MINUTES_PER_DAY
            ):
                raise ValueError(
                    f"template block {entry.label!r} must last a minute or more and "
                    "stay inside the day when jittered"
                )
        unknown = set(self.activity_profiles) - set(DEFAULT_LEVEL2_LABELS)
        if unknown:
            raise ValueError(f"profiles for labels outside the taxonomy: {unknown}")


@dataclass
class Cohort:
    """Generator output: the four raw streams plus the truth. ``hr`` is the
    HR samples in generation order as ``ingest.hr_chunks`` takes them: user
    ids, int64 codes into them, int64 epoch seconds and float64 bpm. The
    three small streams are the records ingest parses, in generation order,
    and ingest's serializers write them."""

    hr: tuple[list[str], np.ndarray, np.ndarray, np.ndarray]
    activity: list[RawActivityBlock]
    sleep: list[RawSleepSegment]
    schedule: list[ScheduleBlock]
    truth: DayGrid


def round2(values: np.ndarray) -> np.ndarray:
    """Python's ``round(v, 2)`` of each float64 value, bit for bit.

    ``round`` rounds the exact binary value of v x 100 to an integer K, half
    to even, and returns the double nearest K / 100. ``y = fl(v * 100)`` is
    within half an ulp of that product, so ``rint(y) == K`` unless y lies
    within an ulp of a half, and IEEE division then gives the same nearest
    double. There (which takes in every ``|y| >= 2**51``, whose ulp is at
    least 0.5) and where y is not finite, ``round`` itself runs.
    (``np.round`` has no such exception: it is not the same rounding.)
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = values * 100.0
        out = np.rint(y) / 100.0
        slow = ~np.isfinite(y) | (np.abs(y - np.floor(y) - 0.5) <= np.spacing(np.abs(y)))
    out[slow] = [round(v, 2) for v in values[slow].tolist()]
    return out


_ASLEEP, _AWAKE = SLEEP_CODE[SleepState.SLEEP], SLEEP_CODE[SleepState.AWAKE]


def _user_ids(n_users: int) -> list[str]:
    return [f"u{i + 1:03d}" for i in range(n_users)]


def generate_cohort(config: CohortConfig = CohortConfig()) -> Cohort:
    """Build one cohort; identical configs yield byte-identical output."""
    blocks: list[RawActivityBlock] = []
    segments: list[RawSleepSegment] = []
    schedule: list[ScheduleBlock] = []
    # HR samples as columns in generation order, filled up to n_hr and
    # trimmed at the end; a user-day has at most four samples a minute
    size = config.n_users * config.n_days * MINUTES_PER_DAY * len(_SAMPLE_SECONDS)
    hr_user, hr_second, hr_bpm = (np.empty(size, t) for t in (np.int64, np.int64, np.float64))
    n_hr = 0

    labels_sorted = sorted(config.activity_profiles)
    label_code = {label: code for code, label in enumerate(labels_sorted)}
    base_ordinal = config.start_date.toordinal()
    users = _user_ids(config.n_users)
    # truth rows in key order: users sorted ("u1000" < "u999"), then days
    by_key = sorted(range(len(users)), key=users.__getitem__)
    days = [date.fromordinal(base_ordinal + d) for d in range(config.n_days)]
    truth = DayGrid.empty([(users[u], day) for u in by_key for day in days], labels_sorted)
    first_row = {u: k * config.n_days for k, u in enumerate(by_key)}

    for user_index, user in enumerate(users):
        rng = np.random.default_rng([config.seed, user_index])
        resting = float(rng.normal(config.resting_hr_mean, config.resting_hr_sd))
        hr_range = max(80.0, float(rng.normal(config.hr_range_mean, config.hr_range_sd)))
        # one shared band shift per user: within-user contrasts are kept,
        # but bands stop lining up across users
        band_shift = float(rng.normal(0.0, config.user_frac_jitter_sd))
        awake_frac = config.awake_hr_frac + band_shift
        frac_of = {
            label: config.activity_profiles[label].hr_frac + band_shift
            for label in labels_sorted
        }

        # epoch minute of this user's first local midnight
        local_base = (base_ordinal - EPOCH_ORDINAL) * MINUTES_PER_DAY - config.tz_offset_minutes

        for day_index in range(config.n_days):
            r = first_row[user_index] + day_index
            j = config.sleep_jitter_min
            morning_end = config.sleep_end_minute + int(rng.integers(-j, j + 1))
            night_start = config.sleep_start_minute + int(rng.integers(-j, j + 1))

            sleep_mask = np.zeros(MINUTES_PER_DAY, dtype=bool)
            sleep_mask[:morning_end] = True
            sleep_mask[night_start:] = True

            # per-minute targets: awake, then each block in template order (a
            # later block overwrites an earlier one), then sleep over all
            activity = truth.schedule[r]
            hr_mean = np.full(MINUTES_PER_DAY, resting + awake_frac * hr_range)
            hr_sd = np.full(MINUTES_PER_DAY, config.awake_hr_sd)
            steps_mean = np.full(MINUTES_PER_DAY, config.awake_steps_mean)
            steps_sd = np.full(MINUTES_PER_DAY, config.awake_steps_sd)
            m_per_step = np.full(MINUTES_PER_DAY, config.awake_m_per_step)
            realized: list[tuple[int, int, str]] = []
            for entry in config.schedule_template:
                if day_index % entry.period_days != entry.phase:
                    continue
                sj = config.schedule_jitter_min
                start = entry.start_minute + int(rng.integers(-sj, sj + 1))
                end = start + entry.duration_min
                realized.append((start, end, entry.label))
                block = slice(start, end)
                profile = config.activity_profiles[entry.label]
                activity[block] = label_code[entry.label]
                hr_mean[block] = resting + frac_of[entry.label] * hr_range
                hr_sd[block] = profile.hr_sd
                steps_mean[block] = profile.steps_mean
                steps_sd[block] = profile.steps_sd
                m_per_step[block] = profile.m_per_step
            hr_mean[sleep_mask] = resting
            hr_sd[sleep_mask] = config.sleep_hr_sd
            steps_mean[sleep_mask] = 0.0
            steps_sd[sleep_mask] = 0.0
            m_per_step[sleep_mask] = config.awake_m_per_step

            hr_minute = hr_mean + rng.normal(0.0, 1.0, MINUTES_PER_DAY) * (
                hr_sd * config.hr_sd_scale
            )
            hr_minute = np.maximum(hr_minute, 30.0)
            raw_steps = steps_mean + rng.normal(0.0, 1.0, MINUTES_PER_DAY) * steps_sd
            steps = np.maximum(np.rint(raw_steps), 0.0)
            steps[sleep_mask] = 0.0
            steps = steps.astype(np.int64)
            distance = steps * m_per_step

            hr_drop = rng.random(MINUTES_PER_DAY) < config.hr_dropout
            sec_jitter = rng.integers(-2, 3, size=(MINUTES_PER_DAY, 4))
            val_noise = rng.normal(0.0, config.hr_sample_sd, size=(MINUTES_PER_DAY, 4))

            day_base_min = local_base + day_index * MINUTES_PER_DAY
            kept = np.flatnonzero(~hr_drop)
            minute_sec = (day_base_min + kept) * 60
            seconds = minute_sec[:, None] + _SAMPLE_SECONDS + sec_jitter[kept]
            values = np.maximum(25.0, hr_minute[kept, None] + val_noise[kept])
            samples = slice(n_hr, n_hr + values.size)
            n_hr = samples.stop
            hr_user[samples] = user_index
            hr_second[samples] = seconds.ravel()
            hr_bpm[samples] = round2(values.ravel())

            block_steps = steps.reshape(-1, 15).sum(axis=1)
            block_dist = distance.reshape(-1, 15).sum(axis=1)
            for b in np.flatnonzero((block_steps != 0) | (block_dist != 0.0)).tolist():
                ts = from_epoch_second((day_base_min + b * 15) * 60)
                blocks.append(RawActivityBlock(user, ts, int(block_steps[b]), float(block_dist[b])))

            for start, end, label in realized:
                s_ts = from_epoch_second((day_base_min + start) * 60)
                e_ts = from_epoch_second((day_base_min + end) * 60)
                schedule.append(ScheduleBlock(user, s_ts, e_ts, label))

            truth.sleep[r] = np.where(sleep_mask, _ASLEEP, _AWAKE)
            truth.steps[r] = steps
            truth.distance_m[r] = distance

        # device sleep segments: chunk each true state run, drop some chunks
        rows = slice(first_row[user_index], first_row[user_index] + config.n_days)
        all_states = truth.sleep[rows].ravel() == _ASLEEP
        n_total = all_states.shape[0]
        changes = (np.flatnonzero(all_states[1:] != all_states[:-1]) + 1).tolist()
        bounds = [0, *changes, n_total] if n_total else []
        for pos, run_end in zip(bounds, bounds[1:]):
            state = SleepState.SLEEP if all_states[pos] else SleepState.AWAKE
            chunk_start = pos
            while chunk_start < run_end:
                chunk_len = min(int(rng.integers(8, 26)), run_end - chunk_start)
                keep = rng.random() >= config.sleep_dropout
                if keep:
                    s_ts = from_epoch_second((local_base + chunk_start) * 60)
                    e_ts = from_epoch_second((local_base + chunk_start + chunk_len) * 60)
                    segments.append(RawSleepSegment(user, s_ts, e_ts, state))
                chunk_start += chunk_len

    return Cohort(
        hr=(users, hr_user[:n_hr], hr_second[:n_hr], hr_bpm[:n_hr]),
        activity=blocks,
        sleep=segments,
        schedule=schedule,
        truth=truth,
    )


def write_cohort(cohort: Cohort, out_dir) -> dict[str, str]:
    """Write the five files (see core.write_text); returns name -> path."""
    paths = {}
    for name, text in (
        ("hr.csv", hr_chunks(*cohort.hr)),
        ("activity.csv", serialize_activity_blocks(cohort.activity)),
        ("sleep.csv", serialize_sleep_segments(cohort.sleep)),
        ("schedule.csv", serialize_schedule(cohort.schedule)),
        ("truth.csv", TRUTH_FORMAT.chunks(cohort.truth)),
    ):
        paths[name] = os.path.join(out_dir, name)
        write_text(paths[name], text)
    return paths


#: ``truth.csv``: the true sleep state (sleep or awake), activity (empty for
#: none), steps and distance of each minute; a distance may be non-finite.
#: The grid's pulse is NaN, no reading.
TRUTH_FORMAT = MinuteFormat(
    "truth",
    TRUTH_HEADER,
    (
        state_field({"sleep": _ASLEEP, "awake": _AWAKE}),
        LABEL_FIELD,
        STEPS_FIELD,
        value_field(
            "distance_m",
            float,
            lambda keys, suffix: [repr(v) + suffix for v in keys.view(np.float64).tolist()],
        ),
    ),
)


def read_truth_csv(stream: Iterable[str] | IO[str]) -> DayGrid:
    """Reload a truth.csv written by write_cohort (see ``MinuteFormat.read``);
    a sleep state other than sleep or awake is a ValueError naming the row."""
    return TRUTH_FORMAT.read(stream)


@dataclass(frozen=True)
class MaskReport:
    """How well imputation recovered the states hidden by segment dropout."""

    total_minutes: int
    masked_minutes: int
    resolved_minutes: int
    agreeing_minutes: int
    rule_counts: dict[int, int]
    rule_precision: dict[int, float | None]
    state_recall: dict[str, float | None]
    residual_unknown_fraction: float

    @property
    def agreement(self) -> float | None:
        if self.resolved_minutes == 0:
            return None
        return self.agreeing_minutes / self.resolved_minutes


def mask_report(
    truth: DayGrid,
    pre_days: DayGrid,
    post_days: DayGrid,
    marks: np.ndarray,
) -> MaskReport:
    """Score imputed states against the generator's truth.

    ``truth`` is the grid ``read_truth_csv`` returns. ``pre_days`` and
    ``post_days`` are the grid before and after imputation and ``marks``
    the per-minute rule marks imputation returned with it. A masked minute
    is one whose pre-imputation state was Unknown. Rule precision is
    agreement among the minutes that rule resolved; state recall is the
    fraction of masked minutes of each true state that were resolved to
    that state.
    """
    row_of = {key: r for r, key in enumerate(pre_days.keys)}
    for key in truth.keys:
        if key not in row_of:
            raise ValueError(f"truth day {key} missing from the aligned series")
    if post_days.keys != pre_days.keys or marks.shape != pre_days.sleep.shape:
        raise ValueError("the imputed grid and its marks do not match the aligned grid")
    rows = [row_of[key] for key in truth.keys]
    pre, post, rule = pre_days.sleep[rows], post_days.sleep[rows], marks[rows]
    unknown = SLEEP_CODE[SleepState.UNKNOWN]
    masked = pre == unknown
    resolved = masked & (post != unknown)
    hit = resolved & (post == truth.sleep)
    state_of = {"sleep": truth.sleep == _ASLEEP, "awake": truth.sleep == _AWAKE}
    rule_counts = {r: int((resolved & (rule == r)).sum()) for r in (1, 2, 3)}
    rule_agree = {r: int((hit & (rule == r)).sum()) for r in (1, 2, 3)}
    state_masked = {name: int((masked & state).sum()) for name, state in state_of.items()}
    state_hit = {name: int((hit & state).sum()) for name, state in state_of.items()}
    total = truth.sleep.size
    return MaskReport(
        total_minutes=total,
        masked_minutes=int(masked.sum()),
        resolved_minutes=int(resolved.sum()),
        agreeing_minutes=int(hit.sum()),
        rule_counts=rule_counts,
        rule_precision={
            r: rule_agree[r] / rule_counts[r] if rule_counts[r] else None for r in rule_counts
        },
        state_recall={
            name: state_hit[name] / state_masked[name] if state_masked[name] else None
            for name in state_masked
        },
        residual_unknown_fraction=int((post == unknown).sum()) / total if total else 0.0,
    )
