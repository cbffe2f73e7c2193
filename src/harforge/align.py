"""Fusion of the raw streams onto the local per-minute grid.

Heart-rate samples are averaged into one pulse per minute. Each 15-minute
activity summary is spread over its minutes in proportion to how far each
minute's pulse sits above a low-pulse cutoff (a truncated-linear weighting),
so steps land on the minutes that were actually active; a block whose pulses
all sit below the cutoff falls back to a uniform spread. Device sleep
segments and schedule blocks are painted onto the same grid.

The fused result is a DayGrid: one row of 1440 local minutes per user-day
and one numpy array per column, so every later stage reads columns rather
than per-minute objects.

Steps are apportioned as integers with the largest-remainder method, so the
block total is conserved exactly; distance is split proportionally as a real
number.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from datetime import date
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import codec
from .core import (
    DEFAULT_TZ_OFFSET_MINUTES,
    EPOCH_ORDINAL,
    MINUTES_PER_DAY,
    ScheduleBlock,
    SleepState,
    csv_rows,
    csv_text,
    epoch_minute,
    format_number,
)
from .ingest import BLOCK_MINUTES, HrStream, RawActivityBlock, RawSleepSegment

#: Daily pulse percentiles defining the personal heart-rate envelope.
MIN_HR_PERCENTILE = 5.0
MAX_HR_PERCENTILE = 99.97

#: Days with fewer per-minute pulses than this get a low-confidence profile.
MIN_CONFIDENT_PULSES = 60

#: A minute participates in block redistribution only while its pulse
#: exceeds cutoff_factor * min_hr.
LTM_CUTOFF_FACTOR = 1.05

ALIGNED_HEADER = (
    "user_id",
    "date",
    "minute",
    "pulse",
    "steps",
    "distance_m",
    "sleep",
    "schedule_l2",
)
PROFILE_HEADER = ("user_id", "date", "min_hr", "max_hr", "n_pulses", "low_confidence")

#: Where a user-day's heart-rate envelope comes from: its own day, or the
#: user's whole history.
PROFILE_SCOPES = ("day", "global")

#: DayGrid.sleep code of each sleep state: its position in SleepState.
SLEEP_CODE = {state: code for code, state in enumerate(SleepState)}

#: dtype and empty-minute value of each DayGrid column.
_COLUMNS = {
    "pulse": (np.float64, np.nan),
    "steps": (np.int64, 0),
    "distance_m": (np.float64, 0.0),
    "sleep": (np.int8, SLEEP_CODE[SleepState.UNKNOWN]),
    "schedule": (np.int16, -1),
}

#: Bits of a packed row key that hold the day ordinal; every date ordinal
#: fits below 2**22.
_ORDINAL_BITS = 22
_ORDINAL_MASK = (1 << _ORDINAL_BITS) - 1


class NoProfileError(ValueError):
    """No pulses were available to derive a heart-rate profile from."""


@dataclass(frozen=True, slots=True)
class PersonalHrProfile:
    """Per-user heart-rate envelope for one day (or the whole history).

    min_hr is the 5th percentile of the day's per-minute pulses and max_hr
    the 99.97th, so a handful of spurious readings cannot drag the envelope
    around. Profiles built from fewer than MIN_CONFIDENT_PULSES minutes are
    marked low-confidence but still used.
    """

    user_id: str
    day: date | None
    min_hr: float
    max_hr: float
    n_pulses: int
    low_confidence: bool


@dataclass(eq=False)
class DayGrid:
    """Per-minute columns of a set of user-days.

    Row r of every column holds the 1440 local minutes of ``keys[r]``. The
    keys are sorted, so each user's days sit in adjacent rows in date order.

    - ``pulse``: float64 mean heart rate, NaN where there was no reading
    - ``steps``: int64 redistributed steps
    - ``distance_m``: float64 redistributed distance
    - ``sleep``: int8 ``SLEEP_CODE`` of the minute's sleep state
    - ``schedule``: int16 index into ``labels``, -1 where nothing is scheduled
    """

    keys: tuple[tuple[str, date], ...]
    labels: tuple[str, ...]
    pulse: np.ndarray
    steps: np.ndarray
    distance_m: np.ndarray
    sleep: np.ndarray
    schedule: np.ndarray

    @classmethod
    def empty(cls, keys: Sequence[tuple[str, date]], labels: Sequence[str] = ()) -> DayGrid:
        """Rows for sorted ``keys``: no pulse or movement, Unknown sleep, no schedule."""
        shape = (len(keys), MINUTES_PER_DAY)
        return cls(
            tuple(keys),
            tuple(labels),
            **{name: np.full(shape, empty, dtype) for name, (dtype, empty) in _COLUMNS.items()},
        )

    def __len__(self) -> int:
        return len(self.keys)

    def map_schedule(self, per_label: Sequence, unscheduled, rows=slice(None)) -> np.ndarray:
        """Per-minute ``per_label[code]`` of the schedule column's ``rows``,
        and ``unscheduled`` where nothing is scheduled."""
        return np.array([*per_label, unscheduled])[self.schedule[rows]]

    def user_rows(self) -> dict[str, slice]:
        """The rows holding each user's days, in user order."""
        rows: dict[str, slice] = {}
        start = 0
        for user, group in groupby(self.keys, key=itemgetter(0)):
            end = start + sum(1 for _ in group)
            rows[user] = slice(start, end)
            start = end
        return rows

    def profile_columns(
        self, profiles: Mapping[tuple[str, date], PersonalHrProfile]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row min_hr and max_hr; NaN for a day without a profile."""
        envelope = np.full((len(self.keys), 2), np.nan)
        for r, key in enumerate(self.keys):
            profile = profiles.get(key)
            if profile is not None:
                envelope[r] = (profile.min_hr, profile.max_hr)
        return envelope[:, 0], envelope[:, 1]


@dataclass
class AlignedData:
    """Cohort-wide alignment result: the fused grid and the profile of each
    (user_id, local day) that had pulses."""

    days: DayGrid
    profiles: dict[tuple[str, date], PersonalHrProfile]


def percentile_linear(values: Sequence[float], q: float) -> float:
    """Percentile with linear interpolation between order statistics.

    The rank of percentile q over n sorted values is q/100 * (n-1); a
    fractional rank interpolates between its two neighbours.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    v = sorted(values)
    rank = (q / 100.0) * (n - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(v[lo])
    return v[lo] + (rank - lo) * (v[hi] - v[lo])


def compute_hr_profile(
    user_id: str, day: date | None, pulses: Sequence[float]
) -> PersonalHrProfile:
    """Derive the personal envelope from one day's per-minute pulses."""
    n = len(pulses)
    if n == 0:
        raise NoProfileError(f"no pulses for user {user_id!r} on {day}")
    return PersonalHrProfile(
        user_id=user_id,
        day=day,
        min_hr=percentile_linear(pulses, MIN_HR_PERCENTILE),
        max_hr=percentile_linear(pulses, MAX_HR_PERCENTILE),
        n_pulses=n,
        low_confidence=n < MIN_CONFIDENT_PULSES,
    )


def largest_remainder(total: int, weights: Sequence[float]) -> list[int]:
    """Apportion ``total`` integer units proportionally to ``weights``.

    Every slot gets the floor of its exact quota; leftover units go to the
    largest fractional parts, ties broken toward the lower index. The result
    always sums to ``total`` exactly.
    """
    if total < 0:
        raise ValueError("cannot apportion a negative total")
    s = float(sum(weights))
    if not s > 0:
        raise ValueError("weights must have a positive sum")
    quotas = [total * w / s for w in weights]
    base = [math.floor(q) for q in quotas]
    leftover = total - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (base[i] - quotas[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def ltm_redistribute(
    steps: int,
    distance_m: float,
    pulses: Sequence[float | None],
    min_hr: float,
    *,
    cutoff_factor: float = LTM_CUTOFF_FACTOR,
    block_minutes: int = BLOCK_MINUTES,
) -> list[tuple[int, float]]:
    """Spread one block's steps and distance over its minutes.

    Each minute carries weight max(0, pulse - cutoff_factor * min_hr); a
    missing pulse counts as below the cutoff. When every weight is zero the
    block is spread uniformly. Returns (steps, distance) per minute; the
    step column sums to ``steps`` exactly.
    """
    if len(pulses) != block_minutes:
        raise ValueError(
            f"expected {block_minutes} per-minute pulses, got {len(pulses)}"
        )
    if steps < 0 or distance_m < 0:
        raise ValueError("steps and distance must be non-negative")
    cutoff = cutoff_factor * min_hr
    weights = []
    for p in pulses:
        if p is None or (isinstance(p, float) and math.isnan(p)):
            weights.append(0.0)
        else:
            weights.append(max(0.0, p - cutoff))
    total_w = sum(weights)
    if total_w <= 0.0:
        weights = [1.0] * block_minutes
        total_w = float(block_minutes)
    step_parts = largest_remainder(steps, weights)
    return [
        (step_parts[i], distance_m * weights[i] / total_w)
        for i in range(block_minutes)
    ]


def align_cohort(
    hr: HrStream,
    activity_blocks: Sequence[RawActivityBlock],
    sleep_segments: Sequence[RawSleepSegment],
    schedule_blocks: Sequence[ScheduleBlock],
    *,
    tz_offset_minutes: int = DEFAULT_TZ_OFFSET_MINUTES,
    profile_scope: str = "day",
) -> AlignedData:
    """Fuse all four streams for a whole cohort.

    Every user-day that any stream touches gets a grid row. profile_scope
    picks where the heart-rate envelope comes from: "day" derives one per
    user-day, "global" pools each user's whole history.

    The offset must be a multiple of 15 so that device blocks stay inside a
    single local day.
    """
    if tz_offset_minutes % BLOCK_MINUTES != 0:
        raise ValueError("tz offset must be a multiple of 15 minutes")
    if profile_scope not in PROFILE_SCOPES:
        raise ValueError(f"unknown profile scope {profile_scope!r}")

    def local(ts) -> int:
        return epoch_minute(ts) + tz_offset_minutes

    labels = tuple(sorted({blk.label for blk in schedule_blocks}))
    blocks = [(b.user_id, local(b.block_start), b) for b in activity_blocks]
    paints = [
        ("sleep", seg.user_id, local(seg.start), local(seg.end), SLEEP_CODE[seg.state])
        for seg in sleep_segments
    ] + [
        ("schedule", blk.user_id, local(blk.start), local(blk.end), labels.index(blk.label))
        for blk in schedule_blocks
    ]
    paints = [p for p in paints if p[3] > p[2]]
    users = sorted(set(hr.users) | {b[0] for b in blocks} | {p[1] for p in paints})
    code_of = {user: code for code, user in enumerate(users)}

    def pack(code, minute):
        """Row key of (user code, local minute): user code and day ordinal in
        one int, so keys sort by user, then day; works on arrays too."""
        return code << _ORDINAL_BITS | (minute // MINUTES_PER_DAY + EPOCH_ORDINAL)

    hr_minute = hr.second // 60 + tz_offset_minutes
    hr_key = pack(np.array([code_of[user] for user in hr.users], np.int64)[hr.user], hr_minute)
    touched = {pack(code_of[user], minute) for user, minute, _ in blocks}
    for _, user, start, end, _ in paints:
        touched.update(range(pack(code_of[user], start), pack(code_of[user], end - 1) + 1))
    row_keys = np.unique(np.concatenate([hr_key, np.fromiter(touched, np.int64)])).tolist()
    grid = DayGrid.empty(
        [(users[k >> _ORDINAL_BITS], date.fromordinal(k & _ORDINAL_MASK)) for k in row_keys],
        labels,
    )
    row_of = {k: r for r, k in enumerate(row_keys)}

    def cell(user: str, minute: int) -> int:
        return row_of[pack(code_of[user], minute)] * MINUTES_PER_DAY + minute % MINUTES_PER_DAY

    # per-minute mean pulse; bincount adds the samples in stream order
    cells = np.searchsorted(row_keys, hr_key) * MINUTES_PER_DAY + hr_minute % MINUTES_PER_DAY
    count = np.bincount(cells, minlength=grid.pulse.size).reshape(grid.pulse.shape)
    total = np.bincount(cells, hr.bpm, minlength=grid.pulse.size).reshape(grid.pulse.shape)
    has = count > 0
    grid.pulse[has] = total[has] / count[has]

    profiles: dict[tuple[str, date], PersonalHrProfile] = {}
    if profile_scope == "day":
        for r, (user, day) in enumerate(grid.keys):
            if has[r].any():
                pulses = grid.pulse[r][has[r]].tolist()
                profiles[(user, day)] = compute_hr_profile(user, day, pulses)
    else:
        for user, rows in grid.user_rows().items():
            if has[rows].any():
                shared = compute_hr_profile(user, None, grid.pulse[rows][has[rows]].tolist())
                profiles.update((key, shared) for key in grid.keys[rows])

    for user, minute, b in blocks:
        r, idx = divmod(cell(user, minute), MINUTES_PER_DAY)
        if idx % BLOCK_MINUTES != 0:
            raise ValueError(f"activity block at minute {idx} does not fit the local grid")
        profile = profiles.get(grid.keys[r])
        span = slice(idx, idx + BLOCK_MINUTES)
        parts = ltm_redistribute(
            b.steps,
            b.distance_m,
            grid.pulse[r, span].tolist(),
            profile.min_hr if profile is not None else math.inf,
        )
        grid.steps[r, span] += [s for s, _ in parts]
        grid.distance_m[r, span] += [d for _, d in parts]

    # a user's consecutive days are consecutive rows, so an interval that
    # crosses local midnight is one slice of the flattened column
    for column, user, start, end, code in paints:
        first = cell(user, start)
        getattr(grid, column).reshape(-1)[first : first + end - start] = code
    return AlignedData(days=grid, profiles=profiles)


class NotFinite(ValueError):
    """A field that must hold a finite number holds inf or NaN."""


def field_error(
    kind: str,
    header: Sequence[str],
    line: int,
    row: Sequence[str],
    converters: Mapping[int, Callable[[str], object]],
) -> ValueError:
    """The error for a row of a ``kind`` CSV whose fields did not all
    convert: it names the row and the first field, by its ``header`` name,
    that its converter in ``converters`` (column -> converter) rejects. A
    row whose converters reject nothing but a non-finite number gets
    NotFinite's message."""
    problem = None
    for column, convert in converters.items():
        try:
            convert(row[column])
        except NotFinite as err:
            problem = problem or str(err)
        except (ValueError, KeyError):
            problem = f"bad {header[column]} {row[column]!r}"
            break
    return ValueError(f"{kind} CSV row {line}: {problem}")


@dataclass(frozen=True)
class MinuteField:
    """One field of a per-minute CSV after the minute, and the DayGrid
    column it fills.

    - ``converter(labels)``: the converter of the field's texts, which
      defines the field; both readers, per row and columnar, convert with
      it, and a ValueError or KeyError rejects the text (see field_error)
    - ``encode(days, suffix)``: the writer's table of texts, each followed
      by ``suffix``, and each minute's code into it, flattened

    ``labels`` is the dict of one read that numbers the labels in order of
    first appearance; only the label field (``LABEL_FIELD``) uses it.
    """

    column: str
    converter: Callable[[dict[str, int]], Callable[[str], object]]
    encode: Callable[[DayGrid, str], tuple[Iterable[str], np.ndarray]]


def value_field(
    column: str,
    convert: Callable[[str], object],
    table: Callable[[np.ndarray, str], Iterable[str]],
) -> MinuteField:
    """The field of a value column: ``convert`` of each text, written
    through ``table(values, suffix)``, the texts of the column's sorted
    distinct values (float64 columns as bit patterns, see codec.float_keys,
    so -0.0 keeps its own text)."""
    key = codec.float_keys if _COLUMNS[column][0] is np.float64 else np.asarray

    def encode(days: DayGrid, suffix: str) -> tuple[Iterable[str], np.ndarray]:
        values, codes = codec.value_codes(key(getattr(days, column)))
        return table(values, suffix), codes

    return MinuteField(column, lambda labels: convert, encode)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise NotFinite("pulse and distance must be finite")
    return value


def _pulse(text: str) -> float:
    return _finite(text) if text != "" else math.nan


_STATES = list(SleepState)


def state_field(code_of: Mapping[str, int]) -> MinuteField:
    """The sleep-state field whose texts are the keys of ``code_of`` (state
    value -> SLEEP_CODE); any other text is rejected."""
    return value_field(
        "sleep",
        code_of.__getitem__,
        lambda codes, suffix: [_STATES[code].value + suffix for code in codes.tolist()],
    )


def _label_code(text: str, labels: dict[str, int]) -> int:
    return labels.setdefault(text, len(labels)) if text else -1


def _label_texts(days: DayGrid, suffix: str) -> tuple[list[str], np.ndarray]:
    texts = ["", *codec.csv_fields(days.labels)]
    return [text + suffix for text in texts], days.schedule.reshape(-1) + 1


_INT64 = np.iinfo(np.int64)


def _steps(text: str) -> int:
    value = int(text)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"steps {value} outside int64")
    return value


#: The steps column as int64 integers.
STEPS_FIELD = value_field(
    "steps",
    _steps,
    lambda values, suffix: [f"{value}{suffix}" for value in values.tolist()],
)

#: The schedule column as a label per minute, empty where there is none;
#: labels get codes in order of first appearance.
LABEL_FIELD = MinuteField(
    "schedule", lambda labels: partial(_label_code, labels=labels), _label_texts
)


@dataclass(frozen=True)
class MinuteFormat:
    """A per-minute CSV of a DayGrid: one row per minute of each user-day.

    ``header`` starts with user, date and minute; ``fields`` holds one
    MinuteField per column after the minute, and a DayGrid column that no
    field fills reads as its empty value. ``kind`` names the file in error
    messages. ``write``, ``read`` and ``read_rows`` serve every format.
    """

    kind: str
    header: tuple[str, ...]
    fields: tuple[MinuteField, ...]

    def write(self, days: DayGrid) -> str:
        """The canonical CSV text of ``days`` (the text of ``chunks``)."""
        return codec.text_of(self.chunks(days))

    def chunks(self, days: DayGrid) -> Iterator[bytes | memoryview]:
        """The canonical CSV bytes of ``days``, in row order, a block of
        user-days at a time (see codec.join_rows): each distinct value
        formatted once, and users and labels quoted as csv.writer quotes
        them."""
        per_block = max(codec.BLOCK_ROWS // MINUTES_PER_DAY, 1)
        users = codec.csv_fields(user for user, _ in days.keys)
        last = len(self.fields) - 1
        encoded = [f.encode(days, "\n" if k == last else ",") for k, f in enumerate(self.fields)]
        tables = [
            [f"{user},{day.isoformat()}," for user, (_, day) in zip(users, days.keys)],
            [f"{minute}," for minute in range(MINUTES_PER_DAY)],
            *(texts for texts, _ in encoded),
        ]

        def blocks():
            for lo in range(0, len(days), per_block):
                n = len(days.keys[lo : lo + per_block])
                minutes = slice(lo * MINUTES_PER_DAY, (lo + n) * MINUTES_PER_DAY)
                yield (
                    np.repeat(np.arange(lo, lo + n), MINUTES_PER_DAY),
                    np.tile(np.arange(MINUTES_PER_DAY), n),
                    *(codes[minutes] for _, codes in encoded),
                )

        return codec.join_rows(",".join(self.header) + "\n", tables, blocks())

    def read(self, stream: Iterable[str] | IO[str]) -> DayGrid:
        """Parse the text back into a grid.

        Each user-day must list its minutes 0..1439 once each, in order, on
        consecutive rows, and every field must convert; any other row is a
        ValueError naming it. The grid's labels are exactly those that occur
        in the text. A seekable text stream in the canonical form is parsed
        as columns; anything else, and any error, goes through ``read_rows``.
        """
        return codec.parse_whole(stream, self.header, self._read_columns, self.read_rows)

    def read_rows(self, stream: Iterable[str] | IO[str]) -> DayGrid:
        """The per-row reader: every form the csv module reads and every
        error message with its row number."""
        keys: list[tuple[str, date]] = []
        labels: dict[str, int] = {}
        converters = {c: f.converter(labels) for c, f in enumerate(self.fields, 3)}
        columns = [array(np.dtype(_COLUMNS[field.column][0]).char) for field in self.fields]
        for line, row, day in minute_rows(stream, self.header, self.kind):
            if day is not None:
                keys.append((row[0], day))
            try:
                values = [convert(text) for convert, text in zip(converters.values(), row[3:])]
            except (ValueError, KeyError):
                raise field_error(self.kind, self.header, line, row, converters) from None
            for column, value in zip(columns, values):
                column.append(value)
        columns = [np.frombuffer(values, values.typecode) for values in columns]
        return _sorted_grid(keys, labels, dict(zip((f.column for f in self.fields), columns)))

    def _read_columns(self, n: int, lines) -> DayGrid:
        """The grid in the ``n`` rows of the blocks of ``lines`` (see
        codec.parse_whole) when they are canonical (see ``minute_columns``);
        raises codec.NotCanonical otherwise."""
        labels: dict[str, int] = {}
        converters = [(f.converter(labels), _COLUMNS[f.column][0]) for f in self.fields]
        keys, columns = minute_columns(n, lines, converters)
        return _sorted_grid(keys, labels, dict(zip((f.column for f in self.fields), columns)))


#: ``aligned.csv`` and ``imputed.csv``: a pulse (empty for no reading) and a
#: distance must be finite.
ALIGNED_FORMAT = MinuteFormat(
    "aligned",
    ALIGNED_HEADER,
    (
        value_field("pulse", _pulse, partial(codec.number_texts, nan_text="")),
        STEPS_FIELD,
        value_field("distance_m", _finite, codec.number_texts),
        state_field({state.value: code for state, code in SLEEP_CODE.items()}),
        LABEL_FIELD,
    ),
)


def write_aligned_csv(days: DayGrid) -> str:
    """Serialize aligned (or imputed) days to canonical CSV text: one row per
    minute, each distinct value formatted once (``format_number``; a
    missing pulse is an empty field)."""
    return ALIGNED_FORMAT.write(days)


def read_aligned_csv(stream: Iterable[str] | IO[str]) -> DayGrid:
    """Parse aligned CSV text back into a grid (see ``MinuteFormat.read``);
    a non-finite pulse or distance is a ValueError naming the row."""
    return ALIGNED_FORMAT.read(stream)


def minute_rows(
    stream: Iterable[str] | IO[str], header: Sequence[str], kind: str
) -> Iterator[tuple[int, list[str], date | None]]:
    """The rows of a per-minute CSV whose fields start with user, date and
    minute, as ``(line, row, day)``: ``day`` is the parsed date on the first
    row of each user-day and None on the others.

    Each user-day must list its minutes 0..1439 once each, in order, on
    consecutive rows, and appear once. A missing or wrong header, a row with
    another number of fields than ``header``, a malformed date or minute, and a
    missing, duplicate or out-of-range minute are a ValueError naming the
    row; ``kind`` names the file in the message.
    """
    seen: set[tuple[str, str]] = set()
    current = None
    due = MINUTES_PER_DAY
    for line, row in csv_rows(stream, header, kind):
        try:
            minute = int(row[2])
        except ValueError:
            raise field_error(kind, header, line, row, {2: int}) from None
        if not 0 <= minute < MINUTES_PER_DAY:
            raise ValueError(
                f"{kind} CSV row {line}: minute {minute} outside [0, {MINUTES_PER_DAY})"
            )
        day = None
        if (row[0], row[1]) != current:
            if due != MINUTES_PER_DAY:
                raise ValueError(
                    f"{kind} CSV row {line}: {current[0]} {current[1]} ends before minute {due}"
                )
            current = (row[0], row[1])
            if current in seen:
                raise ValueError(f"{kind} CSV row {line}: {row[0]} {row[1]} appears twice")
            seen.add(current)
            try:
                day = date.fromisoformat(row[1])
            except ValueError:
                raise field_error(kind, header, line, row, {1: date.fromisoformat}) from None
            due = 0
        if minute != due:
            problem = f"repeats minute {minute}" if minute < due else f"skips minute {due}"
            raise ValueError(f"{kind} CSV row {line}: {row[0]} {row[1]} {problem}")
        due += 1
        yield line, row, day
    if due != MINUTES_PER_DAY:
        raise ValueError(
            f"{kind} CSV ends at row {line} before minute {due} of "
            f"{current[0]} {current[1]}"
        )


#: The text of every minute of a day, end to end, and where each begins.
_MINUTES = np.frombuffer("".join(map(str, range(MINUTES_PER_DAY))).encode(), np.uint8)
_MINUTE_AT = np.cumsum([0, *(len(str(m)) for m in range(MINUTES_PER_DAY))])


def minute_columns(
    n: int,
    lines: Iterable[tuple[np.ndarray, np.ndarray]],
    fields: Sequence[tuple[Callable[[str], object], type]],
) -> tuple[list[tuple[str, date]], list[np.ndarray]]:
    """The columnar reader of a per-minute CSV whose fields start with user,
    date and minute (``minute_rows`` is its per-row reader).

    Reads the ``n`` rows of the blocks of ``lines`` (see
    ``codec.parse_whole``) when they are canonical: unquoted fields, every
    user-day on 1440 consecutive rows with minutes 0..1439 in order,
    written as ``str(minute)``, each user-day once, and every field
    accepted by its converter. ``fields`` holds ``(convert, dtype)`` for
    each column after the minute: the per-row converter (see MinuteField),
    applied once to each distinct text of a block, in order of first
    appearance, so a converter that numbers what it meets numbers it as a
    per-row read does. Returns the user-days in file order and each
    field's column, one row per minute; raises codec.NotCanonical for
    anything else, a text the converter rejects included.
    """
    if n % MINUTES_PER_DAY:
        raise codec.NotCanonical
    columns = [np.empty(n, dtype) for _, dtype in fields]
    heads: list[bytes] = []
    previous = b""
    r = 0
    for block, ends in lines:
        rows = slice(r, r + len(ends))
        minute = np.arange(rows.start, rows.stop) % MINUTES_PER_DAY
        expected = _MINUTES, _MINUTE_AT[minute], _MINUTE_AT[minute + 1]
        if not codec.equal_texts(block, *codec.field_bounds(ends, 2), *expected):
            raise codec.NotCanonical
        # "user,date" of each row: that of its user-day's minute-0 row, or of
        # the previous block's last row for a user-day that began there
        head_start, head_end = codec.field_bounds(ends, 0)[0], ends[:, 1]
        day_start = np.maximum(np.arange(len(ends)) - minute, 0)
        if not codec.equal_texts(
            block, head_start, head_end, block, head_start[day_start], head_end[day_start]
        ) or (minute[0] and block[head_start[0] : head_end[0]].tobytes() != previous):
            raise codec.NotCanonical
        previous = block[head_start[-1] : head_end[-1]].tobytes()
        for a, b in zip(head_start[minute == 0].tolist(), head_end[minute == 0].tolist()):
            heads.append(block[a:b].tobytes())
        for field, ((convert, dtype), column) in enumerate(zip(fields, columns), 3):
            texts, first, inv = codec.distinct(block, *codec.field_bounds(ends, field))
            order = np.argsort(first).tolist()
            values = np.empty(len(texts), dtype)
            values[order] = codec.convert([texts[k].decode() for k in order], convert, dtype)
            column[rows] = values[inv]
        r = rows.stop
    if len(set(heads)) < len(heads):
        raise codec.NotCanonical  # a user-day listed twice
    try:
        pairs = (head.decode().split(",") for head in heads)
        keys = [(user, date.fromisoformat(day)) for user, day in pairs]
    except ValueError:
        raise codec.NotCanonical from None
    return keys, columns


def _sorted_grid(
    keys: list[tuple[str, date]], labels: dict[str, int], columns: dict[str, np.ndarray]
) -> DayGrid:
    """The grid of per-minute ``columns`` (``len(keys)`` days, in file order),
    with its rows sorted by key; a column missing from ``columns`` holds its
    empty value. Columns already in key order are reshaped, not copied."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    shape = (len(keys), MINUTES_PER_DAY)
    rows = slice(None) if order == list(range(len(keys))) else order
    return DayGrid(
        keys=tuple(keys[r] for r in order),
        labels=tuple(labels),
        **{
            name: columns[name].reshape(shape)[rows]
            if name in columns
            else np.full(shape, empty, dtype)
            for name, (dtype, empty) in _COLUMNS.items()
        },
    )


def write_profiles_csv(profiles: Mapping[tuple[str, date], PersonalHrProfile]) -> str:
    return csv_text(
        PROFILE_HEADER,
        (
            (
                user,
                day.isoformat(),
                format_number(p.min_hr),
                format_number(p.max_hr),
                str(p.n_pulses),
                "1" if p.low_confidence else "0",
            )
            for (user, day), p in sorted(profiles.items())
        ),
    )


#: The converters of the profile CSV's date and number fields, by column.
_PROFILE_FIELDS: dict[int, Callable[[str], object]] = {
    1: date.fromisoformat, 2: float, 3: float, 4: int,
}


def read_profiles_csv(
    stream: Iterable[str] | IO[str],
) -> dict[tuple[str, date], PersonalHrProfile]:
    """The profiles of a ``write_profiles_csv`` text by (user, day). A row
    with a bad field or a second row of a user-day is a ValueError naming
    the row."""
    profiles: dict[tuple[str, date], PersonalHrProfile] = {}
    for line, row in csv_rows(stream, PROFILE_HEADER, "profile"):
        try:
            day, min_hr, max_hr, n_pulses = (f(row[c]) for c, f in _PROFILE_FIELDS.items())
        except ValueError:
            raise field_error("profile", PROFILE_HEADER, line, row, _PROFILE_FIELDS) from None
        if (row[0], day) in profiles:
            raise ValueError(f"profile CSV row {line}: user {row[0]!r} has a second row for {day}")
        profiles[(row[0], day)] = PersonalHrProfile(
            user_id=row[0], day=day, min_hr=min_hr, max_hr=max_hr, n_pulses=n_pulses,
            low_confidence=row[5] == "1",
        )
    return profiles
