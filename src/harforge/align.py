"""Fusion of the raw streams onto the local per-minute grid.

Heart-rate samples are averaged into one pulse per minute. Each 15-minute
activity summary is spread over its minutes in proportion to how far each
minute's pulse sits above a low-pulse cutoff (a truncated-linear weighting),
so steps land on the minutes that were actually active; a block whose pulses
all sit below the cutoff falls back to a uniform spread. Device sleep
segments and schedule blocks are painted onto the same grid.

The fused result is a DayGrid: one row of 1440 local minutes per user-day
and one numpy array per column, so every later stage reads columns rather
than per-minute objects. Each row also carries its user-day's personal
heart-rate envelope (``min_hr``, ``max_hr``): percentiles of the day's
pulses, or of the user's whole history, taken for all rows at once (see
``percentile_rows``). ``profiles.csv`` stores the envelope beside the
per-minute file, and ``read_profiles_csv`` fills it back into a grid.

Every activity block of the cohort is spread in one array pass (see
``redistribute``): one row of 15 minutes per block. Steps are apportioned
as integers with the largest-remainder method, so each block total is
conserved exactly; distance is split proportionally as a real number.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
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

#: An envelope from fewer pulse minutes than this is low-confidence in
#: profiles.csv.
MIN_CONFIDENT_PULSES = 60

#: A minute participates in block redistribution only while its pulse
#: exceeds LTM_CUTOFF_FACTOR * min_hr.
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

    ``min_hr`` and ``max_hr`` hold one float64 per row: the personal
    heart-rate envelope of the row's user-day, the MIN_HR_PERCENTILE and
    MAX_HR_PERCENTILE of its pulses (or of all its user's pulses; see
    align_cohort), NaN for a user-day without one.
    """

    keys: tuple[tuple[str, date], ...]
    labels: tuple[str, ...]
    pulse: np.ndarray
    steps: np.ndarray
    distance_m: np.ndarray
    sleep: np.ndarray
    schedule: np.ndarray
    min_hr: np.ndarray
    max_hr: np.ndarray

    @classmethod
    def empty(cls, keys: Sequence[tuple[str, date]], labels: Sequence[str] = ()) -> DayGrid:
        """Rows for sorted ``keys``: no pulse or movement, Unknown sleep, no
        schedule, no envelope."""
        shape = (len(keys), MINUTES_PER_DAY)
        return cls(
            tuple(keys),
            tuple(labels),
            **{name: np.full(shape, empty, dtype) for name, (dtype, empty) in _COLUMNS.items()},
            min_hr=np.full(len(keys), np.nan),
            max_hr=np.full(len(keys), np.nan),
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


@dataclass
class AlignedData:
    """Cohort-wide alignment result: the fused grid, its heart-rate envelope
    filled in, and ``n_pulses``, the int64 number of pulse minutes each row's
    envelope was derived from (0 for a row without one)."""

    days: DayGrid
    n_pulses: np.ndarray


def percentile_rows(pulse: np.ndarray, q: float) -> np.ndarray:
    """The q-th percentile of each row's non-NaN values, NaN for a row with
    none.

    Linear interpolation between order statistics: the rank of q over a
    row's n sorted values is q/100 * (n-1), and a fractional rank
    interpolates between its two neighbours.
    """
    v = np.sort(pulse, axis=1)  # NaN last
    n = np.count_nonzero(~np.isnan(pulse), axis=1)
    rank = (q / 100.0) * (np.maximum(n, 1) - 1)
    lo, rows = np.floor(rank), np.arange(len(v))
    low = v[rows, lo.astype(np.intp)]
    high = v[rows, np.ceil(rank).astype(np.intp)]
    return low + (rank - lo) * (high - low)


def _row_sums(weights: np.ndarray) -> np.ndarray:
    """The sum of each row of ``weights``, added left to right one column at
    a time: ``ndarray.sum`` adds pairwise and Python 3.12's ``sum`` is
    compensated, so either would change the low bits of some sums."""
    sums = np.zeros(len(weights))
    for column in weights.T:
        sums += column
    return sums


def apportion(totals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apportion each ``totals[i]`` integer units over row ``weights[i]`` in
    proportion to its weights, by the largest-remainder method.

    Every slot gets the floor of its quota ``total * w / s``; the leftover
    units go to the largest fractional parts, ties broken toward the lower
    index. Each row of the int64 result sums to its total exactly. A total
    must be non-negative and each row's weights must have a positive sum.
    """
    quotas = totals[:, None] * weights / _row_sums(weights)[:, None]
    base = np.floor(quotas).astype(np.int64)
    order = np.argsort(base - quotas, axis=1, kind="stable")
    leftover = totals - base.sum(axis=1)
    # order.argsort is each slot's place in order
    return base + (order.argsort(axis=1) < leftover[:, None])


def redistribute(
    steps: np.ndarray, distance_m: np.ndarray, pulses: np.ndarray, min_hr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Spread each block's steps and distance over its minutes.

    Row i is one block: ``steps[i]``, ``distance_m[i]``, the pulses of its
    minutes ``pulses[i]`` and its day's ``min_hr[i]``. Each minute carries
    weight max(0, pulse - LTM_CUTOFF_FACTOR * min_hr); a NaN pulse or min_hr
    gives weight 0, and a block whose weights are all zero is spread
    uniformly. Returns the per-minute steps (``apportion``, so each row
    sums to its block's steps exactly) and distances ``d * w / s``.
    """
    weights = np.fmax(pulses - LTM_CUTOFF_FACTOR * min_hr[:, None], 0.0)
    weights[_row_sums(weights) <= 0.0] = 1.0
    s = _row_sums(weights)
    return apportion(steps, weights), distance_m[:, None] * weights / s[:, None]


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
    picks where each row's heart-rate envelope (``DayGrid.min_hr`` and
    ``max_hr``) comes from: "day" derives it from the user-day's own
    pulses, "global" pools each user's whole history and every row of the
    user shares it. A row without pulses to derive it from keeps NaN.

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
    del hr_minute, hr_key, cells, count, total, has

    # the envelope of each row: percentiles of its own day's pulses, or of
    # all its user's pulses as one row shared by every day of the user; a
    # user at a time, so the sorted copy is one user's rows
    n_pulses = np.zeros(len(grid), np.int64)
    for rows in grid.user_rows().values():
        pulse = grid.pulse[rows] if profile_scope == "day" else grid.pulse[rows].reshape(1, -1)
        grid.min_hr[rows] = percentile_rows(pulse, MIN_HR_PERCENTILE)
        grid.max_hr[rows] = percentile_rows(pulse, MAX_HR_PERCENTILE)
        n_pulses[rows] = np.count_nonzero(~np.isnan(pulse), axis=1)

    # every block as one row of its 15 flat grid cells; a block's steps and
    # distance are added, so a block listed twice counts twice and a -0.0
    # distance lands as +0.0
    first = np.array([cell(user, minute) for user, minute, _ in blocks], np.int64)
    misfit = np.flatnonzero(first % BLOCK_MINUTES)
    if misfit.size:
        minute = first[misfit[0]] % MINUTES_PER_DAY
        raise ValueError(f"activity block at minute {minute} does not fit the local grid")
    steps = np.array([b.steps for _, _, b in blocks], np.int64)
    distance = np.array([b.distance_m for _, _, b in blocks], np.float64)
    if (steps < 0).any() or (distance < 0).any():
        raise ValueError("steps and distance must be non-negative")
    cells = first[:, None] + np.arange(BLOCK_MINUTES)
    min_hr = grid.min_hr[first // MINUTES_PER_DAY]
    parts = redistribute(steps, distance, grid.pulse.reshape(-1)[cells], min_hr)
    np.add.at(grid.steps.reshape(-1), cells, parts[0])
    np.add.at(grid.distance_m.reshape(-1), cells, parts[1])

    # a user's consecutive days are consecutive rows, so an interval that
    # crosses local midnight is one slice of the flattened column
    for column, user, start, end, code in paints:
        first = cell(user, start)
        getattr(grid, column).reshape(-1)[first : first + end - start] = code
    return AlignedData(days=grid, n_pulses=n_pulses)


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
        min_hr=np.full(len(keys), np.nan),
        max_hr=np.full(len(keys), np.nan),
    )


def _low_confidence(n_pulses: int) -> str:
    """The ``low_confidence`` field of a profile row with ``n_pulses``."""
    return "1" if n_pulses < MIN_CONFIDENT_PULSES else "0"


def write_profiles_csv(aligned: AlignedData) -> str:
    """The profiles CSV of ``aligned``: one row per user-day with an
    envelope, in key order, marked low-confidence when its envelope comes
    from fewer than MIN_CONFIDENT_PULSES pulse minutes."""
    days = aligned.days
    rows = zip(days.keys, days.min_hr.tolist(), days.max_hr.tolist(), aligned.n_pulses.tolist())
    return csv_text(
        PROFILE_HEADER,
        (
            (
                user,
                day.isoformat(),
                format_number(min_hr),
                format_number(max_hr),
                str(n),
                _low_confidence(n),
            )
            for (user, day), min_hr, max_hr, n in rows
            if n > 0
        ),
    )


#: The converters of the profile CSV's date and number fields, by column.
_PROFILE_FIELDS: dict[int, Callable[[str], object]] = {
    1: date.fromisoformat, 2: float, 3: float, 4: int,
}


def _profile_problem(low: float, high: float, n_pulses: int, flag: str) -> str | None:
    """What ``write_profiles_csv`` could not have written in a row with this
    envelope, pulse count and ``low_confidence`` field, or None."""
    for name, value in (("min_hr", low), ("max_hr", high)):
        if not math.isfinite(value) or value < 0.0:
            return f"{name} must be finite and not negative, got {value!r}"
    if high < low:
        return f"max_hr {high!r} is below min_hr {low!r}"
    if n_pulses < 1:
        return f"n_pulses must be at least 1, got {n_pulses}"
    want = _low_confidence(n_pulses)
    if flag != want:
        return f"low_confidence must be {want!r} for {n_pulses} pulses, got {flag!r}"
    return None


def read_profiles_csv(stream: Iterable[str] | IO[str], days: DayGrid) -> DayGrid:
    """``days`` with the envelope of a ``write_profiles_csv`` text filled in;
    a user-day without a row keeps NaN. A row with a bad field, an envelope
    that is not finite, is negative or has ``max_hr`` below ``min_hr``, fewer
    than one pulse, a ``low_confidence`` other than the one its pulse count
    gives, a second row of a user-day or a user-day that is not a row of
    ``days`` is a ValueError naming the row."""
    row_of = {key: r for r, key in enumerate(days.keys)}
    seen: set[tuple[str, date]] = set()
    min_hr = np.full(len(days), np.nan)
    max_hr = np.full(len(days), np.nan)
    for line, row in csv_rows(stream, PROFILE_HEADER, "profile"):
        try:
            day, low, high, n_pulses = (f(row[c]) for c, f in _PROFILE_FIELDS.items())
        except ValueError:
            raise field_error("profile", PROFILE_HEADER, line, row, _PROFILE_FIELDS) from None
        problem = _profile_problem(low, high, n_pulses, row[5])
        if problem is not None:
            raise ValueError(f"profile CSV row {line}: {problem}")
        key = (row[0], day)
        if key in seen:
            raise ValueError(f"profile CSV row {line}: user {row[0]!r} has a second row for {day}")
        if key not in row_of:
            raise ValueError(f"profile CSV row {line}: user {row[0]!r} has no grid row for {day}")
        seen.add(key)
        min_hr[row_of[key]] = low
        max_hr[row_of[key]] = high
    return replace(days, min_hr=min_hr, max_hr=max_hr)
