"""Strict parsers and canonical serializers for the four raw stream formats.

All four formats are UTF-8 CSV with a mandatory header row and ISO-8601 UTC
timestamps (trailing ``Z`` or ``+00:00``). Structural problems raise
StreamFormatError carrying the offending line number instead of skipping the
row: silently dropped data would bias every downstream statistic, so bad
input is rejected outright.

Parsing is order-insensitive. Records are sorted per user by timestamp (with
the value as a final tie-break), and exact duplicates of a (user, timestamp)
key keep the first entry of the sorted group, so shuffling the input rows of
a file never changes the parsed result.

Heart rate, by far the largest stream, parses into one HrStream of numpy
columns. A file in the canonical form ``serialize_hr_stream`` writes is
split into columns with numpy (``harforge.codec``); any other file, and
every file with an error, goes row by row through ``parse_hr_rows``, which
defines the format and its error messages. The three small streams parse
into lists of records, row by row.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import codec
from .core import (
    EPOCH_ORDINAL,
    SECONDS_PER_DAY,
    ActivityTaxonomy,
    ScheduleBlock,
    SleepState,
    as_utc,
    csv_text,
    epoch_second,
    format_number,
)

HR_HEADER = ("user_id", "timestamp", "hr_bpm")
ACTIVITY_HEADER = ("user_id", "block_start", "steps", "distance_m")
SLEEP_HEADER = ("user_id", "start", "end", "state")
SCHEDULE_HEADER = ("user_id", "start", "end", "activity_l2")

#: Device activity summaries always cover this many minutes.
BLOCK_MINUTES = 15


class StreamFormatError(ValueError):
    """Raised for any structural problem in a raw stream file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True, eq=False)
class HrStream:
    """Heart-rate readings as columns, sorted by (user, second), one row per key.

    - ``users``: the sorted user ids
    - ``user``: int64 codes into ``users``
    - ``second``: int64 UTC epoch seconds
    - ``bpm``: float64 positive readings
    """

    users: tuple[str, ...]
    user: np.ndarray
    second: np.ndarray
    bpm: np.ndarray

    def __len__(self) -> int:
        return len(self.second)


@dataclass(frozen=True, slots=True)
class RawActivityBlock:
    """Device summary of one 15-minute window starting at ``block_start``."""

    user_id: str
    block_start: datetime
    steps: int
    distance_m: float


@dataclass(frozen=True, slots=True)
class RawSleepSegment:
    """Device-scored interval [start, end) with a sleep or awake state."""

    user_id: str
    start: datetime
    end: datetime
    state: SleepState


def _iter_rows(stream: Iterable[str] | IO[str], header: Sequence[str]):
    reader = csv.reader(stream)
    try:
        got = next(reader)
    except StopIteration:
        raise StreamFormatError("missing header row") from None
    if tuple(h.strip() for h in got) != tuple(header):
        raise StreamFormatError(
            f"expected header {','.join(header)!r}, got {','.join(got)!r}", line=1
        )
    n_fields = len(header)
    for row in reader:
        if not row:
            continue  # tolerate blank lines, they carry no data
        if len(row) != n_fields:
            raise StreamFormatError(
                f"expected {n_fields} fields, got {len(row)}", line=reader.line_num
            )
        yield reader.line_num, row


def _parse_user(text: str, line: int) -> str:
    user = text.strip()
    if not user:
        raise StreamFormatError("empty user_id", line=line)
    return user


def _parse_timestamp(text: str, line: int) -> datetime:
    t = text.strip()
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(t)
    except ValueError:
        raise StreamFormatError(f"bad timestamp {text.strip()!r}", line=line) from None
    return as_utc(ts)


def _parse_float(text: str | bytes, name: str, line: int | None) -> float:
    try:
        value = float(text)
    except ValueError:
        raise StreamFormatError(f"non-numeric {name} {text!r}", line=line) from None
    if math.isnan(value) or math.isinf(value):
        raise StreamFormatError(f"non-finite {name} {text!r}", line=line)
    return value


def _parse_bpm(text: str | bytes, line: int | None = None) -> float:
    """A positive, finite hr_bpm; ``text`` is bytes in the columnar parser."""
    hr = _parse_float(text, "hr_bpm", line)
    if hr <= 0:
        raise StreamFormatError(f"hr_bpm must be positive, got {hr}", line=line)
    return hr


def _parse_int(text: str, name: str, line: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise StreamFormatError(f"non-integer {name} {text!r}", line=line) from None


def _minute_aligned(ts: datetime) -> bool:
    return ts.second == 0 and ts.microsecond == 0


def parse_hr_stream(stream: Iterable[str] | IO[str]) -> HrStream:
    """Parse ``user_id,timestamp,hr_bpm`` rows into sorted, deduplicated columns.

    A seekable text stream in the canonical form is parsed as columns
    (``_parse_hr_columns``); anything else, and any error, goes through
    ``parse_hr_rows``, so both give the same result."""
    return codec.parse_whole(stream, HR_HEADER, _parse_hr_columns, parse_hr_rows, _HR_FORBIDDEN)


def parse_hr_rows(stream: Iterable[str] | IO[str]) -> HrStream:
    """The per-row HR parser: every form the format allows (``+00:00``,
    naive and lowercase ``z`` timestamps, quoted ids, blank lines, CRLF) and
    every error message with its line number."""
    code_of: dict[str, int] = {}
    codes, seconds, values = array("q"), array("q"), array("d")
    for line, row in _iter_rows(stream, HR_HEADER):
        name = _parse_user(row[0], line)
        ts = _parse_timestamp(row[1], line)
        if ts.microsecond:
            raise StreamFormatError(f"sub-second timestamp {row[1].strip()!r}", line=line)
        codes.append(code_of.setdefault(name, len(code_of)))
        seconds.append(epoch_second(ts))
        values.append(_parse_bpm(row[2], line))
    return _hr_stream(
        code_of,
        np.frombuffer(codes, np.int64),
        np.frombuffer(seconds, np.int64),
        np.frombuffer(values, np.float64),
    )


#: Byte layout of a canonical timestamp; ``0`` marks a digit.
_TIMESTAMP = b"0000-00-00T00:00:00Z"
_HR_FORBIDDEN = codec.FORBIDDEN.copy()
_HR_FORBIDDEN[ord(" ")] = True  # the per-row parser strips spaces around fields


def _parse_hr_columns(n: int, lines) -> HrStream:
    """The ``n`` HR rows of the blocks of ``lines`` (see codec.parse_whole)
    when every row is canonical: ``user,YYYY-MM-DDTHH:MM:SSZ,bpm`` with a
    non-empty user id without spaces, a valid date and time, and a bpm
    that ``_parse_bpm`` accepts. Raises codec.NotCanonical otherwise."""
    code_of: dict[str, int] = {}
    day_of: dict[int, int] = {}
    user = np.empty(n, np.int64)
    second = np.empty(n, np.int64)
    bpm = np.empty(n, np.float64)
    r = 0
    for block, ends in lines:
        rows = slice(r, r + len(ends))
        r += len(ends)
        names, _, inv = codec.distinct(block, *codec.field_bounds(ends, 0))
        if b"" in names:
            raise codec.NotCanonical
        user[rows] = np.array([code_of.setdefault(u.decode(), len(code_of)) for u in names])[inv]
        second[rows] = _canonical_seconds(block, *codec.field_bounds(ends, 1), day_of)
        texts, _, inv = codec.distinct(block, *codec.field_bounds(ends, 2))
        bpm[rows] = codec.convert(texts, _parse_bpm, np.float64)[inv]
    return _hr_stream(code_of, user, second, bpm)


def _canonical_seconds(
    block: np.ndarray, start: np.ndarray, end: np.ndarray, day_of: dict[int, int]
) -> np.ndarray:
    """Epoch seconds of canonical timestamps, read one byte column at a
    time; ``day_of`` caches the epoch day of each YYYYMMDD."""
    if ((end - start) != len(_TIMESTAMP)).any():
        raise codec.NotCanonical
    bad = np.zeros(len(start), bool)
    digits = []
    for j, expect in enumerate(_TIMESTAMP):
        column = block[start + j]
        if expect == ord("0"):
            column = column - ord("0")  # wraps below 0, so a non-digit is > 9
            bad |= column > 9
            digits.append(column)
        else:
            bad |= column != expect
    if bad.any():
        raise codec.NotCanonical

    def number(*positions):  # at most 8 digits: an int32
        value = digits[positions[0]].astype(np.int32)
        for k in positions[1:]:
            value = value * 10 + digits[k]
        return value

    hour, minute, sec = number(8, 9), number(10, 11), number(12, 13)
    if (hour > 23).any() or (minute > 59).any() or (sec > 59).any():
        raise codec.NotCanonical
    ymd, inv = np.unique(number(0, 1, 2, 3, 4, 5, 6, 7), return_inverse=True)
    try:
        for key in ymd.tolist():
            if key not in day_of:
                y, md = divmod(key, 10000)
                day_of[key] = date(y, *divmod(md, 100)).toordinal() - EPOCH_ORDINAL
    except ValueError:
        raise codec.NotCanonical from None
    day = np.array([day_of[key] for key in ymd.tolist()], np.int64)[inv]
    return day * SECONDS_PER_DAY + hour * 3600 + minute * 60 + sec


def _hr_stream(
    code_of: dict[str, int], codes: np.ndarray, second: np.ndarray, bpm: np.ndarray
) -> HrStream:
    """Rows with ``codes`` into ``code_of`` (in any order), sorted by user
    name and second, with one row per key. The three columns are renumbered
    and sorted in place, so the caller must not use them afterwards."""
    users = sorted(code_of)
    user = codes
    if users != list(code_of):  # codes are in order of first appearance
        rank = {name: r for r, name in enumerate(users)}
        user[:] = np.array([rank[name] for name in code_of], np.int64)[user]
    same_user = user[1:] == user[:-1]
    same_key = same_user & (second[1:] == second[:-1])
    later = (
        (user[1:] > user[:-1])
        | (same_user & (second[1:] > second[:-1]))
        | (same_key & (bpm[1:] >= bpm[:-1]))
    )
    # rows already in key order skip the sort: lexsort is stable, so it
    # would leave them in place; a NaN bpm compares false and is sorted
    if not later.all():
        order = np.lexsort((bpm, second, user))
        for column in (user, second, bpm):
            column[:] = column[order]
        del order
        same_key = (user[1:] == user[:-1]) & (second[1:] == second[:-1])
    if not same_key.any():
        return HrStream(tuple(users), user, second, bpm)
    # duplicate key: keep the first of the sorted group, the lowest value
    first = np.ones(len(user), bool)
    first[1:] = ~same_key
    return HrStream(tuple(users), user[first], second[first], bpm[first])


def parse_activity_blocks(stream: Iterable[str] | IO[str]) -> list[RawActivityBlock]:
    """Parse 15-minute activity summaries; rejects misaligned or overlapping blocks."""
    parsed: list[tuple[int, RawActivityBlock]] = []
    for line, row in _iter_rows(stream, ACTIVITY_HEADER):
        user = _parse_user(row[0], line)
        start = _parse_timestamp(row[1], line)
        if not _minute_aligned(start) or start.minute % BLOCK_MINUTES != 0:
            raise StreamFormatError(
                f"block_start {row[1].strip()!r} not on a {BLOCK_MINUTES}-minute boundary",
                line=line,
            )
        steps = _parse_int(row[2], "steps", line)
        if steps < 0:
            raise StreamFormatError(f"steps must be >= 0, got {steps}", line=line)
        distance = _parse_float(row[3], "distance_m", line)
        if distance < 0:
            raise StreamFormatError(f"distance_m must be >= 0, got {distance}", line=line)
        parsed.append((line, RawActivityBlock(user, start, steps, distance)))
    parsed.sort(key=lambda item: (item[1].user_id, item[1].block_start))
    span = timedelta(minutes=BLOCK_MINUTES)
    out: list[RawActivityBlock] = []
    prev_line = 0
    for line, block in parsed:
        if out and out[-1].user_id == block.user_id:
            if block.block_start < out[-1].block_start + span:
                raise StreamFormatError(
                    f"block for {block.user_id!r} at {block.block_start} overlaps the "
                    f"block at {out[-1].block_start} (line {prev_line})",
                    line=line,
                )
        out.append(block)
        prev_line = line
    return out


def _parse_intervals(
    stream: Iterable[str] | IO[str],
    header: Sequence[str],
    noun: str,
    values: Mapping[str, object],
    bad_value: str,
    record,
) -> list:
    """Parse ``user_id,start,end,value`` rows into ``record(user, start, end,
    values[value])``, sorted per user. Rejects unaligned, empty and
    overlapping intervals, and a value missing from ``values`` as
    ``bad_value``. ``noun`` names an interval in the error messages; its
    first word also names the boundaries and its last word the previous
    interval ("schedule block": "schedule boundaries", "previous block")."""
    parsed: list[tuple[int, object]] = []
    for line, row in _iter_rows(stream, header):
        user = _parse_user(row[0], line)
        start = _parse_timestamp(row[1], line)
        end = _parse_timestamp(row[2], line)
        if not (_minute_aligned(start) and _minute_aligned(end)):
            raise StreamFormatError(
                f"{noun.split()[0]} boundaries must be minute-aligned", line=line
            )
        if end <= start:
            raise StreamFormatError(f"{noun} must have end > start", line=line)
        value = row[3].strip()
        if value not in values:
            raise StreamFormatError(f"{bad_value} {value!r}", line=line)
        parsed.append((line, record(user, start, end, values[value])))
    parsed.sort(key=lambda item: (item[1].user_id, item[1].start, item[1].end))
    out: list = []
    for line, item in parsed:
        if out and out[-1].user_id == item.user_id and item.start < out[-1].end:
            raise StreamFormatError(
                f"{noun} for {item.user_id!r} starting {item.start} overlaps the "
                f"previous {noun.split()[-1]} ending {out[-1].end}",
                line=line,
            )
        out.append(item)
    return out


def parse_sleep_segments(stream: Iterable[str] | IO[str]) -> list[RawSleepSegment]:
    """Parse device sleep/awake intervals; rejects bad states and overlaps."""
    states = {state.value: state for state in (SleepState.SLEEP, SleepState.AWAKE)}
    return _parse_intervals(
        stream, SLEEP_HEADER, "segment", states, "bad sleep state", RawSleepSegment
    )


def parse_schedule(
    stream: Iterable[str] | IO[str], taxonomy: ActivityTaxonomy
) -> list[ScheduleBlock]:
    """Parse planned activity blocks, validating labels against the taxonomy."""
    labels = dict(zip(taxonomy.level2, taxonomy.level2))
    return _parse_intervals(
        stream, SCHEDULE_HEADER, "schedule block", labels, "unknown activity label", ScheduleBlock
    )


def format_epoch_second(sec: int, day_cache: dict[int, str]) -> str:
    """Canonical ISO-8601 UTC form of an epoch second, with a trailing Z;
    ``day_cache`` keeps each epoch day's date text, so share it across calls."""
    day, rem = divmod(sec, SECONDS_PER_DAY)
    text = day_cache.get(day)
    if text is None:
        text = day_cache[day] = date.fromordinal(EPOCH_ORDINAL + day).isoformat()
    h, rem = divmod(rem, 3600)
    m, s = divmod(rem, 60)
    return f"{text}T{h:02d}:{m:02d}:{s:02d}Z"


def format_timestamp(ts: datetime) -> str:
    """Canonical ISO-8601 UTC form with a trailing Z and whole seconds."""
    if ts.microsecond:
        raise ValueError("timestamps are stored at whole-second resolution")
    return format_epoch_second(epoch_second(ts), {})


def serialize_hr_stream(hr: HrStream) -> str:
    """Canonical HR text of a stream, in its sorted order."""
    return serialize_hr_columns(hr.users, hr.user, hr.second, hr.bpm)


def serialize_hr_columns(
    users: Sequence[str], user: np.ndarray, second: np.ndarray, bpm: np.ndarray
) -> str:
    """Canonical HR text of the rows ``users[user[i]], second[i], bpm[i]``
    in the order given (the text of ``hr_chunks``)."""
    return codec.text_of(hr_chunks(users, user, second, bpm))


def hr_chunks(
    users: Sequence[str], user: np.ndarray, second: np.ndarray, bpm: np.ndarray
) -> Iterator[bytes | memoryview]:
    """Canonical HR bytes of the rows ``users[user[i]], second[i], bpm[i]``
    in the order given, a block of rows at a time (see codec.join_rows):
    the timestamp as its day, hour, minute and second fields, each value
    formatted once (``format_epoch_second`` and ``format_number`` forms)."""
    days = np.unique(second // SECONDS_PER_DAY)
    values, value_code = codec.value_codes(codec.float_keys(bpm))
    tables = (
        [field + "," for field in codec.csv_fields(users)],
        [date.fromordinal(EPOCH_ORDINAL + d).isoformat() + "T" for d in days.tolist()],
        [f"{h:02d}:" for h in range(24)],
        [f"{m:02d}:" for m in range(60)],
        [f"{s:02d}Z," for s in range(60)],
        codec.number_texts(values, "\n"),
    )

    def blocks():
        for lo in range(0, len(second), codec.BLOCK_ROWS):
            rows = slice(lo, lo + codec.BLOCK_ROWS)
            day, rem = np.divmod(second[rows], SECONDS_PER_DAY)
            hour, rem = np.divmod(rem, 3600)
            yield (
                user[rows],
                np.searchsorted(days, day),
                hour,
                *np.divmod(rem, 60),
                value_code[rows],
            )

    return codec.join_rows(",".join(HR_HEADER) + "\n", tables, blocks())


def serialize_activity_blocks(blocks: Sequence[RawActivityBlock]) -> str:
    return csv_text(
        ACTIVITY_HEADER,
        (
            (
                b.user_id,
                format_timestamp(b.block_start),
                str(b.steps),
                format_number(b.distance_m),
            )
            for b in blocks
        ),
    )


def serialize_sleep_segments(segments: Sequence[RawSleepSegment]) -> str:
    return csv_text(
        SLEEP_HEADER,
        (
            (
                s.user_id,
                format_timestamp(s.start),
                format_timestamp(s.end),
                s.state.value,
            )
            for s in segments
        ),
    )


def serialize_schedule(blocks: Sequence[ScheduleBlock]) -> str:
    return csv_text(
        SCHEDULE_HEADER,
        (
            (b.user_id, format_timestamp(b.start), format_timestamp(b.end), b.label)
            for b in blocks
        ),
    )
