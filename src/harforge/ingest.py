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
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import IO, Iterable, Sequence

from .core import (
    ActivityTaxonomy,
    ScheduleBlock,
    SleepState,
    as_utc,
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


@dataclass(frozen=True, slots=True)
class RawHrSample:
    """One heart-rate reading: user, UTC instant, positive bpm value."""

    user_id: str
    timestamp: datetime
    hr_bpm: float


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


def _parse_float(text: str, name: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise StreamFormatError(f"non-numeric {name} {text!r}", line=line) from None
    if math.isnan(value) or math.isinf(value):
        raise StreamFormatError(f"non-finite {name} {text!r}", line=line)
    return value


def _parse_int(text: str, name: str, line: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise StreamFormatError(f"non-integer {name} {text!r}", line=line) from None


def _minute_aligned(ts: datetime) -> bool:
    return ts.second == 0 and ts.microsecond == 0


def parse_hr_stream(stream: Iterable[str] | IO[str]) -> list[RawHrSample]:
    """Parse ``user_id,timestamp,hr_bpm`` rows into sorted, deduplicated samples."""
    parsed: list[RawHrSample] = []
    for line, row in _iter_rows(stream, HR_HEADER):
        user = _parse_user(row[0], line)
        ts = _parse_timestamp(row[1], line)
        if ts.microsecond:
            raise StreamFormatError(f"sub-second timestamp {row[1].strip()!r}", line=line)
        hr = _parse_float(row[2], "hr_bpm", line)
        if hr <= 0:
            raise StreamFormatError(f"hr_bpm must be positive, got {hr}", line=line)
        parsed.append(RawHrSample(user, ts, hr))
    parsed.sort(key=lambda s: (s.user_id, s.timestamp, s.hr_bpm))
    out: list[RawHrSample] = []
    for s in parsed:
        if out and out[-1].user_id == s.user_id and out[-1].timestamp == s.timestamp:
            continue  # duplicate key: keep the first of the sorted group
        out.append(s)
    return out


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


def parse_sleep_segments(stream: Iterable[str] | IO[str]) -> list[RawSleepSegment]:
    """Parse device sleep/awake intervals; rejects bad states and overlaps."""
    parsed: list[tuple[int, RawSleepSegment]] = []
    for line, row in _iter_rows(stream, SLEEP_HEADER):
        user = _parse_user(row[0], line)
        start = _parse_timestamp(row[1], line)
        end = _parse_timestamp(row[2], line)
        if not (_minute_aligned(start) and _minute_aligned(end)):
            raise StreamFormatError("segment boundaries must be minute-aligned", line=line)
        if end <= start:
            raise StreamFormatError("segment must have end > start", line=line)
        state_text = row[3].strip()
        if state_text not in (SleepState.SLEEP.value, SleepState.AWAKE.value):
            raise StreamFormatError(f"bad sleep state {state_text!r}", line=line)
        parsed.append((line, RawSleepSegment(user, start, end, SleepState(state_text))))
    parsed.sort(key=lambda item: (item[1].user_id, item[1].start, item[1].end))
    out: list[RawSleepSegment] = []
    for line, seg in parsed:
        if out and out[-1].user_id == seg.user_id and seg.start < out[-1].end:
            raise StreamFormatError(
                f"segment for {seg.user_id!r} starting {seg.start} overlaps the "
                f"previous segment ending {out[-1].end}",
                line=line,
            )
        out.append(seg)
    return out


def parse_schedule(
    stream: Iterable[str] | IO[str], taxonomy: ActivityTaxonomy
) -> list[ScheduleBlock]:
    """Parse planned activity blocks, validating labels against the taxonomy."""
    parsed: list[tuple[int, ScheduleBlock]] = []
    for line, row in _iter_rows(stream, SCHEDULE_HEADER):
        user = _parse_user(row[0], line)
        start = _parse_timestamp(row[1], line)
        end = _parse_timestamp(row[2], line)
        if not (_minute_aligned(start) and _minute_aligned(end)):
            raise StreamFormatError("schedule boundaries must be minute-aligned", line=line)
        if end <= start:
            raise StreamFormatError("schedule block must have end > start", line=line)
        label = row[3].strip()
        if label not in taxonomy.level2:
            raise StreamFormatError(f"unknown activity label {label!r}", line=line)
        parsed.append((line, ScheduleBlock(user, start, end, label)))
    parsed.sort(key=lambda item: (item[1].user_id, item[1].start, item[1].end))
    out: list[ScheduleBlock] = []
    for line, block in parsed:
        if out and out[-1].user_id == block.user_id and block.start < out[-1].end:
            raise StreamFormatError(
                f"schedule block for {block.user_id!r} starting {block.start} overlaps "
                f"the previous block ending {out[-1].end}",
                line=line,
            )
        out.append(block)
    return out


def format_timestamp(ts: datetime) -> str:
    """Canonical ISO-8601 UTC form with a trailing Z and whole seconds."""
    ts = as_utc(ts)
    if ts.microsecond:
        raise ValueError("timestamps are stored at whole-second resolution")
    return f"{ts:%Y-%m-%dT%H:%M:%S}Z"


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def serialize_hr_stream(samples: Sequence[RawHrSample]) -> str:
    return _csv_text(
        HR_HEADER,
        (
            (s.user_id, format_timestamp(s.timestamp), format_number(s.hr_bpm))
            for s in samples
        ),
    )


def serialize_activity_blocks(blocks: Sequence[RawActivityBlock]) -> str:
    return _csv_text(
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
    return _csv_text(
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
    return _csv_text(
        SCHEDULE_HEADER,
        (
            (b.user_id, format_timestamp(b.start), format_timestamp(b.end), b.label)
            for b in blocks
        ),
    )
