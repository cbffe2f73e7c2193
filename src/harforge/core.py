"""Shared vocabulary for the pipeline: minute arithmetic on the local day,
sleep states, and the two-level activity taxonomy.

Every downstream stage (alignment, imputation, windowing, evaluation, charts)
speaks in terms of these types. All of them are immutable values, so they are
safe to share freely between threads and to use as dict keys where hashable.

Timestamps arrive in UTC and are shifted by a fixed per-deployment offset
before anything is snapped to the grid; a "day" always means the local
calendar day after that shift.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

MINUTES_PER_DAY = 1440

#: Minutes added to UTC to obtain local wall-clock time.
DEFAULT_TZ_OFFSET_MINUTES = 120

LEVEL1_SLEEP = "Sleep"
LEVEL1_AWAKE = "Awake"
LEVEL1_ACTIVITY = "Activity"

#: The coarse label set, in canonical order.
LEVEL1_LABELS = (LEVEL1_SLEEP, LEVEL1_AWAKE, LEVEL1_ACTIVITY)

#: Built-in fine-grained activity vocabulary. Deployments can swap in their
#: own via a taxonomy CSV; this is the default used when none is given.
DEFAULT_LEVEL2_LABELS = (
    "Firearms Training",
    "Military Drills",
    "Running Exercise",
    "Obstacle Course Training",
    "Fitness Test",
    "Wake Up",
    "Security Mission",
    "Contact-Combat",
    "General Working",
    "Kitchen Duties",
    "Other",
)

TAXONOMY_HEADER = ("level2_label", "level1_label")

#: Proleptic Gregorian ordinal of 1970-01-01, day 0 of epoch arithmetic.
EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

SECONDS_PER_DAY = 86400

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class SleepState(Enum):
    """Per-minute sleep state. The string values double as the CSV encoding."""

    SLEEP = "sleep"
    AWAKE = "awake"
    UNKNOWN = "unknown"


class UnknownLabelError(KeyError):
    """A label was looked up that is not part of the active taxonomy."""


@dataclass(frozen=True)
class ActivityTaxonomy:
    """Two-level activity vocabulary.

    ``level2`` holds the fine-grained activity names in a stable order and
    ``parent`` maps each of them to one of the three coarse labels. The
    coarse names Sleep and Awake are also legal fine-grained labels (a window
    can be plain sleep or plain wakefulness), which is why the classifier
    label space is ``level2_classes`` = (Sleep, Awake, *level2).

    Attributes:
        level2: ordered fine-grained activity names.
        parent: mapping from each level-2 name to its level-1 label.
    """

    level2: tuple[str, ...]
    parent: Mapping[str, str]

    def __post_init__(self) -> None:
        if len(set(self.level2)) != len(self.level2):
            raise ValueError("duplicate level-2 labels in taxonomy")
        if set(self.parent) != set(self.level2):
            raise ValueError("parent map must cover exactly the level-2 labels")
        for name, up in self.parent.items():
            if up not in LEVEL1_LABELS:
                raise ValueError(f"level-2 label {name!r} has unknown parent {up!r}")
        for reserved in LEVEL1_LABELS:
            if reserved in self.level2:
                raise ValueError(f"{reserved!r} is reserved and cannot be a level-2 label")

    def level1_of(self, label: str) -> str:
        """Coarse label for ``label``; level-1 names map to themselves."""
        if label in LEVEL1_LABELS:
            return label
        try:
            return self.parent[label]
        except KeyError:
            raise UnknownLabelError(f"label {label!r} is not in the taxonomy") from None

    @property
    def level1_classes(self) -> tuple[str, str, str]:
        return LEVEL1_LABELS

    @property
    def level2_classes(self) -> tuple[str, ...]:
        """Full fine-grained label space seen by the classifier."""
        return (LEVEL1_SLEEP, LEVEL1_AWAKE) + self.level2

    def to_csv_text(self) -> str:
        return csv_text(TAXONOMY_HEADER, ((name, self.parent[name]) for name in self.level2))

    def content_hash(self) -> str:
        """Stable hex digest of the taxonomy content, for artifact stamping."""
        return hashlib.sha256(self.to_csv_text().encode("utf-8")).hexdigest()


def default_taxonomy() -> ActivityTaxonomy:
    """The built-in vocabulary: every fine label parents to Activity."""
    parent = {name: LEVEL1_ACTIVITY for name in DEFAULT_LEVEL2_LABELS}
    return ActivityTaxonomy(level2=DEFAULT_LEVEL2_LABELS, parent=parent)


def read_taxonomy(lines: Iterable[str]) -> ActivityTaxonomy:
    """Parse a ``level2_label,level1_label`` CSV into a taxonomy (see csv_rows)."""
    rows = csv_rows(lines, TAXONOMY_HEADER, "taxonomy")
    pairs = [(name.strip(), up.strip()) for _, (name, up) in rows]
    return ActivityTaxonomy(level2=tuple(name for name, _ in pairs), parent=dict(pairs))


def load_taxonomy(path) -> ActivityTaxonomy:
    with open(path, encoding="utf-8", newline="") as fh:
        return read_taxonomy(fh)


def save_taxonomy(taxonomy: ActivityTaxonomy, path) -> None:
    write_text(path, taxonomy.to_csv_text())


@dataclass(frozen=True)
class ScheduleBlock:
    """A planned activity: [start, end) in UTC with a level-2 label."""

    user_id: str
    start: datetime
    end: datetime
    label: str

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("schedule block must have end > start")


def as_utc(ts: datetime) -> datetime:
    """Normalize to an aware UTC datetime; naive input is taken as UTC."""
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def epoch_second(ts: datetime) -> int:
    """Whole seconds since the Unix epoch, rounding down; naive input is
    taken as UTC."""
    delta = as_utc(ts) - _EPOCH
    return delta.days * SECONDS_PER_DAY + delta.seconds


def from_epoch_second(sec: int) -> datetime:
    """The aware UTC datetime ``sec`` seconds after the Unix epoch: the
    inverse of epoch_second."""
    return _EPOCH + timedelta(seconds=sec)


def epoch_minute(ts: datetime) -> int:
    """Whole minutes since the Unix epoch, rounding down."""
    return epoch_second(ts) // 60


def local_day_and_index(epoch_min: int, utc_offset_minutes: int) -> tuple[date, int]:
    """Map an epoch minute to its local (day, slot index)."""
    local = epoch_min + utc_offset_minutes
    day_ord, index = divmod(local, MINUTES_PER_DAY)
    return date.fromordinal(EPOCH_ORDINAL + day_ord), index


def format_number(x) -> str:
    """Canonical text form of a number: shortest string that round-trips."""
    if isinstance(x, bool):
        raise TypeError("bool is not a CSV number")
    if isinstance(x, int):
        return str(x)
    v = float(x)
    if math.isnan(v) or math.isinf(v):
        raise ValueError(f"non-finite value {v!r} cannot be serialized")
    return repr(v)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """``header`` then ``rows`` as csv.writer writes them, each line ended by
    a line feed: the byte form of every small CSV artifact."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def csv_rows(
    stream: Iterable[str], header: Sequence[str], kind: str
) -> Iterator[tuple[int, list[str]]]:
    """The rows after the header of a small CSV, as ``(line, row)``, blank
    rows skipped. A missing header or one other than ``header`` (each field
    stripped), a row with another number of fields than ``header`` and one
    the csv module cannot read are a ValueError naming the row; ``kind``
    names the file in the message."""
    reader = csv.reader(stream)
    try:
        got = next(reader, None)
        if got is None or tuple(h.strip() for h in got) != tuple(header):
            raise ValueError(f"{kind} CSV must start with header {','.join(header)!r}")
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ValueError(f"{kind} CSV row {reader.line_num} has {len(row)} fields")
                yield reader.line_num, row
    except csv.Error as error:
        raise ValueError(f"{kind} CSV row {reader.line_num}: {error}") from None


def json_text(obj) -> str:
    """``obj`` as the JSON of every indented JSON artifact: keys sorted,
    indent 2, a final line feed."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


#: Characters of a text encoded at a time when it is written.
WRITE_CHARS = 1 << 20


def write_text(path, text: str | Iterable[bytes]) -> None:
    """Write ``text`` to ``path``: a ``str`` as UTF-8, a chunk of WRITE_CHARS
    characters encoded at a time, or an iterable of byte chunks as they
    come, so a writer that makes its output a block at a time never holds
    all of it. The bytes go to a temporary file in the same directory that
    then replaces ``path``, so a write that fails, also one whose chunks
    raise partway, leaves the old file whole and no temporary file behind."""
    chunks = text
    if isinstance(text, str):
        chunks = (
            text[lo : lo + WRITE_CHARS].encode("utf-8") for lo in range(0, len(text), WRITE_CHARS)
        )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
