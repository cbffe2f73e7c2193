import csv
import io
from datetime import date, datetime

import numpy as np
import pytest

from harforge import codec
from harforge.align import SLEEP_CODE, DayGrid
from harforge.core import MINUTES_PER_DAY, SleepState, default_taxonomy
from harforge.dataset import N_CHANNELS, WindowSet
from harforge.ingest import HR_HEADER, hr_chunks, parse_hr_stream

DAY = date(2024, 3, 4)

_STATES = tuple(SleepState)


@pytest.fixture(scope="session")
def taxonomy():
    return default_taxonomy()


def _per_minute(value):
    """(minute, value) pairs of a column spec: a {minute: value} dict, a
    1440-long sequence, or one value for every minute."""
    if isinstance(value, dict):
        return value.items()
    if isinstance(value, (list, tuple, np.ndarray)):
        assert len(value) == MINUTES_PER_DAY
        return enumerate(value)
    return ((i, value) for i in range(MINUTES_PER_DAY))


def make_grid(days=None, **columns):
    """Build a DayGrid for tests from plain per-minute values.

    ``days`` maps (user_id, day) to a dict of column specs; the keyword form
    builds one day for u001 on 2024-03-04. Columns are ``pulse`` (float or
    None), ``steps``, ``distance_m``, ``sleep`` (a SleepState) and
    ``schedule`` (a label or None). Each spec is one value for every minute,
    a {minute: value} dict, or a 1440-long sequence; unlisted minutes keep
    the empty-day defaults (no pulse, no movement, Unknown, no schedule).
    ``min_hr`` and ``max_hr`` take the day's envelope, one float each; a day
    without them has none (NaN).
    """
    if days is None:
        days = {("u001", DAY): columns}
    keys = sorted(days)
    labels = sorted(
        {
            label
            for spec in days.values()
            for _, label in _per_minute(spec.get("schedule", None))
            if label is not None
        }
    )
    grid = DayGrid.empty(keys, labels)
    encode = {
        "pulse": lambda v: np.nan if v is None else v,
        "steps": lambda v: v,
        "distance_m": lambda v: v,
        "sleep": lambda v: SLEEP_CODE[v],
        "schedule": lambda v: -1 if v is None else labels.index(v),
    }
    for r, key in enumerate(keys):
        for column, spec in days[key].items():
            target = getattr(grid, column)
            if column in ("min_hr", "max_hr"):
                target[r] = spec
                continue
            for minute, value in _per_minute(spec):
                target[r, minute] = encode[column](value)
    return grid


def day_values(grid, column, key=("u001", DAY)):
    """One day's column as plain values: None for a missing pulse or an
    empty schedule slot, SleepState members for sleep codes."""
    row = getattr(grid, column)[grid.keys.index(key)].tolist()
    if column == "pulse":
        return [None if v != v else v for v in row]
    if column == "sleep":
        return [_STATES[c] for c in row]
    if column == "schedule":
        return [None if c < 0 else grid.labels[c] for c in row]
    return row


def assert_grids_equal(a, b):
    """Same days with the same minute values (labels compared by name)."""
    assert a.keys == b.keys
    for column in ("pulse", "steps", "distance_m", "sleep", "schedule"):
        for key in a.keys:
            assert day_values(a, column, key) == day_values(b, column, key), (column, key)


@pytest.fixture
def grid_factory():
    return make_grid


@pytest.fixture
def grid_values():
    return day_values


def make_hr_stream(rows=()):
    """Parse (user_id, timestamp, bpm) rows into an HrStream through CSV text.

    A datetime timestamp is written in ISO form and a float bpm with repr, so
    the text parses back to the same instant and value; rows are written in
    the order given.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HR_HEADER)
    for user, ts, bpm in rows:
        writer.writerow([user, ts.isoformat() if isinstance(ts, datetime) else ts, repr(bpm)])
    return parse_hr_stream(buf.getvalue().splitlines(keepends=True))


@pytest.fixture
def hr_factory():
    return make_hr_stream


def cohort_hr_text(cohort):
    """The raw ``hr.csv`` text ``synth.write_cohort`` writes for ``cohort``."""
    return codec.text_of(hr_chunks(*cohort.hr))


@pytest.fixture(scope="session")
def hr_text():
    return cohort_hr_text


def make_windows(n=None, *, user="u1", day=DAY, start=0, l1=None, l2="Other",
                 features=None, synthetic=False, width=15):
    """Build a WindowSet for tests from plain values.

    ``user``, ``day``, ``start``, ``l1``, ``l2`` and ``synthetic`` are each
    one value for every window or a sequence with one value per window;
    ``n`` defaults to the length of the sequences. ``features`` is one
    (width, 5) matrix for every window or an (n, width, 5) block, zeros of
    ``width`` minutes when omitted. ``l1`` defaults to the level-1 class of
    each window's ``l2`` label.
    """
    columns = {"user": user, "day": day, "start": start, "l1": l1, "l2": l2,
               "synthetic": synthetic}
    lengths = {
        len(v) for v in columns.values() if isinstance(v, (list, tuple, range, np.ndarray))
    }
    if features is not None and np.ndim(features) == 3:
        lengths.add(len(features))
    if n is None:
        (n,) = lengths
    assert lengths <= {n}, (n, lengths)
    rows = {
        key: list(v) if isinstance(v, (list, tuple, range, np.ndarray)) else [v] * n
        for key, v in columns.items()
    }
    if l1 is None:
        rows["l1"] = [default_taxonomy().level1_of(label) for label in rows["l2"]]
    if features is None:
        features = np.zeros((width, N_CHANNELS))
    features = np.asarray(features, dtype=np.float64)
    block = np.broadcast_to(features, (n, *features.shape[-2:]))
    return WindowSet(
        users=np.array(rows["user"], dtype=str),
        days=np.array(rows["day"], dtype="datetime64[D]"),
        start_minute=np.array(rows["start"], dtype=np.int64),
        features=np.ascontiguousarray(block),
        label_l1=np.array(rows["l1"], dtype=str),
        label_l2=np.array(rows["l2"], dtype=str),
        synthetic=np.array(rows["synthetic"], dtype=bool),
    )


@pytest.fixture
def window_factory():
    return make_windows
