"""Windowing of imputed days into fixed-width training examples.

A window covers ``width`` consecutive minutes of one user-day and carries a
5-channel feature matrix per minute: pulse, pulse relative to the personal
daily minimum, pulse relative to the personal daily maximum, steps, and
distance. The minimum and maximum are the day's heart-rate envelope, the
grid's per-row ``min_hr`` and ``max_hr``; a day without one yields no
windows. Minutes without a pulse contribute zero to the three pulse
channels. The sleep state is deliberately not a feature; it drives labels
only.

A window is kept only when a single effective label covers at least 70% of
its minutes, where a minute's effective label is Sleep when the sleep state
says so, otherwise its scheduled activity, otherwise Awake. Each window then
carries that label at both taxonomy levels.

Wider windows use proportionally longer strides (70% of the width), and the
per-width sampling rates thin the window stream before training. Minority
classes can be topped up with jittered clones that are flagged synthetic so
that evaluation can exclude them.

The windows of one width live in one columnar ``WindowSet``; sampling,
splitting and normalizing work on its columns and on row-index arrays.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, fields, replace
from datetime import date
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import codec
from .align import SLEEP_CODE, DayGrid
from .core import (
    ActivityTaxonomy, LEVEL1_AWAKE, LEVEL1_SLEEP, MINUTES_PER_DAY, SleepState, json_text,
    write_text,
)

#: Post-labeling sampling rate of each supported window width (minutes).
SAMPLING_RATES = {15: 0.15, 30: 0.25, 45: 0.25, 60: 0.40}

#: Fraction of a window one label must cover for the window to be kept.
LABEL_THRESHOLD = 0.70

#: Multiplicative jitter applied when cloning minority windows.
OVERSAMPLE_NOISE_SD = 0.0003

N_CHANNELS = 5
STEPS_CHANNEL = 3

SPLIT_NAMES = ("train", "val", "test")

#: How a corpus can be carved: by days within each user or by whole users.
SPLIT_MODES = ("temporal", "user")


@dataclass(frozen=True, eq=False)
class WindowSet:
    """The windows of one width as columns: row i of every column is window i.

    ``users``, ``label_l1`` and ``label_l2`` are string arrays, ``days`` is
    datetime64[D], ``start_minute`` int64 and ``synthetic`` bool (True for
    oversampled clones). ``features`` is one C-contiguous (n, width, 5)
    float64 block, so a set is fed to the model without restacking.
    """

    users: np.ndarray
    days: np.ndarray
    start_minute: np.ndarray
    features: np.ndarray
    label_l1: np.ndarray
    label_l2: np.ndarray
    synthetic: np.ndarray

    @property
    def width(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.start_minute)

    def select(self, rows: np.ndarray) -> WindowSet:
        """The windows at ``rows`` (an index array or a boolean mask), in that order."""
        return WindowSet(*(getattr(self, f.name)[rows] for f in fields(self)))


def window_stride(width: int) -> int:
    """Stride between window starts: 70% of the width, floored."""
    if width <= 0:
        raise ValueError(f"window width must be positive, got {width}")
    return (7 * width) // 10


def slide_windows(n_minutes: int, width: int) -> list[int]:
    """Start offsets of all windows of ``width`` that fit in ``n_minutes``."""
    stride = window_stride(width)
    if stride == 0:
        raise ValueError(f"width {width} yields a zero stride")
    return list(range(0, n_minutes - width + 1, stride))


def effective_labels(days: DayGrid) -> tuple[np.ndarray, tuple[str, ...]]:
    """Label every minute: Sleep wins, then the schedule, then plain Awake.

    Returns per-minute codes shaped like the grid and the sorted names they
    index, so a lower code is always the lexicographically earlier name.
    """
    names = tuple(sorted({LEVEL1_SLEEP, LEVEL1_AWAKE, *days.labels}))
    codes = np.where(
        days.sleep == SLEEP_CODE[SleepState.SLEEP],
        names.index(LEVEL1_SLEEP),
        days.map_schedule([names.index(label) for label in days.labels], names.index(LEVEL1_AWAKE)),
    )
    return codes, names


def modal_labels(
    windows: np.ndarray, n_codes: int, threshold: float = LABEL_THRESHOLD
) -> np.ndarray:
    """Modal label code of each window of per-minute codes (last axis).

    A window whose modal code covers less than ``threshold`` of it (the
    bound is inclusive) is too mixed to use and gets -1. Ties go to the
    lowest code.
    """
    width = windows.shape[-1]
    if width == 0:
        raise ValueError("cannot label an empty window")
    counts = np.stack([(windows == code).sum(axis=-1) for code in range(n_codes)], axis=-1)
    return np.where(counts.max(axis=-1) >= threshold * width, counts.argmax(axis=-1), -1)


def build_windows(
    days: DayGrid,
    width: int,
    taxonomy: ActivityTaxonomy,
    threshold: float = LABEL_THRESHOLD,
) -> WindowSet:
    """Slide over every user-day and keep the label-clean windows.

    Days without a heart-rate envelope (``days.min_hr`` NaN) are skipped:
    the relative pulse channels cannot be computed for them.
    """
    rows = np.flatnonzero(~np.isnan(days.min_hr))
    pulse = days.pulse[rows]
    has = ~np.isnan(pulse)
    # each channel written into one block; the pulse channels stay zero
    # where there is no pulse
    feats = np.zeros((len(rows), MINUTES_PER_DAY, N_CHANNELS))
    np.copyto(feats[..., 0], pulse, where=has)
    np.divide(pulse, days.min_hr[rows, None], out=feats[..., 1], where=has)
    np.divide(pulse, days.max_hr[rows, None], out=feats[..., 2], where=has)
    feats[..., 3] = days.steps[rows]
    feats[..., 4] = days.distance_m[rows]
    del pulse, has
    codes, names = effective_labels(days)
    starts = np.asarray(slide_windows(MINUTES_PER_DAY, width), dtype=np.int64)
    windows = sliding_window_view(codes[rows], width, axis=1)[:, starts]
    modal = modal_labels(windows, len(names), threshold)
    day_row, slot = np.nonzero(modal >= 0)
    start = starts[slot]
    label = modal[day_row, slot]
    keys = [days.keys[r] for r in rows]
    return WindowSet(
        users=np.array([user for user, _ in keys], dtype=str)[day_row],
        days=np.array([day for _, day in keys], dtype="datetime64[D]")[day_row],
        start_minute=start,
        features=feats[day_row[:, None], start[:, None] + np.arange(width)],
        label_l1=np.array([taxonomy.level1_of(name) for name in names], dtype=str)[label],
        label_l2=np.array(names, dtype=str)[label],
        synthetic=np.zeros(len(start), dtype=bool),
    )


def _class_members(windows: WindowSet) -> Iterable[np.ndarray]:
    """Row indices of each level-2 class, classes in name order."""
    for label in np.unique(windows.label_l2):
        yield np.flatnonzero(windows.label_l2 == label)


def stratified_sample(
    windows: WindowSet,
    width: int,
    seed: int,
    rates: Mapping[int, float] = SAMPLING_RATES,
) -> WindowSet:
    """Thin the window stream per level-2 class at the width's rate.

    Every class keeps round(rate * n) members but never fewer than one, so
    rare labels survive. Selection is a seeded uniform draw without
    replacement; the kept windows stay in their original order.
    """
    if width not in rates:
        raise ValueError(f"no sampling rate configured for width {width}")
    rate = rates[width]
    rng = np.random.default_rng(seed)
    keep = np.zeros(len(windows), dtype=bool)
    for members in _class_members(windows):
        k = max(1, math.floor(rate * len(members) + 0.5))
        k = min(k, len(members))
        keep[members[rng.choice(len(members), size=k, replace=False)]] = True
    return windows.select(keep)


def median_class_count(windows: WindowSet) -> int:
    """Median level-2 class size, the default oversampling target."""
    _, counts = np.unique(windows.label_l2, return_counts=True)
    if not counts.size:
        raise ValueError("no windows to take a class median over")
    return int(math.ceil(statistics.median(counts.tolist())))


def oversample_minority(
    windows: WindowSet,
    target_count_per_class: int,
    sd: float = OVERSAMPLE_NOISE_SD,
    seed: int = 0,
) -> WindowSet:
    """Top minority level-2 classes up to the target with jittered clones.

    Each clone multiplies every feature cell by an independent draw from
    Normal(1, sd); the step channel is re-rounded to a non-negative integer
    afterwards. Clones carry synthetic=True and follow the originals, class
    by class in name order. Classes at or above the target are untouched,
    and classes with no members cannot be topped up.
    """
    if target_count_per_class < 0:
        raise ValueError("target count must be non-negative")
    rng = np.random.default_rng(seed)
    sources: list[int] = []
    jitter: list[np.ndarray] = []
    for members in _class_members(windows):
        for _ in range(max(0, target_count_per_class - len(members))):
            sources.append(members[int(rng.integers(0, len(members)))])
            jitter.append(rng.normal(1.0, sd, size=windows.features.shape[1:]))
    clones = windows.select(np.array(sources, dtype=np.intp))
    noisy = clones.features * np.array(jitter).reshape(clones.features.shape)
    noisy[..., STEPS_CHANNEL] = np.maximum(np.rint(noisy[..., STEPS_CHANNEL]), 0.0)
    clones = replace(clones, features=noisy, synthetic=np.ones(len(clones), dtype=bool))
    return WindowSet(
        *(np.concatenate([getattr(s, f.name) for s in (windows, clones)]) for f in fields(WindowSet))
    )


@dataclass(frozen=True)
class SplitSpec:
    """How to carve the corpus: by days within each user ("temporal") or by
    whole users ("user"), with train/val/test fractions."""

    mode: str
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")
        if len(self.fractions) != 3 or any(f < 0 for f in self.fractions):
            raise ValueError("fractions must be three non-negative numbers")
        if abs(math.fsum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")


@dataclass(frozen=True, eq=False)
class SplitResult:
    """Row indices of each part, ascending, and the users a temporal split
    could not cut."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    flagged_users: tuple[str, ...] = ()

    def part(self, name: str) -> np.ndarray:
        return {"train": self.train, "val": self.val, "test": self.test}[name]


def _sides(rank: np.ndarray, n: int, fractions: Sequence[float]) -> np.ndarray:
    """Part code (0 train, 1 val, 2 test) of each rank in a cut of n items."""
    n_train = int(math.floor(fractions[0] * n))
    n_val = int(math.floor(fractions[1] * n))
    return np.searchsorted([n_train, n_train + n_val], rank, side="right")


def _split_result(side: np.ndarray, flagged: Sequence[str] = ()) -> SplitResult:
    train, val, test = (np.flatnonzero(side == code) for code in range(3))
    return SplitResult(train, val, test, flagged_users=tuple(flagged))


def split_temporal(windows: WindowSet, spec: SplitSpec) -> SplitResult:
    """Per user, earliest days train, then val, then test.

    Users with fewer than 3 distinct days cannot be split chronologically;
    they are flagged and placed wholly in train.
    """
    if spec.mode != "temporal":
        raise ValueError("split_temporal needs a temporal SplitSpec")
    side = np.zeros(len(windows), dtype=np.intp)
    flagged: list[str] = []
    for user in np.unique(windows.users):
        mine = np.flatnonzero(windows.users == user)
        days, rank = np.unique(windows.days[mine], return_inverse=True)
        if len(days) < 3:
            flagged.append(str(user))
        else:
            side[mine] = _sides(rank, len(days), spec.fractions)
    return _split_result(side, flagged)


def split_user(windows: WindowSet, spec: SplitSpec) -> SplitResult:
    """Whole users go to one side: a seeded shuffle then a 70/15/15 cut."""
    if spec.mode != "user":
        raise ValueError("split_user needs a user SplitSpec")
    users, user_of = np.unique(windows.users, return_inverse=True)
    rng = np.random.default_rng(spec.seed)
    rank = np.empty(len(users), dtype=np.intp)
    rank[rng.permutation(len(users))] = np.arange(len(users))
    return _split_result(_sides(rank, len(users), spec.fractions)[user_of])


def split_windows(windows: WindowSet, spec: SplitSpec) -> SplitResult:
    if spec.mode == "temporal":
        return split_temporal(windows, spec)
    return split_user(windows, spec)


@dataclass(frozen=True)
class Normalizer:
    """Per-channel z-scoring transform fitted on training windows only."""

    mean: tuple[float, ...]
    std: tuple[float, ...]


def fit_normalizer(windows: WindowSet) -> Normalizer:
    """Channel-wise mean and standard deviation over all window minutes.

    Constant channels get their deviation floored at 1e-8, which leaves the
    transform finite and maps the constant to zero. The reduction runs over
    the C-ordered (n * width, 5) view of the feature block, which fixes the
    summation order and with it the fitted bits.
    """
    if not len(windows):
        raise ValueError("cannot fit a normalizer on zero windows")
    stacked = np.ascontiguousarray(windows.features).reshape(-1, N_CHANNELS)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-8)
    return Normalizer(mean=tuple(float(v) for v in mean), std=tuple(float(v) for v in std))


def apply_normalizer(windows: WindowSet, normalizer: Normalizer) -> WindowSet:
    mean = np.asarray(normalizer.mean)
    std = np.asarray(normalizer.std)
    return replace(windows, features=(windows.features - mean) / std)


def normalizer_to_json(normalizer: Normalizer) -> str:
    return json.dumps(
        {"mean": list(normalizer.mean), "std": list(normalizer.std)},
        sort_keys=True,
    )


def normalizer_from_json(text: str) -> Normalizer:
    obj = json.loads(text)
    return Normalizer(mean=tuple(obj["mean"]), std=tuple(obj["std"]))


#: the WindowSet columns of a store line besides its features, in line order
_ROW_COLUMNS = ("users", "days", "start_minute", "label_l1", "label_l2", "synthetic")


def window_lines(windows: WindowSet) -> str:
    """The store lines of ``windows``: one JSON object per line, each line
    ended by a line feed; feature floats round-trip exactly."""
    return "".join(
        json.dumps(
            {
                "user": user,
                "date": day.isoformat(),
                "start_minute": start,
                "width": windows.width,
                "label_l1": label_l1,
                "label_l2": label_l2,
                "synthetic": synthetic,
                "features": features.tolist(),
            },
            separators=(",", ":"),
        )
        + "\n"
        for user, day, start, label_l1, label_l2, synthetic, features in zip(
            *(getattr(windows, c).tolist() for c in _ROW_COLUMNS), windows.features
        )
    )


def window_store_chunks(windows: WindowSet) -> Iterator[bytes]:
    """The UTF-8 bytes of the store, one chunk of ``window_lines`` per block
    of windows that hold about codec.BLOCK_ROWS feature values, made as it
    is asked for."""
    per_block = max(codec.BLOCK_ROWS // (max(windows.width, 1) * N_CHANNELS), 1)
    for lo in range(0, len(windows), per_block):
        yield window_lines(windows.select(slice(lo, lo + per_block))).encode("utf-8")


def window_store_text(windows: WindowSet) -> str:
    """The text of the store (the text of ``window_store_chunks``)."""
    return codec.text_of(window_store_chunks(windows))


def write_window_store(windows: WindowSet, path) -> None:
    """Write the store a block of windows at a time, never holding its text."""
    write_text(path, window_store_chunks(windows))


def read_window_store(stream: Iterable[str] | IO[str]) -> WindowSet:
    """Parse a window store; every line must hold a window of one width.
    Anything else is a ValueError naming the store line."""
    rows = []
    for number, line in enumerate(stream, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            features = np.asarray(obj["features"], dtype=np.float64)
            if features.shape != (obj["width"], N_CHANNELS):
                raise ValueError(
                    f"window features must be {obj['width']}x{N_CHANNELS}, "
                    f"got {features.shape}"
                )
            if rows and features.shape != rows[0][3].shape:
                raise ValueError(f"store mixes widths {rows[0][3].shape[0]} and {obj['width']}")
            rows.append(
                (obj["user"], date.fromisoformat(obj["date"]), int(obj["start_minute"]),
                 features, obj["label_l1"], obj["label_l2"], bool(obj["synthetic"]))
            )
        except json.JSONDecodeError as err:
            raise ValueError(
                f"window store line {number}: bad JSON: {err.msg} at column {err.colno}"
            ) from None
        except KeyError as err:
            raise ValueError(f"window store line {number}: missing key {err}") from None
        except (ValueError, TypeError) as err:
            raise ValueError(f"window store line {number}: {err}") from None
    users, days, starts, blocks, label_l1, label_l2, synthetic = list(zip(*rows)) or [()] * 7
    return WindowSet(
        users=np.array(users, dtype=str),
        days=np.array(days, dtype="datetime64[D]"),
        start_minute=np.array(starts, dtype=np.int64),
        features=np.stack(blocks) if blocks else np.zeros((0, 0, N_CHANNELS)),
        label_l1=np.array(label_l1, dtype=str),
        label_l2=np.array(label_l2, dtype=str),
        synthetic=np.array(synthetic, dtype=bool),
    )


def load_window_store(path) -> WindowSet:
    with open(path, encoding="utf-8") as fh:
        return read_window_store(fh)


def split_manifest_text(results: Mapping[str, SplitResult]) -> str:
    """Manifest mapping each split mode to store row indices per part."""
    payload: dict = {}
    for mode in sorted(results):
        result = results[mode]
        payload[mode] = {name: result.part(name).tolist() for name in SPLIT_NAMES}
        payload[mode]["flagged_users"] = list(result.flagged_users)
    return json_text(payload)


def read_split_manifest(text: str) -> dict:
    return json.loads(text)
