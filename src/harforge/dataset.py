"""Windowing of imputed days into fixed-width training examples.

A window covers ``width`` consecutive minutes of one user-day and carries a
5-channel feature matrix per minute: pulse, pulse relative to the personal
daily minimum, pulse relative to the personal daily maximum, steps, and
distance. Minutes without a pulse contribute zero to the three pulse
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
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from datetime import date
from typing import IO, Iterable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .align import SLEEP_CODE, DayGrid, PersonalHrProfile
from .core import ActivityTaxonomy, LEVEL1_AWAKE, LEVEL1_SLEEP, MINUTES_PER_DAY, SleepState

#: Supported window widths (minutes) and their post-labeling sampling rates.
WINDOW_WIDTHS = (15, 30, 45, 60)
SAMPLING_RATES = {15: 0.15, 30: 0.25, 45: 0.25, 60: 0.40}

#: Fraction of a window one label must cover for the window to be kept.
LABEL_THRESHOLD = 0.70

#: Multiplicative jitter applied when cloning minority windows.
OVERSAMPLE_NOISE_SD = 0.0003

N_CHANNELS = 5
STEPS_CHANNEL = 3

SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class FeatureWindow:
    """One training example: a (width x 5) float matrix plus its labels."""

    user_id: str
    day: date
    start_minute: int
    width: int
    features: np.ndarray
    label_l1: str
    label_l2: str
    synthetic: bool = False


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
    profiles: Mapping[tuple[str, date], PersonalHrProfile],
    width: int,
    taxonomy: ActivityTaxonomy,
    threshold: float = LABEL_THRESHOLD,
) -> list[FeatureWindow]:
    """Slide over every user-day and keep the label-clean windows.

    Days without a heart-rate profile are skipped: the relative pulse
    channels cannot be computed for them.
    """
    min_hr, max_hr = days.profile_columns(profiles)
    rows = np.flatnonzero(~np.isnan(min_hr))
    pulse = days.pulse[rows]
    has = ~np.isnan(pulse)
    feats = np.stack(
        [
            np.where(has, pulse, 0.0),
            np.where(has, pulse / min_hr[rows, None], 0.0),
            np.where(has, pulse / max_hr[rows, None], 0.0),
            days.steps[rows],
            days.distance_m[rows],
        ],
        axis=-1,
    )
    codes, names = effective_labels(days)
    starts = slide_windows(MINUTES_PER_DAY, width)
    windows = sliding_window_view(codes[rows], width, axis=1)[:, starts]
    modal = modal_labels(windows, len(names), threshold)
    out: list[FeatureWindow] = []
    for i, w in zip(*np.nonzero(modal >= 0)):
        user, day = days.keys[rows[i]]
        start = starts[w]
        label = names[modal[i, w]]
        out.append(
            FeatureWindow(
                user_id=user,
                day=day,
                start_minute=start,
                width=width,
                features=feats[i, start : start + width].copy(),
                label_l1=taxonomy.level1_of(label),
                label_l2=label,
            )
        )
    return out


def stratified_sample(
    windows: Sequence[FeatureWindow],
    width: int,
    seed: int,
    rates: Mapping[int, float] = SAMPLING_RATES,
) -> list[FeatureWindow]:
    """Thin the window stream per level-2 class at the width's rate.

    Every class keeps round(rate * n) members but never fewer than one, so
    rare labels survive. Selection is a seeded uniform draw without
    replacement; the kept windows stay in their original order.
    """
    if width not in rates:
        raise ValueError(f"no sampling rate configured for width {width}")
    rate = rates[width]
    by_class: dict[str, list[int]] = {}
    for i, w in enumerate(windows):
        by_class.setdefault(w.label_l2, []).append(i)
    rng = np.random.default_rng(seed)
    keep: list[int] = []
    for label in sorted(by_class):
        members = by_class[label]
        k = max(1, math.floor(rate * len(members) + 0.5))
        k = min(k, len(members))
        picked = rng.choice(len(members), size=k, replace=False)
        keep.extend(members[i] for i in picked)
    keep.sort()
    return [windows[i] for i in keep]


def median_class_count(windows: Sequence[FeatureWindow]) -> int:
    """Median level-2 class size, the default oversampling target."""
    counts = Counter(w.label_l2 for w in windows)
    if not counts:
        raise ValueError("no windows to take a class median over")
    return int(math.ceil(statistics.median(counts.values())))


def oversample_minority(
    windows: Sequence[FeatureWindow],
    target_count_per_class: int,
    sd: float = OVERSAMPLE_NOISE_SD,
    seed: int = 0,
) -> list[FeatureWindow]:
    """Top minority level-2 classes up to the target with jittered clones.

    Each clone multiplies every feature cell by an independent draw from
    Normal(1, sd); the step channel is re-rounded to a non-negative integer
    afterwards. Clones carry synthetic=True. Classes at or above the target
    are untouched, and classes with no members cannot be topped up.
    """
    if target_count_per_class < 0:
        raise ValueError("target count must be non-negative")
    by_class: dict[str, list[int]] = {}
    for i, w in enumerate(windows):
        by_class.setdefault(w.label_l2, []).append(i)
    rng = np.random.default_rng(seed)
    out = list(windows)
    for label in sorted(by_class):
        members = by_class[label]
        need = target_count_per_class - len(members)
        for _ in range(max(0, need)):
            source = windows[members[int(rng.integers(0, len(members)))]]
            noisy = source.features * rng.normal(1.0, sd, size=source.features.shape)
            steps = np.rint(noisy[:, STEPS_CHANNEL])
            noisy[:, STEPS_CHANNEL] = np.maximum(steps, 0.0)
            out.append(replace(source, features=noisy, synthetic=True))
    return out


@dataclass(frozen=True)
class SplitSpec:
    """How to carve the corpus: by days within each user ("temporal") or by
    whole users ("user"), with train/val/test fractions."""

    mode: str
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("temporal", "user"):
            raise ValueError(f"unknown split mode {self.mode!r}")
        if len(self.fractions) != 3 or any(f < 0 for f in self.fractions):
            raise ValueError("fractions must be three non-negative numbers")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")


@dataclass
class SplitResult:
    train: list[FeatureWindow]
    val: list[FeatureWindow]
    test: list[FeatureWindow]
    flagged_users: tuple[str, ...] = ()

    def part(self, name: str) -> list[FeatureWindow]:
        return {"train": self.train, "val": self.val, "test": self.test}[name]


def _cut(n: int, fractions: Sequence[float]) -> tuple[int, int]:
    n_train = int(math.floor(fractions[0] * n))
    n_val = int(math.floor(fractions[1] * n))
    return n_train, n_val


def split_temporal(windows: Sequence[FeatureWindow], spec: SplitSpec) -> SplitResult:
    """Per user, earliest days train, then val, then test.

    Users with fewer than 3 distinct days cannot be split chronologically;
    they are flagged and placed wholly in train.
    """
    if spec.mode != "temporal":
        raise ValueError("split_temporal needs a temporal SplitSpec")
    days_of: dict[str, list[date]] = {}
    for w in windows:
        bucket = days_of.setdefault(w.user_id, [])
        if w.day not in bucket:
            bucket.append(w.day)
    assign: dict[tuple[str, date], str] = {}
    flagged: list[str] = []
    for user in sorted(days_of):
        days = sorted(days_of[user])
        if len(days) < 3:
            flagged.append(user)
            for d in days:
                assign[(user, d)] = "train"
            continue
        n_train, n_val = _cut(len(days), spec.fractions)
        for i, d in enumerate(days):
            if i < n_train:
                assign[(user, d)] = "train"
            elif i < n_train + n_val:
                assign[(user, d)] = "val"
            else:
                assign[(user, d)] = "test"
    result = SplitResult(train=[], val=[], test=[], flagged_users=tuple(flagged))
    for w in windows:
        result.part(assign[(w.user_id, w.day)]).append(w)
    return result


def split_user(windows: Sequence[FeatureWindow], spec: SplitSpec) -> SplitResult:
    """Whole users go to one side: a seeded shuffle then a 70/15/15 cut."""
    if spec.mode != "user":
        raise ValueError("split_user needs a user SplitSpec")
    users = sorted({w.user_id for w in windows})
    rng = np.random.default_rng(spec.seed)
    order = [users[i] for i in rng.permutation(len(users))]
    n_train, n_val = _cut(len(order), spec.fractions)
    side_of: dict[str, str] = {}
    for i, user in enumerate(order):
        if i < n_train:
            side_of[user] = "train"
        elif i < n_train + n_val:
            side_of[user] = "val"
        else:
            side_of[user] = "test"
    result = SplitResult(train=[], val=[], test=[])
    for w in windows:
        result.part(side_of[w.user_id]).append(w)
    return result


def split_windows(windows: Sequence[FeatureWindow], spec: SplitSpec) -> SplitResult:
    if spec.mode == "temporal":
        return split_temporal(windows, spec)
    return split_user(windows, spec)


@dataclass(frozen=True)
class Normalizer:
    """Per-channel z-scoring transform fitted on training windows only."""

    mean: tuple[float, ...]
    std: tuple[float, ...]


def fit_normalizer(windows: Sequence[FeatureWindow]) -> Normalizer:
    """Channel-wise mean and standard deviation over all window minutes.

    Constant channels get their deviation floored at 1e-8, which leaves the
    transform finite and maps the constant to zero.
    """
    if not windows:
        raise ValueError("cannot fit a normalizer on zero windows")
    stacked = np.concatenate([w.features for w in windows], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-8)
    return Normalizer(mean=tuple(float(v) for v in mean), std=tuple(float(v) for v in std))


def apply_normalizer(
    windows: Sequence[FeatureWindow], normalizer: Normalizer
) -> list[FeatureWindow]:
    mean = np.asarray(normalizer.mean)
    std = np.asarray(normalizer.std)
    return [replace(w, features=(w.features - mean) / std) for w in windows]


def normalizer_to_json(normalizer: Normalizer) -> str:
    return json.dumps(
        {"mean": list(normalizer.mean), "std": list(normalizer.std)},
        sort_keys=True,
    )


def normalizer_from_json(text: str) -> Normalizer:
    obj = json.loads(text)
    return Normalizer(mean=tuple(obj["mean"]), std=tuple(obj["std"]))


def window_store_text(windows: Sequence[FeatureWindow]) -> str:
    """One JSON object per line; feature floats round-trip exactly."""
    lines = []
    for w in windows:
        lines.append(
            json.dumps(
                {
                    "user": w.user_id,
                    "date": w.day.isoformat(),
                    "start_minute": w.start_minute,
                    "width": w.width,
                    "label_l1": w.label_l1,
                    "label_l2": w.label_l2,
                    "synthetic": w.synthetic,
                    "features": [[float(v) for v in row] for row in w.features],
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_window_store(windows: Sequence[FeatureWindow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(window_store_text(windows))


def read_window_store(stream: Iterable[str] | IO[str]) -> list[FeatureWindow]:
    out: list[FeatureWindow] = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        features = np.asarray(obj["features"], dtype=np.float64)
        if features.ndim != 2 or features.shape != (obj["width"], N_CHANNELS):
            raise ValueError(
                f"window features must be {obj['width']}x{N_CHANNELS}, "
                f"got {features.shape}"
            )
        out.append(
            FeatureWindow(
                user_id=obj["user"],
                day=date.fromisoformat(obj["date"]),
                start_minute=int(obj["start_minute"]),
                width=int(obj["width"]),
                features=features,
                label_l1=obj["label_l1"],
                label_l2=obj["label_l2"],
                synthetic=bool(obj["synthetic"]),
            )
        )
    return out


def load_window_store(path) -> list[FeatureWindow]:
    with open(path, encoding="utf-8") as fh:
        return read_window_store(fh)


def split_manifest_text(
    store: Sequence[FeatureWindow], results: Mapping[str, SplitResult]
) -> str:
    """Manifest mapping each split mode to store line indices per part."""
    position = {id(w): i for i, w in enumerate(store)}
    payload: dict = {}
    for mode in sorted(results):
        result = results[mode]
        payload[mode] = {
            name: [position[id(w)] for w in result.part(name)] for name in SPLIT_NAMES
        }
        payload[mode]["flagged_users"] = list(result.flagged_users)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def read_split_manifest(text: str) -> dict:
    return json.loads(text)
