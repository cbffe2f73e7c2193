"""Pipeline driver: raw streams to trained models, reports and charts.

``STAGE_TABLE`` declares each stage once: its body, its own config keys and
the files it reads and writes in a shared artifact directory. Each run
writes a small JSON report with row counts, duration and the hash of the
configuration slice the stage depends on: its own keys plus those of every
stage that wrote a file it reads. A stage whose outputs already exist under
the same config hash is skipped; if the hash differs the stage refuses to
overwrite unless --force is given.

Exit codes: 0 success (including no-op), 1 internal error, 2 bad usage or
a missing input file, 3 existing outputs built from a different config.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from datetime import date
from typing import NamedTuple

import numpy as np

# The stages write the bulk files a block at a time (``hr_chunks``,
# ``MinuteFormat.chunks``). The whole-text writers ``serialize_hr_stream`` and
# ``write_aligned_csv`` stay importable from here: bench/harbench/tracing.py
# patches them by name.
from .align import (
    ALIGNED_FORMAT,
    PROFILE_SCOPES,
    align_cohort,
    read_aligned_csv,
    read_profiles_csv,
    write_aligned_csv,
    write_profiles_csv,
)
from .core import (
    DEFAULT_TZ_OFFSET_MINUTES, ActivityTaxonomy, default_taxonomy, json_text, load_taxonomy,
    save_taxonomy, write_text,
)
from .dataset import (
    LABEL_THRESHOLD,
    N_CHANNELS,
    SAMPLING_RATES,
    SPLIT_MODES,
    SPLIT_NAMES,
    SplitSpec,
    apply_normalizer,
    build_windows,
    fit_normalizer,
    load_window_store,
    median_class_count,
    normalizer_from_json,
    normalizer_to_json,
    oversample_minority,
    read_split_manifest,
    split_manifest_text,
    split_windows,
    stratified_sample,
    write_window_store,
)
from .evaluation import confusion_to_csv, evaluate_run, report_to_json, trend_csv
from .impute import ImputeConfig, impute_cohort, write_stats_report
from .ingest import (
    hr_chunks,
    parse_activity_blocks,
    parse_hr_stream,
    parse_schedule,
    parse_sleep_segments,
    serialize_activity_blocks,
    serialize_hr_stream,
    serialize_schedule,
    serialize_sleep_segments,
)
from .model import (
    LossConfig,
    ModelConfig,
    TrainConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
    windows_to_arrays,
)
from .synth import CohortConfig, generate_cohort, mask_report, read_truth_csv, write_cohort
from .viz import (
    BAND_MODES, activity_metrics, group_baseline, radar_index_csv, render_radar, save_radar
)

CONFIG_ENV_VAR = "HARFORGE_CONFIG"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INPUT = 2
EXIT_STALE = 3


class StageInputError(Exception):
    """A required upstream artifact is missing."""


class StaleConfigError(Exception):
    """Outputs on disk were built from a different configuration."""


class ConfigError(Exception):
    """The configuration file or overrides are malformed."""


def _listed(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda text: tuple(parse(p.strip()) for p in text.split(",") if p.strip())


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class Kind(NamedTuple):
    """``parse`` reads a config text (a ValueError or KeyError rejects it);
    ``text`` writes a value's canonical text."""

    parse: Callable[[str], object]
    text: Callable[[object], str]


#: The kinds of config value, by the name a ConfigError gives them.
_KINDS: dict[str, Kind] = {
    "int": Kind(int, str),
    "float": Kind(float, lambda v: repr(float(v))),
    "bool": Kind(lambda text: _BOOLS[text.lower()], lambda v: "true" if v else "false"),
    "date": Kind(date.fromisoformat, date.isoformat),
    "str": Kind(str, str),
    "ints": Kind(_listed(int), lambda v: ",".join(map(str, v))),
    "floats": Kind(_listed(float), lambda v: ",".join(repr(float(x)) for x in v)),
    "strs": Kind(_listed(str), ",".join),
}

def _field_names(config: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(config))


# config -> (the section whose keys build it, the fields of it that are keys)
_CONFIGS: dict[type, tuple[str, tuple[str, ...]]] = {
    CohortConfig: ("cohort", (
        "n_users", "n_days", "seed", "start_date", "resting_hr_mean", "resting_hr_sd",
        "hr_range_mean", "hr_range_sd", "awake_hr_frac", "hr_sd_scale", "user_frac_jitter_sd",
        "sleep_dropout", "hr_dropout",
    )),
    ImputeConfig: ("impute", _field_names(ImputeConfig)),
    TrainConfig: ("train", (
        "batch_size", "learning_rate", "weight_decay", "max_epochs", "early_stopping_patience",
        "seed",
    )),
    ModelConfig: ("train", _field_names(ModelConfig)),
    LossConfig: ("loss", _field_names(LossConfig)),
}


def _config_keys(config: type) -> dict[str, tuple[str, object]]:
    """The keys that build ``config``, each with its field's annotation (a
    kind name, as annotations are strings here) and default."""
    section, names = _CONFIGS[config]
    spec = {f.name: (f.type, f.default) for f in fields(config)}
    return {f"{section}.{name}": spec[name] for name in names}


# key -> (kind, default): a config in _CONFIGS gives both for its keys; the
# keys that no config field holds declare their own
_KEY_SPEC: dict[str, tuple[str, object]] = {
    **_config_keys(CohortConfig),
    "align.tz_offset_minutes": ("int", DEFAULT_TZ_OFFSET_MINUTES),
    "align.profile_scope": ("str", "day"),
    **_config_keys(ImputeConfig),
    "dataset.widths": ("ints", tuple(SAMPLING_RATES)),
    "dataset.label_threshold": ("float", LABEL_THRESHOLD),
    "dataset.oversample": ("bool", True),
    "dataset.seed": ("int", 0),
    "split.modes": ("strs", SPLIT_MODES),
    "split.fractions": ("floats", (0.7, 0.15, 0.15)),
    "split.seed": ("int", 0),
    **_config_keys(TrainConfig),
    **_config_keys(ModelConfig),
    **_config_keys(LossConfig),
    "viz.band": ("str", "sd"),
    "taxonomy.path": ("str", ""),
}

#: the seed of every stage that draws random numbers; ``--seed`` sets them all
SEED_KEYS = ("cohort.seed", "dataset.seed", "split.seed", "train.seed")

#: the keys whose value must be one of a declared set
_CHOICES = {"align.profile_scope": PROFILE_SCOPES, "viz.band": BAND_MODES}

#: the keys whose value must lie in a range: key -> (test, the range in words)
_RANGES = {
    **{key: (lambda v: v >= 0, "non-negative") for key in SEED_KEYS},
    **{key: (lambda v: v >= 1, "at least 1") for key in ("cohort.n_users", "cohort.n_days")},
    "dataset.label_threshold": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
}


@contextlib.contextmanager
def _section_check(section: str):
    """A value that a config of ``section`` rejects is a ConfigError."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(f"config section {section}: {err}") from err


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``section.key = value`` lines; # starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        values[key] = value
    return values


class PipelineConfig:
    """Typed view over the resolved flat key space. Every section config
    is built, and so checked, once when the config is read."""

    def __init__(self, values: dict[str, str]):
        unknown = sorted(set(values) - set(_KEY_SPEC))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        self._typed = {}
        for key, (kind, default) in _KEY_SPEC.items():
            text = values.get(key)
            try:
                self._typed[key] = default if text is None else _KINDS[kind].parse(text)
            except (ValueError, KeyError) as err:
                raise ConfigError(f"config key {key}: cannot parse {text!r} as {kind}") from err
        for key, choices in _CHOICES.items():
            if self._typed[key] not in choices:
                raise ConfigError(
                    f"config key {key}: must be one of {choices}, got {self._typed[key]!r}"
                )
        for key, (within, bounds) in _RANGES.items():
            if not within(self._typed[key]):
                raise ConfigError(f"config key {key}: must be {bounds}, got {self._typed[key]}")
        modes = self._typed["split.modes"]
        bad = [m for m in modes if m not in SPLIT_MODES]
        if bad or not modes:
            raise ConfigError(f"split.modes must name temporal and/or user, got {modes!r}")
        repeated = [mode for i, mode in enumerate(modes) if mode in modes[:i]]
        if repeated:
            raise ConfigError(f"split.modes names mode {repeated[0]} twice")
        widths = self._typed["dataset.widths"]
        if not widths:
            raise ConfigError("dataset.widths must name at least one width")
        for i, width in enumerate(widths):
            if width not in SAMPLING_RATES:
                supported = ", ".join(map(str, SAMPLING_RATES))
                raise ConfigError(
                    f"dataset.widths: no sampling rate for width {width} (supported: {supported})"
                )
            if width in widths[:i]:
                raise ConfigError(f"dataset.widths names width {width} twice")
        self._configs = {}
        for config, (section, names) in _CONFIGS.items():
            kwargs = {name: self[f"{section}.{name}"] for name in names}
            if config is CohortConfig:
                kwargs["tz_offset_minutes"] = self["align.tz_offset_minutes"]
            with _section_check(section):
                self._configs[config] = config(**kwargs)
        with _section_check("split"):
            self._splits = {
                mode: SplitSpec(mode=mode, fractions=self["split.fractions"], seed=self["split.seed"])
                for mode in modes
            }

    def __getitem__(self, key: str):
        return self._typed[key]

    def canonical_lines(self) -> list[str]:
        return [
            f"{key}={_KINDS[_KEY_SPEC[key][0]].text(self._typed[key])}" for key in sorted(_KEY_SPEC)
        ]

    @property
    def widths(self) -> tuple[int, ...]:
        return self._typed["dataset.widths"]

    @property
    def split_modes(self) -> tuple[str, ...]:
        return self._typed["split.modes"]

    def cohort_config(self) -> CohortConfig:
        return self._configs[CohortConfig]

    def impute_config(self) -> ImputeConfig:
        return self._configs[ImputeConfig]

    def split_spec(self, mode: str) -> SplitSpec:
        return self._splits[mode]

    def train_config(self) -> TrainConfig:
        return self._configs[TrainConfig]

    def model_config(self) -> ModelConfig:
        return self._configs[ModelConfig]

    def loss_config(self) -> LossConfig:
        return self._configs[LossConfig]

    def taxonomy(self) -> ActivityTaxonomy:
        path = self["taxonomy.path"]
        if path:
            if not os.path.exists(path):
                raise StageInputError(f"missing taxonomy file {path}")
            return load_taxonomy(path)
        return default_taxonomy()


class Layout:
    """Paths inside one artifact directory."""

    def __init__(self, root: str):
        self.root = root

    def dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    def path(self, dirname: str, filename: str) -> str:
        return os.path.join(self.root, dirname, filename)

    def report_path(self, stage: str) -> str:
        return os.path.join(self.root, "reports", f"{stage}.json")


@dataclass(frozen=True)
class Stage:
    """One pipeline stage. ``keys`` are the config prefixes it adds to the
    hash scope of the stages it reads from; ``reads`` and ``writes`` are
    ``dir/name`` patterns of its required input and its output files, where
    ``{w}`` stands for each width and ``{mode}`` for each split mode."""

    run: Callable[[PipelineConfig, Layout], dict]
    keys: tuple[str, ...]
    reads: tuple[str, ...]
    writes: tuple[str, ...]


def _hash_scope(stage: str) -> set[str]:
    """The stage's own keys plus the scope of every stage that writes a file it reads."""
    reads = set(STAGE_TABLE[stage].reads)
    scope = set(STAGE_TABLE[stage].keys)
    for name, upstream in STAGE_TABLE.items():
        if reads.intersection(upstream.writes):
            scope |= _hash_scope(name)
    return scope


def stage_config_hash(stage: str, cfg: PipelineConfig) -> str:
    prefixes = tuple(_hash_scope(stage))
    lines = [line for line in cfg.canonical_lines() if line.startswith(prefixes)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _expand(patterns: tuple[str, ...], cfg: PipelineConfig, lay: Layout) -> list[str]:
    """One path per distinct name each pattern takes over the widths and split modes."""
    names = (
        pattern.format(w=w, mode=mode)
        for pattern in patterns
        for w in cfg.widths
        for mode in cfg.split_modes
    )
    return [lay.path(*name.split("/")) for name in dict.fromkeys(names)]


def stage_inputs(stage: str, cfg: PipelineConfig, lay: Layout) -> list[str]:
    return _expand(STAGE_TABLE[stage].reads, cfg, lay)


def stage_outputs(stage: str, cfg: PipelineConfig, lay: Layout) -> list[str]:
    return _expand(STAGE_TABLE[stage].writes, cfg, lay)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _count_rows(csv_text: str) -> int:
    return max(0, csv_text.count("\n") - 1)


def _stage_synth(cfg: PipelineConfig, lay: Layout) -> dict:
    cohort = generate_cohort(cfg.cohort_config())
    write_cohort(cohort, lay.dir("raw"))
    return {
        "users": cfg["cohort.n_users"],
        "days": cfg["cohort.n_days"],
        "hr_rows": _count_rows(cohort.hr_csv),
        "activity_rows": _count_rows(cohort.activity_csv),
        "sleep_rows": _count_rows(cohort.sleep_csv),
        "schedule_rows": _count_rows(cohort.schedule_csv),
    }


def _parse_streams(lay: Layout, dirname: str, taxonomy: ActivityTaxonomy) -> tuple:
    """The four streams in ``dirname``: HR, activity, sleep and schedule. Each
    parser is looked up when called, so a patched ``parse_*`` sees every call."""
    with open(lay.path(dirname, "hr.csv"), encoding="utf-8") as fh:
        hr = parse_hr_stream(fh)
    with open(lay.path(dirname, "activity.csv"), encoding="utf-8") as fh:
        blocks = parse_activity_blocks(fh)
    with open(lay.path(dirname, "sleep.csv"), encoding="utf-8") as fh:
        segments = parse_sleep_segments(fh)
    with open(lay.path(dirname, "schedule.csv"), encoding="utf-8") as fh:
        schedule = parse_schedule(fh, taxonomy)
    return hr, blocks, segments, schedule


def _stage_ingest(cfg: PipelineConfig, lay: Layout) -> dict:
    taxonomy = cfg.taxonomy()
    hr, blocks, segments, schedule = _parse_streams(lay, "raw", taxonomy)
    write_text(lay.path("canonical", "hr.csv"), hr_chunks(hr.users, hr.user, hr.second, hr.bpm))
    write_text(lay.path("canonical", "activity.csv"), serialize_activity_blocks(blocks))
    write_text(lay.path("canonical", "sleep.csv"), serialize_sleep_segments(segments))
    write_text(lay.path("canonical", "schedule.csv"), serialize_schedule(schedule))
    save_taxonomy(taxonomy, lay.path("canonical", "taxonomy.csv"))
    return {
        "hr_samples": len(hr),
        "activity_blocks": len(blocks),
        "sleep_segments": len(segments),
        "schedule_blocks": len(schedule),
    }


def _stage_align(cfg: PipelineConfig, lay: Layout) -> dict:
    taxonomy = load_taxonomy(lay.path("canonical", "taxonomy.csv"))
    hr, blocks, segments, schedule = _parse_streams(lay, "canonical", taxonomy)
    aligned = align_cohort(
        hr,
        blocks,
        segments,
        schedule,
        tz_offset_minutes=cfg["align.tz_offset_minutes"],
        profile_scope=cfg["align.profile_scope"],
    )
    del hr, blocks, segments, schedule  # only the grid is written
    write_text(lay.path("aligned", "aligned.csv"), ALIGNED_FORMAT.chunks(aligned.days))
    write_text(lay.path("aligned", "profiles.csv"), write_profiles_csv(aligned.profiles))
    low = sum(1 for p in aligned.profiles.values() if p.low_confidence)
    return {
        "user_days": len(aligned.days),
        "profiles": len(aligned.profiles),
        "low_confidence_profiles": low,
    }


def _stage_impute(cfg: PipelineConfig, lay: Layout) -> dict:
    with open(lay.path("aligned", "aligned.csv"), encoding="utf-8") as fh:
        pre_days = read_aligned_csv(fh)
    with open(lay.path("aligned", "profiles.csv"), encoding="utf-8") as fh:
        profiles = read_profiles_csv(fh)
    post_days, stats, marks = impute_cohort(pre_days, profiles, cfg.impute_config())
    write_text(lay.path("imputed", "imputed.csv"), ALIGNED_FORMAT.chunks(post_days))
    write_text(lay.path("imputed", "impute_stats.csv"), write_stats_report(stats))
    counts: dict = {
        "user_days": len(post_days),
        "rule1_min": sum(s.rule1_min for s in stats),
        "rule2_min": sum(s.rule2_min for s in stats),
        "rule3_min": sum(s.rule3_min for s in stats),
    }
    truth_path = lay.path("raw", "truth.csv")
    report_path = lay.path("imputed", "mask_report.json")
    if not os.path.exists(truth_path):
        # an earlier build's score must not sit next to the fresh imputed.csv
        with contextlib.suppress(FileNotFoundError):
            os.remove(report_path)
    else:
        with open(truth_path, encoding="utf-8") as fh:
            truth = read_truth_csv(fh)
        report = mask_report(truth, pre_days, post_days, marks)
        payload = asdict(report) | {"agreement": report.agreement}
        write_text(report_path, json_text(payload))
        counts["masked_minutes"] = report.masked_minutes
        counts["agreement"] = report.agreement
        counts["residual_unknown_fraction"] = report.residual_unknown_fraction
    return counts


def _stage_dataset(cfg: PipelineConfig, lay: Layout) -> dict:
    taxonomy = load_taxonomy(lay.path("canonical", "taxonomy.csv"))
    with open(lay.path("imputed", "imputed.csv"), encoding="utf-8") as fh:
        days = read_aligned_csv(fh)
    with open(lay.path("aligned", "profiles.csv"), encoding="utf-8") as fh:
        profiles = read_profiles_csv(fh)
    counts: dict = {}
    for width in cfg.widths:
        windows = build_windows(
            days, profiles, width, taxonomy, cfg["dataset.label_threshold"]
        )
        sampled = stratified_sample(windows, width, cfg["dataset.seed"])
        write_window_store(sampled, lay.path("dataset", f"windows_w{width}.jsonl"))
        results = {mode: split_windows(sampled, cfg.split_spec(mode)) for mode in cfg.split_modes}
        write_text(
            lay.path("dataset", f"splits_w{width}.json"),
            split_manifest_text(results),
        )
        entry = {"windows": len(windows), "sampled": len(sampled)}
        for mode, result in sorted(results.items()):
            entry[mode] = {name: len(result.part(name)) for name in SPLIT_NAMES}
        counts[f"w{width}"] = entry
        del windows, sampled, results  # before the next width's are built
    return counts


def _load_runs(
    lay: Layout, width: int, modes: tuple[str, ...], names: tuple[str, ...]
) -> dict[str, list]:
    """The ``names`` parts of each split mode at one width, from one parse of
    the window store. Each manifest index must be an integer inside the store
    and in one part only, or test windows leak; every part is checked, the
    ones not selected included."""
    store = load_window_store(lay.path("dataset", f"windows_w{width}.jsonl"))
    manifest = read_split_manifest(_read_text(lay.path("dataset", f"splits_w{width}.json")))
    runs = {}
    for mode in modes:
        if mode not in manifest:
            raise StageInputError(
                f"split manifest for width {width} has no {mode!r} entry; rerun the dataset stage"
            )
        where = f"splits_w{width}.json, {mode!r} split"
        rows = [i for name in SPLIT_NAMES for i in manifest[mode][name]]
        if not all(type(i) is int for i in rows):
            raise StageInputError(f"{where}: window indices must be integers")
        if not all(0 <= i < len(store) for i in rows):
            raise StageInputError(
                f"{where}: index outside the {len(store)}-window store; rerun the dataset stage"
            )
        if len(set(rows)) != len(rows):
            raise StageInputError(f"{where}: a window is listed more than once")
        runs[mode] = [store.select(np.array(manifest[mode][name], dtype=np.intp)) for name in names]
    return runs


def _iter_runs(cfg: PipelineConfig, lay: Layout, names: tuple[str, ...]):
    """(width, mode, parts) for every run in run order. Each width's store is
    parsed once, and a run's parts are released when the caller moves on."""
    for width in cfg.widths:
        runs = _load_runs(lay, width, cfg.split_modes, names)
        for mode in cfg.split_modes:
            yield width, mode, runs.pop(mode)


def _stage_train(cfg: PipelineConfig, lay: Layout) -> dict:
    taxonomy = load_taxonomy(lay.path("canonical", "taxonomy.csv"))
    model, train_config, loss_config = cfg.model_config(), cfg.train_config(), cfg.loss_config()
    counts: dict = {}
    for width, mode, (train_wins, val_wins) in _iter_runs(cfg, lay, ("train", "val")):
        if not len(train_wins) or not len(val_wins):
            raise ValueError(
                f"width {width} {mode} split has an empty train or val part; "
                "use a larger cohort or different split fractions"
            )
        if cfg["dataset.oversample"]:
            target = median_class_count(train_wins)
            train_wins = oversample_minority(train_wins, target, seed=cfg["dataset.seed"])
        normalizer = fit_normalizer(train_wins)
        train_data = windows_to_arrays(apply_normalizer(train_wins, normalizer), taxonomy)
        val_data = windows_to_arrays(apply_normalizer(val_wins, normalizer), taxonomy)
        params = init_params(
            N_CHANNELS,
            n_level2=len(taxonomy.level2_classes),
            seed=train_config.seed,
            **asdict(model),
        )
        best, history = train(params, train_data, val_data, train_config, loss_config)
        save_checkpoint(
            best,
            lay.path("train", f"checkpoint_w{width}_{mode}.json"),
            seed=train_config.seed,
            taxonomy_hash=taxonomy.content_hash(),
            config={
                "width": width,
                "split_mode": mode,
                "hidden_size": model.hidden_size,
                "batch_size": train_config.batch_size,
                "learning_rate": train_config.learning_rate,
                "weight_decay": train_config.weight_decay,
                "max_epochs": train_config.max_epochs,
                **asdict(loss_config),
            },
        )
        write_text(lay.path("train", f"history_w{width}_{mode}.json"), json_text(history))
        write_text(
            lay.path("train", f"normalizer_w{width}_{mode}.json"),
            normalizer_to_json(normalizer) + "\n",
        )
        scored = [h for h in history if "val_acc_l2" in h]
        counts[f"w{width}_{mode}"] = {
            "epochs": len(history),
            "train_windows": len(train_wins),
            "val_windows": len(val_wins),
            "best_val_acc_l2": max((h["val_acc_l2"] for h in scored), default=None),
            "diverged": any(h.get("diverged") for h in history),
        }
    return counts


def _stage_eval(cfg: PipelineConfig, lay: Layout) -> dict:
    taxonomy = load_taxonomy(lay.path("canonical", "taxonomy.csv"))
    counts: dict = {}
    trend_rows: list[tuple[int, str, str, float]] = []
    for width, mode, (test_wins,) in _iter_runs(cfg, lay, ("test",)):
        params, _ = load_checkpoint(lay.path("train", f"checkpoint_w{width}_{mode}.json"))
        normalizer = normalizer_from_json(
            _read_text(lay.path("train", f"normalizer_w{width}_{mode}.json"))
        )
        if not len(test_wins):
            raise ValueError(
                f"width {width} {mode} split has an empty test part; "
                "use a larger cohort or different split fractions"
            )
        report = evaluate_run(
            params,
            apply_normalizer(test_wins, normalizer),
            taxonomy,
            width=width,
            split=mode,
        )
        write_text(lay.path("eval", f"report_w{width}_{mode}.json"), report_to_json(report))
        write_text(
            lay.path("eval", f"confusion_l1_w{width}_{mode}.csv"),
            confusion_to_csv(report.confusion_l1, taxonomy.level1_classes),
        )
        write_text(
            lay.path("eval", f"confusion_l2_w{width}_{mode}.csv"),
            confusion_to_csv(report.confusion_l2, taxonomy.level2_classes),
        )
        for metric in (
            "accuracy_l1",
            "macro_f1_l1",
            "accuracy_l2",
            "macro_f1_l2",
            "hierarchy_consistency",
        ):
            trend_rows.append((width, mode, metric, getattr(report, metric)))
        counts[f"w{width}_{mode}"] = {
            "n_windows": report.n_windows,
            "accuracy_l1": report.accuracy_l1,
            "accuracy_l2": report.accuracy_l2,
            "macro_f1_l2": report.macro_f1_l2,
        }
    write_text(lay.path("eval", "trends.csv"), trend_csv(trend_rows))
    return counts


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in label.lower())


def _stage_viz(cfg: PipelineConfig, lay: Layout) -> dict:
    band = cfg["viz.band"]
    with open(lay.path("imputed", "imputed.csv"), encoding="utf-8") as fh:
        days = read_aligned_csv(fh)
    with open(lay.path("aligned", "profiles.csv"), encoding="utf-8") as fh:
        profiles = read_profiles_csv(fh)
    users = list(days.user_rows())
    activities = sorted(days.labels)
    entries: list[tuple[str, str, str]] = []
    skipped_activities = 0
    for activity in activities:
        sets = []
        for user in users:
            try:
                sets.append(activity_metrics(user, activity, days, profiles))
            except ValueError:
                continue
        try:
            baseline = group_baseline(sets, activity)
        except ValueError:
            skipped_activities += 1
            continue
        for metric_set in sets:
            if any(metric_set.value(m) is None for m in
                   ("pulse_per_min", "pulse_to_min_ratio", "pulse_to_max_ratio")):
                continue
            filename = f"radar_{metric_set.user_id}_{_slug(activity)}.svg"
            save_radar(
                render_radar(metric_set, baseline, band=band),
                lay.path("viz", filename),
            )
            entries.append((metric_set.user_id, activity, filename))
    write_text(lay.path("viz", "index.csv"), radar_index_csv(entries))
    return {
        "charts": len(entries),
        "activities": len(activities) - skipped_activities,
        "skipped_activities": skipped_activities,
    }


STAGE_TABLE: dict[str, Stage] = {
    "synth": Stage(
        _stage_synth, keys=("cohort.", "align.tz_offset_minutes"), reads=(),
        writes=(
            "raw/hr.csv", "raw/activity.csv", "raw/sleep.csv", "raw/schedule.csv", "raw/truth.csv"
        ),
    ),
    "ingest": Stage(
        _stage_ingest, keys=("taxonomy.",),
        reads=("raw/hr.csv", "raw/activity.csv", "raw/sleep.csv", "raw/schedule.csv"),
        writes=(
            "canonical/hr.csv", "canonical/activity.csv", "canonical/sleep.csv",
            "canonical/schedule.csv", "canonical/taxonomy.csv",
        ),
    ),
    "align": Stage(
        _stage_align, keys=("align.",),
        reads=(
            "canonical/hr.csv", "canonical/activity.csv", "canonical/sleep.csv",
            "canonical/schedule.csv", "canonical/taxonomy.csv",
        ),
        writes=("aligned/aligned.csv", "aligned/profiles.csv"),
    ),
    "impute": Stage(
        _stage_impute, keys=("impute.",),
        reads=("aligned/aligned.csv", "aligned/profiles.csv"),
        writes=("imputed/imputed.csv", "imputed/impute_stats.csv"),
    ),
    "dataset": Stage(
        _stage_dataset, keys=("dataset.", "split."),
        reads=("imputed/imputed.csv", "aligned/profiles.csv", "canonical/taxonomy.csv"),
        writes=("dataset/windows_w{w}.jsonl", "dataset/splits_w{w}.json"),
    ),
    "train": Stage(
        _stage_train, keys=("train.", "loss."),
        reads=("canonical/taxonomy.csv", "dataset/windows_w{w}.jsonl", "dataset/splits_w{w}.json"),
        writes=(
            "train/checkpoint_w{w}_{mode}.json", "train/history_w{w}_{mode}.json",
            "train/normalizer_w{w}_{mode}.json",
        ),
    ),
    "eval": Stage(
        _stage_eval, keys=(),
        reads=(
            "canonical/taxonomy.csv", "train/checkpoint_w{w}_{mode}.json",
            "train/normalizer_w{w}_{mode}.json", "dataset/windows_w{w}.jsonl",
            "dataset/splits_w{w}.json",
        ),
        writes=(
            "eval/report_w{w}_{mode}.json", "eval/confusion_l1_w{w}_{mode}.csv",
            "eval/confusion_l2_w{w}_{mode}.csv", "eval/trends.csv",
        ),
    ),
    "viz": Stage(
        _stage_viz, keys=("viz.",),
        reads=("imputed/imputed.csv", "aligned/profiles.csv"),
        writes=("viz/index.csv",),
    ),
}

STAGE_ORDER = tuple(STAGE_TABLE)
STAGES = STAGE_ORDER + ("pipeline",)


def _stored_report(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _write_report(lay: Layout, stage: str, payload: dict) -> None:
    write_text(lay.report_path(stage), json_text(payload))


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB (``ru_maxrss``).
    It is a maximum over the process's lifetime: when one process runs
    several stages (``harforge pipeline``), a stage's value is the largest
    of its own peak and every earlier stage's."""
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def run_stage(stage: str, cfg: PipelineConfig, out_dir: str, *, force: bool = False) -> int:
    lay = Layout(out_dir)
    missing = [p for p in stage_inputs(stage, cfg, lay) if not os.path.exists(p)]
    if missing:
        raise StageInputError(
            f"stage {stage}: missing input {missing[0]} (run the earlier stages first)"
        )
    cfg_hash = stage_config_hash(stage, cfg)
    outputs = stage_outputs(stage, cfg, lay)
    report_path = lay.report_path(stage)
    if outputs and all(os.path.exists(p) for p in outputs):
        stored = _stored_report(report_path)
        if stored is not None and stored.get("config_hash") == cfg_hash:
            _write_report(
                lay,
                stage,
                {
                    "stage": stage,
                    "counts": stored.get("counts", {}),
                    "duration_s": 0.0,
                    "peak_rss_mb": peak_rss_mb(),
                    "config_hash": cfg_hash,
                    "no_op": True,
                },
            )
            print(f"[{stage}] up to date, skipped")
            return EXIT_OK
        if stored is not None and not force:
            raise StaleConfigError(
                f"stage {stage}: outputs in {out_dir} were built with config hash "
                f"{stored.get('config_hash', '?')[:12]} but the current config hashes to "
                f"{cfg_hash[:12]}; pass --force to rebuild"
            )
    # A stage that dies leaves no report, so the next run rebuilds it
    # instead of taking its half-written outputs for the last good build.
    with contextlib.suppress(FileNotFoundError):
        os.remove(report_path)
    start = time.perf_counter()
    counts = STAGE_TABLE[stage].run(cfg, lay)
    duration = time.perf_counter() - start
    _write_report(
        lay,
        stage,
        {
            "stage": stage,
            "counts": counts,
            "duration_s": round(duration, 3),
            "peak_rss_mb": peak_rss_mb(),
            "config_hash": cfg_hash,
            "no_op": False,
        },
    )
    print(f"[{stage}] done in {duration:.1f}s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harforge",
        description="Wearable stream pipeline: synthesis, fusion, imputation, "
        "windowing, training, evaluation and charts.",
    )
    parser.add_argument("stage", choices=STAGES, help="pipeline stage to run")
    parser.add_argument(
        "--config",
        default=None,
        help=f"flat key=value config file (default: ${CONFIG_ENV_VAR} if set)",
    )
    parser.add_argument("--out", default="artifacts", help="artifact directory")
    parser.add_argument(
        "--seed", type=int, default=None, help="override every stage seed at once"
    )
    parser.add_argument(
        "--width",
        action="append",
        type=int,
        default=None,
        help="window width in minutes; repeat for several (overrides dataset.widths)",
    )
    parser.add_argument(
        "--split",
        action="append",
        choices=SPLIT_MODES,
        default=None,
        help="split mode; repeat for both (overrides split.modes)",
    )
    parser.add_argument(
        "--force", action="store_true", help="rebuild even if outputs exist with a different config"
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    values: dict[str, str] = {}
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        values.update(parse_config_text(_read_text(config_path)))
    if args.seed is not None:
        for key in SEED_KEYS:
            values[key] = str(args.seed)
    if args.width:
        values["dataset.widths"] = ",".join(str(w) for w in dict.fromkeys(args.width))
    if args.split:
        values["split.modes"] = ",".join(dict.fromkeys(args.split))
    return PipelineConfig(values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        cfg = _resolve_config(args)
        if args.stage == "pipeline":
            for stage in STAGE_ORDER:
                code = run_stage(stage, cfg, args.out, force=args.force)
                if code != EXIT_OK:
                    return code
            return EXIT_OK
        return run_stage(args.stage, cfg, args.out, force=args.force)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except StageInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except StaleConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STALE
    except Exception as err:  # surface a one-line reason, not a traceback
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())
