"""CLI driver: config parsing, stage hashing, caching, and a small
end-to-end pipeline run."""

import contextlib
import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import harforge.cli as cli
from harforge import core, dataset
from harforge.align import DayGrid
from harforge.core import ActivityTaxonomy, save_taxonomy, write_text
from harforge.dataset import write_window_store
from harforge.impute import ImputeConfig
from harforge.model import (
    LossConfig, ModelConfig, TrainConfig, init_params, save_checkpoint, training,
)
from harforge.synth import Cohort, CohortConfig, write_cohort
from harforge.viz import save_radar
from harforge.cli import (
    CONFIG_ENV_VAR,
    EXIT_ERROR,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_STALE,
    STAGE_ORDER,
    STAGE_TABLE,
    STAGES,
    ConfigError,
    Layout,
    PipelineConfig,
    build_parser,
    main,
    parse_config_text,
    stage_config_hash,
    stage_inputs,
    stage_outputs,
)

from test_golden import TRAINING_CONFIG

TINY_CONFIG = """\
# smoke-sized cohort
cohort.n_users = 7
cohort.n_days = 7
cohort.seed = 5
cohort.user_frac_jitter_sd = 0.04

dataset.widths = 15
train.hidden_size = 8
train.max_epochs = 2
train.batch_size = 128
"""


class TestParseConfigText:
    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# top\n\ncohort.seed = 9 # trailing\n")
        assert values == {"cohort.seed": "9"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nmalformed line\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 5\n")


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig({})
        assert cfg["cohort.n_users"] == 20
        assert cfg.widths == (15, 30, 45, 60)
        assert cfg.split_modes == ("temporal", "user")
        assert cfg["dataset.oversample"] is True
        assert cfg["cohort.start_date"].isoformat() == "2024-03-04"
        # the config keys' defaults are those of the configs they build
        assert cfg.cohort_config() == CohortConfig()
        assert cfg.impute_config() == ImputeConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.model_config() == ModelConfig()
        assert cfg.loss_config() == LossConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: cohort.size"):
            PipelineConfig({"cohort.size": "4"})

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="cohort.n_users"):
            PipelineConfig({"cohort.n_users": "many"})
        with pytest.raises(ConfigError, match="dataset.widths"):
            PipelineConfig({"dataset.widths": "15,wide"})

    def test_split_modes_validated(self):
        with pytest.raises(ConfigError, match="split.modes"):
            PipelineConfig({"split.modes": "random"})
        with pytest.raises(ConfigError, match="at least one width"):
            PipelineConfig({"dataset.widths": ","})

    @pytest.mark.parametrize(
        "widths, message",
        [("15,20", "no sampling rate for width 20"), ("15,60,15", "width 15 twice")],
    )
    def test_widths_checked_against_sampling_rates(self, widths, message):
        with pytest.raises(ConfigError, match=message):
            PipelineConfig({"dataset.widths": widths})

    @pytest.mark.parametrize(
        "key, text, kind",
        [
            ("cohort.n_users", "many", "int"),
            ("cohort.start_date", "2024-3-4", "date"),
            ("impute.awake_factor", "high", "float"),
            ("dataset.oversample", "maybe", "bool"),
            ("split.fractions", "0.7,x,0.15", "floats"),
        ],
    )
    def test_type_error_names_key_text_and_kind(self, key, text, kind):
        message = f"config key {key}: cannot parse {text!r} as {kind}"
        with pytest.raises(ConfigError) as err:
            PipelineConfig({key: text})
        assert str(err.value) == message

    def test_defaults_are_immutable_and_round_trip(self):
        """Every key's default is a hashable value of its kind that reads
        back from its own canonical text, so no call can change it."""
        for key, (kind, default) in cli._KEY_SPEC.items():
            parse, text = cli._KINDS[kind]
            hash(default)
            again = parse(text(default))
            assert again == default and type(again) is type(default), key
        assert len(cli._KEY_SPEC) == 43

    def test_keys_without_a_config_field_are_the_expected_eleven(self):
        from_configs = set().union(*map(cli._config_keys, cli._CONFIGS))
        assert sorted(set(cli._KEY_SPEC) - from_configs) == [
            "align.profile_scope", "align.tz_offset_minutes", "dataset.label_threshold",
            "dataset.oversample", "dataset.seed", "dataset.widths", "split.fractions",
            "split.modes", "split.seed", "taxonomy.path", "viz.band",
        ]

    def test_train_defaults_are_those_of_the_train_and_model_configs(self):
        defaults = dataclasses.asdict(TrainConfig()) | dataclasses.asdict(ModelConfig())
        train_keys = {
            key: default for key, (_, default) in cli._KEY_SPEC.items() if key.startswith("train.")
        }
        assert len(train_keys) == 9
        for key, default in train_keys.items():
            assert default == defaults[key.removeprefix("train.")], key

    def test_readme_lists_every_key_with_its_default(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("All keys with their defaults:\n\n```\n", 1)[1]
        values = {}
        for line in block.split("\n```", 1)[0].splitlines():
            # two columns per line, separated by two or more spaces
            for entry in filter(None, (part.strip() for part in line.split("  "))):
                key, _, value = entry.partition("=")
                values[key.strip()] = value.strip()
        assert sorted(values) == sorted(cli._KEY_SPEC)
        assert PipelineConfig(values).canonical_lines() == PipelineConfig({}).canonical_lines()

    def test_derived_configs_carry_values(self):
        cfg = PipelineConfig({"cohort.n_users": "3", "loss.gamma": "1.5"})
        assert cfg.cohort_config().n_users == 3
        assert cfg.loss_config().gamma == 1.5
        assert cfg.impute_config().max_gap_minutes == 120
        assert cfg.train_config().batch_size == 256
        assert cfg.split_spec("user").mode == "user"


class TestStageHashes:
    def test_hash_scopes_follow_dependencies(self):
        base = PipelineConfig({})
        tweaked = PipelineConfig({"loss.gamma": "3.0"})
        for stage in ("synth", "ingest", "align", "impute", "dataset", "viz"):
            assert stage_config_hash(stage, base) == stage_config_hash(stage, tweaked)
        for stage in ("train", "eval"):
            assert stage_config_hash(stage, base) != stage_config_hash(stage, tweaked)

    def test_cohort_seed_invalidates_everything(self):
        base = PipelineConfig({})
        tweaked = PipelineConfig({"cohort.seed": "8"})
        for stage in STAGE_ORDER:
            assert stage_config_hash(stage, base) != stage_config_hash(stage, tweaked)

    def test_irrelevant_key_never_enters_a_hash(self):
        base = PipelineConfig({})
        tweaked = PipelineConfig({"viz.band": "range"})
        changed = [s for s in STAGE_ORDER if stage_config_hash(s, base) != stage_config_hash(s, tweaked)]
        assert changed == ["viz"]


# The cache contract: stage hashes, and sorted stage files for widths 15,60
# and both split modes, recorded before the stage graph became one table. An
# artifact tree built by an earlier version must stay up to date, so these
# change only with a deliberate change of the cache format.
PINNED_DEFAULT_HASHES = {
    "synth": "0e533a6fee9b339a839a6b6f56ef35d6f270013fab11d947a6d1c65de29e9c91",
    "ingest": "78bfa974d1559f2a974b7cb44b79d78585bd9695186a3d921fed2dc91f083956",
    "align": "a9cb750e9584f76a8b49530fe4007bb75251f302778fce976adb284a6381683a",
    "impute": "5cce873dc41c6f3a1fff131e7f8a0da654d8b0c75b650bd80fe64ec0af724586",
    "dataset": "8653ad54a24d68f70113df5c625a27fee573600d06fd892fc5b907998f8e1da2",
    "train": "ca26a2e00ebf6510f84b2a71e2e388434b7e322ec490b124d8ee65875679f1b4",
    "eval": "ca26a2e00ebf6510f84b2a71e2e388434b7e322ec490b124d8ee65875679f1b4",
    "viz": "486b954752df1a203eb25538a46d6b1b84f3062fecfce77a87a5e792f16e5b5d",
}
PINNED_TINY_HASHES = {
    "synth": "78b4d814d395922a0846502525a9de546bf6ad841455813146c62053f2bfb2f9",
    "ingest": "8db0d81ca3816b915a782bc12771b00cb2f0679ed4a731f6d1cd0db03df591ad",
    "align": "f197144b0668a5e87eb4209e9d5b531bbabb97862506aa40457a25a30cbf2650",
    "impute": "4019646c102f4a73a3287ad25d205663a759a423d88e239562f10845d68b012b",
    "dataset": "1ae8f7ff6b71f7f6f63d37dd8515b25f13e1aa61e754e5749cd318c9f73fd826",
    "train": "ea10ea4c62bc5d6351927a28b8940efc4e4b62ceeab03333ff2b116722e417ca",
    "eval": "ea10ea4c62bc5d6351927a28b8940efc4e4b62ceeab03333ff2b116722e417ca",
    "viz": "3ca9c13b786a505fed617bd40451e865b3f3846c075fcfaf0060293ca3db6ab9",
}
PINNED_INPUTS = {
    "synth": [],
    "ingest": [
        "raw/activity.csv",
        "raw/hr.csv",
        "raw/schedule.csv",
        "raw/sleep.csv",
    ],
    "align": [
        "canonical/activity.csv",
        "canonical/hr.csv",
        "canonical/schedule.csv",
        "canonical/sleep.csv",
        "canonical/taxonomy.csv",
    ],
    "impute": [
        "aligned/aligned.csv",
        "aligned/profiles.csv",
    ],
    "dataset": [
        "aligned/profiles.csv",
        "canonical/taxonomy.csv",
        "imputed/imputed.csv",
    ],
    "train": [
        "canonical/taxonomy.csv",
        "dataset/splits_w15.json",
        "dataset/splits_w60.json",
        "dataset/windows_w15.jsonl",
        "dataset/windows_w60.jsonl",
    ],
    "eval": [
        "canonical/taxonomy.csv",
        "dataset/splits_w15.json",
        "dataset/splits_w60.json",
        "dataset/windows_w15.jsonl",
        "dataset/windows_w60.jsonl",
        "train/checkpoint_w15_temporal.json",
        "train/checkpoint_w15_user.json",
        "train/checkpoint_w60_temporal.json",
        "train/checkpoint_w60_user.json",
        "train/normalizer_w15_temporal.json",
        "train/normalizer_w15_user.json",
        "train/normalizer_w60_temporal.json",
        "train/normalizer_w60_user.json",
    ],
    "viz": [
        "aligned/profiles.csv",
        "imputed/imputed.csv",
    ],
}
PINNED_OUTPUTS = {
    "synth": [
        "raw/activity.csv",
        "raw/hr.csv",
        "raw/schedule.csv",
        "raw/sleep.csv",
        "raw/truth.csv",
    ],
    "ingest": [
        "canonical/activity.csv",
        "canonical/hr.csv",
        "canonical/schedule.csv",
        "canonical/sleep.csv",
        "canonical/taxonomy.csv",
    ],
    "align": [
        "aligned/aligned.csv",
        "aligned/profiles.csv",
    ],
    "impute": [
        "imputed/impute_stats.csv",
        "imputed/imputed.csv",
    ],
    "dataset": [
        "dataset/splits_w15.json",
        "dataset/splits_w60.json",
        "dataset/windows_w15.jsonl",
        "dataset/windows_w60.jsonl",
    ],
    "train": [
        "train/checkpoint_w15_temporal.json",
        "train/checkpoint_w15_user.json",
        "train/checkpoint_w60_temporal.json",
        "train/checkpoint_w60_user.json",
        "train/history_w15_temporal.json",
        "train/history_w15_user.json",
        "train/history_w60_temporal.json",
        "train/history_w60_user.json",
        "train/normalizer_w15_temporal.json",
        "train/normalizer_w15_user.json",
        "train/normalizer_w60_temporal.json",
        "train/normalizer_w60_user.json",
    ],
    "eval": [
        "eval/confusion_l1_w15_temporal.csv",
        "eval/confusion_l1_w15_user.csv",
        "eval/confusion_l1_w60_temporal.csv",
        "eval/confusion_l1_w60_user.csv",
        "eval/confusion_l2_w15_temporal.csv",
        "eval/confusion_l2_w15_user.csv",
        "eval/confusion_l2_w60_temporal.csv",
        "eval/confusion_l2_w60_user.csv",
        "eval/report_w15_temporal.json",
        "eval/report_w15_user.json",
        "eval/report_w60_temporal.json",
        "eval/report_w60_user.json",
        "eval/trends.csv",
    ],
    "viz": [
        "viz/index.csv",
    ],
}


class TestStageTable:
    def test_stage_order(self):
        assert STAGE_ORDER == ("synth", "ingest", "align", "impute", "dataset", "train", "eval", "viz")
        assert STAGES == STAGE_ORDER + ("pipeline",)

    def test_synth_reads_nothing(self):
        assert STAGE_TABLE["synth"].reads == ()

    def test_every_read_is_written_by_exactly_one_earlier_stage(self):
        for i, stage in enumerate(STAGE_ORDER):
            for pattern in STAGE_TABLE[stage].reads:
                writers = [s for s in STAGE_ORDER if pattern in STAGE_TABLE[s].writes]
                assert len(writers) == 1, (stage, pattern, writers)
                assert STAGE_ORDER.index(writers[0]) < i, (stage, pattern, writers)

    def test_no_two_stages_write_the_same_file(self):
        patterns = [p for s in STAGE_ORDER for p in STAGE_TABLE[s].writes]
        assert len(patterns) == len(set(patterns))
        cfg = PipelineConfig({"dataset.widths": "15,60", "split.modes": "temporal,user"})
        files = [f for s in STAGE_ORDER for f in stage_outputs(s, cfg, Layout("root"))]
        assert len(files) == len(set(files))


class TestCacheContract:
    @pytest.mark.parametrize(
        "config, pinned",
        [("", PINNED_DEFAULT_HASHES), (TINY_CONFIG, PINNED_TINY_HASHES)],
        ids=["default", "tiny"],
    )
    def test_stage_hashes_are_unchanged(self, config, pinned):
        cfg = PipelineConfig(parse_config_text(config))
        assert {s: stage_config_hash(s, cfg) for s in STAGE_ORDER} == pinned

    def test_stage_files_are_unchanged(self):
        cfg = PipelineConfig({"dataset.widths": "15,60", "split.modes": "temporal,user"})
        lay = Layout("root")
        rel = lambda paths: sorted(os.path.relpath(p, "root") for p in paths)
        assert {s: rel(stage_inputs(s, cfg, lay)) for s in STAGE_ORDER} == PINNED_INPUTS
        assert {s: rel(stage_outputs(s, cfg, lay)) for s in STAGE_ORDER} == PINNED_OUTPUTS


def _write_window_store(path, text, monkeypatch):
    monkeypatch.setattr(dataset, "window_store_text", lambda windows: text)
    write_window_store(None, path)


def _save_checkpoint(path, text, monkeypatch):
    monkeypatch.setattr(training, "json", SimpleNamespace(dumps=lambda *a, **k: text))
    save_checkpoint(init_params(2, 2, 2), path)


#: Each writer that goes through ``core.write_text``, given the path it
#: writes and a text that cannot be encoded: ``write(path, text, monkeypatch)``.
TEXT_WRITERS = {
    # the text is the one user id of hr.csv, encoded as the file is written
    "write_cohort": lambda path, text, mp: write_cohort(
        Cohort(([text], *np.zeros((2, 1), np.int64), np.ones(1)), [], [], [], DayGrid.empty([])),
        path.parent,
    ),
    "save_taxonomy": lambda path, text, mp: save_taxonomy(
        ActivityTaxonomy((text,), {text: "Activity"}), path
    ),
    "write_window_store": _write_window_store,
    "save_checkpoint": _save_checkpoint,
    "save_radar": lambda path, text, mp: save_radar(text, path),
}


class TestWriteText:
    def test_long_text_with_a_character_across_the_chunk_boundary(self, tmp_path):
        text = "a" * (core.WRITE_CHARS - 1) + "ü€😀" + "b" * 1000 + "\n"
        path = tmp_path / "out" / "text.csv"
        write_text(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")
        assert os.listdir(path.parent) == ["text.csv"]

    @pytest.mark.parametrize("failure", ["replace", "encode"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "text.csv"
        path.write_bytes(b"old\n")
        text = "new\n" * (core.WRITE_CHARS // 4)
        if failure == "replace":

            def fail(src, dst):
                raise OSError("disk gone")

            monkeypatch.setattr(core.os, "replace", fail)
            error = OSError
        else:  # a lone surrogate in the second chunk cannot be encoded
            text += "\ud800"
            error = UnicodeEncodeError
        with pytest.raises(error):
            write_text(str(path), text)
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["text.csv"]

    @pytest.mark.parametrize("writer", sorted(TEXT_WRITERS))
    def test_failed_encode_in_a_writer_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "hr.csv"  # the first file write_cohort writes
        path.write_bytes(b"old\n")
        # a lone surrogate in the second chunk cannot be encoded
        text = "new\n" * (core.WRITE_CHARS // 4) + "\ud800"
        with pytest.raises(UnicodeEncodeError):
            TEXT_WRITERS[writer](path, text, monkeypatch)
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["hr.csv"]


class TestArgumentHandling:
    def test_seed_override_touches_all_stage_seeds(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("cohort.seed = 1\n")
        args = build_parser().parse_args(
            ["synth", "--config", str(path), "--seed", "42"]
        )
        from harforge.cli import _resolve_config

        cfg = _resolve_config(args)
        for key in ("cohort.seed", "dataset.seed", "split.seed", "train.seed"):
            assert cfg[key] == 42

    def test_width_and_split_overrides_deduplicate(self):
        args = build_parser().parse_args(
            ["dataset", "--width", "30", "--width", "15", "--width", "30",
             "--split", "user", "--split", "user"]
        )
        from harforge.cli import _resolve_config

        cfg = _resolve_config(args)
        assert cfg.widths == (30, 15)
        assert cfg.split_modes == ("user",)

    def test_config_from_environment(self, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("cohort.n_users = 4\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        args = build_parser().parse_args(["synth"])
        from harforge.cli import _resolve_config

        assert _resolve_config(args)["cohort.n_users"] == 4

    def test_unknown_stage_is_usage_error(self):
        assert main(["compile"]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_INPUT
        assert "config file not found" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        assert main(["synth", "--config", str(path)]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ("", ["--width", "20"], "no sampling rate for width 20"),
            ("dataset.widths = 15,15\n", [], "dataset.widths names width 15 twice"),
        ],
    )
    def test_bad_widths_stop_the_pipeline_before_any_stage(
        self, tmp_path, capsys, config, flags, message
    ):
        path = tmp_path / "c.cfg"
        path.write_text(TINY_CONFIG.replace("dataset.widths = 15\n", config))
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(path), "--out", str(out), *flags])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            (
                "align.profile_scope = weekly\n", [],
                "config key align.profile_scope: must be one of ('day', 'global'), got 'weekly'",
            ),
            (
                "viz.band = wide\n", [],
                "config key viz.band: must be one of ('sd', 'range'), got 'wide'",
            ),
            ("", ["--seed", "-1"], "config key cohort.seed: must be non-negative, got -1"),
            ("cohort.seed = -1\n", [], "config key cohort.seed: must be non-negative, got -1"),
            ("dataset.seed = -2\n", [], "config key dataset.seed: must be non-negative, got -2"),
            ("split.seed = -3\n", [], "config key split.seed: must be non-negative, got -3"),
            ("train.seed = -4\n", [], "config key train.seed: must be non-negative, got -4"),
            ("split.modes = temporal,temporal\n", [], "split.modes names mode temporal twice"),
            ("split.modes = user,temporal,user\n", [], "split.modes names mode user twice"),
        ],
        ids=[
            "scope", "band", "seed-flag", "cohort-seed", "dataset-seed", "split-seed",
            "train-seed", "modes-twice", "modes-apart",
        ],
    )
    def test_bad_value_stops_the_pipeline_before_any_stage(
        self, tmp_path, capsys, config, flags, message
    ):
        """A value that a later stage would reject is exit 2 when the config
        is read, with a message naming its key, and nothing is written."""
        path = tmp_path / "c.cfg"
        path.write_text(TINY_CONFIG + config)
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(path), "--out", str(out), *flags])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                "dataset.label_threshold = 1.5",
                "config key dataset.label_threshold: must be in (0, 1], got 1.5",
            ),
            (
                "dataset.label_threshold = 0",
                "config key dataset.label_threshold: must be in (0, 1], got 0.0",
            ),
            ("cohort.n_users = 0", "config key cohort.n_users: must be at least 1, got 0"),
            ("cohort.n_days = 0", "config key cohort.n_days: must be at least 1, got 0"),
        ],
        ids=["threshold-above-1", "threshold-0", "no-users", "no-days"],
    )
    def test_out_of_range_value_stops_the_pipeline_before_any_stage(
        self, tmp_path, capsys, line, message
    ):
        """A label threshold above 1 keeps no window and one of 0 keeps every
        window whatever its labels; an empty cohort has nothing to impute.
        Each is exit 2 when the config is read, naming the key, instead of
        a failure stages later."""
        path = tmp_path / "c.cfg"
        path.write_text(f"{TINY_CONFIG}{line}\n")
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_stage_without_inputs_reports_whats_missing(self, tmp_path, capsys):
        code = main(["align", "--out", str(tmp_path / "empty")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "stage align: missing input" in err
        assert "canonical" in err


@pytest.fixture(scope="module")
def pipeline_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    out = root / "artifacts"
    code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_OK
    return cfg_path, out


def read_report(out, stage):
    with open(os.path.join(out, "reports", f"{stage}.json")) as fh:
        return json.load(fh)


class TestPipelineEndToEnd:
    def test_every_stage_output_exists(self, pipeline_tree):
        cfg_path, out = pipeline_tree
        cfg = PipelineConfig(parse_config_text(cfg_path.read_text()))
        lay = Layout(str(out))
        for stage in STAGE_ORDER:
            for path in stage_outputs(stage, cfg, lay):
                assert os.path.exists(path), path

    def test_reports_carry_counts_and_hashes(self, pipeline_tree):
        cfg_path, out = pipeline_tree
        cfg = PipelineConfig(parse_config_text(cfg_path.read_text()))
        peaks = []
        for stage in STAGE_ORDER:
            report = read_report(out, stage)
            assert report["stage"] == stage
            assert report["no_op"] is False
            assert report["config_hash"] == stage_config_hash(stage, cfg)
            peaks.append(report["peak_rss_mb"])
        # one process ran every stage, and ru_maxrss is its lifetime maximum
        assert 0 < peaks[0] and peaks == sorted(peaks)
        assert read_report(out, "synth")["counts"]["users"] == 7
        eval_counts = read_report(out, "eval")["counts"]
        assert set(eval_counts) == {"w15_temporal", "w15_user"}

    def test_truth_scoring_lands_in_impute_report(self, pipeline_tree):
        _, out = pipeline_tree
        counts = read_report(out, "impute")["counts"]
        assert counts["agreement"] > 0.9
        assert counts["residual_unknown_fraction"] < 0.1
        assert os.path.exists(os.path.join(out, "imputed", "mask_report.json"))

    def test_viz_index_lists_rendered_charts(self, pipeline_tree):
        _, out = pipeline_tree
        with open(os.path.join(out, "viz", "index.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "user_id,activity,file"
        assert len(lines) > 1
        user, activity, filename = lines[1].split(",", 2)
        assert os.path.exists(os.path.join(out, "viz", filename))

    def test_rerun_is_a_noop(self, pipeline_tree, capsys):
        cfg_path, out = pipeline_tree
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.count("up to date, skipped") == len(STAGE_ORDER)
        for stage in STAGE_ORDER:
            report = read_report(out, stage)
            assert report["no_op"] is True
            assert report["duration_s"] == 0.0
            assert report["peak_rss_mb"] > 0

    def test_config_drift_blocks_until_forced(self, pipeline_tree, tmp_path, capsys):
        cfg_path, out = pipeline_tree
        copy = tmp_path / "drift"
        shutil.copytree(out, copy)
        drifted = tmp_path / "drift.cfg"
        drifted.write_text(TINY_CONFIG + "loss.gamma = 3.0\n")

        code = main(["train", "--config", str(drifted), "--out", str(copy)])
        assert code == EXIT_STALE
        assert "pass --force to rebuild" in capsys.readouterr().err

        code = main(["train", "--config", str(drifted), "--out", str(copy), "--force"])
        assert code == EXIT_OK
        assert read_report(copy, "train")["no_op"] is False

    def test_stage_that_dies_is_rebuilt_on_the_next_run(
        self, pipeline_tree, tmp_path, monkeypatch, capsys
    ):
        cfg_path, out = pipeline_tree
        copy = tmp_path / "crash"
        shutil.copytree(out, copy)
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG + "impute.max_gap_minutes = 5\nimpute.awake_factor = 1.01\n")

        def die(stats):
            raise RuntimeError("killed after imputed.csv was written")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "write_stats_report", die)
            code = main(["impute", "--config", str(other), "--out", str(copy), "--force"])
        assert code == EXIT_ERROR
        imputed = "imputed/imputed.csv"
        assert (copy / imputed).read_bytes() != (out / imputed).read_bytes()
        assert not (copy / "reports" / "impute.json").exists()
        capsys.readouterr()

        code = main(["impute", "--config", str(cfg_path), "--out", str(copy)])
        assert code == EXIT_OK
        assert "up to date" not in capsys.readouterr().out
        assert read_report(copy, "impute")["no_op"] is False
        for name in sorted(os.listdir(out / "imputed")):
            assert (copy / "imputed" / name).read_bytes() == (out / "imputed" / name).read_bytes()

    def test_rebuild_without_truth_drops_the_old_mask_report(self, pipeline_tree, tmp_path):
        _, out = pipeline_tree
        copy = tmp_path / "no_truth"
        shutil.copytree(out, copy)
        os.remove(copy / "raw" / "truth.csv")
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG + "impute.max_gap_minutes = 5\n")
        code = main(["impute", "--config", str(other), "--out", str(copy), "--force"])
        assert code == EXIT_OK
        imputed = "imputed/imputed.csv"
        assert (copy / imputed).read_bytes() != (out / imputed).read_bytes()
        assert not (copy / "imputed" / "mask_report.json").exists()
        assert "agreement" not in read_report(copy, "impute")["counts"]

    def test_train_and_eval_parse_each_store_once(self, pipeline_tree, tmp_path, monkeypatch):
        cfg_path, out = pipeline_tree
        cfg = PipelineConfig(parse_config_text(cfg_path.read_text()))
        assert len(cfg.split_modes) == 2
        copy = tmp_path / "rerun"
        shutil.copytree(out, copy)
        loads = []
        real_load = cli.load_window_store

        def counted_load(path):
            loads.append(os.path.basename(path))
            return real_load(path)

        monkeypatch.setattr(cli, "load_window_store", counted_load)
        for stage in ("train", "eval"):
            os.remove(copy / "reports" / f"{stage}.json")  # so the stage runs again
            loads.clear()
            code = main([stage, "--config", str(cfg_path), "--out", str(copy)])
            assert code == EXIT_OK
            assert loads == [f"windows_w{w}.jsonl" for w in cfg.widths]
            for name in sorted(os.listdir(out / stage)):
                assert (copy / stage / name).read_bytes() == (out / stage / name).read_bytes()

    def _tampered_manifest(self, pipeline_tree, tmp_path, edit):
        """A copy of the pipeline tree whose w15 temporal split is edited."""
        _, out = pipeline_tree
        copy = tmp_path / "tampered"
        shutil.copytree(out, copy)
        path = copy / "dataset" / "splits_w15.json"
        manifest = json.loads(path.read_text())
        edit(manifest["temporal"])
        path.write_text(json.dumps(manifest))
        return copy

    def _assert_rejected(self, pipeline_tree, copy, stage, capsys, message):
        cfg_path, _ = pipeline_tree
        os.remove(copy / "reports" / f"{stage}.json")  # so the stage runs again
        code = main([stage, "--config", str(cfg_path), "--out", str(copy)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "splits_w15.json, 'temporal' split" in err
        assert message in err

    def test_negative_split_index_rejected(self, pipeline_tree, tmp_path, capsys):
        copy = self._tampered_manifest(
            pipeline_tree, tmp_path, lambda entry: entry["train"].append(-1)
        )
        self._assert_rejected(pipeline_tree, copy, "train", capsys, "outside the")

    def test_out_of_range_split_index_rejected(self, pipeline_tree, tmp_path, capsys):
        def edit(entry):
            entry["test"].append(max(entry["train"] + entry["val"] + entry["test"]) + 1)

        copy = self._tampered_manifest(pipeline_tree, tmp_path, edit)
        self._assert_rejected(pipeline_tree, copy, "eval", capsys, "outside the")

    def test_train_checks_the_test_indices_it_does_not_load(
        self, pipeline_tree, tmp_path, capsys
    ):
        def edit(entry):
            entry["test"].append(max(entry["train"] + entry["val"] + entry["test"]) + 1)

        copy = self._tampered_manifest(pipeline_tree, tmp_path, edit)
        self._assert_rejected(pipeline_tree, copy, "train", capsys, "outside the")

    def test_index_in_two_parts_rejected(self, pipeline_tree, tmp_path, capsys):
        copy = self._tampered_manifest(
            pipeline_tree, tmp_path, lambda entry: entry["train"].append(entry["test"][0])
        )
        self._assert_rejected(pipeline_tree, copy, "train", capsys, "listed more than once")

    def test_non_integer_split_index_rejected(self, pipeline_tree, tmp_path, capsys):
        copy = self._tampered_manifest(
            pipeline_tree, tmp_path, lambda entry: entry["val"].append(1.5)
        )
        self._assert_rejected(pipeline_tree, copy, "train", capsys, "indices must be integers")

    @pytest.mark.parametrize("via", ["pipeline", "stage"])
    @pytest.mark.parametrize(
        "line, stage, message",
        [
            ("train.dropout = 1.5", "train", "train: dropout must be in [0, 1), got 1.5"),
            (
                "train.pooling = max", "train",
                "train: pooling must be one of ('final', 'mean'), got 'max'",
            ),
            ("loss.gamma = -1", "train", "loss: gamma must be non-negative"),
            ("train.batch_size = 0", "train", "train: batch_size must be positive"),
            ("split.fractions = 0.5,0.2,0.2", "dataset", "split: fractions must sum to 1"),
            (
                "impute.night_start_minute = 5000", "impute",
                "impute: night_start_minute must be in [0, 1440), got 5000",
            ),
            (
                "impute.night_end_minute = -1", "impute",
                "impute: night_end_minute must be in [0, 1440), got -1",
            ),
            (
                "impute.awake_factor = -1", "impute",
                "impute: awake_factor must be positive, got -1.0",
            ),
            (
                "impute.night_sleep_factor = 0", "impute",
                "impute: night_sleep_factor must be positive, got 0.0",
            ),
            (
                "impute.max_gap_minutes = -3", "impute",
                "impute: max_gap_minutes must be non-negative, got -3",
            ),
            ("loss.lambda1 = -2", "train", "loss: lambda1 must be non-negative"),
            ("loss.lambda2 = -0.5", "train", "loss: lambda2 must be non-negative"),
            (
                "train.early_stopping_patience = -4", "train",
                "train: early_stopping_patience must be at least 1",
            ),
            (
                "train.early_stopping_patience = 0", "train",
                "train: early_stopping_patience must be at least 1",
            ),
        ],
        ids=[
            "dropout", "pooling", "gamma", "batch_size", "fractions", "night_start",
            "night_end", "awake_factor", "night_sleep_factor", "max_gap", "lambda1", "lambda2",
            "patience", "patience_zero",
        ],
    )
    def test_value_a_section_config_rejects_stops_before_any_output(
        self, pipeline_tree, tmp_path, capsys, line, stage, message, via
    ):
        """A bad value is exit 2 when the config is read: ``pipeline`` on a
        fresh directory writes nothing, and the stage that reads the value
        writes none of its outputs over its inputs."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{TINY_CONFIG}{line}\n")
        if via == "pipeline":
            out = gone = tmp_path / "fresh"
        else:
            out = tmp_path / "tree"
            shutil.copytree(pipeline_tree[1], out)
            gone = out / STAGE_TABLE[stage].writes[0].split("/")[0]
            shutil.rmtree(gone)
            os.remove(out / "reports" / f"{stage}.json")
        command = "pipeline" if via == "pipeline" else stage
        code = main([command, "--config", str(bad), "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: config section {message}\n"
        assert not gone.exists()
        assert not (out / "reports" / f"{stage}.json").exists()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "harforge", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "pipeline stage to run" in proc.stdout


BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _files_outside_reports(out) -> dict[str, bytes]:
    """Every file of a tree but the stage reports (they hold wall-clock
    durations), by relative path."""
    files = {}
    for dirpath, _, filenames in os.walk(out):
        for filename in filenames:
            full = os.path.join(dirpath, filename)
            rel = os.path.relpath(full, out)
            if rel.split(os.sep)[0] != "reports":
                with open(full, "rb") as fh:
                    files[rel] = fh.read()
    return files


def test_traced_in_process_stages_write_the_plain_tree(tmp_path, monkeypatch):
    """Every stage through ``main`` in one process, once plainly and once in
    a fresh tree inside the benchmark's tracer (``bench/harbench/tracing.py``,
    which wraps the names it patches on ``harforge.cli`` and the model
    modules), writes the same files: the wrappers keep every argument and
    result, and no call leaves state behind for the next."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    tracing = importlib.import_module("harbench.tracing")
    stages = importlib.import_module("harbench.spec").STAGES
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TRAINING_CONFIG + "train.max_epochs = 2\n")
    tracer = tracing.Tracer()
    trees = {}
    for name, context in (("plain", contextlib.nullcontext()), ("traced", tracing.traced(tracer))):
        out = str(tmp_path / name)
        with context:
            for stage in stages:
                assert main([stage, "--config", str(cfg_path), "--out", out]) == EXIT_OK, stage
        trees[name] = _files_outside_reports(out)
    spans = {span.name for span in tracer.spans}
    assert {"align.read_aligned_csv", "model.training.checkpoint_io"} <= spans
    assert any(rel.startswith("train") for rel in trees["plain"])
    assert sorted(trees["traced"]) == sorted(trees["plain"])
    changed = [rel for rel in trees["plain"] if trees["traced"][rel] != trees["plain"][rel]]
    assert not changed, f"the traced run wrote other files: {changed}"
