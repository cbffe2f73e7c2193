"""Byte-identity of the pre-training artifacts against committed digests.

Runs ``synth`` through ``viz`` (without train and eval) via the CLI on two
small fixed cohorts and compares the sha256 of every file under
``raw/ canonical/ aligned/ imputed/ dataset/ viz/`` with ``golden_digests.json``.
A refactor that changes any artifact, even by one byte, fails here.

A third cohort runs on through ``train`` and ``eval`` with the model
stubbed out, and compares the digests of the arrays those stages feed the
model, of the fitted normalizers and of the evaluation reports with
``golden_training_digests.json``.
"""

import hashlib
import json
import os

import numpy as np
import pytest

import harforge.cli
import harforge.evaluation
from harforge.cli import main as cli_main
from harforge.model import Predictions

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")

GOLDEN_DIRS = ("raw", "canonical", "aligned", "imputed", "dataset", "viz")

GOLDEN_STAGES = ("synth", "ingest", "align", "impute", "dataset", "viz")

#: Two cohorts of 2 users x 4 days: the default per-day profiles, and a
#: pooled profile under a different local offset with denser sleep dropout.
GOLDEN_CONFIGS = {
    "day": "cohort.n_users = 2\ncohort.n_days = 4\ncohort.seed = 3\n",
    "global": (
        "cohort.n_users = 2\ncohort.n_days = 4\ncohort.seed = 4\n"
        "cohort.sleep_dropout = 0.6\n"
        "align.tz_offset_minutes = -45\nalign.profile_scope = global\n"
        "dataset.widths = 15,60\n"
    ),
}


def artifact_digests(out_dir) -> dict[str, str]:
    """sha256 of every file under the golden directories, keyed by relative path."""
    digests = {}
    for top in GOLDEN_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(out_dir, top)):
            for filename in filenames:
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, out_dir).replace(os.sep, "/")
                with open(full, "rb") as fh:
                    digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def run_golden_cohort(name: str, work_dir) -> dict[str, str]:
    cfg_path = os.path.join(work_dir, f"{name}.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(GOLDEN_CONFIGS[name])
    out = os.path.join(work_dir, name)
    for stage in GOLDEN_STAGES:
        assert cli_main([stage, "--config", cfg_path, "--out", out]) == 0, stage
    return artifact_digests(out)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_artifacts_match_committed_digests(name, tmp_path):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    got = run_golden_cohort(name, str(tmp_path))
    assert any(rel.startswith("viz/radar_") for rel in got)
    assert sorted(got) == sorted(golden)
    changed = [rel for rel in golden if got[rel] != golden[rel]]
    assert not changed, f"artifacts differ from the committed digests: {changed}"


TRAINING_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_training_digests.json")

#: 4 users x 5 days with a 50/25/25 cut, so both split modes give every
#: part at least one user or day (the two cohorts above have two users, too
#: few for a user split); the default oversampling stays on.
TRAINING_CONFIG = (
    "cohort.n_users = 4\ncohort.n_days = 5\ncohort.seed = 5\n"
    "dataset.widths = 15,60\nsplit.fractions = 0.5,0.25,0.25\n"
)

#: the order in which the train and eval stages visit their runs
TRAINING_RUNS = ("w15_temporal", "w15_user", "w60_temporal", "w60_user")


def array_digest(a) -> str:
    """sha256 over dtype, shape and the C-order bytes of an array."""
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode("ascii") + a.tobytes()).hexdigest()


def training_input_digests(work_dir, monkeypatch) -> dict[str, str]:
    """Digests of what train and eval are fed on the training cohort.

    ``train`` is stubbed to record its inputs and return the initial
    parameters with an empty history, and ``predict`` to record its input
    and return fixed predictions, so no BLAS result enters a digest. The
    test labels reach a digest through the evaluation reports.
    """
    fed = {"train": [], "val": [], "test": []}

    def fake_train(params, train_data, val_data, *args, **kwargs):
        fed["train"].append(train_data)
        fed["val"].append(val_data)
        return params, []

    def fake_predict(params, x, batch_size=1024):
        fed["test"].append((x,))
        pred1 = np.arange(x.shape[0]) % params.n_level1
        pred2 = np.arange(x.shape[0]) % params.n_level2
        return Predictions(
            probs1=np.eye(params.n_level1)[pred1],
            probs2=np.eye(params.n_level2)[pred2],
            pred1=pred1,
            pred2=pred2,
        )

    monkeypatch.setattr(harforge.cli, "train", fake_train)
    monkeypatch.setattr(harforge.evaluation, "predict", fake_predict)
    cfg_path = os.path.join(work_dir, "training.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(TRAINING_CONFIG)
    out = os.path.join(work_dir, "training")
    for stage in ("synth", "ingest", "align", "impute", "dataset", "train", "eval"):
        assert cli_main([stage, "--config", cfg_path, "--out", out]) == 0, stage
    digests = {}
    for part, calls in fed.items():
        assert len(calls) == len(TRAINING_RUNS), part
        for run, arrays in zip(TRAINING_RUNS, calls):
            for name, a in zip(("x", "y1", "y2"), arrays):
                digests[f"{run}/{part}/{name}"] = array_digest(a)
    for run in TRAINING_RUNS:
        for rel in (f"train/normalizer_{run}.json", f"eval/report_{run}.json"):
            with open(os.path.join(out, rel), "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def test_training_inputs_match_committed_digests(tmp_path, monkeypatch):
    with open(TRAINING_GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = training_input_digests(str(tmp_path), monkeypatch)
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"training inputs differ from the committed digests: {changed}"
