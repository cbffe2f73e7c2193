"""Byte-identity of the pre-training artifacts against committed digests.

Runs ``synth`` through ``viz`` (without train and eval) via the CLI on two
small fixed cohorts and compares the sha256 of every file under
``canonical/ aligned/ imputed/ dataset/ viz/`` with ``golden_digests.json``.
A refactor that changes any artifact, even by one byte, fails here.
"""

import hashlib
import json
import os

import pytest

from harforge.cli import main as cli_main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")

GOLDEN_DIRS = ("canonical", "aligned", "imputed", "dataset", "viz")

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
