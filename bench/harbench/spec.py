"""What the benchmark runs: the cohort and the workloads. The metrics, their
units and bounds, the run length and the bounded workloads are read from
``BENCHMARK.json`` at the checkout root, the one place they are defined.
"""

from __future__ import annotations

import hashlib
import json
import os

#: harforge config shared by every workload. The cohort is 4 users x 10 days
#: (40 user-days) so that set-up stays short next to the measured time
#: (a train set-up is about 13 s on 2 CPUs); 4 epochs with patience 10
#: make the training work fixed.
N_USERS = 4
N_DAYS = 10
USER_DAYS = N_USERS * N_DAYS
WIDTHS = (15, 60)
MAX_EPOCHS = 4
CONFIG_TEXT = f"""\
cohort.n_users = {N_USERS}
cohort.n_days = {N_DAYS}
dataset.widths = {",".join(str(w) for w in WIDTHS)}
split.modes = temporal
train.max_epochs = {MAX_EPOCHS}
train.early_stopping_patience = 10
"""
DEFAULT_SEED = 7
#: a seed the default does not use, for re-checking claims on an unseen cohort
SECOND_SEED = 11

STAGES = ("synth", "ingest", "align", "impute", "dataset", "train", "eval", "viz")

#: directories the etl manifest covers (reports/ holds timings, so it is left out)
ETL_TREES = ("canonical", "aligned", "imputed", "dataset", "viz")


def config_digest() -> str:
    return hashlib.sha256(CONFIG_TEXT.encode("utf-8")).hexdigest()[:12]


#: rerun runs with ``--workload rerun`` but is not in BENCHMARK.json: one call
#: is ~0.3 s, mostly interpreter start-up and imports, and its per-call time
#: spread by 0.24 (quartile distance over median) between runs on the 2-CPU
#: host, which no bound of at most 0.25 holds. Its layers stay in every
#: traced run (cli.import_s, cli.run_stage.noop_ms).
WORKLOADS = {
    "etl": {
        "setup": ("synth",),
        "timed": ("ingest", "align", "impute", "dataset", "viz"),
    },
    "train": {
        "setup": ("synth", "ingest", "align", "impute", "dataset"),
        "timed": ("train", "eval"),
    },
    "rerun": {
        "setup": STAGES,
        "timed": ("pipeline",),
    },
}

_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)
with open(_BENCHMARK, encoding="utf-8") as _fh:
    _DOC = json.load(_fh)

#: measured time per run. The 2-CPU host this was tuned on changes speed by
#: up to 2x in phases of seconds to minutes, so a run must average over
#: tens of seconds to be steady.
RUN_SECONDS = _DOC["run_seconds"]
BOUNDED_WORKLOADS = tuple(w["name"] for w in _DOC["workloads"])
END_TO_END = tuple(_DOC["end_to_end"])
PER_LAYER = tuple(_DOC["per_layer"])
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
