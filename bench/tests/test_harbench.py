"""Tests of the benchmark's own logic; they run without harforge.

    python3 -m pytest bench/tests -q
"""

import json
import os
import signal
import sys
import types
from pathlib import Path

import pytest

from harbench import spec
from harbench.runner import manifest, manifest_diff, run_process
from harbench.stats import (
    nearest_rank,
    per_call_summary,
    quartile_spread,
    samples_beyond,
    self_time,
    tail_quantile,
)
from harbench.tracing import Target, Tracer, traced
from harbench.workloads import Run, check_etl, median_time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = Tracer(clock)
    with t.span("stage"):  # 0 .. 10
        clock.now = 1.0
        with t.span("child"):  # 1 .. 4
            clock.now = 2.0
            with t.span("grandchild"):  # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 6.0
        with t.span("child"):  # 6 .. 7
            clock.now = 7.0
        clock.now = 10.0
    assert t.total("stage") == 10.0
    assert t.total("child") == 4.0
    assert t.self_total("stage") == 6.0
    assert t.self_total("child") == 3.0  # 3 - 1 (grandchild) + 1
    assert t.self_total("grandchild") == 1.0
    assert [s.parent for s in t.spans] == [None, 0, 1, 0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    assert self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0)]) == 5.0
    assert self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 8.0
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == 0.0


@pytest.mark.parametrize(
    "n, q",
    [(1, 0.5), (19, 0.5), (20, 0.5), (99, 0.5), (100, 0.9), (999, 0.9), (1000, 0.99),
     (9999, 0.99), (10000, 0.999)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_quantile(n) == q
    if q != 0.5:
        assert samples_beyond(n, q) >= 10
    higher = [h for h in (0.9, 0.99, 0.999) if h > q]
    assert all(samples_beyond(n, h) < 10 for h in higher)


def test_per_call_summary_counts_and_ranks():
    values = [float(v) for v in range(1, 101)]  # 1 .. 100
    summary = per_call_summary(values[::-1])
    assert summary["n"] == 100
    assert summary["p50"] == 50.5
    assert summary["tail_q"] == 0.9
    assert summary["tail"] == 90.0  # 10 samples (91..100) lie beyond it
    assert nearest_rank(values, 0.99) == 99.0


def test_small_samples_report_the_median_as_tail():
    summary = per_call_summary([5.0, 1.0, 3.0, 2.0])
    assert summary == {"p50": 2.5, "tail": 2.5, "tail_q": 0.5, "n": 4}


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [9.0, 9.5, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.5, 11.0]
    assert quartile_spread(values) == pytest.approx((10.125 - 9.875) / 10.0)


def test_median_time_sums_each_stages_median():
    passes = [
        {"ingest": 2.0, "align": 6.0, "viz": 1.0},
        {"ingest": 3.0, "align": 4.0, "viz": 1.5},
        {"ingest": 2.5, "align": 9.0},  # a pass cut short by a failed stage
    ]
    assert median_time(passes) == pytest.approx(2.5 + 6.0 + 1.25)
    assert median_time(passes, ("ingest", "align")) == pytest.approx(8.5)


def test_interrupted_stage_process_is_killed_and_reaped(tmp_path):
    def interrupt(*_):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.2)
    try:
        with pytest.raises(KeyboardInterrupt):
            argv = [sys.executable, "-c", "import time; time.sleep(60)"]
            run_process(argv, dict(os.environ), str(tmp_path), 60.0, str(tmp_path))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):  # no child left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def test_traced_patches_by_import_name_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.parse = lambda rows: list(rows)
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    original = mod.parse
    tracer = Tracer()
    target = Target("fake_layer", "parse", lambda a, k: f"parse.n{len(a[0])}",
                    lambda a, k, r: {"rows": len(r)})
    with traced(tracer, (target,)):
        assert mod.parse("abc") == ["a", "b", "c"]
    assert mod.parse is original
    assert [(s.name, s.attrs) for s in tracer.spans] == [("parse.n3", {"rows": 3})]


class TickingClock:
    """Advances by one on every read."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_overhead_is_the_wrappers_own_time_under_the_named_roots(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.leaf = lambda: None
    mod.stage = lambda: mod.leaf()
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = Tracer(TickingClock())
    targets = (Target("fake_layer", "stage", "cli.stage.a"), Target("fake_layer", "leaf", "leaf"))
    with traced(tracer, targets):
        mod.stage()
        mod.leaf()
    stage, inner, outer = tracer.spans
    # each wrapper reads the clock twice before and twice after its call
    # besides the span's start and end: 4 ticks of its own
    assert [s.overhead for s in tracer.spans] == [4.0, 4.0, 4.0]
    assert (inner.parent, outer.parent) == (stage.id, None)
    assert tracer.overhead(("cli.stage.a",)) == 8.0
    assert tracer.overhead(("leaf",)) == 4.0


def _etl_tree(root):
    for top in spec.ETL_TREES:
        (root / top).mkdir(parents=True)
        (root / top / "out.csv").write_bytes(f"{top},1\n".encode())
    (root / "reports").mkdir()
    (root / "reports" / "align.json").write_text('{"duration_s": 1.0}')


def test_flipped_byte_fails_the_digest_check_and_raises_error_rate(tmp_path):
    tree = tmp_path / "tree"
    _etl_tree(tree)
    run = Run(str(tmp_path), str(tmp_path / "work"), "etl", seed=3, seconds=1)

    assert check_etl(run, str(tree))  # the first run's manifest becomes the reference
    (tree / "reports" / "align.json").write_text('{"duration_s": 2.0}')  # reports are excluded
    assert check_etl(run, str(tree))
    assert (run.attempted, run.failed, run.error_rate) == (2, 0, 0.0)

    path = tree / "aligned" / "out.csv"
    data = bytearray(path.read_bytes())
    data[0] ^= 0x01
    path.write_bytes(bytes(data))
    assert not check_etl(run, str(tree))
    assert (run.attempted, run.failed) == (3, 1)
    assert run.error_rate == pytest.approx(1 / 3)
    assert "aligned/out.csv" in run.failures[0]


def test_committed_manifest_is_the_reference_for_its_seed(tmp_path):
    tree = tmp_path / "tree"
    _etl_tree(tree)
    committed = tmp_path / "bench" / "manifests"
    committed.mkdir(parents=True)
    reference = manifest(str(tree), spec.ETL_TREES)
    reference["viz/out.csv"] = "0" * 64
    name = f"etl-seed{spec.DEFAULT_SEED}-{spec.config_digest()}.json"
    (committed / name).write_text(json.dumps(reference))
    run = Run(str(tmp_path), str(tmp_path / "work"), "etl", spec.DEFAULT_SEED, seconds=1)
    assert not check_etl(run, str(tree))
    assert run.error_rate == 1.0


def test_manifest_diff_names_missing_extra_and_changed():
    a = {"x": "1", "y": "2", "z": "3"}
    b = {"x": "1", "y": "9", "w": "4"}
    assert manifest_diff(a, b) == ["w", "y", "z"]


def test_benchmark_json_meets_the_contract():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)
    assert len(doc["per_layer"]) <= 128
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(w["name"] in spec.WORKLOADS for w in doc["workloads"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
