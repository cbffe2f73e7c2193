"""End-to-end acceptance checks: conservation, oracle equivalence,
imputation quality, gradient correctness, loss identities, window
enumeration, split-mode learning gap, determinism, and chart output.

Each test prints a one-line PASS note so a verbose run reads as a
checklist. The heavier tests time themselves against explicit budgets.
"""

import math
import os
import time
import xml.etree.ElementTree as ET
from datetime import date

import numpy as np
import pytest

from harforge.align import align_cohort, percentile_rows, redistribute
from harforge.cli import main as cli_main
from harforge.core import SleepState, default_taxonomy
from harforge.dataset import (
    SplitSpec,
    apply_normalizer,
    build_windows,
    fit_normalizer,
    median_class_count,
    oversample_minority,
    split_windows,
    stratified_sample,
    window_stride,
)
from harforge.evaluation import evaluate_run, macro_f1, roc_auc_ovr
from harforge.impute import impute_cohort
from harforge.ingest import parse_hr_stream
from harforge.model import (
    LossConfig,
    TrainConfig,
    focal_transform,
    hierarchical_focal_loss,
    init_params,
    log_softmax,
    loss_and_grads,
    loss_value,
    train,
    windows_to_arrays,
)
from harforge.model.network import _ARRAY_ORDER
from harforge.synth import CohortConfig, generate_cohort, mask_report
from harforge.viz import (
    ActivityMetricSet,
    group_baseline,
    normalize_radar,
    render_radar,
)



def test_step_conservation_over_ten_thousand_blocks():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(10_000):
        pulses = [
            math.nan if rng.random() < 0.2 else float(rng.uniform(35.0, 190.0))
            for _ in range(15)
        ]
        steps = int(rng.integers(0, 2000))
        distance = float(steps * rng.uniform(0.5, 1.1))
        min_hr = float(rng.uniform(40.0, 70.0))
        step_parts, distance_parts = redistribute(
            np.array([steps]), np.array([distance]), np.array([pulses]), np.array([min_hr])
        )
        per_minute = list(zip(step_parts[0].tolist(), distance_parts[0].tolist()))
        step_sum = sum(s for s, _ in per_minute)
        dist_sum = sum(d for _, d in per_minute)
        assert step_sum == steps
        assert abs(dist_sum - distance) <= 1e-9
        assert all(s >= 0 and d >= 0.0 for s, d in per_minute)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"redistribution too slow: {elapsed:.2f}s"
    print(f"PASS conservation: 10000 blocks exact in {elapsed:.2f}s")


def test_metric_implementations_match_independent_oracles():
    rng = np.random.default_rng(202)

    pulses = np.full((1000, 200), np.nan)
    for row in pulses:
        n = int(rng.integers(1, 200))
        row[:n] = rng.uniform(35.0, 200.0, size=n)
    for q in (5.0, 99.97):
        for row, got in zip(pulses, percentile_rows(pulses, q)):
            assert abs(got - np.percentile(row[~np.isnan(row)], q)) <= 1e-12

    for _ in range(1000):
        k = int(rng.integers(2, 13))
        n = int(rng.integers(1, 200))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        got = macro_f1(preds, labels, k)
        f1s = []
        for cls in sorted(set(labels.tolist()) | set(preds.tolist())):
            tp = int(((labels == cls) & (preds == cls)).sum())
            fp = int(((labels != cls) & (preds == cls)).sum())
            fn = int(((labels == cls) & (preds != cls)).sum())
            denom = 2 * tp + fp + fn
            f1s.append(2 * tp / denom if denom else 0.0)
        assert abs(got - sum(f1s) / len(f1s)) <= 1e-12

    for _ in range(1000):
        n = int(rng.integers(20, 60))
        k = int(rng.integers(2, 5))
        labels = rng.integers(0, k, size=n)
        while len(set(labels.tolist())) < 2:
            labels = rng.integers(0, k, size=n)
        scores = rng.normal(size=(n, k))
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force score ties
        got = roc_auc_ovr(scores, labels)
        aucs = []
        for cls in sorted(set(labels.tolist())):
            pos = scores[labels == cls, cls]
            neg = scores[labels != cls, cls]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            aucs.append((wins + 0.5 * ties) / (len(pos) * len(neg)))
        assert abs(got - sum(aucs) / len(aucs)) <= 1e-12

    print("PASS oracles: envelope, macro F1 and OVR AUC agree on 1000 fixtures each")


def _keepends(text):
    return text.splitlines(keepends=True)


def _aligned_chain(config, hr_text):
    cohort = generate_cohort(config)
    taxonomy = default_taxonomy()
    aligned = align_cohort(
        parse_hr_stream(_keepends(hr_text(cohort))),
        cohort.activity,
        cohort.sleep,
        cohort.schedule,
        tz_offset_minutes=config.tz_offset_minutes,
    )
    return cohort, taxonomy, aligned


def test_default_cohort_imputation_quality_and_speed(hr_text):
    start = time.perf_counter()
    cohort, _, aligned = _aligned_chain(CohortConfig(), hr_text)
    post, _, marks = impute_cohort(aligned.days)
    report = mask_report(cohort.truth, aligned.days, post, marks)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"pipeline too slow: {elapsed:.1f}s"
    assert report.residual_unknown_fraction <= 0.08
    assert report.agreement is not None and report.agreement >= 0.90
    print(
        f"PASS imputation: unknown {report.residual_unknown_fraction:.4f}, "
        f"agreement {report.agreement:.4f}, {elapsed:.1f}s"
    )


def test_analytic_gradients_match_finite_differences_everywhere():
    rng = np.random.default_rng(303)
    params = init_params(5, 8, 13, seed=3, dropout=0.0)
    x = rng.normal(size=(4, 12, 5))
    y1 = rng.integers(0, 3, size=4)
    y2 = rng.integers(0, 13, size=4)
    _, grads, _ = loss_and_grads(params, x, y1, y2, train_mode=False)
    h = 1e-5
    worst = 0.0
    for name in _ARRAY_ORDER:
        flat = params.arrays[name].ravel()
        for index in range(0, flat.size, max(1, flat.size // 25)):
            old = flat[index]
            flat[index] = old + h
            up = loss_value(params, x, y1, y2)
            flat[index] = old - h
            dn = loss_value(params, x, y1, y2)
            flat[index] = old
            num = (up - dn) / (2 * h)
            ana = grads[name].ravel()[index]
            rel = abs(num - ana) / max(1.0, abs(num), abs(ana))
            worst = max(worst, rel)
            assert rel <= 1e-4, (name, index, rel)
    print(f"PASS gradients: worst relative error {worst:.2e}")


def test_loss_identities():
    rng = np.random.default_rng(404)
    logits1 = rng.normal(size=(32, 3))
    logits2 = rng.normal(size=(32, 13))
    y1 = rng.integers(0, 3, size=32)
    y2 = rng.integers(0, 13, size=32)
    cfg = LossConfig(lambda1=0.3, lambda2=1.0, alpha=1.0, gamma=0.0)
    total, _ = hierarchical_focal_loss(logits1, logits2, y1, y2, cfg)
    ce1 = -log_softmax(logits1)[np.arange(32), y1].mean()
    ce2 = -log_softmax(logits2)[np.arange(32), y2].mean()
    assert abs(total - (0.3 * ce1 + 1.0 * ce2)) <= 1e-12

    ln2 = math.log(2.0)
    assert focal_transform(np.array([ln2]), alpha=2.0, gamma=2.0)[0] == pytest.approx(
        0.346574, abs=1e-6
    )
    print("PASS losses: focal(alpha=1,gamma=0) == weighted CE; focal(ln2; 2,2) == 0.346574")


def test_window_counts_match_enumeration(grid_factory, taxonomy):
    days = grid_factory(pulse=70.0, steps=0, sleep=SleepState.AWAKE, min_hr=50.0, max_hr=180.0)
    expected = {15: 143, 30: 68, 45: 46, 60: 33}
    for width, want in expected.items():
        stride = window_stride(width)
        oracle = len(range(0, 1440 - width + 1, stride))
        got = len(build_windows(days, width, taxonomy))
        assert got == oracle == want, (width, got, oracle)
    print(f"PASS windows: counts {expected} match enumeration")


def test_short_daily_activity_visible_only_to_narrow_windows(grid_factory, taxonomy):
    bout = range(400, 420)  # 20 minutes every day
    columns = {}
    for offset in range(3):
        day = date(2024, 3, 4 + offset)
        columns[("u001", day)] = {
            "pulse": 70.0,
            "steps": 0,
            "sleep": SleepState.AWAKE,
            "schedule": {i: "Fitness Test" for i in bout},
            "min_hr": 50.0,
            "max_hr": 180.0,
        }
    days = grid_factory(columns)

    def labeled(width):
        wins = build_windows(days, width, taxonomy)
        return int((wins.label_l2 == "Fitness Test").sum())

    wide, narrow = labeled(60), labeled(15)
    assert wide == 0
    assert narrow > 0
    print(f"PASS granularity: 20-min bout yields {narrow} windows at w=15, {wide} at w=60")


def test_temporal_split_outperforms_user_split_on_level1(hr_text):
    start = time.perf_counter()
    config = CohortConfig(n_users=10, n_days=10, seed=13, user_frac_jitter_sd=0.04)
    _, taxonomy, aligned = _aligned_chain(config, hr_text)
    post, _, _ = impute_cohort(aligned.days)
    results = {}
    for width in (15, 30, 45, 60):
        windows = build_windows(post, width, taxonomy)
        sampled = stratified_sample(windows, width, 0)
        accs = {}
        for mode in ("temporal", "user"):
            split = split_windows(sampled, SplitSpec(mode=mode, seed=0))
            train_wins = sampled.select(split.train)
            train_wins = oversample_minority(
                train_wins, median_class_count(train_wins), seed=0
            )
            normalizer = fit_normalizer(train_wins)
            train_data = windows_to_arrays(
                apply_normalizer(train_wins, normalizer), taxonomy
            )
            val_data = windows_to_arrays(
                apply_normalizer(sampled.select(split.val), normalizer), taxonomy
            )
            params = init_params(5, 24, len(taxonomy.level2_classes), seed=0)
            best, _ = train(
                params,
                train_data,
                val_data,
                TrainConfig(max_epochs=40, batch_size=128, seed=0),
                LossConfig(),
            )
            report = evaluate_run(
                best,
                apply_normalizer(sampled.select(split.test), normalizer),
                taxonomy,
                width=width,
                split=mode,
            )
            accs[mode] = report.accuracy_l1
        results[width] = accs
        assert accs["temporal"] >= 0.90, (width, accs)
        assert accs["temporal"] > accs["user"], (width, accs)
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"training sweep too slow: {elapsed:.0f}s"
    table = ", ".join(
        f"w{w}: {a['temporal']:.3f}>{a['user']:.3f}" for w, a in results.items()
    )
    print(f"PASS splits: {table} in {elapsed:.0f}s")


PIPELINE_CONFIG = """\
cohort.n_users = 7
cohort.n_days = 7
cohort.seed = 5
cohort.user_frac_jitter_sd = 0.04
dataset.widths = 15
train.hidden_size = 8
train.max_epochs = 2
train.batch_size = 128
"""


def test_same_seed_pipelines_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(PIPELINE_CONFIG)
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        files = {}
        for dirpath, _, filenames in os.walk(out):
            for filename in filenames:
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, out)
                if rel.split(os.sep)[0] == "reports":
                    continue  # stage reports embed wall-clock durations
                with open(full, "rb") as fh:
                    files[rel] = fh.read()
        trees.append(files)
    first, second = trees
    assert set(first) == set(second)
    assert any(r.startswith("dataset") for r in first)
    assert any(r.startswith("train") for r in first)
    assert any(r.startswith("eval") for r in first)
    assert any(r.endswith(".svg") for r in first)
    for rel in sorted(first):
        assert first[rel] == second[rel], f"{rel} differs between same-seed runs"
    print(f"PASS determinism: {len(first)} artifact files byte-identical across runs")


def test_radar_geometry_and_validity():
    def mset(user, values):
        return ActivityMetricSet(user, "Running Exercise", 10, *values)

    sets = [
        mset("u001", (1.0, 10.0, 100.0, 2.0, 0.5)),
        mset("u002", (3.0, 50.0, 120.0, 2.2, 0.6)),
        mset("u003", (5.0, 30.0, 140.0, 2.4, 0.7)),
    ]
    baseline = group_baseline(sets, "Running Exercise")

    rng = np.random.default_rng(505)
    for _ in range(200):
        lo, hi = sorted(rng.normal(size=2).tolist())
        value = float(rng.normal(scale=5))
        assert 0.0 <= normalize_radar(value, lo, hi) <= 100.0

    svg = render_radar(mset("u009", (2.0, 30.0, 110.0, 2.1, 0.55)), baseline)
    root = ET.fromstring(svg)  # raises if malformed
    ns = "{http://www.w3.org/2000/svg}"
    polygons = list(root.iter(f"{ns}polygon"))
    assert len(polygons) == 2
    for poly in polygons:
        for pair in poly.get("points").split():
            x, y = (float(v) for v in pair.split(","))
            assert math.hypot(x - 230.0, y - 205.0) <= 140.0 + 1e-6

    median_values = tuple(baseline.metrics[m].median for m in (
        "distance_per_min", "steps_per_min", "pulse_per_min",
        "pulse_to_min_ratio", "pulse_to_max_ratio",
    ))
    coincident = render_radar(mset("u010", median_values), baseline)
    coincident_root = ET.fromstring(coincident)
    points = [p.get("points") for p in coincident_root.iter(f"{ns}polygon")]
    assert points[0] == points[1]
    print("PASS charts: valid SVG, vertices inside the disc, medians coincide")
