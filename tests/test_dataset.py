"""Windowing, labeling, sampling, splits, normalization, and the window store."""

import io
import math
from datetime import date, timedelta

import numpy as np
import pytest

from harforge.align import PersonalHrProfile
from harforge.core import LEVEL1_AWAKE, LEVEL1_SLEEP, SleepState
from harforge.dataset import (
    FeatureWindow,
    Normalizer,
    SplitSpec,
    apply_normalizer,
    build_windows,
    effective_labels,
    fit_normalizer,
    median_class_count,
    modal_labels,
    normalizer_from_json,
    normalizer_to_json,
    oversample_minority,
    read_split_manifest,
    read_window_store,
    slide_windows,
    split_manifest_text,
    split_windows,
    stratified_sample,
    window_store_text,
    window_stride,
)

DAY = date(2024, 3, 4)

U = SleepState.UNKNOWN
S = SleepState.SLEEP
A = SleepState.AWAKE


def assert_same_window(a: FeatureWindow, b: FeatureWindow):
    assert (a.user_id, a.day, a.start_minute, a.width) == (
        b.user_id,
        b.day,
        b.start_minute,
        b.width,
    )
    assert (a.label_l1, a.label_l2, a.synthetic) == (b.label_l1, b.label_l2, b.synthetic)
    np.testing.assert_array_equal(a.features, b.features)


def mk_window(user="u1", day=DAY, start=0, width=15, l1=LEVEL1_AWAKE, l2="Other",
              features=None, synthetic=False):
    if features is None:
        features = np.zeros((width, 5))
    return FeatureWindow(user, day, start, width, features, l1, l2, synthetic)


class TestStrideAndSlide:
    def test_strides(self):
        assert {w: window_stride(w) for w in (15, 30, 45, 60)} == {
            15: 10,
            30: 21,
            45: 31,
            60: 42,
        }

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            window_stride(0)

    def test_full_day_window_counts(self):
        # closed form: floor((1440 - width) / stride) + 1
        want = {15: 143, 30: 68, 45: 46, 60: 33}
        for width, expect in want.items():
            starts = slide_windows(1440, width)
            assert len(starts) == expect
            stride = window_stride(width)
            assert len(starts) == (1440 - width) // stride + 1
            assert starts[0] == 0
            assert all(b - a == stride for a, b in zip(starts, starts[1:]))
            assert starts[-1] + width <= 1440

    def test_exact_fit(self):
        assert slide_windows(15, 15) == [0]
        assert slide_windows(14, 15) == []

    def test_too_narrow_width_rejected(self):
        with pytest.raises(ValueError, match="zero stride"):
            slide_windows(1440, 1)


def effective_label(grid_factory, **columns):
    """Effective label of minute 100 of a one-day grid."""
    codes, names = effective_labels(grid_factory(**columns))
    return names[codes[0, 100]]


class TestEffectiveLabel:
    def test_sleep_beats_schedule(self, grid_factory):
        label = effective_label(grid_factory, sleep={100: S}, schedule={100: "Running Exercise"})
        assert label == LEVEL1_SLEEP

    def test_schedule_beats_plain_awake(self, grid_factory):
        label = effective_label(grid_factory, sleep={100: A}, schedule={100: "Running Exercise"})
        assert label == "Running Exercise"

    def test_unknown_without_schedule_is_awake(self, grid_factory):
        assert effective_label(grid_factory) == LEVEL1_AWAKE

    def test_codes_follow_name_order(self, grid_factory):
        codes, names = effective_labels(
            grid_factory(sleep={0: S}, schedule={1: "Running Exercise", 2: "Kitchen Duties"})
        )
        assert names == tuple(sorted(names))
        assert [names[c] for c in codes[0, :4]] == [
            LEVEL1_SLEEP, "Running Exercise", "Kitchen Duties", LEVEL1_AWAKE
        ]


def label_window(labels, taxonomy, threshold=0.70):
    """(level1, level2) of one window of per-minute labels via modal_labels,
    or None when the window is too mixed."""
    names = tuple(sorted(set(labels)))
    codes = np.array([names.index(label) for label in labels])
    modal = modal_labels(codes, len(names), threshold)
    if modal < 0:
        return None
    return taxonomy.level1_of(names[modal]), names[modal]


class TestLabelWindow:
    def test_threshold_is_inclusive(self, taxonomy):
        labels = ["Running Exercise"] * 21 + [LEVEL1_AWAKE] * 9
        assert label_window(labels, taxonomy) == ("Activity", "Running Exercise")

    def test_just_below_threshold_rejected(self, taxonomy):
        labels = ["Running Exercise"] * 20 + [LEVEL1_AWAKE] * 10
        assert label_window(labels, taxonomy) is None

    def test_sleep_label_maps_to_its_own_level1(self, taxonomy):
        assert label_window([LEVEL1_SLEEP] * 15, taxonomy) == (LEVEL1_SLEEP, LEVEL1_SLEEP)

    def test_modal_tie_breaks_lexicographically(self, taxonomy):
        labels = ["Kitchen Duties"] * 5 + ["Running Exercise"] * 5
        got = label_window(labels, taxonomy, threshold=0.5)
        assert got == ("Activity", "Kitchen Duties")

    def test_empty_rejected(self, taxonomy):
        with pytest.raises(ValueError, match="empty"):
            label_window([], taxonomy)

    def test_labels_every_window_at_once(self):
        windows = np.array([[[0, 0, 1], [2, 1, 1]], [[2, 2, 2], [0, 1, 2]]])
        assert modal_labels(windows, 3, threshold=0.6).tolist() == [[0, 1], [2, -1]]


class TestBuildWindows:
    def _day(self, grid_factory):
        sleep = [S if i < 420 else A for i in range(1440)]
        pulse = [50.0 if i < 420 else 70.0 for i in range(1440)]
        steps = [0] * 1440
        distance = [0.0] * 1440
        schedule = [None] * 1440
        for i in range(480, 600):
            pulse[i], steps[i], distance[i] = 140.0, 100, 80.0
            schedule[i] = "Running Exercise"
        pulse[700], steps[700], distance[700] = None, 3, 2.0
        return grid_factory(
            pulse=pulse, steps=steps, distance_m=distance, sleep=sleep, schedule=schedule
        )

    def test_channels_and_labels(self, taxonomy, grid_factory):
        profile = PersonalHrProfile("u001", DAY, 50.0, 140.0, 1440, False)
        days = self._day(grid_factory)
        profiles = {("u001", DAY): profile}
        windows = build_windows(days, profiles, 15, taxonomy)
        assert windows, "expected at least one window"
        by_start = {w.start_minute: w for w in windows}

        w0 = by_start[0]
        assert (w0.label_l1, w0.label_l2) == (LEVEL1_SLEEP, LEVEL1_SLEEP)
        np.testing.assert_allclose(w0.features[0], [50.0, 1.0, 50.0 / 140.0, 0.0, 0.0])

        w480 = by_start[480]
        assert (w480.label_l1, w480.label_l2) == ("Activity", "Running Exercise")
        np.testing.assert_allclose(w480.features[0], [140.0, 2.8, 1.0, 100.0, 80.0])

        w700 = by_start[700]
        np.testing.assert_allclose(w700.features[0], [0.0, 0.0, 0.0, 3.0, 2.0])
        assert w700.label_l1 == LEVEL1_AWAKE

    def test_mixed_windows_are_dropped(self, taxonomy, grid_factory):
        # the sleep-to-awake boundary at 420 leaves no 15-minute window
        # aligned to start 410 (8 sleep + 7 awake fails the 70% rule)
        profile = PersonalHrProfile("u001", DAY, 50.0, 140.0, 1440, False)
        days = self._day(grid_factory)
        windows = build_windows(days, {("u001", DAY): profile}, 15, taxonomy)
        assert 410 not in {w.start_minute for w in windows}

    def test_day_without_profile_is_skipped(self, taxonomy, grid_factory):
        days = self._day(grid_factory)
        assert build_windows(days, {}, 15, taxonomy) == []

    def test_windows_never_synthetic(self, taxonomy, grid_factory):
        profile = PersonalHrProfile("u001", DAY, 50.0, 140.0, 1440, False)
        days = self._day(grid_factory)
        windows = build_windows(days, {("u001", DAY): profile}, 60, taxonomy)
        assert all(not w.synthetic for w in windows)


class TestStratifiedSample:
    def test_rate_applies_per_class(self):
        windows = [mk_window(start=i, l2="Other") for i in range(400)]
        got = stratified_sample(windows, 30, seed=0)
        assert len(got) == 100  # round(0.25 * 400)

    def test_rounding_is_half_up(self):
        windows = [mk_window(start=i, l2="Other") for i in range(10)]
        assert len(stratified_sample(windows, 15, seed=0)) == 2  # floor(1.5 + .5)

    def test_tiny_class_keeps_one(self):
        windows = [mk_window(start=i, l2="Other") for i in range(2)]
        assert len(stratified_sample(windows, 15, seed=0)) == 1

    def test_order_preserved_and_deterministic(self):
        windows = [
            mk_window(start=i, l2="Other" if i % 2 else "Running Exercise")
            for i in range(200)
        ]
        a = stratified_sample(windows, 60, seed=3)
        b = stratified_sample(windows, 60, seed=3)
        assert [w.start_minute for w in a] == [w.start_minute for w in b]
        starts = [w.start_minute for w in a]
        assert starts == sorted(starts)
        by_class = {"Other": 0, "Running Exercise": 0}
        for w in a:
            by_class[w.label_l2] += 1
        assert by_class == {"Other": 40, "Running Exercise": 40}

    def test_unknown_width_rejected(self):
        with pytest.raises(ValueError, match="sampling rate"):
            stratified_sample([mk_window()], 20, seed=0)


class TestOversample:
    def test_median_class_count(self):
        windows = (
            [mk_window(start=i, l2="Other") for i in range(3)]
            + [mk_window(start=i, l2="Running Exercise") for i in range(5)]
            + [mk_window(start=i, l2="Kitchen Duties") for i in range(10)]
        )
        assert median_class_count(windows) == 5

    def test_median_rounds_up_on_even_split(self):
        windows = [mk_window(start=i, l2="Other") for i in range(3)] + [
            mk_window(start=i, l2="Running Exercise") for i in range(4)
        ]
        assert median_class_count(windows) == 4  # ceil(3.5)

    def test_median_of_nothing_rejected(self):
        with pytest.raises(ValueError, match="no windows"):
            median_class_count([])

    def test_tops_up_to_target_with_synthetic_clones(self):
        feats = np.arange(75, dtype=float).reshape(15, 5) + 1.0
        windows = [mk_window(l2="Other", features=feats)] + [
            mk_window(start=i, l2="Running Exercise") for i in range(6)
        ]
        got = oversample_minority(windows, 6, seed=1)
        by_class = {}
        for w in got:
            by_class.setdefault(w.label_l2, []).append(w)
        assert len(by_class["Other"]) == 6
        assert len(by_class["Running Exercise"]) == 6
        assert sum(w.synthetic for w in got) == 5
        # originals come first, untouched
        for w in got[:7]:
            assert not w.synthetic

    def test_zero_noise_clones_match_source_exactly(self):
        feats = np.arange(75, dtype=float).reshape(15, 5) + 1.0
        windows = [mk_window(l2="Other", features=feats)]
        got = oversample_minority(windows, 3, sd=0.0, seed=0)
        assert len(got) == 3
        for clone in got[1:]:
            assert clone.synthetic
            np.testing.assert_array_equal(clone.features, feats)

    def test_steps_channel_is_rounded_non_negative(self):
        feats = np.full((15, 5), 0.4)
        windows = [mk_window(l2="Other", features=feats)]
        got = oversample_minority(windows, 50, sd=0.5, seed=2)
        for clone in got[1:]:
            steps = clone.features[:, 3]
            np.testing.assert_array_equal(steps, np.rint(steps))
            assert (steps >= 0).all()

    def test_noise_magnitude_matches_configured_sd(self):
        feats = np.full((15, 5), 100.0)
        windows = [mk_window(l2="Other", features=feats)]
        got = oversample_minority(windows, 3001, seed=5)
        ratios = np.concatenate(
            [w.features[:, [0, 1, 2, 4]].ravel() / 100.0 for w in got[1:]]
        )
        assert abs(ratios.std() - 0.0003) / 0.0003 < 0.05
        assert abs(ratios.mean() - 1.0) < 1e-4


class TestSplits:
    def test_temporal_cuts_days_chronologically(self):
        days = [DAY + timedelta(days=i) for i in range(20)]
        windows = [mk_window(day=d, start=s) for d in days for s in (0, 10)]
        spec = SplitSpec(mode="temporal")
        result = split_windows(windows, spec)
        assert {w.day for w in result.train} == set(days[:14])
        assert {w.day for w in result.val} == set(days[14:17])
        assert {w.day for w in result.test} == set(days[17:])
        assert result.flagged_users == ()
        assert len(result.train) + len(result.val) + len(result.test) == len(windows)

    def test_temporal_flags_users_with_too_few_days(self):
        windows = [
            mk_window(user="short", day=DAY),
            mk_window(user="short", day=DAY + timedelta(days=1)),
            *[mk_window(user="long", day=DAY + timedelta(days=i)) for i in range(10)],
        ]
        result = split_windows(windows, SplitSpec(mode="temporal"))
        assert result.flagged_users == ("short",)
        assert all(w.user_id == "long" for w in result.val + result.test)
        assert sum(w.user_id == "short" for w in result.train) == 2

    def test_temporal_keeps_each_day_on_one_side(self):
        days = [DAY + timedelta(days=i) for i in range(10)]
        windows = [mk_window(day=d, start=s) for d in days for s in range(5)]
        result = split_windows(windows, SplitSpec(mode="temporal"))
        side_of = {}
        for name in ("train", "val", "test"):
            for w in result.part(name):
                assert side_of.setdefault(w.day, name) == name

    def test_user_split_counts(self):
        windows = [mk_window(user=f"u{i:03d}") for i in range(135)]
        result = split_windows(windows, SplitSpec(mode="user"))
        assert len({w.user_id for w in result.train}) == 94
        assert len({w.user_id for w in result.val}) == 20
        assert len({w.user_id for w in result.test}) == 21

    def test_user_split_is_seeded_and_user_atomic(self):
        windows = [
            mk_window(user=f"u{i:02d}", day=DAY + timedelta(days=d))
            for i in range(20)
            for d in range(3)
        ]
        a = split_windows(windows, SplitSpec(mode="user", seed=4))
        b = split_windows(windows, SplitSpec(mode="user", seed=4))
        for name in ("train", "val", "test"):
            assert [w.user_id for w in a.part(name)] == [w.user_id for w in b.part(name)]
        c = split_windows(windows, SplitSpec(mode="user", seed=5))
        assert any(
            {w.user_id for w in a.part(n)} != {w.user_id for w in c.part(n)}
            for n in ("train", "val", "test")
        )
        side_of = {}
        for name in ("train", "val", "test"):
            for w in a.part(name):
                assert side_of.setdefault(w.user_id, name) == name

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="split mode"):
            SplitSpec(mode="random")
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(mode="user", fractions=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError, match="non-negative"):
            SplitSpec(mode="user", fractions=(1.2, -0.1, -0.1))


class TestNormalizer:
    def test_fit_and_apply_standardize_train(self):
        rng = np.random.default_rng(8)
        windows = [
            mk_window(start=i, features=rng.normal(50.0, 9.0, size=(15, 5)))
            for i in range(40)
        ]
        norm = fit_normalizer(windows)
        out = apply_normalizer(windows, norm)
        stacked = np.concatenate([w.features for w in out], axis=0)
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-9)

    def test_constant_channel_maps_to_zero(self):
        feats = np.ones((15, 5)) * 7.0
        norm = fit_normalizer([mk_window(features=feats)])
        assert norm.std == (1e-8,) * 5
        out = apply_normalizer([mk_window(features=feats)], norm)
        np.testing.assert_array_equal(out[0].features, np.zeros((15, 5)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="zero windows"):
            fit_normalizer([])

    def test_json_round_trip(self):
        norm = Normalizer(mean=(1.5, 0.0, -2.25, 6.0, 0.1), std=(2.0, 1e-8, 3.5, 1.0, 9.0))
        assert normalizer_from_json(normalizer_to_json(norm)) == norm


class TestWindowStore:
    def _windows(self):
        rng = np.random.default_rng(3)
        return [
            mk_window(
                user=f"u{i}",
                start=i * 10,
                features=rng.normal(0.0, 123.456, size=(15, 5)),
                synthetic=bool(i % 2),
            )
            for i in range(6)
        ]

    def test_round_trip_is_exact(self):
        windows = self._windows()
        text = window_store_text(windows)
        back = read_window_store(io.StringIO(text))
        assert len(back) == len(windows)
        for a, b in zip(windows, back):
            assert_same_window(a, b)
        assert window_store_text(back) == text

    def test_empty_store(self):
        assert window_store_text([]) == ""
        assert read_window_store(io.StringIO("")) == []

    def test_shape_mismatch_rejected(self):
        text = window_store_text([mk_window()])
        broken = text.replace('"width":15', '"width":14')
        with pytest.raises(ValueError, match="features must be"):
            read_window_store(io.StringIO(broken))


class TestSplitManifest:
    def test_indices_reference_store_positions(self):
        windows = [
            mk_window(user=f"u{i}", day=DAY + timedelta(days=d))
            for i in range(7)
            for d in range(4)
        ]
        results = {
            "temporal": split_windows(windows, SplitSpec(mode="temporal")),
            "user": split_windows(windows, SplitSpec(mode="user")),
        }
        manifest = read_split_manifest(split_manifest_text(windows, results))
        assert set(manifest) == {"temporal", "user"}
        for mode, result in results.items():
            entry = manifest[mode]
            all_idx = entry["train"] + entry["val"] + entry["test"]
            assert sorted(all_idx) == list(range(len(windows)))
            for name in ("train", "val", "test"):
                for idx, w in zip(entry[name], result.part(name)):
                    assert windows[idx] is w
            assert entry["flagged_users"] == list(result.flagged_users)


def test_windows_match_per_window_reference(grid_factory, grid_values, taxonomy):
    """build_windows against a minute-by-minute loop with a Counter per window."""
    from collections import Counter

    rng = np.random.default_rng(12)
    labels = ["Running Exercise", "Kitchen Duties", "Fitness Test", None]
    days = {}
    for key in [("u1", DAY), ("u1", DAY + timedelta(days=1)), ("u2", DAY)]:
        schedule, sleep = [], []
        label, state = None, A
        for i in range(1440):
            if rng.random() < 0.03:
                label = labels[rng.integers(len(labels))]
            if rng.random() < 0.02:
                state = [S, A, U][rng.integers(3)]
            schedule.append(label)
            sleep.append(state)
        days[key] = {
            "pulse": [
                None if rng.random() < 0.1 else float(rng.uniform(45, 170)) for _ in range(1440)
            ],
            "steps": rng.integers(0, 40, 1440).tolist(),
            "distance_m": rng.uniform(0, 30, 1440).tolist(),
            "sleep": sleep,
            "schedule": schedule,
        }
    grid = grid_factory(days)
    profiles = {
        ("u1", DAY): PersonalHrProfile("u1", DAY, 52.0, 171.0, 1300, False),
        ("u2", DAY): PersonalHrProfile("u2", DAY, 49.0, 166.0, 1300, False),
    }
    for width in (15, 60):
        want = []
        for key in sorted(profiles):
            p = profiles[key]
            pulse = grid_values(grid, "pulse", key)
            steps = grid_values(grid, "steps", key)
            distance = grid_values(grid, "distance_m", key)
            sleep = grid_values(grid, "sleep", key)
            schedule = grid_values(grid, "schedule", key)
            feats = np.array(
                [
                    [0.0, 0.0, 0.0, steps[i], distance[i]]
                    if pulse[i] is None
                    else [pulse[i], pulse[i] / p.min_hr, pulse[i] / p.max_hr, steps[i], distance[i]]
                    for i in range(1440)
                ]
            )
            effective = [
                LEVEL1_SLEEP if sleep[i] is S else schedule[i] or LEVEL1_AWAKE for i in range(1440)
            ]
            for start in slide_windows(1440, width):
                counts = Counter(effective[start : start + width])
                modal, count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
                if count >= 0.70 * width:
                    want.append((key, start, modal, feats[start : start + width]))
        got = build_windows(grid, profiles, width, taxonomy)
        assert len(got) == len(want) > 0
        for w, (key, start, modal, feats) in zip(got, want):
            assert ((w.user_id, w.day), w.start_minute, w.label_l2) == (key, start, modal)
            assert w.label_l1 == taxonomy.level1_of(modal)
            np.testing.assert_array_equal(w.features, feats)
