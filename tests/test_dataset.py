"""Windowing, labeling, sampling, splits, normalization, and the window store."""

import io
import math
import os
import statistics
import tracemalloc
from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest

from harforge import codec
from harforge.align import SLEEP_CODE
from harforge.core import LEVEL1_AWAKE, LEVEL1_SLEEP, SleepState
from harforge.dataset import (
    N_CHANNELS,
    OVERSAMPLE_NOISE_SD,
    SAMPLING_RATES,
    STEPS_CHANNEL,
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
    split_temporal,
    split_user,
    split_manifest_text,
    split_windows,
    stratified_sample,
    window_store_chunks,
    window_store_text,
    window_stride,
    write_window_store,
)

from test_codec import seeded_grid

DAY = date(2024, 3, 4)

U = SleepState.UNKNOWN
S = SleepState.SLEEP
A = SleepState.AWAKE


def window_rows(windows):
    """A WindowSet as one plain tuple per window:
    (user, day, start_minute, label_l1, label_l2, synthetic, features)."""
    return list(
        zip(
            windows.users.tolist(),
            windows.days.tolist(),
            windows.start_minute.tolist(),
            windows.label_l1.tolist(),
            windows.label_l2.tolist(),
            windows.synthetic.tolist(),
            list(windows.features),
        )
    )


def assert_window_sets_equal(a, b):
    """Same windows in the same order, features equal to the bit."""
    assert a.width == b.width
    for column in ("users", "days", "start_minute", "label_l1", "label_l2", "synthetic"):
        assert getattr(a, column).tolist() == getattr(b, column).tolist(), column
    assert a.features.shape == b.features.shape
    assert a.features.tobytes() == b.features.tobytes()


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
    def _day(self, grid_factory, **envelope):
        """One day; ``min_hr=50.0, max_hr=140.0`` unless ``envelope`` says
        otherwise."""
        sleep = [S if i < 420 else A for i in range(1440)]
        pulse = [50.0 if i < 420 else 70.0 for i in range(1440)]
        steps = [0] * 1440
        distance = [0.0] * 1440
        schedule = [None] * 1440
        for i in range(480, 600):
            pulse[i], steps[i], distance[i] = 140.0, 100, 80.0
            schedule[i] = "Running Exercise"
        pulse[700], steps[700], distance[700] = None, 3, 2.0
        envelope = {"min_hr": 50.0, "max_hr": 140.0, **envelope}
        return grid_factory(
            pulse=pulse, steps=steps, distance_m=distance, sleep=sleep, schedule=schedule,
            **envelope,
        )

    def test_channels_and_labels(self, taxonomy, grid_factory):
        days = self._day(grid_factory)
        windows = build_windows(days, 15, taxonomy)
        assert len(windows), "expected at least one window"
        by_start = {start: i for i, start in enumerate(windows.start_minute.tolist())}

        w0 = by_start[0]
        assert (windows.label_l1[w0], windows.label_l2[w0]) == (LEVEL1_SLEEP, LEVEL1_SLEEP)
        np.testing.assert_allclose(windows.features[w0, 0], [50.0, 1.0, 50.0 / 140.0, 0.0, 0.0])

        w480 = by_start[480]
        assert (windows.label_l1[w480], windows.label_l2[w480]) == (
            "Activity",
            "Running Exercise",
        )
        np.testing.assert_allclose(windows.features[w480, 0], [140.0, 2.8, 1.0, 100.0, 80.0])

        w700 = by_start[700]
        np.testing.assert_allclose(windows.features[w700, 0], [0.0, 0.0, 0.0, 3.0, 2.0])
        assert windows.label_l1[w700] == LEVEL1_AWAKE

    def test_mixed_windows_are_dropped(self, taxonomy, grid_factory):
        # the sleep-to-awake boundary at 420 leaves no 15-minute window
        # aligned to start 410 (8 sleep + 7 awake fails the 70% rule)
        days = self._day(grid_factory)
        windows = build_windows(days, 15, taxonomy)
        assert 410 not in windows.start_minute.tolist()

    def test_day_without_profile_is_skipped(self, taxonomy, grid_factory):
        days = self._day(grid_factory, min_hr=float("nan"), max_hr=float("nan"))
        windows = build_windows(days, 15, taxonomy)
        assert len(windows) == 0
        assert windows.features.shape == (0, 15, 5)

    def test_features_are_the_channels_bit_for_bit(self, taxonomy):
        """Each window's features are the rows of the five channels, as
        np.where and np.stack give them, down to the bits: missing pulses
        zero in the three pulse channels, and a day without an envelope
        skipped."""
        days = seeded_grid(8)
        days.sleep[:3, :720] = SLEEP_CODE[SleepState.SLEEP]
        days.min_hr[:] = [41.5, 13.3, 20.0, np.nan]
        days.max_hr[:] = [51.25, 52.0, 53.7, np.nan]
        has = ~np.isnan(days.pulse)
        channels = np.stack(
            [
                np.where(has, days.pulse, 0.0),
                np.where(has, days.pulse / days.min_hr[:, None], 0.0),
                np.where(has, days.pulse / days.max_hr[:, None], 0.0),
                days.steps,
                days.distance_m,
            ],
            axis=-1,
        )
        windows = build_windows(days, 15, taxonomy)
        rows = [days.keys.index((u, d)) for u, d in zip(windows.users, windows.days.tolist())]
        assert sorted(set(rows)) == [0, 1, 2]
        for features, row, start in zip(windows.features, rows, windows.start_minute.tolist()):
            assert features.tobytes() == channels[row, start : start + 15].tobytes()

    def test_windows_never_synthetic(self, taxonomy, grid_factory):
        days = self._day(grid_factory)
        windows = build_windows(days, 60, taxonomy)
        assert len(windows) > 0
        assert not windows.synthetic.any()


class TestWindowSet:
    def test_select_takes_rows_in_index_order(self, window_factory):
        rng = np.random.default_rng(1)
        windows = window_factory(
            user=["a", "b", "c"],
            start=[0, 10, 20],
            l2=["Other", "Running Exercise", "Other"],
            features=rng.normal(size=(3, 15, 5)),
            synthetic=[False, True, False],
        )
        got = windows.select(np.array([2, 0]))
        assert got.users.tolist() == ["c", "a"]
        assert got.start_minute.tolist() == [20, 0]
        assert got.label_l2.tolist() == ["Other", "Other"]
        assert got.synthetic.tolist() == [False, False]
        np.testing.assert_array_equal(got.features, windows.features[[2, 0]])
        assert got.features.flags.c_contiguous
        masked = windows.select(~windows.synthetic)
        assert masked.users.tolist() == ["a", "c"]
        assert len(masked) == 2 and masked.width == 15


class TestStratifiedSample:
    def test_rate_applies_per_class(self, window_factory):
        windows = window_factory(start=range(400), l2="Other")
        got = stratified_sample(windows, 30, seed=0)
        assert len(got) == 100  # round(0.25 * 400)

    def test_rounding_is_half_up(self, window_factory):
        windows = window_factory(start=range(10), l2="Other")
        assert len(stratified_sample(windows, 15, seed=0)) == 2  # floor(1.5 + .5)

    def test_tiny_class_keeps_one(self, window_factory):
        windows = window_factory(start=range(2), l2="Other")
        assert len(stratified_sample(windows, 15, seed=0)) == 1

    def test_order_preserved_and_deterministic(self, window_factory):
        windows = window_factory(
            start=range(200),
            l2=["Other" if i % 2 else "Running Exercise" for i in range(200)],
        )
        a = stratified_sample(windows, 60, seed=3)
        b = stratified_sample(windows, 60, seed=3)
        assert a.start_minute.tolist() == b.start_minute.tolist()
        starts = a.start_minute.tolist()
        assert starts == sorted(starts)
        assert Counter(a.label_l2.tolist()) == {"Other": 40, "Running Exercise": 40}

    def test_unknown_width_rejected(self, window_factory):
        with pytest.raises(ValueError, match="sampling rate"):
            stratified_sample(window_factory(1), 20, seed=0)


class TestOversample:
    def test_median_class_count(self, window_factory):
        windows = window_factory(
            l2=["Other"] * 3 + ["Running Exercise"] * 5 + ["Kitchen Duties"] * 10
        )
        assert median_class_count(windows) == 5

    def test_median_rounds_up_on_even_split(self, window_factory):
        windows = window_factory(l2=["Other"] * 3 + ["Running Exercise"] * 4)
        assert median_class_count(windows) == 4  # ceil(3.5)

    def test_median_of_nothing_rejected(self, window_factory):
        with pytest.raises(ValueError, match="no windows"):
            median_class_count(window_factory(0))

    def test_tops_up_to_target_with_synthetic_clones(self, window_factory):
        block = np.zeros((7, 15, 5))
        block[0] = np.arange(75, dtype=float).reshape(15, 5) + 1.0
        windows = window_factory(
            start=[0, *range(6)], l2=["Other"] + ["Running Exercise"] * 6, features=block
        )
        got = oversample_minority(windows, 6, seed=1)
        assert Counter(got.label_l2.tolist()) == {"Other": 6, "Running Exercise": 6}
        assert got.synthetic.sum() == 5
        # originals come first, untouched
        assert not got.synthetic[:7].any()
        assert_window_sets_equal(got.select(np.arange(7)), windows)

    def test_zero_noise_clones_match_source_exactly(self, window_factory):
        feats = np.arange(75, dtype=float).reshape(15, 5) + 1.0
        windows = window_factory(1, l2="Other", features=feats)
        got = oversample_minority(windows, 3, sd=0.0, seed=0)
        assert len(got) == 3
        assert got.synthetic[1:].all()
        for clone in got.features[1:]:
            np.testing.assert_array_equal(clone, feats)

    def test_steps_channel_is_rounded_non_negative(self, window_factory):
        windows = window_factory(1, l2="Other", features=np.full((15, 5), 0.4))
        got = oversample_minority(windows, 50, sd=0.5, seed=2)
        steps = got.features[1:, :, 3]
        np.testing.assert_array_equal(steps, np.rint(steps))
        assert (steps >= 0).all()

    def test_noise_magnitude_matches_configured_sd(self, window_factory):
        windows = window_factory(1, l2="Other", features=np.full((15, 5), 100.0))
        got = oversample_minority(windows, 3001, seed=5)
        ratios = got.features[1:][:, :, [0, 1, 2, 4]].ravel() / 100.0
        assert abs(ratios.std() - 0.0003) / 0.0003 < 0.05
        assert abs(ratios.mean() - 1.0) < 1e-4


class TestSplits:
    def test_temporal_cuts_days_chronologically(self, window_factory):
        days = [DAY + timedelta(days=i) for i in range(20)]
        windows = window_factory(
            day=[d for d in days for _ in (0, 10)], start=[s for _ in days for s in (0, 10)]
        )
        spec = SplitSpec(mode="temporal")
        result = split_windows(windows, spec)
        assert set(windows.days[result.train].tolist()) == set(days[:14])
        assert set(windows.days[result.val].tolist()) == set(days[14:17])
        assert set(windows.days[result.test].tolist()) == set(days[17:])
        assert result.flagged_users == ()
        assert len(result.train) + len(result.val) + len(result.test) == len(windows)

    def test_temporal_flags_users_with_too_few_days(self, window_factory):
        windows = window_factory(
            user=["short"] * 2 + ["long"] * 10,
            day=[DAY, DAY + timedelta(days=1)] + [DAY + timedelta(days=i) for i in range(10)],
        )
        result = split_windows(windows, SplitSpec(mode="temporal"))
        assert result.flagged_users == ("short",)
        assert (windows.users[np.concatenate([result.val, result.test])] == "long").all()
        assert (windows.users[result.train] == "short").sum() == 2

    def test_temporal_keeps_each_day_on_one_side(self, window_factory):
        days = [DAY + timedelta(days=i) for i in range(10)]
        windows = window_factory(
            day=[d for d in days for _ in range(5)], start=[s for _ in days for s in range(5)]
        )
        result = split_windows(windows, SplitSpec(mode="temporal"))
        side_of = {}
        for name in ("train", "val", "test"):
            for day in windows.days[result.part(name)].tolist():
                assert side_of.setdefault(day, name) == name

    def test_user_split_counts(self, window_factory):
        windows = window_factory(user=[f"u{i:03d}" for i in range(135)])
        result = split_windows(windows, SplitSpec(mode="user"))
        assert len(set(windows.users[result.train].tolist())) == 94
        assert len(set(windows.users[result.val].tolist())) == 20
        assert len(set(windows.users[result.test].tolist())) == 21

    def test_user_split_is_seeded_and_user_atomic(self, window_factory):
        windows = window_factory(
            user=[f"u{i:02d}" for i in range(20) for _ in range(3)],
            day=[DAY + timedelta(days=d) for _ in range(20) for d in range(3)],
        )
        a = split_windows(windows, SplitSpec(mode="user", seed=4))
        b = split_windows(windows, SplitSpec(mode="user", seed=4))
        users_of = lambda result, name: windows.users[result.part(name)].tolist()  # noqa: E731
        for name in ("train", "val", "test"):
            assert users_of(a, name) == users_of(b, name)
        c = split_windows(windows, SplitSpec(mode="user", seed=5))
        assert any(
            set(users_of(a, n)) != set(users_of(c, n)) for n in ("train", "val", "test")
        )
        side_of = {}
        for name in ("train", "val", "test"):
            for user in users_of(a, name):
                assert side_of.setdefault(user, name) == name

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="split mode"):
            SplitSpec(mode="random")
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(mode="user", fractions=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError, match="non-negative"):
            SplitSpec(mode="user", fractions=(1.2, -0.1, -0.1))


class TestNormalizer:
    def test_fit_and_apply_standardize_train(self, window_factory):
        rng = np.random.default_rng(8)
        windows = window_factory(start=range(40), features=rng.normal(50.0, 9.0, size=(40, 15, 5)))
        norm = fit_normalizer(windows)
        out = apply_normalizer(windows, norm)
        stacked = out.features.reshape(-1, 5)
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-9)

    def test_constant_channel_maps_to_zero(self, window_factory):
        feats = np.ones((15, 5)) * 7.0
        norm = fit_normalizer(window_factory(1, features=feats))
        assert norm.std == (1e-8,) * 5
        out = apply_normalizer(window_factory(1, features=feats), norm)
        np.testing.assert_array_equal(out.features[0], np.zeros((15, 5)))

    def test_empty_fit_rejected(self, window_factory):
        with pytest.raises(ValueError, match="zero windows"):
            fit_normalizer(window_factory(0))

    def test_json_round_trip(self):
        norm = Normalizer(mean=(1.5, 0.0, -2.25, 6.0, 0.1), std=(2.0, 1e-8, 3.5, 1.0, 9.0))
        assert normalizer_from_json(normalizer_to_json(norm)) == norm


class TestWindowStore:
    def _windows(self, window_factory):
        rng = np.random.default_rng(3)
        return window_factory(
            user=[f"u{i}" for i in range(6)],
            start=[i * 10 for i in range(6)],
            features=rng.normal(0.0, 123.456, size=(6, 15, 5)),
            synthetic=[bool(i % 2) for i in range(6)],
        )

    def test_round_trip_is_exact(self, window_factory):
        windows = self._windows(window_factory)
        text = window_store_text(windows)
        back = read_window_store(io.StringIO(text))
        assert len(back) == len(windows)
        assert_window_sets_equal(windows, back)
        assert window_store_text(back) == text

    def test_empty_store(self, window_factory):
        assert window_store_text(window_factory(0)) == ""
        assert len(read_window_store(io.StringIO(""))) == 0

    def test_shape_mismatch_rejected(self, window_factory):
        text = window_store_text(window_factory(1))
        broken = text.replace('"width":15', '"width":14')
        with pytest.raises(ValueError, match="window store line 1: window features must be"):
            read_window_store(io.StringIO(broken))

    def test_mixed_widths_rejected(self, window_factory):
        text = window_store_text(window_factory(1)) + window_store_text(
            window_factory(1, width=60)
        )
        with pytest.raises(ValueError) as err:
            read_window_store(io.StringIO(text))
        assert str(err.value) == "window store line 2: store mixes widths 15 and 60"

    def test_bad_json_names_its_store_line(self, window_factory):
        lines = window_store_text(window_factory(3)).splitlines(keepends=True)
        lines.insert(1, "\n")  # a blank line still counts
        lines[3] = lines[3][:40] + "\n"
        with pytest.raises(ValueError) as err:
            read_window_store(io.StringIO("".join(lines)))
        assert str(err.value).startswith("window store line 4: bad JSON: ")
        assert "line 1" not in str(err.value)

    def test_missing_key_names_its_store_line(self, window_factory):
        lines = window_store_text(window_factory(3)).splitlines(keepends=True)
        lines[1] = lines[1].replace('"features"', '"feats"')
        with pytest.raises(ValueError) as err:
            read_window_store(io.StringIO("".join(lines)))
        assert str(err.value) == "window store line 2: missing key 'features'"


class TestStreamedWindowStore:
    """write_window_store writes the store a block of windows at a time."""

    @staticmethod
    def _windows(window_factory, n, width=15):
        rng = np.random.default_rng(n)
        return window_factory(
            n,
            user=[f"u{i % 3}" for i in range(n)],
            start=list(range(n)),
            features=rng.normal(0.0, 99.9, size=(n, width, N_CHANNELS)),
            synthetic=[bool(i % 2) for i in range(n)],
            width=width,
        )

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 9])
    def test_written_bytes_are_the_store_text(self, window_factory, n, tmp_path, monkeypatch):
        """0 and 1 windows, and one window under, at and over a block of 4
        and of 8, written in blocks of 4: the bytes of the store text."""
        windows = self._windows(window_factory, n)
        text = window_store_text(windows)  # one block
        assert len(text.splitlines()) == n
        monkeypatch.setattr(codec, "BLOCK_ROWS", 4 * 15 * N_CHANNELS)
        assert len(list(window_store_chunks(windows))) == -(-n // 4)
        path = tmp_path / "windows_w15.jsonl"
        write_window_store(windows, str(path))
        assert path.read_bytes() == text.encode("utf-8")
        assert window_store_text(windows) == text

    def test_write_peaks_at_a_few_chunks(self, window_factory, tmp_path):
        """600 windows of width 60, a 3.4 MB store: one write peaks under
        four of its chunks, where holding its text once would go over."""
        windows = self._windows(window_factory, 600, width=60)
        chunk = len(next(window_store_chunks(windows)))
        path = str(tmp_path / "windows_w60.jsonl")
        write_window_store(windows, path)  # lazy imports first
        tracemalloc.start()
        try:
            write_window_store(windows, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 4 * chunk
        assert os.path.getsize(path) > bound
        assert peak < bound, (peak, bound)


class TestSplitManifest:
    def test_indices_reference_store_positions(self, window_factory):
        windows = window_factory(
            user=[f"u{i}" for i in range(7) for _ in range(4)],
            day=[DAY + timedelta(days=d) for _ in range(7) for d in range(4)],
        )
        results = {
            "temporal": split_windows(windows, SplitSpec(mode="temporal")),
            "user": split_windows(windows, SplitSpec(mode="user")),
        }
        manifest = read_split_manifest(split_manifest_text(results))
        assert set(manifest) == {"temporal", "user"}
        for mode, result in results.items():
            entry = manifest[mode]
            all_idx = entry["train"] + entry["val"] + entry["test"]
            assert sorted(all_idx) == list(range(len(windows)))
            for name in ("train", "val", "test"):
                assert entry[name] == result.part(name).tolist()
            assert entry["flagged_users"] == list(result.flagged_users)


# Per-window loop references: the list-of-windows code the columnar
# functions replaced. Each takes window_rows() tuples and returns row
# indices or rows, and the columnar result must match it exactly.


def ref_stratified_sample(rows, width, seed):
    rate = SAMPLING_RATES[width]
    by_class = {}
    for i, row in enumerate(rows):
        by_class.setdefault(row[4], []).append(i)
    rng = np.random.default_rng(seed)
    keep = []
    for label in sorted(by_class):
        members = by_class[label]
        k = min(max(1, math.floor(rate * len(members) + 0.5)), len(members))
        picked = rng.choice(len(members), size=k, replace=False)
        keep.extend(members[i] for i in picked)
    return sorted(keep)


def ref_median_class_count(rows):
    return int(math.ceil(statistics.median(Counter(row[4] for row in rows).values())))


def ref_oversample(rows, target, sd, seed):
    by_class = {}
    for i, row in enumerate(rows):
        by_class.setdefault(row[4], []).append(i)
    rng = np.random.default_rng(seed)
    out = list(rows)
    for label in sorted(by_class):
        members = by_class[label]
        for _ in range(max(0, target - len(members))):
            source = rows[members[int(rng.integers(0, len(members)))]]
            noisy = source[6] * rng.normal(1.0, sd, size=source[6].shape)
            noisy[:, STEPS_CHANNEL] = np.maximum(np.rint(noisy[:, STEPS_CHANNEL]), 0.0)
            out.append((*source[:5], True, noisy))
    return out


def ref_split(rows, spec):
    """(part name of each row, flagged users) by the per-window rules."""

    def cut(n):
        return int(math.floor(spec.fractions[0] * n)), int(math.floor(spec.fractions[1] * n))

    def side(i, n):
        n_train, n_val = cut(n)
        return "train" if i < n_train else "val" if i < n_train + n_val else "test"

    if spec.mode == "temporal":
        days_of = {}
        for row in rows:
            days_of.setdefault(row[0], set()).add(row[1])
        assign, flagged = {}, []
        for user in sorted(days_of):
            days = sorted(days_of[user])
            if len(days) < 3:
                flagged.append(user)
            for i, d in enumerate(days):
                assign[(user, d)] = "train" if len(days) < 3 else side(i, len(days))
        return [assign[(row[0], row[1])] for row in rows], tuple(flagged)
    users = sorted({row[0] for row in rows})
    order = [users[i] for i in np.random.default_rng(spec.seed).permutation(len(users))]
    side_of = {user: side(i, len(order)) for i, user in enumerate(order)}
    return [side_of[row[0]] for row in rows], ()


def ref_normalize(rows):
    stacked = np.concatenate([row[6] for row in rows], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-8)
    return mean, std, [(row[6] - mean) / std for row in rows]


def random_windows(window_factory, seed, n=300, width=15):
    """Windows of several users, days and unevenly sized classes."""
    rng = np.random.default_rng(seed)
    labels = ["Other", "Running Exercise", "Kitchen Duties", LEVEL1_SLEEP, LEVEL1_AWAKE]
    return window_factory(
        user=[f"u{i}" for i in rng.integers(0, 9, n)],
        day=[DAY + timedelta(days=int(d)) for d in rng.integers(0, 6, n)],
        start=rng.integers(0, 1440 - width, n),
        l2=[labels[i] for i in rng.choice(len(labels), n, p=[0.5, 0.25, 0.15, 0.07, 0.03])],
        features=rng.gamma(2.0, 30.0, size=(n, width, 5)),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampling_matches_per_window_reference(window_factory, seed):
    for width in (15, 60):
        windows = random_windows(window_factory, seed, width=width)
        keep = ref_stratified_sample(window_rows(windows), width, seed)
        assert_window_sets_equal(
            stratified_sample(windows, width, seed), windows.select(np.array(keep))
        )
        assert median_class_count(windows) == ref_median_class_count(window_rows(windows))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oversampling_matches_per_window_reference(window_factory, seed):
    windows = random_windows(window_factory, seed)
    target = median_class_count(windows)
    for sd in (OVERSAMPLE_NOISE_SD, 0.5):
        got = window_rows(oversample_minority(windows, target, sd=sd, seed=seed))
        want = ref_oversample(window_rows(windows), target, sd, seed)
        assert len(got) == len(want) > len(windows)
        for g, w in zip(got, want):
            assert g[:6] == w[:6]
            assert g[6].tobytes() == w[6].tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_splits_match_per_window_reference(window_factory, seed):
    windows = random_windows(window_factory, seed)
    # a user seen on two days only, which a temporal split must flag
    windows = window_factory(
        user=[*windows.users.tolist(), "u9", "u9"],
        day=[*windows.days.tolist(), DAY, DAY + timedelta(days=3)],
        l2=[*windows.label_l2.tolist(), "Other", "Other"],
    )
    for spec in (
        SplitSpec(mode="temporal"),
        SplitSpec(mode="temporal", fractions=(0.5, 0.25, 0.25)),
        SplitSpec(mode="user", seed=seed),
        SplitSpec(mode="user", fractions=(0.4, 0.4, 0.2), seed=seed + 7),
    ):
        sides, flagged = ref_split(window_rows(windows), spec)
        split = split_temporal if spec.mode == "temporal" else split_user
        result = split(windows, spec)
        for name in ("train", "val", "test"):
            want = [i for i, s in enumerate(sides) if s == name]
            assert result.part(name).tolist() == want, (spec, name)
        assert result.flagged_users == flagged
    assert split_temporal(windows, SplitSpec(mode="temporal")).flagged_users == ("u9",)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normalizer_matches_per_window_reference(window_factory, seed):
    windows = random_windows(window_factory, seed)
    train = oversample_minority(windows, median_class_count(windows), seed=seed)
    mean, std, normalized = ref_normalize(window_rows(train))
    norm = fit_normalizer(train)
    assert norm.mean == tuple(float(v) for v in mean)
    assert norm.std == tuple(float(v) for v in std)
    out = apply_normalizer(train, norm)
    for got, want in zip(out.features, normalized):
        assert got.tobytes() == want.tobytes()


def test_windows_match_per_window_reference(grid_factory, grid_values, taxonomy):
    """build_windows against a minute-by-minute loop with a Counter per window."""
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
    envelopes = {("u1", DAY): (52.0, 171.0), ("u2", DAY): (49.0, 166.0)}
    for key, (min_hr, max_hr) in envelopes.items():
        days[key].update(min_hr=min_hr, max_hr=max_hr)
    grid = grid_factory(days)
    for width in (15, 60):
        want = []
        for key in sorted(envelopes):
            min_hr, max_hr = envelopes[key]
            pulse = grid_values(grid, "pulse", key)
            steps = grid_values(grid, "steps", key)
            distance = grid_values(grid, "distance_m", key)
            sleep = grid_values(grid, "sleep", key)
            schedule = grid_values(grid, "schedule", key)
            feats = np.array(
                [
                    [0.0, 0.0, 0.0, steps[i], distance[i]]
                    if pulse[i] is None
                    else [pulse[i], pulse[i] / min_hr, pulse[i] / max_hr, steps[i], distance[i]]
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
        got = build_windows(grid, width, taxonomy)
        assert got.width == width
        assert len(got) == len(want) > 0
        for row, (key, start, modal, feats) in zip(window_rows(got), want):
            user, day, got_start, l1, l2, synthetic, features = row
            assert ((user, day), got_start, l2) == (key, start, modal)
            assert l1 == taxonomy.level1_of(modal)
            assert not synthetic
            np.testing.assert_array_equal(features, feats)
