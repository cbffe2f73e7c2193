"""Grid fusion: percentiles, integer apportionment, block redistribution,
and whole-cohort alignment."""

import io
import math
import random
from datetime import date, datetime, timezone
from fractions import Fraction

import numpy as np
import pytest

from harforge.align import (
    ALIGNED_HEADER,
    LTM_CUTOFF_FACTOR,
    MAX_HR_PERCENTILE,
    MIN_HR_PERCENTILE,
    AlignedData,
    DayGrid,
    align_cohort,
    apportion,
    percentile_rows,
    redistribute,
    read_aligned_csv,
    read_profiles_csv,
    write_aligned_csv,
    write_profiles_csv,
)
from harforge.core import ScheduleBlock, SleepState, epoch_minute, local_day_and_index
from harforge.ingest import RawActivityBlock, RawSleepSegment, parse_activity_blocks

UTC = timezone.utc
DAY = date(2024, 3, 4)


def utc(hour, minute=0, second=0, day=4):
    return datetime(2024, 3, day, hour, minute, second, tzinfo=UTC)


def percentile_oracle(values, q):
    """Percentile with linear interpolation, in Python floats: the rank of q
    over n sorted values is q/100 * (n-1), and a fractional rank
    interpolates between its two neighbours. ``percentile_rows`` must match
    it bit for bit."""
    v = sorted(values)
    rank = (q / 100.0) * (len(v) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    if lo == hi:
        return float(v[lo])
    return v[lo] + (rank - lo) * (v[hi] - v[lo])


#: The two percentiles of the heart-rate envelope.
PERCENTILES = (MIN_HR_PERCENTILE, MAX_HR_PERCENTILE)


def percentile_row(values, q):
    """``percentile_rows`` of one row holding ``values`` and trailing NaNs."""
    row = np.array([*values, math.nan, math.nan])
    return float(percentile_rows(row[None, :], q)[0])


class TestPercentileLinear:
    """``percentile_rows``: linear interpolation between order statistics,
    one row per case."""

    def test_single_value(self):
        assert percentile_row([7.0], 33.0) == 7.0

    def test_endpoints(self):
        vals = [5.0, 1.0, 3.0]
        assert percentile_row(vals, 0.0) == 1.0
        assert percentile_row(vals, 100.0) == 5.0

    def test_interpolates_between_order_statistics(self):
        # rank 0.25 * 3 = 0.75 between sorted values 1 and 2
        assert percentile_row([4.0, 3.0, 2.0, 1.0], 25.0) == pytest.approx(1.75)

    def test_median_of_even_count(self):
        assert percentile_row([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_row_without_values_is_nan(self):
        rows = np.array([[math.nan, math.nan], [2.0, math.nan]])
        got = percentile_rows(rows, 50.0)
        assert math.isnan(got[0]) and got[1] == 2.0

    def test_matches_numpy_linear_method(self):
        # one call over rows of random length, their NaNs in random places
        rng = random.Random(41)
        rows = np.full((300, 200), math.nan)
        for row in rows:
            n = rng.randint(1, 200)
            row[rng.sample(range(200), n)] = [rng.uniform(30.0, 200.0) for _ in range(n)]
        for q in [rng.uniform(0.0, 100.0) for _ in range(3)] + list(PERCENTILES):
            got = percentile_rows(rows, q).tolist()
            for row, value in zip(rows, got):
                vals = row[~np.isnan(row)].tolist()
                assert value == percentile_oracle(vals, q)
                want = float(np.percentile(vals, q, method="linear"))
                assert value == pytest.approx(want, abs=1e-9)


def apportion_oracle(total, weights):
    """Exact-rational largest remainder; ties go to the lower index."""
    s = sum(Fraction(w) for w in weights)
    quotas = [Fraction(total) * Fraction(w) / s for w in weights]
    base = [q.numerator // q.denominator for q in quotas]
    frac = [q - b for q, b in zip(quotas, base)]
    order = sorted(range(len(weights)), key=lambda i: (-frac[i], i))
    out = list(base)
    for i in order[: total - sum(base)]:
        out[i] += 1
    return out


def apportion_row(total, weights):
    """``apportion`` of one row, as a list."""
    return apportion(np.array([total]), np.array([weights], float))[0].tolist()


def redistribute_row(steps, distance_m, pulses, min_hr):
    """``redistribute`` of one block, as its per-minute (steps, distance) pairs."""
    step_parts, distance_parts = redistribute(
        np.array([steps]), np.array([distance_m]), np.array([pulses], float), np.array([min_hr])
    )
    return list(zip(step_parts[0].tolist(), distance_parts[0].tolist()))


class TestLargestRemainder:
    def test_hand_example(self):
        # quotas 2.5 / 1.25 / 1.25: slot 0 takes the single leftover unit
        assert apportion_row(5, [2.0, 1.0, 1.0]) == [3, 1, 1]

    def test_tie_goes_to_lower_index(self):
        assert apportion_row(1, [1.0, 1.0]) == [1, 0]
        assert apportion_row(3, [1.0, 1.0]) == [2, 1]

    def test_zero_total(self):
        assert apportion_row(0, [0.3, 0.7]) == [0, 0]

    def test_zero_weight_slot_can_still_get_a_unit(self):
        # floor quotas [0,0,0], all fractional parts 2/3 except the zero slot
        assert apportion_row(2, [1.0, 1.0, 1.0, 0.0]) == [1, 1, 0, 0]

    def test_matches_exact_rational_oracle(self):
        # continuous weights: exact rational ties between distinct slots do
        # not occur, so float ranking agrees with the exact ranking
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(1, 40)
            weights = [rng.uniform(0.01, 5.0) for _ in range(n)]
            total = rng.randint(0, 10_000)
            got = apportion_row(total, weights)
            assert got == apportion_oracle(total, weights)
            assert sum(got) == total

    def test_integer_weights_conserve_and_stay_near_quota(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 30)
            weights = [rng.randint(0, 50) for _ in range(n)]
            if sum(weights) == 0:
                weights[rng.randrange(n)] = 1
            total = rng.randint(0, 2_000)
            got = apportion_row(total, weights)
            assert sum(got) == total
            s = sum(weights)
            for g, w in zip(got, weights):
                assert abs(g - total * w / s) < 1.0 + 1e-9

    def test_rows_are_apportioned_independently(self):
        rng = random.Random(5)
        rows = [[rng.uniform(0.01, 5.0) for _ in range(15)] for _ in range(200)]
        totals = [rng.randint(0, 3000) for _ in rows]
        got = apportion(np.array(totals), np.array(rows)).tolist()
        assert got == [apportion_oracle(t, w) for t, w in zip(totals, rows)]


class TestLtmRedistribute:
    def test_weights_are_pulse_above_cutoff(self):
        # cutoff 52.5: weights 7.5 / 17.5 / 0 split 100 steps as 30 / 70 / 0
        parts = redistribute_row(100, 50.0, [60.0, 70.0, 50.0], 50.0)
        assert [s for s, _ in parts] == [30, 70, 0]
        assert [d for _, d in parts] == pytest.approx([15.0, 35.0, 0.0])

    def test_missing_pulse_gets_zero_weight(self):
        # a minute without a reading holds the grid's empty pulse
        pulses = DayGrid.empty([("u1", DAY)]).pulse[0, :3].copy()
        pulses[1:] = (70.0, 50.0)
        parts = redistribute_row(90, 9.0, pulses, 50.0)
        assert [s for s, _ in parts] == [0, 90, 0]

    def test_nan_pulse_gets_zero_weight(self):
        parts = redistribute_row(90, 9.0, [math.nan, 70.0, 50.0], 50.0)
        assert [s for s, _ in parts] == [0, 90, 0]

    def test_all_below_cutoff_falls_back_to_uniform(self):
        parts = redistribute_row(10, 3.0, [50.0, 51.0, 52.0], 50.0)
        assert [s for s, _ in parts] == [4, 3, 3]
        assert [d for _, d in parts] == pytest.approx([1.0, 1.0, 1.0])

    def test_pulse_exactly_at_cutoff_has_zero_weight(self):
        parts = redistribute_row(6, 0.0, [52.5, 60.0, 52.5], 50.0)
        assert [s for s, _ in parts] == [0, 6, 0]

    def test_conservation_over_random_blocks(self):
        rng = random.Random(11)
        for _ in range(200):
            pulses = [
                math.nan if rng.random() < 0.2 else rng.uniform(40.0, 180.0)
                for _ in range(15)
            ]
            steps = rng.randint(0, 4000)
            dist = rng.uniform(0.0, 3000.0)
            parts = redistribute_row(steps, dist, pulses, 55.0)
            assert sum(s for s, _ in parts) == steps
            assert sum(d for _, d in parts) == pytest.approx(dist, abs=1e-9)
            assert all(s >= 0 and d >= -0.0 for s, d in parts)

    def test_distance_is_share_of_left_to_right_weight_sum(self):
        # s is each row's weights added left to right; ndarray.sum adds
        # pairwise, and its sum differs on some of these rows
        rng = np.random.default_rng(17)
        pulses = rng.uniform(40.0, 180.0, (2000, 15))
        pulses[rng.random(pulses.shape) < 0.2] = np.nan
        min_hr = rng.uniform(40.0, 80.0, 2000)
        min_hr[rng.random(2000) < 0.05] = np.nan
        distance = rng.uniform(0.0, 3000.0, 2000)
        _, got = redistribute(rng.integers(0, 4000, 2000), distance, pulses, min_hr)
        differs = 0
        for row, d, p, m in zip(got.tolist(), distance.tolist(), pulses.tolist(), min_hr.tolist()):
            w = [max(0.0, x - LTM_CUTOFF_FACTOR * m) if x == x and m == m else 0.0 for x in p]
            s = 0.0
            for x in w:
                s += x
            if s <= 0.0:
                w, s = [1.0] * 15, 15.0
            differs += float(np.array(w).sum()) != s
            assert row == [d * x / s for x in w]
        assert differs > 0

    def test_negative_inputs_rejected(self, hr_factory):
        for steps, distance in ((-1, 0.0), (5, -1.0)):
            block = RawActivityBlock("u1", utc(12, 0), steps, distance)
            with pytest.raises(ValueError, match="non-negative"):
                align_cohort(hr_factory(), [block], [], [], tz_offset_minutes=0)


class TestHrProfile:
    def test_downsample_mean(self, grid_values, hr_factory):
        readings = ((3, 60.0), (18, 62.0), (33, 64.0))
        samples = [("u1", utc(6, 30, sec), bpm) for sec, bpm in readings]
        days = align_cohort(hr_factory(samples), [], [], [], tz_offset_minutes=0).days
        pulse = grid_values(days, "pulse", ("u1", DAY))
        assert pulse[390] == pytest.approx(62.0)
        assert pulse[391] is None

    def test_envelope_of_1_to_100(self):
        pulses = [float(v) for v in range(1, 101)]
        # 5th pct: rank 4.95 between 5 and 6; 99.97th: rank 98.9703
        assert percentile_row(pulses, MIN_HR_PERCENTILE) == pytest.approx(5.95)
        assert percentile_row(pulses, MAX_HR_PERCENTILE) == pytest.approx(99.9703)

    def test_order_insensitive(self):
        # a row's percentiles depend neither on its order nor on where its
        # NaNs sit
        vals = [80.0, 55.0, 140.0, 61.0, 72.0]
        rows = np.array(
            [vals + [math.nan] * 3, [math.nan, *reversed(vals), math.nan, math.nan]]
        )
        for q in PERCENTILES:
            got = percentile_rows(rows, q).tolist()
            assert got == [percentile_oracle(vals, q)] * 2

    def test_low_confidence_below_60_pulses(self, hr_factory):
        # 59 pulse minutes on the 4th, 60 on the 5th
        samples = [hr_minute("u1", 10 + m // 60, m % 60, 60.0 + m) for m in range(59)]
        samples += [hr_minute("u1", 10 + m // 60, m % 60, 60.0 + m, day=5) for m in range(60)]
        data = align_cohort(hr_factory(samples), [], [], [], tz_offset_minutes=0)
        assert data.n_pulses.tolist() == [59, 60]
        rows = write_profiles_csv(data).splitlines()[1:]
        assert [row.split(",")[4:] for row in rows] == [["59", "1"], ["60", "0"]]

    @pytest.mark.parametrize("scope", ["day", "global"])
    def test_day_and_user_without_pulses(self, hr_factory, scope):
        # u1 has pulses on the 4th only; u0 has none at all
        samples = [hr_minute("u1", 10, m, 60.0 + m) for m in range(50)]
        night = (utc(0, 0, day=5), utc(6, 0, day=5))
        segs = [RawSleepSegment(user, *night, SleepState.SLEEP) for user in ("u0", "u1")]
        data = align_cohort(
            hr_factory(samples), [], segs, [], tz_offset_minutes=0, profile_scope=scope
        )
        days = data.days
        assert days.keys == (("u0", date(2024, 3, 5)), ("u1", DAY), ("u1", date(2024, 3, 5)))
        pulses = [60.0 + m for m in range(50)]
        envelope = [percentile_oracle(pulses, q) for q in PERCENTILES]
        rows = list(zip(days.min_hr.tolist(), days.max_hr.tolist()))
        assert np.isnan(rows[0]).all()
        assert list(rows[1]) == envelope
        written = [row.split(",") for row in write_profiles_csv(data).splitlines()[1:]]
        if scope == "day":
            assert np.isnan(rows[2]).all()
            assert data.n_pulses.tolist() == [0, 50, 0]
            assert [row[:2] for row in written] == [["u1", "2024-03-04"]]
        else:
            assert list(rows[2]) == envelope
            assert data.n_pulses.tolist() == [0, 50, 50]
            assert [row[:2] for row in written] == [["u1", "2024-03-04"], ["u1", "2024-03-05"]]
        assert {row[5] for row in written} == {"1"}  # 50 pulse minutes


def hr_minute(user, hour, minute, bpm, day=4):
    return (user, utc(hour, minute, 3, day=day), bpm)


class TestAlignCohort:
    def test_pulse_lands_on_local_minute(self, grid_values, hr_factory):
        data = align_cohort(
            hr_factory([hr_minute("u1", 6, 30, 61.0)]), [], [], [], tz_offset_minutes=120
        )
        assert data.days.keys == (("u1", DAY),)
        pulse = grid_values(data.days, "pulse", ("u1", DAY))
        assert len(pulse) == 1440
        assert pulse[8 * 60 + 30] == pytest.approx(61.0)
        assert [i for i, p in enumerate(pulse) if p is not None] == [510]

    def test_same_minute_samples_average(self, grid_values, hr_factory):
        samples = [("u1", utc(6, 30, 3), 60.0), ("u1", utc(6, 30, 48), 64.0)]
        data = align_cohort(hr_factory(samples), [], [], [], tz_offset_minutes=120)
        assert grid_values(data.days, "pulse", ("u1", DAY))[510] == pytest.approx(62.0)

    def test_late_utc_sample_belongs_to_next_local_day(self, grid_values, hr_factory):
        data = align_cohort(
            hr_factory([hr_minute("u1", 22, 10, 61.0)]), [], [], [], tz_offset_minutes=120
        )
        assert data.days.keys == (("u1", date(2024, 3, 5)),)
        pulse = grid_values(data.days, "pulse", ("u1", date(2024, 3, 5)))
        assert pulse[10] == pytest.approx(61.0)

    def test_zero_offset_keeps_utc_days(self, hr_factory):
        data = align_cohort(
            hr_factory([hr_minute("u1", 22, 10, 61.0)]), [], [], [], tz_offset_minutes=0
        )
        assert data.days.keys == (("u1", DAY),)

    @pytest.mark.parametrize("offset", [0, 120, -45])
    def test_pre_1970_sample_lands_on_its_epoch_minute(self, grid_values, hr_factory, offset):
        for ts in (
            datetime(1969, 12, 31, 23, 59, 30, tzinfo=UTC),
            datetime(1969, 6, 1, 0, 0, 59, tzinfo=UTC),
            datetime(1950, 2, 28, 5, 7, 1, tzinfo=UTC),
        ):
            hr = hr_factory([("u1", ts, 70.0)])
            data = align_cohort(hr, [], [], [], tz_offset_minutes=offset)
            day, index = local_day_and_index(epoch_minute(ts), offset)
            assert data.days.keys == (("u1", day),)
            pulse = grid_values(data.days, "pulse", ("u1", day))
            assert [i for i, p in enumerate(pulse) if p is not None] == [index]

    def test_sleep_segment_crossing_local_midnight_paints_both_days(
        self, grid_values, hr_factory
    ):
        seg = RawSleepSegment("u1", utc(20, 0), utc(4, 0, day=5), SleepState.SLEEP)
        data = align_cohort(hr_factory(), [], [seg], [], tz_offset_minutes=120)
        d1 = grid_values(data.days, "sleep", ("u1", DAY))
        d2 = grid_values(data.days, "sleep", ("u1", date(2024, 3, 5)))
        assert d1[22 * 60] is SleepState.SLEEP
        assert d1[1439] is SleepState.SLEEP
        assert d2[0] is SleepState.SLEEP
        assert d2[6 * 60 - 1] is SleepState.SLEEP
        assert d2[6 * 60] is SleepState.UNKNOWN

    def test_schedule_paints_labels(self, taxonomy, grid_values, hr_factory):
        blk = ScheduleBlock("u1", utc(6, 0), utc(6, 30), "Running Exercise")
        data = align_cohort(hr_factory(), [], [], [blk], tz_offset_minutes=0)
        labels = grid_values(data.days, "schedule", ("u1", DAY))
        assert labels[6 * 60] == "Running Exercise"
        assert labels[6 * 60 + 29] == "Running Exercise"
        assert labels[6 * 60 + 30] is None

    def test_block_steps_follow_high_pulse_minutes(self, grid_values, hr_factory):
        # pulses over the whole day pin min_hr; one hot minute inside the
        # block should absorb every step of the block
        samples = [hr_minute("u1", 10, m, 60.0) for m in range(60)]
        samples.append(hr_minute("u1", 12, 5, 150.0))
        block = RawActivityBlock("u1", utc(12, 0), 300, 210.0)
        data = align_cohort(hr_factory(samples), [block], [], [], tz_offset_minutes=0)
        steps = grid_values(data.days, "steps", ("u1", DAY))
        distance = grid_values(data.days, "distance_m", ("u1", DAY))
        assert steps[12 * 60 + 5] == 300
        assert distance[12 * 60 + 5] == pytest.approx(210.0)
        assert sum(steps) == 300

    def test_block_without_any_pulse_spreads_uniformly(self, grid_values, hr_factory):
        block = RawActivityBlock("u1", utc(12, 0), 30, 15.0)
        data = align_cohort(hr_factory(), [block], [], [], tz_offset_minutes=0)
        steps = grid_values(data.days, "steps", ("u1", DAY))
        assert steps[12 * 60 : 12 * 60 + 15] == [2] * 15
        assert grid_values(data.days, "distance_m", ("u1", DAY))[12 * 60] == pytest.approx(1.0)

    def test_step_totals_conserved_per_user_day(self, grid_values, hr_factory):
        rng = random.Random(3)
        samples = [
            hr_minute("u1", h, m, rng.uniform(50.0, 160.0))
            for h in range(8, 20)
            for m in range(0, 60, 2)
        ]
        blocks = [
            RawActivityBlock("u1", utc(h, q * 15), rng.randint(0, 900), rng.uniform(0, 600))
            for h in range(8, 20)
            for q in range(4)
        ]
        data = align_cohort(hr_factory(samples), blocks, [], [], tz_offset_minutes=0)
        assert sum(grid_values(data.days, "steps", ("u1", DAY))) == sum(b.steps for b in blocks)
        assert sum(grid_values(data.days, "distance_m", ("u1", DAY))) == pytest.approx(
            sum(b.distance_m for b in blocks), abs=1e-9
        )

    def test_day_scope_builds_one_profile_per_user_day(self, hr_factory):
        samples = [hr_minute("u1", 10, m, 60.0 + m) for m in range(30)]
        samples += [hr_minute("u1", 10, m, 80.0 + m, day=5) for m in range(30)]
        data = align_cohort(hr_factory(samples), [], [], [], tz_offset_minutes=0)
        assert data.days.keys == (("u1", DAY), ("u1", date(2024, 3, 5)))
        assert data.days.min_hr[0] < data.days.min_hr[1]
        assert data.days.max_hr[0] < data.days.max_hr[1]
        assert data.n_pulses.tolist() == [30, 30]

    def test_global_scope_shares_one_profile(self, hr_factory):
        samples = [hr_minute("u1", 10, m, 60.0 + m) for m in range(30)]
        samples += [hr_minute("u1", 10, m, 80.0 + m, day=5) for m in range(30)]
        data = align_cohort(hr_factory(), [], [], [], tz_offset_minutes=0, profile_scope="global")
        assert len(data.days) == 0 and len(data.n_pulses) == 0
        data = align_cohort(
            hr_factory(samples), [], [], [], tz_offset_minutes=0, profile_scope="global"
        )
        days = data.days
        assert days.min_hr[0] == days.min_hr[1] and days.max_hr[0] == days.max_hr[1]
        pulses = [60.0 + m for m in range(30)] + [80.0 + m for m in range(30)]
        assert days.min_hr[0] == percentile_oracle(pulses, MIN_HR_PERCENTILE)
        assert data.n_pulses.tolist() == [60, 60]

    def test_bad_offset_rejected(self, hr_factory):
        with pytest.raises(ValueError, match="multiple of 15"):
            align_cohort(hr_factory(), [], [], [], tz_offset_minutes=100)

    def test_bad_scope_rejected(self, hr_factory):
        with pytest.raises(ValueError, match="profile scope"):
            align_cohort(hr_factory(), [], [], [], profile_scope="week")

    def test_users_do_not_mix(self, grid_values, hr_factory):
        samples = [hr_minute("u1", 10, 0, 60.0), hr_minute("u2", 10, 0, 90.0)]
        # u0 has a sleep segment but no pulse, so it sorts before every
        # user of the stream and shifts the cohort's user codes
        seg = RawSleepSegment("u0", utc(0, 0), utc(6, 0), SleepState.SLEEP)
        data = align_cohort(hr_factory(samples), [], [seg], [], tz_offset_minutes=0)
        assert grid_values(data.days, "pulse", ("u1", DAY))[600] == pytest.approx(60.0)
        assert grid_values(data.days, "pulse", ("u2", DAY))[600] == pytest.approx(90.0)
        assert set(grid_values(data.days, "pulse", ("u0", DAY))) == {None}

    def test_empty_stream_still_paints_blocks_and_segments(self, grid_values, hr_factory):
        hr = hr_factory()
        assert len(hr) == 0
        block = RawActivityBlock("u2", utc(12, 0), 30, 15.0)
        seg = RawSleepSegment("u1", utc(0, 0), utc(6, 0), SleepState.SLEEP)
        blk = ScheduleBlock("u1", utc(8, 0), utc(9, 0), "Other")
        data = align_cohort(hr, [block], [seg], [blk], tz_offset_minutes=0)
        assert data.days.keys == (("u1", DAY), ("u2", DAY))
        assert np.isnan(data.days.min_hr).all() and np.isnan(data.days.max_hr).all()
        assert data.n_pulses.tolist() == [0, 0]
        assert np.isnan(data.days.pulse).all()
        assert grid_values(data.days, "steps", ("u2", DAY))[12 * 60 : 12 * 60 + 15] == [2] * 15
        sleep = grid_values(data.days, "sleep", ("u1", DAY))
        assert sleep[: 6 * 60 + 1] == [SleepState.SLEEP] * (6 * 60) + [SleepState.UNKNOWN]
        labels = grid_values(data.days, "schedule", ("u1", DAY))
        assert labels[8 * 60 : 9 * 60 + 1] == ["Other"] * 60 + [None]

    def test_block_listed_twice_adds_twice(self, grid_values, hr_factory):
        samples = [hr_minute("u1", 10, m, 60.0) for m in range(60)]
        samples += [hr_minute("u1", 12, m, 70.0 + 9 * m) for m in range(0, 15, 4)]
        hr = hr_factory(samples)
        block = RawActivityBlock("u1", utc(12, 0), 301, 210.7)
        once = align_cohort(hr, [block], [], [], tz_offset_minutes=0).days
        twice = align_cohort(hr, [block, block], [], [], tz_offset_minutes=0).days
        steps = grid_values(once, "steps", ("u1", DAY))
        distance = grid_values(once, "distance_m", ("u1", DAY))
        assert len(set(steps[12 * 60 : 12 * 60 + 15])) > 2
        assert grid_values(twice, "steps", ("u1", DAY)) == [2 * s for s in steps]
        assert grid_values(twice, "distance_m", ("u1", DAY)) == [d + d for d in distance]

    def test_block_off_the_local_grid_rejected(self, hr_factory):
        # the first misfit in list order is named, not the first in key order
        blocks = [
            RawActivityBlock("u1", utc(9, 0), 10, 1.0),
            RawActivityBlock("u2", utc(12, 5), 10, 1.0),
            RawActivityBlock("u1", utc(10, 7), 10, 1.0),
        ]
        with pytest.raises(ValueError, match="activity block at minute 725 does not fit"):
            align_cohort(hr_factory(), blocks, [], [], tz_offset_minutes=0)

    def test_negative_zero_distance_aligns_to_positive_zero(self, hr_factory):
        text = "user_id,block_start,steps,distance_m\nu1,2024-03-04T12:00:00Z,30,-0.0\n"
        blocks = parse_activity_blocks(io.StringIO(text))
        assert math.copysign(1.0, blocks[0].distance_m) == -1.0
        days = align_cohort(hr_factory(), blocks, [], [], tz_offset_minutes=0).days
        assert np.signbit(days.distance_m).sum() == 0
        assert days.steps.sum() == 30


GRID_COLUMNS = ("pulse", "steps", "distance_m", "sleep", "schedule")

ALIGNED_TEXT_HEADER = ",".join(ALIGNED_HEADER) + "\n"


class TestBuildAlignedDay:
    """One user-day of align_cohort, looked at on its own."""

    def test_matches_cohort_alignment(self, grid_values, hr_factory):
        # u1's day comes out the same whether or not other users and other
        # days are aligned alongside it
        rng = random.Random(17)

        def streams(user, day):
            samples = [
                hr_minute(user, h, m, rng.uniform(50.0, 170.0), day=day)
                for h in range(24)
                for m in range(0, 60, 3)
            ]
            blocks = [
                RawActivityBlock(
                    user, utc(h, 15, day=day), rng.randint(0, 500), rng.uniform(0, 300)
                )
                for h in range(6, 20)
            ]
            night = (utc(0, 0, day=day), utc(5, 30, day=day))
            segs = [RawSleepSegment(user, *night, SleepState.SLEEP)]
            sched = [ScheduleBlock(user, utc(8, 0, day=day), utc(9, 0, day=day), "Military Drills")]
            return samples, blocks, segs, sched

        alone = streams("u1", 4)
        others = [streams("u0", 4), streams("u2", 4), streams("u1", 5)]
        mixed = [
            sum((list(s[i]) for s in [others[0], alone, *others[1:]]), []) for i in range(4)
        ]
        one = align_cohort(hr_factory(alone[0]), *alone[1:], tz_offset_minutes=0)
        cohort = align_cohort(hr_factory(mixed[0]), *mixed[1:], tz_offset_minutes=0)
        key = ("u1", DAY)
        assert one.days.keys == (key,)
        assert len(cohort.days) == 4
        for column in GRID_COLUMNS:
            assert grid_values(one.days, column, key) == grid_values(cohort.days, column, key)
        r = cohort.days.keys.index(key)
        assert one.days.min_hr[0] == cohort.days.min_hr[r]
        assert one.days.max_hr[0] == cohort.days.max_hr[r]
        assert one.n_pulses[0] == cohort.n_pulses[r]

    def test_other_users_and_days_ignored(self, grid_values, hr_factory):
        samples = [
            hr_minute("u2", 10, 0, 90.0),
            hr_minute("u1", 10, 0, 60.0, day=5),
            hr_minute("u1", 9, 0, 70.0),
        ]
        data = align_cohort(hr_factory(samples), [], [], [], tz_offset_minutes=0)
        pulse = grid_values(data.days, "pulse", ("u1", DAY))
        assert [i for i, p in enumerate(pulse) if p is not None] == [540]

    def test_without_profile_blocks_spread_uniformly(self):
        # align_cohort passes min_hr = NaN for a day without an envelope,
        # which gives every minute weight 0
        parts = redistribute_row(15, 0.0, [150.0] * 15, math.nan)
        assert [s for s, _ in parts] == [1] * 15

    def test_interval_clipped_to_day(self, grid_values, hr_factory):
        seg = RawSleepSegment("u1", utc(20, 0, day=3), utc(23, 0), SleepState.SLEEP)
        data = align_cohort(hr_factory(), [], [seg], [], tz_offset_minutes=0)
        sleep = grid_values(data.days, "sleep", ("u1", DAY))
        assert sleep[0] is SleepState.SLEEP
        assert sleep[22 * 60 + 59] is SleepState.SLEEP
        assert sleep[23 * 60] is SleepState.UNKNOWN
        before = grid_values(data.days, "sleep", ("u1", date(2024, 3, 3)))
        assert before[20 * 60 - 1] is SleepState.UNKNOWN
        assert before[20 * 60] is SleepState.SLEEP


class TestAlignedCsv:
    def _sample_days(self, grid_factory):
        return grid_factory(
            {
                ("u1", DAY): {
                    "pulse": [None if i % 3 == 0 else 60.0 + i * 0.25 for i in range(1440)],
                    "steps": [i % 7 for i in range(1440)],
                    "distance_m": [(i % 7) * 0.7 for i in range(1440)],
                    "sleep": {i: SleepState.SLEEP for i in range(300)},
                    "schedule": {i: "Running Exercise" for i in range(400, 430)},
                }
            }
        )

    def _sample_text(self, grid_factory):
        return write_aligned_csv(self._sample_days(grid_factory))

    def test_round_trip(self, grid_factory, grid_values):
        days = self._sample_days(grid_factory)
        text = write_aligned_csv(days)
        again = read_aligned_csv(io.StringIO(text))
        assert again.keys == days.keys
        for column in GRID_COLUMNS:
            assert grid_values(again, column, ("u1", DAY)) == grid_values(days, column, ("u1", DAY))
        assert write_aligned_csv(again) == text

    def test_missing_pulse_serializes_empty(self, grid_factory):
        first_row = self._sample_text(grid_factory).splitlines()[1]
        assert first_row == "u1,2024-03-04,0,,0,0.0,sleep,"

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            read_aligned_csv(io.StringIO("user,day\nu1,2024-03-04\n"))

    def test_field_count_enforced(self, grid_factory):
        broken = self._sample_text(grid_factory) + "u1,2024-03-04,9\n"
        with pytest.raises(ValueError, match="fields"):
            read_aligned_csv(io.StringIO(broken))

    def test_truncated_day_rejected(self, grid_factory):
        lines = self._sample_text(grid_factory).splitlines(keepends=True)
        with pytest.raises(ValueError, match="row 1440 before minute 1439 of u1 2024-03-04"):
            read_aligned_csv(io.StringIO("".join(lines[:-1])))

    def test_truncated_day_followed_by_another_rejected(self, grid_factory):
        lines = self._sample_text(grid_factory).splitlines(keepends=True)
        other = [line.replace("u1,", "u2,", 1) for line in lines[1:]]
        with pytest.raises(ValueError, match="row 1441: u1 2024-03-04 ends before minute 1439"):
            read_aligned_csv(io.StringIO("".join(lines[:-1] + other)))

    def test_missing_minute_rejected(self, grid_factory):
        lines = self._sample_text(grid_factory).splitlines(keepends=True)
        del lines[1 + 100]
        with pytest.raises(ValueError, match="row 102: u1 2024-03-04 skips minute 100"):
            read_aligned_csv(io.StringIO("".join(lines)))

    def test_duplicate_minute_rejected(self, grid_factory):
        lines = self._sample_text(grid_factory).splitlines(keepends=True)
        lines.insert(1 + 6, lines[1 + 5])
        with pytest.raises(ValueError, match="row 8: u1 2024-03-04 repeats minute 5"):
            read_aligned_csv(io.StringIO("".join(lines)))

    def test_repeated_day_rejected(self, grid_factory):
        rows = self._sample_text(grid_factory).splitlines(keepends=True)[1:]
        again = [rows[0]] + rows
        with pytest.raises(ValueError, match="row 1442: u1 2024-03-04 repeats minute 0"):
            read_aligned_csv(io.StringIO(ALIGNED_TEXT_HEADER + "".join(rows + again)))
        other = [row.replace("u1,", "u2,", 1) for row in rows]
        with pytest.raises(ValueError, match="row 2882: u1 2024-03-04 appears twice"):
            read_aligned_csv(io.StringIO(ALIGNED_TEXT_HEADER + "".join(rows + other + rows)))

    @pytest.mark.parametrize("minute", [-1, 1440])
    def test_out_of_range_minute_rejected(self, grid_factory, minute):
        lines = self._sample_text(grid_factory).splitlines(keepends=True)
        lines[-1] = lines[-1].replace(",1439,", f",{minute},", 1)
        with pytest.raises(ValueError, match=f"row 1441: minute {minute} outside"):
            read_aligned_csv(io.StringIO("".join(lines)))


    @pytest.mark.parametrize(
        "field, text, message",
        [
            (1, "2024-13-04", "bad date '2024-13-04'"),
            (2, "x", "bad minute 'x'"),
            (3, "x", "bad pulse 'x'"),
            (4, "1.5", "bad steps '1.5'"),
            (5, "far", "bad distance_m 'far'"),
            (6, "asleep", "bad sleep 'asleep'"),
        ],
    )
    def test_malformed_field_rejected(self, grid_factory, field, text, message):
        lines = self._sample_text(grid_factory).splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[field] = text
        lines[1] = ",".join(cells)
        with pytest.raises(ValueError, match=f"aligned CSV row 2: {message}"):
            read_aligned_csv(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("field, text", [(3, "nan"), (3, "inf"), (5, "nan"), (5, "-inf")])
    def test_non_finite_values_rejected(self, grid_factory, field, text):
        lines = self._sample_text(grid_factory).splitlines(keepends=True)
        cells = lines[11].split(",")
        cells[field] = text
        lines[11] = ",".join(cells)
        with pytest.raises(ValueError, match="row 12: pulse and distance must be finite"):
            read_aligned_csv(io.StringIO("".join(lines)))


def enveloped(envelopes):
    """An empty grid of the sorted keys of ``envelopes`` ((user, day) ->
    (min_hr, max_hr)) with that envelope."""
    keys = sorted(envelopes)
    days = DayGrid.empty(keys)
    for r, key in enumerate(keys):
        days.min_hr[r], days.max_hr[r] = envelopes[key]
    return days


#: One user-day's envelope from 930 pulse minutes.
ONE_PROFILE = AlignedData(enveloped({("u1", DAY): (52.75, 148.2)}), np.array([930]))


class TestProfilesCsv:
    def test_round_trip(self):
        days = enveloped(
            {
                ("u1", DAY): (52.75, 148.2),
                ("u2", DAY): (61.0, 132.0),
                ("u3", DAY): (math.nan, math.nan),
            }
        )
        aligned = AlignedData(days, np.array([930, 45, 0]))
        text = write_profiles_csv(aligned)
        assert text.splitlines()[1:] == [
            "u1,2024-03-04,52.75,148.2,930,0",
            "u2,2024-03-04,61.0,132.0,45,1",
        ]
        bare = DayGrid.empty(days.keys)
        again = read_profiles_csv(io.StringIO(text), bare)
        assert again.min_hr[:2].tolist() == [52.75, 61.0]
        assert again.max_hr[:2].tolist() == [148.2, 132.0]
        assert np.isnan([again.min_hr[2], again.max_hr[2]]).all()
        assert again.pulse is bare.pulse and np.isnan(bare.min_hr).all()
        assert write_profiles_csv(AlignedData(again, aligned.n_pulses)) == text

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            read_profiles_csv(io.StringIO("user_id,min_hr\n"), DayGrid.empty([]))

    def test_field_count_enforced(self):
        text = write_profiles_csv(ONE_PROFILE)
        days = DayGrid.empty([("u1", DAY), ("u2", DAY)])
        with pytest.raises(ValueError, match="profile CSV row 3 has 3 fields"):
            read_profiles_csv(io.StringIO(text + "u2,2024-03-04,61.0\n"), days)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (1, "2024-13-04", "bad date '2024-13-04'"),
            (2, "x", "bad min_hr 'x'"),
            (3, "", "bad max_hr ''"),
            (4, "1.5", "bad n_pulses '1.5'"),
        ],
    )
    def test_bad_field_names_row_and_field(self, column, value, message):
        row = ["u2", "2024-03-04", "61.0", "132.0", "45", "1"]
        row[column] = value
        text = write_profiles_csv(ONE_PROFILE)
        days = DayGrid.empty([("u1", DAY), ("u2", DAY)])
        with pytest.raises(ValueError) as err:
            read_profiles_csv(io.StringIO(text + ",".join(row) + "\n"), days)
        assert str(err.value) == f"profile CSV row 3: {message}"

    def test_second_row_of_a_user_day_rejected(self):
        text = write_profiles_csv(ONE_PROFILE)
        again = text.splitlines(keepends=True)[1].replace("52.75", "50.0")
        with pytest.raises(ValueError, match="profile CSV row 3: user 'u1' has a second row"):
            read_profiles_csv(io.StringIO(text + again), ONE_PROFILE.days)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ("nan,132.0,45,1", "min_hr must be finite and not negative, got nan"),
            ("61.0,inf,45,1", "max_hr must be finite and not negative, got inf"),
            ("-5.0,132.0,45,1", "min_hr must be finite and not negative, got -5.0"),
            ("61.0,-5.0,-7,maybe", "max_hr must be finite and not negative, got -5.0"),
            ("61.0,50.0,45,1", "max_hr 50.0 is below min_hr 61.0"),
            ("61.0,132.0,0,1", "n_pulses must be at least 1, got 0"),
            ("61.0,132.0,-7,1", "n_pulses must be at least 1, got -7"),
            ("61.0,132.0,45,maybe", "low_confidence must be '1' for 45 pulses, got 'maybe'"),
            ("61.0,132.0,45,0", "low_confidence must be '1' for 45 pulses, got '0'"),
            ("61.0,132.0,60,1", "low_confidence must be '0' for 60 pulses, got '1'"),
        ],
    )
    def test_envelope_the_writer_cannot_write_rejected(self, fields, message):
        text = write_profiles_csv(ONE_PROFILE) + f"u2,2024-03-04,{fields}\n"
        days = DayGrid.empty([("u1", DAY), ("u2", DAY)])
        with pytest.raises(ValueError) as err:
            read_profiles_csv(io.StringIO(text), days)
        assert str(err.value) == f"profile CSV row 3: {message}"

    def test_flat_envelope_and_the_confidence_threshold_read(self):
        # max_hr equal to min_hr, and the first pulse counts on either side
        # of MIN_CONFIDENT_PULSES
        days = DayGrid.empty([("u1", DAY), ("u2", DAY), ("u3", DAY)])
        text = write_profiles_csv(ONE_PROFILE).splitlines(keepends=True)[0] + (
            "u1,2024-03-04,70.0,70.0,1,1\nu2,2024-03-04,61.0,132.0,59,1\n"
            "u3,2024-03-04,0.0,132.0,60,0\n"
        )
        again = read_profiles_csv(io.StringIO(text), days)
        assert again.min_hr.tolist() == [70.0, 61.0, 0.0]
        assert again.max_hr.tolist() == [70.0, 132.0, 132.0]

    @pytest.mark.parametrize("user, day", [("u2", "2024-03-04"), ("u1", "2024-03-05")])
    def test_row_outside_the_grid_rejected(self, user, day):
        text = write_profiles_csv(ONE_PROFILE) + f"{user},{day},61.0,132.0,45,1\n"
        with pytest.raises(ValueError) as err:
            read_profiles_csv(io.StringIO(text), ONE_PROFILE.days)
        assert str(err.value) == f"profile CSV row 3: user {user!r} has no grid row for {day}"


def test_cohort_matches_per_minute_reference(grid_values, hr_factory):
    """align_cohort against a loop over samples and painted minutes, and its
    envelope against ``percentile_oracle`` in both scopes."""
    from datetime import timedelta

    rng = random.Random(23)
    offset = 135
    start = datetime(2024, 3, 3, 18, 0, tzinfo=UTC)

    def at(minutes):
        return start + timedelta(minutes=minutes)

    # CSV rows in random order, with a few repeated (user, second) keys
    hr = hr_factory(
        (
            rng.choice(["u2", "u1"]),
            start + timedelta(seconds=rng.randrange(3 * 86400)),
            rng.uniform(40.0, 180.0),
        )
        for _ in range(4000)
    )
    blocks, segs, sched = [], [], []
    for user in ("u2", "u1"):
        t = 0
        while t < 3 * 1440:
            length = rng.randrange(5, 400)
            state = rng.choice([SleepState.SLEEP, SleepState.AWAKE])
            segs.append(RawSleepSegment(user, at(t), at(t + length), state))
            t += length + rng.randrange(0, 90)
        for q in range(0, 3 * 96, 3):
            steps, distance = rng.randrange(0, 400), rng.uniform(0, 300)
            blocks.append(RawActivityBlock(user, at(15 * q), steps, distance))
        for h in range(0, 72, 7):
            t = 60 * h + rng.randrange(60)
            label = rng.choice(["Other", "Military Drills"])
            sched.append(ScheduleBlock(user, at(t), at(t + rng.randrange(1, 200)), label))
    data = align_cohort(hr, blocks, segs, sched, tz_offset_minutes=offset)

    def slot(ts):
        return local_day_and_index(epoch_minute(ts), offset)

    sums, counts, sleep, labels, pooled = {}, {}, {}, {}, {}
    # sum the parsed rows in stream order, the order align adds them in
    for code, second, bpm in zip(hr.user.tolist(), hr.second.tolist(), hr.bpm.tolist()):
        cell = (hr.users[code], *slot(datetime.fromtimestamp(second, UTC)))
        sums[cell] = sums.get(cell, 0.0) + bpm
        counts[cell] = counts.get(cell, 0) + 1
    painted = [(sleep, g.user_id, g.start, g.end, g.state) for g in segs]
    painted += [(labels, b.user_id, b.start, b.end, b.label) for b in sched]
    for column, user, a, b, value in painted:
        for m in range(epoch_minute(a), epoch_minute(b)):
            column[(user, *local_day_and_index(m, offset))] = value
    assert len(data.days) == len({(u, d) for u, d, _ in [*counts, *sleep, *labels]})
    for key in data.days.keys:
        cells = [(*key, i) for i in range(1440)]
        pulse = [sums[c] / counts[c] if c in counts else None for c in cells]
        assert grid_values(data.days, "pulse", key) == pulse
        want_sleep = [sleep.get(c, SleepState.UNKNOWN) for c in cells]
        assert grid_values(data.days, "sleep", key) == want_sleep
        assert grid_values(data.days, "schedule", key) == [labels.get(c) for c in cells]
        present = [p for p in pulse if p is not None]
        pooled.setdefault(key[0], []).extend(present)
        envelope = [percentile_oracle(present, q) if present else math.nan for q in PERCENTILES]
        r = data.days.keys.index(key)
        np.testing.assert_array_equal([data.days.min_hr[r], data.days.max_hr[r]], envelope)
        assert data.n_pulses[r] == len(present)
        steps = [0] * 1440
        distance = [0.0] * 1440
        for b in blocks:
            b_day, i = slot(b.block_start)
            if (b.user_id, b_day) == key:
                block_pulse = [math.nan if p is None else p for p in pulse[i : i + 15]]
                parts = redistribute_row(b.steps, b.distance_m, block_pulse, envelope[0])
                for j, (s, d) in enumerate(parts):
                    steps[i + j] += s
                    distance[i + j] += d
        assert grid_values(data.days, "steps", key) == steps
        assert grid_values(data.days, "distance_m", key) == distance
    # global scope: each user's pulses of every day pooled into one envelope
    shared = align_cohort(hr, blocks, segs, sched, tz_offset_minutes=offset, profile_scope="global")
    assert shared.days.keys == data.days.keys
    for r, (user, _) in enumerate(shared.days.keys):
        envelope = [percentile_oracle(pooled[user], q) for q in PERCENTILES]
        assert [shared.days.min_hr[r], shared.days.max_hr[r]] == envelope
        assert shared.n_pulses[r] == len(pooled[user])
