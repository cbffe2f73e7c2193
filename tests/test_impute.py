"""Rule cascade for resolving Unknown sleep states."""

import random
from datetime import date

import numpy as np
import pytest

from harforge.align import SLEEP_CODE
from harforge.core import SleepState
from harforge.impute import (
    ImputeConfig,
    impute_cohort,
    rule1_sleep,
    rule2_awake,
    rule3_fill,
    write_stats_report,
)

DAY = date(2024, 3, 4)
CFG = ImputeConfig()
#: The heart-rate envelope of a test day.
ENVELOPE = {"min_hr": 50.0, "max_hr": 150.0}

U = SleepState.UNKNOWN
S = SleepState.SLEEP
A = SleepState.AWAKE


def decide(rule, grid, index):
    """What ``rule`` says about one minute of a one-day grid with the day's
    ``ENVELOPE``: its state, or None for no decision."""
    grid.min_hr[:] = ENVELOPE["min_hr"]
    if not rule(grid, CFG)[0, index]:
        return None
    return S if rule is rule1_sleep else A


class TestNightWindow:
    @pytest.mark.parametrize("index", [1260, 1439, 0, 200, 419])
    def test_nocturnal(self, index):
        assert CFG.is_night(index)

    @pytest.mark.parametrize("index", [420, 720, 1259])
    def test_diurnal(self, index):
        assert not CFG.is_night(index)


class TestRule1Sleep:
    def test_quiet_low_pulse_night_minute_sleeps(self, grid_factory):
        assert decide(rule1_sleep, grid_factory(pulse={100: 52.0}), 100) is S

    def test_pulse_exactly_at_night_threshold_is_no_decision(self, grid_factory):
        # night cutoff is 1.05 * 50 = 52.5, comparison is strict
        assert decide(rule1_sleep, grid_factory(pulse={100: 52.5}), 100) is None
        assert decide(rule1_sleep, grid_factory(pulse={100: 52.49}), 100) is S

    def test_day_threshold_is_looser(self, grid_factory):
        # 55 bpm is above the night cutoff but below the day cutoff of 60
        assert decide(rule1_sleep, grid_factory(pulse={100: 55.0}), 100) is None
        assert decide(rule1_sleep, grid_factory(pulse={720: 55.0}), 720) is S
        assert decide(rule1_sleep, grid_factory(pulse={720: 60.0}), 720) is None

    def test_steps_block_sleep(self, grid_factory):
        grid = grid_factory(pulse={100: 52.0}, steps={100: 1})
        assert decide(rule1_sleep, grid, 100) is None

    def test_missing_pulse_blocks_sleep(self, grid_factory):
        assert decide(rule1_sleep, grid_factory(), 100) is None

    def test_known_state_untouched(self, grid_factory):
        grid = grid_factory(pulse={100: 52.0}, sleep={100: A})
        assert decide(rule1_sleep, grid, 100) is None


class TestRule2Awake:
    def test_steps_imply_awake_even_without_pulse(self, grid_factory):
        assert decide(rule2_awake, grid_factory(steps={100: 3}), 100) is A

    def test_elevated_pulse_implies_awake(self, grid_factory):
        assert decide(rule2_awake, grid_factory(pulse={100: 60.5}), 100) is A

    def test_pulse_exactly_at_awake_threshold_is_no_decision(self, grid_factory):
        assert decide(rule2_awake, grid_factory(pulse={100: 60.0}), 100) is None

    def test_quiet_low_pulse_is_no_decision(self, grid_factory):
        assert decide(rule2_awake, grid_factory(pulse={100: 58.0}), 100) is None

    def test_known_state_untouched(self, grid_factory):
        grid = grid_factory(steps={100: 3}, sleep={100: S})
        assert decide(rule2_awake, grid, 100) is None


def fill(states, max_gap):
    """rule3_fill over one row of states, back as a list of states."""
    codes = np.array([[SLEEP_CODE[s] for s in states]], dtype=np.int8)
    return [tuple(SleepState)[c] for c in rule3_fill(codes, max_gap)[0]]


class TestRule3Fill:
    def test_short_interior_run_with_matching_flanks_fills(self):
        states = [S, U, U, U, S]
        assert fill(states, 120) == [S, S, S, S, S]

    def test_awake_flanks_fill_awake(self):
        assert fill([A, U, A], 120) == [A, A, A]

    def test_mixed_flanks_do_not_fill(self):
        states = [S, U, U, A]
        assert fill(states, 120) == states

    def test_run_touching_start_is_left_alone(self):
        states = [U, U, S, S]
        assert fill(states, 120) == states

    def test_run_touching_end_is_left_alone(self):
        states = [S, S, U, U]
        assert fill(states, 120) == states

    def test_gap_length_boundary_is_inclusive(self):
        at_limit = [S] + [U] * 120 + [S]
        assert fill(at_limit, 120) == [S] * 122
        over = [S] + [U] * 121 + [S]
        assert fill(over, 120) == over

    def test_multiple_independent_runs(self):
        states = [S, U, S, A, U, U, A, S, U, A]
        assert fill(states, 120) == [S, S, S, A, A, A, A, S, U, A]

    def test_all_unknown_unchanged(self):
        states = [U] * 10
        assert fill(states, 120) == states

    def test_input_not_mutated(self):
        codes = np.array([[SLEEP_CODE[s] for s in (S, U, S)]], dtype=np.int8)
        rule3_fill(codes, 120)
        assert codes.tolist() == [[SLEEP_CODE[S], SLEEP_CODE[U], SLEEP_CODE[S]]]

    def test_rows_fill_independently(self):
        # a run may not borrow a flank from the neighbouring row
        codes = np.array(
            [[SLEEP_CODE[s] for s in row] for row in ([S, U, U], [U, U, S])], dtype=np.int8
        )
        assert rule3_fill(codes, 120).tolist() == codes.tolist()


def day_columns(spec, envelope=ENVELOPE):
    """spec maps index -> (pulse, steps, sleep); all other slots default.
    The day's envelope is ``envelope``; pass ``{}`` for a day without one."""
    return {
        "pulse": {i: pulse for i, (pulse, _, _) in spec.items()},
        "steps": {i: steps for i, (_, steps, _) in spec.items()},
        "sleep": {i: sleep for i, (_, _, sleep) in spec.items()},
        **envelope,
    }


COLUMNS = ("pulse", "steps", "distance_m", "sleep", "schedule")


class TestImputeDay:
    def test_rules_apply_in_order_and_mark(self, grid_factory, grid_values):
        spec = {
            100: (52.0, 0, U),   # rule 1 at night
            101: (52.0, 0, U),   # rule 1
            102: (None, 0, U),   # rule 3 fills between two sleeps
            103: (52.0, 0, U),   # rule 1
            720: (75.0, 0, U),   # rule 2 by pulse
            721: (None, 5, U),   # rule 2 by steps
            900: (55.0, 0, A),   # device state, untouched
        }
        grid = grid_factory(**day_columns(spec))
        out, _, marks = impute_cohort(grid)
        sleep, marks = grid_values(out, "sleep"), marks[0]
        assert sleep[100] is S and marks[100] == 1
        assert sleep[102] is S and marks[102] == 3
        assert sleep[720] is A and marks[720] == 2
        assert sleep[721] is A and marks[721] == 2
        assert sleep[900] is A and marks[900] == 0

    def test_only_unknown_minutes_change(self, grid_factory, grid_values):
        rng = random.Random(5)
        spec = {}
        for i in range(0, 1440, 2):
            pulse = None if rng.random() < 0.2 else rng.uniform(45.0, 120.0)
            steps = rng.choice([0, 0, 0, 4])
            sleep = rng.choice([U, U, S, A])
            spec[i] = (pulse, steps, sleep)
        grid = grid_factory(**day_columns(spec))
        out, _, marks = impute_cohort(grid)
        before, after = grid_values(grid, "sleep"), grid_values(out, "sleep")
        for was, now, mark in zip(before, after, marks[0].tolist()):
            if was is not U:
                assert now is was
                assert mark == 0
            if mark == 1:
                assert now is S
            if mark == 2:
                assert now is A
            if mark == 0:
                assert now is was
        # only the sleep column may differ
        for column in ("pulse", "steps", "distance_m", "schedule"):
            assert grid_values(out, column) == grid_values(grid, column)

    def test_idempotent(self, grid_factory, grid_values):
        rng = random.Random(6)
        spec = {
            i: (
                None if rng.random() < 0.3 else rng.uniform(45.0, 130.0),
                rng.choice([0, 0, 6]),
                rng.choice([U, U, U, S, A]),
            )
            for i in range(1440)
        }
        once, _, _ = impute_cohort(grid_factory(**day_columns(spec)))
        twice, _, marks = impute_cohort(once)
        for column in COLUMNS:
            assert grid_values(twice, column) == grid_values(once, column)
        assert marks[0].tolist() == [0] * 1440

    def test_boundary_runs_survive(self, grid_factory, grid_values):
        # day starts and ends Unknown with no pulse; rule 3 must not reach in
        spec = {700: (52.0, 0, S), 701: (52.0, 0, S)}
        out, _, _ = impute_cohort(grid_factory(**day_columns(spec)))
        sleep = grid_values(out, "sleep")
        assert sleep[0] is U
        assert sleep[1439] is U


class TestImputeUser:
    def test_stats_account_for_every_minute(self, grid_factory):
        spec = {
            100: (52.0, 0, U),
            101: (None, 0, U),
            102: (52.0, 0, U),
            300: (52.0, 0, S),
            720: (90.0, 0, U),
        }
        grid = grid_factory(**day_columns(spec))
        out, [stats], marks = impute_cohort(grid)
        assert stats.pre.total_min == 1440
        assert stats.post.total_min == 1440
        assert stats.pre.sleep_min == 1
        assert stats.pre.unknown_min == 1439
        resolved = stats.pre.unknown_min - stats.post.unknown_min
        assert resolved == stats.rule1_min + stats.rule2_min + stats.rule3_min
        flat = marks[0].tolist()
        assert stats.rule1_min == sum(1 for m in flat if m == 1)
        assert stats.rule2_min == sum(1 for m in flat if m == 2)
        assert stats.rule3_min == sum(1 for m in flat if m == 3)
        # mid stage counts rules 1 and 2 but not the gap fill
        assert stats.after_rules_1_2.unknown_min == (
            stats.pre.unknown_min - stats.rule1_min - stats.rule2_min
        )

    def test_day_without_profile_is_skipped(self, grid_factory, grid_values):
        other = date(2024, 3, 5)
        grid = grid_factory(
            {
                ("u001", DAY): day_columns({100: (52.0, 0, U)}),
                ("u001", other): day_columns({100: (52.0, 0, U)}, envelope={}),
            }
        )
        out, [stats], marks = impute_cohort(grid)
        assert stats.skipped_days == (other,)
        for column in COLUMNS:
            assert grid_values(out, column, ("u001", other)) == grid_values(
                grid, column, ("u001", other)
            )
        assert marks[out.keys.index(("u001", other))].tolist() == [0] * 1440
        assert grid_values(out, "sleep")[100] is S

    def test_unknown_only_resolved_never_invented(self, grid_factory):
        _, [stats], _ = impute_cohort(grid_factory(**ENVELOPE))
        # nothing resolvable: no pulses, no steps anywhere
        assert stats.post.unknown_min == 1440


class TestImputeCohort:
    def test_users_processed_independently_and_sorted(self, grid_factory, grid_values):
        grid = grid_factory(
            {
                ("u2", DAY): day_columns({100: (52.0, 0, U)}),
                ("u1", DAY): day_columns({100: (90.0, 0, U)}),
            }
        )
        out, stats, marks = impute_cohort(grid)
        assert [s.user_id for s in stats] == ["u1", "u2"]
        assert grid_values(out, "sleep", ("u1", DAY))[100] is A
        assert grid_values(out, "sleep", ("u2", DAY))[100] is S
        assert out.keys == (("u1", DAY), ("u2", DAY))
        assert marks.shape == (2, 1440)


class TestStatsReport:
    def test_report_totals(self, grid_factory):
        grid = grid_factory({("u1", DAY): day_columns({100: (52.0, 0, U)})})
        _, stats, _ = impute_cohort(grid)
        text = write_stats_report(stats)
        rows = text.splitlines()
        assert rows[0] == "metric,pre,after_rules_1_2,after_rules_1_2_3,net"
        total_row = [r for r in rows if r.startswith("cohort_total_min,")][0]
        assert total_row.split(",")[1:] == ["1440", "1440", "1440", "0"]
        assert any(r.startswith("rule1_min_per_user,") for r in rows)

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError, match="no imputation stats"):
            write_stats_report([])


def reference_cascade(sleep, pulse, steps, min_hr, config):
    """The three rules minute by minute over one day's plain values; the
    loop the grid code must reproduce exactly."""
    out = list(sleep)
    marks = [0] * len(out)
    for i, state in enumerate(sleep):
        if state is not U:
            continue
        factor = config.night_sleep_factor if config.is_night(i) else config.day_sleep_factor
        if pulse[i] is not None and steps[i] == 0 and pulse[i] < factor * min_hr:
            out[i], marks[i] = S, 1
        elif steps[i] > 0 or (pulse[i] is not None and pulse[i] > config.awake_factor * min_hr):
            out[i], marks[i] = A, 2
    i = 0
    while i < len(out):
        j = i
        while j < len(out) and out[j] is U:
            j += 1
        interior = i > 0 and j < len(out) and out[i - 1] is out[j]
        if j > i and interior and j - i <= config.max_gap_minutes:
            for k in range(i, j):
                out[k], marks[k] = out[i - 1], 3
        i = max(j, i + 1)
    return out, marks


@pytest.mark.parametrize("config", [CFG, ImputeConfig(max_gap_minutes=30, day_sleep_factor=1.3)])
def test_cascade_matches_per_minute_reference(grid_factory, grid_values, config):
    rng = random.Random(8)
    keys = [("u1", DAY), ("u1", date(2024, 3, 5)), ("u2", DAY)]
    spec = {
        key: {
            i: (
                None if rng.random() < 0.3 else rng.uniform(40.0, 80.0),
                rng.choice([0, 0, 0, 0, 2]),
                rng.choice([U] * 6 + [S, A]),
            )
            for i in range(1440)
        }
        for key in keys
    }
    envelopes = {keys[0]: ENVELOPE, keys[2]: {"min_hr": 47.5, "max_hr": 140.0}}
    grid = grid_factory(
        {key: day_columns(day, envelopes.get(key, {})) for key, day in spec.items()}
    )
    out, _, marks = impute_cohort(grid, config)
    for r, key in enumerate(out.keys):
        before = grid_values(grid, "sleep", key)
        if key not in envelopes:
            assert grid_values(out, "sleep", key) == before
            assert marks[r].tolist() == [0] * 1440
            continue
        want, want_marks = reference_cascade(
            before,
            grid_values(grid, "pulse", key),
            grid_values(grid, "steps", key),
            envelopes[key]["min_hr"],
            config,
        )
        assert grid_values(out, "sleep", key) == want
        assert marks[r].tolist() == want_marks
