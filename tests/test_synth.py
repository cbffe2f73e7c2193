"""Synthetic cohort generator: determinism, conservation, stream validity,
and truth-based imputation scoring."""

import io
from dataclasses import replace as dc_replace
from datetime import date

import numpy as np
import pytest

from harforge.align import align_cohort
from harforge.core import default_taxonomy, epoch_minute, local_day_and_index
from harforge.impute import impute_cohort
from harforge.ingest import (
    parse_activity_blocks,
    parse_hr_stream,
    parse_schedule,
    parse_sleep_segments,
)
from harforge.synth import (
    Cohort,
    CohortConfig,
    DayTruth,
    MaskReport,
    generate_cohort,
    mask_report,
    read_truth_csv,
    write_cohort,
)

SMALL = CohortConfig(n_users=2, n_days=3, seed=11)


@pytest.fixture(scope="module")
def small_cohort():
    return generate_cohort(SMALL)


def keepends(text):
    return text.splitlines(keepends=True)


class TestDeterminism:
    def test_same_config_is_byte_identical(self, small_cohort):
        again = generate_cohort(SMALL)
        assert again.hr_csv == small_cohort.hr_csv
        assert again.activity_csv == small_cohort.activity_csv
        assert again.sleep_csv == small_cohort.sleep_csv
        assert again.schedule_csv == small_cohort.schedule_csv
        assert again.truth_csv() == small_cohort.truth_csv()

    def test_seed_changes_output(self, small_cohort):
        other = generate_cohort(dc_replace(SMALL, seed=12))
        assert other.hr_csv != small_cohort.hr_csv

    def test_users_are_independent_streams(self, small_cohort):
        # dropping the second user must not disturb the first user's rows
        solo = generate_cohort(dc_replace(SMALL, n_users=1))
        u1_rows = [r for r in small_cohort.hr_csv.splitlines() if r.startswith("u001,")]
        assert solo.hr_csv.splitlines()[1:] == u1_rows


class TestEmptyCohort:
    def test_zero_users_yield_headers_only(self):
        cohort = generate_cohort(CohortConfig(n_users=0, n_days=5))
        assert cohort.hr_csv == "user_id,timestamp,hr_bpm\n"
        assert cohort.activity_csv == "user_id,block_start,steps,distance_m\n"
        assert cohort.sleep_csv == "user_id,start,end,state\n"
        assert cohort.schedule_csv == "user_id,start,end,activity_l2\n"
        assert cohort.truth == {}


class TestStreamValidity:
    def test_all_four_files_parse_cleanly(self, small_cohort):
        taxonomy = default_taxonomy()
        hr = parse_hr_stream(keepends(small_cohort.hr_csv))
        blocks = parse_activity_blocks(keepends(small_cohort.activity_csv))
        segments = parse_sleep_segments(keepends(small_cohort.sleep_csv))
        schedule = parse_schedule(keepends(small_cohort.schedule_csv), taxonomy)
        assert hr and blocks and segments and schedule

    def test_hr_sample_count_without_dropout(self):
        cfg = dc_replace(SMALL, n_users=1, n_days=2, hr_dropout=0.0)
        cohort = generate_cohort(cfg)
        rows = cohort.hr_csv.splitlines()[1:]
        assert len(rows) == 4 * 1440 * 2

    def test_hr_dropout_removes_whole_minutes(self, small_cohort):
        rows = small_cohort.hr_csv.splitlines()[1:]
        assert len(rows) % 4 == 0
        dropped = 1.0 - len(rows) / (4 * 1440 * 3 * 2)
        assert dropped == pytest.approx(SMALL.hr_dropout, abs=0.02)

    def test_hr_values_positive_and_rounded(self, small_cohort):
        for row in small_cohort.hr_csv.splitlines()[1:50]:
            value = row.rsplit(",", 1)[1]
            assert float(value) >= 25.0
            assert len(value.split(".")[-1]) <= 2


class TestConservation:
    def test_activity_blocks_match_truth_sums(self, small_cohort):
        blocks = parse_activity_blocks(keepends(small_cohort.activity_csv))
        block_of = {}
        for b in blocks:
            day, idx = local_day_and_index(
                epoch_minute(b.block_start), SMALL.tz_offset_minutes
            )
            block_of[(b.user_id, day, idx // 15)] = b
        for (user, day), t in small_cohort.truth.items():
            truth_steps = t.steps.reshape(-1, 15).sum(axis=1)
            truth_dist = t.distance_m.reshape(-1, 15).sum(axis=1)
            for q in range(96):
                b = block_of.get((user, day, q))
                if b is None:
                    assert truth_steps[q] == 0
                    assert truth_dist[q] == 0.0
                else:
                    assert b.steps == truth_steps[q]
                    assert b.distance_m == float(truth_dist[q])

    def test_sleep_minutes_carry_no_steps(self, small_cohort):
        for t in small_cohort.truth.values():
            assert (t.steps[t.sleep] == 0).all()

    def test_distance_is_steps_times_meter_rate(self, small_cohort):
        for t in small_cohort.truth.values():
            zero_steps = t.steps == 0
            assert (t.distance_m[zero_steps] == 0.0).all()
            assert (t.distance_m[~zero_steps] > 0).all()


class TestSleepSegments:
    def test_states_match_truth(self, small_cohort):
        segments = parse_sleep_segments(keepends(small_cohort.sleep_csv))
        for seg in segments:
            day, idx = local_day_and_index(
                epoch_minute(seg.start), SMALL.tz_offset_minutes
            )
            t = small_cohort.truth[(seg.user_id, day)]
            want = "sleep" if t.sleep[idx] else "awake"
            assert seg.state.value == want

    def test_dropout_fraction_of_minutes_is_respected(self):
        cfg = CohortConfig(n_users=6, n_days=6, seed=3)
        cohort = generate_cohort(cfg)
        segments = parse_sleep_segments(keepends(cohort.sleep_csv))
        covered = sum(
            int((seg.end - seg.start).total_seconds()) // 60 for seg in segments
        )
        total = 6 * 6 * 1440
        assert covered / total == pytest.approx(1.0 - cfg.sleep_dropout, abs=0.02)


class TestTruthCsv:
    def test_round_trip(self, small_cohort):
        text = small_cohort.truth_csv()
        back = read_truth_csv(io.StringIO(text))
        assert set(back) == set(small_cohort.truth)
        for key, t in small_cohort.truth.items():
            got = back[key]
            np.testing.assert_array_equal(got.sleep, t.sleep)
            np.testing.assert_array_equal(got.steps, t.steps)
            np.testing.assert_array_equal(got.distance_m, t.distance_m)
            assert got.activity == t.activity

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            read_truth_csv(io.StringIO("user,day\n"))

    def test_write_cohort_creates_five_files(self, small_cohort, tmp_path):
        paths = write_cohort(small_cohort, tmp_path / "raw")
        assert sorted(paths) == [
            "activity.csv",
            "hr.csv",
            "schedule.csv",
            "sleep.csv",
            "truth.csv",
        ]
        for path in paths.values():
            with open(path) as fh:
                assert fh.readline().count(",") >= 2


class TestConfigValidation:
    def test_bad_dropout(self):
        with pytest.raises(ValueError, match="dropout"):
            CohortConfig(sleep_dropout=1.0)

    def test_bad_tz(self):
        with pytest.raises(ValueError, match="multiple of 15"):
            CohortConfig(tz_offset_minutes=100)

    def test_negative_sizes(self):
        with pytest.raises(ValueError, match="non-negative"):
            CohortConfig(n_users=-1)

    def test_template_label_needs_profile(self):
        from harforge.synth import TemplateEntry

        with pytest.raises(ValueError, match="no profile"):
            CohortConfig(
                activity_profiles={},
                schedule_template=(TemplateEntry(380, "Wake Up", 20),),
            )

    def test_profiles_must_stay_inside_taxonomy(self):
        from harforge.synth import ActivityProfile

        with pytest.raises(ValueError, match="outside the taxonomy"):
            CohortConfig(
                activity_profiles={"Juggling": ActivityProfile(0.2, 2.0, 5.0, 2.0, 0.7)},
                schedule_template=(),
            )


@pytest.fixture(scope="module")
def imputed_chain(small_cohort):
    taxonomy = default_taxonomy()
    aligned = align_cohort(
        parse_hr_stream(keepends(small_cohort.hr_csv)),
        parse_activity_blocks(keepends(small_cohort.activity_csv)),
        parse_sleep_segments(keepends(small_cohort.sleep_csv)),
        parse_schedule(keepends(small_cohort.schedule_csv), taxonomy),
        tz_offset_minutes=SMALL.tz_offset_minutes,
    )
    post, _, marks = impute_cohort(aligned.days, aligned.profiles)
    return aligned.days, post, marks


class TestMaskReport:
    def test_identities_hold_on_a_real_run(self, small_cohort, imputed_chain):
        pre, post, marks = imputed_chain
        report = mask_report(small_cohort.truth, pre, post, marks)
        assert report.total_minutes == 2 * 3 * 1440
        assert 0 < report.masked_minutes <= report.total_minutes
        assert report.resolved_minutes <= report.masked_minutes
        assert report.agreeing_minutes <= report.resolved_minutes
        assert sum(report.rule_counts.values()) == report.resolved_minutes
        assert report.agreement == pytest.approx(
            report.agreeing_minutes / report.resolved_minutes
        )
        still_unknown = report.masked_minutes - report.resolved_minutes
        assert report.residual_unknown_fraction == pytest.approx(
            still_unknown / report.total_minutes
        )
        for rule, precision in report.rule_precision.items():
            if report.rule_counts[rule]:
                assert 0.0 <= precision <= 1.0
            else:
                assert precision is None
        for recall in report.state_recall.values():
            assert recall is None or 0.0 <= recall <= 1.0

    def test_missing_day_rejected(self, small_cohort, imputed_chain):
        pre, post, marks = imputed_chain
        partial = dc_replace(pre, keys=(("u999", pre.keys[0][1]),) + pre.keys[1:])
        with pytest.raises(ValueError, match="missing"):
            mask_report(small_cohort.truth, partial, post, marks)

    def test_agreement_none_when_nothing_resolved(self):
        report = MaskReport(
            total_minutes=10,
            masked_minutes=4,
            resolved_minutes=0,
            agreeing_minutes=0,
            rule_counts={1: 0, 2: 0, 3: 0},
            rule_precision={1: None, 2: None, 3: None},
            state_recall={"sleep": None, "awake": None},
            residual_unknown_fraction=0.4,
        )
        assert report.agreement is None
