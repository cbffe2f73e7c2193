"""Synthetic cohort generator: determinism, conservation, stream validity,
and truth-based imputation scoring."""

import io
import time
import tracemalloc
from dataclasses import replace as dc_replace
from datetime import date

import numpy as np
import pytest

from harforge import synth
from harforge.align import SLEEP_CODE, DayGrid, align_cohort
from harforge.core import (
    EPOCH_ORDINAL,
    MINUTES_PER_DAY,
    SleepState,
    default_taxonomy,
    epoch_minute,
    local_day_and_index,
)
from harforge.impute import impute_cohort
from harforge.ingest import (
    ACTIVITY_HEADER,
    HR_HEADER,
    SCHEDULE_HEADER,
    SLEEP_HEADER,
    parse_activity_blocks,
    parse_hr_stream,
    parse_schedule,
    parse_sleep_segments,
)
from harforge.synth import (
    _SAMPLE_SECONDS,
    TRUTH_FORMAT,
    TRUTH_HEADER,
    Cohort,
    CohortConfig,
    MaskReport,
    TemplateEntry,
    generate_cohort,
    mask_report,
    read_truth_csv,
    round2,
    write_cohort,
)

SMALL = CohortConfig(n_users=2, n_days=3, seed=11)

#: The truth of one user-day, per minute: asleep (bool), activity label or
#: None, steps and distance.
ReferenceTruth = dict[tuple[str, date], tuple[np.ndarray, list, np.ndarray, np.ndarray]]


def utc_text(sec: int) -> str:
    """The canonical timestamp text of an epoch second, from the C library."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(sec))


def reference_generate_cohort(config: CohortConfig) -> tuple[tuple[str, ...], ReferenceTruth]:
    """The per-minute, per-sample generator: one Python iteration per minute
    for the targets and per HR sample for the text. Returns the four stream
    texts and the truth of each user-day; ``generate_cohort`` must give the
    same bytes in every file and the same truth in every grid row."""
    hr_rows: list[str] = [",".join(HR_HEADER)]
    act_rows: list[str] = [",".join(ACTIVITY_HEADER)]
    sleep_rows: list[str] = [",".join(SLEEP_HEADER)]
    sched_rows: list[str] = [",".join(SCHEDULE_HEADER)]
    truth: ReferenceTruth = {}

    labels_sorted = sorted(config.activity_profiles)
    base_ordinal = config.start_date.toordinal()

    for user_index, user in enumerate(synth._user_ids(config.n_users)):
        rng = np.random.default_rng([config.seed, user_index])
        resting = float(rng.normal(config.resting_hr_mean, config.resting_hr_sd))
        hr_range = max(80.0, float(rng.normal(config.hr_range_mean, config.hr_range_sd)))
        # one shared band shift per user: within-user contrasts are kept,
        # but bands stop lining up across users
        band_shift = float(rng.normal(0.0, config.user_frac_jitter_sd))
        awake_frac = config.awake_hr_frac + band_shift
        frac_of = {
            label: config.activity_profiles[label].hr_frac + band_shift
            for label in labels_sorted
        }

        all_states = np.zeros(config.n_days * MINUTES_PER_DAY, dtype=bool)
        # epoch minute of this user's first local midnight
        local_base = (base_ordinal - EPOCH_ORDINAL) * MINUTES_PER_DAY - config.tz_offset_minutes

        for day_index in range(config.n_days):
            day = date.fromordinal(base_ordinal + day_index)
            j = config.sleep_jitter_min
            morning_end = config.sleep_end_minute + int(rng.integers(-j, j + 1))
            night_start = config.sleep_start_minute + int(rng.integers(-j, j + 1))

            sleep_mask = np.zeros(MINUTES_PER_DAY, dtype=bool)
            sleep_mask[:morning_end] = True
            sleep_mask[night_start:] = True

            activity: list[str | None] = [None] * MINUTES_PER_DAY
            realized: list[tuple[int, int, str]] = []
            for entry in config.schedule_template:
                if day_index % entry.period_days != entry.phase:
                    continue
                sj = config.schedule_jitter_min
                start = entry.start_minute + int(rng.integers(-sj, sj + 1))
                end = start + entry.duration_min
                realized.append((start, end, entry.label))
                for m in range(start, end):
                    activity[m] = entry.label

            hr_mean = np.empty(MINUTES_PER_DAY)
            hr_sd = np.empty(MINUTES_PER_DAY)
            steps_mean = np.zeros(MINUTES_PER_DAY)
            steps_sd = np.zeros(MINUTES_PER_DAY)
            m_per_step = np.full(MINUTES_PER_DAY, config.awake_m_per_step)
            for i in range(MINUTES_PER_DAY):
                label = activity[i]
                if sleep_mask[i]:
                    hr_mean[i] = resting
                    hr_sd[i] = config.sleep_hr_sd
                elif label is None:
                    hr_mean[i] = resting + awake_frac * hr_range
                    hr_sd[i] = config.awake_hr_sd
                    steps_mean[i] = config.awake_steps_mean
                    steps_sd[i] = config.awake_steps_sd
                else:
                    profile = config.activity_profiles[label]
                    hr_mean[i] = resting + frac_of[label] * hr_range
                    hr_sd[i] = profile.hr_sd
                    steps_mean[i] = profile.steps_mean
                    steps_sd[i] = profile.steps_sd
                    m_per_step[i] = profile.m_per_step

            hr_minute = hr_mean + rng.normal(0.0, 1.0, MINUTES_PER_DAY) * (
                hr_sd * config.hr_sd_scale
            )
            hr_minute = np.maximum(hr_minute, 30.0)
            raw_steps = steps_mean + rng.normal(0.0, 1.0, MINUTES_PER_DAY) * steps_sd
            steps = np.maximum(np.rint(raw_steps), 0.0)
            steps[sleep_mask] = 0.0
            steps = steps.astype(np.int64)
            distance = steps * m_per_step

            hr_drop = rng.random(MINUTES_PER_DAY) < config.hr_dropout
            sec_jitter = rng.integers(-2, 3, size=(MINUTES_PER_DAY, 4))
            val_noise = rng.normal(0.0, config.hr_sample_sd, size=(MINUTES_PER_DAY, 4))

            day_base_min = local_base + day_index * MINUTES_PER_DAY
            for i in range(MINUTES_PER_DAY):
                if hr_drop[i]:
                    continue
                minute_sec = (day_base_min + i) * 60
                for k in range(4):
                    sec = _SAMPLE_SECONDS[k] + int(sec_jitter[i, k])
                    value = round(max(25.0, float(hr_minute[i] + val_noise[i, k])), 2)
                    hr_rows.append(f"{user},{utc_text(minute_sec + sec)},{repr(value)}")

            block_steps = steps.reshape(-1, 15).sum(axis=1)
            block_dist = distance.reshape(-1, 15).sum(axis=1)
            for b in range(block_steps.shape[0]):
                if block_steps[b] == 0 and block_dist[b] == 0.0:
                    continue
                ts = utc_text((day_base_min + b * 15) * 60)
                act_rows.append(
                    f"{user},{ts},{int(block_steps[b])},{repr(float(block_dist[b]))}"
                )

            for start, end, label in realized:
                s_ts = utc_text((day_base_min + start) * 60)
                e_ts = utc_text((day_base_min + end) * 60)
                sched_rows.append(f"{user},{s_ts},{e_ts},{label}")

            all_states[
                day_index * MINUTES_PER_DAY : (day_index + 1) * MINUTES_PER_DAY
            ] = sleep_mask
            truth[(user, day)] = (sleep_mask, activity, steps, distance)

        # device sleep segments: chunk each true state run, drop some chunks
        n_total = all_states.shape[0]
        pos = 0
        while pos < n_total:
            run_end = pos
            while run_end < n_total and all_states[run_end] == all_states[pos]:
                run_end += 1
            state_text = "sleep" if all_states[pos] else "awake"
            chunk_start = pos
            while chunk_start < run_end:
                chunk_len = min(int(rng.integers(8, 26)), run_end - chunk_start)
                keep = rng.random() >= config.sleep_dropout
                if keep:
                    s_ts = utc_text((local_base + chunk_start) * 60)
                    e_ts = utc_text((local_base + chunk_start + chunk_len) * 60)
                    sleep_rows.append(f"{user},{s_ts},{e_ts},{state_text}")
                chunk_start += chunk_len
            pos = run_end

    texts = (hr_rows, act_rows, sleep_rows, sched_rows)
    return tuple("\n".join(rows) + "\n" for rows in texts), truth


def reference_truth_text(truth: ReferenceTruth) -> str:
    """The per-row truth writer: one f-string per minute, user-days in key
    order."""
    lines = [",".join(TRUTH_HEADER)]
    for user, day in sorted(truth):
        sleep, activity, steps, distance = truth[(user, day)]
        for i in range(MINUTES_PER_DAY):
            state = "sleep" if sleep[i] else "awake"
            lines.append(
                f"{user},{day.isoformat()},{i},{state},{activity[i] or ''},"
                f"{int(steps[i])},{repr(float(distance[i]))}"
            )
    return "\n".join(lines) + "\n"


def assert_truth_rows(grid: DayGrid, truth: ReferenceTruth) -> None:
    """The grid holds ``truth`` row by row, in key order, with no pulse."""
    assert list(grid.keys) == sorted(truth)
    for r, key in enumerate(grid.keys):
        sleep, activity, steps, distance = truth[key]
        want_sleep = np.where(
            sleep, SLEEP_CODE[SleepState.SLEEP], SLEEP_CODE[SleepState.AWAKE]
        )
        np.testing.assert_array_equal(grid.sleep[r], want_sleep, err_msg=str(key))
        assert grid.map_schedule(grid.labels, None, r).tolist() == activity, key
        np.testing.assert_array_equal(grid.steps[r], steps, err_msg=str(key))
        np.testing.assert_array_equal(
            grid.distance_m[r].view(np.int64), distance.view(np.int64), err_msg=str(key)
        )
        assert np.isnan(grid.pulse[r]).all()


def truth_of(grid: DayGrid) -> ReferenceTruth:
    """The grid's truth per user-day, as the reference generator gives it."""
    return {
        key: (
            grid.sleep[r] == SLEEP_CODE[SleepState.SLEEP],
            grid.map_schedule(grid.labels, None, r).tolist(),
            grid.steps[r],
            grid.distance_m[r],
        )
        for r, key in enumerate(grid.keys)
    }



@pytest.fixture(scope="module")
def small_cohort():
    return generate_cohort(SMALL)


def keepends(text):
    return text.splitlines(keepends=True)


class TestDeterminism:
    def test_same_config_is_byte_identical(self, small_cohort, hr_text):
        again = generate_cohort(SMALL)
        assert hr_text(again) == hr_text(small_cohort)
        assert again.activity == small_cohort.activity
        assert again.sleep == small_cohort.sleep
        assert again.schedule == small_cohort.schedule
        assert TRUTH_FORMAT.write(again.truth) == TRUTH_FORMAT.write(small_cohort.truth)

    def test_seed_changes_output(self, small_cohort, hr_text):
        other = generate_cohort(dc_replace(SMALL, seed=12))
        assert hr_text(other) != hr_text(small_cohort)

    def test_users_are_independent_streams(self, small_cohort, hr_text):
        # dropping the second user must not disturb the first user's rows
        solo = generate_cohort(dc_replace(SMALL, n_users=1))
        u1_rows = [r for r in hr_text(small_cohort).splitlines() if r.startswith("u001,")]
        assert hr_text(solo).splitlines()[1:] == u1_rows


#: Blocks that overlap each other (a later entry wins the shared minutes)
#: and the sleep window at both ends of the day.
OVERLAPPING_TEMPLATE = (
    TemplateEntry(340, "Wake Up", 60),
    TemplateEntry(420, "Running Exercise", 90),
    TemplateEntry(450, "Firearms Training", 40),
    TemplateEntry(480, "Kitchen Duties", 120, period_days=2, phase=1),
    TemplateEntry(1300, "Security Mission", 130),
)


def cohort_files(cohort: Cohort, out_dir) -> tuple[str, ...]:
    """The four stream files ``write_cohort`` writes for ``cohort``."""
    write_cohort(cohort, out_dir)
    names = ("hr.csv", "activity.csv", "sleep.csv", "schedule.csv")
    return tuple((out_dir / name).read_bytes().decode("utf-8") for name in names)


def assert_matches_reference(config: CohortConfig, out_dir) -> Cohort:
    cohort = generate_cohort(config)
    texts, truth = reference_generate_cohort(config)
    assert cohort_files(cohort, out_dir) == texts
    assert_truth_rows(cohort.truth, truth)
    assert TRUTH_FORMAT.write(cohort.truth) == reference_truth_text(truth)
    return cohort


class TestMatchesReference:
    """The columnar generator writes the same five files, byte for byte, as
    the per-minute reference, and its truth grid holds the reference's truth
    row by row."""

    @pytest.mark.parametrize(
        "config",
        [
            SMALL,
            CohortConfig(n_users=2, n_days=2, seed=7),
            CohortConfig(n_users=1, n_days=3, seed=29, hr_dropout=0.0),
            CohortConfig(
                n_users=2,
                n_days=2,
                seed=4,
                tz_offset_minutes=-45,
                user_frac_jitter_sd=0.05,
                hr_dropout=0.3,
            ),
            CohortConfig(n_users=2, n_days=2, seed=5, tz_offset_minutes=345, sleep_dropout=0.9),
            CohortConfig(n_users=2, n_days=4, seed=6, schedule_template=OVERLAPPING_TEMPLATE),
            CohortConfig(n_users=0, n_days=3),
            CohortConfig(n_users=2, n_days=0),
        ],
        ids=["small", "seed7", "no-dropout", "tz-45", "tz+345", "overlap", "no-users", "no-days"],
    )
    def test_same_files(self, config, tmp_path):
        assert_matches_reference(config, tmp_path)

    def test_same_files_with_unsorted_user_ids(self, monkeypatch, tmp_path):
        # with 1000 users or more, generation order is not sorted order
        # ("u1000" sorts before "u101"); hr.csv keeps generation order
        monkeypatch.setattr(synth, "_user_ids", lambda n: ["u2", "u10"][:n])
        config = CohortConfig(n_users=2, n_days=1, seed=8)
        cohort = assert_matches_reference(config, tmp_path)
        hr_csv = (tmp_path / "hr.csv").read_text(encoding="utf-8")
        users = [row.split(",", 1)[0] for row in hr_csv.splitlines()[1:]]
        assert users.index("u10") == users.count("u2")
        assert [user for user, _ in cohort.truth.keys] == ["u10", "u2"]


class TestRound2:
    """``round2`` is Python's ``round(v, 2)`` bit for bit, also where
    ``v * 100`` rounds onto or across a half (``np.round`` is not)."""

    @staticmethod
    def values():
        halves = np.arange(2500, 100_000) / 100 + 0.005  # 25.005 .. 999.995 bpm
        near = np.concatenate(
            [halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)]
        )
        huge = np.array([2.0**52, 2.0**53, 1e300, np.finfo(float).max]) / np.array([[100.0], [1.0]])
        special = [0.0, -0.0, 0.004, -0.004, 0.005, -0.005, 5e-324, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(0)
        return np.concatenate(
            [near, -near, huge.ravel(), -huge.ravel(), special, rng.uniform(25, 1000, 50_000)]
        )

    def test_matches_python_round(self):
        values = self.values()
        want = np.array([round(v, 2) for v in values.tolist()])
        np.testing.assert_array_equal(round2(values).view(np.int64), want.view(np.int64))


class TestEmptyCohort:
    def test_zero_users_yield_headers_only(self, hr_text):
        cohort = generate_cohort(CohortConfig(n_users=0, n_days=5))
        assert hr_text(cohort) == "user_id,timestamp,hr_bpm\n"
        assert cohort.activity == cohort.sleep == cohort.schedule == []
        assert cohort.truth.keys == ()
        assert cohort.truth.sleep.shape == (0, MINUTES_PER_DAY)
        assert TRUTH_FORMAT.write(cohort.truth) == ",".join(TRUTH_HEADER) + "\n"


class TestHrColumns:
    """The cohort keeps its HR samples as columns, and ``write_cohort``
    streams them into ``hr.csv``."""

    def test_written_hr_csv_parses_back_to_the_columns(self, tmp_path):
        # below 1000 users generation order is key order, so the parse keeps it
        cohort = generate_cohort(dc_replace(SMALL, n_users=3, tz_offset_minutes=-45))
        paths = write_cohort(cohort, tmp_path)
        with open(paths["hr.csv"], encoding="utf-8") as fh:
            hr = parse_hr_stream(fh)
        users, user, second, bpm = cohort.hr
        assert hr.users == tuple(users) == ("u001", "u002", "u003")
        for got, want in zip((hr.user, hr.second, hr.bpm), (user, second, bpm)):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n_users, n_days", [(0, 5), (2, 0)])
    def test_empty_cohort_writes_a_header_only_hr_csv(self, tmp_path, n_users, n_days):
        cohort = generate_cohort(CohortConfig(n_users=n_users, n_days=n_days))
        assert all(len(column) == 0 for column in cohort.hr[1:])
        write_cohort(cohort, tmp_path)
        assert (tmp_path / "hr.csv").read_bytes() == b"user_id,timestamp,hr_bpm\n"

    def test_generate_and_write_peak_under_tracemalloc(self, tmp_path):
        """Generating and writing the 4x10 cohort (226 k HR samples in 5.5 MB
        of preallocated columns) peaks at about 16 MiB; holding the HR text
        whole as well, as a str and the bytes it was decoded from, took it to
        28.7 MiB."""
        config = CohortConfig(n_users=4, n_days=10, seed=7)
        tracemalloc.start()
        try:
            write_cohort(generate_cohort(config), tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, peak


class TestStreamValidity:
    def test_all_four_files_parse_cleanly(self, small_cohort, tmp_path):
        paths = write_cohort(small_cohort, tmp_path)
        with open(paths["hr.csv"], encoding="utf-8") as fh:
            assert len(parse_hr_stream(fh)) > 0
        # generation order is each parser's sorted order for the default
        # template, so each small file parses back to exactly the records
        taxonomy = default_taxonomy()
        for name, parse, records in (
            ("activity.csv", parse_activity_blocks, small_cohort.activity),
            ("sleep.csv", parse_sleep_segments, small_cohort.sleep),
            ("schedule.csv", lambda fh: parse_schedule(fh, taxonomy), small_cohort.schedule),
        ):
            with open(paths[name], encoding="utf-8") as fh:
                assert records and parse(fh) == records, name

    def test_hr_sample_count_without_dropout(self, hr_text):
        cfg = dc_replace(SMALL, n_users=1, n_days=2, hr_dropout=0.0)
        cohort = generate_cohort(cfg)
        rows = hr_text(cohort).splitlines()[1:]
        assert len(rows) == 4 * 1440 * 2

    def test_hr_dropout_removes_whole_minutes(self, small_cohort, hr_text):
        rows = hr_text(small_cohort).splitlines()[1:]
        assert len(rows) % 4 == 0
        dropped = 1.0 - len(rows) / (4 * 1440 * 3 * 2)
        assert dropped == pytest.approx(SMALL.hr_dropout, abs=0.02)

    def test_hr_values_positive_and_rounded(self, small_cohort, hr_text):
        for row in hr_text(small_cohort).splitlines()[1:50]:
            value = row.rsplit(",", 1)[1]
            assert float(value) >= 25.0
            assert len(value.split(".")[-1]) <= 2


class TestConservation:
    def test_activity_blocks_match_truth_sums(self, small_cohort):
        block_of = {}
        for b in small_cohort.activity:
            day, idx = local_day_and_index(
                epoch_minute(b.block_start), SMALL.tz_offset_minutes
            )
            block_of[(b.user_id, day, idx // 15)] = b
        for (user, day), (_, _, steps, distance) in truth_of(small_cohort.truth).items():
            truth_steps = steps.reshape(-1, 15).sum(axis=1)
            truth_dist = distance.reshape(-1, 15).sum(axis=1)
            for q in range(96):
                b = block_of.get((user, day, q))
                if b is None:
                    assert truth_steps[q] == 0
                    assert truth_dist[q] == 0.0
                else:
                    assert b.steps == truth_steps[q]
                    assert b.distance_m == float(truth_dist[q])

    def test_sleep_minutes_carry_no_steps(self, small_cohort):
        for sleep, _, steps, _ in truth_of(small_cohort.truth).values():
            assert (steps[sleep] == 0).all()

    def test_distance_is_steps_times_meter_rate(self, small_cohort):
        for _, _, steps, distance in truth_of(small_cohort.truth).values():
            zero_steps = steps == 0
            assert (distance[zero_steps] == 0.0).all()
            assert (distance[~zero_steps] > 0).all()


class TestSleepSegments:
    def test_states_match_truth(self, small_cohort):
        for seg in small_cohort.sleep:
            day, idx = local_day_and_index(
                epoch_minute(seg.start), SMALL.tz_offset_minutes
            )
            sleep = truth_of(small_cohort.truth)[(seg.user_id, day)][0]
            want = "sleep" if sleep[idx] else "awake"
            assert seg.state.value == want

    def test_dropout_fraction_of_minutes_is_respected(self):
        cfg = CohortConfig(n_users=6, n_days=6, seed=3)
        cohort = generate_cohort(cfg)
        covered = sum(
            int((seg.end - seg.start).total_seconds()) // 60 for seg in cohort.sleep
        )
        total = 6 * 6 * 1440
        assert covered / total == pytest.approx(1.0 - cfg.sleep_dropout, abs=0.02)


class TestTruthCsv:
    def test_round_trip(self, small_cohort):
        text = TRUTH_FORMAT.write(small_cohort.truth)
        back = read_truth_csv(io.StringIO(text))
        assert_truth_rows(back, truth_of(small_cohort.truth))
        assert set(back.labels) <= set(small_cohort.truth.labels)

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            read_truth_csv(io.StringIO("user,day\n"))

    @staticmethod
    def _lines(cohort):
        return TRUTH_FORMAT.write(cohort.truth).splitlines(keepends=True)

    @pytest.mark.parametrize(
        "minute, message",
        [
            ("-1", "row 3: minute -1 outside"),
            ("1440", "row 3: minute 1440 outside"),
            ("x", "row 3: bad minute 'x'"),
            ("0", "row 3: u001 2024-03-04 repeats minute 0"),
            ("2", "row 3: u001 2024-03-04 skips minute 1"),
        ],
    )
    def test_bad_minute_rejected(self, small_cohort, minute, message):
        lines = self._lines(small_cohort)
        cells = lines[2].split(",")
        cells[2] = minute
        lines[2] = ",".join(cells)
        with pytest.raises(ValueError, match=f"truth CSV {message}"):
            read_truth_csv(io.StringIO("".join(lines)))

    def test_partial_day_rejected(self, small_cohort):
        lines = self._lines(small_cohort)
        with pytest.raises(ValueError, match="row 1402: u001 2024-03-04 ends before minute 1400"):
            read_truth_csv(io.StringIO("".join(lines[:1401] + lines[1 + 1440 :])))
        with pytest.raises(ValueError, match="ends at row 1000 before minute 999 of u001"):
            read_truth_csv(io.StringIO("".join(lines[:1000])))

    def test_repeated_day_rejected(self, small_cohort):
        lines = self._lines(small_cohort)
        with pytest.raises(ValueError, match="row 2882: u001 2024-03-04 appears twice"):
            read_truth_csv(io.StringIO("".join(lines[: 1 + 2880] + lines[1 : 1 + 1440])))

    @pytest.mark.parametrize(
        "column, text, message",
        [
            (1, "2024-02-30", "bad date '2024-02-30'"),
            (3, "asleep", "bad true_sleep 'asleep'"),
            (3, "unknown", "bad true_sleep 'unknown'"),
            (5, "1.5", "bad true_steps '1.5'"),
            (6, "far", "bad true_distance_m 'far'"),
        ],
    )
    def test_malformed_field_rejected(self, small_cohort, column, text, message):
        lines = self._lines(small_cohort)
        cells = lines[1].rstrip("\n").split(",")
        cells[column] = text
        lines[1] = ",".join(cells) + "\n"
        with pytest.raises(ValueError, match=f"truth CSV row 2: {message}"):
            read_truth_csv(io.StringIO("".join(lines)))

    def test_field_count_rejected(self, small_cohort):
        lines = self._lines(small_cohort)
        lines[5] = lines[5].rstrip("\n") + ",extra\n"
        with pytest.raises(ValueError, match="truth CSV row 6 has 8 fields"):
            read_truth_csv(io.StringIO("".join(lines)))

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
        with pytest.raises(ValueError, match="no profile"):
            CohortConfig(
                activity_profiles={},
                schedule_template=(TemplateEntry(380, "Wake Up", 20),),
            )

    @pytest.mark.parametrize(
        "entry",
        [
            TemplateEntry(3, "Wake Up", 20),
            TemplateEntry(1400, "Other", 37),
            TemplateEntry(600, "Other", 0),
        ],
    )
    def test_template_block_must_fit_the_day(self, entry):
        with pytest.raises(ValueError, match="inside the day"):
            CohortConfig(schedule_template=(entry,))

    def test_profiles_must_stay_inside_taxonomy(self):
        from harforge.synth import ActivityProfile

        with pytest.raises(ValueError, match="outside the taxonomy"):
            CohortConfig(
                activity_profiles={"Juggling": ActivityProfile(0.2, 2.0, 5.0, 2.0, 0.7)},
                schedule_template=(),
            )


@pytest.fixture(scope="module")
def imputed_chain(small_cohort, hr_text):
    aligned = align_cohort(
        parse_hr_stream(keepends(hr_text(small_cohort))),
        small_cohort.activity,
        small_cohort.sleep,
        small_cohort.schedule,
        tz_offset_minutes=SMALL.tz_offset_minutes,
    )
    post, _, marks = impute_cohort(aligned.days)
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
