"""Grid arithmetic, taxonomy rules, and the canonical number format."""

import io
import random
from datetime import date, datetime, timedelta, timezone

import pytest

from harforge.align import (
    ALIGNED_HEADER,
    PROFILE_HEADER,
    PersonalHrProfile,
    align_cohort,
    read_aligned_csv,
    read_profiles_csv,
    write_aligned_csv,
    write_profiles_csv,
)
from harforge.core import (
    ActivityTaxonomy,
    ScheduleBlock,
    SleepState,
    TAXONOMY_HEADER,
    UnknownLabelError,
    as_utc,
    default_taxonomy,
    epoch_minute,
    epoch_second,
    format_number,
    load_taxonomy,
    local_day_and_index,
    read_taxonomy,
    save_taxonomy,
    DEFAULT_LEVEL2_LABELS,
    LEVEL1_ACTIVITY,
    LEVEL1_AWAKE,
    LEVEL1_LABELS,
    LEVEL1_SLEEP,
    MINUTES_PER_DAY,
)
from harforge.synth import TRUTH_FORMAT, TRUTH_HEADER, CohortConfig, generate_cohort, read_truth_csv


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


class TestEpochMinute:
    def test_epoch_origin(self):
        assert epoch_minute(utc(1970, 1, 1)) == 0
        assert epoch_minute(utc(1970, 1, 2)) == 1440

    def test_seconds_truncate(self):
        assert epoch_minute(utc(1970, 1, 1, 0, 5, 59)) == 5

    def test_naive_is_utc(self):
        assert epoch_minute(datetime(1970, 1, 1, 1, 0)) == 60

    def test_other_zone_converted(self):
        plus2 = timezone(timedelta(hours=2))
        assert epoch_minute(datetime(1970, 1, 1, 2, 0, tzinfo=plus2)) == 0

    def test_linear_over_a_year(self):
        # one strictly increasing minute per hour across a leap year
        start = utc(2024, 1, 1)
        prev = epoch_minute(start)
        for hour in range(1, 366 * 24):
            current = epoch_minute(start + timedelta(hours=hour))
            assert current - prev == 60
            prev = current

    def test_before_1970_rounds_down(self):
        assert epoch_minute(utc(1969, 12, 31, 23, 59, 59)) == -1
        assert epoch_minute(utc(1969, 12, 31, 23, 59)) == -1
        assert epoch_minute(utc(1969, 12, 31, 23, 58, 59)) == -2


class TestEpochSecond:
    def test_epoch_origin_and_pre_1970(self):
        assert epoch_second(utc(1970, 1, 1)) == 0
        assert epoch_second(utc(1970, 1, 2, 0, 0, 7)) == 86407
        assert epoch_second(utc(1969, 12, 31, 23, 59, 59)) == -1

    def test_sub_second_digits_round_down(self):
        assert epoch_second(utc(1970, 1, 1, 0, 0, 5, 999999)) == 5
        assert epoch_second(utc(1969, 12, 31, 23, 59, 59, 500000)) == -1

    def test_naive_is_utc_and_zones_convert(self):
        assert epoch_second(datetime(1970, 1, 1, 1, 0, 3)) == 3603
        plus2 = timezone(timedelta(hours=2))
        assert epoch_second(datetime(1970, 1, 1, 2, 0, 3, tzinfo=plus2)) == 3

    def test_matches_timestamp_and_epoch_minute(self):
        rng = random.Random(5)
        for _ in range(2000):
            ts = utc(1970, 1, 1) + timedelta(seconds=rng.randrange(-3 * 10**9, 3 * 10**9))
            assert epoch_second(ts) == int(ts.timestamp())
            assert epoch_minute(ts) == epoch_second(ts) // 60


class TestLocalDayAndIndex:
    def test_zero_offset(self):
        assert local_day_and_index(0, 0) == (date(1970, 1, 1), 0)

    def test_positive_offset_shifts_forward(self):
        # 22:10 UTC at +120 lands at 00:10 the next local day
        ts = utc(2024, 3, 4, 22, 10)
        day, index = local_day_and_index(epoch_minute(ts), 120)
        assert (day, index) == (date(2024, 3, 5), 10)

    def test_negative_epoch_minutes_wrap(self):
        assert local_day_and_index(-1, 0) == (date(1969, 12, 31), 1439)

    def test_round_trip_with_epoch_minute(self):
        # local slot (2024-03-04, index) begins at UTC midnight + index - 120
        midnight = utc(2024, 3, 4)
        for index in (0, 1, 719, 1439):
            start = midnight + timedelta(minutes=index - 120)
            assert local_day_and_index(epoch_minute(start), 120) == (date(2024, 3, 4), index)

    def test_minute_of_day_floors_seconds(self):
        ts = utc(2024, 3, 4, 10, 30, 59)
        assert local_day_and_index(epoch_minute(ts), 0) == (date(2024, 3, 4), 10 * 60 + 30)


def _aligned_text(*minutes):
    rows = [",".join(ALIGNED_HEADER)]
    rows += [f"u1,2024-01-01,{m},,0,0.0,unknown," for m in minutes]
    return io.StringIO("\n".join(rows) + "\n")


def test_minute_index_rejects_out_of_range():
    # the slot range is checked where minutes enter the program: the reader
    with pytest.raises(ValueError, match="minute 1440 outside"):
        read_aligned_csv(_aligned_text(*range(1439), 1440))
    with pytest.raises(ValueError, match="minute -1 outside"):
        read_aligned_csv(_aligned_text(-1))


def test_minute_index_orders_by_day_then_slot(hr_factory):
    # grid rows sort by day, so the flattened grid runs (day 1, 1439) -> (day 2, 0)
    samples = [
        ("u1", utc(2024, 1, 2, 0, 0, 5), 70.0),
        ("u1", utc(2024, 1, 1, 23, 59, 5), 60.0),
    ]
    grid = align_cohort(hr_factory(samples), [], [], [], tz_offset_minutes=0).days
    assert grid.keys == (("u1", date(2024, 1, 1)), ("u1", date(2024, 1, 2)))
    flat = grid.pulse.reshape(-1)
    assert (flat[1439], flat[1440]) == (60.0, 70.0)


def test_schedule_block_requires_positive_span():
    t = utc(2024, 1, 1, 8, 0)
    with pytest.raises(ValueError):
        ScheduleBlock("u001", t, t, "Other")


def test_as_utc_preserves_instant():
    plus3 = timezone(timedelta(hours=3))
    ts = datetime(2024, 5, 1, 12, 0, tzinfo=plus3)
    assert as_utc(ts) == utc(2024, 5, 1, 9, 0)


class TestTaxonomy:
    def test_default_shape(self, taxonomy):
        assert taxonomy.level2 == DEFAULT_LEVEL2_LABELS
        assert taxonomy.level1_classes == LEVEL1_LABELS
        assert taxonomy.level2_classes[:2] == (LEVEL1_SLEEP, LEVEL1_AWAKE)
        assert len(taxonomy.level2_classes) == 2 + len(DEFAULT_LEVEL2_LABELS)

    def test_level1_of(self, taxonomy):
        assert taxonomy.level1_of("Running Exercise") == LEVEL1_ACTIVITY
        assert taxonomy.level1_of(LEVEL1_SLEEP) == LEVEL1_SLEEP
        assert taxonomy.level1_of(LEVEL1_AWAKE) == LEVEL1_AWAKE
        with pytest.raises(UnknownLabelError):
            taxonomy.level1_of("Juggling")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ActivityTaxonomy(level2=("A", "A"), parent={"A": LEVEL1_ACTIVITY})

    def test_parent_must_cover_labels(self):
        with pytest.raises(ValueError):
            ActivityTaxonomy(level2=("A", "B"), parent={"A": LEVEL1_ACTIVITY})

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError):
            ActivityTaxonomy(level2=("A",), parent={"A": "Mystery"})

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            ActivityTaxonomy(
                level2=("Sleep",), parent={"Sleep": LEVEL1_ACTIVITY}
            )

    def test_csv_round_trip(self, taxonomy, tmp_path):
        path = tmp_path / "taxonomy.csv"
        save_taxonomy(taxonomy, path)
        again = load_taxonomy(path)
        assert again == taxonomy
        assert again.content_hash() == taxonomy.content_hash()

    def test_read_rejects_bad_header(self):
        with pytest.raises(ValueError):
            read_taxonomy(io.StringIO("name,parent\nA,Activity\n"))

    def test_hash_tracks_content(self, taxonomy):
        other = ActivityTaxonomy(level2=("A",), parent={"A": LEVEL1_ACTIVITY})
        assert other.content_hash() != taxonomy.content_hash()


class TestFormatNumber:
    def test_int_passthrough(self):
        assert format_number(42) == "42"
        assert format_number(-3) == "-3"

    def test_float_round_trips(self):
        for v in (0.1, 1.0 / 3.0, 61.25, 1e-9, 123456.789):
            assert float(format_number(v)) == v

    def test_rejects_bool_and_non_finite(self):
        with pytest.raises(TypeError):
            format_number(True)
        with pytest.raises(ValueError):
            format_number(float("nan"))
        with pytest.raises(ValueError):
            format_number(float("inf"))


class TestValidateDaySeries:
    """A user-day is checked where it enters the program: read_aligned_csv
    accepts only minutes 0..1439, each once and in order."""

    def make_day(self):
        return list(range(MINUTES_PER_DAY))

    def test_clean_day_is_ok(self):
        grid = read_aligned_csv(_aligned_text(*self.make_day()))
        assert grid.keys == (("u1", date(2024, 1, 1)),)
        assert grid.sleep.shape == (1, MINUTES_PER_DAY)

    def test_wrong_length_flagged(self):
        with pytest.raises(ValueError, match="ends at row 101 before minute 100"):
            read_aligned_csv(_aligned_text(*self.make_day()[:100]))

    def test_duplicate_and_order_flagged(self):
        day = self.make_day()
        day[5] = 4
        with pytest.raises(ValueError, match="row 7: u1 2024-01-01 repeats minute 4"):
            read_aligned_csv(_aligned_text(*day))
        day = self.make_day()
        day[4], day[5] = 5, 4
        with pytest.raises(ValueError, match="row 6: u1 2024-01-01 skips minute 4"):
            read_aligned_csv(_aligned_text(*day))

    def test_sleep_state_values_are_csv_codes(self):
        assert {s.value for s in SleepState} == {"sleep", "awake", "unknown"}


def _profiles_text():
    profiles = {
        (user, date(2024, 1, 1)): PersonalHrProfile(user, date(2024, 1, 1), 50.0, 150.5, 900, False)
        for user in ("u1", "u2", "u3")
    }
    return write_profiles_csv(profiles)


def _truth_text():
    return TRUTH_FORMAT.write(generate_cohort(CohortConfig(n_users=1, n_days=1)).truth)


# kind -> (header, a valid text of three or more rows, reader, writer of what it read)
SMALL_CSV_READERS = {
    "taxonomy": (
        TAXONOMY_HEADER, lambda: default_taxonomy().to_csv_text(), read_taxonomy,
        ActivityTaxonomy.to_csv_text,
    ),
    "profile": (PROFILE_HEADER, _profiles_text, read_profiles_csv, write_profiles_csv),
    "aligned": (
        ALIGNED_HEADER, lambda: _aligned_text(*range(MINUTES_PER_DAY)).getvalue(),
        read_aligned_csv, write_aligned_csv,
    ),
    "truth": (TRUTH_HEADER, _truth_text, read_truth_csv, TRUTH_FORMAT.write),
}


@pytest.mark.parametrize("kind", sorted(SMALL_CSV_READERS))
class TestSmallCsvReaders:
    """Every reader built on core.csv_rows words a bad header and a bad field
    count alike, numbers rows by their line in the file and skips blank lines."""

    def test_wrong_header(self, kind):
        header, make, read, _ = SMALL_CSV_READERS[kind]
        rows = make().splitlines(keepends=True)[1:]
        with pytest.raises(ValueError) as err:
            read(io.StringIO("".join(["user,day\n", *rows])))
        assert str(err.value) == f"{kind} CSV must start with header {','.join(header)!r}"

    def test_short_row_names_its_line(self, kind):
        header, make, read, _ = SMALL_CSV_READERS[kind]
        lines = make().splitlines(keepends=True)
        lines[2] = lines[2].rstrip("\n").rsplit(",", 1)[0] + "\n"
        lines.insert(1, "\n")  # the short row is now on line 4
        with pytest.raises(ValueError) as err:
            read(io.StringIO("".join(lines)))
        assert str(err.value) == f"{kind} CSV row 4 has {len(header) - 1} fields"

    def test_blank_lines_skipped(self, kind):
        _, make, read, write = SMALL_CSV_READERS[kind]
        text = make()
        lines = text.splitlines(keepends=True)
        blanked = [lines[0], "\n", lines[1], "\n", "\n", *lines[2:], "\n"]
        assert write(read(io.StringIO("".join(blanked)))) == text
