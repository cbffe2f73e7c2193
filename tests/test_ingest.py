"""Parser and serializer behavior for the four raw stream formats."""

from datetime import datetime, timedelta, timezone

import pytest

from harforge.core import SleepState
from harforge.ingest import (
    RawActivityBlock,
    RawHrSample,
    RawSleepSegment,
    StreamFormatError,
    parse_activity_blocks,
    parse_hr_stream,
    parse_schedule,
    parse_sleep_segments,
    format_timestamp,
    serialize_activity_blocks,
    serialize_hr_stream,
    serialize_schedule,
    serialize_sleep_segments,
)

UTC = timezone.utc


def lines(*rows):
    return [r + "\n" for r in rows]

HR_OK = "user_id,timestamp,hr_bpm"


class TestHeaderAndShape:
    def test_missing_header(self):
        with pytest.raises(StreamFormatError, match="missing header"):
            parse_hr_stream([])

    def test_wrong_header_names_expected_and_got(self):
        with pytest.raises(StreamFormatError) as exc:
            parse_hr_stream(lines("user,time,bpm"))
        assert "user_id,timestamp,hr_bpm" in str(exc.value)
        assert exc.value.line == 1

    def test_header_tolerates_surrounding_space(self):
        got = parse_hr_stream(lines(" user_id , timestamp , hr_bpm "))
        assert got == []

    def test_field_count_mismatch_reports_line(self):
        rows = lines(HR_OK, "u1,2024-03-04T00:00:00Z,61", "u1,2024-03-04T00:01:00Z")
        with pytest.raises(StreamFormatError) as exc:
            parse_hr_stream(rows)
        assert exc.value.line == 3
        assert "expected 3 fields, got 2" in str(exc.value)

    def test_blank_lines_are_skipped(self):
        rows = lines(HR_OK, "", "u1,2024-03-04T00:00:00Z,61", "")
        assert len(parse_hr_stream(rows)) == 1


class TestTimestamps:
    def test_z_and_offset_forms_are_equal(self):
        rows = lines(
            HR_OK,
            "u1,2024-03-04T00:00:00Z,61",
            "u2,2024-03-04T00:00:00+00:00,61",
            "u3,2024-03-04T02:00:00+02:00,61",
        )
        samples = parse_hr_stream(rows)
        assert all(s.timestamp == datetime(2024, 3, 4, tzinfo=UTC) for s in samples)

    def test_lowercase_z_accepted(self):
        (s,) = parse_hr_stream(lines(HR_OK, "u1,2024-03-04T06:30:00z,61"))
        assert s.timestamp == datetime(2024, 3, 4, 6, 30, tzinfo=UTC)

    def test_naive_timestamp_treated_as_utc(self):
        (s,) = parse_hr_stream(lines(HR_OK, "u1,2024-03-04T06:30:00,61"))
        assert s.timestamp == datetime(2024, 3, 4, 6, 30, tzinfo=UTC)

    def test_garbage_timestamp_reports_line(self):
        with pytest.raises(StreamFormatError, match="bad timestamp"):
            parse_hr_stream(lines(HR_OK, "u1,yesterday,61"))

    @pytest.mark.parametrize("ts", ["2024-03-04T10:00:00.5Z", "2024-03-04T10:00:00.000001+00:00"])
    def test_sub_second_hr_timestamp_reports_line(self, ts):
        rows = lines(HR_OK, "u1,2024-03-04T09:59:59Z,61", f"u1,{ts},62")
        with pytest.raises(StreamFormatError, match="sub-second timestamp") as exc:
            parse_hr_stream(rows)
        assert exc.value.line == 3

    def test_whole_second_hr_timestamps_serialize(self):
        rows = lines(HR_OK, "u1,2024-03-04T10:00:00.000Z,61", "u1,2024-03-04T10:00:07Z,62")
        text = serialize_hr_stream(parse_hr_stream(rows))
        assert "2024-03-04T10:00:00Z" in text and "2024-03-04T10:00:07Z" in text


class TestHrStream:
    def test_values_parse(self):
        (s,) = parse_hr_stream(lines(HR_OK, "u1,2024-03-04T00:00:03Z,61.25"))
        assert s == RawHrSample("u1", datetime(2024, 3, 4, 0, 0, 3, tzinfo=UTC), 61.25)

    @pytest.mark.parametrize("bad", ["0", "-5", "nan", "inf", "fast"])
    def test_bad_hr_values_rejected(self, bad):
        with pytest.raises(StreamFormatError):
            parse_hr_stream(lines(HR_OK, f"u1,2024-03-04T00:00:00Z,{bad}"))

    def test_empty_user_rejected(self):
        with pytest.raises(StreamFormatError, match="empty user_id"):
            parse_hr_stream(lines(HR_OK, " ,2024-03-04T00:00:00Z,61"))

    def test_rows_sorted_per_user_and_time(self):
        rows = lines(
            HR_OK,
            "u2,2024-03-04T00:00:00Z,70",
            "u1,2024-03-04T00:01:00Z,62",
            "u1,2024-03-04T00:00:00Z,61",
        )
        got = [(s.user_id, s.timestamp.minute) for s in parse_hr_stream(rows)]
        assert got == [("u1", 0), ("u1", 1), ("u2", 0)]

    def test_duplicate_key_keeps_lowest_value(self):
        # same (user, timestamp) twice: after the value tie-break sort, the
        # first of the group wins regardless of input order
        rows = lines(HR_OK, "u1,2024-03-04T00:00:00Z,90", "u1,2024-03-04T00:00:00Z,61")
        (s,) = parse_hr_stream(rows)
        assert s.hr_bpm == 61.0
        rows_flipped = lines(
            HR_OK, "u1,2024-03-04T00:00:00Z,61", "u1,2024-03-04T00:00:00Z,90"
        )
        assert parse_hr_stream(rows_flipped) == [s]

    def test_shuffle_invariance(self):
        body = [
            "u1,2024-03-04T00:00:33Z,61",
            "u1,2024-03-04T00:00:03Z,60",
            "u2,2024-03-04T00:00:03Z,72",
            "u1,2024-03-04T00:01:03Z,63",
        ]
        a = parse_hr_stream(lines(HR_OK, *body))
        b = parse_hr_stream(lines(HR_OK, *reversed(body)))
        assert a == b


ACT_OK = "user_id,block_start,steps,distance_m"


class TestActivityBlocks:
    def test_basic_parse(self):
        (b,) = parse_activity_blocks(lines(ACT_OK, "u1,2024-03-04T06:15:00Z,120,84.5"))
        assert b == RawActivityBlock(
            "u1", datetime(2024, 3, 4, 6, 15, tzinfo=UTC), 120, 84.5
        )

    @pytest.mark.parametrize(
        "start",
        ["2024-03-04T06:05:00Z", "2024-03-04T06:15:30Z", "2024-03-04T06:14:59Z"],
    )
    def test_misaligned_start_rejected(self, start):
        with pytest.raises(StreamFormatError, match="15-minute boundary"):
            parse_activity_blocks(lines(ACT_OK, f"u1,{start},120,84.5"))

    def test_negative_steps_rejected(self):
        with pytest.raises(StreamFormatError, match="steps must be >= 0"):
            parse_activity_blocks(lines(ACT_OK, "u1,2024-03-04T06:15:00Z,-1,0"))

    def test_fractional_steps_rejected(self):
        with pytest.raises(StreamFormatError, match="non-integer steps"):
            parse_activity_blocks(lines(ACT_OK, "u1,2024-03-04T06:15:00Z,1.5,0"))

    def test_negative_distance_rejected(self):
        with pytest.raises(StreamFormatError, match="distance_m must be >= 0"):
            parse_activity_blocks(lines(ACT_OK, "u1,2024-03-04T06:15:00Z,10,-0.5"))

    def test_overlap_rejected_with_both_lines(self):
        rows = lines(
            ACT_OK,
            "u1,2024-03-04T06:00:00Z,10,7",
            "u1,2024-03-04T06:00:00Z,11,8",
        )
        with pytest.raises(StreamFormatError) as exc:
            parse_activity_blocks(rows)
        assert exc.value.line == 3
        assert "(line 2)" in str(exc.value)

    def test_adjacent_blocks_allowed(self):
        rows = lines(
            ACT_OK,
            "u1,2024-03-04T06:00:00Z,10,7",
            "u1,2024-03-04T06:15:00Z,11,8",
        )
        assert len(parse_activity_blocks(rows)) == 2

    def test_same_start_different_users_allowed(self):
        rows = lines(
            ACT_OK,
            "u1,2024-03-04T06:00:00Z,10,7",
            "u2,2024-03-04T06:00:00Z,11,8",
        )
        assert len(parse_activity_blocks(rows)) == 2


SLEEP_OK = "user_id,start,end,state"


class TestSleepSegments:
    def test_basic_parse(self):
        (s,) = parse_sleep_segments(
            lines(SLEEP_OK, "u1,2024-03-04T22:00:00Z,2024-03-05T06:00:00Z,sleep")
        )
        assert s.state is SleepState.SLEEP
        assert s.end - s.start == timedelta(hours=8)

    @pytest.mark.parametrize("state", ["Sleep", "asleep", "unknown", ""])
    def test_states_other_than_sleep_awake_rejected(self, state):
        with pytest.raises(StreamFormatError, match="bad sleep state"):
            parse_sleep_segments(
                lines(SLEEP_OK, f"u1,2024-03-04T22:00:00Z,2024-03-04T23:00:00Z,{state}")
            )

    def test_awake_state_accepted(self):
        (s,) = parse_sleep_segments(
            lines(SLEEP_OK, "u1,2024-03-04T02:00:00Z,2024-03-04T02:30:00Z,awake")
        )
        assert s.state is SleepState.AWAKE

    def test_empty_interval_rejected(self):
        with pytest.raises(StreamFormatError, match="end > start"):
            parse_sleep_segments(
                lines(SLEEP_OK, "u1,2024-03-04T22:00:00Z,2024-03-04T22:00:00Z,sleep")
            )

    def test_second_precision_boundary_rejected(self):
        with pytest.raises(StreamFormatError, match="minute-aligned"):
            parse_sleep_segments(
                lines(SLEEP_OK, "u1,2024-03-04T22:00:30Z,2024-03-04T23:00:00Z,sleep")
            )

    def test_overlap_rejected(self):
        rows = lines(
            SLEEP_OK,
            "u1,2024-03-04T22:00:00Z,2024-03-05T06:00:00Z,sleep",
            "u1,2024-03-05T05:00:00Z,2024-03-05T07:00:00Z,awake",
        )
        with pytest.raises(StreamFormatError, match="overlaps"):
            parse_sleep_segments(rows)

    def test_touching_segments_allowed(self):
        rows = lines(
            SLEEP_OK,
            "u1,2024-03-04T22:00:00Z,2024-03-05T06:00:00Z,sleep",
            "u1,2024-03-05T06:00:00Z,2024-03-05T06:30:00Z,awake",
        )
        assert len(parse_sleep_segments(rows)) == 2


SCHED_OK = "user_id,start,end,activity_l2"


class TestSchedule:
    def test_basic_parse(self, taxonomy):
        (b,) = parse_schedule(
            lines(SCHED_OK, "u1,2024-03-04T06:50:00Z,2024-03-04T07:35:00Z,Running Exercise"),
            taxonomy,
        )
        assert b.label == "Running Exercise"

    def test_unknown_label_rejected(self, taxonomy):
        with pytest.raises(StreamFormatError, match="unknown activity label"):
            parse_schedule(
                lines(SCHED_OK, "u1,2024-03-04T06:50:00Z,2024-03-04T07:35:00Z,Jogging"),
                taxonomy,
            )

    def test_level1_name_is_not_a_valid_label(self, taxonomy):
        # schedule rows carry fine-grained labels, not the coarse classes
        with pytest.raises(StreamFormatError, match="unknown activity label"):
            parse_schedule(
                lines(SCHED_OK, "u1,2024-03-04T06:50:00Z,2024-03-04T07:35:00Z,Activity"),
                taxonomy,
            )

    def test_overlap_rejected(self, taxonomy):
        rows = lines(
            SCHED_OK,
            "u1,2024-03-04T06:00:00Z,2024-03-04T07:00:00Z,Running Exercise",
            "u1,2024-03-04T06:30:00Z,2024-03-04T08:00:00Z,Military Drills",
        )
        with pytest.raises(StreamFormatError, match="overlaps"):
            parse_schedule(rows, taxonomy)


class TestFormatTimestamp:
    def test_canonical_form(self):
        assert (
            format_timestamp(datetime(2024, 3, 4, 6, 5, 3, tzinfo=UTC))
            == "2024-03-04T06:05:03Z"
        )

    def test_converts_zone_before_formatting(self):
        ts = datetime(2024, 3, 4, 8, 0, tzinfo=timezone(timedelta(hours=2)))
        assert format_timestamp(ts) == "2024-03-04T06:00:00Z"

    def test_microseconds_rejected(self):
        with pytest.raises(ValueError, match="whole-second"):
            format_timestamp(datetime(2024, 3, 4, 0, 0, 0, 250000, tzinfo=UTC))


class TestSerializeRoundTrips:
    def test_hr(self):
        samples = [
            RawHrSample("u1", datetime(2024, 3, 4, 0, 0, 3, tzinfo=UTC), 61.25),
            RawHrSample("u1", datetime(2024, 3, 4, 0, 0, 18, tzinfo=UTC), 62.0),
        ]
        text = serialize_hr_stream(samples)
        assert text.splitlines()[0] == "user_id,timestamp,hr_bpm"
        assert parse_hr_stream(text.splitlines(keepends=True)) == samples
        # floats keep their repr so a re-parse is bit-exact
        assert ",62.0\n" in text

    def test_activity(self):
        blocks = [
            RawActivityBlock("u1", datetime(2024, 3, 4, 6, 0, tzinfo=UTC), 120, 84.5),
            RawActivityBlock("u1", datetime(2024, 3, 4, 6, 15, tzinfo=UTC), 0, 0.0),
        ]
        text = serialize_activity_blocks(blocks)
        assert parse_activity_blocks(text.splitlines(keepends=True)) == blocks

    def test_sleep(self):
        segments = [
            RawSleepSegment(
                "u1",
                datetime(2024, 3, 4, 22, 0, tzinfo=UTC),
                datetime(2024, 3, 5, 6, 0, tzinfo=UTC),
                SleepState.SLEEP,
            )
        ]
        text = serialize_sleep_segments(segments)
        assert parse_sleep_segments(text.splitlines(keepends=True)) == segments

    def test_schedule_quotes_comma_in_user_id(self, taxonomy):
        from harforge.core import ScheduleBlock

        blocks = [
            ScheduleBlock(
                'u,1"x',
                datetime(2024, 3, 4, 6, 0, tzinfo=UTC),
                datetime(2024, 3, 4, 7, 0, tzinfo=UTC),
                "Running Exercise",
            )
        ]
        text = serialize_schedule(blocks)
        assert parse_schedule(text.splitlines(keepends=True), taxonomy) == blocks
