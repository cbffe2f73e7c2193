"""Parser and serializer behavior for the four raw stream formats."""

import calendar
import csv
import io
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from harforge import codec, ingest
from harforge.core import SleepState, epoch_second, format_number, from_epoch_second
from harforge.ingest import (
    RawActivityBlock,
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


def hr_rows(hr):
    """(user_id, UTC datetime, bpm) of each row of a parsed stream, in order."""
    return [
        (hr.users[code], datetime.fromtimestamp(second, UTC), bpm)
        for code, second, bpm in zip(hr.user.tolist(), hr.second.tolist(), hr.bpm.tolist())
    ]


def assert_streams_equal(a, b):
    assert a.users == b.users
    for column in ("user", "second", "bpm"):
        assert getattr(a, column).dtype == getattr(b, column).dtype
        assert getattr(a, column).tolist() == getattr(b, column).tolist(), column


def reference_hr_parse(text_lines):
    """The per-sample parse: one (user_id, datetime, bpm) tuple per row, a
    tuple sort, then the first of each (user_id, timestamp) group."""
    reader = csv.reader(text_lines)
    next(reader)
    samples = []
    for row in reader:
        if row:
            t = row[1].strip()
            ts = datetime.fromisoformat(t[:-1] + "+00:00" if t.endswith(("Z", "z")) else t)
            ts = ts.replace(tzinfo=UTC) if ts.tzinfo is None else ts.astimezone(UTC)
            samples.append((row[0].strip(), ts, float(row[2])))
    samples.sort()
    out = []
    for s in samples:
        if not (out and out[-1][:2] == s[:2]):
            out.append(s)
    return out


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
        assert len(got) == 0

    def test_field_count_mismatch_reports_line(self):
        rows = lines(HR_OK, "u1,2024-03-04T00:00:00Z,61", "u1,2024-03-04T00:01:00Z")
        with pytest.raises(StreamFormatError) as exc:
            parse_hr_stream(rows)
        assert exc.value.line == 3
        assert "expected 3 fields, got 2" in str(exc.value)

    def test_blank_lines_are_skipped(self):
        rows = lines(HR_OK, "", "u1,2024-03-04T00:00:00Z,61", "")
        assert len(parse_hr_stream(rows)) == 1

    @pytest.mark.parametrize(
        "parse, text",
        [
            (
                parse_hr_stream,
                lines(HR_OK, "u1,2024-03-04T00:00:00Z,61", "u1,2024-03-03T22:52:1\rZ,65.63"),
            ),
            (
                parse_activity_blocks,
                lines(",".join(ingest.ACTIVITY_HEADER), "u1,2024-03-04T00:00:00Z,10,7.0",
                      "u1,2024-03-04T00:15\r:00Z,1,2.0"),
            ),
        ],
        ids=["hr", "activity"],
    )
    def test_lone_cr_without_universal_newlines_reports_line(self, parse, text):
        # a StringIO does not split at a lone CR: the csv module rejects it
        with pytest.raises(StreamFormatError) as exc:
            parse(io.StringIO("".join(text)))
        assert exc.value.line == 3
        assert "new-line character" in str(exc.value)


class TestTimestamps:
    def test_z_and_offset_forms_are_equal(self):
        rows = lines(
            HR_OK,
            "u1,2024-03-04T00:00:00Z,61",
            "u2,2024-03-04T00:00:00+00:00,61",
            "u3,2024-03-04T02:00:00+02:00,61",
        )
        samples = hr_rows(parse_hr_stream(rows))
        assert len(samples) == 3
        assert all(ts == datetime(2024, 3, 4, tzinfo=UTC) for _, ts, _ in samples)

    def test_lowercase_z_accepted(self):
        ((_, ts, _),) = hr_rows(parse_hr_stream(lines(HR_OK, "u1,2024-03-04T06:30:00z,61")))
        assert ts == datetime(2024, 3, 4, 6, 30, tzinfo=UTC)

    def test_naive_timestamp_treated_as_utc(self):
        ((_, ts, _),) = hr_rows(parse_hr_stream(lines(HR_OK, "u1,2024-03-04T06:30:00,61")))
        assert ts == datetime(2024, 3, 4, 6, 30, tzinfo=UTC)

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
        hr = parse_hr_stream(lines(HR_OK, "u1,2024-03-04T00:00:03Z,61.25"))
        assert hr.users == ("u1",)
        assert hr.user.dtype == np.int64 and hr.user.tolist() == [0]
        assert hr.second.dtype == np.int64
        assert hr.second.tolist() == [epoch_second(datetime(2024, 3, 4, 0, 0, 3, tzinfo=UTC))]
        assert hr.bpm.dtype == np.float64 and hr.bpm.tolist() == [61.25]
        assert len(hr) == 1

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
        got = [(user, ts.minute) for user, ts, _ in hr_rows(parse_hr_stream(rows))]
        assert got == [("u1", 0), ("u1", 1), ("u2", 0)]

    def test_duplicate_key_keeps_lowest_value(self):
        # same (user, timestamp) twice: after the value tie-break sort, the
        # first of the group wins regardless of input order
        rows = lines(HR_OK, "u1,2024-03-04T00:00:00Z,90", "u1,2024-03-04T00:00:00Z,61")
        (s,) = hr_rows(parse_hr_stream(rows))
        assert s[2] == 61.0
        rows_flipped = lines(
            HR_OK, "u1,2024-03-04T00:00:00Z,61", "u1,2024-03-04T00:00:00Z,90"
        )
        assert hr_rows(parse_hr_stream(rows_flipped)) == [s]

    def test_shuffle_invariance(self):
        body = [
            "u1,2024-03-04T00:00:33Z,61",
            "u1,2024-03-04T00:00:03Z,60",
            "u2,2024-03-04T00:00:03Z,72",
            "u1,2024-03-04T00:01:03Z,63",
        ]
        a = parse_hr_stream(lines(HR_OK, *body))
        b = parse_hr_stream(lines(HR_OK, *reversed(body)))
        assert_streams_equal(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_match_per_sample_reference(self, seed):
        rng = random.Random(seed)
        users = ["u2", "u10", "u1", "u9", "b", "a10"]
        keys = [
            (rng.choice(users), rng.randrange(-5 * 10**8, 2 * 10**9)) for _ in range(300)
        ]
        keys += rng.choices(keys, k=150)  # repeated keys, most with other values
        body = []
        for user, second in keys:
            ts = datetime(1970, 1, 1, tzinfo=UTC) + timedelta(seconds=second)
            form = rng.randrange(4)
            if form == 0:
                text = f"{ts:%Y-%m-%dT%H:%M:%S}Z"
            elif form == 1:
                text = ts.isoformat()
            elif form == 2:
                text = ts.astimezone(timezone(timedelta(hours=2))).isoformat()
            else:
                text = ts.replace(tzinfo=None).isoformat()
            body.append(f"{user},{text},{rng.choice([61.0, 61.5, round(rng.uniform(30, 200), 2)])}")
        text_lines = lines(HR_OK, *body)
        hr = parse_hr_stream(text_lines)
        want = reference_hr_parse(text_lines)
        assert any(ts.year < 1970 for _, ts, _ in want)
        assert len(want) < len(body)
        assert hr.users == tuple(sorted({user for user, _, _ in want}))
        assert hr.users.index("u10") < hr.users.index("u2")
        assert [hr.users[c] for c in hr.user.tolist()] == [user for user, _, _ in want]
        assert hr.second.tolist() == [calendar.timegm(ts.timetuple()) for _, ts, _ in want]
        assert hr.bpm.tolist() == [bpm for _, _, bpm in want]
        rng.shuffle(body)
        assert_streams_equal(parse_hr_stream(lines(HR_OK, *body)), hr)

    @pytest.mark.parametrize(
        "case", ["in order", "shuffled", "by time", "lower bpm later", "u10 before u2"]
    )
    def test_canonical_text_in_any_order_matches_reference(self, case, monkeypatch):
        """Canonical text takes the columnar path whatever its row order; it
        skips the sort only when the rows are already in key order."""
        rng = random.Random(case)
        keys = {(rng.choice(["u2", "u10", "u1"]), rng.randrange(0, 3 * 86400)) for _ in range(300)}
        rows = sorted((u, sec, round(rng.uniform(40, 180), 2)) for u, sec in keys)
        if case == "shuffled":
            rng.shuffle(rows)
        elif case == "lower bpm later":
            repeats = rng.sample(range(len(rows)), 40)
            for i in sorted(repeats, reverse=True):
                u, sec, bpm = rows[i]
                rows.insert(i + 1, (u, sec, bpm - 5.5))
        elif case == "by time":  # every user's rows in order, the users interleaved
            rows.sort(key=lambda row: row[1])
        elif case == "u10 before u2":
            rows.sort(key=lambda row: (["u2", "u10", "u1"].index(row[0]), row[1]))
        text_lines = lines(
            HR_OK,
            *(
                f"{u},{format_timestamp(from_epoch_second(sec))},{format_number(bpm)}"
                for u, sec, bpm in rows
            ),
        )
        monkeypatch.setattr(ingest, "parse_hr_rows", None)  # the columnar path only
        if case == "in order":
            monkeypatch.setattr(np, "lexsort", None)
        hr = parse_hr_stream(io.StringIO("".join(text_lines)))
        want = reference_hr_parse(text_lines)
        assert hr.users == ("u1", "u10", "u2")
        assert [hr.users[c] for c in hr.user.tolist()] == [user for user, _, _ in want]
        assert hr.second.tolist() == [calendar.timegm(ts.timetuple()) for _, ts, _ in want]
        assert hr.bpm.tolist() == [bpm for _, _, bpm in want]

    @pytest.mark.parametrize("case", ["in order", "repeats in order", "shuffled repeats"])
    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_order_check_in_small_blocks(self, case, block, monkeypatch):
        """The order and duplicate check compares each row with the one
        before it a block of BLOCK_ROWS rows at a time, and drops repeated
        keys a block at a time: in tiny blocks the parse is that of one
        block, and text in key order, repeats included, skips the sort."""
        rng = random.Random(case)
        keys = {(rng.choice(["u2", "u1"]), rng.randrange(0, 86400)) for _ in range(200)}
        rows = sorted((u, sec, round(rng.uniform(40, 180), 2)) for u, sec in keys)
        if case != "in order":
            for i in sorted(rng.sample(range(len(rows)), 60), reverse=True):
                rows[i + 1 : i + 1] = [rows[i]] * rng.randint(1, 3)
        if case == "shuffled repeats":
            rng.shuffle(rows)
        body = (f"{u},{format_timestamp(from_epoch_second(sec))},{bpm!r}" for u, sec, bpm in rows)
        text = "".join(lines(HR_OK, *body))
        whole = parse_hr_stream(io.StringIO(text))
        assert len(whole) == len(keys)
        monkeypatch.setattr(codec, "BLOCK_ROWS", block)
        if case != "shuffled repeats":
            monkeypatch.setattr(np, "lexsort", None)
        assert_streams_equal(parse_hr_stream(io.StringIO(text)), whole)
        assert_streams_equal(ingest.parse_hr_rows(io.StringIO(text)), whole)

    def test_header_only_stream_is_empty(self):
        hr = parse_hr_stream(lines(HR_OK))
        assert len(hr) == 0 and hr.users == ()
        assert (hr.user.dtype, hr.second.dtype, hr.bpm.dtype) == (
            np.int64, np.int64, np.float64
        )
        assert serialize_hr_stream(hr) == HR_OK + "\n"


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


INTERVAL_ERRORS = [
    (
        "sleep",
        [SLEEP_OK, "u1,2024-03-04T22:00:30Z,2024-03-04T23:00:00Z,sleep"],
        "line 2: segment boundaries must be minute-aligned",
    ),
    (
        "sleep",
        [SLEEP_OK, "u1,2024-03-04T22:00:00Z,2024-03-04T22:00:00Z,sleep"],
        "line 2: segment must have end > start",
    ),
    (
        "sleep",
        [SLEEP_OK, "u1,2024-03-04T22:00:00Z,2024-03-04T23:00:00Z,asleep"],
        "line 2: bad sleep state 'asleep'",
    ),
    (
        "sleep",
        [
            SLEEP_OK,
            "u1,2024-03-04T22:00:00Z,2024-03-05T06:00:00Z,sleep",
            "",
            "u1,2024-03-05T05:00:00Z,2024-03-05T07:00:00Z,awake",
        ],
        "line 4: segment for 'u1' starting 2024-03-05 05:00:00+00:00 overlaps the "
        "previous segment ending 2024-03-05 06:00:00+00:00",
    ),
    (
        "sleep",
        [SLEEP_OK, "u1,2024-03-04T22:00:00Z,later,sleep"],
        "line 2: bad timestamp 'later'",
    ),
    (
        "schedule",
        [SCHED_OK, "u1,2024-03-04T06:00:00Z,2024-03-04T07:00:01Z,Other"],
        "line 2: schedule boundaries must be minute-aligned",
    ),
    (
        "schedule",
        [SCHED_OK, "u1,2024-03-04T07:00:00Z,2024-03-04T06:00:00Z,Other"],
        "line 2: schedule block must have end > start",
    ),
    (
        "schedule",
        [SCHED_OK, "u1,2024-03-04T06:00:00Z,2024-03-04T07:00:00Z,Jogging"],
        "line 2: unknown activity label 'Jogging'",
    ),
    (
        "schedule",
        [
            SCHED_OK,
            "u1,2024-03-04T06:30:00+02:00,2024-03-04T08:00:00Z,Military Drills",
            "u1,2024-03-04T06:00:00Z,2024-03-04T07:00:00Z,Running Exercise",
        ],
        "line 3: schedule block for 'u1' starting 2024-03-04 06:00:00+00:00 overlaps the "
        "previous block ending 2024-03-04 08:00:00+00:00",
    ),
    (
        "schedule",
        [SCHED_OK, " ,2024-03-04T06:00:00Z,2024-03-04T07:00:00Z,Other"],
        "line 2: empty user_id",
    ),
]


@pytest.mark.parametrize("kind, rows, message", INTERVAL_ERRORS)
def test_interval_error_messages_are_exact(kind, rows, message, taxonomy):
    with pytest.raises(StreamFormatError) as exc:
        if kind == "sleep":
            parse_sleep_segments(lines(*rows))
        else:
            parse_schedule(lines(*rows), taxonomy)
    assert str(exc.value) == message
    assert exc.value.line == int(message.split(":")[0].split()[1])


class TestFormatTimestamp:
    def test_epoch_seconds_format(self):
        assert format_timestamp(from_epoch_second(0)) == "1970-01-01T00:00:00Z"
        assert format_timestamp(from_epoch_second(86400 + 3723)) == "1970-01-02T01:02:03Z"
        assert format_timestamp(from_epoch_second(-1)) == "1969-12-31T23:59:59Z"

    def test_naive_is_utc(self):
        assert format_timestamp(datetime(2024, 3, 4, 6, 5, 3)) == "2024-03-04T06:05:03Z"

    def test_matches_strftime_and_round_trips(self):
        rng = random.Random(9)
        for _ in range(2000):
            ts = datetime(1970, 1, 1, tzinfo=UTC) + timedelta(
                seconds=rng.randrange(-3 * 10**10, 3 * 10**10)
            )
            text = format_timestamp(ts)
            assert text == f"{ts:%Y-%m-%dT%H:%M:%S}Z"
            assert from_epoch_second(epoch_second(ts)) == ts

    def test_years_before_1000_keep_four_digits_and_round_trip(self):
        ts = datetime(999, 12, 31, 23, 59, 58, tzinfo=UTC)
        assert format_timestamp(ts) == "0999-12-31T23:59:58Z"
        text = serialize_hr_stream(parse_hr_stream(lines(HR_OK, "u1,0999-12-31T23:59:58Z,61")))
        assert text == HR_OK + "\nu1,0999-12-31T23:59:58Z,61.0\n"

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
    def test_hr(self, hr_factory):
        hr = hr_factory(
            [
                ("u1", datetime(2024, 3, 4, 0, 0, 18, tzinfo=UTC), 62.0),
                ('u,1"x', datetime(1969, 7, 20, 20, 17, 40, tzinfo=UTC), 61.25),
                ("u1", datetime(2024, 3, 4, 0, 0, 3, tzinfo=UTC), 0.1 + 0.2),
            ]
        )
        text = serialize_hr_stream(hr)
        assert text.splitlines() == [
            "user_id,timestamp,hr_bpm",
            '"u,1""x",1969-07-20T20:17:40Z,61.25',
            "u1,2024-03-04T00:00:03Z,0.30000000000000004",
            "u1,2024-03-04T00:00:18Z,62.0",
        ]
        assert_streams_equal(parse_hr_stream(text.splitlines(keepends=True)), hr)
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
