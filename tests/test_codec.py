"""The columnar codecs of the bulk CSV formats against their per-row
definitions.

- Readers: ``parse_hr_stream``, ``read_aligned_csv`` and ``read_truth_csv``
  give the same columns as ``parse_hr_rows`` and the per-row reader of
  their per-minute format (``MinuteFormat.read_rows``), or raise the same
  exception with the same message and line, on seeded canonical text and
  on every perturbation of it.
- Writers: ``serialize_hr_stream``, ``write_aligned_csv`` and
  ``TRUTH_FORMAT.write`` give the text a per-row csv.writer writes.
- Canonical pipeline files take the columnar path: with the per-row parsers
  patched to raise, they still parse; HR files already in key order parse
  with ``np.lexsort`` patched to raise.
- Labels are numbered in order of first appearance in the columnar read
  too, wherever a block of lines starts, and a format whose fields are
  only converters and writer tables reads back what it wrote both ways.
- Every kind of text stream (files in any newline mode or encoding, with a
  byte order mark, positioned past the start, StringIO) reads as the
  per-row parsers read it, and a UTF-8 file is read as bytes, its text
  never decoded.
- Seeded random mutations of small canonical texts read alike both ways,
  in read blocks of the default size and of 257 bytes.
"""

import csv
import dataclasses
import io
import os
import random
from datetime import date

import numpy as np
import pytest

from harforge import align, codec, ingest
from harforge.align import (
    ALIGNED_FORMAT,
    ALIGNED_HEADER,
    SLEEP_CODE,
    DayGrid,
    read_aligned_csv,
    write_aligned_csv,
)
from harforge.core import MINUTES_PER_DAY, SleepState, format_number, from_epoch_second
from harforge.ingest import (
    HR_HEADER,
    HrStream,
    format_timestamp,
    parse_hr_rows,
    parse_hr_stream,
    serialize_hr_stream,
)
from harforge.synth import TRUTH_FORMAT, TRUTH_HEADER, read_truth_csv

from test_golden import run_golden_cohort


def seeded_hr(seed, users=("u001", "u002", "u003"), n=3000) -> HrStream:
    """Sorted, deduplicated readings over a few days around 2024-03-04 and
    one day in 1969, with 2-decimal, whole and full-precision bpm."""
    rng = np.random.default_rng(seed)
    user = rng.integers(0, len(users), n)
    second = rng.integers(1709424000, 1709424000 + 3 * 86400, n)
    second[:50] = rng.integers(-86400, 0, 50)
    bpm = np.round(rng.uniform(35, 190, n), 2)
    bpm[::7] = np.round(bpm[::7])
    bpm[::11] = rng.uniform(35, 190, len(bpm[::11]))
    order = np.lexsort((bpm, second, user))
    user, second, bpm = user[order], second[order], bpm[order]
    first = np.ones(n, bool)
    first[1:] = (user[1:] != user[:-1]) | (second[1:] != second[:-1])
    return HrStream(tuple(users), user[first], second[first], bpm[first])


def seeded_grid(seed, users=("u001", "u002"), labels=("Firearms Training", "Other")) -> DayGrid:
    """Two users x two days with missing pulses, tiny distances, -0.0 beside
    0.0, and every sleep state and schedule code."""
    rng = np.random.default_rng(seed)
    keys = [(u, d) for u in users for d in (date(2024, 3, 4), date(2024, 3, 5))]
    grid = DayGrid.empty(keys, labels)
    shape = grid.pulse.shape
    grid.pulse[:] = rng.uniform(40, 160, shape) / 3
    grid.pulse[rng.random(shape) < 0.2] = np.nan
    grid.steps[:] = rng.integers(0, 40, shape) * (rng.random(shape) < 0.5)
    grid.distance_m[:] = grid.steps * rng.uniform(0.5, 0.9, shape)
    grid.distance_m[:, :6] = [1e-05, 2.5e-07, 1e22, 0.1, 123456.789, -0.0]
    grid.sleep[:] = rng.integers(0, len(SleepState), shape)
    grid.schedule[:] = rng.integers(-1, len(labels), shape)
    return grid


def seeded_truth(
    seed, users=("u001", "u002"), labels=("Firearms Training", "Other")
) -> DayGrid:
    """Two users x two days of sleep and awake minutes, no activity beside
    real labels, and tiny, huge, -0.0, NaN and inf distances."""
    rng = np.random.default_rng(seed)
    keys = sorted((u, d) for u in users for d in (date(2024, 3, 4), date(2024, 3, 5)))
    grid = DayGrid.empty(keys, labels)
    shape = grid.sleep.shape
    grid.sleep[:] = np.where(
        rng.random(shape) < 0.3, SLEEP_CODE[SleepState.SLEEP], SLEEP_CODE[SleepState.AWAKE]
    )
    grid.schedule[:] = rng.integers(-1, len(labels), shape)
    grid.steps[:] = rng.integers(0, 40, shape) * (rng.random(shape) < 0.5)
    grid.distance_m[:] = grid.steps * rng.uniform(0.5, 0.9, shape)
    grid.distance_m[:, :8] = [1e-05, 2.5e-07, 1e22, 0.1, -0.0, 0.0, np.nan, np.inf]
    return grid


def reference_truth_text(truth: DayGrid) -> str:
    """The per-row truth writer: one csv.writer row per minute."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRUTH_HEADER)
    states = list(SleepState)
    for r, (user, day) in enumerate(truth.keys):
        for m in range(MINUTES_PER_DAY):
            code = truth.schedule[r, m]
            writer.writerow(
                (
                    user,
                    day.isoformat(),
                    m,
                    states[truth.sleep[r, m]].value,
                    "" if code < 0 else truth.labels[code],
                    int(truth.steps[r, m]),
                    repr(float(truth.distance_m[r, m])),
                )
            )
    return buf.getvalue()


def reference_hr_text(hr: HrStream) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HR_HEADER)
    for u, sec, bpm in zip(hr.user.tolist(), hr.second.tolist(), hr.bpm.tolist()):
        writer.writerow((hr.users[u], format_timestamp(from_epoch_second(sec)), format_number(bpm)))
    return buf.getvalue()


def reference_aligned_text(days: DayGrid) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ALIGNED_HEADER)
    states = list(SleepState)
    for r, (user, day) in enumerate(days.keys):
        for m in range(MINUTES_PER_DAY):
            pulse = days.pulse[r, m]
            code = days.schedule[r, m]
            writer.writerow(
                (
                    user,
                    day.isoformat(),
                    m,
                    "" if np.isnan(pulse) else format_number(float(pulse)),
                    int(days.steps[r, m]),
                    format_number(float(days.distance_m[r, m])),
                    states[days.sleep[r, m]].value,
                    "" if code < 0 else days.labels[code],
                )
            )
    return buf.getvalue()


def outcome(parse, text=None):
    """What ``parse`` makes of a text stream of ``text`` (of nothing when
    ``text`` is None): every column's dtype and bytes, or the exception's
    type, message and line."""
    try:
        result = parse() if text is None else parse(io.StringIO(text))
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        return type(err), str(err), getattr(err, "line", None)
    if isinstance(result, HrStream):
        names, head = ("user", "second", "bpm"), result.users
    else:
        names = ("pulse", "steps", "distance_m", "sleep", "schedule")
        head = (result.keys, result.labels)
    return head, [(getattr(result, c).dtype, getattr(result, c).tobytes()) for c in names]


def edit_line(index, edit):
    """A perturbation that rewrites line ``index`` (0 is the header)."""

    def apply(text):
        lines = text.splitlines(keepends=True)
        lines[index] = edit(lines[index])
        return "".join(lines)

    return apply


def set_field(index, field, value):
    def edit(line):
        cells = line[:-1].split(",")
        cells[field] = value
        return ",".join(cells) + "\n"

    return edit_line(index, edit)


COMMON_PERTURBATIONS = {
    "quoted user": edit_line(3, lambda line: '"' + line.replace(",", '",', 1)),
    "quoted comma user": edit_line(3, lambda line: '"u,1"' + line[line.index(",") :]),
    "non-ascii user": edit_line(3, lambda line: "ü" + line),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "blank line": edit_line(3, lambda line: line + "\n"),
    "no final newline": lambda text: text[:-1],
    "trailing space": edit_line(3, lambda line: line[:-1] + " \n"),
    "leading space": edit_line(3, lambda line: " " + line),
    "long user": edit_line(3, lambda line: "u" * 50_000 + line),
    "nul byte": edit_line(3, lambda line: line.replace(",", "\x00,", 1)),
    "tab": edit_line(3, lambda line: line.replace(",", "\t,", 1)),
    "spaced header": edit_line(0, lambda line: line.replace(",", " , ")),
    "extra field": edit_line(3, lambda line: line[:-1] + ",x\n"),
    "missing field": edit_line(3, lambda line: line[: line.rindex(",")] + "\n"),
    "header only": lambda text: text[: text.index("\n") + 1],
    "empty": lambda text: "",
}

HR_PERTURBATIONS = {
    **COMMON_PERTURBATIONS,
    "+02:00": edit_line(3, lambda line: line.replace("Z,", "+02:00,")),
    "+00:00": edit_line(3, lambda line: line.replace("Z,", "+00:00,")),
    "naive": edit_line(3, lambda line: line.replace("Z,", ",")),
    "lowercase z": edit_line(3, lambda line: line.replace("Z,", "z,")),
    "sub-second": edit_line(3, lambda line: line.replace("Z,", ".5Z,")),
    "empty user": edit_line(3, lambda line: line[line.index(",") :]),
    "2023-02-29": set_field(3, 1, "2023-02-29T10:00:00Z"),
    "year 0": set_field(3, 1, "0000-01-01T10:00:00Z"),
    "year 999": set_field(3, 1, "0999-12-31T23:59:59Z"),
    "hour 24": set_field(3, 1, "2024-03-04T24:00:00Z"),
    "minute 60": set_field(3, 1, "2024-03-04T10:60:00Z"),
    "second 60": set_field(3, 1, "2024-03-04T10:00:60Z"),
    "duplicate key": lambda text: text + set_field(1, 2, "1.5")(text).splitlines(True)[1],
    "shuffled": lambda text: text.splitlines(keepends=True)[0]
    + "".join(reversed(text.splitlines(keepends=True)[1:])),
    **{
        f"bpm {bpm}": set_field(3, 2, bpm)
        for bpm in ("0", "0.0", "-1", "1e2", "7_2", "+72", ".5", "72.", "072", "nan", "inf", "")
    },
    "long bpm": set_field(3, 2, "72.12345678901234567890123"),
    "longer bpm than a byte column": set_field(3, 2, "72." + "0" * codec.MAX_WIDTH),
    "infinite bpm": set_field(3, 2, "9" * 400),
}

ALIGNED_PERTURBATIONS = {
    **COMMON_PERTURBATIONS,
    "comma label": set_field(3, 7, '"Drill, night"'),
    "spaced label": set_field(3, 7, "Firearms Training "),
    "new label": set_field(3, 7, "Kitchen Duties"),
    "long label": set_field(3, 7, "L" * 50_000),
    **{f"pulse {p}": set_field(3, 3, p) for p in ("nan", "inf", "x", "72.", "1e2", " 7")},
    "distance -inf": set_field(3, 5, "-inf"),
    "steps 1.5": set_field(3, 4, "1.5"),
    "steps +3": set_field(3, 4, "+3"),
    "huge steps": set_field(3, 4, "9" * 30),
    "bad sleep": set_field(3, 6, "asleep"),
    "bad date": set_field(3, 1, "2024-3-04"),
    "minute with leading zero": set_field(3, 2, "02"),
    "skipped minute": lambda text: "".join(
        line for i, line in enumerate(text.splitlines(keepends=True)) if i != 3
    ),
    "repeated minute": edit_line(3, lambda line: line + line),
    "day listed twice": lambda text: text + "".join(text.splitlines(keepends=True)[1:1441]),
    "days out of order": lambda text: text.splitlines(keepends=True)[0]
    + "".join(text.splitlines(keepends=True)[1441:])
    + "".join(text.splitlines(keepends=True)[1:1441]),
    "truncated day": lambda text: text[: text.rindex("\n", 0, -1) + 1],
}

TRUTH_PERTURBATIONS = {
    **COMMON_PERTURBATIONS,
    **{f"minute {m}": set_field(2, 2, m) for m in ("-1", "1440", "x", "0", "2", "12", "01", " 1")},
    "last minute 1438": set_field(MINUTES_PER_DAY, 2, "1438"),
    "date changes mid-day": set_field(5, 1, "2024-03-05"),
    "partial day": lambda text: "".join(
        line for i, line in enumerate(text.splitlines(keepends=True)) if not 1400 < i <= 1440
    ),
    "truncated day": lambda text: text[: text.rindex("\n", 0, -1) + 1],
    "day listed twice": lambda text: text + "".join(text.splitlines(keepends=True)[1:1441]),
    "days out of order": lambda text: text.splitlines(keepends=True)[0]
    + "".join(text.splitlines(keepends=True)[1441:])
    + "".join(text.splitlines(keepends=True)[1:1441]),
    "bad date": set_field(3, 1, "2024-02-30"),
    "bad state": set_field(3, 3, "asleep"),
    "new activity": set_field(3, 4, "Kitchen Duties"),
    "comma activity": set_field(3, 4, '"Drill, night"'),
    **{f"steps {v}": set_field(3, 5, v) for v in ("1.5", "+3", "x", "9" * 30)},
    **{f"distance {v}": set_field(3, 6, v) for v in ("far", "-inf", "1e999", "")},
}


@pytest.fixture(scope="module")
def hr_text():
    return serialize_hr_stream(seeded_hr(1))


@pytest.fixture(scope="module")
def aligned_text():
    return write_aligned_csv(seeded_grid(2))


@pytest.fixture(scope="module")
def truth_csv_text():
    return TRUTH_FORMAT.write(seeded_truth(3))


class TestWriters:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_hr_matches_per_row_writer(self, seed):
        hr = seeded_hr(seed, users=("u1", "u,2", "üser 3", 'q"4', "l" * 5000))
        assert serialize_hr_stream(hr) == reference_hr_text(hr)

    def test_empty_hr(self):
        hr = HrStream((), *(np.zeros(0, dtype) for dtype in (np.int64, np.int64, np.float64)))
        assert serialize_hr_stream(hr) == "user_id,timestamp,hr_bpm\n"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_aligned_matches_per_row_writer(self, seed):
        grid = seeded_grid(
            seed, users=("u1", "u,2", "l" * 5000), labels=("Drill, night", 'q"x', "L" * 5000)
        )
        assert write_aligned_csv(grid) == reference_aligned_text(grid)

    def test_empty_grid(self):
        assert write_aligned_csv(DayGrid.empty([])) == ",".join(ALIGNED_HEADER) + "\n"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_truth_matches_per_row_writer(self, seed):
        truth = seeded_truth(
            seed, users=("u1", "u10", "u2", "u,3"), labels=("Drill", "Drill, night", "L" * 5000)
        )
        assert TRUTH_FORMAT.write(truth) == reference_truth_text(truth)

    def test_empty_truth(self):
        empty = DayGrid.empty([])
        header = ",".join(TRUTH_HEADER) + "\n"
        assert TRUTH_FORMAT.write(empty) == reference_truth_text(empty) == header

    @pytest.mark.parametrize("column, value", [("pulse", np.inf), ("distance_m", np.nan)])
    def test_aligned_non_finite_values_rejected(self, column, value):
        grid = seeded_grid(3)
        getattr(grid, column)[1, 7] = value
        with pytest.raises(ValueError, match="cannot be serialized"):
            write_aligned_csv(grid)


class TestReadersMatchPerRowParsers:
    def test_canonical_hr(self, hr_text):
        got = outcome(parse_hr_stream, hr_text)
        assert got == outcome(parse_hr_rows, hr_text)
        assert got == outcome(parse_hr_rows, reference_hr_text(seeded_hr(1)))

    @pytest.mark.parametrize("name", sorted(HR_PERTURBATIONS))
    def test_perturbed_hr(self, hr_text, name):
        text = HR_PERTURBATIONS[name](hr_text)
        assert text != hr_text
        assert outcome(parse_hr_stream, text) == outcome(parse_hr_rows, text)

    @pytest.mark.parametrize("name", ["crlf", "non-ascii user", "bpm 1e2", "shuffled", "empty"])
    @pytest.mark.parametrize("newline", [None, ""])
    def test_perturbed_hr_file(self, hr_text, name, newline, tmp_path):
        """A UTF-8 file parses the same whatever its newline mode."""
        path = tmp_path / "hr.csv"
        path.write_bytes(HR_PERTURBATIONS[name](hr_text).encode("utf-8"))

        def parse(parser):
            with open(path, encoding="utf-8", newline=newline) as fh:
                return parser(fh)

        assert outcome(lambda: parse(parse_hr_stream)) == outcome(lambda: parse(parse_hr_rows))

    def test_canonical_aligned(self, aligned_text):
        assert outcome(read_aligned_csv, aligned_text) == outcome(
            ALIGNED_FORMAT.read_rows, aligned_text
        )

    @pytest.mark.parametrize("name", sorted(ALIGNED_PERTURBATIONS))
    def test_perturbed_aligned(self, aligned_text, name):
        text = ALIGNED_PERTURBATIONS[name](aligned_text)
        assert text != aligned_text
        assert outcome(read_aligned_csv, text) == outcome(ALIGNED_FORMAT.read_rows, text)

    def test_canonical_truth(self, truth_csv_text):
        got = outcome(read_truth_csv, truth_csv_text)
        assert got == outcome(TRUTH_FORMAT.read_rows, truth_csv_text)
        assert got[0][0] == seeded_truth(3).keys

    @pytest.mark.parametrize("name", sorted(TRUTH_PERTURBATIONS))
    def test_perturbed_truth(self, truth_csv_text, name):
        text = TRUTH_PERTURBATIONS[name](truth_csv_text)
        assert text != truth_csv_text
        assert outcome(read_truth_csv, text) == outcome(TRUTH_FORMAT.read_rows, text)

    @pytest.mark.parametrize(
        "fmt, fixture, field",
        [(ALIGNED_FORMAT, "aligned_text", 4), (TRUTH_FORMAT, "truth_csv_text", 5)],
    )
    def test_steps_beyond_int64_are_bad_fields_of_their_row(self, request, fmt, fixture, field):
        """Not a bare OverflowError: the ``huge steps`` perturbation, and
        one past each end of int64; both ends themselves read."""
        text = request.getfixturevalue(fixture)
        for read in (fmt.read, fmt.read_rows):
            for value in ("9" * 30, str(2**63), str(-(2**63) - 1)):
                with pytest.raises(ValueError) as err:
                    read(io.StringIO(set_field(3, field, value)(text)))
                message = f"{fmt.kind} CSV row 4: bad {fmt.header[field]} {value!r}"
                assert str(err.value) == message
            for value in (2**63 - 1, -(2**63)):
                grid = read(io.StringIO(set_field(3, field, str(value))(text)))
                assert grid.steps[0, 2] == value

    def test_lists_of_lines_go_row_by_row(self, hr_text, monkeypatch):
        lines = hr_text.splitlines(keepends=True)
        expected = outcome(parse_hr_stream, hr_text)
        monkeypatch.setattr(ingest, "_parse_hr_columns", _never)
        assert outcome(lambda: parse_hr_stream(lines)) == expected


def test_field_longer_than_max_width_is_not_canonical():
    """Such a field sends its file row by row before any (lines, width)
    temporary is made."""

    def distinct(width):
        block = np.frombuffer(b"x" * width + b"\n", np.uint8)
        return codec.distinct(block, np.array([0]), np.array([width]))

    assert distinct(codec.MAX_WIDTH)[0] == [b"x" * codec.MAX_WIDTH]
    with pytest.raises(codec.NotCanonical):
        distinct(codec.MAX_WIDTH + 1)


def _never(*args):
    raise AssertionError("this parser must not run here")


READERS = {
    "hr": (parse_hr_stream, parse_hr_rows),
    "aligned": (read_aligned_csv, ALIGNED_FORMAT.read_rows),
    "truth": (read_truth_csv, TRUTH_FORMAT.read_rows),
}

#: How a stream of a text is made: (file bytes, open keywords, lines read
#: before parsing); None as the file bytes means an io.StringIO of the text.
STREAM_KINDS = {
    "StringIO": (None, {}, 0),
    "utf-8 file": (lambda text: text.encode(), {"encoding": "utf-8"}, 0),
    "crlf file": (lambda text: text.replace("\n", "\r\n").encode(), {"encoding": "utf-8"}, 0),
    "crlf file, newline ''": (
        lambda text: text.replace("\n", "\r\n").encode(),
        {"encoding": "utf-8", "newline": ""},
        0,
    ),
    "utf-8 bom": (lambda text: b"\xef\xbb\xbf" + text.encode(), {"encoding": "utf-8"}, 0),
    "utf-8-sig with bom": (
        lambda text: b"\xef\xbb\xbf" + text.encode(),
        {"encoding": "utf-8-sig"},
        0,
    ),
    "non-ascii user": (
        lambda text: COMMON_PERTURBATIONS["non-ascii user"](text).encode(),
        {"encoding": "utf-8"},
        0,
    ),
    "latin-1": (lambda text: text.encode("latin-1"), {"encoding": "latin-1"}, 0),
    "latin-1, non-ascii user": (
        lambda text: COMMON_PERTURBATIONS["non-ascii user"](text).encode("latin-1"),
        {"encoding": "latin-1"},
        0,
    ),
    "utf-16": (lambda text: text.encode("utf-16"), {"encoding": "utf-16"}, 0),
    "after a preamble line": (
        lambda text: b"preamble\n" + text.encode(),
        {"encoding": "utf-8"},
        1,
    ),
    "past its header": (lambda text: text.encode(), {"encoding": "utf-8"}, 1),
    "undecodable utf-8": (lambda text: text.encode() + b"\xff\n", {"encoding": "utf-8"}, 0),
}


@pytest.fixture(scope="module")
def texts(hr_text, aligned_text, truth_csv_text):
    return {"hr": hr_text, "aligned": aligned_text, "truth": truth_csv_text}


@pytest.mark.parametrize("kind", sorted(STREAM_KINDS))
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_every_stream_reads_as_the_per_row_parser_reads_it(texts, fmt, kind, tmp_path):
    encode, options, skip = STREAM_KINDS[kind]
    path = tmp_path / "data.csv"
    if encode is not None:
        path.write_bytes(encode(texts[fmt]))

    def parse(parser):
        if encode is None:
            return parser(io.StringIO(texts[fmt]))
        with open(path, **options) as fh:
            for _ in range(skip):
                fh.readline()
            return parser(fh)

    columnar, per_row = READERS[fmt]
    assert outcome(lambda: parse(columnar)) == outcome(lambda: parse(per_row))


#: What a mutation writes over a byte, or inserts before one.
MUTANT_TEXTS = (*"0123456789", ",", '"', "\r", " ", "e", "nan", "\u00fc")


def mutate(text, rng):
    """``text`` with one mutation drawn from ``rng``, and its name: a byte
    substituted, deleted or inserted, or a line duplicated or swapped with
    the next one."""
    kind = rng.choice(("substitute", "delete", "insert", "duplicate", "swap"))
    if kind in ("duplicate", "swap"):
        lines = text.splitlines(keepends=True)
        i = rng.randrange(len(lines) - 1)
        lines[i : i + 2] = [lines[i]] * 2 if kind == "duplicate" else lines[i + 1 : i - 1 : -1]
        return "".join(lines), f"{kind} line {i}"
    at = rng.randrange(len(text))
    new = "" if kind == "delete" else rng.choice(MUTANT_TEXTS)
    return text[:at] + new + text[at + (kind != "insert") :], f"{kind} {new!r} at {at}"


def _one_day(grid):
    """The first user-day of ``grid``."""
    rows = {f.name: getattr(grid, f.name)[:1] for f in dataclasses.fields(grid)}
    return dataclasses.replace(grid, **rows | {"labels": grid.labels})


#: A small canonical text of each format.
SMALL_TEXTS = {
    "hr": lambda: serialize_hr_stream(seeded_hr(5, n=200)),
    "aligned": lambda: write_aligned_csv(_one_day(seeded_grid(5))),
    "truth": lambda: TRUTH_FORMAT.write(_one_day(seeded_truth(5))),
}


@pytest.mark.parametrize("block", [codec.BLOCK_BYTES, 257])
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_mutated_texts_read_alike_both_ways(fmt, block, monkeypatch):
    """The reader (columnar where the text allows) and the per-row reader
    give bit-identical columns, or the same exception and message, on one
    or two seeded mutations of a small canonical text."""
    columnar, per_row = READERS[fmt]
    text = SMALL_TEXTS[fmt]()
    monkeypatch.setattr(codec, "BLOCK_BYTES", block)
    rng = random.Random(f"{fmt} {block}")
    accepted = 0
    for _ in range(30):
        mutant, done = text, []
        for _ in range(rng.randint(1, 2)):
            mutant, name = mutate(mutant, rng)
            done.append(name)
        want = outcome(per_row, mutant)
        assert outcome(columnar, mutant) == want, done
        accepted += not isinstance(want[0], type)
    assert accepted  # some mutants are still valid text


def test_head_change_at_a_block_boundary_is_read_row_by_row(truth_csv_text, monkeypatch):
    """A user-day whose "user,date" changes exactly where a block of lines
    starts is caught by comparing the block's first head with the previous
    block's last one."""
    monkeypatch.setattr(codec, "BLOCK_BYTES", 4096)
    data = truth_csv_text.encode()
    start = data.index(b"\n") + 1
    first_block = next(codec.split_lines(data, start, len(TRUTH_HEADER)))[1]
    assert 0 < len(first_block) < MINUTES_PER_DAY
    lines = truth_csv_text.splitlines(keepends=True)
    for i in range(1 + len(first_block), 1 + MINUTES_PER_DAY):
        lines[i] = lines[i].replace("2024-03-04", "2024-03-06", 1)
    text = "".join(lines)
    assert outcome(read_truth_csv, text) == outcome(TRUTH_FORMAT.read_rows, text)


def test_labels_are_numbered_in_order_of_first_appearance_across_blocks(monkeypatch):
    """The columnar read numbers labels as the per-row read does: by first
    appearance, not sorted, when none occurs in the first block, two first
    occur in one later block and one in a block after that."""
    monkeypatch.setattr(codec, "BLOCK_BYTES", 4096)
    grid = seeded_grid(5, labels=("Archery", "Mid", "Zumba"))
    grid.schedule[:] = -1
    grid.schedule[1, 500:502] = [2, 0]
    grid.schedule[2, 900] = 1
    grid.schedule[3] = np.arange(MINUTES_PER_DAY) % 4 - 1
    text = write_aligned_csv(grid)
    data = text.encode()
    start = data.index(b"\n") + 1
    sizes = [len(ends) for _, ends in codec.split_lines(data, start, len(ALIGNED_HEADER))]
    block_of_row = np.repeat(np.arange(len(sizes)), sizes)
    zumba, archery, mid = MINUTES_PER_DAY + 500, MINUTES_PER_DAY + 501, 2 * MINUTES_PER_DAY + 900
    assert 0 < block_of_row[zumba] == block_of_row[archery] < block_of_row[mid]

    expected = outcome(ALIGNED_FORMAT.read_rows, text)
    assert expected[0][1] == ("Zumba", "Archery", "Mid")
    monkeypatch.setattr(align.MinuteFormat, "read_rows", _never)
    assert outcome(read_aligned_csv, text) == expected


def test_format_of_converter_fields_round_trips_through_both_readers(monkeypatch):
    """A MinuteFormat of fields that are only a converter and a writer table
    each reads back what it wrote, row by row and as columns; the grid
    columns it has no field for read as their empty value."""
    fmt = align.MinuteFormat(
        "steps", ("user_id", "date", "minute", "steps", "activity"),
        (align.STEPS_FIELD, align.LABEL_FIELD),
    )
    grid = seeded_grid(6)
    grid.schedule[0, 0] = 0  # labels first appear in their tuple's order
    want = DayGrid.empty(grid.keys, grid.labels)
    want.steps[:], want.schedule[:] = grid.steps, grid.schedule
    text = fmt.write(grid)
    assert outcome(fmt.read_rows, text) == outcome(lambda: want)
    monkeypatch.setattr(align.MinuteFormat, "read_rows", _never)
    assert outcome(fmt.read, text) == outcome(lambda: want)


class _UnreadableText(io.TextIOWrapper):
    def read(self, size=-1):
        raise AssertionError("the columnar path must not decode a UTF-8 file")


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_utf8_file_is_read_as_bytes(texts, fmt, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(texts[fmt].encode())
    columnar, per_row = READERS[fmt]
    with open(path, "rb") as raw:
        got = outcome(lambda: columnar(_UnreadableText(raw, encoding="utf-8")))
    assert got == outcome(per_row, texts[fmt])


def test_canonical_pipeline_files_take_the_columnar_path(tmp_path, monkeypatch):
    run_golden_cohort("day", str(tmp_path))
    out = os.path.join(tmp_path, "day")
    paths = {
        "canonical/hr.csv": (parse_hr_stream, parse_hr_rows),
        "aligned/aligned.csv": (read_aligned_csv, ALIGNED_FORMAT.read_rows),
        "imputed/imputed.csv": (read_aligned_csv, ALIGNED_FORMAT.read_rows),
        "raw/truth.csv": (read_truth_csv, TRUTH_FORMAT.read_rows),
    }
    expected = {}
    for rel, (_, per_row) in paths.items():
        with open(os.path.join(out, rel), encoding="utf-8") as fh:
            expected[rel] = outcome(lambda: per_row(fh))
    monkeypatch.setattr(ingest, "parse_hr_rows", _never)
    monkeypatch.setattr(align.MinuteFormat, "read_rows", _never)
    for rel, (parse, _) in paths.items():
        with open(os.path.join(out, rel), encoding="utf-8") as fh:
            assert outcome(lambda: parse(fh)) == expected[rel], rel


def test_seeded_grid_texts_take_the_columnar_path(texts, monkeypatch):
    """The seeded aligned and truth texts (missing pulses, -0.0, and NaN and
    inf true distances) are canonical: they parse with the per-row reader
    patched away."""
    expected = {fmt: outcome(READERS[fmt][1], texts[fmt]) for fmt in ("aligned", "truth")}
    monkeypatch.setattr(align.MinuteFormat, "read_rows", _never)
    for fmt, want in expected.items():
        assert outcome(READERS[fmt][0], texts[fmt]) == want, fmt


def test_hr_files_in_key_order_skip_the_sort(tmp_path, monkeypatch):
    """synth writes raw/hr.csv and ingest canonical/hr.csv in (user,
    second, bpm) order, so neither parse sorts."""
    run_golden_cohort("day", str(tmp_path))
    out = os.path.join(tmp_path, "day")
    expected = {}
    for rel in ("raw/hr.csv", "canonical/hr.csv"):
        with open(os.path.join(out, rel), encoding="utf-8") as fh:
            expected[rel] = outcome(lambda: parse_hr_rows(fh))
    monkeypatch.setattr(np, "lexsort", _never)
    for rel in expected:
        with open(os.path.join(out, rel), encoding="utf-8") as fh:
            assert outcome(lambda: parse_hr_stream(fh)) == expected[rel], rel


def test_grid_rows_in_key_order_are_not_copied():
    """The writers emit user-days in key order, so a read reshapes its
    columns into the grid; user-days out of order are copied into order."""
    keys = [("u1", date(2024, 3, 4)), ("u1", date(2024, 3, 5)), ("u2", date(2024, 3, 4))]
    columns = {
        "pulse": np.arange(3 * MINUTES_PER_DAY, dtype=np.float64),
        "steps": np.arange(3 * MINUTES_PER_DAY),
    }
    grid = align._sorted_grid(keys, {}, columns)
    for name, values in columns.items():
        assert np.shares_memory(getattr(grid, name), values)
        np.testing.assert_array_equal(getattr(grid, name).ravel(), values)
    # columns no field filled hold their empty value
    np.testing.assert_array_equal(grid.distance_m, 0.0)
    np.testing.assert_array_equal(grid.sleep, SLEEP_CODE[SleepState.UNKNOWN])
    np.testing.assert_array_equal(grid.schedule, -1)

    reversed_columns = {
        name: values.reshape(3, MINUTES_PER_DAY)[::-1].ravel() for name, values in columns.items()
    }
    shuffled = align._sorted_grid(keys[::-1], {}, reversed_columns)
    assert shuffled.keys == tuple(keys)
    for name, values in reversed_columns.items():
        assert not np.shares_memory(getattr(shuffled, name), values)
        np.testing.assert_array_equal(getattr(shuffled, name), getattr(grid, name))
