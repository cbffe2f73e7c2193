"""The bulk CSV formats stream: they are read and written a block at a time.

- Reading: a file is counted, then parsed in blocks of whole lines read
  from its buffer, the partial last line of each read carried into the
  next block. Lines that straddle read boundaries parse as the per-row
  parsers parse them; a non-canonical row in the last block still sends
  the whole stream to the per-row parser, with its message and line; a
  StringIO and a stream in another encoding than UTF-8 still take the
  columnar path.
- Writing: ``core.write_text`` takes the byte chunks of a writer as they
  come; a chunk source that fails leaves the old file whole, and the
  chunks of every bulk format are the bytes of its text writer.
- Memory: reading or writing an HR file of 8 MB peaks at its columns plus
  a few blocks under tracemalloc, not at the size of the file.
"""

import io
import os
import tracemalloc

import numpy as np
import pytest

from harforge import align, codec, ingest
from harforge.align import ALIGNED_FORMAT
from harforge.core import write_text
from harforge.ingest import HrStream, hr_chunks, parse_hr_stream, serialize_hr_stream
from harforge.synth import TRUTH_FORMAT

from test_codec import _never, outcome, seeded_grid, seeded_hr, seeded_truth, set_field

#: A read block that ends inside a line of every format.
SMALL_BLOCK = 1000

#: Per format: its data, its text writer, its chunk writer, its reader, its
#: per-row reader, and where that is looked up (patched away to prove that
#: the columnar path read).
FORMATS = {
    "hr": (
        lambda: seeded_hr(4),
        serialize_hr_stream,
        lambda hr: hr_chunks(hr.users, hr.user, hr.second, hr.bpm),
        parse_hr_stream,
        ingest.parse_hr_rows,
        (ingest, "parse_hr_rows"),
    ),
    "aligned": (
        lambda: seeded_grid(4),
        ALIGNED_FORMAT.write,
        ALIGNED_FORMAT.chunks,
        ALIGNED_FORMAT.read,
        ALIGNED_FORMAT.read_rows,
        (align.MinuteFormat, "read_rows"),
    ),
    "truth": (
        lambda: seeded_truth(4),
        TRUTH_FORMAT.write,
        TRUTH_FORMAT.chunks,
        TRUTH_FORMAT.read,
        TRUTH_FORMAT.read_rows,
        (align.MinuteFormat, "read_rows"),
    ),
}

#: A field of the last row that the per-row parser rejects, per format.
BAD_LAST_ROW = {
    "hr": set_field(-1, 2, "0"),
    "aligned": set_field(-1, 6, "asleep"),
    "truth": set_field(-1, 3, "asleep"),
}


def open_text(path, kind):
    if kind == "StringIO":
        return io.StringIO(path.read_text(encoding="utf-8"))
    return open(path, encoding=kind, newline="")


@pytest.mark.parametrize("kind", ["utf-8", "StringIO", "latin-1", "utf-16"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_lines_across_read_blocks_parse_as_the_per_row_parser(fmt, kind, tmp_path, monkeypatch):
    """Canonical text in blocks that end inside lines reads as columns, to
    what the per-row parser reads, from a UTF-8 file's bytes, a StringIO and
    files in other encodings alike."""
    make, write, _, read, read_rows, (owner, name) = FORMATS[fmt]
    text = write(make())
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8" if kind == "StringIO" else kind))
    data = text.encode()
    start = data.index(b"\n") + 1
    monkeypatch.setattr(codec, "BLOCK_BYTES", SMALL_BLOCK)
    n_fields = text.count(",", 0, start) + 1
    blocks = [len(block) for block, _ in codec.split_lines(data, start, n_fields)]
    assert sum(blocks) == len(data) - start and len(blocks) > 3
    assert any(size < SMALL_BLOCK for size in blocks[:-1])  # a line was carried over

    with open_text(path, kind) as fh:
        want = outcome(lambda: read_rows(fh))
    monkeypatch.setattr(owner, name, _never)
    with open_text(path, kind) as fh:
        assert outcome(lambda: read(fh)) == want


@pytest.mark.parametrize("kind", ["utf-8", "StringIO"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_bad_row_in_the_last_block_falls_back_to_the_per_row_parser(
    fmt, kind, tmp_path, monkeypatch
):
    """Every earlier block is canonical; the whole stream still goes to the
    per-row parser, whose message names the last line."""
    make, write, _, read, read_rows, _ = FORMATS[fmt]
    text = BAD_LAST_ROW[fmt](write(make()))
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(codec, "BLOCK_BYTES", SMALL_BLOCK)
    with open_text(path, kind) as fh:
        got = outcome(lambda: read(fh))
    with open_text(path, kind) as fh:
        assert got == outcome(lambda: read_rows(fh))
    last = text.count("\n")
    assert issubclass(got[0], ValueError)
    assert f"line {last}:" in got[1] or f"row {last}:" in got[1]


def test_a_line_longer_than_a_read_block_is_read_row_by_row(monkeypatch):
    """Every other line fits in a 48-byte block; the one that does not
    sends the stream to the per-row parser."""
    text = set_field(3, 0, "u" * 40)(serialize_hr_stream(seeded_hr(1)))
    lines = text.splitlines(keepends=True)
    assert max(len(line) for i, line in enumerate(lines) if i != 3) < 48 < len(lines[3])
    want = outcome(ingest.parse_hr_rows, text)
    monkeypatch.setattr(codec, "BLOCK_BYTES", 48)
    with pytest.raises(codec.NotCanonical):
        list(codec.split_lines(text.encode(), text.index("\n") + 1, 3))
    assert outcome(parse_hr_stream, text) == want


class TestChunkedWrite:
    def test_failing_chunks_keep_the_old_file(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_bytes(b"old\n")

        def chunks():
            for _ in range(3):
                yield b"new\n" * 1000
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            write_text(str(path), chunks())
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["hr.csv"]

    def test_bytes_and_memoryview_chunks(self, tmp_path):
        path = tmp_path / "out" / "data.csv"
        write_text(str(path), iter([b"a,", memoryview(np.frombuffer(b"b\n", np.uint8))]))
        assert path.read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_chunks_are_the_bytes_of_the_text_writer(self, fmt, tmp_path, monkeypatch):
        """Several blocks of rows, users and labels that need quoting and a
        user that is not ASCII."""
        monkeypatch.setattr(codec, "BLOCK_ROWS", 700)
        users = ("u1", "u,2", "üser 3")
        data = {
            "hr": lambda: seeded_hr(5, users=users),
            "aligned": lambda: seeded_grid(5, users=users, labels=("Drill, night", 'q"x')),
            "truth": lambda: seeded_truth(5, users=users, labels=("Drill", "Drill, night")),
        }[fmt]()
        _, write, chunks, *_ = FORMATS[fmt]
        path = tmp_path / "data.csv"
        write_text(str(path), chunks(data))
        assert len(list(chunks(data))) > 3
        assert path.read_bytes() == write(data).encode("utf-8")


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_bulk_hr_file_is_read_and_written_in_blocks(tmp_path):
    """One parse and one chunked write of an 8 MB HR file each peak under
    the size of its three columns plus six blocks: the read buffer, the
    field offsets and the per-line temporaries of one block. Holding the
    file's bytes or text once more (9 MB) takes either over the bound."""
    n = 280_000
    rng = np.random.default_rng(12)
    users = tuple(f"u{i:03d}" for i in range(20))
    user = np.repeat(np.arange(20), n // 20)
    day_second = np.sort(rng.choice(30 * 86400, (20, n // 20)), axis=1)
    day_second[:, 1:] += np.arange(1, n // 20)  # strictly increasing per user
    second = 1709424000 + day_second.ravel()
    bpm = np.round(rng.uniform(40, 190, n), 2)
    hr = HrStream(users, user, second.astype(np.int64), bpm)
    columns = user.nbytes + second.nbytes + bpm.nbytes
    bound = columns + 6 * codec.BLOCK_BYTES
    path = tmp_path / "hr.csv"

    _, peak = _traced_peak(lambda: write_text(str(path), hr_chunks(users, user, hr.second, bpm)))
    assert path.stat().st_size >= 8 * 2**20
    assert peak < bound, (peak, bound)

    def parse():
        with open(path, encoding="utf-8") as fh:
            return parse_hr_stream(fh)

    got, peak = _traced_peak(parse)
    assert peak < bound, (peak, bound)
    assert got.users == users
    for name in ("user", "second", "bpm"):
        assert np.array_equal(getattr(got, name), getattr(hr, name)), name
