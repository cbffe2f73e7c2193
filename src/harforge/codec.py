"""Columnar byte codecs shared by the two bulk CSV formats: heart rate
(``hr.csv``) and the per-minute grid (``aligned.csv``, ``imputed.csv``,
``truth.csv``). The per-minute files differ only in their fields: each is
an ``align.MinuteFormat``, whose one writer, columnar reader and per-row
reader are built on these codecs.

Writing: every field of a row is one entry of a small table of distinct
texts (each distinct value is formatted once). The output is made one
block of rows at a time, by copying table bytes one byte column at a time
into a byte buffer of that block's size, and handed on as UTF-8 bytes
(``join_rows``): ``core.write_text`` writes each block as it comes, so no
writer holds its whole output. The text writers, whose ``str`` results
tests compare, decode the joined blocks once (``text_of``).

Reading: a file is split into fields with numpy only when every line has
the canonical shape the writers emit: ASCII, no double quote, no control
byte other than the line feed, a final line feed and the same number of
fields on every line (so no blank line). The stream is read twice, a block
at a time, and never held whole: once to count its lines, which sizes the
columns, and once to parse them, in blocks of whole lines of about
BLOCK_BYTES, the partial last line of each read carried into the next
block. A UTF-8 file is read from its byte buffer straight into the block
and never decoded; other text streams are read and encoded a block at a
time. Each distinct field text is then converted once with the same
converter the per-row parser applies. Any file that is not in that shape,
in any block, or whose values a converter rejects, goes whole to the
format's per-row parser, which defines the format and is the only source of
error messages and line numbers.
"""

from __future__ import annotations

import codecs
import io
from itertools import chain, islice
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import csv_text, format_number

T = TypeVar("T")

#: Input bytes per block of whole lines, and output rows per block; they
#: bound the temporaries a codec holds at once.
BLOCK_BYTES = 1 << 20
BLOCK_ROWS = 1 << 15

#: Longest field, in bytes, that the byte-column loops handle. A longer
#: field sends the file it is read from to the per-row parser, and a longer
#: table text is copied into the output row by row, so no temporary grows
#: with rows x the longest field.
MAX_WIDTH = 64

_COMMA, _LF = ord(","), ord("\n")

#: Bytes no canonical line holds: control bytes other than the line feed,
#: DEL, the double quote (a quoted field is the csv module's business) and
#: every byte that is not ASCII.
FORBIDDEN = np.zeros(256, bool)
FORBIDDEN[:32] = True
FORBIDDEN[_LF] = False
FORBIDDEN[[ord('"'), 127]] = True
FORBIDDEN[128:] = True  # canonical text is ASCII


class NotCanonical(Exception):
    """The text is not in the canonical shape; parse it row by row."""


def parse_whole(
    stream: Iterable[str] | IO[str],
    header: Sequence[str],
    parse_columns: Callable[[int, Iterator[tuple[np.ndarray, np.ndarray]]], T],
    parse_rows: Callable[[Iterable[str] | IO[str]], T],
    forbidden: np.ndarray = FORBIDDEN,
) -> T:
    """``parse_columns(n, lines)`` on the rest of a seekable text stream
    when it starts with the exact header line: ``n`` is the number of line
    feeds after the header, counted in a first pass, and ``lines`` yields
    the blocks of ``split_blocks`` read in a second. Otherwise, or when
    either pass raises NotCanonical, ``parse_rows`` on the stream from the
    same position. Plain iterables of lines always go to ``parse_rows``.

    Neither pass holds more of the stream than one block (see ``_line_blocks``).
    """
    try:
        pos = stream.tell()
    except (AttributeError, OSError):
        return parse_rows(stream)
    head = (",".join(header) + "\n").encode()
    try:
        n = sum(int(np.count_nonzero(b == _LF)) for b in _line_blocks(_reader(stream, pos, head)))
        lines = split_blocks(_line_blocks(_reader(stream, pos, head)), len(header), forbidden)
        return parse_columns(n, lines)
    except NotCanonical:
        pass
    # through the end first, so a buffered stream drops what it read ahead and
    # the per-row parser reads the same chunks as from a fresh stream (a decode
    # error then names the same position)
    stream.seek(0, io.SEEK_END)
    stream.seek(pos)
    return parse_rows(stream)


def _reader(stream: IO[str], pos: int, head: bytes) -> Callable[[memoryview], int]:
    """A ``readinto`` of a text stream's bytes after the header line at
    ``pos``; NotCanonical when the stream holds another header there, or
    text that is not ASCII (or not text in its encoding). A UTF-8 file with
    no decoded text pending is read from its byte buffer: ASCII bytes are
    their own text, so nothing is decoded. Any other text stream is read a
    block of text at a time, each block encoded into the caller's buffer."""
    stream.seek(pos)  # drops any text decoded ahead of ``pos``
    buffer = getattr(stream, "buffer", None)
    utf8 = buffer is not None and codecs.lookup(stream.encoding).name == "utf-8"
    if utf8 and buffer.tell() == pos:
        if buffer.read(len(head)) != head:
            raise NotCanonical
        return buffer.readinto
    if _ascii(stream, len(head)) != head:
        raise NotCanonical

    def readinto(view: memoryview) -> int:
        data = _ascii(stream, len(view))
        view[: len(data)] = data
        return len(data)

    return readinto


def _ascii(stream: IO[str], size: int) -> bytes:
    """The next ``size`` characters of a text stream as bytes; NotCanonical
    when they are not ASCII."""
    try:
        text = stream.read(size)
    except UnicodeDecodeError:
        raise NotCanonical from None  # the per-row parser reports the error
    if not text.isascii():
        raise NotCanonical
    return text.encode("ascii")


def _line_blocks(readinto: Callable[[memoryview], int]) -> Iterator[np.ndarray]:
    """Blocks of whole lines read with ``readinto``: each ends at the last
    line feed of the next BLOCK_BYTES bytes, and the partial line after it
    starts the next block. Every block is a view of one buffer that the next
    block overwrites. Raises NotCanonical for a missing final line feed or a
    line longer than a block."""
    buf = bytearray(BLOCK_BYTES)
    view = memoryview(buf)
    have = 0
    while True:
        got = readinto(view[have:])
        have += got
        if got and have < len(buf):
            continue  # a short read: fill the block first
        end = buf.rfind(b"\n", 0, have) + 1 if got else have
        if not end:
            if got:
                raise NotCanonical  # one line longer than a block
            return
        if buf[end - 1] != _LF:
            raise NotCanonical  # no final line feed
        yield np.frombuffer(buf, np.uint8, end)
        if not got:
            return
        view[: have - end] = view[end:have]
        have -= end


def split_lines(
    data: bytes, start: int, n_fields: int, forbidden: np.ndarray = FORBIDDEN
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``split_blocks`` of the lines of ``data[start:]``, in the blocks a
    stream of the same bytes is read in."""
    buffer = io.BytesIO(data)
    buffer.seek(start)
    return split_blocks(_line_blocks(buffer.readinto), n_fields, forbidden)


def split_blocks(
    blocks: Iterable[np.ndarray], n_fields: int, forbidden: np.ndarray = FORBIDDEN
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block of whole lines with, per line, the offsets in the block of
    the ``n_fields`` bytes that end its fields (the commas and the line
    feed), as a ``(lines, n_fields)`` array. Raises NotCanonical for a byte
    marked in ``forbidden`` or a line with another number of fields.
    """
    for block in blocks:
        if forbidden[block].any():
            raise NotCanonical
        ends = np.flatnonzero((block == _COMMA) | (block == _LF))
        if len(ends) % n_fields:
            raise NotCanonical
        ends = ends.reshape(-1, n_fields)
        if (block[ends[:, :-1]] == _LF).any() or not (block[ends[:, -1]] == _LF).all():
            raise NotCanonical
        yield block, ends


def field_bounds(ends: np.ndarray, field: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets [start, end) of field ``field`` of every line of a block."""
    if field:
        return ends[:, field - 1] + 1, ends[:, field]
    return np.concatenate(([0], ends[:-1, -1] + 1)), ends[:, 0]


def distinct(
    block: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[list[bytes], np.ndarray, np.ndarray]:
    """The distinct texts of one field (bytes [start, end) of each line),
    sorted, with the line of each text's first occurrence and each line's
    index into the texts. Raises NotCanonical for a text longer than
    MAX_WIDTH."""
    length = end - start
    longest = int(length.max(initial=0))
    if longest > MAX_WIDTH:
        raise NotCanonical
    width = -(-max(longest, 1) // 8) * 8
    # each line's next ``width`` bytes, then zeros past the field's end
    padded = sliding_window_view(np.concatenate((block, np.zeros(width, np.uint8))), width)[start]
    padded[np.arange(width) >= length[:, None]] = 0
    if width == 8:
        uniq, first, inv = np.unique(
            padded.view(">u8").ravel().astype(np.uint64), return_index=True, return_inverse=True
        )
        uniq = uniq.astype(">u8").view("S8")
    else:
        uniq, first, inv = np.unique(
            padded.view(f"S{width}").ravel(), return_index=True, return_inverse=True
        )
    return uniq.tolist(), first, inv


def equal_texts(
    block: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    ref: np.ndarray,
    ref_start: np.ndarray,
    ref_end: np.ndarray,
) -> bool:
    """Whether the bytes [start, end) of each line of ``block`` are the
    bytes [ref_start, ref_end) of ``ref``, compared a byte column at a time.
    Raises NotCanonical for a text longer than MAX_WIDTH."""
    length = end - start
    longest = int(length.max(initial=0))
    if longest > MAX_WIDTH:
        raise NotCanonical
    if (ref_end - ref_start != length).any():
        return False
    shortest = int(length.min(initial=0))
    for j in range(longest):
        rows = slice(None) if j < shortest else length > j
        if (block[start[rows] + j] != ref[ref_start[rows] + j]).any():
            return False
    return True


def convert(texts: Sequence[bytes], fn: Callable[[bytes], object], dtype) -> np.ndarray:
    """``fn`` of each text as an array; NotCanonical where ``fn`` rejects one."""
    try:
        return np.array(list(map(fn, texts)), dtype)
    except (ValueError, KeyError, OverflowError):
        raise NotCanonical from None


def csv_fields(values: Iterable[str]) -> list[str]:
    """Each value as csv.writer writes it as one field of a longer row."""
    return [csv_text(("", value), ())[1:-1] for value in values]


def float_keys(values: np.ndarray) -> np.ndarray:
    """Float64 ``values`` as their int64 bit patterns, to find and look up
    distinct values: as floats -0.0 and 0.0 compare equal, but they are
    written differently."""
    return np.asarray(values, np.float64).view(np.int64)


def value_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``keys`` and the index of each key (flattened)
    into them, in the narrowest unsigned dtype that holds every index: the
    code column of a writer's table of distinct values. The indices are
    looked up BLOCK_ROWS keys at a time, so no temporary the size of
    ``keys`` is made beside the sorted copy ``np.unique`` takes."""
    keys = keys.reshape(-1)
    values = np.unique(keys)
    codes = np.empty(len(keys), np.min_scalar_type(max(len(values) - 1, 0)))
    for lo in range(0, len(keys), BLOCK_ROWS):
        codes[lo : lo + BLOCK_ROWS] = np.searchsorted(values, keys[lo : lo + BLOCK_ROWS])
    return values, codes


def number_texts(keys: np.ndarray, suffix: str, nan_text: str | None = None) -> Iterator[str]:
    """format_number of the float64 of each bit pattern in ``keys`` (see
    float_keys), followed by ``suffix``; NaN becomes ``nan_text`` when
    given. The texts are made as they are iterated."""
    values = keys.view(np.float64)
    nan = np.isnan(values)
    bad = np.isinf(values) | (nan if nan_text is None else False)
    if bad.any():
        format_number(float(values[bad][0]))  # raises the serializer's error
    return chain.from_iterable(
        [(nan_text if value != value else repr(value)) + suffix for value in chunk.tolist()]
        for chunk in np.split(values, range(BLOCK_ROWS, len(values), BLOCK_ROWS))
    )


def join_rows(
    header: str,
    tables: Iterable[Iterable[str]],
    blocks: Iterable[Sequence[np.ndarray]],
) -> Iterator[bytes | memoryview]:
    """The UTF-8 CSV bytes of the line ``header`` and the rows whose row i
    is ``tables[f][codes[f][i]]`` concatenated over the fields f (each table
    text carries its own trailing separator), one chunk per item of
    ``blocks``, which yields the code arrays of one block of rows. Each
    table is encoded as it comes, so when ``tables`` is a generator no
    table's texts outlive their encoding; a block's bytes are the only
    copy of its rows, made as the block is asked for."""
    encoded = [_byte_table(table) for table in tables]
    yield header.encode("utf-8")
    for codes in blocks:
        yield _fill_rows(encoded, codes).data


def text_of(chunks: Iterable[bytes | memoryview]) -> str:
    """The text of UTF-8 byte chunks (``join_rows``), decoded once."""
    return str(b"".join(chunks), "utf-8")


def _fill_rows(
    tables: Sequence[tuple[np.ndarray, np.ndarray, dict[int, bytes]]],
    codes: Sequence[np.ndarray],
) -> np.ndarray:
    """The bytes of the rows of one block of codes into the byte tables
    (see join_rows and _byte_table)."""
    lengths = [length[c] for (_, length, _), c in zip(tables, codes)]
    row_length = sum(lengths)
    at = np.cumsum(row_length) - row_length
    out = np.empty(int(row_length.sum()), np.uint8)
    for (matrix, _, long), c, n in zip(tables, codes, lengths):
        shortest = int(n.min(initial=0))
        for j in range(min(int(n.max(initial=0)), matrix.shape[1])):
            if j < shortest:
                out[at + j] = matrix[c, j]
            else:
                rows = n > j
                out[at[rows] + j] = matrix[c[rows], j]
        if long:
            for i in np.flatnonzero(n > matrix.shape[1]).tolist():
                text = long[int(c[i])]
                out[at[i] : at[i] + len(text)] = np.frombuffer(text, np.uint8)
        at += n
    return out


def _byte_table(texts: Iterable[str]) -> tuple[np.ndarray, np.ndarray, dict[int, bytes]]:
    """A table's UTF-8 texts as a ``(texts, width)`` byte matrix holding at
    most MAX_WIDTH bytes of each, the byte length of each, and the whole
    bytes of each text longer than the matrix is wide. The texts are taken
    BLOCK_ROWS at a time and each chunk is encoded as one bytes object, so a
    table given as an iterator is never a list of ``str``, and its bytes live
    only while the matrix is filled."""
    parts, lengths = [], [np.zeros(0, np.int64)]
    texts = iter(texts)
    while chunk := list(islice(texts, BLOCK_ROWS)):
        parts.append("".join(chunk).encode("utf-8"))
        length = np.fromiter(map(len, chunk), np.int64, len(chunk))
        if length.sum() != len(parts[-1]):  # some text is not ASCII: count its bytes
            length = np.fromiter((len(t.encode("utf-8")) for t in chunk), np.int64, len(chunk))
        lengths.append(length)
    length = np.concatenate(lengths)
    width = min(max(int(length.max(initial=0)), 1), MAX_WIDTH)
    matrix = np.zeros((len(length), width), np.uint8)
    long = {}
    first = 0
    for part, n in zip(parts, lengths[1:]):
        data = np.frombuffer(part, np.uint8)
        start = np.cumsum(n) - n
        rows = matrix[first : first + len(n)]
        shortest = int(n.min())
        for j in range(min(int(n.max()), width)):
            have = slice(None) if j < shortest else n > j
            rows[have, j] = data[start[have] + j]
        for k in np.flatnonzero(n > width).tolist():
            long[first + k] = part[start[k] : start[k] + n[k]]
        first += len(n)
    return matrix, length, long
