"""Columnar byte codecs shared by the two bulk CSV formats: heart rate
(``hr.csv``) and the per-minute grid (``aligned.csv``, ``imputed.csv``,
``truth.csv``). The per-minute files differ only in their fields: each is
an ``align.MinuteFormat``, whose one writer, columnar reader and per-row
reader are built on these codecs.

Writing: every field of a row is one entry of a small table of distinct
texts (each distinct value is formatted once), and the output is built by
copying table bytes into one byte buffer of the output's size, one block of
rows and one byte column at a time; the text is decoded from that buffer
once, so a writer holds at most one copy of its output beside the returned
text.

Reading: a file is split into fields with numpy only when every line has
the canonical shape the writers emit: ASCII, no double quote, no control
byte other than the line feed, a final line feed and the same number of
fields on every line (so no blank line). A UTF-8 file is read as bytes from
its byte buffer and never decoded; other text streams are read and encoded
a block at a time. Each distinct field text is then converted once with the
same converter the per-row parser applies. Any file that is not in that
shape, or whose values a converter rejects, goes whole to the format's
per-row parser, which defines the format and is the only source of error
messages and line numbers.
"""

from __future__ import annotations

import codecs
import csv
import io
from itertools import chain, islice
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import format_number

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
#: DEL and the double quote (a quoted field is the csv module's business).
FORBIDDEN = np.zeros(256, bool)
FORBIDDEN[:32] = True
FORBIDDEN[_LF] = False
FORBIDDEN[[ord('"'), 127]] = True


class NotCanonical(Exception):
    """The text is not in the canonical shape; parse it row by row."""


def parse_whole(
    stream: Iterable[str] | IO[str],
    header: Sequence[str],
    parse_columns: Callable[[list[bytes], int], T],
    parse_rows: Callable[[Iterable[str] | IO[str]], T],
) -> T:
    """``parse_columns(rest, start)`` on the rest of a seekable text stream
    as bytes, when it is ASCII and starts with the exact header line (data
    rows begin at byte ``start``); otherwise, or when ``parse_columns``
    raises NotCanonical, ``parse_rows`` on the stream from the same
    position. Plain iterables of lines always go to ``parse_rows``.

    ``rest`` is a list holding the bytes as its only item and their only
    reference: ``parse_columns`` pops them, so it can drop them before it
    builds its result. The file is held once, as bytes (see ``_ascii_rest``).
    """
    try:
        pos = stream.tell()
    except (AttributeError, OSError):
        return parse_rows(stream)
    head = (",".join(header) + "\n").encode()
    rest = [_ascii_rest(stream, pos)]
    if rest[0] is not None and rest[0].startswith(head):
        try:
            return parse_columns(rest, len(head))
        except NotCanonical:
            pass
    rest.clear()  # the per-row parse reads the stream again
    stream.seek(pos)
    return parse_rows(stream)


def _ascii_rest(stream: IO[str], pos: int) -> bytes | None:
    """The rest of a text stream from ``pos``, as bytes, or None when it is
    not ASCII (or not text in its encoding). A UTF-8 file with no decoded
    text pending is read from its byte buffer: ASCII bytes are their own
    text, so nothing is decoded. Any other text stream is read a block of
    text at a time, each block encoded and dropped, so no ``str`` of the
    whole stream is built either way."""
    buffer = getattr(stream, "buffer", None)
    if buffer is not None and codecs.lookup(stream.encoding).name == "utf-8":
        stream.seek(pos)  # drops any text decoded ahead of ``pos``
        if buffer.tell() == pos:
            data = buffer.read()
            return data if data.isascii() else None
    parts = []
    try:
        while text := stream.read(BLOCK_BYTES):
            if not text.isascii():
                return None
            parts.append(text.encode("ascii"))
    except UnicodeDecodeError:
        return None  # the per-row parser reports the error
    return b"".join(parts)


def split_lines(
    data: bytes, start: int, n_fields: int, forbidden: np.ndarray = FORBIDDEN
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of whole lines of ``data[start:]``, about BLOCK_BYTES each.

    Yields ``(block, ends)``: the block's bytes and, per line, the offsets in
    the block of the ``n_fields`` bytes that end its fields (the commas and
    the line feed), as a ``(lines, n_fields)`` array. Raises NotCanonical
    for a missing final line feed, a byte marked in ``forbidden`` or a line
    with another number of fields.
    """
    if not data.endswith(b"\n") and len(data) > start:
        raise NotCanonical
    arr = np.frombuffer(data, np.uint8)
    lo = start
    while lo < len(data):
        hi = data.rfind(b"\n", lo, lo + BLOCK_BYTES) + 1
        if hi <= lo:
            raise NotCanonical  # one line longer than a block
        block = arr[lo:hi]
        if forbidden[block].any():
            raise NotCanonical
        ends = np.flatnonzero((block == _COMMA) | (block == _LF))
        if len(ends) % n_fields:
            raise NotCanonical
        ends = ends.reshape(-1, n_fields)
        if (block[ends[:, :-1]] == _LF).any() or not (block[ends[:, -1]] == _LF).all():
            raise NotCanonical
        yield block, ends
        lo = hi


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
    fields = []
    for value in values:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(("", value))
        fields.append(buf.getvalue()[1:-1])
    return fields


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
    blocks: Callable[[], Iterable[Sequence[np.ndarray]]],
) -> str:
    """CSV text of the line ``header`` and the rows whose row i is
    ``tables[f][codes[f][i]]`` concatenated over the fields f (each table
    text carries its own trailing separator). ``blocks()`` yields the code
    arrays of one block of rows at a time; it is called twice, once to size
    the output and once to fill it. Each table is encoded as it comes, so
    when ``tables`` is a generator no table's texts outlive their encoding.
    The rows are copied into one byte buffer of the output's size, decoded
    once: it is the only copy of the output beside the returned text."""
    encoded = [_byte_table(table) for table in tables]
    head = np.frombuffer(header.encode("utf-8"), np.uint8)
    size = len(head) + sum(
        int(length[c].sum()) for codes in blocks() for (_, length, _), c in zip(encoded, codes)
    )
    out = np.empty(size, np.uint8)
    out[: len(head)] = head
    _fill_rows(out, len(head), encoded, blocks())
    del encoded
    return str(out, "utf-8")


def _fill_rows(
    out: np.ndarray,
    offset: int,
    tables: Sequence[tuple[np.ndarray, np.ndarray, dict[int, bytes]]],
    blocks: Iterable[Sequence[np.ndarray]],
) -> None:
    """Write into ``out``, from byte ``offset`` on, the rows of each block
    of codes into the byte tables (see join_rows and _byte_table)."""
    for codes in blocks:
        lengths = [length[c] for (_, length, _), c in zip(tables, codes)]
        row_length = sum(lengths)
        at = np.cumsum(row_length) - row_length + offset
        offset += int(row_length.sum())
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
