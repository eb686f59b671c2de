"""Transfer-log ingestion: parsing, filtering, and aggregation into links.

The raw input is a delimited text file with one transfer per line:

    timestamp, source_id, destination_id, amount_yen,
    source_kind, destination_kind,
    source_lat, source_lon, dest_lat, dest_lon

Coordinates may be empty.  Amounts are integer yen; a valid transfer moves
at least 1 yen.  Transfers are held in a :class:`TransferTable`, one array
per field over a sorted account-id vocabulary, so no step builds an object
per event.  :func:`parse_log` reads the log in chunks of lines.  Each chunk
is joined into one string whose code points (one byte each for ASCII,
UTF-32 otherwise) locate every delimiter.  Lines of the canonical shape
the generator writes are read at those offsets: timestamp and amount
digits straight from the code points, and only the two ids and the tail
``source_kind,...,dest_lon`` as strings.  Ids are coded through one
vocabulary, and each distinct tail is parsed once through a memo that
holds about one tail per link and starts over past a bound, so its size
follows links, not events.  Every other line goes through the per-line
parser, which owns the rejection reasons.  Filtering is a mask over the
table; aggregation collapses all transfers of each ordered account pair
(i, j) into a single link carrying the total flow and the transfer count.
Links are held in a :class:`~moneyflow.network.FlowNetwork`, the link
table.
"""

from __future__ import annotations

import csv
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime
from itertools import chain, compress, count, filterfalse, islice, repeat
from typing import IO, Iterable, Iterator

import numpy as np

from .network import AggregatedLink, FlowNetwork, _exact_ints

__all__ = [
    "TransferRecord",
    "TransferTable",
    "FilterPolicy",
    "AggregatedLink",
    "RejectedLine",
    "ParseError",
    "parse_log",
    "filter_records",
    "aggregate",
    "write_records",
    "write_links",
    "read_links",
    "collect_node_coords",
    "write_node_coords",
    "read_node_coords",
]

KINDS = ("firm", "household", "external")
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
_FIRM = _KIND_CODE["firm"]
_EXTERNAL = _KIND_CODE["external"]

COLUMNS = (
    "timestamp",
    "source_id",
    "destination_id",
    "amount_yen",
    "source_kind",
    "destination_kind",
    "source_lat",
    "source_lon",
    "dest_lat",
    "dest_lon",
)

INT64_MAX = 2**63 - 1
TIME_DTYPE = np.dtype("datetime64[us]")

# Lines per parse chunk and rows per write or iteration chunk.  A parse
# chunk holds about 740 B of transients per line of a walnut log (line
# strings, ids and tails sliced out, code points, gather indices; traced
# with tracemalloc), so 8,192 lines keep them near 6 MB.  65,536 lines
# held ~50 MB and parsed no faster.
CHUNK_LINES = 1 << 13

# Tails the parse memo holds beyond four per account before it starts over;
# set apart from CHUNK_LINES so the chunk size does not change how often a
# log with many distinct tails per account refills the memo.
_MEMO_SLACK = 1 << 16


@dataclass(frozen=True)
class TransferRecord:
    """One raw remittance event.

    Invariants:
    - amount >= 1 (zero-amount lines are rejected at parse time)
    - kinds are one of "firm", "household", "external"
    """

    timestamp: datetime
    source: str
    destination: str
    amount: int
    source_kind: str = "firm"
    destination_kind: str = "firm"
    source_coord: tuple[float, float] | None = None
    destination_coord: tuple[float, float] | None = None


_COLUMN_DTYPES = {
    "src": np.int32,
    "dst": np.int32,
    "amount": np.int64,
    "timestamp": TIME_DTYPE,
    "src_kind": np.int8,
    "dst_kind": np.int8,
    "src_coord": np.float64,
    "dst_coord": np.float64,
    "src_has_coord": np.bool_,
    "dst_has_coord": np.bool_,
}


@dataclass(frozen=True, eq=False, repr=False)
class TransferTable:
    """Transfers as one read-only array per field, in log order.

    ``ids`` is the sorted account-id vocabulary (an object array of str),
    and ``src``/``dst`` are int32 codes into it, so code order is id
    order.  ``amount`` is int64 yen, ``timestamp`` naive datetime64[us],
    ``src_kind``/``dst_kind`` int8 codes into :data:`KINDS`.  Coordinates
    are float64 (n, 2) lat/lon arrays with a presence mask; a missing
    coordinate is stored as (0.0, 0.0) with its mask False, so it stays
    distinct from a parsed nan.

    ``len`` is the transfer count and iteration yields one
    :class:`TransferRecord` per transfer.  Two tables are ``==`` when they
    compare equal column by column, with nan coordinates equal.
    """

    ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    amount: np.ndarray
    timestamp: np.ndarray
    src_kind: np.ndarray
    dst_kind: np.ndarray
    src_coord: np.ndarray
    dst_coord: np.ndarray
    src_has_coord: np.ndarray
    dst_has_coord: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=object).reshape(-1)
        if ids.size > 1 and not np.all(ids[:-1] < ids[1:]):
            raise ValueError("account ids must be sorted and distinct")
        object.__setattr__(self, "ids", ids)
        n = np.asarray(self.src).shape[0]
        for name, dtype in _COLUMN_DTYPES.items():
            col = np.asarray(getattr(self, name), dtype=dtype)
            shape = (n, 2) if name in ("src_coord", "dst_coord") else (n,)
            if col.shape != shape:
                raise ValueError(f"column {name} has shape {col.shape}, expected {shape}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        ids.flags.writeable = False

    @classmethod
    def from_codes(cls, ids: Sequence[str], src, dst, **columns) -> TransferTable:
        """Table over distinct ``ids`` in any order, codes indexing them.

        Keeps the ids the codes use, sorts them and renumbers the codes.
        """
        ids = np.array(list(ids), dtype=object).reshape(-1)
        ids, src, dst = _compact(ids, np.asarray(src), np.asarray(dst), np.int32)
        return cls(ids=ids, src=src, dst=dst, **columns)

    def take(self, rows) -> TransferTable:
        """The rows selected by an index array or boolean mask, same ids."""
        return TransferTable(
            ids=self.ids, **{name: getattr(self, name)[rows] for name in _COLUMN_DTYPES}
        )

    def __len__(self) -> int:
        return self.src.shape[0]

    def __iter__(self) -> Iterator[TransferRecord]:
        for lo in range(0, len(self), CHUNK_LINES):
            yield from self._records(lo, lo + CHUNK_LINES)

    def _records(self, lo: int, hi: int) -> Iterator[TransferRecord]:
        rows = slice(lo, hi)
        kinds = np.array(KINDS, dtype=object)
        for ts, s, d, amount, sk, dk, sc, dc, sh, dh in zip(
            self.timestamp[rows].tolist(),
            self.ids[self.src[rows]].tolist(),
            self.ids[self.dst[rows]].tolist(),
            self.amount[rows].tolist(),
            kinds[self.src_kind[rows]].tolist(),
            kinds[self.dst_kind[rows]].tolist(),
            self.src_coord[rows].tolist(),
            self.dst_coord[rows].tolist(),
            self.src_has_coord[rows].tolist(),
            self.dst_has_coord[rows].tolist(),
        ):
            yield TransferRecord(
                timestamp=ts,
                source=s,
                destination=d,
                amount=amount,
                source_kind=sk,
                destination_kind=dk,
                source_coord=tuple(sc) if sh else None,
                destination_coord=tuple(dc) if dh else None,
            )

    def __eq__(self, other):
        if not isinstance(other, TransferTable):
            return NotImplemented
        names = ("amount", "timestamp", "src_kind", "dst_kind", "src_has_coord", "dst_has_coord")
        if not all(np.array_equal(a, b) for a, b in (
            (self.ids[self.src], other.ids[other.src]),
            (self.ids[self.dst], other.ids[other.dst]),
            *((getattr(self, name), getattr(other, name)) for name in names),
        )):
            return False
        return all(
            np.array_equal(getattr(self, coord)[mask], getattr(other, coord)[mask], equal_nan=True)
            for coord, mask in (("src_coord", self.src_has_coord), ("dst_coord", self.dst_has_coord))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"TransferTable({len(self)} transfers, {self.ids.size} accounts)"


def _compact(ids: np.ndarray, src: np.ndarray, dst: np.ndarray, dtype=np.int64):
    """(the ids the codes use, sorted; src and dst renumbered into them as ``dtype``)."""
    used = np.zeros(ids.size, dtype=bool)
    used[src] = True
    used[dst] = True
    kept = np.flatnonzero(used)
    order = kept[np.argsort(ids[kept], kind="stable")]
    code = np.zeros(ids.size, dtype=dtype)
    code[order] = np.arange(order.size)
    return ids[order], code[src], code[dst]


class _Vocabulary:
    """Account ids seen so far, each with a distinct int32 code.

    Codes are dense, in first-seen order, and a batch of ids is coded in
    one C-level loop; a batch with new ids adds them first.  Ids that only
    rejected lines use keep their codes; :func:`_compact` drops them.
    """

    def __init__(self):
        self._code_of: dict[str, int] = {}
        self._checked = 0
        self._bad: list[int] = []

    def __len__(self) -> int:
        return len(self._code_of)

    def codes(self, ids: Sequence[str]) -> np.ndarray:
        code_of = self._code_of
        try:
            return np.fromiter(map(code_of.__getitem__, ids), dtype=np.int32, count=len(ids))
        except KeyError:
            unseen = list(filterfalse(code_of.__contains__, dict.fromkeys(ids)))
            code_of.update(zip(unseen, count(len(code_of))))
            return self.codes(ids)

    def noncanonical(self) -> np.ndarray:
        """Codes of the ids so far that are empty or padded with whitespace."""
        for name, code in islice(self._code_of.items(), self._checked, None):
            if not name or name != name.strip():
                self._bad.append(code)
        self._checked = len(self._code_of)
        return np.array(self._bad, dtype=np.int32)

    def ids(self) -> np.ndarray:
        """The ids seen so far, at their codes."""
        return np.array(list(self._code_of), dtype=object)


def _record_columns(records: list[TransferRecord], vocab: _Vocabulary) -> dict:
    """Table columns of records from :func:`_parse_line`, coding ids through ``vocab``.

    The parser has refused what a table cannot hold: an unknown kind, an
    amount outside int64 and a timestamp with a UTC offset.
    """
    columns = {
        "src": vocab.codes([r.source for r in records]),
        "dst": vocab.codes([r.destination for r in records]),
        "amount": [r.amount for r in records],
        "timestamp": [r.timestamp for r in records],
        "src_kind": [_KIND_CODE[r.source_kind] for r in records],
        "dst_kind": [_KIND_CODE[r.destination_kind] for r in records],
    }
    for side, attr in (("src", "source_coord"), ("dst", "destination_coord")):
        coords = [getattr(r, attr) for r in records]
        columns[f"{side}_has_coord"] = [c is not None for c in coords]
        columns[f"{side}_coord"] = np.array(
            [(0.0, 0.0) if c is None else c for c in coords], dtype=np.float64
        ).reshape(-1, 2)
    return {name: np.asarray(columns[name], dtype=dtype) for name, dtype in _COLUMN_DTYPES.items()}


@dataclass(frozen=True)
class FilterPolicy:
    """Which record-level predicates are enforced.

    All three enabled is the reference configuration: keep a transfer only
    when both endpoints are in-bank, both are firm accounts, and the two
    endpoints differ.
    """

    require_intra_bank: bool = True
    require_firm_both_ends: bool = True
    drop_self_loops: bool = True


@dataclass(frozen=True)
class RejectedLine:
    """Diagnostic for an input line that could not be parsed."""

    line_no: int
    reason: str


class ParseError(ValueError):
    """Raised in strict mode when a line cannot be parsed."""


def _parse_coord(lat_s: str, lon_s: str) -> tuple[float, float] | None:
    lat_s = lat_s.strip()
    lon_s = lon_s.strip()
    if not lat_s and not lon_s:
        return None
    if not lat_s or not lon_s:
        raise ValueError("latitude and longitude must both be present or both empty")
    return (float(lat_s), float(lon_s))


def _parse_line(parts: Sequence[str]) -> TransferRecord:
    """The reference parse of one split line; raises ValueError with the reason."""
    if len(parts) != len(COLUMNS):
        raise ValueError(f"expected {len(COLUMNS)} fields, got {len(parts)}")
    ts_s = parts[0].strip()
    ts = datetime.fromisoformat(ts_s)
    if ts.tzinfo is not None:
        raise ValueError(f"timestamp {ts_s!r} has a UTC offset; only naive times are accepted")
    source = parts[1].strip()
    destination = parts[2].strip()
    if not source or not destination:
        raise ValueError("source_id and destination_id are required")
    amount_s = parts[3].strip()
    try:
        amount = int(amount_s)
    except ValueError:
        raise ValueError(f"non-integer amount {amount_s!r}") from None
    if amount < 1:
        raise ValueError(f"amount must be >= 1 yen, got {amount}")
    if amount > INT64_MAX:
        raise ValueError(f"amount {amount} exceeds the int64 range")
    source_kind = parts[4].strip()
    destination_kind = parts[5].strip()
    for kind in (source_kind, destination_kind):
        if kind not in KINDS:
            raise ValueError(f"unknown party kind {kind!r}")
    return TransferRecord(
        timestamp=ts,
        source=source,
        destination=destination,
        amount=amount,
        source_kind=source_kind,
        destination_kind=destination_kind,
        source_coord=_parse_coord(parts[6], parts[7]),
        destination_coord=_parse_coord(parts[8], parts[9]),
    )


class _ChunkedLines:
    """A stream's lines, taken a chunk at a time.

    Iterating yields the rest of the current chunk from ``pos`` on, then
    the stream itself, so a csv reader over it can continue a quoted
    field past the end of a chunk.
    """

    def __init__(self, stream: Iterable[str]):
        self._stream = iter(stream)
        self.chunk: list[str] = []
        self.pos = 0

    def next_chunk(self, size: int) -> list[str]:
        self.chunk = list(islice(self._stream, size))
        self.pos = 0
        return self.chunk

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if self.pos < len(self.chunk):
            self.pos += 1
            return self.chunk[self.pos - 1]
        return next(self._stream)


_TS_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}
# Character positions of the digits of a YYYY-MM-DDTHH:MM:SS timestamp.
_TS_DIGITS = np.array([k for k in range(19) if k not in _TS_SEPARATORS])
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# Place values of a right-aligned amount of up to 18 digits.
_AMOUNT_PLACES = 10 ** np.arange(17, -1, -1, dtype=np.int64)


def _lengths(col: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(len, col), dtype=np.int64, count=len(col))


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text``, one array item per ``str`` index."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _gather(chars: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Code points ``starts[k] + 0..width-1`` of each row, clipped to ``chars``."""
    return np.take(chars, starts[:, None] + np.arange(width), mode="clip")


def _canonical_times(chars: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """(datetime64 values, ok) of fields that are YYYY-MM-DDTHH:MM:SS naming a real time."""
    text = _gather(chars, starts, 19)
    ok = lengths == 19
    for pos, sep in _TS_SEPARATORS.items():
        ok &= text[:, pos] == ord(sep)
    # unsigned, so every code point that is no ASCII digit reads above 9
    digits = text[:, _TS_DIGITS] - ord("0")
    ok &= (digits <= 9).all(axis=1)
    digits = digits.astype(np.int64)
    year = digits[:, 0] * 1000 + digits[:, 1] * 100 + digits[:, 2] * 10 + digits[:, 3]
    month, day, hour, minute, second = (
        digits[:, k] * 10 + digits[:, k + 1] for k in range(4, 14, 2)
    )
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 1, 12) - 1] + ((month == 2) & leap)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    stamps = months.astype("datetime64[D]") + np.where(ok, day - 1, 0)
    seconds = np.where(ok, (hour * 60 + minute) * 60 + second, 0)
    return stamps.astype(TIME_DTYPE) + seconds.astype("timedelta64[s]"), ok


def _canonical_amounts(chars: np.ndarray, ends: np.ndarray, lengths: np.ndarray):
    """(int64 values, ok) of fields of 1-18 ASCII digits without a leading zero."""
    width = int(np.clip(lengths.max(), 1, 18))  # longer fields are not ok
    digits = _gather(chars, ends - width, width) - ord("0")  # unsigned, as in _canonical_times
    lead = np.clip(width - lengths, 0, width - 1)
    inside = np.arange(width) >= lead[:, None]
    ok = (lengths >= 1) & (lengths <= 18)
    ok &= ((digits <= 9) | ~inside).all(axis=1)
    ok &= digits[np.arange(ends.size), lead] != 0
    values = np.where(inside, digits, 0).astype(np.int64) @ _AMOUNT_PLACES[-width:]
    return np.where(ok, values, 0), ok


def _to_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


class _Tails:
    """Kinds and coordinates of canonical lines, parsed once per distinct tail.

    A tail is a line's text from ``source_kind`` to ``dest_lon``.  It is
    ok when both kinds are known and each coordinate pair is both empty or
    both parsed by float(), which ignores surrounding whitespace as the
    per-line parser's strip does; a coordinate is present when nonempty.
    Tails repeat with their link, so the memo holds about one per link.
    It starts over after a chunk leaves it above :meth:`bound`, four tails
    per account of ``vocab`` plus :data:`_MEMO_SLACK`, which bounds it on
    logs whose tails never repeat.
    """

    def __init__(self, vocab: _Vocabulary, delimiter: str):
        self._vocab = vocab
        self._delimiter = delimiter
        self._start_over()

    def _start_over(self):
        self._row_of: dict[str, int] = {}
        self._kinds = np.empty((0, 2), dtype=np.int8)
        self._coords = np.empty((0, 4))
        self._present = np.empty((0, 2), dtype=bool)
        self._ok = np.empty(0, dtype=bool)

    def __len__(self) -> int:
        return len(self._row_of)

    def bound(self) -> int:
        return 4 * len(self._vocab) + _MEMO_SLACK

    def _add(self, tails: list[str]) -> None:
        m = len(tails)
        fields = self._delimiter.join(tails).split(self._delimiter)
        kinds = np.column_stack([
            np.fromiter(map(_KIND_CODE.get, fields[k::6], repeat(-1)), dtype=np.int8, count=m)
            for k in (0, 1)
        ])
        known = (kinds >= 0).all(axis=1)
        # the four coordinate columns one after another; those of tails
        # with an unknown kind, such as a header's, are not read
        texts = list(chain.from_iterable(fields[k::6] for k in range(2, 6)))
        present = np.fromiter(map(bool, texts), dtype=bool, count=4 * m)
        read = present & np.tile(known, 4)
        filled = list(compress(texts, read))
        values = np.zeros(4 * m)
        ok = np.ones(4 * m, dtype=bool)
        try:
            values[read] = list(map(float, filled))
        except ValueError:  # some coordinate text is not a number
            floats = list(map(_to_float, filled))
            ok[read] = [v is not None for v in floats]
            values[read] = [0.0 if v is None else v for v in floats]
        present, ok = present.reshape(4, m), ok.reshape(4, m)
        pair_ok = ok[0::2] & ok[1::2] & (present[0::2] == present[1::2])
        self._kinds = np.concatenate([self._kinds, kinds])
        self._coords = np.concatenate([self._coords, values.reshape(4, m).T])
        self._present = np.concatenate([self._present, (present[0::2] & pair_ok).T])
        self._ok = np.concatenate([self._ok, known & pair_ok.all(axis=0)])
        self._row_of.update(zip(tails, count(len(self._row_of))))

    def columns(self, tails: list[str]) -> tuple[dict, np.ndarray]:
        """(kind and coordinate columns, ok) of the tails of a chunk's lines."""
        row_of = self._row_of
        rows = np.fromiter(map(row_of.get, tails, repeat(-1)), dtype=np.intp, count=len(tails))
        missing = np.flatnonzero(rows < 0).tolist()
        if missing:
            texts = list(map(tails.__getitem__, missing))
            self._add(list(dict.fromkeys(texts)))
            rows[missing] = np.fromiter(
                map(row_of.__getitem__, texts), dtype=np.intp, count=len(texts)
            )
        kinds, coords, present = self._kinds[rows], self._coords[rows], self._present[rows]
        columns = {
            "src_kind": kinds[:, 0], "dst_kind": kinds[:, 1],
            "src_coord": coords[:, :2], "dst_coord": coords[:, 2:],
            "src_has_coord": present[:, 0], "dst_has_coord": present[:, 1],
        }
        ok = self._ok[rows]
        if len(self) > self.bound():
            self._start_over()
        return columns, ok


def _canonical_lines(chunk: list[str], text: str, delimiter: str):
    """(mask, bounds, code points) of the lines of 10 fields ending in their one line break.

    Such a line holds no quote or carriage return and no more characters
    than csv's field size limit (csv refuses longer fields; such lines take
    its path).  The checks run on the code points of the joined ``text``.
    Row k of ``bounds`` holds, for the k-th such line, the offsets of the
    character before its first field, of its nine delimiters and of its
    line break, so field j spans ``bounds[k, j] + 1`` to ``bounds[k, j + 1]``.
    """
    lengths = _lengths(chunk)
    ends = np.cumsum(lengths)
    chars = _code_points(text)

    def occurrences(char: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(offsets of ``char``, index of each line's first, count in each line)."""
        at = np.flatnonzero(chars == ord(char))
        first = np.searchsorted(at, ends - lengths)
        return at, first, np.diff(first, append=at.size)  # each line ends where the next starts

    delimiters, first, count = occurrences(delimiter)
    ok = (count == 9) & (lengths <= csv.field_size_limit())
    # nine delimiters make a line nonempty, so ends - 1 is its last character
    last = chars[ends - 1] == ord("\n")
    ok &= last
    if np.count_nonzero(chars == ord("\n")) != np.count_nonzero(last):
        ok &= occurrences("\n")[2] == 1  # some line breaks before its end
    for char in '"\r':
        if char in text:
            ok &= occurrences(char)[2] == 0
    picked = np.flatnonzero(ok)
    bounds = np.empty((picked.size, 11), dtype=np.int64)
    bounds[:, 0] = ends[picked] - lengths[picked] - 1
    bounds[:, 1:10] = delimiters[first[picked, None] + np.arange(9)]
    bounds[:, 10] = ends[picked] - 1
    return ok, bounds, chars


def _canonical_chunk(
    chunk: list[str], delimiter: str, vocab: _Vocabulary, tails: _Tails
) -> tuple[dict, np.ndarray]:
    """Columns of the canonical lines of a chunk, and the mask of those lines.

    A canonical line has exactly 10 fields, no quote or carriage return,
    no more characters than csv's field size limit, ids without
    surrounding whitespace, an ASCII-digit amount, a naive
    YYYY-MM-DDTHH:MM:SS timestamp, known kinds, and coordinates both
    present or both empty.  Without quotes and line breaks, csv splits it
    exactly at its delimiters.  The chunk is joined once and read at the
    delimiter offsets: timestamp and amount digits from its code points,
    and only the two ids and the tail (see :class:`_Tails`) as strings.
    """
    if not chunk[-1].endswith("\n"):
        chunk = chunk[:-1] + [chunk[-1] + "\n"]  # a log without a final newline
    text = "".join(chunk)
    ok, bounds, chars = _canonical_lines(chunk, text, delimiter)
    if bounds.size == 0:
        return {}, ok
    starts = bounds + 1

    def strings(field: int, end: int) -> list[str]:
        return [text[a:b] for a, b in zip(starts[:, field].tolist(), bounds[:, end].tolist())]

    src_codes = vocab.codes(strings(1, 2))
    dst_codes = vocab.codes(strings(2, 3))
    bad_ids = vocab.noncanonical()
    columns, good = tails.columns(strings(4, 10))
    stamps, good_time = _canonical_times(chars, starts[:, 0], bounds[:, 1] - starts[:, 0])
    values, good_amount = _canonical_amounts(chars, bounds[:, 4], bounds[:, 4] - starts[:, 3])
    good &= good_time & good_amount
    if bad_ids.size:
        good &= ~np.isin(src_codes, bad_ids) & ~np.isin(dst_codes, bad_ids)

    ok[ok] = good
    columns.update(src=src_codes, dst=dst_codes, amount=values, timestamp=stamps)
    return {name: col[good] for name, col in columns.items()}, ok


def parse_log(
    stream: IO[str] | Iterable[str],
    *,
    delimiter: str = ",",
    strict: bool = False,
) -> tuple[TransferTable, list[RejectedLine]]:
    """Parse a transfer log into a table, reporting rejected lines.

    Returns ``(table, rejected)`` where transfers appear in file order and
    each rejected line carries a reason and the 1-based number of the
    physical line it starts on (a quoted field may span lines).  In
    strict mode the first malformed line raises :class:`ParseError` instead.
    Blank lines and a leading header line (first field "timestamp") are
    skipped silently.

    Lines are read in chunks of :data:`CHUNK_LINES`, so any iterable of
    lines works and the log is never held whole as strings.  Within a
    chunk, lines of the canonical shape (see ``_canonical_chunk``) are
    validated column by column at the delimiter offsets of the chunk's
    code points.  Per line only the two ids and the tail are sliced out as
    strings; ids are coded by the vocabulary, and the tail's kinds and
    coordinates come from a bounded memo of the tails seen (see
    ``_Tails``), so each distinct tail is parsed once.  Every other line
    is read by ``csv`` and parsed by the per-line parser, so quoting, padding,
    ``int()``-style amounts such as ``1_000``, and every rejection reason
    behave as a plain per-line loop would.  A line whose timestamp has a
    UTC offset, or whose amount exceeds the int64 range, is rejected with
    its own reason because the table cannot hold it.
    """
    lines = _ChunkedLines(stream)
    reader = csv.reader(lines, delimiter=delimiter)
    vocab = _Vocabulary()
    tails = _Tails(vocab, delimiter)
    parts_of: list[dict] = []
    rejected: list[RejectedLine] = []
    before = 0  # the lines before the chunk
    while chunk := lines.next_chunk(CHUNK_LINES):
        columns, canonical = _canonical_chunk(chunk, delimiter, vocab, tails)
        taken = canonical.copy()
        records: list[TransferRecord] = []
        at: list[int] = []
        done = 0
        for k in np.flatnonzero(~canonical).tolist():
            if k < done:
                continue  # read already, inside a quoted field spanning lines
            line_no = before + k + 1
            lines.pos = k
            read = reader.line_num
            parts = next(reader)
            done = k + reader.line_num - read  # past the chunk if a quote runs on
            taken[k + 1 : done] = False
            if not parts or (len(parts) == 1 and not parts[0].strip()):
                continue
            if line_no == 1 and parts[0].strip() == "timestamp":
                continue
            try:
                records.append(_parse_line(parts))
                at.append(k)
            except ValueError as exc:
                if strict:
                    raise ParseError(f"line {line_no}: {exc}") from exc
                rejected.append(RejectedLine(line_no=line_no, reason=str(exc)))
        before += max(len(chunk), done)
        part = {name: col[taken[canonical]] for name, col in columns.items()}
        if records:
            # put the per-line records back among the column-wise ones
            slow = _record_columns(records, vocab)
            if part:
                order = np.argsort(np.concatenate([np.flatnonzero(taken), at]), kind="stable")
                slow = {name: np.concatenate([part[name], slow[name]])[order] for name in slow}
            part = slow
        if part:
            parts_of.append(part)
    # column by column, each chunk's part dropped as it is merged, so the
    # parts and the table share one copy of the data plus one column
    merged = {
        name: np.concatenate([p.pop(name) for p in parts_of] or [empty])
        for name, empty in _record_columns([], vocab).items()
    }
    return TransferTable.from_codes(vocab.ids(), **merged), rejected


def filter_records(table: TransferTable, policy: FilterPolicy) -> TransferTable:
    """Keep exactly the transfers satisfying all enabled predicates, in order.

    When every transfer satisfies them, ``table`` itself is returned.
    """
    keep = np.ones(len(table), dtype=bool)
    if policy.require_intra_bank:
        keep &= (table.src_kind != _EXTERNAL) & (table.dst_kind != _EXTERNAL)
    if policy.require_firm_both_ends:
        keep &= (table.src_kind == _FIRM) & (table.dst_kind == _FIRM)
    if policy.drop_self_loops:
        keep &= table.src != table.dst
    # tables are read-only, so sharing one is as safe as copying it
    return table if keep.all() else table.take(keep)


def aggregate(table: TransferTable) -> FlowNetwork:
    """Collapse transfers into one link per ordered (source, destination) pair.

    Each link carries flow = sum of amounts and frequency = transfer count.
    Pairs with transfers in both directions yield two links.  The network
    holds the accounts the links use and is sorted by (source,
    destination), so the link set is order-independent.  Flows are exact:
    int64 sums, or Python ints when a sum exceeds int64.  Self-loops stay
    when the table holds them; :func:`build_network` refuses them.
    """
    n_ids = max(table.ids.size, 1)
    key = table.src.astype(np.int64)
    key *= n_ids
    key += table.dst
    order = np.argsort(key, kind="stable")
    # the keys are sorted, so a link starts wherever they change
    key = key[order]
    change = np.empty(key.size, dtype=bool)
    change[:1] = True  # an empty table has no first key
    np.not_equal(key[1:], key[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    pairs = key[starts]
    frequency = np.diff(starts, append=key.size)
    del key  # freed before the flows are gathered
    flow = table.amount[order]
    if flow.size:
        largest = max(int(flow.max()), -int(flow.min()))
        if largest * int(frequency.max()) > INT64_MAX:
            flow = flow.astype(object)
        flow = np.add.reduceat(flow, starts)
    ids, src, dst = _compact(table.ids, pairs // n_ids, pairs % n_ids)
    return FlowNetwork(tuple(ids.tolist()), src, dst, _exact_ints(flow), frequency)


_NEEDS_QUOTES = re.compile(r'[",\r\n]').search


def _csv_field(text: str) -> str:
    """``text`` as a csv field: quoted, quotes doubled, if it holds a comma,
    quote or line break.

    ``csv.writer`` with a "\\n" line terminator leaves a carriage return
    unquoted, which a reader then takes for a line break.
    """
    if _NEEDS_QUOTES(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _id_field(name: str) -> str:
    """An account id as a csv field, refusing one that would not read back.

    The readers strip every field, so an empty id or one with leading or
    trailing whitespace would come back changed.
    """
    if not name or name != name.strip():
        raise ValueError(
            f"account id {name!r} is empty or padded with whitespace; "
            "it would not read back unchanged"
        )
    return _csv_field(name)


def _first_coords(table: TransferTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accounts with a coordinate, ascending; rank of each one's first
    endpoint with one; each account's first coordinate, (0, 0) without one).

    Endpoints are ranked in event order, source before destination, as a
    record loop visits them: the source of row k is 2k, its destination
    2k + 1.
    """
    n_ranks = 2 * len(table)
    first = np.full(table.ids.size, n_ranks)  # past every rank
    for side, (accounts, present) in enumerate(
        ((table.src, table.src_has_coord), (table.dst, table.dst_has_coord))
    ):
        rows = np.flatnonzero(present)
        np.minimum.at(first, accounts[rows], 2 * rows + side)
    codes = np.flatnonzero(first < n_ranks)
    first = first[codes]
    row, side = np.divmod(first, 2)
    ref = np.zeros((table.ids.size, 2))
    ref[codes] = np.where(side[:, None] == 0, table.src_coord[row], table.dst_coord[row])
    return codes, first, ref


def _coordinate_text(table: TransferTable) -> list[np.ndarray]:
    """Per-transfer ``lat,lon,`` source and ``lat,lon\\n`` destination text.

    Each account's first coordinate is formatted once, by ``repr``; an
    endpoint whose coordinate differs from it bit for bit is formatted on
    its own, and a missing one is empty.
    """
    codes, _, ref = _first_coords(table)
    ref_bits = ref.view(np.int64)
    pairs = np.array([f"{lat!r},{lon!r}" for lat, lon in ref[codes].tolist()], dtype=object)
    texts = []
    for accounts, coords, present, end in (
        (table.src, table.src_coord, table.src_has_coord, ","),
        (table.dst, table.dst_coord, table.dst_has_coord, "\n"),
    ):
        per_account = np.empty(table.ids.size, dtype=object)
        per_account[codes] = pairs + end
        text = per_account[accounts]
        text[~present] = "," + end
        own = np.flatnonzero(present & (coords.view(np.int64) != ref_bits[accounts]).any(axis=1))
        text[own] = [f"{lat!r},{lon!r}{end}" for lat, lon in coords[own].tolist()]
        texts.append(text)
    return texts


def _clock_texts() -> np.ndarray:
    """``HH:MM:SS,`` at each second of a day."""
    two = [f"{k:02}" for k in range(60)]
    minutes = np.array([f"{h}:{m}:" for h in two[:24] for m in two], dtype=object)
    return (minutes[:, None] + np.array([s + "," for s in two], dtype=object)).ravel()


def write_records(table: TransferTable, stream: IO[str]) -> None:
    """Emit transfers in the ingest log format, byte-stable for fixed input.

    Ids are written with csv quoting; an empty or whitespace-padded id
    raises ValueError.  Account ids and coordinates are formatted once per
    account, a timestamp as its day's ``YYYY-MM-DDT`` and its second's
    ``HH:MM:SS`` from tables, and the lines of a chunk joined in one go.
    """
    stream.write(",".join(COLUMNS) + "\n")
    ids = np.array([_id_field(name) + "," for name in table.ids.tolist()], dtype=object)
    kinds = np.array([kind + "," for kind in KINDS], dtype=object)
    src_coord, dst_coord = _coordinate_text(table)
    clock = _clock_texts()
    for lo in range(0, len(table), CHUNK_LINES):
        rows = slice(lo, lo + CHUNK_LINES)
        seconds, micros = np.divmod(table.timestamp[rows].view(np.int64), 1_000_000)
        days, second_of_day = np.divmod(seconds, 86_400)
        day, at = np.unique(days, return_inverse=True)
        dates = [date + "T" for date in np.datetime_as_string(day.astype("datetime64[D]")).tolist()]
        date_text = np.array(dates, dtype=object)[at]
        clock_text = clock[second_of_day]
        # datetime.isoformat() shows microseconds only when they are nonzero
        fractional = micros != 0
        if fractional.any():
            date_text[fractional] = np.datetime_as_string(
                table.timestamp[rows][fractional], unit="us"
            )
            clock_text[fractional] = ","
        # ten tokens a line; the comma after the amount is the token left at
        # its default
        tokens = [","] * (10 * date_text.size)
        tokens[0::10] = date_text.tolist()
        tokens[1::10] = clock_text.tolist()
        tokens[2::10] = ids[table.src[rows]].tolist()
        tokens[3::10] = ids[table.dst[rows]].tolist()
        tokens[4::10] = map(str, table.amount[rows].tolist())
        tokens[6::10] = kinds[table.src_kind[rows]].tolist()
        tokens[7::10] = kinds[table.dst_kind[rows]].tolist()
        tokens[8::10] = src_coord[rows].tolist()
        tokens[9::10] = dst_coord[rows].tolist()
        stream.write("".join(tokens))


LINK_COLUMNS = ("source_id", "destination_id", "flow_yen", "frequency")


def write_links(net: FlowNetwork, stream: IO[str]) -> None:
    """Write the link table as delimited text with a header line.

    Ids are formatted once per account.  Raises ValueError on an empty or
    whitespace-padded id.
    """
    ids = np.array([_id_field(name) for name in net.node_ids], dtype=object)
    columns = (ids[net.src], ids[net.dst], net.flow, net.freq)
    stream.write(",".join(LINK_COLUMNS) + "\n")
    stream.write("".join(map("{},{},{},{}\n".format, *(col.tolist() for col in columns))))


class _Table:
    """The fields of a delimited table in one flat list, row after row.

    Blank lines and a first-line header are skipped; every other row must
    be ``width`` fields wide.  One flat list of strings, because rows kept
    as lists would be tracked, and traversed, by every garbage collection
    while the table is read.  The line each kept row starts on is kept,
    so that a field that fails to convert can be reported with its line:
    a quoted field may span lines, so rows and lines do not count alike.
    """

    def __init__(
        self, stream: IO[str] | Iterable[str], header: str, width: int, name: str,
        delimiter: str = ",",
    ):
        self.header = header
        self.name = name
        self.width = width
        self._starts = array("q")
        self.fields = list(chain.from_iterable(self._rows(stream, delimiter)))

    def _rows(self, stream, delimiter: str):
        reader = csv.reader(stream, delimiter=delimiter)
        keep = self._starts.append
        end = 0  # the line the previous record ended on
        for parts in reader:
            start, end = end + 1, reader.line_num
            if not parts or (len(parts) == 1 and not parts[0].strip()) or (
                start == 1 and parts[0].strip() == self.header
            ):
                continue
            if len(parts) != self.width:
                raise ValueError(
                    f"{self.name} line {start}: expected {self.width} fields, got {len(parts)}"
                )
            keep(start)
            yield parts

    def column(self, k: int) -> list[str]:
        return self.fields[k :: self.width]

    def line_of(self, row: int) -> int:
        """The line the ``row``-th row kept starts on, counting rows from 0."""
        return self._starts[row]

    def ids(self) -> list[str]:
        """Column 0 stripped; ValueError names both lines of a repeated id."""
        names = list(map(str.strip, self.column(0)))
        if len(set(names)) < len(names):
            first: dict[str, int] = {}
            for row, name in enumerate(names):
                if first.setdefault(name, row) != row:
                    raise ValueError(
                        f"{self.name} lines {self.line_of(first[name])} and {self.line_of(row)}: "
                        f"{self.header} {name!r} repeats"
                    )
        return names

    def numbers(self, k: int, convert: type, label: str) -> list:
        """Column ``k`` read by ``convert`` (int or float); ValueError names the first bad field."""
        col = self.column(k)
        try:
            return list(map(convert, col))
        except ValueError:
            pass
        for row, text in enumerate(col):
            try:
                convert(text)
            except ValueError:
                kind = "an integer" if convert is int else "a number"
                raise ValueError(
                    f"{self.name} line {self.line_of(row)}: {label} {text.strip()!r} is not {kind}"
                ) from None


def read_links(stream: IO[str] | Iterable[str]) -> FlowNetwork:
    """Read a link table written by :func:`write_links`, in file order.

    Blank lines and a first-line header are skipped and every field is
    stripped.  Raises ValueError on a line without four fields, a
    non-integer weight (naming its line) or a frequency beyond int64; a
    flow beyond int64 reads back exactly.
    """
    table = _Table(stream, "source_id", 4, "link table")
    vocab = _Vocabulary()
    src, dst = (vocab.codes(list(map(str.strip, table.column(k)))) for k in (0, 1))
    ids, src, dst = _compact(vocab.ids(), src, dst)
    flow, freq = (table.numbers(k, int, LINK_COLUMNS[k]) for k in (2, 3))
    try:
        freq = np.array(freq, dtype=np.int64)
    except OverflowError:
        raise ValueError("link table: a frequency exceeds the int64 range") from None
    return FlowNetwork(tuple(ids.tolist()), src, dst, _exact_ints(flow), freq)


def collect_node_coords(table: TransferTable) -> tuple[dict[str, tuple[float, float]], int]:
    """Map each account to its coordinate, first occurrence wins.

    Returns the mapping plus the number of endpoints whose coordinates
    differ (by float comparison, so nan never matches) from the first
    occurrence of the same account.
    """
    codes, first, ref = _first_coords(table)
    conflicts = 0
    for side, (accounts, coords, present) in enumerate((
        (table.src, table.src_coord, table.src_has_coord),
        (table.dst, table.dst_coord, table.dst_has_coord),
    )):
        differs = present & (coords != ref[accounts]).any(axis=1)
        differs[first[first % 2 == side] // 2] = False
        conflicts += int(np.count_nonzero(differs))
    codes = codes[np.argsort(first)]
    names = table.ids[codes].tolist()
    return dict(zip(names, map(tuple, ref[codes].tolist()))), conflicts


def write_node_coords(coords: dict[str, tuple[float, float]], stream: IO[str]) -> None:
    """Write per-account coordinates (node_id, lat, lon) sorted by id.

    Raises ValueError on an empty or whitespace-padded id.
    """
    stream.write("node_id,lat,lon\n")
    for node in sorted(coords):
        lat, lon = coords[node]
        stream.write(f"{_id_field(node)},{lat!r},{lon!r}\n")


def read_node_coords(stream: IO[str] | Iterable[str]) -> dict[str, tuple[float, float]]:
    """Read the coordinate table written by :func:`write_node_coords`.

    Blank lines and a first-line header are skipped.  Raises ValueError on
    a line without three fields or with a coordinate that is not a number,
    naming the line, and on a repeated node_id, naming both lines.
    """
    table = _Table(stream, "node_id", 3, "node table")
    lat, lon = (table.numbers(k, float, label) for k, label in ((1, "lat"), (2, "lon")))
    return dict(zip(table.ids(), zip(lat, lon)))
