"""Transfer-log ingestion: parsing, filtering, and aggregation into links.

The raw input is a delimited text file with one transfer per line:

    timestamp, source_id, destination_id, amount_yen,
    source_kind, destination_kind,
    source_lat, source_lon, dest_lat, dest_lon

Coordinates may be empty.  Amounts are integer yen; a valid transfer moves
at least 1 yen.  Transfers are held in a :class:`TransferTable`, one array
per field over a sorted account-id vocabulary, so no step builds an object
per event.  :func:`parse_log` reads the log in chunks of lines: lines of
the canonical shape the generator writes are split and validated column by
column, and every other line goes through the per-line parser, which owns
the rejection reasons.  Filtering is a mask over the table; aggregation
collapses all transfers of each ordered account pair (i, j) into a single
link carrying the total flow and the transfer count.  Links are held in a
:class:`~moneyflow.network.FlowNetwork`, the link table.
"""

from __future__ import annotations

import csv
import re
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime
from itertools import chain, count, islice, repeat
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

# Lines per parse chunk and rows per write or iteration chunk: large enough
# that per-chunk numpy overhead vanishes, small enough that the transient
# strings of one chunk stay a few MB.
CHUNK_LINES = 1 << 16


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
class TransferTable(Sequence):
    """Transfers as one read-only array per field, in log order.

    ``ids`` is the sorted account-id vocabulary (an object array of str),
    and ``src``/``dst`` are int32 codes into it, so code order is id
    order.  ``amount`` is int64 yen, ``timestamp`` naive datetime64[us],
    ``src_kind``/``dst_kind`` int8 codes into :data:`KINDS`.  Coordinates
    are float64 (n, 2) lat/lon arrays with a presence mask; a missing
    coordinate is stored as (0.0, 0.0) with its mask False, so it stays
    distinct from a parsed nan.

    The table is a read-only sequence of :class:`TransferRecord`: ``len``,
    iteration, indexing and ``==`` against any sequence of records work
    as on a list (a slice is a table).  Two tables compare column by
    column, with nan coordinates equal.  :meth:`from_records` turns a list
    of records into a table.
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
        ids, src, dst = _compact(ids, np.asarray(src), np.asarray(dst))
        return cls(ids=ids, src=src, dst=dst, **columns)

    @classmethod
    def from_records(cls, records: Iterable[TransferRecord]) -> TransferTable:
        """The table of ``records`` in order; a table is returned as is.

        Raises ValueError for what a table cannot hold: an unknown kind, an
        amount outside int64 or a timestamp with a UTC offset.
        """
        if isinstance(records, TransferTable):
            return records
        vocab = _Vocabulary()
        columns = _record_columns(list(records), vocab)
        return cls.from_codes(vocab.ids(), **columns)

    def take(self, rows) -> TransferTable:
        """The rows selected by an index array or boolean mask, same ids."""
        return TransferTable(
            ids=self.ids, **{name: getattr(self, name)[rows] for name in _COLUMN_DTYPES}
        )

    def __len__(self) -> int:
        return self.src.shape[0]

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self.take(item)
        row = range(len(self))[item]
        return next(self._records(row, row + 1))

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
        if isinstance(other, TransferTable):
            return self._same_columns(other)
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def _same_columns(self, other: TransferTable) -> bool:
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


def _compact(ids: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """(the ids the codes use, sorted; src and dst renumbered into them)."""
    used = np.zeros(ids.size, dtype=bool)
    used[src] = True
    used[dst] = True
    kept = np.flatnonzero(used)
    order = kept[np.argsort(ids[kept], kind="stable")]
    code = np.zeros(ids.size, dtype=np.int64)
    code[order] = np.arange(order.size)
    return ids[order], code[src], code[dst]


class _Vocabulary:
    """Account ids seen so far, each with a distinct int32 code.

    Codes come from one counter that also advances on ids already seen,
    which keeps coding a C-level loop; they are distinct but not dense, and
    :func:`_compact` compacts them.
    """

    def __init__(self):
        self._code_of: dict[str, int] = {}
        self._counter = count()
        self._checked = 0
        self._bad: list[int] = []

    def __len__(self) -> int:
        return len(self._code_of)

    def codes(self, ids: Sequence[str]) -> np.ndarray:
        return np.fromiter(
            map(self._code_of.setdefault, ids, self._counter), dtype=np.int32, count=len(ids)
        )

    def noncanonical(self) -> np.ndarray:
        """Codes of the ids so far that are empty or padded with whitespace."""
        for name, code in islice(self._code_of.items(), self._checked, None):
            if not name or name != name.strip():
                self._bad.append(code)
        self._checked = len(self._code_of)
        return np.array(self._bad, dtype=np.int32)

    def ids(self) -> np.ndarray:
        """The ids seen so far at their codes; unused codes hold None."""
        ids = np.empty(max(self._code_of.values(), default=-1) + 1, dtype=object)
        ids[list(self._code_of.values())] = list(self._code_of)
        return ids


def _record_columns(records: list[TransferRecord], vocab: _Vocabulary) -> dict:
    """Table columns of ``records``, coding ids through ``vocab``."""
    try:
        src_kind = [_KIND_CODE[r.source_kind] for r in records]
        dst_kind = [_KIND_CODE[r.destination_kind] for r in records]
    except KeyError as exc:
        raise ValueError(f"unknown party kind {exc.args[0]!r}") from None
    stamps = [r.timestamp for r in records]
    if any(ts.tzinfo is not None for ts in stamps):
        raise ValueError("a timestamp with a UTC offset does not fit the table")
    try:
        amount = np.array([r.amount for r in records], dtype=np.int64)
    except OverflowError:
        raise ValueError("an amount exceeds the int64 range of the table") from None
    columns = {
        "src": vocab.codes([r.source for r in records]),
        "dst": vocab.codes([r.destination for r in records]),
        "amount": amount,
        "timestamp": np.array(stamps, dtype=TIME_DTYPE),
        "src_kind": src_kind,
        "dst_kind": dst_kind,
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


# Character positions of a YYYY-MM-DDTHH:MM:SS timestamp.
_TS_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_TS_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _lengths(col: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(len, col), dtype=np.int64, count=len(col))


def _canonical_times(col: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """datetime64 values of YYYY-MM-DDTHH:MM:SS strings naming a real time."""
    m = len(col)
    chars = np.array(col, dtype="U19").view(np.uint32).reshape(m, 19).astype(np.int64)
    ok = _lengths(col) == 19
    for pos, sep in _TS_SEPARATORS.items():
        ok &= chars[:, pos] == ord(sep)
    digits = chars[:, _TS_DIGITS] - ord("0")
    ok &= ((digits >= 0) & (digits <= 9)).all(axis=1)
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


def _canonical_amounts(col: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """int64 values of 1-18 ASCII digits without a leading zero."""
    lengths = _lengths(col)
    chars = np.array(col, dtype="U18").view(np.uint32).reshape(len(col), 18)
    digits = chars.astype(np.int64) - ord("0")
    is_digit = (digits >= 0) & (digits <= 9)
    ok = (lengths >= 1) & (lengths <= 18) & (is_digit.sum(axis=1) == lengths) & (digits[:, 0] != 0)
    values = np.zeros(len(col), dtype=np.int64)
    for k in range(18):
        values = np.where(k < lengths, values * 10 + digits[:, k], values)
    return np.where(ok, values, 0), ok


class _CoordinateText:
    """Coordinate strings of a whole log, each parsed by float() once.

    A field is present when nonempty and ok when empty or parsed by
    float(), which ignores surrounding whitespace as the per-line parser's
    strip does.  Coordinates repeat with their account, so the map holds
    at most two strings per account of ``vocab`` and the empty one; it
    starts over whenever it holds more, which bounds it for logs whose
    coordinates do not repeat.
    """

    def __init__(self, vocab: _Vocabulary):
        self._vocab = vocab
        self._start_over()

    def _start_over(self):
        self._code_of: dict[str, int] = {"": 0}
        self._value = np.zeros(1)
        self._ok = np.ones(1, dtype=bool)

    def field(self, col: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, present, ok) of one coordinate column."""
        if len(self._code_of) > 2 * len(self._vocab) + 1:
            self._start_over()
        code_of = self._code_of
        codes = np.fromiter(map(code_of.get, col, repeat(-1)), dtype=np.intp, count=len(col))
        missing = np.flatnonzero(codes < 0).tolist()
        if missing:
            texts = list(map(col.__getitem__, missing))
            value, ok = [], []
            for text in dict.fromkeys(texts):
                code_of[text] = len(code_of)
                try:
                    value.append(float(text))
                    ok.append(True)
                except ValueError:
                    value.append(0.0)
                    ok.append(False)
            self._value = np.concatenate([self._value, value])
            self._ok = np.concatenate([self._ok, ok])
            codes[missing] = np.fromiter(map(code_of.__getitem__, texts), dtype=np.intp, count=len(texts))
        return self._value[codes], codes != 0, self._ok[codes]

    def pair(self, lat_col, lon_col) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(coords, present, ok): both fields empty, or both parsed by float()."""
        lat, lat_present, lat_ok = self.field(lat_col)
        lon, lon_present, lon_ok = self.field(lon_col)
        ok = lat_ok & lon_ok & (lat_present == lon_present)
        return np.column_stack([lat, lon]), lat_present & ok, ok


def _line_counts(chars: np.ndarray, ends: np.ndarray, char: str) -> np.ndarray:
    """How often ``char`` occurs in each line; line k ends before ``ends[k]``."""
    at = np.flatnonzero(chars == ord(char))
    return np.diff(np.searchsorted(at, ends), prepend=0)


def _canonical_lines(chunk: list[str], text: str, delimiter: str) -> np.ndarray:
    """Mask of the lines of 10 fields ending in their one line break.

    Such a line holds no quote or carriage return and no more characters
    than csv's field size limit (csv refuses longer fields; such lines take
    its path).  The checks run on the code points of the joined ``text``.
    """
    lengths = _lengths(chunk)
    ends = np.cumsum(lengths)
    if text.isascii():
        chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        chars = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    ok = (_line_counts(chars, ends, delimiter) == 9) & (lengths <= csv.field_size_limit())
    # nine delimiters make a line nonempty, so ends - 1 is its last character
    ok &= (chars[ends - 1] == ord("\n")) & (_line_counts(chars, ends, "\n") == 1)
    for char in '"\r':
        if char in text:
            ok &= _line_counts(chars, ends, char) == 0
    return ok


def _canonical_chunk(
    chunk: list[str], delimiter: str, vocab: _Vocabulary, coords: _CoordinateText
) -> tuple[dict, np.ndarray]:
    """Columns of the canonical lines of a chunk, and the mask of those lines.

    A canonical line has exactly 10 fields, no quote or carriage return,
    no more characters than csv's field size limit, ids without
    surrounding whitespace, an ASCII-digit amount, a naive
    YYYY-MM-DDTHH:MM:SS timestamp, known kinds, and coordinates both
    present or both empty.  Without quotes and line breaks, csv splits it
    exactly where ``str.split`` does.
    """
    n = len(chunk)
    if not chunk[-1].endswith("\n"):
        chunk = chunk[:-1] + [chunk[-1] + "\n"]  # a log without a final newline
    text = "".join(chunk)
    ok = _canonical_lines(chunk, text, delimiter)
    picked = np.flatnonzero(ok)
    if picked.size == 0:
        return {}, ok
    if picked.size < n:
        text = "".join([chunk[k] for k in picked.tolist()])
    # every picked line is ten fields and one newline
    fields = text.replace("\n", delimiter).split(delimiter)
    fields.pop()
    ts, src, dst, amount, src_kind, dst_kind, src_lat, src_lon, dst_lat, dst_lon = (
        fields[k :: len(COLUMNS)] for k in range(len(COLUMNS))
    )

    src_codes = vocab.codes(src)
    dst_codes = vocab.codes(dst)
    bad_ids = vocab.noncanonical()
    stamps, good = _canonical_times(ts)
    values, good_amount = _canonical_amounts(amount)
    good &= good_amount
    if bad_ids.size:
        good &= ~np.isin(src_codes, bad_ids) & ~np.isin(dst_codes, bad_ids)
    kinds = []
    for col in (src_kind, dst_kind):
        code = np.fromiter(map(_KIND_CODE.get, col, repeat(-1)), dtype=np.int8, count=len(col))
        good &= code >= 0
        kinds.append(code)
    src_coord, src_has, good_src = coords.pair(src_lat, src_lon)
    dst_coord, dst_has, good_dst = coords.pair(dst_lat, dst_lon)
    good &= good_src & good_dst

    ok[picked] = good
    columns = {
        "src": src_codes, "dst": dst_codes, "amount": values, "timestamp": stamps,
        "src_kind": kinds[0], "dst_kind": kinds[1],
        "src_coord": src_coord, "dst_coord": dst_coord,
        "src_has_coord": src_has, "dst_has_coord": dst_has,
    }
    return {name: col[good] for name, col in columns.items()}, ok


def parse_log(
    stream: IO[str] | Iterable[str],
    *,
    delimiter: str = ",",
    strict: bool = False,
) -> tuple[TransferTable, list[RejectedLine]]:
    """Parse a transfer log into a table, reporting rejected lines.

    Returns ``(table, rejected)`` where transfers appear in file order and
    each rejected line carries its 1-based line number and a reason.  In
    strict mode the first malformed line raises :class:`ParseError` instead.
    Blank lines and a leading header line (first field "timestamp") are
    skipped silently.

    Lines are read in chunks of :data:`CHUNK_LINES`, so any iterable of
    lines works and the log is never held whole as strings.  Within a
    chunk, lines of the canonical shape (see ``_canonical_chunk``) are
    split and validated column by column; every other line is read by
    ``csv`` and parsed by the per-line parser, so quoting, padding,
    ``int()``-style amounts such as ``1_000``, and every rejection reason
    behave as a plain per-line loop would.  A line whose timestamp has a
    UTC offset, or whose amount exceeds the int64 range, is rejected with
    its own reason because the table cannot hold it.
    """
    lines = _ChunkedLines(stream)
    reader = csv.reader(lines, delimiter=delimiter)
    vocab = _Vocabulary()
    coords = _CoordinateText(vocab)
    parts_of: list[dict] = []
    rejected: list[RejectedLine] = []
    line_no = 0
    while chunk := lines.next_chunk(CHUNK_LINES):
        columns, canonical = _canonical_chunk(chunk, delimiter, vocab, coords)
        taken = canonical.copy()
        records: list[TransferRecord] = []
        at: list[int] = []
        done = 0
        for k in np.flatnonzero(~canonical).tolist():
            if k < done:
                continue  # read already, inside a quoted field spanning lines
            line_no += k - done + 1
            lines.pos = k
            parts = next(reader)
            done = lines.pos
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
        line_no += len(chunk) - done
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
    merged = {
        name: np.concatenate([p[name] for p in parts_of] or [empty])
        for name, empty in _record_columns([], vocab).items()
    }
    return TransferTable.from_codes(vocab.ids(), **merged), rejected


def filter_records(
    records: Iterable[TransferRecord], policy: FilterPolicy
) -> TransferTable:
    """Keep exactly the transfers satisfying all enabled predicates, in order."""
    table = TransferTable.from_records(records)
    keep = np.ones(len(table), dtype=bool)
    if policy.require_intra_bank:
        keep &= (table.src_kind != _EXTERNAL) & (table.dst_kind != _EXTERNAL)
    if policy.require_firm_both_ends:
        keep &= (table.src_kind == _FIRM) & (table.dst_kind == _FIRM)
    if policy.drop_self_loops:
        keep &= table.src != table.dst
    return table.take(keep)


def aggregate(records: Iterable[TransferRecord]) -> FlowNetwork:
    """Collapse transfers into one link per ordered (source, destination) pair.

    Each link carries flow = sum of amounts and frequency = transfer count.
    Pairs with transfers in both directions yield two links.  The network
    holds the accounts the links use and is sorted by (source,
    destination), so the link set is order-independent.  Flows are exact:
    int64 sums, or Python ints when a sum exceeds int64.  Self-loops stay
    when the records hold them; :func:`build_network` refuses them.
    """
    table = TransferTable.from_records(records)
    n_ids = max(table.ids.size, 1)
    key = table.src.astype(np.int64) * n_ids + table.dst
    order = np.argsort(key, kind="stable")
    pairs, starts, frequency = np.unique(key[order], return_index=True, return_counts=True)
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


def _endpoints(table: TransferTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accounts, coords, present) of both endpoints of every transfer.

    Event order, source before destination, as a record loop visits them.
    """
    n = len(table)
    accounts = np.empty(2 * n, dtype=np.int32)
    coords = np.empty((2 * n, 2))
    present = np.empty(2 * n, dtype=bool)
    for arr, src, dst in (
        (accounts, table.src, table.dst),
        (coords, table.src_coord, table.dst_coord),
        (present, table.src_has_coord, table.dst_has_coord),
    ):
        arr[0::2] = src
        arr[1::2] = dst
    return accounts, coords, present


def _first_coords(accounts: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(accounts with a coordinate, endpoint index of each one's first)."""
    rows = np.flatnonzero(present)
    codes, first = np.unique(accounts[rows], return_index=True)
    return codes, rows[first]


def _coordinate_text(table: TransferTable) -> list[np.ndarray]:
    """Per-transfer ``lat,lon,`` source and ``lat,lon\\n`` destination text.

    Each account's first coordinate is formatted once, by ``repr``; an
    endpoint whose coordinate differs from it bit for bit is formatted on
    its own, and a missing one is empty.
    """
    accounts, coords, present = _endpoints(table)
    codes, first = _first_coords(accounts, present)
    bits = coords.view(np.int64)
    ref = np.zeros((table.ids.size, 2), dtype=np.int64)
    ref[codes] = bits[first]
    own = np.flatnonzero(present & (bits != ref[accounts]).any(axis=1))
    texts = []
    for side, end in enumerate((",", "\n")):
        per_account = np.empty(table.ids.size, dtype=object)
        per_account[codes] = [f"{lat!r},{lon!r}{end}" for lat, lon in coords[first].tolist()]
        text = per_account[accounts[side::2]]
        text[~present[side::2]] = "," + end
        mine = own[own % 2 == side]
        text[mine // 2] = [f"{lat!r},{lon!r}{end}" for lat, lon in coords[mine].tolist()]
        texts.append(text)
    return texts


def write_records(records: Iterable[TransferRecord], stream: IO[str]) -> None:
    """Emit transfers in the ingest log format, byte-stable for fixed input.

    Ids are written with csv quoting; an empty or whitespace-padded id
    raises ValueError.  Account ids and coordinates are formatted once per
    account and the lines of a chunk joined in one go.
    """
    table = TransferTable.from_records(records)
    stream.write(",".join(COLUMNS) + "\n")
    ids = np.array([_id_field(name) + "," for name in table.ids.tolist()], dtype=object)
    kinds = np.array([kind + "," for kind in KINDS], dtype=object)
    src_coord, dst_coord = _coordinate_text(table)
    # datetime.isoformat() shows microseconds only when they are nonzero
    fractional = table.timestamp.astype(np.int64) % 1_000_000 != 0
    for lo in range(0, len(table), CHUNK_LINES):
        rows = slice(lo, lo + CHUNK_LINES)
        stamps = np.datetime_as_string(table.timestamp[rows], unit="s")
        if fractional[rows].any():
            stamps = np.where(
                fractional[rows], np.datetime_as_string(table.timestamp[rows], unit="us"), stamps
            )
        # ten tokens a line; the commas after the timestamp and the amount
        # are the tokens left at their default
        tokens = [","] * (10 * stamps.size)
        tokens[0::10] = stamps.tolist()
        tokens[2::10] = ids[table.src[rows]].tolist()
        tokens[3::10] = ids[table.dst[rows]].tolist()
        tokens[4::10] = map(str, table.amount[rows].tolist())
        tokens[6::10] = kinds[table.src_kind[rows]].tolist()
        tokens[7::10] = kinds[table.dst_kind[rows]].tolist()
        tokens[8::10] = src_coord[rows].tolist()
        tokens[9::10] = dst_coord[rows].tolist()
        stream.write("".join(tokens))


LINK_COLUMNS = ("source_id", "destination_id", "flow_yen", "frequency")


def write_links(links: FlowNetwork | Iterable[AggregatedLink], stream: IO[str]) -> None:
    """Write the link table as delimited text with a header line.

    Ids are formatted once per account.  Raises ValueError on an empty or
    whitespace-padded id.
    """
    net = FlowNetwork.from_links(links)
    ids = np.array([_id_field(name) for name in net.node_ids], dtype=object)
    columns = (ids[net.src], ids[net.dst], net.flow, net.freq)
    stream.write(",".join(LINK_COLUMNS) + "\n")
    stream.write("".join(map("{},{},{},{}\n".format, *(col.tolist() for col in columns))))


def _table_rows(stream: IO[str] | Iterable[str], header: str, width: int, table: str):
    """Non-blank csv rows after an optional first-line header; each must be width wide."""
    for line_no, parts in enumerate(csv.reader(stream), start=1):
        if not parts or (len(parts) == 1 and not parts[0].strip()):
            continue
        if line_no == 1 and parts[0].strip() == header:
            continue
        if len(parts) != width:
            raise ValueError(f"{table} line {line_no}: expected {width} fields")
        yield parts


def read_links(stream: IO[str] | Iterable[str]) -> FlowNetwork:
    """Read a link table written by :func:`write_links`, in file order.

    Blank lines and a first-line header are skipped and every field is
    stripped.  Raises ValueError on a line without four fields, a
    non-integer weight or a frequency beyond int64; a flow beyond int64
    reads back exactly.
    """
    # one flat list of field strings: rows kept as lists would be tracked,
    # and traversed, by every garbage collection while the table is read
    fields = list(chain.from_iterable(_table_rows(stream, "source_id", 4, "link table")))
    vocab = _Vocabulary()
    src, dst = (vocab.codes(list(map(str.strip, fields[k::4]))) for k in (0, 1))
    ids, src, dst = _compact(vocab.ids(), src, dst)
    flow, freq = (list(map(int, fields[k::4])) for k in (2, 3))
    try:
        freq = np.array(freq, dtype=np.int64)
    except OverflowError:
        raise ValueError("link table: a frequency exceeds the int64 range") from None
    return FlowNetwork(tuple(ids.tolist()), src, dst, _exact_ints(flow), freq)


def collect_node_coords(
    records: Iterable[TransferRecord],
) -> tuple[dict[str, tuple[float, float]], int]:
    """Map each account to its coordinate, first occurrence wins.

    Returns the mapping plus the number of endpoints whose coordinates
    differ (by float comparison, so nan never matches) from the first
    occurrence of the same account.
    """
    table = TransferTable.from_records(records)
    accounts, coords, present = _endpoints(table)
    codes, first = _first_coords(accounts, present)
    ref = np.zeros((table.ids.size, 2))
    ref[codes] = coords[first]
    differs = present & (coords != ref[accounts]).any(axis=1)
    differs[first] = False
    order = np.argsort(first)
    names = table.ids[codes[order]].tolist()
    return dict(zip(names, map(tuple, coords[first[order]].tolist()))), int(differs.sum())


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
    a line without three fields or with a coordinate that is not a number.
    """
    rows = _table_rows(stream, "node_id", 3, "node table")
    return {parts[0].strip(): (float(parts[1]), float(parts[2])) for parts in rows}
