import csv
import io
import math
import re
import tracemalloc
from datetime import datetime
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moneyflow import (
    AggregatedLink,
    FilterPolicy,
    ParseError,
    TransferRecord,
    aggregate,
    collect_node_coords,
    filter_records,
    parse_log,
    read_links,
    read_node_coords,
    write_links,
    write_node_coords,
)
from moneyflow import ingest as ingest_module
from moneyflow.ingest import KINDS, RejectedLine, _parse_line

from conftest import link_table, transfer_table
from oracles import coordinate_fields, first_coordinates


def _rec(src, dst, amount=100, skind="firm", dkind="firm", ts=None, sc=None, dc=None):
    return TransferRecord(
        timestamp=ts or datetime(2018, 1, 5, 10, 30),
        source=src,
        destination=dst,
        amount=amount,
        source_kind=skind,
        destination_kind=dkind,
        source_coord=sc,
        destination_coord=dc,
    )


GOOD_LINE = "2017-03-02T09:15:00,F000001,F000002,35000,firm,firm,34.2,135.1,34.3,135.2"


class TestParse:
    def test_good_line(self):
        records, rejected = parse_log(io.StringIO(GOOD_LINE))
        assert rejected == []
        (rec,) = records
        assert rec.timestamp == datetime(2017, 3, 2, 9, 15)
        assert rec.source == "F000001"
        assert rec.destination == "F000002"
        assert rec.amount == 35000
        assert rec.source_coord == (34.2, 135.1)
        assert rec.destination_coord == (34.3, 135.2)

    def test_header_and_blank_lines_skipped(self):
        text = "timestamp,source_id,destination_id,amount_yen\n\n" + GOOD_LINE + "\n\n"
        records, rejected = parse_log(io.StringIO(text))
        assert len(records) == 1
        assert rejected == []

    def test_header_only_skipped_on_first_line(self):
        # a later line starting with "timestamp" is malformed data, not a header
        text = GOOD_LINE + "\ntimestamp,a,b,1,firm,firm,,,,\n"
        records, rejected = parse_log(io.StringIO(text))
        assert len(records) == 1
        assert len(rejected) == 1

    @pytest.mark.parametrize(
        "line,reason_part",
        [
            ("2017-03-02T09:15:00,F1,F2,35000,firm,firm,34.2,135.1", "fields"),
            ("not-a-date,F1,F2,35000,firm,firm,,,,", "Invalid isoformat"),
            ("2017-03-02T09:15:00,,F2,35000,firm,firm,,,,", "required"),
            ("2017-03-02T09:15:00,F1,F2,12.5,firm,firm,,,,", "non-integer"),
            ("2017-03-02T09:15:00,F1,F2,0,firm,firm,,,,", ">= 1 yen"),
            ("2017-03-02T09:15:00,F1,F2,100,firm,bank,,,,", "kind"),
            ("2017-03-02T09:15:00,F1,F2,100,firm,firm,34.2,,,", "both"),
        ],
    )
    def test_malformed_lines_rejected_with_reason(self, line, reason_part):
        records, rejected = parse_log(io.StringIO(GOOD_LINE + "\n" + line))
        assert len(records) == 1
        (bad,) = rejected
        assert bad.line_no == 2
        assert reason_part in bad.reason

    def test_line_numbers_are_one_based_counting_header(self):
        text = "timestamp,x\n" + GOOD_LINE + "\nbroken\n"
        _, rejected = parse_log(io.StringIO(text))
        assert [r.line_no for r in rejected] == [3]

    def test_strict_mode_raises(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_log(io.StringIO(GOOD_LINE + "\nbroken,line\n"), strict=True)

    def test_negative_amount_rejected(self):
        _, rejected = parse_log(
            io.StringIO("2017-03-02T09:15:00,F1,F2,-5,firm,firm,,,,")
        )
        assert len(rejected) == 1


class TestFilter:
    def test_table_kept_whole_is_not_copied(self):
        table = transfer_table([_rec("a", "b"), _rec("b", "c")])
        assert filter_records(table, FilterPolicy()) is table

    def test_reference_policy(self):
        records = [
            _rec("a", "b"),
            _rec("a", "a"),
            _rec("a", "b", skind="household"),
            _rec("a", "b", dkind="external"),
        ]
        kept = filter_records(transfer_table(records), FilterPolicy())
        assert list(kept) == [records[0]]

    def test_keep_households_but_not_external(self):
        policy = FilterPolicy(require_firm_both_ends=False)
        records = [
            _rec("a", "b", skind="household"),
            _rec("a", "b", dkind="external"),
        ]
        assert list(filter_records(transfer_table(records), policy)) == [records[0]]

    def test_self_loops_kept_when_allowed(self):
        policy = FilterPolicy(drop_self_loops=False)
        assert list(filter_records(transfer_table([_rec("a", "a")]), policy)) == [_rec("a", "a")]

    def test_external_kept_only_without_intra_bank(self):
        rec = _rec("a", "b", skind="external")
        policy = FilterPolicy(require_intra_bank=False, require_firm_both_ends=False)
        assert list(filter_records(transfer_table([rec]), policy)) == [rec]


class TestAggregate:
    def test_hand_example(self):
        records = [
            _rec("a", "b", 100),
            _rec("a", "b", 250),
            _rec("b", "a", 40),
            _rec("c", "a", 7),
            _rec("a", "b", 1),
        ]
        links = aggregate(transfer_table(records))
        assert [(l.source, l.destination, l.flow, l.frequency) for l in links] == [
            ("a", "b", 351, 3),
            ("b", "a", 40, 1),
            ("c", "a", 7, 1),
        ]

    def test_empty_table(self):
        from moneyflow import write_records

        table = transfer_table([])
        links = aggregate(table)
        assert len(links) == 0 and links.node_ids == ()
        assert collect_node_coords(table) == ({}, 0)
        buf = io.StringIO()
        write_records(table, buf)
        assert buf.getvalue().splitlines() == [",".join(ingest_module.COLUMNS)]

    def test_output_sorted_and_order_independent(self):
        records = [_rec("z", "a", 5), _rec("b", "c", 9), _rec("a", "z", 2)]
        assert aggregate(transfer_table(records)) == aggregate(transfer_table(reversed(records)))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcde"),
                st.sampled_from("abcde"),
                st.integers(min_value=1, max_value=10_000),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, triples):
        records = [_rec(s, d, amt) for s, d, amt in triples]
        links = aggregate(transfer_table(records))
        assert sum(l.flow for l in links) == sum(r.amount for r in records)
        assert sum(l.frequency for l in links) == len(records)
        assert all(l.flow >= l.frequency >= 1 for l in links)
        pairs = [(l.source, l.destination) for l in links]
        assert pairs == sorted(pairs)
        assert len(pairs) == len(set(pairs))


class TestRoundTrips:
    def test_links_roundtrip(self):
        links = aggregate(transfer_table([_rec("a", "b", 10), _rec("b", "a", 3)]))
        buf = io.StringIO()
        write_links(links, buf)
        assert read_links(io.StringIO(buf.getvalue())) == links

    def test_node_coords_roundtrip_and_conflicts(self):
        records = [
            _rec("a", "b", sc=(34.5, 135.5), dc=(34.6, 135.6)),
            _rec("a", "c", sc=(34.5, 135.5), dc=None),
            _rec("b", "a", sc=(34.9, 135.9), dc=(34.5, 135.5)),
        ]
        coords, conflicts = collect_node_coords(transfer_table(records))
        # b reappears with a different coordinate: first occurrence wins
        assert conflicts == 1
        assert coords == {"a": (34.5, 135.5), "b": (34.6, 135.6)}
        buf = io.StringIO()
        write_node_coords(coords, buf)
        assert read_node_coords(io.StringIO(buf.getvalue())) == coords

    def test_parse_roundtrip_through_writer(self):
        from moneyflow import generate, walnut_scenario, write_records

        records, _ = generate(walnut_scenario(n_nodes=60, seed=3))
        buf = io.StringIO()
        write_records(records, buf)
        parsed, rejected = parse_log(io.StringIO(buf.getvalue()))
        assert rejected == []
        assert parsed == records


class TestNewRejections:
    @pytest.mark.parametrize(
        "line,reason_part",
        [
            ("2017-03-02T09:15:00+09:00,F1,F2,100,firm,firm,,,,", "UTC offset"),
            ("2017-03-02T09:15:00,F1,F2,9223372036854775808,firm,firm,,,,", "int64"),
        ],
    )
    def test_values_the_table_cannot_hold(self, line, reason_part):
        records, rejected = parse_log(io.StringIO(GOOD_LINE + "\n" + line))
        assert len(records) == 1
        (bad,) = rejected
        assert bad.line_no == 2 and reason_part in bad.reason

    def test_largest_int64_amount_parses(self):
        line = "2017-03-02T09:15:00,F1,F2,9223372036854775807,firm,firm,,,,"
        records, rejected = parse_log(io.StringIO(line))
        assert rejected == [] and list(records)[0].amount == 2**63 - 1


class TestTransferTable:
    def test_sequence_of_records(self):
        records = [_rec("b", "a", 5), _rec("a", "c", 7, sc=(1.0, 2.0)), _rec("c", "b", 9)]
        table = transfer_table(records)
        assert len(table) == 3
        assert list(table) == records
        assert list(table.ids) == ["a", "b", "c"]

    def test_read_only(self):
        table = transfer_table([_rec("a", "b")])
        with pytest.raises(ValueError):
            table.amount[0] = 5

    def test_missing_coordinate_is_not_nan(self):
        nan = float("nan")
        table = transfer_table([_rec("a", "b", sc=(nan, nan))])
        assert table.src_has_coord.tolist() == [True]
        assert table.dst_has_coord.tolist() == [False]
        assert list(table)[0].destination_coord is None

    def test_tables_compare_across_vocabularies(self):
        records = [_rec("a", "b"), _rec("x", "y")]
        whole = transfer_table(records)
        kept = filter_records(whole, FilterPolicy())
        assert kept.take(slice(1, None)) == transfer_table(records[1:])


def test_aggregate_exact_above_float_precision():
    # 20 transfers of ~1e15 yen: the link total passes 2**53, where a
    # float64 sum would round
    amounts = [10**15 + 2 * k + 1 for k in range(20)]
    links = aggregate(transfer_table([_rec("a", "b", amt) for amt in amounts]))
    assert list(links)[0].flow == sum(amounts) and sum(amounts) > 2**53
    # past int64 the sum is still exact
    big = [2**63 - 1, 2**63 - 3]
    (link,) = aggregate(transfer_table([_rec("a", "b", amt) for amt in big]))
    assert link.flow == sum(big) and type(link.flow) is int


class TestIdQuotingRoundTrips:
    IDS = ['ACME, Inc', 'say "hi"', "Ōsaka 大阪", "line\nbreak", "car\rriage", "plain"]

    def _records(self):
        return [
            _rec(s, d, 10 + k, sc=(34.5, 135.5 + k), dc=(34.0, 135.0))
            for k, (s, d) in enumerate(zip(self.IDS, self.IDS[1:] + self.IDS[:1]))
        ]

    def test_log_round_trip(self):
        from moneyflow import write_records

        records = self._records()
        buf = io.StringIO()
        write_records(transfer_table(records), buf)
        parsed, rejected = parse_log(io.StringIO(buf.getvalue(), newline=""))
        assert rejected == []
        assert list(parsed) == records
        again = io.StringIO()
        write_records(parsed, again)
        assert again.getvalue() == buf.getvalue()

    def test_links_and_nodes_round_trip(self):
        records = transfer_table(self._records())
        links = aggregate(records)
        buf = io.StringIO()
        write_links(links, buf)
        assert read_links(io.StringIO(buf.getvalue(), newline="")) == links
        coords, _ = collect_node_coords(records)
        buf = io.StringIO()
        write_node_coords(coords, buf)
        assert read_node_coords(io.StringIO(buf.getvalue(), newline="")) == coords

    def test_plain_ids_unquoted(self):
        buf = io.StringIO()
        write_links(aggregate(transfer_table([_rec("a", "b", 3)])), buf)
        assert buf.getvalue() == "source_id,destination_id,flow_yen,frequency\na,b,3,1\n"


class TestUnreadableIdsRefused:
    """The readers strip fields, so the writers refuse ids that would change."""

    BAD = ["", " a", "a ", "\ta", "a\n", " "]

    @pytest.mark.parametrize("bad", BAD)
    def test_write_links(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_links(link_table([AggregatedLink(bad, "b", 5, 1)]), io.StringIO())
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_links(link_table([AggregatedLink("b", bad, 5, 1)]), io.StringIO())

    @pytest.mark.parametrize("bad", BAD)
    def test_write_node_coords(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_node_coords({"b": (34.5, 135.5), bad: (34.0, 135.0)}, io.StringIO())

    @pytest.mark.parametrize("bad", BAD)
    def test_write_records(self, bad):
        from moneyflow import write_records

        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_records(transfer_table([_rec("b", bad)]), io.StringIO())
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_records(transfer_table([_rec(bad, "b")]), io.StringIO())


# ---------------------------------------------------------------------------
# The chunked, column-wise parse against a plain per-line loop


def _reference_parse(lines, delimiter=",", strict=False):
    """The per-line parse: csv rows through _parse_line, one at a time,
    each numbered by the physical line it starts on."""
    records, rejected = [], []
    reader = csv.reader(lines, delimiter=delimiter)
    end = 0
    for parts in reader:
        line_no, end = end + 1, reader.line_num
        if not parts or (len(parts) == 1 and not parts[0].strip()):
            continue
        if line_no == 1 and parts[0].strip() == "timestamp":
            continue
        try:
            records.append(_parse_line(parts))
        except ValueError as exc:
            if strict:
                raise ParseError(f"line {line_no}: {exc}") from exc
            rejected.append(RejectedLine(line_no=line_no, reason=str(exc)))
    return records, rejected


_FIELDS = ("2017-03-02T09:15:00", "F1", "F2", "35000", "firm", "household", "34.5", "135.5", "", "")

# Each variant rewrites some fields of a canonical line; a few give whole lines.
_VARIANTS = {
    "canonical": {},
    "other_ids": {1: "F3", 2: "ACME"},
    "nan_coord": {8: "nan", 9: "nan"},
    "inf_coord": {6: "-inf", 7: "1e-05"},
    "underscore_coord": {6: "3_4.5"},
    "half_coord": {9: "135.0"},
    "blank_coord": {6: " ", 7: " "},
    "bad_coord": {6: "north", 7: "1"},
    "zero": {3: "0"},
    "negative": {3: "-5"},
    "underscore": {3: "1_000"},
    "signed_padded": {3: " +7 "},
    "leading_zero": {3: "007"},
    "huge": {3: "9223372036854775808"},
    "big": {3: "999999999999999999"},
    "fraction": {3: "12.5"},
    "arabic_digits": {3: "٣٤"},
    "padded_id": {1: " F1 "},
    "empty_id": {2: ""},
    "quoted_id": {1: '"ACME, Inc"'},
    "nul_id": {2: "F\x00"},
    "surrogate_id": {1: "F\udc80"},
    "padded_kind": {4: " firm"},
    "bad_kind": {5: "bank"},
    "fractional_seconds": {0: "2017-03-02T09:15:00.5"},
    "utc_offset": {0: "2017-03-02T09:15:00+09:00"},
    "date_only": {0: "2017-03-02"},
    "space_separator": {0: "2017-03-02 09:15:00"},
    "bad_date": {0: "2017-02-29T09:15:00"},
    "leap_day": {0: "2016-02-29T23:59:59"},
    "bad_hour": {0: "2017-03-02T24:00:00"},
    "year_zero": {0: "0000-03-02T09:15:00"},
    "padded_time": {0: " 2017-03-02T09:15:00"},
    "timestamp_word": {0: "timestamp"},
    # non-ASCII text makes the chunk's code points UTF-32
    "unicode_ids": {1: "株式会社A", 2: "Ünïcode"},
    "unicode_coords": {6: "٣٤.٥", 7: "１３５"},
    "unicode_bad_coord": {8: "北", 9: "135.5"},
}
_WHOLE_LINES = {
    "blank": "",
    "spaces": "   ",
    "header": ",".join(
        ("timestamp", "source_id", "destination_id", "amount_yen", "source_kind",
         "destination_kind", "source_lat", "source_lon", "dest_lat", "dest_lon")
    ),
    "short": "2017-03-02T09:15:00,F1,F2,5,firm,firm,34.2,135.1",
    "long": ",".join(_FIELDS) + ",extra",
    # a quoted id may span lines: csv joins the lines up to the closing quote
    "open_quote": '2017-03-02T09:15:00,"F1',
    "close_quote": 'X",F2,5,firm,firm,,,,',
}
_CANONICAL = ",".join(_FIELDS) + "\n"
# Coordinate texts drawn per field, so that each, valid or not, recurs in
# later chunks and under more strings than the accounts can hold
_COORD_TEXTS = (
    "34.5", "135.5", "", " ", " 34.5", "135.5 ", "\t34.5", "nan", " nan ", "NaN",
    "north", "3_4.5", "1e-05", "-inf", "٣٤",
)


# Tails, valid and not, that recur in later chunks, between non-ASCII lines
_RECURRING_TAILS = [
    _CANONICAL.replace("F1,F2", ids).replace("34.5,135.5", coords)
    for ids, coords in (
        ("F1,F2", "34.5,135.5"), ("F2,F1", "north,135.5"), ("株,F2", "34.5,135.5"),
        ("F1,F2", "34.5,135.5"), ("F3,F1", "٣٤,135.5"), ("F2,F1", "north,135.5"),
        ("F1,F2", "34.5,135.5"), ("F3,F1", "٣٤,135.5"), ("F2,F1", "north,135.5"),
        ("F1,F2", ","), ("F1,F2", "34.5,135.5"), ("株,F2", "34.5,135.5"),
    )
]


@st.composite
def _log_lines(draw):
    names = draw(st.lists(
        st.sampled_from(sorted(_VARIANTS) + sorted(_WHOLE_LINES) + ["drawn_coords"]),
        min_size=0,
        max_size=14,
    ))
    lines = []
    for name in names:
        if name in _WHOLE_LINES:
            text = _WHOLE_LINES[name]
        else:
            fields = list(_FIELDS)
            for k, value in _VARIANTS.get(name, {}).items():
                fields[k] = value
            if name == "drawn_coords":
                fields[1] = draw(st.sampled_from(["F1", "F2", "F3"]))
                fields[6:] = [draw(st.sampled_from(_COORD_TEXTS)) for _ in range(4)]
            text = ",".join(fields)
        lines.append(text + draw(st.sampled_from(["\n", "\n", "\r\n"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no final newline
    return lines


@given(_log_lines(), st.integers(min_value=1, max_value=5), st.booleans())
@example([_WHOLE_LINES["open_quote"] + "\n", _CANONICAL, _WHOLE_LINES["close_quote"] + "\n",
          _CANONICAL], 2, False)
@example([_CANONICAL.replace("34.5,135.5", coords) for coords in
          ("nan, 1", " , ", "north,1", "1 ,\t2", "nan, 1", " , ", "north,1", "1 ,\t2")], 2, False)
@example(_RECURRING_TAILS, 1, False)
@example(_RECURRING_TAILS, 2, False)
@example(_RECURRING_TAILS, 3, False)
@example(_RECURRING_TAILS, 4, False)
@example(_RECURRING_TAILS, 5, False)
@settings(max_examples=300, deadline=None)
def test_fast_path_matches_per_line_parse(lines, chunk_lines, strict):
    with mock.patch.object(ingest_module, "CHUNK_LINES", chunk_lines):
        try:
            expected = _reference_parse(list(lines), strict=strict)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_log(iter(lines), strict=strict)
            assert str(got.value) == str(exc)
            return
        table, rejected = parse_log(iter(lines), strict=strict)
    assert rejected == expected[1]
    assert table == transfer_table(expected[0])


def test_non_ascii_lines_are_read_at_their_offsets():
    # a chunk with non-ASCII text is read from UTF-32 code points; its
    # canonical lines must not fall back to the per-line parser
    vocab = ingest_module._Vocabulary()
    tails = ingest_module._Tails(vocab, ",")
    columns, canonical = ingest_module._canonical_chunk(_RECURRING_TAILS, ",", vocab, tails)
    good = ["north" not in line for line in _RECURRING_TAILS]
    assert canonical.tolist() == good
    src = [line.split(",")[1] for line, ok in zip(_RECURRING_TAILS, good) if ok]
    assert vocab.ids()[columns["src"]].tolist() == src
    assert columns["src_coord"][:, 0].tolist() == [
        float(line.split(",")[6] or 0.0) for line, ok in zip(_RECURRING_TAILS, good) if ok
    ]


def test_tail_memo_stays_within_its_bound():
    # every line has a tail of its own: the memo starts over instead of
    # growing with the events
    sizes = []

    class Tails(ingest_module._Tails):
        def columns(self, tails):
            got = super().columns(tails)
            sizes.append((len(self), self.bound()))
            return got

    lines = [
        _CANONICAL.replace("34.5,135.5", f"34.{k},135.5") for k in range(200)
    ]
    with mock.patch.object(ingest_module, "CHUNK_LINES", 4), \
            mock.patch.object(ingest_module, "_MEMO_SLACK", 4), \
            mock.patch.object(ingest_module, "_Tails", Tails):
        table, rejected = parse_log(lines)
    expected = _reference_parse(lines)
    assert rejected == expected[1] == []
    assert table == transfer_table(expected[0])
    assert len(sizes) == 50
    assert all(size <= bound for size, bound in sizes)
    assert max(size for size, _ in sizes) == 12  # 4 per account of F1 and F2 plus the slack
    assert min(size for size, _ in sizes) < 12  # it started over


_QUOTED_BREAK = _CANONICAL.replace("F1", '"F\n1"')


@pytest.mark.parametrize("strict", [False, True])
def test_rejected_line_is_the_physical_line(strict):
    # the quoted id "F<newline>1" takes lines 2-3, so the amount x is on line 4
    lines = ["timestamp,x\n", *_QUOTED_BREAK.splitlines(keepends=True),
             _CANONICAL.replace("35000", "x")]
    if strict:
        with pytest.raises(ParseError, match="^line 4: "):
            parse_log(lines, strict=True)
        return
    table, rejected = parse_log(lines)
    assert [r.line_no for r in rejected] == [4]
    assert list(table)[0].source == "F\n1"


def test_quoted_field_across_a_chunk_boundary_keeps_line_numbers():
    # the quoted record starts on a chunk's last line and ends on the
    # first line the chunk left unread
    n = ingest_module.CHUNK_LINES
    lines = [_CANONICAL] * (n - 1) + _QUOTED_BREAK.splitlines(keepends=True)
    lines += [_CANONICAL.replace("35000", "x"), _CANONICAL]
    table, rejected = parse_log(lines)
    assert [r.line_no for r in rejected] == [n + 2]
    assert len(table) == n + 1
    assert list(table)[n - 1].source == "F\n1"
    assert rejected == _reference_parse(lines)[1]


def test_field_over_csv_limit_fails_as_in_csv():
    line = "2017-03-02T09:15:00," + "F" * (csv.field_size_limit() + 1) + ",F2,5,firm,firm,,,,\n"
    with pytest.raises(csv.Error, match="field limit"):
        _reference_parse([line])
    with pytest.raises(csv.Error, match="field limit"):
        parse_log([line])


@pytest.mark.parametrize("inner", [
    "2017-03-02T09:15:00,F1\nX,F2,5,firm,firm,,,,\n",
    "2017-03-02T09:15:00,F1,F2,5,firm,firm,,,,\n" * 2,
])
def test_line_break_inside_a_line_fails_as_in_csv(inner):
    # an iterable may yield a string holding a line break before its end:
    # it is no canonical line, and csv refuses it
    lines = [_CANONICAL, inner, _CANONICAL]
    with pytest.raises(csv.Error, match="new-line character"):
        _reference_parse(lines)
    with pytest.raises(csv.Error, match="new-line character"):
        parse_log(lines)


def test_fast_path_with_other_delimiters():
    lines = [GOOD_LINE.replace(",", ";") + "\n", "2017-03-02T09:15:00;F1;F2;0;firm;firm;;;;\n"]
    records, rejected = _reference_parse(lines, delimiter=";")
    table, got = parse_log(lines, delimiter=";")
    assert table == transfer_table(records) and got == rejected
    assert len(table) == 1 and len(rejected) == 1


@pytest.mark.parametrize("stamps", [
    ["0001-01-01T00:00:00"],
    ["1969-12-31T23:59:59"],
    ["1970-01-01T00:00:00"],
    ["2016-02-29T23:59:59"],
    ["9999-12-31T23:59:59.999999"],
    ["2017-03-02T09:15:00", "2017-03-02T09:15:00.5", "1969-12-31T23:59:59.000001",
     "0001-01-01T00:00:00", "2017-03-03T00:00:00.250000", "1999-12-31T23:59:59"],
])
def test_write_records_timestamps_match_isoformat(stamps):
    from moneyflow import write_records

    times = [datetime.fromisoformat(stamp) for stamp in stamps]
    buf = io.StringIO()
    with mock.patch.object(ingest_module, "CHUNK_LINES", 4):
        write_records(transfer_table([_rec("F1", "F2", ts=ts) for ts in times]), buf)
    lines = buf.getvalue().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == [ts.isoformat() for ts in times]


def test_walnut_round_trip_over_several_chunks():
    from moneyflow import generate, walnut_scenario, write_records

    records, _ = generate(walnut_scenario(n_nodes=6000, seed=2))
    assert len(records) > 2 * ingest_module.CHUNK_LINES
    buf = io.StringIO()
    write_records(records, buf)
    parsed, rejected = parse_log(io.StringIO(buf.getvalue()))
    assert rejected == []
    assert parsed == records


def test_record_steps_hold_about_one_copy_of_the_table(tmp_path):
    """Traced peaks of the whole-table steps on a log of many chunks.

    numpy reports its buffers to tracemalloc, so the counts repeat exactly.
    parse_log holds the chunk parts and its result, which share one copy
    of the data, one column being merged and one chunk's transients;
    aggregate and collect_node_coords each add well under one copy.
    """
    from moneyflow import generate, walnut_scenario, write_records

    records, _ = generate(walnut_scenario(n_nodes=5000, seed=5))
    log = tmp_path / "log.csv"
    with open(log, "w", encoding="utf-8") as fh:
        write_records(records, fh)
    peaks = {}

    def traced(step, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = step(*args)
        peaks[step.__name__] = tracemalloc.get_traced_memory()[1] - before
        return result

    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        with open(log, encoding="utf-8", newline="") as fh:
            table, _ = traced(parse_log, fh)
        traced(aggregate, table)
        traced(collect_node_coords, table)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert table == records
    assert len(table) > 10 * ingest_module.CHUNK_LINES
    table_bytes = sum(getattr(table, name).nbytes for name in ingest_module._COLUMN_DTYPES)
    assert peaks["parse_log"] <= 2 * table_bytes + 6 * 2**20, peaks["parse_log"] / table_bytes
    assert peaks["aggregate"] <= 0.6 * table_bytes, peaks["aggregate"] / table_bytes
    assert peaks["collect_node_coords"] <= 0.6 * table_bytes, (
        peaks["collect_node_coords"] / table_bytes
    )


_accounts = st.sampled_from(["F1", "F2", "F3", "F4"])
# -0.0 and nan repeat, so that equal values, equal bits and nan all recur
_points = st.none() | st.sampled_from(
    [(34.5, 135.5), (0.0, -0.0), (-0.0, 0.0), (math.nan, 1.0)]
) | st.tuples(st.floats(), st.floats())


@given(st.lists(st.builds(_rec, _accounts, _accounts, sc=_points, dc=_points), max_size=24))
@settings(max_examples=200, deadline=None)
def test_coordinates_match_oracle(records):
    from moneyflow import write_records

    table = transfer_table(records)
    buf = io.StringIO()
    with mock.patch.object(ingest_module, "CHUNK_LINES", 3):
        coords, conflicts = collect_node_coords(table)
        write_records(table, buf)
    expected, expected_conflicts = first_coordinates(records)
    # repr tells -0.0 from 0.0 and shows every nan alike
    assert repr(list(coords.items())) == repr(list(expected.items()))
    assert conflicts == expected_conflicts
    rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
    assert [row[6:] for row in rows] == coordinate_fields(records)


# header words are valid ids: only a table's first line is its header
_ids = st.sampled_from(["source_id", "destination_id", "node_id", "timestamp"]) | st.text(
    min_size=1, max_size=6
).filter(lambda s: s == s.strip())
_coords = st.none() | st.tuples(
    st.floats(allow_nan=True, allow_infinity=True), st.floats(allow_nan=True, allow_infinity=True)
)


@given(st.lists(
    st.builds(
        TransferRecord,
        timestamp=st.datetimes(),
        source=_ids,
        destination=_ids,
        amount=st.integers(min_value=1, max_value=2**63 - 1),
        source_kind=st.sampled_from(KINDS),
        destination_kind=st.sampled_from(KINDS),
        source_coord=_coords,
        destination_coord=_coords,
    ),
    max_size=12,
))
@settings(max_examples=150, deadline=None)
def test_write_then_parse_is_identity(records):
    from moneyflow import write_records

    table = transfer_table(records)
    buf = io.StringIO()
    write_records(table, buf)
    with mock.patch.object(ingest_module, "CHUNK_LINES", 3):
        parsed, rejected = parse_log(io.StringIO(buf.getvalue()))
    assert rejected == []
    assert parsed == table


@given(st.dictionaries(
    st.tuples(_ids, _ids),
    st.tuples(st.integers(min_value=1, max_value=2**70), st.integers(min_value=1, max_value=2**63 - 1)),
    max_size=12,
))
@example({("F1", "F2"): (5, 1), ("source_id", "node_id"): (7, 2)})
@settings(max_examples=150, deadline=None)
def test_links_write_then_read_is_identity(pairs):
    # any ids the writer accepts, flows past int64, links in file order
    links = [AggregatedLink(s, d, flow, freq) for (s, d), (flow, freq) in pairs.items()]
    buf = io.StringIO()
    write_links(link_table(links), buf)
    back = read_links(io.StringIO(buf.getvalue(), newline=""))
    assert back == link_table(links) and list(back) == links


@given(st.dictionaries(
    _ids, st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(allow_nan=True, allow_infinity=True)),
    max_size=12,
))
@example({"A": (34.5, 135.5), "node_id": (34.0, 135.0)})
@settings(max_examples=150, deadline=None)
def test_node_coords_write_then_read_is_identity(coords):
    buf = io.StringIO()
    write_node_coords(coords, buf)
    back = read_node_coords(io.StringIO(buf.getvalue(), newline=""))
    # compared by repr, because nan != nan and -0.0 == 0.0
    assert {k: tuple(map(repr, v)) for k, v in back.items()} == {
        k: tuple(map(repr, v)) for k, v in coords.items()
    }


def test_node_coords_repeated_id_names_both_lines():
    # first-wins is collect_node_coords' rule; a table that repeats an id
    # was not written by write_node_coords
    text = "node_id,lat,lon\nA,34.5,135.5\n\nB,34.0,135.0\n A ,34.9,135.9\n"
    with pytest.raises(ValueError, match=r"node table lines 2 and 5: node_id 'A' repeats"):
        read_node_coords(io.StringIO(text))


@pytest.mark.parametrize("text", [
    "node_id,lat,lon\nA,34.5\n",
    "node_id,lat,lon\nA,34.5,135.5,7\n",
    "A\n",
])
def test_node_coords_field_count(text):
    with pytest.raises(ValueError, match="expected 3 fields"):
        read_node_coords(io.StringIO(text))
