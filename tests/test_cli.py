"""End-to-end checks of the command line pipeline, run in process."""

import contextlib
import csv
import hashlib
import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moneyflow
from moneyflow import community as community_module
from moneyflow import ingest as ingest_module
from moneyflow.bowtie import COMPONENT_NAMES, classify_bowtie
from moneyflow.cli import BOWTIE_COLUMNS, CCDF_COLUMNS, POTENTIAL_COLUMNS, main
from moneyflow.community import detect_communities, flat_table
from moneyflow.geonmf import read_matrix
from moneyflow.hodge import hodge_decompose
from moneyflow.ingest import COLUMNS, _read_columns, _read_nodes, read_links, write_links
from moneyflow.network import AggregatedLink, build_network, degree_stats, net_flow_per_node
from moneyflow.svgplot import line_plot

from conftest import TABLE_IDS, faulty_rows, link_table, table_lines, workers_die
from oracles import table_rows


def pipeline_steps(out):
    """Full workspace run on a small seeded scenario."""
    d = str(out)
    return [
        ["synth", "--out", d, "--scenario", "full", "--nodes", "300", "--seed", "1"],
        ["ingest", "--out", d, "--input", str(out / "synthetic_log.csv")],
        ["stats", "--out", d],
        ["bowtie", "--out", d],
        ["hodge", "--out", d],
        ["communities", "--out", d, "--trials", "2"],
        [
            "nmf", "--out", d,
            "--grid-k", "20", "--nmf-d", "3", "--max-iters", "200",
        ],
        ["report", "--out", d],
    ]


def _set_key(key, value):
    """An edit of a JSON summary's lines that sets ``key`` to ``value(summary)``."""
    def edit(lines):
        obj = json.loads("".join(lines))
        return json.dumps({**obj, key: value(obj)}).splitlines()
    return edit


def run_pipeline(out):
    for argv in pipeline_steps(out):
        assert main(argv) == 0, f"step {argv[0]} failed"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    run_pipeline(out)
    return out


class TestUsage:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("moneyflow ")

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_choice(self, tmp_path):
        argv = ["synth", "--out", str(tmp_path), "--scenario", "bogus"]
        assert main(argv) == 1

    def test_missing_required_flag(self, tmp_path):
        assert main(["ingest", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_hodge_tolerance_must_be_finite_positive(self, tmp_path, tol, capsys):
        out = tmp_path / "ws"
        assert main(["hodge", "--out", str(out), f"--tol={tol}"]) == 1
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        *(pytest.param("communities", flag, id=flag)
          for flag in ("--trials=0", "--trials=-1", "--seed=-1")),
        *(pytest.param(command, flag, id=f"{command}{flag}")
          for command, flag in (("synth", "--nodes=0"), ("synth", "--seed=-1"),
                                ("nmf", "--max-iters=0"))),
        *(pytest.param(command, flag, id=f"{command}{flag}")
          for command, flag in (("synth", "--blocks=0"), ("synth", "--blocks=-2"),
                                ("nmf", "--grid-k=0"), ("nmf", "--nmf-d=0"),
                                ("nmf", "--radius-km=-1"), ("nmf", "--radius-km=nan"),
                                ("nmf", "--tol=-1"), ("nmf", "--tol=nan"))),
        *(pytest.param("nmf", f"--bounds={box}", id=f"nmf--bounds={box}")
          for box in ("34:35:135:inf", "35:34:135:136", "nan:35:135:136",
                      "-100:100:135:136", "34:35:0:181")),
    ])
    def test_communities_counts_must_be_in_range(self, tmp_path, command, flag, capsys):
        # counts and seeds out of range are usage errors in every stage
        out = tmp_path / "ws"
        assert main([command, "--out", str(out), flag]) == 1
        assert flag.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_nmf_has_no_seed(self, tmp_path, capsys):
        # the NMF start draws no random numbers, so there is nothing to seed
        out = tmp_path / "ws"
        assert main(["nmf", "--out", str(out), "--seed", "0"]) == 1
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--nmf-d", "5"], "--nmf-d"),
        (["--nmf-d", "2", "--nmf-d-range", "1:5"], "--nmf-d-range"),
    ], ids=["nmf-d", "nmf-d-range"])
    def test_factor_count_beyond_the_grid_writes_nothing(self, ws, tmp_path, capsys, flags, named):
        # a 2 x 2 grid holds at most 4 factors: a usage error before the
        # first read or write, not invalid data after the factors are out
        out = tmp_path / "ws"
        out.mkdir()
        for name in ("links.csv", "nodes.csv"):
            shutil.copy(ws / name, out / name)
        assert main(["nmf", "--out", str(out), "--grid-k", "2", *flags]) == 1
        err = capsys.readouterr().err
        assert f"argument {named}: 5 factors exceed the 4 cells of --grid-k 2" in err
        assert sorted(p.name for p in out.iterdir()) == ["links.csv", "nodes.csv"]

    @pytest.mark.parametrize("flags, message", [
        *(pytest.param(["--scenario", scenario, "--nodes", "2"], "fewer than 2 nodes",
                       id=f"{scenario}-2") for scenario in ("walnut", "cities", "full")),
        pytest.param(["--scenario", "blocks", "--nodes", "241"], "divide evenly", id="blocks-241"),
        pytest.param(["--scenario", "blocks", "--blocks", "3", "--nested"], "pairs blocks",
                     id="blocks-3-nested"),
    ])
    def test_refused_scenario_writes_nothing(self, tmp_path, capsys, flags, message):
        # sizes the generator cannot wire are refused with the flags, before
        # the first write, not as invalid data once generation fails
        out = tmp_path / "ws"
        assert main(["synth", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert f"--scenario {flags[1]}: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\r", "\n"],
                             ids=["two-chars", "empty", "quote", "cr", "lf"])
    def test_ingest_delimiter_must_separate_csv_fields(self, tmp_path, delimiter, capsys):
        # csv splits on one character, and a quote or line break cannot be it
        log = tmp_path / "log.csv"
        log.write_text(
            "2017-03-02T09:15:00,F1,F2,35000,firm,firm,34.2,135.1,34.3,135.2\n", encoding="utf-8"
        )
        out = tmp_path / "ws"
        argv = ["ingest", "--out", str(out), "--input", str(log), f"--delimiter={delimiter}"]
        assert main(argv) == 1
        assert "--delimiter" in capsys.readouterr().err
        assert not out.exists()


class TestDataErrors:
    def test_missing_producer_is_named(self, tmp_path, capsys):
        assert main(["hodge", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "links.csv" in err and "'ingest'" in err

    def test_report_names_first_missing(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "'stats'" in capsys.readouterr().err

    def test_input_log_not_found(self, tmp_path):
        argv = ["ingest", "--out", str(tmp_path), "--input", str(tmp_path / "nope.csv")]
        assert main(argv) == 2

    def test_strict_ingest_rejects_bad_line(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text("timestamp,junk\nonly,two\n", encoding="utf-8")
        argv = ["ingest", "--out", str(tmp_path), "--input", str(log), "--strict"]
        assert main(argv) == 2
        assert "expected 10 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [[], ["2018-01-05T10:30:00,F1,X2,100,firm,external,,,,"]])
    def test_ingest_keeping_no_transfer(self, tmp_path, rows):
        # a header-only log, or one whose transfers the default policy drops
        log = tmp_path / "log.csv"
        log.write_text("".join(line + "\n" for line in [",".join(COLUMNS), *rows]), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(log)]) == 0
        assert (out / "links.csv").read_text() == "source_id,destination_id,flow_yen,frequency\n"
        assert (out / "nodes.csv").read_text() == "node_id,lat,lon\n"
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert (summary["records_parsed"], summary["links"], summary["nodes"]) == (len(rows), 0, 0)

    def test_byte_order_mark_is_not_part_of_the_header(self, ws, tmp_path):
        # spreadsheet tools start a UTF-8 file with U+FEFF; the header line
        # after it is still a header, and every table is the unmarked log's
        log = tmp_path / "marked.csv"
        log.write_bytes(b"\xef\xbb\xbf" + (ws / "synthetic_log.csv").read_bytes())
        for flags in ([], ["--strict"]):
            out = tmp_path / f"out{len(flags)}"
            assert main(["ingest", "--out", str(out), "--input", str(log), *flags]) == 0
            assert not (out / "rejected.csv").exists()
            for name in ("links.csv", "nodes.csv"):
                assert (out / name).read_bytes() == (ws / name).read_bytes()
            assert json.loads((out / "ingest_summary.json").read_text())["records_rejected"] == 0

    def test_flow_beyond_int64(self, tmp_path, capsys):
        # two transfers of the largest int64 amount sum past int64: ingest
        # keeps the exact total, stats refuses the link as invalid data
        line = "2018-01-05T10:30:00,F1,F2,9223372036854775807,firm,firm,,,,\n"
        log = tmp_path / "log.csv"
        log.write_text(line * 2, encoding="utf-8")
        out = tmp_path / "ws"
        assert main(["ingest", "--out", str(out), "--input", str(log)]) == 0
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary["flow_total_yen"] == 2 * (2**63 - 1)
        assert main(["stats", "--out", str(out)]) == 2
        assert "'F1' -> 'F2': flow 18446744073709551614 exceeds the int64 range" in (
            capsys.readouterr().err
        )

    def test_net_flow_beyond_int64(self, tmp_path):
        # each flow fits int64 but C's balance does not: hodge writes the
        # exact value, and r(phi, net flow) is computed from it
        big = 2**62 + 5
        out = tmp_path / "ws"
        out.mkdir()
        (out / "links.csv").write_text(
            f"source_id,destination_id,flow_yen,frequency\nA,C,{big},1\nB,C,{big},1\n",
            encoding="utf-8",
        )
        assert main(["hodge", "--out", str(out)]) == 0
        rows = (out / "hodge_potentials.csv").read_text(encoding="utf-8").splitlines()
        net_flow = {row.split(",")[0]: int(row.split(",")[3]) for row in rows[1:]}
        assert net_flow == {"A": -big, "B": -big, "C": 2 * big}
        summary = json.loads((out / "hodge_summary.json").read_text())
        assert summary["r_phi_net_flow"] == pytest.approx(-1.0)

    @pytest.mark.parametrize("command", ["stats", "ingest"])
    def test_field_over_csv_limit(self, tmp_path, command, capsys):
        # csv refuses a field past csv.field_size_limit(): invalid data
        long_id = "F" * 200_000
        out = tmp_path / "ws"
        out.mkdir()
        if command == "stats":
            (out / "links.csv").write_text(
                f"source_id,destination_id,flow_yen,frequency\n{long_id},F2,5,1\n",
                encoding="utf-8",
            )
            argv = ["stats", "--out", str(out)]
        else:
            log = tmp_path / "log.csv"
            log.write_text(f"2018-01-05T10:30:00,{long_id},F2,5,firm,firm,,,,\n", encoding="utf-8")
            argv = ["ingest", "--out", str(out), "--input", str(log)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"moneyflow {command}: error: ") and "field limit" in err
        assert err.count("\n") == 1
        assert not list(out.glob("manifest_*.json"))

    def test_stats_on_one_link(self, tmp_path):
        out = tmp_path / "ws"
        out.mkdir()
        (out / "links.csv").write_text(
            "source_id,destination_id,flow_yen,frequency\nF1,F2,5,1\n", encoding="utf-8"
        )
        assert main(["stats", "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert (stats["nodes"], stats["links"]) == (2, 1)
        assert stats["flow"]["std"] == 0.0 and stats["flow"]["skewness"] is None

    def test_ccdf_keeps_a_large_integer_flow(self, tmp_path):
        # past 1e15 a float loses the low digits of a flow
        out = tmp_path / "ws"
        out.mkdir()
        (out / "links.csv").write_text(
            "source_id,destination_id,flow_yen,frequency\nF1,F2,1234567890123456789,1\n",
            encoding="utf-8",
        )
        assert main(["stats", "--out", str(out)]) == 0
        rows = (out / "ccdf_flow.tsv").read_text(encoding="utf-8").splitlines()
        assert rows[1:] == ["1234567890123456789\t1.0"]

    @pytest.mark.parametrize("rows, message", [
        (["F1,F2,5,1", "F2,F1,3,1", "F1,F2,7,2"], "duplicate link 'F1' -> 'F2'"),
        (["F1,F2,5,1", "F2,F2,7,2"], "self-loop link 'F2' -> itself"),
        ([], "{out}/links.csv contains no links"),
    ], ids=["repeated-pair", "self-loop", "no-links"])
    def test_nmf_refuses_the_link_tables_the_other_stages_refuse(
        self, tmp_path, capsys, rows, message
    ):
        out = tmp_path / "ws"
        out.mkdir()
        header = "source_id,destination_id,flow_yen,frequency"
        (out / "links.csv").write_text("".join(f"{row}\n" for row in [header, *rows]))
        (out / "nodes.csv").write_text("node_id,lat,lon\nF1,34.5,135.5\nF2,34.6,135.6\n")
        for argv in (["stats"], ["nmf", "--grid-k", "2", "--nmf-d", "1"]):
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"moneyflow {argv[0]}: error: {message.format(out=out)}\n"
        assert not list(out.glob("manifest_*.json"))

    def test_short_nodes_row(self, tmp_path, capsys):
        out = tmp_path / "ws"
        out.mkdir()
        (out / "links.csv").write_text(
            "source_id,destination_id,flow_yen,frequency\nF1,F2,5,1\n", encoding="utf-8"
        )
        (out / "nodes.csv").write_text(
            "node_id,lat,lon\nF1,34.5,135.5\nF2,34.5\n", encoding="utf-8"
        )
        assert main(["nmf", "--out", str(out), "--grid-k", "2", "--nmf-d", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "moneyflow nmf: error: node table line 3: expected 3 fields, got 2\n"
        assert not list(out.glob("manifest_*.json"))

    @pytest.mark.parametrize("command, name, row, message", [
        ("stats", "links.csv", "F1,F2,x,1",
         "link table line 3: flow_yen 'x' is not an integer"),
        ("nmf", "nodes.csv", "F2,abc,135.5",
         "node table line 3: lat 'abc' is not a number"),
        ("nmf", "nodes.csv", "F1,34.9,135.9",
         "node table lines 2 and 3: node_id 'F1' repeats"),
        ("communities", "links.csv", "B,C,5,0",
         "link table line 3: frequency 0 is below 1"),
        ("nmf", "links.csv", "F2,F1,7,-3",
         "link table line 3: frequency -3 is below 1"),
        ("stats", "links.csv", "F2,F1,0,1",
         "link table line 3: flow_yen 0 is below 1"),
    ])
    def test_non_numeric_field_names_its_line(self, tmp_path, capsys, command, name, row, message):
        out = tmp_path / "ws"
        out.mkdir()
        (out / "links.csv").write_text(
            "source_id,destination_id,flow_yen,frequency\nF1,F2,5,1\n", encoding="utf-8"
        )
        (out / "nodes.csv").write_text("node_id,lat,lon\nF1,34.5,135.5\n", encoding="utf-8")
        with open(out / name, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        argv = [command, "--out", str(out)]
        if command == "nmf":
            argv += ["--grid-k", "2", "--nmf-d", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"moneyflow {command}: error: {message}\n"
        assert not list(out.glob("manifest_*.json"))

    @pytest.mark.parametrize("command, name, rows, message", [
        ("stats", "links.csv", ['"F\n1",F2,5,1', "F3,F4,x,1"],
         "link table line 4: flow_yen 'x' is not an integer"),
        ("nmf", "nodes.csv", ["F1,34.5,135.5", '"F\n2",34.6,135.6', "F1,34.9,135.9"],
         "node table lines 2 and 5: node_id 'F1' repeats"),
    ], ids=["links-after-quoted-break", "nodes-after-quoted-break"])
    def test_malformed_table_names_physical_line(
        self, tmp_path, capsys, command, name, rows, message
    ):
        # a quoted id may span lines; a message names the line in the file,
        # not the row's count
        out = tmp_path / "ws"
        out.mkdir()
        (out / "links.csv").write_text(
            "source_id,destination_id,flow_yen,frequency\nF1,F2,5,1\n", encoding="utf-8"
        )
        (out / "nodes.csv").write_text("node_id,lat,lon\nF1,34.5,135.5\n", encoding="utf-8")
        header = (out / name).read_text(encoding="utf-8").splitlines()[0]
        (out / name).write_text("".join(f"{row}\n" for row in [header, *rows]), encoding="utf-8")
        argv = [command, "--out", str(out)]
        if command == "nmf":
            argv += ["--grid-k", "2", "--nmf-d", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"moneyflow {command}: error: {message}\n"
        assert not list(out.glob("manifest_*.json"))

    @pytest.mark.parametrize("name, edit, detail", [
        ("bowtie.csv", lambda lines: [], " holds no rows"),
        ("hodge_potentials.csv", lambda lines: lines[:1] + [lines[1].split(",")[0] + ",x,0,0"] + lines[2:],
         " line 2: phi 'x' is not a number"),
        ("hodge_potentials.csv", lambda lines: lines[:2] + [lines[2].split(",")[0]] + lines[3:],
         " line 3: expected 4 fields, got 1"),
        ("bowtie.csv", lambda lines: lines[:1] + [lines[1].split(",")[0] + ",CORE"] + lines[2:],
         " line 2: unknown component 'CORE'"),
        ("bowtie.csv", lambda lines: lines[:2] + lines[1:],
         " lines 2 and 3: node_id 'F000000' repeats"),
        ("ccdf_flow.tsv", lambda lines: lines[:1] + ["x\t1.0"] + lines[2:],
         " line 2: value 'x' is not a number"),
        ("ccdf_flow.tsv", lambda lines: lines[:1], " holds no rows"),
        ("nmf_summary.json", lambda lines: json.dumps(
            {k: v for k, v in json.loads("".join(lines)).items() if k != "similarity"}
        ).splitlines(), ": missing key 'similarity'"),
        ("stats.json", lambda lines: ["[]"], ": expected a JSON object"),
        ("hodge_summary.json", lambda lines: ["{"],
         ": Expecting property name enclosed in double quotes: line 2 column 1 (char 2)"),
        ("community_report.json", lambda lines: ['{"levels": [], "size_rank": [{"rank": 1}]}'],
         ": missing key 'size_rank'[0]['size']"),
        ("nmf_summary.json", _set_key("similarity", lambda obj: 5), ": 'similarity' is not a list"),
        ("nmf_summary.json", _set_key("similarity", lambda obj: obj["similarity"][:2] + [[0.5, 0.5]]),
         ": 'similarity' is not a 3 x 3 list of numbers or null"),
        ("nmf_summary.json", _set_key("similarity", lambda obj: [["x"] * 3] * 3),
         ": 'similarity'[0][0] is not a number or null"),
        ("nmf_summary.json", _set_key("d", lambda obj: "3"), ": 'd' is not a positive integer"),
        ("community_report.json",
         _set_key("size_rank", lambda obj: [{**obj["size_rank"][0], "size": "x"}] + obj["size_rank"][1:]),
         ": 'size_rank'[0]['size'] is not a positive integer"),
        ("stats.json", _set_key("links", lambda obj: "x"), ": 'links' is not a non-negative integer"),
        ("bowtie_summary.json", _set_key("gwcc_fractions", lambda obj: {**obj["gwcc_fractions"], "IN": "x"}),
         ": 'gwcc_fractions' is not an object of numbers or null"),
        ("hodge_summary.json", _set_key("r_phi_net_flow", lambda obj: "x"),
         ": 'r_phi_net_flow' is not a number or null"),
        ("community_report.json", _set_key("levels", lambda obj: "x"), ": 'levels' is not a list"),
        ("community_report.json",
         _set_key("levels", lambda obj: [{**obj["levels"][0], "accounts": "x"}] + obj["levels"][1:]),
         ": 'levels'[0]['accounts'] is not a non-negative integer"),
        ("nmf_summary.json", _set_key("matched_pairs", lambda obj: "x"),
         ": 'matched_pairs' is not a non-negative integer"),
        ("nmf_summary.json", _set_key("localized_origin", lambda obj: -1),
         ": 'localized_origin' is not a non-negative integer"),
    ], ids=["empty-bowtie", "non-numeric-phi", "short-potential-row", "unknown-component",
            "repeated-node", "non-numeric-ccdf", "empty-ccdf", "summary-missing-key",
            "summary-not-object", "summary-not-json", "size-row-without-size",
            "similarity-not-a-list", "similarity-ragged-row", "similarity-not-numbers",
            "summary-d-not-integer", "size-not-a-number", "stats-links-not-a-count",
            "bowtie-fraction-not-a-number", "hodge-r-not-a-number", "levels-not-a-list",
            "level-accounts-not-a-count", "matched-pairs-not-a-count",
            "localized-origin-negative"])
    def test_malformed_report_input(self, ws, tmp_path, capsys, name, edit, detail):
        out = tmp_path / "ws"
        shutil.copytree(ws, out)
        shutil.rmtree(out / "report")
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"moneyflow report: error: {path}{detail}\n"
        # every input is checked before the first figure is written
        assert not (out / "report").exists()

    def test_failed_input_check_leaves_no_workspace(self, tmp_path, capsys):
        fresh = tmp_path / "fresh"
        assert main(["nmf", "--out", str(fresh)]) == 2
        assert "links.csv" in capsys.readouterr().err
        assert not fresh.exists()

    def test_unattainable_tolerance(self, ws, capsys):
        # a target below double rounding: no residual within the
        # iteration cap satisfies it, so the solve must report failed
        # convergence rather than bogus success
        assert main(["hodge", "--out", str(ws), "--tol=1e-300"]) == 3
        assert "converge" in capsys.readouterr().err

    def test_convergence_failure_names_the_residual_once(self, ws, capsys):
        assert main(["hodge", "--out", str(ws), "--tol=1e-300"]) == 3
        err = capsys.readouterr().err
        residuals = re.findall(r"residual ([-+.e\d]+)", err)
        assert len(residuals) == 1, err
        assert err.count(residuals[0]) == 1, err

    def test_dead_worker_is_neither_invalid_data_nor_nonconvergence(
        self, ws, tmp_path, monkeypatch
    ):
        # a worker process that dies is a fault of the run: main exits
        # neither 2 nor 3 but lets the error end the process (exit 1)
        out = tmp_path / "ws"
        shutil.copytree(ws, out)
        workers_die(monkeypatch)
        with pytest.raises(BrokenProcessPool):
            main(["communities", "--out", str(out), "--trials", "2"])
        assert multiprocessing.active_children() == []

    def test_walk_that_does_not_converge_exits_3(self, ws, tmp_path, monkeypatch, capsys):
        # the search raises moneyflow.errors.ConvergenceError, which main
        # maps to exit 3 in a stage that never loads the Hodge module
        out = tmp_path / "ws"
        out.mkdir()
        shutil.copy(ws / "links.csv", out)
        monkeypatch.setattr(community_module, "_WALK_MAX_ITER", 1)
        assert main(["communities", "--out", str(out), "--trials", "1"]) == 3
        assert "stationary distribution did not converge" in capsys.readouterr().err
        assert not (out / "communities.json").exists()


class TestArtifacts:
    def test_expected_files(self, ws):
        expected = [
            "synthetic_log.csv", "ground_truth.json",
            "links.csv", "nodes.csv", "ingest_summary.json",
            "stats.json", "ccdf_flow.tsv", "ccdf_frequency.tsv",
            "ccdf_in_degree.tsv", "ccdf_out_degree.tsv",
            "bowtie.csv", "bowtie_summary.json",
            "hodge_potentials.csv", "hodge_links.csv", "hodge_summary.json",
            "communities.json", "communities_flat.csv", "community_report.json",
            "V.txt", "W.txt", "H.txt", "nmf_summary.json",
        ]
        for name in expected:
            assert (ws / name).is_file(), name
        for step in ("synth", "ingest", "stats", "bowtie", "hodge",
                     "communities", "nmf", "report"):
            assert (ws / f"manifest_{step}.json").is_file()
        report = json.loads((ws / "report" / "report.json").read_text())
        for fig in report["figures"]:
            assert (ws / "report" / fig).is_file()

    def test_ingest_summary_accounting(self, ws):
        summary = json.loads((ws / "ingest_summary.json").read_text())
        assert summary["records_rejected"] == 0
        assert summary["records_kept"] == summary["records_parsed"]
        assert summary["frequency_total"] == summary["records_kept"]
        assert summary["links"] > 0 and summary["nodes"] == 300

    def test_bowtie_identity(self, ws):
        summary = json.loads((ws / "bowtie_summary.json").read_text())
        assert summary["identity_holds"] is True
        sizes = summary["sizes"]
        gwcc = sum(sizes[k] for k in ("GSCC", "IN", "OUT", "TE"))
        assert gwcc == summary["gwcc_size"]
        assert gwcc + sizes["outside_GWCC"] == summary["n_nodes"] == 300

        lines = (ws / "bowtie.csv").read_text().splitlines()
        assert lines[0] == "node_id,component"
        assert len(lines) == 301

    def test_hodge_summary(self, ws):
        summary = json.loads((ws / "hodge_summary.json").read_text())
        assert summary["max_abs_circular_divergence"] <= 1e-6
        assert -1.0 <= summary["r_phi_net_degree"] <= 1.0
        assert 0.0 <= summary["circular_share"] <= 1.0

        lines = (ws / "hodge_potentials.csv").read_text().splitlines()
        assert lines[0] == "node_id,phi,net_degree,net_flow"
        phi = [float(l.split(",")[1]) for l in lines[1:]]
        assert abs(sum(phi)) < 1e-6  # zero-mean gauge

    def test_communities_flat_covers_nodes(self, ws):
        lines = (ws / "communities_flat.csv").read_text().splitlines()
        assert lines[0].startswith("node_id,level_1")
        assert len(lines) == 301
        tree = json.loads((ws / "communities.json").read_text())
        assert tree["node_count"] == 300
        hist = tree["history"]
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_nmf_summary(self, ws):
        summary = json.loads((ws / "nmf_summary.json").read_text())
        assert summary["d"] == 3 and summary["grid_k"] == 20
        assert summary["included_events"] > 0
        links = (ws / "links.csv").read_text().splitlines()[1:]
        total = sum(int(l.split(",")[3]) for l in links)
        assert summary["included_events"] + summary["excluded_events"] == total
        assert len(summary["diagonal_similarity"]) == 3
        assert summary["iterations"] <= 200
        assert summary["hit_cap"] is False or summary["iterations"] == 200
        assert "seed" not in summary

    def test_nmf_summary_records_a_cap_hit(self, ws, tmp_path):
        # one update cannot bring the relative change down to 1e-12
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        argv = ["nmf", "--out", str(copy), "--grid-k", "20", "--nmf-d", "3", "--max-iters", "1"]
        assert main(argv) == 0
        summary = json.loads((copy / "nmf_summary.json").read_text())
        assert (summary["iterations"], summary["hit_cap"]) == (1, True)

    def test_sweep_artifact(self, ws, tmp_path):
        argv = [
            "nmf", "--out", str(ws), "--grid-k", "20", "--nmf-d", "3",
            "--max-iters", "60", "--nmf-d-range", "2:3",
        ]
        assert main(argv) == 0
        rows = json.loads((ws / "sweep.json").read_text())
        assert [r["d"] for r in rows] == [2, 3]
        # restore the module workspace for later tests
        argv = [
            "nmf", "--out", str(ws), "--grid-k", "20", "--nmf-d", "3",
            "--max-iters", "200",
        ]
        assert main(argv) == 0

    def test_radius_zero_scores_peak_cell(self, ws, tmp_path):
        # radius 0 keeps each cell alone, so gamma is the peak cell's share
        copy = tmp_path / "ws"
        shutil.copytree(ws, copy)
        argv = [
            "nmf", "--out", str(copy), "--grid-k", "20", "--nmf-d", "3",
            "--max-iters", "200", "--radius-km", "0",
        ]
        assert main(argv) == 0
        summary = json.loads((copy / "nmf_summary.json").read_text())
        assert summary["radius_km"] == 0.0
        W = read_matrix(copy / "W.txt")
        for entry, col in zip(summary["localization"]["origin"], W.T):
            assert entry["gamma"] == pytest.approx(col.max() / col.sum(), rel=1e-12)

    def test_hodge_links_are_numeric(self, ws):
        with open(ws / "hodge_links.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["source_id", "destination_id", "f_net", "f_gradient", "f_circular"]
        assert len(rows) > 1
        for row in rows[1:]:
            f_net, f_grad, f_circ = (float(v) for v in row[2:])
            scale = max(abs(f_net), abs(f_grad), abs(f_circ))
            assert abs(f_net - (f_grad + f_circ)) <= 1e-9 * scale


# sha256 of the analysis artifacts of the pipeline above; a change to
# labels, distances, potentials or their formatting shows up here.  The
# bowtie pins date from before the graph layer moved onto
# scipy.sparse.csgraph, and held when it moved to numpy kernels; the
# statistics and Hodge pins were re-pinned when the generator's schedule
# draws changed the link weights, which leave the wiring, and so the
# bowtie, as it was.  The Hodge pins moved again when
# the potentials came from library CG, which changes their last bits, and
# again when a per-component CG in numpy replaced it: its inner products
# are np.add.reduceat sums, where library CG's were BLAS dot products whose
# summation order depends on the CPU's BLAS kernel.  stats.json was
# re-pinned then too, when the degree Pearson r came to sum with np.sum,
# not a BLAS dot product (r moved by 5 ulps), and the third and fourth
# moments came from products, not powers, whose AVX-512 and baseline
# loops multiply in different orders (one skewness and one kurtosis
# moved in their last bits).  The
# link table, node coordinates, ingest summary and binned V were pinned
# before links became columns, which must leave them as they were.  The
# flat community table and the four CCDF tables were pinned before every
# table came to be written by one column writer, which must leave them as
# they were.  The flat community table was re-pinned when a restart came
# to replace a community's best only by a gain over _MIN_GAIN: level 1's
# trial 0 is no longer beaten by trial 1's 2e-15 bits on the same
# partition, so the level-1 communities come in trial 0's order and each
# is searched with the seeds of its new index; at 2 trials one
# 34-account community now splits into 26 + 4 + 4 accounts, not 29 + 5
ARTIFACT_SHA256 = {
    "links.csv": "be217294625705a11e7393448552d72f9cc0ca098152624a86f22fe1038d437b",
    "nodes.csv": "35a720a56bcec92f01835455d2358069c4ddbd1eff16700abafdee7ddf29825d",
    "ingest_summary.json": "295369d8465d27db404a3315034d9ecbe9dadc8a84d161a44f44477f72f5c068",
    "V.txt": "2916d0d6562f9ccc60d23c68f5e4a362b2eace42d889529312f6cbf80483c37a",
    "stats.json": "e4669f05e9357ab9b5ad1e0afb15a848d339a35ef0a4f12b42fdc4160d78e150",
    "bowtie.csv": "012fe8a0ed9e31f17be15e57796752fc882950760a002df4d436bd26729417ba",
    "bowtie_summary.json": "2c5a898f3eed52cdc0bcf27ee8e5bcd31d4bc9ddf6371bcadf190d9178e64861",
    "hodge_potentials.csv": "3503dc22129eab13e9565c9ae1183589a40a1557d061d48c83b32e6153ac29e9",
    "hodge_summary.json": "500d2fe85f6c8a0ac8bf21bdf0b0c6e0a6e6bac7c3bac86f809c8be8d2e63884",
    "hodge_links.csv": "4b8f7ac8a1908f6a2b2a8a97050e27751e4ce0e53ddc1a43e2fcd1da33877515",
    "communities_flat.csv": "6fbf805029752041ec3de5c0c7401dfd16bb0ab4442d9e4c02ec5ddf34a63d89",
    "ccdf_flow.tsv": "ec4d5ccb2c9e81e5264e2beb3f3ef331e692274eac0f6b165c1ca661712305f7",
    "ccdf_frequency.tsv": "e3130e80648cf8f17f5c60fd9fdd99904bba426c9b1aed31237d1b56de4f3834",
    "ccdf_in_degree.tsv": "24aa16dc889b8f250b0f0c745be6222c6fff8246e2c62cd13695857524080e8d",
    "ccdf_out_degree.tsv": "4c1c146d59cc7083741d0580fc62bf8ccfdd24b9ee798c9cdf20198dc891fcae",
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_pinned_artifact_hash(ws, name):
    assert hashlib.sha256((ws / name).read_bytes()).hexdigest() == ARTIFACT_SHA256[name]


def _cpu_has_avx2() -> bool:
    try:
        return " avx2" in Path("/proc/cpuinfo").read_text()
    except OSError:
        return False


@pytest.mark.skipif(not _cpu_has_avx2(), reason="OpenBLAS's Haswell kernel needs AVX2")
def test_pins_hold_under_another_blas_kernel(tmp_path):
    # numpy's OpenBLAS picks its kernel by CPU; no BLAS call may reach a
    # pinned artifact, so forcing the AVX2 kernel must give the same bits
    code = (
        "import json, sys\n"
        "from moneyflow.cli import main\n"
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
    )
    _fresh(code, json.dumps(pipeline_steps(tmp_path)), OPENBLAS_CORETYPE="Haswell")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ARTIFACT_SHA256
    }
    assert digests == ARTIFACT_SHA256


def _dispatched_simd() -> set[str]:
    """The CPU feature groups numpy picks its SIMD kernels among at import."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return set(__cpu_dispatch__)


_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif(
    not {*_AVX512.split(), "X86_V3"} <= _dispatched_simd(),
    reason="numpy was built without the x86-64-v3 and v4 kernels",
)
@pytest.mark.parametrize("disabled", [_AVX512, f"{_AVX512} X86_V3"], ids=["no-avx512", "no-avx2"])
def test_pins_hold_under_reduced_simd_dispatch(tmp_path, disabled):
    # numpy picks its SIMD kernels by CPU; with the AVX-512 kernels, and
    # then the AVX2 ones too, disabled, the pinned artifacts must keep
    # their bits, as on a CPU without them
    code = (
        "import json, sys\n"
        "from moneyflow.cli import main\n"
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
    )
    _fresh(code, json.dumps(pipeline_steps(tmp_path)), NPY_DISABLE_CPU_FEATURES=disabled)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ARTIFACT_SHA256
    }
    assert digests == ARTIFACT_SHA256


# a log with a quoted id that holds a comma and three rejected lines, one
# reason holding a comma and one a quote
MIXED_LOG = (
    ",".join(COLUMNS) + "\n"
    '2020-01-06T09:00:00,"ACME, Inc",f2,1000,firm,firm,34.5,135.5,34.6,135.4\n'
    '2020-01-06T10:30:00,f2,"ACME, Inc",250,firm,firm,34.6,135.4,34.5,135.5\n'
    "only,two\n"
    '2020-01-07T11:00:00,f2,f3,1"2,firm,firm,,,,\n'
    '2020-01-07T12:00:00,f3,"ACME, Inc",75,firm,bank,,,,\n'
    "2020-01-08T08:15:00,f3,f2,40,firm,firm,34.7,135.3,34.6,135.4\n"
)

# sha256 of the tables ingest makes of MIXED_LOG, pinned before every
# table came to be written by one column writer
MIXED_SHA256 = {
    "rejected.csv": "1da9266baccc17c8fdf399b7fe03345908c133d5feaf5113c768835880ae6b63",
    "links.csv": "d1831bb56ecc5a9b643cfcf795d4af4dfc48db3917fd5b7e99bd44489c273009",
    "nodes.csv": "8f9806bc0af68762c98d83427b256ea6aa1806ccbecd6d3e29100c9f523d6433",
}


# two-row chunks split each table of the mixed log
@pytest.mark.parametrize("chunk_lines", [ingest_module.CHUNK_LINES, 2])
def test_pinned_tables_of_a_mixed_log(tmp_path, chunk_lines):
    log = tmp_path / "mixed.csv"
    log.write_text(MIXED_LOG, encoding="utf-8")
    out = tmp_path / "ws"
    with mock.patch.object(ingest_module, "CHUNK_LINES", chunk_lines):
        assert main(["ingest", "--out", str(out), "--input", str(log)]) == 0
    with open(out / "rejected.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["line_no", "reason"],
            ["4", "expected 10 fields, got 2"],
            ["5", "non-integer amount '1\"2'"],
            ["6", "unknown party kind 'bank'"],
        ]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in MIXED_SHA256}
    assert digests == MIXED_SHA256


TABLES = (
    "links.csv", "nodes.csv", "ccdf_flow.tsv", "ccdf_frequency.tsv", "ccdf_in_degree.tsv",
    "ccdf_out_degree.tsv", "bowtie.csv", "hodge_potentials.csv", "hodge_links.csv",
    "communities_flat.csv",
)


def test_tables_do_not_depend_on_the_chunk_size(ws, tmp_path):
    # three-row chunks: every table of the pipeline is many chunks long
    out = tmp_path / "ws"
    out.mkdir()
    shutil.copy(ws / "synthetic_log.csv", out)
    with mock.patch.object(ingest_module, "CHUNK_LINES", 3):
        for argv in pipeline_steps(out)[1:6]:
            assert main(argv) == 0, f"step {argv[0]} failed"
    for name in TABLES:
        assert (out / name).read_bytes() == (ws / name).read_bytes(), name


def _read_back(path: Path, header, read=_read_nodes) -> list:
    """The columns of a table as field strings; ``_read_nodes`` reads the ids
    itself and puts them first."""
    skip = 1 if read is _read_nodes else 0
    with open(path, encoding="utf-8", newline="") as fh:
        columns = read(fh, header, path.name, lambda chunk: [
            chunk.columns[k] for k in range(skip, len(header))
        ])
    return [col.tolist() for col in columns]


# ids with commas, quotes, line breaks and non-ASCII text among any others
# the writers accept
_ids = st.sampled_from(["ACME, Inc", 'say "hi"', "two\nlines", "cr\rlf", "草加 Sōka"]) | st.text(
    min_size=1, max_size=6
).filter(lambda s: s == s.strip())


@given(st.dictionaries(
    st.tuples(_ids, _ids).filter(lambda pair: pair[0] != pair[1]),
    st.integers(min_value=1, max_value=9),
    min_size=1, max_size=8,
))
@example({("ACME, Inc", 'say "hi"'): 2, ('say "hi"', "two\nlines"): 1, ("two\nlines", "草加 Sōka"): 3})
@settings(max_examples=30, deadline=None)
def test_node_tables_write_then_read_is_identity(weights):
    # bowtie.csv, hodge_potentials.csv and communities_flat.csv read back
    # to the ids and values the stages computed
    links = [AggregatedLink(s, d, w, w) for (s, d), w in weights.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with open(out / "links.csv", "w", encoding="utf-8", newline="") as fh:
            write_links(link_table(links), fh)
        for argv in (["bowtie"], ["hodge"], ["communities", "--trials", "1"]):
            assert main([*argv, "--out", tmp]) == 0, argv[0]
        with open(out / "links.csv", encoding="utf-8", newline="") as fh:
            net = build_network(read_links(fh))
        names = list(net.node_ids)

        comp_ids, comp = _read_back(out / "bowtie.csv", BOWTIE_COLUMNS)
        assert comp_ids == names
        assert comp == [COMPONENT_NAMES[k] for k in classify_bowtie(net).labels]

        pot_ids, *pot = _read_back(out / "hodge_potentials.csv", POTENTIAL_COLUMNS)
        assert pot_ids == names
        assert list(map(float, pot[0])) == hodge_decompose(net).phi.tolist()
        assert list(map(int, pot[1])) == degree_stats(net)[2].tolist()
        assert list(map(int, pot[2])) == net_flow_per_node(net).tolist()

        header, *rows = flat_table(detect_communities(net, seed=0, trials=1))
        flat = _read_back(out / "communities_flat.csv", tuple(header), _read_columns)
        assert list(chain.from_iterable(zip(*flat))) == list(chain.from_iterable(rows))


# the report inputs a test of its table reads keeps as the pipeline wrote them
_REPORT_INPUTS = (
    "stats.json", "bowtie_summary.json", "hodge_summary.json", "community_report.json",
    "nmf_summary.json", "ccdf_frequency.tsv", "ccdf_in_degree.tsv", "ccdf_out_degree.tsv",
)


def _report_reference(tables):
    """(mean potential per walnut class, flow CCDF) of report's three tables,
    read by a plain csv loop; ValueError with report's message on a fault.

    ``tables`` maps each file to its (path, header, delimiter, lines), in
    the order report reads them.
    """
    read = {}
    for name, (path, header, delimiter, lines) in tables.items():
        rows = table_rows(lines, header, str(path), delimiter)
        if not rows:
            raise ValueError(f"{path} holds no rows")
        for k in (0, 1) if name == "ccdf_flow.tsv" else (1,):
            for line, fields in rows:
                if name == "bowtie.csv" and fields[1] not in COMPONENT_NAMES:
                    raise ValueError(f"{path} line {line}: unknown component {fields[1]!r}")
                if name != "bowtie.csv":
                    try:
                        float(fields[k])
                    except ValueError:
                        raise ValueError(
                            f"{path} line {line}: {header[k]} {fields[k].strip()!r} is not a number"
                        ) from None
        if name != "ccdf_flow.tsv":
            first = {}
            for line, fields in rows:
                node = fields[0].strip()
                if first.setdefault(node, line) != line:
                    raise ValueError(
                        f"{path} lines {first[node]} and {line}: node_id {node!r} repeats"
                    )
        read[name] = [fields for _, fields in rows]
    phi = {f[0].strip(): float(f[1]) for f in read["hodge_potentials.csv"]}
    component = {f[0].strip(): f[1] for f in read["bowtie.csv"]}
    if set(phi) != set(component):
        raise ValueError(
            "hodge_potentials.csv and bowtie.csv disagree on the node set; "
            "rerun both on the current links.csv"
        )
    nodes = sorted(phi)
    values = np.array([phi[node] for node in nodes])
    labels = np.array([component[node] for node in nodes], dtype=object)
    means = {name: float(values[labels == name].mean()) if (labels == name).any() else None
             for name in COMPONENT_NAMES[:4]}
    ccdf = [np.array([float(f[k]) for f in read["ccdf_flow.tsv"]]) for k in (0, 1)]
    return means, ccdf


# values a stage writes: whole CCDF values, fractions and potentials in
# steps of 1e-3 (a span of potentials far below their size would stall the
# figures' tick loop)
_milli = st.integers(min_value=1, max_value=1000).map(lambda k: k / 1000)


@given(st.data(), st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_report_reads_its_tables_as_a_csv_loop_does(ws, data, chunk_lines):
    # ids that need quoting, an id equal to the header's first field, blank
    # lines, CRLF, no final newline and at most one fault in one table
    nodes = data.draw(st.lists(st.sampled_from(TABLE_IDS + ("node_id",)), min_size=1, max_size=6,
                               unique=True))
    phi = data.draw(st.lists(st.integers(-10**6, 10**6).map(lambda k: k / 1000),
                             min_size=len(nodes), max_size=len(nodes)))
    labels = data.draw(st.lists(st.sampled_from(COMPONENT_NAMES), min_size=len(nodes),
                                max_size=len(nodes)))
    ccdf = data.draw(st.lists(st.tuples(st.integers(1, 10**9).map(float), _milli),
                              min_size=1, max_size=6))
    faulty = data.draw(
        st.sampled_from([None, "ccdf_flow.tsv", "hodge_potentials.csv", "bowtie.csv"])
    )
    rows = {
        "ccdf_flow.tsv": (CCDF_COLUMNS, "\t", [[repr(v), repr(f)] for v, f in ccdf],
                          [None, (0, "x"), (1, ""), "short", "long"]),
        "hodge_potentials.csv": (
            POTENTIAL_COLUMNS, ",", [[n, repr(p), "0", "0"] for n, p in zip(nodes, phi)],
            [None, (1, "x"), "short", "long", "repeat"],
        ),
        "bowtie.csv": (
            BOWTIE_COLUMNS, ",", [[n, c] for n, c in data.draw(st.permutations(
                list(zip(nodes, labels))
            ))],
            [None, (1, "CORE"), (1, " GSCC"), "short", "long", "repeat"],
        ),
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in _REPORT_INPUTS:
            shutil.copy(ws / name, out)
        tables = {}
        for name, (header, delimiter, table, faults) in rows.items():
            if name == faulty:
                table = data.draw(faulty_rows(table, faults))
            lines = data.draw(table_lines(header, table, delimiter))
            (out / name).write_text("".join(lines), encoding="utf-8", newline="")
            tables[name] = (out / name, header, delimiter, lines)
        err = io.StringIO()
        with mock.patch.object(ingest_module, "CHUNK_LINES", chunk_lines), \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["report", "--out", tmp])
        try:
            means, (xs, ys) = _report_reference(tables)
        except ValueError as exc:
            assert (code, err.getvalue()) == (2, f"moneyflow report: error: {exc}\n")
            return
        assert code == 0, err.getvalue()
        report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
        assert report["hodge"]["mean_potential"] == means
        plot = line_plot([("flow", xs, ys)], title="Link flow CCDF", xlabel="flow [yen]",
                         ylabel="P(X >= x)")
        assert (out / "report" / "ccdf_flow.svg").read_text(encoding="utf-8") == plot


def test_id_with_comma_survives_every_stage(tmp_path):
    out = tmp_path / "ws"
    steps = pipeline_steps(out)
    assert main(steps[0]) == 0
    # rename one account in the generated log; csv quotes the new id
    log = out / "synthetic_log.csv"
    with open(log, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    old_id, new_id = rows[1][1], "ACME, Inc"
    with open(log, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [[new_id if f == old_id else f for f in row] for row in rows]
        )
    for argv in steps[1:]:
        assert main(argv) == 0, f"step {argv[0]} failed"
    for name, columns in (
        ("bowtie.csv", 2),
        ("hodge_potentials.csv", 4),
        ("hodge_links.csv", 5),
        ("communities_flat.csv", None),
    ):
        with open(out / name, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ids = {row[0] for row in rows}
        if name == "hodge_links.csv":
            ids |= {row[1] for row in rows}
        assert new_id in ids and old_id not in ids, name
        if columns is not None:
            assert {len(row) for row in rows} == {columns}, name


# config, input labels and output names of each manifest of the pipeline
# above, recorded before the subcommands shared one stage runner; ingest's
# input path depends on the workspace and is checked on its own
MANIFESTS = {
    "synth": (
        {"blocks": None, "nested": None, "nodes": 300, "scenario": "full", "seed": 1},
        [],
        ["ground_truth.json", "synthetic_log.csv"],
    ),
    "ingest": (
        {
            "delimiter": ",", "keep_external": False, "keep_nonfirm": False,
            "keep_self_loops": False, "strict": False,
        },
        None,
        ["ingest_summary.json", "links.csv", "nodes.csv"],
    ),
    "stats": (
        {},
        ["links.csv"],
        [
            "ccdf_flow.tsv", "ccdf_frequency.tsv", "ccdf_in_degree.tsv",
            "ccdf_out_degree.tsv", "stats.json",
        ],
    ),
    "bowtie": ({}, ["links.csv"], ["bowtie.csv", "bowtie_summary.json"]),
    "hodge": (
        {"tol": 1e-10, "weight": "frequency"},
        ["links.csv"],
        ["hodge_links.csv", "hodge_potentials.csv", "hodge_summary.json"],
    ),
    "communities": (
        {"seed": 0, "trials": 2, "weight": "frequency"},
        ["links.csv"],
        ["communities.json", "communities_flat.csv", "community_report.json"],
    ),
    "nmf": (
        {
            "bounds": [34.0, 35.0, 135.0, 136.0], "d_range": None, "grid_k": 20,
            "max_iters": 200, "nmf_d": 3, "radius_km": 10.0, "tol": 1e-12,
        },
        ["links.csv", "nodes.csv"],
        ["H.txt", "V.txt", "W.txt"]
        + [f"heatmap_{side}_0{k}.{ext}" for side in ("destination", "origin")
           for k in (1, 2, 3) for ext in ("svg", "tsv")]
        + ["nmf_summary.json"],
    ),
    "report": (
        {},
        [
            "bowtie.csv", "bowtie_summary.json", "ccdf_flow.tsv", "ccdf_frequency.tsv",
            "ccdf_in_degree.tsv", "ccdf_out_degree.tsv", "community_report.json",
            "hodge_potentials.csv", "hodge_summary.json", "nmf_summary.json", "stats.json",
        ],
        [
            "ccdf_degrees.svg", "ccdf_flow.svg", "ccdf_frequency.svg",
            "community_size_rank.svg", "potential_histogram.svg", "report.json",
            "similarity.svg",
        ],
    ),
}


def assert_hashes_match(out, manifest):
    """Every input and output a manifest lists hashes to what it records."""
    out_dir = out / "report" if manifest["subcommand"] == "report" else out
    files = [(out / label, d) for label, d in manifest["inputs"].items()]
    files += [(out_dir / name, d) for name, d in manifest["outputs"].items()]
    for path, digest in files:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path


class TestManifests:
    def test_manifest_hashes_match_files(self, ws):
        manifest = json.loads((ws / "manifest_bowtie.json").read_text())
        assert manifest["subcommand"] == "bowtie"
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((ws / name).read_bytes()).hexdigest()
            assert actual == digest
        assert set(manifest["versions"]) == {"python", "numpy", "scipy", "moneyflow"}

    @pytest.mark.parametrize("step", list(MANIFESTS))
    def test_every_manifest_lists_its_files(self, ws, step):
        manifest = json.loads((ws / f"manifest_{step}.json").read_text())
        config, inputs, outputs = MANIFESTS[step]
        assert manifest["subcommand"] == step
        if step == "ingest":
            log = str(ws / "synthetic_log.csv")
            assert manifest["config"].pop("input") == log
            inputs = [log]
        assert manifest["config"] == config
        assert sorted(manifest["inputs"]) == inputs
        assert sorted(manifest["outputs"]) == outputs
        assert_hashes_match(ws, manifest)

    def test_ingest_manifest_lists_rejected_lines(self, ws, tmp_path):
        lines = (ws / "synthetic_log.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        log = tmp_path / "mixed.csv"
        log.write_text("".join(lines[:50]) + "only,two\n" + "".join(lines[50:100]), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(log)]) == 0
        manifest = json.loads((out / "manifest_ingest.json").read_text())
        assert list(manifest["inputs"]) == [str(log)]
        assert sorted(manifest["outputs"]) == [
            "ingest_summary.json", "links.csv", "nodes.csv", "rejected.csv",
        ]
        assert_hashes_match(out, manifest)
        with open(out / "rejected.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["line_no", "reason"], ["51", "expected 10 fields, got 2"]]

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "ws"
        run_pipeline(out)
        first = {p.name: p.read_bytes() for p in out.glob("manifest_*.json")}
        assert len(first) == 8
        run_pipeline(out)
        second = {p.name: p.read_bytes() for p in out.glob("manifest_*.json")}
        assert second == first


def test_pipeline_builds_no_row_objects(tmp_path, monkeypatch):
    # every stage works on the column tables; the row classes serve
    # iteration only
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    monkeypatch.setattr(moneyflow.TransferRecord, "__init__", refuse)
    monkeypatch.setattr(moneyflow.AggregatedLink, "__init__", refuse)
    d = str(tmp_path / "ws")
    for argv in (
        ["synth", "--out", d, "--scenario", "full", "--nodes", "300", "--seed", "1"],
        ["ingest", "--out", d, "--input", str(tmp_path / "ws" / "synthetic_log.csv")],
        ["stats", "--out", d],
        ["bowtie", "--out", d],
        ["hodge", "--out", d],
        ["communities", "--out", d, "--trials", "2"],
        ["nmf", "--out", d, "--grid-k", "10", "--nmf-d", "3"],
        ["report", "--out", d],
    ):
        assert main(argv) == 0, f"step {argv[0]} failed"


# the moneyflow.cli names that perfbench/cli_stage.py replaces with traced
# wrappers; stage code must look them up on the module when it runs, or a
# traced benchmark run loses the spans of the layers it calls
TRACED_NAMES = (
    "generate", "write_records", "parse_log", "filter_records", "aggregate",
    "collect_node_coords", "write_links", "read_links", "build_network",
    "degree_correlation", "classify_bowtie", "distance_profile", "hodge_decompose",
    "detect_communities", "community_report", "flat_table", "bin_transfers", "nmf",
    "localization",
)


def test_stages_call_the_traced_names(tmp_path, monkeypatch):
    import moneyflow.cli as cli
    from moneyflow.hodge import HodgeDecomposition

    calls = dict.fromkeys((*TRACED_NAMES, "link_table"), 0)

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in TRACED_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    monkeypatch.setattr(
        HodgeDecomposition, "link_table",
        counting("link_table", HodgeDecomposition.link_table),
    )
    run_pipeline(tmp_path)
    # links.csv is read, and built into a network, by the five stages after ingest
    expected = dict.fromkeys(calls, 1) | {"read_links": 5, "build_network": 5}
    assert calls == expected


def _fresh(code, *argv, **env):
    """stdout of ``code`` run in a fresh interpreter with argv after it and
    the environment variables env set."""
    env = dict(os.environ, PYTHONPATH=str(Path(moneyflow.__file__).parents[1]), **env)
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.splitlines()


LOADED = "sorted(m for m in sys.modules if m.startswith('moneyflow'))"


def test_cli_import_loads_no_scipy_sparse_or_stats():
    # the stages that need them import them; a fresh interpreter shows
    # what importing the command line module alone loads: of the package,
    # the module and the exceptions that main maps to exit codes
    code = (
        "import sys, moneyflow.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.sparse', 'scipy.stats')))); "
        f"print({LOADED})"
    )
    assert _fresh(code) == ["[]", str(["moneyflow", "moneyflow.cli", "moneyflow.errors"])]


def test_package_import_loads_no_submodule():
    assert _fresh(f"import sys, moneyflow; print({LOADED})") == ["['moneyflow']"]


def test_public_names_resolve_on_first_use():
    code = (
        "import moneyflow, moneyflow.hodge\n"
        "print(sorted(set(moneyflow.__all__) - set(dir(moneyflow))))\n"
        "print([n for n in moneyflow.__all__ if not hasattr(moneyflow, n)])\n"
        "print(moneyflow.ConvergenceError is moneyflow.hodge.ConvergenceError)\n"
        "print(hasattr(moneyflow, 'no_such_name'))"
    )
    assert _fresh(code) == ["[]", "[]", "True", "False"]


# the modules of the package each README stage loads besides cli and errors
STAGE_MODULES = {
    "synth": ("synth", "ingest", "network", "bowtie", "geonmf"),
    "ingest": ("ingest", "network"),
    "stats": ("ingest", "network"),
    "bowtie": ("bowtie", "ingest", "network"),
    "hodge": ("hodge", "bowtie", "ingest", "network"),
    "communities": ("community", "ingest", "network"),
    "nmf": ("geonmf", "svgplot", "ingest", "network"),
    "report": ("bowtie", "hodge", "svgplot", "ingest", "network"),
}


def test_each_stage_loads_only_the_modules_it_runs(tmp_path):
    code = (
        "import sys\n"
        "from moneyflow.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print({LOADED})\n"
        "sys.exit(code)"
    )
    for argv in pipeline_steps(tmp_path):
        expected = ["moneyflow", "moneyflow.cli", "moneyflow.errors"]
        expected += [f"moneyflow.{m}" for m in STAGE_MODULES[argv[0]]]
        assert _fresh(code, *argv)[-1] == str(sorted(expected)), argv[0]


def test_nmf_stage_loads_no_sparse_linalg(ws, tmp_path):
    # the NNDSVD start needs numpy QR and sparse products, no sparse solver
    shutil.copytree(ws, tmp_path / "ws")
    argv = next(a for a in pipeline_steps(tmp_path / "ws") if a[0] == "nmf")
    code = (
        "import sys\n"
        "from moneyflow.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print([m for m in sys.modules if m.startswith('scipy.sparse.linalg')])\n"
        "sys.exit(code)"
    )
    assert _fresh(code, *argv)[-1] == "[]"


def test_bowtie_and_hodge_stages_load_no_scipy_sparse(ws, tmp_path):
    # the graph kernels and the Hodge solve run on numpy alone
    shutil.copytree(ws, tmp_path / "ws")
    code = (
        "import sys\n"
        "from moneyflow.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print([m for m in sys.modules if m.startswith('scipy.sparse')])\n"
        "sys.exit(code)"
    )
    for argv in pipeline_steps(tmp_path / "ws"):
        if argv[0] in ("bowtie", "hodge"):
            assert _fresh(code, *argv)[-1] == "[]", argv[0]
