"""End-to-end checks of the command line pipeline, run in process."""

import csv
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import moneyflow
from moneyflow.cli import main
from moneyflow.geonmf import read_matrix
from moneyflow.ingest import COLUMNS

from conftest import workers_die


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
                                ("nmf", "--seed=-1"), ("nmf", "--max-iters=0"))),
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

    def test_invalid_scenario_parameters(self, tmp_path):
        argv = [
            "synth", "--out", str(tmp_path),
            "--scenario", "blocks", "--nested", "--blocks", "3",
        ]
        assert main(argv) == 2

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
# scipy.sparse.csgraph; the statistics and Hodge pins were re-pinned when
# the generator's schedule draws changed the link weights, which leave the
# wiring, and so the bowtie, as it was.  The Hodge pins moved again when
# the potentials came from library CG, which changes their last bits.  The
# link table, node coordinates, ingest summary and binned V were pinned
# before links became columns, which must leave them as they were
ARTIFACT_SHA256 = {
    "links.csv": "be217294625705a11e7393448552d72f9cc0ca098152624a86f22fe1038d437b",
    "nodes.csv": "35a720a56bcec92f01835455d2358069c4ddbd1eff16700abafdee7ddf29825d",
    "ingest_summary.json": "295369d8465d27db404a3315034d9ecbe9dadc8a84d161a44f44477f72f5c068",
    "V.txt": "2916d0d6562f9ccc60d23c68f5e4a362b2eace42d889529312f6cbf80483c37a",
    "stats.json": "6399af04c60d5fd8f37764354f61eed0aab25e28f694082f8d27ec66f16466d8",
    "bowtie.csv": "012fe8a0ed9e31f17be15e57796752fc882950760a002df4d436bd26729417ba",
    "bowtie_summary.json": "2c5a898f3eed52cdc0bcf27ee8e5bcd31d4bc9ddf6371bcadf190d9178e64861",
    "hodge_potentials.csv": "13bc7c61b5996184a6890a901dd0a319276faaaccfd487bcd4b1d6c6af5e77fa",
    "hodge_summary.json": "6cf6f1ade51a21192a3d0a53718f84c219e729d289b35e2895e19cdae5020845",
    "hodge_links.csv": "2808834e5f4db38aa1a0a30e6094c0dc2cb9d08c8fbece62b564bac64019b981",
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_pinned_artifact_hash(ws, name):
    assert hashlib.sha256((ws / name).read_bytes()).hexdigest() == ARTIFACT_SHA256[name]


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
            "max_iters": 200, "nmf_d": 3, "radius_km": 10.0, "seed": 0, "tol": 1e-12,
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
    # links.csv is read by the five stages after ingest; nmf bins it
    # without building a network
    expected = dict.fromkeys(calls, 1) | {"read_links": 5, "build_network": 4}
    assert calls == expected


def test_cli_import_loads_no_scipy_sparse_or_stats():
    # the stages that need them import them; a fresh interpreter shows
    # what importing the command line module alone loads
    code = (
        "import sys, moneyflow.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.sparse', 'scipy.stats'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(moneyflow.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
