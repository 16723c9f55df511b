"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "image"
        assert args.schemes == ["bipartition", "minmin"]

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig5a"])
        assert args.name == "fig5a"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9z"])


class TestCommands:
    def test_schedulers(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for scheme in ("ip", "bipartition", "minmin", "jdp", "maxmin", "sufferage"):
            assert scheme in out

    def test_workload_describe(self, capsys):
        assert main(["workload", "--workload", "sat", "--tasks", "12"]) == 0
        out = capsys.readouterr().out
        assert "distinct data" in out
        assert "sharing fraction" in out

    def test_run_basic(self, capsys):
        rc = main(
            [
                "run",
                "--workload",
                "synthetic",
                "--tasks",
                "8",
                "--schemes",
                "bipartition",
                "jdp",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bipartition" in out
        assert "jdp" in out
        assert "makespan" in out

    def test_run_no_replication(self, capsys):
        rc = main(
            [
                "run",
                "--workload",
                "synthetic",
                "--tasks",
                "6",
                "--schemes",
                "minmin",
                "--no-replication",
            ]
        )
        assert rc == 0
        # replica MB column must be zero
        line = next(
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("minmin")
        )
        assert float(line.split()[4]) == 0.0

    def test_run_with_gantt(self, capsys):
        rc = main(
            [
                "run",
                "--workload",
                "synthetic",
                "--tasks",
                "6",
                "--schemes",
                "bipartition",
                "--gantt",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "x=transfer" in out

    def test_gantt_row_equals_plain_row(self, capsys):
        # Disk pressure makes eviction visible: a chart-only code path that
        # skipped the scheduler's eviction hooks used to report more.
        args = ["run", "--tasks", "60", "--compute", "4", "--disk-gb", "1",
                "--schemes", "bipartition"]
        rows = []
        for extra in ([], ["--gantt"]):
            assert main(args + extra) == 0
            row = next(
                line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("bipartition")
            )
            del row[2]  # sched ms/task is wall-clock
            rows.append(row)
        assert rows[0] == rows[1]

    def test_run_with_faults_and_gantt(self, capsys):
        rc = main(
            [
                "run", "--tasks", "12", "--schemes", "minmin",
                "--faults", str(EXAMPLES / "faults" / "crash-and-flaky.json"),
                "--gantt",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault injection:" in out
        assert "x=transfer" in out

    def test_run_with_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        rc = main(
            [
                "run",
                "--workload",
                "synthetic",
                "--tasks",
                "6",
                "--schemes",
                "bipartition",
                "--trace",
                str(trace_file),
            ]
        )
        assert rc == 0
        doc = json.loads(trace_file.read_text())
        assert doc["traceEvents"]

    def test_figure_fig5a_with_csv(self, tmp_path, capsys):
        csv_file = tmp_path / "fig.csv"
        rc = main(["figure", "fig5a", "--tasks", "12", "--csv", str(csv_file)])
        assert rc == 0
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0].startswith("experiment,")
        assert len(lines) == 5  # header + 2 workloads x (rep, norep)

    def test_workload_save_and_run_load(self, tmp_path, capsys):
        saved = tmp_path / "batch.json"
        rc = main(
            [
                "workload", "--workload", "synthetic", "--tasks", "6",
                "--save", str(saved),
            ]
        )
        assert rc == 0
        assert saved.exists()
        rc = main(
            ["run", "--load", str(saved), "--schemes", "bipartition"]
        )
        assert rc == 0
        assert "bipartition" in capsys.readouterr().out

    def test_run_load_rejects_incompatible_platform(self, tmp_path):
        saved = tmp_path / "batch.json"
        main(
            [
                "workload", "--workload", "synthetic", "--tasks", "4",
                "--storage-nodes", "4", "--save", str(saved),
            ]
        )
        with pytest.raises(SystemExit, match="storage node"):
            main(
                [
                    "run", "--load", str(saved), "--storage-nodes", "1",
                    "--schemes", "minmin",
                ]
            )

    def test_figure_fig3b_reduced(self, capsys):
        rc = main(["figure", "fig3b", "--tasks", "8", "--ip-time-limit", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bipartition" in out
        assert "zero" in out
