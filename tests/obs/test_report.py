"""Self-contained HTML run report (`repro.obs.report` + the report CLI)."""

import json

import pytest

from repro.cli import main
from repro.cluster.platform import osc_xio
from repro.core.driver import run_batch
from repro.faults import FaultSpec
from repro.obs import build_manifest, load_trajectory, render_report, write_report
from repro.obs.core import telemetry
from repro.workloads.image import generate_image_batch


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def run_manifest(faults=None):
    batch = generate_image_batch(16, "high", 4, seed=0)
    platform = osc_xio(num_compute=4, num_storage=4, disk_space_mb=4000.0)
    result = run_batch(
        batch, platform, "minmin", candidate_limit=25,
        telemetry=True, timeseries=True, faults=faults,
    )
    return build_manifest(result, config_digest="0" * 64)


def assert_self_contained(text: str):
    """The acceptance bar: one offline file, no external anything."""
    assert text.lower().startswith("<!doctype html>")
    assert "<script" not in text.lower()
    assert "<link" not in text.lower()
    assert "src=" not in text.lower()  # no <img>/<iframe> fetches
    assert "@import" not in text.lower()


class TestRenderReport:
    def test_basic_report(self):
        text = render_report(run_manifest())
        assert_self_contained(text)
        assert "<svg" in text  # sparklines rendered inline
        assert "minmin" in text
        assert "disk_used_mb/compute0" in text

    def test_report_without_timeseries_still_renders(self):
        manifest = run_manifest()
        manifest.pop("timeseries")
        text = render_report(manifest)
        assert_self_contained(text)

    def test_baseline_adds_diff_section(self):
        a = run_manifest()
        slow = FaultSpec.from_dict(
            {"link_slowdowns": [{"start": 0.0, "end": 1e6, "factor": 6.0,
                                 "scope": "all"}]}
        )
        b = run_manifest(faults=slow)
        text = render_report(b, baseline=a)
        assert_self_contained(text)
        assert "dominant" in text
        assert "stage" in text

    def test_fault_events_marked(self):
        slow = FaultSpec.from_dict(
            {"link_slowdowns": [{"start": 0.0, "end": 1e6, "factor": 6.0,
                                 "scope": "all"}]}
        )
        text = render_report(run_manifest(faults=slow))
        assert "slowdown-start" in text

    def test_trajectory_section(self):
        points = [
            {"kind": "repro-bench-point", "sha": "abc12345",
             "cell": "mapping/minmin/n1000c32", "speedup": 3.1,
             "decision_checked": True},
            {"kind": "repro-bench-point", "sha": "def67890",
             "cell": "mapping/minmin/n1000c32", "speedup": 3.3,
             "decision_checked": True},
        ]
        text = render_report(run_manifest(), trajectory=points)
        assert_self_contained(text)
        assert "mapping/minmin/n1000c32" in text


class TestTrajectoryIO:
    def test_load_trajectory(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        lines = [
            json.dumps({"kind": "repro-bench-point", "sha": "aaaa", "cell": "x",
                        "speedup": 2.0, "decision_checked": True}),
            json.dumps({"kind": "other", "noise": 1}),
            "not json at all",
        ]
        path.write_text("\n".join(lines) + "\n")
        points = load_trajectory(path)
        assert len(points) == 1
        assert points[0]["cell"] == "x"

    def test_missing_file_is_empty(self, tmp_path):
        assert load_trajectory(tmp_path / "nope.jsonl") == []

    def test_append_then_load_round_trip(self, tmp_path):
        from repro.experiments.bench import append_trajectory

        cells = {
            "mapping/minmin/n600c32": {
                "digest": "0123456789abcdef", "reference_s": 0.2,
                "optimized_s": 0.1, "speedup": 2.0,
                "kernel_stats": {"rounds": 600},
            },
            "e2e/minmin/n120c8": {
                "digest": "fedcba9876543210", "reference_s": 0.5,
                "optimized_s": 0.5, "speedup": 1.0, "makespan_s": 38.7,
            },
        }
        path = tmp_path / "traj.jsonl"
        append_trajectory(cells, path, sha="cafe1234")
        append_trajectory(cells, path, sha="beef5678")
        points = load_trajectory(path)
        assert len(points) == 4
        assert points[0]["speedup"] == 2.0
        assert points[0]["sha"] == "cafe1234"
        assert points[0]["cell"] == "mapping/minmin/n600c32"
        # Each point carries its cell's whole record.
        assert points[1]["makespan_s"] == 38.7
        assert points[3]["digest"] == "fedcba9876543210"
        assert points[2]["kernel_stats"] == {"rounds": 600}


class TestWriteReport:
    def test_write_report(self, tmp_path):
        out = tmp_path / "report.html"
        path = write_report(run_manifest(), out)
        assert path == out
        assert_self_contained(out.read_text())

    def test_cli_report(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(run_manifest()))
        out = tmp_path / "report.html"
        assert main(["report", str(a), "--out", str(out)]) == 0
        assert_self_contained(out.read_text())

    def test_cli_report_with_baseline(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(run_manifest()))
        out = tmp_path / "report.html"
        assert main(["report", str(a), str(a), "--out", str(out)]) == 0
        text = out.read_text()
        assert_self_contained(text)
        assert "dominant" in text
