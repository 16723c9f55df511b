"""Cross-run regression attribution (`repro.obs.diff` + the diff CLI)."""

import json

import pytest

from repro.cli import main
from repro.cluster.platform import osc_xio
from repro.core.driver import run_batch
from repro.faults import FaultSpec
from repro.obs import build_manifest, diff_manifests, format_diff, load_run
from repro.obs.core import telemetry
from repro.obs.diff import DEFAULT_FAIL_OVER
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


SLOWDOWN = FaultSpec.from_dict(
    {"link_slowdowns": [{"start": 0.0, "end": 1e6, "factor": 6.0, "scope": "all"}]}
)


class TestDiffManifests:
    def test_identical_runs_within_gate(self):
        m = run_manifest()
        diff = diff_manifests(m, m)
        assert diff.delta_s == 0.0
        assert not diff.exceeds()
        assert diff.metric_rows == []  # zero deltas are dropped

    def test_slowdown_attributed_to_staging(self):
        a = run_manifest()
        b = run_manifest(faults=SLOWDOWN)
        diff = diff_manifests(a, b)
        assert diff.delta_s > 0
        assert diff.exceeds(DEFAULT_FAIL_OVER)
        # A global link slowdown is pure staging time: the top attribution
        # row must be a stage phase, and the dominant line must name it.
        top = diff.rows[0]
        assert top.phase == "stage"
        dominant = diff.dominant()
        assert "stage" in dominant and top.node in dominant
        assert "metric" in dominant

    def test_to_dict_round_trips_through_json(self):
        a = run_manifest()
        b = run_manifest(faults=SLOWDOWN)
        doc = json.loads(json.dumps(diff_manifests(a, b).to_dict()))
        assert doc["rows"][0]["phase"] == "stage"
        assert doc["dominant"].startswith("dominant:")

    def test_metricless_manifests_degrade_with_note(self):
        a = run_manifest()
        bare = dict(a)
        bare["metrics"] = None
        diff = diff_manifests(bare, a)
        assert diff.rows == []
        assert any("phase attribution unavailable" in n for n in diff.notes)

    def test_format_diff_is_stable_text(self):
        a = run_manifest()
        text = format_diff(diff_manifests(a, a))
        assert text.startswith("makespan:")
        assert "dominant:" in text


class TestLoadRun:
    def test_loads_manifest_file(self, tmp_path):
        m = run_manifest()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(m))
        assert load_run(path)["config_digest"] == "0" * 64

    def test_lifts_bench_cell(self, tmp_path):
        doc = {
            "kind": "repro-bench",
            "cells": {"fig5b/n50/minmin": {"makespan_s": 123.0}},
        }
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(doc))
        lifted = load_run(f"{path}#fig5b/n50/minmin")
        assert lifted["result"]["makespan_s"] == 123.0
        assert lifted["scheme"] == "minmin"
        assert lifted["metrics"] is None

    def test_bench_without_fragment_raises(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"kind": "repro-bench", "cells": {}}))
        with pytest.raises(ValueError, match="#"):
            load_run(path)

    def test_mapping_cell_raises(self, tmp_path):
        doc = {
            "kind": "repro-bench",
            "cells": {"mapping/minmin/n600c32": {"kernel_stats": None}},
        }
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="mapping cell"):
            load_run(f"{path}#mapping/minmin/n600c32")

    def test_unknown_cell_raises(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"kind": "repro-bench", "cells": {}}))
        with pytest.raises(KeyError):
            load_run(f"{path}#nope")


class TestCli:
    def write(self, tmp_path, name, manifest):
        path = tmp_path / name
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_exit_zero_within_gate(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", run_manifest())
        assert main(["diff", a, a]) == 0
        assert "within" in capsys.readouterr().out

    def test_exit_nonzero_on_drift(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", run_manifest())
        b = self.write(tmp_path, "b.json", run_manifest(faults=SLOWDOWN))
        assert main(["diff", a, b]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        assert "stage" in captured.out  # attribution names the phase

    def test_json_output(self, tmp_path):
        a = self.write(tmp_path, "a.json", run_manifest())
        out = tmp_path / "diff.json"
        assert main(["diff", a, a, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["delta_s"] == 0.0
