"""The bench harness and its gates (``repro bench``).

The real grid takes about a minute, so the gate tests swap in two tiny
cells (one run cell, one mapping cell) and drive the CLI end to end: every
gate must turn the exit status non-zero on its own.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.driver import run_batch
from repro.experiments import ExperimentConfig, bench
from repro.obs.core import telemetry
from repro.obs.report import load_trajectory


def tiny_cells(full: bool = False) -> list[bench.BenchCell]:
    def cfg(scheme: str, **fields) -> ExperimentConfig:
        return ExperimentConfig(
            experiment="bench-test", workload="image", overlap="high",
            storage="xio", scheme=scheme, **fields,
        )

    return [
        bench.BenchCell(
            "fig5b/n12/minmin",
            cfg("minmin", num_tasks=12, num_compute=2, disk_space_mb=4000.0),
        ),
        bench.BenchCell(
            "mapping/minmin/n30c4",
            cfg("minmin", num_tasks=30, num_compute=4),
            mapping=True,
        ),
    ]


@pytest.fixture
def tiny_grid(monkeypatch):
    monkeypatch.setattr(bench, "bench_cells", tiny_cells)


@pytest.fixture(scope="module")
def baseline_doc(tmp_path_factory):
    """One real run of the tiny grid, as a repro-bench document."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "bench_cells", tiny_cells)
        out = tmp_path_factory.mktemp("bench") / "base.json"
        assert main(["bench", "--repeats", "1", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def gate(tmp_path, doc, *extra: str) -> int:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(doc))
    return main(["bench", "--repeats", "1", "--baseline", str(path), *extra])


def edited(doc, cell: str, **fields):
    doc = json.loads(json.dumps(doc))
    doc["cells"][cell].update(fields)
    return doc


class TestDocument:
    def test_schema(self, baseline_doc):
        assert baseline_doc["kind"] == "repro-bench"
        assert baseline_doc["bench_version"] == bench.BENCH_VERSION
        run = baseline_doc["cells"]["fig5b/n12/minmin"]
        mapping = baseline_doc["cells"]["mapping/minmin/n30c4"]
        for rec in (run, mapping):
            assert {"digest", "reference_s", "optimized_s", "speedup"} <= set(rec)
        assert run["makespan_s"] > 0 and "kernel_stats" not in run
        assert mapping["kernel_stats"]["tasks"] == 30
        assert "makespan_s" not in mapping

    def test_run_cell_digest_matches_a_plain_run(self, baseline_doc):
        cell = tiny_cells()[0]
        cfg = cell.config
        result = run_batch(cfg.batch(), cfg.platform(), cfg.scheme, **cfg.run_kwargs())
        digest = bench.decision_digest(
            (sb.plan.mapping, sb.execution.records) for sb in result.sub_batches
        )
        rec = baseline_doc["cells"][cell.cell]
        assert rec["digest"] == digest
        assert rec["makespan_s"] == result.makespan

    def test_run_cell_leaves_telemetry_as_it_was(self):
        telemetry.enable()
        try:
            bench.run_cell(tiny_cells()[1], repeats=1)
            assert telemetry.enabled
        finally:
            telemetry.disable()


class TestGates:
    def test_identical_baseline_passes(self, tiny_grid, tmp_path, baseline_doc, capsys):
        assert gate(tmp_path, baseline_doc) == 0
        out = capsys.readouterr().out
        assert "every cell checked against the oracle: 2 identical digest(s)" in out
        assert "OK: digests unchanged" in out

    def test_flipped_digest_fails(self, tiny_grid, tmp_path, baseline_doc, capsys):
        doc = edited(baseline_doc, "fig5b/n12/minmin", digest="0" * 16)
        assert gate(tmp_path, doc) == 1
        assert "decision digest" in capsys.readouterr().out

    def test_flipped_mapping_digest_fails(self, tiny_grid, tmp_path, baseline_doc):
        doc = edited(baseline_doc, "mapping/minmin/n30c4", digest="0" * 16)
        assert gate(tmp_path, doc) == 1

    def test_makespan_drift_over_the_bound_fails(
        self, tiny_grid, tmp_path, baseline_doc, capsys
    ):
        new = baseline_doc["cells"]["fig5b/n12/minmin"]["makespan_s"]
        doc = edited(baseline_doc, "fig5b/n12/minmin", makespan_s=new / 1.16)
        assert gate(tmp_path, doc) == 1
        assert "makespan" in capsys.readouterr().out

    def test_makespan_drift_within_the_bound_passes(
        self, tiny_grid, tmp_path, baseline_doc
    ):
        new = baseline_doc["cells"]["fig5b/n12/minmin"]["makespan_s"]
        doc = edited(baseline_doc, "fig5b/n12/minmin", makespan_s=new / 1.14)
        assert gate(tmp_path, doc) == 0

    def test_missing_baseline_cell_fails(
        self, tiny_grid, tmp_path, baseline_doc, capsys
    ):
        doc = json.loads(json.dumps(baseline_doc))
        doc["cells"]["fig5b/n999/minmin"] = {"digest": "x", "makespan_s": 1.0}
        assert gate(tmp_path, doc) == 1
        assert "missing from the run: fig5b/n999/minmin" in capsys.readouterr().out

    def test_new_cell_is_only_a_note(
        self, tiny_grid, tmp_path, baseline_doc, capsys
    ):
        doc = json.loads(json.dumps(baseline_doc))
        del doc["cells"]["fig5b/n12/minmin"]
        assert gate(tmp_path, doc) == 0
        assert "note: 1 cell(s) not in the baseline" in capsys.readouterr().out

    def test_mapping_cell_under_the_floor_fails(self, tiny_grid, capsys):
        assert main(["bench", "--repeats", "1", "--min-speedup", "1000"]) == 1
        assert "mapping/minmin/n30c4: speedup" in capsys.readouterr().out

    def test_product_oracle_divergence_fails(self, tiny_grid, monkeypatch, capsys):
        def stub_oracle(batch, platform, scheme, **kwargs):
            result = run_batch(batch, platform, scheme, **kwargs)
            mapping = result.sub_batches[0].plan.mapping
            task = min(mapping)
            mapping[task] = (mapping[task] + 1) % platform.num_compute
            return result

        monkeypatch.setattr(bench, "reference_run_batch", stub_oracle)
        assert main(["bench", "--repeats", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: fig5b/n12/minmin: product digest" in out

    def test_baseline_must_be_a_bench_document(self, tiny_grid, tmp_path):
        with pytest.raises(SystemExit, match="not a repro-bench document"):
            gate(tmp_path, {"kind": "repro-run-manifest"})


class TestTrajectory:
    def test_points_carry_the_cell_record(self, tiny_grid, tmp_path):
        path = tmp_path / "traj.jsonl"
        assert main(["bench", "--repeats", "1", "--trajectory", str(path)]) == 0
        points = load_trajectory(path)
        assert [p["cell"] for p in points] == [c.cell for c in tiny_cells()]
        assert all(p["kind"] == "repro-bench-point" for p in points)
        assert "makespan_s" in points[0] and "kernel_stats" in points[1]


class TestGrid:
    def test_baseline_covers_the_quick_grid(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_baseline.json"
        doc = json.loads(path.read_text())
        assert doc["kind"] == "repro-bench"
        assert sorted(doc["cells"]) == sorted(c.cell for c in bench.bench_cells())

    def test_full_grid_appends(self):
        quick = [c.cell for c in bench.bench_cells()]
        full = [c.cell for c in bench.bench_cells(full=True)]
        assert full[: len(quick)] == quick and len(full) == len(quick) + 3
