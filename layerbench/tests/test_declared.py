"""BENCHMARK.json declares exactly the metrics the benchmark prints."""

import json
from pathlib import Path

import layers
import run

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_declaration():
    declared = [(m["name"], m["unit"]) for m in DOC["end_to_end"]]
    assert declared == list(run.END_TO_END)


def test_per_layer_metrics_match_the_declaration():
    declared = [(m["name"], m["unit"]) for m in DOC["per_layer"]]
    assert declared == [(name, unit) for name, unit, _ in layers.PER_LAYER]


def test_workloads_match_the_declaration():
    assert [w["name"] for w in DOC["workloads"]] == list(run.WORKLOADS)
