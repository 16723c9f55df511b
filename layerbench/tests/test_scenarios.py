"""Operation checks, decision digests and traced-run hygiene on tiny inputs."""

from dataclasses import replace
from pathlib import Path

import pytest

import layers
import scenarios
from repro.cluster.platform import osc_osumed, osc_xio
from tracer import Tracer, _original, installed

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "batch-ect": replace(
        scenarios.SPECS["batch-ect"],
        num_tasks=16,
        make_platform=lambda: osc_xio(num_compute=4, num_storage=8),
    ),
    "batch-pressure": replace(
        scenarios.SPECS["batch-pressure"],
        num_tasks=16,
        make_platform=lambda: osc_osumed(
            num_compute=2, num_storage=4, disk_space_mb=2000.0
        ),
    ),
    "stream-backlog": replace(
        scenarios.SPECS["stream-backlog"], num_tasks=24, window_jobs=4
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_digest_is_stable_across_operations(name):
    inputs = scenarios.make_inputs(TINY[name], seed=3, root=ROOT)
    first = scenarios.run_operation(inputs)
    second = scenarios.run_operation(inputs, audit=True)
    assert first.problems == [] and second.problems == []
    assert first.digest == second.digest
    assert first.makespan_s == second.makespan_s > 0
    assert first.mean_response_s > 0


def test_digest_depends_on_the_inputs():
    a = scenarios.run_operation(scenarios.make_inputs(TINY["batch-ect"], 3, ROOT))
    b = scenarios.run_operation(scenarios.make_inputs(TINY["batch-ect"], 4, ROOT))
    assert a.digest != b.digest


def test_stream_windows_are_counted():
    inputs = scenarios.make_inputs(TINY["stream-backlog"], seed=3, root=ROOT)
    outcome = scenarios.run_operation(inputs)
    assert outcome.windows >= 1
    assert outcome.num_tasks == 24


def test_check_runs_flags_a_repeated_task_record():
    inputs = scenarios.make_inputs(TINY["batch-ect"], seed=3, root=ROOT)
    state = scenarios.ClusterState.initial(inputs.platform, inputs.batch)
    result = scenarios.driver.run_batch(
        inputs.batch, inputs.platform, "minmin", state=state
    )
    assert scenarios.check_runs([(result, state)], inputs.batch) == []
    records = result.sub_batches[0].execution.records
    records.append(records[0])
    [problem] = scenarios.check_runs([(result, state)], inputs.batch)
    assert "repeated" in problem


def test_check_runs_flags_a_conservation_leak():
    inputs = scenarios.make_inputs(TINY["batch-ect"], seed=3, root=ROOT)
    state = scenarios.ClusterState.initial(inputs.platform, inputs.batch)
    result = scenarios.driver.run_batch(
        inputs.batch, inputs.platform, "minmin", state=state
    )
    state.stats.remote_volume_mb += 1.0
    [problem] = scenarios.check_runs([(result, state)], inputs.batch)
    assert "conservation" in problem


def _targets(patches):
    return [(p.owner, p.attr, _original(p.owner, p.attr)) for p in patches]


@pytest.mark.parametrize("name", ["batch-pressure", "stream-backlog"])
def test_wrappers_are_removed_after_a_traced_operation(name):
    inputs = scenarios.make_inputs(TINY[name], seed=3, root=ROOT)
    patches = layers.operation_patches()
    before = _targets(patches)
    tracer = Tracer()
    with installed(tracer, patches), tracer.span(layers.ROOT):
        traced = scenarios.run_operation(inputs, audit=True)
    assert _targets(patches) == before
    seen = {name: t.calls for name, t in tracer.totals.items()}
    counted = {name: c[0] for name, c in tracer.counts.items()}

    untraced = scenarios.run_operation(inputs, audit=True)
    assert untraced.digest == traced.digest
    assert {name: t.calls for name, t in tracer.totals.items()} == seen
    assert {name: c[0] for name, c in tracer.counts.items()} == counted


def test_layer_self_times_cover_the_traced_operation():
    inputs = scenarios.make_inputs(TINY["batch-pressure"], seed=3, root=ROOT)
    tracer = Tracer()
    with installed(tracer, layers.operation_patches()), tracer.span(layers.ROOT):
        outcome = scenarios.run_operation(inputs, audit=True)
    metrics = layers.layer_metrics(tracer, outcome)
    assert metrics["runtime.evaluate.calls"] > 0
    assert metrics["hypergraph.partition.calls"] > 0
    assert metrics["audit.self_s"] > 0
    assert metrics["obs.probe.self_s"] > 0
    assert metrics["online.select.calls"] == 0
    share = layers.attributed_share(metrics)
    unattributed = metrics["bench.unattributed_s"] / metrics["bench.traced_wall_s"]
    assert share + unattributed == pytest.approx(1.0)
