"""Where each layer is traced, and the per-layer metrics read from a trace.

Every patch names a public function of one layer of ``repro``. Functions
that are imported by name are patched in the consumer module, because
that is the name the caller looks up (``repro.cluster.runtime`` calls
``earliest_common_slot``, ``repro.core.bipartition`` calls
``kway_partition``, ``repro.online.session`` calls ``run_batch``).
"""

from __future__ import annotations

from collections.abc import Mapping

import repro.analysis.audit as audit
import repro.cluster.cache as cache
import repro.cluster.gantt as gantt
import repro.cluster.runtime as runtime
import repro.core.bipartition as bipartition
import repro.core.driver as driver
import repro.obs.timeseries as timeseries
import repro.online.queue as queue
import repro.online.session as session
import repro.workloads as workloads
from repro.core.base import Scheduler

from scenarios import Outcome
from tracer import COUNT, SPAN, TIMED, Patch, Tracer

#: Span the benchmark opens around each operation; its self time is the
#: part of the operation no layer accounts for.
ROOT = "bench.op"

# What each layer metric should move, and on which workload.
GANTT = "adj_wall_s, adj_tasks_per_s on batch-ect and batch-pressure"
RUNTIME = "adj_wall_s on batch-ect; small change on stream-backlog"
CORE = "adj_wall_s on stream-backlog (about 8 dispatch windows)"
HYPER = "adj_wall_s on batch-pressure and stream-backlog"
PRESSURE = "adj_wall_s on batch-pressure"
SIM = "sim_makespan_s, sim_mean_response_s on all workloads"
ONLINE = "adj_wall_s on stream-backlog; no change on the batch workloads"
BOOKKEEPING = "none: tracing overhead and the attribution check"

#: (name, unit, what it should move) of every per-layer metric, in report
#: order. Counts and simulated bytes are exact; ``*_s`` are host seconds
#: of one traced operation (median over the traced operations of a run).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("gantt.common_slot.calls", "count", GANTT),
    ("gantt.common_slot.self_s", "s", GANTT),
    ("gantt.earliest_slot.calls", "count", GANTT),
    ("gantt.reserve.calls", "count", GANTT),
    ("gantt.common_slot_per_evaluate", "ratio", GANTT),
    ("runtime.evaluate.calls", "count", RUNTIME),
    ("runtime.evaluate.self_s", "s", RUNTIME),
    ("runtime.execute.self_s", "s", RUNTIME),
    ("runtime.evaluate_per_task", "ratio", RUNTIME),
    ("core.run_batch.self_s", "s", CORE),
    ("core.next_subbatch.calls", "count", CORE),
    ("core.next_subbatch.self_s", "s", CORE),
    ("hypergraph.partition.calls", "count", HYPER),
    ("hypergraph.partition.self_s", "s", HYPER),
    ("cache.ensure_space.calls", "count", PRESSURE),
    ("cache.ensure_space.self_s", "s", PRESSURE),
    ("cache.evicted_mb", "MB", PRESSURE),
    ("staging.remote_mb", "MB", SIM),
    ("staging.replicated_mb", "MB", SIM),
    ("staging.cache_hit_mb", "MB", SIM),
    ("online.cross_batch_hit_mb", "MB", SIM),
    ("faults.transfer_retries", "count", PRESSURE),
    ("faults.failovers", "count", PRESSURE),
    ("audit.self_s", "s", PRESSURE),
    ("obs.probe.self_s", "s", PRESSURE),
    ("online.select.calls", "count", ONLINE),
    ("online.select.self_s", "s", ONLINE),
    ("online.session.self_s", "s", ONLINE),
    ("online.cut_weight.calls", "count", ONLINE),
    ("online.window_jobs", "jobs", ONLINE),
    ("workloads.make_batch.self_s", "s", "setup_s on all workloads"),
    ("bench.traced_wall_s", "s", BOOKKEEPING),
    ("bench.untraced_wall_s", "s", BOOKKEEPING),
    ("bench.tracing_overhead", "s", BOOKKEEPING),
    ("bench.unattributed_s", "s", BOOKKEEPING),
)

#: Span names whose self times partition a traced operation.
LAYER_SPANS = (
    "gantt.common_slot",
    "runtime.evaluate",
    "runtime.execute",
    "core.run_batch",
    "core.next_subbatch",
    "hypergraph.partition",
    "cache.ensure_space",
    "audit",
    "obs.probe",
    "online.select",
    "online.session",
)


def _schedulers_defining(attr: str) -> list[type]:
    found, todo = [], [Scheduler]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if attr in vars(cls):
            found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


def setup_patches() -> list[Patch]:
    """Patches active while the traced run generates its inputs."""
    return [Patch("workloads.make_batch", workloads, "make_batch", SPAN)]


def operation_patches() -> list[Patch]:
    """Patches active during a traced operation."""
    patches = [
        Patch("gantt.common_slot", runtime, "earliest_common_slot", TIMED),
        Patch("gantt.earliest_slot", gantt.Timeline, "earliest_slot", COUNT),
        Patch("gantt.earliest_slot", gantt.Overlay, "earliest_slot", COUNT),
        Patch("gantt.reserve", gantt.Timeline, "reserve", COUNT),
        Patch("gantt.reserve", gantt.Overlay, "reserve", COUNT),
        Patch("runtime.evaluate", runtime.Runtime, "evaluate", SPAN),
        Patch("runtime.execute", runtime.Runtime, "execute", SPAN),
        Patch("core.run_batch", driver, "run_batch", SPAN),
        Patch("core.run_batch", session, "run_batch", SPAN),
        Patch("hypergraph.partition", bipartition, "kway_partition", SPAN),
        Patch("hypergraph.partition", bipartition, "binw_partition", SPAN),
        Patch("cache.ensure_space", cache.DiskCache, "ensure_space", SPAN),
        Patch("audit", audit, "audit_runtime", SPAN),
        Patch("online.session", session.ClusterSession, "run", SPAN),
        Patch("online.cut_weight", queue, "cut_weight", COUNT),
    ]
    patches += [
        Patch("core.next_subbatch", cls, "next_subbatch", SPAN)
        for cls in _schedulers_defining("next_subbatch")
    ]
    patches += [
        Patch("online.select", policy, "select", SPAN)
        for policy in (queue.FIFOWindow, queue.SizeCappedWindow, queue.LocalityWindow)
    ]
    patches += [
        Patch("obs.probe", timeseries.TimeSeriesProbe, name, TIMED)
        for name in sorted(vars(timeseries.TimeSeriesProbe))
        if name.startswith("on_")
    ]
    return patches


def layer_metrics(tracer: Tracer, outcome: Outcome) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``workloads.make_batch.self_s`` (set-up) and the untraced comparison
    are filled in by the caller.
    """
    evaluations = tracer.calls("runtime.evaluate")
    stats = outcome.stats
    faults = outcome.fault_stats
    m = {
        f"{name}.{part}": value
        for name in LAYER_SPANS
        for part, value in (("calls", tracer.calls(name)), ("self_s", tracer.self_s(name)))
    }
    m.update(
        {
            "gantt.earliest_slot.calls": tracer.calls("gantt.earliest_slot"),
            "gantt.reserve.calls": tracer.calls("gantt.reserve"),
            "gantt.common_slot_per_evaluate": (
                tracer.calls("gantt.common_slot") / evaluations if evaluations else 0.0
            ),
            "runtime.evaluate_per_task": evaluations / outcome.num_tasks,
            "cache.evicted_mb": stats.evicted_volume_mb,
            "staging.remote_mb": stats.remote_volume_mb,
            "staging.replicated_mb": stats.replication_volume_mb,
            "staging.cache_hit_mb": stats.cache_hit_volume_mb,
            "online.cross_batch_hit_mb": stats.cross_batch_hit_volume_mb,
            "faults.transfer_retries": faults.retries if faults else 0,
            "faults.failovers": faults.failovers if faults else 0,
            "online.cut_weight.calls": tracer.calls("online.cut_weight"),
            "online.window_jobs": (
                outcome.num_tasks / outcome.windows if outcome.windows else 0.0
            ),
            "bench.traced_wall_s": tracer.totals[ROOT].total_s,
            "bench.unattributed_s": tracer.self_s(ROOT),
        }
    )
    return {name: float(m[name]) for name, _, _ in PER_LAYER if name in m}


def attributed_share(metrics: Mapping[str, float]) -> float:
    """Share of traced wall time covered by the layer self times."""
    covered = sum(metrics[f"{name}.self_s"] for name in LAYER_SPANS)
    return covered / metrics["bench.traced_wall_s"]
