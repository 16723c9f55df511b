"""Three-stage batch execution driver.

Orchestrates the full pipeline for any scheduler: (1) the scheduler selects
and maps the next sub-batch against the current cluster state, (2) files are
evicted between sub-batches per the scheduler's policy so the incoming
sub-batch fits (Section 4.3), (3) the Section 6 runtime executes the
sub-batch on the Gantt charts. The loop repeats on the remaining pending
tasks until the batch drains; the clock carries across sub-batches so the
reported makespan is the end-to-end batch execution time.

Scheduling overhead (Fig. 6b's metric) is measured as the wall-clock time
spent inside scheduler calls, excluded from the simulated makespan exactly
as the paper reports the two quantities separately.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable

from ..batch import Batch
from ..cluster.events import AuditTrail
from ..cluster.platform import Platform
from ..cluster.runtime import Runtime, RuntimeStats
from ..cluster.state import ClusterState
from ..faults import FaultModel, FaultSpec, resolve_spec
from ..obs.core import telemetry as tele
from ..obs.timeseries import ProbeConfig, TimeSeriesProbe, resolve_timeseries
from .base import Scheduler, make_scheduler
from .eviction import EvictionPolicy
from .plan import BatchResult, SubBatchPlan, SubBatchResult

__all__ = ["run_batch"]


def _pending_counts(batch: Batch, pending: Iterable[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for t in pending:
        for f in batch.task(t).files:
            counts[f] = counts.get(f, 0) + 1
    return counts


def _pre_evict(
    plan: SubBatchPlan,
    batch: Batch,
    state: ClusterState,
    policy: EvictionPolicy,
    trail: AuditTrail | None = None,
    probe: TimeSeriesProbe | None = None,
) -> None:
    """Between-sub-batch eviction (Section 4.3).

    Frees enough space on every node for the files its incoming tasks need,
    never evicting a file the sub-batch itself will use on that node (or a
    planned push target). Victims are chosen by the scheduler's policy —
    increasing popularity for the proposed schemes, LRU for JDP.
    """
    protect: dict[int, set[str]] = {}
    for t in plan.task_ids:
        node = plan.mapping[t]
        protect.setdefault(node, set()).update(batch.task(t).files)
    if plan.staging is not None:
        for f, node in plan.staging.pushes:
            protect.setdefault(node, set()).add(f)
        for (f, node), _src in plan.staging.sources.items():
            protect.setdefault(node, set()).add(f)

    for node, needed in protect.items():
        cache = state.caches[node]
        if math.isinf(cache.capacity_mb):
            continue
        incoming = sum(
            state.size_of(f) for f in needed if not state.has_file(node, f)
        )
        present = sum(
            state.size_of(f) for f in needed if state.has_file(node, f)
        )
        if present + incoming > cache.capacity_mb + 1e-6:
            raise RuntimeError(
                f"sub-batch needs {present + incoming:.0f} MB on node {node} "
                f"but its disk holds only {cache.capacity_mb:.0f} MB — the "
                "scheduler produced an over-capacity sub-batch"
            )
        if incoming <= cache.free_mb:
            continue
        keep = needed

        def order(
            cands: Iterable[str], _node: int = node, _keep: set[str] = keep
        ) -> list[str]:
            victims = [f for f in cands if f not in _keep]
            return policy.order(state, _node, victims)

        def on_evict(fid: str, _node: int = node) -> None:
            if trail is not None:
                trail.record_eviction(_node, fid, state.size_of(fid))
            state.note_evicted(_node, fid)
            if probe is not None:
                probe.on_evict(_node, state.size_of(fid))

        cache.ensure_space(incoming, victim_order=order, on_evict=on_evict)


def run_batch(
    batch: Batch,
    platform: Platform,
    scheduler: Scheduler | str,
    *,
    allow_replication: bool = True,
    candidate_limit: int | None = None,
    scheduler_kwargs: dict | None = None,
    max_subbatches: int | None = None,
    eviction_policy: EvictionPolicy | None = None,
    ordering: str = "ect",
    overlap_io_compute: bool = False,
    audit: bool = False,
    telemetry: bool = False,
    timeseries: bool | ProbeConfig | dict | None = None,
    faults: FaultSpec | dict | None = None,
    state: ClusterState | None = None,
    fault_model: FaultModel | None = None,
) -> BatchResult:
    """Run a whole batch under one scheduler; returns the end-to-end result.

    The from-scratch twin of this function, for differential tests and
    ``repro bench`` only, is :func:`repro.oracle.reference_run_batch`.

    Parameters
    ----------
    scheduler:
        A :class:`~repro.core.base.Scheduler` instance or a registered name
        (``"ip"``, ``"bipartition"``, ``"minmin"``, ``"jdp"``).
    allow_replication:
        When False, compute-to-compute transfers are disabled everywhere
        (the *No Replication* configuration of Fig. 5a).
    candidate_limit:
        Cap on per-commit ECT evaluations in the runtime (exact when None).
    max_subbatches:
        Safety valve for tests; raises if exceeded.
    eviction_policy:
        Override the scheduler's default eviction policy (ablations).
    ordering:
        Runtime task ordering: ``"ect"`` (Section 6's earliest-completion-
        time policy, default) or ``"fifo"`` (ablation baseline).
    overlap_io_compute:
        Relax the paper's no-staging-during-execution assumption by giving
        each node a dedicated CPU timeline (future-work ablation).
    audit:
        Record a commit-ordered audit trail during execution and verify
        the finished trace with :func:`repro.analysis.audit.audit_runtime`
        (invariants E1–E8 of ``docs/invariants.md``).  The report is
        attached as ``result.audit_report``; any violation raises
        :class:`~repro.analysis.audit.AuditError`.
    telemetry:
        Collect run telemetry (:mod:`repro.obs`): enables the process-wide
        registry for the duration of the run, replays the scheduler's
        decision log (when the scheme emits one) against the executed task
        records, and attaches ``result.metrics`` (derived resource metrics,
        Eqs. 9–13), ``result.decision_log``, ``result.telemetry`` (the
        counters/gauges/spans snapshot) and ``result.runtime`` (for trace
        export). Scalar metrics are also published as ``metrics/*`` gauges
        so parallel workers' per-cell snapshots carry them.
    timeseries:
        Attach simulated-time series probes (:mod:`repro.obs.timeseries`):
        samples per-node disk occupancy, eviction pressure, port busy
        seconds, ready-queue and in-flight-transfer depth, and cumulative
        remote/replicated/cache-hit bytes at every commit point, with fault
        events overlaid as markers. Accepts ``True`` (default budget), a
        :class:`~repro.obs.timeseries.ProbeConfig`, or its dict form; every
        null form (``None``/``False``/``{}``) keeps the allocation-free
        fast path, exactly like a null fault spec. The block is attached as
        ``result.timeseries`` and exported under the manifest's
        ``timeseries`` key. Independent of ``telemetry``.
    faults:
        Fault-injection spec (:class:`~repro.faults.FaultSpec`, its JSON
        dict form, or ``None``). Crashed nodes hand their unfinished tasks
        back to the pending pool and the scheduler is re-invoked on the
        surviving platform; transient transfer failures are retried with
        exponential backoff and source failover inside the runtime. A null
        spec is equivalent to ``None``: the simulation is bit-identical to
        a fault-free run. See ``docs/faults.md``.
    state:
        A pre-existing :class:`~repro.cluster.state.ClusterState` to run
        against instead of the paper's cold start (all files on the storage
        cluster only). Online sessions (:mod:`repro.online`) pass the same
        state into successive calls so disk-cache contents, dead nodes and
        transfer statistics carry across batches; the batch's file catalog
        is registered into it. Must have been built for ``platform``.
    fault_model:
        A live :class:`~repro.faults.FaultModel` shared across successive
        batches (online sessions): recovery counters accumulate and each
        injected disk loss applies once per stream. Mutually exclusive
        with ``faults``.
    """
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler, **(scheduler_kwargs or {}))
    scheduler.reset()

    if fault_model is not None and faults is not None:
        raise ValueError("pass either faults or fault_model, not both")
    if state is not None and state.platform is not platform:
        raise ValueError(
            "the provided cluster state was built for a different platform"
        )

    was_enabled = tele.enabled
    if telemetry:
        tele.reset()
        tele.enable()
    try:
        return _run_batch_inner(
            batch,
            platform,
            scheduler,
            allow_replication=allow_replication,
            candidate_limit=candidate_limit,
            max_subbatches=max_subbatches,
            eviction_policy=eviction_policy,
            ordering=ordering,
            overlap_io_compute=overlap_io_compute,
            audit=audit,
            telemetry=telemetry,
            probe_config=resolve_timeseries(timeseries),
            fault_spec=resolve_spec(faults),
            state=state,
            fault_model=fault_model,
        )
    finally:
        if telemetry and not was_enabled:
            tele.disable()


def _run_batch_inner(
    batch: Batch,
    platform: Platform,
    scheduler: Scheduler,
    *,
    allow_replication: bool,
    candidate_limit: int | None,
    max_subbatches: int | None,
    eviction_policy: EvictionPolicy | None,
    ordering: str,
    overlap_io_compute: bool,
    audit: bool,
    telemetry: bool,
    probe_config: ProbeConfig | None,
    fault_spec: FaultSpec | None,
    state: ClusterState | None = None,
    fault_model: FaultModel | None = None,
) -> BatchResult:

    # The paper assumes every single task's files fit on a compute node
    # (Section 4.2); fail fast with a clear message when violated.
    if batch.tasks:
        footprint = batch.max_task_footprint_mb()
        largest_disk = max(n.disk_space_mb for n in platform.compute_nodes)
        if footprint > largest_disk:
            raise ValueError(
                f"largest task footprint {footprint:.0f} MB exceeds the "
                f"largest compute-node disk ({largest_disk:.0f} MB); the "
                "paper's model requires any single task's files to fit"
            )

    if state is None:
        state = ClusterState.initial(platform, batch)
    else:
        # Warm start (online sessions): keep resident copies, dead nodes
        # and cumulative statistics; only the catalog grows.
        state.register_files(batch.files)
    if fault_model is None and fault_spec is not None:
        fault_model = FaultModel(fault_spec)
    if fault_model is not None and fault_spec is None:
        fault_spec = fault_model.spec
    runtime = Runtime(
        platform,
        state,
        allow_replication=allow_replication,
        candidate_limit=candidate_limit,
        ordering=ordering,
        overlap_io_compute=overlap_io_compute,
        audit=audit,
        faults=fault_model,
    )
    if telemetry:
        runtime.stats = RuntimeStats()
    probe: TimeSeriesProbe | None = None
    if probe_config is not None:
        probe = TimeSeriesProbe(
            probe_config,
            num_compute=platform.num_compute,
            state=state,
            fault_spec=fault_spec,
        )
        runtime.probe = probe
    policy = eviction_policy if eviction_policy is not None else scheduler.eviction_policy(batch)
    pending: list[str] = [t.task_id for t in batch.tasks]
    result = BatchResult(scheduler=scheduler.name, makespan=0.0, scheduling_seconds=0.0)

    with tele.span("driver"):
        while pending:
            if max_subbatches is not None and len(result.sub_batches) >= max_subbatches:
                raise RuntimeError(
                    f"exceeded max_subbatches={max_subbatches} with "
                    f"{len(pending)} tasks still pending"
                )
            policy.update_pending(_pending_counts(batch, pending))

            t0 = time.perf_counter()
            with tele.span("schedule"):
                plan = scheduler.next_subbatch(batch, pending, platform, state)
            sched_seconds = time.perf_counter() - t0
            if not plan.task_ids:
                raise RuntimeError(f"scheduler {scheduler.name} made no progress")

            # Between-sub-batch eviction only applies to sub-batching schemes;
            # whole-batch baselines rely on on-demand eviction at runtime.
            if scheduler.uses_subbatches:
                with tele.span("pre-evict"):
                    _pre_evict(
                        plan, batch, state, policy,
                        trail=runtime.trail, probe=probe,
                    )

            tasks = [batch.task(t) for t in plan.task_ids]
            dead_before = len(state.dead_nodes)
            if probe is not None:
                probe.on_subbatch(len(result.sub_batches), runtime.clock)
            with tele.span("execute"):
                execution = runtime.execute(
                    tasks,
                    plan.mapping,
                    plan.staging,
                    victim_order=lambda node, cands: policy.order(state, node, cands),
                )
            result.sub_batches.append(
                SubBatchResult(
                    plan=plan, execution=execution, scheduling_seconds=sched_seconds
                )
            )
            result.scheduling_seconds += sched_seconds
            tele.count("driver/sub_batches")
            tele.count("driver/tasks", len(plan.task_ids))
            failed = set(execution.failed_tasks)
            done = set(plan.task_ids) - failed
            if failed:
                # Dynamic rescheduling: tasks from a crashed node rejoin
                # the pending pool (keeping submission order) and the next
                # loop iteration re-invokes the scheduler against the
                # surviving platform.
                assert fault_model is not None
                fault_model.stats.tasks_rescheduled += len(failed)
                tele.count("faults/tasks_rescheduled", len(failed))
                if not done and len(state.dead_nodes) == dead_before:
                    raise RuntimeError(
                        f"scheduler {scheduler.name} made no progress: every "
                        f"task of the sub-batch failed without a new crash"
                    )
                if not state.alive_nodes():
                    raise RuntimeError(
                        f"all compute nodes have crashed with "
                        f"{len(pending)} task(s) pending"
                    )
            pending = [t for t in pending if t not in done]

    result.makespan = runtime.clock
    result.stats = state.stats
    if probe is not None:
        result.timeseries = probe.to_dict()
    if fault_model is not None:
        result.fault_stats = fault_model.stats
        if telemetry:
            for key, value in fault_model.stats.to_dict().items():
                tele.gauge(f"faults/{key}", float(value))
    if telemetry:
        from ..obs.metrics import compute_metrics

        assert runtime.stats is not None
        for key, count in runtime.stats.to_dict().items():
            tele.count(f"runtime/{key}", count)

        records = [r for sb in result.sub_batches for r in sb.execution.records]
        decisions = scheduler.decision_log
        metrics = compute_metrics(runtime, records, decisions)
        for key, value in metrics.to_dict().items():
            if isinstance(value, (int, float)):
                tele.gauge(f"metrics/{key}", float(value))
        result.metrics = metrics
        result.decision_log = decisions
        result.telemetry = tele.snapshot()
        result.runtime = runtime
    if audit:
        # Imported lazily: repro.analysis is tooling layered on top of the
        # core scheduling/runtime packages, not a dependency of them.
        from ..analysis.audit import audit_runtime

        report = audit_runtime(
            runtime, [sb.execution for sb in result.sub_batches]
        )
        result.audit_report = report
        report.raise_if_violations()
    return result
