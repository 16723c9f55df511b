"""The benchmark's workloads: input set-up, one operation, and its checks.

Each workload's inputs are made once per run from the seed; one operation
is one complete simulation through a public entry point
(:func:`repro.core.driver.run_batch` or :meth:`ClusterSession.run`),
checked before its time counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.core.driver as driver
import repro.online.session as session
import repro.workloads as workloads
from repro.batch import Batch
from repro.cluster.platform import Platform, osc_osumed, osc_xio
from repro.cluster.state import ClusterState, TransferStats
from repro.core.plan import BatchResult
from repro.faults import FaultStats
from repro.obs.metrics import conservation_residual_mb
from repro.online.arrivals import JobStream, poisson_arrivals, stream_from_batch
from repro.online.queue import LocalityWindow

#: Relative tolerance on byte conservation (a sum of float MB sizes).
CONSERVATION_RTOL = 1e-9


@dataclass(frozen=True)
class Spec:
    """A workload: how to make its inputs and how one operation runs."""

    name: str
    workload: str  # repro.workloads registry name
    overlap: str
    num_tasks: int
    make_platform: Callable[[], Platform]
    scheme: str
    faults_file: str | None = None  # relative to the checkout root
    audit: bool = False  # audit every operation, not only traced ones
    timeseries: bool = False
    stream_rate: float | None = None  # Poisson jobs per simulated second
    window_jobs: int = 0  # locality-window size of a stream


#: Tasks (or stream jobs) per operation. Smaller than the paper's n=400 so
#: that one operation takes about a second and a run of half a minute
#: covers many inputs: the cost of an operation varies by 2x between
#: inputs, so a run's figures are steady only as a mean over many.
NUM_TASKS = 100

SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="batch-ect",
            workload="image",
            overlap="high",
            num_tasks=NUM_TASKS,
            make_platform=lambda: osc_xio(num_compute=16, num_storage=8),
            scheme="minmin",
        ),
        # Known defect: BiPartitionScheduler's disk repair sorts a set by a
        # key that ties, so this workload's schedule and makespan depend on
        # PYTHONHASHSEED. The benchmark leaves the hash seed alone; each
        # run prints its decision digest, so the schedule that ran shows.
        Spec(
            name="batch-pressure",
            workload="image",
            overlap="high",
            num_tasks=NUM_TASKS,
            make_platform=lambda: osc_osumed(
                num_compute=8, num_storage=4, disk_space_mb=1000.0
            ),
            scheme="bipartition",
            faults_file="examples/faults/flaky-network.json",
            audit=True,
            timeseries=True,
        ),
        Spec(
            name="stream-backlog",
            workload="overlap",
            overlap="medium",
            num_tasks=NUM_TASKS,
            make_platform=lambda: osc_xio(
                num_compute=8, num_storage=4, disk_space_mb=20000.0
            ),
            scheme="bipartition",
            stream_rate=4.0,
            window_jobs=16,
        ),
    )
}

#: Seed of the stream's arrival process. Fixed, so the backlog this
#: workload exists for forms the same way whatever the workload seed.
ARRIVAL_SEED = 0


@dataclass
class Inputs:
    spec: Spec
    batch: Batch
    platform: Platform
    faults: dict[str, Any] | None
    stream: JobStream | None


def make_inputs(spec: Spec, seed: int, root: Path) -> Inputs:
    """Generate a workload's inputs from the seed (the set-up phase)."""
    platform = spec.make_platform()
    batch = workloads.make_batch(
        spec.workload, spec.num_tasks, spec.overlap, platform.num_storage, seed
    )
    faults = None
    if spec.faults_file is not None:
        faults = json.loads((root / spec.faults_file).read_text())
    stream = None
    if spec.stream_rate is not None:
        times = poisson_arrivals(spec.num_tasks, spec.stream_rate, ARRIVAL_SEED)
        stream = stream_from_batch(batch, times)
    return Inputs(spec, batch, platform, faults, stream)


@dataclass
class Outcome:
    """What one operation produced, reduced to what the benchmark reports."""

    num_tasks: int
    makespan_s: float
    mean_response_s: float
    windows: int  # dispatch windows of a stream; 0 for a batch
    stats: TransferStats
    fault_stats: FaultStats | None
    digest: str
    problems: list[str] = field(default_factory=list)


@contextmanager
def _capturing_run_batch(
    captured: list[tuple[BatchResult, ClusterState]],
) -> Iterator[None]:
    """Record each window's result and cluster state inside a session."""
    original = session.run_batch

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        captured.append((result, kwargs["state"]))
        return result

    session.run_batch = capture
    try:
        yield
    finally:
        session.run_batch = original


def run_operation(inputs: Inputs, audit: bool = False) -> Outcome:
    """One complete simulation of the workload, then its checks."""
    spec = inputs.spec
    audit = audit or spec.audit
    if inputs.stream is None:
        state = ClusterState.initial(inputs.platform, inputs.batch)
        result = driver.run_batch(
            inputs.batch,
            inputs.platform,
            spec.scheme,
            audit=audit,
            timeseries=spec.timeseries,
            faults=inputs.faults,
            state=state,
        )
        completions = [
            r.completion for sb in result.sub_batches for r in sb.execution.records
        ]
        outcome = Outcome(
            num_tasks=len(inputs.batch.tasks),
            makespan_s=result.makespan,
            # Every job of a batch is submitted at time 0.
            mean_response_s=sum(completions) / max(1, len(completions)),
            windows=0,
            stats=result.stats,
            fault_stats=result.fault_stats,
            digest=decision_digest([result]),
        )
        outcome.problems = check_runs([(result, state)], inputs.batch)
        if not math.isclose(result.makespan, max(completions, default=0.0)):
            outcome.problems.append("makespan is not the last task completion")
        return outcome

    captured: list[tuple[BatchResult, ClusterState]] = []
    with _capturing_run_batch(captured):
        streamed = session.ClusterSession(
            inputs.platform,
            inputs.stream,
            spec.scheme,
            policy=LocalityWindow(max_jobs=spec.window_jobs),
            audit=audit,
            faults=inputs.faults,
        ).run()
    windows = [(b.dispatch, b.task_ids) for b in streamed.batches]
    outcome = Outcome(
        num_tasks=len(inputs.batch.tasks),
        makespan_s=streamed.total_span_s,
        mean_response_s=streamed.mean_response_s,
        windows=len(streamed.batches),
        stats=streamed.stats,
        fault_stats=streamed.fault_stats,
        digest=decision_digest([r for r, _ in captured], windows),
    )
    outcome.problems = check_runs(captured, inputs.batch)
    if sorted(j.task_id for j in streamed.jobs) != sorted(
        t.task_id for t in inputs.batch.tasks
    ):
        outcome.problems.append("stream jobs differ from the submitted tasks")
    return outcome


def check_runs(
    runs: list[tuple[BatchResult, ClusterState]], batch: Batch
) -> list[str]:
    """Checks on the results of one operation (one or more run_batch calls)."""
    problems = []
    records = Counter(
        r.task_id
        for result, _ in runs
        for sb in result.sub_batches
        for r in sb.execution.records
    )
    expected = Counter(t.task_id for t in batch.tasks)
    if records != expected:
        missing = sorted(expected - records)[:3]
        repeated = sorted(t for t, n in records.items() if n > 1)[:3]
        problems.append(
            f"task records: missing {missing}, repeated {repeated}, "
            f"{len(records)} distinct of {len(expected)}"
        )
    if runs:
        state = runs[-1][1]
        staged = state.stats.remote_volume_mb + state.stats.replication_volume_mb
        residual = conservation_residual_mb(state)
        if abs(residual) > CONSERVATION_RTOL * max(1.0, staged):
            problems.append(f"byte conservation residual {residual!r} MB")
    return problems


def decision_digest(
    results: list[BatchResult],
    windows: list[tuple[float, tuple[str, ...]]] | None = None,
) -> str:
    """Hash of every sub-batch mapping and task record (and stream windows).

    Floats enter by ``repr``, which round-trips exactly, so two operations
    agree only when every decision and every simulated time is identical.
    """
    h = hashlib.sha256()
    for dispatch, task_ids in windows or []:
        h.update(repr((dispatch, task_ids)).encode())
    for result in results:
        for sb in result.sub_batches:
            h.update(repr(sorted(sb.plan.mapping.items())).encode())
            for r in sb.execution.records:
                h.update(
                    repr(
                        (r.task_id, r.node, r.transfers_done, r.exec_start, r.completion)
                    ).encode()
                )
    return h.hexdigest()[:16]
