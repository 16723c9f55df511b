"""Differential decision-equivalence: optimized kernels vs reference oracles.

The incremental MCT kernel (:mod:`repro.core.mct_kernel`) and the runtime
hot-path caches (:class:`repro.cluster.runtime.Runtime`) have from-scratch
twins in the test-only oracle module :mod:`repro.oracle`. These tests run
both flavours on the same inputs and require *identical* decisions — mappings,
DecisionLog records, telemetry counters, task records and makespans — not
merely close ones. Layers:

* kernel: one whole-batch ``next_subbatch`` per MCT-family scheme, with
  pre-placed replicas so the replica-aware staging paths are live;
* driver: full ``run_batch`` across every registered scheme;
* stress: disk pressure (eviction ordering), a candidate limit (the
  missing-bytes index), and fault injection (crash + flaky network +
  link-slowdown windows, which exercise the event-driven invalidation).
"""

import numpy as np
import pytest

from repro.cluster.platform import osc_xio
from repro.cluster.state import ClusterState
from repro.core.base import make_scheduler
from repro.core.driver import run_batch
from repro.obs.core import telemetry
from repro.oracle import make_reference_scheduler, reference_run_batch
from repro.workloads.image import generate_image_batch

FAULTS = {
    "seed": 7,
    "transfer_failure_rate": 0.2,
    "node_crashes": [{"node": 1, "time": 18.0}],
    "link_slowdowns": [{"start": 4.0, "end": 12.0, "factor": 2.5}],
}


def _kernel_run(scheme: str, n: int, c: int, overlap: str, seed: int,
                reference: bool):
    """One whole-batch mapping with telemetry; returns its full trace."""
    batch = generate_image_batch(n, overlap, num_storage=4, seed=seed)
    platform = osc_xio(num_compute=c, num_storage=4)
    state = ClusterState.initial(platform, batch)
    # Pre-place some files so on_node / any_copy / replica costs differ
    # from the cold-start case.
    rng = np.random.default_rng(seed + 99)
    fids = sorted(batch.files)
    for f in rng.choice(fids, size=min(20, len(fids)), replace=False):
        state.place(int(rng.integers(c)), f)
    make = make_reference_scheduler if reference else make_scheduler
    sched = make(scheme, seed=0)
    telemetry.reset()
    telemetry.enable()
    try:
        plan = sched.next_subbatch(
            batch, [t.task_id for t in batch.tasks], platform, state
        )
        # kernel/* counters are the incremental kernel's work accounting —
        # they describe the optimization itself, not decisions, and exist
        # only on the optimized flavour by design.
        counters = {
            k: v
            for k, v in telemetry.snapshot().get("counters", {}).items()
            if not k.startswith("kernel/")
        }
    finally:
        telemetry.disable()
        telemetry.reset()
    assert sched.decision_log is not None
    log = [d.to_dict() for d in sched.decision_log.decisions]
    return plan.mapping, log, counters


@pytest.mark.parametrize("scheme", ["minmin", "maxmin", "sufferage"])
@pytest.mark.parametrize(
    "n,c,overlap,seed",
    [
        (40, 4, "high", 0),
        (40, 4, "zero", 1),
        (25, 1, "high", 2),
        (7, 3, "low", 3),
        # Large enough that the incremental kernel compacts its live rows
        # (twice: 150 -> 75 -> 37) mid-mapping.
        (150, 4, "high", 4),
    ],
)
def test_kernel_decision_identity(scheme, n, c, overlap, seed):
    ref = _kernel_run(scheme, n, c, overlap, seed, reference=True)
    opt = _kernel_run(scheme, n, c, overlap, seed, reference=False)
    assert opt[0] == ref[0], "mapping diverged"
    assert opt[1] == ref[1], "DecisionLog diverged"
    assert opt[2] == ref[2], "telemetry counters diverged"


def _signature(result):
    """Everything decision-shaped about a BatchResult, exactly."""
    return {
        "makespan": result.makespan,
        "mappings": [sb.plan.mapping for sb in result.sub_batches],
        "records": [
            (r.task_id, r.node, r.transfers_done, r.exec_start, r.completion)
            for sb in result.sub_batches
            for r in sb.execution.records
        ],
        "stats": result.stats,
        "faults": (
            result.fault_stats.to_dict() if result.fault_stats else None
        ),
    }


def _both(scheme: str, n: int = 36, c: int = 4, **kwargs):
    batch = generate_image_batch(n, "high", num_storage=4, seed=3)
    platform = osc_xio(num_compute=c, num_storage=4,
                      disk_space_mb=kwargs.pop("disk_space_mb", float("inf")))
    ref = reference_run_batch(batch, platform, scheme, **kwargs)
    opt = run_batch(batch, platform, scheme, **kwargs)
    return _signature(ref), _signature(opt)


@pytest.mark.parametrize(
    "scheme", ["minmin", "maxmin", "sufferage", "bipartition", "jdp"]
)
def test_run_batch_identity(scheme):
    ref, opt = _both(scheme)
    assert opt == ref


def test_run_batch_identity_ip():
    # Small instance so the MILP solves quickly; the IP runtime path also
    # covers planned sources with dynamic fallback.
    ref, opt = _both("ip", n=16, scheduler_kwargs={"time_limit": 10.0})
    assert opt == ref


def test_identity_under_disk_pressure():
    # Disks sized to force on-demand eviction: the optimized flavour must
    # pick the same victims through its cached size-ascending order.
    ref, opt = _both("minmin", disk_space_mb=2500.0)
    assert ref["stats"].evictions > 0, "case is vacuous without evictions"
    assert opt == ref


def test_identity_with_candidate_limit():
    # candidate_limit < group size activates the missing-bytes index.
    ref, opt = _both("minmin", candidate_limit=3)
    assert opt == ref


def test_identity_under_faults():
    ref, opt = _both("minmin", faults=FAULTS)
    assert ref["faults"]["node_crashes"] >= 1
    assert opt == ref


def test_identity_faults_and_candidate_limit():
    # Crash + retries + the index's event-driven invalidation, together.
    ref, opt = _both("minmin", candidate_limit=3, faults=FAULTS)
    assert opt == ref


def test_identity_jdp_pushes_with_candidate_limit():
    # JDP's proactive pushes mutate placement before the index is built.
    ref, opt = _both("jdp", candidate_limit=3)
    assert opt == ref
