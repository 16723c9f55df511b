"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not figures from the paper — these quantify how much each mechanism
contributes, which the paper asserts qualitatively:

* Eq. 22 popularity eviction vs LRU vs size-only;
* BINW sub-batch selection vs greedy capacity packing;
* Eq. 25/26 probabilistic vertex weights vs compute-only weights;
* Section 6 dynamic ECT ordering vs FIFO ordering;
* HiGHS vs the from-scratch branch-and-bound backend on the IP model.
"""

import pytest

from repro.core import (
    BiPartitionScheduler,
    IPScheduler,
    LRUPolicy,
    PopularityPolicy,
    SizePolicy,
    run_batch,
)
from repro.cluster import osc_xio
from repro.experiments.report import Record, Table
from repro.workloads import generate_image_batch


def _pressured_platform():
    return osc_xio(num_compute=4, num_storage=4, disk_space_mb=4_000.0)


def test_ablation_eviction(benchmark, show):
    """Popularity (Eq. 22) should beat or match LRU/size under pressure."""
    platform = _pressured_platform()
    batch = generate_image_batch(300, "high", 4, seed=0)

    def sweep():
        table = Table("ablation: eviction policy (bipartition, 300 tasks)")
        policies = {
            "popularity": PopularityPolicy.for_batch(batch),
            "lru": LRUPolicy(),
            "size": SizePolicy(),
        }
        for name, policy in policies.items():
            res = run_batch(
                batch,
                platform,
                BiPartitionScheduler(seed=0),
                eviction_policy=policy,
                candidate_limit=25,
            )
            table.add(
                Record(
                    experiment="ablation-eviction",
                    workload="image",
                    scheme=f"bipartition+{name}",
                    x=name,
                    makespan_s=res.makespan,
                    evictions=res.stats.evictions,
                    remote_volume_mb=res.stats.remote_volume_mb,
                )
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(table)
    by = {r.x: r.makespan_s for r in table.records}
    # The informed policy is never much worse than the blind ones.
    assert by["popularity"] <= min(by["lru"], by["size"]) * 1.10


def test_ablation_subbatch_selection(benchmark, show):
    """BINW sub-batches vs greedy capacity packing (same second level)."""
    platform = _pressured_platform()
    batch = generate_image_batch(300, "high", 4, seed=0)

    class GreedySubbatch(BiPartitionScheduler):
        """First level replaced by footprint-greedy packing."""

        def _select_subbatches(self, batch, pending, platform, state):
            budget = platform.aggregate_disk_space
            out, cur, used, used_mb = [], [], set(), 0.0
            for t in pending:  # submission order, no affinity awareness
                files = batch.task(t).files
                extra = sum(
                    batch.file_size(f) for f in files if f not in used
                )
                if cur and used_mb + extra > budget:
                    out.append(cur)
                    cur, used, used_mb = [], set(), 0.0
                    extra = sum(batch.file_size(f) for f in files)
                cur.append(t)
                used.update(files)
                used_mb += extra
            if cur:
                out.append(cur)
            return out

    def sweep():
        table = Table("ablation: sub-batch selection (300 tasks, 16 GB disk)")
        for name, sched in (
            ("binw", BiPartitionScheduler(seed=0)),
            ("greedy-pack", GreedySubbatch(seed=0)),
        ):
            res = run_batch(batch, platform, sched, candidate_limit=25)
            table.add(
                Record(
                    experiment="ablation-subbatch",
                    workload="image",
                    scheme=name,
                    x=name,
                    makespan_s=res.makespan,
                    remote_volume_mb=res.stats.remote_volume_mb,
                    evictions=res.stats.evictions,
                    sub_batches=res.num_sub_batches,
                )
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(table)
    by = {r.x: r for r in table.records}
    # Affinity-aware BINW must not move more remote bytes than blind packing.
    assert (
        by["binw"].remote_volume_mb
        <= by["greedy-pack"].remote_volume_mb * 1.05
    )
    assert by["binw"].makespan_s <= by["greedy-pack"].makespan_s * 1.10


def test_ablation_vertex_weights(benchmark, show):
    """Eq. 25/26 I/O-aware vertex weights vs compute-only weights."""
    platform = osc_xio(num_compute=4, num_storage=4)
    batch = generate_image_batch(100, "high", 4, seed=0)

    def sweep():
        table = Table("ablation: second-level vertex weights (100 tasks)")
        for mode in ("estimated", "compute"):
            res = run_batch(
                batch,
                platform,
                BiPartitionScheduler(seed=0, vertex_weight_mode=mode),
            )
            table.add(
                Record(
                    experiment="ablation-weights",
                    workload="image",
                    scheme=f"bipartition-{mode}",
                    x=mode,
                    makespan_s=res.makespan,
                )
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(table)
    by = {r.x: r.makespan_s for r in table.records}
    # I/O-aware weighting should help (tasks here are I/O-dominated).
    assert by["estimated"] <= by["compute"] * 1.05


def test_ablation_runtime_ordering(benchmark, show):
    """Section 6 ECT ordering vs FIFO within each group."""
    platform = osc_xio(num_compute=4, num_storage=4)
    batch = generate_image_batch(100, "high", 4, seed=0)

    def sweep():
        table = Table("ablation: runtime task ordering (100 tasks)")
        for ordering in ("ect", "fifo"):
            res = run_batch(
                batch,
                platform,
                BiPartitionScheduler(seed=0),
                ordering=ordering,
            )
            table.add(
                Record(
                    experiment="ablation-ordering",
                    workload="image",
                    scheme=f"bipartition-{ordering}",
                    x=ordering,
                    makespan_s=res.makespan,
                )
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(table)
    by = {r.x: r.makespan_s for r in table.records}
    # Finding: with an affinity-aware *mapping*, runtime ordering is a
    # second-order effect — both modes still pick transfer sources
    # dynamically (min-TCT), which is where the Section 6 machinery earns
    # its keep. Assert the two stay within a tight parity band.
    assert by["ect"] <= by["fifo"] * 1.05
    assert by["fifo"] <= by["ect"] * 1.05


def test_ablation_io_compute_overlap(benchmark, show):
    """Cost of the paper's no-staging-during-execution assumption.

    The paper's model (Eq. 12) serialises a node's transfers and
    executions. Relaxing it — a dedicated CPU per node, staging allowed
    during computation — quantifies how much performance that modelling
    choice leaves on the table (a natural future-work extension).
    """
    platform = osc_xio(num_compute=4, num_storage=4)
    batch = generate_image_batch(100, "high", 4, seed=0)

    def sweep():
        table = Table("ablation: I/O-compute overlap (100 tasks)")
        for mode, overlap in (("paper-serial", False), ("overlapped", True)):
            res = run_batch(
                batch,
                platform,
                BiPartitionScheduler(seed=0),
                overlap_io_compute=overlap,
            )
            table.add(
                Record(
                    experiment="ablation-overlap",
                    workload="image",
                    scheme=f"bipartition-{mode}",
                    x=mode,
                    makespan_s=res.makespan,
                )
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(table)
    by = {r.x: r.makespan_s for r in table.records}
    # Overlap can only help, and on I/O-heavy batches it helps noticeably.
    assert by["overlapped"] <= by["paper-serial"] * 1.001
    assert by["overlapped"] <= by["paper-serial"] * 0.95


def test_ablation_heterogeneous_speeds(benchmark, show):
    """Extension: per-node CPU speeds (paper assumes homogeneity).

    Compute-heavy synthetic batch on nodes with speeds (1, 1, 4, 4):
    speed-aware heuristics should beat a speed-blind round-robin clearly.
    """
    from repro.cluster import ComputeNode, Platform, StorageNode
    from repro.core import Scheduler, SubBatchPlan
    from repro.workloads import generate_synthetic_batch

    platform = Platform(
        compute_nodes=tuple(
            ComputeNode(i, speed=s) for i, s in enumerate((1.0, 1.0, 4.0, 4.0))
        ),
        storage_nodes=(StorageNode(0), StorageNode(1)),
        storage_network_bw=1000.0,
        compute_network_bw=1000.0,
    )
    batch = generate_synthetic_batch(
        40, 60, 2, 2, file_size_mb=5.0, compute_s_per_mb=1.0, seed=0
    )

    class BlindRR(Scheduler):
        uses_subbatches = False

        def next_subbatch(self, batch, pending, platform, state):
            return SubBatchPlan(
                list(pending),
                {t: k % platform.num_compute for k, t in enumerate(pending)},
            )

    BlindRR.name = "blind-rr"

    def sweep():
        table = Table("ablation: heterogeneous CPU speeds (40 tasks)")
        for name, sched in (
            ("minmin", "minmin"),
            ("sufferage", "sufferage"),
            ("blind-rr", BlindRR()),
        ):
            res = run_batch(batch, platform, sched)
            table.add(
                Record(
                    experiment="ablation-hetero",
                    workload="synthetic",
                    scheme=name,
                    x=name,
                    makespan_s=res.makespan,
                )
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(table)
    by = {r.x: r.makespan_s for r in table.records}
    assert by["minmin"] < by["blind-rr"] * 0.8
    assert by["sufferage"] < by["blind-rr"] * 0.8


def test_ablation_solver_backends(benchmark, show):
    """HiGHS and the from-scratch B&B must agree on small IP instances."""
    platform = osc_xio(num_compute=2, num_storage=2)
    batch = generate_image_batch(8, "high", 2, seed=0)

    def sweep():
        table = Table("ablation: IP solver backend (8 tasks, 2 nodes)")
        out = {}
        for backend in ("highs", "branch-bound"):
            res = run_batch(
                batch,
                platform,
                IPScheduler(
                    solver=backend, time_limit=120.0, mip_rel_gap=0.0
                ),
            )
            out[backend] = res
            table.add(
                Record(
                    experiment="ablation-solver",
                    workload="image",
                    scheme=f"ip-{backend}",
                    x=backend,
                    makespan_s=res.makespan,
                    scheduling_ms_per_task=res.scheduling_ms_per_task,
                )
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(table)
    by = {r.x: r.makespan_s for r in table.records}
    # Same optimal model -> same simulated makespan (small tolerance for
    # alternative optima realised differently at runtime).
    assert by["highs"] == pytest.approx(by["branch-bound"], rel=0.10)
