"""Driver-level fault recovery: dynamic rescheduling across every scheme.

The contract under test: with faults injected, ``run_batch`` still
completes every task (re-invoking the scheduler on the surviving platform
for tasks a crash killed), the executed trace passes the full invariant
set E1-E7, and a null fault spec is bit-identical to no spec at all.
"""

import pytest

from repro.cluster import osc_xio
from repro.core import run_batch
from repro.faults import FaultSpec, NodeCrash
from repro.workloads import generate_image_batch

SCHEMES = ["minmin", "maxmin", "sufferage", "jdp", "bipartition", "ip"]


def scheme_kwargs(scheme):
    if scheme == "ip":
        return {"time_limit": 3.0, "mip_rel_gap": 0.25}
    return {}


def small_batch(n=16, seed=0):
    return generate_image_batch(n, "high", 4, seed=seed)


CRASH_AND_FLAKY = {
    "node_crashes": [{"node": 1, "time": 5.0}],
    "transfer_failure_rate": 0.2,
    "seed": 3,
}


class TestReschedulingAcrossSchemes:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_completes_on_survivors_and_audits(self, scheme):
        batch = small_batch()
        result = run_batch(
            batch,
            osc_xio(4, 4),
            scheme,
            scheduler_kwargs=scheme_kwargs(scheme),
            faults=CRASH_AND_FLAKY,
            audit=True,  # raises AuditError on any E1-E7 violation
        )
        # num_tasks counts *planned* tasks, so rescheduled ones count once
        # per plan they appear in (scheduling overhead really was paid
        # again); unique completions must cover the batch exactly.
        assert result.num_tasks >= len(batch)
        done = {r.task_id for sb in result.sub_batches for r in sb.execution.records}
        assert done == {t.task_id for t in batch.tasks}
        stats = result.fault_stats
        assert stats is not None
        # The crash materialises only if it would interrupt activity; a
        # scheme may legitimately have drained node 1 before t=5 (the node
        # is then a zombie the replica selector still refuses to use).
        assert stats.node_crashes <= 1
        # No completed task may sit on the dead node past its crash time.
        for sb in result.sub_batches:
            for rec in sb.execution.records:
                if rec.node == 1:
                    assert rec.completion <= 5.0 + 1e-6

    @pytest.mark.parametrize("scheme", ["minmin", "jdp", "bipartition"])
    def test_crash_mid_batch_reschedules(self, scheme):
        batch = small_batch()
        result = run_batch(
            batch,
            osc_xio(2, 4),
            scheme,
            faults={"node_crashes": [{"node": 1, "time": 5.0}]},
        )
        stats = result.fault_stats
        assert stats is not None
        # On a 2-node platform a t=5 crash always interrupts real work.
        assert stats.tasks_rescheduled > 0
        done = {r.task_id for sb in result.sub_batches for r in sb.execution.records}
        assert done == {t.task_id for t in batch.tasks}


class TestNullEquivalence:
    @pytest.mark.parametrize("scheme", ["minmin", "jdp", "bipartition"])
    def test_null_spec_bit_identical(self, scheme):
        batch = small_batch()
        platform = osc_xio(4, 4)
        base = run_batch(batch, platform, scheme)
        for null in (None, {}, {"transfer_failure_rate": 0.0}, FaultSpec()):
            res = run_batch(batch, platform, scheme, faults=null)
            assert res.makespan == base.makespan
            assert res.fault_stats is None

    @pytest.mark.parametrize("scheme", ["minmin", "jdp", "bipartition"])
    def test_inert_spec_runs_the_same_loop(self, scheme, monkeypatch):
        # A real fault model whose only fault never happens (a crash at
        # t=1e9) stages through the same loop as no model at all: same
        # task records and the same number of Gantt slot searches, i.e.
        # no file is costed a second time for its first attempt.
        import repro.cluster.runtime as runtime

        calls = [0]
        slot = runtime.earliest_common_slot

        def counting(*args, **kwargs):
            calls[0] += 1
            return slot(*args, **kwargs)

        monkeypatch.setattr(runtime, "earliest_common_slot", counting)
        batch = small_batch()
        runs = []
        for faults in (None, {"node_crashes": [{"node": 0, "time": 1e9}]}):
            calls[0] = 0
            res = run_batch(batch, osc_xio(4, 4), scheme, faults=faults)
            records = [
                (r.task_id, r.node, r.transfers_done, r.exec_start, r.completion)
                for sb in res.sub_batches
                for r in sb.execution.records
            ]
            runs.append((records, calls[0]))
        assert runs[1][0] == runs[0][0]
        assert runs[1][1] == runs[0][1] > 0

    def test_faults_change_the_result(self):
        batch = small_batch()
        platform = osc_xio(4, 4)
        base = run_batch(batch, platform, "minmin")
        flaky = run_batch(
            batch, platform, "minmin",
            faults={"transfer_failure_rate": 0.3, "seed": 1},
        )
        assert flaky.makespan > base.makespan
        assert flaky.fault_stats is not None
        assert flaky.fault_stats.transfer_failures > 0


class TestDeterminism:
    def test_same_spec_same_result(self):
        batch = small_batch()
        platform = osc_xio(4, 4)
        runs = [
            run_batch(batch, platform, "minmin", faults=CRASH_AND_FLAKY)
            for _ in range(2)
        ]
        assert runs[0].makespan == runs[1].makespan
        assert (
            runs[0].fault_stats.to_dict() == runs[1].fault_stats.to_dict()
        )


class TestFailureModes:
    def test_all_nodes_dead_raises(self):
        spec = {
            "node_crashes": [
                {"node": 0, "time": 0.0},
                {"node": 1, "time": 0.0},
            ]
        }
        with pytest.raises(RuntimeError, match="crashed|surviving"):
            run_batch(small_batch(), osc_xio(2, 4), "minmin", faults=spec)

    def test_invalid_spec_rejected_before_running(self):
        with pytest.raises(ValueError):
            run_batch(
                small_batch(),
                osc_xio(2, 4),
                "minmin",
                faults={"transfer_failure_rate": 2.0},
            )


class TestCrashStress:
    @pytest.mark.parametrize("crash_time", [0.0, 2.0, 8.0, 15.0])
    def test_single_crash_any_time_completes(self, crash_time):
        spec = FaultSpec(
            node_crashes=(NodeCrash(2, crash_time),),
            transfer_failure_rate=0.1,
            seed=1,
        )
        batch = small_batch()
        result = run_batch(batch, osc_xio(4, 4), "minmin",
                           faults=spec, audit=True)
        done = {r.task_id for sb in result.sub_batches for r in sb.execution.records}
        assert done == {t.task_id for t in batch.tasks}
