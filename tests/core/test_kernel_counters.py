"""Incremental-kernel work counters: pinned values, decision neutrality.

The counters added to :class:`repro.core.mct_kernel.KernelStats`
(``value_rows_skipped``, ``compactions``, ``flip_shortcut_hits``) are pure
accumulators over the kernel's existing control flow — adding them must not
change a single decision, and on a fixed cell their values are exact
(the kernel is deterministic). ``repro profile`` and the run manifest
surface them through the ``kernel/*`` telemetry counters.
"""

import pytest

from repro.cluster.platform import osc_xio
from repro.cluster.state import ClusterState
from repro.core.base import make_scheduler
from repro.core.driver import run_batch
from repro.obs.core import telemetry
from repro.oracle import make_reference_scheduler, reference_run_batch
from repro.workloads.image import generate_image_batch


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def map_once(scheme="minmin", n=200, c=8, reference=False):
    batch = generate_image_batch(n, "high", num_storage=8, seed=0)
    platform = osc_xio(num_compute=c, num_storage=8)
    state = ClusterState.initial(platform, batch)
    make = make_reference_scheduler if reference else make_scheduler
    sched = make(scheme, seed=0)
    plan = sched.next_subbatch(
        batch, [t.task_id for t in batch.tasks], platform, state
    )
    return plan.mapping, sched.kernel_stats


class TestCounters:
    def test_pinned_values_on_fixed_cell(self):
        # Large enough that every counter is live: two live-row
        # compactions (200 -> 100 -> 50), flip shortcuts and column-only
        # row updates. Exact values — the kernel is deterministic.
        _, stats = map_once()
        doc = stats.to_dict()
        assert doc["compactions"] == 2
        assert doc["flip_shortcut_hits"] == 124
        assert doc["value_rows_skipped"] == 138
        assert doc["evaluations_saved"] == 130578

    def test_counters_are_decision_neutral(self):
        opt, stats = map_once(reference=False)
        ref, ref_stats = map_once(reference=True)
        assert opt == ref
        assert stats is not None
        assert ref_stats is None  # reference path has no incremental stats

    def test_small_cell_has_zero_compactions(self):
        # Compaction triggers at live*2 <= cap with cap >= 64; a tiny
        # batch never reaches it.
        _, stats = map_once(n=20, c=4)
        assert stats.to_dict()["compactions"] == 0

    def test_counters_flow_into_telemetry(self):
        batch = generate_image_batch(16, "high", 4, seed=0)
        platform = osc_xio(num_compute=4, num_storage=4)
        result = run_batch(
            batch, platform, "minmin", candidate_limit=25, telemetry=True
        )
        counters = result.telemetry["counters"]
        assert counters["kernel/tasks"] == 16.0
        assert "kernel/flip_shortcut_hits" in counters
        assert "kernel/value_rows_skipped" in counters
        assert "kernel/compactions" in counters

    def test_reference_run_has_no_kernel_counters(self):
        batch = generate_image_batch(16, "high", 4, seed=0)
        platform = osc_xio(num_compute=4, num_storage=4)
        result = reference_run_batch(
            batch, platform, "minmin", candidate_limit=25, telemetry=True,
        )
        assert not any(
            k.startswith("kernel/") for k in result.telemetry["counters"]
        )
