"""Differential test: tentative reuse in the runtime against the oracle.

:class:`~repro.cluster.runtime.Runtime` keeps each candidate's tentative
schedule across the commits of a sub-batch and reuses it until a file its
task reads changes holders or a committed reservation overlaps one of its
slots. :class:`repro.oracle.ReferenceRuntime` re-evaluates every candidate
at every look. On the exact time grid the two must agree on everything:
mappings, task records, transfer statistics, fault statistics and the
whole audit trail. Both flavours map with the same (production) scheduler,
so any difference comes from the runtime alone.
"""

import pytest

from repro.cluster.platform import osc_xio
from repro.cluster.runtime import RuntimeStats
from repro.core.base import make_scheduler
from repro.core.driver import run_batch
from repro.obs.core import telemetry
from repro.oracle import reference_run_batch
from repro.workloads.image import generate_image_batch

FAULTS = {
    "seed": 7,
    "transfer_failure_rate": 0.2,
    "node_crashes": [{"node": 1, "time": 18.0}],
    "link_slowdowns": [{"start": 4.0, "end": 12.0, "factor": 2.5}],
}

SCHEMES = ["minmin", "sufferage", "bipartition", "jdp", "ip"]

#: Disk size standing for "pressure": small enough that every scheme evicts.
PRESSURE = "pressure"

VARIANTS = {
    "plain": {},
    "faults": {"faults": FAULTS},
    "disk-pressure": {"disk_space_mb": PRESSURE},
    "candidate-limit": {"candidate_limit": 3},
    "overlap-io": {"overlap_io_compute": True},
    "all-stress": {
        "faults": FAULTS, "disk_space_mb": PRESSURE, "candidate_limit": 3,
    },
}


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def _run(run, scheme, kwargs):
    kwargs = dict(kwargs)
    if scheme == "ip":
        # Small enough for the MILP to solve to its gap well inside the
        # time limit, so both runs get the same mapping.
        n, c, pressure_mb = 16, 2, 600.0
        scheduler_kwargs = {"time_limit": 10.0}
    else:
        n, c, pressure_mb = 36, 4, 1000.0
        scheduler_kwargs = {}
    disk = kwargs.pop("disk_space_mb", None)
    batch = generate_image_batch(n, "high", num_storage=4, seed=3)
    platform = osc_xio(
        num_compute=c, num_storage=4,
        disk_space_mb=pressure_mb if disk == PRESSURE else float("inf"),
    )
    return run(
        batch, platform, make_scheduler(scheme, **scheduler_kwargs),
        audit=True, telemetry=True, **kwargs,
    )


def _signature(result):
    return {
        "makespan": result.makespan,
        "mappings": [sb.plan.mapping for sb in result.sub_batches],
        "records": [sb.execution.records for sb in result.sub_batches],
        "stats": result.stats,
        "faults": result.fault_stats.to_dict() if result.fault_stats else None,
        "trail": result.runtime.trail,
    }


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_reuse_matches_full_recompute(scheme, variant):
    ref = _run(reference_run_batch, scheme, VARIANTS[variant])
    opt = _run(run_batch, scheme, VARIANTS[variant])
    if "faults" in VARIANTS[variant]:
        assert ref.fault_stats.transfer_failures > 0
    if "disk_space_mb" in VARIANTS[variant]:
        assert ref.stats.evictions > 0, "case is vacuous without evictions"
    assert _signature(opt) == _signature(ref)
    # Every look the oracle evaluated, the runtime either evaluated or
    # served from a kept tentative.
    ref_stats, opt_stats = ref.runtime.stats, opt.runtime.stats
    assert ref_stats.tentatives_reused == 0
    assert (
        opt_stats.evaluations + opt_stats.tentatives_reused
        == ref_stats.evaluations
    )


def test_reuse_is_not_vacuous():
    opt = _run(run_batch, "minmin", {})
    stats = opt.runtime.stats
    assert stats.tentatives_reused > 0
    assert stats.dropped_slot_overlap > 0
    counters = opt.telemetry["counters"]
    assert counters["runtime/evaluations"] == stats.evaluations
    assert counters["runtime/tentatives_reused"] == stats.tentatives_reused


def test_no_stats_without_telemetry(monkeypatch):
    # The disabled path builds no RuntimeStats: the hot path only tests
    # ``Runtime.stats is None``.
    def boom(self, *a, **k):
        raise AssertionError("RuntimeStats built while telemetry is off")

    monkeypatch.setattr(RuntimeStats, "__init__", boom)
    batch = generate_image_batch(12, "high", num_storage=4, seed=3)
    result = run_batch(batch, osc_xio(num_compute=4, num_storage=4), "minmin")
    assert result.runtime is None
