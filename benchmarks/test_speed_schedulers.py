"""Wall-clock speed tests for the incremental scheduling kernels.

Not part of tier-1 (``pytest.ini`` pins ``testpaths = tests``): run them
explicitly with ``PYTHONPATH=src python -m pytest benchmarks/ -q``.

Decision-identity is asserted unconditionally — every bench cell runs both
the product code and its from-scratch oracle (:mod:`repro.oracle`) and
compares mappings/makespans before its timing counts
(:mod:`repro.experiments.bench` refuses to report unchecked speedups). The
*speed* floors are additionally gated behind ``REPRO_PERF_ASSERT=1``
because wall-clock ratios are only meaningful on a quiet machine; without
the variable the tests still run both flavours and print the measured
ratio, they just don't fail on it. The CI ``bench`` job enforces the 2x
MinMin floor separately via ``repro bench --min-speedup``.

Floors are set ~20% under ratios measured on the development machine (see
``docs/performance.md`` for the numbers) so they catch regressions, not
scheduler noise. MaxMin and Sufferage clear lower bars by design: their
per-round selection scans are their tie-breaking semantics and are left
untouched, so only the matrix-rebuild share of their round is removed.
"""

import os

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.bench import BenchCell, run_cell

PERF_ASSERT = os.environ.get("REPRO_PERF_ASSERT") == "1"


def _cell(scheme, num_tasks, num_compute, mapping=True, **fields) -> BenchCell:
    kind = "mapping" if mapping else "e2e"
    return BenchCell(
        f"{kind}/{scheme}/n{num_tasks}c{num_compute}",
        ExperimentConfig(
            experiment="bench-speed", workload="image", overlap="high",
            num_tasks=num_tasks, storage="xio", num_compute=num_compute,
            num_storage=8, scheme=scheme, **fields,
        ),
        mapping,
    )


def _check(cell: BenchCell, repeats: int, floor: float) -> None:
    rec = run_cell(cell, repeats)
    msg = (
        f"{cell.cell}: {rec['speedup']:.2f}x "
        f"(ref {rec['reference_s'] * 1e3:.1f} ms, "
        f"opt {rec['optimized_s'] * 1e3:.1f} ms, floor {floor}x)"
    )
    print(msg)
    if PERF_ASSERT:
        assert rec["speedup"] >= floor, msg

@pytest.mark.parametrize(
    "scheme,floor",
    [("minmin", 2.0), ("maxmin", 1.4), ("sufferage", 1.2)],
)
def test_mapping_speed_mid_cell(scheme, floor):
    # Mid-size Fig. 6b point: big enough that the reference's per-round
    # full rebuild dominates, small enough to stay fast under pytest.
    # Measured 2.37x / 1.78x / 1.47x on the development machine.
    _check(_cell(scheme, 600, 32), 5, floor)

def test_mapping_speed_fig6b_headline():
    # The acceptance-gate cell: MinMin at the largest Fig. 6b point.
    # Measured 3.1x; the checked-in benchmarks/BENCH_baseline.json records
    # the >=3x run, the floor here leaves margin for noisier machines.
    _check(_cell("minmin", 1000, 32), 7, 2.5)

def test_end_to_end_not_regressed():
    # Parity guard, not a speedup claim: at this size mapping is a sliver
    # of the wall clock, the Timeline rewrite benefits both flavours by
    # design, and the runtime caches (source memoisation, missing-bytes
    # index, cached eviction order) roughly break even against their
    # bookkeeping. Catch the optimized flavour *regressing* end to end.
    _check(_cell("minmin", 120, 8, mapping=False, candidate_limit=25), 3, 0.85)
