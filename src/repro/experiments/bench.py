"""The bench harness: every cell runs the product code and its oracle.

The incremental MCT kernel (:mod:`repro.core.mct_kernel`) and the Section 6
runtime (:class:`repro.cluster.runtime.Runtime`) are *decision-identical*
rewrites of the original from-scratch scans, which survive as the oracles
of :mod:`repro.oracle` (this is the only product module allowed to import
it). The only observable difference allowed is wall-clock time. Every cell
of the grid therefore runs both flavours, hashes their decisions into a
digest and raises :class:`DecisionMismatch` if the digests differ, before
any timing is accepted.

A cell is one :class:`~repro.experiments.runner.ExperimentConfig`, run in
one of two ways:

* a *run* cell times a whole ``run_batch`` (mapping, the Section 6
  runtime, eviction, faults); its digest hashes every sub-batch mapping
  and task record, and its record carries the simulated ``makespan_s``;
* a *mapping* cell times one whole-batch ``next_subbatch`` call of an
  MCT-family scheme (the Fig. 6b scheduling-overhead axis); its digest
  hashes the mapping, and its record carries the kernel's ``kernel_stats``.

Every cell record has ``digest``, ``reference_s``, ``optimized_s`` and
``speedup``. Timing is the minimum of ``repeats`` interleaved runs per
flavour. The records form one ``repro-bench`` document
(:func:`bench_document`), which :func:`check_gates` compares against a
checked-in baseline (``benchmarks/BENCH_baseline.json``): digests must
match exactly, a run cell's makespan may drift by at most
:data:`~repro.obs.diff.DEFAULT_FAIL_OVER`, every baseline cell must be
present, and mapping cells must beat a speedup floor. ``repro bench`` is
the command; see ``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform as _platform
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .. import __version__
from ..cluster.state import ClusterState
from ..core.base import make_scheduler
from ..core.driver import run_batch
from ..obs.core import telemetry
from ..obs.diff import DEFAULT_FAIL_OVER
from ..oracle import make_reference_scheduler, reference_run_batch
from .runner import ExperimentConfig

__all__ = [
    "BenchCell",
    "DecisionMismatch",
    "append_trajectory",
    "bench_cells",
    "bench_document",
    "check_gates",
    "decision_digest",
    "run_cell",
]

#: ``bench_version`` of the ``repro-bench`` document written here.
BENCH_VERSION = 3


class DecisionMismatch(AssertionError):
    """The product code and its oracle decided differently on a cell."""


@dataclass(frozen=True)
class BenchCell:
    """One grid cell: a stable id, its config, and how it is timed."""

    cell: str
    config: ExperimentConfig
    #: Time one whole-batch ``next_subbatch`` instead of a ``run_batch``.
    mapping: bool = False


def _image_cell(
    cell: str, scheme: str, num_tasks: int, mapping: bool = False, **fields: Any
) -> BenchCell:
    experiment = cell.split("/", 1)[0]
    return BenchCell(
        cell,
        ExperimentConfig(
            experiment=f"bench-{experiment}",
            workload="image",
            overlap="high",
            num_tasks=num_tasks,
            storage="xio",
            scheme=scheme,
            **fields,
        ),
        mapping,
    )


def bench_cells(full: bool = False) -> list[BenchCell]:
    """The fixed grid; ``full`` adds the Fig. 6b headline's siblings.

    Cell ids are stable keys of the baseline: extend the grid by
    appending, never by renaming (a renamed cell fails the gate as missing
    until the baseline is refreshed).
    """
    cells: list[BenchCell] = []
    # Reduced fig5b: batch-size sweep under disk pressure (4 GB/node).
    for n in (50, 100):
        for scheme in ("bipartition", "minmin", "jdp"):
            cells.append(
                _image_cell(
                    f"fig5b/n{n}/{scheme}", scheme, n,
                    disk_space_mb=4000.0, candidate_limit=25,
                )
            )
    # Reduced fig6b: compute scaling on 8 storage nodes.
    for c in (2, 8):
        for scheme in ("bipartition", "minmin", "jdp"):
            cells.append(
                _image_cell(
                    f"fig6b/c{c}/{scheme}", scheme, 60,
                    num_compute=c, num_storage=8, candidate_limit=25,
                )
            )
    # The recovery path (retries, failover, rescheduling after a crash).
    for scheme in ("bipartition", "minmin"):
        cells.append(
            _image_cell(
                f"faults/r0.2-crash/{scheme}", scheme, 40,
                faults={
                    "node_crashes": [{"node": 1, "time": 5.0}],
                    "transfer_failure_rate": 0.2,
                    "seed": 3,
                },
            )
        )
    # Mapping cells are MinMin-only on purpose: the ``--min-speedup`` floor
    # applies to every mapping cell of a run, and only MinMin, whose
    # selection is a single flat argmin, clears 2x at these sizes.
    # MaxMin/Sufferage spend most of a round in their own per-row selection
    # scans (their tie-breaking semantics, left untouched by the kernel);
    # their smaller speedups are tracked in the full grid.
    for n in (600, 1000):
        cells.append(
            _image_cell(
                f"mapping/minmin/n{n}c32", "minmin", n, mapping=True,
                num_compute=32, num_storage=8,
            )
        )
    # A whole run at a size where mapping is a sliver of the wall clock.
    cells.append(
        _image_cell(
            "e2e/minmin/n120c8", "minmin", 120,
            num_compute=8, num_storage=8, candidate_limit=25,
        )
    )
    if full:
        for scheme, n, c in (
            ("maxmin", 1000, 32), ("sufferage", 1000, 32), ("minmin", 400, 16)
        ):
            cells.append(
                _image_cell(
                    f"mapping/{scheme}/n{n}c{c}", scheme, n, mapping=True,
                    num_compute=c, num_storage=8,
                )
            )
    return cells


def decision_digest(
    steps: Iterable[tuple[Mapping[str, int], Iterable[Any]]],
) -> str:
    """Hash of (mapping, task records) steps, in order.

    A run hashes one step per sub-batch; a mapping cell hashes its one
    mapping with no records. Floats enter by ``repr``, which round-trips
    exactly, so two runs agree only when every decision and every
    simulated time is identical.
    """
    h = hashlib.sha256()
    for mapping, records in steps:
        h.update(repr(sorted(mapping.items())).encode())
        for r in records:
            h.update(
                repr(
                    (r.task_id, r.node, r.transfers_done, r.exec_start,
                     r.completion)
                ).encode()
            )
    return h.hexdigest()[:16]


def _run_once(cfg, batch, platform, reference: bool):
    """Time one ``run_batch``: (seconds, digest, record fields)."""
    run = reference_run_batch if reference else run_batch
    t0 = time.perf_counter()
    result = run(batch, platform, cfg.scheme, **cfg.run_kwargs())
    seconds = time.perf_counter() - t0
    digest = decision_digest(
        (sb.plan.mapping, sb.execution.records) for sb in result.sub_batches
    )
    return seconds, digest, {"makespan_s": result.makespan}


def _map_once(cfg, batch, platform, reference: bool):
    """Time one whole-batch ``next_subbatch``: (seconds, digest, fields)."""
    make = make_reference_scheduler if reference else make_scheduler
    sched = make(cfg.scheme, **cfg.run_kwargs()["scheduler_kwargs"])
    state = ClusterState.initial(platform, batch)
    task_ids = [t.task_id for t in batch.tasks]
    t0 = time.perf_counter()
    plan = sched.next_subbatch(batch, task_ids, platform, state)
    seconds = time.perf_counter() - t0
    stats = getattr(sched, "kernel_stats", None)
    return (
        seconds,
        decision_digest([(plan.mapping, ())]),
        {"kernel_stats": stats.to_dict() if stats is not None else None},
    )


def run_cell(cell: BenchCell, repeats: int = 5) -> dict[str, Any]:
    """Run one cell under both flavours; return its record.

    Flavours are interleaved (oracle, product, oracle, ...) so slow CPU
    drift hits both minimum-of-``repeats`` estimates alike. Telemetry is
    off while timing: the harness times the code, not its instrumentation.

    Raises :class:`DecisionMismatch` when the product's digest differs
    from the oracle's: a speedup over a wrong answer is not a speedup.
    """
    cfg = cell.config
    batch, platform = cfg.batch(), cfg.platform()
    once = _map_once if cell.mapping else _run_once
    best = {True: float("inf"), False: float("inf")}
    digests: dict[bool, str] = {}
    fields: dict[str, Any] = {}
    was_enabled = telemetry.enabled
    telemetry.disable()
    try:
        for _ in range(max(1, repeats)):
            for reference in (True, False):
                seconds, digests[reference], out = once(
                    cfg, batch, platform, reference
                )
                best[reference] = min(best[reference], seconds)
                if not reference:
                    fields = out
    finally:
        if was_enabled:
            telemetry.enable()
    if digests[True] != digests[False]:
        raise DecisionMismatch(
            f"{cell.cell}: product digest {digests[False]} != oracle digest "
            f"{digests[True]}"
        )
    ref_s, opt_s = best[True], best[False]
    return {
        "digest": digests[False],
        "reference_s": round(ref_s, 6),
        "optimized_s": round(opt_s, 6),
        "speedup": round(ref_s / opt_s, 3) if opt_s else 0.0,
        **fields,
    }


def bench_document(
    cells: Mapping[str, Mapping[str, Any]], repeats: int
) -> dict[str, Any]:
    """The ``repro-bench`` document: versions plus one record per cell."""
    return {
        "kind": "repro-bench",
        "bench_version": BENCH_VERSION,
        "repro_version": __version__,
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "repeats": repeats,
        "cells": dict(cells),
    }


def check_gates(
    cells: Mapping[str, Mapping[str, Any]],
    baseline: Mapping[str, Mapping[str, Any]] | None = None,
    min_speedup: float | None = None,
) -> tuple[list[str], list[str]]:
    """Every gate in one pass; returns (failures, notes).

    Against ``baseline`` (the ``cells`` of a ``repro-bench`` document): a
    cell missing from the run fails, a changed digest fails, and a run
    cell's makespan may drift by at most ``DEFAULT_FAIL_OVER`` of the
    baseline's. A cell new to the baseline is only a note. With
    ``min_speedup``, every mapping cell (one with ``kernel_stats``) must
    beat that factor.
    """
    failures: list[str] = []
    notes: list[str] = []
    if baseline is not None:
        missing = sorted(set(baseline) - set(cells))
        if missing:
            failures.append(f"cells missing from the run: {', '.join(missing)}")
        added = sorted(set(cells) - set(baseline))
        if added:
            notes.append(
                f"{len(added)} cell(s) not in the baseline (refresh it to "
                f"gate them): {', '.join(added)}"
            )
        for cell_id in sorted(set(baseline) & set(cells)):
            base, cand = baseline[cell_id], cells[cell_id]
            if base.get("digest") != cand.get("digest"):
                failures.append(
                    f"{cell_id}: decision digest {base.get('digest')} -> "
                    f"{cand.get('digest')}"
                )
            if "makespan_s" in base:
                old, new = base["makespan_s"], cand.get("makespan_s", 0.0)
                rel = (new - old) / old if old else 0.0
                if abs(rel) > DEFAULT_FAIL_OVER:
                    failures.append(
                        f"{cell_id}: makespan {old:.2f}s -> {new:.2f}s "
                        f"({rel:+.1%}, bound {DEFAULT_FAIL_OVER:.0%})"
                    )
    if min_speedup is not None:
        for cell_id, rec in sorted(cells.items()):
            if "kernel_stats" in rec and rec["speedup"] < min_speedup:
                failures.append(
                    f"{cell_id}: speedup {rec['speedup']:.2f}x < "
                    f"{min_speedup:.2f}x"
                )
    return failures, notes


def _current_sha() -> str:
    """Short commit id for trajectory points (env > git > ``unknown``).

    CI exports ``GITHUB_SHA``; local runs fall back to ``git rev-parse``.
    Benchmarks are wall-clock territory, so a subprocess here is fine
    (this module is already outside the simulated-time core).
    """
    env = os.environ.get("GITHUB_SHA", "").strip()
    if env:
        return env[:8]
    try:
        import subprocess

        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def append_trajectory(
    cells: Mapping[str, Mapping[str, Any]],
    path: str | Path,
    sha: str | None = None,
) -> Path:
    """Append one ``repro-bench-point`` line per cell to a JSONL trajectory.

    A point is the cell's record plus ``kind``, ``sha`` and ``cell``; the
    HTML report renders each cell's ``speedup`` over the points as a
    sparkline. Every point is decision-checked by construction.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sha = _current_sha() if sha is None else sha
    with open(path, "a") as fh:
        for cell_id, rec in cells.items():
            point = {**rec, "kind": "repro-bench-point", "sha": sha, "cell": cell_id}
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    return path
