#!/usr/bin/env python
"""Benchmark-regression gate: reduced figure cells vs a checked-in baseline.

CI runs this twice per pipeline (see ``.github/workflows/ci.yml``):

* ``run`` executes a small fixed grid of experiment cells — reduced fig5b
  (batch-size sweep under disk pressure), reduced fig6b (scheduling
  overhead) and two fault-injection cells — and writes ``BENCH_<sha>.json``
  with each cell's simulated makespan, decision digest, per-task
  scheduling wall time and end-to-end wall time.
* ``compare`` diffs that file against ``benchmarks/BENCH_baseline.json``
  and exits non-zero if any cell's *simulated makespan* moved by more than
  the tolerance (default 15%, override with ``REPRO_BENCH_TOLERANCE``), or
  if any cell's decision digest changed at all.

The simulator is deterministic, so makespans should normally be *exactly*
baseline. The digest (a hash of every sub-batch mapping and task record)
makes that exact: any silent change of a decision or a simulated time
fails, while the tolerance still bounds how far an intentional model
change may move a makespan. Wall-clock numbers vary by machine and are
reported but never gate.

Refreshing the baseline after an intentional semantic change::

    PYTHONPATH=src python benchmarks/bench_regression.py run \
        --out benchmarks/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform as _platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import __version__  # noqa: E402
from repro.core.plan import BatchResult  # noqa: E402
from repro.experiments import ExperimentConfig  # noqa: E402
from repro.experiments.runner import run_config_result  # noqa: E402

BASELINE_PATH = Path(__file__).with_name("BENCH_baseline.json")
DEFAULT_TOLERANCE = 0.15

BENCH_SCHEMES = ("bipartition", "minmin", "jdp")


def bench_cells() -> list[tuple[str, ExperimentConfig]]:
    """The fixed benchmark grid: (cell id, config) pairs.

    Cell ids are stable keys in the JSON — extend the grid by appending,
    never by renaming (a rename silently drops the old cell from the gate
    until the baseline is refreshed).
    """
    cells: list[tuple[str, ExperimentConfig]] = []
    # Reduced fig5b: batch-size sweep under disk pressure (4 GB/node).
    for n in (50, 100):
        for scheme in BENCH_SCHEMES:
            cells.append(
                (
                    f"fig5b/n{n}/{scheme}",
                    ExperimentConfig(
                        experiment="bench-fig5b",
                        workload="image",
                        overlap="high",
                        num_tasks=n,
                        storage="xio",
                        disk_space_mb=4000.0,
                        scheme=scheme,
                        candidate_limit=25,
                    ),
                )
            )
    # Reduced fig6b: compute-scaling cells (scheduling overhead profile).
    for c in (2, 8):
        for scheme in BENCH_SCHEMES:
            cells.append(
                (
                    f"fig6b/c{c}/{scheme}",
                    ExperimentConfig(
                        experiment="bench-fig6b",
                        workload="image",
                        overlap="high",
                        num_tasks=60,
                        storage="xio",
                        num_compute=c,
                        num_storage=8,
                        scheme=scheme,
                        candidate_limit=25,
                    ),
                )
            )
    # Fault-injection cells: the recovery path (retries, failover, dynamic
    # rescheduling after a crash) is part of the gated surface too.
    for scheme in ("bipartition", "minmin"):
        cells.append(
            (
                f"faults/r0.2-crash/{scheme}",
                ExperimentConfig(
                    experiment="bench-faults",
                    workload="image",
                    overlap="high",
                    num_tasks=40,
                    storage="xio",
                    scheme=scheme,
                    faults={
                        "node_crashes": [{"node": 1, "time": 5.0}],
                        "transfer_failure_rate": 0.2,
                        "seed": 3,
                    },
                ),
            )
        )
    return cells


def decision_digest(result: BatchResult) -> str:
    """Hash of every sub-batch mapping and task record of one run.

    Floats enter by ``repr``, which round-trips exactly, so two runs agree
    only when every decision and every simulated time is identical.
    """
    h = hashlib.sha256()
    for sb in result.sub_batches:
        h.update(repr(sorted(sb.plan.mapping.items())).encode())
        for r in sb.execution.records:
            h.update(
                repr(
                    (r.task_id, r.node, r.transfers_done, r.exec_start, r.completion)
                ).encode()
            )
    return h.hexdigest()[:16]


def cmd_run(args: argparse.Namespace) -> int:
    results: dict[str, dict[str, float | str]] = {}
    for cell_id, cfg in bench_cells():
        t0 = time.perf_counter()
        result = run_config_result(cfg)
        wall = time.perf_counter() - t0
        results[cell_id] = {
            "makespan_s": result.makespan,
            "digest": decision_digest(result),
            "scheduling_ms_per_task": result.scheduling_ms_per_task,
            "wall_s": round(wall, 3),
        }
        print(
            f"{cell_id:28s} makespan {result.makespan:9.2f}s   "
            f"wall {wall:6.2f}s"
        )
    doc = {
        "kind": "repro-bench",
        "bench_version": 2,
        "repro_version": __version__,
        "python": _platform.python_version(),
        "cells": results,
    }
    out = Path(args.out)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\n{len(results)} cell(s) written to {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    tolerance = float(
        os.environ.get("REPRO_BENCH_TOLERANCE", str(args.tolerance))
    )
    with open(args.candidate) as fh:
        candidate = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    base_cells = baseline["cells"]
    cand_cells = candidate["cells"]

    failures: list[str] = []
    missing = sorted(set(base_cells) - set(cand_cells))
    if missing:
        failures.append(f"cells missing from candidate: {', '.join(missing)}")
    added = sorted(set(cand_cells) - set(base_cells))
    if added:
        print(
            f"note: {len(added)} new cell(s) not in the baseline "
            f"(refresh it to gate them): {', '.join(added)}"
        )

    print(
        f"{'cell':28s} {'baseline':>10s} {'candidate':>10s} {'delta':>8s}   "
        f"wall delta"
    )
    for cell_id in sorted(set(base_cells) & set(cand_cells)):
        base = base_cells[cell_id]
        cand = cand_cells[cell_id]
        old, new = base["makespan_s"], cand["makespan_s"]
        rel = (new - old) / old if old else 0.0
        wall_note = ""
        if base.get("wall_s") and cand.get("wall_s"):
            wrel = (cand["wall_s"] - base["wall_s"]) / base["wall_s"]
            wall_note = f"{wrel:+7.1%} (informational)"
        verdict = "" if abs(rel) <= tolerance else "  <-- FAIL"
        print(
            f"{cell_id:28s} {old:9.2f}s {new:9.2f}s {rel:+8.2%}   "
            f"{wall_note}{verdict}"
        )
        if abs(rel) > tolerance:
            failures.append(
                f"{cell_id}: makespan {old:.2f}s -> {new:.2f}s "
                f"({rel:+.1%}, tolerance {tolerance:.0%})"
            )
        if base.get("digest") != cand.get("digest"):
            print(f"{'':28s} decision digest {base.get('digest')} -> "
                  f"{cand.get('digest')}  <-- FAIL")
            failures.append(
                f"{cell_id}: decision digest {base.get('digest')} -> "
                f"{cand.get('digest')}"
            )

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s)")
        for f in failures:
            print(f"  {f}")
        print(
            "\nIf the change is intentional, refresh the baseline:\n"
            "  PYTHONPATH=src python benchmarks/bench_regression.py run "
            "--out benchmarks/BENCH_baseline.json"
        )
        return 1
    print(
        f"\nOK: all cells within {tolerance:.0%} of baseline, "
        "decision digests unchanged"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pr = sub.add_parser("run", help="run the benchmark grid and write JSON")
    pr.add_argument("--out", default="BENCH_current.json")
    pc = sub.add_parser("compare", help="compare a result file to the baseline")
    pc.add_argument("candidate", help="BENCH_<sha>.json produced by 'run'")
    pc.add_argument("--baseline", default=str(BASELINE_PATH))
    pc.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="max relative makespan deviation (REPRO_BENCH_TOLERANCE wins)",
    )
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
