"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``schedulers``
    List the registered scheduling schemes.
``workload``
    Generate a workload and print its sharing statistics.
``run``
    Schedule one batch under one or more schemes and print the comparison
    (optionally dumping a Gantt chart or Chrome trace of the last run).
``figure``
    Regenerate one of the paper's figures (fig3a, fig3b, fig4a, fig4b,
    fig5a, fig5b, fig6a, fig6b) at a chosen scale and print its table.
``metrics``
    Run one experiment cell with telemetry on and emit its *run manifest*
    (config digest, versions, derived metrics, telemetry snapshot and
    decision-log summary — see ``docs/observability.md``), validated
    against the checked-in JSON Schema.
``profile``
    Run one cell with span events retained and print where the wall-clock
    time went (top span paths); optionally write a merged Chrome trace
    (simulated Gantt chart + wall-clock telemetry spans) for Perfetto.
``lint``
    Run every repo-specific static check (RPR001–RPR009: the AST lint
    rules, the dimensional-analysis checker and the parallel-purity lint)
    over source paths; ``--select`` runs some codes alone.
``audit``
    Execute a batch with the audit trail enabled and verify the resulting
    Gantt trace against the execution invariants E1–E7
    (:mod:`repro.analysis.audit`, ``docs/invariants.md``).
``bench``
    Run the fixed bench grid (reduced figure cells, fault cells, Fig. 6b
    mapping cells), each under the product code and its oracle, asserting
    identical decisions before any timing counts; write one
    ``repro-bench`` document and gate it against a baseline
    (``docs/performance.md``). The CI bench job runs this.
``diff``
    Attribute the makespan delta between two run manifests to phase
    (schedule/stage/execute), node and metric with ranked tables
    (:mod:`repro.obs.diff`); exits non-zero when the drift exceeds
    ``--fail-over`` — the attribution-aware version of the bench gate.
``report``
    Render a run manifest — optionally with a baseline diff and the bench
    speedup trajectory — as one self-contained offline HTML file (inline
    SVG sparklines and node-activity strips, no external resources).
``chaos``
    Fault-injection sweep (``docs/faults.md``): makespan-degradation curve
    over transfer-failure rates x schemes, each cell optionally audited
    against E1–E7. The nightly chaos CI job runs this at reduced scale.
``stream``
    Run a streaming multi-batch session (``docs/online.md``) from a stream
    spec JSON: jobs arrive over simulated time, an admission policy forms
    dispatch windows, and warm-cache carryover is compared against the
    cold-start baseline; emits the manifest's ``online`` block.

``run`` and ``audit`` accept ``--faults SPEC.json`` to inject faults from
a :class:`repro.faults.FaultSpec` JSON file (see ``examples/faults/``).

Examples
--------
::

    python -m repro run --workload image --overlap high --tasks 60 \
        --schemes bipartition minmin --gantt
    python -m repro run --tasks 40 --faults examples/faults/crash-and-flaky.json
    python -m repro figure fig4b --tasks 40 --csv fig4b.csv
    python -m repro figure fig5b --workers 4 --json fig5b.json
    python -m repro metrics fig5b --tasks 24 --out manifest.json
    python -m repro profile fig5b --tasks 24 --trace profile.trace.json
    python -m repro lint src/repro --format github
    python -m repro lint src/repro --select RPR006 RPR007 RPR008
    python -m repro bench --baseline benchmarks/BENCH_baseline.json
    python -m repro audit --workload sat --tasks 30 --schemes minmin jdp
    python -m repro chaos --tasks 30 --rates 0 0.2 0.4 --json degradation.json
    python -m repro stream examples/streams/poisson-osumed.json --html stream.html
"""

from __future__ import annotations

import argparse
import math
import sys

from . import available_schedulers, osc_osumed, osc_xio, run_batch
from .batch import Batch, overlap_fraction, pairwise_overlap
from .cluster import Runtime, render_ascii, to_chrome_trace
from .experiments import (
    ExperimentConfig,
    fig3_image_overlap,
    fig4_sat_overlap,
    fig5a_replication_benefit,
    fig5b_batch_size,
    fig6a_compute_scaling,
    fig6b_scheduling_overhead,
)
from .obs.diff import DEFAULT_FAIL_OVER
from .parallel import DEFAULT_CACHE_DIR, ResultCache, map_configs
from .workloads import available_workloads, make_batch

__all__ = ["main", "build_parser"]


def _platform(args):
    maker = osc_xio if args.storage == "xio" else osc_osumed
    disk = math.inf if args.disk_gb is None else args.disk_gb * 1000.0
    return maker(
        num_compute=args.compute,
        num_storage=args.storage_nodes,
        disk_space_mb=disk,
    )


def _batch(args, num_storage: int) -> Batch:
    return make_batch(
        args.workload, args.tasks, args.overlap, num_storage, args.seed
    )


def _add_parallel_args(p: argparse.ArgumentParser, cache_default_on: bool):
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan experiment cells out across N processes (1 = serial)",
    )
    p.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result-cache directory (default {DEFAULT_CACHE_DIR})",
    )
    if cache_default_on:
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="always re-simulate; don't read or write the result cache",
        )
    else:
        p.add_argument(
            "--cache",
            action="store_true",
            help="replay finished cells from the on-disk result cache",
        )
    p.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete every cached result before running",
    )


def _cell_cache(args, enabled: bool):
    """Build the ResultCache requested by the CLI flags (False = off)."""
    cache = ResultCache(args.cache_dir)
    if args.clear_cache:
        removed = cache.clear()
        print(f"cache cleared: {removed} entr{'y' if removed == 1 else 'ies'} removed")
    return cache if enabled else False


def _load_faults(path: str) -> dict:
    """Load and eagerly validate a fault-spec JSON file."""
    import json as _json

    from .faults import FaultSpec

    try:
        with open(path) as fh:
            spec = _json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read fault spec {path!r}: {exc}") from None
    try:
        FaultSpec.from_dict(spec)  # fail before any simulation runs
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid fault spec {path!r}: {exc}") from None
    assert isinstance(spec, dict)
    return spec


def _add_workload_args(p: argparse.ArgumentParser):
    p.add_argument(
        "--workload", choices=tuple(available_workloads()), default="image"
    )
    p.add_argument("--overlap", default="high")
    p.add_argument("--tasks", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--storage", choices=("xio", "osumed"), default="xio")
    p.add_argument("--compute", type=int, default=4)
    p.add_argument("--storage-nodes", type=int, default=4)
    p.add_argument("--disk-gb", type=float, default=None, help="per-node disk (GB); unlimited if omitted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Batch-shared I/O scheduling (HPDC 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schedulers", help="list registered schemes")

    pw = sub.add_parser("workload", help="generate and describe a workload")
    _add_workload_args(pw)
    pw.add_argument("--save", metavar="FILE", help="also write the batch as JSON")

    pr = sub.add_parser("run", help="run one batch under one or more schemes")
    _add_workload_args(pr)
    pr.add_argument(
        "--load", metavar="FILE", help="run a saved batch instead of generating one"
    )
    pr.add_argument("--schemes", nargs="+", default=["bipartition", "minmin"])
    pr.add_argument("--no-replication", action="store_true")
    pr.add_argument(
        "--overlap-io",
        action="store_true",
        help="relax the no-staging-during-execution assumption",
    )
    pr.add_argument("--ip-time-limit", type=float, default=30.0)
    pr.add_argument("--candidate-limit", type=int, default=None)
    pr.add_argument(
        "--faults",
        metavar="SPEC.json",
        help="inject faults from a FaultSpec JSON file (docs/faults.md)",
    )
    pr.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart of the last scheme")
    pr.add_argument("--trace", metavar="FILE", help="write a Chrome trace JSON of the last scheme")
    pr.add_argument(
        "--json",
        metavar="FILE",
        help="write records, result-cache counters and telemetry as JSON",
    )
    _add_parallel_args(pr, cache_default_on=False)

    pf = sub.add_parser("figure", help="regenerate a paper figure")
    pf.add_argument(
        "name",
        choices=(
            "fig3a", "fig3b", "fig4a", "fig4b",
            "fig5a", "fig5b", "fig6a", "fig6b",
        ),
    )
    pf.add_argument("--tasks", type=int, default=40, help="tasks for fig3/4/5a")
    pf.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="batch sizes for fig5b / node counts for fig6a+fig6b",
    )
    pf.add_argument("--ip-time-limit", type=float, default=15.0)
    pf.add_argument("--csv", metavar="FILE", help="also write the table as CSV")
    pf.add_argument("--json", metavar="FILE", help="also write the records as JSON")
    _add_parallel_args(pf, cache_default_on=True)

    def _add_obs_args(p: argparse.ArgumentParser):
        p.add_argument(
            "config",
            help="preset name (fig3a..fig6b) or path to an ExperimentConfig "
            "JSON file",
        )
        p.add_argument("--tasks", type=int, default=None, help="override batch size")
        p.add_argument("--scheme", default=None, help="override the scheme")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", metavar="FILE", help="write the run manifest JSON")
        p.add_argument(
            "--timeseries",
            action="store_true",
            help="attach simulated-time series probes (adds the manifest's "
            "timeseries block; see docs/observability.md)",
        )
        p.add_argument(
            "--faults",
            metavar="SPEC.json",
            help="inject faults from a FaultSpec JSON file during the run",
        )

    pm = sub.add_parser(
        "metrics",
        help="run one cell with telemetry and emit its validated run manifest",
    )
    _add_obs_args(pm)
    pm.add_argument(
        "--ndjson", metavar="FILE", help="also write the manifest as NDJSON lines"
    )

    pp = sub.add_parser(
        "profile",
        help="run one cell with span events retained; print top wall-clock spans",
    )
    _add_obs_args(pp)
    pp.add_argument(
        "--trace",
        metavar="FILE",
        help="write a merged Chrome trace (simulated Gantt + telemetry spans)",
    )
    pp.add_argument("--top", type=int, default=10, help="span paths to print")

    pl = sub.add_parser(
        "lint", help="run every repo-specific static check (RPR001-RPR009)"
    )
    pl.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    pl.add_argument(
        "--select", nargs="+", metavar="RPRnnn", default=None,
        help="only run the given rule codes",
    )
    pl.add_argument(
        "--list-rules", action="store_true", help="print the rules and exit"
    )
    pl.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format (github = ::error workflow commands)",
    )

    pa = sub.add_parser(
        "audit", help="execute a batch and verify its trace invariants (E1-E7)"
    )
    _add_workload_args(pa)
    pa.add_argument("--schemes", nargs="+", default=["bipartition", "minmin"])
    pa.add_argument("--no-replication", action="store_true")
    pa.add_argument("--candidate-limit", type=int, default=None)
    pa.add_argument("--ip-time-limit", type=float, default=30.0)
    pa.add_argument(
        "--faults",
        metavar="SPEC.json",
        help="inject faults from a FaultSpec JSON file; the audit then also "
        "exercises the fault invariants E6/E7",
    )

    pb = sub.add_parser(
        "bench",
        help="time every bench cell against its oracle and apply the gates "
        "(decision-checked; see docs/performance.md)",
    )
    pb.add_argument(
        "--full",
        action="store_true",
        help="add the Fig. 6b headline's MaxMin/Sufferage siblings and a "
        "MinMin n=400 mapping cell",
    )
    pb.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per flavour; min is reported (default 5)",
    )
    pb.add_argument(
        "--out", metavar="FILE",
        help="write the repro-bench document (e.g. BENCH_<sha>.json)",
    )
    pb.add_argument(
        "--baseline", metavar="FILE",
        help="gate against this repro-bench document: identical digests, "
        f"makespan drift at most {DEFAULT_FAIL_OVER} of the baseline's, no "
        "baseline cell missing",
    )
    pb.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero unless every mapping cell beats this factor",
    )
    pb.add_argument(
        "--trajectory",
        metavar="FILE",
        default=None,
        help="append one repro-bench-point line per cell (sha, cell and its "
        "record) to this JSONL trajectory",
    )

    pd = sub.add_parser(
        "diff",
        help="attribute the makespan delta between two run manifests "
        "(phase x node x metric; non-zero exit on drift over --fail-over)",
    )
    pd.add_argument(
        "a", metavar="A.json",
        help="base run manifest, or BENCH.json#cell for a bench-derived one",
    )
    pd.add_argument(
        "b", metavar="B.json",
        help="candidate run manifest (same forms as A)",
    )
    pd.add_argument(
        "--fail-over", type=float, default=DEFAULT_FAIL_OVER,
        help="exit non-zero when |makespan delta| exceeds this fraction of "
        f"A's makespan (default {DEFAULT_FAIL_OVER}, the bench gate's bound)",
    )
    pd.add_argument("--top", type=int, default=8, help="rows per ranked table")
    pd.add_argument("--json", metavar="FILE", help="also write the diff as JSON")

    pr = sub.add_parser(
        "report",
        help="render a run manifest (plus optional baseline diff) as one "
        "self-contained offline HTML file",
    )
    pr.add_argument(
        "run", metavar="RUN.json",
        help="run manifest to render, or BENCH.json#cell",
    )
    pr.add_argument(
        "baseline", metavar="BASELINE.json", nargs="?", default=None,
        help="optional baseline manifest; adds the ranked diff view",
    )
    pr.add_argument(
        "--out", metavar="FILE", default="report.html",
        help="output HTML path (default report.html)",
    )
    pr.add_argument(
        "--trajectory",
        metavar="FILE",
        default=None,
        help="bench trajectory JSONL to render as sparklines "
        "(default: benchmarks/BENCH_trajectory.jsonl when present)",
    )
    pr.add_argument("--title", default=None, help="override the page title")

    pc = sub.add_parser(
        "chaos",
        help="fault-injection sweep: makespan degradation curve, audited cells",
    )
    pc.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.0, 0.1, 0.2, 0.4],
        help="transient transfer-failure rates to sweep",
    )
    pc.add_argument("--schemes", nargs="+", default=None,
                    help="schemes to sweep (default: bipartition minmin jdp)")
    pc.add_argument(
        "--workload", choices=tuple(available_workloads()), default="image"
    )
    pc.add_argument("--overlap", default="high")
    pc.add_argument("--tasks", type=int, default=30)
    pc.add_argument("--storage", choices=("xio", "osumed"), default="xio")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--fault-seed", type=int, default=0)
    pc.add_argument(
        "--crash-node",
        type=int,
        default=None,
        help="also crash this compute node in every non-zero-rate cell",
    )
    pc.add_argument("--crash-time", type=float, default=5.0)
    pc.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the per-cell E1-E7 invariant verification",
    )
    pc.add_argument("--csv", metavar="FILE", help="also write the table as CSV")
    pc.add_argument("--json", metavar="FILE", help="also write the records as JSON")
    _add_parallel_args(pc, cache_default_on=False)

    pstream = sub.add_parser(
        "stream",
        help="run a streaming multi-batch session from a stream spec JSON "
        "(warm-cache carryover vs cold-start; see docs/online.md)",
    )
    pstream.add_argument(
        "spec", metavar="SPEC.json",
        help="stream spec JSON (see examples/streams/ and docs/online.md)",
    )
    pstream.add_argument(
        "--mode", choices=("warm", "cold", "both"), default="both",
        help="carryover mode(s) to run (default: both, printing the delta)",
    )
    pstream.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the run manifest JSON ('-MODE' is inserted before the "
        "extension when more than one mode runs)",
    )
    pstream.add_argument(
        "--ndjson", metavar="FILE", default=None,
        help="also write the manifest as NDJSON (same mode suffix rule)",
    )
    pstream.add_argument(
        "--html", metavar="FILE", default=None,
        help="also render the manifest as a self-contained HTML report",
    )
    pstream.add_argument(
        "--json", metavar="FILE", default=None,
        help="write one JSON document with the queueing summary per mode",
    )
    return parser


def _cmd_schedulers(args) -> int:
    for name in available_schedulers():
        print(name)
    return 0


def _cmd_workload(args) -> int:
    platform = _platform(args)
    batch = _batch(args, platform.num_storage)
    if args.save:
        from .io import save_batch

        save_batch(batch, args.save)
        print(f"batch written to {args.save}")
    print(batch)
    print(f"distinct data:     {batch.distinct_file_mb / 1000:.1f} GB")
    print(f"total accesses:    {batch.total_access_mb / 1000:.1f} GB")
    print(f"sharing fraction:  {overlap_fraction(batch):.1%}")
    print(f"pairwise overlap:  {pairwise_overlap(batch, sample_pairs=2000):.1%}")
    print(f"total compute:     {batch.total_compute_time:.1f} s")
    print(f"max task footprint {batch.max_task_footprint_mb():.0f} MB")
    return 0


def _print_run_header():
    print(
        f"{'scheme':14s} {'makespan':>10s} {'sched ms/task':>14s} "
        f"{'remote MB':>10s} {'replica MB':>11s} {'evict':>6s} {'sub':>4s}"
    )


def _cmd_run_parallel(args) -> int:
    """Fan the requested schemes out through ``repro.parallel``."""
    platform = _platform(args)
    batch = _batch(args, platform.num_storage)
    print(f"{batch} on {platform.name} ({platform.num_compute} compute nodes)\n")
    _print_run_header()
    cache = _cell_cache(args, enabled=args.cache)
    disk = math.inf if args.disk_gb is None else args.disk_gb * 1000.0
    faults = _load_faults(args.faults) if args.faults else None
    configs = []
    for scheme in args.schemes:
        kwargs = {}
        if scheme == "ip":
            kwargs = {"time_limit": args.ip_time_limit, "mip_rel_gap": 0.05}
        configs.append(
            ExperimentConfig(
                experiment="cli-run",
                workload=args.workload,
                overlap=args.overlap,
                num_tasks=args.tasks,
                storage=args.storage,
                num_compute=args.compute,
                num_storage=args.storage_nodes,
                disk_space_mb=disk,
                scheme=scheme,
                seed=args.seed,
                allow_replication=not args.no_replication,
                candidate_limit=args.candidate_limit,
                scheduler_kwargs=kwargs,
                faults=faults,
            )
        )
    # With --json, record result-cache hit/miss counters (and anything else
    # the parent process touches) through the telemetry registry.
    from .obs.core import telemetry as tele

    if args.json:
        tele.reset()
        tele.enable()
    try:
        records = map_configs(configs, workers=args.workers, cache=cache)
    finally:
        snapshot = tele.snapshot() if args.json else None
        if args.json:
            tele.disable()
            tele.reset()
    for scheme, rec in zip(args.schemes, records, strict=True):
        print(
            f"{scheme:14s} {rec.makespan_s:9.1f}s {rec.scheduling_ms_per_task:14.2f} "
            f"{rec.remote_volume_mb:10.0f} "
            f"{rec.replication_volume_mb:11.0f} "
            f"{rec.evictions:6d} {rec.sub_batches:4d}"
        )
    if args.cache:
        print(f"\ncache: {cache.stats.summary()} in {cache.root}")
    if args.json:
        import json as _json
        from dataclasses import asdict

        doc = {
            "records": [asdict(r) for r in records],
            "cache": (
                {
                    "hits": cache.stats.hits,
                    "misses": cache.stats.misses,
                    "stores": cache.stats.stores,
                }
                if args.cache
                else None
            ),
            "telemetry": snapshot,
        }
        with open(args.json, "w") as fh:
            _json.dump(doc, fh, indent=2)
        print(f"JSON written to {args.json}")
    return 0


def _cmd_run(args) -> int:
    # The parallel/cached path covers the common cell-shaped invocations;
    # trace, Gantt, saved batches, synthetic workloads and I/O-overlap runs
    # need the in-process runtime below.
    parallelisable = not (
        args.load
        or args.gantt
        or args.trace
        or args.overlap_io
        or args.workload == "synthetic"
    )
    if parallelisable and (
        args.workers > 1 or args.cache or args.clear_cache or args.json
    ):
        return _cmd_run_parallel(args)
    if not parallelisable and (args.workers > 1 or args.cache or args.json):
        print(
            "note: --workers/--cache/--json need generated sat/image workloads "
            "without --load/--gantt/--trace/--overlap-io; running serially\n"
        )
    platform = _platform(args)
    if args.load:
        from .io import load_batch

        batch = load_batch(args.load)
        bad = [
            f.file_id
            for f in batch.files.values()
            if f.storage_node >= platform.num_storage
        ]
        if bad:
            raise SystemExit(
                f"batch references storage node(s) beyond --storage-nodes="
                f"{platform.num_storage}: e.g. {bad[0]}"
            )
    else:
        batch = _batch(args, platform.num_storage)
    print(f"{batch} on {platform.name} ({platform.num_compute} compute nodes)\n")
    _print_run_header()
    faults = _load_faults(args.faults) if args.faults else None
    last_runtime: Runtime | None = None
    fault_lines: list[str] = []
    for scheme in args.schemes:
        kwargs = {}
        if scheme == "ip":
            kwargs = {"time_limit": args.ip_time_limit, "mip_rel_gap": 0.05}
        # Telemetry is the one way run_batch hands its runtime back; it
        # observes only, so the result row is the same without it.
        result = run_batch(
            batch,
            platform,
            scheme,
            allow_replication=not args.no_replication,
            candidate_limit=args.candidate_limit,
            scheduler_kwargs=kwargs,
            overlap_io_compute=args.overlap_io,
            faults=faults,
            telemetry=bool(args.gantt or args.trace),
        )
        if args.gantt or args.trace:
            last_runtime = result.runtime
        fs = result.fault_stats
        if fs is not None:
            fault_lines.append(
                f"{scheme:14s} {fs.node_crashes} crash(es), "
                f"{fs.transfer_failures} failed transfer(s) / "
                f"{fs.retries} retried / {fs.failovers} re-sourced, "
                f"{fs.tasks_rescheduled} task(s) rescheduled, "
                f"{fs.files_lost} file(s) lost ({fs.lost_mb:.0f} MB)"
            )
        stats = result.stats
        print(
            f"{scheme:14s} {result.makespan:9.1f}s "
            f"{result.scheduling_ms_per_task:14.2f} "
            f"{stats.remote_volume_mb:10.0f} "
            f"{stats.replication_volume_mb:11.0f} "
            f"{stats.evictions:6d} {result.num_sub_batches:4d}"
        )

    if fault_lines:
        print("\nfault injection:")
        for line in fault_lines:
            print(line)
    if last_runtime is not None and args.gantt:
        print("\n" + render_ascii(last_runtime))
    if last_runtime is not None and args.trace:
        with open(args.trace, "w") as fh:
            fh.write(to_chrome_trace(last_runtime))
        print(f"\nChrome trace written to {args.trace}")
    return 0


def _write_table(table, args) -> None:
    """Write a figure/chaos table to ``--csv`` and ``--json`` when given."""
    if args.csv:
        columns = (
            "experiment", "workload", "scheme", "x", "makespan_s",
            "scheduling_ms_per_task", "remote_transfers", "remote_volume_mb",
            "replications", "replication_volume_mb", "evictions", "sub_batches",
        )
        with open(args.csv, "w") as fh:
            fh.write(table.to_csv(columns) + "\n")
        print(f"CSV written to {args.csv}")
    if args.json:
        import json as _json
        from dataclasses import asdict

        with open(args.json, "w") as fh:
            _json.dump(
                {"title": table.title, "records": [asdict(r) for r in table.records]},
                fh,
                indent=2,
            )
        print(f"JSON written to {args.json}")


def _cmd_figure(args) -> int:
    name = args.name
    cache = _cell_cache(args, enabled=not args.no_cache)
    fan = dict(workers=args.workers, cache=cache)
    if name in ("fig3a", "fig3b"):
        table = fig3_image_overlap(
            storage="osumed" if name == "fig3a" else "xio",
            num_tasks=args.tasks,
            ip_time_limit=args.ip_time_limit,
            **fan,
        )
    elif name in ("fig4a", "fig4b"):
        table = fig4_sat_overlap(
            storage="osumed" if name == "fig4a" else "xio",
            num_tasks=args.tasks,
            ip_time_limit=args.ip_time_limit,
            **fan,
        )
    elif name == "fig5a":
        table = fig5a_replication_benefit(num_tasks=args.tasks, **fan)
    elif name == "fig5b":
        table = fig5b_batch_size(
            batch_sizes=tuple(args.sizes or (100, 200, 400)),
            disk_space_mb=4000.0,
            **fan,
        )
    elif name == "fig6a":
        table = fig6a_compute_scaling(
            node_counts=tuple(args.sizes or (2, 8, 32)), num_tasks=200, **fan
        )
    else:
        table = fig6b_scheduling_overhead(
            node_counts=tuple(args.sizes or (2, 8, 32)), num_tasks=200,
            ip_task_cap=16, ip_time_limit=args.ip_time_limit, **fan,
        )
    print(table.render())
    if not args.no_cache:
        print(f"\ncache: {cache.stats.summary()} in {cache.root}")
    _write_table(table, args)
    return 0


# One representative cell per figure, at CI-sized defaults. ``repro
# metrics``/``repro profile`` accept these names or a JSON config file.
_OBS_PRESETS: dict[str, dict] = {
    "fig3a": dict(workload="image", overlap="high", storage="osumed"),
    "fig3b": dict(workload="image", overlap="high", storage="xio"),
    "fig4a": dict(workload="sat", overlap="high", storage="osumed"),
    "fig4b": dict(workload="sat", overlap="high", storage="xio"),
    "fig5a": dict(
        workload="image", overlap="high", storage="osumed", num_compute=8
    ),
    "fig5b": dict(
        workload="image",
        overlap="high",
        storage="xio",
        disk_space_mb=4000.0,
        candidate_limit=25,
    ),
    "fig6a": dict(
        workload="image", overlap="high", storage="xio",
        num_compute=8, num_storage=8, candidate_limit=25,
    ),
    "fig6b": dict(
        workload="image", overlap="high", storage="xio",
        num_compute=8, num_storage=8, candidate_limit=25,
    ),
}


def _obs_config(args) -> ExperimentConfig:
    """Resolve the metrics/profile positional into an ExperimentConfig."""
    name = args.config
    if name in _OBS_PRESETS:
        fields = dict(_OBS_PRESETS[name])
        fields.setdefault("experiment", name)
        fields.setdefault("num_tasks", 24)
        fields.setdefault("scheme", "bipartition")
    else:
        import json as _json

        try:
            with open(name) as fh:
                fields = _json.load(fh)
        except OSError as exc:
            raise SystemExit(
                f"unknown preset {name!r} (available: "
                f"{', '.join(sorted(_OBS_PRESETS))}) and not a readable "
                f"config file: {exc}"
            ) from None
        fields.setdefault("experiment", name)
    if args.tasks is not None:
        fields["num_tasks"] = args.tasks
    if args.scheme is not None:
        fields["scheme"] = args.scheme
    if args.seed is not None:
        fields["seed"] = args.seed
    if getattr(args, "timeseries", False):
        fields["timeseries"] = True
    if getattr(args, "faults", None):
        import json as _json

        with open(args.faults) as fh:
            fields["faults"] = _json.load(fh)
    fields["telemetry"] = True
    if fields.get("disk_space_mb") in ("inf", None):
        fields["disk_space_mb"] = math.inf
    return ExperimentConfig(**fields)


def _manifest_for(cfg: ExperimentConfig, result) -> dict:
    from dataclasses import asdict

    from .obs import build_manifest
    from .parallel import config_key

    return build_manifest(
        result, config=asdict(cfg), config_digest=config_key(cfg)
    )


def _print_manifest_summary(manifest: dict):
    res = manifest["result"]
    print(
        f"{manifest['scheme']}: makespan {res['makespan_s']:.1f}s, "
        f"{res['tasks']} tasks in {res['sub_batches']} sub-batch(es)"
    )
    metrics = manifest.get("metrics") or {}
    for key in (
        "mean_exec_utilization",
        "disk_hit_ratio",
        "file_reuse_factor",
        "replicated_fraction",
        "evictions",
        "conservation_residual_mb",
    ):
        if key in metrics:
            value = metrics[key]
            print(f"  {key:26s} {value:.4f}" if isinstance(value, float)
                  else f"  {key:26s} {value}")
    decisions = manifest.get("decisions")
    if decisions:
        print(
            f"  decisions: {decisions['decisions']} "
            f"({decisions['evaluated']} evaluated, {decisions['ties']} ties)"
        )
        replay = decisions.get("replay")
        if replay:
            print(
                f"  estimation error: mean |e| {replay['mean_abs_error_s']:.3f}s, "
                f"max |e| {replay['max_abs_error_s']:.3f}s, "
                f"bias {replay['bias_s']:+.3f}s"
            )


def _cmd_metrics(args) -> int:
    from .experiments.runner import run_config_result
    from .obs import validate_manifest, write_manifest, write_ndjson

    cfg = _obs_config(args)
    result = run_config_result(cfg)
    manifest = _manifest_for(cfg, result)
    errors = validate_manifest(manifest)
    _print_manifest_summary(manifest)
    if args.out:
        write_manifest(manifest, args.out)
        print(f"manifest written to {args.out}")
    if args.ndjson:
        write_ndjson(manifest, args.ndjson)
        print(f"NDJSON written to {args.ndjson}")
    if errors:
        for err in errors:
            print(f"schema violation: {err}", file=sys.stderr)
        return 1
    print("manifest validates against run-manifest.schema.json")
    return 0


def _cmd_profile(args) -> int:
    from .experiments.runner import run_config_result
    from .obs import merged_chrome_trace, validate_manifest, write_manifest
    from .obs.core import telemetry as tele

    cfg = _obs_config(args)
    # Retain individual span events so they can be laid out on a timeline;
    # run_batch's own enable() keeps the flag (it only resets the data).
    tele.reset()
    tele.enable(keep_events=True)
    try:
        result = run_config_result(cfg)
        print(f"{cfg.scheme}: makespan {result.makespan:.1f}s "
              f"(scheduling {result.scheduling_seconds * 1000:.1f} ms wall)")
        print(f"\n{'span path':42s} {'count':>6s} {'total':>9s} {'mean':>9s}")
        for path, span in tele.top_spans(args.top):
            print(
                f"{path:42s} {span.count:6d} {span.total_s:8.3f}s "
                f"{span.mean_s * 1000:7.2f}ms"
            )
        counters = sorted(tele.snapshot()["counters"].items())
        for prefix, title in (
            ("kernel/", "incremental kernel work (summed over mapping calls)"),
            ("runtime/", "runtime work (summed over sub-batches)"),
        ):
            block = {
                name.split("/", 1)[1]: value
                for name, value in counters
                if name.startswith(prefix)
            }
            if block:
                print(f"\n{title}:")
                for key, value in block.items():
                    print(f"  {key:26s} {int(value):,}")
        if args.trace:
            assert result.runtime is not None
            with open(args.trace, "w") as fh:
                fh.write(merged_chrome_trace(result.runtime, tele))
            print(f"\nmerged Chrome trace written to {args.trace}")
        if args.out:
            manifest = _manifest_for(cfg, result)
            errors = validate_manifest(manifest)
            write_manifest(manifest, args.out)
            print(f"manifest written to {args.out}")
            if errors:
                for err in errors:
                    print(f"schema violation: {err}", file=sys.stderr)
                return 1
    finally:
        tele.disable()
        tele.keep_events = False
        tele.reset()
    return 0


def _cmd_lint(args) -> int:
    """All nine checks in one pass: AST lint + units + purity."""
    from .analysis import lint, purity, units
    from .analysis.common import render_findings

    if args.list_rules:
        for rule in (*lint.iter_rules(), *units.iter_rules(), *purity.iter_rules()):
            print(f"{rule.code}  {rule.summary}")
        return 0
    findings = sorted(
        [
            *lint.lint_paths(args.paths, args.select),
            *units.check_paths(args.paths, args.select),
            *purity.check_paths(args.paths, args.select),
        ],
        key=lambda f: (f.path, f.line, f.col, f.code),
    )
    print(render_findings(findings, args.format))
    return 1 if findings else 0


def _cmd_audit(args) -> int:
    from .analysis.audit import AuditError

    platform = _platform(args)
    batch = _batch(args, platform.num_storage)
    faults = _load_faults(args.faults) if args.faults else None
    print(f"{batch} on {platform.name} ({platform.num_compute} compute nodes)\n")
    failures = 0
    for scheme in args.schemes:
        kwargs = {}
        if scheme == "ip":
            kwargs = {"time_limit": args.ip_time_limit, "mip_rel_gap": 0.05}
        try:
            result = run_batch(
                batch,
                platform,
                scheme,
                allow_replication=not args.no_replication,
                candidate_limit=args.candidate_limit,
                scheduler_kwargs=kwargs,
                audit=True,
                faults=faults,
            )
        except AuditError as exc:
            failures += 1
            print(f"{scheme:14s} FAIL  {exc}")
            continue
        report = result.audit_report
        assert report is not None
        extra = ""
        fs = result.fault_stats
        if fs is not None:
            extra = (
                f" ({fs.node_crashes} crash(es), {fs.transfer_failures} "
                f"failed transfer(s), {fs.tasks_rescheduled} rescheduled)"
            )
        print(
            f"{scheme:14s} OK    {report.checked_events} events verified, "
            f"makespan {result.makespan:.1f}s{extra}"
        )
    return 1 if failures else 0


def _cmd_bench(args) -> int:
    import json as _json

    from .experiments import bench

    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            doc = _json.load(fh)
        if doc.get("kind") != "repro-bench":
            raise SystemExit(f"{args.baseline}: not a repro-bench document")
        baseline = doc["cells"]
    print(
        f"{'cell':30s} {'reference':>11s} {'optimized':>11s} {'speedup':>8s} "
        f"{'makespan':>10s} {'vs base':>8s}  oracle"
    )
    cells: dict[str, dict] = {}
    for cell in bench.bench_cells(full=args.full):
        try:
            rec = bench.run_cell(cell, repeats=args.repeats)
        except bench.DecisionMismatch as exc:
            print(f"FAIL: {exc}")
            return 1
        cells[cell.cell] = rec
        makespan, drift = "-", "-"
        if "makespan_s" in rec:
            makespan = f"{rec['makespan_s']:.2f}s"
            base = (baseline or {}).get(cell.cell, {}).get("makespan_s")
            if base:
                drift = f"{(rec['makespan_s'] - base) / base:+.2%}"
        print(
            f"{cell.cell:30s} {rec['reference_s'] * 1e3:9.2f}ms "
            f"{rec['optimized_s'] * 1e3:9.2f}ms {rec['speedup']:7.2f}x "
            f"{makespan:>10s} {drift:>8s}  same ({rec['digest']})"
        )
        stats = rec.get("kernel_stats") or {}
        if stats.get("logical_evaluations"):
            saved, logical = stats["evaluations_saved"], stats["logical_evaluations"]
            print(
                f"{'':30s}   kernel pair evaluations saved: "
                f"{saved / logical:.1%} ({saved:,} of {logical:,})"
            )
    print(f"\nevery cell checked against the oracle: {len(cells)} identical digest(s)")
    if args.out:
        with open(args.out, "w") as fh:
            _json.dump(bench.bench_document(cells, args.repeats), fh, indent=2,
                       sort_keys=True)
            fh.write("\n")
        print(f"results written to {args.out}")
    if args.trajectory:
        path = bench.append_trajectory(cells, args.trajectory)
        print(f"trajectory appended to {path} ({len(cells)} point(s))")
    failures, notes = bench.check_gates(cells, baseline, args.min_speedup)
    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"\nFAIL: {len(failures)} gate failure(s)")
        for failure in failures:
            print(f"  {failure}")
        if baseline is not None:
            print(
                "\nIf the change is intentional, refresh the baseline:\n"
                "  PYTHONPATH=src python -m repro bench "
                "--out benchmarks/BENCH_baseline.json"
            )
        return 1
    if baseline is not None:
        print(
            f"OK: digests unchanged and makespans within "
            f"{DEFAULT_FAIL_OVER:.0%} of {args.baseline}"
        )
    if args.min_speedup is not None:
        print(f"OK: every mapping cell beats {args.min_speedup:.2f}x")
    return 0


def _cmd_diff(args) -> int:
    from .obs.diff import diff_manifests, format_diff, load_run

    a = load_run(args.a)
    b = load_run(args.b)
    diff = diff_manifests(a, b)
    print(format_diff(diff, top=args.top))
    if args.json:
        import json as _json

        with open(args.json, "w") as fh:
            _json.dump(diff.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"JSON written to {args.json}")
    if diff.exceeds(args.fail_over):
        print(
            f"FAIL: makespan drift {diff.rel_delta:+.1%} exceeds "
            f"{args.fail_over:.0%} of the base makespan",
            file=sys.stderr,
        )
        return 1
    print(f"drift {diff.rel_delta:+.1%} within the {args.fail_over:.0%} gate")
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path as _Path

    from .obs.diff import load_run
    from .obs.report import load_trajectory, write_report

    manifest = load_run(args.run)
    baseline = load_run(args.baseline) if args.baseline else None
    traj_path = args.trajectory
    if traj_path is None:
        default = _Path("benchmarks") / "BENCH_trajectory.jsonl"
        traj_path = default if default.exists() else None
    trajectory = load_trajectory(traj_path) if traj_path is not None else []
    out = write_report(
        manifest,
        args.out,
        baseline,
        trajectory=trajectory,
        title=args.title,
    )
    print(f"report written to {out} ({out.stat().st_size:,} bytes, "
          "self-contained HTML)")
    return 0


def _cmd_chaos(args) -> int:
    from .analysis.audit import AuditError
    from .experiments import CHAOS_SCHEMES, degradation_curve

    schemes = tuple(args.schemes) if args.schemes else CHAOS_SCHEMES
    cache = _cell_cache(args, enabled=args.cache)
    try:
        table = degradation_curve(
            rates=tuple(args.rates),
            schemes=schemes,
            workload=args.workload,
            overlap=args.overlap,
            num_tasks=args.tasks,
            storage=args.storage,
            seed=args.seed,
            fault_seed=args.fault_seed,
            crash_node=args.crash_node,
            crash_time=args.crash_time,
            audit=not args.no_audit,
            workers=args.workers,
            cache=cache,
        )
    except AuditError as exc:
        print(f"FAIL: invariant violation under injected faults\n{exc}")
        return 1
    print(table.render())
    if not args.no_audit:
        print("\nevery cell passed the E1-E7 trace audit")
    if args.cache:
        print(f"cache: {cache.stats.summary()} in {cache.root}")
    _write_table(table, args)
    return 0


def _with_mode_suffix(path: str, suffix: str) -> str:
    if not suffix:
        return path
    from pathlib import Path as _Path

    p = _Path(path)
    return str(p.with_name(f"{p.stem}{suffix}{p.suffix or ''}"))


def _cmd_stream(args) -> int:
    import hashlib
    import json as _json

    from .experiments import run_stream_config, stream_config_from_dict
    from .obs import (
        build_stream_manifest,
        validate_manifest,
        write_manifest,
        write_ndjson,
    )
    from .obs.report import write_report

    with open(args.spec) as fh:
        spec = _json.load(fh)
    try:
        cfg = stream_config_from_dict(spec)
    except (TypeError, ValueError) as exc:
        print(f"invalid stream spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    digest = hashlib.sha256(
        _json.dumps(spec, sort_keys=True).encode()
    ).hexdigest()

    modes = ("warm", "cold") if args.mode == "both" else (args.mode,)
    suffixed = len(modes) > 1
    rc = 0
    summaries: dict[str, dict] = {}
    results = {}
    for mode in modes:
        res = run_stream_config(cfg, warm=(mode == "warm"))
        results[mode] = res
        print(res.summary())
        manifest = build_stream_manifest(res, config=spec, config_digest=digest)
        errors = validate_manifest(manifest)
        summaries[mode] = manifest["online"]["queueing"]
        suffix = f"-{mode}" if suffixed else ""
        if args.out:
            out = _with_mode_suffix(args.out, suffix)
            write_manifest(manifest, out)
            print(f"manifest written to {out}")
        if args.ndjson:
            out = _with_mode_suffix(args.ndjson, suffix)
            write_ndjson(manifest, out)
            print(f"NDJSON written to {out}")
        if args.html:
            out = write_report(
                manifest,
                _with_mode_suffix(args.html, suffix),
                title=f"stream {cfg.workload}/{cfg.scheme} ({mode})",
            )
            print(f"report written to {out}")
        if errors:
            for err in errors:
                print(f"schema violation ({mode}): {err}", file=sys.stderr)
            rc = 1
        else:
            print(f"{mode} manifest validates against run-manifest.schema.json")
    if "warm" in results and "cold" in results:
        warm, cold = results["warm"], results["cold"]
        print(
            f"warm vs cold: mean response {warm.mean_response_s:.1f}s vs "
            f"{cold.mean_response_s:.1f}s, cross-batch reuse "
            f"{warm.cross_batch_hit_volume_mb:.0f} MB vs "
            f"{cold.cross_batch_hit_volume_mb:.0f} MB"
        )
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(
                {"spec": spec, "config_digest": digest, "modes": summaries},
                fh,
                indent=2,
            )
        print(f"JSON summary written to {args.json}")
    return rc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "schedulers": _cmd_schedulers,
        "workload": _cmd_workload,
        "run": _cmd_run,
        "figure": _cmd_figure,
        "metrics": _cmd_metrics,
        "profile": _cmd_profile,
        "lint": _cmd_lint,
        "audit": _cmd_audit,
        "bench": _cmd_bench,
        "diff": _cmd_diff,
        "report": _cmd_report,
        "chaos": _cmd_chaos,
        "stream": _cmd_stream,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
