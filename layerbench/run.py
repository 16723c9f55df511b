"""Layered end-to-end benchmark of the repro scheduler/runtime.

Run from the root of a checkout::

    python3 layerbench/run.py --workload batch-ect --seed 1 --seconds 33 --trace 0

One process, one thread, a closed loop with one client: each operation is
one complete simulation, and the next starts when the previous returns.
A run makes ``INPUTS_PER_RUN`` inputs of the workload, each from its own
seed derived from ``--seed``, and its operations cycle through them, so
its figures average over several inputs. An operation starts while one of
median length would still end within ``--seconds``; with ``--trace 0``
every input runs at least once.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``. Host
times are in seconds of a reference host (see ``hostspeed``): each
operation's time is divided by the speed of this host measured just before
and after it, which cancels the host's drift. ``adj_wall_s`` is the median
operation of each input, averaged over the run's inputs; ``setup_s`` the
median of the set-up samples. The raw fastest, median and slowest
operation times are printed too, with the number of operations.
Simulated metrics are means over the run's inputs.

``--trace 1`` alternates untraced and traced operations (all audited) and
reports the per-layer metrics; the spans are written to
``.layerbench/trace-<workload>-<seed>.json`` under the checkout root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
repeat every metric with its unit, the error rate (failed over attempted
operations) and the run's decision digest.

The older artefacts under ``benchmarks/`` (``BENCH_baseline.json``,
``BENCH_kernels.json``, ``BENCH_trajectory.jsonl``) are separate from this
benchmark and unchanged by it; folding them into one harness is the
ROADMAP.md "one bench harness" item.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".layerbench"
WORKLOADS = ("batch-ect", "batch-pressure", "stream-backlog")
#: Inputs per run; see ``input_seeds``.
INPUTS_PER_RUN = 16
#: Set-up is measured this many times in fresh interpreters, plus once in
#: the benchmark process itself; the median is reported.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("adj_wall_s", "s"),
    ("adj_tasks_per_s", "tasks/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_s", "s"),
    ("sim_mean_response_s", "s"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only time import plus input generation and print the seconds",
    )
    return p.parse_args(argv)


def input_seeds(seed: int) -> list[int]:
    """Seeds of a run's inputs; runs with different seeds share none."""
    return [seed * INPUTS_PER_RUN + i for i in range(INPUTS_PER_RUN)]


def timed_setup(workload: str, seed: int):
    """Import the program and generate the inputs: the set-up phase."""
    t0 = time.perf_counter()
    import scenarios

    spec = scenarios.SPECS[workload]
    inputs = [scenarios.make_inputs(spec, s, ROOT) for s in input_seeds(seed)]
    return inputs, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Time the set-up phase in a fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.split()[-1])


class Loop:
    """Closed-loop operations until the time budget would be exceeded."""

    def __init__(self, seconds: float, min_ops: int = 1) -> None:
        self.seconds = seconds
        self.min_ops = min_ops
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.durations: list[float] = []
        self.digests: dict[int, set[str]] = {}  # per input

    def more(self) -> bool:
        if self.attempted < self.min_ops:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.durations) <= self.seconds

    def run(self, op, key: int):
        """Run one operation on input ``key``.

        Returns (outcome, seconds), or None on failure.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = op()
            problems = outcome.problems
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            outcome, problems = None, ["raised"]
        duration = time.perf_counter() - t0
        self.durations.append(duration)
        if outcome is not None:
            digests = self.digests.setdefault(key, set())
            digests.add(outcome.digest)
            if len(digests) > 1:
                problems = problems + ["decision digest differs between operations"]
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} incorrect: {problems}", file=sys.stderr)
            return None
        return outcome, duration


def end_to_end(args: argparse.Namespace) -> tuple[Loop, dict[str, float]]:
    from hostspeed import HostSpeed, reference_seconds

    speed = HostSpeed()
    before = speed.sample()
    inputs, seconds = timed_setup(args.workload, args.seed)
    import scenarios

    raw_setups: list[float] = []
    setups: list[float] = []  # reference-host seconds
    for probe in range(SETUP_PROBES + 1):
        if probe:
            seconds = probe_setup(args.workload, args.seed)
        after = speed.sample()
        raw_setups.append(seconds)
        setups.append(reference_seconds(seconds, before, after))
        before = after

    loop = Loop(args.seconds, min_ops=len(inputs))
    outcomes: dict[int, scenarios.Outcome] = {}
    op_seconds: dict[int, list[float]] = {}  # reference-host seconds, per input
    while loop.more():
        key = loop.attempted % len(inputs)
        done = loop.run(lambda: scenarios.run_operation(inputs[key]), key)
        after = speed.sample()
        if done is not None:
            outcomes[key] = done[0]
            op_seconds.setdefault(key, []).append(
                reference_seconds(done[1], before, after)
            )
        before = after
    if not outcomes:
        return loop, {}
    # The median, not the fastest: a fast host fits more operations of each
    # input into the run, and the fastest of more draws reads lower.
    per_input = [statistics.median(op_seconds[key]) for key in sorted(outcomes)]
    runs = list(outcomes.values())
    metrics = {
        "adj_wall_s": statistics.fmean(per_input),
        "adj_tasks_per_s": sum(o.num_tasks for o in runs) / sum(per_input),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_makespan_s": statistics.fmean(o.makespan_s for o in runs),
        "sim_mean_response_s": statistics.fmean(o.mean_response_s for o in runs),
    }
    durations = sorted(loop.durations)
    print(f"operations: {[round(d, 4) for d in loop.durations]} s")
    print(
        f"{len(durations)} operations: fastest {durations[0]!r} s, "
        f"median {statistics.median(durations)!r} s, slowest {durations[-1]!r} s"
    )
    print(f"per input, reference-host s: {[round(s, 4) for s in per_input]}")
    print(f"set-up samples: {[round(s, 4) for s in raw_setups]} s")
    print(
        f"reference kernel: fastest {min(speed.samples)!r} s, median "
        f"{statistics.median(speed.samples)!r} s of {len(speed.samples)}"
    )
    return loop, metrics


def traced(args: argparse.Namespace) -> tuple[Loop, dict[str, float]]:
    import layers
    import scenarios
    from tracer import Tracer, installed

    setup_tracer = Tracer()
    with installed(setup_tracer, layers.setup_patches()):
        inputs, _ = timed_setup(args.workload, args.seed)
    patches = layers.operation_patches()

    # Each input runs untraced, then traced; then the next input.
    loop = Loop(args.seconds, min_ops=2)
    untraced_walls: list[float] = []
    per_op: list[dict[str, float]] = []
    first_spans = None
    while loop.more():
        key = loop.attempted // 2 % len(inputs)
        trace_this = loop.attempted % 2 == 1
        tracer = Tracer()

        def op():
            if not trace_this:
                return scenarios.run_operation(inputs[key], audit=True)
            with installed(tracer, patches), tracer.span(layers.ROOT):
                return scenarios.run_operation(inputs[key], audit=True)

        done = loop.run(op, key)
        if done is None:
            continue
        outcome, duration = done
        if not trace_this:
            untraced_walls.append(duration)
            continue
        per_op.append(layers.layer_metrics(tracer, outcome))
        if first_spans is None:
            first_spans = {
                "input_seed": input_seeds(args.seed)[key],
                "digest": outcome.digest,
                "totals": {
                    name: vars(t) for name, t in sorted(tracer.totals.items())
                },
                "counts": {name: c[0] for name, c in sorted(tracer.counts.items())},
                "spans": tracer.spans,
            }
    if not per_op or not untraced_walls:
        return loop, {}
    metrics = {
        name: statistics.median(m[name] for m in per_op) for name in per_op[0]
    }
    metrics["workloads.make_batch.self_s"] = setup_tracer.self_s("workloads.make_batch")
    metrics["bench.untraced_wall_s"] = statistics.median(untraced_walls)
    metrics["bench.tracing_overhead"] = (
        metrics["bench.traced_wall_s"] - metrics["bench.untraced_wall_s"]
    )
    print(f"layer self times cover {layers.attributed_share(metrics):.2%} of traced wall")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    first_spans["span_fields"] = ["id", "parent", "name", "start", "end", "self_s"]
    path.write_text(json.dumps(first_spans))
    print(f"spans of the first traced operation: {path.relative_to(ROOT)}")
    return loop, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_probe:
        _, seconds = timed_setup(args.workload, args.seed)
        print(repr(seconds))
        return 0

    if args.trace:
        import layers

        loop, metrics = traced(args)
        declared = [(name, unit) for name, unit, _ in layers.PER_LAYER]
    else:
        loop, metrics = end_to_end(args)
        declared = END_TO_END
    if not metrics:
        print("layerbench: no operation succeeded", file=sys.stderr)
        return 1

    error_rate = loop.failed / loop.attempted
    print(f"workload {args.workload} seed {args.seed}: {loop.attempted} operation(s)")
    seeds = input_seeds(args.seed)
    for key, digests in sorted(loop.digests.items()):
        print(f"input seed {seeds[key]}: decision digest(s) {sorted(digests)}")
    for name, unit in declared:
        print(f"  {name} = {metrics[name]!r} {unit}")
    print(f"  error_rate = {error_rate!r}")
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
