"""Cross-run regression attribution over run manifests.

``repro diff A.json B.json`` answers the question the bench gate leaves
open: not just *that* the makespan drifted, but *where*. Two run
manifests (:mod:`repro.obs.export`) are aligned and the makespan delta is
attributed along three axes:

* **phase** — schedule (wall-clock scheduler time), stage (port time spent
  on transfers) and execute (CPU time), reconstructed per node from the
  manifest's derived metrics: ``exec = node_exec_utilization × makespan``,
  ``stage = max(port_busy_fraction × makespan − exec, 0)`` on compute
  nodes (storage ports and the shared link are pure staging);
* **node** — every compute/storage/link timeline the metrics cover;
* **metric** — every scalar in ``stats``/``metrics`` plus the final value
  of every time series, ranked by relative change.

The result carries a CI gate: :meth:`ManifestDiff.exceeds` applies the
bench gate's makespan bound (:data:`DEFAULT_FAIL_OVER`, 15% of run A's
makespan) and drives the CLI's non-zero exit code.

Besides full manifests, :func:`load_run` accepts ``path#cell`` pointing
into a ``repro-bench`` document (``benchmarks/BENCH_baseline.json``); the
named cell is lifted into a minimal manifest (scalar makespan only, no
metrics), so a fresh run can be diffed straight against the checked-in
baseline.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "AttributionRow",
    "DEFAULT_FAIL_OVER",
    "ManifestDiff",
    "MetricDelta",
    "diff_manifests",
    "format_diff",
    "load_run",
]

#: Fail when |Δmakespan| exceeds this fraction of the base makespan: the
#: default of ``repro diff --fail-over`` and the bound of ``repro bench``.
DEFAULT_FAIL_OVER = 0.15

_EPS = 1e-12


@dataclass(frozen=True)
class AttributionRow:
    """Seconds spent in one (phase, node) bucket, in each run."""

    phase: str
    node: str
    a_s: float
    b_s: float

    @property
    def delta_s(self) -> float:
        return self.b_s - self.a_s


@dataclass(frozen=True)
class MetricDelta:
    """One scalar metric's value in each run, ranked by relative change."""

    name: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel(self) -> float:
        return self.delta / max(abs(self.a), _EPS)

    @property
    def rel_str(self) -> str:
        """Human form of :attr:`rel` (``new``/``gone`` for zero bases)."""
        if abs(self.a) <= _EPS:
            return "new"
        if abs(self.b) <= _EPS:
            return "gone"
        return f"{self.rel:+.1%}"


@dataclass
class ManifestDiff:
    """The aligned comparison of two run manifests (A = base, B = candidate)."""

    scheme_a: str
    scheme_b: str
    makespan_a: float
    makespan_b: float
    rows: list[AttributionRow] = field(default_factory=list)
    metric_rows: list[MetricDelta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def delta_s(self) -> float:
        return self.makespan_b - self.makespan_a

    @property
    def rel_delta(self) -> float:
        return self.delta_s / max(abs(self.makespan_a), _EPS)

    def exceeds(self, fail_over: float = DEFAULT_FAIL_OVER) -> bool:
        """True when |Δmakespan| exceeds ``fail_over`` × A's makespan."""
        return abs(self.delta_s) > fail_over * max(abs(self.makespan_a), _EPS)

    def dominant(self) -> str:
        """One line naming the dominant phase, node and metric of the delta."""
        parts: list[str] = []
        if self.rows:
            top = self.rows[0]
            share = top.delta_s / self.delta_s if abs(self.delta_s) > _EPS else 0.0
            parts.append(
                f"phase {top.phase} on {top.node} "
                f"({top.delta_s:+.3f}s, {share:.0%} of the makespan delta)"
            )
        if self.metric_rows:
            m = self.metric_rows[0]
            parts.append(f"metric {m.name} ({m.rel_str})")
        if not parts:
            return "dominant: makespan only (no per-phase metrics in one or both manifests)"
        return "dominant: " + "; ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scheme_a": self.scheme_a,
            "scheme_b": self.scheme_b,
            "makespan_a_s": self.makespan_a,
            "makespan_b_s": self.makespan_b,
            "delta_s": self.delta_s,
            "rel_delta": self.rel_delta,
            "rows": [
                {"phase": r.phase, "node": r.node, "a_s": r.a_s,
                 "b_s": r.b_s, "delta_s": r.delta_s}
                for r in self.rows
            ],
            "metrics": [
                {"name": m.name, "a": m.a, "b": m.b,
                 "delta": m.delta, "rel": m.rel}
                for m in self.metric_rows
            ],
            "notes": list(self.notes),
            "dominant": self.dominant(),
        }


def load_run(spec: str | Path) -> dict[str, Any]:
    """Load a run manifest, or lift a bench cell into a minimal one.

    ``spec`` is either a manifest path or ``path#cell`` where the file is a
    ``repro-bench`` document (``repro bench --out``); the named run cell
    becomes a manifest with the scalar result only.
    """
    text = str(spec)
    path_part, _, fragment = text.partition("#")
    with open(path_part) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path_part}: expected a JSON object")
    kind = doc.get("kind")
    if kind == "repro-run-manifest":
        if fragment:
            raise ValueError(f"{text}: #cell selectors only apply to repro-bench files")
        return doc
    if kind == "repro-bench":
        cells = doc.get("cells", {})
        if not fragment:
            raise ValueError(
                f"{path_part} is a repro-bench document; select a cell with "
                f"'{path_part}#<cell>' (e.g. #{next(iter(sorted(cells)), 'fig5b/n50/minmin')})"
            )
        if fragment not in cells:
            raise KeyError(f"{path_part}: no cell {fragment!r} (have {sorted(cells)})")
        cell = cells[fragment]
        if "makespan_s" not in cell:
            raise ValueError(f"{text}: a mapping cell has no makespan to diff")
        return {
            "kind": "repro-run-manifest",
            "manifest_version": 1,
            "versions": doc.get("versions", {}),
            "config": None,
            "config_digest": f"bench:{fragment}",
            "scheme": fragment.rsplit("/", 1)[-1],
            "result": {
                "makespan_s": float(cell["makespan_s"]),
                "scheduling_seconds": 0.0,
                "sub_batches": 0,
                "tasks": 0,
            },
            "stats": {},
            "metrics": None,
            "telemetry": None,
            "decisions": None,
        }
    raise ValueError(f"{path_part}: unrecognised kind {kind!r}")


def _phase_seconds(manifest: Mapping[str, Any]) -> dict[tuple[str, str], float]:
    """Reconstruct (phase, node) → seconds from a manifest's metrics."""
    out: dict[tuple[str, str], float] = {}
    result = manifest.get("result") or {}
    makespan = float(result.get("makespan_s", 0.0))
    metrics = manifest.get("metrics") or {}
    exec_util = metrics.get("node_exec_utilization") or {}
    for node, util in exec_util.items():
        out[("execute", str(node))] = float(util) * makespan
    for node, frac in (metrics.get("port_busy_fraction") or {}).items():
        busy = float(frac) * makespan
        exec_s = out.get(("execute", str(node)), 0.0)
        # A compute node's port timeline carries execution too; the excess
        # over exec time is staging. Storage ports / the shared link only
        # ever stage.
        out[("stage", str(node))] = max(busy - exec_s, 0.0)
    out[("schedule", "all")] = float(result.get("scheduling_seconds", 0.0))
    return out


def _scalar_metrics(manifest: Mapping[str, Any]) -> dict[str, float]:
    """Every scalar metric of a manifest, namespaced by its block."""
    out: dict[str, float] = {}
    for block in ("stats", "metrics"):
        for name, value in (manifest.get(block) or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"{block}/{name}"] = float(value)
    timeseries = manifest.get("timeseries")
    if timeseries is not None:
        for name, series in (timeseries.get("series") or {}).items():
            points = series.get("points") or []
            if points:
                out[f"timeseries/{name}:last"] = float(points[-1][1])
    return out


def diff_manifests(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> ManifestDiff:
    """Align two manifests and attribute the makespan delta.

    Phase/node attribution needs the derived metrics block in *both*
    manifests (runs executed with ``telemetry=True``); without it the diff
    degrades to the scalar tables and says so in ``notes``.
    """
    diff = ManifestDiff(
        scheme_a=str(a.get("scheme")),
        scheme_b=str(b.get("scheme")),
        makespan_a=float((a.get("result") or {}).get("makespan_s", 0.0)),
        makespan_b=float((b.get("result") or {}).get("makespan_s", 0.0)),
    )
    if diff.scheme_a != diff.scheme_b:
        diff.notes.append(
            f"schemes differ ({diff.scheme_a} vs {diff.scheme_b}): this is a "
            "cross-scheme comparison, not a regression"
        )
    if a.get("metrics") is not None and b.get("metrics") is not None:
        pa = _phase_seconds(a)
        pb = _phase_seconds(b)
        rows = [
            AttributionRow(
                phase=phase, node=node,
                a_s=pa.get((phase, node), 0.0),
                b_s=pb.get((phase, node), 0.0),
            )
            for phase, node in sorted(set(pa) | set(pb))
        ]
        rows.sort(key=lambda r: (-abs(r.delta_s), r.phase, r.node))
        diff.rows = rows
        diff.notes.append(
            "schedule phase is wall-clock scheduler time (excluded from the "
            "simulated makespan); stage/execute are simulated seconds"
        )
    else:
        diff.notes.append(
            "phase attribution unavailable: one or both manifests lack the "
            "metrics block (run with telemetry enabled to get it)"
        )
    ma = _scalar_metrics(a)
    mb = _scalar_metrics(b)
    metric_rows = [
        MetricDelta(name=name, a=ma.get(name, 0.0), b=mb.get(name, 0.0))
        for name in sorted(set(ma) | set(mb))
        # The makespan is the outcome being attributed, not a cause.
        if name != "metrics/makespan_s"
    ]
    metric_rows = [m for m in metric_rows if abs(m.delta) > _EPS]
    metric_rows.sort(key=lambda m: (-abs(m.rel), -abs(m.delta), m.name))
    diff.metric_rows = metric_rows
    return diff


def format_diff(diff: ManifestDiff, top: int = 8) -> str:
    """Human-readable report: header, ranked attribution, metric deltas."""
    lines: list[str] = []
    lines.append(
        f"makespan: {diff.makespan_a:.3f}s -> {diff.makespan_b:.3f}s "
        f"({diff.delta_s:+.3f}s, {diff.rel_delta:+.1%})"
    )
    lines.append(diff.dominant())
    if diff.rows:
        lines.append("")
        lines.append(f"{'phase':<9} {'node':<10} {'A (s)':>10} {'B (s)':>10} {'delta (s)':>11} {'share':>7}")
        for r in diff.rows[:top]:
            share = r.delta_s / diff.delta_s if abs(diff.delta_s) > _EPS else 0.0
            lines.append(
                f"{r.phase:<9} {r.node:<10} {r.a_s:>10.3f} {r.b_s:>10.3f} "
                f"{r.delta_s:>+11.3f} {share:>6.0%}"
            )
    if diff.metric_rows:
        lines.append("")
        lines.append(f"{'metric':<42} {'A':>12} {'B':>12} {'rel':>8}")
        for m in diff.metric_rows[:top]:
            lines.append(
                f"{m.name:<42} {m.a:>12.3f} {m.b:>12.3f} {m.rel_str:>8}"
            )
    for note in diff.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
