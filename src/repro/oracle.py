"""From-scratch oracles for differential testing: never used by the product.

The scheduling kernel (:mod:`repro.core.mct_kernel`) and the Section 6
runtime (:class:`repro.cluster.runtime.Runtime`) run incremental, cached
code. This module keeps their original from-scratch twins, so the
differential tests (``tests/core/test_differential_kernels.py``,
``tests/cluster/test_runtime_reuse.py``) and the
``repro bench`` baseline (:mod:`repro.experiments.bench`) can require the
fast code to make *identical* decisions:

* :func:`reference_mct_map` — the per-round full-matrix MCT rescan — and
  the MCT-family schedulers built on it (:func:`make_reference_scheduler`);
* :class:`ReferenceRuntime` — the runtime with every hot-path cache
  bypassed through the small method that reaches it;
* :func:`reference_run_batch` — :func:`repro.core.driver.run_batch` with
  both swapped in.

Only :mod:`repro.experiments.bench` and the tests may import this module
(``tests/test_oracle_imports.py`` enforces it).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from .batch import Batch, Task
from .cluster.gantt import on_grid
from .cluster.platform import Platform
from .cluster.runtime import Runtime, _MissingIndex, _TentativeCache
from .cluster.state import ClusterState
from .core import driver
from .core.base import Scheduler, make_scheduler
from .core.mct_family import MaxMinScheduler, SufferageScheduler
from .core.mct_kernel import _TIE_TOL, MCTSetup, build_mct_setup
from .core.minmin import MinMinScheduler
from .core.plan import BatchResult
from .obs.core import telemetry
from .obs.decisions import DecisionLog

__all__ = [
    "ReferenceMaxMin",
    "ReferenceMinMin",
    "ReferenceRuntime",
    "ReferenceSufferage",
    "make_reference_scheduler",
    "reference_mct_map",
    "reference_run_batch",
    "stage_row",
]


# -- MCT-family mapping ---------------------------------------------------------------
def stage_row(setup: MCTSetup, k: int) -> np.ndarray:
    """Estimated staging time of task ``k`` on every node (reference form)."""
    fs = setup.task_files[k]
    # Per-file cost on node i: 0 if present; else replica time if any copy
    # exists; else remote time.
    best_absent = np.where(setup.any_copy[fs], setup.rep_t[fs], setup.remote_t[fs])
    per_file = np.where(setup.on_node[fs, :].T, 0.0, best_absent)  # (c, |fs|)
    return per_file.sum(axis=1)


def reference_mct_map(
    setup: MCTSetup,
    pick: Callable[[np.ndarray], tuple[int, int]],
    pick_rule: str,
    log: DecisionLog | None,
) -> dict[str, int]:
    """The original O(T²·C) full-rescan loop (ground truth, unchanged)."""
    n, c = setup.n, setup.c
    tasks, nodes = setup.tasks, setup.nodes
    task_files, readers = setup.task_files, setup.readers
    on_node, any_copy, fixed = setup.on_node, setup.any_copy, setup.fixed

    stage = (
        np.vstack([stage_row(setup, k) for k in range(n)])
        if n
        else np.zeros((0, c))
    )
    ready = np.zeros(c)
    unscheduled = np.ones(n, dtype=bool)
    mapping: dict[str, int] = {}

    for _ in range(n):
        mct = stage + ready + fixed  # (n, c)
        mct[~unscheduled, :] = np.inf
        k, i = pick(mct)
        k, i = int(k), int(i)
        mapping[tasks[k].task_id] = nodes[i]
        if log is not None:
            finite = np.isfinite(mct)
            evaluated = int(finite.sum())
            ties = int((np.abs(mct[finite] - mct[k, i]) <= _TIE_TOL).sum()) - 1
            log.record(
                tasks[k].task_id,
                nodes[i],
                reason=pick_rule,
                estimated_completion=float(mct[k, i]),
                evaluated=evaluated,
                ties=max(ties, 0),
            )
            telemetry.count("scheduler/evaluations", evaluated)
            telemetry.count("scheduler/decisions")
        ready[i] = mct[k, i]
        unscheduled[k] = False

        # Implicit replication: task k's files are now (planned) on i.
        fs = task_files[k]
        on_node[fs, i] = True
        any_copy[fs] = True
        # Refresh the staging estimate of every pending task that shares
        # a file with the newly placed set.
        dirty: set[int] = set()
        for f in fs.tolist():
            dirty.update(readers[f])
        for t in dirty:
            if unscheduled[t]:
                stage[t] = stage_row(setup, t)
    return mapping


class ReferenceMinMin(MinMinScheduler):
    """MinMin mapped by :func:`reference_mct_map` instead of the kernel."""

    def _map(
        self,
        batch: Batch,
        pending: list[str],
        platform: Platform,
        state: ClusterState,
    ) -> dict[str, int]:
        setup = build_mct_setup(batch, pending, platform, state)
        self.kernel_stats = None  # the rescan keeps no work accounting
        return reference_mct_map(
            setup, self._pick, self.pick_rule, self._active_log()
        )


# The selection rule (``_pick``, ``pick_rule``) and the registered name
# come from the product scheme, the mapping loop from ReferenceMinMin.
class ReferenceMaxMin(ReferenceMinMin, MaxMinScheduler):
    """MaxMin mapped by :func:`reference_mct_map`."""


class ReferenceSufferage(ReferenceMinMin, SufferageScheduler):
    """Sufferage mapped by :func:`reference_mct_map`."""


_REFERENCE_SCHEDULERS: dict[str, type[MinMinScheduler]] = {
    "minmin": ReferenceMinMin,
    "maxmin": ReferenceMaxMin,
    "sufferage": ReferenceSufferage,
}


def make_reference_scheduler(name: str, **kwargs: Any) -> Scheduler:
    """The oracle twin of ``make_scheduler(name)``.

    MCT-family schemes map through the full rescan; every other scheme
    has a single code path, so its oracle is the scheduler itself.
    """
    cls = _REFERENCE_SCHEDULERS.get(name)
    if cls is None:
        return make_scheduler(name, **kwargs)
    return cls(**kwargs)


# -- runtime -------------------------------------------------------------------------
class _LiveRemoteBandwidths:
    """Remote bandwidths asked of the platform at every lookup."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def __getitem__(self, storage: int) -> float:
        return self.platform.remote_bandwidth(storage)


class _RescanIndex(_MissingIndex):
    """A missing-bytes "index" that rescans placement at every query.

    It tracks nothing (built over no groups, so every event hook is a
    no-op) and ranks candidates by the from-scratch missing volume.
    """

    def __init__(self, state: ClusterState) -> None:
        super().__init__(state, {})

    def least_missing(
        self, node: int, pending: Sequence[Task], limit: int
    ) -> list[Task]:
        state = self.state

        def missing_mb(t: Task) -> float:
            return sum(
                state.size_of(f) for f in t.files if not state.has_file(node, f)
            )

        return sorted(pending, key=missing_mb)[:limit]


class ReferenceRuntime(Runtime):
    """The Section 6 runtime with every hot-path cache bypassed.

    Each override replaces one cache with the original from-scratch
    computation: source enumeration, remote bandwidths, execution
    durations, the eviction order, the candidate pre-filter and the
    tentatives kept across commits (every candidate is re-evaluated at
    every look).
    """

    def _remote_bandwidths(self) -> Sequence[float]:
        return _LiveRemoteBandwidths(self.platform)  # type: ignore[return-value]

    def _dynamic_sources(
        self, file_id: str, dest: int
    ) -> list[tuple[str, int | None]]:
        sources: list[tuple[str, int | None]] = [("remote", None)]
        if self.allow_replication:
            for holder in self.state.holders(file_id):
                if holder != dest:
                    sources.append(("replica", holder))
        return sources

    def _exec_duration(self, task: Task, node: int) -> float:
        # Same expression as the product's, but never stored: the memo
        # stays empty, so every evaluation recomputes.
        read = sum(
            self.platform.local_read_time(node, self.state.size_of(f))
            for f in task.files
        )
        return on_grid(
            read + self.platform.task_compute_time(node, task.compute_time)
        )

    def _size_ascending(self, node: int, cands: Iterable[str]) -> list[str]:
        return sorted(cands, key=lambda f: self.state.size_of(f))

    def _missing_index(
        self, groups: Mapping[int, Sequence[Task]]
    ) -> _MissingIndex:
        return _RescanIndex(self.state)

    def _tentative_cache(self) -> _TentativeCache | None:
        return None


def reference_run_batch(
    batch: Batch,
    platform: Platform,
    scheduler: Scheduler | str,
    **kwargs: Any,
) -> BatchResult:
    """:func:`~repro.core.driver.run_batch` with every oracle swapped in.

    A scheduler given by name is built by :func:`make_reference_scheduler`
    (``scheduler_kwargs`` still apply). The driver's ``Runtime`` name is
    bound to :class:`ReferenceRuntime` for the length of the call and
    restored afterwards, so ``run_batch`` itself needs no flag.
    """
    if isinstance(scheduler, str):
        scheduler = make_reference_scheduler(
            scheduler, **(kwargs.pop("scheduler_kwargs", None) or {})
        )
    saved = driver.Runtime
    setattr(driver, "Runtime", ReferenceRuntime)
    try:
        return driver.run_batch(batch, platform, scheduler, **kwargs)
    finally:
        setattr(driver, "Runtime", saved)
