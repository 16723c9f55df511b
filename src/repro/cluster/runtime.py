"""Dynamic task ordering and file staging — Section 6 of the paper.

Given a mapping of tasks onto compute nodes (from any scheduler), this engine
decides *when* tasks run and *where* each file transfer comes from, by
maintaining Gantt charts for every storage node, compute node and the shared
inter-cluster link (when present):

* Tasks assigned to a node form a *group*; within each group the next task is
  the one with the least *earliest completion time* (ECT), evaluated against
  the current Gantt charts.
* A task's ECT is found by tentatively scheduling its missing file transfers
  one by one, always picking the file with the minimum transfer completion
  time (TCT) over all its possible sources (the storage node holding it, or
  any compute node that has a replica), then placing its execution (local
  read + CPU) after the last transfer.
* Initially the globally best task is committed first, then the best task of
  every other group (re-evaluated after each commit); afterwards, whenever a
  task completes, the next-best task from its group is committed — exactly
  the policy described in the paper.

Single-port model: a transfer occupies both endpoints' timelines; a compute
node's timeline also carries task execution, so no file is staged on a node
while a task executes there (the paper's non-overlap assumption, Eq. 12).

When an IP transfer plan is supplied, source selection follows the plan
instead of the dynamic minimum-TCT rule (with a dynamic fallback if the
planned source no longer holds the file), mirroring the paper's "minor
modification" for realising the IP solution at run time.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

from ..analysis.dims import MB, Count, Seconds
from ..batch import Task
from ..faults import FaultModel
from .cache import CacheFullError
from .events import AuditTrail
from .gantt import Interval, Overlay, Timeline, earliest_common_slot, on_grid
from .platform import Platform
from .state import ClusterState, TransferStats
from .stats import ExecutionResult, TaskRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.timeseries import TimeSeriesProbe

__all__ = ["PlannedSource", "StagingPlan", "Runtime", "RuntimeStats"]

#: One way to stage a file: (tct, kind, source node, start, duration,
#: the overlays the transfer occupies).
_Option = tuple[float, str, int | None, float, float, list[Overlay]]


@dataclass(frozen=True)
class PlannedSource:
    """A transfer source fixed by the IP solution.

    ``kind`` is ``"remote"`` (from the storage cluster) or ``"replica"``
    (from compute node ``source_node``).
    """

    kind: str
    source_node: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("remote", "replica"):
            raise ValueError(f"bad source kind {self.kind!r}")
        if self.kind == "replica" and self.source_node is None:
            raise ValueError("replica source requires source_node")


@dataclass
class StagingPlan:
    """Static staging decisions attached to a sub-batch mapping.

    ``sources`` fixes the source for (file, destination-node) pairs (IP
    scheduler). ``pushes`` are proactive transfers executed before the tasks
    start (the Data-Least-Loaded replications of the JDP baseline).
    """

    sources: dict[tuple[str, int], PlannedSource] = field(default_factory=dict)
    pushes: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class RuntimeStats:
    """Work done by one :class:`Runtime`, summed over its sub-batches.

    ``evaluations`` counts :meth:`Runtime.evaluate` calls and
    ``tentatives_reused`` the looks served from the tentatives kept across
    commits; together they are the evaluations a runtime without reuse
    would make. The two ``dropped_*`` counters split the kept entries
    invalidated by a commit by cause. Collected only when the driver asks
    for telemetry (``Runtime.stats`` stays ``None`` otherwise) and surfaced
    as ``runtime/*`` counters and by ``repro profile``.
    """

    evaluations: Count = 0
    tentatives_reused: Count = 0
    dropped_holder_change: Count = 0
    dropped_slot_overlap: Count = 0

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class _Tentative:
    """A tentatively scheduled task: its transfers and execution slot."""

    task: Task
    node: int
    overlays: dict[str, Overlay]
    transfers: list[tuple[str, str, int | None, float, float]]
    # (file_id, kind, source_node, start, duration)
    transfers_done: Seconds
    exec_start: Seconds
    ect: Seconds
    # Injected transfer failures preceding the successful attempts
    # (fault model only): (file_id, size, kind, source, start, end, attempt).
    failed_attempts: list[tuple[str, float, str, int | None, float, float, int]] = (
        field(default_factory=list)
    )


class _MissingIndex:
    """Incremental per-(node, task) missing-input tracking for one sub-batch.

    ``execute``'s candidate pre-filter ranks every pending task of a group
    by the volume of input bytes not yet on its node. Recomputing that from
    scratch is an O(T·F) scan per commit — O(T²·F) over a sub-batch. This
    index maintains each task's *missing set* event-driven (file placed /
    evicted / node crashed) and exposes the volumes as O(1) lookups.

    Decision identity: the volume is **never** accumulated incrementally —
    float ``+=``/``-=`` would round differently from the reference re-sum
    and the value feeds a ``sorted`` key. Instead, whenever a task's
    missing *set* changes, the volume is recomputed with the reference
    term order (``sum(size_of(f) for f in t.files if f missing)``), so it
    equals the from-scratch scan bit for bit.
    """

    def __init__(
        self, state: ClusterState, groups: Mapping[int, Sequence[Task]]
    ) -> None:
        self.state = state
        # node -> task_id -> set of input files not on the node
        self.miss: dict[int, dict[str, set[str]]] = {}
        # node -> task_id -> missing volume (reference summation order)
        self.mb: dict[int, dict[str, MB]] = {}
        # node -> file -> tasks of that group reading the file
        self.readers: dict[int, dict[str, list[Task]]] = {}
        self.done: set[str] = set()
        for node, tasks in groups.items():
            miss: dict[str, set[str]] = {}
            mb: dict[str, MB] = {}
            readers: dict[str, list[Task]] = {}
            for t in tasks:
                s = {f for f in t.files if not state.has_file(node, f)}
                miss[t.task_id] = s
                mb[t.task_id] = sum(
                    state.size_of(f) for f in t.files if f in s
                )
                for f in t.files:
                    readers.setdefault(f, []).append(t)
            self.miss[node] = miss
            self.mb[node] = mb
            self.readers[node] = readers

    def _refresh(self, node: int, t: Task, s: set[str]) -> None:
        self.mb[node][t.task_id] = sum(
            self.state.size_of(f) for f in t.files if f in s
        )

    def on_place(self, node: int, file_id: str) -> None:
        """``file_id`` became resident on ``node``."""
        readers = self.readers.get(node)
        if readers is None:
            return
        for t in readers.get(file_id, ()):
            if t.task_id in self.done:
                continue
            s = self.miss[node][t.task_id]
            if file_id in s:
                s.discard(file_id)
                self._refresh(node, t, s)

    def on_evict(self, node: int, file_id: str) -> None:
        """``file_id`` left ``node``'s cache (eviction or disk loss)."""
        readers = self.readers.get(node)
        if readers is None:
            return
        for t in readers.get(file_id, ()):
            if t.task_id in self.done:
                continue
            s = self.miss[node][t.task_id]
            if file_id not in s:
                s.add(file_id)
                self._refresh(node, t, s)

    def least_missing(
        self, node: int, pending: Sequence[Task], limit: int
    ) -> list[Task]:
        """The ``limit`` tasks of ``pending`` missing the fewest bytes."""
        mb = self.mb[node]
        return sorted(pending, key=lambda t: mb[t.task_id])[:limit]

    def task_done(self, task_id: str) -> None:
        self.done.add(task_id)

    def drop_node(self, node: int) -> None:
        self.miss.pop(node, None)
        self.mb.pop(node, None)
        self.readers.pop(node, None)


class _TentativeCache:
    """Tentative schedules of one sub-batch, kept across its commits.

    On the exact time grid a kept tentative is what :meth:`Runtime.evaluate`
    would rebuild, until either

    * a file its task reads gains or loses a holder (its sources, a
      replica's availability or the task's own missing set may change), or
    * a committed reservation overlaps one of the tentative's own virtual
      reservations on the same timeline.

    Otherwise every slot it picked is still free and, since a reservation
    only removes feasible starts, still the earliest; every option it
    passed over can only have got later. So ``evaluate`` would pick the same
    files from the same sources in the same slots. :meth:`on_holder_change`
    and :meth:`on_commit` drop the entries that fail either test; entries
    are indexed by file and by timeline so each sweep touches only the
    entries that could be hit.
    """

    def __init__(self) -> None:
        self.entries: dict[tuple[str, int], _Tentative] = {}
        self.by_file: dict[str, set[tuple[str, int]]] = {}
        self.by_timeline: dict[str, set[tuple[str, int]]] = {}
        self.reused = 0
        self.dropped_holder = 0
        self.dropped_overlap = 0

    def get(self, task_id: str, node: int) -> _Tentative | None:
        tent = self.entries.get((task_id, node))
        if tent is not None:
            self.reused += 1
        return tent

    def put(self, tent: _Tentative) -> None:
        key = (tent.task.task_id, tent.node)
        self.entries[key] = tent
        for f in tent.task.files:
            self.by_file.setdefault(f, set()).add(key)
        for name, ov in tent.overlays.items():
            if ov.virtual:
                self.by_timeline.setdefault(name, set()).add(key)

    def discard(self, key: tuple[str, int]) -> None:
        tent = self.entries.pop(key, None)
        if tent is None:
            return
        for f in tent.task.files:
            self.by_file[f].discard(key)
        for name, ov in tent.overlays.items():
            if ov.virtual:
                self.by_timeline[name].discard(key)

    def on_holder_change(self, file_id: str) -> None:
        keys = self.by_file.get(file_id)
        if keys:
            for key in list(keys):
                self.discard(key)
                self.dropped_holder += 1

    def on_commit(self, committed: Mapping[str, list[Interval]]) -> None:
        """Drop entries whose reservations overlap the ones just committed."""
        for name, ivs in committed.items():
            keys = self.by_timeline.get(name)
            if not keys:
                continue
            for key in list(keys):
                virtual = self.entries[key].overlays[name].virtual
                if any(
                    a.start < b.end and b.start < a.end
                    for a in ivs
                    for b in virtual
                ):
                    self.discard(key)
                    self.dropped_overlap += 1

    def clear(self) -> None:
        self.entries.clear()
        self.by_file.clear()
        self.by_timeline.clear()


class Runtime:
    """The Section 6 execution engine over one persistent set of Gantt charts.

    One ``Runtime`` lives for a whole batch run; sub-batches are executed
    sequentially through :meth:`execute`, each starting at the previous
    makespan (the driver applies eviction between them).

    The hot path keeps six caches: memoised transfer sources, hoisted
    remote bandwidths, memoised execution durations, a cached eviction
    order, the missing-bytes candidate index and the tentatives kept
    across commits. Each is reached through one small method, so the
    from-scratch oracle
    (:class:`repro.oracle.ReferenceRuntime`, used only by the differential
    tests and ``repro bench``) can bypass it by overriding that method.
    """

    def __init__(
        self,
        platform: Platform,
        state: ClusterState,
        allow_replication: bool = True,
        candidate_limit: int | None = None,
        ordering: str = "ect",
        overlap_io_compute: bool = False,
        audit: bool = False,
        faults: FaultModel | None = None,
    ) -> None:
        if ordering not in ("ect", "fifo"):
            raise ValueError(f"ordering must be 'ect' or 'fifo', got {ordering!r}")
        self.platform = platform
        self.state = state
        self.allow_replication = allow_replication
        self.candidate_limit = candidate_limit
        self.ordering = ordering
        # The paper assumes no file is staged on a node while a task runs
        # there (Eq. 12): port and CPU share one timeline. Setting
        # ``overlap_io_compute`` relaxes that (a future-work ablation):
        # execution moves to a dedicated per-node CPU timeline so staging
        # for the next task can proceed during computation.
        self.overlap_io_compute = overlap_io_compute
        self.clock: Seconds = 0.0
        self.node_tl = [Timeline(f"compute{i}") for i in range(platform.num_compute)]
        self.cpu_tl = (
            [Timeline(f"cpu{i}") for i in range(platform.num_compute)]
            if overlap_io_compute
            else None
        )
        self.storage_tl = [
            Timeline(f"storage{s}") for s in range(platform.num_storage)
        ]
        self.link_tl = (
            Timeline("shared-link") if platform.shared_link_bw is not None else None
        )
        # (node, file) -> absolute time the copy becomes usable
        self._avail: dict[tuple[int, str], float] = {}
        # -- hot-path caches ------------------------------------------------
        # Remote bandwidth per storage node: a pure function of the platform,
        # hoisted out of the per-transfer inner loop.
        self._remote_bw = self._remote_bandwidths()
        # (file, dest) -> (holders snapshot, source list). Valid while the
        # state still hands out the *same* holders frozenset (identity check);
        # any replication/eviction/crash of the file drops that snapshot.
        self._src_memo: dict[
            tuple[str, int], tuple[frozenset[int], list[tuple[str, int | None]]]
        ] = {}
        # (task, node) -> execution duration (local reads + CPU): pure in the
        # platform and the immutable file catalog.
        self._exec_dur: dict[tuple[str, int], float] = {}
        # node -> (cache.mutations stamp, size-ascending resident files)
        self._vorder: dict[int, tuple[int, list[str]]] = {}
        # Missing-bytes index of the sub-batch being executed (None outside
        # `execute` and when no candidate limit applies).
        self._mindex: _MissingIndex | None = None
        # Tentatives of the sub-batch being executed, reused across its
        # commits (None outside `execute`).
        self._tcache: _TentativeCache | None = None
        # Fault injection (None = the null model: the same staging loop
        # runs with no fault draws, bit-identical to a faultless build).
        self.faults = faults
        # (file, dest) -> completed staging sessions, so repeated stagings
        # of the same file draw fresh failure outcomes. Only advanced at
        # commit time, keeping speculative ECT evaluations consistent.
        self._xfer_instance: dict[tuple[str, int], int] = {}
        # Commit-ordered event log for the schedule auditor
        # (repro.analysis.audit); None keeps the hot path allocation-free.
        self.trail: AuditTrail | None = None
        if audit:
            self.trail = AuditTrail(
                initial_holdings={
                    n: {f: state.size_of(f) for f in state.files_on(n)}
                    for n in range(platform.num_compute)
                    if state.files_on(n)
                }
            )
        # Simulated-time series probe (repro.obs.timeseries), assigned by
        # the driver when run_batch(timeseries=...) is enabled. None keeps
        # every hook a single attribute test: the disabled path allocates
        # nothing, mirroring the null audit trail above.
        self.probe: TimeSeriesProbe | None = None
        # Ready-task depth of the sub-batch currently executing (tasks
        # mapped but not yet committed); maintained unconditionally so the
        # probe's ready-queue gauge costs only integer arithmetic.
        self._ready_count: int = 0
        # Work counters, assigned by the driver when telemetry is on; None
        # keeps the hot path to one attribute test, like the probe above.
        self.stats: RuntimeStats | None = None

    # -- resource helpers -------------------------------------------------------
    def _overlay(self, overlays: dict[str, Overlay], tl: Timeline) -> Overlay:
        ov = overlays.get(tl.name)
        if ov is None:
            ov = overlays[tl.name] = Overlay(tl)
        return ov

    def _avail_time(self, node: int, file_id: str) -> Seconds:
        return self._avail.get((node, file_id), self.clock)

    def _remote_bandwidths(self) -> Sequence[float]:
        """Remote bandwidth of every storage node, indexed by node."""
        return [
            self.platform.remote_bandwidth(s)
            for s in range(self.platform.num_storage)
        ]

    # -- source enumeration --------------------------------------------------------
    def _dynamic_sources(
        self, file_id: str, dest: int
    ) -> list[tuple[str, int | None]]:
        """All places ``file_id`` can come from: ``(kind, source_node)``.

        The list is memoised per ``(file, dest)``, keyed on the *identity*
        of the holders snapshot: :meth:`ClusterState.holders` returns one
        cached frozenset until the holder set mutates, so ``hit is
        holders`` proves nothing changed since the memo was built and the
        same enumeration (frozenset order is content-determined) would be
        rebuilt anyway.
        """
        holders = self.state.holders(file_id)
        key = (file_id, dest)
        hit = self._src_memo.get(key)
        if hit is not None and hit[0] is holders:
            return hit[1]
        sources: list[tuple[str, int | None]] = [("remote", None)]
        if self.allow_replication:
            for holder in holders:
                if holder != dest:
                    sources.append(("replica", holder))
        self._src_memo[key] = (holders, sources)
        return sources

    def _sources_for(
        self, file_id: str, dest: int, plan: StagingPlan | None
    ) -> list[tuple[str, int | None]]:
        if plan is not None:
            planned = plan.sources.get((file_id, dest))
            if planned is not None:
                if planned.kind == "remote":
                    return [("remote", None)]
                src = planned.source_node
                assert src is not None
                if self.state.has_file(src, file_id):
                    return [("replica", src)]
                # Planned replica source lost (evicted): dynamic fallback.
        return self._dynamic_sources(file_id, dest)

    # -- transfer timing ------------------------------------------------------------
    def _transfer_resources(
        self, kind: str, source_node: int | None, dest: int, file_id: str,
        overlays: dict[str, Overlay],
    ) -> tuple[list[Overlay], float, Seconds]:
        """Overlays involved in a transfer, its bandwidth and earliest start."""
        dest_ov = self._overlay(overlays, self.node_tl[dest])
        if kind == "remote":
            storage = self.state.storage_node_of(file_id)
            res = [dest_ov, self._overlay(overlays, self.storage_tl[storage])]
            if self.link_tl is not None:
                res.append(self._overlay(overlays, self.link_tl))
            bw = self._remote_bw[storage]
            ready = self.clock
        else:
            assert source_node is not None
            res = [dest_ov, self._overlay(overlays, self.node_tl[source_node])]
            bw = self.platform.replication_bandwidth
            ready = self._avail_time(source_node, file_id)
        return res, bw, ready

    # -- source selection ---------------------------------------------------------------
    def _best_source(
        self,
        file_id: str,
        node: int,
        plan: StagingPlan | None,
        overlays: dict[str, Overlay],
        floor: Seconds,
        exclude: frozenset[tuple[str, int | None]] = frozenset(),
    ) -> _Option | None:
        """Min-TCT source for one transfer of ``file_id`` onto ``node``.

        Returns ``(tct, kind, source, start, duration, resources)`` for the
        first source with the least transfer completion time, or ``None``
        when every candidate is excluded or crash-unreachable. Without a
        fault model the duration is ``size / bw`` and no candidate is ever
        dropped; with one, link slowdowns stretch the duration and a
        replica whose node crashes mid-copy is skipped. Either way the
        duration is rounded up onto the time grid (:func:`on_grid`).
        """
        faults = self.faults
        size = self.state.size_of(file_id)
        best: _Option | None = None
        for kind, src in self._sources_for(file_id, node, plan):
            if exclude and (kind, src) in exclude:
                continue
            res, bw, ready = self._transfer_resources(
                kind, src, node, file_id, overlays
            )
            not_before = floor if floor > ready else ready
            if faults is None:
                duration = on_grid(size / bw)
            else:
                # Link slowdown windows divide bandwidth; the factor is
                # sampled at the transfer's earliest possible start
                # (deterministic even though the slot may land later).
                duration = on_grid(
                    size * faults.slowdown_factor(kind, not_before) / bw
                )
            start = earliest_common_slot(res, duration, not_before)
            tct = start + duration
            if (
                faults is not None
                and src is not None
                and tct > faults.crash_time(src)
            ):
                continue  # replica node dies mid-copy: not a usable source
            if best is None or tct < best[0]:
                best = (tct, kind, src, start, duration, res)
        return best

    def _retry_until_success(
        self,
        file_id: str,
        node: int,
        plan: StagingPlan | None,
        overlays: dict[str, Overlay],
        first: _Option,
        failed: list[tuple[str, float, str, int | None, float, float, int]],
    ) -> _Option:
        """Run one file's staging session under the fault model.

        ``first`` is attempt 0 (the option the file was picked by). A
        failed attempt occupies its slot (tagged ``xfail:``) and is logged
        in ``failed``; the next attempt starts after an exponential
        backoff and prefers the next-cheapest source not yet tried this
        session, cycling through exhausted sources again when none is
        left. Draw outcomes are pure functions of ``(seed, file, dest,
        instance, attempt)``, so this speculative evaluation matches the
        eventual commit exactly. Returns the successful attempt.
        """
        faults = self.faults
        assert faults is not None
        instance = self._xfer_instance.get((file_id, node), 0)
        tried: set[tuple[str, int | None]] = set()
        opt = first
        attempt = 0
        while faults.transfer_fails(file_id, node, instance, attempt):
            tct, kind, src, start, duration, res = opt
            for ov in res:
                ov.reserve(start, duration, tag=f"xfail:{file_id}->{node}")
            size = self.state.size_of(file_id)
            failed.append((file_id, size, kind, src, start, tct, attempt))
            tried.add((kind, src))
            floor = tct + on_grid(faults.backoff(attempt))
            attempt += 1
            nxt = self._best_source(
                file_id, node, plan, overlays, floor, frozenset(tried)
            )
            if nxt is None:
                tried.clear()  # every source tried: cycle through again
                nxt = self._best_source(file_id, node, plan, overlays, floor)
            if nxt is None:
                nxt = self._best_source(file_id, node, None, overlays, floor)
            assert nxt is not None
            opt = nxt
        return opt

    # -- tentative evaluation (ECT) ---------------------------------------------------
    def evaluate(
        self, task: Task, node: int, plan: StagingPlan | None = None
    ) -> _Tentative:
        """Tentatively schedule ``task`` on ``node``; nothing is committed.

        Missing files are staged one at a time, always the one whose best
        source (:meth:`_best_source`) completes first — the paper's
        min-TCT rule. Under a fault model the picked option is attempt 0
        of that file's retry chain (:meth:`_retry_until_success`).
        """
        overlays: dict[str, Overlay] = {}
        clock = self.clock
        remaining = [f for f in task.files if not self.state.has_file(node, f)]
        # Inputs already resident (possibly since an earlier sub-batch)
        # count as arriving no earlier than the clock.
        transfers_done = max(
            [clock]
            + [self._avail_time(node, f) for f in task.files if f not in remaining]
        )
        transfers: list[tuple[str, str, int | None, float, float]] = []
        failed_attempts: list[
            tuple[str, float, str, int | None, float, float, int]
        ] = []
        while remaining:
            pick: _Option | None = None
            pick_file = ""
            for f in remaining:
                opt = self._best_source(f, node, plan, overlays, clock)
                if opt is None:  # planned source unusable: dynamic fallback
                    opt = self._best_source(f, node, None, overlays, clock)
                assert opt is not None  # the storage cluster never crashes
                if pick is None or opt[0] < pick[0]:
                    pick, pick_file = opt, f
            assert pick is not None
            if self.faults is not None:
                pick = self._retry_until_success(
                    pick_file, node, plan, overlays, pick, failed_attempts
                )
            tct, kind, src, start, duration, res = pick
            for ov in res:
                ov.reserve(start, duration, tag=f"xfer:{pick_file}->{node}")
            transfers.append((pick_file, kind, src, start, duration))
            transfers_done = max(transfers_done, tct)
            remaining.remove(pick_file)

        # Execution: local read of all inputs plus CPU time, after every
        # input file is available. Runs on the node timeline (port + CPU
        # mutually exclusive, the paper's model) or on the dedicated CPU
        # timeline in overlap mode.
        exec_dur = self._exec_dur.get((task.task_id, node))
        if exec_dur is None:
            exec_dur = self._exec_duration(task, node)
        exec_tl = (
            self.cpu_tl[node] if self.cpu_tl is not None else self.node_tl[node]
        )
        dest_ov = self._overlay(overlays, exec_tl)
        exec_start = dest_ov.earliest_slot(exec_dur, transfers_done)
        dest_ov.reserve(exec_start, exec_dur, tag=f"exec:{task.task_id}")
        return _Tentative(
            task=task,
            node=node,
            overlays=overlays,
            transfers=transfers,
            transfers_done=transfers_done,
            exec_start=exec_start,
            ect=exec_start + exec_dur,
            failed_attempts=failed_attempts,
        )

    def _exec_duration(self, task: Task, node: int) -> Seconds:
        """Local read of every input plus CPU time of ``task`` on ``node``.

        Rounded up onto the time grid. Pure in the platform and the
        immutable file catalog, so the result is memoised per (task, node);
        :meth:`evaluate` reads the memo first and calls this only on a miss.
        """
        read = sum(
            self.platform.local_read_time(node, self.state.size_of(f))
            for f in task.files
        )
        dur = on_grid(
            read + self.platform.task_compute_time(node, task.compute_time)
        )
        self._exec_dur[(task.task_id, node)] = dur
        return dur

    # -- committing ---------------------------------------------------------------------
    def _commit(
        self,
        tent: _Tentative,
        victim_order: Callable[[int, Iterable[str]], list[str]],
    ) -> TaskRecord:
        """Write a tentative schedule through to the real Gantt charts."""
        node = tent.node
        cache = self.state.caches[node]

        # Pin the already-present inputs first so on-demand eviction cannot
        # take files this task is about to use. Each such input is an access
        # served by the disk cache rather than a transfer.
        incoming_ids = {f for f, *_ in tent.transfers}
        for f in tent.task.files:
            if f not in incoming_ids:
                cache.pin(f)
                size = self.state.size_of(f)
                carried = self.state.record_cache_hit(size, node, f)
                if self.trail is not None and self.state.carryover_active:
                    # Online sessions only: log every hit with its
                    # cross-batch attribution so the auditor's E8 replay
                    # can verify it; single-batch trails stay unchanged.
                    self.trail.record_cache_hit(node, f, size, carried)

        # Make room for the incoming files, evicting per policy.
        needed = sum(self.state.size_of(f) for f in incoming_ids)
        if needed > 0:
            cache.ensure_space(
                needed,
                victim_order=lambda cands: victim_order(node, cands),
                on_evict=lambda fid: self._on_evict(node, fid),
            )

        tcache = self._tcache
        if tcache is not None:
            tcache.on_commit(
                {name: ov.virtual for name, ov in tent.overlays.items() if ov.virtual}
            )
        for ov in tent.overlays.values():
            ov.commit()
        if self.faults is not None:
            self._commit_fault_accounting(tent)
        for f, kind, src, start, duration in tent.transfers:
            size = self.state.size_of(f)
            self.state.place(node, f, now=start + duration)
            if self._mindex is not None:
                self._mindex.on_place(node, f)
            if tcache is not None:
                tcache.on_holder_change(f)
            self._avail[(node, f)] = start + duration
            cache.pin(f)
            if kind == "remote":
                self.state.record_remote(size)
            else:
                self.state.record_replication(size)
            if self.trail is not None:
                self.trail.record_transfer(
                    f, size, kind, src, node, start, start + duration
                )
        for f in tent.task.files:
            cache.touch(f, tent.ect)
        if self.trail is not None:
            self.trail.record_exec(
                tent.task.task_id, node, tuple(tent.task.files),
                tent.exec_start, tent.ect,
            )
        if self.probe is not None:
            self.probe.on_commit(self, tent)
        return TaskRecord(
            task_id=tent.task.task_id,
            node=node,
            transfers_done=tent.transfers_done,
            exec_start=tent.exec_start,
            completion=tent.ect,
        )

    def _commit_fault_accounting(self, tent: _Tentative) -> None:
        """Fold a committed task's fault history into stats and the trail.

        Runs at commit time only, so speculative evaluations never touch
        counters. Failed attempts are recorded before their file's
        successful transfer, preserving E7's "failure then recovery" order
        in the commit sequence.
        """
        faults = self.faults
        assert faults is not None
        node = tent.node
        for f, _kind, _src, _start, _duration in tent.transfers:
            self._xfer_instance[(f, node)] = (
                self._xfer_instance.get((f, node), 0) + 1
            )
        if not tent.failed_attempts:
            return
        chains: dict[str, list[tuple[str, float, str, int | None, float, float, int]]] = {}
        for fa in tent.failed_attempts:
            chains.setdefault(fa[0], []).append(fa)
        success_source = {
            f: (kind, src) for f, kind, src, _start, _duration in tent.transfers
        }
        stats = faults.stats
        for f, fails in chains.items():
            fails.sort(key=lambda fa: fa[6])
            stats.transfer_failures += len(fails)
            stats.retries += len(fails)
            sources = [(fa[2], fa[3]) for fa in fails] + [success_source[f]]
            stats.failovers += sum(
                1 for a, b in zip(sources, sources[1:]) if a != b
            )
            if self.trail is not None:
                for file_id, size, kind, src, start, end, attempt in fails:
                    self.trail.record_failed_transfer(
                        file_id, size, kind, src, node, start, end, attempt
                    )
            if self.probe is not None:
                self.probe.on_retry(node, f, fails[0][4], len(fails))

    def _on_evict(self, node: int, file_id: str) -> None:
        # ensure_space has already dropped the cache entry; mirror the global
        # holder map, availability table and statistics.
        if self.trail is not None:
            self.trail.record_eviction(node, file_id, self.state.size_of(file_id))
        self.state.note_evicted(node, file_id)
        self._avail.pop((node, file_id), None)
        if self._mindex is not None:
            self._mindex.on_evict(node, file_id)
        if self._tcache is not None:
            self._tcache.on_holder_change(file_id)
        if self.probe is not None:
            self.probe.on_evict(node, self.state.size_of(file_id))

    def _size_ascending(self, node: int, cands: Iterable[str]) -> list[str]:
        """Default eviction order: smallest candidate files first.

        Equivalent to ``sorted(cands, key=size_of)``: the candidate list the
        cache passes in is a subsequence of its insertion order with
        distinct elements, so filtering the (stable) size-sorted order of
        *all* resident files down to the candidate set yields the same
        sequence as stable-sorting the candidates directly. The full order
        is cached per node and revalidated against the cache's membership
        mutation counter instead of being rebuilt per eviction query.
        """
        cache = self.state.caches[node]
        stamp = cache.mutations
        entry = self._vorder.get(node)
        if entry is None or entry[0] != stamp:
            order = sorted(cache.files, key=self.state.size_of)
            self._vorder[node] = (stamp, order)
        else:
            order = entry[1]
        cs = set(cands)
        return [f for f in order if f in cs]

    def _release(self, task: Task, node: int) -> None:
        if node in self.state.dead_nodes:
            return  # the node's cache died with it; nothing left to unpin
        cache = self.state.caches[node]
        for f in task.files:
            cache.unpin(f)

    # -- fault application --------------------------------------------------------------
    def _kill_node(self, node: int, time: Seconds) -> None:
        """Permanently fail ``node``: drop its cache and log the crash."""
        faults = self.faults
        assert faults is not None
        lost = self.state.mark_dead(node)
        faults.stats.node_crashes += 1
        faults.stats.files_lost += len(lost)
        faults.stats.lost_mb += sum(size for _, size in lost)
        for key in [k for k in self._avail if k[0] == node]:
            del self._avail[key]
        if self._mindex is not None:
            self._mindex.drop_node(node)
        if self._tcache is not None:
            self._tcache.clear()
        if self.trail is not None:
            self.trail.record_crash(node, time, tuple(lost))
        if self.probe is not None:
            self.probe.on_crash(node, time, len(lost))

    def _apply_timed_faults(
        self, victim_order: Callable[[int, Iterable[str]], list[str]]
    ) -> None:
        """Inject faults whose simulated time has already passed.

        Called at every :meth:`execute` entry: crashes and disk losses
        scheduled before the current clock take effect between sub-batches
        (mid-sub-batch crashes are caught by the commit-time guard in the
        main loop instead).
        """
        faults = self.faults
        assert faults is not None
        for idx, loss in enumerate(faults.spec.disk_losses):
            # Applied-loss dedup lives on the fault model, not the runtime:
            # online sessions share one model across per-batch runtimes, so
            # each injected loss shrinks a disk exactly once per stream.
            if idx in faults.applied_disk_losses or loss.time > self.clock:
                continue
            faults.applied_disk_losses.add(idx)
            if (
                loss.node in self.state.dead_nodes
                or not 0 <= loss.node < self.platform.num_compute
            ):
                continue
            node = loss.node
            self.state.caches[node].shrink(
                loss.lost_mb,
                victim_order=lambda cands: victim_order(node, cands),
                on_evict=lambda fid: self._on_evict(node, fid),
            )
            faults.stats.disk_losses += 1
        for node in range(self.platform.num_compute):
            if node in self.state.dead_nodes:
                continue
            crash_at = faults.crash_time(node)
            if crash_at <= self.clock:
                self._kill_node(node, crash_at)

    # -- proactive pushes (Data Least Loaded) ------------------------------------------
    def _stage_push(self, file_id: str, dest: int,
                    victim_order: Callable[[int, Iterable[str]], list[str]]) -> None:
        """Proactively replicate ``file_id`` onto ``dest`` (DLL baseline)."""
        if self.state.has_file(dest, file_id):
            return
        if dest in self.state.dead_nodes:
            return  # dead destination: the push is silently skipped
        size = self.state.size_of(file_id)
        cache = self.state.caches[dest]
        try:
            cache.ensure_space(
                size,
                victim_order=lambda cands: victim_order(dest, cands),
                on_evict=lambda fid: self._on_evict(dest, fid),
            )
        except CacheFullError:
            return  # skip the push rather than fail the run
        overlays: dict[str, Overlay] = {}
        best = self._best_source(file_id, dest, None, overlays, self.clock)
        assert best is not None  # the storage cluster never crashes
        tct, kind, src, start, duration, res = best
        if self.faults is not None and tct > self.faults.crash_time(dest):
            return  # push would outlive the destination: skip it
        for ov in res:
            ov.reserve(start, duration, tag=f"push:{file_id}->{dest}")
        for ov in overlays.values():
            ov.commit()
        self.state.place(dest, file_id, now=tct)
        self._avail[(dest, file_id)] = tct
        if kind == "remote":
            self.state.record_remote(size)
        else:
            self.state.record_replication(size)
        if self.trail is not None:
            self.trail.record_transfer(
                file_id, size, kind, src, dest, start, tct, push=True
            )
        if self.probe is not None:
            self.probe.on_push(self, dest, kind, src, start, tct)

    # -- main loop ---------------------------------------------------------------------
    def _missing_index(self, groups: Mapping[int, Sequence[Task]]) -> _MissingIndex:
        """The candidate pre-filter's missing-bytes index for one sub-batch."""
        return _MissingIndex(self.state, groups)

    def _tentative_cache(self) -> _TentativeCache | None:
        """Where one sub-batch keeps its tentatives across commits."""
        return _TentativeCache()

    def execute(
        self,
        tasks: Sequence[Task],
        mapping: Mapping[str, int],
        plan: StagingPlan | None = None,
        victim_order: Callable[[int, Iterable[str]], list[str]] | None = None,
    ) -> ExecutionResult:
        """Execute a sub-batch; returns timings and advances the clock.

        ``mapping`` sends every task id to a compute node. ``victim_order``
        ranks eviction candidates (most evictable first) for on-demand cache
        eviction; default is size-ascending.
        """
        if victim_order is None:
            victim_order = self._size_ascending

        start_time = self.clock
        failed: list[str] = []
        if self.faults is not None:
            self._apply_timed_faults(victim_order)
        for t in tasks:
            if t.task_id not in mapping:
                raise ValueError(f"task {t.task_id} missing from mapping")
            n = mapping[t.task_id]
            if not 0 <= n < self.platform.num_compute:
                raise ValueError(f"task {t.task_id} mapped to bad node {n}")
        self._ready_count = len(tasks)

        if plan is not None:
            for file_id, dest in plan.pushes:
                self._stage_push(file_id, dest, victim_order)

        groups: dict[int, list[Task]] = {}
        for t in tasks:
            groups.setdefault(mapping[t.task_id], []).append(t)

        # Tasks mapped onto an already-dead node cannot run at all; hand
        # them straight back to the driver for rescheduling.
        for node in [n for n in groups if n in self.state.dead_nodes]:
            failed.extend(t.task_id for t in groups.pop(node))
        self._ready_count = sum(len(g) for g in groups.values())

        base_stats = replace(self.state.stats)

        # Candidate pre-filter index: built after pushes and dead-group
        # removal so it sees the placement state the sub-batch starts
        # from; kept current by the _commit/_on_evict/_kill_node hooks.
        self._mindex = None
        if self.candidate_limit is not None and self.ordering == "ect":
            self._mindex = self._missing_index(groups)
        self._tcache = tcache = self._tentative_cache()
        stats = self.stats

        records: list[TaskRecord] = []
        events: list[tuple[float, int, int, Task]] = []  # (ect, seq, node, task)
        seq = 0

        def candidates(node: int) -> list[Task]:
            pend = groups[node]
            if self.ordering == "fifo":
                return pend[:1]  # ablation mode: submission order, no ECT scan
            if self.candidate_limit is None or len(pend) <= self.candidate_limit:
                return pend
            # Cheap pre-filter: tasks needing the least missing volume first.
            assert self._mindex is not None
            return self._mindex.least_missing(node, pend, self.candidate_limit)

        def best_of(node: int) -> _Tentative:
            tents = []
            for t in candidates(node):
                tent = tcache.get(t.task_id, node) if tcache is not None else None
                if tent is None:
                    tent = self.evaluate(t, node, plan)
                    if stats is not None:
                        stats.evaluations += 1
                    if tcache is not None:
                        tcache.put(tent)
                tents.append(tent)
            return min(tents, key=lambda x: x.ect)

        def commit_next(node: int) -> None:
            nonlocal seq
            tent = best_of(node)
            if tcache is not None:
                tcache.discard((tent.task.task_id, node))
            if self.faults is not None and tent.ect > self.faults.crash_time(node):
                # The node dies before its next-best task could complete:
                # declare it crashed now. Everything already committed here
                # finished before the crash instant (each commit passed this
                # same guard), so E6 holds; the unfinished remainder of the
                # group goes back to the driver's pending pool.
                self._kill_node(node, self.faults.crash_time(node))
                dropped = groups.pop(node)
                failed.extend(t.task_id for t in dropped)
                self._ready_count -= len(dropped)
                return
            groups[node].remove(tent.task)
            self._ready_count -= 1
            if not groups[node]:
                del groups[node]
            if self._mindex is not None:
                self._mindex.task_done(tent.task.task_id)
            records.append(self._commit(tent, victim_order))
            heapq.heappush(events, (tent.ect, seq, node, tent.task))
            seq += 1

        # Initial commits: globally best first, then each remaining group's
        # best in ECT order (re-evaluated after every commit).
        uncommitted = set(groups)
        while uncommitted:
            best_node = None
            best_ect = float("inf")
            for node in uncommitted:
                tent = best_of(node)
                if tent.ect < best_ect:
                    best_node, best_ect = node, tent.ect
            assert best_node is not None
            commit_next(best_node)
            uncommitted.discard(best_node)
            uncommitted &= set(groups)

        # Event loop: when a task completes, schedule that group's next task.
        makespan = start_time
        while events:
            ect, _, node, task = heapq.heappop(events)
            makespan = max(makespan, ect)
            self._release(task, node)
            if node in groups:
                commit_next(node)

        self.clock = max(self.clock, makespan)
        self._mindex = None
        self._tcache = None
        if stats is not None and tcache is not None:
            stats.tentatives_reused += tcache.reused
            stats.dropped_holder_change += tcache.dropped_holder
            stats.dropped_slot_overlap += tcache.dropped_overlap
        delta = TransferStats(
            self.state.stats.remote_transfers - base_stats.remote_transfers,
            self.state.stats.remote_volume_mb - base_stats.remote_volume_mb,
            self.state.stats.replications - base_stats.replications,
            self.state.stats.replication_volume_mb
            - base_stats.replication_volume_mb,
            self.state.stats.evictions - base_stats.evictions,
            self.state.stats.evicted_volume_mb - base_stats.evicted_volume_mb,
            self.state.stats.cache_hits - base_stats.cache_hits,
            self.state.stats.cache_hit_volume_mb - base_stats.cache_hit_volume_mb,
            self.state.stats.cross_batch_hits - base_stats.cross_batch_hits,
            self.state.stats.cross_batch_hit_volume_mb
            - base_stats.cross_batch_hit_volume_mb,
        )
        return ExecutionResult(
            start_time=start_time,
            makespan=makespan,
            records=records,
            stats=delta,
            failed_tasks=failed,
        )
