"""Coupled storage/compute cluster simulation substrate.

Replaces the paper's physical testbeds (OSC compute cluster with XIO or
OSUMED storage) with a deterministic Gantt-chart simulator implementing the
paper's execution model: single-port nodes, serialized storage access, no
staging during execution, per-node disk caches, and the Section 6 dynamic
task-ordering/file-staging runtime.
"""

from .cache import CacheFullError, DiskCache
from .events import AuditTrail, EvictionEvent, ExecEvent, TransferEvent
from .gantt import Interval, Overlay, Timeline, earliest_common_slot
from .platform import (
    MBPS_8GBIT,
    MBPS_100MBIT,
    ComputeNode,
    Platform,
    StorageNode,
    osc_osumed,
    osc_xio,
)
from .runtime import PlannedSource, Runtime, RuntimeStats, StagingPlan
from .state import ClusterState, TransferStats
from .stats import ExecutionResult, TaskRecord
from .trace import TraceEvent, render_ascii, to_chrome_trace, trace_events

__all__ = [
    "ComputeNode",
    "StorageNode",
    "Platform",
    "osc_xio",
    "osc_osumed",
    "MBPS_100MBIT",
    "MBPS_8GBIT",
    "Timeline",
    "Overlay",
    "Interval",
    "earliest_common_slot",
    "DiskCache",
    "CacheFullError",
    "ClusterState",
    "TransferStats",
    "Runtime",
    "RuntimeStats",
    "StagingPlan",
    "PlannedSource",
    "ExecutionResult",
    "TaskRecord",
    "AuditTrail",
    "TransferEvent",
    "ExecEvent",
    "EvictionEvent",
    "TraceEvent",
    "trace_events",
    "render_ascii",
    "to_chrome_trace",
]
