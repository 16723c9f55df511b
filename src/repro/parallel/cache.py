"""Content-addressed on-disk cache for experiment :class:`Record` results.

Every experiment cell is fully determined by its
:class:`~repro.experiments.runner.ExperimentConfig` (the simulator is
deterministic given the config's seed), so a finished cell can be keyed by
a stable hash of the config and replayed from disk instead of re-simulated.
Entries live under ``.repro-cache/<k[:2]>/<key>.json`` next to the working
directory by default; the key mixes in the package version and a schema
salt so stale results are invalidated whenever the simulation semantics
change.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .. import __version__
from ..experiments.report import Record
from ..obs.core import telemetry

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.runner import ExperimentConfig

__all__ = ["CACHE_SALT", "DEFAULT_CACHE_DIR", "CacheStats", "ResultCache", "config_key"]

# Bump whenever the meaning of a cached Record changes (simulator semantics,
# Record fields, workload generators, ...). Combined with ``__version__`` in
# every key, so version bumps also invalidate.
# v2: ExperimentConfig grew the semantic ``faults`` field — v1 keys were
# hashed without it, so a faulty run could have collided with its fault-free
# twin's cached Record.
# v3: simulated durations are rounded up onto a 2**-30 s grid, so Records
# cached before the grid hold slightly different times.
CACHE_SALT = "repro-cache-v3"

DEFAULT_CACHE_DIR = ".repro-cache"


def _jsonable(value):
    """Make a config value JSON-stable (infinities have no JSON spelling)."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# Config fields that do not affect the simulated Record and therefore must
# not enter the cache key (flipping them would otherwise invalidate every
# cached cell for no reason).
_NON_SEMANTIC_FIELDS = frozenset({"telemetry", "timeseries"})


def config_key(cfg: ExperimentConfig, x: float | str | None = None) -> str:
    """Stable content hash for one experiment cell.

    Includes every *semantic* config field (observability toggles such as
    ``telemetry`` are excluded — they do not change the Record), the
    presentation ``x`` value (it is stored inside the resulting
    :class:`Record`), the package version, and :data:`CACHE_SALT`.
    """
    fields = {
        k: v for k, v in asdict(cfg).items() if k not in _NON_SEMANTIC_FIELDS
    }
    payload = {
        "config": _jsonable(fields),
        "x": _jsonable(x),
        "version": __version__,
        "salt": CACHE_SALT,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def reset(self):
        self.hits = self.misses = self.stores = 0

    def summary(self) -> str:
        return f"{self.hits} hit(s), {self.misses} miss(es), {self.stores} store(d)"


@dataclass
class ResultCache:
    """Directory-backed store mapping config hashes to ``Record`` JSON."""

    root: Path = Path(DEFAULT_CACHE_DIR)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.root = Path(self.root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, cfg: ExperimentConfig, x: float | str | None = None) -> Record | None:
        """Return the cached :class:`Record` for a cell, or ``None`` on miss."""
        path = self.path_for(config_key(cfg, x))
        try:
            with open(path) as fh:
                doc = json.load(fh)
            record = Record(**doc["record"])
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            telemetry.count("repro-cache/misses")
            return None
        self.stats.hits += 1
        telemetry.count("repro-cache/hits")
        return record

    def put(
        self,
        cfg: ExperimentConfig,
        x: float | str | None,
        record: Record,
        manifest: dict | None = None,
    ) -> Path:
        """Persist one finished cell; returns the entry's path.

        ``manifest`` is the cell's per-run manifest fragment (timing plus an
        optional telemetry snapshot, see :mod:`repro.parallel.pool`), stored
        alongside the record for post-hoc aggregation.
        """
        key = config_key(cfg, x)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "key": key,
            "version": __version__,
            "salt": CACHE_SALT,
            "config": _jsonable(asdict(cfg)),
            "x": _jsonable(x),
            "manifest": manifest,
            "record": asdict(record),
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=None)
        os.replace(tmp, path)
        self.stats.stores += 1
        telemetry.count("repro-cache/stores")
        return path

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.rglob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        for sub in sorted(self.root.rglob("*"), reverse=True):
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.rglob("*.json"))
