"""Reproducibility: identical inputs must give identical results.

The whole pipeline is seeded (generators and schedulers use
``numpy.random.Generator``; the runtime is deterministic given a plan), so
experiment records must be bit-for-bit repeatable — a requirement for a
reproduction repository.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import osc_osumed, osc_xio
from repro.core import run_batch
from repro.io import batch_to_dict, result_to_dict
from repro.workloads import generate_image_batch, generate_sat_batch

SCHEMES = ("bipartition", "minmin", "jdp", "maxmin", "sufferage")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_twice_identical(scheme):
    platform = osc_xio(4, 4)
    batch = generate_image_batch(24, "high", 4, seed=5)
    a = run_batch(batch, platform, scheme, scheduler_kwargs={"seed": 3})
    b = run_batch(batch, platform, scheme, scheduler_kwargs={"seed": 3})
    da, db = result_to_dict(a), result_to_dict(b)
    # Wall-clock scheduling time differs; everything else must match.
    for d in (da, db):
        d.pop("scheduling_seconds")
        for sb in d["sub_batches"]:
            sb.pop("scheduling_seconds")
    assert da == db


_HASH_SEED_PROBE = """
import hashlib, json
from repro.cluster import osc_osumed
from repro.core import run_batch
from repro.workloads import generate_image_batch
batch = generate_image_batch(32, "high", 4, seed=3)
platform = osc_osumed(num_compute=4, num_storage=4, disk_space_mb=700.0)
result = run_batch(batch, platform, "bipartition")
mappings = [sorted(sb.plan.mapping.items()) for sb in result.sub_batches]
print(hashlib.sha256(json.dumps(mappings).encode()).hexdigest())
"""


def test_disk_repair_independent_of_hash_seed():
    # Under disk pressure BiPartition's Section 5.3 repair drops files
    # from a set in (sharers, -size) order. Without a final tie-break on
    # the file id, ties follow set iteration order, which changes with
    # PYTHONHASHSEED. This batch has such ties: three hash seeds used to
    # give three different schedules.
    src = str(Path(__file__).resolve().parents[2] / "src")
    digests = set()
    for hash_seed in ("0", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_generators_stable_across_calls():
    for gen, level in (
        (generate_image_batch, "medium"),
        (generate_sat_batch, "low"),
    ):
        a = gen(30, level, 4, seed=9)
        b = gen(30, level, 4, seed=9)
        assert batch_to_dict(a) == batch_to_dict(b)


def test_platform_presets_are_value_objects():
    assert osc_xio(4, 4) == osc_xio(4, 4)
    assert osc_osumed(2, 3) == osc_osumed(2, 3)
    assert osc_xio(4, 4) != osc_xio(4, 2)


def test_seed_changes_scheduler_not_simulation():
    """Different scheduler seeds may give different mappings, but the same
    mapping always simulates to the same makespan."""
    platform = osc_xio(4, 4)
    batch = generate_image_batch(24, "high", 4, seed=5)
    r1 = run_batch(batch, platform, "bipartition", scheduler_kwargs={"seed": 1})
    r2 = run_batch(batch, platform, "bipartition", scheduler_kwargs={"seed": 1})
    assert r1.makespan == pytest.approx(r2.makespan, abs=0)
