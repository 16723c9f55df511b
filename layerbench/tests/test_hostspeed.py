"""Host-speed scaling and the seeds of a run's inputs."""

import pytest

import hostspeed
import run


def test_reference_seconds_divides_by_the_bracketing_kernel_times():
    seconds = hostspeed.reference_seconds(2.0, before=0.08, after=0.12)
    assert seconds == pytest.approx(2.0 * hostspeed.REF_KERNEL_S / 0.10)


def test_a_host_at_reference_speed_is_not_rescaled():
    ref = hostspeed.REF_KERNEL_S
    assert hostspeed.reference_seconds(1.5, ref, ref) == pytest.approx(1.5)


def test_the_kernel_is_fixed_work():
    assert hostspeed.reference_kernel() == hostspeed.reference_kernel()


def test_samples_are_recorded():
    speed = hostspeed.HostSpeed()
    first = speed.sample()
    speed.sample()
    assert len(speed.samples) == 2 and speed.samples[0] == first > 0


def test_runs_with_different_seeds_share_no_input():
    seeds = [run.input_seeds(seed) for seed in range(5)]
    assert all(len(s) == run.INPUTS_PER_RUN for s in seeds)
    flat = [x for s in seeds for x in s]
    assert len(set(flat)) == len(flat)
    assert run.input_seeds(3) == run.input_seeds(3)
