"""The host-speed kernel and the slice clock that runs it."""

import gc

import pytest

from perfbench import hostspeed, workloads
from perfbench.hostspeed import Probe


def test_kernel_is_repeatable_and_leaves_the_collector_alone():
    probe = Probe()
    first = probe.kernel()
    gc.collect()
    before = gc.get_count()[0]
    for _ in range(50):
        assert probe.kernel() == first
    # Fewer new tracked objects than calls: none comes from the kernel.
    assert gc.get_count()[0] - before < 50


def test_factor_is_kernel_time_over_nominal_damped():
    probe = Probe()
    probe.run(4)
    assert probe.calls == 4
    assert probe.wall_factor() == pytest.approx(
        (probe.wall / (4 * hostspeed.NOMINAL_S)) ** hostspeed.SENSITIVITY)
    assert probe.wall_factor() > 0 and probe.cpu_factor() > 0


def test_slicing_does_not_change_the_outputs(monkeypatch):
    workload = workloads.WORKLOADS["hotspot"]
    sliced = workloads.run_instance(workload, 5)
    unsliced = workloads.run_instance(workload, 5, host_speed=False)
    assert sliced.gate_error is None
    assert sliced.fingerprint == unsliced.fingerprint
    assert sliced.wall_factor > 0 and unsliced.wall_factor is None
    # One slice per run call: the same events in fewer, longer runs.
    monkeypatch.setattr(workloads, "SLICE_S", 1e9)
    assert workloads.run_instance(workload, 5).fingerprint == sliced.fingerprint
