"""Pins the program defect the ``rejoin`` correctness gate found.

The defect shows when S1 is split into a minority partition while S3 is
down (``rejoin_driver(partition_while_down=True)``).  Instance seed 27
then ends with S3 committing gid 1486, which every other site aborted;
instance seeds 0 and 62 end with S3's store diverged from the other
up-to-date sites.  The ``rejoin`` workload partitions S1 before S3's
crash instead, while every site is up, where no seed tried fails.  The
tests fail until the protocol is fixed; then ``strict`` turns the
expected failure into an error, so the markers get removed and the
workload can go back to the harder schedule.
"""

import dataclasses

import pytest

from perfbench.workloads import WORKLOADS, rejoin_driver, run_instance

PARTITION_WHILE_DOWN = dataclasses.replace(
    WORKLOADS["rejoin"], drive=rejoin_driver(partition_while_down=True))


@pytest.mark.xfail(strict=True, reason="EVS rejoin defect: S3 decides gid 1486 "
                   "differently from the other sites")
def test_partition_while_down_instance_27_passes_the_gate():
    assert run_instance(PARTITION_WHILE_DOWN, 27).gate_error is None


@pytest.mark.xfail(strict=True, reason="EVS rejoin defect: S3's replica diverges")
def test_partition_while_down_instance_62_passes_the_gate():
    assert run_instance(PARTITION_WHILE_DOWN, 62).gate_error is None


@pytest.mark.parametrize("seed", [27, 62])
def test_rejoin_workload_passes_the_gate_on_the_same_seeds(seed):
    assert run_instance(WORKLOADS["rejoin"], seed).gate_error is None
