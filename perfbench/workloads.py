"""The benchmark's workloads and the measurement of one workload instance.

A workload instance builds a cluster from a seed, reaches all-ACTIVE
(set-up), then drives load through the library's public API and lets
the cluster settle (the measured region).  Load is generated on the
simulator's virtual clock, so the generator never runs late: wall-clock
slowness shows only in the wall and CPU figures, and every virtual-time
figure is a pure function of the seed.

Network: every message takes 0.5-1.5 ms of virtual time, drawn
uniformly per message (``UniformLatency(0.0005, 0.0015)``).  A fixed
delay would make every uncontended commit take exactly the same
virtual time, so the median commit latency could not tell two seeds or
two protocol versions apart.

WAL flush policy: the ``NodeConfig`` default on every site - each
commit and abort record forces a flush, and a checkpoint runs every
``checkpoint_interval`` = 1.0 virtual s.

Host speed: a fixed kernel (hostspeed.py) runs after set-up and after
every SLICE_S of virtual time in the measured region, so each instance
carries the factor by which the host ran slower than nominal while it
was measured.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checkers import ConsistencyViolation, run_all_checks
from repro.client.session import ClientFleet
from repro.cluster import Cluster, ClusterBuilder
from repro.net.latency import UniformLatency
from repro.obs import collect_cluster_metrics
from repro.obs.epochs import EpochRecord, extract_epochs
from repro.replication.node import SiteStatus
from repro.tracing import Tracer, attach_tracer
from repro.workload.generator import LoadGenerator, WorkloadConfig

from perfbench.hostspeed import Probe

LATENCY = (0.0005, 0.0015)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Workload instances per measurement cycle.  Instance ``k`` of a run
    #: with seed ``s`` uses seed ``s * instances + k``, so one run pools
    #: several seeds and its figures vary less from seed to seed.  The
    #: traced run uses only the first of them.
    instances: int
    build: Callable[[int], Cluster]
    drive: Callable[[Cluster], "Driven"]


@dataclass
class Driven:
    """What a driver leaves behind for the measurement."""

    submitted: int
    committed: int
    #: Submissions without a definite, correct answer: unresolved at the
    #: end, lost or in doubt after a crash, or exhausted retries.  A
    #: certification abort is a definite answer and is not counted here;
    #: it shows in ``commit_ratio``.
    failed: int
    aborted: int
    #: Virtual submit -> commit time of each committed transaction (for
    #: closed-loop clients: submit -> settled, retries included).
    latencies: List[float]
    sessions: Optional[list] = None
    attempts: int = 0
    failovers: int = 0


# ----------------------------------------------------------------------
# steady / hotspot: open-loop Poisson load, no faults
# ----------------------------------------------------------------------
def _build_vs(seed: int) -> Cluster:
    return ClusterBuilder(n_sites=5, db_size=200, seed=seed,
                          latency=UniformLatency(*LATENCY)).build()


def _open_loop(config: WorkloadConfig, duration: float) -> Callable[[Cluster], Driven]:
    def drive(cluster: Cluster) -> Driven:
        load = LoadGenerator(cluster, config)
        load.start()
        cluster.run_for(duration)
        load.stop()
        cluster.settle(0.5)
        load.metrics()  # refreshes in_doubt / lost_to_crash
        committed = load.committed()
        return Driven(
            submitted=len(load.transactions) + load.skipped,
            committed=len(committed),
            failed=(len(load.unresolved()) + load.skipped + load.in_doubt
                    + load.lost_to_crash),
            aborted=len(load.aborted()),
            latencies=[t.latency for t in committed],
        )

    return drive


# ----------------------------------------------------------------------
# rejoin: closed-loop clients through a rolling crash/recover schedule
# ----------------------------------------------------------------------
REJOIN_DB_SIZE = 4000
REJOIN_ORDER = ("S2", "S3", "S4", "S5")
#: Virtual seconds of normal processing before each crash.
REJOIN_DWELL = 0.5
#: Each crashed site stays down this long.
REJOIN_DOWN = 0.6


def _build_rejoin(seed: int) -> Cluster:
    return ClusterBuilder(n_sites=5, db_size=REJOIN_DB_SIZE, seed=seed, mode="evs",
                          strategy="full", latency=UniformLatency(*LATENCY)).build()


def rejoin_driver(partition_while_down: bool) -> Callable[[Cluster], Driven]:
    """Closed-loop clients through the rolling crash/recover schedule.

    S1 is split into a minority partition for 0.4 s once per run: before
    S3's crash, while every site is up, or with ``partition_while_down``
    during S3's down period.  The second form exposes a program defect
    (see tests/test_known_defect.py), so the workload uses the first.
    """

    def drive(cluster: Cluster) -> Driven:
        fleet = ClientFleet(cluster, 8, WorkloadConfig(arrival_rate=200.0,
                                                       reads_per_txn=2, writes_per_txn=2))
        fleet.start()
        # The next fault waits until every live site is ACTIVE again, so
        # each recovery is a separate epoch.  Waiting polls the simulator
        # state, which keeps the schedule a pure function of the seed.
        for site in REJOIN_ORDER:
            cluster.await_all_active(timeout=20.0)
            cluster.run_for(REJOIN_DWELL)
            if site == "S3" and not partition_while_down:
                cluster.partition([["S1"], ["S2", "S3", "S4", "S5"]])
                cluster.run_for(0.4)
                cluster.heal()
                cluster.await_all_active(timeout=20.0)
                cluster.run_for(REJOIN_DWELL)
            cluster.crash(site)
            if site == "S3" and partition_while_down:
                cluster.run_for(0.1)
                cluster.partition([["S1"], ["S2", "S4", "S5"]])
                cluster.run_for(0.4)
                cluster.heal()
                cluster.run_for(REJOIN_DOWN - 0.5)
            else:
                cluster.run_for(REJOIN_DOWN)
            cluster.recover(site)
        cluster.await_all_active(timeout=20.0)
        cluster.run_for(REJOIN_DWELL)
        fleet.stop()
        cluster.await_condition(fleet.drained, timeout=20.0)
        cluster.settle(0.5)
        records = fleet.records
        committed = fleet.committed()
        return Driven(
            submitted=len(records),
            committed=len(committed),
            failed=len(fleet.exhausted()) + len(fleet.unresolved()),
            aborted=len(fleet.aborted()),
            latencies=[r.latency for r in committed],
            sessions=fleet.sessions,
            attempts=sum(r.attempts_used for r in records),
            failovers=sum(r.failovers for r in records),
        )

    return drive


WORKLOADS: Dict[str, Workload] = {
    "steady": Workload(
        name="steady",
        why=("normal processing only: sim, net, total order, replication and db "
             "do the work; reconfig does none"),
        instances=1,
        build=_build_vs,
        drive=_open_loop(WorkloadConfig(arrival_rate=900.0, reads_per_txn=2,
                                        writes_per_txn=2), duration=6.0),
    ),
    "hotspot": Workload(
        name="hotspot",
        why=("same layers under contention: 90% of accesses on 5% of keys, deep "
             "lock queues, frequent certification aborts"),
        instances=2,
        build=_build_vs,
        drive=_open_loop(WorkloadConfig(arrival_rate=600.0, reads_per_txn=4,
                                        writes_per_txn=6, hot_fraction=0.05,
                                        hot_access_probability=0.9), duration=6.0),
    ),
    "rejoin": Workload(
        name="rejoin",
        why=("reconfiguration dominates: rolling crash/recover plus a minority "
             "partition, full state transfer under closed-loop clients"),
        instances=6,
        build=_build_rejoin,
        drive=rejoin_driver(partition_while_down=False),
    ),
}


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: The measured region is cut into slices of this much virtual time, and
#: the host-speed kernel runs after each slice.
SLICE_S = 0.02
#: Kernel calls made right after each set-up.
SETUP_PROBE_CALLS = 5


class SliceClock:
    """Runs the host-speed kernel after every SLICE_S of virtual time.

    Installed over ``sim.run`` as an instance attribute for the measured
    region.  A run cut at a slice boundary processes the same events in
    the same order, so the outputs do not change.  The kernel runs a few
    milliseconds of wall time apart, so it sees the same host speed as
    the program around it.
    """

    def __init__(self, sim: Any, probe: Probe) -> None:
        self.sim = sim
        self.probe = probe
        self.origin = sim.now

    def __enter__(self) -> "SliceClock":
        self.sim.run = self.run
        return self

    def __exit__(self, *exc: Any) -> None:
        del self.sim.run

    def _slice_end(self) -> float:
        index = int((self.sim.now - self.origin) / SLICE_S)
        end = self.origin + (index + 1) * SLICE_S
        if end <= self.sim.now:  # rounding at a boundary
            end = self.origin + (index + 2) * SLICE_S
        return end

    def run(self, until: float) -> None:
        """``Simulator.run`` as the cluster calls it, always with ``until``."""
        run = type(self.sim).run
        while True:
            stop = min(self._slice_end(), until)
            run(self.sim, until=stop)
            self.probe.run()
            if stop >= until:
                return


# ----------------------------------------------------------------------
# One instance
# ----------------------------------------------------------------------
@dataclass
class InstanceResult:
    workload: str
    seed: int
    setup_s: float
    wall_s: float
    cpu_s: float
    sim_s: float
    driven: Driven
    epochs: List[EpochRecord]
    #: Counter deltas over the measured region (collect_cluster_metrics).
    counters: Dict[str, float]
    #: How many times slower than nominal the host ran, in wall and CPU
    #: time, over set-up and over the measured region (hostspeed.py).
    #: None where the kernel did not run (traced instances).
    setup_factor: Optional[float] = None
    wall_factor: Optional[float] = None
    cpu_factor: Optional[float] = None
    #: Deterministic outputs; equal for equal seeds (see _fingerprint).
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    gate_error: Optional[str] = None

    @property
    def failed_ops(self) -> int:
        return self.driven.submitted if self.gate_error else self.driven.failed


def _fingerprint(result: InstanceResult, cluster: Cluster) -> Dict[str, Any]:
    driven = result.driven
    return {
        "submitted": driven.submitted,
        "committed": driven.committed,
        "aborted": driven.aborted,
        "failed": driven.failed,
        "attempts": driven.attempts,
        "latencies": hashlib.sha256(repr(driven.latencies).encode()).hexdigest()[:16],
        "sim_s": repr(result.sim_s),
        "events": result.counters["sim.events_processed"],
        "messages": result.counters["net.messages_delivered"],
        "commits": result.counters["txn.commits"],
        "epochs": [(e.site, e.trigger, repr(e.start), repr(e.end)) for e in result.epochs],
        "stores": {
            site: hashlib.sha256(repr(node.db.store.content_digest()).encode()).hexdigest()[:16]
            for site, node in sorted(cluster.nodes.items())
        },
    }


def _gate(cluster: Cluster, driven: Driven) -> Optional[str]:
    """The correctness gate: the full checker battery (gid consistency,
    1SR, view synchrony, decision agreement, convergence, durability and
    exactly-once for client sessions) and every live site ACTIVE."""
    try:
        run_all_checks(cluster.history, list(cluster.nodes.values()),
                       sessions=driven.sessions)
    except ConsistencyViolation as exc:
        return f"checker failed: {exc}"
    stuck = [site for site, node in sorted(cluster.nodes.items())
             if node.alive and node.status is not SiteStatus.ACTIVE]
    if stuck:
        return f"live sites not ACTIVE at the end: {stuck}"
    if driven.committed == 0:
        return "nothing committed"
    return None


def _set_up(workload: Workload, seed: int) -> Tuple[Cluster, Tracer, bool, float]:
    """Build the cluster and wait for all-ACTIVE; the wall time is set-up."""
    gc.collect()
    start = time.perf_counter()
    cluster = workload.build(seed)
    tracer = attach_tracer(cluster)
    cluster.start()
    ready = cluster.await_all_active(timeout=15.0)
    return cluster, tracer, ready, time.perf_counter() - start


def _setup_factor() -> float:
    probe = Probe()
    probe.run(SETUP_PROBE_CALLS)
    return probe.wall_factor()


def setup_only(workload: Workload, seed: int) -> Tuple[float, float]:
    """Wall time to build a cluster and reach all-ACTIVE (no load), and
    the host-speed factor measured right after it."""
    _cluster, _tracer, ready, seconds = _set_up(workload, seed)
    factor = _setup_factor()
    if not ready:
        raise RuntimeError(f"{workload.name} seed {seed}: set-up never reached all-ACTIVE")
    return seconds, factor


def run_instance(workload: Workload, seed: int,
                 before_region: Optional[Callable[[Cluster], None]] = None,
                 after_region: Optional[Callable[[Cluster], None]] = None,
                 host_speed: bool = True) -> InstanceResult:
    """Set up, measure and check one workload instance.

    ``before_region``/``after_region`` run just outside the timed region
    (the traced run starts and stops span recording there).  With
    ``host_speed`` the host-speed kernel runs after set-up and between
    slices of the region; its own time is left out of ``wall_s`` and
    ``cpu_s``."""
    cluster, tracer, ready, setup_s = _set_up(workload, seed)
    setup_factor = _setup_factor() if host_speed else None
    base = collect_cluster_metrics(cluster)
    region_start = cluster.sim.now

    probe = Probe()
    gc.collect()
    gc.freeze()
    try:
        if before_region is not None:
            before_region(cluster)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if host_speed:
            with SliceClock(cluster.sim, probe):
                driven = workload.drive(cluster)
        else:
            driven = workload.drive(cluster)
        cpu_s = time.process_time() - cpu0 - probe.cpu
        wall_s = time.perf_counter() - wall0 - probe.wall
        if after_region is not None:
            after_region(cluster)
    finally:
        gc.unfreeze()

    final = collect_cluster_metrics(cluster)
    counters = {key: final[key] - base.get(key, 0) for key in final}
    counters["locks.queue_depth_peak"] = final["locks.queue_depth_peak"]
    epochs = [e for e in extract_epochs(tracer.events, end_time=cluster.sim.now)
              if e.start >= region_start]
    result = InstanceResult(
        workload=workload.name, seed=seed, setup_s=setup_s, wall_s=wall_s,
        cpu_s=cpu_s, sim_s=cluster.sim.now - region_start, driven=driven,
        epochs=epochs, counters=counters, setup_factor=setup_factor,
    )
    if host_speed:
        result.wall_factor = probe.wall_factor()
        result.cpu_factor = probe.cpu_factor()
    result.gate_error = (None if ready else "cluster never reached all-ACTIVE") \
        or _gate(cluster, driven)
    result.fingerprint = _fingerprint(result, cluster)
    # The sessions reference the cluster; dropping them lets repeated
    # instances free their memory.
    driven.sessions = None
    return result


def instance_seeds(workload: Workload, seed: int) -> List[int]:
    return [seed * workload.instances + k for k in range(workload.instances)]
