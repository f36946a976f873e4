"""Seeded randomized chaos testing for the replicated database.

The :class:`ChaosEngine` drives a cluster through a random storm of
crashes, recoveries, partitions, heals, one-way link degradations and
loss/latency bursts — on top of always-on message duplication,
reordering and torn-WAL-on-crash faults — then forces the system to
quiescence and asserts the full :mod:`repro.checkers` invariant suite
(total order, atomicity, 1-copy-serializability, view synchrony,
convergence).

Every random decision is drawn from a dedicated ``random.Random`` keyed
on the chaos seed, separate from the simulator RNG, so a (seed,
intensity, config) triple identifies one exact storm.  Exposed on the
command line as ``python -m repro chaos --seed N --intensity X``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.checkers import ConsistencyViolation, run_all_checks
from repro.cluster import Cluster, ClusterBuilder
from repro.faults.injectors import (
    DuplicateInjector,
    LatencySpikeInjector,
    OneWayLinkInjector,
    ReorderInjector,
)
from repro.faults.storage import TornTailFaults
from repro.replication.node import SiteStatus
from repro.tracing import Tracer, attach_tracer
from repro.workload.generator import LoadGenerator, WorkloadConfig


@dataclass
class ChaosConfig:
    """Shape of one chaos run.

    ``intensity`` scales both the fault event rate and the always-on
    injector probabilities; 0 disables random events entirely (the
    always-on injectors still run at rate 0, i.e. not at all), 1.0 is a
    violent storm.  ``min_alive`` keeps at least that many sites up so
    the run cannot degenerate into everybody-down-forever (total failure
    is still reachable through partitions; set it to 0 to allow outright
    full crashes and exercise the creation protocol on quiesce).
    """

    seed: int = 0
    intensity: float = 0.5
    n_sites: int = 4
    db_size: int = 40
    duration: float = 3.0
    mode: str = "vs"
    #: Reconfiguration backend (repro.reconfig.backends); None lets the
    #: legacy ``mode`` select it ("vs"/"evs").
    backend: Optional[str] = None
    strategy: str = "rectable"
    arrival_rate: float = 60.0
    enable_duplication: bool = True
    enable_reordering: bool = True
    enable_torn_wal: bool = True
    enable_one_way: bool = True
    enable_latency_spikes: bool = True
    enable_loss_bursts: bool = True
    min_alive: int = 1
    quiesce_timeout: float = 60.0
    #: Number of closed-loop client sessions (repro.client).  0 keeps the
    #: classic open-loop LoadGenerator; > 0 drives the run through
    #: ClientSession objects with failover + exactly-once checking.
    clients: int = 0
    #: Sabotage hook: disable the replicated dedup table at every site.
    #: Used by tests/CI to prove check_exactly_once actually catches
    #: double execution — a sabotaged run is expected to FAIL.
    sabotage_dedup: bool = False
    #: Attach the full observability layer (metrics registry + causal
    #: spans, repro.obs) instead of the bare tracer.  The report then
    #: carries an ``obs`` handle whose trace/metrics can be exported —
    #: the CLI uses this to dump evidence when an invariant fails.
    observe: bool = False
    #: Attach the deterministic event-loop profiler
    #: (repro.obs.profile.SimProfiler).  Observation-equivalent: the
    #: storm, histories and digests are identical with or without it.
    profile: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {self.intensity}")
        if self.n_sites < 2:
            raise ValueError("chaos needs at least 2 sites")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.mode not in ("vs", "evs"):
            raise ValueError(f"mode must be 'vs' or 'evs', got {self.mode!r}")
        if self.backend is not None:
            from repro.reconfig.backends import backend_by_name

            backend_by_name(self.backend)  # raises on unknown names
        if not 0 <= self.min_alive <= self.n_sites:
            raise ValueError("min_alive must be in [0, n_sites]")
        if self.quiesce_timeout <= 0:
            raise ValueError("quiesce_timeout must be positive")
        if self.clients < 0:
            raise ValueError("clients must be non-negative")
        if self.sabotage_dedup and self.clients == 0:
            raise ValueError("sabotage_dedup only makes sense with clients > 0")


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    seed: int
    intensity: float
    ok: bool = False
    error: Optional[str] = None
    #: (virtual time, action, detail) for every chaos decision taken.
    events: List[Tuple[float, str, str]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    wal_tears: int = 0
    wal_corruptions: int = 0
    tracer: Optional[Tracer] = None
    #: Observability handle (repro.obs.Observability) when the run was
    #: built with ``ChaosConfig(observe=True)``.
    obs: Optional[Any] = None
    #: Profiler handle (repro.obs.profile.SimProfiler) when the run was
    #: built with ``ChaosConfig(profile=True)``.
    profiler: Optional[Any] = None
    #: Virtual end time of the run (set at finish; epoch extraction
    #: uses it to truncate still-open epochs).
    virtual_time: float = 0.0

    def epochs(self):
        """Reconfiguration epochs reconstructed from the trace."""
        from repro.obs.epochs import extract_epochs

        if self.tracer is None:
            return []
        return extract_epochs(self.tracer.events,
                              end_time=self.virtual_time or None)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL ({self.error})"
        return (
            f"chaos seed={self.seed} intensity={self.intensity}: {verdict} — "
            f"{len(self.events)} fault events, "
            f"{self.metrics.get('commits', 0)} commits, "
            f"{self.wal_tears} WAL tears "
            f"({self.wal_corruptions} with corruption)"
        )

    def payload(self) -> Dict[str, Any]:
        """A picklable plain-data view of the report for the
        :mod:`repro.fleet` seed fleets: the verdict, the aggregate
        metrics, and digests of the fault schedule and the full trace
        (the trace itself can be thousands of lines; a seed fleet only
        needs to compare runs, and a digest mismatch pinpoints the seed
        to re-run locally with ``python -m repro chaos --seed N``)."""
        import hashlib

        schedule = "\n".join(
            f"{time:.6f} {action} {detail}" for time, action, detail in self.events
        )
        from repro.obs.epochs import epoch_summary

        trace = ""
        if self.tracer is not None:
            trace = "\n".join(str(event) for event in self.tracer.events)
        return {
            "epochs": epoch_summary(self.epochs()),
            "seed": self.seed,
            "intensity": self.intensity,
            "ok": self.ok,
            "error": self.error,
            "fault_events": len(self.events),
            "wal_tears": self.wal_tears,
            "wal_corruptions": self.wal_corruptions,
            "metrics": {key: value for key, value in self.metrics.items()},
            "schedule_digest": hashlib.sha256(schedule.encode()).hexdigest(),
            "trace_digest": hashlib.sha256(trace.encode()).hexdigest(),
            "trace_events": len(self.tracer.events) if self.tracer else 0,
        }


class ChaosEngine:
    """Runs one seeded chaos storm against a freshly built cluster."""

    #: Mean virtual seconds between chaos events at intensity 1.0.
    BASE_EVENT_INTERVAL = 0.18

    def __init__(self, config: Optional[ChaosConfig] = None) -> None:
        self.config = config or ChaosConfig()
        self.config.validate()
        # Chaos decisions use their own stream so the storm shape depends
        # only on the chaos seed, not on how many random draws the
        # protocols under test happen to make.
        self.rng = random.Random(f"chaos-{self.config.seed}")
        self.cluster: Optional[Cluster] = None
        self.report = ChaosReport(seed=self.config.seed,
                                  intensity=self.config.intensity)
        self._storming = False
        self._partitioned = False
        self._loss_burst_active = False
        self._storage_faults: Optional[TornTailFaults] = None

    # ------------------------------------------------------------------
    def run(self) -> ChaosReport:
        config = self.config
        cluster = self._build()
        if config.sabotage_dedup:
            for node in cluster.nodes.values():
                node.dedup_disabled = True
        workload = WorkloadConfig(arrival_rate=config.arrival_rate,
                                  reads_per_txn=1, writes_per_txn=2)
        load: Optional[LoadGenerator] = None
        fleet = None
        if config.clients > 0:
            from repro.client import ClientFleet

            fleet = ClientFleet(cluster, config.clients, workload)
        else:
            load = LoadGenerator(cluster, workload)
        driver = fleet if fleet is not None else load
        if not cluster.await_all_active(timeout=15):
            self.report.error = "bootstrap failed"
            return self._finish(load, fleet)
        driver.start()
        self._storming = True
        self._schedule_next_event()
        cluster.run_for(config.duration)
        self._storming = False
        driver.stop()
        self._quiesce()
        if fleet is not None:
            # Sessions drive their own retries; give every in-flight
            # request time to reach a terminal state on the healed
            # cluster before judging exactly-once.
            if not cluster.await_condition(fleet.drained,
                                           timeout=config.quiesce_timeout):
                self.report.error = "client drain timeout"
        return self._finish(load, fleet)

    # ------------------------------------------------------------------
    def _build(self) -> Cluster:
        config = self.config
        cluster = ClusterBuilder(
            n_sites=config.n_sites,
            db_size=config.db_size,
            seed=config.seed,
            strategy=config.strategy,
            mode=config.mode,
            backend=config.backend,
        ).build()
        self.cluster = cluster
        if config.observe:
            self.report.obs = cluster.attach_observability()
        else:
            attach_tracer(cluster)
        self.report.tracer = cluster.tracer
        if config.profile:
            from repro.obs.profile import attach_profiler

            self.report.profiler = attach_profiler(cluster)
        intensity = config.intensity
        if config.enable_duplication:
            cluster.add_injector(DuplicateInjector(rate=0.10 * intensity,
                                                   spread=0.02))
        if config.enable_reordering:
            cluster.add_injector(ReorderInjector(rate=0.25 * intensity,
                                                 max_extra=0.02))
        if config.enable_latency_spikes:
            cluster.add_injector(LatencySpikeInjector(rate=0.01 * intensity,
                                                      spike=0.05,
                                                      burst_duration=0.2))
        if config.enable_torn_wal:
            self._storage_faults = TornTailFaults(tear_probability=0.8,
                                                  corrupt_probability=0.5)
            cluster.install_storage_faults(self._storage_faults)
        cluster.start()
        return cluster

    # ------------------------------------------------------------------
    # The storm
    # ------------------------------------------------------------------
    def _schedule_next_event(self) -> None:
        if not self._storming or self.config.intensity <= 0.0:
            return
        mean = self.BASE_EVENT_INTERVAL / self.config.intensity
        self.cluster.sim.schedule(self.rng.expovariate(1.0 / mean),
                                  self._fire_event, label="chaos event")

    def _fire_event(self) -> None:
        if not self._storming:
            return
        action = self._pick_action()
        if action is not None:
            name, fire = action
            detail = fire()
            self._note(name, detail or "")
        self._schedule_next_event()

    def _pick_action(self):
        """Weighted choice among the actions currently applicable."""
        cluster, config = self.cluster, self.config
        alive = [s for s in cluster.universe if cluster.nodes[s].alive]
        dead = [s for s in cluster.universe if not cluster.nodes[s].alive]
        choices = []
        if len(alive) > config.min_alive:
            choices.append((3.0, ("crash_armed", self._do_crash)))
        if dead:
            choices.append((4.0, ("recover", self._do_recover)))
        if not self._partitioned and len(alive) >= 2:
            choices.append((2.0, ("partition", self._do_partition)))
        if self._partitioned:
            choices.append((3.0, ("heal", self._do_heal)))
        if config.enable_one_way and len(alive) >= 2:
            choices.append((2.0, ("one_way", self._do_one_way)))
        if config.enable_loss_bursts and not self._loss_burst_active:
            choices.append((2.0, ("loss_burst", self._do_loss_burst)))
        if not choices:
            return None
        total = sum(weight for weight, _ in choices)
        pick = self.rng.random() * total
        for weight, action in choices:
            pick -= weight
            if pick <= 0:
                return action
        return choices[-1][1]

    # Individual actions.  Each returns a human-readable detail string.
    #: How long an armed crash waits for the victim's WAL tail to be
    #: dirty before striking anyway.
    CRASH_ARM_WINDOW = 0.06

    def _do_crash(self) -> str:
        """Crash a site — preferring the moment its WAL has an unflushed
        tail, so the torn-tail storage fault actually gets exercised
        (an instantaneous random crash almost always lands between
        commits, when everything is already durable)."""
        cluster = self.cluster
        alive = [s for s in cluster.universe if cluster.nodes[s].alive]
        site = self.rng.choice(alive)
        node = cluster.nodes[site]
        deadline = cluster.sim.now + self.CRASH_ARM_WINDOW

        def strike() -> None:
            if not self._storming or not node.alive:
                return
            others = sum(
                1 for s in cluster.universe if s != site and cluster.nodes[s].alive
            )
            if others < self.config.min_alive:
                return
            if node.storage.unflushed_count > 0 or cluster.sim.now >= deadline:
                dirty = node.storage.unflushed_count
                cluster.crash(site)
                self._note("crash", f"{site} (unflushed={dirty})")
            else:
                cluster.sim.schedule(0.001, strike, label="chaos crash arm")

        cluster.sim.call_soon(strike)
        return f"{site} armed"

    def _do_recover(self) -> str:
        cluster = self.cluster
        dead = [s for s in cluster.universe if not cluster.nodes[s].alive]
        site = self.rng.choice(dead)
        cluster.recover(site)
        return site

    def _do_partition(self) -> str:
        cluster = self.cluster
        sites = list(cluster.universe)
        self.rng.shuffle(sites)
        cut = self.rng.randrange(1, len(sites))
        groups = [sorted(sites[:cut]), sorted(sites[cut:])]
        cluster.partition(groups)
        self._partitioned = True
        return f"{groups[0]} | {groups[1]}"

    def _do_heal(self) -> str:
        self.cluster.heal()
        self._partitioned = False
        return ""

    def _do_one_way(self) -> str:
        cluster, rng = self.cluster, self.rng
        src, dst = rng.sample(list(cluster.universe), 2)
        if rng.random() < 0.6:
            injector = OneWayLinkInjector(src, dst, loss_rate=1.0)
        else:
            injector = OneWayLinkInjector(src, dst, loss_rate=0.5,
                                          extra_latency=0.02)
        cluster.add_injector(injector)
        hold = 0.3 + rng.random() * 0.9
        cluster.sim.schedule(hold, self._end_one_way, injector,
                             label="chaos one-way end")
        return f"{injector.describe()} for {hold:.2f}s"

    def _end_one_way(self, injector) -> None:
        # remove_injector tolerates an already-cleared pipeline (quiesce).
        self.cluster.remove_injector(injector)
        self._note("one_way_end", injector.describe())

    def _do_loss_burst(self) -> str:
        cluster, rng = self.cluster, self.rng
        rate = 0.05 + 0.15 * rng.random() * self.config.intensity
        cluster.set_loss_rate(rate)
        self._loss_burst_active = True
        hold = 0.2 + rng.random() * 0.4
        cluster.sim.schedule(hold, self._end_loss_burst,
                             label="chaos loss burst end")
        return f"loss={rate:.3f} for {hold:.2f}s"

    def _end_loss_burst(self) -> None:
        self.cluster.set_loss_rate(0.0)
        self._loss_burst_active = False
        self._note("loss_burst_end", "")

    def _note(self, action: str, detail: str) -> None:
        now = self.cluster.sim.now
        self.report.events.append((now, action, detail))
        if self.cluster.tracer is not None:
            self.cluster.tracer.emit("--", "fault", f"chaos_{action}", detail)

    # ------------------------------------------------------------------
    # Quiescence and verdict
    # ------------------------------------------------------------------
    def _quiesce(self) -> None:
        """Remove every fault source, bring everyone back, let the
        protocols converge."""
        cluster = self.cluster
        cluster.clear_injectors()
        cluster.set_loss_rate(0.0)
        self._loss_burst_active = False
        if self._partitioned:
            cluster.heal()
            self._partitioned = False
        # The last tears have already happened; recoveries from here on
        # should be clean so convergence is only a matter of time.
        if self._storage_faults is not None:
            self._storage_faults.tear_probability = 0.0
        for site in cluster.universe:
            if not cluster.nodes[site].alive:
                cluster.recover(site)
        self._note("quiesce", "all faults cleared, all sites recovering")
        cluster.await_all_active(timeout=self.config.quiesce_timeout)
        cluster.settle(1.0)

    def _finish(self, load: Optional[LoadGenerator],
                fleet=None) -> ChaosReport:
        cluster, report = self.cluster, self.report
        if self._storage_faults is not None:
            report.wal_tears = self._storage_faults.tears
            report.wal_corruptions = self._storage_faults.corruptions
        report.metrics = cluster.metrics_summary()
        if load is not None:
            report.metrics["workload_commits"] = len(load.committed())
            report.metrics["workload_aborts"] = len(load.aborted())
            report.metrics.update(load.metrics())
        if fleet is not None:
            report.metrics["workload_commits"] = len(fleet.committed())
            report.metrics["workload_aborts"] = len(fleet.aborted())
            report.metrics.update(fleet.metrics())
            report.metrics["dedup.suppressed"] = sum(
                node.duplicates_suppressed for node in cluster.nodes.values()
            )
        report.metrics["events_processed"] = cluster.sim.events_processed
        report.virtual_time = cluster.sim.now
        if report.error is not None:
            return report
        stuck = [
            s for s in cluster.universe
            if cluster.nodes[s].status is not SiteStatus.ACTIVE
        ]
        if stuck:
            report.error = (
                "quiesce timeout: "
                + ", ".join(f"{s}={cluster.nodes[s].status.value}" for s in stuck)
            )
            return report
        try:
            run_all_checks(cluster.history, list(cluster.nodes.values()),
                           sessions=fleet.sessions if fleet is not None else None)
        except ConsistencyViolation as violation:
            report.error = f"invariant violated: {violation}"
            return report
        report.ok = True
        return report


def run_chaos(seed: int, intensity: float = 0.5, **overrides: Any) -> ChaosReport:
    """One-call entry point: run a chaos storm and return its report."""
    config = ChaosConfig(seed=seed, intensity=intensity, **overrides)
    return ChaosEngine(config).run()


def repro_command(config: ChaosConfig) -> str:
    """The CLI invocation that replays this exact run.

    Every field the ``chaos`` command sets is emitted, defaults included,
    so the command replays the same run even if a default changes.
    ``--backend`` is left out only when no backend is set (``--mode``
    then selects it).
    """
    parts = ["PYTHONPATH=src python -m repro chaos",
             f"--seed {config.seed}", f"--mode {config.mode}"]
    if config.backend is not None:
        parts.append(f"--backend {config.backend}")
    parts += [f"--strategy {config.strategy}", f"--sites {config.n_sites}",
              f"--db-size {config.db_size}", f"--rate {config.arrival_rate!r}",
              f"--clients {config.clients}",
              f"--intensity {config.intensity!r}",
              f"--duration {config.duration!r}"]
    if config.sabotage_dedup:
        parts.append("--sabotage-dedup")
    return " ".join(parts)
