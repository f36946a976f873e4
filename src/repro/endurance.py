"""Long-horizon reconfiguration-churn endurance runs.

Where :mod:`repro.faults.chaos` throws one short random storm at a
cluster and checks the wreckage once, the endurance engine holds a
cluster under *continuous* membership churn for a long virtual horizon
while a :class:`repro.client.ClientFleet` keeps serving traffic, and
audits it repeatedly along the way:

* **segments** — the storm is composed from the scenario families of
  :mod:`repro.faults.churn`: rolling restarts, repeated partition/merge
  cycles paced to interrupt state transfers, continuous join/leave
  churn, and self-stabilization starts (sites rebooted from
  corrupted-but-CRC-valid stable state);
* **quiescent sweeps** — at a fixed cadence the engine pauses the fault
  schedule, heals and recovers everything, drains the client fleet, and
  asserts the *full* invariant suite plus ``check_exactly_once`` — then
  resumes the churn.  A long run is therefore checked at every quiescent
  point, not only at the end;
* **availability timeline** — committed client requests are sampled per
  time bin for the whole run (trace events + an ``endurance.availability``
  gauge when observability is attached), and the final verdict includes
  :func:`repro.checkers.check_availability_floor`: the cluster must never
  stop serving for a whole window, churn or not.

Every storm decision draws from a dedicated ``random.Random`` keyed on
the endurance seed, so one seed is one exact schedule — pinned seeds
become regression tests and determinism-audit cases.  Exposed as
``python -m repro chaos --endurance``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.checkers import (
    ConsistencyViolation,
    check_availability_floor,
    run_all_checks,
)
from repro.cluster import Cluster, ClusterBuilder
from repro.faults.churn import SEGMENTS
from repro.faults.injectors import DuplicateInjector, ReorderInjector
from repro.faults.storage import StableStateCorruptor, TornTailFaults
from repro.replication.node import NodeConfig, SiteStatus
from repro.tracing import Tracer, attach_tracer
from repro.workload.generator import WorkloadConfig


@dataclass
class EnduranceConfig:
    """Shape of one endurance run."""

    seed: int = 0
    n_sites: int = 4
    db_size: int = 40
    duration: float = 12.0
    mode: str = "vs"
    #: Reconfiguration backend (repro.reconfig.backends); None lets the
    #: legacy ``mode`` select it ("vs"/"evs").
    backend: Optional[str] = None
    strategy: str = "rectable"
    arrival_rate: float = 60.0
    #: Closed-loop client sessions; endurance is always client-driven
    #: (the availability metric *is* committed client requests).
    clients: int = 6
    #: Which scenario families the storm is composed from (see
    #: :data:`repro.faults.churn.SEGMENTS`).  A single-element tuple
    #: pins a run to one family — the regression tests use this.
    segments: Tuple[str, ...] = ("rolling", "storm", "churn", "stabilize")
    #: Virtual seconds between quiescent invariant sweeps.
    sweep_interval: float = 4.0
    #: Availability sampling bin width (virtual seconds).
    availability_bin: float = 0.25
    #: Longest tolerated span with zero committed client requests
    #: (outside maintenance windows) before the run fails.
    availability_window: float = 1.5
    #: Grace prefix while the cluster bootstraps and clients ramp up.
    availability_warmup: float = 1.0
    #: Retry jitter for the client sessions (see SessionConfig).
    backoff_jitter: float = 0.5
    quiesce_timeout: float = 60.0
    enable_torn_wal: bool = True
    observe: bool = False
    #: Attach the deterministic event-loop profiler (repro.obs.profile).
    #: Observation-equivalent: schedules and digests are unchanged.
    profile: bool = False
    #: Sabotage hook: one site skips adopting the peer's outcome table at
    #: transfer completion (the ``--sabotage-outcome-merge`` CLI flag).
    #: A sabotaged run is EXPECTED to fail — it proves the quiescent
    #: sweeps actually catch a broken merge path.
    sabotage_outcome_merge: bool = False

    def validate(self) -> None:
        if self.n_sites < 3:
            raise ValueError("endurance needs at least 3 sites "
                             "(a majority must survive one site down)")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.mode not in ("vs", "evs"):
            raise ValueError(f"mode must be 'vs' or 'evs', got {self.mode!r}")
        if self.backend is not None:
            from repro.reconfig.backends import backend_by_name

            backend_by_name(self.backend)  # raises on unknown names
        if self.clients < 1:
            raise ValueError("endurance is client-driven: clients must be >= 1")
        if not self.segments:
            raise ValueError("segments must not be empty")
        unknown = sorted(set(self.segments) - set(SEGMENTS))
        if unknown:
            raise ValueError(
                f"unknown segment(s) {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(SEGMENTS))}"
            )
        if self.sweep_interval <= 0:
            raise ValueError("sweep_interval must be positive")
        if self.availability_bin <= 0 or self.availability_window <= 0:
            raise ValueError("availability bin/window must be positive")
        if self.availability_window < self.availability_bin:
            raise ValueError("availability_window must be >= availability_bin")
        if self.quiesce_timeout <= 0:
            raise ValueError("quiesce_timeout must be positive")


@dataclass
class EnduranceReport:
    """Outcome of one endurance run."""

    seed: int
    ok: bool = False
    error: Optional[str] = None
    #: (virtual time, action, detail) for every schedule decision.
    events: List[Tuple[float, str, str]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Availability timeline: (bin end time, commits in bin, maintenance).
    samples: List[Tuple[float, int, bool]] = field(default_factory=list)
    bin_width: float = 0.25
    warmup: float = 1.0
    sweeps: int = 0
    rolling_restarts: int = 0
    partition_cycles: int = 0
    transfers_interrupted: int = 0
    churn_leaves: int = 0
    stabilize_starts: int = 0
    wal_tears: int = 0
    wal_corruptions: int = 0
    tracer: Optional[Tracer] = None
    obs: Optional[Any] = None
    #: Profiler handle when built with ``EnduranceConfig(profile=True)``.
    profiler: Optional[Any] = None
    #: Virtual end time of the run (epoch truncation boundary).
    virtual_time: float = 0.0

    # ------------------------------------------------------------------
    def epochs(self):
        """Reconfiguration epochs reconstructed from the trace."""
        from repro.obs.epochs import extract_epochs

        if self.tracer is None:
            return []
        return extract_epochs(self.tracer.events,
                              end_time=self.virtual_time or None)

    def availability(self) -> Dict[str, float]:
        """Aggregate availability stats over serving (non-maintenance,
        post-warmup) bins: min/mean commit rate and zero-commit bins."""
        serving = [(t, c) for t, c, m in self.samples
                   if not m and t > self.warmup]
        if not serving:
            return {"bins": 0.0, "zero_bins": 0.0,
                    "min_rate": 0.0, "mean_rate": 0.0}
        rates = [c / self.bin_width for _t, c in serving]
        return {
            "bins": float(len(serving)),
            "zero_bins": float(sum(1 for _t, c in serving if c == 0)),
            "min_rate": min(rates),
            "mean_rate": sum(rates) / len(rates),
        }

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL ({self.error})"
        avail = self.availability()
        return (
            f"endurance seed={self.seed}: {verdict} — "
            f"{self.sweeps} quiescent sweeps, "
            f"{self.rolling_restarts} restarts, "
            f"{self.partition_cycles} partition cycles "
            f"({self.transfers_interrupted} transfers cut), "
            f"{self.churn_leaves} churn leaves, "
            f"{self.stabilize_starts} stabilization starts; "
            f"availability mean {avail['mean_rate']:.1f}/s "
            f"min {avail['min_rate']:.1f}/s "
            f"({avail['zero_bins']:.0f}/{avail['bins']:.0f} zero bins)"
        )

    def payload(self) -> Dict[str, Any]:
        """Picklable plain-data view for fleet workers and audit digests
        (mirrors :meth:`repro.faults.chaos.ChaosReport.payload`)."""
        import hashlib

        schedule = "\n".join(
            f"{time:.6f} {action} {detail}" for time, action, detail in self.events
        )
        trace = ""
        if self.tracer is not None:
            trace = "\n".join(str(event) for event in self.tracer.events)
        timeline = "\n".join(
            f"{t:.6f} {c} {int(m)}" for t, c, m in self.samples
        )
        from repro.obs.epochs import epoch_summary

        return {
            "epochs": epoch_summary(self.epochs()),
            "seed": self.seed,
            "ok": self.ok,
            "error": self.error,
            "sweeps": self.sweeps,
            "rolling_restarts": self.rolling_restarts,
            "partition_cycles": self.partition_cycles,
            "transfers_interrupted": self.transfers_interrupted,
            "churn_leaves": self.churn_leaves,
            "stabilize_starts": self.stabilize_starts,
            "wal_tears": self.wal_tears,
            "wal_corruptions": self.wal_corruptions,
            "availability": self.availability(),
            "metrics": {key: value for key, value in self.metrics.items()},
            "schedule_digest": hashlib.sha256(schedule.encode()).hexdigest(),
            "trace_digest": hashlib.sha256(trace.encode()).hexdigest(),
            "availability_digest": hashlib.sha256(timeline.encode()).hexdigest(),
            "trace_events": len(self.tracer.events) if self.tracer else 0,
            "fault_events": len(self.events),
        }


class EnduranceEngine:
    """Runs one seeded long-horizon churn schedule against a cluster."""

    def __init__(self, config: Optional[EnduranceConfig] = None) -> None:
        self.config = config or EnduranceConfig()
        self.config.validate()
        # Schedule decisions use their own stream, separate from the
        # simulator RNG, so the storm shape depends only on the seed.
        self.rng = random.Random(f"endurance-{self.config.seed}")
        self.corruptor = StableStateCorruptor(self.config.seed)
        self.cluster: Optional[Cluster] = None
        self.fleet = None
        self.report = EnduranceReport(
            seed=self.config.seed,
            bin_width=self.config.availability_bin,
            warmup=self.config.availability_warmup,
        )
        self._storage_faults: Optional[TornTailFaults] = None
        self._maintenance = False
        self._last_committed = 0
        self._gauge = None
        self._min_gauge = None
        self._min_rate: Optional[float] = None

    # ------------------------------------------------------------------
    def run(self) -> EnduranceReport:
        if self._begin():
            self._drive()
            self._final_quiesce()
        return self._finish()

    def _begin(self) -> bool:
        """Build the cluster, attach the client fleet and the
        availability sampler.  Returns False when bootstrap failed
        (``report.error`` is then set).  Shared verbatim with the
        schedule-search executor, which overrides only :meth:`_drive`
        and :meth:`_sabotage_victim`."""
        config = self.config
        cluster = self._build()
        from repro.client import ClientFleet, SessionConfig

        workload = WorkloadConfig(arrival_rate=config.arrival_rate,
                                  reads_per_txn=1, writes_per_txn=2)
        self.fleet = ClientFleet(
            cluster, config.clients, workload,
            session_config=SessionConfig(backoff_jitter=config.backoff_jitter),
        )
        if config.sabotage_outcome_merge:
            victim = self._sabotage_victim()
            cluster.nodes[victim].outcome_merge_disabled = True
            self.note("sabotage", f"outcome merge disabled at {victim}")
        if not cluster.await_all_active(timeout=15):
            self.report.error = "bootstrap failed"
            return False
        self.fleet.start()
        self._start_sampler()
        return True

    def _sabotage_victim(self) -> str:
        return self.rng.choice(list(self.cluster.universe))

    def _drive(self) -> None:
        """The storm itself: random segment composition for the given
        duration, with quiescent sweeps at a fixed cadence."""
        cluster, config = self.cluster, self.config
        end = cluster.sim.now + config.duration
        next_sweep = cluster.sim.now + config.sweep_interval
        while cluster.sim.now < end and self.report.error is None:
            name = self.rng.choice(config.segments)
            self.note("segment", name)
            detail = SEGMENTS[name](self)
            self.note("segment_done", f"{name}: {detail}")
            if self.report.error is not None:
                break
            if cluster.sim.now >= next_sweep:
                self._quiescent_sweep()
                next_sweep = cluster.sim.now + config.sweep_interval

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
            # A flapping straggler must not starve a suspended majority:
            # allow creation from any primary view (uniform delivery).
            node_config=NodeConfig(creation_majority=True),
        ).build()
        self.cluster = cluster
        if config.observe:
            self.report.obs = cluster.attach_observability()
            registry = self.report.obs.registry
            self._gauge = registry.gauge(
                "endurance.availability",
                "committed client requests per virtual second, last bin")
            self._min_gauge = registry.gauge(
                "endurance.availability_min",
                "lowest serving-bin commit rate seen so far")
        else:
            attach_tracer(cluster)
        self.report.tracer = cluster.tracer
        if config.profile:
            from repro.obs.profile import attach_profiler

            self.report.profiler = attach_profiler(cluster)
        # Always-on wire realism, mild enough for a long horizon.
        cluster.add_injector(DuplicateInjector(rate=0.05, spread=0.02))
        cluster.add_injector(ReorderInjector(rate=0.10, max_extra=0.02))
        if config.enable_torn_wal:
            self._storage_faults = TornTailFaults(tear_probability=0.8,
                                                  corrupt_probability=0.5)
            cluster.install_storage_faults(self._storage_faults)
        cluster.start()
        return cluster

    # ------------------------------------------------------------------
    # Helpers the segment composers call
    # ------------------------------------------------------------------
    def note(self, action: str, detail: str = "") -> None:
        now = self.cluster.sim.now
        self.report.events.append((now, action, detail))
        if self.cluster.tracer is not None:
            self.cluster.tracer.emit("--", "endurance", action, detail)

    def fail(self, message: str) -> None:
        """Record the first failure; later ones are noise after the fact."""
        if self.report.error is None:
            self.report.error = message
        self.note("fail", message)

    def normalize(self, timeout: Optional[float] = None) -> bool:
        """Heal, recover everyone, and wait until all sites are ACTIVE."""
        cluster = self.cluster
        cluster.heal()
        for site in cluster.universe:
            if not cluster.nodes[site].alive:
                cluster.recover(site)
        return cluster.await_all_active(
            timeout=timeout or self.config.quiesce_timeout)

    def await_site_active(self, site: str) -> bool:
        node = self.cluster.nodes[site]
        return self.cluster.await_condition(
            lambda: node.status is SiteStatus.ACTIVE,
            timeout=self.config.quiesce_timeout,
        )

    # ------------------------------------------------------------------
    # Availability sampling
    # ------------------------------------------------------------------
    def _start_sampler(self) -> None:
        cluster, config = self.cluster, self.config

        def sample() -> None:
            now = cluster.sim.now
            committed = len(self.fleet.committed())
            delta = committed - self._last_committed
            self._last_committed = committed
            maintenance = self._maintenance
            self.report.samples.append((now, delta, maintenance))
            rate = delta / config.availability_bin
            if cluster.tracer is not None:
                cluster.tracer.emit(
                    "--", "endurance", "availability_sample",
                    f"{rate:.0f}/s" + (" [maintenance]" if maintenance else ""),
                    data={"t": now, "commits": delta, "rate": rate,
                          "maintenance": maintenance},
                )
            if self._gauge is not None:
                self._gauge.set(rate)
                if not maintenance and now > config.availability_warmup:
                    if self._min_rate is None or rate < self._min_rate:
                        self._min_rate = rate
                        self._min_gauge.set(rate)
            cluster.sim.schedule(config.availability_bin, sample,
                                 label="endurance availability sample")

        cluster.sim.schedule(config.availability_bin, sample,
                             label="endurance availability sample")

    # ------------------------------------------------------------------
    # Quiescent sweeps and the final verdict
    # ------------------------------------------------------------------
    def _quiescent_sweep(self) -> None:
        cluster, config = self.cluster, self.config
        self._maintenance = True
        self.note("sweep", f"#{self.report.sweeps + 1}")
        if not self._settle_and_check("quiescent sweep"):
            return
        self.report.sweeps += 1
        self.note("sweep_ok", f"t={cluster.sim.now:.2f}")
        self.fleet.start()
        self._maintenance = False

    def _final_quiesce(self) -> None:
        if self.report.error is not None:
            return
        self._maintenance = True
        self.note("final_quiesce", "")
        if self._settle_and_check("final quiesce"):
            self.report.sweeps += 1

    def _settle_and_check(self, where: str) -> bool:
        """Pause faults, converge, drain clients, run the full invariant
        suite (including exactly-once).  Returns False on failure."""
        cluster, config = self.cluster, self.config
        if not self.normalize():
            stuck = [
                f"{s}={cluster.nodes[s].status.value}"
                for s in cluster.universe
                if cluster.nodes[s].status is not SiteStatus.ACTIVE
            ]
            self.fail(f"{where} quiesce timeout: {', '.join(stuck)}")
            return False
        self.fleet.stop()
        if not cluster.await_condition(self.fleet.drained,
                                       timeout=config.quiesce_timeout):
            self.fail(f"{where}: client drain timeout")
            return False
        cluster.settle(0.3)
        try:
            run_all_checks(cluster.history, list(cluster.nodes.values()),
                           sessions=self.fleet.sessions)
        except ConsistencyViolation as violation:
            self.fail(f"invariant violated at {where} "
                      f"(t={cluster.sim.now:.2f}): {violation}")
            return False
        return True

    def _finish(self) -> EnduranceReport:
        cluster, report, config = self.cluster, self.report, self.config
        if self._storage_faults is not None:
            report.wal_tears = self._storage_faults.tears
            report.wal_corruptions = self._storage_faults.corruptions
        report.metrics = cluster.metrics_summary()
        if self.fleet is not None:
            report.metrics["workload_commits"] = len(self.fleet.committed())
            report.metrics["workload_aborts"] = len(self.fleet.aborted())
            report.metrics.update(self.fleet.metrics())
            report.metrics["dedup.suppressed"] = sum(
                node.duplicates_suppressed for node in cluster.nodes.values()
            )
        report.metrics["events_processed"] = cluster.sim.events_processed
        report.virtual_time = cluster.sim.now
        if report.error is None:
            try:
                check_availability_floor(
                    report.samples,
                    window=config.availability_window,
                    bin_width=config.availability_bin,
                    warmup=config.availability_warmup,
                )
            except ConsistencyViolation as violation:
                report.error = str(violation)
        report.ok = report.error is None
        return report


def repro_command(config: EnduranceConfig) -> str:
    """The CLI invocation that replays this exact run.

    Every field ``chaos --endurance`` sets is emitted, defaults included,
    so the command replays the same run even if a default changes.
    ``--backend`` is left out only when no backend is set (``--mode``
    then selects it).
    """
    parts = ["PYTHONPATH=src python -m repro chaos --endurance",
             f"--seed {config.seed}", f"--mode {config.mode}"]
    if config.backend is not None:
        parts.append(f"--backend {config.backend}")
    parts += [f"--strategy {config.strategy}", f"--sites {config.n_sites}",
              f"--db-size {config.db_size}", f"--rate {config.arrival_rate!r}",
              f"--clients {config.clients}",
              "--segments " + ",".join(config.segments),
              f"--duration {config.duration!r}"]
    if config.sabotage_outcome_merge:
        parts.append("--sabotage-outcome-merge")
    return " ".join(parts)


def dump_artifacts(engine: EnduranceEngine, out_dir: str) -> List[str]:
    """Write the failure evidence for one endurance run to ``out_dir``.

    Thin wrapper over the shared :func:`repro.artifacts.dump_run_artifacts`
    bundle (schedule, trace timeline, availability timeline, per-site
    WALs, metrics, repro command).  Returns the paths written.
    """
    from repro.artifacts import dump_run_artifacts

    report, config = engine.report, engine.config
    verdict = "PASS" if report.ok else f"FAIL: {report.error}"
    return dump_run_artifacts(
        out_dir,
        title=f"endurance seed={report.seed} — {verdict}",
        repro_command=repro_command(config),
        schedule=report.events,
        samples=report.samples,
        tracer=report.tracer,
        metrics=report.metrics,
        cluster=engine.cluster,
        obs=report.obs,
    )


def run_endurance(seed: int, **overrides: Any) -> EnduranceReport:
    """One-call entry point: run an endurance schedule, return its report."""
    config = EnduranceConfig(seed=seed, **overrides)
    return EnduranceEngine(config).run()
