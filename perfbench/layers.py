"""Per-layer metrics of one traced measurement cycle.

Counts come from the cluster's existing counters (deltas over the
measured region, ``collect_cluster_metrics``), from the spans' call
counts and from pure reads at the wrapped boundaries; times are span
self times.  A metric that does not apply to a workload (no rejoin, no
client session) reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

#: name, unit, better.  Every per-layer metric the benchmark reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events_per_commit", "count", "lower"),
    ("sim.self_us_per_event", "us", "lower"),
    ("net.messages_per_commit", "count", "lower"),
    ("net.batches_per_commit", "count", "lower"),
    ("net.self_us_per_commit", "us", "lower"),
    ("net.drop_ratio", "ratio", "lower"),
    ("gcs.total_order.self_us_per_commit", "us", "lower"),
    ("gcs.total_order.items_per_batch", "count", "higher"),
    ("gcs.total_order.acks_per_commit", "count", "lower"),
    ("gcs.total_order.order_wait_ms_p50", "ms", "lower"),
    ("gcs.membership.view_changes", "count", "lower"),
    ("gcs.membership.self_ms_per_view_change", "ms", "lower"),
    ("gcs.membership.aborted_rounds", "count", "lower"),
    ("replication.self_us_per_delivered", "us", "lower"),
    ("replication.site_commit_ratio", "ratio", "higher"),
    ("replication.local_aborts_per_commit", "count", "lower"),
    ("db.locks.requests_per_commit", "count", "lower"),
    ("db.locks.self_us_per_request", "us", "lower"),
    ("db.locks.conflict_ratio", "ratio", "lower"),
    ("db.locks.queue_depth_peak", "count", "lower"),
    ("db.locks.wait_ms_per_commit", "ms", "lower"),
    ("db.database.self_us_per_commit", "us", "lower"),
    ("db.database.snapshot_ms", "ms", "lower"),
    ("db.wal.records_per_commit", "count", "lower"),
    ("db.wal.flushes_per_commit", "count", "lower"),
    ("db.wal.self_us_per_commit", "us", "lower"),
    ("reconfig.transfer.objects_per_rejoin", "count", "lower"),
    ("reconfig.transfer.bytes_per_rejoin", "bytes", "lower"),
    ("reconfig.transfer.self_ms_per_rejoin", "ms", "lower"),
    ("reconfig.transfer.retransmissions", "count", "lower"),
    ("reconfig.phase_transfer_s", "s", "lower"),
    ("reconfig.phase_replay_s", "s", "lower"),
    ("reconfig.phase_drain_s", "s", "lower"),
    ("reconfig.downtime_s_per_epoch", "s", "lower"),
    ("reconfig.recovery_s_p50", "s", "lower"),
    ("client.attempts_per_request", "count", "lower"),
    ("client.failovers", "count", "lower"),
    ("client.self_us_per_request", "us", "lower"),
    ("workload.self_us_per_submit", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
)
_UNITS = {name: unit for name, unit, _better in PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(pairs: List[Tuple[Any, ...]]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics pooled over one cycle's instances.

    ``pairs`` holds ``(untraced, traced, recorder, counters, attribution)``
    per instance.  Absolute counts (view changes, retransmissions,
    failovers) are means per instance; everything else is a ratio of
    pooled sums."""
    n = len(pairs)
    counter: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    durations: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    region = unattributed = plain_wall = traced_wall = 0.0
    batch_items = batches = 0
    order_waits: List[float] = []
    epochs = []
    submitted = attempts = failovers = 0
    queue_peak = 0.0
    for plain, traced, recorder, counters, attribution in pairs:
        for key, value in traced.counters.items():
            counter[key] = counter.get(key, 0.0) + value
        queue_peak = max(queue_peak, traced.counters["locks.queue_depth_peak"])
        for key, value in recorder.call_counts().items():
            calls[key] = calls.get(key, 0) + value
        for key, value in recorder.durations_by_name().items():
            durations[key] = durations.get(key, 0.0) + value
        for key, value in attribution["self"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        region += attribution["region_wall"]
        unattributed += attribution["unattributed"]
        plain_wall += plain.wall_s
        traced_wall += traced.wall_s
        batch_items += counters.batch_items
        batches += counters.batches
        order_waits.extend(counters.order_waits)
        epochs.extend(traced.epochs)
        submitted += traced.driven.submitted
        attempts += traced.driven.attempts
        failovers += traced.driven.failovers

    commits = counter["txn.commits"]
    events = counter["sim.events_processed"]
    sent = counter["net.messages_sent"]
    delivered = calls.get("ReplicatedDatabaseNode.process_delivered", 0)
    requests = calls.get("LockManager.request", 0)
    view_changes = calls.get("GroupMember.install_view", 0)
    rejoins = counter["xfer.transfers_completed"]
    snapshots = calls.get("Database.checkpoint", 0) + calls.get("Database.read_as_of", 0)
    snapshot_s = durations.get("Database.checkpoint", 0.0) + durations.get(
        "Database.read_as_of", 0.0)
    net_deliveries = (calls.get("event:Network._arrive_batch", 0)
                      + calls.get("event:Network._arrive", 0))
    phases = {name: sum(e.phase_durations()[name] for e in epochs)
              for name in ("transfer", "replay", "drain")}
    recoveries = [e.duration - e.phase_durations()["down"]
                  for e in epochs if e.trigger == "crash" and not e.truncated]
    us = 1e6
    values = {
        "sim.events_per_commit": _ratio(events, commits),
        "sim.self_us_per_event": _ratio(self_s["sim"] * us, events),
        "net.messages_per_commit": _ratio(sent, commits),
        "net.batches_per_commit": _ratio(net_deliveries, commits),
        "net.self_us_per_commit": _ratio(self_s["net"] * us, commits),
        "net.drop_ratio": _ratio(counter["net.messages_dropped"], sent),
        "gcs.total_order.self_us_per_commit": _ratio(self_s["gcs.total_order"] * us, commits),
        "gcs.total_order.items_per_batch": _ratio(batch_items, batches),
        "gcs.total_order.acks_per_commit": _ratio(calls.get("ViewTotalOrder.on_ack", 0), commits),
        "gcs.total_order.order_wait_ms_p50": (statistics.median(order_waits) * 1e3
                                              if order_waits else 0.0),
        "gcs.membership.view_changes": view_changes / n,
        "gcs.membership.self_ms_per_view_change": _ratio(self_s["gcs.membership"] * 1e3,
                                                         view_changes),
        "gcs.membership.aborted_rounds": calls.get("MembershipEngine._abort_round", 0) / n,
        "replication.self_us_per_delivered": _ratio(self_s["replication"] * us, delivered),
        "replication.site_commit_ratio": _ratio(counter["txn.site_commits"], delivered),
        "replication.local_aborts_per_commit": _ratio(counter["txn.local_aborts"], commits),
        "db.locks.requests_per_commit": _ratio(requests, commits),
        "db.locks.self_us_per_request": _ratio(self_s["db.locks"] * us, requests),
        "db.locks.conflict_ratio": _ratio(counter["locks.conflicts"], requests),
        "db.locks.queue_depth_peak": queue_peak,
        "db.locks.wait_ms_per_commit": _ratio(counter["locks.wait_time_total"] * 1e3, commits),
        "db.database.self_us_per_commit": _ratio(self_s["db.database"] * us, commits),
        "db.database.snapshot_ms": _ratio(snapshot_s * 1e3, snapshots),
        "db.wal.records_per_commit": _ratio(counter["wal.records_appended"], commits),
        "db.wal.flushes_per_commit": _ratio(counter["wal.fsyncs"], commits),
        "db.wal.self_us_per_commit": _ratio(self_s["db.wal"] * us, commits),
        "reconfig.transfer.objects_per_rejoin": _ratio(counter["xfer.objects_sent"], rejoins),
        "reconfig.transfer.bytes_per_rejoin": _ratio(counter["xfer.bytes_sent"], rejoins),
        "reconfig.transfer.self_ms_per_rejoin": _ratio(self_s["reconfig"] * 1e3, rejoins),
        "reconfig.transfer.retransmissions": counter["xfer.retransmissions"] / n,
        "reconfig.phase_transfer_s": _ratio(phases["transfer"], len(epochs)),
        "reconfig.phase_replay_s": _ratio(phases["replay"], len(epochs)),
        "reconfig.phase_drain_s": _ratio(phases["drain"], len(epochs)),
        "reconfig.downtime_s_per_epoch": _ratio(sum(e.duration for e in epochs), len(epochs)),
        "reconfig.recovery_s_p50": statistics.median(recoveries) if recoveries else 0.0,
        "client.attempts_per_request": _ratio(attempts, submitted) if attempts else 0.0,
        "client.failovers": failovers / n,
        "client.self_us_per_request": (_ratio(self_s["client"] * us, submitted)
                                       if attempts else 0.0),
        "workload.self_us_per_submit": _ratio(self_s["workload"] * us, submitted),
        "trace.overhead_ratio": _ratio(traced_wall, plain_wall),
        "trace.unattributed_ratio": _ratio(unattributed, region),
    }
    return {name: (values[name], _UNITS[name]) for name, _unit, _better in PER_LAYER}
