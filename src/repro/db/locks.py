"""Strict two-phase lock manager with a coarse database-level lock.

Requirements taken directly from the paper:

* shared (read) and exclusive (write) locks on individual objects with
  FIFO queues — "write/read conflicts are handled by traditional
  2-phase-locking (the read waits until the write releases the lock)";
* a transfer transaction must be able to hold read locks that are
  ordered *after* the write locks of transactions delivered before the
  view change and *before* those delivered after it (section 4.3) — our
  global ticket order provides this, because lock requests are issued
  synchronously in delivery order;
* a single read lock **on the entire database** that conflicts with all
  object-level writers (section 4.5), later downgraded to fine-grained
  object locks.

Deadlock freedom: the replica control protocol acquires write locks in
total-order delivery position, aborts local-phase readers instead of
waiting for them, and readers only ever wait for writers; all waits-for
edges therefore point from later to earlier ticket numbers and no cycle
can form.  The manager still exposes :meth:`waiting_for` so tests can
assert this invariant.
"""

from __future__ import annotations

import enum
import itertools
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.db.partitions import PARTITION_PREFIX

#: Resource name of the whole-database lock (section 4.5).
DB_RESOURCE = "__DATABASE__"


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


def _conflicting(a: LockMode, b: LockMode) -> bool:
    return a is LockMode.EXCLUSIVE or b is LockMode.EXCLUSIVE


class LockRequest:
    """One lock request; fires ``on_grant`` exactly once when granted."""

    __slots__ = (
        "txn_id",
        "resource",
        "mode",
        "ticket",
        "granted",
        "cancelled",
        "on_grant",
        "enqueued_at",
        "granted_at",
        "arrival",
    )

    def __init__(
        self,
        txn_id: str,
        resource: str,
        mode: LockMode,
        ticket: int,
        on_grant: Optional[Callable[["LockRequest"], None]],
        enqueued_at: float,
    ) -> None:
        self.txn_id = txn_id
        self.resource = resource
        self.mode = mode
        self.ticket = ticket
        self.granted = False
        self.cancelled = False
        self.on_grant = on_grant
        self.enqueued_at = enqueued_at
        self.granted_at: Optional[float] = None
        #: Position in the manager's arrival order; set when queued.
        self.arrival = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "granted" if self.granted else ("cancelled" if self.cancelled else "waiting")
        return f"<Lock {self.txn_id}:{self.mode.value} {self.resource} #{self.ticket} {state}>"


class LockManager:
    """Two-level (database / object) strict lock manager."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        partition_fn: Optional[Callable[[str], str]] = None,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        self._partition_fn = partition_fn
        self._ticket = itertools.count()
        # resource -> {txn_id: mode} (a txn holds at most one mode per resource;
        # EXCLUSIVE subsumes SHARED on upgrade).
        self._holders: Dict[str, Dict[str, LockMode]] = {}
        # txn_id -> resources it holds; mirror of _holders so releasing
        # a whole transaction is O(locks held), not O(locks held by all).
        self._held_by: Dict[str, Set[str]] = {}
        # resource -> its waiting requests in arrival order (no empty
        # lists), plus the total count of waiting requests.
        self._queues: Dict[str, List[LockRequest]] = {}
        self._n_waiting = 0
        self._arrivals = itertools.count()
        # Resources a holder or waiter has left since the wait queue was
        # last known to hold no grantable request (see _pump).
        self._dirty: Set[str] = set()
        self.wait_times: List[float] = []
        self.grants = 0
        #: Requests that could not be granted immediately (conflicts).
        self.conflicts = 0
        #: High-watermark of the wait-queue depth.
        self.max_waiting = 0
        #: Observability instruments (repro.obs.LockInstruments); None
        #: keeps the request/grant paths at one attribute check each.
        self.obs = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def holders(self, resource: str) -> Dict[str, LockMode]:
        return dict(self._holders.get(resource, {}))

    def holder_items(self, resource: str) -> Tuple[Tuple[str, LockMode], ...]:
        """Snapshot of ``holders(resource).items()`` as a tuple.

        Safe to iterate while releasing locks, and free for the common
        case of an uncontended resource (no dict is allocated).
        """
        holders = self._holders.get(resource)
        if not holders:
            return ()
        return tuple(holders.items())

    def holds(self, txn_id: str, resource: str) -> bool:
        return txn_id in self._holders.get(resource, {})

    def ticket_of(self, request: "LockRequest") -> int:
        return request.ticket

    def waiting_requests(self) -> List[LockRequest]:
        """Every waiting request, in arrival order."""
        return sorted(
            (r for queue in self._queues.values() for r in queue),
            key=attrgetter("arrival"),
        )

    def waiting_for(self, request: LockRequest) -> Set[str]:
        """Transaction ids this waiting request is blocked behind."""
        blockers: Set[str] = set()
        for resource, holders in self._overlapping_items(request.resource):
            for txn_id, mode in holders.items():
                if txn_id != request.txn_id and _conflicting(request.mode, mode):
                    blockers.add(txn_id)
        for queue in self._queues.values():
            for other in queue:
                if (
                    other.ticket < request.ticket
                    and other.txn_id != request.txn_id
                    and self._resources_overlap(request.resource, other.resource)
                    and _conflicting(request.mode, other.mode)
                ):
                    blockers.add(other.txn_id)
        return blockers

    # ------------------------------------------------------------------
    # Requesting and releasing
    # ------------------------------------------------------------------
    def request(
        self,
        txn_id: str,
        resource: str,
        mode: LockMode,
        on_grant: Optional[Callable[[LockRequest], None]] = None,
        inherit_ticket: Optional[int] = None,
    ) -> LockRequest:
        """Request a lock; grants immediately when possible.

        The returned request's ``granted`` flag tells whether the caller
        can proceed; otherwise ``on_grant`` fires later (synchronously
        from the release that unblocks it).

        ``inherit_ticket`` lets a coarse lock be *downgraded* to finer
        locks without losing its queue position (section 4.5: "Request
        read locks on objects ... and release the lock on the database"
        — the object locks replace the database lock in the ordering).
        """
        request = LockRequest(
            txn_id,
            resource,
            mode,
            next(self._ticket) if inherit_ticket is None else inherit_ticket,
            on_grant,
            self._clock(),
        )
        if self._grantable(request):
            self._grant(request)
        else:
            self.conflicts += 1
            request.arrival = next(self._arrivals)
            queue = self._queues.get(resource)
            if queue is None:
                self._queues[resource] = [request]
            else:
                queue.append(request)
            self._n_waiting += 1
            depth = self._n_waiting
            if depth > self.max_waiting:
                self.max_waiting = depth
            if self.obs is not None:
                self.obs.queue_depth.observe(depth)
        return request

    def release(self, txn_id: str, resource: Optional[str] = None) -> None:
        """Release one resource (or, with ``resource=None``, everything)
        held by the transaction, then re-examine the wait queue."""
        held = self._held_by.get(txn_id)
        if resource is None:
            resources = list(held) if held else []
        else:
            resources = [resource] if held and resource in held else []
        for res in resources:
            held.discard(res)
            holders = self._holders[res]
            holders.pop(txn_id, None)
            if not holders:
                del self._holders[res]
        if held is not None and not held:
            del self._held_by[txn_id]
        if resources:
            if self._n_waiting:
                self._dirty.update(resources)
            self._pump()

    def cancel(self, txn_id: str) -> None:
        """Drop every waiting request of the transaction and release its
        holds (used when a local-phase reader is aborted)."""
        queues = self._queues
        for resource, queue in list(queues.items()):
            mine = [r for r in queue if r.txn_id == txn_id]
            if not mine:
                continue
            for request in mine:
                request.cancelled = True
                queue.remove(request)
            if not queue:
                del queues[resource]
            self._n_waiting -= len(mine)
            self._dirty.add(resource)
        # Pump exactly once, even when nothing was dropped: a cancel run
        # from an on_grant callback lets the grants still pending from
        # the outer pump fire before it returns.
        if txn_id in self._held_by:
            self.release(txn_id)
        else:
            self._pump()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resources_overlap(self, a: str, b: str) -> bool:
        """The database-level lock covers every object; a partition-level
        lock (coarse granularity, section 4.3) covers its objects."""
        if a == b or a == DB_RESOURCE or b == DB_RESOURCE:
            return True
        if self._partition_fn is not None:
            a_part = a.startswith(PARTITION_PREFIX)
            b_part = b.startswith(PARTITION_PREFIX)
            if a_part and not b_part:
                return self._partition_fn(b) == a
            if b_part and not a_part:
                return self._partition_fn(a) == b
        return False

    def _overlapping_items(self, resource: str):
        """The held (resource, holders) entries that can overlap
        ``resource``.  Without partition locks, an object lock overlaps
        only itself and the database-level lock, so the common case is
        two dict lookups instead of a scan over everything held."""
        if self._partition_fn is None and resource != DB_RESOURCE:
            items = []
            holders = self._holders.get(resource)
            if holders is not None:
                items.append((resource, holders))
            db_holders = self._holders.get(DB_RESOURCE)
            if db_holders is not None:
                items.append((DB_RESOURCE, db_holders))
            return items
        return [
            (other, holders)
            for other, holders in self._holders.items()
            if self._resources_overlap(resource, other)
        ]

    def _grantable(self, request: LockRequest) -> bool:
        """No conflicting holder, and no earlier conflicting waiter, on
        any resource that overlaps the request's.

        The waiter check is FIFO fairness across both levels: never
        overtake an earlier conflicting waiter (this is what orders a
        transfer transaction's read locks between pre- and
        post-view-change writers)."""
        txn_id = request.txn_id
        mode = request.mode
        resource = request.resource
        queues = self._queues
        if self._partition_fn is None and resource != DB_RESOURCE:
            # Fast path mirroring _overlapping_items' common case, but
            # with no list allocation: an object lock can only overlap
            # itself and the database-level lock.
            exclusive = mode is LockMode.EXCLUSIVE
            holders = self._holders.get(resource)
            if holders:
                for other_txn, other_mode in holders.items():
                    if other_txn != txn_id and (
                        exclusive or other_mode is LockMode.EXCLUSIVE
                    ):
                        return False
            db_holders = self._holders.get(DB_RESOURCE)
            if db_holders:
                for other_txn, other_mode in db_holders.items():
                    if other_txn != txn_id and (
                        exclusive or other_mode is LockMode.EXCLUSIVE
                    ):
                        return False
            if queues:
                ticket = request.ticket
                for queue in (queues.get(resource), queues.get(DB_RESOURCE)):
                    if queue:
                        for other in queue:
                            if (
                                other.ticket < ticket
                                and other.txn_id != txn_id
                                and (exclusive or other.mode is LockMode.EXCLUSIVE)
                            ):
                                return False
            return True
        for _res, holders in self._overlapping_items(resource):
            for other_txn, other_mode in holders.items():
                if other_txn != txn_id and _conflicting(mode, other_mode):
                    return False
        ticket = request.ticket
        for queue in queues.values():
            for other in queue:
                if (
                    other.ticket < ticket
                    and other.txn_id != txn_id
                    and self._resources_overlap(resource, other.resource)
                    and _conflicting(mode, other.mode)
                ):
                    return False
        return True

    def _grant(self, request: LockRequest) -> None:
        holders = self._holders.get(request.resource)
        if holders is None:
            holders = self._holders[request.resource] = {}
        current = holders.get(request.txn_id)
        if current is None or request.mode is LockMode.EXCLUSIVE:
            holders[request.txn_id] = request.mode
        held = self._held_by.get(request.txn_id)
        if held is None:
            held = self._held_by[request.txn_id] = set()
        held.add(request.resource)
        request.granted = True
        request.granted_at = self._clock()
        self.wait_times.append(request.granted_at - request.enqueued_at)
        self.grants += 1
        if self.obs is not None:
            self.obs.wait_time.observe(request.granted_at - request.enqueued_at)
        if request.on_grant is not None:
            request.on_grant(request)

    def _pump(self) -> None:
        """Grant the earliest-arrived grantable waiter, repeatedly, until
        no waiter is grantable.

        When this returns no waiter is grantable, and only a holder or
        waiter leaving a resource can make one so: granting a waiter
        turns it into a holder that blocks at least what it blocked
        while waiting.  Those departures are recorded in ``_dirty``, so
        only the waiters that overlap a dirty resource are examined.  A
        grant's ``on_grant`` callback may release or cancel and so pump
        re-entrantly; the nested pump shares ``_dirty`` and empties it.
        """
        dirty = self._dirty
        queues = self._queues
        while dirty:
            if self._partition_fn is None and DB_RESOURCE not in dirty:
                # An object overlaps only itself and the database.
                candidates = [queues.get(resource) for resource in dirty]
                candidates.append(queues.get(DB_RESOURCE))
            else:
                candidates = list(queues.values())
            best: Optional[LockRequest] = None
            for queue in candidates:
                if not queue:
                    continue
                for request in queue:
                    if best is not None and request.arrival > best.arrival:
                        break
                    if self._grantable(request):
                        best = request
                        break
            if best is None:
                dirty.clear()
                return
            queue = queues[best.resource]
            queue.remove(best)
            if not queue:
                del queues[best.resource]
            self._n_waiting -= 1
            self._grant(best)
