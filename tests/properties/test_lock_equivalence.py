"""Differential test: the lock manager against the single-queue model.

``ReferenceLockManager`` is the lock manager as it was when every
waiting request sat in one global list, rescanned from the start after
each grant.  It is kept verbatim (only renamed) as the oracle for the
per-resource queues that replaced it: on any sequence of requests,
releases, cancels and ticket-inheriting downgrades, including
``on_grant`` callbacks that re-enter the manager, both must fire the
same grants in the same order and end in the same state.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db.locks import (
    DB_RESOURCE,
    LockManager,
    LockMode,
    LockRequest,
    _conflicting,
)
from repro.db.partitions import make_partition_fn, partition_names, partition_resource


class ReferenceLockManager:
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
        self._waiting: List[LockRequest] = []
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
        return [r for r in self._waiting if not r.cancelled]

    def waiting_for(self, request: LockRequest) -> Set[str]:
        """Transaction ids this waiting request is blocked behind."""
        blockers: Set[str] = set()
        for resource, holders in self._overlapping_items(request.resource):
            for txn_id, mode in holders.items():
                if txn_id != request.txn_id and _conflicting(request.mode, mode):
                    blockers.add(txn_id)
        for other in self._waiting:
            if (
                not other.cancelled
                and other.ticket < request.ticket
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
            self._waiting.append(request)
            depth = len(self._waiting)
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
            self._pump()

    def cancel(self, txn_id: str) -> None:
        """Drop every waiting request of the transaction and release its
        holds (used when a local-phase reader is aborted)."""
        for req in self._waiting:
            if req.txn_id == txn_id:
                req.cancelled = True
        self._waiting = [r for r in self._waiting if not r.cancelled]
        self.release(txn_id)
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
            from repro.db.partitions import PARTITION_PREFIX

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
        txn_id = request.txn_id
        mode = request.mode
        resource = request.resource
        if self._partition_fn is None and resource != DB_RESOURCE:
            # Fast path mirroring _overlapping_items' common case, but
            # with no list/tuple allocation: an object lock can only
            # overlap itself and the database-level lock.
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
        else:
            for _res, holders in self._overlapping_items(resource):
                for other_txn, other_mode in holders.items():
                    if other_txn != txn_id and _conflicting(mode, other_mode):
                        return False
        # FIFO fairness across both levels: never overtake an earlier
        # conflicting waiter (this is what orders a transfer transaction's
        # read locks between pre- and post-view-change writers).
        waiting = self._waiting
        if waiting:
            ticket = request.ticket
            for other in waiting:
                if (
                    not other.cancelled
                    and other.ticket < ticket
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
        """Grant every waiting request that has become eligible, in order."""
        progress = True
        while progress:
            progress = False
            for request in list(self._waiting):
                if request.cancelled:
                    self._waiting.remove(request)
                    continue
                if self._grantable(request):
                    self._waiting.remove(request)
                    self._grant(request)
                    progress = True
                    break


PARTITIONS = 2
OBJECTS = ["a", "b", "c"]
RESOURCES = (
    OBJECTS
    + [DB_RESOURCE]
    + [partition_resource(name) for name in partition_names(PARTITIONS)]
)
TXNS = ["T1", "T2", "T3", "T4"]

txns = st.sampled_from(TXNS)
modes = st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])
releases = st.tuples(
    st.just("release"), txns, st.one_of(st.none(), st.sampled_from(RESOURCES))
)
cancels = st.tuples(st.just("cancel"), txns)


def requests(reactions):
    """A request whose ``on_grant`` callback runs ``reactions``."""
    return st.tuples(st.just("request"), txns, st.sampled_from(RESOURCES), modes, reactions)


#: Operations an ``on_grant`` callback may run: two levels of
#: re-entrant requests, releases and cancels.
leaf_ops = st.one_of(requests(st.just([])), releases, cancels)
reaction_ops = st.one_of(requests(st.lists(leaf_ops, max_size=2)), releases, cancels)
top_requests = requests(st.lists(reaction_ops, max_size=2))
# Requests are drawn as often as everything else together, so queues
# build up and releases have waiters to grant.
operations = st.one_of(
    top_requests,
    top_requests,
    top_requests,
    releases,
    cancels,
    # Section 4.5's downgrade: object read locks inherit the ticket of
    # the transaction's database lock, which is then released.
    st.tuples(st.just("downgrade"), txns, st.lists(st.sampled_from(OBJECTS), max_size=3)),
)


class Driver:
    """Runs operations on one manager and records what it observes."""

    def __init__(self, factory, partitioned: bool) -> None:
        self.now = 0.0
        self.lm = factory(
            clock=lambda: self.now,
            partition_fn=make_partition_fn(PARTITIONS) if partitioned else None,
        )
        self.grant_log: List[tuple] = []
        self.requests: List[LockRequest] = []
        self.db_ticket: Dict[str, int] = {}

    def run(self, op: tuple) -> None:
        kind = op[0]
        if kind == "request":
            _, txn, resource, mode, reactions = op
            self._request(txn, resource, mode, reactions)
        elif kind == "release":
            self.lm.release(op[1], op[2])
        elif kind == "cancel":
            self.lm.cancel(op[1])
        else:
            _, txn, objects = op
            ticket = self.db_ticket.get(txn)
            if ticket is None:
                return
            for obj in objects:
                self._request(txn, obj, LockMode.SHARED, [], inherit=ticket)
            self.lm.release(txn, DB_RESOURCE)

    def _request(self, txn, resource, mode, reactions, inherit=None) -> None:
        def on_grant(request: LockRequest) -> None:
            self.grant_log.append(_key(request))
            for reaction in reactions:
                self.run(reaction)

        request = self.lm.request(txn, resource, mode, on_grant, inherit_ticket=inherit)
        self.requests.append(request)
        if resource == DB_RESOURCE:
            self.db_ticket[txn] = request.ticket

    def snapshot(self) -> dict:
        lm = self.lm
        return {
            "grant_log": list(self.grant_log),
            "holders": {r: lm.holders(r) for r in RESOURCES if lm.holders(r)},
            "waiting": [_key(r) for r in lm.waiting_requests()],
            "conflicts": lm.conflicts,
            "grants": lm.grants,
            "max_waiting": lm.max_waiting,
            "wait_times": list(lm.wait_times),
            "requests": [(_key(r), r.granted, r.cancelled) for r in self.requests],
        }


def _key(request: LockRequest) -> tuple:
    return (request.txn_id, request.resource, request.mode, request.ticket)


@given(st.booleans(), st.lists(operations, min_size=10, max_size=60))
@settings(max_examples=300, deadline=None)
def test_grants_and_state_match_reference(partitioned, ops):
    new = Driver(LockManager, partitioned)
    ref = Driver(ReferenceLockManager, partitioned)
    # End by cancelling every transaction, releasing what each holds.
    script = list(ops) + [("cancel", txn) for txn in TXNS]
    for step, op in enumerate(script):
        for driver in (new, ref):
            driver.now = float(step)
            driver.run(op)
        assert new.snapshot() == ref.snapshot(), f"diverged at step {step}: {op}"
