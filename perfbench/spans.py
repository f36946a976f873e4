"""Per-layer span tracing, installed from outside the program.

The benchmark rebinds, on the classes, the public entry points of each
layer and wraps the callbacks a layer hands to the layer below (lock
grant handlers, network handlers, transaction completion callbacks).
Every wrapped call records one span: name, start, end, parent, and the
transaction id or gid the call carries.  Spans live in flat arrays in
memory and are written out only when the benchmark ends.

Simulator events are dispatched through the kernel's public
``Simulator.profiler`` hook, so each event becomes a span charged to the
layer that owns its callback (a network delivery to ``net``, a lock
manager timer to ``db.locks`` ...).  The ``sim`` layer's self time is
therefore the event loop itself: queue pops and dispatch.

Nothing under ``src/`` changes.  :meth:`Instrumentation.uninstall`
restores every original class attribute; :meth:`Instrumentation.leaked`
proves it, and the untraced runs check it before they start.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The layers, named after the modules they cover.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "gcs.total_order", "gcs.membership", "replication",
    "db.locks", "db.database", "db.wal", "reconfig", "client", "workload",
    "other",
)
_LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}

#: Longest-prefix-first module -> layer map.  ``gcs.member`` is the GCS
#: message demultiplexer and delivery path, charged to total order.
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.gcs.total_order", "gcs.total_order"),
    ("repro.gcs.member", "gcs.total_order"),
    ("repro.gcs", "gcs.membership"),
    ("repro.replication", "replication"),
    ("repro.db.locks", "db.locks"),
    ("repro.db.wal", "db.wal"),
    ("repro.db", "db.database"),
    ("repro.reconfig", "reconfig"),
    ("repro.client", "client"),
    ("repro.workload", "workload"),
)

#: Qualified-name prefixes whose layer differs from their module's.
_QUALNAME_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("ClientFleet.", "workload"),          # the closed-loop load source
    ("GroupMember._beacon", "gcs.membership"),
    ("GroupMember._check_stale_view", "gcs.membership"),
    ("GroupMember.install_view", "gcs.membership"),
    ("GroupMember.freeze_for_flush", "gcs.membership"),
)


def layer_of(module: str, qualname: str) -> str:
    for prefix, layer in _QUALNAME_LAYERS:
        if qualname.startswith(prefix):
            return layer
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class SpanRecorder:
    """Flat in-memory span store with online self-time aggregation.

    A span's self time is its duration minus the durations of its
    direct children.  Spans are recorded only between
    :meth:`begin_region` and :meth:`end_region`, which must be called
    outside any span.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.keys: List[Any] = []
        self.self_time = [0.0] * len(LAYERS)
        self._stack: List[int] = []
        self._child: List[float] = []
        self.enabled = False
        self.region_start = 0.0
        self.region_wall = 0.0

    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(_LAYER_INDEX[layer])
        return nid

    def begin_region(self) -> None:
        if self._stack:
            raise RuntimeError("begin_region inside a span")
        self.enabled = True
        self.region_start = self.clock()

    def end_region(self) -> None:
        end = self.clock()
        if self._stack:
            raise RuntimeError("end_region inside a span")
        self.enabled = False
        self.region_wall += end - self.region_start

    def enter(self, nid: int, key: Any = None) -> int:
        index = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name_of.append(nid)
        self.keys.append(key)
        self.end.append(0.0)
        stack.append(index)
        self._child.append(0.0)
        self.start.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        end = self.clock()
        self.end[index] = end
        duration = end - self.start[index]
        self._stack.pop()
        children = self._child.pop()
        self.self_time[self.name_layer[self.name_of[index]]] += duration - children
        if self._child:
            self._child[-1] += duration

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def call_counts(self) -> Dict[str, int]:
        counts = [0] * len(self.names)
        for nid in self.name_of:
            counts[nid] += 1
        return {self.names[i]: c for i, c in enumerate(counts) if c}

    def durations_by_name(self) -> Dict[str, float]:
        totals = [0.0] * len(self.names)
        start, end = self.start, self.end
        for index, nid in enumerate(self.name_of):
            totals[nid] += end[index] - start[index]
        return {self.names[i]: t for i, t in enumerate(totals) if t}

    def layer_self_times(self) -> Dict[str, float]:
        """Self time per layer, recomputed from the stored spans (an
        independent check on the online aggregation)."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for index in range(n):
            p = parent[index]
            if p >= 0:
                child[p] += end[index] - start[index]
        totals = [0.0] * len(LAYERS)
        name_layer, name_of = self.name_layer, self.name_of
        for index in range(n):
            totals[name_layer[name_of[index]]] += end[index] - start[index] - child[index]
        return dict(zip(LAYERS, totals))

    def root_time(self) -> float:
        start, end = self.start, self.end
        return sum(end[i] - start[i] for i, p in enumerate(self.parent) if p < 0)

    def attribution(self) -> Dict[str, Any]:
        """Self time per layer plus unattributed time against the traced
        region's wall time.  ``error`` is None when the identity
        ``sum(self) + unattributed == region wall`` holds, every self time
        is non-negative and the online and recomputed sums agree."""
        offline = self.layer_self_times()
        unattributed = self.region_wall - self.root_time()
        total = sum(offline.values()) + unattributed
        error = None
        tolerance = 1e-6 * max(1.0, self.region_wall)
        if abs(total - self.region_wall) > tolerance:
            error = f"self times + unattributed = {total:.6f}s != region {self.region_wall:.6f}s"
        elif unattributed < -tolerance:
            error = f"root spans exceed the traced region by {-unattributed:.6f}s"
        elif any(v < -tolerance for v in offline.values()):
            error = f"negative self time: {offline}"
        else:
            for layer, online in zip(LAYERS, self.self_time):
                if abs(online - offline[layer]) > tolerance:
                    error = f"online/offline self time differ for {layer}"
                    break
        return {"self": offline, "unattributed": unattributed,
                "region_wall": self.region_wall, "error": error}

    def write(self, stem: str, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write every span: ``<stem>.json`` (names, layers, counts),
        ``<stem>.bin`` (the name, parent, start and end arrays, in that
        order) and ``<stem>.keys`` (one txn id or gid per line, empty when
        the call carries none).  :func:`read_spans` loads them back."""
        header = {
            "names": self.names,
            "name_layer": [LAYERS[i] for i in self.name_layer],
            "count": len(self.start),
            "region_wall": self.region_wall,
            "arrays": [["name_of", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            **(meta or {}),
        }
        with open(stem + ".json", "w") as out:
            json.dump(header, out)
        with open(stem + ".bin", "wb") as out:
            for name, _code in header["arrays"]:
                getattr(self, name).tofile(out)
        with open(stem + ".keys", "w") as out:
            out.write("\n".join("" if key is None else str(key) for key in self.keys))


def read_spans(stem: str) -> Dict[str, Any]:
    """Load spans written by :meth:`SpanRecorder.write`."""
    with open(stem + ".json") as src:
        header = json.load(src)
    count = header["count"]
    with open(stem + ".bin", "rb") as src:
        for name, code in header["arrays"]:
            values = array(code)
            values.fromfile(src, count)
            header[name] = values
    with open(stem + ".keys") as src:
        header["keys"] = src.read().split("\n") if count else []
    return header


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _target(fn: Any, args: Sequence[Any], guarded: Any) -> Any:
    """The callable an event or callback really runs, looking through the
    kernel's Process trampolines and the benchmark's own wrappers."""
    for _ in range(4):
        wrapped = getattr(fn, "__perfbench_target__", None)
        if wrapped is not None:
            fn = wrapped
            continue
        func = getattr(fn, "__func__", fn)
        if func is guarded and args:
            fn, args = args[0], args[1] if len(args) > 1 else ()
            continue
        code = getattr(func, "__code__", None)
        if code is not None and code.co_name == "tick" and func.__closure__:
            cells = dict(zip(code.co_freevars, func.__closure__))
            if "fn" in cells:
                fn = cells["fn"].cell_contents
                continue
        break
    return fn


def _describe(fn: Any) -> Tuple[str, str]:
    func = getattr(fn, "__func__", fn)
    module = getattr(func, "__module__", None) or type(fn).__module__
    qualname = getattr(func, "__qualname__", None) or type(fn).__qualname__
    return module, qualname


#: (module, class, method, key argument index or None, callback argument
#: (position, keyword) or None).  Positions count ``self`` as 0.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[int], Optional[Tuple[int, str]]], ...] = (
    ("repro.sim.core", "Simulator", "run", None, None),
    ("repro.net.network", "Network", "send", None, None),
    ("repro.net.network", "Network", "send_multi", None, None),
    ("repro.net.network", "Endpoint", "attach", None, (1, "handler")),
    ("repro.gcs.total_order", "ViewTotalOrder", "on_data", None, None),
    ("repro.gcs.total_order", "ViewTotalOrder", "on_ordered", None, None),
    ("repro.gcs.total_order", "ViewTotalOrder", "on_ordered_batch", None, None),
    ("repro.gcs.total_order", "ViewTotalOrder", "on_ack", None, None),
    ("repro.gcs.total_order", "ViewTotalOrder", "on_nak", None, None),
    ("repro.gcs.total_order", "ViewTotalOrder", "flush_staged", None, None),
    ("repro.gcs.total_order", "ViewTotalOrder", "maintenance", None, None),
    ("repro.gcs.member", "GroupMember", "multicast", None, None),
    ("repro.gcs.member", "GroupMember", "_deliver", None, None),
    ("repro.gcs.member", "GroupMember", "install_view", None, None),
    ("repro.gcs.membership", "MembershipEngine", "tick", None, None),
    ("repro.gcs.membership", "MembershipEngine", "on_propose", None, None),
    ("repro.gcs.membership", "MembershipEngine", "on_flush_reply", None, None),
    ("repro.gcs.membership", "MembershipEngine", "on_flush_nack", None, None),
    ("repro.gcs.membership", "MembershipEngine", "on_round_abort", None, None),
    ("repro.gcs.membership", "MembershipEngine", "on_sync", None, None),
    ("repro.gcs.membership", "MembershipEngine", "_abort_round", None, None),
    ("repro.gcs.failure_detector", "FailureDetector", "on_presence", None, None),
    ("repro.gcs.evs", "EnrichedGroupMember", "on_view_change", None, None),
    ("repro.gcs.evs", "EnrichedGroupMember", "on_message", 3, None),
    ("repro.replication.node", "ReplicatedDatabaseNode", "submit", None, (4, "on_done")),
    ("repro.replication.node", "ReplicatedDatabaseNode", "on_message", 3, None),
    ("repro.replication.node", "ReplicatedDatabaseNode", "process_delivered", 1, None),
    ("repro.replication.node", "ReplicatedDatabaseNode", "on_view_change", None, None),
    ("repro.replication.node", "ReplicatedDatabaseNode", "on_eview_change", None, None),
    ("repro.replication.node", "ReplicatedDatabaseNode", "crash", None, None),
    ("repro.replication.node", "ReplicatedDatabaseNode", "recover", None, None),
    ("repro.db.locks", "LockManager", "request", 1, (4, "on_grant")),
    ("repro.db.locks", "LockManager", "release", 1, None),
    ("repro.db.locks", "LockManager", "cancel", 1, None),
    ("repro.db.database", "Database", "log_begin", 1, None),
    ("repro.db.database", "Database", "log_noop", 1, None),
    ("repro.db.database", "Database", "version_check", None, None),
    ("repro.db.database", "Database", "apply_write", 1, None),
    ("repro.db.database", "Database", "commit", 1, None),
    ("repro.db.database", "Database", "abort", 1, None),
    ("repro.db.database", "Database", "rollback", 1, None),
    ("repro.db.database", "Database", "checkpoint", None, None),
    ("repro.db.database", "Database", "read_as_of", None, None),
    ("repro.db.wal", "PersistentStorage", "append", None, None),
    ("repro.db.wal", "PersistentStorage", "flush", None, None),
    ("repro.db.wal", "PersistentStorage", "checkpoint", None, None),
    ("repro.reconfig.manager", "BaseReconfigManager", "on_transfer_message", None, None),
    ("repro.reconfig.manager", "BaseReconfigManager", "on_recovering_message", 1, None),
    ("repro.reconfig.manager", "BaseReconfigManager", "start_session", None, None),
    ("repro.reconfig.manager", "BaseReconfigManager", "_apply_replayed", 1, None),
    ("repro.reconfig.manager", "VsReconfigManager", "on_view_change", None, None),
    ("repro.reconfig.evs_manager", "EvsReconfigManager", "on_eview_change", None, None),
    ("repro.reconfig.transfer", "PeerTransferSession", "queue_item", None, None),
    ("repro.reconfig.transfer", "PeerTransferSession", "_transmit_batch", None, None),
    ("repro.reconfig.transfer", "PeerTransferSession", "on_batch_ack", None, None),
    ("repro.reconfig.transfer", "JoinerTransferSession", "on_batch", None, None),
    ("repro.reconfig.transfer", "JoinerTransferSession", "on_complete", None, None),
    ("repro.client.session", "ClientSession", "submit", None, None),
    ("repro.client.session", "ClientSession", "_on_attempt_done", None, None),
    ("repro.client.session", "ClientSession", "_on_timeout", None, None),
)


class LayerCounters:
    """Counts read at the wrapped boundaries (pure reads of arguments)."""

    def __init__(self) -> None:
        self.batch_items = 0
        self.batches = 0
        self.order_waits: List[float] = []
        self._multicast_at: Dict[Tuple[int, int], float] = {}

    def after(self, method: str, args: Tuple[Any, ...], result: Any) -> None:
        if method == "ViewTotalOrder.on_ordered_batch":
            self.batches += 1
            self.batch_items += len(args[1].items)
        elif method == "GroupMember.multicast":
            member = args[0]
            self._multicast_at[(id(member), result)] = member.sim.now

    def before(self, method: str, args: Tuple[Any, ...]) -> None:
        if method == "GroupMember._deliver":
            member, ordered = args[0], args[1]
            if ordered.sender == member.node_id:
                sent = self._multicast_at.pop((id(member), ordered.msg_id), None)
                if sent is not None:
                    self.order_waits.append(member.sim.now - sent)


_OBSERVED_AFTER = {"ViewTotalOrder.on_ordered_batch", "GroupMember.multicast"}
_OBSERVED_BEFORE = {"GroupMember._deliver"}


class Instrumentation:
    """Installs span wrappers on the classes and removes them again.

    Use as a context manager around building *and* running a cluster:
    bound methods captured at construction time (network handlers, the
    total-order send functions) then point at the wrappers.
    """

    def __init__(self, recorder: SpanRecorder, counters: Optional[LayerCounters] = None
                 ) -> None:
        self.recorder = recorder
        self.counters = counters or LayerCounters()
        self._saved: List[Tuple[type, str, Any]] = []
        from repro.sim.process import Process

        self._guarded = Process.__dict__["_guarded"]
        self._callback_names: Dict[Any, int] = {}
        self._event_names: Dict[Any, int] = {}
        every = Process.__dict__["every"]
        self._tick_code = next(c for c in every.__code__.co_consts
                               if getattr(c, "co_name", None) == "tick")

    # ------------------------------------------------------------------
    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for module_name, class_name, method, key_index, callback in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            qualname = f"{class_name}.{method}"
            layer = layer_of(module_name, qualname)
            nid = self.recorder.name_id(qualname, layer)
            setattr(cls, method, self._wrap_method(original, nid, qualname,
                                                   key_index, callback))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    @staticmethod
    def leaked() -> List[str]:
        """Entry points whose class attribute is still a benchmark wrapper."""
        found = []
        for module_name, class_name, method, _key, _cb in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            if hasattr(cls.__dict__[method], "__perfbench_target__"):
                found.append(f"{class_name}.{method}")
        return found

    # ------------------------------------------------------------------
    def _wrap_method(self, original: Callable[..., Any], nid: int, qualname: str,
                     key_index: Optional[int],
                     callback: Optional[Tuple[int, str]]) -> Callable[..., Any]:
        recorder = self.recorder
        counters = self.counters
        wrap_callback = self.wrap_callback
        enter, exit_ = recorder.enter, recorder.exit
        observe_after = qualname in _OBSERVED_AFTER
        observe_before = qualname in _OBSERVED_BEFORE
        plain = callback is None and not observe_after and not observe_before

        if plain and key_index is None:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not recorder.enabled:
                    return original(*args, **kwargs)
                index = enter(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_(index)
        elif plain:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not recorder.enabled:
                    return original(*args, **kwargs)
                index = enter(nid, args[key_index] if len(args) > key_index else None)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_(index)
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                # Callbacks are wrapped even outside the traced region:
                # the network handlers are attached while the cluster is
                # built.
                if callback is not None:
                    position, keyword = callback
                    if keyword in kwargs:
                        if kwargs[keyword] is not None:
                            kwargs[keyword] = wrap_callback(kwargs[keyword])
                    elif len(args) > position and args[position] is not None:
                        args = (args[:position] + (wrap_callback(args[position]),)
                                + args[position + 1:])
                if not recorder.enabled:
                    return original(*args, **kwargs)
                if observe_before:
                    counters.before(qualname, args)
                key = (args[key_index] if key_index is not None and len(args) > key_index
                       else None)
                index = enter(nid, key)
                try:
                    result = original(*args, **kwargs)
                finally:
                    exit_(index)
                if observe_after:
                    counters.after(qualname, args, result)
                return result

        wrapper.__perfbench_target__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        wrapper.__qualname__ = qualname
        wrapper.__module__ = getattr(original, "__module__", __name__)
        return wrapper

    def _callback_name(self, fn: Any, args: Sequence[Any] = (), prefix: str = "callback"
                       ) -> int:
        target = _target(fn, args, self._guarded)
        func = getattr(target, "__func__", target)
        memo_key = (prefix, getattr(func, "__code__", func))
        nid = self._callback_names.get(memo_key)
        if nid is None:
            module, qualname = _describe(target)
            nid = self.recorder.name_id(f"{prefix}:{qualname}", layer_of(module, qualname))
            self._callback_names[memo_key] = nid
        return nid

    def wrap_callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A span-recording proxy for a callback handed to a lower layer,
        charged to the layer that defined the callback."""
        if hasattr(fn, "__perfbench_target__"):
            return fn
        recorder = self.recorder
        enter, exit_ = recorder.enter, recorder.exit
        nid = self._callback_name(fn)

        def proxy(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            index = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        proxy.__perfbench_target__ = fn
        return proxy

    # ------------------------------------------------------------------
    # Simulator.profiler protocol
    # ------------------------------------------------------------------
    def _event_name(self, fn: Any, args: Sequence[Any]) -> int:
        func = getattr(fn, "__func__", fn)
        if func is self._guarded:
            inner = args[0]
            func = getattr(inner, "__func__", inner)
        # Keyed by code object, so per-call closures share one entry.
        # Process.every's ``tick`` closures wrap different callbacks
        # behind one code object: never memoized.
        key = getattr(func, "__code__", None)
        nid = self._event_names.get(key) if key is not None else None
        if nid is None:
            nid = self._callback_name(fn, args, "event")
            if key is not None and key is not self._tick_code:
                self._event_names[key] = nid
        return nid

    def run_event(self, event: Any) -> None:
        """Dispatch one simulator event inside a span owned by the layer
        whose callback it runs."""
        recorder = self.recorder
        if not recorder.enabled:
            event.fn(*event.args)
            return
        index = recorder.enter(self._event_name(event.fn, event.args))
        try:
            event.fn(*event.args)
        finally:
            recorder.exit(index)
