import importlib

import pytest

from perfbench.spans import (ENTRY_POINTS, Instrumentation, LayerCounters,
                             SpanRecorder, layer_of, read_spans)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_on_a_synthetic_span_tree():
    # region [0, 12]: A[1, 11] holds B[2, 5] and C[6, 10]; C holds D[7, 8].
    clock = FakeClock([0, 1, 2, 5, 6, 7, 8, 10, 11, 12])
    rec = SpanRecorder(clock=clock)
    a = rec.name_id("A", "replication")
    b = rec.name_id("B", "db.locks")
    c = rec.name_id("C", "db.database")
    d = rec.name_id("D", "db.wal")
    rec.begin_region()
    ia = rec.enter(a)
    ib = rec.enter(b, key="S1#1")
    rec.exit(ib)
    ic = rec.enter(c, key=7)
    idd = rec.enter(d)
    rec.exit(idd)
    rec.exit(ic)
    rec.exit(ia)
    rec.end_region()

    selfs = rec.layer_self_times()
    assert selfs["replication"] == 3  # 10 - 3 - 4
    assert selfs["db.locks"] == 3
    assert selfs["db.database"] == 3  # 4 - 1
    assert selfs["db.wal"] == 1
    attribution = rec.attribution()
    assert attribution["error"] is None
    assert attribution["unattributed"] == 2  # [0, 1] and [11, 12]
    assert sum(attribution["self"].values()) + attribution["unattributed"] == 12
    assert list(rec.parent) == [-1, 0, 0, 2]
    assert rec.keys == [None, "S1#1", 7, None]


def test_attribution_flags_a_span_outside_the_region():
    clock = FakeClock([0, 1, 5, 3])  # region is 3 s long, its span 4 s
    rec = SpanRecorder(clock=clock)
    nid = rec.name_id("A", "net")
    rec.begin_region()
    rec.exit(rec.enter(nid))
    rec.end_region()
    assert "exceed" in rec.attribution()["error"]


def test_spans_round_trip_through_files(tmp_path):
    clock = FakeClock([0, 1, 2, 3, 4, 5])
    rec = SpanRecorder(clock=clock)
    outer, inner = rec.name_id("outer", "sim"), rec.name_id("inner", "net")
    rec.begin_region()
    i = rec.enter(outer)
    rec.exit(rec.enter(inner, key=42))
    rec.exit(i)
    rec.end_region()
    stem = str(tmp_path / "spans")
    rec.write(stem, {"workload": "unit"})
    loaded = read_spans(stem)
    assert loaded["count"] == 2 and loaded["workload"] == "unit"
    assert loaded["names"] == ["outer", "inner"]
    assert list(loaded["parent"]) == [-1, 0]
    assert list(loaded["start"]) == [1.0, 2.0]
    assert loaded["keys"] == ["", "42"]


def _class_attributes():
    found = {}
    for module, cls_name, method, _key, _cb in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        found[(cls, method)] = cls.__dict__[method]
    return found


def test_wrappers_are_removed_and_originals_restored():
    originals = _class_attributes()
    assert Instrumentation.leaked() == []
    inst = Instrumentation(SpanRecorder(), LayerCounters())
    inst.install()
    try:
        assert len(Instrumentation.leaked()) == len(ENTRY_POINTS)
        for (cls, method), original in originals.items():
            assert cls.__dict__[method] is not original
    finally:
        inst.uninstall()
    for (cls, method), original in originals.items():
        assert cls.__dict__[method] is original
    assert Instrumentation.leaked() == []


def test_wrappers_are_removed_when_the_traced_run_fails():
    originals = _class_attributes()
    with pytest.raises(ZeroDivisionError):
        with Instrumentation(SpanRecorder()):
            1 / 0
    assert _class_attributes() == originals


def test_layer_map_follows_the_modules():
    assert layer_of("repro.db.locks", "LockManager.request") == "db.locks"
    assert layer_of("repro.db.wal", "PersistentStorage.append") == "db.wal"
    assert layer_of("repro.db.store", "ObjectStore.write") == "db.database"
    assert layer_of("repro.gcs.evs", "EnrichedGroupMember.on_message") == "gcs.membership"
    assert layer_of("repro.gcs.member", "GroupMember._deliver") == "gcs.total_order"
    assert layer_of("repro.gcs.member", "GroupMember._beacon") == "gcs.membership"
    assert layer_of("repro.client.session", "ClientFleet._issue") == "workload"
    assert layer_of("repro.client.session", "ClientSession.submit") == "client"
    assert layer_of("repro.reconfig.transfer", "PeerTransferSession.queue_item") == "reconfig"
    assert layer_of("somewhere.else", "f") == "other"
