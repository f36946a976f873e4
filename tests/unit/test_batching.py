"""Unit tests for the hot-path batch boundaries.

The sequencer's staged flush must never leak Ordered messages across a
view change, the network's same-tick delivery batches must keep
per-message loss/duplication semantics under fault injectors, and
compressed transfer chunks must account the bytes that actually travel.
End to end, the committed audit golden record (``AUDIT_golden.json``)
pins the behaviour; these tests pin the individual mechanisms so a
failure points at the exact layer.
"""

import pickle

import pytest

from repro.gcs.messages import Ack, Data, Ordered, OrderedBatch, ViewId
from repro.gcs.total_order import ViewTotalOrder
from repro.gcs.view import View
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.reconfig.transfer import (
    TransferBatch,
    decode_batch_items,
    encode_batch_items,
)
from repro.sim.core import Simulator


# ----------------------------------------------------------------------
# Sequencer staging
# ----------------------------------------------------------------------
def record_sends(sent):
    """send and send_many hooks that append (dst, msg) to ``sent``."""
    return (lambda dst, msg: sent.append((dst, msg)),
            lambda dsts, msg: sent.extend((dst, msg) for dst in dsts))


def make_sequencer():
    """A ViewTotalOrder at the sequencer (min member) with recording
    send/deliver hooks and a manually drained defer queue."""
    view = View(ViewId(1, "S1"), ("S1", "S2", "S3"))
    sent = []
    delivered = []
    deferred = []
    send, send_many = record_sends(sent)
    to = ViewTotalOrder(
        view=view,
        me="S1",
        base_gseq=0,
        send=send,
        send_many=send_many,
        deliver=lambda msg: delivered.append(msg),
        defer=deferred.append,
    )
    return to, sent, delivered, deferred


def data(i, sender="S2"):
    return Data(sender=sender, msg_id=i, view_id=ViewId(1, "S1"), payload=f"m{i}")


class TestSequencerStaging:
    def test_round_coalesces_into_one_batch_per_member(self):
        to, sent, delivered, deferred = make_sequencer()
        for i in range(3):
            to.on_data(data(i))
        # The (empty, still mutable) batch went on the wire with the
        # *first* message of the round — reserving that message's
        # delivery slot, so same-time timers scheduled later in the
        # tick cannot overtake it — and one deferred seal is scheduled.
        # Nothing is readable from the batch yet.
        assert {dst for dst, _ in sent} == {"S2", "S3"}
        assert len(sent) == 2
        assert all(msg.items == () for _, msg in sent)
        assert len(deferred) == 1
        # Local self-sequencing happened immediately; app delivery
        # waits for the other members' acks (uniform).
        assert to.recv_highwater == 2
        assert to.ack_high["S1"] == 2
        assert delivered == []
        deferred.pop()()  # end of tick: seal the in-flight batch
        batches = [msg for _, msg in sent if isinstance(msg, OrderedBatch)]
        assert len(sent) == 2 and len(batches) == 2
        assert batches[0] is batches[1]  # one shared sealed batch object
        for b in batches:
            assert [m.payload for m in b.items] == ["m0", "m1", "m2"]
            assert [m.seq for m in b.items] == [0, 1, 2]
            assert b.ack_high == 2  # the sequencer's own ack, piggybacked
        assert to.batches_sent == 1

    def test_single_message_round_still_subsumes_the_ack(self):
        """Even a one-item round ships as a batch: the sequencer's own
        cumulative ack rides along instead of travelling as a separate
        Ack."""
        to, sent, _, deferred = make_sequencer()
        to.on_data(data(0))
        deferred.pop()()
        assert len(sent) == 2
        for _, msg in sent:
            assert isinstance(msg, OrderedBatch)
            assert len(msg.items) == 1 and msg.ack_high == 0

    def test_flush_on_view_freeze_leaves_nothing_staged(self):
        """freeze_for_flush() calls flush_staged() synchronously; the
        staged round must be sealed before the flush cut is extracted so
        no sequenced message is lost across the view change."""
        to, sent, _, deferred = make_sequencer()
        to.on_data(data(0))
        to.on_data(data(1))
        to.flush_staged()  # what GroupMember.freeze_for_flush drives
        assert to._stage == []
        batches = [msg for _, msg in sent if isinstance(msg, OrderedBatch)]
        assert len(batches) == 2  # one per remote member
        assert all(len(b.items) == 2 for b in batches)
        # The deferred end-of-tick flush still fires but is now a no-op.
        before = list(sent)
        deferred.pop()()
        assert sent == before
        assert all(len(b.items) == 2 for b in batches)

    def test_receiver_batch_equals_individual_orders(self):
        """on_ordered_batch must leave the receiver in the same state as
        a sequence of on_ordered calls (the retransmission path),
        emitting one cumulative ack."""
        view = View(ViewId(1, "S1"), ("S1", "S2", "S3"))
        results = []
        for batched in (False, True):
            sent, delivered = [], []
            send, send_many = record_sends(sent)
            to = ViewTotalOrder(
                view=view, me="S2", base_gseq=0,
                send=send, send_many=send_many,
                deliver=delivered.append, defer=lambda fn: None,
            )
            orders = [
                Ordered(view_id=view.view_id, seq=i, gseq=i, sender="S1",
                        msg_id=i, payload=f"m{i}")
                for i in range(3)
            ]
            if batched:
                to.on_ordered_batch(OrderedBatch(view_id=view.view_id,
                                                 items=tuple(orders)))
            else:
                for msg in orders:
                    to.on_ordered(msg)
            acks = [m.highwater for _, m in sent if isinstance(m, Ack)]
            results.append((
                [m.payload for m in delivered],
                to.recv_highwater,
                to.delivered_seq,
                acks[-1] if acks else None,
            ))
        plain, batched = results
        assert plain[:3] == batched[:3]
        assert plain[3] == batched[3] == 2
        # ... but the batch path acked once, not three times.


# ----------------------------------------------------------------------
# Network same-tick delivery batches
# ----------------------------------------------------------------------
class Sink:
    def __init__(self):
        self.got = []

    def __call__(self, src, payload):
        self.got.append((src, payload))


class DropPayload:
    """Fault injector that kills messages with a given payload."""

    def __init__(self, doomed):
        self.doomed = doomed

    def transform(self, src, dst, payload, deliveries, rng, now):
        return [] if payload == self.doomed else deliveries


class Duplicate:
    def transform(self, src, dst, payload, deliveries, rng, now):
        return deliveries * 2


class TestNetworkCoalescing:
    def setup_network(self):
        sim = Simulator(seed=1)
        net = Network(sim, latency=FixedLatency(0.001))
        sinks = {}
        for node in ("S1", "S2", "S3"):
            endpoint = net.endpoint(node)
            sinks[node] = Sink()
            endpoint.attach(sinks[node])
            net.bring_up(node)
        return sim, net, sinks

    def test_same_tick_messages_share_one_delivery_event(self):
        sim, net, sinks = self.setup_network()
        net.send("S1", "S3", "a")
        net.send("S2", "S3", "b")
        net.send("S1", "S2", "c")  # other destination: separate event
        before = sim.events_processed
        sim.run(until=0.01)
        assert sinks["S3"].got == [("S1", "a"), ("S2", "b")]
        assert sinks["S2"].got == [("S1", "c")]
        assert net.delivery_batches == 1  # only S3's pair coalesced
        assert net.messages_delivered == 3
        assert sim.events_processed - before == 2  # not 3

    def test_injector_drop_splits_batch_not_whole_tick(self):
        """Loss is decided per message *before* bucketing: an injector
        dropping one message of a tick must not take down its batch
        mates (and must not split the survivors into separate events)."""
        sim, net, sinks = self.setup_network()
        net.add_injector(DropPayload("dead"))
        net.send("S1", "S3", "a")
        net.send("S1", "S3", "dead")
        net.send("S2", "S3", "b")
        sim.run(until=0.01)
        assert sinks["S3"].got == [("S1", "a"), ("S2", "b")]
        assert net.messages_injector_dropped == 1
        assert net.delivery_batches == 1

    def test_injector_duplicates_land_in_same_tick_batch(self):
        sim, net, sinks = self.setup_network()
        net.add_injector(Duplicate())
        net.send("S1", "S3", "a")
        sim.run(until=0.01)
        assert sinks["S3"].got == [("S1", "a"), ("S1", "a")]
        assert net.messages_duplicated == 1

    def test_crash_mid_flight_drops_whole_batch(self):
        sim, net, sinks = self.setup_network()
        net.send("S1", "S3", "a")
        net.send("S2", "S3", "b")
        net.take_down("S3")
        sim.run(until=0.01)
        assert sinks["S3"].got == []
        assert net.messages_dropped == 2  # accounted per message


# ----------------------------------------------------------------------
# Compressed transfer chunks
# ----------------------------------------------------------------------
class TestChunkCompression:
    ITEMS = tuple((f"obj-{i:06d}", f"value-{i}", i % 7) for i in range(120))

    def test_round_trip(self):
        blob = encode_batch_items(self.ITEMS)
        assert decode_batch_items(blob) == self.ITEMS

    def test_round_trip_unrelated_names(self):
        items = (("alpha", 1, 1), ("z", None, 2), ("alphabet", [3], 3), ("", 0, 4))
        assert decode_batch_items(encode_batch_items(items)) == items

    def test_front_coding_plus_deflate_shrinks_the_wire(self):
        blob = encode_batch_items(self.ITEMS)
        naive = pickle.dumps(self.ITEMS, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < len(naive)

    def test_payload_bytes_counts_the_compressed_blob(self):
        """What the byte-accounting metrics must see: a compressed batch
        reports len(blob), and decoding yields the original items."""
        blob = encode_batch_items(self.ITEMS)
        batch = TransferBatch(
            session_id=1, round_no=0, items=(), payload_bytes=len(blob),
            seq=1, blob=blob, compressed=True,
        )
        assert batch.payload_bytes == len(blob)
        assert batch.decoded_items() == self.ITEMS

    def test_uncompressed_batch_carries_items_inline(self):
        batch = TransferBatch(
            session_id=1, round_no=0, items=self.ITEMS,
            payload_bytes=len(self.ITEMS) * 64, seq=1,
        )
        assert batch.decoded_items() == self.ITEMS
