"""QUIC connection behaviour over the emulated path."""

import pytest

from repro.netem.engine import EventLoop
from repro.netem.packet import Packet
from repro.netem.path import NetworkPath
from repro.netem.profiles import DSL, MSS, NetworkProfile
from repro.transport.config import QUIC, QUIC_BBR, TCP
from repro.transport.quic import QuicConnection, QuicEndpoint
from repro.transport.tcp import TcpConnection

LOSSY = NetworkProfile(
    name="DSL", uplink_mbps=5.0, downlink_mbps=25.0, min_rtt_ms=24.0,
    loss_rate=0.05, queue_ms=12.0,
)


def make_conn(profile=DSL, stack=QUIC, seed=0):
    loop = EventLoop()
    path = NetworkPath(loop, profile, seed=seed)
    state = {"client": {}, "server": {}, "fins": set()}

    def on_client(stream_id, delivered, metas, fin):
        state["client"][stream_id] = delivered
        if fin:
            state["fins"].add(stream_id)

    def on_server(stream_id, delivered, metas, fin):
        state["server"][stream_id] = delivered

    conn = QuicConnection(path, stack, on_client, on_server)
    return loop, path, conn, state


class TestHandshake:
    def test_one_rtt_establishment(self):
        loop, path, conn, _ = make_conn()
        established_at = {}
        conn.connect(lambda: established_at.setdefault("t", loop.now))
        loop.run(until=5.0)
        assert conn.established
        assert established_at["t"] == pytest.approx(DSL.min_rtt_s, rel=0.35)

    def test_faster_than_tcp_handshake(self):
        loop_q, _, conn_q, _ = make_conn()
        tq = {}
        conn_q.connect(lambda: tq.setdefault("t", loop_q.now))
        loop_q.run(until=5.0)

        loop_t = EventLoop()
        path_t = NetworkPath(loop_t, DSL, seed=0)
        conn_t = TcpConnection(path_t, TCP, lambda d, m: None,
                               lambda d, m: None)
        tt = {}
        conn_t.connect(lambda: tt.setdefault("t", loop_t.now))
        loop_t.run(until=5.0)

        assert tq["t"] < tt["t"]

    def test_handshake_survives_loss(self):
        for seed in range(5):
            loop, path, conn, _ = make_conn(profile=LOSSY, seed=seed)
            conn.connect(lambda: None)
            loop.run(until=30.0)
            assert conn.established, f"handshake failed with seed {seed}"

    def test_tcp_stack_rejected(self):
        loop = EventLoop()
        path = NetworkPath(loop, DSL, seed=0)
        with pytest.raises(ValueError):
            QuicConnection(path, TCP, lambda *a: None, lambda *a: None)

    def test_stream_before_establishment_rejected(self):
        loop, path, conn, _ = make_conn()
        with pytest.raises(RuntimeError):
            conn.open_stream()


class TestStreams:
    def test_request_response_roundtrip(self):
        loop, path, conn, state = make_conn()

        def go():
            sid = conn.open_stream()
            conn.client_stream_write(sid, 350, meta="req", fin=True)
            conn.server_stream_write(sid, 50_000, fin=True)

        conn.connect(go)
        loop.run(until=10.0)
        sid = next(iter(state["client"]))
        assert state["client"][sid] == 50_000
        assert sid in state["fins"]

    def test_stream_ids_increment_by_four(self):
        loop, path, conn, _ = make_conn()
        ids = []

        def go():
            ids.append(conn.open_stream())
            ids.append(conn.open_stream())
            ids.append(conn.open_stream())

        conn.connect(go)
        loop.run(until=5.0)
        assert ids == [0, 4, 8]

    def test_multiplexed_streams_all_complete(self):
        loop, path, conn, state = make_conn()

        def go():
            for _ in range(6):
                sid = conn.open_stream()
                conn.client_stream_write(sid, 300, fin=True)
                conn.server_stream_write(sid, 30_000, fin=True)

        conn.connect(go)
        loop.run(until=20.0)
        assert len(state["fins"]) == 6
        assert all(v == 30_000 for v in state["client"].values())

    def test_delivery_under_loss(self):
        loop, path, conn, state = make_conn(profile=LOSSY, seed=4)

        def go():
            sid = conn.open_stream()
            conn.client_stream_write(sid, 350, fin=True)
            conn.server_stream_write(sid, 150_000, fin=True)

        conn.connect(go)
        loop.run(until=60.0)
        assert 0 in state["fins"]
        assert conn.server.stats.retransmitted_packets > 0

    def test_delivery_on_inflight_network(self):
        loop, path, conn, state = make_conn(profile=MSS, seed=5)

        def go():
            sid = conn.open_stream()
            conn.client_stream_write(sid, 350, fin=True)
            conn.server_stream_write(sid, 100_000, fin=True)

        conn.connect(go)
        loop.run(until=120.0)
        assert 0 in state["fins"]


class TestHolBlocking:
    def test_loss_on_one_stream_does_not_block_other(self):
        """The defining QUIC property: while stream 0 waits for the
        retransmission of its lost packet, stream 4's *delivery* keeps
        advancing — no transport-level head-of-line blocking."""
        loop = EventLoop()
        path = NetworkPath(loop, DSL, seed=0)
        deliveries = []  # (time, stream_id, delivered)

        def on_client(stream_id, delivered, metas, fin):
            deliveries.append((loop.now, stream_id, delivered))

        conn = QuicConnection(path, QUIC, on_client, lambda *a: None)

        drop = {"at": None}
        original_send = path.send_to_client

        def lossy_send(packet):
            payload = packet.payload
            if (drop["at"] is None
                    and getattr(payload, "kind", "") == "data"
                    and payload.chunks
                    and all(c.stream_id == 0 for c in payload.chunks)
                    and any(c.offset > 0 for c in payload.chunks)):
                drop["at"] = loop.now
                return True  # swallowed: simulated loss
            return original_send(packet)

        path.send_to_client = lossy_send

        def go():
            sid_a = conn.open_stream()
            sid_b = conn.open_stream()
            conn.client_stream_write(sid_a, 300, fin=True)
            conn.client_stream_write(sid_b, 300, fin=True)
            conn.server_stream_write(sid_a, 60_000, fin=True)
            conn.server_stream_write(sid_b, 60_000, fin=True)

        conn.connect(go)
        loop.run(until=30.0)
        assert drop["at"] is not None

        # Stream 0's delivery stalls while its retransmission is in
        # flight: find that stall (its largest delivery gap).
        stream0_times = [t for t, sid, _ in deliveries if sid == 0]
        gaps = [(b - a, a, b) for a, b in
                zip(stream0_times, stream0_times[1:])]
        stall, stall_start, stall_end = max(gaps)
        assert stall > 0.02  # the loss visibly stalled stream 0
        # Stream 4 must have delivered data while stream 0 was stalled.
        stream4_progress = [t for t, sid, _ in deliveries
                            if sid == 4 and stall_start < t < stall_end]
        assert stream4_progress, (
            "stream 4 delivery stalled behind stream 0's loss"
        )

    def test_stalled_stream_buffers_out_of_order(self):
        """Data past the hole is buffered and delivered in one burst once
        the retransmission lands (per-stream ordering is preserved)."""
        loop = EventLoop()
        path = NetworkPath(loop, DSL, seed=0)
        watermarks = []

        def on_client(stream_id, delivered, metas, fin):
            if stream_id == 0:
                watermarks.append(delivered)

        conn = QuicConnection(path, QUIC, on_client, lambda *a: None)

        drop = {"done": False}
        original_send = path.send_to_client

        def lossy_send(packet):
            payload = packet.payload
            if (not drop["done"]
                    and getattr(payload, "kind", "") == "data"
                    and payload.chunks
                    and all(c.stream_id == 0 for c in payload.chunks)
                    and any(0 < c.offset < 30_000 for c in payload.chunks)):
                drop["done"] = True
                return True
            return original_send(packet)

        path.send_to_client = lossy_send

        def go():
            sid = conn.open_stream()
            conn.client_stream_write(sid, 300, fin=True)
            conn.server_stream_write(sid, 60_000, fin=True)

        conn.connect(go)
        loop.run(until=30.0)
        assert drop["done"]
        assert watermarks == sorted(watermarks)
        assert watermarks[-1] == 60_000
        # The retransmission unblocks a multi-packet jump in one step.
        jumps = [b - a for a, b in zip(watermarks, watermarks[1:])]
        assert max(jumps) > 2 * QUIC.mss

    def test_out_of_order_within_stream_buffers(self):
        loop, path, conn, state = make_conn(profile=LOSSY, seed=9)
        watermarks = []

        def on_client(stream_id, delivered, metas, fin):
            watermarks.append(delivered)

        conn.client._on_stream_data = on_client

        def go():
            sid = conn.open_stream()
            conn.client_stream_write(sid, 350, fin=True)
            conn.server_stream_write(sid, 120_000, fin=True)

        conn.connect(go)
        loop.run(until=60.0)
        assert watermarks == sorted(watermarks)


class TestAckRanges:
    def test_many_ack_ranges_allowed(self):
        """QUIC ACKs may report far more than TCP's 3 SACK blocks."""
        loop, path, conn, _ = make_conn(profile=LOSSY, seed=11)
        seen = {"max_ranges": 0}
        original = conn.server.on_ack_frame

        def capture(payload):
            seen["max_ranges"] = max(seen["max_ranges"],
                                     len(payload.ack_ranges))
            original(payload)

        conn.server.on_ack_frame = capture

        def go():
            sid = conn.open_stream()
            conn.client_stream_write(sid, 350, fin=True)
            conn.server_stream_write(sid, 400_000, fin=True)

        conn.connect(go)
        loop.run(until=60.0)
        assert seen["max_ranges"] > 3


def make_endpoints():
    """A sender with packets in flight and a receiver fed by hand.

    Returns the loop, the sender, the data packets it sent so far and a
    function that delivers packets to the receiver and returns the ACK
    frames it emitted.
    """
    loop = EventLoop()
    data = []
    sender = QuicEndpoint(loop, QUIC, lambda size, p: data.append(p), "s2c",
                          100_000, lambda *a: None, lambda sid: {})
    acks = []
    receiver = QuicEndpoint(loop, QUIC, lambda size, p: acks.append(p),
                            "c2s", 100_000, lambda *a: None, lambda sid: {})
    sender.stream_write(0, 200_000, fin=True)

    def deliver(*pkt_nums):
        del acks[:]
        by_num = {p.pkt_num: p for p in data}
        for pkt_num in pkt_nums:
            receiver.on_data_packet(by_num[pkt_num])
        receiver._emit_ack()  # the delayed-ACK timer, fired now
        return list(acks)

    return loop, sender, data, deliver


def sender_state(sender):
    return (list(sender._sent), list(sender._acked_pkts),
            sender._largest_acked, sender.bytes_in_flight,
            sender._delivered_bytes, sender._pto_backoff,
            sender.cc.congestion_window(), sender.rtt.smoothed(),
            vars(sender.stats).copy())


class TestAckFloor:
    """Nothing below the oldest outstanding packet can be newly acked."""

    def test_ack_below_oldest_outstanding_changes_nothing(self):
        loop, sender, data, deliver = make_endpoints()
        assert [p.pkt_num for p in data] == list(range(1, 10))
        # Packet 2 is delayed; the ACK for the rest declares it lost and
        # its data goes out again in new packets.
        sender.on_ack_frame(deliver(1, 3, 4, 5, 6, 7, 8, 9)[-1])
        assert sender.stats.retransmitted_packets == 1
        loop.run(until=0.02)  # let the pacer release a new packet
        assert sender._sent and min(sender._sent) > 9
        sent_before = len(data)
        before = sender_state(sender)
        # Packet 2 turns up late: every range of this ACK lies below the
        # oldest outstanding packet.
        late = deliver(2)[-1]
        assert late.ack_ranges == ((1, 10),)
        sender.on_ack_frame(late)
        assert sender_state(sender) == before
        assert len(data) == sent_before

    def test_reordered_packet_merging_across_floor_acks_only_it(self):
        loop, sender, data, deliver = make_endpoints()
        # Packet 4 is reordered: too few packets above it to be lost yet.
        sender.on_ack_frame(deliver(1, 2, 3, 5, 6)[-1])
        assert min(sender._sent) == 4
        outstanding = set(sender._sent)
        in_flight = sender.bytes_in_flight
        size = sender._sent[4].size
        # Its arrival merges the receiver's ranges into one that starts
        # below the floor and reaches above it.
        merged = deliver(4)[-1]
        assert merged.ack_ranges[-1] == (1, 7)
        sender.on_ack_frame(merged)
        assert set(sender._sent) == outstanding - {4}
        assert sender.bytes_in_flight == in_flight - size
        assert sender._largest_acked == 6


class TestBbrVariant:
    def test_bbr_transfer_completes(self):
        loop, path, conn, state = make_conn(stack=QUIC_BBR, profile=MSS,
                                            seed=2)

        def go():
            sid = conn.open_stream()
            conn.client_stream_write(sid, 350, fin=True)
            conn.server_stream_write(sid, 200_000, fin=True)

        conn.connect(go)
        loop.run(until=120.0)
        assert 0 in state["fins"]
        assert conn.server.cc.name == "bbr"
