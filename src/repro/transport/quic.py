"""QUIC connection (gQUIC-style) over the emulated path.

Implements the transport behaviours the paper credits for QUIC's edge:

* **1-RTT handshake**: the client sends a padded Initial, the server
  answers with its crypto flight, and the client may issue requests one
  RTT after starting (versus TCP+TLS 1.3's two RTTs);
* **independent streams**: stream frames from different streams are
  packetised together but delivered independently, so a lost packet only
  stalls the streams with frames inside it — no transport-level
  head-of-line blocking;
* **large ACK ranges**: ACK frames report (practically) every received
  packet-number range, where TCP is limited to 3 SACK blocks, letting the
  sender keep its scoreboard accurate under heavy loss (DA2GC/MSS);
* IW32 + pacing defaults and pluggable Cubic / BBRv1 congestion control.

Loss detection follows QUIC's packet-number based design: packet
threshold 3, time threshold 9/8 RTT, and a PTO probe timer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.netem.engine import EventLoop, ScheduledEvent
from repro.netem.flowid import FlowIdAllocator
from repro.netem.packet import Packet
from repro.netem.path import NetworkPath
from repro.transport import tls
from repro.transport.cc import make_controller
from repro.transport.config import StackConfig
from repro.transport.pacing import Pacer
from repro.transport.ranges import RangeSet
from repro.transport.rtt import RttEstimator

PACKET_OVERHEAD = 40          # UDP/IP + QUIC short header + AEAD tag
ACK_PACKET_BYTES = 50
PACKET_THRESHOLD = 3
TIME_THRESHOLD = 9.0 / 8.0
DELAYED_ACK_TIMEOUT = 0.025
MAX_PTO_BACKOFF = 64


@dataclass(slots=True)
class StreamChunk:
    """A contiguous span of one stream carried inside a packet."""

    stream_id: int
    offset: int
    length: int
    fin: bool = False


@dataclass(slots=True)
class QuicPacketPayload:
    """Payload of an emulated packet belonging to a QUIC connection."""

    kind: str                     # "ctrl" | "data" | "ack"
    direction: str                # "c2s" | "s2c"
    pkt_num: int = 0
    chunks: Tuple[StreamChunk, ...] = ()
    sent_time: float = 0.0
    ack_ranges: Tuple[Tuple[int, int], ...] = ()   # half-open pkt-num ranges
    max_data: int = 0
    ctrl: str = ""
    ctrl_index: int = 0
    ctrl_total: int = 0


@dataclass(slots=True)
class _SentPacket:
    pkt_num: int
    chunks: Tuple[StreamChunk, ...]
    size: int
    sent_time: float
    is_probe: bool = False
    delivered_at_send: int = 0


@dataclass(slots=True)
class _SendStream:
    """Sender-side state of one stream."""

    stream_id: int
    priority: int
    write_len: int = 0
    next_offset: int = 0                      # next never-sent byte
    fin_offset: Optional[int] = None
    metas: Dict[int, List[object]] = field(default_factory=dict)
    acked: RangeSet = field(default_factory=RangeSet)
    lost: RangeSet = field(default_factory=RangeSet)  # to retransmit

    def has_data(self) -> bool:
        return bool(self.lost) or self.next_offset < self.write_len


@dataclass(slots=True)
class _RecvStream:
    """Receiver-side reassembly state of one stream."""

    stream_id: int
    received: RangeSet = field(default_factory=RangeSet)
    delivered: int = 0
    fin_offset: Optional[int] = None
    fin_delivered: bool = False
    # Cursor over the peer's (ascending-by-construction) meta offsets;
    # replaces a per-delivery sort of the whole map.
    meta_keys: List[int] = field(default_factory=list)
    meta_cursor: int = 0


@dataclass
class QuicSenderStats:
    """Counters mirrored from the TCP sender for comparative analyses."""

    packets_sent: int = 0
    bytes_sent: int = 0
    retransmitted_packets: int = 0
    pto_count: int = 0
    loss_events: int = 0


StreamDataCallback = Callable[[int, int, List[object], bool], None]


class QuicEndpoint:
    """One side (client or server) of a QUIC connection."""

    def __init__(
        self,
        loop: EventLoop,
        stack: StackConfig,
        send: Callable[[int, QuicPacketPayload], None],
        direction: str,
        bdp_hint: int,
        on_stream_data: StreamDataCallback,
        peer_metas: Callable[[int], Dict[int, List[object]]],
    ):
        self._loop = loop
        self._stack = stack
        self._send = send
        self._direction = direction
        self.mss = stack.mss
        self.cc = make_controller(
            stack.congestion_control, stack.mss, stack.initial_window_segments
        )
        self.pacer = Pacer(stack.pacing, stack.mss)
        self.rtt = RttEstimator()
        self.stats = QuicSenderStats()
        self._on_stream_data = on_stream_data
        self._peer_metas = peer_metas

        self.send_streams: Dict[int, _SendStream] = {}
        self.recv_streams: Dict[int, _RecvStream] = {}
        self._stream_order: List[int] = []
        self._rr_cursor = 0
        # Cached round-robin ring: top-priority streams with data, in
        # open order. Rebuilt only when a stream's has_data()/priority
        # membership may have changed.
        self._ring: Optional[List[int]] = None

        self._next_pkt_num = 1
        #: Outstanding packets keyed by packet number. Insertion order is
        #: ascending (numbers are allocated monotonically and never
        #: reinserted), which loss detection exploits to stop scanning at
        #: ``largest_acked``.
        self._sent: Dict[int, _SentPacket] = {}
        #: Packet numbers already processed from ACK frames (only those at
        #: or above the oldest packet then outstanding). QUIC ACKs
        #: re-report (nearly) the whole received history every time;
        #: tracking what was handled keeps ACK processing proportional to
        #: the *newly* acked packets only.
        self._acked_pkts = RangeSet()
        self._largest_acked = 0
        self._bytes_in_flight = 0
        self._delivered_bytes = 0      # acked wire bytes (BBR rate samples)
        self._recovery_start = -1.0    # congestion-event epoch (QUIC recovery)
        self._pto_timer: Optional[ScheduledEvent] = None
        self._pto_backoff = 1
        self._pace_timer: Optional[ScheduledEvent] = None

        # Connection-level flow control.
        self._flow_cap = max(4 * bdp_hint, 256 * 1024)
        self._peer_max_data = self._flow_cap
        self._sent_stream_bytes = 0
        self._delivered_total = 0

        # ACK generation.
        self._received_pkts = RangeSet()
        self._ack_pending = 0
        self._ack_timer: Optional[ScheduledEvent] = None

    # -- stream API -------------------------------------------------------

    def open_stream(self, stream_id: int, priority: int = 1) -> None:
        """Create sender-side state for a stream."""
        if stream_id in self.send_streams:
            raise ValueError(f"stream {stream_id} already open")
        self.send_streams[stream_id] = _SendStream(stream_id, priority)
        self._stream_order.append(stream_id)
        self._ring = None

    def stream_write(self, stream_id: int, nbytes: int,
                     meta: Optional[object] = None, fin: bool = False,
                     *, metas: Optional[List[object]] = None) -> None:
        """Append bytes (and optionally FIN) to a send stream.

        ``metas`` attaches a whole batch of markers at the write's end
        offset — the relay case, where a split proxy re-writes bytes
        whose markers arrived together.
        """
        stream = self.send_streams.get(stream_id)
        if stream is None:
            self.open_stream(stream_id)
            stream = self.send_streams[stream_id]
        if nbytes < 0:
            raise ValueError("write size must be non-negative")
        if stream.fin_offset is not None:
            raise RuntimeError(f"stream {stream_id} already finished")
        stream.write_len += nbytes
        if meta is not None:
            stream.metas.setdefault(stream.write_len, []).append(meta)
        if metas:
            stream.metas.setdefault(stream.write_len, []).extend(metas)
        if fin:
            stream.fin_offset = stream.write_len
        self._ring = None
        self.try_send()

    def send_metas(self, stream_id: int) -> Dict[int, List[object]]:
        """Offset→meta map of a send stream (peer receiver reads this)."""
        stream = self.send_streams.get(stream_id)
        return stream.metas if stream is not None else {}

    # -- packetisation -------------------------------------------------------

    def _active_ring(self) -> List[int]:
        """Top-priority streams with data, in open order (cached)."""
        ring = self._ring
        if ring is None:
            top: Optional[int] = None
            ring = []
            streams = self.send_streams
            for sid in self._stream_order:
                stream = streams[sid]
                if not stream.has_data():
                    continue
                if top is None or stream.priority < top:
                    top = stream.priority
                    ring = [sid]
                elif stream.priority == top:
                    ring.append(sid)
            self._ring = ring
        return ring

    def _pick_stream(self) -> Optional[_SendStream]:
        """Strict priority classes, round robin inside a class."""
        ring = self._active_ring()
        if not ring:
            return None
        self._rr_cursor = (self._rr_cursor + 1) % len(ring)
        return self.send_streams[ring[self._rr_cursor]]

    def _fill_packet(self) -> Tuple[Tuple[StreamChunk, ...], int]:
        """Assemble stream chunks for one packet (<= mss payload bytes)."""
        chunks: List[StreamChunk] = []
        budget = self.mss
        while budget > 0:
            stream = self._pick_stream()
            if stream is None:
                break
            chunk = self._chunk_from(stream, budget)
            if chunk is None:
                break
            chunks.append(chunk)
            budget -= chunk.length
            if chunk.length == 0:  # pure-FIN frame
                break
        payload_bytes = sum(c.length for c in chunks)
        return tuple(chunks), payload_bytes

    def _chunk_from(self, stream: _SendStream, budget: int) -> Optional[StreamChunk]:
        # Retransmissions first.
        lost = stream.lost.first()
        if lost is not None:
            start, end = lost
            length = min(end - start, budget)
            stream.lost.remove(start, start + length)
            if not stream.has_data():
                self._ring = None
            fin = (stream.fin_offset is not None
                   and start + length == stream.fin_offset)
            return StreamChunk(stream.stream_id, start, length, fin)
        if stream.next_offset < stream.write_len:
            if self._sent_stream_bytes >= self._peer_max_data:
                return None  # connection flow-control limited
            length = min(budget, stream.write_len - stream.next_offset,
                         self._peer_max_data - self._sent_stream_bytes)
            if length <= 0:
                return None
            offset = stream.next_offset
            stream.next_offset += length
            if offset + length >= stream.write_len:
                self._ring = None
            self._sent_stream_bytes += length
            fin = (stream.fin_offset is not None
                   and stream.next_offset == stream.fin_offset)
            return StreamChunk(stream.stream_id, offset, length, fin)
        if (stream.fin_offset is not None
                and stream.next_offset == stream.fin_offset == stream.write_len
                and stream.write_len == 0):
            # Empty stream closed immediately: emit a pure FIN.
            stream.fin_offset = None  # only once
            return StreamChunk(stream.stream_id, 0, 0, True)
        return None

    def try_send(self) -> None:
        """Transmit as much as window, flow control and pacing allow."""
        if self._pace_timer is not None:
            return
        while True:
            # Ring non-empty iff any stream has data (it holds the
            # top-priority subset of streams with data).
            if not self._active_ring():
                break
            if self._bytes_in_flight + self.mss > self.cc.congestion_window():
                break
            now = self._loop.now
            self.pacer.set_rate(self.cc.pacing_rate(self.rtt.smoothed()))
            release = self.pacer.next_send_time(now, self.mss + PACKET_OVERHEAD)
            if release > now + 1e-12:
                self._pace_timer = self._loop.call_at(release, self._pace_fire)
                return
            chunks, payload_bytes = self._fill_packet()
            if not chunks:
                break
            self._transmit(chunks, payload_bytes)
        self._arm_pto()

    def _pace_fire(self) -> None:
        self._pace_timer = None
        self.try_send()

    def _transmit(self, chunks: Tuple[StreamChunk, ...], payload_bytes: int,
                  is_probe: bool = False) -> None:
        now = self._loop.now
        pkt_num = self._next_pkt_num
        self._next_pkt_num += 1
        size = payload_bytes + PACKET_OVERHEAD
        payload = QuicPacketPayload(
            kind="data",
            direction=self._direction,
            pkt_num=pkt_num,
            chunks=chunks,
            sent_time=now,
        )
        self._sent[pkt_num] = _SentPacket(pkt_num, chunks, size, now, is_probe,
                                          self._delivered_bytes)
        self._bytes_in_flight += size
        self.pacer.on_packet_sent(now, size)
        self.cc.on_packet_sent(now, size, self._bytes_in_flight)
        self.stats.packets_sent += 1
        self.stats.bytes_sent += payload_bytes
        self._send(size, payload)

    # -- ACK processing ---------------------------------------------------------

    def on_ack_frame(self, payload: QuicPacketPayload) -> None:
        """Handle an ACK from the peer."""
        now = self._loop.now
        if payload.max_data:
            self._peer_max_data = max(self._peer_max_data, payload.max_data)
        if not self._sent:
            return
        # Packet numbers are never reused, so nothing below the oldest
        # outstanding packet can be newly acked. Ranges arrive newest
        # first: stop at the first one wholly below that floor.
        floor = next(iter(self._sent))
        newly_acked: List[_SentPacket] = []
        largest_newly = 0
        acked_pkts = self._acked_pkts
        for lo, hi in payload.ack_ranges:
            if hi <= floor:
                break
            # An ACK frame re-reports everything ever received; only the
            # never-before-seen sub-ranges can hold outstanding packets.
            for gap_lo, gap_hi in acked_pkts.missing_within(max(lo, floor),
                                                            hi):
                acked_pkts.add(gap_lo, gap_hi)
                for pkt_num in range(gap_lo, gap_hi):
                    sent = self._sent.pop(pkt_num, None)
                    if sent is None:
                        continue
                    newly_acked.append(sent)
                    if pkt_num > largest_newly:
                        largest_newly = pkt_num
        if not newly_acked:
            return
        self._largest_acked = max(self._largest_acked, largest_newly)
        self._pto_backoff = 1

        acked_bytes = 0
        rtt_sample: Optional[float] = None
        delivery_rate: Optional[float] = None
        for sent in newly_acked:
            self._bytes_in_flight -= sent.size
            acked_bytes += sent.size
            for chunk in sent.chunks:
                stream = self.send_streams.get(chunk.stream_id)
                if stream is not None and chunk.length:
                    stream.acked.add(chunk.offset, chunk.offset + chunk.length)
                    if stream.lost:
                        stream.lost.remove(chunk.offset,
                                           chunk.offset + chunk.length)
                        if not stream.has_data():
                            self._ring = None
        self._bytes_in_flight = max(0, self._bytes_in_flight)
        self._delivered_bytes += acked_bytes
        for sent in newly_acked:
            flight = now - sent.sent_time
            if flight <= 0 or sent.is_probe:
                continue
            if sent.pkt_num == largest_newly:
                rtt_sample = flight
            rate = (self._delivered_bytes - sent.delivered_at_send) / flight
            if delivery_rate is None or rate > delivery_rate:
                delivery_rate = rate
        if rtt_sample is not None:
            self.rtt.on_sample(rtt_sample)

        self._detect_losses(now)
        self.cc.on_ack(now, acked_bytes, rtt_sample, self._bytes_in_flight,
                       delivery_rate)

        if self._sent:
            self._arm_pto()
        else:
            self._cancel_pto()
        self.try_send()

    def _detect_losses(self, now: float) -> None:
        if not self._sent or self._largest_acked == 0:
            return
        delay = TIME_THRESHOLD * max(self.rtt.smoothed(0.1), self.rtt.latest_rtt)
        largest = self._largest_acked
        lost: List[_SentPacket] = []
        # Outstanding packets iterate in ascending packet-number order
        # (monotonic allocation, dict insertion order), so everything at
        # or above largest_acked can be skipped in one break: each ACK
        # examines only the packets below largest_acked once.
        for pkt_num, sent in self._sent.items():
            if pkt_num >= largest:
                break
            if (largest - pkt_num >= PACKET_THRESHOLD
                    or now - sent.sent_time >= delay):
                lost.append(sent)
        if not lost:
            return
        lost_bytes = 0
        latest_lost_send = 0.0
        for sent in lost:
            del self._sent[sent.pkt_num]
            self._bytes_in_flight -= sent.size
            lost_bytes += sent.size
            latest_lost_send = max(latest_lost_send, sent.sent_time)
            self._requeue(sent)
        self._bytes_in_flight = max(0, self._bytes_in_flight)
        self.stats.retransmitted_packets += len(lost)
        # One congestion event per recovery episode (RFC 9002): only a
        # packet sent after the previous episode began starts a new one.
        if latest_lost_send > self._recovery_start:
            self._recovery_start = now
            self.stats.loss_events += 1
            self.cc.on_loss_event(now, lost_bytes, self._bytes_in_flight)

    def _requeue(self, sent: _SentPacket) -> None:
        """Queue a lost packet's stream data for retransmission."""
        for chunk in sent.chunks:
            stream = self.send_streams.get(chunk.stream_id)
            if stream is None:
                continue
            if chunk.length == 0 and chunk.fin:
                stream.fin_offset = stream.write_len  # re-emit pure FIN
                continue
            start, end = chunk.offset, chunk.offset + chunk.length
            for gap_start, gap_end in stream.acked.missing_within(start, end):
                stream.lost.add(gap_start, gap_end)
                self._ring = None

    # -- PTO --------------------------------------------------------------------

    def _arm_pto(self) -> None:
        if not self._sent:
            return
        self._cancel_pto()
        pto = (self.rtt.smoothed() + max(4 * self.rtt.rttvar, 0.001)
               + DELAYED_ACK_TIMEOUT) * self._pto_backoff
        pto = max(pto, RttEstimator.MIN_RTO)
        self._pto_timer = self._loop.call_later(pto, self._on_pto)

    def _cancel_pto(self) -> None:
        if self._pto_timer is not None:
            self._pto_timer.cancel()
            self._pto_timer = None

    def _on_pto(self) -> None:
        self._pto_timer = None
        if not self._sent:
            return
        self.stats.pto_count += 1
        self._pto_backoff = min(self._pto_backoff * 2, MAX_PTO_BACKOFF)
        if self._pto_backoff >= 4:
            # Persistent timeouts: congestion signal, and flush the whole
            # outstanding set so recovery does not serialise one packet
            # per (exponentially backed-off) PTO.
            self.cc.on_rto(self._loop.now)
            self.stats.loss_events += 1
            outstanding = list(self._sent.values())
            self._sent.clear()
            self._bytes_in_flight = 0
            for sent in outstanding:
                self.stats.retransmitted_packets += 1
                self._requeue(sent)
        else:
            # Declare the oldest outstanding packet lost and resend it.
            # Send times are monotonic in insertion order, so the first
            # entry is the oldest (min() returned the first minimum too).
            oldest = next(iter(self._sent.values()))
            del self._sent[oldest.pkt_num]
            self._bytes_in_flight = max(0, self._bytes_in_flight - oldest.size)
            self.stats.retransmitted_packets += 1
            self._requeue(oldest)
        self.try_send()
        # A PTO probe is never blocked by the congestion window (RFC 9002);
        # if the window gated try_send, force one probe out to restart the
        # ACK clock.
        if self._bytes_in_flight + self.mss > self.cc.congestion_window():
            chunks, payload_bytes = self._fill_packet()
            if chunks:
                self._transmit(chunks, payload_bytes, is_probe=True)
        self._arm_pto()

    # -- receive path --------------------------------------------------------------

    def on_data_packet(self, payload: QuicPacketPayload) -> None:
        """Handle an incoming short-header packet with stream frames."""
        first_time = not self._received_pkts.contains_point(payload.pkt_num)
        self._received_pkts.add(payload.pkt_num, payload.pkt_num + 1)
        if first_time:
            for chunk in payload.chunks:
                self._receive_chunk(chunk)
        self._ack_pending += 1
        if self._ack_pending >= 2 or len(self._received_pkts) > 1:
            self._emit_ack()
        elif self._ack_timer is None:
            self._ack_timer = self._loop.call_later(
                DELAYED_ACK_TIMEOUT, self._emit_ack
            )

    def _receive_chunk(self, chunk: StreamChunk) -> None:
        stream = self.recv_streams.get(chunk.stream_id)
        if stream is None:
            stream = _RecvStream(chunk.stream_id)
            self.recv_streams[chunk.stream_id] = stream
        if chunk.length:
            stream.received.add(chunk.offset, chunk.offset + chunk.length)
        if chunk.fin:
            stream.fin_offset = chunk.offset + chunk.length
        self._deliver_stream(stream)

    def _deliver_stream(self, stream: _RecvStream) -> None:
        new_delivered = stream.received.first_gap_after(0)
        fin_now = (stream.fin_offset is not None
                   and new_delivered >= stream.fin_offset
                   and not stream.fin_delivered)
        if new_delivered <= stream.delivered and not fin_now:
            return
        metas_map = self._peer_metas(stream.stream_id)
        metas: List[object] = []
        keys = stream.meta_keys
        if len(keys) != len(metas_map):
            # Meta offsets key the peer's monotonic write length, so the
            # dict's insertion order is ascending and old keys are a
            # prefix of the refreshed list: the cursor stays valid.
            keys = stream.meta_keys = list(metas_map)
        i = stream.meta_cursor
        n = len(keys)
        while i < n and keys[i] <= new_delivered:
            if keys[i] > stream.delivered:
                metas.extend(metas_map[keys[i]])
            i += 1
        stream.meta_cursor = i
        advanced = new_delivered - stream.delivered
        stream.delivered = new_delivered
        self._delivered_total += advanced
        if fin_now:
            stream.fin_delivered = True
        self._on_stream_data(stream.stream_id, stream.delivered, metas, fin_now)

    def _emit_ack(self) -> None:
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        if self._ack_pending == 0:
            return
        self._ack_pending = 0
        ranges = tuple(
            self._received_pkts.newest_first(self._stack.max_sack_ranges))
        payload = QuicPacketPayload(
            kind="ack",
            direction=self._direction,
            ack_ranges=ranges,
            max_data=self._delivered_total + self._flow_cap,
        )
        self._send(ACK_PACKET_BYTES, payload)

    # -- introspection ----------------------------------------------------------------

    @property
    def bytes_in_flight(self) -> int:
        return self._bytes_in_flight

    def all_acked(self) -> bool:
        """True when no packets are outstanding and no data is queued."""
        return not self._sent and not self._active_ring()


class QuicConnection:
    """Both endpoints of one QUIC connection over a NetworkPath.

    Flow-id identity is per-load, not process-global — see the TCP twin.
    """

    def __init__(
        self,
        path: NetworkPath,
        stack: StackConfig,
        on_client_stream_data: StreamDataCallback,
        on_server_stream_data: StreamDataCallback,
        flow_ids: Optional[FlowIdAllocator] = None,
    ):
        if not stack.is_quic:
            raise ValueError("QuicConnection requires a QUIC stack config")
        self._path = path
        self._loop = path.loop
        self._stack = stack
        allocator = flow_ids if flow_ids is not None else path.flow_ids
        self.flow_id = allocator.next_quic()

        bdp = path.bdp_bytes()
        self.client = QuicEndpoint(
            self._loop, stack, self._send_c2s, "c2s", bdp,
            on_client_stream_data,
            lambda sid: self.server.send_metas(sid),
        )
        self.server = QuicEndpoint(
            self._loop, stack, self._send_s2c, "s2c", bdp,
            on_server_stream_data,
            lambda sid: self.client.send_metas(sid),
        )
        path.register_client(self.flow_id, self._client_packet)
        path.register_server(self.flow_id, self._server_packet)

        self._established = False
        self._established_at: Optional[float] = None
        self._on_established: Optional[Callable[[], None]] = None
        self._hs_stage = "idle"
        self._hs_timer: Optional[ScheduledEvent] = None
        # gQUIC retransmits crypto packets far more aggressively than the
        # kernel's 1 s SYN timer (500 ms handshake timeout).
        self._hs_rto = 0.5
        self._hs_attempts = 0
        self._hs_started_at = 0.0
        self._flight_received = 0
        self._next_stream_id = 0

    # -- public API --------------------------------------------------------------

    @property
    def established(self) -> bool:
        return self._established

    @property
    def established_at(self) -> Optional[float]:
        return self._established_at

    def connect(self, on_established: Callable[[], None]) -> None:
        """Begin the QUIC crypto handshake.

        With a 0-RTT stack the connection is usable immediately: requests
        ride alongside the resumption Initial, the way gQUIC serves
        repeat visitors. Otherwise the client waits one RTT for the
        server's crypto flight.
        """
        if self._hs_stage != "idle":
            raise RuntimeError("connect() already called")
        self._on_established = on_established
        self._hs_stage = "initial_sent"
        self._hs_started_at = self._loop.now
        self._send_hs_client()
        if self._stack.zero_rtt:
            self._complete_handshake()
            return
        self._arm_hs_timer()

    def open_stream(self, priority: int = 1) -> int:
        """Client opens a new bidirectional stream; returns its id."""
        self._require_established()
        stream_id = self._next_stream_id
        self._next_stream_id += 4
        self.client.open_stream(stream_id, priority)
        return stream_id

    def client_stream_write(self, stream_id: int, nbytes: int,
                            meta: Optional[object] = None,
                            fin: bool = False, *,
                            metas: Optional[List[object]] = None) -> None:
        self._require_established()
        self.client.stream_write(stream_id, nbytes, meta, fin, metas=metas)

    def server_stream_write(self, stream_id: int, nbytes: int,
                            meta: Optional[object] = None,
                            fin: bool = False, priority: int = 1, *,
                            metas: Optional[List[object]] = None) -> None:
        self._require_established()
        if stream_id not in self.server.send_streams:
            self.server.open_stream(stream_id, priority)
        self.server.stream_write(stream_id, nbytes, meta, fin, metas=metas)

    def _require_established(self) -> None:
        if not self._established:
            raise RuntimeError("connection not yet established")

    # -- handshake ------------------------------------------------------------------

    def _send_hs_client(self) -> None:
        payload = QuicPacketPayload(kind="ctrl", direction="c2s", ctrl="initial",
                                    sent_time=self._loop.now)
        self._path.send_to_server(Packet(size=tls.QUIC_INITIAL_BYTES,
                                         payload=payload, flow_id=self.flow_id))

    def _send_server_flight(self) -> None:
        total = tls.QUIC_CRYPTO.server_flight_bytes
        mss = self._stack.mss
        npackets = (total + mss - 1) // mss
        remaining = total
        for index in range(npackets):
            size = min(mss, remaining) + PACKET_OVERHEAD
            remaining -= min(mss, remaining)
            payload = QuicPacketPayload(kind="ctrl", direction="s2c",
                                        ctrl="flight", ctrl_index=index,
                                        ctrl_total=npackets,
                                        sent_time=self._loop.now)
            self._path.send_to_client(Packet(size=size, payload=payload,
                                             flow_id=self.flow_id))

    def _hs_jitter(self) -> float:
        """Deterministic per-connection, per-attempt timer jitter.

        Concurrent handshakes of one page load would otherwise retry in
        lock-step, overflow the shared queue together and back off
        together (synchronised retry storms).
        """
        self._hs_attempts += 1
        phase = (self.flow_id * 2654435761 + self._hs_attempts * 40503) \
            % 1000
        return 0.75 + 0.5 * (phase / 1000.0)

    def _arm_hs_timer(self) -> None:
        if self._hs_timer is not None:
            self._hs_timer.cancel()
        self._hs_timer = self._loop.call_later(
            self._hs_rto * self._hs_jitter(), self._hs_timeout)

    def _hs_timeout(self) -> None:
        self._hs_timer = None
        if self._established:
            return
        self._hs_rto = min(self._hs_rto * 2, 4.0)
        if self._hs_stage == "initial_sent":
            self._send_hs_client()
        elif self._hs_stage == "flight_sent":
            self._flight_received = 0
            self._send_server_flight()
        self._arm_hs_timer()

    def _handle_hs_at_server(self, payload: QuicPacketPayload) -> None:
        if payload.ctrl == "initial" and self._hs_stage in ("initial_sent",
                                                            "flight_sent"):
            self._hs_stage = "flight_sent"
            self._send_server_flight()
            self._arm_hs_timer()

    def _handle_hs_at_client(self, payload: QuicPacketPayload) -> None:
        if payload.ctrl == "flight":
            self._flight_received += 1
            if (self._flight_received >= payload.ctrl_total
                    and not self._established):
                self._complete_handshake()

    def _complete_handshake(self) -> None:
        self._established = True
        self._established_at = self._loop.now
        self._hs_stage = "established"
        if self._hs_timer is not None:
            self._hs_timer.cancel()
            self._hs_timer = None
        rtt = self._loop.now - self._hs_started_at
        self.client.rtt.on_sample(max(rtt, self._path.min_rtt))
        self.server.rtt.on_sample(max(rtt / 2, self._path.min_rtt))
        if self._on_established is not None:
            self._on_established()

    # -- packet plumbing -----------------------------------------------------------

    def _send_c2s(self, size: int, payload: QuicPacketPayload) -> None:
        self._path.send_to_server(Packet(size=size, payload=payload,
                                         flow_id=self.flow_id))

    def _send_s2c(self, size: int, payload: QuicPacketPayload) -> None:
        self._path.send_to_client(Packet(size=size, payload=payload,
                                         flow_id=self.flow_id))

    def _client_packet(self, packet: Packet) -> None:
        payload: QuicPacketPayload = packet.payload
        if payload.kind == "ctrl":
            self._handle_hs_at_client(payload)
        elif payload.kind == "data":
            self.client.on_data_packet(payload)
        elif payload.kind == "ack":
            self.client.on_ack_frame(payload)

    def _server_packet(self, packet: Packet) -> None:
        payload: QuicPacketPayload = packet.payload
        if payload.kind == "ctrl":
            self._handle_hs_at_server(payload)
        elif payload.kind == "data":
            self.server.on_data_packet(payload)
        elif payload.kind == "ack":
            self.server.on_ack_frame(payload)

    def close(self) -> None:
        """Unregister from the path."""
        self._path.unregister(self.flow_id)
