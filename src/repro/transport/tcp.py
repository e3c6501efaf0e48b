"""TCP + TLS 1.3 connection over the emulated path.

Implements a packet-granular TCP for both directions of one connection:

* 2-RTT connection setup: SYN/SYN-ACK followed by a TLS 1.3 exchange whose
  flights are real (lossable) packets;
* a SACK-scoreboard sender with fast retransmit (RFC 6675 style), RTO with
  exponential backoff, congestion control (Cubic or BBRv1) and optional
  pacing;
* a receiver that delivers a strictly ordered byte stream — the transport
  head-of-line blocking that distinguishes TCP from QUIC — generates
  cumulative ACKs with up to ``max_sack_ranges`` SACK blocks, and models
  Linux-style receive-buffer autotuning (or BDP-tuned buffers for TCP+);
* stock-TCP slow start after idle.

Application data is written as byte counts with opaque ``meta`` markers
attached at write boundaries; the peer's receiver reports markers as the
ordered stream passes them. The HTTP/2 layer builds its framing on top.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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

ACK_PACKET_BYTES = 40
HEADER_BYTES = 40
#: Linux initial receive window before autotuning kicks in.
AUTOTUNE_INITIAL_BYTES = 64 * 1024
AUTOTUNE_MAX_BYTES = 6 * 1024 * 1024
#: Reordering tolerance for SACK-based loss marking (RFC 6675 DupThresh).
DUP_THRESH_BYTES_FACTOR = 3
DELAYED_ACK_TIMEOUT = 0.025


@dataclass(slots=True)
class TcpSegment:
    """Payload carried inside an emulated packet for this connection."""

    kind: str                      # "ctrl" | "data" | "ack"
    direction: str                 # "c2s" | "s2c"
    seq: int = 0
    length: int = 0
    is_retransmit: bool = False
    sent_time: float = 0.0
    ack: int = 0
    sack_blocks: Tuple[Tuple[int, int], ...] = ()
    rwnd: int = 0
    ctrl: str = ""                 # "syn" | "synack" | "hello" | "flight" | "fin_hs"
    ctrl_index: int = 0            # packet index within a multi-packet flight
    ctrl_total: int = 0


@dataclass(slots=True)
class _SentRange:
    """Sender bookkeeping for one transmitted segment.

    Records live in ``TcpSender._sent`` sorted by ``seq`` (unique per
    record) with an already-acked prefix trimmed lazily, so per-ACK
    bookkeeping touches only the records an ACK actually affects
    instead of rescanning the whole in-flight list.
    """

    seq: int
    end: int
    sent_time: float
    retransmitted: bool = False
    delivered_at_send: int = 0
    sampled: bool = False


@dataclass
class SenderStats:
    """Per-direction sender counters (used by the retransmission analyses)."""

    segments_sent: int = 0
    bytes_sent: int = 0
    retransmitted_segments: int = 0
    rto_count: int = 0
    fast_retransmits: int = 0
    loss_events: int = 0


def sack_holes(sacked: RangeSet,
               snd_una: int) -> Iterator[Tuple[int, int, int]]:
    """``(start, end, sacked_above)`` per scoreboard hole, lowest first.

    ``sacked_above`` is the number of SACKed bytes above the hole. The
    scoreboard must hold nothing below ``snd_una`` (the cumulative ACK
    removes it), so everything between ``snd_una`` and the first hole,
    and between consecutive holes, is SACKed: one ascending pass keeps
    the running total, instead of summing the scoreboard per hole.
    """
    above = sacked.covered_bytes()
    cursor = snd_una
    for start, end in sacked.missing_within(snd_una, sacked.highest()):
        above -= start - cursor
        cursor = end
        yield start, end, above


class TcpSender:
    """Reliable byte-stream sender for one direction of the connection."""

    def __init__(
        self,
        loop: EventLoop,
        stack: StackConfig,
        send_packet: Callable[[int, TcpSegment], None],
        direction: str,
        bdp_hint: int,
    ):
        self._loop = loop
        self._stack = stack
        self._send_packet = send_packet
        self._direction = direction
        self.mss = stack.mss
        self.cc = make_controller(
            stack.congestion_control, stack.mss, stack.initial_window_segments
        )
        self.pacer = Pacer(stack.pacing, stack.mss)
        self.rtt = RttEstimator()
        self.stats = SenderStats()

        # Stream state.
        self._stream_len = 0
        self._metas: Dict[int, List[object]] = {}
        self._fin_offset: Optional[int] = None

        # Sequence state.
        self.snd_una = 0
        self.snd_nxt = 0
        self._sacked = RangeSet()
        self._lost = RangeSet()          # ranges marked for retransmission
        self._retx_in_flight = RangeSet()  # retransmitted, not yet acked
        # Sent records sorted by seq, with a parallel key list for
        # bisection and a lazily-advanced head trimming the acked
        # prefix (amortised O(1) per record over a connection).
        self._sent: List[_SentRange] = []
        self._sent_keys: List[int] = []
        self._sent_head = 0
        # The (few) records marked retransmitted, so RACK-style expiry
        # does not rescan every in-flight record.
        self._retx_records: List[_SentRange] = []
        self._peer_rwnd = AUTOTUNE_INITIAL_BYTES

        # Delivery-rate estimation (for BBR).
        self._delivered_bytes = 0

        # Recovery / timers.
        self._in_recovery = False
        self._recovery_point = 0
        self._rto_timer: Optional[ScheduledEvent] = None
        self._rto_backoff = 1
        self._pace_timer: Optional[ScheduledEvent] = None
        self._last_activity: Optional[float] = None

        # Low-water-mark writable signalling for streaming producers.
        self.writable_low_water = 64 * 1024
        self.on_writable: Optional[Callable[[], None]] = None

        self._bdp_hint = bdp_hint

    # -- application interface ---------------------------------------------

    @property
    def backlog(self) -> int:
        """Bytes written but not yet transmitted for the first time."""
        return self._stream_len - self.snd_nxt

    @property
    def all_acked(self) -> bool:
        """True when every written byte has been cumulatively acked."""
        return self.snd_una >= self._stream_len

    def write(self, nbytes: int, meta: Optional[object] = None,
              *, metas: Optional[List[object]] = None) -> None:
        """Append ``nbytes`` to the outgoing stream.

        ``meta`` (if given) is attached at the end offset of this write and
        reported by the peer receiver once the ordered stream reaches it.
        ``metas`` attaches a whole batch at that offset — the relay case,
        where a proxy re-writes bytes whose markers arrived together.
        """
        if nbytes <= 0:
            raise ValueError(f"write size must be positive, got {nbytes}")
        self._maybe_idle_restart()
        self._stream_len += nbytes
        if meta is not None:
            self._metas.setdefault(self._stream_len, []).append(meta)
        if metas:
            self._metas.setdefault(self._stream_len, []).extend(metas)
        self._try_send()

    def pending_metas(self) -> Dict[int, List[object]]:
        """Offset→meta map for everything written so far (receiver setup)."""
        return self._metas

    # -- idle handling -------------------------------------------------------

    def _maybe_idle_restart(self) -> None:
        now = self._loop.now
        if self._last_activity is None:
            self._last_activity = now
            return
        idle = now - self._last_activity
        if idle > self.rtt.rto() and self.snd_una == self.snd_nxt:
            if self._stack.slow_start_after_idle:
                self.cc.on_idle_restart()
            self.pacer.reset_initial_quantum()
        self._last_activity = now

    # -- transmission ----------------------------------------------------------

    def _pipe(self) -> int:
        """SACK-based estimate of bytes currently in the network."""
        outstanding = self.snd_nxt - self.snd_una
        return max(0, outstanding - self._sacked.covered_bytes()
                   - self._lost.covered_bytes())

    def _next_chunk(self) -> Optional[Tuple[int, int, bool]]:
        """(seq, length, is_retransmit) of the next segment, or None."""
        lost = self._lost.first()
        if lost is not None:
            start, end = lost
            return start, min(end - start, self.mss), True
        if self.snd_nxt < self._stream_len:
            if self.snd_nxt - self.snd_una >= self._peer_rwnd:
                return None  # receive-window limited
            length = min(self.mss, self._stream_len - self.snd_nxt)
            return self.snd_nxt, length, False
        return None

    def _try_send(self) -> None:
        if self._pace_timer is not None:
            return  # a pacing-gated send is already scheduled
        while True:
            chunk = self._next_chunk()
            if chunk is None:
                break
            seq, length, is_retx = chunk
            if not is_retx and self._pipe() + length > self.cc.congestion_window():
                break
            if is_retx and self._pipe() + length > self.cc.congestion_window():
                break
            now = self._loop.now
            self.pacer.set_rate(self.cc.pacing_rate(self.rtt.smoothed()))
            release = self.pacer.next_send_time(now, length + HEADER_BYTES)
            if release > now + 1e-12:
                self._pace_timer = self._loop.call_at(release, self._pace_fire)
                return
            self._transmit(seq, length, is_retx)
        self._arm_rto()

    def _pace_fire(self) -> None:
        self._pace_timer = None
        self._try_send()

    def _transmit(self, seq: int, length: int, is_retx: bool) -> None:
        now = self._loop.now
        segment = TcpSegment(
            kind="data",
            direction=self._direction,
            seq=seq,
            length=length,
            is_retransmit=is_retx,
            sent_time=now,
        )
        self.pacer.on_packet_sent(now, length + HEADER_BYTES)
        self.cc.on_packet_sent(now, length, self._pipe())
        self.stats.segments_sent += 1
        self.stats.bytes_sent += length
        self._last_activity = now
        if is_retx:
            self.stats.retransmitted_segments += 1
            self._lost.remove(seq, seq + length)
            self._retx_in_flight.add(seq, seq + length)
            # Mark every record overlapping the retransmitted range: their
            # original send times must no longer produce RTT samples
            # (Karn), even when segment boundaries do not line up. A
            # record spans at most one MSS, so overlaps lie within
            # [seq - mss, seq + length) in key order.
            sent, keys, head = self._sent, self._sent_keys, self._sent_head
            matched = False
            lo = bisect_left(keys, seq - self.mss, head)
            hi = bisect_left(keys, seq + length, head)
            for i in range(lo, hi):
                rec = sent[i]
                if rec.seq < seq + length and rec.end > seq:
                    if not rec.retransmitted:
                        rec.retransmitted = True
                        self._retx_records.append(rec)
                    if rec.seq == seq:
                        rec.sent_time = now
                        matched = True
            if not matched:
                rec = _SentRange(seq, seq + length, now, True,
                                 self._delivered_bytes)
                pos = bisect_left(keys, seq, head)
                keys.insert(pos, seq)
                sent.insert(pos, rec)
                self._retx_records.append(rec)
        else:
            # New data: seq == snd_nxt is above every recorded key, so a
            # plain append keeps the list sorted.
            self._sent.append(
                _SentRange(seq, seq + length, now, False,
                           self._delivered_bytes))
            self._sent_keys.append(seq)
            self.snd_nxt = seq + length
        self._send_packet(length + HEADER_BYTES, segment)

    # -- acknowledgement processing ------------------------------------------

    def on_ack(self, segment: TcpSegment) -> None:
        """Process an ACK segment from the peer."""
        now = self._loop.now
        self._peer_rwnd = max(segment.rwnd, self.mss)
        newly_acked = 0

        previously_sacked_below_ack = 0
        if segment.ack > self.snd_una:
            newly_acked = segment.ack - self.snd_una
            self.snd_una = segment.ack
            before = self._sacked.covered_bytes()
            self._sacked.remove(0, segment.ack)
            previously_sacked_below_ack = before - self._sacked.covered_bytes()
            self._lost.remove(0, segment.ack)
            self._retx_in_flight.remove(0, segment.ack)
            self._rto_backoff = 1

        sack_advanced = False
        sacked_bytes = 0
        new_gaps: List[Tuple[int, int]] = []
        for start, end in segment.sack_blocks:
            # The newly covered intervals (gaps of the current scoreboard
            # within the block) drive both the gained-byte accounting and
            # the incremental delivery sampling below.
            gaps = self._sacked.missing_within(max(start, self.snd_una), end)
            for gap_start, gap_end in gaps:
                self._sacked.add(gap_start, gap_end)
            self._retx_in_flight.remove(start, end)
            gained = sum(e - s for s, e in gaps)
            if gained > 0:
                sack_advanced = True
                sacked_bytes += gained
                new_gaps.extend(gaps)
        # Delivered-byte accounting for the BBR rate estimator: bytes that
        # were SACKed earlier must not be counted again when the
        # cumulative ACK finally passes them.
        self._delivered_bytes += (newly_acked - previously_sacked_below_ack
                                  + sacked_bytes)

        rtt_sample, delivery_rate = self._samples_for(segment.ack, new_gaps)
        if rtt_sample is not None:
            self.rtt.on_sample(rtt_sample)

        self._prune_acked()

        if newly_acked > 0 or sack_advanced:
            self._detect_losses(now)

        if newly_acked > 0:
            if self._in_recovery and self.snd_una >= self._recovery_point:
                self._in_recovery = False
            self.cc.on_ack(now, newly_acked, rtt_sample, self._pipe(),
                           delivery_rate)

        if self.all_acked:
            self._cancel_rto()
        else:
            self._arm_rto()

        self._try_send()
        self._signal_writable()

    def _samples_for(
        self, ack: int, new_gaps: List[Tuple[int, int]],
    ) -> Tuple[Optional[float], Optional[float]]:
        """(rtt, delivery_rate) samples from segments delivered by this ACK.

        A segment is sampled exactly once: the first time it is covered by
        either the cumulative ACK or a SACK block. Segments that were
        SACKed earlier and are only now passed by the cumulative ACK would
        otherwise yield wildly inflated "flight times". Karn's rule: only
        never-retransmitted segments provide samples.

        Only records this ACK can newly deliver are examined: the key
        prefix below the cumulative ACK, plus records overlapping
        ``new_gaps`` — the intervals the ACK's SACK blocks newly covered.
        A record first fully SACKed now has newly-covered bytes, which lie
        inside one of those gaps; everything else was either sampled by an
        earlier ACK or is still undelivered.
        """
        best_rtt: Optional[float] = None
        best_rate: Optional[float] = None
        now = self._loop.now
        sent, keys, head = self._sent, self._sent_keys, self._sent_head
        spans = [(head, bisect_left(keys, ack, head))]
        spans.extend(
            (bisect_left(keys, gap_start - self.mss, head),
             bisect_left(keys, gap_end, head))
            for gap_start, gap_end in new_gaps
        )
        for lo, hi in spans:
            for i in range(lo, hi):
                rec = sent[i]
                if rec.sampled:
                    continue
                delivered = (rec.end <= ack
                             or self._sacked.contains(rec.seq, rec.end))
                if not delivered:
                    continue
                rec.sampled = True
                if rec.retransmitted:
                    continue
                flight = now - rec.sent_time
                if flight <= 0:
                    continue
                if best_rtt is None or flight < best_rtt:
                    best_rtt = flight
                rate = (self._delivered_bytes - rec.delivered_at_send) / flight
                if best_rate is None or rate > best_rate:
                    best_rate = rate
        return best_rtt, best_rate

    def _prune_acked(self) -> None:
        """Advance past (and periodically drop) cumulatively-acked records.

        Records keep seq order, so the acked prefix is contiguous up to
        the first record straddling ``snd_una``; a few dead records may
        linger behind a straddler until it goes, which is harmless — they
        are already sampled and can never match a Karn or RACK check
        again.
        """
        sent, keys = self._sent, self._sent_keys
        head = self._sent_head
        snd_una = self.snd_una
        n = len(sent)
        while head < n and sent[head].end <= snd_una:
            head += 1
        if head > 64 and head * 2 >= n:
            del sent[:head]
            del keys[:head]
            head = 0
        self._sent_head = head

    def _detect_losses(self, now: float) -> None:
        """RFC 6675-ish: a hole with >= 3 MSS SACKed above it is lost."""
        if not self._sacked:
            return
        self._expire_stale_retransmissions(now)
        threshold = DUP_THRESH_BYTES_FACTOR * self.mss
        newly_lost = 0
        for start, end, sacked_above in sack_holes(self._sacked,
                                                   self.snd_una):
            if sacked_above < threshold:
                break  # holes ascend, so the SACKed bytes above only shrink
            # Only mark sub-ranges whose retransmission is not still in
            # flight; re-marking in-flight retransmissions causes a
            # retransmission storm.
            for sub_start, sub_end in self._retx_in_flight.missing_within(
                    start, end):
                before = self._lost.covered_bytes()
                self._lost.add(sub_start, sub_end)
                newly_lost += self._lost.covered_bytes() - before
        if newly_lost > 0:
            self.stats.fast_retransmits += 1
            if not self._in_recovery:
                self._in_recovery = True
                self._recovery_point = self.snd_nxt
                self.stats.loss_events += 1
                self.cc.on_loss_event(now, newly_lost, self._pipe())

    def _expire_stale_retransmissions(self, now: float) -> None:
        """RACK-style: a retransmission unacked after ~1.25 srtt was lost.

        Removing it from the in-flight set lets `_detect_losses` mark the
        range lost again instead of waiting for a full (backed-off) RTO.
        """
        if not self._retx_in_flight:
            return
        reorder_window = 1.25 * self.rtt.smoothed() + 0.01
        stale: List[Tuple[int, int]] = []
        live: List[_SentRange] = []
        snd_una = self.snd_una
        for rec in self._retx_records:
            if rec.end <= snd_una:
                continue  # cumulatively acked; drop from the watch list
            live.append(rec)
            if now - rec.sent_time > reorder_window:
                if self._retx_in_flight.contains(rec.seq, rec.end):
                    stale.append((rec.seq, rec.end))
        self._retx_records = live
        for start, end in stale:
            self._retx_in_flight.remove(start, end)

    # -- RTO -----------------------------------------------------------------

    def _arm_rto(self) -> None:
        if self.all_acked and not self._lost:
            return
        self._cancel_rto()
        timeout = self.rtt.rto() * self._rto_backoff
        self._rto_timer = self._loop.call_later(timeout, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.all_acked:
            return
        self.stats.rto_count += 1
        self.stats.loss_events += 1
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self.cc.on_rto(self._loop.now)
        self._in_recovery = False
        # Everything outstanding is eligible for retransmission; go-back-N
        # from snd_una but honour SACKed ranges.
        resend_end = self.snd_nxt
        self._lost = RangeSet()
        self._retx_in_flight = RangeSet()
        for start, end in self._sacked.missing_within(self.snd_una, resend_end):
            self._lost.add(start, end)
        if not self._lost and self.snd_una < resend_end:
            self._lost.add(self.snd_una, resend_end)
        self._try_send()
        self._arm_rto()

    # -- writable signalling ----------------------------------------------------

    def _signal_writable(self) -> None:
        if self.on_writable is not None and self.backlog < self.writable_low_water:
            self.on_writable()


class TcpReceiver:
    """Ordered-delivery receiver with SACK generation and buffer autotuning."""

    def __init__(
        self,
        loop: EventLoop,
        stack: StackConfig,
        send_ack: Callable[[TcpSegment], None],
        direction: str,
        bdp_hint: int,
        on_data: Callable[[int, List[object]], None],
        metas: Dict[int, List[object]],
    ):
        self._loop = loop
        self._stack = stack
        self._send_ack = send_ack
        self._direction = direction
        self._on_data = on_data
        self._metas = metas
        # Meta offsets are created in ascending order (they key the
        # sender's monotonic stream length), so the dict's insertion
        # order is sorted; a cursor over a cached key list replaces the
        # per-delivery sort of the whole map.
        self._meta_keys: List[int] = []
        self._meta_cursor = 0
        self._received = RangeSet()
        self.delivered = 0
        self._pending_ack_packets = 0
        self._delayed_ack_timer: Optional[ScheduledEvent] = None
        if stack.tuned_buffers:
            self._buffer_cap = max(4 * bdp_hint, 256 * 1024)
            self._autotune = False
        else:
            self._buffer_cap = AUTOTUNE_INITIAL_BYTES
            self._autotune = True
        self._rtt_window_start = 0.0
        self._delivered_in_window = 0

    @property
    def buffer_cap(self) -> int:
        """Current receive buffer (advertised window) in bytes."""
        return self._buffer_cap

    def on_segment(self, segment: TcpSegment) -> None:
        """Process an arriving data segment."""
        start, end = segment.seq, segment.seq + segment.length
        out_of_order = start > self.delivered
        self._received.add(start, end)
        self._deliver_contiguous()
        self._pending_ack_packets += 1
        if out_of_order or self._pending_ack_packets >= 2:
            self._emit_ack()
        elif self._delayed_ack_timer is None:
            self._delayed_ack_timer = self._loop.call_later(
                DELAYED_ACK_TIMEOUT, self._emit_ack
            )

    def _deliver_contiguous(self) -> None:
        new_delivered = self._received.first_gap_after(0)
        if new_delivered <= self.delivered:
            return
        metas: List[object] = []
        keys = self._meta_keys
        if len(keys) != len(self._metas):
            # New writes appended metas; the old keys are a prefix of the
            # refreshed (still ascending) list, so the cursor stays valid.
            keys = self._meta_keys = list(self._metas)
        i = self._meta_cursor
        n = len(keys)
        while i < n and keys[i] <= new_delivered:
            if keys[i] > self.delivered:
                metas.extend(self._metas[keys[i]])
            i += 1
        self._meta_cursor = i
        advanced = new_delivered - self.delivered
        self.delivered = new_delivered
        self._maybe_autotune(advanced)
        self._on_data(self.delivered, metas)

    def _maybe_autotune(self, advanced: int) -> None:
        if not self._autotune:
            return
        now = self._loop.now
        self._delivered_in_window += advanced
        if now - self._rtt_window_start >= 0.1:  # coarse RTT proxy
            if self._delivered_in_window * 2 > self._buffer_cap:
                self._buffer_cap = min(self._buffer_cap * 2, AUTOTUNE_MAX_BYTES)
            self._rtt_window_start = now
            self._delivered_in_window = 0

    def _emit_ack(self) -> None:
        if self._delayed_ack_timer is not None:
            self._delayed_ack_timer.cancel()
            self._delayed_ack_timer = None
        self._pending_ack_packets = 0
        cumulative = self._received.first_gap_after(0)
        blocks = tuple(
            (s, e)
            for s, e in self._received.newest_first(self._stack.max_sack_ranges)
            if e > cumulative
        )
        ack = TcpSegment(
            kind="ack",
            direction=self._direction,
            ack=cumulative,
            sack_blocks=blocks,
            rwnd=self._buffer_cap,
        )
        self._send_ack(ack)


class TcpConnection:
    """Both endpoints of one TCP+TLS1.3 connection over a NetworkPath.

    The flow id — which seeds the handshake-retry jitter and therefore
    affects lossy-network behaviour — comes from the per-load
    :class:`FlowIdAllocator` (``flow_ids``, defaulting to the path's
    own), never from process-global state: a connection's identity is a
    pure function of its position within its page load.
    """

    def __init__(
        self,
        path: NetworkPath,
        stack: StackConfig,
        on_client_data: Callable[[int, List[object]], None],
        on_server_data: Callable[[int, List[object]], None],
        flow_ids: Optional[FlowIdAllocator] = None,
    ):
        if stack.is_quic:
            raise ValueError("TcpConnection requires a TCP stack config")
        self._path = path
        self._loop = path.loop
        self._stack = stack
        allocator = flow_ids if flow_ids is not None else path.flow_ids
        self.flow_id = allocator.next_tcp()

        bdp = path.bdp_bytes()
        self.client_sender = TcpSender(
            self._loop, stack, self._send_c2s, "c2s", bdp
        )
        self.server_sender = TcpSender(
            self._loop, stack, self._send_s2c, "s2c", bdp
        )
        # The client receives s2c data and its ACKs travel back to the
        # server (and vice versa).
        self.client_receiver = TcpReceiver(
            self._loop, stack, self._ack_to_server, "s2c", bdp,
            on_client_data, self.server_sender.pending_metas(),
        )
        self.server_receiver = TcpReceiver(
            self._loop, stack, self._ack_to_client, "c2s", bdp,
            on_server_data, self.client_sender.pending_metas(),
        )

        path.register_client(self.flow_id, self._client_packet)
        path.register_server(self.flow_id, self._server_packet)

        self._established = False
        self._established_at: Optional[float] = None
        self._on_established: Optional[Callable[[], None]] = None
        self._hs_stage = "idle"
        self._hs_timer: Optional[ScheduledEvent] = None
        self._hs_rto = RttEstimator.INITIAL_RTO
        self._hs_attempts = 0
        self._hs_started_at = 0.0
        self._flight_received = 0
        self._syn_sent_at = 0.0

    # -- public API ------------------------------------------------------------

    @property
    def established(self) -> bool:
        return self._established

    @property
    def established_at(self) -> Optional[float]:
        """Simulated time when the client could first send a request."""
        return self._established_at

    def connect(self, on_established: Callable[[], None]) -> None:
        """Begin the 2-RTT TCP+TLS1.3 handshake."""
        if self._hs_stage != "idle":
            raise RuntimeError("connect() already called")
        self._on_established = on_established
        self._hs_stage = "syn_sent"
        self._send_hs_client("syn", tls.TCP_CONTROL_PACKET_BYTES)
        self._syn_sent_at = self._loop.now
        self._arm_hs_timer()

    def client_write(self, nbytes: int, meta: Optional[object] = None,
                     *, metas: Optional[List[object]] = None) -> None:
        """Write request bytes from the client (after establishment)."""
        self._require_established()
        self.client_sender.write(nbytes, meta, metas=metas)

    def server_write(self, nbytes: int, meta: Optional[object] = None,
                     *, metas: Optional[List[object]] = None) -> None:
        """Write response bytes from the server."""
        self._require_established()
        self.server_sender.write(nbytes, meta, metas=metas)

    def _require_established(self) -> None:
        if not self._established:
            raise RuntimeError("connection not yet established")

    # -- handshake -----------------------------------------------------------------

    def _send_hs_client(self, ctrl: str, size: int) -> None:
        segment = TcpSegment(kind="ctrl", direction="c2s", ctrl=ctrl,
                             sent_time=self._loop.now)
        self._path.send_to_server(Packet(size=size, payload=segment,
                                         flow_id=self.flow_id))

    def _send_hs_server(self, ctrl: str, size: int, index: int = 0,
                        total: int = 1) -> None:
        segment = TcpSegment(kind="ctrl", direction="s2c", ctrl=ctrl,
                             ctrl_index=index, ctrl_total=total,
                             sent_time=self._loop.now)
        self._path.send_to_client(Packet(size=size, payload=segment,
                                         flow_id=self.flow_id))

    def _send_server_flight(self) -> None:
        total_bytes = tls.TCP_TLS13.server_flight_bytes
        mss = self._stack.mss
        npackets = (total_bytes + mss - 1) // mss
        remaining = total_bytes
        for index in range(npackets):
            size = min(mss, remaining) + HEADER_BYTES
            remaining -= min(mss, remaining)
            self._send_hs_server("flight", size, index, npackets)

    def _hs_jitter(self) -> float:
        """Per-connection, per-attempt timer jitter (see the QUIC twin).

        The kernel's SYN retransmission timer carries scheduling jitter in
        practice; modelling it prevents artificial lock-step retry storms
        across a page's parallel connections.
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
        self._hs_rto = min(self._hs_rto * 2, 8.0)
        if self._hs_stage == "syn_sent":
            self._send_hs_client("syn", tls.TCP_CONTROL_PACKET_BYTES)
        elif self._hs_stage == "hello_sent":
            self._send_hs_client("hello", tls.CLIENT_HELLO_BYTES)
        elif self._hs_stage == "flight_sent":
            self._flight_received = 0
            self._send_server_flight()
        self._arm_hs_timer()

    def _handle_hs_at_server(self, segment: TcpSegment) -> None:
        if segment.ctrl == "syn":
            self._send_hs_server("synack", tls.TCP_CONTROL_PACKET_BYTES)
        elif segment.ctrl == "hello":
            if self._hs_stage != "established":
                self._hs_stage = "flight_sent"
                self._send_server_flight()
                self._arm_hs_timer()
        elif segment.ctrl == "fin_hs":
            pass  # client Finished; server already treats the session as up

    def _handle_hs_at_client(self, segment: TcpSegment) -> None:
        if segment.ctrl == "synack" and self._hs_stage == "syn_sent":
            rtt = self._loop.now - self._syn_sent_at
            self.client_sender.rtt.on_sample(rtt)
            self._hs_stage = "hello_sent"
            self._hs_rto = max(self.client_sender.rtt.rto(), 0.2)
            self._send_hs_client("hello", tls.CLIENT_HELLO_BYTES)
            self._arm_hs_timer()
        elif segment.ctrl == "flight":
            self._flight_received += 1
            if self._flight_received >= segment.ctrl_total and not self._established:
                self._send_hs_client("fin_hs", tls.CLIENT_FINISHED_BYTES)
                self._complete_handshake()

    def _complete_handshake(self) -> None:
        self._established = True
        self._established_at = self._loop.now
        self._hs_stage = "established"
        if self._hs_timer is not None:
            self._hs_timer.cancel()
            self._hs_timer = None
        # Seed the server's RTT estimate from the handshake exchange.
        self.server_sender.rtt.on_sample(
            max(self._path.min_rtt, (self._loop.now - self._syn_sent_at) / 2)
        )
        if self._on_established is not None:
            self._on_established()

    # -- packet plumbing --------------------------------------------------------------

    def _send_c2s(self, size: int, segment: TcpSegment) -> None:
        self._path.send_to_server(Packet(size=size, payload=segment,
                                         flow_id=self.flow_id))

    def _send_s2c(self, size: int, segment: TcpSegment) -> None:
        self._path.send_to_client(Packet(size=size, payload=segment,
                                         flow_id=self.flow_id))

    def _ack_to_server(self, segment: TcpSegment) -> None:
        """ACK generated at the client (for s2c data) travels to the server."""
        self._path.send_to_server(Packet(size=ACK_PACKET_BYTES, payload=segment,
                                         flow_id=self.flow_id))

    def _ack_to_client(self, segment: TcpSegment) -> None:
        """ACK generated at the server (for c2s data) travels to the client."""
        self._path.send_to_client(Packet(size=ACK_PACKET_BYTES, payload=segment,
                                         flow_id=self.flow_id))

    def _client_packet(self, packet: Packet) -> None:
        """Packets arriving at the client."""
        segment: TcpSegment = packet.payload
        if segment.kind == "ctrl":
            self._handle_hs_at_client(segment)
        elif segment.kind == "data":
            self.client_receiver.on_segment(segment)
        elif segment.kind == "ack":
            self.client_sender.on_ack(segment)

    def _server_packet(self, packet: Packet) -> None:
        """Packets arriving at the server."""
        segment: TcpSegment = packet.payload
        if segment.kind == "ctrl":
            self._handle_hs_at_server(segment)
        elif segment.kind == "data":
            self.server_receiver.on_segment(segment)
        elif segment.kind == "ack":
            self.server_sender.on_ack(segment)

    def close(self) -> None:
        """Unregister from the path (no FIN exchange is modelled)."""
        self._path.unregister(self.flow_id)
