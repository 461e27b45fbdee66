"""Flow tracking and TCP stream reassembly.

The binary-extraction stage operates on *application messages*, not raw
segments: an exploit request may be split across TCP segments, and the
Code Red II GET request in the paper's traces spans several packets.
:class:`StreamReassembler` stitches TCP payload bytes back into per-direction
byte streams keyed by 5-tuple, handling out-of-order and overlapping
segments the way a first-writer-wins IDS reassembler does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..errors import FlowKeyError
from ..obs import MetricField, MetricsRegistry, StageTimer, Tracer, bind_metrics
from .layers import TCP_FIN, TCP_RST, TCP_SYN, Tcp
from .packet import Packet

__all__ = ["FlowKey", "FlowStats", "Stream", "StreamReassembler"]


@dataclass(frozen=True, order=True)
class FlowKey:
    """Directed 5-tuple identifying one direction of a conversation."""

    src: str
    dst: str
    sport: int
    dport: int
    proto: int = 6

    @classmethod
    def of(cls, pkt: Packet) -> "FlowKey":
        if pkt.ip is None or pkt.sport is None:
            raise FlowKeyError("packet has no transport flow")
        return cls(pkt.ip.src, pkt.ip.dst, pkt.sport, pkt.dport, pkt.ip.proto)

    def reverse(self) -> "FlowKey":
        return FlowKey(self.dst, self.src, self.dport, self.sport, self.proto)

    def __str__(self) -> str:
        return f"{self.src}:{self.sport}->{self.dst}:{self.dport}/{self.proto}"


@dataclass
class FlowStats:
    """Aggregate counters kept per directed flow."""

    packets: int = 0
    bytes: int = 0
    first_seen: float = 0.0
    last_seen: float = 0.0

    def update(self, pkt: Packet) -> None:
        if self.packets == 0:
            self.first_seen = pkt.timestamp
        self.packets += 1
        self.bytes += len(pkt.payload)
        self.last_seen = pkt.timestamp


@dataclass
class Stream:
    """One direction of a TCP conversation, reassembled.

    Segments are merged first-writer-wins: bytes already present at a stream
    offset are never overwritten by retransmissions or overlaps, matching
    common IDS reassembly policy.  ``data()`` returns the longest contiguous
    prefix assembled so far.

    Each buffered byte lives in exactly one place: the contiguous prefix
    in ``_assembled``, or an out-of-order segment beyond it in
    ``segments``.  Segments are popped into the prefix as holes fill, so
    a checkpoint pickles every byte once.
    """

    key: FlowKey
    base_seq: int | None = None
    #: offset → out-of-order segment bytes beyond the prefix end;
    #: zero-copy ``memoryview`` slices land here as-is and are only
    #: realized when absorbed into the prefix.
    segments: dict[int, bytes | memoryview] = field(default_factory=dict)
    fin_seen: bool = False
    stats: FlowStats = field(default_factory=FlowStats)
    #: bytes currently buffered (prefix plus segments), kept incrementally
    #: so memory accounting never walks the segment dict.
    buffered: int = 0
    #: the contiguous prefix from offset zero.  Bytes are immutable once
    #: inserted (first writer wins), so the prefix only ever grows, by
    #: absorbing segments as holes fill, and is never rebuilt per packet.
    _assembled: bytearray = field(default_factory=bytearray, repr=False)
    #: ``data()``'s bytes copy of the prefix, for direct callers; derived,
    #: so never checkpointed, and not filled by ``window()``.
    _data_cache: bytes | None = field(default=None, repr=False)

    MAX_BUFFER = 4 * 1024 * 1024  # per-stream cap, mirrors real IDS limits

    def __getstate__(self) -> dict:
        # Checkpoint support: memoryview slices from the zero-copy front
        # end cannot be pickled — materialize segments on the way out.
        state = self.__dict__.copy()
        state["segments"] = {
            off: bytes(seg) for off, seg in self.segments.items()
        }
        state["_data_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def add(self, pkt: Packet) -> int:
        """Merge one segment; returns the bytes trimmed by overlap."""
        tcp = pkt.l4
        assert isinstance(tcp, Tcp)
        self.stats.update(pkt)
        if self.base_seq is None:
            # First segment establishes the sequence origin; SYN consumes one
            # sequence number, so payload (if any) starts at seq+1.
            self.base_seq = (tcp.seq + 1) if tcp.flags & TCP_SYN else tcp.seq
        if tcp.flags & (TCP_FIN | TCP_RST):
            self.fin_seen = True
        if not pkt.payload:
            return 0
        offset = (tcp.seq - self.base_seq) & 0xFFFFFFFF
        if offset >= 1 << 31:  # segment precedes the current base: rebase
            delta = (1 << 32) - offset
            if delta >= self.MAX_BUFFER:
                return 0
            # Every offset shifts: the prefix no longer starts at zero, so
            # it goes back to being an ordinary segment.
            if self._assembled:
                self.segments[0] = bytes(self._assembled)
                self._assembled = bytearray()
                self._data_cache = None
            self.segments = {off + delta: seg for off, seg in self.segments.items()}
            self.base_seq = tcp.seq
            offset = 0
        if offset >= self.MAX_BUFFER:
            return 0
        trimmed = self._insert(offset, pkt.payload[: self.MAX_BUFFER - offset])
        self._extend_assembled()
        return trimmed

    def _insert(self, offset: int, data: bytes) -> int:
        """First-writer-wins merge; returns the bytes trimmed by overlap."""
        # Trim against the prefix [0, len(_assembled)) first: it is the
        # union of the segments it absorbed, so trimming against it in one
        # step removes exactly what trimming against each of them would.
        trimmed = min(len(data), max(0, len(self._assembled) - offset))
        if trimmed >= len(data):
            return trimmed
        offset += trimmed
        data = data[trimmed:]
        # Then against the out-of-order segments (first writer wins).
        for seg_off in sorted(self.segments):
            seg = self.segments[seg_off]
            seg_end = seg_off + len(seg)
            if seg_end <= offset or seg_off >= offset + len(data):
                continue
            if seg_off <= offset:
                skip = min(len(data), seg_end - offset)
                trimmed += skip
                if skip >= len(data):
                    return trimmed
                offset += skip
                data = data[skip:]
            else:
                head = data[: seg_off - offset]
                if head:
                    self.segments[offset] = head
                    self.buffered += len(head)
                trimmed += min(offset + len(data), seg_end) - seg_off
                tail_off = seg_end
                tail = data[tail_off - offset:]
                offset, data = tail_off, tail
                if not data:
                    return trimmed
        if data:
            self.segments[offset] = data
            self.buffered += len(data)
        return trimmed

    def _extend_assembled(self) -> None:
        """Absorb the segments that now continue the prefix."""
        seg = self.segments.pop(len(self._assembled), None)
        while seg is not None:
            self._assembled += seg
            self._data_cache = None
            seg = self.segments.pop(len(self._assembled), None)

    def data(self) -> bytes:
        """Contiguous stream prefix from offset zero."""
        if self._data_cache is None:
            self._data_cache = bytes(self._assembled)
        return self._data_cache

    def window(self, start: int) -> bytes:
        """The contiguous prefix from offset ``start`` on, as one copy."""
        with memoryview(self._assembled) as view:
            return bytes(view[start:])

    def contiguous_length(self) -> int:
        """Length of the contiguous prefix, without materializing bytes."""
        return len(self._assembled)

    def total_buffered(self) -> int:
        return self.buffered


class StreamReassembler:
    """Tracks all TCP streams seen by the sensor.

    Non-TCP packets are counted but not buffered.  ``feed`` returns the
    stream a packet belonged to (or ``None``) so callers can re-inspect the
    reassembled message after every segment, which is how the NIDS triggers
    extraction as soon as a request is complete enough to parse.

    Memory is bounded by ``max_streams`` (entry count) and
    ``max_total_bytes`` (aggregate buffered payload, on top of the
    per-stream ``Stream.MAX_BUFFER``); the least-recently-active stream is
    evicted first.  ``on_evict`` — called with the evicted stream's
    :class:`FlowKey` — lets the pipeline drop its own per-stream state in
    lockstep, so no side table outlives the stream it describes.
    """

    non_tcp_packets = MetricField(
        "repro_reassembly_non_tcp_packets_total",
        help="Packets seen by the reassembler without a TCP flow.",
        unit="packets")
    evicted = MetricField(
        "repro_reassembly_streams_evicted_total",
        help="TCP streams evicted under the stream/byte caps.",
        unit="streams")
    overlaps_trimmed = MetricField(
        "repro_reassembly_overlap_bytes_trimmed_total",
        help="Bytes dropped by first-writer-wins segment trims.",
        unit="bytes")
    bytes_buffered = MetricField(
        "repro_reassembly_buffered_bytes", kind="gauge",
        help="Bytes currently buffered across all tracked streams.",
        unit="bytes")

    def __init__(self, max_streams: int = 65536,
                 max_total_bytes: int = 256 * 1024 * 1024,
                 on_evict: Callable[[FlowKey], None] | None = None,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.streams: dict[FlowKey, Stream] = {}
        self.max_streams = max_streams
        self.max_total_bytes = max_total_bytes
        self.on_evict = on_evict
        reg = bind_metrics(self, registry)
        self._active_streams = reg.gauge(
            "repro_reassembly_active_streams",
            help="TCP streams currently tracked.", unit="streams")
        #: shares the "reassemble" stage with the IP defragmenter — the
        #: two components are one front-end in the stage breakdown.
        self.timer = StageTimer("reassemble", registry, tracer)

    def feed(self, pkt: Packet) -> Stream | None:
        if not pkt.is_tcp:
            self.non_tcp_packets += 1
            return None
        with self.timer.timed(nbytes=len(pkt.payload)):
            return self._feed_tcp(pkt)

    def _feed_tcp(self, pkt: Packet) -> Stream:
        key = FlowKey.of(pkt)
        stream = self.streams.get(key)
        if stream is None:
            if len(self.streams) >= self.max_streams:
                self._evict_oldest()
            stream = Stream(key=key)
            self.streams[key] = stream
        before = stream.buffered
        self.overlaps_trimmed += stream.add(pkt)
        self.bytes_buffered += stream.buffered - before
        # Keep aggregate memory bounded even against many fat streams; the
        # stream just fed is spared so an in-progress message survives.
        # Clamp: once the spared stream alone meets or exceeds the byte
        # cap, evicting everything else cannot get under it — that would
        # be pure over-eviction of innocent streams (the spared stream
        # itself is already bounded by Stream.MAX_BUFFER).
        while (self.bytes_buffered > self.max_total_bytes
               and len(self.streams) > 1
               and stream.buffered < self.max_total_bytes):
            self._evict_oldest(spare=key)
        self._active_streams.value = len(self.streams)
        return stream

    def _evict_oldest(self, spare: FlowKey | None = None) -> None:
        victim = min(
            (s for s in self.streams.values() if s.key != spare),
            key=lambda s: s.stats.last_seen)
        del self.streams[victim.key]
        self.bytes_buffered -= victim.buffered
        self.evicted += 1
        self._active_streams.value = len(self.streams)
        if self.on_evict is not None:
            self.on_evict(victim.key)

    def finished_streams(self) -> Iterator[Stream]:
        """Streams whose FIN/RST has been observed."""
        return (s for s in self.streams.values() if s.fin_seen)

    def get(self, key: FlowKey) -> Stream | None:
        return self.streams.get(key)

    def __len__(self) -> int:
        return len(self.streams)
