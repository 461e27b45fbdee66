"""Tests for repro.net.flow: flow keys and TCP reassembly."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net.flow import FlowKey, Stream, StreamReassembler
from repro.net.layers import TCP_ACK, TCP_FIN, TCP_SYN
from repro.net.packet import tcp_packet, udp_packet


def _seg(payload, seq, flags=0x18, src="1.1.1.1", sport=1000):
    return tcp_packet(src, "2.2.2.2", sport, 80, payload=payload,
                      flags=flags, seq=seq)


class TestFlowKey:
    def test_of_packet(self):
        key = FlowKey.of(_seg(b"x", 1))
        assert key.src == "1.1.1.1"
        assert key.dport == 80

    def test_reverse(self):
        key = FlowKey.of(_seg(b"x", 1))
        rev = key.reverse()
        assert rev.src == key.dst and rev.sport == key.dport
        assert rev.reverse() == key

    def test_of_non_flow_packet(self):
        from repro.net.packet import icmp_packet
        with pytest.raises(ValueError):
            FlowKey.of(icmp_packet("1.1.1.1", "2.2.2.2"))

    def test_str(self):
        assert "1.1.1.1:1000->2.2.2.2:80/6" == str(FlowKey.of(_seg(b"", 1)))


class TestStreamReassembly:
    def test_in_order(self):
        r = StreamReassembler()
        r.feed(_seg(b"hello ", 100))
        stream = r.feed(_seg(b"world", 106))
        assert stream.data() == b"hello world"

    def test_out_of_order(self):
        r = StreamReassembler()
        r.feed(_seg(b"hello ", 100))
        r.feed(_seg(b"!", 111))
        stream = r.feed(_seg(b"world", 106))
        assert stream.data() == b"hello world!"

    def test_gap_returns_prefix_only(self):
        r = StreamReassembler()
        r.feed(_seg(b"abc", 100))
        stream = r.feed(_seg(b"xyz", 110))  # hole at 103..109
        assert stream.data() == b"abc"

    def test_retransmission_first_writer_wins(self):
        r = StreamReassembler()
        r.feed(_seg(b"ORIGINAL", 100))
        stream = r.feed(_seg(b"EVILDATA", 100))
        assert stream.data() == b"ORIGINAL"

    def test_partial_overlap_first_writer_wins(self):
        r = StreamReassembler()
        r.feed(_seg(b"abcd", 100))
        stream = r.feed(_seg(b"XXefgh", 102))  # overlaps abcd's tail
        assert stream.data() == b"abcdefgh"

    def test_overlap_with_existing_tail(self):
        r = StreamReassembler()
        r.feed(_seg(b"cdef", 102))
        stream = r.feed(_seg(b"abXX", 100))  # head new, tail overlaps
        assert stream.data() == b"abcdef"

    def test_syn_consumes_sequence_number(self):
        r = StreamReassembler()
        r.feed(_seg(b"", 99, flags=TCP_SYN))
        stream = r.feed(_seg(b"data", 100, flags=TCP_ACK | 0x08))
        assert stream.data() == b"data"

    def test_fin_marks_stream(self):
        r = StreamReassembler()
        r.feed(_seg(b"bye", 100))
        stream = r.feed(_seg(b"", 103, flags=TCP_FIN | TCP_ACK))
        assert stream.fin_seen
        assert list(r.finished_streams()) == [stream]

    def test_directions_are_separate_streams(self):
        r = StreamReassembler()
        r.feed(_seg(b"request", 100))
        back = tcp_packet("2.2.2.2", "1.1.1.1", 80, 1000, payload=b"response",
                          flags=0x18, seq=500)
        r.feed(back)
        assert len(r) == 2

    def test_non_tcp_counted_not_buffered(self):
        r = StreamReassembler()
        assert r.feed(udp_packet("1.1.1.1", "2.2.2.2", 1, 2, b"x")) is None
        assert r.non_tcp_packets == 1
        assert len(r) == 0

    def test_eviction(self):
        r = StreamReassembler(max_streams=2)
        for i in range(3):
            pkt = _seg(b"x", 100, sport=2000 + i)
            pkt.timestamp = float(i)
            r.feed(pkt)
        assert len(r) == 2
        assert r.evicted == 1
        # the oldest (sport=2000) was evicted
        assert r.get(FlowKey("1.1.1.1", "2.2.2.2", 2000, 80, 6)) is None

    def test_buffer_cap(self):
        stream = Stream(key=FlowKey("a", "b", 1, 2))
        pkt = _seg(b"in-range", 100)
        stream.add(pkt)
        far = _seg(b"too-far", 100 + Stream.MAX_BUFFER + 10)
        stream.add(far)
        assert stream.total_buffered() == len(b"in-range")

    def test_stats_update(self):
        r = StreamReassembler()
        pkt = _seg(b"abc", 100)
        pkt.timestamp = 5.0
        stream = r.feed(pkt)
        assert stream.stats.packets == 1
        assert stream.stats.bytes == 3
        assert stream.stats.first_seen == 5.0


class TestAssemblyCache:
    """data() is incrementally assembled and cached between calls."""

    def test_repeated_calls_return_cached_object(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"hello", 100))
        assert stream.data() is stream.data()  # no rebuild per call

    def test_cache_extends_as_segments_land(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"ab", 100))
        assert stream.data() == b"ab"
        r.feed(_seg(b"ef", 104))  # hole at 102..103
        assert stream.data() == b"ab"
        r.feed(_seg(b"cd", 102))  # hole filled: prefix jumps over both
        assert stream.data() == b"abcdef"

    def test_contiguous_length_tracks_data(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"abc", 100))
        r.feed(_seg(b"xyz", 110))  # disjoint tail, not contiguous
        assert stream.contiguous_length() == 3
        assert stream.contiguous_length() == len(stream.data())

    def test_overlap_does_not_corrupt_cache(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"abcd", 100))
        assert stream.data() == b"abcd"
        r.feed(_seg(b"XXefgh", 102))  # overlapping retransmit + new tail
        assert stream.data() == b"abcdefgh"

    def test_rebase_invalidates_cache(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"world", 1000))
        assert stream.data() == b"world"
        # An earlier segment arrives: base shifts down, offsets move.
        r.feed(_seg(b"hello", 995))
        assert stream.data() == b"helloworld"
        assert stream.contiguous_length() == 10


class TestWindow:
    def test_window_is_the_prefix_suffix(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"hello ", 100))
        r.feed(_seg(b"world", 106))
        assert stream.window(0) == b"hello world"
        assert stream.window(6) == b"world"
        assert stream.window(11) == b""
        assert stream.window(50) == b""

    def test_window_stops_at_the_first_hole(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"abc", 100))
        r.feed(_seg(b"xyz", 110))
        assert stream.window(1) == b"bc"

    def test_window_does_not_fill_the_data_cache(self):
        r = StreamReassembler()
        stream = r.feed(_seg(b"abc", 100))
        assert type(stream.window(0)) is bytes
        assert stream._data_cache is None


def _each_byte_once(stream):
    """Every buffered byte sits in exactly one place: the prefix, or one
    out-of-order segment beyond it."""
    held = len(stream._assembled) + sum(
        len(seg) for seg in stream.segments.values())
    return (held == stream.buffered
            and all(off > len(stream._assembled) for off in stream.segments))


#: (seq, payload) sequences over a stream whose SYN sets base_seq = 100
#: (``None`` is the SYN itself), each exercising one merge path.
ROUND_TRIP_SEQUENCES = {
    "out-of-order": [None, (111, b"!"), (106, b"world"), (100, b"hello "),
                     (112, b"??")],
    "overlapping": [None, (100, b"abcd"), (102, b"XXefgh"), (100, b"ZZZZZZZ"),
                    (106, b"YYij"), (109, b"Wk")],
    "hole-filling": [None, (100, b"ab"), (104, b"ef"), (108, b"ij"),
                     (102, b"cd"), (106, b"gh"), (103, b"QQQQQQQ")],
    "rebasing": [(1000, b"world"), (1008, b"xyz"), (995, b"hello"),
                 (990, b"early-hel"), (1005, b"!!!"), (985, b"first")],
}


def _feed(stream, step, as_view):
    if step is None:
        return stream.add(_seg(b"", 99, flags=TCP_SYN))
    seq, payload = step
    pkt = _seg(payload, seq)
    if as_view:
        pkt.payload = memoryview(bytes(pkt.payload))  # zero-copy front end
    return stream.add(pkt)


class TestStreamRoundTrip:
    """A stream pickled mid-way (a checkpoint) and fed the rest behaves
    exactly like the live stream fed the same rest."""

    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_SEQUENCES))
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("as_view", [False, True])
    def test_restored_stream_matches_live(self, name, cached, as_view):
        steps = ROUND_TRIP_SEQUENCES[name]
        for split in range(len(steps) + 1):
            live = Stream(key=FlowKey("1.1.1.1", "2.2.2.2", 1000, 80))
            for step in steps[:split]:
                _feed(live, step, as_view)
            if cached:  # fill data()'s cache before the snapshot
                live.data()
            restored = pickle.loads(pickle.dumps(live))
            for step in steps[split:]:
                assert (_feed(live, step, as_view)
                        == _feed(restored, step, as_view)), (name, split)
            assert restored.data() == live.data()
            for k in range(len(live.data()) + 2):
                assert restored.window(k) == live.window(k)
            assert restored.buffered == live.buffered
            assert restored.contiguous_length() == live.contiguous_length()
            assert _each_byte_once(live) and _each_byte_once(restored)

    def test_final_contents(self):
        expected = {"out-of-order": b"hello world!??",
                    "overlapping": b"abcdefghijk",
                    "hole-filling": b"abcdefghij",
                    "rebasing": b"firstearlyhelloworld!!!xyz"}
        for name, steps in ROUND_TRIP_SEQUENCES.items():
            stream = Stream(key=FlowKey("a", "b", 1, 2))
            for step in steps:
                _feed(stream, step, False)
            assert stream.data() == expected[name], name

    def test_checkpoint_carries_no_data_cache(self):
        stream = Stream(key=FlowKey("a", "b", 1, 2))
        stream.add(_seg(b"abc", 100))
        stream.data()
        assert stream.__getstate__()["_data_cache"] is None
        assert pickle.loads(pickle.dumps(stream)).data() == b"abc"


class _ByteMapOracle:
    """Naive first-writer-wins reassembly: one dict entry per byte."""

    def __init__(self):
        self.base = None
        self.bytes = {}

    def add(self, seq, payload):
        if self.base is None or seq < self.base:
            self.base = seq
        trimmed = 0
        for i, byte in enumerate(payload):
            if seq + i in self.bytes:
                trimmed += 1
            else:
                self.bytes[seq + i] = byte
        return trimmed

    def data(self):
        out, pos = bytearray(), self.base
        while pos in self.bytes:
            out.append(self.bytes[pos])
            pos += 1
        return bytes(out)


@given(st.lists(st.tuples(st.integers(1000, 1300),
                          st.binary(min_size=1, max_size=40)),
                min_size=1, max_size=20),
       st.integers(0, 20), st.integers(0, 400))
def test_stream_matches_byte_map_oracle(steps, split, k):
    """The coalesced stream — prefix plus out-of-order segments, pickled
    at an arbitrary point — agrees with the byte-map oracle on every trim
    count, the prefix, any window and the buffered byte count."""
    oracle = _ByteMapOracle()
    stream = Stream(key=FlowKey("a", "b", 1, 2))
    for i, (seq, payload) in enumerate(steps):
        if i == split:
            stream = pickle.loads(pickle.dumps(stream))
        assert stream.add(_seg(payload, seq)) == oracle.add(seq, payload)
        if i % 3 == 0:
            assert stream.data() == oracle.data()
    assert stream.data() == oracle.data()
    assert stream.window(k) == oracle.data()[k:]
    assert stream.buffered == len(oracle.bytes)
    assert _each_byte_once(stream)


@given(st.binary(min_size=1, max_size=300), st.randoms())
def test_reassembly_segmentation_property(data, rnd):
    """Any segmentation of a byte stream, delivered in any order,
    reassembles to the original bytes."""
    cuts = sorted(rnd.sample(range(1, len(data)), min(5, len(data) - 1))) if len(data) > 1 else []
    bounds = [0] + cuts + [len(data)]
    segments = [(bounds[i], data[bounds[i]:bounds[i + 1]])
                for i in range(len(bounds) - 1)]
    rnd.shuffle(segments)
    r = StreamReassembler()
    stream = None
    for offset, chunk in segments:
        stream = r.feed(_seg(chunk, 1000 + offset))
    assert stream.data() == data


class TestReassemblerHardening:
    """Eviction callbacks, overlap counters, and byte-budget accounting."""

    def test_on_evict_callback_reports_victims(self):
        evicted = []
        r = StreamReassembler(max_streams=2, on_evict=evicted.append)
        for i in range(4):
            pkt = _seg(b"x", 100, sport=3000 + i)
            pkt.timestamp = float(i)
            r.feed(pkt)
        assert r.evicted == 2
        assert [k.sport for k in evicted] == [3000, 3001]

    def test_overlap_trim_counter(self):
        r = StreamReassembler()
        r.feed(_seg(b"abcd", 100))
        r.feed(_seg(b"XXef", 102))  # 2 bytes re-sent
        assert r.overlaps_trimmed == 2

    def test_bytes_buffered_accounting(self):
        r = StreamReassembler()
        r.feed(_seg(b"abcd", 100))
        r.feed(_seg(b"efgh", 104, sport=1001))
        assert r.bytes_buffered == 8
        r.feed(_seg(b"abcd", 100))  # full duplicate: nothing stored
        assert r.bytes_buffered == 8

    def test_byte_budget_evicts_oldest_not_current(self):
        evicted = []
        r = StreamReassembler(max_total_bytes=1000, on_evict=evicted.append)
        for i in range(5):
            pkt = _seg(b"z" * 400, 100, sport=4000 + i)
            pkt.timestamp = float(i)
            r.feed(pkt)
        assert r.bytes_buffered <= 1000
        assert r.evicted >= 2
        # the stream being fed is never its own eviction victim
        assert all(k.sport != 4004 for k in evicted)

    def test_single_giant_stream_does_not_over_evict(self):
        """Regression: when the spared (current) stream alone exceeds the
        byte budget, the eviction loop used to evict every *other* stream
        on every segment — pure loss, since the total could never get
        under the cap.  The clamp stops once only over-budget spared
        bytes remain."""
        evicted = []
        r = StreamReassembler(max_total_bytes=1000, on_evict=evicted.append)
        # Two small bystander flows (oldest first)...
        a = _seg(b"a" * 100, 100, sport=5001)
        a.timestamp = 0.0
        r.feed(a)
        b = _seg(b"b" * 100, 100, sport=5002)
        b.timestamp = 1.0
        r.feed(b)
        # ...then one flow grows past the whole budget by itself.
        for i in range(5):
            pkt = _seg(b"z" * 300, 100 + i * 300, sport=5003)
            pkt.timestamp = 2.0 + i
            r.feed(pkt)
        # While the giant was still under the cap, budget pressure evicted
        # the oldest bystander; once the giant ALONE exceeded the cap,
        # eviction stopped — the second bystander survives, because
        # evicting it could never get the total under budget anyway.
        assert r.evicted == 1
        assert [k.sport for k in evicted] == [5001]
        assert len(r) == 2
        giant = r.get(FlowKey("1.1.1.1", "2.2.2.2", 5003, 80, 6))
        assert giant is not None and giant.buffered == 1500
        assert r.get(FlowKey("1.1.1.1", "2.2.2.2", 5002, 80, 6)) is not None

    def test_eviction_counter_stays_accurate_under_clamp(self):
        reg_evictions = []
        r = StreamReassembler(max_total_bytes=500,
                              on_evict=reg_evictions.append)
        for i in range(3):
            pkt = _seg(b"y" * 400, 100, sport=6000 + i)
            pkt.timestamp = float(i)
            r.feed(pkt)
        # every eviction the counter reports had a real victim
        assert r.evicted == len(reg_evictions)
