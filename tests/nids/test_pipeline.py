"""Tests for the five-stage NIDS pipeline."""

import pickle

import pytest

from repro.engines.codered import CodeRedHost
from repro.engines.exploit import EXPLOITS
from repro.engines.generator import ExploitGenerator
from repro.net.packet import tcp_packet, udp_packet
from repro.net.wire import Host, Wire
from repro.nids.alerts import Alert, BlockList
from repro.nids.pipeline import SemanticNids
from repro.nids.sensor import NidsSensor
from repro.traffic import month_of_traffic

HONEYPOT = "10.10.0.250"


def nids_with_honeypot(**kwargs):
    return SemanticNids(honeypots=[HONEYPOT], **kwargs)


def wire_sensor(nids):
    wire = Wire()
    sensor = NidsSensor(nids)
    sensor.attach(wire)
    return wire, sensor


class TestTable1EndToEnd:
    def test_all_eight_detected_binders_noted(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        ExploitGenerator(wire).fire_all(HONEYPOT)
        by_template = nids.alerts_by_template()
        assert by_template["linux_shell_spawn"] == 8
        assert by_template["port_bind_shell"] == 2

    def test_offenders_blocked(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        ExploitGenerator(wire).fire_all(HONEYPOT)
        assert nids.blocklist.is_blocked("203.0.113.66")


class TestClassifierGating:
    def test_innocent_traffic_never_analyzed(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        client = Host(ip="192.168.1.5", wire=wire)
        session = client.open_tcp("10.10.0.2", 80)
        session.send(b"GET / HTTP/1.0\r\n\r\n")
        session.close()
        assert nids.stats.payloads_analyzed == 0
        assert nids.stats.frames_analyzed == 0

    def test_exploit_from_unmarked_host_missed_when_classifying(self):
        """The flip side of classification: traffic from a host that never
        tripped the classifier is not analyzed (that is the efficiency
        trade the paper makes)."""
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        gen = ExploitGenerator(wire)
        gen.fire(EXPLOITS[0], "10.10.0.2", seed=1)  # not the honeypot
        assert nids.alerts == []

    def test_honeypot_contact_marks_then_catches(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        gen = ExploitGenerator(wire)
        # attacker first probes the honeypot...
        probe = gen.host.open_tcp(HONEYPOT, 80)
        probe.send(b"HEAD / HTTP/1.0\r\n\r\n")
        probe.close()
        # ...then attacks a production host; now it IS analyzed.
        gen.fire(EXPLOITS[0], "10.10.0.2", seed=1)
        assert nids.alerts_by_template().get("linux_shell_spawn") == 1

    def test_classification_disabled_analyzes_everything(self):
        nids = SemanticNids(classification_enabled=False)
        wire, _ = wire_sensor(nids)
        gen = ExploitGenerator(wire)
        gen.fire(EXPLOITS[0], "10.10.0.2", seed=1)
        assert nids.alerts_by_template().get("linux_shell_spawn") == 1


class TestDarkSpaceIntegration:
    def test_scanner_flagged_then_exploit_caught(self):
        nids = SemanticNids(
            dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
            dark_threshold=5,
        )
        wire, _ = wire_sensor(nids)
        worm = CodeRedHost(ip="10.44.1.2", seed=1)
        wire.transmit_all(worm.scan_packets(count=40, base_time=1.0))
        wire.transmit_all(worm.exploit_packets("10.10.0.9", base_time=2.0))
        assert nids.alerts_by_template().get("codered_ii_vector") == 1
        assert nids.alerts[0].source == "10.44.1.2"


class TestAlertPlumbing:
    def test_alert_fields(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        ExploitGenerator(wire).fire(EXPLOITS[0], HONEYPOT, seed=0)
        alert = nids.alerts[0]
        assert alert.source == "203.0.113.66"
        assert alert.destination == HONEYPOT
        assert alert.severity == "critical"
        assert alert.match is not None
        assert "linux_shell_spawn" in alert.format()

    def test_per_stream_dedup(self):
        """A growing stream re-analyzed several times alerts once per
        template, not once per segment."""
        nids = SemanticNids(classification_enabled=False,
                            reanalysis_growth=64)
        wire, _ = wire_sensor(nids)
        gen = ExploitGenerator(wire)
        gen.host.open_tcp(HONEYPOT, 21)  # warm up ports
        spec = EXPLOITS[0]
        from repro.engines.exploit import build_exploit_request
        request = build_exploit_request(spec, seed=1)
        session = gen.host.open_tcp("10.10.0.2", spec.port)
        session.mss = 200  # force many segments
        session.send(request)
        session.close()
        assert nids.alerts_by_template()["linux_shell_spawn"] == 1

    def test_udp_payload_analyzed(self):
        nids = SemanticNids(classification_enabled=False)
        from repro.engines.shellcode import get_shellcode
        from repro.engines.admmutate import SLED_OPCODES
        payload = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
        pkt = udp_packet("6.6.6.6", "10.10.0.3", 1000, 69, payload)
        alerts = nids.process_packet(pkt)
        assert any(a.template == "linux_shell_spawn" for a in alerts)

    def test_callback_invoked(self):
        nids = nids_with_honeypot()
        wire = Wire()
        seen = []
        NidsSensor(nids, on_alert=seen.append).attach(wire)
        ExploitGenerator(wire).fire(EXPLOITS[0], HONEYPOT, seed=0)
        assert seen and isinstance(seen[0], Alert)

    def test_alert_sources(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        ExploitGenerator(wire).fire_all(HONEYPOT)
        assert nids.alert_sources() == {"203.0.113.66"}


class TestBenignCleanliness:
    def test_benign_mix_no_alerts_classification_off(self):
        from repro.traffic.mix import BenignMixGenerator
        nids = SemanticNids(classification_enabled=False)
        packets = BenignMixGenerator(seed=11).generate_packets(150)
        nids.process_trace(packets)
        assert nids.alerts == []
        assert nids.stats.payloads_analyzed > 0

    def test_stats_summary_renders(self):
        nids = SemanticNids(classification_enabled=False)
        nids.process_packet(tcp_packet("1.1.1.1", "2.2.2.2", 1, 80, b"GET /"))
        text = nids.stats.summary()
        assert "packets=1" in text
        assert "classify" in text


class TestBlockList:
    def test_block_and_query(self):
        bl = BlockList()
        bl.block("1.2.3.4", when=10.0)
        bl.block("1.2.3.4", when=20.0)  # first block time kept
        assert bl.is_blocked("1.2.3.4")
        assert bl.blocked_since("1.2.3.4") == 10.0
        assert not bl.is_blocked("4.3.2.1")
        assert len(bl) == 1
        assert bl.addresses() == ["1.2.3.4"]


class TestBoundedStreamState:
    def test_stream_state_bounded_by_max_streams(self):
        """Per-stream analysis state is evicted in lockstep with the
        reassembler: a flow-churn flood cannot grow memory without bound."""
        nids = SemanticNids(classification_enabled=False, max_streams=64)
        for i in range(500):
            pkt = tcp_packet(f"10.{i % 200 + 1}.2.3", "10.0.0.1",
                             1000 + i, 80, payload=b"GET / HTTP/1.0\r\n",
                             seq=1, timestamp=float(i))
            nids.process_packet(pkt)
        assert len(nids.reassembler.streams) <= 64
        assert len(nids._stream_state) <= 64
        nids.flush()
        assert len(nids._stream_state) <= 64
        assert nids.stats.streams_evicted == 436
        assert nids.stats.state_evicted == 436

    def test_max_streams_reaches_reassembler(self):
        nids = SemanticNids(max_streams=7)
        assert nids.reassembler.max_streams == 7


class TestSnapshotState:
    @pytest.fixture(scope="class")
    def benign_nids(self):
        """The 5.4 setting: classification off, every stream tracked."""
        packets, _ = month_of_traffic(seed=3, payload_bytes=60_000)
        nids = SemanticNids(classification_enabled=False)
        for pkt in packets:
            nids.process_packet(pkt)
        return nids

    def test_checkpoint_holds_each_stream_byte_once(self, benign_nids):
        """A stream's prefix used to be pickled three times (segments,
        assembled prefix, bytes cache); the snapshot must stay near one
        copy of the buffered bytes plus a small per-stream overhead."""
        streams = benign_nids.snapshot_state()["streams"]
        buffered = benign_nids.reassembler.bytes_buffered
        assert len(streams) > 100 and buffered > 100_000
        size = len(pickle.dumps(streams))
        assert size < 1.2 * buffered + 256 * len(streams)

    def test_round_trip_restores_streams(self, benign_nids):
        state = pickle.loads(pickle.dumps(benign_nids.snapshot_state()))
        fresh = SemanticNids(classification_enabled=False)
        fresh.restore_state(state)
        assert (fresh.reassembler.bytes_buffered
                == benign_nids.reassembler.bytes_buffered)
        for key, stream in benign_nids.reassembler.streams.items():
            assert fresh.reassembler.streams[key].data() == stream.data()

    def test_version_1_snapshot_is_refused(self, benign_nids):
        """Version 1 streams held their prefix in ``segments`` as well as
        in the assembled buffer; restoring one would keep every byte
        twice, so it is refused rather than silently accepted."""
        state = benign_nids.snapshot_state()
        assert state["version"] == SemanticNids.STATE_VERSION == 2
        state["version"] = 1
        fresh = SemanticNids(classification_enabled=False)
        with pytest.raises(ValueError, match="state version 1 != 2"):
            fresh.restore_state(state)
        assert fresh.reassembler.streams == {}
        assert fresh.reassembler.bytes_buffered == 0
