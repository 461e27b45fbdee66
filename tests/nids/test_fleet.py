"""Tests for the sensor fleet: flow-hash dispatch across worker
processes, deterministic alert merge, and cross-process metric folding
via the registry delta protocol."""

import pytest

from repro.engines.shellcode import get_shellcode
from repro.net.packet import udp_packet
from repro.nids import IterPacketSource, SemanticNids, SensorDaemon, SensorFleet
from repro.traffic.traces import build_table3_trace

DARK = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
            dark_threshold=5)


def _alert_key(alert):
    return (alert.timestamp, alert.source, alert.destination,
            alert.template, alert.detail)


def _serial_alerts(packets, **options):
    nids = SemanticNids(**options)
    alerts = []
    for pkt in packets:
        alerts.extend(nids.process_packet(pkt))
    alerts.extend(nids.flush())
    return alerts


def _execve_packet(sport=1000):
    payload = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
    return udp_packet("6.6.6.6", "10.10.0.3", sport, 69, payload)


@pytest.fixture(scope="module")
def trace():
    return build_table3_trace(2, target_packets=2500, seed=1000).packets


@pytest.fixture(scope="module")
def serial_alerts(trace):
    return _serial_alerts(trace, **DARK)


class TestParity:
    def test_fleet_matches_batch_engine(self, trace, serial_alerts):
        """The acceptance bar: the sharded fleet raises exactly the
        alerts the batch engine does — source sharding keeps per-source
        classifier state (darkspace scan counts) on one worker."""
        assert len(serial_alerts) > 0  # the trace must actually alert
        with SensorFleet(workers=3, batch_size=32, nids_options=DARK) as fleet:
            for pkt in trace:
                fleet.process_packet(pkt)
            fleet_alerts = fleet.flush()
        assert sorted(map(_alert_key, fleet_alerts)) == \
            sorted(map(_alert_key, serial_alerts))

    def test_merge_order_is_deterministic(self, trace):
        def run():
            with SensorFleet(workers=3, batch_size=16,
                             nids_options=DARK) as fleet:
                for pkt in trace[:1200]:
                    fleet.process_packet(pkt)
                return [_alert_key(a) for a in fleet.flush()]

        assert run() == run()


class TestDaemonDelivery:
    def test_barrier_alerts_reach_the_sink_once_in_order(
            self, tmp_path, trace, serial_alerts):
        """A durable fleet merges packet alerts at its checkpoint
        barriers, inside ``process_packet``; the daemon over it must
        deliver those as well as what ``flush`` returns — every serial
        alert exactly once, in the serial order."""
        delivered = []
        with SensorFleet(workers=2, batch_size=32, nids_options=DARK,
                         checkpoint_dir=tmp_path / "fleet",
                         checkpoint_interval=1000) as fleet:
            daemon = SensorDaemon(fleet, IterPacketSource(iter(trace)),
                                  shed_policy="block",
                                  on_alert=delivered.append)
            daemon.run()
            barriers = fleet.stats.checkpoints
        assert barriers >= 2  # alerts come from barriers *and* the flush
        assert len(serial_alerts) > 0
        assert list(map(_alert_key, delivered)) == \
            list(map(_alert_key, serial_alerts))


class TestMetricsAggregation:
    def test_worker_metrics_fold_into_aggregator(self):
        packets = [_execve_packet(sport=7000 + i) for i in range(6)]
        opts = dict(classification_enabled=False)
        with SensorFleet(workers=2, batch_size=2, nids_options=opts) as fleet:
            for pkt in packets:
                fleet.process_packet(pkt)
            alerts = fleet.flush()
            reg = fleet.registry
            stats = fleet.stats
        assert len(alerts) == 6
        # every dispatched packet is visible in the aggregator registry
        assert reg.get("repro_fleet_dispatched_total").value == 6
        # ...and the workers' own pipeline counters folded across the
        # process boundary via collect_delta -> merge_delta
        assert reg.get("repro_packets_total").value == 6
        assert stats.deltas_merged > 0

    def test_unknown_worker_keys_are_counted_not_dropped(self):
        """Workers register metrics the aggregator has never seen
        (pipeline internals); the merge surfaces them and counts each
        first-sight key in repro_obs_merge_unknown_total."""
        with SensorFleet(workers=2, batch_size=2,
                         nids_options=dict(classification_enabled=False)) \
                as fleet:
            for i in range(4):
                fleet.process_packet(_execve_packet(sport=7100 + i))
            fleet.flush()
            unknown = fleet.registry.get("repro_obs_merge_unknown_total")
        assert unknown.value > 0


class TestReload:
    def test_fleet_hot_reload_changes_verdicts(self):
        with SensorFleet(workers=2, batch_size=1, template_set="xor-only",
                         nids_options=dict(classification_enabled=False)) \
                as fleet:
            fleet.process_packet(_execve_packet(sport=7200))
            assert fleet.flush() == []
            assert fleet.reload_template_set("paper") is True
            fleet.process_packet(_execve_packet(sport=7201))
            alerts = fleet.flush()
        assert [a.template for a in alerts] == ["linux_shell_spawn"]

    def test_same_set_reload_is_noop(self):
        with SensorFleet(workers=2, template_set="paper") as fleet:
            assert fleet.reload_template_set("paper") is False


class TestConfig:
    def test_rejects_bad_shard_mode(self):
        with pytest.raises(ValueError):
            SensorFleet(workers=2, shard_by="port")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SensorFleet(workers=0)

    def test_stats_shape(self):
        with SensorFleet(workers=2, batch_size=4,
                         nids_options=dict(classification_enabled=False)) \
                as fleet:
            for i in range(5):
                fleet.process_packet(_execve_packet(sport=7300 + i))
            fleet.flush()
            stats = fleet.stats
        assert stats.workers == 2
        assert stats.dispatched == 5
        assert stats.batches >= 2  # batch_size=4 → at least 2 shipments
