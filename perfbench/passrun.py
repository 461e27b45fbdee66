"""One measured pass: a fresh process runs a capture through the sensor.

``run.py`` starts this script once per pass, so every pass pays the
sensor's real start-up cost (interpreter, imports, template compile,
engine, daemon and journal construction).  The engine is built the way
``repro-sensord`` builds it: a :class:`SensorDaemon` with the durability
layer on, around the serial :class:`SemanticNids` (journal, durable
delivery and checkpoints owned by the daemon) or a :class:`SensorFleet`
(which owns its barrier checkpoints and journal).  The ring policy is
``block``, so nothing is shed, and the source is never rate-limited.

The pass writes one JSON document: timings, raw latency samples, the
alert lines that reached the sink, the engine's own alert stream, the
daemon's accounting and, with ``--trace``, the per-layer table.

Usage (normally started by run.py)::

    python3 perfbench/passrun.py --workload NAME --capture FILE \
        --state-dir DIR --spawned-at MONOTONIC --out FILE [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from samples import quantile  # noqa: E402
from tracing import LAYERS, STAGE_OF, SpanRecorder  # noqa: E402
from workloads import FLEET_WORKERS, TEMPLATE_SET, WORKLOADS  # noqa: E402

#: repro-sensord's defaults
RING_CAPACITY = 4096
BATCH_SIZE = 256
CHECKPOINT_INTERVAL = 1000
JOURNAL_FSYNC_BATCH = 8
#: packets per segment of the wall/CPU timeline (one daemon batch)
SEGMENT = BATCH_SIZE


def _cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def build(workload, capture: str, state_dir: str, sink):
    """Construct engine, reader, source and daemon as repro-sensord does."""
    from repro.net.pcap import PcapReader
    from repro.nids import SemanticNids, SensorDaemon
    from repro.nids.daemon import IterPacketSource
    from repro.nids.parallel import resolve_template_set

    options = workload.nids_options()
    fleet = None
    if workload.engine == "fleet":
        from repro.nids.fleet import SensorFleet

        nids = fleet = SensorFleet(
            workers=FLEET_WORKERS, template_set=TEMPLATE_SET,
            nids_options=options, checkpoint_dir=state_dir,
            checkpoint_interval=CHECKPOINT_INTERVAL,
            journal_fsync_batch=JOURNAL_FSYNC_BATCH)
    else:
        nids = SemanticNids(templates=resolve_template_set(TEMPLATE_SET),
                            **options)
    reader = PcapReader(capture, salvage=True, registry=nids.registry)
    source = IterPacketSource(iter(reader))
    daemon = SensorDaemon(
        nids, source, ring_capacity=RING_CAPACITY, shed_policy="block",
        batch_size=BATCH_SIZE, on_alert=sink,
        checkpoint_dir=None if fleet is not None else state_dir,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        journal_fsync_batch=JOURNAL_FSYNC_BATCH)
    return nids, fleet, reader, source, daemon


class LayerProbe:
    """Wraps the public call into every layer of one engine (see
    tracing.py) and gathers the per-layer counts alongside the spans."""

    def __init__(self, recorder, nids, fleet, source, daemon) -> None:
        self.rec = rec = recorder
        self.nids, self.fleet = nids, fleet
        self.counts = dict(forwarded=0, datagrams_completed=0, streams_peak=0,
                           bytes_in=0, frames_out=0, scans_skipped=0,
                           instructions=0, matched=0, ring_depth_max=0,
                           checkpoint_bytes=0)
        self._saved = None
        self.offer_times: list[float] = []
        self.take_times: list[float] = []
        # Per-packet ids: the n-th packet polled, taken off the ring and
        # processed is packet n in all three (the ring is FIFO).
        polled, taken, processed = [0], [0], [0]
        c = self.counts

        source.poll = rec.wrap("net.pcap", source.poll,
                               packet_counter=polled, packet_on_result=True)
        ring = daemon.ring

        def on_offer(result, args, _s):
            if result:
                self.offer_times.append(perf_counter())
            if len(ring) > c["ring_depth_max"]:
                c["ring_depth_max"] = len(ring)

        def on_take(result, args, _s):
            if result is not None:
                self.take_times.append(perf_counter())

        ring.offer = rec.wrap("nids.daemon", ring.offer, on_offer)
        ring.take = rec.wrap("nids.daemon", ring.take, on_take,
                             packet_counter=taken, packet_on_result=True)

        def on_checkpoint(result, args, _s):
            store = (fleet or daemon).checkpoints
            if store is not None and store.path.exists():
                c["checkpoint_bytes"] += store.path.stat().st_size

        if fleet is not None:
            fleet.process_packet = rec.wrap(
                "nids.fleet.dispatch", fleet.process_packet,
                packet_counter=processed)
            fleet.flush = rec.wrap("nids.fleet.flush", fleet.flush)
            fleet.checkpoint = rec.wrap("resilience.checkpoint",
                                        fleet.checkpoint, on_checkpoint)
            self.journal = fleet.journal
        else:
            self._wrap_serial(nids, processed)
            daemon.checkpoint = rec.wrap("resilience.checkpoint",
                                         daemon.checkpoint, on_checkpoint)
            daemon.delivery.deliver = rec.wrap("resilience.delivery",
                                               daemon.delivery.deliver)
            self.journal = daemon.journal
        journal = self.journal
        journal.append = rec.wrap("resilience.journal", journal.append)
        journal.sync = rec.wrap("resilience.journal", journal.sync)
        self.analyzer = None if fleet is not None else nids.analyzer
        self._cache0 = self._cache_counts()

    def _wrap_serial(self, nids, processed) -> None:
        """Wrap the serial engine's components.  (A fleet's components
        live in its worker processes, out of the wrappers' reach.)"""
        import repro.core.analyzer as analyzer_mod

        rec, c = self.rec, self.counts
        # The analyzer calls these two through its module globals.
        self._saved = (analyzer_mod.disassemble_frame,
                       analyzer_mod.prepare_trace)

        def on_lift(result, args, _s):
            c["instructions"] += len(args[0])

        analyzer_mod.disassemble_frame = rec.wrap(
            "x86.disasm", analyzer_mod.disassemble_frame)
        analyzer_mod.prepare_trace = rec.wrap(
            "ir", analyzer_mod.prepare_trace, on_lift)
        nids.process_packet = rec.wrap("nids.pipeline", nids.process_packet,
                                       packet_counter=processed)

        def on_defrag(result, args, seconds):
            ip = args[0].ip
            if ip is not None and (ip.flags & 1 or ip.frag_offset):
                rec.add_extra("net.defrag.fragments", seconds)
                if result is not None:
                    c["datagrams_completed"] += 1

        def on_classify(result, args, _s):
            if result:
                c["forwarded"] += 1

        def on_flow(result, args, _s):
            if len(nids.reassembler.streams) > c["streams_peak"]:
                c["streams_peak"] = len(nids.reassembler.streams)

        def on_extract(result, args, _s):
            c["bytes_in"] += len(args[0])
            c["frames_out"] += len(result)

        def on_scan(result, args, _s):
            if not result.any_survivor:
                c["scans_skipped"] += 1

        def on_match(result, args, _s):
            if result:
                c["matched"] += 1

        nids.defragmenter.feed = rec.wrap("net.defrag",
                                          nids.defragmenter.feed, on_defrag)
        nids.classifier.classify = rec.wrap("classify",
                                            nids.classifier.classify,
                                            on_classify)
        nids.reassembler.feed = rec.wrap("net.flow", nids.reassembler.feed,
                                         on_flow)
        nids.extractor.extract = rec.wrap("extract", nids.extractor.extract,
                                          on_extract)
        analyzer = nids.analyzer
        analyzer.analyze_frame = rec.wrap("core.analyzer",
                                          analyzer.analyze_frame)
        if analyzer.prefilter is not None:
            analyzer.prefilter.scan = rec.wrap("fastpath",
                                               analyzer.prefilter.scan,
                                               on_scan)
        analyzer.engine.match_all = rec.wrap("core.matchplan",
                                             analyzer.engine.match_all,
                                             on_match)

    def _cache_counts(self) -> tuple[int, int, int, int]:
        a = self.analyzer
        if a is None:
            return (0, 0, 0, 0)
        fc, ic = a.frame_cache, a.ir_cache
        return (fc.hits if fc else 0, fc.misses if fc else 0,
                ic.hits if ic else 0, ic.misses if ic else 0)

    def restore(self) -> None:
        if self._saved is not None:
            import repro.core.analyzer as analyzer_mod

            (analyzer_mod.disassemble_frame,
             analyzer_mod.prepare_trace) = self._saved

    def table(self, totals: dict, wall: float) -> dict:
        """Per-layer metrics of this pass, keyed ``<layer>.<metric>``."""
        c = self.counts

        def t(name):
            return totals.get(name, {"calls": 0, "seconds": 0.0,
                                     "self_s": 0.0})

        def ratio(num, den):
            return num / den if den else 0.0

        fh0, fm0, ih0, im0 = self._cache0
        fh1, fm1, ih1, im1 = self._cache_counts()
        waits = [b - a for a, b in zip(self.offer_times, self.take_times)]
        reg = self.nids.registry
        dispatch, flush = t("nids.fleet.dispatch"), t("nids.fleet.flush")
        fleet_stats = self.fleet.stats if self.fleet is not None else None
        out = {
            "net.pcap.calls": t("net.pcap")["calls"],
            "net.pcap.self_s": t("net.pcap")["self_s"],
            "net.defrag.calls": t("net.defrag")["calls"],
            "net.defrag.self_s": t("net.defrag")["self_s"],
            "net.defrag.datagrams_completed": c["datagrams_completed"],
            "classify.calls": t("classify")["calls"],
            "classify.self_s": t("classify")["self_s"],
            "classify.forward_ratio": ratio(c["forwarded"],
                                            t("classify")["calls"]),
            "net.flow.calls": t("net.flow")["calls"],
            "net.flow.self_s": t("net.flow")["self_s"],
            "net.flow.streams_peak": c["streams_peak"],
            "extract.calls": t("extract")["calls"],
            "extract.self_s": t("extract")["self_s"],
            "extract.bytes_in": c["bytes_in"],
            "extract.frames_out": c["frames_out"],
            "fastpath.calls": t("fastpath")["calls"],
            "fastpath.self_s": t("fastpath")["self_s"],
            "fastpath.skip_ratio": ratio(c["scans_skipped"],
                                         t("fastpath")["calls"]),
            "core.analyzer.calls": t("core.analyzer")["calls"],
            "core.analyzer.self_s": t("core.analyzer")["self_s"],
            "core.analyzer.frame_cache_hit_ratio": ratio(
                fh1 - fh0, (fh1 - fh0) + (fm1 - fm0)),
            "core.analyzer.ir_cache_hit_ratio": ratio(
                ih1 - ih0, (ih1 - ih0) + (im1 - im0)),
            "x86.disasm.calls": t("x86.disasm")["calls"],
            "x86.disasm.self_s": t("x86.disasm")["self_s"],
            "ir.calls": t("ir")["calls"],
            "ir.self_s": t("ir")["self_s"],
            "ir.instructions": c["instructions"],
            "core.matchplan.calls": t("core.matchplan")["calls"],
            "core.matchplan.self_s": t("core.matchplan")["self_s"],
            "core.matchplan.match_ratio": ratio(c["matched"],
                                                t("core.matchplan")["calls"]),
            "nids.pipeline.self_s": t("nids.pipeline")["self_s"],
            "nids.daemon.ring_wait_p50_us": (
                quantile(waits, 0.5) * 1e6 if waits else 0.0),
            "nids.daemon.ring_depth_max": c["ring_depth_max"],
            "nids.daemon.self_s": t("nids.daemon")["self_s"],
            "resilience.journal.appends": self.journal.appended,
            "resilience.journal.fsyncs": _metric(reg,
                                                 "repro_journal_fsync_total"),
            "resilience.journal.self_s": t("resilience.journal")["self_s"],
            "resilience.delivery.calls": t("resilience.delivery")["calls"],
            "resilience.delivery.self_s": t("resilience.delivery")["self_s"],
            "resilience.delivery.retries": _metric(
                reg, "repro_delivery_retries_total"),
            "resilience.checkpoint.calls": t("resilience.checkpoint")["calls"],
            "resilience.checkpoint.self_s":
                t("resilience.checkpoint")["self_s"],
            "resilience.checkpoint.bytes": c["checkpoint_bytes"],
            "nids.fleet.dispatch_self_s": dispatch["self_s"],
            "nids.fleet.flush_wait_s": flush["self_s"],
            "nids.fleet.ship_bytes": (fleet_stats.ship_bytes
                                      if fleet_stats else 0),
            "nids.fleet.batches": fleet_stats.batches if fleet_stats else 0,
        }
        attributed = sum(row["self_s"] for row in totals.values())
        out["unattributed.self_s"] = wall - attributed
        return out

    @staticmethod
    def layer_self(totals: dict) -> dict[str, float]:
        """Self seconds per layer (fleet sub-spans folded together)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, row in totals.items():
            layer = "nids.fleet" if name.startswith("nids.fleet") else name
            out[layer] += row["self_s"]
        return out

    def stage_crosscheck(self, totals: dict) -> list[dict]:
        """Wrapped inclusive totals against the registry's StageTimers."""
        rows = []
        for stage, names in STAGE_OF.items():
            calls = seconds = 0.0
            for name in names:
                if name in self.rec.extra_seconds:
                    calls += self.rec.extra_calls[name]
                    seconds += self.rec.extra_seconds[name]
                elif name in totals:
                    calls += totals[name]["calls"]
                    seconds += totals[name]["seconds"]
            labels = {"stage": stage}
            rows.append({
                "stage": stage, "layers": "+".join(names),
                "wrapped_calls": int(calls), "wrapped_s": seconds,
                "registry_calls": int(_metric(self.nids.registry,
                                              "repro_stage_calls_total",
                                              labels)),
                "registry_s": _metric(self.nids.registry,
                                      "repro_stage_seconds_total", labels),
            })
        return rows


def _metric(registry, name: str, labels: dict | None = None) -> float:
    metric = registry.get(name, labels)
    return metric.value if metric is not None else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--capture", required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started "
                             "this process (start of set-up)")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    workload = WORKLOADS[args.workload]

    sink_times: list[float] = []
    sink_stamps: list[float] = []
    sink_lines: list[str] = []

    def sink(alert) -> None:
        # What repro-sensord's on_alert does (format the line), plus the
        # arrival time.
        sink_lines.append(alert.format())
        sink_stamps.append(alert.timestamp)
        sink_times.append(perf_counter())

    nids, fleet, reader, source, daemon = build(
        workload, args.capture, args.state_dir, sink)
    probe = None
    if args.trace:
        probe = LayerProbe(SpanRecorder(), nids, fleet, source, daemon)

    # Hand-over and return times, one per packet, in FIFO order (the ring
    # is "block", so nothing is shed or reordered).
    handover: list[float] = []
    returns: list[float] = []
    first_poll_by_ts: dict[float, float] = {}
    start = {}
    inner_poll = source.poll

    def poll():
        if not start:
            start["t"] = perf_counter()
            start["mono"] = time.monotonic()
            start["cpu"] = _cpu_seconds()
        pkt = inner_poll()
        if pkt is not None:
            t = perf_counter()
            handover.append(t)
            first_poll_by_ts.setdefault(pkt.timestamp, t)
        return pkt

    source.poll = poll
    inner_process = nids.process_packet
    # Cumulative (wall, cpu) seconds since the first poll, every SEGMENT
    # processed packets and at the end, so run.py can combine passes
    # segment by segment.
    timeline: list[tuple[float, float]] = []

    def mark() -> None:
        timeline.append((perf_counter() - start["t"],
                         _cpu_seconds() - start["cpu"]))

    def process_packet(pkt):
        out = inner_process(pkt)
        returns.append(perf_counter())
        if len(returns) % SEGMENT == 0:
            mark()
        return out

    nids.process_packet = process_packet

    stats = daemon.run()
    nids.close()
    mark()
    t_end = perf_counter()
    cpu_end = _cpu_seconds()
    reader.close()
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    wall = t_end - start["t"]
    result = {
        "workload": workload.name,
        "setup_s": start["mono"] - args.spawned_at,
        "wall_s": wall,
        "cpu_s": cpu_end - start["cpu"],
        "peak_rss_mb": (me + kids) / 1024.0,
        "packets": stats.processed,
        "packet_latency_s": [r - h for h, r in zip(handover, returns)],
        "timeline": timeline,
        "alert_latency_s": [t - first_poll_by_ts[ts]
                            for ts, t in zip(sink_stamps, sink_times)
                            if ts in first_poll_by_ts],
        "sink_lines": sink_lines,
        "engine_lines": [a.format() for a in nids.alerts],
        "engine_sources": [a.source for a in nids.alerts],
        "accounting": {
            "ingested": stats.ingested, "processed": stats.processed,
            "shed": stats.shed, "queued": stats.queued,
            "uncounted_drops": stats.uncounted_drops,
        },
        "faults": sum(m.value for m in nids.registry.metrics()
                      if m.name == "repro_stage_faults_total"),
        "journaled": _journal_count(args.state_dir),
    }
    if probe is not None:
        probe.restore()
        totals = probe.rec.totals()
        result["layers"] = probe.table(totals, wall)
        result["layer_self"] = probe.layer_self(totals)
        result["crosscheck"] = probe.stage_crosscheck(totals)
        if args.spans_out:
            probe.rec.write(args.spans_out)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _journal_count(state_dir: str) -> int:
    from repro.resilience.journal import AlertJournal

    journal = AlertJournal(os.path.join(state_dir, "journal"))
    try:
        return len(journal.recover(repair=False).entries)
    finally:
        journal.close()


if __name__ == "__main__":
    sys.exit(main())
