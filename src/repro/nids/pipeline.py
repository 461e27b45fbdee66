"""The five-stage semantic NIDS (Figure 3).

Packet in → (a) traffic classifier → (b) binary detection & extraction →
(c) disassembler → (d) IR generator → (e) semantic analyzer → alerts.

Stages (c)-(e) live in :class:`repro.core.SemanticAnalyzer`; this module
owns the plumbing: per-packet classification, TCP stream reassembly with
incremental re-analysis, per-stream alert deduplication, and the response
blocklist.

Every stage runs behind the :class:`~repro.resilience.StageFirewall`
(docs/robustness.md): an exception escaping a stage is counted,
optionally quarantined, and surfaced as a degraded-mode alert — the
sensor keeps processing the next packet instead of dying on hostile
input.  ``analysis_deadline_ms`` additionally bounds the work any one
payload can extract from stages (c)-(e).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..classify.classifier import TrafficClassifier
from ..classify.darkspace import DarkSpaceMonitor
from ..classify.fanout import SmtpFanoutMonitor
from ..classify.honeypot import HoneypotRegistry
from ..core.analyzer import SemanticAnalyzer
from ..core.template import Template
from ..errors import DeadlineExceeded
from ..extract.frames import BinaryExtractor
from ..net.defrag import IpDefragmenter
from ..net.flow import FlowKey, StreamReassembler
from ..net.layers import Ipv4
from ..net.packet import Packet
from ..obs import MetricsRegistry, NullTracer, Tracer
from ..resilience.deadline import Deadline
from ..resilience.firewall import DEGRADED_SEVERITY, StageFirewall
from ..resilience.quarantine import QuarantineWriter
from .alerts import Alert, BlockList
from .stats import NidsStats

__all__ = ["SemanticNids"]


@dataclass
class _StreamState:
    """Per-stream analysis bookkeeping."""

    analyzed_len: int = 0
    analysis_rounds: int = 0
    alerted_templates: set[str] = field(default_factory=set)


class SemanticNids:
    """The complete NIDS.

    Parameters
    ----------
    honeypots:
        Decoy addresses; any sender contacting one becomes suspicious.
    dark_networks / dark_hosts / dark_threshold:
        Unused address space and the scan count ``t`` of §4.1.
    templates:
        Template set for the semantic analyzer (defaults to the paper's).
    classification_enabled:
        ``False`` reproduces §5.4: every payload is analyzed.
    max_rounds_per_stream:
        Cap on incremental re-analyses of one growing stream.
    frame_cache_size:
        Bound on the analyzer's content-hash frame cache; 0 disables it.
    reanalysis_overlap:
        When a grown stream is re-analyzed, only the new suffix plus this
        many already-analyzed bytes are re-extracted (the window covers any
        frame or sled straddling the boundary).  ``None`` restores the old
        behaviour of re-scanning the entire stream every round, which is
        quadratic in transfer length.
    max_streams:
        Bound on concurrently tracked TCP streams.  Evicting a stream also
        drops its per-stream analysis state, so the sensor's memory stays
        bounded under flow-churn floods.
    analysis_deadline_ms:
        Per-payload analysis budget, in deterministic instruction units
        (:data:`repro.resilience.UNITS_PER_MS` per ms).  A payload that
        exhausts it is cut off with a ``resilience.deadline-exceeded``
        degraded alert instead of stalling the sensor.  ``None`` = no
        budget.
    quarantine:
        Optional :class:`~repro.resilience.QuarantineWriter`; every input
        whose fault the stage firewall contains is preserved there.
    fastpath:
        Enable the template anchor prefilter (:mod:`repro.fastpath`) in
        the analyzer.  Anchors are necessary conditions, so the alert
        stream is byte-identical with it off (``--no-fastpath``) — it
        only skips provably fruitless work.  Default on.
    compiled:
        Run the analyzer's match engine on compiled template match plans
        instead of the recursive interpreter.  The compiled executor is
        exactly equivalent (alerts *and* budget accounting are
        byte-identical); it only skips work that provably cannot match.
        Default on.
    ir_cache_size:
        Bound on the analyzer's lifted-IR memoization cache, keyed by
        frame content digest.  ``None`` inherits ``frame_cache_size``;
        0 disables it.
    """

    def __init__(
        self,
        honeypots: list[str] | None = None,
        dark_networks: list[str] | None = None,
        dark_hosts: list[str] | None = None,
        dark_threshold: int = 5,
        dark_exclude: list[str] | None = None,
        smtp_fanout_threshold: int | None = None,
        templates: list[Template] | None = None,
        classification_enabled: bool = True,
        max_rounds_per_stream: int = 64,
        reanalysis_growth: int = 4096,
        frame_cache_size: int = 4096,
        reanalysis_overlap: int | None = 16384,
        max_streams: int = 65536,
        analysis_deadline_ms: float | None = None,
        quarantine: QuarantineWriter | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        fastpath: bool = True,
        compiled: bool = True,
        ir_cache_size: int | None = None,
    ) -> None:
        #: one registry per sensor: every component registers its metrics
        #: here, and ``--metrics-out`` snapshots it.  The stage timers in
        #: ``self.stats`` are views over the same labeled metrics the
        #: components time into, so no syncing is ever needed for those.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        obs = dict(registry=self.registry, tracer=self.tracer)
        self.classifier = TrafficClassifier(
            honeypots=HoneypotRegistry.of(honeypots or []),
            darkspace=DarkSpaceMonitor(
                dark_networks=dark_networks, dark_hosts=dark_hosts,
                threshold=dark_threshold, exclude=dark_exclude,
            ),
            fanout=(SmtpFanoutMonitor(threshold=smtp_fanout_threshold)
                    if smtp_fanout_threshold is not None else None),
            enabled=classification_enabled,
            **obs,
        )
        self.defragmenter = IpDefragmenter(**obs)
        self.reassembler = StreamReassembler(max_streams=max_streams,
                                             on_evict=self._on_stream_evicted,
                                             **obs)
        self.extractor = BinaryExtractor(**obs)
        self.analyzer = SemanticAnalyzer(templates=templates,
                                         frame_cache_size=frame_cache_size,
                                         fastpath=fastpath,
                                         compiled=compiled,
                                         ir_cache_size=ir_cache_size,
                                         **obs)
        self.fastpath = fastpath
        self.compiled = compiled
        self.ir_cache_size = ir_cache_size
        self.blocklist = BlockList()
        self.firewall = StageFirewall(self.registry, quarantine=quarantine)
        self.analysis_deadline_ms = analysis_deadline_ms
        self._deadline_units = (
            Deadline.from_ms(analysis_deadline_ms).budget_units
            if analysis_deadline_ms else None)
        self.stats = NidsStats(self.registry, self.tracer)
        self._template_reloads = self.registry.counter(
            "repro_template_reloads_total",
            help="Hot template-library reloads applied (digest changed).",
            unit="reloads")
        self.alerts: list[Alert] = []
        self.max_rounds_per_stream = max_rounds_per_stream
        #: a growing stream is re-analyzed on its first payload bytes, then
        #: after each additional ``reanalysis_growth`` bytes, and at FIN —
        #: bounding the quadratic cost of rescanning long transfers.
        self.reanalysis_growth = reanalysis_growth
        self.reanalysis_overlap = reanalysis_overlap
        self._stream_state: dict[FlowKey, _StreamState] = {}

    # -- packet path ---------------------------------------------------------

    def process_packet(self, pkt: Packet) -> list[Alert]:
        """Feed one packet; returns any alerts it produced.

        Stage faults (defragmentation, classification, reassembly) are
        contained per-packet: the offender is counted and quarantined,
        a degraded alert is returned, and the next packet proceeds
        through an intact pipeline.
        """
        self.stats.packets += 1
        self.stats.payload_bytes += len(pkt.payload)
        try:
            whole = self.defragmenter.feed(pkt)
        except Exception as exc:
            return self._contain_packet_fault("reassemble", pkt, exc)
        if whole is None:
            return []  # fragment buffered; the datagram is not complete yet
        pkt = whole
        # The components time themselves (classifier/reassembler/extractor/
        # analyzer each own a StageTimer on the shared registry); the
        # ``stats`` timers are views over the same metrics.
        try:
            forward = self.classifier.classify(pkt)
        except Exception as exc:
            return self._contain_packet_fault("classify", pkt, exc)
        if not forward:
            return []
        new_alerts: list[Alert] = []
        if pkt.is_tcp:
            try:
                stream = self.reassembler.feed(pkt)
            except Exception as exc:
                return self._contain_packet_fault("reassemble", pkt, exc)
            if stream is None:
                return []
            state = self._stream_state.setdefault(stream.key, _StreamState())
            # Growth check via the stream's byte counter: no payload is
            # materialized unless a re-analysis is actually due.
            contiguous = stream.contiguous_length()
            grown = contiguous - state.analyzed_len
            should = (
                grown > 0
                and state.analysis_rounds < self.max_rounds_per_stream
                and (
                    state.analyzed_len == 0          # first payload bytes
                    or grown >= self.reanalysis_growth
                    or stream.fin_seen               # flush at close
                )
            )
            if should:
                state.analysis_rounds += 1
                data = stream.window(self._window_start(state))
                state.analyzed_len = contiguous
                new_alerts = self._analyze_payload(pkt, data, state)
        elif pkt.payload:
            new_alerts = self._analyze_payload(pkt, pkt.payload, None)
        return new_alerts

    def process_trace(self, packets) -> list[Alert]:
        """Feed a whole capture; returns all alerts raised."""
        before = len(self.alerts)
        for pkt in packets:
            self.process_packet(pkt)
        self.flush()
        return self.alerts[before:]

    def flush(self) -> list[Alert]:
        """Complete any deferred analysis: streams with buffered growth
        that never crossed a re-analysis trigger get one final pass (the
        parallel engine additionally drains its worker queues here)."""
        before = len(self.alerts)
        self._finalize_streams()
        self.sync_frontend_stats()
        return self.alerts[before:]

    def _finalize_streams(self) -> None:
        """End-of-capture analysis of unexamined stream tails.

        Detection must not depend on the attacker's courtesy: a flow that
        ends without FIN, whose first segment was tiny and whose total
        growth stayed under ``reanalysis_growth``, would otherwise never
        be re-analyzed past its first bytes — an evasion by scheduling
        rather than by reassembly.  Idempotent: a second flush finds no
        new growth.
        """
        for stream in list(self.reassembler.streams.values()):
            contiguous = stream.contiguous_length()
            state = self._stream_state.setdefault(stream.key, _StreamState())
            grown = contiguous - state.analyzed_len
            if (grown <= 0
                    or state.analysis_rounds >= self.max_rounds_per_stream):
                continue
            state.analysis_rounds += 1
            data = stream.window(self._window_start(state))
            state.analyzed_len = contiguous
            # Attribution context: the stream's sender, stamped with its
            # last activity (there is no "current packet" at flush time).
            pkt = Packet(ip=Ipv4(src=stream.key.src, dst=stream.key.dst,
                                 proto=stream.key.proto),
                         timestamp=stream.stats.last_seen)
            self._analyze_payload(pkt, data, state)

    def _window_start(self, state: _StreamState) -> int:
        """Stream offset a re-analysis round starts from.

        Incremental re-analysis: the already-analyzed prefix is skipped
        except for a fixed overlap window sized to cover any frame/sled
        straddling the old boundary.
        """
        if self.reanalysis_overlap is None:
            return 0
        return max(0, state.analyzed_len - self.reanalysis_overlap)

    def _on_stream_evicted(self, key: FlowKey) -> None:
        """Reassembler eviction hook: drop the matching analysis state so
        ``_stream_state`` stays bounded by the reassembler's stream cap."""
        if self._stream_state.pop(key, None) is not None:
            self.stats.state_evicted += 1

    def sync_frontend_stats(self) -> None:
        """Copy the reassembly front-end's counters into :class:`NidsStats`
        (called at flush and report time; the components own the live
        values)."""
        self.stats.fragments_dropped = self.defragmenter.fragments_dropped
        self.stats.datagrams_evicted = self.defragmenter.datagrams_evicted
        self.stats.overlaps_trimmed = (self.defragmenter.overlaps_trimmed
                                       + self.reassembler.overlaps_trimmed)
        self.stats.streams_evicted = self.reassembler.evicted

    def close(self) -> None:
        """Release engine resources (worker pools, for the parallel
        engine).  The serial engine holds none."""
        self.flush()

    # -- crash-safe checkpointing --------------------------------------------

    #: 2: a stream's contiguous prefix is held once, in ``_assembled``;
    #: its segments are only the out-of-order bytes beyond it.
    STATE_VERSION = 2

    def snapshot_state(self) -> dict:
        """Picklable snapshot of all detection-relevant mutable state.

        Covers per-source classifier memory (suspicious set, dark-space
        scanner records, SMTP fan-out records), the IP defragmentation
        buffers, TCP streams with their per-stream analysis state, and
        the blocklist — everything whose loss would change future
        alerts.  Analyzer caches (frame cache, IR cache) are *not*
        captured: they are performance-only and rebuilt on demand, and
        the parity suites pin that they never change the alert stream.
        Engine stat counters are likewise left to the metrics layer.
        """
        fanout = self.classifier.fanout
        return {
            "version": self.STATE_VERSION,
            "library_digest": self.library_digest(),
            "suspicious": set(self.classifier.suspicious),
            "darkspace": {
                "records": dict(self.classifier.darkspace.records),
                "flagged": self.classifier.darkspace.scanners_flagged,
            },
            "fanout": None if fanout is None else {
                "records": dict(fanout.records),
                "flagged": fanout.mailers_flagged,
            },
            "defrag_buffers": dict(self.defragmenter._buffers),
            "streams": dict(self.reassembler.streams),
            "stream_state": dict(self._stream_state),
            "blocked": dict(self.blocklist._blocked),
        }

    def restore_state(self, state: dict) -> None:
        """Rehydrate a :meth:`snapshot_state` payload into this engine.

        Raises :class:`ValueError` when the snapshot was taken under a
        different template library — resuming stale per-source state
        against changed templates would silently shape new detections.
        """
        if state.get("version") != self.STATE_VERSION:
            raise ValueError(
                f"checkpoint state version {state.get('version')!r} != "
                f"{self.STATE_VERSION}")
        if state.get("library_digest") != self.library_digest():
            raise ValueError(
                "checkpoint was taken under a different template library; "
                "refusing to resume (re-run without --resume or restore "
                "the original templates)")
        self.classifier.suspicious = set(state["suspicious"])
        self.classifier.darkspace.records = dict(state["darkspace"]["records"])
        self.classifier.darkspace.scanners_flagged = state["darkspace"]["flagged"]
        if state["fanout"] is not None and self.classifier.fanout is not None:
            self.classifier.fanout.records = dict(state["fanout"]["records"])
            self.classifier.fanout.mailers_flagged = state["fanout"]["flagged"]
        self.defragmenter._buffers = dict(state["defrag_buffers"])
        self.defragmenter.bytes_buffered = sum(
            b.buffered for b in self.defragmenter._buffers.values())
        self.reassembler.streams = dict(state["streams"])
        self.reassembler.bytes_buffered = sum(
            s.buffered for s in self.reassembler.streams.values())
        self.reassembler._active_streams.set(len(self.reassembler.streams))
        self._stream_state = dict(state["stream_state"])
        self.blocklist._blocked = dict(state["blocked"])

    # -- hot template reload -------------------------------------------------

    def library_digest(self) -> bytes:
        """Digest of the currently loaded template library."""
        from ..core.library import library_digest

        return library_digest(self.analyzer.templates)

    def reload_templates(self, templates: list[Template]) -> bool:
        """Hot-swap the template library, keyed on
        :func:`~repro.core.library.library_digest`: an unchanged digest
        is a no-op (returns ``False``); a changed one swaps the
        analyzer's library — frame cache, compiled match plans, and
        anchor prefilter invalidate atomically with it (see
        :meth:`~repro.core.analyzer.SemanticAnalyzer.set_templates`) —
        and counts ``repro_template_reloads_total``.
        """
        from ..core.library import library_digest

        if library_digest(templates) == self.library_digest():
            return False
        self.analyzer.set_templates(templates)
        self._template_reloads.inc()
        return True

    # -- stages (b)-(e) ---------------------------------------------------------

    def _analyze_payload(
        self, pkt: Packet, payload: bytes, state: _StreamState | None
    ) -> list[Alert]:
        self.stats.payloads_analyzed += 1
        try:
            frames = self.extractor.extract(payload)
        except Exception as exc:
            return self._contain_payload_fault("extract", pkt, payload,
                                               state, exc)
        self.stats.frames_extracted += len(frames)
        out: list[Alert] = []
        deadline = (Deadline(self._deadline_units)
                    if self._deadline_units else None)
        for frame in frames:
            try:
                result = self.analyzer.analyze_frame(frame.data,
                                                     deadline=deadline)
            except DeadlineExceeded as exc:
                # The budget is per-payload: nothing is left for the
                # remaining frames either.
                out.extend(self._contain_payload_fault(
                    "analyze", pkt, payload, state, exc))
                break
            except Exception as exc:
                out.extend(self._contain_payload_fault(
                    "analyze", pkt, payload, state, exc))
                continue
            self.stats.frames_analyzed += 1
            if self.analyzer.frame_cache is not None:
                if result.cached:
                    self.stats.frame_cache_hits += 1
                else:
                    self.stats.frame_cache_misses += 1
            for match in result.matches:
                name = match.template.name
                if state is not None and name in state.alerted_templates:
                    continue
                if state is not None:
                    state.alerted_templates.add(name)
                alert = Alert(
                    timestamp=pkt.timestamp,
                    source=pkt.src or "?",
                    destination=pkt.dst or "?",
                    template=name,
                    severity=match.template.severity,
                    frame_origin=frame.origin,
                    detail=match.summary(),
                    match=match,
                )
                self.alerts.append(alert)
                self.stats.alerts += 1
                if pkt.src:
                    self.blocklist.block(pkt.src, pkt.timestamp)
                out.append(alert)
        return out

    # -- fault containment -------------------------------------------------------

    def _contain_packet_fault(self, site: str, pkt: Packet,
                              exc: Exception) -> list[Alert]:
        """A per-packet stage threw: count, quarantine, alert degraded."""
        stage = self.firewall.contain(site, exc, pkt=pkt,
                                      payload=pkt.payload or None)
        return self._degraded_alert(
            stage, self.firewall.template_for(exc),
            f"{type(exc).__name__}: {exc}",
            pkt.timestamp, pkt.src, pkt.dst, None)

    def _contain_payload_fault(self, site: str, pkt: Packet, payload: bytes,
                               state: _StreamState | None,
                               exc: Exception) -> list[Alert]:
        """Extraction/analysis threw on a payload: same containment, but
        the quarantined evidence is the (possibly reassembled) payload and
        the degraded alert dedups per stream like any template alert."""
        stage = self.firewall.contain(site, exc, pkt=pkt, payload=payload)
        return self._degraded_alert(
            stage, self.firewall.template_for(exc),
            f"{type(exc).__name__}: {exc}",
            pkt.timestamp, pkt.src, pkt.dst, state)

    def _degraded_alert(self, stage: str, template: str, detail: str,
                        timestamp: float, source: str | None,
                        destination: str | None,
                        state: _StreamState | None) -> list[Alert]:
        """Containment is visible: emit the degraded-mode alert.

        Deliberately NOT a blocklist trigger — faults can be provoked by
        spoofed traffic, and auto-blocking on them would hand attackers a
        denial-of-service primitive.
        """
        if state is not None:
            if template in state.alerted_templates:
                return []
            state.alerted_templates.add(template)
        alert = Alert(
            timestamp=timestamp,
            source=source or "?",
            destination=destination or "?",
            template=template,
            severity=DEGRADED_SEVERITY,
            frame_origin=stage,
            detail=detail,
        )
        self.alerts.append(alert)
        self.stats.alerts += 1
        return [alert]

    # -- reporting ----------------------------------------------------------------

    def alert_sources(self) -> set[str]:
        return {a.source for a in self.alerts}

    def alerts_by_template(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for alert in self.alerts:
            out[alert.template] = out.get(alert.template, 0) + 1
        return out
