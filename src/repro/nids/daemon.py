"""The always-on sensor daemon (``repro-sensord``).

Everything before this module was one-shot batch analysis: open a pcap,
drain it, exit.  :class:`SensorDaemon` turns the same pipeline into a
long-running service:

- **chunked ingestion** from a :class:`PacketSource` into a bounded
  :class:`~repro.resilience.BoundedRing`, so a traffic burst costs
  queueing (and, past capacity, *counted* shedding) instead of unbounded
  memory;
- **capacity-aware load shedding** — the ring's policy decides whether a
  full buffer sheds the newest packet, the oldest, or pauses the source
  (backpressure); every shed lands in ``repro_shed_packets_total`` and
  every refusal in ``repro_backpressure_waits_total``, so the accounting
  invariant ``ingested == processed + shed + queued`` holds at any
  instant — no drop is ever silent;
- **hot template reload** keyed on
  :func:`~repro.core.library.library_digest`: a ``template_provider``
  callable is polled between batches, and a changed digest atomically
  swaps the library — frame cache, compiled match plans, and anchor
  prefilter re-derive with it (worker pools are respawned on the
  parallel engine) — without dropping a packet;
- **rolling metrics windows** (:class:`~repro.obs.MetricsWindow`): the
  registry is diffed every ``window_secs`` so operators see current
  rates and per-window latency quantiles, not lifetime averages;
- **drift-free heartbeats** via :class:`~repro.obs.PeriodicSchedule`.

The loop is cooperative and single-threaded: one tick ingests up to
``batch_size`` packets, processes up to ``batch_size`` from the ring,
then runs the periodic duties.  Determinism matters more here than
thread-level overlap — the parallel engine already owns process-level
parallelism, and the fleet (:mod:`repro.nids.fleet`) owns scale-out.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..net.packet import Packet
from ..net.pcap import PcapReader
from ..obs import MetricsWindow, PeriodicSchedule
from ..resilience.checkpoint import CheckpointStore
from ..resilience.delivery import DurableDelivery
from ..resilience.journal import AlertJournal
from ..resilience.shedder import BoundedRing
from .alerts import Alert
from .pipeline import SemanticNids

__all__ = ["SensorDaemon", "DaemonStats", "IterPacketSource",
           "TailPacketSource"]


class IterPacketSource:
    """A finite packet iterable as a daemon source (replay / tests).

    Positions are packet indices: ``tell()`` is how many packets have
    been polled, ``seek(n)`` skips forward to index ``n`` (a resumed
    daemon replays the iterable and seeks past the checkpointed
    prefix).
    """

    def __init__(self, packets: Iterable[Packet]) -> None:
        self._it = iter(packets)
        self.finished = False
        self._pos = 0

    def poll(self) -> Packet | None:
        try:
            pkt = next(self._it)
        except StopIteration:
            self.finished = True
            return None
        self._pos += 1
        return pkt

    def tell(self) -> int:
        return self._pos

    def seek(self, pos: int) -> None:
        if pos < self._pos:
            raise ValueError(
                f"IterPacketSource cannot seek backwards "
                f"({pos} < {self._pos}); rebuild the source instead")
        while self._pos < pos:
            if self.poll() is None:
                break


class TailPacketSource:
    """A growing capture, tailed through a streaming
    :class:`~repro.net.pcap.PcapReader`.

    ``poll`` returns ``None`` whenever no *complete* record is buffered —
    a partial tail is simply "not yet", never a truncation (that verdict
    belongs to :meth:`finalize`, once the writer is known to be done).
    The source never reports ``finished`` on its own: the daemon's
    ``idle_timeout`` / ``stop`` decide when tailing ends.
    """

    def __init__(self, reader: PcapReader) -> None:
        if not reader.streaming:
            raise ValueError("TailPacketSource needs a streaming PcapReader")
        self.reader = reader
        self.finished = False

    def poll(self) -> Packet | None:
        return self.reader.poll_packet()

    def tell(self) -> int:
        """Capture byte offset of the next unread record."""
        return self.reader.tell()

    def seek(self, offset: int) -> None:
        self.reader.seek_to(offset)

    def finalize(self) -> None:
        self.reader.finalize()


@dataclass
class DaemonStats:
    """End-of-run accounting; ``uncounted_drops`` must always be zero."""

    ingested: int
    processed: int
    shed: int
    queued: int
    backpressure_waits: int
    alerts: int
    reloads: int
    windows: int
    duration: float
    #: crash-safety accounting; all zero without ``checkpoint_dir``.
    checkpoints: int = 0
    replayed: int = 0
    deduped: int = 0

    @property
    def uncounted_drops(self) -> int:
        """Packets that entered but are neither processed, counted as
        shed, nor still queued — the silent-drop detector."""
        return self.ingested - self.processed - self.shed - self.queued

    @property
    def shed_rate(self) -> float:
        return self.shed / self.ingested if self.ingested else 0.0


class SensorDaemon:
    """Drives a :class:`~repro.nids.SemanticNids` (serial or parallel)
    as an always-on service over a :class:`PacketSource`.

    Parameters
    ----------
    nids:
        The engine; its registry is where every daemon metric lands.
    source:
        Object with ``poll() -> Packet | None`` and a ``finished``
        attribute (see :class:`IterPacketSource`,
        :class:`TailPacketSource`).
    ring_capacity / shed_policy:
        The admission ring (see :class:`~repro.resilience.BoundedRing`).
        Under ``"block"`` a refused packet is held and the source is not
        read again until the ring drains — backpressure, zero loss.
    batch_size:
        Packets ingested and processed per cooperative tick.
    heartbeat / window_secs:
        Periodic duties, both on drift-free deadline-anchored schedules.
    template_provider:
        Optional zero-argument callable polled once per tick; it returns
        a template list (serial engine), a template-set name (either
        engine), or ``None`` for "no opinion".  A changed library digest
        triggers the hot reload.
    idle_timeout:
        Stop after this many seconds without a single packet ingested or
        processed (tail mode's exit condition).  ``None`` = run until
        ``stop`` or the source finishes.
    on_alert:
        Operator callback; exceptions are contained as ``deliver``
        faults, exactly like :class:`~repro.nids.NidsSensor`.
    checkpoint_dir:
        Enables the durability layer (docs/operations.md, "Crash
        recovery & durability"): every alert is written ahead to a
        CRC-framed journal under ``<dir>/journal/`` before delivery,
        and every ``checkpoint_interval`` processed packets the daemon
        atomically checkpoints its capture position, engine state, and
        accounting to ``<dir>/checkpoint.bin``.  Requires a source with
        ``tell()`` and an engine with ``snapshot_state()`` (the serial
        engine; the parallel engine's state lives in its workers).
    resume:
        Rehydrate from ``checkpoint_dir`` instead of starting fresh:
        restore engine state and counters, replay the journaled-but-
        possibly-undelivered alert tail through the delivery layer
        (at-least-once; duplicates are suppressed by seq), and seek the
        source to the checkpointed position.  Without ``resume`` any
        stale checkpoint/journal files in the directory are cleared.
    delivery:
        Optional :class:`~repro.resilience.DurableDelivery` to route
        alerts through (retries/backoff/spool).  Defaults, when
        ``checkpoint_dir`` is set, to one wrapping ``on_alert``.
    """

    def __init__(
        self,
        nids: SemanticNids,
        source,
        *,
        ring_capacity: int = 4096,
        shed_policy: str = "newest",
        batch_size: int = 256,
        heartbeat: float = 0.0,
        heartbeat_out: Callable[[str], None] | None = None,
        window_secs: float = 0.0,
        max_windows: int = 60,
        template_provider: Callable | None = None,
        idle_timeout: float | None = None,
        poll_interval: float = 0.02,
        on_alert: Callable[[Alert], None] | None = None,
        checkpoint_dir: str | os.PathLike[str] | None = None,
        checkpoint_interval: int = 1000,
        journal_fsync_batch: int = 8,
        resume: bool = False,
        delivery: DurableDelivery | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        self.nids = nids
        self.source = source
        self.batch_size = batch_size
        self.template_provider = template_provider
        self.idle_timeout = idle_timeout
        self.poll_interval = poll_interval
        self.on_alert = on_alert
        self.heartbeat_out = heartbeat_out
        self._clock = clock
        self._sleep = sleep
        self.ring = BoundedRing(ring_capacity, policy=shed_policy,
                                registry=nids.registry)
        self._beat = (PeriodicSchedule(heartbeat, clock)
                      if heartbeat > 0 else None)
        self._window_sched = (PeriodicSchedule(window_secs, clock)
                              if window_secs > 0 else None)
        self.window = (MetricsWindow(nids.registry, max_windows=max_windows,
                                     clock=clock)
                       if window_secs > 0 else None)
        reg = nids.registry
        self._ingested = reg.counter(
            "repro_daemon_ingested_total",
            help="Packets pulled from the capture source.", unit="packets")
        self._processed = reg.counter(
            "repro_daemon_processed_total",
            help="Packets taken off the ring and fed to the pipeline.",
            unit="packets")
        self._latency = reg.histogram(
            "repro_daemon_packet_seconds",
            help="Per-packet pipeline latency (ring take to alerts out).",
            unit="seconds")
        #: under "block", the (packet, origin) pair refused by a full ring
        self._held: tuple | None = None
        self.reloads = 0
        # -- durability layer (optional) --
        self.journal: AlertJournal | None = None
        self.checkpoints: CheckpointStore | None = None
        self.delivery = delivery
        self.checkpoint_interval = max(1, checkpoint_interval)
        self._alert_seq = 0
        self._last_checkpoint_processed = 0
        if checkpoint_dir is not None:
            if not hasattr(nids, "snapshot_state"):
                raise ValueError(
                    "checkpointing needs an engine with snapshot_state(); "
                    "the parallel engine keeps its state in worker "
                    "processes — use the serial engine or SensorFleet")
            if not hasattr(source, "tell"):
                raise ValueError(
                    "checkpointing needs a source with tell()/seek() "
                    "(IterPacketSource, TailPacketSource)")
            self.checkpoints = CheckpointStore(
                checkpoint_dir, registry=reg, clock=clock)
            self.journal = AlertJournal(
                os.path.join(checkpoint_dir, "journal"),
                fsync_batch=journal_fsync_batch, registry=reg)
            if self.delivery is None:
                self.delivery = DurableDelivery(
                    lambda _key, alert: (
                        self.on_alert(alert)
                        if self.on_alert is not None else None),
                    registry=reg, sleep=sleep, clock=clock)
            if resume:
                self._resume()
            else:
                self.checkpoints.clear()
                self.journal.prune(keep_segments=0)
        elif resume:
            raise ValueError("resume=True requires checkpoint_dir")

    # -- crash recovery -------------------------------------------------------

    def _resume(self) -> None:
        """Rehydrate state from the checkpoint directory.

        Torn journal tails are truncated; the journaled alert window at
        or past the checkpoint's alert-seq watermark is replayed through
        the delivery layer (at-least-once — those alerts may or may not
        have reached the sink before the crash), which also arms the
        seq dedupe so the deterministically regenerated copies are
        suppressed.
        """
        recovery = self.journal.recover()
        ckpt = self.checkpoints.load()
        floor = 0
        if ckpt is not None:
            self.nids.restore_state(ckpt["engine"])
            self._ingested.inc(ckpt["processed"] + ckpt["shed"])
            self._processed.inc(ckpt["processed"])
            self.ring.restore_counters(
                shed=ckpt["shed"], accepted=ckpt["processed"],
                backpressure=ckpt["backpressure"])
            self._alert_seq = ckpt["alert_seq"]
            self._last_checkpoint_processed = ckpt["processed"]
            self.reloads = ckpt["reloads"]
            floor = ckpt["alert_seq"]
            self.source.seek(ckpt["resume_offset"])
        # Alerts journaled before the watermark were delivered before the
        # checkpoint and will not be regenerated — skip them.  The rest
        # is the in-doubt window.
        self.delivery.replay(
            (key, record) for key, record in recovery.entries if key >= floor)
        self.delivery.replay_spool()

    def checkpoint(self) -> None:
        """Atomically persist progress.  The journal is synced first, so
        every alert below the checkpointed watermark is durable before
        the checkpoint can claim it was emitted."""
        if self.checkpoints is None:
            return
        self.journal.sync()
        head = self.ring.peek()
        if head is not None:
            resume_offset = head[1]
        elif self._held is not None:
            resume_offset = self._held[1]
        else:
            resume_offset = self.source.tell()
        self.checkpoints.save({
            "resume_offset": resume_offset,
            "engine": self.nids.snapshot_state(),
            "processed": self._processed.value,
            "shed": self.ring.shed_total,
            "backpressure": self.ring.backpressure_total,
            "alert_seq": self._alert_seq,
            "reloads": self.reloads,
        })
        self._last_checkpoint_processed = self._processed.value

    def _maybe_checkpoint(self) -> None:
        if self.checkpoints is None:
            return
        done = self._processed.value - self._last_checkpoint_processed
        if done >= self.checkpoint_interval:
            self.checkpoint()

    # -- the cooperative loop -------------------------------------------------

    def run(self, *, max_packets: int | None = None,
            stop: Callable[[], bool] | None = None) -> DaemonStats:
        """Run until the source finishes (and the ring drains), ``stop``
        returns true, ``max_packets`` have been processed, or the daemon
        has been idle for ``idle_timeout`` seconds."""
        started = self._clock()
        idle_since: float | None = None
        while True:
            # Poll the provider first so a changed library applies to
            # this tick's packets — nothing is judged by a stale set
            # once the swap is visible.
            self._maybe_reload()
            moved = self._ingest_tick()
            moved += self._process_tick(max_packets)
            self._maybe_checkpoint()
            if self._beat is not None and self._beat.due():
                self._emit_heartbeat()
            if self._window_sched is not None and self._window_sched.due():
                self.window.roll()
            if stop is not None and stop():
                break
            if max_packets is not None and self._processed.value >= max_packets:
                break
            if (self.source.finished and len(self.ring) == 0
                    and self._held is None):
                break
            if moved:
                idle_since = None
            else:
                now = self._clock()
                if idle_since is None:
                    idle_since = now
                elif (self.idle_timeout is not None
                      and now - idle_since >= self.idle_timeout):
                    break
                self._sleep(self.poll_interval)
        return self._shutdown(started)

    def _ingest_tick(self) -> int:
        """Pull up to ``batch_size`` packets from the source into the
        ring.  Under the ``block`` policy a refused packet is held (the
        source stays unread — backpressure); drop policies shed inside
        the ring, counted there."""
        n = 0
        track = self.checkpoints is not None
        while n < self.batch_size:
            if self._held is not None:
                item, self._held = self._held, None
            else:
                origin = self.source.tell() if track else None
                pkt = self.source.poll()
                if pkt is None:
                    break
                self._ingested.inc()
                item = (pkt, origin)
            if not self.ring.offer(item) and self.ring.policy == "block":
                self._held = item  # retry after the ring drains
                break
            n += 1
        return n

    def _process_tick(self, max_packets: int | None) -> int:
        n = 0
        while n < self.batch_size:
            if (max_packets is not None
                    and self._processed.value >= max_packets):
                break
            item = self.ring.take()
            if item is None:
                break
            pkt = item[0]
            t0 = time.perf_counter()
            # A fleet engine returns only what a checkpoint barrier inside
            # the call merged; the rest surfaces at flush.
            alerts = self.nids.process_packet(pkt)
            self._latency.observe(time.perf_counter() - t0)
            self._processed.inc()
            n += 1
            for alert in alerts:
                self._emit(alert)
        return n

    # -- periodic duties ------------------------------------------------------

    def _maybe_reload(self) -> None:
        if self.template_provider is None:
            return
        spec = self.template_provider()
        if spec is None:
            return
        if isinstance(spec, str):
            if hasattr(self.nids, "reload_template_set"):
                changed = self.nids.reload_template_set(spec)
            else:
                from .parallel import resolve_template_set
                changed = self.nids.reload_templates(
                    resolve_template_set(spec))
        else:
            changed = self.nids.reload_templates(spec)
        if changed:
            self.reloads += 1

    def _emit_heartbeat(self) -> None:
        stats = self.nids.stats
        line = (f"heartbeat: ingested={self._ingested.value} "
                f"processed={self._processed.value} "
                f"queued={len(self.ring)} shed={self.ring.shed_total} "
                f"alerts={stats.alerts} reloads={self.reloads}")
        if self.heartbeat_out is not None:
            self.heartbeat_out(line)

    def _emit(self, alert: Alert) -> None:
        """Alert egress: journal first (write-ahead), then deliver.

        A journal failure propagates — the daemon must not keep running
        while its durability backbone is gone (supervisors restart it;
        the journal tail is truncated and replayed on resume).
        """
        if self.journal is None:
            self._deliver(alert)
            return
        seq = self._alert_seq
        self._alert_seq += 1
        self.journal.append(seq, alert)
        self.delivery.deliver(seq, alert)

    def _deliver(self, alert: Alert) -> None:
        if self.on_alert is None:
            return
        try:
            self.on_alert(alert)
        except Exception as exc:  # noqa: BLE001 — operator code is untrusted
            firewall = getattr(self.nids, "firewall", None)
            if firewall is not None:  # fleet engines have no firewall
                firewall.contain_record(
                    "deliver", reason="resilience.stage-fault",
                    detail=f"{type(exc).__name__}: {exc}")

    # -- shutdown -------------------------------------------------------------

    def _shutdown(self, started: float) -> DaemonStats:
        for alert in self.nids.flush():
            self._emit(alert)
        if self.checkpoints is not None:
            self.checkpoint()
            self.delivery.replay_spool()
            self.journal.close()
            self.delivery.close()
        if hasattr(self.source, "finalize"):
            self.source.finalize()
        if self.window is not None:
            self.window.roll()
        if self._beat is not None:
            self._emit_heartbeat()
        return self.stats(duration=self._clock() - started)

    def stats(self, duration: float = 0.0) -> DaemonStats:
        # FleetStats spells the replay counters differently (and keeps
        # its own checkpoint accounting); normalize here.
        engine_stats = self.nids.stats
        replayed = getattr(engine_stats, "alerts_replayed",
                           getattr(engine_stats, "replayed", 0))
        deduped = getattr(engine_stats, "alerts_deduped",
                          getattr(engine_stats, "deduped", 0))
        return DaemonStats(
            ingested=self._ingested.value,
            processed=self._processed.value,
            shed=self.ring.shed_total,
            queued=len(self.ring) + (1 if self._held is not None else 0),
            backpressure_waits=self.ring.backpressure_total,
            alerts=engine_stats.alerts,
            reloads=self.reloads,
            windows=len(self.window.windows) if self.window else 0,
            duration=duration,
            checkpoints=self.checkpoints.saves if self.checkpoints else 0,
            replayed=replayed,
            deduped=deduped,
        )
