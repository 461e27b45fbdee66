"""Per-layer spans recorded from outside the program.

The traced pass wraps the public calls into each layer on the engine's
component instances (and the two module-level names the analyzer calls),
so nothing under ``src/`` changes.  A span records its layer name,
start, end, parent span and packet id; spans live in flat arrays until
the pass ends.  A layer's self time is its spans' durations minus the
time covered by their child spans, and ``unattributed`` is the pass's
wall time minus the sum of every self time — what the wrapping misses.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

#: every layer the table reports, in pipeline order
LAYERS = (
    "net.pcap", "nids.daemon", "nids.pipeline", "nids.fleet", "net.defrag",
    "classify", "net.flow", "extract", "core.analyzer", "fastpath",
    "x86.disasm", "ir", "core.matchplan", "resilience.journal",
    "resilience.delivery", "resilience.checkpoint",
)

#: the registry's StageTimer stage behind each wrapped layer; the
#: "reassemble" timer covers both TCP reassembly and IP fragment
#: reassembly, so it is compared against the sum of the two.
STAGE_OF = {
    "classify": ("classify",),
    "reassemble": ("net.flow", "net.defrag.fragments"),
    "extract": ("extract",),
    "analyze": ("core.analyzer",),
    "disassemble": ("x86.disasm",),
    "lift": ("ir",),
    "match": ("core.matchplan",),
}


class SpanRecorder:
    """Flat, append-only span store with a nesting stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.packet = array("i")
        self._stack: list[int] = []
        #: id stamped on new spans; set by the packet-level wrappers
        self.packet_id = -1
        #: inclusive seconds and calls of sub-populations (hook-defined)
        self.extra_seconds: dict[str, float] = {}
        self.extra_calls: dict[str, int] = {}

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, hook=None, packet_counter=None,
             packet_on_result: bool = False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``hook(result, args, seconds)`` runs after the call, outside the
        span.  ``packet_counter`` (a one-element list) makes the wrapper
        stamp the packet id: each call handles the next packet (with
        ``packet_on_result``, only calls that return one).
        """
        nid = self._intern(name)
        stack = self._stack
        start, end = self.start, self.end
        rec = self

        def wrapper(*args, **kwargs):
            if packet_counter is not None:
                rec.packet_id = packet_counter[0]
            idx = len(start)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.packet.append(rec.packet_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = perf_counter()
                end[idx] = t
                stack.pop()
            if packet_counter is not None and (
                    result is not None or not packet_on_result):
                packet_counter[0] += 1
            if hook is not None:
                hook(result, args, t - start[idx])
            return result

        return wrapper

    def add_extra(self, key: str, seconds: float) -> None:
        self.extra_seconds[key] = self.extra_seconds.get(key, 0.0) + seconds
        self.extra_calls[key] = self.extra_calls.get(key, 0) + 1

    # -- reduction ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: ``calls``, inclusive ``seconds`` and ``self_s``."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "seconds": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["seconds"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """Write every span as JSON lines (name, start, end, parent,
        packet), one per span."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]],
                                     self.start[i], self.end[i],
                                     self.parent[i], self.packet[i]]))
                fh.write("\n")
