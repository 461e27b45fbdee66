"""Atomic, versioned, CRC'd checkpoints of sensor progress.

A checkpoint captures everything the daemon needs to resume after a
crash: the capture read position, per-source classifier state, the
shed/ingest accounting counters, the alert sequence watermark, and the
template ``library_digest()`` (so a template change invalidates the
resume — stale state must not silently shape new detections).

Writes are crash-atomic: serialize to ``checkpoint.bin.tmp``, flush,
``os.fsync``, then ``os.rename`` over ``checkpoint.bin``.  A reader
therefore only ever observes the previous complete checkpoint or the
new one, never a torn mix.  The payload is framed with a magic, a
format version, and a CRC so a corrupt file is detected and treated as
"no checkpoint" rather than trusted.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.obs.registry import MetricsRegistry

_MAGIC = b"RCKP"
_VERSION = 1
_HEADER = struct.Struct("<4sHII")  # magic, version, payload length, crc32


class CheckpointStore:
    """Write-temp → fsync → rename checkpoint persistence."""

    FILENAME = "checkpoint.bin"

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILENAME
        self.saves = 0
        self.load_failures = 0
        self._clock = clock
        self._write_seconds = None
        if registry is not None:
            self._write_seconds = registry.histogram(
                "repro_checkpoint_write_seconds",
                help="Wall seconds per atomic checkpoint write "
                     "(serialize+fsync+rename).", unit="seconds",
            )
        # Chaos seam: invoked after the temp file is durable but before
        # the rename publishes it — the classic "crash mid-checkpoint"
        # point.  Raising here leaves the previous checkpoint intact.
        self.pre_rename: Callable[[Path], None] | None = None

    def save(self, payload: dict[str, Any]) -> Path:
        started = self._clock()
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(_MAGIC, _VERSION, len(blob), zlib.crc32(blob))
        tmp = self.path.with_suffix(".bin.tmp")
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        if self.pre_rename is not None:
            self.pre_rename(tmp)
        os.replace(tmp, self.path)
        self._fsync_directory()
        self.saves += 1
        if self._write_seconds is not None:
            self._write_seconds.observe(self._clock() - started)
        return self.path

    def load(self) -> dict[str, Any] | None:
        """Return the checkpoint payload, or None if absent/corrupt."""

        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return None
        if len(data) < _HEADER.size:
            self.load_failures += 1
            return None
        magic, version, length, crc = _HEADER.unpack_from(data)
        blob = data[_HEADER.size :]
        if (
            magic != _MAGIC
            or version != _VERSION
            or len(blob) != length
            or zlib.crc32(blob) != crc
        ):
            self.load_failures += 1
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            self.load_failures += 1
            return None
        if not isinstance(payload, dict):
            self.load_failures += 1
            return None
        return payload

    def clear(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def _fsync_directory(self) -> None:
        # Make the rename itself durable; not all platforms allow
        # opening a directory, so degrade silently where unsupported.
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)
