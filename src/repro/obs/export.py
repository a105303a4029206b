"""Snapshot export: atomic JSON writes and the ``--metrics-out`` thread."""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable, Dict, Union

from repro.core.checkpoint import atomic_bytes_dump
from repro.obs.registry import MetricsRegistry


def write_snapshot(path: Union[str, Path], snapshot: Dict[str, object]) -> Path:
    """Write one snapshot as JSON, atomically (unique temp file + rename).

    Readers polling the file — dashboards, the CI metrics checker — never
    observe a torn document, and concurrent writers of one path never share
    a temp file (see :func:`~repro.core.checkpoint.atomic_bytes_dump`).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    return atomic_bytes_dump(path, text.encode("utf-8"))


class PeriodicSnapshotter:
    """Background thread writing registry snapshots every ``interval`` seconds.

    Purely read-only with respect to the serving path: it samples the
    registry and writes a file, so it can never perturb transcripts.  A
    final snapshot is always written on :meth:`stop`, so the file reflects
    the drained end state even for runs shorter than one interval.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: Union[str, Path],
        interval_seconds: float = 1.0,
        snapshot_fn: Callable[[], Dict[str, object]] | None = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
        self.registry = registry
        self.path = Path(path)
        self.interval_seconds = interval_seconds
        self._snapshot_fn = snapshot_fn if snapshot_fn is not None else registry.snapshot
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.writes = 0

    def _write_once(self) -> None:
        write_snapshot(self.path, self._snapshot_fn())
        self.writes += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self._write_once()

    def start(self) -> "PeriodicSnapshotter":
        if self._thread is not None:
            raise RuntimeError("snapshotter already started")
        self._write_once()  # the file exists as soon as the run starts
        self._thread = threading.Thread(
            target=self._loop, name="metrics-snapshotter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._write_once()  # final drained-state snapshot

    def __enter__(self) -> "PeriodicSnapshotter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
