"""Sharded multi-worker serving: consistent-hash routing over shared-nothing workers.

One process and one scheduler cannot reach the ROADMAP's millions-of-users
target.  This module scales the serving stack *horizontally*: a
:class:`ShardRing` maps every user id onto one of N shards by consistent
hashing, and a :class:`ShardPool` runs one worker per shard — each owning a
private :class:`~repro.serve.scheduler.RequestScheduler`,
:class:`~repro.serve.session.SessionManager`, adapter store, and (when
durable) request journal.  Workers share *nothing* mutable: in ``process``
mode they are forked children that inherit the pre-built base model
copy-on-write; in ``thread`` mode (the portable fallback) each worker gets a
deep copy of the model.  Either way a user's entire history lives on exactly
one shard, which is what keeps scale-out deterministic.

Determinism composes.  Each worker emits *normalized* transcript entries
(request ids — global arrival noise — replaced by the per-user sequence
number, exactly as the PR-8 front-end does).  Per user, the entries are
digested in ``user_seq`` order; per run, the per-user digests compose into
one aggregate SHA-256 over the sorted ``user:digest`` lines:

    aggregate = sha256( sorted("<user>:<sha256(user entries)>") )

Because every user is served by one shard in submission order, and serving a
user is independent of interleaved other-user work (greedy decode, per
``(user, round)`` dropout reseeding, per-user framework seeds), the aggregate
digest is byte-identical for 1, 2 or 4 workers — and identical again after a
kill-and-resume, because each shard replays its own journal independently
and replayed entries are JSON-stable.

The ``repro serve --workers N`` CLI path and the socket front-end's sharded
bridge both drive a :class:`ShardPool`; :func:`run_serve_sharded` is the
offline entry point used by the CLI, the benchmark and the tests.
"""

from __future__ import annotations

import copy
import hashlib
import json
import multiprocessing
import threading
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.llm.model import OnDeviceLLM
from repro.obs import MetricsRegistry, PeriodicSnapshotter, merge_snapshots
from repro.serve.config import ServeConfig
from repro.serve.frontend import normalize_entry
from repro.serve.journal import JournalError, decode_request, encode_request, journal_digest
from repro.serve.loadgen import generate_load
from repro.serve.runner import ServingNode, serving_llm
from repro.serve.scheduler import Request, RequestScheduler

#: Top-level state-directory manifest of a sharded durable run: records the
#: shard count and load so a resume with a different topology is refused
#: instead of silently scrambling user->shard assignments.
SHARDS_META_FILE = "shards.json"


# ---------------------------------------------------------------------- #
# consistent-hash routing
# ---------------------------------------------------------------------- #
class ShardRing:
    """A consistent-hash ring mapping user ids to shard indices.

    Each shard owns ``vnodes_per_shard`` points on a 64-bit ring (SHA-256 of
    ``"<salt>/<shard>/<vnode>"``); a user hashes to the first point at or
    after its own hash.  Consistent hashing gives the rebalance property the
    scaling guide documents: growing from N to N+1 shards moves only the
    keys the new shard's points capture (≈ 1/(N+1) of them) — every other
    user stays on its shard, adapters and journals untouched.
    """

    def __init__(
        self, num_shards: int, vnodes_per_shard: int = 64, salt: str = "repro-shard"
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.vnodes_per_shard = vnodes_per_shard
        self.salt = salt
        points = []
        for shard in range(num_shards):
            for vnode in range(vnodes_per_shard):
                points.append((self._point(f"{salt}/{shard}/{vnode}"), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    @staticmethod
    def _point(key: str) -> int:
        return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")

    def shard_for(self, user_id: str) -> int:
        """The shard that owns ``user_id``."""
        index = bisect_right(self._hashes, self._point(user_id)) % len(self._hashes)
        return self._owners[index]

    def assignments(self, user_ids: Sequence[str]) -> Dict[int, List[str]]:
        """User ids grouped by owning shard (shards with no users omitted)."""
        grouped: Dict[int, List[str]] = {}
        for user_id in user_ids:
            grouped.setdefault(self.shard_for(user_id), []).append(user_id)
        return grouped


# ---------------------------------------------------------------------- #
# digest composition
# ---------------------------------------------------------------------- #
def user_transcript_digest(entries: Sequence[dict]) -> str:
    """SHA-256 of one user's normalized entries in ``user_seq`` order."""
    ordered = sorted(entries, key=lambda entry: entry["user_seq"])
    encoded = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def compose_user_digests(user_digests: Dict[str, str]) -> str:
    """Aggregate digest over per-user digests (sorted ``user:digest`` lines).

    Pure composition: any partition of users into shards yields the same
    aggregate as long as every user's own digest is unchanged — the property
    that makes the digest worker-count-independent.
    """
    lines = "\n".join(f"{user}:{digest}" for user, digest in sorted(user_digests.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def aggregate_transcript_digest(normalized_entries: Sequence[dict]) -> str:
    """Aggregate digest straight from normalized entries (any order)."""
    per_user: Dict[str, List[dict]] = {}
    for entry in normalized_entries:
        per_user.setdefault(entry["user_id"], []).append(entry)
    return compose_user_digests(
        {user: user_transcript_digest(entries) for user, entries in per_user.items()}
    )


# ---------------------------------------------------------------------- #
# the worker (runs in a forked process or a thread)
# ---------------------------------------------------------------------- #
def shard_state_dir(state_root: Union[str, Path], index: int) -> Path:
    """The per-shard durable state directory under ``state_root``."""
    return Path(state_root) / f"shard-{index:02d}"


def _shard_worker_main(conn, config: ServeConfig, index: int, llm: OnDeviceLLM) -> None:
    """Worker entry point: serve this shard's requests until drained.

    Protocol (over the pipe, worker side):

    - sends ``("entry", request_id, normalized_entry)`` for every transcript
      entry — journal-replayed ones first on resume, then live ones;
    - sends ``("ready", info)`` once recovery is done and the shard accepts
      requests;
    - receives ``("serve", [encoded_request, ...])``, ``("metrics",)`` and
      ``("drain",)`` commands;
    - sends ``("done", summary)`` after draining, then exits.

    ``config`` is the pool's config with this shard's directories; the
    worker is a pipe loop around one :class:`~repro.serve.runner.ServingNode`,
    so injected *soft* crashes restart the shard in place from its journal
    exactly like :func:`~repro.serve.runner.run_serve`.  Requests received
    but not yet journaled survive a restart in the worker-local inbox.
    """
    try:
        _ShardWorker(conn, config, index, llm).serve_until_drained()
    except BaseException as error:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (OSError, ValueError, BrokenPipeError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _ShardWorker:
    """The worker side of one shard: a pipe loop around a serving node."""

    def __init__(self, conn, config: ServeConfig, index: int, llm: OnDeviceLLM) -> None:
        self.conn = conn
        self.index = index
        # One registry per worker, shared by every restart of the node so
        # counts accumulate across injected crashes; the pool merges these.
        self.node = ServingNode(
            config,
            llm=llm,
            metrics=MetricsRegistry(),
            journal_meta={"shard": {"index": index, "num_shards": config.workers}},
        )
        self.seqs: Dict[str, int] = {}
        self.normalized: Dict[int, dict] = {}
        self.latencies: List[float] = []
        self.serve_seconds = 0.0
        self.batch_start: Optional[float] = None
        self.inbox: List[Request] = []
        self.ready_sent = False
        self.drain_requested = False

    def emit(self, entry: dict) -> None:
        user_id = entry["user_id"]
        seq = self.seqs.get(user_id, 0)
        self.seqs[user_id] = seq + 1
        request_id = entry.get("request_id")
        shaped = normalize_entry(entry, seq)
        self.normalized[request_id] = shaped
        if self.batch_start is not None:
            self.latencies.append(time.perf_counter() - self.batch_start)
        self.conn.send(("entry", request_id, shaped))

    def serve_until_drained(self) -> None:
        node = self.node
        scheduler = node.run(self._serve)
        node.close()
        per_user: Dict[str, List[dict]] = {}
        for entry in self.normalized.values():
            per_user.setdefault(entry["user_id"], []).append(entry)
        summary = {
            "index": self.index,
            "served": len(self.normalized),
            "users": sorted(per_user),
            "user_digests": {
                user: user_transcript_digest(entries) for user, entries in per_user.items()
            },
            "journal_digest": journal_digest(node.journal_path) if node.durable else None,
            "replayed_requests": node.replayed_total,
            "restarts": node.restarts,
            # Registry-backed counters accumulate across the restart loop, so
            # the final scheduler's view is the total.
            "dead_letter_requests": node.metrics.counter("serve_dead_letters_total").value,
            "degraded_chat_requests": scheduler.degraded_chats,
            "retries": scheduler.retries,
            "serve_seconds": self.serve_seconds,
            "entry_latencies": self.latencies,
            "store": node.store.stats.to_dict(),
            "health": scheduler.health_report(),
            "metrics": node.metrics.snapshot(),
        }
        self.conn.send(("done", summary))

    def _serve(self, scheduler: RequestScheduler) -> RequestScheduler:
        """One boot of the shard (re-entered after every soft crash)."""
        self.seqs.clear()
        self.batch_start = None
        scheduler.entry_listener = self.emit
        # Re-announce everything the journal saw finish: the parent
        # deduplicates, so across a resume the merged entry set — and
        # therefore the aggregate digest — matches a run that never crashed.
        # Per user, finished ids are a FIFO prefix, so sorted-id order
        # reproduces the original seq numbers.
        for entry in self.node.past.finished_entries():
            self.emit(dict(entry))
        for request_id in sorted(self.node.replayed):
            self.emit(dict(self.node.replayed[request_id]))
        self._serve_inbox(scheduler)
        if not self.ready_sent:
            info = {
                "index": self.index,
                "replayed_entries": len(self.normalized),
                "next_request_id": self.node.past.next_request_id,
            }
            self.conn.send(("ready", info))
            self.ready_sent = True
        while not self.drain_requested:
            message = self.conn.recv()
            if message[0] == "serve":
                self.inbox.extend(decode_request(payload) for payload in message[1])
                self._serve_inbox(scheduler)
            elif message[0] == "metrics":
                self.conn.send(("metrics", self.node.metrics.snapshot()))
            elif message[0] == "drain":
                self.drain_requested = True
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown shard command {message[0]!r}")
        return scheduler

    def _serve_inbox(self, scheduler: RequestScheduler) -> None:
        while self.inbox:
            self.node.submit(self.inbox[0])
            self.inbox.pop(0)
        self.batch_start = time.perf_counter()
        scheduler.run()
        self.serve_seconds += time.perf_counter() - self.batch_start
        self.batch_start = None


# ---------------------------------------------------------------------- #
# the pool (parent side)
# ---------------------------------------------------------------------- #
class ShardPoolError(RuntimeError):
    """A shard worker died or misbehaved."""


@dataclass
class _Worker:
    index: int
    conn: object
    runner: object  # multiprocessing.Process or threading.Thread
    listener: Optional[threading.Thread] = None
    ready: threading.Event = field(default_factory=threading.Event)
    done: threading.Event = field(default_factory=threading.Event)
    ready_info: Optional[dict] = None
    summary: Optional[dict] = None
    error: Optional[str] = None
    # Pipe sends can come from different threads (the submit path and the
    # metrics poller), and interleaved sends corrupt the stream.
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    metrics_ready: threading.Event = field(default_factory=threading.Event)
    metrics_snapshot: Optional[dict] = None


def default_worker_mode() -> str:
    """``process`` where ``fork`` exists (Linux), else the ``thread`` fallback."""
    return "process" if "fork" in multiprocessing.get_all_start_methods() else "thread"


class ShardPool:
    """One worker per shard plus the consistent-hash router in front.

    The pool owns the worker lifecycle (spawn → ready → serve → drain) and
    the merged view of their output: deduplicated normalized entries, merged
    per-user digests and the composed aggregate digest.  ``on_entry`` (if
    given) is called as ``on_entry(request_id, normalized_entry)`` from a
    listener thread the moment a worker reports an entry — the socket
    front-end uses this for streaming delivery.
    """

    def __init__(
        self,
        config: ServeConfig,
        llm: OnDeviceLLM,
        mode: Optional[str] = None,
        on_entry: Optional[Callable[[int, dict], None]] = None,
    ) -> None:
        if mode is None:
            mode = default_worker_mode()
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown shard worker mode {mode!r}")
        if mode == "process" and "fork" not in multiprocessing.get_all_start_methods():
            mode = "thread"
        self.config = config
        self.ring = ShardRing(config.workers)
        self.num_shards = config.workers
        self.mode = mode
        self.llm = llm
        self.on_entry = on_entry
        self.entries: Dict[int, dict] = {}
        self._entries_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._started = False
        self._drained = False

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #
    def start(self, timeout: float = 300.0) -> List[dict]:
        """Spawn every worker and wait until all shards are ready.

        Returns the per-shard ready infos (recovery counts).  On a durable
        pool this is where each shard independently replays its journal —
        replayed entries stream through ``on_entry`` before ready fires.
        """
        if self._started:
            raise ShardPoolError("pool already started")
        self._started = True
        self._check_state_meta()
        context = multiprocessing.get_context("fork") if self.mode == "process" else None
        # Spawn first, listen second: forked children must not inherit the
        # listener threads (a forked lock held by a thread that does not
        # exist in the child is a deadlock).
        for index in range(self.num_shards):
            parent_conn, child_conn = multiprocessing.Pipe()
            config = self._worker_config(index)
            if self.mode == "process":
                runner = context.Process(
                    target=_shard_worker_main,
                    args=(child_conn, config, index, self.llm),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                runner.start()
                child_conn.close()
            else:
                worker_llm = copy.deepcopy(self.llm)
                runner = threading.Thread(
                    target=_shard_worker_main,
                    args=(child_conn, config, index, worker_llm),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                runner.start()
            self._workers.append(_Worker(index=index, conn=parent_conn, runner=runner))
        for worker in self._workers:
            worker.listener = threading.Thread(
                target=self._listen, args=(worker,), name=f"repro-shard-listen-{worker.index}"
            )
            worker.listener.start()
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            remaining = max(0.0, deadline - time.monotonic())
            if not worker.ready.wait(remaining):
                raise ShardPoolError(f"shard {worker.index} not ready after {timeout}s")
            if worker.error is not None:
                raise ShardPoolError(f"shard {worker.index} failed: {worker.error}")
        return [worker.ready_info for worker in self._workers]

    def _worker_config(self, index: int) -> ServeConfig:
        """The pool's config with shard ``index``'s own directories."""
        state_root, adapter_root = self.config.state_dir, self.config.adapter_dir
        return self.config.with_(
            state_dir=None if state_root is None else shard_state_dir(state_root, index),
            adapter_dir=None if adapter_root is None else Path(adapter_root) / f"shard-{index:02d}",
        )

    def _check_state_meta(self) -> None:
        """Write or validate the topology manifest of a durable state root."""
        if self.config.state_dir is None:
            return
        state_root = Path(self.config.state_dir)
        state_root.mkdir(parents=True, exist_ok=True)
        meta_path = state_root / SHARDS_META_FILE
        meta = {
            "num_shards": self.num_shards,
            "load": asdict(self.config.load),
            "scale": self.config.resolved_scale().name,
        }
        if meta_path.is_file():
            if not self.config.resume:
                raise JournalError(
                    f"sharded state already exists at {state_root}; "
                    "pass resume=True to replay it"
                )
            recorded = json.loads(meta_path.read_text())
            if recorded.get("num_shards") != self.num_shards:
                raise JournalError(
                    f"state dir was written with {recorded.get('num_shards')} shards; "
                    f"refusing to resume with {self.num_shards} (rehashing would "
                    "scramble user->shard assignments)"
                )
            if recorded.get("load") != meta["load"]:
                raise JournalError(
                    "sharded state dir was recorded for a different load "
                    "configuration; refusing to resume"
                )
        else:
            meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True))

    def _listen(self, worker: _Worker) -> None:
        """Drain one worker's pipe until done/error/EOF (its own thread)."""
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                if worker.error is None and worker.summary is None:
                    worker.error = "worker pipe closed unexpectedly (process died?)"
                worker.ready.set()
                worker.done.set()
                return
            kind = message[0]
            if kind == "entry":
                _, request_id, entry = message
                with self._entries_lock:
                    self.entries[request_id] = entry
                if self.on_entry is not None:
                    self.on_entry(request_id, entry)
            elif kind == "ready":
                worker.ready_info = message[1]
                worker.ready.set()
            elif kind == "metrics":
                worker.metrics_snapshot = message[1]
                worker.metrics_ready.set()
            elif kind == "done":
                worker.summary = message[1]
                worker.ready.set()
                worker.done.set()
                return
            elif kind == "error":
                worker.error = message[1]
                worker.ready.set()
                worker.done.set()
                return

    # -------------------------------------------------------------- #
    # routing + serving
    # -------------------------------------------------------------- #
    def shard_for(self, user_id: str) -> int:
        return self.ring.shard_for(user_id)

    def submit(self, request: Request) -> int:
        """Route one request to its shard; returns the shard index."""
        index = self.ring.shard_for(request.user_id)
        self._send(index, ("serve", [encode_request(request)]))
        return index

    def submit_many(self, requests: Sequence[Request]) -> None:
        """Route a batch, one message per shard, preserving arrival order."""
        grouped: Dict[int, List[dict]] = {}
        for request in requests:
            grouped.setdefault(self.ring.shard_for(request.user_id), []).append(
                encode_request(request)
            )
        for index, encoded in grouped.items():
            self._send(index, ("serve", encoded))

    def _send(self, index: int, message) -> None:
        worker = self._workers[index]
        try:
            with worker.send_lock:
                worker.conn.send(message)
        except (OSError, BrokenPipeError) as error:
            detail = worker.error or f"{type(error).__name__}: {error}"
            raise ShardPoolError(
                f"shard {index} is not accepting requests ({detail})"
            ) from None

    def drain(self, timeout: float = 600.0) -> List[dict]:
        """Flush and stop every worker; returns the shard summaries in order.

        Raises :class:`ShardPoolError` if any worker died without reporting
        a summary (its shard's requests may be stranded in its journal).
        """
        if self._drained:
            return [worker.summary for worker in self._workers]
        self._drained = True
        for worker in self._workers:
            try:
                with worker.send_lock:
                    worker.conn.send(("drain",))
            except (OSError, BrokenPipeError):
                pass  # already dead; the listener recorded the error
        deadline = time.monotonic() + timeout
        failures = []
        for worker in self._workers:
            remaining = max(0.0, deadline - time.monotonic())
            if not worker.done.wait(remaining):
                failures.append(f"shard {worker.index} did not drain within {timeout}s")
                continue
            worker.listener.join(timeout=10.0)
            worker.runner.join(timeout=10.0)
            if worker.error is not None:
                failures.append(f"shard {worker.index}: {worker.error}")
            try:
                worker.conn.close()
            except OSError:
                pass
        if failures:
            raise ShardPoolError("; ".join(failures))
        return [worker.summary for worker in self._workers]

    def terminate(self) -> None:
        """Best-effort hard stop (failure paths only; drains nothing)."""
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:
                pass
            terminate = getattr(worker.runner, "terminate", None)
            if terminate is not None and worker.runner.is_alive():
                terminate()

    # -------------------------------------------------------------- #
    # merged views
    # -------------------------------------------------------------- #
    def normalized_entries(self) -> List[dict]:
        """Every entry seen so far, sorted by ``(user_id, user_seq)``."""
        with self._entries_lock:
            entries = list(self.entries.values())
        return sorted(entries, key=lambda entry: (entry["user_id"], entry["user_seq"]))

    def aggregate_digest(self) -> str:
        """The composed per-user digest over everything seen so far."""
        return aggregate_transcript_digest(self.normalized_entries())

    def metrics_snapshots(self, timeout: float = 30.0) -> List[dict]:
        """One registry snapshot per live-or-drained shard.

        Drained workers already attached their final snapshot to the done
        summary; live workers are polled over the pipe (the request is
        answered between batches, so a busy shard can take up to one batch
        to reply).  Workers that died or time out are skipped — a partial
        merged view beats no view during an incident.
        """
        with self._metrics_lock:
            return self._metrics_snapshots_locked(timeout)

    def _metrics_snapshots_locked(self, timeout: float) -> List[dict]:
        pending: List[_Worker] = []
        snapshots: List[dict] = []
        for worker in self._workers:
            if worker.done.is_set():
                if worker.summary is not None and worker.summary.get("metrics"):
                    snapshots.append(worker.summary["metrics"])
                continue
            worker.metrics_ready.clear()
            try:
                self._send(worker.index, ("metrics",))
            except ShardPoolError:
                continue
            pending.append(worker)
        deadline = time.monotonic() + timeout
        for worker in pending:
            remaining = max(0.0, deadline - time.monotonic())
            if worker.metrics_ready.wait(remaining) and worker.metrics_snapshot is not None:
                snapshots.append(worker.metrics_snapshot)
        return snapshots

    def merged_metrics(self, timeout: float = 30.0) -> dict:
        """All shard snapshots merged into one pool-wide view."""
        return merge_snapshots(self.metrics_snapshots(timeout))


# ---------------------------------------------------------------------- #
# the offline entry point
# ---------------------------------------------------------------------- #
@dataclass
class ShardedServeOutcome:
    """Everything one sharded serving run produced."""

    num_workers: int
    mode: str
    aggregate_digest: str
    user_digests: Dict[str, str]
    entries: List[dict]
    shard_summaries: List[dict]
    total_requests: int
    dead_letter_requests: int
    degraded_chat_requests: int
    replayed_requests: int
    restarts: int
    elapsed_seconds: float
    requests_per_sec: float
    entry_latencies: List[float] = field(default_factory=list)
    journal_digests: Dict[int, Optional[str]] = field(default_factory=dict)
    state_dir: Optional[Path] = None
    #: Shard snapshots merged into one view (None when metrics disabled).
    metrics: Optional[dict] = None

    @property
    def all_dead_lettered(self) -> bool:
        """True when every request dead-lettered (the CLI's exit-3 contract)."""
        return self.total_requests > 0 and self.dead_letter_requests >= self.total_requests

    def to_dict(self) -> dict:
        return {
            "num_workers": self.num_workers,
            "mode": self.mode,
            "aggregate_digest": self.aggregate_digest,
            "user_digests": dict(sorted(self.user_digests.items())),
            "total_requests": self.total_requests,
            "dead_letter_requests": self.dead_letter_requests,
            "degraded_chat_requests": self.degraded_chat_requests,
            "replayed_requests": self.replayed_requests,
            "restarts": self.restarts,
            "elapsed_seconds": self.elapsed_seconds,
            "requests_per_sec": self.requests_per_sec,
            "journal_digests": {
                str(index): digest for index, digest in sorted(self.journal_digests.items())
            },
            "shards": [
                # Per-shard raw metric snapshots stay off the result file:
                # the merged view below is the exported one.
                {
                    key: value
                    for key, value in summary.items()
                    if key not in ("entry_latencies", "metrics")
                }
                for summary in self.shard_summaries
            ],
            "metrics": self.metrics,
            "transcript": self.entries,
        }


def run_serve_sharded(
    config: ServeConfig,
    *,
    llm: Optional[OnDeviceLLM] = None,
    lexicons: Optional[LexiconCollection] = None,
    mode: Optional[str] = None,
) -> ShardedServeOutcome:
    """Serve one synthetic workload across shards; returns the outcome.

    The sharded twin of :func:`~repro.serve.runner.run_serve`:
    ``config.workers`` is the shard count, and the runtime objects
    ``llm``/``lexicons``/``mode`` are keywords.

    The base model is built (or passed in) once, the deterministic load is
    generated once, and every request is routed to its consistent-hash
    shard.  With a ``state_dir``, each shard keeps its own
    journal/checkpoints/adapters under ``<state_dir>/shard-NN`` and resumes
    independently; the topology manifest refuses a resume with a different
    worker count.
    """
    lexicons = lexicons or builtin_lexicons()
    if llm is None:
        llm = serving_llm(config, lexicons)
    pool = ShardPool(config, llm=llm, mode=mode)
    snapshotter = None
    if config.metrics_enabled and config.metrics_out is not None:
        snapshotter = PeriodicSnapshotter(
            MetricsRegistry(),
            config.metrics_out,
            config.metrics_interval_seconds,
            snapshot_fn=pool.merged_metrics,
        ).start()
    try:
        pool.start()
        started = time.perf_counter()
        pool.submit_many(generate_load(config.load, lexicons=lexicons))
        summaries = pool.drain()
        elapsed = time.perf_counter() - started
    except BaseException:
        pool.terminate()
        raise
    finally:
        if snapshotter is not None:
            snapshotter.stop()
    return _assemble_outcome(
        pool, summaries, elapsed, config.state_dir, metrics_enabled=config.metrics_enabled
    )


def _assemble_outcome(
    pool: ShardPool,
    summaries: List[dict],
    elapsed: float,
    state_dir: Optional[Union[str, Path]],
    metrics_enabled: bool = True,
) -> ShardedServeOutcome:
    user_digests: Dict[str, str] = {}
    for summary in summaries:
        for user, digest in summary["user_digests"].items():
            if user in user_digests:  # a user must live on exactly one shard
                raise ShardPoolError(f"user {user!r} served by more than one shard")
            user_digests[user] = digest
    entries = pool.normalized_entries()
    aggregate = compose_user_digests(user_digests)
    cross_check = aggregate_transcript_digest(entries)
    if entries and aggregate != cross_check:
        raise ShardPoolError(
            "aggregate digest mismatch between shard-composed and "
            f"parent-recomputed values ({aggregate[:12]} != {cross_check[:12]})"
        )
    total = len(entries)
    latencies = sorted(
        latency for summary in summaries for latency in summary.get("entry_latencies", [])
    )
    merged_metrics: Optional[dict] = None
    if metrics_enabled:
        shard_snapshots = [s["metrics"] for s in summaries if s.get("metrics")]
        merged_metrics = merge_snapshots(shard_snapshots)
    return ShardedServeOutcome(
        num_workers=pool.num_shards,
        mode=pool.mode,
        aggregate_digest=aggregate,
        user_digests=user_digests,
        entries=entries,
        shard_summaries=summaries,
        total_requests=total,
        dead_letter_requests=sum(s["dead_letter_requests"] for s in summaries),
        degraded_chat_requests=sum(s["degraded_chat_requests"] for s in summaries),
        replayed_requests=sum(s["replayed_requests"] for s in summaries),
        restarts=sum(s["restarts"] for s in summaries),
        elapsed_seconds=elapsed,
        requests_per_sec=total / elapsed if elapsed > 0 else 0.0,
        entry_latencies=latencies,
        journal_digests={s["index"]: s["journal_digest"] for s in summaries},
        state_dir=Path(state_dir) if state_dir is not None else None,
        metrics=merged_metrics,
    )
