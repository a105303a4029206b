"""Async network front-end: real sockets in front of the request scheduler.

``repro serve --listen HOST:PORT`` promotes the in-process serving core
(PRs 3/6) into an actual server: an :mod:`asyncio` TCP front-end speaking a
small newline-delimited JSON protocol —

* ``connect`` — bind the connection to a user id;
* ``chat`` — answer one question, streamed back as incremental ``token``
  frames followed by a ``done`` frame;
* ``personalize`` — feed annotated dialogue sets through the pipeline
  stages and fine-tune the user's adapter;
* ``metrics`` — the versioned observability frame: serving counters,
  component health and the full metrics-registry snapshot in one payload;
* ``bye`` / ``shutdown`` — close one connection / drain the whole server.

The event loop never touches the model.  Accepted requests cross a
**bounded bridge** (:class:`SchedulerBridge`) into a single worker thread
that owns the existing :class:`~repro.serve.scheduler.RequestScheduler` —
cross-user batching, round-robin fairness, the journal, retries and the
dead-letter ladder all apply unchanged to socket traffic.  Admission is
limited by a global queue depth and a per-user in-flight cap; requests over
either bound are refused with a ``busy`` frame instead of buffering
unboundedly, so a flood (or a slow client pipelining blindly) can never
grow the bridge past its bound.

``SIGINT``/``SIGTERM`` (or a ``shutdown`` op) drain gracefully: admission
closes, the worker finishes every accepted batch, every produced frame —
including dead-letter frames — is flushed to its client, and only then do
the sockets close.  The serving environment is the same
:class:`~repro.serve.runner.ServingNode` ``repro serve`` builds, so with a
``state_dir`` the run is durable exactly like it: requests are journaled on
submission and a killed server resumes through the node's replay path
(finished work skipped, committed fine-tunes rolled forward, the rest
re-served before the socket opens).

Determinism across runs is fingerprinted by a **normalized transcript
digest**: entries are keyed by ``(user_id, per-user sequence number)``
instead of the globally-assigned request id, because the global arrival
interleaving of concurrent connections is scheduling noise while each
user's own order is carried in-order by its connection.  Chat responses are
greedy and per-user adapter state is order-independent across users (the
PR-6 reseeding discipline), so two runs of the same per-user workloads
produce byte-identical digests no matter how the network interleaves them
— the property the trace record/replay loadgen (:mod:`repro.serve.trace`)
and the ``frontend-smoke`` CI job assert over real sockets.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import queue
import signal
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.data.dialogue import DialogueSet
from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.llm.model import OnDeviceLLM
from repro.obs import MetricsRegistry, PeriodicSnapshotter, merge_snapshots, observe_health
from repro.serve.adapter_store import AdapterStoreError, validate_user_id
from repro.serve.config import ServeConfig
from repro.serve.errors import ServingError
from repro.serve.health import ComponentHealth, HealthRegistry
from repro.serve.journal import journal_digest
from repro.serve.loadgen import LoadConfig
from repro.serve.runner import ServingNode, serving_llm
from repro.serve.scheduler import (
    CHAT,
    PERSONALIZE,
    ChatRequest,
    PersonalizeRequest,
    Request,
    RequestScheduler,
)

PROTOCOL_VERSION = 3
SERVER_NAME = "repro-serve"

#: Schema version of the ``metrics`` frame body.
METRICS_FRAME_SCHEMA = 1

#: One frame (a newline-terminated JSON object) may be at most this long.
MAX_FRAME_BYTES = 1 << 20

DEFAULT_MAX_QUEUE_DEPTH = 64
DEFAULT_MAX_INFLIGHT_PER_USER = 4

# Client -> server operations.
OP_CONNECT = "connect"
OP_CHAT = "chat"
OP_PERSONALIZE = "personalize"
OP_METRICS = "metrics"
OP_BYE = "bye"
OP_SHUTDOWN = "shutdown"

# Server -> client frame kinds.
FRAME_HELLO = "hello"
FRAME_TOKEN = "token"
FRAME_DONE = "done"
FRAME_DEAD_LETTER = "dead_letter"
FRAME_BUSY = "busy"
FRAME_ERROR = "error"
FRAME_METRICS = "metrics"
FRAME_BYE = "bye"

# Typed error codes carried by ``error`` frames.
ERR_PROTOCOL = "protocol"  # undecodable line / not a JSON object
ERR_OVERSIZED = "oversized"  # frame longer than MAX_FRAME_BYTES
ERR_UNKNOWN_OP = "unknown_op"  # well-formed frame, unrecognized "op"
ERR_BAD_PAYLOAD = "bad_payload"  # recognized op, missing/ill-typed fields

# ``busy`` frame reasons.
BUSY_QUEUE_FULL = "queue_full"
BUSY_USER_LIMIT = "user_limit"
BUSY_DRAINING = "draining"


class ProtocolError(ServingError):
    """A frame violated the wire protocol (carries the typed error code)."""

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason


def encode_frame(frame: dict) -> bytes:
    """One wire frame: canonical JSON + ``\\n`` (raises when oversized)."""
    data = json.dumps(frame, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(data) + 1 > MAX_FRAME_BYTES:
        raise ProtocolError(ERR_OVERSIZED, f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    return data + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one received line into a frame dict (raises :class:`ProtocolError`)."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(ERR_OVERSIZED, f"frame of {len(line)} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(ERR_PROTOCOL, f"frame is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(ERR_PROTOCOL, "frame must be a JSON object")
    return payload


def stream_chunks(text: str) -> List[str]:
    """How a response is split into incremental ``token`` frames.

    Word-level chunks (the reproduction's tokenizer is word-level); joining
    with single spaces reconstructs the response exactly, and the ``done``
    frame carries the authoritative full string regardless.
    """
    return text.split(" ") if text else []


# ---------------------------------------------------------------------- #
# the normalized transcript digest
# ---------------------------------------------------------------------- #
def normalize_entry(entry: dict, user_seq: int) -> dict:
    """One transcript entry keyed for cross-run comparison.

    The globally-assigned ``request_id`` encodes the arrival interleaving of
    concurrent connections — scheduling noise, not serving behaviour — so it
    is replaced by the per-user sequence number, which every connection
    carries deterministically.
    """
    normalized = {key: value for key, value in entry.items() if key != "request_id"}
    normalized["user_seq"] = user_seq
    return normalized


def frontend_transcript_digest(normalized_entries: List[dict]) -> str:
    """SHA-256 over normalized entries sorted by ``(user_id, user_seq)``."""
    ordered = sorted(normalized_entries, key=lambda e: (e["user_id"], e["user_seq"]))
    encoded = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# the bridge: event loop -> scheduler worker thread
# ---------------------------------------------------------------------- #
_STOP = object()


class _Admission:
    """The admission bounds and in-flight bookkeeping both bridges share.

    Backpressure is enforced at admission: ``max_queue_depth`` bounds the
    total accepted-but-unfinished requests and ``max_inflight_per_user``
    bounds any single user, so neither a flood nor one greedy client can
    grow a bridge beyond its bounds — the overflow is refused with a
    ``busy`` frame, never buffered.  A slot is held from :meth:`try_admit`
    until the request's result is delivered.
    """

    def __init__(self, max_queue_depth: int, max_inflight_per_user: int) -> None:
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if max_inflight_per_user < 1:
            raise ValueError(f"max_inflight_per_user must be >= 1, got {max_inflight_per_user}")
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_user = max_inflight_per_user
        self.health = ComponentHealth("frontend")
        self.busy_rejections = 0
        self.max_depth_seen = 0
        self._lock = threading.Lock()
        self._inflight: Dict[str, int] = {}
        self._inflight_total = 0
        #: request id -> (user, deliver) of every admitted, undelivered request.
        self._deliveries: Dict[int, Tuple[str, Callable[[dict], None]]] = {}

    # -- admission (event-loop thread) --------------------------------- #
    def try_admit(self, user_id: str) -> Optional[str]:
        """Reserve one in-flight slot; returns a ``busy`` reason or None."""
        with self._lock:
            if self._inflight_total >= self.max_queue_depth:
                self.busy_rejections += 1
                return BUSY_QUEUE_FULL
            if self._inflight.get(user_id, 0) >= self.max_inflight_per_user:
                self.busy_rejections += 1
                return BUSY_USER_LIMIT
            self._inflight_total += 1
            self._inflight[user_id] = self._inflight.get(user_id, 0) + 1
            self.max_depth_seen = max(self.max_depth_seen, self._inflight_total)
            return None

    @property
    def inflight_total(self) -> int:
        with self._lock:
            return self._inflight_total

    # -- results ------------------------------------------------------- #
    def _track(self, request_id: int, user_id: str, deliver: Callable[[dict], None]) -> None:
        with self._lock:
            self._deliveries[request_id] = (user_id, deliver)

    def _deliver(self, request_id: int, entry: dict) -> None:
        """Release the request's slot and hand its entry to the client."""
        with self._lock:
            tracked = self._deliveries.pop(request_id, None)
            if tracked is None:
                return
            user, deliver = tracked
            self._inflight_total -= 1
            if user in self._inflight:
                self._inflight[user] -= 1
        deliver(entry)

    def _dead_letter_stranded(self, error: str, reason: str) -> None:
        """Unblock every waiting client with a synthetic dead letter.

        Not journaled: the journal only records real outcomes.
        """
        with self._lock:
            stranded = [(request_id, user) for request_id, (user, _) in self._deliveries.items()]
        for request_id, user in stranded:
            self._deliver(
                request_id,
                {
                    "request_id": request_id,
                    "user_id": user,
                    "kind": "error",
                    "dead_letter": True,
                    "error": error,
                    "reason": reason,
                },
            )


class SchedulerBridge(_Admission):
    """Bounded hand-off between the socket layer and the scheduler thread.

    The event loop *admits* requests (:meth:`try_admit` + :meth:`enqueue`);
    one worker thread owns the scheduler exclusively, draining the hand-off
    queue in arrival order, submitting (which journals, when durable) and
    serving.  Results flow back through the scheduler's ``entry_listener``
    the moment each transcript entry is produced, so dead-letter frames
    reach clients as promptly as successes.
    """

    def __init__(
        self,
        scheduler: RequestScheduler,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_inflight_per_user: int = DEFAULT_MAX_INFLIGHT_PER_USER,
    ) -> None:
        super().__init__(max_queue_depth, max_inflight_per_user)
        self.scheduler = scheduler
        scheduler.entry_listener = self._on_entry
        self._items: "queue.Queue" = queue.Queue()
        self._user_seq: Dict[str, int] = {}
        self._request_keys: Dict[int, Tuple[str, int]] = {}
        self._thread: Optional[threading.Thread] = None

    def enqueue(self, request: Request, deliver: Callable[[dict], None]) -> None:
        """Hand one *admitted* request to the worker thread."""
        self._items.put((request, deliver))

    def assign_key(self, request: Request) -> None:
        """Give a submitted request the next ``(user, seq)`` key of its user."""
        seq = self._user_seq.get(request.user_id, 0)
        self._user_seq[request.user_id] = seq + 1
        self._request_keys[request.request_id] = (request.user_id, seq)

    # -- the worker thread --------------------------------------------- #
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._run, name="repro-serve-bridge", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Drain every accepted request, deliver its result, stop the worker.

        Blocking; called off the event loop.  Admission must already be
        closed (the front-end flips to draining first), so nothing can race
        in behind the stop sentinel.
        """
        if self._thread is None:
            self._drain_once(stop_seen=True)
            return
        self._items.put(_STOP)
        self._thread.join()
        self._thread = None

    def _run(self) -> None:
        while True:
            item = self._items.get()
            if self._drain_once(stop_seen=item is _STOP, first=item):
                return

    def _drain_once(self, stop_seen: bool, first: Optional[object] = None) -> bool:
        """Submit everything queued right now, serve it, deliver results."""
        batch: List[Tuple[Request, Callable[[dict], None]]] = []
        if first is not None and first is not _STOP:
            batch.append(first)  # type: ignore[arg-type]
        while True:
            try:
                item = self._items.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                stop_seen = True
            else:
                batch.append(item)
        for request, deliver in batch:
            submitted = self.scheduler.submit(request)
            self.assign_key(submitted)
            self._track(submitted.request_id, submitted.user_id, deliver)
        if batch or self.scheduler.pending_count:
            try:
                self.scheduler.run()
            except Exception as error:  # pragma: no cover - defensive
                # A scheduler bug must not wedge every waiting client.
                self.health.fail(f"scheduler run failed: {type(error).__name__}: {error}")
                self._dead_letter_stranded(type(error).__name__, str(error))
        return stop_seen

    def _on_entry(self, entry: dict) -> None:
        """Scheduler callback (worker thread): release the slot, deliver."""
        self._deliver(entry.get("request_id"), entry)

    # -- the digest ---------------------------------------------------- #
    def normalized_entries(self) -> List[dict]:
        """Every transcript entry under its ``(user, seq)`` key (see module docs)."""
        normalized = []
        for entry in self.scheduler.transcript:
            key = self._request_keys.get(entry.get("request_id"))
            seq = key[1] if key is not None else int(entry.get("request_id", 0))
            normalized.append(normalize_entry(entry, seq))
        return normalized

    def transcript_digest(self) -> str:
        return frontend_transcript_digest(self.normalized_entries())


class ShardedBridge(_Admission):
    """:class:`SchedulerBridge`'s sharded twin: admission in front of a
    :class:`~repro.serve.shard.ShardPool`.

    The event loop admits exactly as before (same queue-depth and per-user
    bounds, same ``busy`` reasons); admitted requests get a globally unique
    request id here and are routed to their consistent-hash shard, whose
    worker serves them and streams normalized entries back through the
    pool's ``on_entry`` hook.  Because each user's requests travel in
    arrival order to a single shard, the per-user sequence numbers the
    workers assign match what one scheduler would have assigned — the
    transcript digest is byte-identical for any worker count.
    """

    def __init__(
        self,
        pool,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_inflight_per_user: int = DEFAULT_MAX_INFLIGHT_PER_USER,
    ) -> None:
        super().__init__(max_queue_depth, max_inflight_per_user)
        self.pool = pool
        pool.on_entry = self._deliver
        self._next_request_id = 0
        self.summaries: List[dict] = []

    # -- lifecycle ------------------------------------------------------ #
    def start_pool(self, timeout: float = 300.0) -> List[dict]:
        """Spawn the shards (replaying their journals, when durable).

        Runs before the socket opens; replayed entries stream through
        ``on_entry`` into the merged transcript with no delivery attached.
        Live request ids start above every shard's journaled ids, so resumed
        and fresh traffic share one id space per shard journal.
        """
        infos = self.pool.start(timeout=timeout)
        self._next_request_id = max((info.get("next_request_id", 0) for info in infos), default=0)
        return infos

    def start(self) -> None:
        """The pool was started by :meth:`start_pool`; nothing to do here."""

    def stop(self) -> None:
        """Drain every shard, then release any stranded deliveries.

        All entry messages precede a worker's ``done`` message on its pipe,
        so every delivery is posted to the event loop before ``drain``
        returns — the same flush guarantee the single-scheduler bridge
        gives.  If a shard died, its clients get synthetic dead-letter
        frames instead of hanging.
        """
        try:
            self.summaries = self.pool.drain()
        except Exception as error:  # pragma: no cover - defensive
            self.health.fail(f"shard pool drain failed: {type(error).__name__}: {error}")
        self._dead_letter_stranded(
            "ShardPoolError", "shard worker died before serving this request"
        )

    def enqueue(self, request: Request, deliver: Callable[[dict], None]) -> None:
        """Assign the global id and route one *admitted* request to its shard."""
        with self._lock:
            request = replace(request, request_id=self._next_request_id)
            self._next_request_id += 1
        self._track(request.request_id, request.user_id, deliver)
        self.pool.submit(request)

    # -- the digest ----------------------------------------------------- #
    def normalized_entries(self) -> List[dict]:
        return self.pool.normalized_entries()

    def transcript_digest(self) -> str:
        return frontend_transcript_digest(self.normalized_entries())


# ---------------------------------------------------------------------- #
# per-connection protocol handling
# ---------------------------------------------------------------------- #
_CLOSE = object()


class _Connection:
    """One client connection: a reader loop plus a serialized writer task.

    All frames leave through one outbox queue consumed by a single writer
    coroutine, so token streams never interleave with other frames and a
    slow client (whose ``drain()`` blocks) stalls only its own writer — the
    bridge keeps serving everyone else.
    """

    def __init__(self, frontend: "ServeFrontend", reader, writer) -> None:
        self.frontend = frontend
        self.reader = reader
        self.writer = writer
        self.user_id: Optional[str] = None
        self.outbox: "asyncio.Queue" = asyncio.Queue()
        self.closed = False
        self._writer_task: Optional[asyncio.Task] = None

    # -- outbox -------------------------------------------------------- #
    def send_frame(self, frame: dict) -> None:
        if not self.closed:
            self.outbox.put_nowait(("frame", frame))

    def send_result(self, client_id: object, entry: dict) -> None:
        if not self.closed:
            self.outbox.put_nowait(("result", client_id, entry))

    def shutdown(self) -> None:
        """Close after flushing everything already queued."""
        if not self.closed:
            self.closed = True
            self.outbox.put_nowait(_CLOSE)

    # -- the two coroutines -------------------------------------------- #
    async def handle(self) -> None:
        self._writer_task = asyncio.ensure_future(self._write_loop())
        try:
            while True:
                try:
                    line = await self.reader.readuntil(b"\n")
                except asyncio.IncompleteReadError:
                    # EOF mid-line: a torn final frame, exactly like the
                    # journal's torn tail — ignore it and close quietly.
                    break
                except asyncio.LimitOverrunError:
                    self.send_frame(
                        _error_frame(None, ERR_OVERSIZED, "frame exceeds the 1 MiB limit")
                    )
                    break
                except (ConnectionResetError, OSError):
                    break
                try:
                    op = decode_frame(line)
                except ProtocolError as error:
                    # Framing is intact (the newline was found), so protocol
                    # errors are recoverable: report and keep reading.
                    self.send_frame(_error_frame(None, error.code, error.reason))
                    continue
                if await self._dispatch(op):
                    break
        finally:
            self.shutdown()
            if self._writer_task is not None:
                try:
                    await self._writer_task
                except asyncio.CancelledError:  # pragma: no cover - teardown
                    pass

    async def _write_loop(self) -> None:
        try:
            while True:
                item = await self.outbox.get()
                if item is _CLOSE:
                    break
                if item[0] == "frame":
                    self.writer.write(encode_frame(item[1]))
                    await self.writer.drain()
                else:
                    _, client_id, entry = item
                    for frame in _result_frames(client_id, entry):
                        self.writer.write(encode_frame(frame))
                        await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # the client went away; results stay journaled server-side
        finally:
            self.closed = True
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- dispatch ------------------------------------------------------ #
    async def _dispatch(self, op: dict) -> bool:
        """Handle one client op; returns True when the connection should end."""
        kind = op.get("op")
        client_id = op.get("id")
        if kind == OP_CONNECT:
            user = op.get("user_id")
            try:
                validate_user_id(user if isinstance(user, str) else "")
            except (AdapterStoreError, ValueError, TypeError):
                self.send_frame(
                    _error_frame(client_id, ERR_BAD_PAYLOAD, f"invalid user_id {user!r}")
                )
                return False
            self.user_id = user
            self.send_frame(
                {
                    "frame": FRAME_HELLO,
                    "id": client_id,
                    "user_id": user,
                    "server": SERVER_NAME,
                    "protocol": PROTOCOL_VERSION,
                }
            )
            return False
        if kind in (OP_CHAT, OP_PERSONALIZE):
            self._dispatch_request(kind, client_id, op)
            return False
        if kind == OP_METRICS:
            # Collecting the sharded snapshot crosses worker pipes, so it
            # runs off the event loop.
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(None, self.frontend.metrics_payload)
            self.send_frame({"frame": FRAME_METRICS, "id": client_id, **payload})
            return False
        if kind == OP_BYE:
            self.send_frame({"frame": FRAME_BYE, "id": client_id})
            return True
        if kind == OP_SHUTDOWN:
            self.send_frame({"frame": FRAME_BYE, "id": client_id, "draining": True})
            self.frontend.request_drain()
            return True
        self.send_frame(_error_frame(client_id, ERR_UNKNOWN_OP, f"unknown op {kind!r}"))
        return False

    def _dispatch_request(self, kind: str, client_id: object, op: dict) -> None:
        """Admission + hand-off for the two serving ops."""
        user = op.get("user_id") or self.user_id
        if not isinstance(user, str) or not user:
            self.send_frame(
                _error_frame(
                    client_id, ERR_BAD_PAYLOAD, f"{kind} needs a user (send connect first)"
                )
            )
            return
        try:
            validate_user_id(user)
            request = self._build_request(kind, user, op)
        except ProtocolError as error:
            self.send_frame(_error_frame(client_id, error.code, error.reason))
            return
        except (AdapterStoreError, ValueError, TypeError) as error:
            self.send_frame(_error_frame(client_id, ERR_BAD_PAYLOAD, str(error)))
            return
        if self.frontend.draining:
            self.send_frame({"frame": FRAME_BUSY, "id": client_id, "reason": BUSY_DRAINING})
            return
        reason = self.frontend.bridge.try_admit(user)
        if reason is not None:
            self.send_frame({"frame": FRAME_BUSY, "id": client_id, "reason": reason})
            return
        self.frontend.record_admitted(kind, user, op)
        loop = asyncio.get_running_loop()

        def deliver(entry: dict, conn: "_Connection" = self) -> None:
            # Worker thread -> event loop; FIFO of call_soon_threadsafe
            # guarantees every result lands in the outbox before the drain
            # sequence (which runs after the worker joins) posts _CLOSE.
            loop.call_soon_threadsafe(conn.send_result, client_id, entry)

        self.frontend.bridge.enqueue(request, deliver)

    def _build_request(self, kind: str, user: str, op: dict) -> Request:
        if kind == OP_CHAT:
            question = op.get("question")
            if not isinstance(question, str):
                raise ProtocolError(ERR_BAD_PAYLOAD, "chat needs a string 'question'")
            return ChatRequest(user_id=user, question=question)
        dialogues = op.get("dialogues")
        if not isinstance(dialogues, list) or not dialogues:
            raise ProtocolError(
                ERR_BAD_PAYLOAD, "personalize needs a non-empty 'dialogues' list"
            )
        try:
            decoded = tuple(DialogueSet.from_dict(item) for item in dialogues)
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ProtocolError(
                ERR_BAD_PAYLOAD, f"undecodable dialogue set: {error}"
            ) from None
        return PersonalizeRequest(
            user_id=user, dialogues=decoded, finetune=bool(op.get("finetune", True))
        )


def _error_frame(client_id: object, code: str, reason: str) -> dict:
    return {"frame": FRAME_ERROR, "id": client_id, "error": code, "reason": reason}


def _result_frames(client_id: object, entry: dict) -> List[dict]:
    """The frame sequence one finished request sends back to its client."""
    if entry.get("dead_letter"):
        return [
            {
                "frame": FRAME_DEAD_LETTER,
                "id": client_id,
                "kind": entry.get("kind"),
                "error": entry.get("error"),
                "reason": entry.get("reason"),
            }
        ]
    if entry.get("kind") == CHAT:
        frames: List[dict] = [
            {"frame": FRAME_TOKEN, "id": client_id, "index": index, "text": chunk}
            for index, chunk in enumerate(stream_chunks(entry.get("response", "")))
        ]
        done = {
            "frame": FRAME_DONE,
            "id": client_id,
            "kind": CHAT,
            "response": entry.get("response", ""),
        }
        if entry.get("degraded"):
            done["degraded"] = True
        frames.append(done)
        return frames
    return [
        {
            "frame": FRAME_DONE,
            "id": client_id,
            "kind": PERSONALIZE,
            "offered": entry.get("offered"),
            "accepted": entry.get("accepted"),
            "finetuned": entry.get("finetuned"),
            "final_loss": entry.get("final_loss"),
        }
    ]


# ---------------------------------------------------------------------- #
# the server
# ---------------------------------------------------------------------- #
@dataclass
class FrontendOutcome:
    """Everything one front-end run produced (the socket analogue of ServeOutcome)."""

    host: str
    port: int
    total_requests: int
    chat_requests: int
    personalize_requests: int
    dead_letter_requests: int
    degraded_chat_requests: int
    busy_rejections: int
    num_users: int
    elapsed_seconds: float
    requests_per_sec: float
    transcript_digest: str
    journal_digest: Optional[str] = None
    replayed_requests: int = 0
    max_queue_depth_seen: int = 0
    health: Dict[str, dict] = field(default_factory=dict)
    transcript: List[dict] = field(default_factory=list)
    #: Drained-state registry snapshot (None when metrics were disabled).
    metrics: Optional[dict] = None

    @property
    def all_dead_lettered(self) -> bool:
        """True when the run served traffic but every request dead-lettered.

        The socket-bridge half of the ``repro serve`` exit-code contract:
        the CLI exits 3 on this, after the dead-letter frames have already
        been flushed to their clients (the drain sequence guarantees it).
        """
        return self.total_requests > 0 and self.dead_letter_requests == self.total_requests

    def to_dict(self) -> dict:
        return {
            "listen": f"{self.host}:{self.port}",
            "total_requests": self.total_requests,
            "chat_requests": self.chat_requests,
            "personalize_requests": self.personalize_requests,
            "dead_letter_requests": self.dead_letter_requests,
            "degraded_chat_requests": self.degraded_chat_requests,
            "busy_rejections": self.busy_rejections,
            "num_users": self.num_users,
            "elapsed_seconds": self.elapsed_seconds,
            "requests_per_sec": self.requests_per_sec,
            "transcript_digest": self.transcript_digest,
            "journal_digest": self.journal_digest,
            "replayed_requests": self.replayed_requests,
            "max_queue_depth_seen": self.max_queue_depth_seen,
            "health": {name: dict(state) for name, state in self.health.items()},
            "metrics": self.metrics,
            "transcript": list(self.transcript),
        }


class ServeFrontend:
    """The asyncio TCP server around one scheduler bridge.

    Construction is cheap; :meth:`run` builds the serving environment (a
    :class:`~repro.serve.runner.ServingNode`, or a shard pool when
    ``config.workers > 1``), binds the socket and serves until drained.
    :class:`FrontendThread` wraps it for callers that need the server in a
    background thread (tests, benchmarks, ``repro replay``).  The runtime
    objects (``llm``, ``lexicons``, ``metrics``) are keywords;
    ``start_worker=False`` parks the scheduler thread until drain (tests
    of admission), ``shard_mode`` picks the shard workers' mode.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        llm: Optional[OnDeviceLLM] = None,
        lexicons: Optional[LexiconCollection] = None,
        metrics: Optional[MetricsRegistry] = None,
        start_worker: bool = True,
        shard_mode: Optional[str] = None,
    ) -> None:
        self.config = config
        self.host, self.port = parse_listen(config.listen) if config.listen else ("127.0.0.1", 0)
        self.llm = llm
        self.lexicons = lexicons or builtin_lexicons()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.start_worker = start_worker
        self.shard_mode = shard_mode

        #: The serving node behind a single-worker front-end (None when sharded).
        self.node: Optional[ServingNode] = None
        self.bridge: Optional[Union[SchedulerBridge, ShardedBridge]] = None
        self.recorder = None
        self.draining = False
        self.replayed_requests = 0
        self.started = threading.Event()
        self.bound_port: Optional[int] = None
        self.outcome: Optional[FrontendOutcome] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_event: Optional[asyncio.Event] = None
        self._drain_requested_early = False
        self._connections: set = set()
        self._handler_tasks: set = set()

    # -- environment construction -------------------------------------- #
    def _build(self) -> None:
        """Build the node (or shard pool) and recover, before the socket opens.

        Socket traffic has no workload of its own, so the journal fences a
        resume on the seed and dataset only, through a stub load.
        Committed-but-unmarked fine-tunes roll forward without re-applying;
        enqueued-but-unfinished requests re-serve to completion (their
        clients are gone, but the journal — and therefore the journal
        digest — still reaches the same final state as an uninterrupted
        run).  Only then does the server start accepting new traffic.
        """
        if self.llm is None:
            self.llm = serving_llm(self.config, self.lexicons)
        stub = LoadConfig(
            num_users=1, num_requests=1, dataset=self.config.dataset, seed=self.config.seed
        )
        config = self.config.with_(load=stub)
        if config.workers > 1:
            from repro.serve.shard import ShardPool  # lazy: shard imports this module

            bridge = ShardedBridge(
                ShardPool(config, llm=self.llm, mode=self.shard_mode),
                max_queue_depth=config.max_queue_depth,
                max_inflight_per_user=config.max_inflight_per_user,
            )
            infos = bridge.start_pool()
            self.replayed_requests = sum(info.get("replayed_entries", 0) for info in infos)
            self.bridge = bridge
            return
        self.node = ServingNode(config, llm=self.llm, lexicons=self.lexicons, metrics=self.metrics)
        scheduler = self.node.run(_serve_pending)
        self.bridge = SchedulerBridge(
            scheduler,
            max_queue_depth=config.max_queue_depth,
            max_inflight_per_user=config.max_inflight_per_user,
        )
        # Normalized keys for everything the journal has seen keep resumed
        # and fresh traffic in one consistent per-user sequence space.
        past = self.node.past
        for request_id in sorted(past.enqueued):
            self.bridge.assign_key(past.enqueued[request_id])
        self.replayed_requests = self.node.replayed_total

    # -- recording ------------------------------------------------------ #
    def record_admitted(self, kind: str, user: str, op: dict) -> None:
        """Trace hook: every admitted request, in per-user admission order."""
        if self.recorder is None:
            return
        if kind == OP_CHAT:
            payload = {"question": op.get("question")}
        else:
            payload = {
                "dialogues": op.get("dialogues"),
                "finetune": bool(op.get("finetune", True)),
            }
        self.recorder.record_request(user, kind, payload)

    # -- live introspection -------------------------------------------- #
    def stats(self) -> dict:
        """The serving-counter half of the ``metrics`` frame body.

        One schema for both topologies: the single-scheduler and sharded
        paths return the same key set (``workers`` is always present,
        ``queue_depths`` is empty when the queues live inside shard
        workers), so dashboards never branch on deployment shape.
        """
        scheduler = self.node.scheduler if self.node is not None else None
        return {
            "served": _served_counts(self.bridge.normalized_entries()),
            "pending": self.bridge.inflight_total if scheduler is None else scheduler.pending_count,
            "inflight": self.bridge.inflight_total,
            "busy_rejections": self.bridge.busy_rejections,
            "queue_depths": {} if scheduler is None else scheduler.queue_depths(),
            "workers": self.config.workers,
            "draining": self.draining,
            "transcript_digest": self.bridge.transcript_digest(),
        }

    def metrics_snapshot(self) -> dict:
        """The registry snapshot (merged across shards when ``workers > 1``).

        Either way the frontend-owned components' health is folded in first,
        so single and sharded snapshots expose the same key-set.
        """
        observe_health(self.metrics, self.health_snapshot()["components"])
        if self.node is None and self.bridge is not None:
            return merge_snapshots([self.bridge.pool.merged_metrics(), self.metrics.snapshot()])
        return self.metrics.snapshot()

    def metrics_payload(self) -> dict:
        """The versioned body the ``metrics`` op returns."""
        payload = dict(self.stats())
        payload.update(self.health_snapshot())
        payload["metrics"] = self.metrics_snapshot()
        payload["schema"] = METRICS_FRAME_SCHEMA
        payload["server"] = SERVER_NAME
        payload["protocol"] = PROTOCOL_VERSION
        return payload

    def health_snapshot(self) -> dict:
        # Sharded: worker-side health arrives with the drain summaries; the
        # live snapshot covers the component this process owns.
        components = [self.bridge.health]
        node = self.node
        if node is not None:
            components += [node.scheduler.health, node.manager.health, node.store.health]
            if node.journal is not None:
                components.append(node.journal.health)
        return HealthRegistry.from_components(components).to_dict()

    # -- drain ---------------------------------------------------------- #
    def request_drain(self) -> None:
        """Begin graceful shutdown; safe from any thread and from signals."""
        self.draining = True
        if self._loop is None or self._drain_event is None:
            self._drain_requested_early = True
            return

        def _set() -> None:
            self._drain_event.set()

        try:
            self._loop.call_soon_threadsafe(_set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # -- the run -------------------------------------------------------- #
    def run(self) -> FrontendOutcome:
        """Build, serve until drained, and report; blocks the calling thread."""
        config = self.config
        self._build()
        if config.trace_out is not None:
            from repro.serve.trace import TraceRecorder

            self.recorder = TraceRecorder(
                config.trace_out,
                meta={
                    "scale": config.resolved_scale().name,
                    "seed": config.seed,
                    "dataset": config.dataset,
                    "pretrain_epochs": config.pretrain_epochs,
                    "max_batch_size": config.max_batch_size,
                },
            )
        snapshotter: Optional[PeriodicSnapshotter] = None
        if config.metrics_enabled and config.metrics_out is not None:
            snapshotter = PeriodicSnapshotter(
                self.metrics,
                config.metrics_out,
                config.metrics_interval_seconds,
                snapshot_fn=self.metrics_snapshot,
            ).start()
        start = time.perf_counter()
        try:
            asyncio.run(self._serve())
        finally:
            elapsed = time.perf_counter() - start
            if self.node is not None:
                self.node.close()
            if snapshotter is not None:
                snapshotter.stop()
        self.outcome = self._make_outcome(elapsed)
        if self.recorder is not None:
            self.recorder.record_summary(
                digest=self.outcome.transcript_digest,
                requests=self.outcome.total_requests,
            )
            self.recorder.close()
        return self.outcome

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        if self._drain_requested_early:
            self._drain_event.set()
        if self.start_worker:
            self.bridge.start()
        server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_FRAME_BYTES + 1024
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        port_file = self.config.port_file
        if port_file is not None:
            port_file.parent.mkdir(parents=True, exist_ok=True)
            port_file.write_text(f"{self.bound_port}\n")
        installed: List[int] = []
        if self.config.install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._loop.add_signal_handler(signum, self.request_drain)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
        self.started.set()
        try:
            await self._drain_event.wait()
            self.draining = True
            server.close()
            # The worker must start (even in start_worker=False test runs)
            # so everything admitted before the drain still gets served.
            self.bridge.start()
            await self._loop.run_in_executor(None, self.bridge.stop)
            # All deliveries were posted with call_soon_threadsafe *before*
            # the executor completion that resumed us, and the loop runs its
            # ready queue FIFO — every result frame is in its outbox now.
            for connection in list(self._connections):
                connection.shutdown()
            if self._handler_tasks:
                await asyncio.wait(list(self._handler_tasks), timeout=10.0)
                for task in list(self._handler_tasks):
                    if not task.done():  # pragma: no cover - hung client
                        task.cancel()
        finally:
            for signum in installed:
                try:
                    self._loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            server.close()
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - hung handler
                pass

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handler_tasks.add(task)
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        try:
            await connection.handle()
        finally:
            self._connections.discard(connection)
            self._handler_tasks.discard(task)

    # -- the outcome ---------------------------------------------------- #
    def _make_outcome(self, elapsed: float) -> FrontendOutcome:
        transcript = sorted(
            self.bridge.normalized_entries(), key=lambda e: (e["user_id"], e["user_seq"])
        )
        served = _served_counts(transcript)
        health = {self.bridge.health.component: self.bridge.health.to_dict()}
        node = self.node
        if node is not None:
            health.update(node.scheduler.health_report())
            journal = journal_digest(node.journal_path) if node.durable else None
        else:
            summaries = self.bridge.summaries
            for summary in summaries:
                for name, state in summary.get("health", {}).items():
                    health[f"shard{summary['index']:02d}.{name}"] = dict(state)
            # Per-shard journal digests compose the way the transcript digest
            # does: one SHA-256 over the sorted ``shard:digest`` lines.
            shard_digests = sorted((s["index"], s["journal_digest"]) for s in summaries)
            journal = None
            if shard_digests and all(digest is not None for _, digest in shard_digests):
                joined = "\n".join(f"{index}:{digest}" for index, digest in shard_digests)
                journal = hashlib.sha256(joined.encode("utf-8")).hexdigest()
        return FrontendOutcome(
            host=self.host,
            port=self.bound_port if self.bound_port is not None else self.port,
            total_requests=served["total"],
            chat_requests=served["chat"],
            personalize_requests=served["personalize"],
            dead_letter_requests=served["dead_letter"],
            degraded_chat_requests=sum(1 for e in transcript if e.get("degraded")),
            busy_rejections=self.bridge.busy_rejections,
            num_users=len({e["user_id"] for e in transcript}),
            elapsed_seconds=elapsed,
            requests_per_sec=served["total"] / elapsed if elapsed > 0 else 0.0,
            transcript_digest=frontend_transcript_digest(transcript),
            journal_digest=journal,
            replayed_requests=self.replayed_requests,
            max_queue_depth_seen=self.bridge.max_depth_seen,
            health=health,
            transcript=transcript,
            metrics=self.metrics_snapshot() if self.config.metrics_enabled else None,
        )


def _serve_pending(scheduler: RequestScheduler) -> RequestScheduler:
    """Serve what recovery resubmitted (a no-op on a fresh journal)."""
    if scheduler.pending_count:
        scheduler.run()
    return scheduler


def _served_counts(transcript: List[dict]) -> Dict[str, int]:
    """Total / chat / personalize / dead-letter counts of a transcript."""
    live = [e for e in transcript if not e.get("dead_letter")]
    return {
        "total": len(transcript),
        "chat": sum(1 for e in live if e.get("kind") == CHAT),
        "personalize": sum(1 for e in live if e.get("kind") == PERSONALIZE),
        "dead_letter": len(transcript) - len(live),
    }


class FrontendThread:
    """Run a :class:`ServeFrontend` in a background thread (tests, replay, bench)."""

    def __init__(self, frontend: ServeFrontend) -> None:
        self.frontend = frontend
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-frontend", daemon=True
        )

    def _run(self) -> None:
        try:
            self.frontend.run()
        except BaseException as error:  # pragma: no cover - surfaced via .stop()
            self.error = error
            self.frontend.started.set()

    def start(self, timeout: float = 120.0) -> Tuple[str, int]:
        """Start serving; returns ``(host, port)`` once the socket is bound."""
        self._thread.start()
        if not self.frontend.started.wait(timeout):
            raise TimeoutError("front-end server did not start in time")
        if self.error is not None:
            raise RuntimeError(f"front-end server failed to start: {self.error}")
        return self.frontend.host, self.frontend.bound_port

    def stop(self, timeout: float = 120.0) -> FrontendOutcome:
        """Drain, join and return the outcome (raises the server's error, if any)."""
        self.frontend.request_drain()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - hung server
            raise TimeoutError("front-end server did not drain in time")
        if self.error is not None:
            raise self.error
        return self.frontend.outcome


def parse_listen(text: str) -> Tuple[str, int]:
    """``HOST:PORT`` -> tuple (port 0 binds an ephemeral port)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--listen expects HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"--listen expects a numeric port, got {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--listen port out of range: {port}")
    return host, port


def wait_for_port_file(path: Union[str, Path], timeout: float = 120.0) -> int:
    """Poll a ``--port-file`` until the server writes its bound port."""
    path = Path(path)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.is_file():
            text = path.read_text().strip()
            if text:
                port = int(text)
                # Wait until the socket actually accepts.
                try:
                    with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                        return port
                except OSError:
                    pass
        time.sleep(0.05)
    raise TimeoutError(f"no server port appeared in {path} within {timeout:.0f}s")
