"""Socket client, load driver and trace-replay pool for the serving front-end.

:class:`ServeClient` is a minimal asyncio client for the wire protocol of
:mod:`repro.serve.frontend` (one op in flight per connection — the protocol
allows pipelining, the reference client keeps request/response pairing
trivial instead).  On top of it:

* :func:`drive_load` — one connection per user of a synthetic
  :class:`~repro.serve.loadgen.LoadConfig` workload, all users driven
  concurrently, each user's requests strictly in order.  This is the live
  load generator of the ``frontend-smoke`` CI job and the front-end
  benchmark.
* :func:`replay_trace_against` — the same pool shape, but fed from a
  recorded trace (:mod:`repro.serve.trace`): per-user request streams are
  re-driven in recorded order, and the server's resulting transcript digest
  must equal the recorded one.

``python -m repro.serve.client`` exposes both as a tiny CLI for CI scripts
(see ``scripts/frontend_smoke.py``).

``busy`` frames are handled by bounded retry with deterministic backoff:
backpressure is an expected serving condition, not an error — but a client
that keeps getting refused eventually surfaces :class:`ClientError` rather
than spinning forever.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serve.errors import ServingError
from repro.serve.frontend import (
    FRAME_BUSY,
    FRAME_DEAD_LETTER,
    FRAME_DONE,
    FRAME_ERROR,
    FRAME_TOKEN,
    MAX_FRAME_BYTES,
    OP_BYE,
    OP_CHAT,
    OP_CONNECT,
    OP_METRICS,
    OP_PERSONALIZE,
    OP_SHUTDOWN,
    decode_frame,
    encode_frame,
    wait_for_port_file,
)
from repro.serve.loadgen import LoadConfig, generate_load
from repro.serve.scheduler import ChatRequest, PersonalizeRequest
from repro.serve.trace import Trace, TraceRequest

BUSY_RETRY_LIMIT = 64
BUSY_RETRY_DELAY = 0.02


class ClientError(ServingError):
    """The server answered with an error frame, or the protocol broke."""


@dataclass
class ChatResult:
    """One completed chat exchange as the client observed it."""

    response: str
    streamed: List[str] = field(default_factory=list)
    degraded: bool = False
    dead_letter: bool = False
    busy_retries: int = 0

    @property
    def streamed_text(self) -> str:
        """The response as reconstructed from the incremental token frames."""
        return " ".join(self.streamed)


@dataclass
class RequestOutcome:
    """One driven request (chat or personalize) with its final frame."""

    user_id: str
    op: str
    frame: dict
    dead_letter: bool
    busy_retries: int = 0


class ServeClient:
    """One protocol connection (use as an async context manager)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self._next_id = 0
        self.busy_retries = 0

    async def __aenter__(self) -> "ServeClient":
        await self.open()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_FRAME_BYTES + 1024
        )

    async def close(self) -> None:
        if self.writer is not None:
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self.writer = None
            self.reader = None

    # -- plumbing ------------------------------------------------------- #
    async def send_op(self, op: dict) -> int:
        """Send one op with a fresh client id; returns that id."""
        client_id = self._next_id
        self._next_id += 1
        self.writer.write(encode_frame({"id": client_id, **op}))
        await self.writer.drain()
        return client_id

    async def read_frame(self) -> dict:
        try:
            line = await self.reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as error:
            raise ClientError("server closed the connection mid-exchange") from error
        return decode_frame(line)

    async def _exchange(self, op: dict) -> Tuple[dict, int]:
        """Send one op, absorbing ``busy`` refusals with bounded retry."""
        retries = 0
        while True:
            await self.send_op(op)
            frame = await self.read_frame()
            if frame.get("frame") != FRAME_BUSY:
                return frame, retries
            retries += 1
            self.busy_retries += 1
            if retries > BUSY_RETRY_LIMIT:
                raise ClientError(
                    f"server still busy after {BUSY_RETRY_LIMIT} retries "
                    f"(reason {frame.get('reason')!r})"
                )
            await asyncio.sleep(BUSY_RETRY_DELAY * min(retries, 8))

    # -- the protocol --------------------------------------------------- #
    async def connect(self, user_id: str) -> dict:
        frame, _ = await self._exchange({"op": OP_CONNECT, "user_id": user_id})
        if frame.get("frame") == FRAME_ERROR:
            raise ClientError(f"connect refused: {frame.get('reason')}")
        return frame

    async def chat(self, question: str, allow_busy_retry: bool = True) -> ChatResult:
        """One chat exchange: collects the token stream up to its final frame."""
        retries = 0
        while True:
            await self.send_op({"op": OP_CHAT, "question": question})
            streamed: List[str] = []
            while True:
                frame = await self.read_frame()
                kind = frame.get("frame")
                if kind == FRAME_TOKEN:
                    streamed.append(frame.get("text", ""))
                    continue
                if kind == FRAME_DONE:
                    return ChatResult(
                        response=frame.get("response", ""),
                        streamed=streamed,
                        degraded=bool(frame.get("degraded")),
                        busy_retries=retries,
                    )
                if kind == FRAME_DEAD_LETTER:
                    return ChatResult(
                        response="",
                        streamed=streamed,
                        dead_letter=True,
                        busy_retries=retries,
                    )
                if kind == FRAME_BUSY:
                    break
                raise ClientError(f"unexpected frame during chat: {frame!r}")
            retries += 1
            self.busy_retries += 1
            if not allow_busy_retry or retries > BUSY_RETRY_LIMIT:
                raise ClientError(f"chat refused: busy ({frame.get('reason')!r})")
            await asyncio.sleep(BUSY_RETRY_DELAY * min(retries, 8))

    async def personalize(self, dialogues: List[dict], finetune: bool = True) -> dict:
        """One personalize exchange; returns the final (done/dead_letter) frame."""
        frame, _ = await self._exchange(
            {"op": OP_PERSONALIZE, "dialogues": dialogues, "finetune": finetune}
        )
        if frame.get("frame") == FRAME_ERROR:
            raise ClientError(f"personalize refused: {frame.get('reason')}")
        return frame

    async def metrics(self) -> dict:
        """The unified observability frame (counters + health + snapshot)."""
        frame, _ = await self._exchange({"op": OP_METRICS})
        return frame

    async def bye(self) -> None:
        await self.send_op({"op": OP_BYE})
        await self.read_frame()
        await self.close()

    async def shutdown(self) -> None:
        """Ask the server to drain (the socket equivalent of SIGTERM)."""
        await self.send_op({"op": OP_SHUTDOWN})
        await self.read_frame()
        await self.close()


# ---------------------------------------------------------------------- #
# driving workloads
# ---------------------------------------------------------------------- #
def load_to_user_ops(load: LoadConfig) -> Dict[str, List[dict]]:
    """The synthetic workload as per-user op lists, submission order kept.

    The request ids :func:`generate_load` assigns are dropped — over the
    wire the server assigns its own — but each user's relative order is
    exactly the generated one, which is all the normalized digest depends
    on.
    """
    per_user: Dict[str, List[dict]] = {}
    for request in generate_load(load):
        ops = per_user.setdefault(request.user_id, [])
        if isinstance(request, ChatRequest):
            ops.append({"op": OP_CHAT, "question": request.question})
        elif isinstance(request, PersonalizeRequest):
            ops.append(
                {
                    "op": OP_PERSONALIZE,
                    "dialogues": [dialogue.to_dict() for dialogue in request.dialogues],
                    "finetune": request.finetune,
                }
            )
    return per_user


def trace_to_user_ops(trace: Trace) -> Dict[str, List[dict]]:
    """A recorded trace as per-user op lists, recorded ``seq`` order kept."""
    per_user: Dict[str, List[dict]] = {}
    for user_id, requests in trace.by_user().items():
        per_user[user_id] = [_trace_request_op(request) for request in requests]
    return per_user


def _trace_request_op(request: TraceRequest) -> dict:
    if request.op == OP_CHAT:
        return {"op": OP_CHAT, "question": request.payload.get("question")}
    return {
        "op": OP_PERSONALIZE,
        "dialogues": request.payload.get("dialogues"),
        "finetune": bool(request.payload.get("finetune", True)),
    }


async def _drive_user(
    host: str, port: int, user_id: str, ops: List[dict]
) -> List[RequestOutcome]:
    outcomes: List[RequestOutcome] = []
    async with ServeClient(host, port) as client:
        await client.connect(user_id)
        for op in ops:
            if op["op"] == OP_CHAT:
                result = await client.chat(op["question"])
                frame = {"response": result.response, "degraded": result.degraded}
                outcomes.append(
                    RequestOutcome(
                        user_id=user_id,
                        op=OP_CHAT,
                        frame=frame,
                        dead_letter=result.dead_letter,
                        busy_retries=result.busy_retries,
                    )
                )
            else:
                frame = await client.personalize(
                    op["dialogues"], finetune=op.get("finetune", True)
                )
                outcomes.append(
                    RequestOutcome(
                        user_id=user_id,
                        op=OP_PERSONALIZE,
                        frame=frame,
                        dead_letter=frame.get("frame") == FRAME_DEAD_LETTER,
                    )
                )
        await client.bye()
    return outcomes


async def _drive_user_ops(
    host: str, port: int, per_user: Dict[str, List[dict]]
) -> List[RequestOutcome]:
    results = await asyncio.gather(
        *(_drive_user(host, port, user, ops) for user, ops in sorted(per_user.items()))
    )
    return [outcome for outcomes in results for outcome in outcomes]


def drive_load(host: str, port: int, load: LoadConfig) -> List[RequestOutcome]:
    """Drive a synthetic workload: one concurrent connection per user."""
    return asyncio.run(_drive_user_ops(host, port, load_to_user_ops(load)))


def replay_trace_against(host: str, port: int, trace: Trace) -> List[RequestOutcome]:
    """Re-drive a recorded trace's request streams against a live server."""
    return asyncio.run(_drive_user_ops(host, port, trace_to_user_ops(trace)))


def fetch_metrics(host: str, port: int) -> dict:
    """One-shot ``metrics`` op (fresh connection)."""

    async def _fetch() -> dict:
        async with ServeClient(host, port) as client:
            return await client.metrics()

    return asyncio.run(_fetch())


def request_shutdown(host: str, port: int) -> None:
    """One-shot ``shutdown`` op: ask a live server to drain."""

    async def _request() -> None:
        async with ServeClient(host, port) as client:
            await client.shutdown()

    return asyncio.run(_request())


# ---------------------------------------------------------------------- #
# CLI (used by scripts/frontend_smoke.py and the CI jobs)
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve.client",
        description="Drive a running repro serve front-end with a synthetic workload.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--connect", metavar="HOST:PORT", help="server address")
    target.add_argument(
        "--port-file", metavar="PATH", help="file the server wrote its port into"
    )
    parser.add_argument("--users", type=int, default=4, help="number of users to drive")
    parser.add_argument("--requests", type=int, default=16, help="total requests")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--chat-only", action="store_true", help="generate no personalize requests"
    )
    parser.add_argument(
        "--personalize-every",
        type=int,
        default=8,
        help="every Nth request of a user personalizes",
    )
    parser.add_argument(
        "--shutdown", action="store_true", help="ask the server to drain afterwards"
    )
    parser.add_argument("--json", action="store_true", help="print a JSON summary")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.connect is not None:
        from repro.serve.frontend import parse_listen

        host, port = parse_listen(args.connect)
    else:
        host, port = "127.0.0.1", wait_for_port_file(args.port_file)
    load = LoadConfig(
        num_users=args.users,
        num_requests=args.requests,
        seed=args.seed,
        chat_only=args.chat_only,
        personalize_every=args.personalize_every,
    )
    outcomes = drive_load(host, port, load)
    metrics = fetch_metrics(host, port)
    if args.shutdown:
        request_shutdown(host, port)
    summary = {
        "driven_requests": len(outcomes),
        "dead_letters": sum(1 for outcome in outcomes if outcome.dead_letter),
        "busy_retries": sum(outcome.busy_retries for outcome in outcomes),
        "transcript_digest": metrics.get("transcript_digest"),
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"drove {summary['driven_requests']} request(s), "
            f"{summary['dead_letters']} dead-lettered, "
            f"digest {summary['transcript_digest']}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    sys.exit(main())
