"""Single-threaded asyncio load client for the ``repro serve --listen`` protocol.

Users are multiplexed over a few TCP connections with the per-op
``user_id`` field; each user is pinned to one connection, so the server
sees every user's requests in send order (which its per-user sequence
numbers, and so the transcript digest, depend on).

Unlike :class:`repro.serve.client.ServeClient`, this client never retries:
a ``busy``, ``error`` or ``dead_letter`` frame ends the request as a
failure.  It stamps the send, the first ``token`` frame and the terminal
frame of every request.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from workloads import Op

#: Frames that end a request (``bye`` answers the control ``shutdown`` op).
TERMINAL = ("done", "busy", "error", "dead_letter", "bye")
FRAME_LIMIT = (1 << 20) + 1024


@dataclass
class Record:
    """What the client observed for one request."""

    op: Op
    sent: Optional[float] = None
    first_token: Optional[float] = None
    finished: Optional[float] = None
    outcome: Optional[str] = None
    frame: Optional[dict] = None
    tokens: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == "done"


class _Connection:
    def __init__(self, client: "LoadClient", reader, writer) -> None:
        self.client = client
        self.reader = reader
        self.writer = writer
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        while True:
            try:
                line = await self.reader.readuntil(b"\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            self.client._on_frame(json.loads(line), time.perf_counter())


class LoadClient:
    """Owns the connections and every in-flight request record."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.host = host
        self.port = port
        self.connection_count = connections
        self._connections: List[_Connection] = []
        self._records: Dict[int, Record] = {}
        self._waiters: Dict[int, asyncio.Future] = {}
        self._user_conn: Dict[str, _Connection] = {}
        self._next_id = 0

    async def open(self) -> None:
        for _ in range(self.connection_count):
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=FRAME_LIMIT
            )
            self._connections.append(_Connection(self, reader, writer))

    async def close(self) -> None:
        for connection in self._connections:
            connection.writer.close()
        for connection in self._connections:
            try:
                await connection.writer.wait_closed()
            except ConnectionError:
                pass
            await connection.task

    def _connection_for(self, user: str) -> _Connection:
        connection = self._user_conn.get(user)
        if connection is None:
            connection = self._connections[len(self._user_conn) % len(self._connections)]
            self._user_conn[user] = connection
        return connection

    def _send(self, record: Record) -> asyncio.Future:
        client_id = self._next_id
        self._next_id += 1
        frame = {"id": client_id, "user_id": record.op.user, **record.op.payload}
        data = json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"
        self._records[client_id] = record
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[client_id] = waiter
        record.sent = time.perf_counter()
        self._connection_for(record.op.user).writer.write(data)
        return waiter

    def _on_frame(self, frame: dict, now: float) -> None:
        record = self._records.get(frame.get("id"))
        if record is None:
            return
        kind = frame.get("frame")
        if kind == "token":
            record.tokens += 1
            if record.first_token is None:
                record.first_token = now
            return
        if kind not in TERMINAL:
            return
        record.finished = now
        record.outcome = kind
        record.frame = frame
        del self._records[frame["id"]]
        waiter = self._waiters.pop(frame["id"])
        if not waiter.done():
            waiter.set_result(record)

    async def run_closed(self, ops: List[Op], window: int, timeout: float) -> List[Record]:
        """Each user keeps at most ``window`` requests in flight, in op order."""
        records = [Record(op) for op in ops]
        per_user: Dict[str, List[Record]] = {}
        for record in records:
            per_user.setdefault(record.op.user, []).append(record)

        async def user_loop(stream: List[Record]) -> None:
            inflight: set = set()
            for record in stream:
                if len(inflight) >= window:
                    _, inflight = await asyncio.wait(
                        inflight, return_when=asyncio.FIRST_COMPLETED
                    )
                inflight.add(self._send(record))
            if inflight:
                await asyncio.wait(inflight)

        tasks = [asyncio.ensure_future(user_loop(stream)) for stream in per_user.values()]
        done, pending = await asyncio.wait(tasks, timeout=timeout)
        for task in pending:
            task.cancel()
        for task in done:
            task.result()
        return records

    async def run_sequential(self, ops: List[Op], timeout: float) -> List[Record]:
        """One request at a time, in op order."""
        records = [Record(op) for op in ops]
        deadline = time.perf_counter() + timeout
        for record in records:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            await asyncio.wait([self._send(record)], timeout=remaining)
        return records

    async def request(self, op: dict, timeout: float) -> Optional[dict]:
        """One control op (``shutdown``) on the first connection; its reply."""
        client_id = self._next_id
        self._next_id += 1
        reply = asyncio.get_running_loop().create_future()
        record = Record(Op(-1, "", op))
        self._records[client_id] = record
        self._waiters[client_id] = reply
        data = json.dumps({"id": client_id, **op}).encode("utf-8") + b"\n"
        self._connections[0].writer.write(data)
        try:
            await asyncio.wait_for(asyncio.shield(reply), timeout)
        except asyncio.TimeoutError:
            return None
        return record.frame
