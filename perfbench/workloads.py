"""The benchmark's two traffic mixes and their seeded request sets.

A workload fixes the traffic shape (users, requests in flight,
adapter-cache size, durability, personalize share); :func:`build_plan`
turns it plus a load seed and a run length into the exact requests a run
sends.  Request *content* comes from
:func:`repro.serve.loadgen.generate_load` under a fixed corpus seed (each
user's own synthetic corpus, questions in corpus order, personalize jobs
carrying the user's next annotated dialogue sets); the load seed picks
where in its question cycle each user starts.  The server only
ever sees the generated requests: its model seed is fixed
(``SERVER_SEED``), so set-up work is identical for every load seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve.loadgen import LoadConfig, generate_load, user_ids
from repro.serve.scheduler import ChatRequest

#: Model/pretraining seed passed to every server boot.
SERVER_SEED = 0

#: Seed of the users' synthetic corpora (see :func:`_user_streams`).
CORPUS_SEED = 0

#: Questions per user corpus (``LoadConfig.corpus_size_per_user``): a
#: chat-only user stream repeats with this period.
CYCLE = LoadConfig().corpus_size_per_user

#: Server flags shared by every workload (the protocol defaults, pinned so a
#: change of default cannot silently change the workload).
MAX_INFLIGHT = 4
MAX_QUEUE_DEPTH = 64
MAX_BATCH = 8

#: Annotated dialogues each personalize request carries
#: (``LoadConfig.dialogues_per_personalize``).
DIALOGUES = LoadConfig().dialogues_per_personalize

#: A chat-only workload sends personalize requests one at a time on the
#: idle server, so every workload reports fine-tune latency: the probe,
#: ``PROBE_JOBS`` per user, after ``PROBE_WARMUP_JOBS`` unmeasured ones in
#: the warm-up.  A user's first two jobs take less time than its later
#: ones (about 60 and 95 ms against a level of about 120 ms on a 2-vCPU
#: VM), so the warm-up brings every user to the level and every probe job
#: costs about the same.  The probe goes out in ``PROBE_ROUNDS`` equal
#: parts, one after each of as many equal parts of the chat window: the
#: host's speed changes from one second to the next, and a probe sent in
#: one piece after the window measured one moment of it (over ten runs its
#: p50 spread 0.25, the chats' 0.11).
PROBE_WARMUP_JOBS = 2
PROBE_JOBS = 3
PROBE_ROUNDS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    #: Requests each user keeps in flight (a closed loop).
    window: int
    #: Requests per second on a 2-core host; sizes the fixed request set so
    #: a run lasts about ``--seconds``.
    nominal_rate: float
    cache_capacity: int
    durable: bool
    #: Every k-th request of a user personalizes; None = chat-only window.
    personalize_every: Optional[int]


WORKLOADS: Dict[str, Workload] = {
    # Capacity: every user keeps MAX_INFLIGHT chats queued, so batches fill;
    # 16 x 4 = MAX_QUEUE_DEPTH, so the load never triggers busy.
    "chat_flood": Workload(
        "chat_flood", users=16, window=MAX_INFLIGHT, nominal_rate=245.0,
        cache_capacity=4, durable=False, personalize_every=None,
    ),
    # The write path: 4 users (they fit the cache) each wait for their
    # previous answer; every 4th request of a user fine-tunes and every
    # request is journaled, so chats wait behind other users' fine-tunes.
    "personalize_durable": Workload(
        "personalize_durable", users=4, window=1, nominal_rate=16.5,
        cache_capacity=4, durable=True, personalize_every=4,
    ),
}


@dataclass
class Op:
    """One request of a run, in the order its user sends it."""

    index: int
    user: str
    payload: dict
    #: "warmup" (each user's first request, unmeasured), "window" (measured
    #: traffic) or "probe" (the fine-tune probe).
    phase: str = "window"

    @property
    def kind(self) -> str:
        return self.payload["op"]


@dataclass
class Plan:
    workload: Workload
    seed: int
    seconds: int
    warmup_ops: List[Op] = field(default_factory=list)
    window_ops: List[Op] = field(default_factory=list)
    probe_ops: List[Op] = field(default_factory=list)

    def rounds(self) -> List[Tuple[List[Op], List[Op]]]:
        """The window in consecutive parts, each followed by its share of the probe.

        Each part holds whole turns (every user's next requests), so each
        part is a closed loop over all users.  Without a probe the window
        is one part.
        """
        count = PROBE_ROUNDS if self.probe_ops else 1
        users = self.workload.users
        turns = len(self.window_ops) // users
        jobs = len(self.probe_ops)
        return [
            (self.window_ops[users * (turns * part // count):users * (turns * (part + 1) // count)],
             self.probe_ops[jobs * part // count:jobs * (part + 1) // count])
            for part in range(count)
        ]


def _wire(request) -> dict:
    if isinstance(request, ChatRequest):
        return {"op": "chat", "question": request.question}
    return {
        "op": "personalize",
        "dialogues": [dialogue.to_dict() for dialogue in request.dialogues],
        "finetune": request.finetune,
    }


def _user_streams(workload: Workload, count: int) -> Dict[str, List[dict]]:
    """The first ``count`` requests of every user, in that user's order.

    Content comes from ``CORPUS_SEED``, not the load seed: the users (their
    corpora, questions and annotated dialogues) are the same in every run.
    """
    config = LoadConfig(
        num_users=workload.users,
        num_requests=workload.users * count,
        seed=CORPUS_SEED,
        chat_only=workload.personalize_every is None,
        personalize_every=workload.personalize_every or 1,
    )
    while True:
        streams: Dict[str, list] = {user: [] for user in user_ids(workload.users)}
        for request in generate_load(config):
            streams[request.user_id].append(request)
        if all(len(stream) >= count for stream in streams.values()):
            return {user: [_wire(r) for r in stream[:count]] for user, stream in streams.items()}
        config = replace(config, num_requests=2 * config.num_requests)


def stream_period(workload: Workload) -> int:
    """Requests after which every user's stream repeats itself.

    A stream asks its corpus's ``CYCLE`` questions in order and hands out
    its ``CYCLE`` dialogues ``DIALOGUES`` at a time, one set every
    ``personalize_every``-th request.
    """
    every = workload.personalize_every
    if every is None:
        return CYCLE
    period = every
    while (period // every * (every - 1)) % CYCLE or (period // every * DIALOGUES) % CYCLE:
        period += every
    return period


def build_plan(workload: Workload, seed: int, seconds: int) -> Plan:
    """The exact request list of one run (deterministic per arguments).

    Every user sends the same number of requests: ``seconds`` times the
    workload's nominal rate in total, rounded up to whole stream periods
    (:func:`stream_period`), so every run asks each question and sends each
    dialogue set equally often.  The seed picks where in its question cycle
    each user starts, so seeds differ in which question is asked when, but
    not in the mix.  Personalize jobs hand out each user's dialogue sets
    from the first, whatever the seed: which dialogues a job accepts and
    how long it trains depend on the user's earlier jobs, so a fixed order
    keeps the fine-tuning work the same in every run.  Each user's first
    request (always a chat) is a sequential warm-up that creates its
    session and adapter before the measured window opens; on a chat-only
    workload the warm-up also holds each user's first
    ``PROBE_WARMUP_JOBS`` personalize jobs, and the probe its next
    ``PROBE_JOBS``.
    """
    plan = Plan(workload=workload, seed=seed, seconds=seconds)
    users = user_ids(workload.users)
    rng = np.random.default_rng([seed, 0xA11])
    repeat = stream_period(workload)
    per_user = repeat * math.ceil(seconds * workload.nominal_rate / workload.users / repeat)
    every = workload.personalize_every
    offsets = rng.integers(CYCLE, size=len(users)).tolist()
    streams = _user_streams(workload, 2 * (CYCLE + per_user + 1))
    queues: Dict[str, List[dict]] = {}
    for user, offset in zip(users, offsets):
        chats = iter([op for op in streams[user] if op["op"] == "chat"][offset:])
        jobs = iter([op for op in streams[user] if op["op"] == "personalize"])
        queues[user] = [next(jobs) if every and (position + 1) % every == 0 else next(chats)
                        for position in range(per_user + 1)]
    probe_jobs = PROBE_WARMUP_JOBS + PROBE_JOBS if every is None else 0
    probe_streams = (_user_streams(replace(workload, personalize_every=1), probe_jobs)
                     if probe_jobs else {})
    index = itertools.count()
    for user in users:
        plan.warmup_ops.append(Op(next(index), user, queues[user][0], phase="warmup"))
    # Users in turn: the order warm-up jobs and probe are sent in, and the
    # order the closed loop hands each user its own stream.
    for position in range(probe_jobs):
        for user in users:
            warmup = position < PROBE_WARMUP_JOBS
            op = Op(next(index), user, probe_streams[user][position],
                    phase="warmup" if warmup else "probe")
            (plan.warmup_ops if warmup else plan.probe_ops).append(op)
    for position in range(1, per_user + 1):
        for user in users:
            plan.window_ops.append(Op(next(index), user, queues[user][position]))
    return plan
