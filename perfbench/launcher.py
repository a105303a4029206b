"""Run ``repro`` with spans recorded around calls into each serving layer.

Usage (from the repository root)::

    python3 perfbench/launcher.py --spans OUT.json --summary OUT.summary.json serve ...

The launcher wraps public functions of the serving stack (see
:func:`install`) before handing the remaining arguments to
:func:`repro.cli.main`, so the program itself is unchanged.  Each wrapped
call becomes a span; spans nest through a thread-local stack (the event
loop thread runs the frame codec, the scheduler thread everything else),
and a span's self time is its duration minus that of its child spans.
Aggregates are kept per thread while serving and written at exit: a
Chrome trace-event file (``--spans``, opens in Perfetto) and a summary of
call counts, seconds and the counts behind the per-layer ratios
(``--summary``), which :func:`layer_metrics` reduces to named metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Spans exported to the Chrome trace file; aggregates cover every call.
EVENT_LIMIT = 200_000


class _ThreadState:
    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        #: Open spans: [child_seconds, name, span_id].
        self.stack: List[list] = []
        #: name -> [calls, seconds, self_seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        #: CPU seconds this thread spent inside outermost spans, by name.
        self.root_cpu: Dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._span_ids = itertools.count(1)
        self.events: list = []
        self.dropped_events = 0
        self.bridge_waits: List[float] = []
        self._enqueued: Dict[int, float] = {}
        self.serve_started_cpu: float = 0.0

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def parent_name(self) -> str:
        stack = self.state().stack
        return stack[-1][1] if stack else ""

    def within(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.state().stack)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.state().counts[name] += amount

    def call(self, name: str, function, *args, **kwargs):
        state = self.state()
        stack = state.stack
        span_id = next(self._span_ids)
        parent_id = stack[-1][2] if stack else 0
        root = not stack
        frame = [0.0, name, span_id]
        stack.append(frame)
        cpu_start = time.thread_time() if root else 0.0
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            else:
                state.root_cpu[name] += time.thread_time() - cpu_start
            record = state.spans[name]
            record[0] += 1
            record[1] += duration
            record[2] += duration - frame[0]
            if len(self.events) < EVENT_LIMIT:
                self.events.append(
                    (name, state.thread_id, start, duration, span_id, parent_id)
                )
            else:
                self.dropped_events += 1

    # -- bridge wait: enqueue on the loop thread, submit on the worker -- #
    def enqueued(self, request) -> None:
        self._enqueued[id(request)] = time.perf_counter()

    def submitted(self, request) -> None:
        start = self._enqueued.pop(id(request), None)
        if start is not None:
            self.bridge_waits.append(time.perf_counter() - start)

    def summary(self, serve_cpu_seconds: float) -> dict:
        spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        counts: Dict[str, float] = defaultdict(float)
        root_cpu: Dict[str, float] = defaultdict(float)
        for state in self._threads:
            for name, seconds in state.root_cpu.items():
                root_cpu[name] += seconds
            for name, (calls, seconds, self_seconds) in state.spans.items():
                merged = spans[name]
                merged[0] += calls
                merged[1] += seconds
                merged[2] += self_seconds
            for name, amount in state.counts.items():
                counts[name] += amount
        return {
            "spans": {
                name: {"calls": int(calls), "s": seconds, "self_s": self_seconds}
                for name, (calls, seconds, self_seconds) in sorted(spans.items())
            },
            "counts": dict(sorted(counts.items())),
            "bridge_waits_s": self.bridge_waits,
            "root_cpu_s": dict(sorted(root_cpu.items())),
            "serve_cpu_s": serve_cpu_seconds,
            "exported_events": len(self.events),
            "dropped_events": self.dropped_events,
        }

    def chrome_trace(self) -> dict:
        origin = min((event[2] for event in self.events), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped_events},
            "traceEvents": [
                {
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": thread_id,
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "args": {"span": span_id, "parent": parent_id},
                }
                for name, thread_id, start, duration, span_id, parent_id in self.events
            ],
        }


def _wrap(owner, attribute: str, make_wrapper) -> None:
    original = getattr(owner, attribute)
    setattr(owner, attribute, functools.wraps(original)(make_wrapper(original)))


def _span(tracer: Tracer, name: str):
    def make(original):
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)
        return wrapper
    return make


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point (see the module docstring)."""
    import repro.serve.frontend as frontend
    from repro.core.checkpoint import CheckpointManager
    from repro.core.engine import PipelineEngine
    from repro.core.synthesis import DataSynthesizer
    from repro.llm.model import OnDeviceLLM
    from repro.nn.optim import AdamW
    from repro.nn.tensor import is_grad_enabled
    from repro.nn.transformer import TransformerLM
    from repro.serve.adapter_store import LoRAAdapterStore
    from repro.serve.journal import RequestJournal
    from repro.serve.scheduler import RequestScheduler
    from repro.serve.session import SessionManager

    # ``repro.llm`` re-exports the function under the submodule's name.
    pretrain_module = importlib.import_module("repro.llm.pretrain")

    def after_pretrain(original):
        def wrapper(*args, **kwargs):
            try:
                return tracer.call("pretrain", original, *args, **kwargs)
            finally:
                tracer.serve_started_cpu = time.process_time()
        return wrapper

    _wrap(pretrain_module, "pretrain", after_pretrain)
    _wrap(frontend, "decode_frame", _span(tracer, "frontend.decode_frame"))
    _wrap(frontend, "encode_frame", _span(tracer, "frontend.encode_frame"))

    def enqueue(original):
        def wrapper(self, request, deliver):
            tracer.enqueued(request)
            return original(self, request, deliver)
        return wrapper

    def submit(original):
        def wrapper(self, request, *args, **kwargs):
            tracer.submitted(request)
            return tracer.call("scheduler.submit", original, self, request, *args, **kwargs)
        return wrapper

    _wrap(frontend.SchedulerBridge, "enqueue", enqueue)
    _wrap(RequestScheduler, "submit", submit)
    _wrap(RequestScheduler, "run", _span(tracer, "scheduler.run"))

    def attach(original):
        def wrapper(self, user_id):
            if self.active_user != user_id:
                tracer.count("session.attach.swaps")
            return tracer.call("session.attach", original, self, user_id)
        return wrapper

    def respond(original):
        def wrapper(self, user_id, questions, *args, **kwargs):
            tracer.count("session.respond.rows", len(questions))
            return tracer.call("session.respond", original, self, user_id, questions,
                               *args, **kwargs)
        return wrapper

    _wrap(SessionManager, "attach", attach)
    _wrap(SessionManager, "respond", respond)
    _wrap(SessionManager, "personalize", _span(tracer, "session.personalize"))
    _wrap(SessionManager, "checkpoint_session", _span(tracer, "session.checkpoint_session"))

    def store_call(name):
        def make(original):
            def wrapper(self, *args, **kwargs):
                before = set(self.cached_users)
                if name == "adapter_store.get":
                    tracer.count("adapter_store.get.hits", float(args[0] in before))
                try:
                    return tracer.call(name, original, self, *args, **kwargs)
                finally:
                    tracer.count("adapter_store.evictions",
                                 len(before - set(self.cached_users)))
            return wrapper
        return make

    for method in ("get", "put", "flush"):
        _wrap(LoRAAdapterStore, method, store_call(f"adapter_store.{method}"))
    _wrap(RequestJournal, "append", _span(tracer, "journal.append"))
    _wrap(CheckpointManager, "save", _span(tracer, "checkpoint.save"))

    def select(original):
        def wrapper(self, dialogue):
            decision = tracer.call("engine.select", original, self, dialogue)
            tracer.count("engine.select.accepted", float(decision.accepted))
            return decision
        return wrapper

    def sanity(original):
        def wrapper(self, *args, **kwargs):
            passed = original(self, *args, **kwargs)
            tracer.count("engine.synthesize.candidates")
            tracer.count("engine.synthesize.passed", float(passed))
            return passed
        return wrapper

    _wrap(PipelineEngine, "select", select)
    _wrap(PipelineEngine, "annotate", _span(tracer, "engine.annotate"))
    _wrap(PipelineEngine, "synthesize", _span(tracer, "engine.synthesize"))
    _wrap(PipelineEngine, "finetune", _span(tracer, "engine.finetune"))
    _wrap(DataSynthesizer, "passes_sanity_check", sanity)

    def adam_step(original):
        def wrapper(self):
            tracer.count("finetune.steps")
            return original(self)
        return wrapper

    _wrap(AdamW, "step", adam_step)

    def respond_batch(original):
        def wrapper(self, questions, *args, **kwargs):
            tracer.count("model.respond_batch.rows", len(questions))
            return tracer.call("model.respond_batch", original, self, questions,
                               *args, **kwargs)
        return wrapper

    _wrap(OnDeviceLLM, "respond_batch", respond_batch)
    _wrap(OnDeviceLLM, "token_embeddings", _span(tracer, "model.token_embeddings"))

    def forward(original):
        # Inference forwards are classified only under respond_batch (prompt
        # prefill vs one-token decode); training forwards only inside a
        # fine-tune round, so base-model pretraining stays in ``pretrain``.
        def wrapper(self, token_ids, *args, **kwargs):
            if is_grad_enabled():
                if tracer.within("engine.finetune"):
                    return tracer.call("transformer.train_forward", original, self,
                                       token_ids, *args, **kwargs)
            elif tracer.parent_name() == "model.respond_batch":
                rows, width = token_ids.shape
                if width > 1:
                    return tracer.call("transformer.prefill", original, self,
                                       token_ids, *args, **kwargs)
                tracer.count("transformer.decode.rows", rows)
                return tracer.call("transformer.decode", original, self,
                                   token_ids, *args, **kwargs)
            return original(self, token_ids, *args, **kwargs)
        return wrapper

    _wrap(TransformerLM, "forward", forward)


#: Spans that run on behalf of set-up, not serving (excluded from coverage).
SETUP_SPANS = ("pretrain",)


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(summary: dict) -> Dict[str, float]:
    """The named per-layer metrics of one traced run (values only)."""
    spans = summary["spans"]
    counts = summary["counts"]

    def span(name: str, field: str = "s") -> float:
        record = spans.get(name)
        return float(record[field]) if record else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    decode_rows = counts.get("transformer.decode.rows", 0.0)
    steps = counts.get("finetune.steps", 0.0)
    metrics = {
        "pretrain.s": span("pretrain"),
        "frontend.decode_frame.calls": span("frontend.decode_frame", "calls"),
        "frontend.decode_frame.s": span("frontend.decode_frame"),
        "frontend.encode_frame.calls": span("frontend.encode_frame", "calls"),
        "frontend.encode_frame.s": span("frontend.encode_frame"),
        "frontend.bridge_wait.p50_ms": 1e3 * _percentile(summary["bridge_waits_s"], 50),
        "scheduler.run.calls": span("scheduler.run", "calls"),
        "scheduler.run.self_s": span("scheduler.run", "self_s"),
        "scheduler.submit.self_s": span("scheduler.submit", "self_s"),
        "scheduler.batch.mean": ratio(counts.get("session.respond.rows", 0.0),
                                      span("session.respond", "calls")),
        "session.attach.calls": span("session.attach", "calls"),
        "session.attach.swaps": counts.get("session.attach.swaps", 0.0),
        "session.attach.s": span("session.attach"),
        "session.respond.self_s": span("session.respond", "self_s"),
        "session.personalize.self_s": span("session.personalize", "self_s"),
        "session.checkpoint_session.s": span("session.checkpoint_session"),
        "adapter_store.get.s": span("adapter_store.get"),
        "adapter_store.put.s": span("adapter_store.put"),
        "adapter_store.flush.s": span("adapter_store.flush"),
        "adapter_store.hit_rate": ratio(counts.get("adapter_store.get.hits", 0.0),
                                        span("adapter_store.get", "calls")),
        "adapter_store.evictions": counts.get("adapter_store.evictions", 0.0),
        "journal.append.calls": span("journal.append", "calls"),
        "journal.append.s": span("journal.append"),
        "checkpoint.save.calls": span("checkpoint.save", "calls"),
        "checkpoint.save.s": span("checkpoint.save"),
        "engine.select.s": span("engine.select"),
        "engine.annotate.s": span("engine.annotate"),
        "engine.synthesize.s": span("engine.synthesize"),
        "engine.finetune.s": span("engine.finetune"),
        "engine.select.accept_rate": ratio(counts.get("engine.select.accepted", 0.0),
                                           span("engine.select", "calls")),
        "engine.synthesize.accept_rate": ratio(
            counts.get("engine.synthesize.passed", 0.0),
            counts.get("engine.synthesize.candidates", 0.0),
        ),
        "finetune.steps": steps,
        "finetune.step_ms": 1e3 * ratio(span("engine.finetune"), steps),
        "transformer.train_forward.s": span("transformer.train_forward"),
        "model.respond_batch.calls": span("model.respond_batch", "calls"),
        "model.respond_batch.rows": counts.get("model.respond_batch.rows", 0.0),
        "model.respond_batch.self_s": span("model.respond_batch", "self_s"),
        "model.token_embeddings.calls": span("model.token_embeddings", "calls"),
        "model.token_embeddings.s": span("model.token_embeddings"),
        "transformer.prefill.calls": span("transformer.prefill", "calls"),
        "transformer.prefill.s": span("transformer.prefill"),
        "transformer.decode.calls": span("transformer.decode", "calls"),
        "transformer.decode.s": span("transformer.decode"),
        "transformer.decode.us_per_row": 1e6 * ratio(span("transformer.decode"),
                                                     decode_rows),
    }
    # Share of the server's CPU time after set-up that ran inside a traced
    # layer (thread CPU time of outermost spans; wall time would count GIL
    # waits and overlap between the two threads).
    traced_cpu = sum(
        seconds for name, seconds in summary["root_cpu_s"].items() if name not in SETUP_SPANS
    )
    metrics["trace.coverage"] = ratio(traced_cpu, summary["serve_cpu_s"])
    return metrics


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True, help="Chrome trace output")
    parser.add_argument("--summary", type=Path, required=True, help="aggregate output")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="arguments for repro")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(args.argv)
    finally:
        serve_cpu = time.process_time() - tracer.serve_started_cpu
        args.summary.write_text(json.dumps(tracer.summary(serve_cpu)) + "\n")
        args.spans.write_text(json.dumps(tracer.chrome_trace()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
