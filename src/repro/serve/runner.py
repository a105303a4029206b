"""End-to-end serving runs: one serving node, every serving path.

:class:`ServingNode` is the one assembly of a serving process: adapter
store, session manager, optional request journal and scheduler over a
shared base model, plus everything a restart needs.  Every serving path
builds through it — :func:`run_serve` (the ``repro serve`` synthetic-load
run), the socket front-end (:class:`~repro.serve.frontend.ServeFrontend`)
and each shard worker of :mod:`repro.serve.shard` — so they recover, fence
and restart identically.

With a ``state_dir`` a node is *durable*: every request is journaled
before it is served, personalize rounds commit through per-user engine
checkpoints, and a crashed run — injected soft crash, ``SIGKILL``, power
cut — resumes from the journal with at-least-once chat and exactly-once
personalize semantics (``docs/robustness.md`` walks through every crash
window).  Soft crashes (:class:`~repro.serve.faults.InjectedCrash`) are
restarted inside the same process: the base model's runtime state is
snapshotted once and restored per restart, so an in-process "reboot" serves
from bit-identical weights and RNG streams, exactly like a real one.
"""

from __future__ import annotations

import signal
import tempfile
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, TypeVar, Union

import numpy as np

from repro.core.checkpoint import CheckpointError, CheckpointManager
from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.experiments.presets import ExperimentScale
from repro.llm.generation import GenerationConfig
from repro.llm.model import OnDeviceLLM
from repro.obs import MetricsRegistry, PeriodicSnapshotter
from repro.serve.adapter_store import LoRAAdapterStore
from repro.serve.config import ServeConfig
from repro.serve.errors import TransientServingError
from repro.serve.faults import FaultInjector, InjectedCrash
from repro.serve.journal import (
    JOURNAL_FILE,
    JournalError,
    JournalReplay,
    RequestJournal,
    journal_digest,
    replay,
)
from repro.serve.loadgen import LoadConfig, build_serving_llm, generate_load
from repro.serve.scheduler import PersonalizeRequest, Request, RequestScheduler, ServeReport
from repro.serve.session import SessionManager, serving_framework_config


@dataclass
class ServeOutcome:
    """Everything one serving run produced (report + full transcript)."""

    report: ServeReport
    transcript: List[dict] = field(default_factory=list)
    adapter_dir: Optional[Path] = None
    state_dir: Optional[Path] = None
    #: Order-independent digest of everything the journal saw finish —
    #: completed ∪ replayed ∪ dead-lettered, keyed by request id.  This is
    #: the fingerprint the chaos suite compares across kill/resume runs.
    journal_digest: Optional[str] = None
    #: In-process restarts taken after injected soft crashes.
    restarts: int = 0
    #: Personalize rounds that recovery found committed but unmarked and
    #: rolled forward without re-applying (the exactly-once path).
    replayed_requests: int = 0
    faults: Optional[dict] = None
    #: Drained-state metrics snapshot (None when metrics were disabled).
    metrics: Optional[dict] = None

    @property
    def digest(self) -> str:
        """The transcript digest (determinism fingerprint of the run)."""
        return self.report.transcript_digest


def make_session_manager(
    llm: OnDeviceLLM,
    store: LoRAAdapterStore,
    scale: ExperimentScale,
    seed: int = 0,
    lexicons: Optional[LexiconCollection] = None,
    checkpoint_root: Optional[Union[str, Path]] = None,
) -> SessionManager:
    """A session manager whose per-user frameworks follow the scale preset.

    Serving-time fine-tuning rounds are capped at 4 epochs — they run between
    user turns, where the scale's full offline epoch budget would stall the
    queue.
    """

    def framework_config(user_seed: int):
        return serving_framework_config(
            seed=user_seed,
            lora=llm.lora_config,
            buffer_bins=scale.buffer_bins,
            finetune_epochs=min(4, scale.finetune_epochs),
            finetune_batch_size=scale.finetune_batch_size,
            learning_rate=scale.learning_rate,
            synthesis_per_item=scale.synthesis_per_item,
        )

    return SessionManager(
        llm,
        store,
        lexicons=lexicons or builtin_lexicons(),
        framework_config_factory=framework_config,
        seed=seed,
        checkpoint_root=checkpoint_root,
    )


def serving_llm(config: ServeConfig, lexicons: Optional[LexiconCollection] = None) -> OnDeviceLLM:
    """Pre-train (or load from the base cache) the base model ``config`` serves from."""
    return build_serving_llm(
        config.resolved_scale(),
        dataset=config.dataset,
        seed=config.seed,
        lexicons=lexicons,
        pretrain_epochs=config.pretrain_epochs,
    )


def serving_generation_config(llm: OnDeviceLLM, scale: ExperimentScale) -> GenerationConfig:
    """The chat decoding configuration of a serving run (scale-derived)."""
    return GenerationConfig(
        max_new_tokens=scale.eval_max_new_tokens,
        greedy=scale.eval_greedy,
        stop_token_id=llm.tokenizer.vocabulary.eos_id,
    )


# ---------------------------------------------------------------------- #
# recovery
# ---------------------------------------------------------------------- #
def adapter_state_from_model_section(model_section: dict) -> Dict[str, np.ndarray]:
    """Extract the LoRA adapter from a checkpoint's model runtime section.

    The full model ``state_dict`` names LoRA tensors ``<module>.lora_a`` /
    ``<module>.lora_b`` in module order, while the adapter-only format is
    ``adapter.<i>.lora_a`` / ``adapter.<i>.lora_b`` with ``i`` counting
    adapters in the same order — so pairing by suffix and position is exact.
    Recovery uses this to roll a user's adapter forward from a committed
    checkpoint without constructing (or disturbing) an engine.
    """
    adapter: Dict[str, np.ndarray] = {}
    index_a = index_b = 0
    for key, value in model_section["state_dict"].items():
        if key.endswith(".lora_a"):
            adapter[f"adapter.{index_a}.lora_a"] = np.array(value, copy=True)
            index_a += 1
        elif key.endswith(".lora_b"):
            adapter[f"adapter.{index_b}.lora_b"] = np.array(value, copy=True)
            index_b += 1
    return adapter


def restore_shared_streams(checkpoint_root: Path, llm: OnDeviceLLM) -> int:
    """Restore shared RNG streams from the latest committed checkpoint.

    The generation and dropout RNG streams live in the shared model and
    advance with *every* user's fine-tune round, so after a restart they
    must resume from where the last committed round left them — not from
    the process-start snapshot, and not from whichever user happens to be
    restored first.  The latest commit is found by the monotonic
    ``commit_seq`` each personalize commit stamps into its manifest.
    Returns the highest sequence number seen (0 when no commits exist),
    which the new scheduler continues from.
    """
    latest_seq = 0
    latest_manager: Optional[CheckpointManager] = None
    if checkpoint_root.is_dir():
        for user_dir in sorted(checkpoint_root.iterdir()):
            checkpoints = CheckpointManager(user_dir)
            if not checkpoints.exists():
                continue
            try:
                manifest = checkpoints.manifest()
            except CheckpointError:
                continue
            seq = int((manifest.get("extra") or {}).get("commit_seq", 0))
            if seq > latest_seq:
                latest_seq = seq
                latest_manager = checkpoints
    if latest_manager is not None:
        try:
            llm.load_rng_streams(latest_manager.load_state()["model"])
        except (CheckpointError, KeyError, ValueError):
            # Streams stay at the reboot snapshot; serving still works, only
            # bit-exact equivalence with the uninterrupted run is lost.
            pass
    return latest_seq


def _check_journal_meta(past: JournalReplay, load: LoadConfig) -> None:
    """Refuse to resume a journal that was written for a different workload."""
    if past.meta is None:
        return
    recorded = past.meta.get("load")
    if recorded is not None and recorded != asdict(load):
        raise JournalError(
            "journal was recorded for a different load configuration; "
            f"refusing to resume (journaled {recorded!r}, requested {asdict(load)!r})"
        )


def roll_forward(
    past: JournalReplay,
    store: LoRAAdapterStore,
    manager: SessionManager,
    journal: RequestJournal,
) -> Dict[int, dict]:
    """Finish personalize rounds that committed but were never marked done.

    A crash between the checkpoint commit and the journal's ``complete``
    record leaves a pending personalize request whose user checkpoint
    manifest carries exactly that request id in ``extra`` — proof the round
    was fully applied.  Recovery replays the *outcome* (the transcript entry
    stored in ``extra``), syncs the adapter + round fence from the
    checkpoint, and marks the request complete, all without re-applying.
    Returns the replayed entries keyed by request id.
    """
    replayed: Dict[int, dict] = {}
    for request_id in sorted(past.enqueued):
        request = past.enqueued[request_id]
        if past.is_finished(request_id) or not isinstance(request, PersonalizeRequest):
            continue
        manager_dir = manager.session_checkpoint_dir(request.user_id)
        checkpoints = CheckpointManager(manager_dir)
        if not checkpoints.exists():
            continue
        try:
            manifest = checkpoints.manifest()
        except CheckpointError:
            continue
        extra = manifest.get("extra") or {}
        if extra.get("request_id") != request_id or not extra.get("entry"):
            continue
        round_committed = int(extra.get("round", manifest.get("finetune_rounds", 0)))
        try:
            if store.get_round(request.user_id) < round_committed:
                state = checkpoints.load_state()
                store.put(
                    request.user_id,
                    adapter_state_from_model_section(state["model"]),
                    round=round_committed,
                )
                store.flush(request.user_id)
        except (CheckpointError, TransientServingError) as error:
            # Best effort only: the lazy session restore syncs the cache on
            # the user's next touch, and the checkpoint keeps the truth.
            store.health.degrade(
                f"roll-forward adapter sync for {request.user_id!r} failed: {error}"
            )
        entry = dict(extra["entry"])
        journal.record_complete([entry])
        replayed[request_id] = entry
    return replayed


# ---------------------------------------------------------------------- #
# the serving node
# ---------------------------------------------------------------------- #
T = TypeVar("T")


class ServingNode:
    """One serving process: store + sessions + journal + scheduler, restartable.

    The node owns every step between a :class:`ServeConfig` and a scheduler
    that is ready to serve:

    - the directories: adapters in ``adapter_dir`` (a temporary directory
      when unset and not durable), or, with a ``state_dir``, the journal,
      per-user checkpoints and ``<state_dir>/adapters``;
    - assembly (:meth:`start`): adapter store, session manager, journal and
      scheduler over the shared ``llm``;
    - recovery: journal replay, the dropped-record degrade, the meta record
      and the meta fence (a resume for a different workload is refused),
      committed-but-unmarked personalize rounds rolled forward, and the
      rest of the journal's pending requests resubmitted;
    - restart after an :class:`InjectedCrash` (:meth:`run`), up to
      ``max_restarts`` times, from a snapshot of the base model's runtime
      state;
    - the end (:meth:`close`): a tolerant final adapter flush and the
      journal close.

    ``journal_meta`` adds keys to the journal's meta record (shards record
    their index); the fence compares only ``config.load``.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        llm: OnDeviceLLM,
        lexicons: Optional[LexiconCollection] = None,
        metrics: Optional[MetricsRegistry] = None,
        journal_meta: Optional[dict] = None,
    ) -> None:
        plan = config.fault_plan
        self.config = config
        self.scale = config.resolved_scale()
        self.llm = llm
        self.lexicons = lexicons or builtin_lexicons()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.journal_meta = {"load": asdict(config.load), "scale": self.scale.name}
        self.journal_meta.update(journal_meta or {})
        self.faults = FaultInjector(plan) if plan is not None else None
        self.generation = serving_generation_config(llm, self.scale)
        self.journal_path: Optional[Path] = None
        self.checkpoint_root: Optional[Path] = None
        self._temporary: Optional[tempfile.TemporaryDirectory] = None
        if config.state_dir is None:
            if plan is not None and plan.crash_point is not None:
                raise ValueError("crash injection requires a state_dir to recover from")
            if config.adapter_dir is None:
                self._temporary = tempfile.TemporaryDirectory(prefix="repro-adapters-")
            self.store_dir = Path(self._temporary.name if self._temporary else config.adapter_dir)
        else:
            state = Path(config.state_dir)
            state.mkdir(parents=True, exist_ok=True)
            self.journal_path = state / JOURNAL_FILE
            self.checkpoint_root = state / "sessions"
            self.store_dir = Path(config.adapter_dir or state / "adapters")
            if self.journal_path.exists() and not config.resume:
                raise JournalError(
                    f"journal already exists at {self.journal_path}; "
                    "pass resume=True to replay it"
                )
        #: The adapter directory that outlives the node (None when temporary).
        self.adapter_dir = None if self._temporary else self.store_dir
        self.restarts = 0
        #: Personalize rounds the latest recovery rolled forward, by request
        #: id (``replayed_total`` counts those of every recovery).
        self.replayed: Dict[int, dict] = {}
        self.replayed_total = 0
        self.past = JournalReplay()
        self.store: Optional[LoRAAdapterStore] = None
        self.manager: Optional[SessionManager] = None
        self.journal: Optional[RequestJournal] = None
        self.scheduler: Optional[RequestScheduler] = None
        self._runtime_snapshot: Optional[dict] = None

    @property
    def durable(self) -> bool:
        return self.journal_path is not None

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> RequestScheduler:
        """Assemble a fresh stack and recover what the journal holds."""
        self.store = LoRAAdapterStore(
            self.store_dir,
            cache_capacity=self.config.cache_capacity,
            faults=self.faults,
            metrics=self.metrics,
        )
        self.manager = make_session_manager(
            self.llm,
            self.store,
            self.scale,
            seed=self.config.seed,
            lexicons=self.lexicons,
            checkpoint_root=self.checkpoint_root,
        )
        if self._runtime_snapshot is None:
            # Taken after the manager injected LoRA: restoring this snapshot
            # is the in-process equivalent of a reboot — same weights, same
            # RNG streams as a freshly started server.
            self._runtime_snapshot = self.llm.export_runtime_state()
        commit_seq = 0
        self.journal = None
        if self.durable:
            commit_seq = restore_shared_streams(self.checkpoint_root, self.llm)
            self.past = replay(self.journal_path)
            _check_journal_meta(self.past, self.config.load)
            self.journal = RequestJournal(
                self.journal_path, fsync=self.config.fsync, metrics=self.metrics
            )
        self.scheduler = RequestScheduler(
            self.manager,
            max_batch_size=self.config.max_batch_size,
            generation=self.generation,
            journal=self.journal,
            faults=self.faults,
            retry=self.config.retry,
            deadline_seconds=self.config.deadline_seconds,
            commit_seq_start=commit_seq,
            next_request_id_start=self.past.next_request_id,
            metrics=self.metrics,
        )
        if self.journal is not None:
            self._recover()
        return self.scheduler

    def _recover(self) -> None:
        past, journal = self.past, self.journal
        journal.observe_replay(past)
        if past.dropped_records:
            journal.health.degrade(
                f"dropped {past.dropped_records} corrupt journal record(s) on replay"
            )
        if past.meta is None:
            journal.record_meta(self.journal_meta)
        self.replayed = roll_forward(past, self.store, self.manager, journal)
        self.replayed_total += len(self.replayed)
        for request in past.pending:
            if request.request_id not in self.replayed:
                self.scheduler.submit(request, journal_record=False)

    def submit(self, request: Request) -> None:
        """Submit a request unless the journal already knows its id.

        Known ids were finished, rolled forward, or resubmitted by recovery;
        submitting one again would serve it twice.
        """
        request_id = request.request_id
        if request_id in self.past.enqueued or self.past.is_finished(request_id):
            return
        self.scheduler.submit(request)

    def run(self, serve: Callable[[RequestScheduler], T]) -> T:
        """Start, then ``serve(scheduler)``; a soft crash restarts from the journal.

        Any other failure (or giving up after ``max_restarts``) closes the
        node without the final flush and re-raises.
        """
        try:
            while True:
                try:
                    return serve(self.start())
                except InjectedCrash:
                    self.journal.close()
                    self.restarts += 1
                    self.metrics.counter("serve_restarts_total").inc()
                    if self.restarts > self.config.max_restarts:
                        raise RuntimeError(
                            f"gave up after {self.config.max_restarts} injected-crash restarts"
                        ) from None
                    self.llm.load_runtime_state(self._runtime_snapshot)
        except BaseException:
            self.close(flush=False)
            raise

    def close(self, flush: bool = True) -> None:
        """Final adapter flush, journal close, temporary-directory cleanup.

        The flush is tolerant: everything that matters for recovery is
        already durable (journal + checkpoints), so a store hiccup at the
        very end must not fail a run that served every request.
        ``flush=False`` is the failure path: adapters of a crashed boot are
        never written back.
        """
        if flush and self.manager is not None:
            try:
                self.manager.flush()
            except TransientServingError as error:
                self.store.health.degrade(f"final adapter flush failed: {error}")
        if self.journal is not None:
            self.journal.close()
        if self._temporary is not None:
            self._temporary.cleanup()


# ---------------------------------------------------------------------- #
# the entry point
# ---------------------------------------------------------------------- #
def run_serve(
    config: ServeConfig,
    *,
    llm: Optional[OnDeviceLLM] = None,
    lexicons: Optional[LexiconCollection] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ServeOutcome:
    """Serve one synthetic workload end to end; returns the outcome.

    Runtime objects are keywords: pass ``llm`` to reuse an already-built
    base model (the benchmark does this to compare policies on identical
    weights), ``lexicons`` to override the built-ins, and ``metrics`` to
    aggregate several runs into one registry.

    With ``config.adapter_dir`` unset the adapter files live in a temporary
    directory that is discarded after the run (the report keeps the store
    statistics).  With ``config.state_dir`` the run is durable; see
    :class:`ServingNode` for recovery, the resume fence and in-process
    restarts.  A hard crash (``SIGKILL``) needs a new process calling back
    with ``resume=True``.
    """
    lexicons = lexicons or builtin_lexicons()
    registry = metrics if metrics is not None else MetricsRegistry()
    if llm is None:
        llm = serving_llm(config, lexicons)
    node = ServingNode(config, llm=llm, lexicons=lexicons, metrics=registry)

    def serve(scheduler: RequestScheduler) -> ServeReport:
        for request in generate_load(config.load, lexicons=lexicons):
            node.submit(request)
        return scheduler.run()

    snapshotter: Optional[PeriodicSnapshotter] = None
    if config.metrics_enabled and config.metrics_out is not None:
        snapshotter = PeriodicSnapshotter(
            registry, config.metrics_out, config.metrics_interval_seconds
        ).start()
    restore_handlers = (
        _install_stop_handlers(node) if config.install_signal_handlers and node.durable else None
    )
    try:
        report = node.run(serve)
    finally:
        if restore_handlers is not None:
            restore_handlers()
        if snapshotter is not None:
            snapshotter.stop()
    node.close()
    return ServeOutcome(
        report=report,
        transcript=list(node.scheduler.transcript),
        adapter_dir=node.adapter_dir,
        state_dir=node.journal_path.parent if node.durable else None,
        journal_digest=journal_digest(node.journal_path) if node.durable else None,
        restarts=node.restarts,
        replayed_requests=node.replayed_total,
        faults=None if node.faults is None else node.faults.report(),
        metrics=registry.snapshot() if config.metrics_enabled else None,
    )


def _install_stop_handlers(node: ServingNode):
    """SIGINT/SIGTERM → graceful drain; returns a restore callback (or None).

    Signal handlers only work in the main thread; elsewhere (tests running
    under pytest-xdist workers, notebooks) this silently does nothing.
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    previous = {}

    def handle(signum, frame):
        if node.scheduler is not None:
            node.scheduler.request_stop()

    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handle)
    except ValueError:
        return None

    def restore() -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return restore
