"""One serving node behind every serving path.

:class:`~repro.serve.runner.ServingNode` is the single assembly of adapter
store, sessions, journal and scheduler that ``run_serve``, the shard
workers and the socket front-end all build through.  These tests pin what
that buys:

* **Parity** — one load served through all seven paths gives one
  aggregate transcript digest, and every chat answer is non-empty (the
  smoke serving model, not the tiny fixture model that answers ``''``).
* **The meta fence** — a socket resume for a different seed is refused at
  every worker count.
* **Config fidelity** — ``fsync`` reaches the journal on every socket path.
* **Restart** — a shard worker's soft crash at any crash point restarts
  from its journal to the digest of a run that never crashed (a request
  journaled just before the crash is served once, not twice).
"""

import os
from dataclasses import replace

import pytest

from repro.experiments.presets import get_scale
from repro.serve import (
    CRASH_POINTS,
    FaultPlan,
    FrontendThread,
    LoadConfig,
    ServeConfig,
    ServeFrontend,
    drive_load,
    run_serve,
)
from repro.serve.frontend import normalize_entry
from repro.serve.loadgen import build_serving_llm
from repro.serve.shard import aggregate_transcript_digest, run_serve_sharded

LOAD = LoadConfig(num_users=3, num_requests=9, personalize_every=3, seed=0)


@pytest.fixture(scope="module")
def serving_env(lexicons):
    """The smoke serving model plus its pristine runtime snapshot."""
    scale = get_scale("smoke", seed=0)
    llm = build_serving_llm(scale, seed=0, lexicons=lexicons)
    llm.add_lora()
    return {"scale": scale, "llm": llm, "snapshot": llm.export_runtime_state()}


def pristine_llm(serving_env):
    serving_env["llm"].load_runtime_state(serving_env["snapshot"])
    return serving_env["llm"]


def normalized(transcript):
    """A ``run_serve`` transcript keyed by per-user sequence number."""
    seqs, entries = {}, []
    for entry in sorted(transcript, key=lambda e: e["request_id"]):
        seq = seqs.get(entry["user_id"], 0)
        seqs[entry["user_id"]] = seq + 1
        entries.append(normalize_entry(entry, seq))
    return entries


def boot(serving_env, config):
    server = FrontendThread(
        ServeFrontend(config, llm=pristine_llm(serving_env), shard_mode="thread")
    )
    host, port = server.start()
    return server, host, port


def serve_over_socket(serving_env, config):
    server, host, port = boot(serving_env, config)
    drive_load(host, port, config.load)
    return server.stop()


def test_seven_paths_serve_one_digest(serving_env, tmp_path):
    config = ServeConfig(load=LOAD, scale=serving_env["scale"])
    runs = {
        "run_serve": normalized(run_serve(config, llm=pristine_llm(serving_env)).transcript),
        "run_serve durable": normalized(
            run_serve(
                config.with_(state_dir=tmp_path / "offline"), llm=pristine_llm(serving_env)
            ).transcript
        ),
        "run_serve_sharded workers=2": run_serve_sharded(
            config.with_(workers=2), llm=pristine_llm(serving_env), mode="thread"
        ).entries,
    }
    for workers in (1, 2):
        for durable in (False, True):
            state_dir = tmp_path / f"socket-{workers}" if durable else None
            outcome = serve_over_socket(
                serving_env, config.with_(workers=workers, state_dir=state_dir)
            )
            runs[f"ServeFrontend workers={workers} durable={durable}"] = outcome.transcript
    digests = {name: aggregate_transcript_digest(entries) for name, entries in runs.items()}
    assert len(set(digests.values())) == 1, digests
    for name, entries in runs.items():
        assert len(entries) == LOAD.num_requests, name
        chats = [entry for entry in entries if entry["kind"] == "chat"]
        assert chats and all(entry["response"] for entry in chats), name


@pytest.mark.parametrize("workers", [1, 2])
def test_socket_resume_for_another_seed_is_refused(serving_env, tmp_path, workers):
    config = ServeConfig(
        load=LOAD, scale=serving_env["scale"], workers=workers, state_dir=tmp_path / "state"
    )
    boot(serving_env, config)[0].stop()
    other_seed = config.with_(load=replace(LOAD, seed=1), resume=True)
    with pytest.raises(RuntimeError, match="different load configuration"):
        boot(serving_env, other_seed)


@pytest.mark.parametrize("workers", [1, 2])
def test_fsync_reaches_the_journal_on_socket_paths(
    serving_env, tmp_path, monkeypatch, workers
):
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    config = ServeConfig(
        load=LoadConfig(num_users=1, num_requests=2, seed=0),
        scale=serving_env["scale"],
        workers=workers,
        state_dir=tmp_path / "state",
        fsync=True,
    )
    outcome = serve_over_socket(serving_env, config)
    assert outcome.total_requests == 2
    assert calls, "a durable fsync=True run never fsynced its journal"


SHARD_LOAD = LoadConfig(
    num_users=3,
    num_requests=9,
    personalize_every=3,
    dialogues_per_personalize=2,
    corpus_size_per_user=10,
    seed=0,
)


@pytest.fixture(scope="module")
def clean_sharded(pretrained_llm, tmp_path_factory):
    config = ServeConfig(
        load=SHARD_LOAD, workers=2, state_dir=tmp_path_factory.mktemp("clean") / "state"
    )
    return run_serve_sharded(config, llm=pretrained_llm.clone(), mode="thread")


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_sharded_soft_crash_recovers_digest_identical(
    pretrained_llm, clean_sharded, tmp_path, point
):
    config = ServeConfig(
        load=SHARD_LOAD,
        workers=2,
        state_dir=tmp_path / "state",
        fault_plan=FaultPlan(seed=0, crash_point=point, crash_at_hit=1),
    )
    outcome = run_serve_sharded(config, llm=pretrained_llm.clone(), mode="thread")
    assert outcome.restarts >= 1, point
    assert outcome.aggregate_digest == clean_sharded.aggregate_digest, point
    assert outcome.journal_digests == clean_sharded.journal_digests, point
