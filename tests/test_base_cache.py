"""The content-addressed base-model cache behind ``build_pretrained_llm``.

A warm build must be indistinguishable from a fresh pre-train (weights,
vocabulary, RNG streams, transcript digests); every kind of unusable entry
and an unwritable cache directory must degrade to a fresh pre-train, never a
crash.
"""

import dataclasses
import importlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.synthetic import make_generator
from repro.experiments.presets import get_scale
from repro.llm.model import OnDeviceLLM
from repro.llm.pretrain import (
    PretrainConfig,
    base_cache_dir,
    base_cache_key,
    build_pretrained_llm,
    pretraining_pairs,
)
from repro.serve.adapter_codec import pack_adapter_record, unpack_adapter_record
from repro.serve.client import drive_load, fetch_metrics, request_shutdown
from repro.serve.frontend import wait_for_port_file
from repro.serve.loadgen import LoadConfig
from repro.tokenizer.word_tokenizer import WordTokenizer
from tests.conftest import TINY_LLM_CONFIG

# ``repro.llm`` re-exports the ``pretrain`` function under the submodule's name.
pretrain_module = importlib.import_module("repro.llm.pretrain")

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The committed transcript digest of ``benchmarks/BENCH_frontend.json``.
FRONTEND_DIGEST = "f32e0aeeb7db21247fa3cd05d5816c7bf23dca766da66701cb54bfeaa44283be"

PRETRAIN_CONFIG = PretrainConfig(epochs=2, batch_size=16, seed=0)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """An empty base-model cache for this test; returns the entry directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return base_cache_dir()


@pytest.fixture()
def pretrain_calls(monkeypatch):
    """Counts calls of the module-global ``pretrain`` the builder looks up."""
    calls = []
    original = pretrain_module.pretrain

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pretrain_module, "pretrain", counting)
    return calls


def build(corpus):
    return build_pretrained_llm(corpus, TINY_LLM_CONFIG, PRETRAIN_CONFIG)


def fresh_pretrain(corpus):
    """The uncached reference: exactly what the builder did before the cache."""
    llm = OnDeviceLLM.from_texts(corpus.all_text(), config=TINY_LLM_CONFIG)
    pairs = pretraining_pairs(
        corpus,
        include_persona_inventory=PRETRAIN_CONFIG.include_persona_inventory,
        num_decoy_personas=PRETRAIN_CONFIG.num_decoy_personas,
        rng=PRETRAIN_CONFIG.seed,
    )
    pretrain_module.pretrain(llm, pairs, PRETRAIN_CONFIG)
    return llm


def assert_identical(llm, reference):
    state, expected = llm.model.state_dict(), reference.model.state_dict()
    assert list(state) == list(expected)
    for name in expected:
        assert state[name].dtype == expected[name].dtype
        assert state[name].tobytes() == expected[name].tobytes(), name
    assert llm.tokenizer.vocabulary.tokens() == reference.tokenizer.vocabulary.tokens()
    assert llm.export_rng_streams() == reference.export_rng_streams()
    assert llm.model.training == reference.model.training


def only_entry(directory):
    entries = list(directory.iterdir())
    assert len(entries) == 1, entries
    return entries[0]


@pytest.fixture(scope="module")
def reference_llm(med_corpus):
    return fresh_pretrain(med_corpus)


class TestWarmEqualsFresh:
    def test_cold_then_warm_build_match_a_fresh_pretrain(
        self, med_corpus, reference_llm, cache_dir, pretrain_calls
    ):
        cold = build(med_corpus)
        assert len(pretrain_calls) == 1
        entry = only_entry(cache_dir)
        assert entry.suffix == ".a1"
        warm = build(med_corpus)
        assert len(pretrain_calls) == 1, "warm build must not pre-train"
        assert_identical(cold, reference_llm)
        assert_identical(warm, reference_llm)
        assert unpack_adapter_record(entry.read_bytes()).user_id == entry.stem

    def test_warm_model_generates_like_the_fresh_one(
        self, med_corpus, reference_llm, cache_dir
    ):
        build(med_corpus)
        warm = build(med_corpus)
        snapshot = reference_llm.export_runtime_state()
        questions = [dialogue.question for dialogue in list(med_corpus)[:3]]
        expected = reference_llm.respond_batch(questions)
        reference_llm.load_runtime_state(snapshot)
        assert warm.respond_batch(questions) == expected

    def test_dropout_pretrain_is_not_cached(self, med_corpus, cache_dir, pretrain_calls):
        """Pre-training that draws from the model's RNG streams cannot be
        restored from weights alone, so it always pre-trains."""
        config = PretrainConfig(epochs=1, batch_size=16, seed=0)
        llm_config = dataclasses.replace(TINY_LLM_CONFIG, dropout_rate=0.1)
        build_pretrained_llm(med_corpus, llm_config, config)
        build_pretrained_llm(med_corpus, llm_config, config)
        assert len(pretrain_calls) == 2
        assert not cache_dir.exists() or not any(cache_dir.iterdir())


def serving_key(dataset="meddialog", scale="smoke", seed=0, epochs=None):
    """The cache key ``build_serving_llm`` would look up for these inputs."""
    preset = get_scale(scale, seed=seed)
    corpus = make_generator(dataset, size=preset.corpus_size, seed=seed).generate()
    config = PretrainConfig(epochs=epochs or preset.pretrain_epochs, seed=seed)
    tokenizer = WordTokenizer.from_texts(
        corpus.all_text(), max_vocab_size=preset.llm.max_vocab_size
    )
    pairs = pretraining_pairs(
        corpus,
        include_persona_inventory=config.include_persona_inventory,
        num_decoy_personas=config.num_decoy_personas,
        rng=config.seed,
    )
    return base_cache_key(preset.llm, config, tokenizer.vocabulary.tokens(), pairs)


class TestCacheKey:
    def test_key_is_stable(self):
        assert serving_key() == serving_key()

    @pytest.mark.parametrize(
        "change",
        [{"seed": 1}, {"epochs": 3}, {"dataset": "alpaca"}, {"scale": "small"}],
        ids=["seed", "epochs", "dataset", "scale"],
    )
    def test_every_input_changes_the_key(self, change):
        assert serving_key(**change) != serving_key()

    def test_format_version_changes_the_key(self, monkeypatch):
        key = serving_key()
        version = pretrain_module.BASE_CACHE_FORMAT_VERSION
        monkeypatch.setattr(pretrain_module, "BASE_CACHE_FORMAT_VERSION", version + 1)
        assert serving_key() != key


def truncate(data):
    return data[: len(data) // 2]


def flip_bit(data):
    damaged = bytearray(data)
    damaged[-7] ^= 0x10
    return bytes(damaged)


def foreign_id(data):
    return pack_adapter_record("0" * 64, unpack_adapter_record(data).state)


def wrong_last_shape(data):
    record = unpack_adapter_record(data)
    state = dict(record.state)
    state[list(state)[-1]] = np.zeros(1, np.float32)
    return pack_adapter_record(record.user_id, state)


class TestUnusableEntries:
    @pytest.mark.parametrize("damage", [truncate, flip_bit, foreign_id, wrong_last_shape])
    def test_damaged_entry_falls_back_and_is_rewritten(
        self, damage, med_corpus, reference_llm, cache_dir, pretrain_calls, caplog
    ):
        build(med_corpus)
        entry = only_entry(cache_dir)
        good = entry.read_bytes()
        entry.write_bytes(damage(good))
        with caplog.at_level(logging.WARNING, logger="repro"):
            llm = build(med_corpus)
        assert len(pretrain_calls) == 2
        assert_identical(llm, reference_llm)
        assert entry.read_bytes() == good
        warnings = [record for record in caplog.records if record.levelno >= logging.WARNING]
        assert len(warnings) == 1 and "ignoring base-model cache entry" in warnings[0].message

    def test_unwritable_cache_dir_still_boots(
        self, med_corpus, reference_llm, tmp_path, monkeypatch, pretrain_calls, caplog
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with caplog.at_level(logging.WARNING, logger="repro"):
            first = build(med_corpus)
            second = build(med_corpus)
        assert len(pretrain_calls) == 2
        assert_identical(first, reference_llm)
        assert_identical(second, reference_llm)
        warnings = [record for record in caplog.records if record.levelno >= logging.WARNING]
        assert len(warnings) == 2
        assert all("could not write base-model cache entry" in w.message for w in warnings)


def serve_once(run_dir, env):
    """Boot ``repro serve --listen``, drive the frontend benchmark's chat load
    over TCP, drain; returns (client digest, server digest, server log)."""
    port_file = run_dir / "port"
    command = [
        sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0",
        "--port-file", str(port_file), "--out", str(run_dir / "out"),
        "--scale", "smoke", "--seed", "0", "--max-batch", "8",
    ]
    process = subprocess.Popen(
        command, cwd=REPO_ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        port = wait_for_port_file(port_file, timeout=120)
        load = LoadConfig(num_users=4, num_requests=32, chat_only=True, seed=0)
        outcomes = drive_load("127.0.0.1", port, load)
        assert len(outcomes) == load.num_requests
        digest = fetch_metrics("127.0.0.1", port)["transcript_digest"]
        request_shutdown("127.0.0.1", port)
        log, _ = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, log
    result = json.loads((run_dir / "out" / "serve_result.json").read_text())
    return digest, result["transcript_digest"], log


def test_cold_and_warm_server_boots_serve_identical_digests(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["XDG_CACHE_HOME"] = str(tmp_path / "xdg")
    runs = []
    for index in range(2):
        run_dir = tmp_path / f"run{index}"
        run_dir.mkdir()
        runs.append(serve_once(run_dir, env))
    (cold_client, cold_server, cold_log), (warm_client, warm_server, warm_log) = runs
    assert "base-model cache miss" in cold_log
    assert "base-model cache hit" in warm_log
    assert cold_client == cold_server == warm_client == warm_server == FRONTEND_DIGEST
