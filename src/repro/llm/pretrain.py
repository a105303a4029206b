"""Pre-training of the generic on-device LLM.

The paper deploys a *pre-trained* Llama-3B and personalizes it on-device.
Our substitute model must likewise arrive on the device already knowing
general language — the question patterns, the ``question <sep> response``
dialogue format, the generic answer style and the general assistant phrase
inventory — but *not* the specific user's preferred style.  This module
trains the base transformer on exactly that before any personalization
experiment starts.

Pre-training uses the same dialogue format as fine-tuning and inference
(``<bos> question <sep> response <eos>``) so that the deployed model can
already respond to a ``question <sep>`` prompt; the *content* of the
responses is generic or drawn from randomly sampled decoy personas, never
from the experiment user's persona.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dialogue import DialogueCorpus
from repro.data.persona import UserPersona, generic_model_response
from repro.llm.model import OnDeviceLLM, OnDeviceLLMConfig
from repro.nn.functional import cross_entropy
from repro.nn.optim import Adam, clip_grad_norm
from repro.utils.config import require_positive
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator

_IGNORE = -100

_LOGGER = get_logger("llm.pretrain")

#: Version of the base-model cache entry; part of every cache key, so bumping
#: it orphans all existing entries.
BASE_CACHE_FORMAT_VERSION = 1


@dataclass
class PretrainConfig:
    """Hyper-parameters of base-model pre-training."""

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 3e-3
    max_grad_norm: float = 1.0
    include_persona_inventory: bool = True
    num_decoy_personas: int = 4
    loss_on_response_only: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive("epochs", self.epochs)
        require_positive("batch_size", self.batch_size)
        require_positive("learning_rate", self.learning_rate)
        require_positive("num_decoy_personas", self.num_decoy_personas)


@dataclass
class PretrainReport:
    """Loss trajectory and timing of the pre-training run."""

    losses: List[float]
    seconds_total: float
    num_examples: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else 0.0

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else 0.0


def pretraining_pairs(
    corpus: DialogueCorpus,
    include_persona_inventory: bool = True,
    num_decoy_personas: int = 4,
    rng=None,
) -> List[Tuple[str, str]]:
    """Build (question, response) pre-training pairs from a corpus.

    Every question is paired with a *generic* (non-personalized) response;
    when ``include_persona_inventory`` is on, each question is additionally
    paired with a response styled by one of a handful of randomly drawn decoy
    personas.  The decoys expose the assistant phrase inventory (as a
    web-pretrained LLM would have seen) while the experiment user's specific
    persona combination remains unseen.
    """
    generator = as_generator(rng)
    pairs: List[Tuple[str, str]] = []
    domains = corpus.domains()
    decoys: List[UserPersona] = []
    if include_persona_inventory and domains:
        decoys = [
            UserPersona.sample(domains, rng=generator, name=f"decoy-{index}")
            for index in range(num_decoy_personas)
        ]
    for dialogue in corpus:
        pairs.append(
            (dialogue.question, generic_model_response(dialogue.question, rng=generator))
        )
        if decoys:
            decoy = decoys[int(generator.integers(len(decoys)))]
            pairs.append(
                (dialogue.question, decoy.preferred_response(dialogue.question, dialogue.domain))
            )
    return pairs


def pretraining_texts(
    corpus: DialogueCorpus,
    include_persona_inventory: bool = True,
    rng=None,
) -> List[str]:
    """Flat-text view of :func:`pretraining_pairs` (kept for vocabulary building)."""
    pairs = pretraining_pairs(
        corpus, include_persona_inventory=include_persona_inventory, rng=rng
    )
    return [f"{question} {response}" for question, response in pairs]


def _encode_pair_example(
    llm: OnDeviceLLM, question: str, response: str, loss_on_response_only: bool
) -> Tuple[List[int], List[int]]:
    """Token ids and next-token labels for one dialogue-format example."""
    ids = llm.tokenizer.encode_pair(question, response, max_length=llm.config.max_seq_len)
    labels = ids[1:] + [_IGNORE]
    if loss_on_response_only:
        sep_id = llm.tokenizer.vocabulary.sep_id
        try:
            sep_position = ids.index(sep_id)
        except ValueError:
            sep_position = 0
        labels = [
            _IGNORE if position < sep_position else label
            for position, label in enumerate(labels)
        ]
    return ids, labels


def pretrain(
    llm: OnDeviceLLM,
    pairs: Sequence[Tuple[str, str]],
    config: Optional[PretrainConfig] = None,
) -> PretrainReport:
    """Train the base model on (question, response) pairs in dialogue format."""
    config = config or PretrainConfig()
    rng = as_generator(config.seed)
    examples = [
        _encode_pair_example(llm, question, response, config.loss_on_response_only)
        for question, response in pairs
    ]
    examples = [
        (ids, labels)
        for ids, labels in examples
        if len(ids) >= 2 and any(label != _IGNORE for label in labels)
    ]
    if not examples:
        raise ValueError("pretrain received no usable (question, response) pairs")

    parameters = [p for p in llm.model.parameters() if p.requires_grad]
    optimizer = Adam(parameters, lr=config.learning_rate)
    pad_id = llm.tokenizer.vocabulary.pad_id

    start = time.perf_counter()
    losses: List[float] = []
    llm.model.train()
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_losses: List[float] = []
        for batch_start in range(0, len(examples), config.batch_size):
            chosen = [examples[int(i)] for i in order[batch_start : batch_start + config.batch_size]]
            max_len = max(len(ids) for ids, _ in chosen)
            batch = np.full((len(chosen), max_len), pad_id, dtype=np.int64)
            labels = np.full((len(chosen), max_len), _IGNORE, dtype=np.int64)
            mask = np.zeros((len(chosen), max_len), dtype=bool)
            for row, (ids, label_ids) in enumerate(chosen):
                batch[row, : len(ids)] = ids
                labels[row, : len(label_ids)] = label_ids
                mask[row, : len(ids)] = True
            llm.model.zero_grad()
            logits = llm.model(batch, attention_mask=mask)
            loss = cross_entropy(logits, labels, ignore_index=_IGNORE)
            loss.backward()
            clip_grad_norm(parameters, config.max_grad_norm)
            optimizer.step()
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)))
    llm.model.eval()
    return PretrainReport(
        losses=losses,
        seconds_total=time.perf_counter() - start,
        num_examples=len(examples),
    )


def base_cache_dir() -> Path:
    """Directory of the base-model cache: ``$XDG_CACHE_HOME/repro/base``.

    ``XDG_CACHE_HOME`` defaults to ``~/.cache``.  Entries are content
    addressed, so the directory may be shared by any number of checkouts
    and concurrent processes, and deleting it only costs a re-pretrain.
    """
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro" / "base"


@functools.lru_cache(maxsize=1)
def _source_digest() -> str:
    """sha256 over every ``.py`` source of the ``repro`` package."""
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(path.relative_to(package_root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def base_cache_key(
    llm_config: OnDeviceLLMConfig,
    pretrain_config: PretrainConfig,
    vocabulary_tokens: Sequence[str],
    pairs: Sequence[Tuple[str, str]],
) -> str:
    """Content address of the base model these inputs pre-train to.

    The key covers everything the trained weights depend on: the entry
    format version, the numpy version, the ``repro`` sources (any code edit
    invalidates every entry), both configs, the vocabulary and the
    pre-training pairs — so the dataset, corpus seed and scale enter
    through the pairs and the configs.
    """
    payload = json.dumps(
        [
            BASE_CACHE_FORMAT_VERSION,
            np.__version__,
            _source_digest(),
            repr(llm_config),
            repr(pretrain_config),
            list(vocabulary_tokens),
            [list(pair) for pair in pairs],
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_cached_base(llm: OnDeviceLLM, path: Path, key: str) -> bool:
    """Load the entry at ``path`` into ``llm``; ``False`` on a miss.

    A missing entry is a plain miss.  An unreadable, corrupt or mismatched
    one is logged and reported as a miss, so the caller re-pretrains and
    overwrites it.
    """
    from repro.serve.adapter_codec import AdapterFormatError, open_adapter_record

    try:
        record = open_adapter_record(path)
        if record.user_id != key:
            raise AdapterFormatError(f"entry id {record.user_id[:12]!r} does not match the key")
        # Check every shape up front: a load that failed halfway would leave
        # cached tensors in the model the fallback pre-trains.
        shapes = {name: value.shape for name, value in llm.model.named_parameters()}
        if {name: value.shape for name, value in record.state.items()} != shapes:
            raise AdapterFormatError("tensor names or shapes do not match the model")
        llm.model.load_state_dict(record.state)
    except (FileNotFoundError, NotADirectoryError):
        return False
    except (OSError, ValueError) as error:
        _LOGGER.warning("ignoring base-model cache entry %s (%s); pretraining afresh", path, error)
        return False
    return True


def _store_cached_base(llm: OnDeviceLLM, path: Path, key: str) -> None:
    """Write ``llm``'s weights to ``path`` atomically; failures only log."""
    from repro.core.checkpoint import atomic_bytes_dump
    from repro.serve.adapter_codec import pack_adapter_record

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_bytes_dump(path, pack_adapter_record(key, llm.model.state_dict()))
    except OSError as error:
        _LOGGER.warning("could not write base-model cache entry %s (%s)", path, error)


def build_pretrained_llm(
    corpus: DialogueCorpus,
    llm_config: Optional[OnDeviceLLMConfig] = None,
    pretrain_config: Optional[PretrainConfig] = None,
) -> OnDeviceLLM:
    """End-to-end helper: tokenizer + model + pre-training from a corpus.

    The tokenizer's vocabulary covers the corpus text *and* the gold persona
    responses (a deployed LLM's vocabulary certainly contains everyday words
    like "friend" or "advice"), but the pre-training pairs never use the
    experiment user's specific persona.

    The trained weights are cached (see :func:`base_cache_key`): a hit loads
    them and skips :func:`pretrain`, giving weights, vocabulary and RNG
    streams bit-identical to a fresh pre-train.  A miss pre-trains and
    writes the entry before returning.
    """
    llm_config = llm_config or OnDeviceLLMConfig()
    pretrain_config = pretrain_config or PretrainConfig()
    vocabulary_texts = corpus.all_text()
    llm = OnDeviceLLM.from_texts(vocabulary_texts, config=llm_config)
    pairs = pretraining_pairs(
        corpus,
        include_persona_inventory=pretrain_config.include_persona_inventory,
        num_decoy_personas=pretrain_config.num_decoy_personas,
        rng=pretrain_config.seed,
    )
    key = base_cache_key(llm_config, pretrain_config, llm.tokenizer.vocabulary.tokens(), pairs)
    path = base_cache_dir() / f"{key}.a1"
    if _load_cached_base(llm, path, key):
        llm.model.eval()
        _LOGGER.info("base-model cache hit %s", path)
        return llm
    _LOGGER.info("base-model cache miss %s; pretraining", path)
    streams = llm.export_rng_streams()
    pretrain(llm, pairs, pretrain_config)
    # Only the weights are cached: a run whose pre-training drew from the
    # model's RNG streams (dropout) could not be restored bit-identically.
    if llm.export_rng_streams() == streams:
        _store_cached_base(llm, path, key)
    return llm
