"""Cross-user batched chat decode: segmented LoRA and the multi-user turn policy.

One chat turn decodes rows of several users, each run of same-user rows under
its own adapter (:func:`repro.nn.lora.adapter_segments`).  These tests pin
that a segmented decode equals decoding each user alone with its adapter
attached, and that the scheduler's multi-user turns keep every per-user
guarantee of the one-user-per-turn policy they replaced.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.llm.generation import GenerationConfig, generate_tokens, generate_tokens_batch
from repro.llm.model import OnDeviceLLM
from repro.nn.lora import adapter_segments, load_lora_state_dict, lora_layers, lora_state_dict
from repro.serve import ChatRequest, PersonalizeRequest, RequestScheduler
from repro.serve.errors import PermanentServingError, StoreIOError
from repro.serve.session import SessionManager
from tests.test_serve_session import make_manager

# Fixed property-test profile: the same examples on every run, bounded cost.
PROPERTY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def random_adapter(template, rng, scale=0.1):
    """A non-zero adapter state shaped like ``template``."""
    return {
        key: rng.normal(0.0, scale, size=value.shape).astype(np.float32)
        for key, value in template.items()
    }


def recording_decode(model, decode):
    """Run ``decode()`` recording every forward's last-column logits."""
    steps = []
    forward = model._forward_raw

    def record(token_ids, attention_mask, kv_cache, positions):
        logits, hidden = forward(token_ids, attention_mask, kv_cache, positions)
        steps.append(logits[:, -1, :].copy())
        return logits, hidden

    model._forward_raw = record
    try:
        ids = decode()
    finally:
        del model._forward_raw
    return ids, steps


class TestSegmentedDecode:
    @pytest.fixture(scope="class")
    def lora_llm(self, pretrained_llm):
        llm = pretrained_llm.clone()
        llm.add_lora()
        return llm

    @given(
        # Up to 12 past max_seq_len (64): long prompts prime on a slid window
        # and every later step re-primes; prompts near 64 slide mid-decode.
        lengths=st.lists(st.integers(1, 76), min_size=1, max_size=8),
        num_adapters=st.integers(1, 4),
        max_new_tokens=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[70], num_adapters=1, max_new_tokens=6, seed=0)
    @PROPERTY_SETTINGS
    def test_segmented_decode_matches_per_user_live_adapter_decode(
        self, lora_llm, lengths, num_adapters, max_new_tokens, seed
    ):
        model = lora_llm.model
        rng = np.random.default_rng(seed)
        live = lora_state_dict(model)
        adapters = [random_adapter(live, rng) for _ in range(num_adapters)]
        # Rows of one user are contiguous, users in random order.
        owners = sorted(rng.integers(0, num_adapters, size=len(lengths)).tolist())
        prompts = [
            rng.integers(1, model.config.vocab_size, size=length).tolist()
            for length in lengths
        ]
        config = GenerationConfig(max_new_tokens=max_new_tokens, greedy=True)

        def segmented():
            with adapter_segments(model, [adapters[owner] for owner in owners]):
                return generate_tokens_batch(model, prompts, config, pad_token_id=0)

        ids, steps = recording_decode(model, segmented)
        # The live adapter is neither read nor written by a segmented decode.
        for key, value in lora_state_dict(model).items():
            np.testing.assert_array_equal(value, live[key])
        assert all(layer.segments is None for layer in lora_layers(model))

        try:
            for owner in sorted(set(owners)):
                rows = [row for row, row_owner in enumerate(owners) if row_owner == owner]
                load_lora_state_dict(model, adapters[owner])
                alone, alone_steps = recording_decode(
                    model,
                    lambda: generate_tokens_batch(
                        model, [prompts[row] for row in rows], config, pad_token_id=0
                    ),
                )
                assert [ids[row] for row in rows] == alone
                assert len(alone_steps) == len(steps)
                for step, alone_step in zip(steps, alone_steps):
                    np.testing.assert_allclose(step[rows], alone_step, atol=1e-5)
            # B = 1 through the single-row fused step (``project_row``).
            load_lora_state_dict(model, adapters[owners[0]])
            expected = generate_tokens(model, prompts[0], config)
        finally:
            load_lora_state_dict(model, live)
        with adapter_segments(model, [adapters[owners[0]]]):
            assert generate_tokens(model, prompts[0], config) == expected

    def test_rejects_a_mismatched_adapter(self, lora_llm):
        state = lora_state_dict(lora_llm.model)
        state.pop(next(iter(state)))
        with pytest.raises(ValueError, match="do not match"):
            with adapter_segments(lora_llm.model, [state]):
                pass
        with pytest.raises(ValueError, match="adapters"):
            lora_llm.respond_batch(["q one", "q two"], adapters=[state])

    def test_respond_batch_segments_equal_attached_adapters(self, lora_llm):
        rng = np.random.default_rng(3)
        live = lora_state_dict(lora_llm.model)
        first, second = random_adapter(live, rng), random_adapter(live, rng)
        questions = ["what about the dose", "my knee aches", "i feel dizzy"]
        config = GenerationConfig(max_new_tokens=8, greedy=True)
        expected = []
        try:
            for state, question in zip((first, first, second), questions):
                lora_llm.load_adapter_state(state)
                expected += lora_llm.respond_batch([question], generation=config)
        finally:
            lora_llm.load_adapter_state(live)
        mixed = lora_llm.respond_batch(
            questions, generation=config, adapters=[first, first, second]
        )
        assert mixed == expected


def seeded_manager(llm, directory, users):
    """A session manager whose users start from distinct non-zero adapters.

    The adapters are strong enough that each user's greedy answers differ
    from the base model's (and from each other's), so a row decoded under
    the wrong adapter shows in the transcript.
    """
    manager = make_manager(llm, directory)
    template = llm.export_adapter_state()
    for user in users:
        rng = np.random.default_rng(list(user.encode()))
        manager.store.put(user, random_adapter(template, rng, scale=0.3))
    return manager


@pytest.fixture(scope="module")
def serving_llm(pretrained_llm):
    """A LoRA-injected clone every scheduler test copies before mutating."""
    llm = pretrained_llm.clone()
    llm.add_lora()
    return llm


GREEDY = GenerationConfig(max_new_tokens=6, greedy=True)


def serve(llm, directory, users, requests, max_batch_size, active=None):
    manager = seeded_manager(llm.clone(), directory, users)
    if active is not None:
        manager.attach(active)
    scheduler = RequestScheduler(manager, max_batch_size=max_batch_size, generation=GREEDY)
    scheduler.submit_many(requests)
    report = scheduler.run()
    return scheduler, report


class TestMultiUserTurnPolicy:
    @given(
        plan=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5)), min_size=1, max_size=14
        ),
        max_batch_size=st.integers(1, 5),
    )
    # user-0's chat fills the turn up to its own fine-tune job; the turn then
    # passes over user-1's job and takes user-2's chat.
    @example(plan=[(0, 1), (0, 0), (1, 0), (2, 1)], max_batch_size=4)
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    def test_turns_keep_per_user_order_fairness_and_transcript(
        self, serving_llm, med_corpus, tmp_path_factory, plan, max_batch_size
    ):
        """Each plan item is ``(user, kind)``: kind 0 is a fine-tune job."""
        dialogues = med_corpus.dialogues()
        users = [f"user-{index}" for index in range(4)]
        requests = []
        for index, (user, kind) in enumerate(plan):
            if kind == 0:
                requests.append(
                    PersonalizeRequest(
                        user_id=users[user],
                        dialogues=tuple(dialogues[2 * index : 2 * index + 2]),
                    )
                )
            else:
                requests.append(
                    ChatRequest(user_id=users[user], question=dialogues[index].question)
                )
        scheduler, report = serve(
            serving_llm, tmp_path_factory.mktemp("batched"), users, requests, max_batch_size
        )
        assert report.total_requests == len(requests)
        submitted = {}
        for index, request in enumerate(requests):
            submitted.setdefault(request.user_id, []).append(index)
        ring = list(submitted)  # users in order of first submission
        served = {user: [] for user in ring}

        def head(user):
            """The user's next unserved request (None once drained)."""
            done = len(served[user])
            return requests[submitted[user][done]] if done < len(submitted[user]) else None

        for position, turn in enumerate(scheduler.turns):
            assert 1 <= turn.batch_size <= max_batch_size
            if turn.kind == "personalize":
                assert turn.batch_size == 1
            else:
                assert all(isinstance(requests[i], ChatRequest) for i in turn.request_ids)
                # One contiguous segment per user.
                runs = [
                    user
                    for row, user in enumerate(turn.request_users)
                    if row == 0 or turn.request_users[row - 1] != user
                ]
                assert len(runs) == len(set(runs))
                # The cursor never skips pending work: every pending user
                # from the turn's first to its last user in ring order is
                # taken unless its queue head is a fine-tune job, and the
                # first job passed over is the next turn.
                start = ring.index(turn.user_ids[0])
                order = ring[start:] + ring[:start]
                last = max(order.index(user) for user in turn.user_ids)
                passed = [
                    user
                    for user in order[:last]
                    if head(user) is not None and user not in turn.user_ids
                ]
                assert all(isinstance(head(user), PersonalizeRequest) for user in passed)
                if passed:
                    assert scheduler.turns[position + 1].user_ids == [passed[0]]
            # Every user with pending work is served within one ring pass.
            waiting = [user for user in ring if head(user) is not None]
            window = scheduler.turns[position : position + len(waiting)]
            for user in waiting:
                assert any(user in later.user_ids for later in window)
            for request_id, user in zip(turn.request_ids, turn.request_users):
                served[user].append(request_id)
        # Per-user FIFO: in particular no chat overtakes its user's fine-tune.
        assert served == submitted
        assert report.per_user == {
            user: {
                "chat": sum(isinstance(requests[i], ChatRequest) for i in ids),
                "personalize": sum(isinstance(requests[i], PersonalizeRequest) for i in ids),
            }
            for user, ids in submitted.items()
        }

        sequential, _ = serve(serving_llm, tmp_path_factory.mktemp("one"), users, requests, 1)

        def by_id(transcript):
            return sorted(transcript, key=lambda entry: entry["request_id"])

        assert by_id(scheduler.transcript) == by_id(sequential.transcript)

    def test_hundred_users_fill_every_turn(self, serving_llm, tmp_path, monkeypatch):
        calls = []
        respond_batch = OnDeviceLLM.respond_batch

        def counting(self, questions, *args, **kwargs):
            calls.append(len(questions))
            return respond_batch(self, questions, *args, **kwargs)

        monkeypatch.setattr(OnDeviceLLM, "respond_batch", counting)
        users = [f"user-{index:03d}" for index in range(100)]
        manager = make_manager(serving_llm.clone(), tmp_path)
        scheduler = RequestScheduler(
            manager, max_batch_size=8, generation=GenerationConfig(max_new_tokens=2)
        )
        for round_ in range(2):
            for user in users:
                scheduler.submit(ChatRequest(user_id=user, question=f"q{round_}"))
        report = scheduler.run()
        assert report.num_turns == 25
        assert [turn.batch_size for turn in scheduler.turns] == [8] * 25
        assert calls == [8] * 25
        assert report.num_users == 100
        assert all(len(users_) == 4 for users_ in report.turn_users)

    @pytest.mark.parametrize(
        "error, kind", [(PermanentServingError, "dead_letter"), (StoreIOError, "degraded")]
    )
    def test_failing_user_sharing_a_turn_leaves_the_other_user_intact(
        self, serving_llm, med_corpus, tmp_path, monkeypatch, error, kind
    ):
        """A poisoned user's rows dead-letter and an unreachable user's rows
        decode as a blank segment; the healthy user's responses equal a
        solo run either way."""
        questions = [dialogue.question for dialogue in med_corpus.dialogues()[:3]]
        healthy = [ChatRequest(user_id="healthy", question=q) for q in questions]
        solo, _ = serve(serving_llm, tmp_path / "solo", ["healthy"], healthy, 8)

        real_fetch = SessionManager.fetch_adapter

        def failing_fetch(self, user_id):
            if user_id == "failing":
                raise error("injected")
            return real_fetch(self, user_id)

        monkeypatch.setattr(SessionManager, "fetch_adapter", failing_fetch)
        mixed = [ChatRequest(user_id="failing", question=q) for q in questions] + healthy
        # "healthy" is attached, so the live LoRA tensors hold its adapter:
        # the blank segment must not read them.
        scheduler, report = serve(
            serving_llm, tmp_path / "mixed", ["healthy"], mixed, 8, active="healthy"
        )
        assert report.turn_users == [["failing", "healthy"]]

        def answers(transcript, user):
            return [
                (entry["question"], entry["response"])
                for entry in transcript
                if entry["user_id"] == user
            ]

        assert answers(scheduler.transcript, "healthy") == answers(solo.transcript, "healthy")
        assert all(response for _, response in answers(solo.transcript, "healthy"))
        failing = [entry for entry in scheduler.transcript if entry["user_id"] == "failing"]
        assert len(failing) == len(questions)
        if kind == "dead_letter":
            assert all(entry.get("dead_letter") for entry in failing)
            assert report.dead_letter_requests == len(questions)
        else:
            assert all(entry.get("degraded") for entry in failing)
            assert report.degraded_chat_requests == len(questions)
            assert report.dead_letter_requests == 0
            # The blank segment answers like the base model (``serving_llm``'s
            # own adapter is the freshly injected blank one).
            expected = serving_llm.respond_batch(questions, generation=GREEDY)
            assert [entry["response"] for entry in failing] == expected


def test_active_user_chats_under_the_live_adapter(serving_llm, med_corpus, tmp_path):
    """The attached user's live adapter may hold a round the store has not
    accepted yet (a failed write-back leaves it dirty): chats decode under
    the live tensors, not the stored copy."""
    manager = seeded_manager(serving_llm.clone(), tmp_path, ["user-1"])
    manager.attach("user-1")
    live = random_adapter(manager.llm.export_adapter_state(), np.random.default_rng(7), 0.3)
    manager.llm.load_adapter_state(live)
    questions = [dialogue.question for dialogue in med_corpus.dialogues()[:4]]
    answers = manager.respond("user-1", questions, generation=GREEDY)
    assert answers == manager.llm.respond_batch(questions, generation=GREEDY)
    stored = manager.store.get("user-1")
    assert answers != manager.llm.respond_batch(
        questions, generation=GREEDY, adapters=[stored] * len(questions)
    )
