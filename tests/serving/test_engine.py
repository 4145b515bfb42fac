"""The continuous-batching engine: scheduling, admission, and correctness.

The load-bearing property: for *any* interleaving of requests — any pool
size, token budget, arrival pattern, or preemption history — every finished
request's tokens are identical to running ``greedy_generate`` on its prompt
alone.  Continuous batching must be a pure throughput optimization.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    RequestState,
    poisson_trace,
    replay_trace,
)


def small_engine(model, **overrides):
    defaults = dict(max_batch=4, token_budget=24, n_blocks=24, block_tokens=8)
    defaults.update(overrides)
    return InferenceEngine(model, EngineConfig(**defaults))


def reference_tokens(model, request):
    return model.greedy_generate(
        request.prompt,
        max_new_tokens=request.max_new_tokens,
        stop_token=request.stop_token,
    )


class TestConfigValidation:
    def test_budget_must_cover_batch(self):
        with pytest.raises(ServingError):
            EngineConfig(max_batch=8, token_budget=4)

    def test_positive_sizes(self):
        with pytest.raises(ServingError):
            EngineConfig(max_batch=0)


class TestAdmissionControl:
    def test_context_overflow_rejected(self, smoke_model, smoke_config):
        engine = small_engine(smoke_model)
        prompt = np.arange(smoke_config.max_seq_len, dtype=np.int64) % 11
        request = engine.submit(prompt, max_new_tokens=1)
        assert request.state is RequestState.REJECTED
        assert request.finish_reason == "context-overflow"

    def test_pool_too_small_rejected(self, smoke_model):
        engine = small_engine(smoke_model, n_blocks=2, block_tokens=4)
        request = engine.submit(np.arange(8), max_new_tokens=8)
        assert request.finish_reason == "exceeds-pool"

    def test_out_of_vocab_prompt_raises_before_registration(
        self, smoke_model, smoke_config
    ):
        """A bad id must not reach the embedding: it raises at submit and
        leaves the engine serving its valid co-submitted work exactly."""
        engine = small_engine(smoke_model)
        good = engine.submit(np.array([3, 5, 7]), max_new_tokens=4)
        for bad in (500, smoke_config.vocab_size, -1):
            with pytest.raises(ServingError, match="token ids"):
                engine.submit(np.array([3, bad, 7]), max_new_tokens=4)
        assert engine.n_queued == 1
        engine.run_until_idle()
        assert good.state is RequestState.FINISHED
        np.testing.assert_array_equal(good.tokens, reference_tokens(smoke_model, good))
        assert [r.request_id for r in engine.results()] == [good.request_id]
        assert engine.submit(np.array([1]), max_new_tokens=1).request_id == 1
        assert engine.pool.used_blocks == 0

    def test_queue_full_rejected(self, smoke_model):
        engine = small_engine(smoke_model, max_queue=1)
        first = engine.submit(np.arange(4), max_new_tokens=2)
        second = engine.submit(np.arange(4), max_new_tokens=2)
        assert first.state is RequestState.QUEUED
        assert second.finish_reason == "queue-full"

    def test_rejection_never_raises_and_is_terminal(self, smoke_model):
        engine = small_engine(smoke_model, n_blocks=2, block_tokens=4)
        request = engine.submit(np.arange(8), max_new_tokens=8)
        assert request.done
        assert not request.result().ok


class TestSingleRequest:
    def test_matches_sequential_generate(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.array([5, 9, 2, 7]), max_new_tokens=6)
        engine.run_until_idle()
        assert request.state is RequestState.FINISHED
        assert request.finish_reason == "max-tokens"
        np.testing.assert_array_equal(
            request.tokens, reference_tokens(smoke_model, request)
        )

    def test_stop_token_honoured(self, smoke_model):
        engine = small_engine(smoke_model)
        prompt = np.array([5, 9, 2, 7])
        reference = smoke_model.greedy_generate(prompt, 8)
        stop = int(reference[len(prompt)])  # first generated token
        request = engine.submit(prompt, max_new_tokens=8, stop_token=stop)
        engine.run_until_idle()
        assert request.finish_reason == "stop-token"
        assert request.n_generated == 1

    def test_chunked_prefill_spans_steps(self, smoke_model):
        engine = small_engine(smoke_model, max_batch=1, token_budget=4)
        request = engine.submit(np.arange(10) % 7, max_new_tokens=2)
        first = engine.step()
        assert first.prefill_tokens == 4
        assert request.n_generated == 0  # prompt not yet covered
        engine.run_until_idle()
        np.testing.assert_array_equal(
            request.tokens, reference_tokens(smoke_model, request)
        )

    def test_blocks_released_on_finish(self, smoke_model):
        engine = small_engine(smoke_model)
        engine.submit(np.arange(6), max_new_tokens=3)
        engine.run_until_idle()
        assert engine.pool.used_blocks == 0


class TestLifecycleControls:
    def test_cancel_queued_request(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.arange(4), max_new_tokens=4)
        assert engine.cancel(request.request_id)
        assert request.state is RequestState.CANCELLED
        assert not engine.has_work

    def test_cancel_running_request_frees_blocks(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.arange(4), max_new_tokens=16)
        engine.step()
        assert engine.pool.used_blocks > 0
        assert engine.cancel(request.request_id)
        assert engine.pool.used_blocks == 0
        assert not engine.cancel(request.request_id)  # already terminal

    def test_deadline_expires_queued_request(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.arange(4), max_new_tokens=4, deadline=1.0, now=0.0)
        engine.step(now=2.0)
        assert request.state is RequestState.CANCELLED
        assert request.finish_reason == "deadline"

    def test_deadline_in_future_still_runs(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.arange(4), max_new_tokens=2, deadline=1e9)
        engine.run_until_idle()
        assert request.state is RequestState.FINISHED


class TestContinuousBatching:
    def test_decode_rows_batched_together(self, smoke_model):
        engine = small_engine(smoke_model)
        for seed in range(3):
            engine.submit(np.arange(4) + seed, max_new_tokens=8)
        engine.step()  # all three prefill
        report = engine.step()
        assert report.decode_rows == 3

    def test_late_arrival_joins_running_batch(self, smoke_model):
        engine = small_engine(smoke_model)
        engine.submit(np.arange(6), max_new_tokens=10)
        engine.step()
        engine.step()
        engine.submit(np.arange(4), max_new_tokens=2)
        report = engine.step()
        assert report.decode_rows == 1 and report.prefill_rows == 1

    def test_token_budget_caps_step(self, smoke_model):
        engine = small_engine(smoke_model, max_batch=4, token_budget=10)
        for _ in range(4):
            engine.submit(np.arange(8), max_new_tokens=2)
        report = engine.step()
        assert report.prefill_tokens <= 10


class TestTokenIdentityProperty:
    """Engine output == sequential greedy_generate, for any interleaving."""

    @pytest.mark.parametrize(
        "blocks,budget,batch",
        [(24, 24, 4), (6, 24, 4), (4, 24, 4), (24, 8, 8), (5, 12, 3)],
    )
    def test_trace_replay_token_identical(
        self, smoke_model, smoke_config, blocks, budget, batch
    ):
        trace = poisson_trace(
            10,
            rate_rps=500.0,
            vocab_size=smoke_config.vocab_size,
            prompt_len=(2, 16),
            new_tokens=(1, 8),
            seed=blocks + budget,
        )
        engine = small_engine(
            smoke_model, n_blocks=blocks, token_budget=budget, max_batch=batch
        )
        requests = replay_trace(engine, trace)
        finished = [r for r in requests if r.state is RequestState.FINISHED]
        assert finished, "trace produced no finished requests"
        for request in finished:
            np.testing.assert_array_equal(
                request.tokens, reference_tokens(smoke_model, request)
            )

    def test_preemption_exercised_and_harmless(self, smoke_model, smoke_config):
        trace = poisson_trace(
            12,
            rate_rps=1000.0,
            vocab_size=smoke_config.vocab_size,
            prompt_len=(8, 16),
            new_tokens=(4, 10),
            seed=7,
        )
        engine = small_engine(smoke_model, n_blocks=5, block_tokens=8)
        requests = replay_trace(engine, trace)
        assert engine.metrics.preemptions > 0, "pool was never under pressure"
        for request in requests:
            assert request.state is RequestState.FINISHED
            np.testing.assert_array_equal(
                request.tokens, reference_tokens(smoke_model, request)
            )

    def test_results_in_submission_order(self, smoke_model, smoke_config):
        trace = poisson_trace(
            6, rate_rps=300.0, vocab_size=smoke_config.vocab_size, seed=11
        )
        engine = small_engine(smoke_model)
        replay_trace(engine, trace)
        results = engine.results()
        assert [r.request_id for r in results] == sorted(r.request_id for r in results)
        assert all(r.ok for r in results)
