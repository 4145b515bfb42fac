"""Cross-request prefix sharing under the engine: exactness and accounting.

The paged store is only admissible if it is invisible in the output:
token-for-token identity with the unshared engine (same store, radix
index never consulted) on every trace,
at tp=1 and tp=2, with and without speculative decoding.  On top of that,
the whole point — N requests with a common P-token prefix incur exactly
one P-token prefill — is asserted via the engine's prefill-token
accounting, not just a hit-rate heuristic.
"""

import numpy as np
import pytest

from repro.serving import (
    EngineConfig,
    InferenceEngine,
    RequestState,
    TraceRequest,
    VariantRegistry,
    replay_trace,
    shared_prefix_trace,
)
from repro.serving.bench import bench_variant
from repro.serving.paged import PagedKVStore


def engine_config(**overrides):
    defaults = dict(max_batch=4, token_budget=32, n_blocks=32, block_tokens=8)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def prefix_trace(smoke_config, n=10, seed=0, rate=200.0):
    return shared_prefix_trace(
        n,
        rate_rps=rate,
        vocab_size=smoke_config.vocab_size,
        n_tenants=2,
        prefix_tokens=16,
        suffix_len=(2, 8),
        new_tokens=(2, 6),
        seed=seed,
    )


@pytest.fixture(scope="module")
def drafter(smoke_model):
    return VariantRegistry(smoke_model).get("rank8").model


def replay_with(model, trace, config, drafter_model=None):
    engine = InferenceEngine(model, config, drafter=drafter_model)
    requests = replay_trace(engine, trace, speculative=drafter_model is not None)
    return engine, requests


class TestTokenIdentity:
    """Paged output == unshared output: {tp1, tp2} x {plain, speculative}."""

    @pytest.mark.parametrize("tp", [1, 2])
    @pytest.mark.parametrize("speculative", [False, True])
    def test_identity_with_unshared_engine(
        self, smoke_model, smoke_config, drafter, tp, speculative
    ):
        trace = prefix_trace(smoke_config, seed=tp + 2 * speculative)
        drafter_model = drafter if speculative else None

        def serve(prefix_sharing):
            if tp > 1:
                from repro.parallel import ShardedLlama

                sharded = ShardedLlama(smoke_model, tp)
                try:
                    engine, requests = replay_with(
                        sharded,
                        trace,
                        engine_config(prefix_sharing=prefix_sharing),
                        drafter_model,
                    )
                    return engine.metrics, requests
                finally:
                    sharded.close()
            engine, requests = replay_with(
                smoke_model,
                trace,
                engine_config(prefix_sharing=prefix_sharing),
                drafter_model,
            )
            return engine.metrics, requests

        paged_metrics, paged = serve(prefix_sharing=True)
        _, unshared = serve(prefix_sharing=False)
        assert paged_metrics.prefix_hits > 0, "trace never exercised sharing"
        for ours, theirs in zip(paged, unshared):
            assert ours.state is theirs.state
            np.testing.assert_array_equal(ours.tokens, theirs.tokens)

    def test_exact_against_sequential_generate(self, smoke_model, smoke_config):
        trace = prefix_trace(smoke_config, seed=9)
        engine, requests = replay_with(smoke_model, trace, engine_config())
        finished = [r for r in requests if r.state is RequestState.FINISHED]
        assert finished
        for request in finished:
            np.testing.assert_array_equal(
                request.tokens,
                smoke_model.greedy_generate(
                    request.prompt, max_new_tokens=request.max_new_tokens
                ),
            )


class TestUnsharedIsIndexFree:
    """``prefix_sharing=False`` is the same allocator with no index: after a
    shared-prefix trace with a drafter, neither the verifier store nor the
    draft store of any rank ever looked up, sealed, or kept a page."""

    @pytest.mark.parametrize("tp", [1, 2])
    def test_no_index_activity_and_exact(self, smoke_model, smoke_config, drafter, tp):
        trace = prefix_trace(smoke_config, seed=4)
        model, draft_model = smoke_model, drafter
        if tp > 1:
            from repro.parallel import ShardedLlama

            model, draft_model = ShardedLlama(smoke_model, tp), ShardedLlama(drafter, tp)
        try:
            engine, requests = replay_with(
                model, trace, engine_config(prefix_sharing=False), draft_model
            )
        finally:
            if tp > 1:
                model.close()
                draft_model.close()
        for pool in (engine.pool, engine.draft_pool):
            stores = getattr(pool, "pools", [pool])
            assert len(stores) == tp
            for store in stores:
                assert store.cached_blocks == 0
                assert store.prefix_lookups == 0
                assert store.used_blocks == 0
        assert engine.metrics.prefix_lookups == 0
        assert engine.metrics.spec_drafted > 0, "drafter never ran"
        for request in requests:
            assert request.state is RequestState.FINISHED
            np.testing.assert_array_equal(
                request.tokens,
                smoke_model.greedy_generate(
                    request.prompt, max_new_tokens=request.max_new_tokens
                ),
            )


class TestPrefillAccounting:
    def test_shared_prefix_prefilled_exactly_once(self, smoke_model, smoke_config):
        """N requests, one common P-token prefix, spaced arrivals: the
        engine prefills P tokens once; every later request prefills only
        its private suffix."""
        rng = np.random.default_rng(5)
        prefix = rng.integers(0, smoke_config.vocab_size, size=16)
        trace = []
        for i in range(6):
            suffix = rng.integers(0, smoke_config.vocab_size, size=4 + i % 3)
            trace.append(
                TraceRequest(
                    arrival_time=1000.0 * i,  # strictly sequential
                    prompt=np.concatenate([prefix, suffix]),
                    max_new_tokens=3,
                )
            )
        engine, requests = replay_with(smoke_model, trace, engine_config())
        assert all(r.state is RequestState.FINISHED for r in requests)
        total_prompt = sum(r.prompt.size for r in requests)
        saved = 16 * (len(requests) - 1)
        assert engine.metrics.prefill_tokens == total_prompt - saved
        assert engine.metrics.prefill_tokens_saved == saved
        assert engine.metrics.prefix_hits == len(requests) - 1

    def test_pool_drains_after_trace(self, smoke_model, smoke_config):
        trace = prefix_trace(smoke_config, seed=3)
        engine, _ = replay_with(smoke_model, trace, engine_config())
        assert isinstance(engine.pool, PagedKVStore)
        assert engine.pool.used_blocks == 0
        assert engine.pool.cached_blocks > 0  # warm prefixes remain


class TestPressure:
    def test_preemption_with_sharing_stays_exact(self, smoke_model, smoke_config):
        trace = prefix_trace(smoke_config, n=12, seed=7, rate=1000.0)
        engine, requests = replay_with(
            smoke_model, trace, engine_config(n_blocks=6)
        )
        assert engine.metrics.preemptions > 0, "store was never under pressure"
        for request in requests:
            assert request.state is RequestState.FINISHED
            np.testing.assert_array_equal(
                request.tokens,
                smoke_model.greedy_generate(
                    request.prompt, max_new_tokens=request.max_new_tokens
                ),
            )
        assert engine.pool.used_blocks == 0

    def test_exhaustion_throttles_admission_not_crash(self, smoke_model, smoke_config):
        """An undersized store rejects or delays work; it never raises out
        of the replay loop."""
        trace = prefix_trace(smoke_config, n=10, seed=11, rate=2000.0)
        engine, requests = replay_with(
            smoke_model,
            trace,
            engine_config(n_blocks=4, max_batch=2, max_queue=2, token_budget=16),
        )
        assert all(r.done for r in requests)
        ok = [r for r in requests if r.state is RequestState.FINISHED]
        rejected = [r for r in requests if r.state is RequestState.REJECTED]
        assert ok, "nothing finished under pressure"
        assert rejected, "undersized store never throttled admission"
        assert engine.pool.used_blocks == 0


class TestBenchIntegration:
    def test_bench_variant_verifies_identity_and_reports_sharing(
        self, smoke_model, smoke_config
    ):
        trace = prefix_trace(smoke_config, n=8, seed=1)
        variant = VariantRegistry(smoke_model).get("dense")
        result = bench_variant(
            variant, trace, engine_config=engine_config(), verify_identity=True
        )
        assert result.tokens_match_unshared is True
        assert result.prefix_hits > 0
        assert result.prefill_tokens_saved > 0
        assert 0.0 < result.prefix_hit_rate <= 1.0
        assert len(result.requests) == len(trace)
        assert result.ttft_p99_s >= result.ttft_p95_s >= 0.0
