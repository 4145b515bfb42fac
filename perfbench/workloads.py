"""The benchmark's workloads: seeded request sets plus engine sizing.

Every workload is a list of :class:`Item` (due time, prompt, output
budget) made from ``--seed`` alone, and an :class:`EngineConfig` that is
the same for every seed.  The inputs are generated here, not by the
program's own trace module, so a change to the program can never change
what the benchmark feeds it.

- ``decode-long``: offline batch (every request due at t=0) of short,
  unshared prompts with outputs several times longer.  Decode-bound
  steady batching: the regime of the paper's memory-bound decode claim
  and of the rank8 speedup.
- ``prefix-chat``: open loop of Poisson arrivals on the virtual clock,
  four Zipf-weighted tenants each repeating a block-aligned 128-token
  prefix, short suffixes and short outputs.  One single-token request per
  tenant warms the prefix cache first, so every later admission hits the
  radix index; decode batches stay small, so the paged store's read path
  and the engine's per-step fixed cost dominate.
- ``prefill-pressure``: offline batch of unshared requests with
  log-normal prompt and output lengths and a KV pool small enough that
  admission throttling and recompute preemption fire.  Prefill dominates
  forward time and the store's allocate / evict / reseal path runs hot.
  It is not listed in ``BENCHMARK.json``: one dense plus rank8 pass takes
  about 30 s on a 2-core host, too long next to three set-ups per run, so
  it is run by name only.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field
from statistics import NormalDist
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.serving import EngineConfig

#: The served model and the fixed seed its base weights are drawn from.
MODEL = "serve-llama"
BASE_WEIGHT_SEED = 0
#: The paper's independent variable: undecomposed vs uniform rank 8.
VARIANTS: Tuple[str, ...] = ("dense", "rank8")


@dataclass(frozen=True)
class Item:
    """One request of a workload: due time (virtual s), prompt, budget."""

    due: float
    prompt: np.ndarray
    max_new_tokens: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str                      # "offline" or "open"
    engine: Dict[str, int]         # EngineConfig keyword arguments
    params: Dict[str, object]      # generator parameters (the full input spec)
    generate: Callable[..., List[Item]] = field(repr=False, compare=False)

    def engine_config(self) -> EngineConfig:
        return EngineConfig(**self.engine)

    def items(self, seed: int, vocab_size: int, **overrides) -> List[Item]:
        """The workload's requests for ``seed``; ``overrides`` replace
        generator parameters (the tests shrink ``n_requests``)."""
        params = {**self.params, **overrides}
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        return self.generate(rng, vocab_size, **params)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "loop": self.loop,
            "engine": asdict(self.engine_config()),
            "params": dict(self.params),
        }


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """The midpoints of ``n`` equal strata of (0, 1), in random order.

    Every attribute is drawn through its quantile function at these points,
    so the seed decides which request gets which value and in what order,
    while the multiset of values (and so the total work) is the same for
    every seed.  That keeps the run-to-run spread down to timing noise.
    """
    return rng.permutation((np.arange(n) + 0.5) / n)


def _uniform(rng: np.random.Generator, n: int, bounds) -> np.ndarray:
    low, high = bounds
    return low + np.floor(_strata(rng, n) * (high - low + 1)).astype(int)


def _lognormal(rng: np.random.Generator, n: int, bounds, sigma: float) -> np.ndarray:
    """Log-normal lengths with their median at the range's geometric mean,
    clamped into ``bounds``."""
    low, high = bounds
    normal = NormalDist(mu=float(np.log(np.sqrt(low * high))), sigma=sigma)
    draws = np.exp([normal.inv_cdf(float(u)) for u in _strata(rng, n)])
    return np.clip(np.round(draws), low, high).astype(int)


def _tokens(rng: np.random.Generator, vocab_size: int, n: int) -> np.ndarray:
    return rng.integers(0, vocab_size, size=int(n), dtype=np.int64)


def _offline_uniform(rng, vocab_size, n_requests, prompt_len, new_tokens) -> List[Item]:
    lengths = _uniform(rng, n_requests, prompt_len)
    budgets = _uniform(rng, n_requests, new_tokens)
    return [Item(0.0, _tokens(rng, vocab_size, length), int(budget))
            for length, budget in zip(lengths, budgets)]


def _offline_lognormal(rng, vocab_size, n_requests, prompt_len, new_tokens,
                       sigma) -> List[Item]:
    lengths = _lognormal(rng, n_requests, prompt_len, sigma)
    budgets = _lognormal(rng, n_requests, new_tokens, sigma)
    return [Item(0.0, _tokens(rng, vocab_size, length), int(budget))
            for length, budget in zip(lengths, budgets)]


def _tenant_poisson(rng, vocab_size, n_requests, rate_rps, n_tenants,
                    prefix_tokens, suffix_len, new_tokens, zipf_alpha,
                    warm_s) -> List[Item]:
    prefixes = [_tokens(rng, vocab_size, prefix_tokens) for _ in range(n_tenants)]
    # One single-token request per tenant at t=0 puts every prefix in the
    # radix index before the stream starts at ``warm_s``: the stream sees a
    # warm prefix cache.  Cold, a tenant's first request prefills its whole
    # prefix next to whatever is decoding, and how many requests that
    # stalls depends on the seed's arrival order; those few steps alone
    # set the latency tails.
    primers = [Item(0.0, np.concatenate([prefix, _tokens(rng, vocab_size, 1)]), 1)
               for prefix in prefixes]
    weights = 1.0 / np.arange(1, n_tenants + 1) ** zipf_alpha
    tenants = np.searchsorted(np.cumsum(weights / weights.sum()), _strata(rng, n_requests))
    # Exponential inter-arrival gaps: a Poisson process at ``rate_rps``.
    arrivals = warm_s + np.cumsum(-np.log1p(-_strata(rng, n_requests)) / rate_rps)
    suffixes = _uniform(rng, n_requests, suffix_len)
    budgets = _uniform(rng, n_requests, new_tokens)
    return primers + [
        Item(float(due), np.concatenate([prefixes[tenant], _tokens(rng, vocab_size, n)]),
             int(budget))
        for due, tenant, n, budget in zip(arrivals, tenants, suffixes, budgets)
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="decode-long",
            why="offline batch of short unshared prompts with long outputs: "
                "decode-bound steady batching, where rank8's speedup lives",
            loop="offline",
            engine=dict(max_batch=8, token_budget=64, n_blocks=128, block_tokens=16),
            params=dict(n_requests=100, prompt_len=(8, 16), new_tokens=(24, 40)),
            generate=_offline_uniform,
        ),
        Workload(
            name="prefix-chat",
            why="open-loop Poisson tenants sharing 128-token prefixes: radix hits, "
                "small batches, store reads and per-step fixed cost dominate",
            loop="open",
            engine=dict(max_batch=8, token_budget=64, n_blocks=128, block_tokens=16),
            params=dict(n_requests=160, rate_rps=3.0, n_tenants=4, prefix_tokens=128,
                        suffix_len=(4, 12), new_tokens=(4, 12), zipf_alpha=1.0,
                        warm_s=2.0),
            generate=_tenant_poisson,
        ),
        Workload(
            name="prefill-pressure",
            why="offline log-normal lengths on a 32-block KV pool: prefill-heavy, "
                "admission throttling and recompute preemption fire",
            loop="offline",
            engine=dict(max_batch=8, token_budget=64, n_blocks=32, block_tokens=16),
            params=dict(n_requests=100, prompt_len=(16, 160), new_tokens=(4, 48),
                        sigma=0.8),
            generate=_offline_lognormal,
        ),
    )
}
