"""Synthetic request traces: seeded Poisson plus production-shaped families.

The original benchmark replayed one seeded Poisson process with uniform
prompt/output lengths.  Real serving traffic is not that polite, and the
gains of the paged prefix-sharing store only show on traffic shaped like
production: tenant mixes repeating system prompts, diurnal load swings,
arrival bursts, and heavy-tailed lengths.  This module provides one
generator per family:

- ``poisson``   — the classic homogeneous baseline (uniform lengths);
- ``diurnal``   — a sinusoidally rate-modulated Poisson process (thinning),
  compressing a day-shaped load curve into the trace window;
- ``bursty``    — a two-state Markov-modulated Poisson process: quiet
  background traffic punctuated by dense bursts;
- ``heavy-tail``— Poisson arrivals with log-normal prompt/output lengths
  clamped to the model window (a few huge prompts dominate token volume);
- ``prefix``    — a shared-prefix tenant mix: every request prepends its
  tenant's fixed prompt prefix (Zipf-weighted tenant popularity), the
  regime where cross-request prefix sharing pays.

All randomness flows through **one** :class:`numpy.random.Generator`
(``rng`` param, or seeded via ``seed``), and :func:`make_trace` accepts a
plain ``(family, params)`` description — exactly what a serve-bench run
manifest records — so any trace replays bit-identically from its manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServingError


@dataclass(frozen=True)
class TraceRequest:
    """One arrival in a synthetic trace."""

    arrival_time: float
    prompt: np.ndarray
    max_new_tokens: int
    tenant: Optional[int] = None   # prefix-family tenant id (None elsewhere)
    qos: Optional[str] = None      # QoS class name (``qos_mix`` sampling)


def _resolve_rng(rng: Optional[np.random.Generator], seed: int) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng(seed)


def _check_common(n_requests: int, vocab_size: int) -> None:
    if n_requests <= 0:
        raise ServingError("n_requests must be positive")
    if vocab_size <= 0:
        raise ServingError("vocab_size must be positive")


def _check_range(name: str, bounds: Tuple[int, int]) -> None:
    low, high = bounds
    if low <= 0 or high < low:
        raise ServingError(f"{name} range must satisfy 0 < low <= high")


def _uniform_length(rng: np.random.Generator, bounds: Tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def _lognormal_length(
    rng: np.random.Generator, bounds: Tuple[int, int], sigma: float
) -> int:
    """A log-normal draw whose median sits at the range's geometric mean,
    clamped into ``bounds`` — the classic heavy-tail length model."""
    low, high = bounds
    median = float(np.sqrt(low * high))
    draw = rng.lognormal(mean=np.log(median), sigma=sigma)
    return int(min(high, max(low, round(draw))))


def _request(
    arrival: float,
    prompt_tokens: np.ndarray,
    max_new_tokens: int,
    tenant: Optional[int] = None,
) -> TraceRequest:
    return TraceRequest(
        arrival_time=float(arrival),
        prompt=np.asarray(prompt_tokens, dtype=np.int64),
        max_new_tokens=int(max_new_tokens),
        tenant=tenant,
    )


def poisson_trace(
    n_requests: int,
    rate_rps: float,
    vocab_size: int,
    prompt_len: Tuple[int, int] = (8, 32),
    new_tokens: Tuple[int, int] = (4, 16),
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[TraceRequest]:
    """A Poisson-arrival trace of ``n_requests`` random-token requests.

    ``prompt_len`` and ``new_tokens`` are inclusive ``(low, high)`` ranges.
    """
    _check_common(n_requests, vocab_size)
    if rate_rps <= 0:
        raise ServingError("rate_rps must be positive")
    _check_range("prompt_len", tuple(prompt_len))
    _check_range("new_tokens", tuple(new_tokens))
    rng = _resolve_rng(rng, seed)
    gaps = rng.exponential(scale=1.0 / rate_rps, size=n_requests)
    arrivals = np.cumsum(gaps)
    trace: List[TraceRequest] = []
    for index in range(n_requests):
        length = _uniform_length(rng, tuple(prompt_len))
        budget = _uniform_length(rng, tuple(new_tokens))
        prompt = rng.integers(0, vocab_size, size=length, dtype=np.int64)
        trace.append(_request(arrivals[index], prompt, budget))
    return trace


def diurnal_trace(
    n_requests: int,
    rate_rps: float,
    vocab_size: int,
    prompt_len: Tuple[int, int] = (8, 32),
    new_tokens: Tuple[int, int] = (4, 16),
    peak_ratio: float = 4.0,
    period_s: float = 10.0,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[TraceRequest]:
    """A nonhomogeneous Poisson process with a sinusoidal day/night curve.

    The instantaneous rate swings between ``rate_rps`` (trough) and
    ``rate_rps * peak_ratio`` (peak) with period ``period_s`` (a compressed
    "day").  Arrivals are generated by thinning a homogeneous process at
    the peak rate.
    """
    _check_common(n_requests, vocab_size)
    if rate_rps <= 0 or peak_ratio < 1.0 or period_s <= 0:
        raise ServingError("need rate_rps > 0, peak_ratio >= 1, period_s > 0")
    _check_range("prompt_len", tuple(prompt_len))
    _check_range("new_tokens", tuple(new_tokens))
    rng = _resolve_rng(rng, seed)
    peak = rate_rps * peak_ratio
    trace: List[TraceRequest] = []
    t = 0.0
    while len(trace) < n_requests:
        t += float(rng.exponential(scale=1.0 / peak))
        # rate(t) in [rate_rps, peak], trough at t=0 (cold start).
        phase = 0.5 * (1.0 - np.cos(2.0 * np.pi * t / period_s))
        rate_t = rate_rps + (peak - rate_rps) * phase
        if rng.uniform() > rate_t / peak:
            continue  # thinned
        length = _uniform_length(rng, tuple(prompt_len))
        budget = _uniform_length(rng, tuple(new_tokens))
        prompt = rng.integers(0, vocab_size, size=length, dtype=np.int64)
        trace.append(_request(t, prompt, budget))
    return trace


def bursty_trace(
    n_requests: int,
    rate_rps: float,
    vocab_size: int,
    prompt_len: Tuple[int, int] = (8, 32),
    new_tokens: Tuple[int, int] = (4, 16),
    burst_factor: float = 8.0,
    mean_burst_s: float = 0.2,
    mean_quiet_s: float = 1.0,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[TraceRequest]:
    """A two-state Markov-modulated Poisson process (quiet / burst).

    Quiet periods arrive at ``rate_rps``; bursts multiply the rate by
    ``burst_factor``.  State dwell times are exponential with the given
    means, so inter-arrival gaps are overdispersed relative to Poisson —
    the queueing regime that stresses admission control and preemption.
    """
    _check_common(n_requests, vocab_size)
    if rate_rps <= 0 or burst_factor < 1.0 or mean_burst_s <= 0 or mean_quiet_s <= 0:
        raise ServingError(
            "need rate_rps > 0, burst_factor >= 1, positive dwell times"
        )
    _check_range("prompt_len", tuple(prompt_len))
    _check_range("new_tokens", tuple(new_tokens))
    rng = _resolve_rng(rng, seed)
    trace: List[TraceRequest] = []
    t = 0.0
    bursting = False
    state_left = float(rng.exponential(scale=mean_quiet_s))
    while len(trace) < n_requests:
        rate = rate_rps * (burst_factor if bursting else 1.0)
        gap = float(rng.exponential(scale=1.0 / rate))
        while gap >= state_left:
            # Cross into the next dwell period; re-draw the residual gap
            # at the new rate (memorylessness makes this exact).
            t += state_left
            bursting = not bursting
            rate = rate_rps * (burst_factor if bursting else 1.0)
            state_left = float(
                rng.exponential(scale=mean_burst_s if bursting else mean_quiet_s)
            )
            gap = float(rng.exponential(scale=1.0 / rate))
        t += gap
        state_left -= gap
        length = _uniform_length(rng, tuple(prompt_len))
        budget = _uniform_length(rng, tuple(new_tokens))
        prompt = rng.integers(0, vocab_size, size=length, dtype=np.int64)
        trace.append(_request(t, prompt, budget))
    return trace


def heavy_tail_trace(
    n_requests: int,
    rate_rps: float,
    vocab_size: int,
    prompt_len: Tuple[int, int] = (8, 64),
    new_tokens: Tuple[int, int] = (4, 32),
    sigma: float = 0.8,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[TraceRequest]:
    """Poisson arrivals with log-normal (heavy-tailed) lengths.

    Most requests are short; a few near the ``high`` clamp dominate token
    volume — the length regime where chunked prefill and the token budget
    actually matter.
    """
    _check_common(n_requests, vocab_size)
    if rate_rps <= 0 or sigma <= 0:
        raise ServingError("rate_rps and sigma must be positive")
    _check_range("prompt_len", tuple(prompt_len))
    _check_range("new_tokens", tuple(new_tokens))
    rng = _resolve_rng(rng, seed)
    gaps = rng.exponential(scale=1.0 / rate_rps, size=n_requests)
    arrivals = np.cumsum(gaps)
    trace: List[TraceRequest] = []
    for index in range(n_requests):
        length = _lognormal_length(rng, tuple(prompt_len), sigma)
        budget = _lognormal_length(rng, tuple(new_tokens), sigma)
        prompt = rng.integers(0, vocab_size, size=length, dtype=np.int64)
        trace.append(_request(arrivals[index], prompt, budget))
    return trace


def shared_prefix_trace(
    n_requests: int,
    rate_rps: float,
    vocab_size: int,
    n_tenants: int = 4,
    prefix_tokens: int = 32,
    suffix_len: Tuple[int, int] = (4, 12),
    new_tokens: Tuple[int, int] = (4, 16),
    zipf_alpha: float = 1.0,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[TraceRequest]:
    """A multi-tenant mix where every request repeats its tenant's prefix.

    Each of ``n_tenants`` tenants owns a fixed random ``prefix_tokens``-long
    prompt prefix (system prompt / few-shot examples); requests pick a
    tenant with Zipf-weighted popularity (``zipf_alpha=0`` → uniform) and
    append a private uniform-length suffix.  Align ``prefix_tokens`` to the
    engine's ``block_tokens`` to make the whole prefix shareable.
    """
    _check_common(n_requests, vocab_size)
    if rate_rps <= 0:
        raise ServingError("rate_rps must be positive")
    if n_tenants <= 0 or prefix_tokens <= 0:
        raise ServingError("n_tenants and prefix_tokens must be positive")
    if zipf_alpha < 0:
        raise ServingError("zipf_alpha must be non-negative")
    _check_range("suffix_len", tuple(suffix_len))
    _check_range("new_tokens", tuple(new_tokens))
    rng = _resolve_rng(rng, seed)
    prefixes = [
        rng.integers(0, vocab_size, size=prefix_tokens, dtype=np.int64)
        for _ in range(n_tenants)
    ]
    weights = np.array([1.0 / (i + 1) ** zipf_alpha for i in range(n_tenants)])
    weights /= weights.sum()
    gaps = rng.exponential(scale=1.0 / rate_rps, size=n_requests)
    arrivals = np.cumsum(gaps)
    trace: List[TraceRequest] = []
    for index in range(n_requests):
        tenant = int(rng.choice(n_tenants, p=weights))
        suffix = rng.integers(
            0, vocab_size, size=_uniform_length(rng, tuple(suffix_len)), dtype=np.int64
        )
        prompt = np.concatenate([prefixes[tenant], suffix])
        budget = _uniform_length(rng, tuple(new_tokens))
        trace.append(_request(arrivals[index], prompt, budget, tenant=tenant))
    return trace


#: family name -> generator; every generator takes
#: (n_requests, rate_rps, vocab_size, ..., seed=, rng=) and returns a list
#: of :class:`TraceRequest`.
TRACE_FAMILIES = {
    "poisson": poisson_trace,
    "diurnal": diurnal_trace,
    "bursty": bursty_trace,
    "heavy-tail": heavy_tail_trace,
    "prefix": shared_prefix_trace,
}


def assign_qos(
    trace: List[TraceRequest],
    mix: Dict[str, float],
    rng: np.random.Generator,
) -> List[TraceRequest]:
    """Tag each request with a QoS class sampled from ``mix`` (name ->
    weight).  Sampling consumes the same generator as the trace itself, so
    a manifest replay reproduces the class assignment bit for bit."""
    if not mix:
        raise ServingError("qos mix must name at least one class")
    names = list(mix)
    weights = np.asarray([mix[name] for name in names], dtype=np.float64)
    if np.any(weights <= 0):
        raise ServingError(f"qos mix weights must be positive: {mix}")
    weights /= weights.sum()
    picks = rng.choice(len(names), size=len(trace), p=weights)
    return [
        replace(request, qos=names[int(pick)])
        for request, pick in zip(trace, picks)
    ]


def make_trace(
    family: str,
    n_requests: int,
    rate_rps: float,
    vocab_size: int,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
    qos_mix: Optional[Dict[str, float]] = None,
    **params,
) -> List[TraceRequest]:
    """Build a trace from a ``(family, params)`` description.

    This is the manifest replay entry point: a serve-bench run records
    exactly these arguments in ``manifest.json``, and feeding them back
    reproduces the trace bit for bit.  ``qos_mix`` (class name -> weight)
    additionally samples a QoS class per request, drawn from the same
    generator stream after the family's own draws.
    """
    try:
        generator = TRACE_FAMILIES[family]
    except KeyError:
        raise ServingError(
            f"unknown trace family {family!r}; have {sorted(TRACE_FAMILIES)}"
        ) from None
    rng = _resolve_rng(rng, seed)
    trace = generator(n_requests, rate_rps, vocab_size, rng=rng, **params)
    if qos_mix is not None:
        trace = assign_qos(trace, qos_mix, rng)
    return trace


def trace_manifest(
    family: str,
    n_requests: int,
    rate_rps: float,
    vocab_size: int,
    seed: int,
    **params,
) -> dict:
    """The manifest's trace section: exactly :func:`make_trace`'s inputs."""
    return {
        "family": family,
        "n_requests": int(n_requests),
        "rate_rps": float(rate_rps),
        "vocab_size": int(vocab_size),
        "seed": int(seed),
        "params": dict(params),
    }


def trace_from_manifest(manifest: dict) -> List[TraceRequest]:
    """Rebuild a run's trace, bit-identically, from its manifest."""
    try:
        spec = manifest["trace"] if "trace" in manifest else manifest
        return make_trace(
            spec["family"],
            spec["n_requests"],
            spec["rate_rps"],
            spec["vocab_size"],
            seed=spec["seed"],
            **spec.get("params", {}),
        )
    except KeyError as missing:
        raise ServingError(f"manifest trace section missing key {missing}") from None


def trace_stats(trace: List[TraceRequest]) -> Dict[str, float]:
    """Shape summary of a trace (recorded alongside bench results)."""
    if not trace:
        raise ServingError("cannot summarize an empty trace")
    prompts = np.asarray([t.prompt.size for t in trace], dtype=np.float64)
    budgets = np.asarray([t.max_new_tokens for t in trace], dtype=np.float64)
    arrivals = np.asarray([t.arrival_time for t in trace], dtype=np.float64)
    span = float(arrivals.max() - arrivals.min())
    gaps = np.diff(np.sort(arrivals))
    burstiness = (
        float(gaps.std() / gaps.mean()) if gaps.size and gaps.mean() > 0 else 0.0
    )
    tenants = {t.tenant for t in trace if t.tenant is not None}
    qos_classes = {t.qos for t in trace if t.qos is not None}
    return {
        "n_requests": len(trace),
        "span_s": span,
        "mean_rate_rps": len(trace) / span if span > 0 else float("inf"),
        "prompt_mean": float(prompts.mean()),
        "prompt_p95": float(np.quantile(prompts, 0.95)),
        "prompt_max": float(prompts.max()),
        "new_tokens_mean": float(budgets.mean()),
        "gap_cv": burstiness,  # coefficient of variation; 1.0 == Poisson
        "n_tenants": len(tenants),
        "n_qos_classes": len(qos_classes),
    }


__all__ = [
    "TRACE_FAMILIES",
    "TraceRequest",
    "assign_qos",
    "bursty_trace",
    "diurnal_trace",
    "heavy_tail_trace",
    "make_trace",
    "poisson_trace",
    "shared_prefix_trace",
    "trace_from_manifest",
    "trace_manifest",
    "trace_stats",
]
