"""Request lifecycle for the continuous-batching engine.

A request moves through::

    QUEUED -> PREFILL -> DECODE -> FINISHED
       \\         \\          \\---> CANCELLED   (deadline exceeded / cancel())
        \\         \\--------------^
         \\-> REJECTED                         (admission control)

Preemption (pool pressure) moves a PREFILL/DECODE request back to QUEUED
with its KV blocks released; the tokens it already generated are kept and
re-prefilled on re-admission, so outputs are unaffected (recompute-style
preemption, as in vLLM).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ServingError
from repro.runtime.decode import DecodeState


class RequestState(enum.Enum):
    QUEUED = "queued"
    PREFILL = "prefill"
    DECODE = "decode"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    REJECTED = "rejected"


TERMINAL_STATES = (RequestState.FINISHED, RequestState.CANCELLED, RequestState.REJECTED)
ACTIVE_STATES = (RequestState.PREFILL, RequestState.DECODE)


@dataclass
class GenerationRequest:
    """One in-flight generation request and its bookkeeping."""

    request_id: int
    prompt: np.ndarray
    max_new_tokens: int
    stop_token: Optional[int] = None
    deadline: Optional[float] = None
    arrival_time: float = 0.0
    speculative: bool = False

    state: RequestState = RequestState.QUEUED
    generated: List[int] = field(default_factory=list)
    cache: Optional[object] = None  # PagedSequenceCache while active
    # Speculative-mode state: the drafter's own KV cache for this request
    # and the draft tokens proposed for the in-flight verify step.  Both are
    # dropped on preemption/termination alongside the main cache.
    draft_cache: Optional[object] = None
    pending_drafts: List[int] = field(default_factory=list)
    # Acceptance-aware adaptive draft length (``spec_adaptive`` engines):
    # an EMA of this request's per-cycle acceptance rate and the draft
    # length it currently maps to.  None until the first verify cycle —
    # the first cycle always probes at the engine's full K.
    spec_acceptance_ema: Optional[float] = None
    spec_k_current: Optional[int] = None
    finish_reason: str = ""
    preemptions: int = 0

    # QoS / adaptive-routing state.  ``variant`` is the spec currently
    # serving this request (None on a router-less engine); every assignment
    # change is journalled into ``variant_history`` as
    # ``(n_generated_at_assignment, spec)`` so tests and goodput accounting
    # can reconstruct the exact per-token variant schedule.
    qos_name: Optional[str] = None
    quality_floor: Optional[str] = None
    ttft_slo_s: Optional[float] = None
    variant: Optional[str] = None
    variant_history: List[Tuple[int, str]] = field(default_factory=list)
    swaps: int = 0

    first_scheduled_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None

    def __post_init__(self) -> None:
        self.prompt = np.asarray(self.prompt, dtype=np.int64).reshape(-1)
        if self.prompt.size == 0:
            raise ServingError("prompt must contain at least one token")
        if self.max_new_tokens <= 0:
            raise ServingError("max_new_tokens must be positive")
        # The runtime's shared token bookkeeping (greedy selection, stop
        # token, budget), wrapping this request's own ``generated`` list so
        # both sides see every append.
        self.decode = DecodeState(
            self.max_new_tokens, self.stop_token, tokens=self.generated
        )

    # -- token bookkeeping -------------------------------------------------
    @property
    def prefix(self) -> np.ndarray:
        """Prompt plus generated-so-far: everything the cache must cover
        (minus the trailing token, which is fed to produce the next one)."""
        if not self.generated:
            return self.prompt
        return np.concatenate([self.prompt, np.asarray(self.generated, dtype=np.int64)])

    @property
    def cached_tokens(self) -> int:
        return 0 if self.cache is None else self.cache.seq_len

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def n_generated(self) -> int:
        return len(self.generated)

    @property
    def tokens(self) -> np.ndarray:
        """Full output, ``greedy_generate``-style: prompt then generation."""
        return self.prefix

    # -- timing ------------------------------------------------------------
    @property
    def queue_wait_s(self) -> Optional[float]:
        if self.first_scheduled_time is None:
            return None
        return self.first_scheduled_time - self.arrival_time

    @property
    def ttft_s(self) -> Optional[float]:
        """Time to first token, from arrival."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def e2e_s(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def slo_met(self) -> Optional[bool]:
        """Did the first token land within the class SLO?  None without one."""
        if self.ttft_slo_s is None:
            return None
        if self.ttft_s is None:
            return False
        return self.ttft_s <= self.ttft_slo_s

    @property
    def served_variants(self) -> List[str]:
        """Distinct variant specs that ever served this request, in order."""
        seen: List[str] = []
        for _, spec in self.variant_history:
            if not seen or seen[-1] != spec:
                seen.append(spec)
        return seen

    def assign_variant(self, spec: str) -> bool:
        """Record a router assignment; returns True when it was a *swap*
        (the request was already being served by a different variant)."""
        swapped = self.variant is not None and self.variant != spec
        if self.variant != spec:
            self.variant_history.append((self.n_generated, spec))
            self.variant = spec
        if swapped:
            self.swaps += 1
        return swapped

    def result(self) -> "GenerationResult":
        if not self.done:
            raise ServingError(
                f"request {self.request_id} still {self.state.value}; no result yet"
            )
        return GenerationResult(
            request_id=self.request_id,
            state=self.state,
            tokens=self.tokens,
            n_generated=self.n_generated,
            finish_reason=self.finish_reason,
            preemptions=self.preemptions,
            arrival_time=self.arrival_time,
            queue_wait_s=self.queue_wait_s,
            ttft_s=self.ttft_s,
            e2e_s=self.e2e_s,
            qos=self.qos_name,
            ttft_slo_s=self.ttft_slo_s,
            slo_met=self.slo_met,
            variants=tuple(self.served_variants),
            swaps=self.swaps,
        )


@dataclass(frozen=True)
class GenerationResult:
    """Immutable outcome handed back once a request reaches a terminal state."""

    request_id: int
    state: RequestState
    tokens: np.ndarray
    n_generated: int
    finish_reason: str
    preemptions: int
    arrival_time: float
    queue_wait_s: Optional[float]
    ttft_s: Optional[float]
    e2e_s: Optional[float]
    qos: Optional[str] = None
    ttft_slo_s: Optional[float] = None
    slo_met: Optional[bool] = None
    variants: Tuple[str, ...] = ()
    swaps: int = 0

    @property
    def ok(self) -> bool:
        return self.state is RequestState.FINISHED
