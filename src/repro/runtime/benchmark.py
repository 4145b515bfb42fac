"""The ``repro bench-decode`` measurement harness.

Measures prefill and decode tokens/sec for the Tensor-graph driver and the
no-grad fast path (:mod:`repro.runtime.fastpath`) over the same model,
across weight variants (dense / decomposed) and tensor-parallel degrees,
and checks the bit-for-bit contract on the way: the generated tokens, the
prefill logits, and the final-step logits of the two paths must be
byte-identical, or the cell is flagged and the report fails.

Timing methodology: each (variant, tp, path) cell first runs one full
untimed generation to warm the BLAS threads and the fast path's workspace
arena (first-touch allocations are real but happen once per shape, not per
step), then times one prefill of ``prompt_tokens`` positions and
``new_tokens - 1`` single-position cached decode steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.runtime import fastpath

DEFAULT_VARIANTS = ("dense", "rank1", "rank8")
DEFAULT_TP = (1, 2)


@dataclass(frozen=True)
class PathTiming:
    """One execution path's measured throughput."""

    prefill_tokens_per_s: float
    decode_tokens_per_s: float


@dataclass(frozen=True)
class DecodeBenchCell:
    """Fast vs. Tensor path for one (variant, tensor-parallel degree).

    Quantized variants (``-int<B>`` specs) additionally carry ``bits`` and
    two weight-memory metrics: ``memory_reduction_x`` compares the int
    grids against the fp32 weights of the *same* structure (dense grid vs
    dense fp32, factor grids vs factor fp32), while
    ``compound_reduction_x`` compares them against the dense fp32
    projections they ultimately replace — the number that captures
    rank × bits compounding.
    """

    spec: str
    tp: int
    tensor: PathTiming
    fast: PathTiming
    bit_identical: bool
    profile: Optional[str] = None
    bits: Optional[int] = None
    memory_reduction_x: Optional[float] = None
    compound_reduction_x: Optional[float] = None

    @property
    def prefill_speedup(self) -> float:
        if self.tensor.prefill_tokens_per_s == 0.0:
            return 0.0
        return self.fast.prefill_tokens_per_s / self.tensor.prefill_tokens_per_s

    @property
    def decode_speedup(self) -> float:
        if self.tensor.decode_tokens_per_s == 0.0:
            return 0.0
        return self.fast.decode_tokens_per_s / self.tensor.decode_tokens_per_s

    def summary_line(self) -> str:
        verdict = "exact" if self.bit_identical else "LOGITS MISMATCH"
        memory = ""
        if self.compound_reduction_x is not None:
            memory = f"  mem {self.compound_reduction_x:4.2f}x"
        return (
            f"{self.spec:>12} tp={self.tp}  "
            f"prefill {self.tensor.prefill_tokens_per_s:8.1f} -> "
            f"{self.fast.prefill_tokens_per_s:8.1f} tok/s "
            f"({self.prefill_speedup:4.2f}x)  "
            f"decode {self.tensor.decode_tokens_per_s:7.1f} -> "
            f"{self.fast.decode_tokens_per_s:7.1f} tok/s "
            f"({self.decode_speedup:4.2f}x){memory}  [{verdict}]"
        )

    def to_dict(self) -> dict:
        return dict(
            asdict(self),
            prefill_speedup=self.prefill_speedup,
            decode_speedup=self.decode_speedup,
        )


@dataclass(frozen=True)
class DecodeBenchReport:
    """All measured cells plus the run's configuration."""

    model: str
    prompt_tokens: int
    new_tokens: int
    seed: int
    cells: List[DecodeBenchCell] = field(default_factory=list)

    @property
    def all_bit_identical(self) -> bool:
        return all(cell.bit_identical for cell in self.cells)

    @property
    def min_decode_speedup(self) -> float:
        return min(cell.decode_speedup for cell in self.cells)

    def quant_decode_ratios(self) -> dict:
        """Quantized vs. fp32 fast-path decode throughput at tp=1.

        For every quantized cell ``<base>-int<B>`` whose fp32 twin
        ``<base>`` was also measured at tp=1, maps the quantized spec to
        ``fast_decode(quantized) / fast_decode(fp32)`` — the acceptance
        criterion gates on this staying >= 0.9.
        """
        fp32 = {
            cell.spec: cell.fast.decode_tokens_per_s
            for cell in self.cells
            if cell.tp == 1 and cell.bits is None
        }
        ratios = {}
        for cell in self.cells:
            if cell.tp != 1 or cell.bits is None:
                continue
            base = cell.spec.rsplit("-int", 1)[0]
            if fp32.get(base):
                ratios[cell.spec] = cell.fast.decode_tokens_per_s / fp32[base]
        return ratios

    @property
    def min_quant_decode_ratio(self) -> Optional[float]:
        ratios = self.quant_decode_ratios()
        return min(ratios.values()) if ratios else None

    @property
    def min_quant_memory_reduction(self) -> Optional[float]:
        """Smallest compound weight-memory reduction over quantized cells."""
        reductions = [
            cell.compound_reduction_x
            for cell in self.cells
            if cell.compound_reduction_x is not None
        ]
        return min(reductions) if reductions else None

    def table(self) -> str:
        header = (
            f"bench-decode: {self.model}, prompt={self.prompt_tokens}, "
            f"new={self.new_tokens} (Tensor path -> fast path)"
        )
        lines = [header, "-" * len(header)]
        lines.extend(cell.summary_line() for cell in self.cells)
        ratios = self.quant_decode_ratios()
        if ratios:
            lines.append("")
            for spec, ratio in ratios.items():
                lines.append(f"{spec}: {ratio:.2f}x fp32 fast-path decode at tp=1")
            lines.append(
                f"min quantized weight-memory reduction "
                f"{self.min_quant_memory_reduction:.2f}x "
                f"(vs dense fp32 projections)"
            )
        profiled = [cell for cell in self.cells if cell.profile]
        for cell in profiled:
            lines.append("")
            lines.append(f"op profile — {cell.spec} tp={cell.tp} (fast path):")
            lines.append(cell.profile)
        return "\n".join(lines)

    def summary(self) -> dict:
        return {
            "model": self.model,
            "prompt_tokens": self.prompt_tokens,
            "new_tokens": self.new_tokens,
            "seed": self.seed,
            "all_bit_identical": self.all_bit_identical,
            "min_decode_speedup": self.min_decode_speedup,
            "quant_decode_ratios": self.quant_decode_ratios(),
            "min_quant_decode_ratio": self.min_quant_decode_ratio,
            "min_quant_memory_reduction": self.min_quant_memory_reduction,
            "cells": len(self.cells),
        }

    def records(self) -> List[dict]:
        return [cell.to_dict() for cell in self.cells]

    def trajectory_entry(self) -> dict:
        entry = {
            "bench": "bench-decode",
            "model": self.model,
            "cells": len(self.cells),
            "all_bit_identical": self.all_bit_identical,
            "decode_tokens_per_s": {
                f"{cell.spec}/tp{cell.tp}": round(cell.fast.decode_tokens_per_s, 1)
                for cell in self.cells
            },
            "min_decode_speedup": round(self.min_decode_speedup, 3),
        }
        if self.min_quant_decode_ratio is not None:
            entry["min_quant_decode_ratio"] = round(self.min_quant_decode_ratio, 3)
        if self.min_quant_memory_reduction is not None:
            entry["min_quant_memory_reduction"] = round(
                self.min_quant_memory_reduction, 2
            )
        return entry


def _timed_generation(runner, prompt: np.ndarray, new_tokens: int):
    """One prefill + greedy decode loop; returns timings and outputs."""
    cache = runner.make_cache()
    start = perf_counter()
    logits = runner.forward_cached(prompt, cache)
    prefill_s = perf_counter() - start
    prefill_logits = logits.data.copy()
    tokens = [int(np.argmax(logits.data[0, -1]))]
    step = np.empty((1, 1), dtype=np.int64)
    start = perf_counter()
    for _ in range(new_tokens - 1):
        step[0, 0] = tokens[-1]
        logits = runner.forward_cached(step, cache)
        tokens.append(int(np.argmax(logits.data[0, -1])))
    decode_s = perf_counter() - start
    return prefill_s, decode_s, tokens, prefill_logits, logits.data.copy()


_DECODE_TIMING_REPEATS = 3  # best-of-N: one generation is noise-dominated


def _bench_path(runner, prompt: np.ndarray, new_tokens: int):
    _timed_generation(runner, prompt, new_tokens)  # warmup: arena + BLAS
    best_prefill = best_decode = float("inf")
    for _ in range(_DECODE_TIMING_REPEATS):
        prefill_s, decode_s, tokens, first, last = _timed_generation(
            runner, prompt, new_tokens
        )
        best_prefill = min(best_prefill, prefill_s)
        best_decode = min(best_decode, decode_s)
    timing = PathTiming(
        prefill_tokens_per_s=prompt.shape[1] / max(best_prefill, 1e-12),
        decode_tokens_per_s=max(new_tokens - 1, 1) / max(best_decode, 1e-12),
    )
    return timing, tokens, first, last


def _check_tp_degrees(tp_degrees: Sequence[int]) -> None:
    if not tp_degrees or any(tp < 1 for tp in tp_degrees):
        raise ConfigError(
            f"tensor-parallel degrees must be >= 1, got {list(tp_degrees)}"
        )


def _dense_projection_fp32_bytes(config) -> int:
    """fp32 bytes of the dense per-layer projections a variant replaces."""
    per_layer = sum(
        height * width * 4
        for height, width in (
            config.tensor_shape(role) for role in config.tensor_roles
        )
    )
    return per_layer * config.n_layers


def _bench_cell(
    variant, tp: int, prompt: np.ndarray, new_tokens: int, profile: bool
) -> DecodeBenchCell:
    runner = variant.model
    sharded = None
    if tp > 1:
        from repro.parallel import ShardedLlama

        sharded = ShardedLlama(variant.model, tp)
        runner = sharded
    try:
        with fastpath.disabled():
            tensor_timing, t_tokens, t_first, t_last = _bench_path(
                runner, prompt, new_tokens
            )
        profiler = None
        if profile:
            context = (
                sharded.executors[0].context
                if sharded is not None
                else variant.model.runtime.context
            )
            profiler = fastpath.enable_profiling(context)
        fast_timing, f_tokens, f_first, f_last = _bench_path(
            runner, prompt, new_tokens
        )
        profile_table = None
        if profiler is not None:
            profile_table = profiler.table()
            fastpath.disable_profiling(
                sharded.executors[0].context
                if sharded is not None
                else variant.model.runtime.context
            )
        bit_identical = (
            t_tokens == f_tokens
            and np.array_equal(t_first, f_first)
            and np.array_equal(t_last, f_last)
        )
    finally:
        if sharded is not None:
            sharded.close()
    memory_reduction = compound_reduction = None
    if variant.quant is not None:
        memory_reduction = variant.quant.memory_reduction_x
        dense_fp32 = _dense_projection_fp32_bytes(variant.model.config)
        compound_reduction = dense_fp32 / variant.quant.weight_bytes_after
    return DecodeBenchCell(
        spec=variant.spec,
        tp=tp,
        tensor=tensor_timing,
        fast=fast_timing,
        bit_identical=bit_identical,
        profile=profile_table,
        bits=variant.bits,
        memory_reduction_x=memory_reduction,
        compound_reduction_x=compound_reduction,
    )


def run_decode_bench(
    base_model,
    variant_specs: Sequence[str] = DEFAULT_VARIANTS,
    tp_degrees: Sequence[int] = DEFAULT_TP,
    prompt_tokens: int = 32,
    new_tokens: int = 48,
    seed: int = 0,
    profile: bool = False,
    bits: Optional[int] = None,
) -> DecodeBenchReport:
    """Benchmark fast-path vs. Tensor-path generation over ``base_model``.

    ``base_model`` must be an eval-mode :class:`~repro.models.llama.LlamaModel`;
    ``variant_specs`` use the serve-bench registry grammar (``dense``,
    ``rank<K>``, ``pr<NN>``, ``<base>-int<B>``).  With ``profile`` the fast
    run of every cell records an op-level profile (rank 0's when ``tp > 1``).
    ``bits`` appends each spec's quantized twin (``<spec>-int<bits>``) to the
    measured set, so every quantized cell has the fp32 sibling the
    quant-vs-fp32 decode ratio needs.
    """
    # Imported lazily: the runtime layer must not depend on serving at
    # import time.
    from repro.serving.variants import VariantRegistry

    if not variant_specs:
        raise ConfigError("at least one variant spec is required")
    _check_tp_degrees(tp_degrees)
    if prompt_tokens < 1 or new_tokens < 2:
        raise ConfigError(
            f"need prompt_tokens >= 1 and new_tokens >= 2, got "
            f"{prompt_tokens} and {new_tokens}"
        )
    if bits is not None:
        expanded = []
        for spec in variant_specs:
            expanded.append(spec)
            if "-int" not in spec:
                expanded.append(f"{spec}-int{bits}")
        variant_specs = expanded
    rng = np.random.default_rng(seed)
    prompt = rng.integers(
        0, base_model.config.vocab_size, size=(1, prompt_tokens), dtype=np.int64
    )
    registry = VariantRegistry(base_model)
    cells = []
    for spec in variant_specs:
        variant = registry.get(spec)
        for tp in tp_degrees:
            cells.append(_bench_cell(variant, tp, prompt, new_tokens, profile))
    return DecodeBenchReport(
        model=base_model.config.name,
        prompt_tokens=prompt_tokens,
        new_tokens=new_tokens,
        seed=seed,
        cells=cells,
    )


DEFAULT_DRAFTERS = ("rank8", "rank1")
DEFAULT_SPEC_K = (4,)
DEFAULT_SPEC_DECAY = 0.5


@dataclass(frozen=True)
class SpecBenchCell:
    """One measured (drafter, K, tensor-parallel degree) speculative cell."""

    drafter: str
    k: int
    tp: int
    tokens_match: bool                # identical to dense greedy output
    acceptance_rate: float
    drafted: int
    accepted: int
    baseline_tokens_per_s: float      # dense fast-path generation at this tp
    effective_tokens_per_s: float     # speculative committed tokens per sec

    @property
    def speedup(self) -> float:
        if self.baseline_tokens_per_s == 0.0:
            return 0.0
        return self.effective_tokens_per_s / self.baseline_tokens_per_s

    def summary_line(self) -> str:
        verdict = "exact" if self.tokens_match else "TOKEN MISMATCH"
        return (
            f"{self.drafter:>8} K={self.k} tp={self.tp}  "
            f"accept {self.acceptance_rate:5.1%} ({self.accepted}/{self.drafted})  "
            f"effective {self.effective_tokens_per_s:7.1f} tok/s vs dense "
            f"{self.baseline_tokens_per_s:7.1f} tok/s "
            f"({self.speedup:4.2f}x)  [{verdict}]"
        )

    def to_dict(self) -> dict:
        return dict(asdict(self), speedup=self.speedup)


@dataclass(frozen=True)
class SpecBenchReport:
    """Speculative-decoding measurement across drafters, K, and tp."""

    model: str
    prompt_tokens: int
    new_tokens: int
    seed: int
    decay: float
    cells: List[SpecBenchCell] = field(default_factory=list)

    @property
    def all_tokens_match(self) -> bool:
        return all(cell.tokens_match for cell in self.cells)

    @property
    def max_acceptance_rate(self) -> float:
        return max((cell.acceptance_rate for cell in self.cells), default=0.0)

    @property
    def best_speedup_tp1(self) -> float:
        """Best effective speedup over the dense fast path at tp=1 — the
        number the acceptance criterion gates on."""
        tp1 = [cell.speedup for cell in self.cells if cell.tp == 1]
        return max(tp1) if tp1 else 0.0

    def table(self) -> str:
        header = (
            f"bench-decode --speculative: {self.model}, "
            f"prompt={self.prompt_tokens}, new={self.new_tokens}, "
            f"spectrum decay={self.decay} (drafter drafts, dense verifies)"
        )
        lines = [header, "-" * len(header)]
        lines.extend(cell.summary_line() for cell in self.cells)
        return "\n".join(lines)

    def summary(self) -> dict:
        return {
            "model": self.model,
            "prompt_tokens": self.prompt_tokens,
            "new_tokens": self.new_tokens,
            "seed": self.seed,
            "decay": self.decay,
            "all_tokens_match": self.all_tokens_match,
            "max_acceptance_rate": self.max_acceptance_rate,
            "best_speedup_tp1": self.best_speedup_tp1,
            "cells": len(self.cells),
        }

    def records(self) -> List[dict]:
        return [cell.to_dict() for cell in self.cells]

    def trajectory_entry(self) -> dict:
        return {
            "bench": "bench-decode-spec",
            "model": self.model,
            "cells": len(self.cells),
            "all_tokens_match": self.all_tokens_match,
            "max_acceptance_rate": round(self.max_acceptance_rate, 4),
            "best_speedup_tp1": round(self.best_speedup_tp1, 3),
        }


_TIMING_REPEATS = 5  # best-of-N: one 48-token generate is noise-dominated


def _timed_cell(verifier, drafter, k: int, prompt: np.ndarray, new_tokens: int):
    """Best-of-N timing of the dense and speculative arms, *interleaved*.

    Returns ``(reference, tokens, baseline_tok_s, effective_tok_s, stats)``.
    The two arms alternate inside one measurement window so that
    machine-speed drift (single-CPU CI runners throttle unpredictably on
    hundreds-of-ms scales) hits both equally and cancels out of the
    speedup ratio; timing them minutes apart makes the ratio noise, not
    measurement.  Each arm keeps its best (minimum-wall) repeat.
    """
    from repro.runtime.decode import DecodeSession
    from repro.runtime.speculative import SpeculativeSession

    dense = DecodeSession(verifier)
    dense.generate(prompt, new_tokens)  # warmup: arena + BLAS
    SpeculativeSession(verifier, drafter, k=k).generate(prompt, new_tokens)
    dense_wall = spec_wall = float("inf")
    for _ in range(_TIMING_REPEATS):
        start = perf_counter()
        reference = dense.generate(prompt, new_tokens)
        dense_wall = min(dense_wall, max(perf_counter() - start, 1e-12))
        session = SpeculativeSession(verifier, drafter, k=k)
        start = perf_counter()
        tokens = session.generate(prompt, new_tokens)
        spec_wall = min(spec_wall, max(perf_counter() - start, 1e-12))
    return (
        reference,
        tokens,
        new_tokens / dense_wall,
        new_tokens / spec_wall,
        session.stats,
    )


def run_spec_bench(
    base_model,
    drafter_specs: Sequence[str] = DEFAULT_DRAFTERS,
    k_values: Sequence[int] = DEFAULT_SPEC_K,
    tp_degrees: Sequence[int] = (1,),
    prompt_tokens: int = 32,
    new_tokens: int = 48,
    seed: int = 0,
    decay: float = DEFAULT_SPEC_DECAY,
) -> SpecBenchReport:
    """Measure speculative decoding against the dense fast-path baseline.

    The benchmark runs on a *spectrum-shaped* clone of ``base_model``:
    every decomposable weight is rebuilt with exponentially decaying
    singular values (``decay`` per index), the regime trained transformer
    weights live in and the one where a low-rank drafter tracks the dense
    model closely enough to pay for itself.  (On raw random weights every
    drafter's acceptance rate is ~0 — measurable, but it characterizes the
    initialization, not the method.)  The dense baseline and all verifier
    forwards run the same shaped clone, so token identity is still checked
    end to end: each cell's speculative output must equal the dense greedy
    output of the same model.
    """
    from repro.decomposition.apply import shape_model_spectrum
    from repro.models import build_model
    from repro.serving.variants import VariantRegistry

    if not drafter_specs:
        raise ConfigError("at least one drafter spec is required")
    if not k_values or any(k < 1 for k in k_values):
        raise ConfigError(f"k values must be >= 1, got {list(k_values)}")
    _check_tp_degrees(tp_degrees)
    if prompt_tokens < 1 or new_tokens < 2:
        raise ConfigError(
            f"need prompt_tokens >= 1 and new_tokens >= 2, got "
            f"{prompt_tokens} and {new_tokens}"
        )
    shaped = build_model(base_model.config)
    shaped.load_state_dict(base_model.state_dict())
    shape_model_spectrum(shaped, decay)
    shaped.eval()
    registry = VariantRegistry(shaped)
    rng = np.random.default_rng(seed)
    prompt = rng.integers(
        0, base_model.config.vocab_size, size=(1, prompt_tokens), dtype=np.int64
    )
    cells = []
    for tp in tp_degrees:
        verifier = shaped
        sharded = None
        if tp > 1:
            from repro.parallel import ShardedLlama

            sharded = ShardedLlama(shaped, tp)
            verifier = sharded
        try:
            for spec in drafter_specs:
                drafter = registry.get(spec).model
                for k in k_values:
                    reference, tokens, baseline, effective, stats = _timed_cell(
                        verifier, drafter, k, prompt, new_tokens
                    )
                    cells.append(
                        SpecBenchCell(
                            drafter=spec,
                            k=k,
                            tp=tp,
                            tokens_match=bool(np.array_equal(tokens, reference)),
                            acceptance_rate=stats.acceptance_rate,
                            drafted=stats.drafted,
                            accepted=stats.accepted,
                            baseline_tokens_per_s=baseline,
                            effective_tokens_per_s=effective,
                        )
                    )
        finally:
            if sharded is not None:
                sharded.close()
    return SpecBenchReport(
        model=base_model.config.name,
        prompt_tokens=prompt_tokens,
        new_tokens=new_tokens,
        seed=seed,
        decay=decay,
        cells=cells,
    )


__all__ = [
    "DecodeBenchCell",
    "DecodeBenchReport",
    "PathTiming",
    "SpecBenchCell",
    "SpecBenchReport",
    "run_decode_bench",
    "run_spec_bench",
]
