"""The rank × bits joint design-space sweep (compound compression).

Crosses the serving variants {dense, rank8, rank1} with weight precisions
{fp32, int8, int4} on the pretrained tiny Llama and measures, per point:

- **accuracy** on the paper's six characterization benchmarks (real model
  forwards through the quantized int8-grid weights, not simulation);
- **decode throughput** of the no-grad fast path at tp=1, with the fast
  path's bit-identity against the Tensor-graph driver checked in the same
  breath (the cell is flagged if logits diverge by even one bit);
- **projected memory and energy** from the analytic hardware model, whose
  weight-byte accounting understands quantized grids + fp32 scales.

Each point also records a SHA-256 fingerprint of its greedy-decode logits,
which is what makes a persisted sweep *replayable*: rebuilding the sweep
from its manifest must reproduce every fingerprint bit for bit.

A sweep persists through :func:`repro.runs.write_run_artifact` like every
other bench command; :func:`sweep_manifest` is its manifest.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

#: The joint space the sweep walks by default: every decomposition variant
#: crossed with every weight precision (None = fp32).
DEFAULT_SWEEP_SPECS = ("dense", "rank8", "rank1")
DEFAULT_SWEEP_BITS: Tuple[Optional[int], ...] = (None, 8, 4)


def sweep_specs(
    base_specs: Sequence[str] = DEFAULT_SWEEP_SPECS,
    bit_widths: Sequence[Optional[int]] = DEFAULT_SWEEP_BITS,
) -> List[str]:
    """Expand base variants × bit widths into registry specs."""
    if not base_specs:
        raise ConfigError("at least one base variant spec is required")
    specs = []
    for base in base_specs:
        for bits in dict.fromkeys(bit_widths):
            specs.append(base if bits is None else f"{base}-int{bits}")
    return specs


@dataclass
class QuantSweepPoint:
    """One (variant, bits) operating point of the joint design space."""

    spec: str
    bits: Optional[int]
    parameter_reduction: float
    accuracy: Dict[str, float] = field(default_factory=dict)
    decode_tokens_per_s: float = 0.0
    tensor_decode_tokens_per_s: float = 0.0
    bit_identical: bool = False
    weight_bytes: int = 0              # measured bytes of the variant
    memory_reduction_x: Optional[float] = None    # vs same-structure fp32
    compound_reduction_x: Optional[float] = None  # vs dense fp32 projections
    projected_memory_gb: float = 0.0   # hwmodel per-GPU footprint
    projected_energy_j: float = 0.0    # hwmodel energy per forward pass
    logits_fingerprint: str = ""       # sha256 of greedy-decode logits

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(list(self.accuracy.values())))

    def to_dict(self) -> dict:
        return dict(asdict(self), mean_accuracy=self.mean_accuracy)


@dataclass
class QuantSweepReport:
    """The full sweep: configuration + every measured point."""

    model: str
    seed: int
    limit: Optional[int]
    prompt_tokens: int
    new_tokens: int
    benchmarks: Tuple[str, ...]
    base_specs: Tuple[str, ...]
    bit_widths: Tuple[Optional[int], ...]
    points: List[QuantSweepPoint] = field(default_factory=list)

    @property
    def all_bit_identical(self) -> bool:
        return all(point.bit_identical for point in self.points)

    def point(self, spec: str) -> QuantSweepPoint:
        for candidate in self.points:
            if candidate.spec == spec:
                return candidate
        raise ConfigError(f"sweep has no point {spec!r}")

    def table(self) -> str:
        """The printed report, also persisted verbatim as ``report.md``."""
        widths = ", ".join(_bits_name(bits) for bits in self.bit_widths)
        verdict = "exact" if self.all_bit_identical else "LOGITS MISMATCH"
        lines = [
            f"# quant-sweep: {self.model} (rank × bits joint space, "
            f"limit={self.limit}, fast-path decode at tp=1)",
            "",
            f"- **space:** {', '.join(self.base_specs)} × {widths} "
            f"· **seed:** {self.seed}",
            f"- **fast-path identity:** {verdict} across all points",
            "",
            "| spec | bits | mean acc | decode tok/s | weight bytes "
            "| mem reduction | hw mem (GB) | hw energy (J) | verdict |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for point in self.points:
            compound = (
                "-"
                if point.compound_reduction_x is None
                else f"{point.compound_reduction_x:.2f}x"
            )
            verdict = "exact" if point.bit_identical else "LOGITS MISMATCH"
            lines.append(
                f"| {point.spec} | {_bits_name(point.bits)} "
                f"| {100 * point.mean_accuracy:.1f}% "
                f"| {point.decode_tokens_per_s:.1f} "
                f"| {point.weight_bytes:,} | {compound} "
                f"| {point.projected_memory_gb:.3f} "
                f"| {point.projected_energy_j:.1f} | [{verdict}] |"
            )
        return "\n".join(lines)

    def summary(self) -> dict:
        return {
            "bench": "quant-sweep",
            "model": self.model,
            "seed": self.seed,
            "limit": self.limit,
            "prompt_tokens": self.prompt_tokens,
            "new_tokens": self.new_tokens,
            "benchmarks": list(self.benchmarks),
            "base_specs": list(self.base_specs),
            "bit_widths": list(self.bit_widths),
            "all_bit_identical": self.all_bit_identical,
            "points": len(self.points),
        }

    def records(self) -> List[dict]:
        return [point.to_dict() for point in self.points]

    def trajectory_entry(self) -> dict:
        """The headline cells the performance ledger keeps."""
        return {
            "bench": "quant-sweep",
            "model": self.model,
            "points": len(self.points),
            "all_bit_identical": self.all_bit_identical,
            "cells": {
                point.spec: {
                    "mean_accuracy": round(point.mean_accuracy, 4),
                    "decode_tokens_per_s": round(point.decode_tokens_per_s, 1),
                    "weight_bytes": point.weight_bytes,
                    **(
                        {"compound_reduction_x": round(point.compound_reduction_x, 2)}
                        if point.compound_reduction_x is not None
                        else {}
                    ),
                }
                for point in self.points
            },
        }


def _bits_name(bits: Optional[int]) -> str:
    return "fp32" if bits is None else f"int{bits}"


def _greedy_fingerprint(runner, prompt: np.ndarray, new_tokens: int) -> str:
    """SHA-256 over the prefill + every greedy decode step's final logits.

    Hashing the raw logits bytes (not argmaxes) makes the fingerprint a
    *bit-level* witness: any single-ULP drift anywhere in the quantized
    fast path changes it.
    """
    digest = hashlib.sha256()
    cache = runner.make_cache()
    logits = runner.forward_cached(prompt, cache)
    digest.update(np.ascontiguousarray(logits.data).tobytes())
    token = int(np.argmax(logits.data[0, -1]))
    step = np.empty((1, 1), dtype=np.int64)
    for _ in range(new_tokens - 1):
        step[0, 0] = token
        logits = runner.forward_cached(step, cache)
        digest.update(np.ascontiguousarray(logits.data).tobytes())
        token = int(np.argmax(logits.data[0, -1]))
    return digest.hexdigest()


def run_quant_sweep(
    base_specs: Sequence[str] = DEFAULT_SWEEP_SPECS,
    bit_widths: Sequence[Optional[int]] = DEFAULT_SWEEP_BITS,
    limit: Optional[int] = 24,
    prompt_tokens: int = 16,
    new_tokens: int = 24,
    seed: int = 0,
    benchmarks: Optional[Sequence[str]] = None,
) -> QuantSweepReport:
    """Measure every (variant, bits) point of the joint design space."""
    from repro.eval import CHARACTERIZATION_BENCHMARKS, build_suite, evaluate_suite
    from repro.experiments.pretrained import get_world, pretrained_tiny_llama
    from repro.hwmodel.profiler import ServingConfig, profile
    from repro.runtime.benchmark import _bench_cell, _dense_projection_fp32_bytes
    from repro.serving.variants import VariantRegistry

    names = tuple(benchmarks) if benchmarks else CHARACTERIZATION_BENCHMARKS
    model, tokenizer = pretrained_tiny_llama()
    suite = build_suite(get_world(), names=names)
    registry = VariantRegistry(model)
    rng = np.random.default_rng(seed)
    prompt = rng.integers(
        0, model.config.vocab_size, size=(1, prompt_tokens), dtype=np.int64
    )
    # One modest analytic serving point, valid for the tiny model's 192-token
    # context; only the *ratios* across sweep points matter.
    serving = ServingConfig(n_gpus=1, seq_len=64, per_gpu_batch=256)
    dense_fp32 = _dense_projection_fp32_bytes(model.config)
    points: List[QuantSweepPoint] = []
    for spec in sweep_specs(base_specs, bit_widths):
        variant = registry.get(spec)
        result = evaluate_suite(variant.model, tokenizer, suite, limit=limit)
        cell = _bench_cell(variant, 1, prompt, new_tokens, profile=False)
        decomposition = (
            None
            if variant.decomposition.is_identity and variant.bits is None
            else variant.decomposition
        )
        projection = profile(model.config, serving, decomposition=decomposition)
        memory_reduction = compound_reduction = None
        if variant.quant is not None:
            memory_reduction = variant.quant.memory_reduction_x
            compound_reduction = dense_fp32 / variant.quant.weight_bytes_after
        points.append(
            QuantSweepPoint(
                spec=spec,
                bits=variant.bits,
                parameter_reduction=variant.parameter_reduction,
                accuracy=result.as_dict(),
                decode_tokens_per_s=cell.fast.decode_tokens_per_s,
                tensor_decode_tokens_per_s=cell.tensor.decode_tokens_per_s,
                bit_identical=cell.bit_identical,
                weight_bytes=variant.total_bytes,
                memory_reduction_x=memory_reduction,
                compound_reduction_x=compound_reduction,
                projected_memory_gb=projection.memory_per_gpu_gb,
                projected_energy_j=projection.energy_j,
                logits_fingerprint=_greedy_fingerprint(
                    variant.model, prompt, new_tokens
                ),
            )
        )
    return QuantSweepReport(
        model=model.config.name,
        seed=seed,
        limit=limit,
        prompt_tokens=prompt_tokens,
        new_tokens=new_tokens,
        benchmarks=names,
        base_specs=tuple(base_specs),
        bit_widths=tuple(bit_widths),
        points=points,
    )


def sweep_manifest(report: QuantSweepReport) -> dict:
    """Everything :func:`replay_quant_sweep` needs to rebuild the sweep."""
    return {
        "bench": "quant-sweep",
        "model": report.model,
        "base_specs": list(report.base_specs),
        "bit_widths": list(report.bit_widths),
        "limit": report.limit,
        "prompt_tokens": report.prompt_tokens,
        "new_tokens": report.new_tokens,
        "seed": report.seed,
        "benchmarks": list(report.benchmarks),
    }


def replay_quant_sweep(run_dir) -> Tuple[QuantSweepReport, Dict[str, bool]]:
    """Rebuild a persisted sweep from its manifest and verify bit identity.

    Returns the fresh report and, per spec, whether the replayed greedy-
    decode logits fingerprint matches the recorded one — the run artifact's
    replayability contract.  (Timings and hash-free metrics are expected to
    match too but only fingerprints are compared: they are the bit-level
    witness; throughput is machine-dependent.)
    """
    from repro.runs import load_run

    manifest, _, records = load_run(run_dir)
    report = run_quant_sweep(
        base_specs=manifest["base_specs"],
        bit_widths=[
            None if bits is None else int(bits) for bits in manifest["bit_widths"]
        ],
        limit=manifest["limit"],
        prompt_tokens=manifest["prompt_tokens"],
        new_tokens=manifest["new_tokens"],
        seed=manifest["seed"],
        benchmarks=manifest.get("benchmarks"),
    )
    recorded = {record["spec"]: record["logits_fingerprint"] for record in records}
    matches = {
        point.spec: recorded.get(point.spec) == point.logits_fingerprint
        for point in report.points
    }
    return report, matches


__all__ = [
    "DEFAULT_SWEEP_BITS",
    "DEFAULT_SWEEP_SPECS",
    "QuantSweepPoint",
    "QuantSweepReport",
    "replay_quant_sweep",
    "run_quant_sweep",
    "sweep_manifest",
    "sweep_specs",
]
