"""Ablation: low-rank decomposition vs quantization vs pruning.

The paper motivates decomposition as one of the memory-footprint levers
alongside quantization and sparsity (Section 1).  This bench measures all
three on the same trained model, reporting (memory saving over the touched
weights, task accuracy) points — the trade-off map a practitioner needs.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.compression import (
    prune_model_weights,
    quantize_model_real,
    restore_pruned,
    restore_real_quantized,
)
from repro.decomposition import DecompositionConfig, decomposed
from repro.eval import build_suite, evaluate_suite
from repro.experiments import get_world

LIMIT = 40
BENCHES = ("arc_easy", "arc_challenge", "winogrande")


def test_compression_method_comparison(benchmark, capsys, trained):
    model, tokenizer = trained
    suite = build_suite(get_world(), names=BENCHES)
    all_layers = tuple(range(model.config.n_layers))
    roles = model.config.tensor_roles

    def drive():
        rows = []
        baseline = evaluate_suite(model, tokenizer, suite, limit=LIMIT).mean_accuracy
        rows.append(("dense baseline", 0.0, baseline))

        # Rank-1 Tucker on two spread layers (the paper's modest recipe).
        gamma = DecompositionConfig.all_tensors(model.config, (3, 8), rank=1)
        with decomposed(model, gamma) as report:
            accuracy = evaluate_suite(model, tokenizer, suite, limit=LIMIT).mean_accuracy
        rows.append(("tucker rank-1, 2 layers", report.parameter_reduction, accuracy))

        # 8-bit and 4-bit quantization of every decomposable tensor, saving
        # measured against the fp32 weights the int grids replace.
        for bits in (8, 4):
            report = quantize_model_real(model, bits, all_layers, roles)
            try:
                accuracy = evaluate_suite(
                    model, tokenizer, suite, limit=LIMIT
                ).mean_accuracy
            finally:
                restore_real_quantized(model, report)
            rows.append(
                (f"int{bits} quantization", 1.0 - 1.0 / report.memory_reduction_x,
                 accuracy)
            )

        # Magnitude pruning at 50% (no CSR saving) and 90% (real saving).
        for sparsity in (0.5, 0.9):
            report = prune_model_weights(model, all_layers, roles, sparsity)
            try:
                accuracy = evaluate_suite(
                    model, tokenizer, suite, limit=LIMIT
                ).mean_accuracy
            finally:
                restore_pruned(model, report)
            rows.append(
                (f"{int(100 * sparsity)}% magnitude pruning",
                 report.memory_reduction, accuracy)
            )
        return rows

    rows = run_once(benchmark, drive)

    with capsys.disabled():
        print("\n[Ablation] Compression methods on the trained tiny Llama")
        print(f"{'method':<26}{'mem saving':>11}{'accuracy':>10}")
        for name, saving, accuracy in rows:
            print(f"{name:<26}{100 * saving:>10.1f}%{100 * accuracy:>9.1f}%")

    by_name = {name: (saving, acc) for name, saving, acc in rows}
    baseline_acc = by_name["dense baseline"][1]
    # int8 quantization: ~70% saving over fp32 at near-zero accuracy cost.
    assert by_name["int8 quantization"][0] > 0.45
    assert by_name["int8 quantization"][1] >= baseline_acc - 0.05
    # Aggressive pruning saves memory but costs accuracy.
    assert by_name["90% magnitude pruning"][0] > 0.3
    # Decomposition trades a real reduction for a bounded drop.
    saving, accuracy = by_name["tucker rank-1, 2 layers"]
    assert saving > 0.10
    assert accuracy >= baseline_acc - 0.25
