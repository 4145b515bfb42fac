"""Compare the three compression levers on one trained model: low-rank
decomposition (the paper's subject) vs quantization vs magnitude pruning.

    python examples/compression_comparison.py [items-per-benchmark]
"""

import sys

from repro.compression import (
    prune_model_weights,
    quantize_model_real,
    restore_pruned,
    restore_real_quantized,
)
from repro.decomposition import DecompositionConfig, decomposed, suggest_layers
from repro.eval import build_suite, evaluate_suite
from repro.experiments import get_world, pretrained_tiny_llama
from repro.experiments.ascii_chart import bar_chart


def main(limit: int = 60) -> None:
    model, tokenizer = pretrained_tiny_llama()
    suite = build_suite(get_world(), names=("arc_easy", "arc_challenge", "winogrande"))
    all_layers = tuple(range(model.config.n_layers))
    roles = model.config.tensor_roles

    rows = []
    baseline = evaluate_suite(model, tokenizer, suite, limit=limit).mean_accuracy
    rows.append(("dense", 0.0, baseline))

    # Low-rank decomposition with the insight-driven layer recipe.
    layers = suggest_layers(model.config, target_reduction=0.15)
    gamma = DecompositionConfig.all_tensors(model.config, layers, rank=1)
    with decomposed(model, gamma) as report:
        accuracy = evaluate_suite(model, tokenizer, suite, limit=limit).mean_accuracy
    rows.append((f"tucker r1 x{len(layers)}L", report.parameter_reduction, accuracy))

    # Real int grids + fp32 scales; the saving is measured against the fp32
    # weights they replace (pruning's CSR accounting is against fp16).
    for bits in (8, 4):
        report = quantize_model_real(model, bits, all_layers, roles)
        try:
            accuracy = evaluate_suite(model, tokenizer, suite, limit=limit).mean_accuracy
        finally:
            restore_real_quantized(model, report)
        rows.append((f"int{bits} quant", 1.0 - 1.0 / report.memory_reduction_x, accuracy))

    for sparsity in (0.5, 0.9):
        report = prune_model_weights(model, all_layers, roles, sparsity)
        try:
            accuracy = evaluate_suite(model, tokenizer, suite, limit=limit).mean_accuracy
        finally:
            restore_pruned(model, report)
        rows.append((f"prune {int(100 * sparsity)}%", report.memory_reduction, accuracy))

    print(f"{'method':<18}{'memory saving':>14}{'mean accuracy':>15}")
    for name, saving, accuracy in rows:
        print(f"{name:<18}{100 * saving:>13.1f}%{100 * accuracy:>14.1f}%")

    print("\naccuracy by method:")
    print(bar_chart([r[0] for r in rows], [100 * r[2] for r in rows], max_value=100.0))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 60)
