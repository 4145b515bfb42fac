"""Comparison baselines: quantization and sparsity (paper Section 1's
"model compression methods ... such as quantization and parameter pruning").

Each method mirrors the decomposition API shape: apply in place against
(layer, role) targets, get a report with memory accounting, restore
bit-exactly.
"""

from repro.compression.pruning import (
    PrunedTensorReport,
    PruningReport,
    csr_bytes,
    magnitude_mask,
    prune_model_weights,
    restore_pruned,
)
from repro.compression.quantization import (
    SUPPORTED_BITS,
    RealQuantizationReport,
    RealQuantizedTensor,
    dequantize_weight,
    quantize_model_real,
    quantize_weight,
    quantized_weight_bytes,
    restore_real_quantized,
)

__all__ = [
    "SUPPORTED_BITS",
    "quantize_weight",
    "dequantize_weight",
    "quantized_weight_bytes",
    "RealQuantizationReport",
    "RealQuantizedTensor",
    "quantize_model_real",
    "restore_real_quantized",
    "magnitude_mask",
    "csr_bytes",
    "PruningReport",
    "PrunedTensorReport",
    "prune_model_weights",
    "restore_pruned",
]
