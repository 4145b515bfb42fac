"""Post-training weight quantization: real int8 storage.

The paper motivates low-rank decomposition alongside quantization and
sparsity as the memory-footprint levers for LLMs (Section 1); this module
provides the quantization baseline so the two can be compared at matched
memory budgets.

:func:`quantize_model_real` swaps the targeted modules for
:class:`~repro.nn.QuantizedLinear` / :class:`~repro.nn.QuantizedFactorizedLinear`
twins that keep only the int8 grids + fp32 scales (the grid math lives in
:mod:`repro.nn.quantized` so the module layer can use it without importing
this package), so serving memory actually shrinks and the fast path runs
its quantized kernels.  Dense ``Linear`` and decomposed ``FactorizedLinear``
targets both work (each factor is quantized independently — the
compound-compression case).  The twins' Tensor path dequantizes the full
grid, so accuracy evaluation sees the exact quantization error, and
:func:`restore_real_quantized` swaps the original modules back bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import DecompositionError
from repro.nn import FactorizedLinear
from repro.nn.quantized import (
    SUPPORTED_BITS,
    QuantizedFactorizedLinear,
    QuantizedLinear,
    dequantize_weight,
    quantize_module,
    quantize_weight,
    quantized_weight_bytes,
)

__all__ = [
    "SUPPORTED_BITS",
    "quantize_weight",
    "dequantize_weight",
    "quantized_weight_bytes",
    "RealQuantizedTensor",
    "RealQuantizationReport",
    "quantize_model_real",
    "restore_real_quantized",
]

_FACTOR_ATTRS = ("u1", "core", "u2")


@dataclass
class RealQuantizedTensor:
    """Measured byte accounting for one module swapped to quantized storage."""

    layer: int
    role: str
    bits: int
    fp32_bytes: float  # nbytes of the fp32 arrays the grid replaced
    quantized_bytes: float  # nbytes of the int8 grids + fp32 scales kept


@dataclass
class RealQuantizationReport:
    """Aggregate outcome of :func:`quantize_model_real`.

    Byte figures are *measured* (``ndarray.nbytes``), not modeled: the
    fp32 arrays the swap discarded vs. the grids + scales it now holds.
    """

    bits: int
    tensors: List[RealQuantizedTensor] = field(default_factory=list)
    _originals: Dict[Tuple[int, str], object] = field(default_factory=dict, repr=False)

    @property
    def weight_bytes_before(self) -> float:
        return sum(t.fp32_bytes for t in self.tensors)

    @property
    def weight_bytes_after(self) -> float:
        return sum(t.quantized_bytes for t in self.tensors)

    @property
    def memory_reduction_x(self) -> float:
        """Multiplicative shrink (e.g. ~3.8x for int8 over fp32)."""
        after = self.weight_bytes_after
        if after == 0:
            return 1.0
        return self.weight_bytes_before / after


def _module_fp32_bytes(module) -> float:
    if isinstance(module, FactorizedLinear):
        return float(sum(getattr(module, f).data.nbytes for f in _FACTOR_ATTRS))
    return float(module.weight.data.nbytes)


def quantize_model_real(
    model,
    bits: int,
    layers: Optional[Iterable[int]] = None,
    roles: Optional[Iterable[str]] = None,
) -> RealQuantizationReport:
    """Swap targeted projections for quantized-storage twins, in place.

    Defaults to every per-layer projection role in the model (the LM head
    and embedding stay fp32 — they dominate accuracy, not weight bytes,
    at the model scales this repo serves).  Dense and factorized targets
    both work; the report keeps the original modules so
    :func:`restore_real_quantized` can swap them back.
    """
    if bits not in SUPPORTED_BITS:
        raise DecompositionError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    config = model.config
    layers = (
        sorted(set(int(l) for l in layers))
        if layers is not None
        else list(range(config.n_layers))
    )
    roles = (
        list(dict.fromkeys(roles)) if roles is not None else list(config.tensor_roles)
    )
    report = RealQuantizationReport(bits=bits)
    for layer in layers:
        for role in roles:
            owner, attr = model.tensor_slot(layer, role)
            module = getattr(owner, attr)
            if isinstance(module, (QuantizedLinear, QuantizedFactorizedLinear)):
                raise DecompositionError(
                    f"({layer}, {role}) is already quantized"
                )
            fp32_bytes = _module_fp32_bytes(module)
            quantized = quantize_module(module, bits)
            setattr(owner, attr, quantized)
            report._originals[(layer, role)] = module
            report.tensors.append(
                RealQuantizedTensor(
                    layer=layer,
                    role=role,
                    bits=bits,
                    fp32_bytes=fp32_bytes,
                    quantized_bytes=quantized.weight_bytes(),
                )
            )
    model.eval()
    return report


def restore_real_quantized(model, report: RealQuantizationReport) -> None:
    """Undo :func:`quantize_model_real` by swapping the originals back."""
    for (layer, role), module in report._originals.items():
        owner, attr = model.tensor_slot(layer, role)
        setattr(owner, attr, module)
    model.eval()
