"""Weight-quantization baseline: int8 grids + fp32 scales, real storage."""

import numpy as np
import pytest

from repro.compression import (
    dequantize_weight,
    quantize_model_real,
    quantize_weight,
    quantized_weight_bytes,
    restore_real_quantized,
)
from repro.errors import DecompositionError
from repro.nn import QuantizedFactorizedLinear, QuantizedLinear


class TestQuantizeWeight:
    def test_grid_within_range(self):
        weight = np.random.default_rng(0).normal(size=(16, 8)).astype(np.float32)
        grid, scales = quantize_weight(weight, bits=8)
        assert grid.max() <= 127 and grid.min() >= -128
        assert scales.shape == (8,)

    def test_round_trip_error_small_at_8_bits(self):
        weight = np.random.default_rng(1).normal(size=(64, 32)).astype(np.float32)
        grid, scales = quantize_weight(weight, bits=8)
        restored = dequantize_weight(grid, scales)
        relative = np.abs(restored - weight).max() / np.abs(weight).max()
        assert relative < 0.01

    def test_lower_bits_higher_error(self):
        weight = np.random.default_rng(2).normal(size=(64, 32)).astype(np.float32)
        errors = []
        for bits in (8, 4, 3, 2):
            grid, scales = quantize_weight(weight, bits=bits)
            errors.append(float(np.linalg.norm(dequantize_weight(grid, scales) - weight)))
        assert errors == sorted(errors)
        assert len(set(errors)) == len(errors)  # strictly monotone in bits

    def test_zero_column_handled(self):
        weight = np.zeros((4, 3), dtype=np.float32)
        grid, scales = quantize_weight(weight, bits=8)
        assert np.all(dequantize_weight(grid, scales) == 0.0)

    def test_zero_column_scale_falls_back_to_one(self):
        weight = np.ones((4, 3), dtype=np.float32)
        weight[:, 1] = 0.0
        grid, scales = quantize_weight(weight, bits=8)
        assert scales[1] == 1.0  # not 0, so dequantization never divides by 0
        assert np.all(grid[:, 1] == 0)
        np.testing.assert_array_equal(dequantize_weight(grid, scales)[:, 1], 0.0)

    def test_per_channel_scales(self):
        weight = np.ones((4, 2), dtype=np.float32)
        weight[:, 1] = 100.0
        _, scales = quantize_weight(weight, bits=8)
        assert scales[1] > scales[0]

    def test_unsupported_bits(self):
        with pytest.raises(DecompositionError):
            quantize_weight(np.ones((2, 2)), bits=7)

    def test_non_matrix_rejected(self):
        with pytest.raises(DecompositionError):
            quantize_weight(np.ones(5), bits=8)


class TestQuantizedBytes:
    # quantized_weight_bytes accounts exactly what the runtime stores: a
    # bits-wide grid plus one fp32 scale per output column (H*W*bits/8 + W*4).

    def test_int8_exact_grid_plus_fp32_scales(self):
        assert quantized_weight_bytes((100, 100), 8) == 100 * 100 * 8 / 8 + 100 * 4

    def test_int4_exact_grid_plus_fp32_scales(self):
        assert quantized_weight_bytes((100, 100), 4) == 100 * 100 * 4 / 8 + 100 * 4

    def test_scale_overhead_vanishes_for_tall_matrices(self):
        grid_only = 4096 * 100 * 4 / 8
        assert quantized_weight_bytes((4096, 100), 4) == pytest.approx(
            grid_only, rel=0.01
        )


def _slot(model, layer, role):
    owner, attr = model.tensor_slot(layer, role)
    return getattr(owner, attr)


class TestQuantizeModel:
    def test_in_place_and_restorable(self, micro_llama, tokenizer):
        tokens = np.random.default_rng(0).integers(1, tokenizer.vocab_size, size=(1, 6))
        micro_llama.eval()
        before = micro_llama(tokens).data.copy()
        report = quantize_model_real(micro_llama, 4, [0, 1], ["w_q", "w_d"])
        assert isinstance(_slot(micro_llama, 1, "w_d"), QuantizedLinear)
        during = micro_llama(tokens).data.copy()
        assert not np.array_equal(before, during)
        restore_real_quantized(micro_llama, report)
        assert np.array_equal(micro_llama(tokens).data, before)

    def test_memory_reduction_matches_bits(self, micro_llama):
        shape = _slot(micro_llama, 0, "w_q").weight.data.shape
        report = quantize_model_real(micro_llama, 8, [0], ["w_q"])
        try:
            # Measured storage is exactly the modeled int8 grid + fp32 scales.
            assert report.weight_bytes_after == quantized_weight_bytes(shape, 8)
            # Against the fp32 weights: a quarter, plus the scale overhead.
            saving = 1.0 - 1.0 / report.memory_reduction_x
            assert saving == pytest.approx(0.75, abs=0.05)
        finally:
            restore_real_quantized(micro_llama, report)

    def test_report_errors_bounded(self, micro_llama):
        """Relative weight error of the stored grids falls as bits rise and
        is small at int8."""
        from repro.decomposition.metrics import relative_error

        targets = [(0, "w_q"), (2, "w_so")]
        originals = {
            target: _slot(micro_llama, *target).weight.data.copy()
            for target in targets
        }
        mean_errors = []
        for bits in (2, 3, 4, 8):
            report = quantize_model_real(micro_llama, bits, [0, 2], ["w_q", "w_so"])
            try:
                mean_errors.append(
                    float(
                        np.mean(
                            [
                                relative_error(
                                    originals[target],
                                    _slot(micro_llama, *target).dequantize(),
                                )
                                for target in targets
                            ]
                        )
                    )
                )
            finally:
                restore_real_quantized(micro_llama, report)
        assert mean_errors == sorted(mean_errors, reverse=True)
        assert len(set(mean_errors)) == len(mean_errors)  # strictly falling
        assert 0.0 <= mean_errors[-1] < 0.02

    def test_restore_bit_exact_over_repeated_cycles(self, micro_llama, tokenizer):
        tokens = np.random.default_rng(7).integers(
            1, tokenizer.vocab_size, size=(1, 5)
        )
        micro_llama.eval()
        before = micro_llama(tokens).data.copy()
        originals = {
            name: param.data.copy()
            for name, param in micro_llama.named_parameters()
        }
        for bits in (8, 4, 2):
            report = quantize_model_real(
                micro_llama, bits, [0, 1], ["w_q", "w_u", "w_d"]
            )
            restore_real_quantized(micro_llama, report)
        for name, param in micro_llama.named_parameters():
            np.testing.assert_array_equal(param.data, originals[name])
        np.testing.assert_array_equal(micro_llama(tokens).data, before)

    def test_factorized_targets_quantize_per_factor(self, micro_llama, tokenizer):
        from repro.decomposition import DecompositionConfig, decompose_model

        decompose_model(
            micro_llama,
            DecompositionConfig(layers=(0,), roles=("w_q",), rank=2),
        )
        factorized = _slot(micro_llama, 0, "w_q")
        tokens = np.random.default_rng(8).integers(
            1, tokenizer.vocab_size, size=(1, 5)
        )
        micro_llama.eval()
        before = micro_llama(tokens).data.copy()
        report = quantize_model_real(micro_llama, 8, [0], ["w_q"])
        quantized = _slot(micro_llama, 0, "w_q")
        assert isinstance(quantized, QuantizedFactorizedLinear)
        # Each factor carries its own grid and per-output-column scales.
        for factor in ("u1", "core", "u2"):
            grid, scales = quantize_weight(getattr(factorized, factor).data, 8)
            np.testing.assert_array_equal(getattr(quantized, f"{factor}_grid"), grid)
            np.testing.assert_array_equal(getattr(quantized, f"{factor}_scales"), scales)
        assert not np.array_equal(micro_llama(tokens).data, before)
        restore_real_quantized(micro_llama, report)
        assert _slot(micro_llama, 0, "w_q") is factorized
        np.testing.assert_array_equal(micro_llama(tokens).data, before)

    def test_int8_nearly_lossless_on_trained_model(self, trained_llama):
        """The classic result: 8-bit weight quantization barely moves
        accuracy — the gentleness decomposition is compared against."""
        from repro.eval import build_suite, evaluate_suite
        from repro.experiments import get_world

        model, tokenizer = trained_llama
        suite = build_suite(get_world(), names=("arc_easy",))
        baseline = evaluate_suite(model, tokenizer, suite, limit=40).mean_accuracy
        report = quantize_model_real(model, 8)
        try:
            quantized = evaluate_suite(model, tokenizer, suite, limit=40).mean_accuracy
        finally:
            restore_real_quantized(model, report)
        assert quantized >= baseline - 0.05


class TestRealQuantization:
    def test_restore_swaps_original_modules_back(self, micro_llama, tokenizer):
        tokens = np.random.default_rng(10).integers(
            1, tokenizer.vocab_size, size=(1, 5)
        )
        micro_llama.eval()
        before = micro_llama(tokens).data.copy()
        report = quantize_model_real(micro_llama, 8)
        assert not np.array_equal(micro_llama(tokens).data, before)
        restore_real_quantized(micro_llama, report)
        np.testing.assert_array_equal(micro_llama(tokens).data, before)

    def test_memory_reduction_measured_above_3x_at_int8(self, micro_llama):
        report = quantize_model_real(micro_llama, 8)
        try:
            assert report.memory_reduction_x > 3.0
            assert report.weight_bytes_after < report.weight_bytes_before
        finally:
            restore_real_quantized(micro_llama, report)

    def test_double_quantization_rejected(self, micro_llama):
        report = quantize_model_real(micro_llama, 8)
        try:
            with pytest.raises(DecompositionError, match="already quantized"):
                quantize_model_real(micro_llama, 8)
        finally:
            restore_real_quantized(micro_llama, report)
