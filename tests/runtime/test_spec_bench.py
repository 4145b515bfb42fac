"""The speculative-decoding benchmark harness: shaping, cells, and JSON.

``run_spec_bench`` is what ``repro bench-decode --speculative`` calls; CI
gates on its report (every cell exact, acceptance above zero), so the
report's accounting is pinned here.
"""

import json

import numpy as np
import pytest

from repro.decomposition import shape_model_spectrum
from repro.decomposition.svd import impose_spectrum, singular_values
from repro.errors import ConfigError, DecompositionError
from repro.models import build_model
from repro.models.config import ModelConfig
from repro.runtime.benchmark import (
    SpecBenchCell,
    SpecBenchReport,
    run_decode_bench,
    run_spec_bench,
)

CONFIG = ModelConfig(
    name="bench-llama",
    family="llama",
    vocab_size=96,
    dim=32,
    n_layers=2,
    n_heads=4,
    n_kv_heads=2,
    mlp_hidden=48,
    max_seq_len=64,
)


@pytest.fixture(scope="module")
def base_model():
    model = build_model(CONFIG, rng=np.random.default_rng(2))
    model.eval()
    return model


class TestImposeSpectrum:
    def test_spectrum_is_exponential(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(12, 8))
        shaped = impose_spectrum(matrix, decay=0.5)
        values = singular_values(shaped)
        expected = values[0] * np.exp(-0.5 * np.arange(values.size))
        np.testing.assert_allclose(values, expected, rtol=1e-9)

    def test_zero_decay_keeps_flat_spectrum(self):
        rng = np.random.default_rng(1)
        shaped = impose_spectrum(rng.normal(size=(6, 6)), decay=0.0)
        values = singular_values(shaped)
        np.testing.assert_allclose(values, values[0], rtol=1e-9)

    def test_validation(self):
        with pytest.raises(DecompositionError):
            impose_spectrum(np.zeros(4), decay=0.1)
        with pytest.raises(DecompositionError):
            impose_spectrum(np.zeros((4, 4)), decay=-0.1)

    def test_shape_model_spectrum_touches_every_slot(self, base_model):
        clone = build_model(CONFIG)
        clone.load_state_dict(base_model.state_dict())
        count = shape_model_spectrum(clone, decay=0.4)
        assert count == CONFIG.n_layers * len(clone.tensor_roles)
        # The clone changed; the source model did not.
        assert not np.array_equal(
            clone.state_dict()["blocks.0.attn.w_q.weight"],
            base_model.state_dict()["blocks.0.attn.w_q.weight"],
        )


class TestRunSpecBench:
    @pytest.fixture(scope="class")
    def report(self, base_model):
        return run_spec_bench(
            base_model,
            drafter_specs=("dense", "rank8"),
            k_values=(2,),
            prompt_tokens=8,
            new_tokens=10,
            seed=3,
        )

    def test_every_cell_exact(self, report):
        assert report.all_tokens_match
        assert len(report.cells) == 2

    def test_shaped_dense_drafter_accepts_everything(self, report):
        by_name = {cell.drafter: cell for cell in report.cells}
        assert by_name["dense"].acceptance_rate == 1.0
        assert report.max_acceptance_rate == 1.0
        assert 0.0 <= by_name["rank8"].acceptance_rate <= 1.0

    def test_report_json_round_trip(self, report):
        payload = json.loads(json.dumps(report.summary()))
        assert payload["all_tokens_match"] is True
        assert payload["model"] == CONFIG.name
        assert payload["max_acceptance_rate"] == report.max_acceptance_rate
        assert payload["best_speedup_tp1"] == report.best_speedup_tp1
        assert payload["cells"] == len(report.cells)
        cell = json.loads(json.dumps(report.records()))[0]
        for key in ("drafter", "k", "tp", "tokens_match", "acceptance_rate",
                    "drafted", "accepted", "baseline_tokens_per_s",
                    "effective_tokens_per_s", "speedup"):
            assert key in cell

    def test_table_renders_every_cell(self, report):
        table = report.table()
        assert "exact" in table
        assert table.count("tok/s") == 2 * len(report.cells)

    def test_caller_model_never_mutated(self, base_model):
        before = {k: v.copy() for k, v in base_model.state_dict().items()}
        run_spec_bench(base_model, drafter_specs=("rank8",), k_values=(2,),
                       prompt_tokens=4, new_tokens=4, seed=0)
        after = base_model.state_dict()
        for name, weight in before.items():
            np.testing.assert_array_equal(weight, after[name])

    def test_validation(self, base_model):
        with pytest.raises(ConfigError):
            run_spec_bench(base_model, drafter_specs=())
        with pytest.raises(ConfigError):
            run_spec_bench(base_model, k_values=(0,))
        with pytest.raises(ConfigError):
            run_spec_bench(base_model, new_tokens=1)


@pytest.mark.parametrize("bench", [run_decode_bench, run_spec_bench])
@pytest.mark.parametrize("tp_degrees", [[], [0], [-1], [1, 0]])
def test_tp_degrees_below_one_rejected(base_model, bench, tp_degrees):
    with pytest.raises(ConfigError, match="tensor-parallel"):
        bench(base_model, tp_degrees=tp_degrees, prompt_tokens=4, new_tokens=4)


class TestReportAccounting:
    def cell(self, **overrides):
        defaults = dict(
            drafter="rank8", k=4, tp=1, tokens_match=True,
            acceptance_rate=0.75, drafted=8, accepted=6,
            baseline_tokens_per_s=100.0, effective_tokens_per_s=130.0,
        )
        defaults.update(overrides)
        return SpecBenchCell(**defaults)

    def test_speedup(self):
        assert self.cell().speedup == pytest.approx(1.3)
        assert self.cell(baseline_tokens_per_s=0.0).speedup == 0.0

    def test_mismatch_flagged_in_summary(self):
        assert "TOKEN MISMATCH" in self.cell(tokens_match=False).summary_line()
        assert "[exact]" in self.cell().summary_line()

    def test_best_speedup_gates_on_tp1_only(self):
        report = SpecBenchReport(
            model="m", prompt_tokens=4, new_tokens=4, seed=0, decay=0.35,
            cells=[
                self.cell(effective_tokens_per_s=110.0),
                self.cell(tp=2, effective_tokens_per_s=500.0),
            ],
        )
        assert report.best_speedup_tp1 == pytest.approx(1.1)
        assert not SpecBenchReport(
            model="m", prompt_tokens=4, new_tokens=4, seed=0, decay=0.35,
        ).best_speedup_tp1

    def test_empty_report_is_safe(self):
        report = SpecBenchReport(
            model="m", prompt_tokens=4, new_tokens=4, seed=0, decay=0.35
        )
        assert report.all_tokens_match  # vacuously
        assert report.max_acceptance_rate == 0.0
