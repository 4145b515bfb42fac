"""Experiment drivers: one per paper table/figure, plus shared fixtures."""

from repro.experiments.layer_choice import (
    LayerDistancePoint,
    LayerSensitivityPoint,
    edge_vs_middle_gap,
    run_layer_distance,
    run_layer_sensitivity,
)
from repro.experiments.pretrained import (
    fresh_tiny_llama,
    get_corpus,
    get_tokenizer,
    get_world,
    pretrained_tiny_bert,
    pretrained_tiny_llama,
)
from repro.experiments.quant_sweep import (
    QuantSweepPoint,
    QuantSweepReport,
    replay_quant_sweep,
    run_quant_sweep,
)
from repro.experiments.rank_sweep import (
    RankSweepPoint,
    rank_variation,
    run_rank_sweep,
    scale_rank,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.tensor_choice import (
    TensorChoicePoint,
    matched_layer_count,
    run_single_tensor_sensitivity,
    run_tensor_vs_layer_tradeoff,
)
from repro.experiments.tradeoff import (
    AccuracyTradeoffPoint,
    EfficiencyTradeoffPoint,
    measured_speedup,
    per_point_slopes,
    run_accuracy_tradeoff,
    run_efficiency_tradeoff,
)

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "get_world",
    "get_corpus",
    "get_tokenizer",
    "pretrained_tiny_llama",
    "pretrained_tiny_bert",
    "fresh_tiny_llama",
    "QuantSweepPoint",
    "QuantSweepReport",
    "replay_quant_sweep",
    "run_quant_sweep",
    "RankSweepPoint",
    "run_rank_sweep",
    "rank_variation",
    "scale_rank",
    "TensorChoicePoint",
    "run_single_tensor_sensitivity",
    "run_tensor_vs_layer_tradeoff",
    "matched_layer_count",
    "LayerSensitivityPoint",
    "LayerDistancePoint",
    "run_layer_sensitivity",
    "run_layer_distance",
    "edge_vs_middle_gap",
    "AccuracyTradeoffPoint",
    "EfficiencyTradeoffPoint",
    "run_accuracy_tradeoff",
    "run_efficiency_tradeoff",
    "measured_speedup",
    "per_point_slopes",
]
