"""Serving benchmark demo: continuous batching over dense vs decomposed
variants of the serve-llama model.

Replays one synthetic Poisson trace through the in-process inference engine
for each variant, then prints measured TTFT/throughput percentiles next to
the analytic roofline projection.  At serve-llama's width (dim 384) the
rank-1 factorized matmuls genuinely beat dense GEMMs in NumPy, so the
measured decode speedup points the same way as the paper's A100 serving
results (Figure 10).

    python examples/serving_benchmark.py [n_requests]
"""

import sys

import numpy as np

from repro.models import build_model, get_config
from repro.serving import EngineConfig, poisson_trace, run_serve_bench


def main() -> None:
    n_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    config = get_config("serve-llama")
    model = build_model(config, rng=np.random.default_rng(0))
    model.eval()

    trace = poisson_trace(
        n_requests=n_requests,
        rate_rps=50.0,
        vocab_size=config.vocab_size,
        prompt_len=(8, 32),
        new_tokens=(4, 16),
        seed=3,
    )
    report = run_serve_bench(
        model,
        ["dense", "pr33"],
        trace,
        engine_config=EngineConfig(
            max_batch=8, token_budget=64, n_blocks=256, block_tokens=16
        ),
    )
    print(report.table())
    dense = report.result_for("dense")
    print(
        f"\ndense engine: mean decode batch {dense.mean_decode_batch:.1f}, "
        f"queue wait p50 {1000 * dense.queue_wait_p50_s:.1f} ms, "
        f"e2e p95 {1000 * dense.e2e_p95_s:.1f} ms"
    )


if __name__ == "__main__":
    main()
