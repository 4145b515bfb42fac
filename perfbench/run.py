"""Serving benchmark: one workload, one seed, dense and rank8 side by side.

    python3 perfbench/run.py --workload decode-long --seed 0 --seconds 10 --trace 0

Run from the repository root.  Prints a provenance line, an output-check
line, and as its last line one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see ``BENCHMARK.json``).  Spans and the
result are also written under ``perfbench/out/``.  Exits 1 when any
request failed or any sampled output differs from ``greedy_generate``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _add_import_paths() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {src}")
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path, model_name=None, setup_repeats=None, **overrides) -> dict:
    """One benchmark run; returns the result object printed last.

    ``model_name``, ``setup_repeats`` and ``overrides`` (workload generator
    parameters) exist for the benchmark's own tests, which shrink the run.
    """
    from perfbench import bench
    from perfbench.provenance import provenance
    from perfbench.workloads import MODEL, VARIANTS, WORKLOADS
    from repro.models import get_config

    workload = WORKLOADS[workload_name]
    model_name = model_name or MODEL
    described = workload.describe()
    described["params"].update(overrides)
    described["model"] = model_name
    prov = provenance(ROOT, described, seed, seconds, trace)
    print(json.dumps({"provenance": prov}), flush=True)

    items = workload.items(seed, get_config(model_name).vocab_size, **overrides)
    rounds = bench.measure(workload, model_name, items, seconds, trace,
                           setup_repeats or bench.SETUP_REPEATS)
    served, passes, check = rounds.served, rounds.passes, rounds.check
    setup_medians = {key: statistics.median(run[key] for run in rounds.setups)
                     for key in rounds.setups[0]}
    memory = bench.memory_of(served, passes)
    print(json.dumps({"check": check}), flush=True)

    all_passes = [p for spec in VARIANTS for p in passes[spec]]
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes) + sum(
        len(c["mismatched"]) for c in check.values()
    )
    if trace:
        metrics = bench.per_layer(served, workload, items, passes, memory, setup_medians)
    else:
        metrics = bench.end_to_end(passes, memory, setup_medians["setup_s"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }

    run_dir = out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "provenance.json").write_text(json.dumps(prov, indent=2))
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "check": check, "setup_runs": rounds.setups,
         "rounds": rounds.count, "measured_s": rounds.elapsed}, indent=2))
    spans_path = run_dir / "spans.jsonl"
    spans_path.unlink(missing_ok=True)
    for index, p in enumerate(all_passes):
        if p.traced:
            p.spans.write(spans_path, {"index": index, "variant": p.variant})
    return result


def main(argv=None) -> int:
    _add_import_paths()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
