"""The benchmark's own tests, on tiny-llama with a handful of requests.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from perfbench import bench
from perfbench import run as run_module
from perfbench.run import ROOT, run
from perfbench.tracing import self_times
from perfbench.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = {
    False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    True: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}
#: Generator overrides that fit tiny-llama's 192-token window and run fast.
SMALL = {
    "decode-long": dict(n_requests=4, new_tokens=(4, 8)),
    "prefix-chat": dict(n_requests=4, new_tokens=(2, 4)),
    "prefill-pressure": dict(n_requests=4, prompt_len=(16, 96), new_tokens=(2, 6)),
}


def tiny_run(workload, tmp_path, seed=3, trace=False, **overrides):
    params = {**SMALL[workload], **overrides}
    return run(workload, seed, 0.0, trace, tmp_path, model_name="tiny-llama",
               setup_repeats=1, **params)


def test_benchmark_names_its_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert "setup_s" in EXPECTED[False]


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result = tiny_run(workload, tmp_path, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * SMALL[workload]["n_requests"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == EXPECTED[trace]
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(result)  # the printed line must serialize


def test_every_set_up_is_timed_and_a_round_is_measured(tmp_path):
    result = run("decode-long", 3, 0.0, False, tmp_path, model_name="tiny-llama",
                 setup_repeats=2, **SMALL["decode-long"])
    saved = json.loads((tmp_path / "decode-long-seed3-trace0" / "result.json").read_text())
    assert len(saved["setup_runs"]) == 2
    assert saved["rounds"] == 1
    assert result["attempted"] == 2 * SMALL["decode-long"]["n_requests"]


def test_injected_wrong_token_is_a_failure(monkeypatch, tmp_path):
    real = bench.Replay.finish
    corrupted = []

    def corrupt_first_measured_rank8_pass(self):
        result = real(self)
        # Warm-up passes have 8 requests; the measured ones have 4.
        if result.variant == "rank8" and not corrupted and len(result.requests) == 4:
            request = result.requests[0]
            request.generated[-1] = (request.generated[-1] + 1) % self.model.config.vocab_size
            corrupted.append(request.request_id)
        return result

    monkeypatch.setattr(bench.Replay, "finish", corrupt_first_measured_rank8_pass)
    result = tiny_run("decode-long", tmp_path)
    assert corrupted
    assert not result["correct"]
    assert result["failed"] == 1


def test_rejected_requests_are_failures(tmp_path):
    # Prompt plus budget overflows tiny-llama's 192-token window.
    result = tiny_run("decode-long", tmp_path, prompt_len=(190, 190))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_main_exits_nonzero_on_incorrect_result(monkeypatch, capsys):
    monkeypatch.setattr(run_module, "run", lambda *args, **kwargs: {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}})
    code = run_module.main(["--workload", "decode-long", "--seed", "0", "--seconds", "0"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["failed"] == 1


def test_seed_changes_inputs_but_not_metric_set(tmp_path):
    workload = WORKLOADS["prefix-chat"]
    first = workload.items(1, 512)
    again = workload.items(1, 512)
    other = workload.items(2, 512)
    assert all(np.array_equal(a.prompt, b.prompt) and a.due == b.due
               for a, b in zip(first, again))
    assert any(not np.array_equal(a.prompt, b.prompt) for a, b in zip(first, other))
    one = tiny_run("prefix-chat", tmp_path / "a", seed=1)
    two = tiny_run("prefix-chat", tmp_path / "b", seed=2)
    assert set(one["metrics"]) == set(two["metrics"]) == set(EXPECTED[False])


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, "step", 0.0, 10.0, None, None),
        (1, "forward", 1.0, 7.0, 0, [0, 1]),
        (2, "paged.seal_page", 2.0, 3.0, 1, None),
        (3, "paged.allocate", 8.0, 9.0, 0, None),
    ]
    assert self_times(spans) == {
        "step": 3.0, "forward": 5.0, "paged.seal_page": 1.0, "paged.allocate": 1.0,
    }
