"""Run artifacts: manifest/metrics/summary round-trip and trace replay."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, ServingError
from repro.runs import load_run, write_run_artifact
from repro.serving import (
    EngineConfig,
    shared_prefix_trace,
    trace_from_manifest,
    trace_manifest,
)
from repro.serving.bench import run_serve_bench

RUN_FILES = ["manifest.json", "metrics.jsonl", "report.md", "summary.json"]


@pytest.fixture(scope="module")
def report(smoke_model, smoke_config):
    trace = shared_prefix_trace(
        8,
        rate_rps=100.0,
        vocab_size=smoke_config.vocab_size,
        n_tenants=2,
        prefix_tokens=16,
        seed=3,
    )
    return run_serve_bench(
        smoke_model,
        ["dense", "rank8"],
        trace,
        engine_config=EngineConfig(
            max_batch=4, token_budget=32, n_blocks=32, block_tokens=8
        ),
        seed=3,
        trace_info={"family": "prefix"},
    )


@pytest.fixture()
def manifest():
    return {
        "name": "test-run",
        "model": "smoke-llama",
        "seed": 3,
        "trace": trace_manifest(
            "prefix", 8, 100.0, 128, 3, n_tenants=2, prefix_tokens=16
        ),
    }


class TestWriteAndLoad:
    def test_round_trip(self, tmp_path, manifest, report):
        run_dir = write_run_artifact(tmp_path / "run", manifest, report)
        assert sorted(path.name for path in run_dir.iterdir()) == RUN_FILES
        loaded_manifest, summary, records = load_run(run_dir)
        assert loaded_manifest == manifest
        assert summary["model"] == report.model
        assert summary["trace_info"]["family"] == "prefix"
        # One metrics line per (variant, request); none left in the summary.
        assert len(records) == 2 * 8
        for result in summary["results"]:
            assert "requests" not in result
            assert result["prefix_lookups"] >= 0
        grouped = {}
        for record in records:
            grouped.setdefault(record["variant"], []).append(record)
        assert sorted(grouped) == ["dense", "rank8"]
        assert all(len(rows) == 8 for rows in grouped.values())
        for row in records:
            assert {"request_id", "generated", "ttft_s"} <= set(row)

    def test_metrics_jsonl_is_line_delimited(self, tmp_path, manifest, report):
        run_dir = write_run_artifact(tmp_path / "run", manifest, report)
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_manifest_without_trace_rejected(self, tmp_path, report):
        run_dir = write_run_artifact(tmp_path / "run", {"name": "x"}, report)
        loaded, _, _ = load_run(run_dir)
        with pytest.raises(ServingError, match="trace"):
            trace_from_manifest(loaded)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            load_run(tmp_path)

    def test_report_md_is_the_printed_table(self, tmp_path, manifest, report):
        run_dir = write_run_artifact(tmp_path / "run", manifest, report)
        assert (run_dir / "report.md").read_text() == report.table() + "\n"


class TestTraceReplay:
    def test_manifest_replays_bit_identical(self, manifest):
        first = trace_from_manifest(manifest)
        second = trace_from_manifest(manifest)
        assert len(first) == 8
        for x, y in zip(first, second):
            assert x.arrival_time == y.arrival_time
            np.testing.assert_array_equal(x.prompt, y.prompt)
            assert x.max_new_tokens == y.max_new_tokens
            assert x.tenant == y.tenant

    def test_replay_survives_json_round_trip(self, tmp_path, manifest, report):
        """Params serialized to disk (tuples become lists) must still
        rebuild the identical trace."""
        run_dir = write_run_artifact(tmp_path / "run", manifest, report)
        loaded, _, _ = load_run(run_dir)
        original = trace_from_manifest(manifest)
        replayed = trace_from_manifest(loaded)
        for x, y in zip(original, replayed):
            assert x.arrival_time == y.arrival_time
            np.testing.assert_array_equal(x.prompt, y.prompt)

    def test_missing_trace_key_raises(self):
        with pytest.raises(ServingError, match="missing key"):
            trace_from_manifest({"trace": {"family": "prefix"}})


class TestReferenceRun:
    """The checked-in reference run must stay loadable and replayable."""

    REFERENCE = "benchmarks/runs/prefix-share-reference"

    def test_reference_run_loads_and_replays(self):
        manifest, summary, records = load_run(self.REFERENCE)
        trace = trace_from_manifest(manifest)
        assert len(trace) == manifest["trace"]["n_requests"]
        assert summary["results"], "reference summary has no results"
        result = summary["results"][0]
        assert result["tokens_match_unshared"] is True
        assert result["prefix_hits"] > 0
        assert result["prefill_tokens_saved"] > 0
        assert records, "reference run has no per-request records"

    ROUTED_REFERENCE = "benchmarks/runs/slo-router-reference"

    def test_routed_reference_run_loads_and_replays(self):
        manifest, summary, records = load_run(self.ROUTED_REFERENCE)
        trace = trace_from_manifest(manifest)
        assert len(trace) == manifest["trace"]["n_requests"]
        assert manifest["router"] == "slo"
        vs_fixed = summary["goodput_vs_fixed"]
        assert vs_fixed["beats_best_fixed"] is True
        assert vs_fixed["routed"] > vs_fixed["best_fixed"]
        assert any(record.get("qos") for record in records)


@pytest.fixture(scope="module")
def routed_report(smoke_model, smoke_config):
    from repro.serving import RouterConfig, make_trace

    trace = make_trace(
        "bursty",
        10,
        150.0,
        smoke_config.vocab_size,
        seed=4,
        prompt_len=(6, 12),
        new_tokens=(4, 8),
        qos_mix={"gold": 0.3, "interactive": 0.3, "batch": 0.4},
    )
    return run_serve_bench(
        smoke_model,
        ["dense", "rank8", "rank1"],
        trace,
        engine_config=EngineConfig(
            max_batch=4, token_budget=32, n_blocks=48, block_tokens=8
        ),
        seed=4,
        router="slo",
        # Hair-trigger hysteresis so even this tiny burst produces a
        # decision log to persist.
        router_config=RouterConfig(degrade_at=2, upgrade_at=0, dwell_steps=1),
        trace_info={"family": "bursty"},
    )


@pytest.fixture()
def routed_manifest():
    return {
        "name": "routed-run",
        "model": "smoke-llama",
        "seed": 4,
        "router": "slo",
        "trace": trace_manifest(
            "bursty",
            10,
            150.0,
            128,
            4,
            prompt_len=[6, 12],
            new_tokens=[4, 8],
            qos_mix={"gold": 0.3, "interactive": 0.3, "batch": 0.4},
        ),
    }


class TestReportRendering:
    def test_report_md_written(self, tmp_path, manifest, report):
        run_dir = write_run_artifact(tmp_path / "run", manifest, report)
        text = (run_dir / "report.md").read_text()
        assert "# serve-bench: smoke-llama" in text
        assert "| dense " in text
        # An unrouted run renders no router/QoS sections.
        assert "Router decisions" not in text
        assert sorted(path.name for path in run_dir.iterdir()) == RUN_FILES

    def test_routed_run_gets_router_log_and_sections(
        self, tmp_path, routed_manifest, routed_report
    ):
        run_dir = write_run_artifact(
            tmp_path / "run", routed_manifest, routed_report
        )
        text = (run_dir / "report.md").read_text()
        assert "## Per-class outcomes" in text
        assert "## Router decisions" in text
        assert "slo-router" in text
        assert "**Goodput:**" in text
        _, summary, _ = load_run(run_dir)
        routed = [r for r in summary["results"] if r["router"]]
        assert [r["spec"] for r in routed] == ["slo-router"]
        decisions = routed[0]["router"]["decisions"]
        assert decisions, "routed run must persist its decision log"
        assert {"action", "from", "to", "step"} <= set(decisions[0])

    def test_every_row_projected_at_declared_max_batch(self, routed_report):
        """Fixed and routed rows share one projection batch: the engine's
        max_batch, not each replay's measured mean decode batch."""
        assert len(routed_report.results) == 4
        for result in routed_report.results:
            assert result.projection.batch == 4, result.spec

    def test_unrouted_run_overwrites_a_routed_one(
        self, tmp_path, manifest, report, routed_manifest, routed_report
    ):
        run_dir = tmp_path / "run"
        write_run_artifact(run_dir, routed_manifest, routed_report)
        write_run_artifact(run_dir, manifest, report)
        assert sorted(path.name for path in run_dir.iterdir()) == RUN_FILES
        loaded_manifest, summary, records = load_run(run_dir)
        assert loaded_manifest == manifest
        assert all(result["router"] is None for result in summary["results"])
        assert {record["variant"] for record in records} == {"dense", "rank8"}
        assert "Router decisions" not in (run_dir / "report.md").read_text()

    def test_routed_summary_round_trips(
        self, tmp_path, routed_manifest, routed_report
    ):
        run_dir = write_run_artifact(
            tmp_path / "run", routed_manifest, routed_report
        )
        _, summary, records = load_run(run_dir)
        assert summary["qos_info"]["ladder"] == ["dense", "rank8", "rank1"]
        assert summary["goodput_vs_fixed"] is not None
        routed_rows = [
            r for r in summary["results"] if r["spec"] == "slo-router"
        ]
        assert routed_rows and routed_rows[0]["goodput"]["eligible"] == 10
        assert any(record.get("qos") for record in records)

    def test_load_run_tolerates_missing_new_files(self, tmp_path, manifest, report):
        """Pre-QoS run directories have no report.md."""
        run_dir = write_run_artifact(tmp_path / "run", manifest, report)
        (run_dir / "report.md").unlink()
        loaded_manifest, summary, records = load_run(run_dir)
        assert loaded_manifest["name"] == manifest["name"]
        assert summary["results"]


class TestTrajectory:
    def test_append_creates_and_stamps(self, tmp_path):
        from repro.runs import append_trajectory

        path = tmp_path / "nested" / "trajectory.jsonl"
        append_trajectory({"bench": "serve-bench", "model": "m"}, path=path)
        append_trajectory({"bench": "bench-decode", "date": "2001-01-01"}, path=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["bench"] == "serve-bench"
        assert lines[0]["date"]  # stamped
        assert "commit" in lines[0]
        # Caller-provided stamps win.
        assert lines[1]["date"] == "2001-01-01"

    def test_repo_ledger_is_valid_jsonl(self):
        """The checked-in ledger must stay parseable line by line."""
        from pathlib import Path

        from repro.runs import TRAJECTORY_PATH

        assert Path(TRAJECTORY_PATH).exists()
        for line in Path(TRAJECTORY_PATH).read_text().splitlines():
            entry = json.loads(line)
            assert "bench" in entry and "date" in entry
