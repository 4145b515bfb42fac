"""The rank × bits joint design-space sweep and its replayable artifact."""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.quant_sweep import (
    replay_quant_sweep,
    run_quant_sweep,
    sweep_manifest,
    sweep_specs,
)
from repro.runs import load_run, write_run_artifact


class TestSweepSpecs:
    def test_crosses_variants_with_bit_widths(self):
        assert sweep_specs(("dense", "rank8"), (None, 8)) == [
            "dense",
            "dense-int8",
            "rank8",
            "rank8-int8",
        ]

    def test_bit_widths_deduplicated_in_order(self):
        assert sweep_specs(("dense",), (8, None, 8)) == ["dense-int8", "dense"]

    def test_empty_base_specs_rejected(self):
        with pytest.raises(ConfigError):
            sweep_specs((), (None,))


@pytest.fixture(scope="module")
def small_sweep():
    """One minimal joint-space sweep, shared across the module's tests."""
    return run_quant_sweep(
        base_specs=("dense", "rank8"),
        bit_widths=(None, 8),
        limit=4,
        prompt_tokens=6,
        new_tokens=5,
        seed=0,
        benchmarks=("arc_easy",),
    )


class TestRunQuantSweep:
    def test_covers_the_joint_space(self, small_sweep):
        assert [p.spec for p in small_sweep.points] == [
            "dense",
            "dense-int8",
            "rank8",
            "rank8-int8",
        ]

    def test_every_point_bit_identical(self, small_sweep):
        assert small_sweep.all_bit_identical

    def test_quantized_points_carry_memory_metrics(self, small_sweep):
        quantized = small_sweep.point("dense-int8")
        assert quantized.bits == 8
        assert quantized.memory_reduction_x > 3.0
        assert quantized.compound_reduction_x > 3.0
        fp32 = small_sweep.point("dense")
        assert fp32.bits is None and fp32.compound_reduction_x is None

    def test_compound_compression_beats_quantization_alone(self, small_sweep):
        assert (
            small_sweep.point("rank8-int8").compound_reduction_x
            > small_sweep.point("dense-int8").compound_reduction_x
        )

    def test_hwmodel_projects_smaller_footprint_when_quantized(self, small_sweep):
        assert (
            small_sweep.point("dense-int8").projected_memory_gb
            < small_sweep.point("dense").projected_memory_gb
        )

    def test_fingerprints_distinguish_operating_points(self, small_sweep):
        fingerprints = [p.logits_fingerprint for p in small_sweep.points]
        assert all(len(f) == 64 for f in fingerprints)
        assert len(set(fingerprints)) == len(fingerprints)

    def test_table_and_trajectory_entry(self, small_sweep):
        table = small_sweep.table()
        assert "rank8-int8" in table and "exact" in table
        entry = small_sweep.trajectory_entry()
        assert entry["bench"] == "quant-sweep"
        assert entry["all_bit_identical"] is True
        assert set(entry["cells"]) == {p.spec for p in small_sweep.points}

    def test_unknown_point_rejected(self, small_sweep):
        with pytest.raises(ConfigError):
            small_sweep.point("rank3")


class TestSweepArtifact:
    def test_round_trip_and_replay(self, small_sweep, tmp_path):
        manifest = sweep_manifest(small_sweep)
        run_dir = write_run_artifact(tmp_path / "sweep", manifest, small_sweep)
        loaded_manifest, summary, records = load_run(run_dir)
        assert loaded_manifest["base_specs"] == ["dense", "rank8"]
        assert loaded_manifest["bit_widths"] == [None, 8]
        assert summary["all_bit_identical"] is True
        assert summary["points"] == len(records) == 4
        assert {r["spec"] for r in records} == {
            p.spec for p in small_sweep.points
        }
        report_md = (run_dir / "report.md").read_text()
        assert "| rank8-int8 | int8 " in report_md
        assert report_md == small_sweep.table() + "\n"
        # Replay rebuilds the sweep from the manifest alone; every greedy
        # decode fingerprint must land on the recorded bytes exactly.
        replayed, matches = replay_quant_sweep(run_dir)
        assert matches and all(matches.values())
        assert replayed.all_bit_identical

    def test_metrics_lines_are_valid_json(self, small_sweep, tmp_path):
        run_dir = write_run_artifact(
            tmp_path / "s", sweep_manifest(small_sweep), small_sweep
        )
        for line in (run_dir / "metrics.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert "logits_fingerprint" in record

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            load_run(tmp_path)

    def test_render_handles_fp32_and_quantized_rows(self, small_sweep):
        rendered = small_sweep.table()
        assert "fp32" in rendered and "int8" in rendered
        assert "exact across all points" in rendered

    def test_reference_sweep_loads(self):
        manifest, summary, records = load_run(
            "benchmarks/runs/quant-sweep-reference"
        )
        assert summary["all_bit_identical"] is True
        assert summary["points"] == len(records) == 9
        assert [r["spec"] for r in records] == [
            f"{base}{suffix}"
            for base in manifest["base_specs"]
            for suffix in ("", "-int8", "-int4")
        ]
