"""The ``repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCommands:
    def test_experiments_lists_artifacts(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for artifact in ("table1", "fig9", "fig12", "ext-finetune"):
            assert artifact in out

    def test_run_table(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "O(2^37)" in out

    def test_run_with_unknown_experiment(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["run", "fig99"])

    def test_run_accuracy_experiment_with_limit(self, capsys, trained_llama):
        assert main(["run", "fig7", "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "aggregate accuracy" in out

    def test_eval_command(self, capsys, trained_llama):
        assert main(["eval", "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "arc_easy" in out and "mean" in out

    def test_train_loads_cached(self, capsys, trained_llama):
        assert main(["train", "--model", "tiny-llama"]) == 0
        assert "tiny-llama ready" in capsys.readouterr().out

    def test_serve_bench_smoke(self, capsys):
        assert main([
            "serve-bench",
            "--model", "tiny-llama",
            "--variants", "dense,pr33",
            "--requests", "8",
            "--prompt-len", "4:12",
            "--new-tokens", "2:5",
            "--max-batch", "4",
            "--token-budget", "24",
            "--blocks", "32",
            "--block-tokens", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "serve-bench: tiny-llama" in out
        assert "dense" in out and "pr33" in out
        assert "measured decode speedup over dense" in out

    def test_serve_bench_bad_range(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--prompt-len", "banana"])

    def test_serve_bench_unknown_variant(self):
        from repro.errors import ServingError

        with pytest.raises(ServingError):
            main(["serve-bench", "--requests", "2", "--variants", "warp9"])


RUN_FILES = ["manifest.json", "metrics.jsonl", "report.md", "summary.json"]


def _check_run(run_dir, ledger, out, verdict_key, bench):
    """The one run layout every bench command writes via ``--run-dir``."""
    from repro.runs import load_run

    assert sorted(path.name for path in run_dir.iterdir()) == RUN_FILES
    manifest, summary, records = load_run(run_dir)
    assert summary[verdict_key] is True
    assert records
    report_md = (run_dir / "report.md").read_text()
    assert report_md in out  # exactly the printed report text
    lines = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert [line["bench"] for line in lines] == [bench]
    assert lines[0][verdict_key] is True
    return manifest, summary, records, report_md


class TestRunDir:
    def test_bench_decode_run_dir(self, capsys, tmp_path):
        run_dir = tmp_path / "decode"
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "bench-decode", "--model", "tiny-llama", "--variants", "dense",
            "--tp", "1", "--prompt-tokens", "4", "--new-tokens", "3",
            "--run-dir", str(run_dir), "--trajectory", str(ledger),
        ]) == 0
        out = capsys.readouterr().out
        manifest, summary, records, report_md = _check_run(
            run_dir, ledger, out, "all_bit_identical", "bench-decode"
        )
        assert manifest["variants"] == ["dense"] and manifest["tp"] == [1]
        assert summary["cells"] == len(records) == 1
        assert records[0]["bit_identical"] is True
        assert report_md.startswith("bench-decode: tiny-llama")

    def test_bench_decode_speculative_run_dir(self, capsys, tmp_path):
        run_dir = tmp_path / "spec"
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "bench-decode", "--speculative", "--model", "tiny-llama",
            "--drafters", "rank8", "--spec-k", "2", "--tp", "1",
            "--prompt-tokens", "4", "--new-tokens", "4",
            "--run-dir", str(run_dir), "--trajectory", str(ledger),
        ]) == 0
        out = capsys.readouterr().out
        manifest, summary, records, report_md = _check_run(
            run_dir, ledger, out, "all_tokens_match", "bench-decode-spec"
        )
        assert manifest["drafters"] == ["rank8"] and manifest["k_values"] == [2]
        assert summary["cells"] == len(records) == 1
        assert records[0]["tokens_match"] is True
        assert report_md.startswith("bench-decode --speculative: tiny-llama")

    def test_quant_sweep_run_dir(self, capsys, tmp_path, trained_llama):
        run_dir = tmp_path / "sweep"
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "quant-sweep", "--specs", "dense", "--bits", "8", "--limit", "2",
            "--prompt-tokens", "4", "--new-tokens", "3",
            "--run-dir", str(run_dir), "--trajectory", str(ledger),
        ]) == 0
        out = capsys.readouterr().out
        manifest, summary, records, report_md = _check_run(
            run_dir, ledger, out, "all_bit_identical", "quant-sweep"
        )
        assert manifest["base_specs"] == ["dense"]
        assert manifest["bit_widths"] == [None, 8]
        assert summary["points"] == len(records) == 2
        assert "| dense-int8 | int8 " in report_md

    def test_no_trajectory_writes_only_the_run_dir(self, capsys, tmp_path):
        run_dir = tmp_path / "decode"
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "bench-decode", "--model", "tiny-llama", "--variants", "dense",
            "--tp", "1", "--prompt-tokens", "4", "--new-tokens", "3",
            "--run-dir", str(run_dir), "--trajectory", str(ledger),
            "--no-trajectory",
        ]) == 0
        assert sorted(path.name for path in run_dir.iterdir()) == RUN_FILES
        assert not ledger.exists()
