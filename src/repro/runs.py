"""Run artifacts: the one writer, loader and ledger of every bench command.

``repro serve-bench``, ``bench-decode`` (plain and ``--speculative``) and
``quant-sweep`` persist a run the same way, as a run directory::

    benchmarks/runs/<name>/
        manifest.json    # what the run was built from (enough to replay it)
        metrics.jsonl    # the report's per-item rows, one JSON object a line
        summary.json     # everything else the report knows
        report.md        # the report text the command printed

Every report class exposes the surface the writer needs: ``table()`` (the
printed text), ``summary()``, ``records()`` and ``trajectory_entry()``.
The split keeps the summary small and diff-able while the raw rows stay
greppable and streamable.

:func:`append_trajectory` keeps the repo's long-lived performance ledger
(``benchmarks/trajectory.jsonl``): one stamped line per written run, so
performance evidence survives in-repo rather than only as CI artifacts.
"""

from __future__ import annotations

import datetime as _datetime
import json
import subprocess
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import ConfigError

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"
SUMMARY_NAME = "summary.json"
REPORT_NAME = "report.md"

#: Default location of the repo-persistent performance ledger.
TRAJECTORY_PATH = Path("benchmarks") / "trajectory.jsonl"


def write_run_artifact(run_dir, manifest: dict, report) -> Path:
    """Persist one run as ``<run_dir>/{manifest,metrics,summary,report}``."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    (run_dir / METRICS_NAME).write_text(
        "".join(json.dumps(record) + "\n" for record in report.records())
    )
    (run_dir / SUMMARY_NAME).write_text(
        json.dumps(report.summary(), indent=2) + "\n"
    )
    (run_dir / REPORT_NAME).write_text(report.table() + "\n")
    return run_dir


def load_run(run_dir) -> Tuple[dict, dict, List[dict]]:
    """Read a run directory back: (manifest, summary, per-item records)."""
    run_dir = Path(run_dir)
    for name in (MANIFEST_NAME, SUMMARY_NAME, METRICS_NAME):
        if not (run_dir / name).exists():
            raise ConfigError(f"run directory {run_dir} is missing {name}")
    manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
    summary = json.loads((run_dir / SUMMARY_NAME).read_text())
    records = [
        json.loads(line)
        for line in (run_dir / METRICS_NAME).read_text().splitlines()
        if line.strip()
    ]
    return manifest, summary, records


def _git_commit() -> Optional[str]:
    """Short commit hash of the working tree, or None outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def append_trajectory(entry: dict, path=None) -> Path:
    """Append one summary line to the repo's performance ledger.

    Stamps the entry with today's date and the current short commit hash
    (callers may pre-set either key to override), then appends it as one
    JSON line to ``path`` (default :data:`TRAJECTORY_PATH`), creating
    parent directories as needed.  Append-only by design: the ledger is a
    time series, never rewritten.
    """
    path = TRAJECTORY_PATH if path is None else Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stamped = {
        "date": _datetime.date.today().isoformat(),
        "commit": _git_commit(),
        **entry,
    }
    with path.open("a") as handle:
        handle.write(json.dumps(stamped) + "\n")
    return path


__all__ = [
    "MANIFEST_NAME",
    "METRICS_NAME",
    "REPORT_NAME",
    "SUMMARY_NAME",
    "TRAJECTORY_PATH",
    "append_trajectory",
    "load_run",
    "write_run_artifact",
]
