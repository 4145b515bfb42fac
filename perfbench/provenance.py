"""Where and on what a run happened: host, toolchain, commit, inputs."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Optional

import numpy as np

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {}
    return {
        name: {key: deps[name].get(key) for key in ("name", "version", "openblas configuration")}
        for name in ("blas", "lapack")
        if name in deps
    }


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from ``.git`` directly (None outside a checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, workload: dict, seed: int, seconds: float, trace: bool) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "host": {
            "nproc": usable,
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "machine": platform.machine(),
            "threads_env": {var: os.environ.get(var) for var in _THREAD_VARS},
            # OpenBLAS honours these variables in this order, else uses
            # one thread per usable CPU.
            "blas_threads": int(
                os.environ.get("OPENBLAS_NUM_THREADS")
                or os.environ.get("OMP_NUM_THREADS")
                or usable
            ),
            "blas": _blas(),
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": workload,
    }
