import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from psrates.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_checker_selftest():
    # the benchmark refuses to report when its output checker's self-test fails
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _benchmark_jobs():
    """(workload, job, golden sha256 of its stdout) for every benchmark job
    at the golden seed, read from perfbench/ without importing its runner."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    return [(name, job, golden["digests"][name][job.name])
            for name, build in workloads.WORKLOADS.items()
            for job in build(golden["seed"])]


_JOBS = _benchmark_jobs()


@pytest.mark.parametrize("workload, job, digest", _JOBS, ids=[job.name for _, job, _ in _JOBS])
def test_benchmark_job_matches_golden_digest(capsys, workload, job, digest):
    # the benchmark counts a job whose stdout drifts from its digest as failed
    assert main(list(job.argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest, f"{workload}: {job.name} output changed"
