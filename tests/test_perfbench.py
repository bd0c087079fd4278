import hashlib
import importlib
import importlib.util
import inspect
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


def _perfbench_module(name):
    """perfbench/<name>.py, loaded by path without importing its runner."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _perfbench_module("workloads")
_GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
# (workload, job, golden sha256 of its stdout) for every benchmark job at the
# golden seed
_JOBS = [(name, job, _GOLDEN["digests"][name][job.name])
         for name, build in _WORKLOADS.WORKLOADS.items()
         for job in build(_GOLDEN["seed"])]


@pytest.mark.parametrize("workload, job, digest", _JOBS, ids=[job.name for _, job, _ in _JOBS])
def test_benchmark_job_matches_golden_digest(capsys, workload, job, digest):
    # the benchmark counts a job whose stdout drifts from its digest as failed
    assert main(list(job.argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest, f"{workload}: {job.name} output changed"


@pytest.mark.parametrize("workload", sorted(_WORKLOADS.WORKLOADS))
def test_traced_pass_sees_expected_spans(capsys, workload):
    # the benchmark's traced pass fails a workload whose required spans are
    # missing, for instance when a refactor stops calling a traced function
    spans = _perfbench_module("spans")
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        for job in _WORKLOADS.WORKLOADS[workload](_GOLDEN["seed"]):
            assert main(list(job.argv)) == 0
    capsys.readouterr()
    seen = {s.name for s in tracer.spans}
    missing = [name for name in _WORKLOADS.EXPECTED_SPANS[workload] if name not in seen]
    assert not missing, f"{workload}: spans missing from the traced pass: {missing}"


def test_traced_names_are_public_functions():
    # instrumented skips a TRACED name that its module lacks, so deleting or
    # renaming a traced function would drop its span without a failure
    spans = _perfbench_module("spans")
    names = [f"{layer}.{attr}" for layer, attrs in spans.TRACED.items() for attr in attrs or ()]
    names += [name for expected in _WORKLOADS.EXPECTED_SPANS.values() for name in expected]
    bad = []
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"psrates.{layer}")
        obj = getattr(module, attr, None)
        if not (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not attr.startswith("_")):
            bad.append(name)
    assert not bad, f"traced names that are not public psrates functions: {bad}"
