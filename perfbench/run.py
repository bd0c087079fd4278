"""Benchmark of the psrates command-line tool, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload rate-curve --seed 0 --seconds 30 --trace 0

With `--trace 0` it runs the workload's CLI jobs one at a time, each in a
fresh `python -m psrates.cli` process timed from spawn to exit, in passes
until `--seconds` have elapsed, and reports wall time per pass, cold import
time and peak RSS. With `--trace 1` it runs the same jobs in-process through
`psrates.cli.main`, alternating untraced and traced passes, and reports the
per-layer metrics of the traced ones. Every job's output is checked, and the
last line of stdout is one JSON object with the result. A manifest of the
run, and with `--trace 1` its spans, are written under `.perfbench_runs/`.
"""

import os

# The load model runs numpy single-threaded; set before numpy is imported so
# that in-process passes follow it as well as child processes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import check
import selftest
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
GOLDEN = HERE / "golden.json"

MIN_PASSES = 3
IMPORTS_PER_PASS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import psrates; "
                "print(time.perf_counter() - t); print(psrates.__file__)")


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclasses.dataclass
class JobRun:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int = 0
    cpu_s: float = 0.0


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(args, env):
    """Run `python *args` to completion; time it from spawn to exit."""
    with tempfile.TemporaryFile(dir=RUNS) as out, tempfile.TemporaryFile(dir=RUNS) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return JobRun(wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss,
                      usage.ru_utime + usage.ru_stime)


def run_cli_job(job, env):
    return spawn(("-m", "psrates.cli", *job.argv), env)


def import_time(env):
    """Cold `import psrates` in a fresh interpreter, in seconds."""
    run = spawn(("-c", IMPORT_PROBE), env)
    lines = run.stdout.decode().split()
    if run.returncode != 0 or len(lines) != 2:
        raise BenchError(f"import psrates failed:\n{run.stderr.decode()}")
    if not Path(lines[1]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported psrates from {lines[1]}, not from {SRC}")
    return float(lines[0])


def digest(data):
    return hashlib.sha256(data).hexdigest()


def judge(jobs, runs, first_digests, golden):
    """Problems of each job in one pass: exit code, traceback, digests, checker."""
    problems, outputs = {}, {}
    for job in jobs:
        run = runs[job.name]
        found = []
        if run.returncode != 0:
            found.append(f"exit code {run.returncode}")
        if b"Traceback" in run.stderr:
            found.append("traceback on stderr")
        d = digest(run.stdout)
        if first_digests.setdefault(job.name, d) != d:
            found.append("stdout differs from the first pass at this seed")
        if golden is not None and golden.get(job.name) != d:
            found.append("stdout differs from the golden digest")
        problems[job.name] = found
        outputs[job.name] = run.stdout.decode() if run.returncode == 0 else None
    for name, found in check.check_pass(jobs, outputs).items():
        problems[name] += found
    return problems


def load_golden(workload, seed):
    data = json.loads(GOLDEN.read_text())
    if seed != data["seed"]:
        return None
    return data["digests"].get(workload, {})


def quartiles(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}


def measure_end_to_end(jobs, seconds, golden, log):
    env = child_env()
    walls, rss, imports = [], [], []
    first_digests = {}
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        imports += [import_time(env) for _ in range(IMPORTS_PER_PASS)]
        runs = {job.name: run_cli_job(job, env) for job in jobs}
        walls.append(sum(r.wall_s for r in runs.values()))
        rss.append(max(r.maxrss_kb for r in runs.values()) / 1024)
        log.append({
            "jobs": {name: {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "maxrss_kb": r.maxrss_kb,
                            "returncode": r.returncode, "stdout_sha256": digest(r.stdout)}
                     for name, r in runs.items()},
            "problems": judge(jobs, runs, first_digests, golden),
        })
    stats = {"wall_s": quartiles(walls), "setup_s": quartiles(imports),
             "peak_rss_mb": quartiles(rss)}
    metrics = {
        "wall_s": (stats["wall_s"]["median"], "s"),
        "setup_s": (stats["setup_s"]["median"], "s"),
        "peak_rss_mb": (stats["peak_rss_mb"]["median"], "MB"),
    }
    return metrics, stats


def run_in_process(main, job):
    """Run one job through `main(argv)` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(job.argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    return JobRun(wall, code, out.getvalue().encode(), err.getvalue().encode())


def import_in_process():
    sys.path.insert(0, str(SRC))
    import psrates.cli
    if not Path(psrates.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported psrates from {psrates.__file__}, not from {SRC}")
    return psrates.cli


def measure_layers(workload, jobs, seconds, golden, log):
    cli = import_in_process()
    n_requested = sum(len(check.flag(job.argv, "--n").split(","))
                      for job in jobs if job.argv[0] == "typical")
    untraced, traced, per_pass, all_spans = [], [], [], []
    first_digests = {}
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        runs = {job.name: run_in_process(cli.main, job) for job in jobs}
        untraced.append(sum(r.wall_s for r in runs.values()))
        problems = judge(jobs, runs, first_digests, golden)
        log.append({"traced": False, "problems": problems})

        tracer = spans.Tracer()
        traced_main = functools.partial(tracer.call, "cli.main", cli.main)
        runs = {}
        with spans.instrumented(tracer):
            for job in jobs:
                tracer.job = job.name
                runs[job.name] = run_in_process(traced_main, job)
        traced.append(sum(r.wall_s for r in runs.values()))
        problems = judge(jobs, runs, first_digests, golden)
        metrics = spans.layer_metrics(tracer.spans, n_requested)
        seen = {s.name for s in tracer.spans}
        missing = [name for name in workloads.EXPECTED_SPANS[workload] if name not in seen]
        if missing:
            for found in problems.values():
                found.append(f"expected spans missing from the traced pass: {missing}")
        per_pass.append(metrics)
        all_spans.append(tracer.spans)
        log.append({"traced": True, "problems": problems})
    metrics = {name: (statistics.median(p[name] for p in per_pass), spans.UNITS[name])
               for name in per_pass[0]}
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced),
                                 spans.UNITS["trace.overhead"])
    stats = {"untraced_pass_s": quartiles(untraced), "traced_pass_s": quartiles(traced)}
    return metrics, stats, all_spans


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(args, jobs):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "jobs": [{"name": job.name, "argv": ["python", "-m", "psrates.cli", *job.argv]}
                 for job in jobs],
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "psrates" / "__init__.py").is_file():
        print(f"perfbench: no psrates sources under {SRC}", file=sys.stderr)
        return 2
    broken = selftest.failures()
    if broken:
        print("perfbench: output checker self-test failed:", *broken, sep="\n  ",
              file=sys.stderr)
        return 1
    RUNS.mkdir(exist_ok=True)
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    golden = load_golden(args.workload, args.seed)
    record = manifest(args, jobs)
    log = []
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, stats, passes = measure_layers(args.workload, jobs, args.seconds,
                                                    golden, log)
            span_file = RUNS / f"{stem}-spans.jsonl"
            with span_file.open("w") as fh:
                for i, pass_spans in enumerate(passes):
                    for s in pass_spans:
                        fh.write(json.dumps({"pass": i, **dataclasses.asdict(s)}) + "\n")
            record["span_file"] = str(span_file.relative_to(ROOT))
        else:
            metrics, stats = measure_end_to_end(jobs, args.seconds, golden, log)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    attempted = sum(len(p["problems"]) for p in log)
    failures = [(i, name, found) for i, p in enumerate(log)
                for name, found in p["problems"].items() if found]
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(stats=stats, error_rate=failed / attempted, passes=log, result=result)
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=2))
    for i, name, found in failures:
        print(f"pass {i} job {name}: {'; '.join(found)}", file=sys.stderr)
    for name, s in stats.items():
        print(f"{name}: {s}")
    print(f"error_rate: {failed}/{attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
