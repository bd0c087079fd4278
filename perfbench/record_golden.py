"""Record the golden stdout digest of every benchmark job at the default seed.

The benchmark counts a job whose stdout differs from its golden digest as
failed, because CLI output must stay byte-identical for pinned seeds. After a
deliberate change of CLI output, run from the repository root:

    python3 perfbench/record_golden.py
"""

import json
import sys

import run
import workloads


def main():
    run.RUNS.mkdir(exist_ok=True)
    env = run.child_env()
    digests = {}
    for workload, build in workloads.WORKLOADS.items():
        jobs = build(workloads.DEFAULT_SEED)
        runs = {job.name: run.run_cli_job(job, env) for job in jobs}
        problems = {name: found for name, found in run.judge(jobs, runs, {}, None).items()
                    if found}
        if problems:
            print(f"not recording {workload}: {problems}", file=sys.stderr)
            return 1
        digests[workload] = {name: run.digest(r.stdout) for name, r in runs.items()}
    data = {"seed": workloads.DEFAULT_SEED, "digests": digests}
    run.GOLDEN.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
