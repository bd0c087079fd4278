"""Output checker for the psrates CLI jobs the benchmark runs.

It recomputes each job's invariants from the printed output alone, using
numpy and math but not psrates, so a defect in the program cannot hide in
the check. `check_pass` returns, for each job, the list of problems found;
an empty list means the job's output is correct.
"""

import json
import math

import numpy as np

TOL = 1e-9
MAX_Z = 6.0


def flag(argv, name):
    """Value following `name` in argv, or None when the flag is absent."""
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else None


def _log2_int(k):
    """log2 of a positive integer of any size."""
    shift = max(0, k.bit_length() - 64)
    return math.log2(k >> shift) + shift


def check_rates(argv, text):
    d = json.loads(text)
    errors = []
    persp = [d["r_ps_uncertainty_perspective"], d["r_ps_divergence_perspective"],
             d["r_ps_output_perspective"]]
    if max(persp) - min(persp) > TOL:
        errors.append(f"rate perspectives disagree: {persp}")
    if not 0 <= d["r_ps"] <= d["mutual_information"] + TOL:
        errors.append(f"r_ps {d['r_ps']} outside [0, I(X;Y)={d['mutual_information']}]")
    return errors


def check_gmi(text, pair_text):
    d = json.loads(text)
    if pair_text is None:
        return ["paired rates job has no output"]
    mi = json.loads(pair_text)["mutual_information"]
    if not d["gmi"] <= mi + TOL:
        return [f"gmi {d['gmi']} exceeds I(X;Y)={mi}"]
    return []


def check_sweep(argv, text):
    lines = text.splitlines()
    param = flag(argv, "--param")
    if lines[:2] != [f"# schema: psrates.sweep.{param}.v1",
                     "value,uncertainty,t_c,divergence_to_uniform,r_ps,"
                     "r_ps_unclamped,clamped,error"]:
        return [f"unexpected sweep header {lines[:2]}"]
    rows = [line.split(",") for line in lines[2:]]
    errors = []
    if len(rows) != int(flag(argv, "--steps")):
        errors.append(f"{len(rows)} sweep rows for {flag(argv, '--steps')} steps")
    for row in rows:
        if row[7] != "0":
            errors.append(f"sweep point {row[0]} reports error={row[7]}")
            continue
        _, _, t_c, div, r_ps, unclamped, clamped, _ = row
        t_c, div, r_ps, unclamped = map(float, (t_c, div, r_ps, unclamped))
        if abs(unclamped - (t_c - div)) > TOL:
            errors.append(f"sweep point {row[0]}: r_ps_unclamped != t_c - divergence")
        if abs(r_ps - max(0.0, unclamped)) > TOL:
            errors.append(f"sweep point {row[0]}: r_ps != max(0, r_ps_unclamped)")
        if clamped != str(int(unclamped < 0)):
            errors.append(f"sweep point {row[0]}: clamped flag {clamped} is wrong")
    return errors


def check_estimate_tc(argv, text):
    z = json.loads(text)["z_score"]
    if not abs(z) <= MAX_Z:
        return [f"|z| = {abs(z)} exceeds {MAX_Z}"]
    return []


def check_simulate(argv, text):
    d = json.loads(text)
    n = int(flag(argv, "--n"))
    errors = []
    for key in ("encoding_failure_rate", "decode_error_rate", "message_error_rate",
                "bound_2exp"):
        if not 0 <= d[key] <= 1:
            errors.append(f"{key} = {d[key]} outside [0, 1]")
    if d["trials"] != int(flag(argv, "--trials")):
        errors.append(f"{d['trials']} trials reported, {flag(argv, '--trials')} requested")
    if abs(d["realized_r_c"] - math.log2(d["codebook_size"]) / n) > TOL:
        errors.append(f"realized_r_c {d['realized_r_c']} != log2({d['codebook_size']})/{n}")
    if flag(argv, "--mode") == "classical" and d["encoding_failure_rate"] != 0:
        errors.append("classical job reports encoding failures")
    return errors


def check_typical(argv, text):
    lines = text.splitlines()
    if lines[:2] != ["# schema: psrates.typical.v1", "n,eps,size,rate,lemma_lower_bound"]:
        return [f"unexpected typical header {lines[:2]}"]
    probs = np.array([float(t) for t in flag(argv, "--pmf").split(",")])
    nz = probs[probs > 0]
    h = float(-(nz * np.log2(nz)).sum())
    eps = float(flag(argv, "--eps"))
    ns = [int(t) for t in flag(argv, "--n").split(",")]
    rows = [line.split(",") for line in lines[2:]]
    if [int(r[0]) for r in rows] != ns:
        return [f"typical rows for n={[r[0] for r in rows]}, requested {ns}"]
    errors = []
    for n, row in zip(ns, rows):
        size, rate = int(row[2]), float(row[3])
        if size > len(probs) ** n:
            errors.append(f"n={n}: size exceeds |X|^n")
        if size > 0 and _log2_int(size) > n * (1 + eps) * h + TOL:
            errors.append(f"n={n}: size exceeds 2^(n(1+eps)H(P))")
        expected = _log2_int(size) / n if size > 0 else -math.inf
        if not (rate == expected or abs(rate - expected) <= TOL):
            errors.append(f"n={n}: rate {rate} != log2(size)/n = {expected}")
    return errors


CHECKS = {
    "rates": check_rates,
    "sweep": check_sweep,
    "estimate-tc": check_estimate_tc,
    "simulate": check_simulate,
    "typical": check_typical,
}


def check_pass(jobs, outputs):
    """Map each job name to the problems found in its stdout.

    `outputs` maps job names to decoded stdout, or None for a job that
    produced none usable.
    """
    problems = {}
    for job in jobs:
        text = outputs.get(job.name)
        if text is None:
            problems[job.name] = ["no output"]
            continue
        kind = job.argv[0]
        try:
            if kind == "gmi":
                problems[job.name] = check_gmi(text, outputs.get(job.pair))
            else:
                problems[job.name] = CHECKS[kind](job.argv, text)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            problems[job.name] = [f"unparseable {kind} output: {e!r}"]
    return problems
