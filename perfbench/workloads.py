"""The benchmark's workloads: the psrates CLI jobs each one runs, built from a seed.

The seed sets every `--seed` flag and, for the deterministic jobs, picks the
sweep range and the noise levels from small fixed intervals. It never changes
job sizes (cells, steps, n, r_c, trials), so the work per pass is the same
for every seed.
"""

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `python -m psrates.cli *argv`.

    `pair` names the `rates` job whose mutual information bounds a `gmi` job.
    """

    name: str
    argv: tuple
    pair: str = None


def _sigma(rng, lo, hi):
    return f"{rng.uniform(lo, hi):.4f}"


def rate_curve(seed):
    # The sweep rebuilds a 4096-cell channel per point and shares no work
    # between points; each optimiser call reuses one channel for ~120 rate
    # evaluations. No sampling, no simulation.
    rng = random.Random(seed)
    start, stop = _sigma(rng, 0.28, 0.32), _sigma(rng, 1.18, 1.22)
    s16, s8 = _sigma(rng, 0.28, 0.32), _sigma(rng, 0.45, 0.55)
    jobs = [Job("sweep-8ask-bitwise", (
        "sweep", "--channel", f"awgn-ask:8,{start},4096", "--input", "mb:0.05",
        "--metric", "bitwise-posterior", "--param", "sigma",
        "--start", start, "--stop", stop, "--steps", "60"))]
    for metric in ("likelihood", "bitwise-posterior"):
        scenario = ("--channel", f"awgn-ask:16,{s16},2048", "--input", "mb:0.01",
                    "--metric", metric)
        jobs.append(Job(f"gmi-16ask-{metric}", ("gmi", *scenario),
                        pair=f"rates-16ask-{metric}"))
        jobs.append(Job(f"rates-16ask-{metric}", ("rates", "--optimize-s", *scenario)))
    jobs.append(Job("rates-8ask-hamming", (
        "rates", "--optimize-s", "--channel", f"awgn-ask:8,{s8},2048",
        "--input", "mb:0.05", "--metric", "hamming")))
    return jobs


def simulate(seed):
    # One layer used three ways: a 2^20-codeword codebook far beyond the L3
    # cache with a ~1-codeword encoding scan; the same codebook size with a
    # shaped, ~63-codeword scan; and a classical codebook that fits in cache,
    # drawn with rng.choice and with no scan.
    seed = str(seed)
    return [
        Job("sim-bsc-layered", (
            "simulate", "--channel", "bsc:0.02", "--input", "uniform",
            "--metric", "likelihood", "--mode", "layered-ps", "--n", "24",
            "--rc", "0.8333", "--rtx", "0.5", "--eps-typ", "0.25",
            "--trials", "2", "--seed", seed)),
        Job("sim-4ary-shaped", (
            "simulate", "--channel", "mary:4,0.05", "--input", "0.4,0.3,0.2,0.1",
            "--metric", "likelihood", "--mode", "layered-ps", "--n", "16",
            "--rc", "1.25", "--rtx", "0.75", "--eps-typ", "0.3",
            "--trials", "8", "--seed", seed)),
        Job("sim-4ary-classical", (
            "simulate", "--channel", "mary:4,0.05", "--input", "0.4,0.3,0.2,0.1",
            "--metric", "likelihood", "--mode", "classical", "--n", "12",
            "--rc", "1.5", "--rtx", "1.5", "--eps-typ", "0.3",
            "--trials", "10", "--seed", seed)),
    ]


def estimate_typical(seed):
    # Channel sampling inside the Monte-Carlo T_c estimate, and exact
    # typical-set counting at the block lengths CCDM-style matchers use.
    rng = random.Random(seed)
    sigma = _sigma(rng, 0.45, 0.55)
    scenario = ("--channel", f"awgn-ask:8,{sigma}", "--input", "mb:0.05",
                "--metric", "bitwise-posterior", "--n", "2000", "--trials", "300",
                "--seed", str(seed))
    return [
        Job("tc-8ask-iid", ("estimate-tc", *scenario)),
        Job("tc-8ask-exact", ("estimate-tc", *scenario, "--composition", "exact")),
        Job("typical-8sym", ("typical", "--pmf", "0.3,0.2,0.15,0.1,0.1,0.07,0.05,0.03",
                             "--n", "64,104", "--eps", "0.3")),
        Job("typical-4sym", ("typical", "--pmf", "0.4,0.3,0.2,0.1",
                             "--n", "256,320", "--eps", "0.3")),
    ]


WORKLOADS = {
    "rate-curve": rate_curve,
    "simulate": simulate,
    "estimate-typical": estimate_typical,
}

# Spans the traced pass must see on each workload; a missing one fails the
# pass instead of reporting zero.
EXPECTED_SPANS = {
    "rate-curve": ("channel.awgn_quantized", "rates.optimize_metric_exponent",
                   "rates.gmi", "rates.achievable_transmission_rate",
                   "metric.power_transform"),
    "simulate": ("simulator.run", "typicality.is_typical_counts",
                 "empirical.sample_channel_outputs", "empirical.empirical_code_rate"),
    "estimate-typical": ("empirical.sample_channel_outputs", "empirical.monte_carlo_t_c",
                         "typicality.typical_set_size", "channel.awgn_quantized"),
}

