"""Self-test of the output checker: real CLI outputs pass, corrupted ones fail.

Each corruption breaks one invariant the checker promises to catch. The
benchmark runs this before measuring and refuses to report if it fails. To
run it alone, from the repository root:

    python3 perfbench/selftest.py
"""

import json
import sys

from check import check_pass
from workloads import Job

# Outputs of small psrates CLI jobs, copied verbatim.
RATES = """{
  "clamped": false,
  "divergence_to_uniform": 0.1187091007693073,
  "entropy_input": 0.8812908992306927,
  "mutual_information": 0.45582311138374887,
  "r_ps": 0.41229530564141154,
  "r_ps_divergence_perspective": 0.4122953056414116,
  "r_ps_output_perspective": 0.41229530564141154,
  "r_ps_uncertainty_perspective": 0.41229530564141154,
  "t_c": 0.5310044064107189,
  "uncertainty": 0.46899559358928117
}
"""
GMI = """{
  "gmi": 0.455823111383749,
  "s_star": 1.0000000025531985
}
"""
SWEEP = """# schema: psrates.sweep.eps.v1
value,uncertainty,t_c,divergence_to_uniform,r_ps,r_ps_unclamped,clamped,error
0.05,0.286396957116,0.713603042884,0.118709100769,0.594893942115,0.594893942115,0,0
0.25,0.811278124459,0.188721875541,0.118709100769,0.0700127747716,0.0700127747716,0,0
0.45,0.992774453988,0.00722554601219,0.118709100769,0,-0.111483554757,1,0
"""
ESTIMATE_TC = """{
  "mean": 0.511984856402065,
  "std_error": 0.01859777806855737,
  "t_c_closed_form": 0.5310044064107189,
  "z_score": -1.0226786199158682
}
"""
SIMULATE = """{
  "bound_2exp": 0.7150636940112891,
  "codebook_size": 16,
  "decode_error_rate": 0.3333333333333333,
  "encoding_failure_rate": 0.0,
  "message_count": 16,
  "message_error_rate": 0.0,
  "realized_r_c": 0.5,
  "realized_r_tx": 0.5,
  "t_hat_max": 0.8479969065549501,
  "t_hat_mean": 0.5838364897680908,
  "t_hat_min": 0.45175628137466106,
  "trials": 3
}
"""
TYPICAL = """# schema: psrates.typical.v1
n,eps,size,rate,lemma_lower_bound
8,0.3,84,0.799039677847,30.5951069173
12,0.3,715,0.790149952639,169.230237065
"""

SCENARIO = ("--channel", "bsc:0.1", "--input", "0.7,0.3", "--metric", "likelihood")
JOBS = (
    Job("rates", ("rates", *SCENARIO)),
    Job("gmi", ("gmi", *SCENARIO), pair="rates"),
    Job("sweep", ("sweep", *SCENARIO, "--param", "eps", "--start", "0.05",
                  "--stop", "0.45", "--steps", "3")),
    Job("estimate-tc", ("estimate-tc", *SCENARIO, "--n", "100", "--trials", "20",
                        "--seed", "3")),
    Job("simulate", ("simulate", *SCENARIO, "--mode", "classical", "--n", "8",
                     "--rc", "0.5", "--rtx", "0.5", "--trials", "3", "--seed", "3")),
    Job("typical", ("typical", "--pmf", "0.7,0.3", "--n", "8,12", "--eps", "0.3")),
)
VALID = {"rates": RATES, "gmi": GMI, "sweep": SWEEP, "estimate-tc": ESTIMATE_TC,
         "simulate": SIMULATE, "typical": TYPICAL}


def _json_edit(text, **changes):
    d = json.loads(text)
    d.update(changes)
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


# (what is broken, job whose output is replaced, corrupted output)
CORRUPTIONS = (
    ("perturbed rate perspective", "rates",
     _json_edit(RATES, r_ps_divergence_perspective=0.4122963056414116)),
    ("sweep row with error=1", "sweep",
     SWEEP.replace("0.25,0.811278124459,0.188721875541,0.118709100769,"
                   "0.0700127747716,0.0700127747716,0,0", "0.25,,,,,,,1")),
    # |X|^n + 1 sequences, with the rate column kept consistent with the size
    ("oversized typical-set count", "typical",
     TYPICAL.replace("8,0.3,84,0.799039677847", "8,0.3,257,1.00070306865")),
    ("z of 7", "estimate-tc", _json_edit(ESTIMATE_TC, z_score=7.0)),
    ("gmi above the mutual information", "gmi", _json_edit(GMI, gmi=0.46)),
    ("classical job with encoding failures", "simulate",
     _json_edit(SIMULATE, encoding_failure_rate=1 / 3)),
)


def failures():
    """Ways in which the checker misjudges the samples; empty when it works."""
    found = []
    valid = check_pass(JOBS, VALID)
    for name, problems in valid.items():
        if problems:
            found.append(f"valid {name} output rejected: {problems}")
    for what, name, text in CORRUPTIONS:
        if not check_pass(JOBS, {**VALID, name: text})[name]:
            found.append(f"checker accepted a {what}")
    return found


if __name__ == "__main__":
    problems = failures()
    for p in problems:
        print(p, file=sys.stderr)
    print(f"checker self-test: {len(CORRUPTIONS)} corruptions, "
          f"{'FAILED' if problems else 'all caught'}")
    sys.exit(1 if problems else 0)
