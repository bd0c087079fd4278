import math
from fractions import Fraction

import pytest

from exact_reference import brute_force_bsc_error, classical_bsc_error
from psrates import SimConfig, bsc, likelihood_metric, run, uniform_pmf


@pytest.mark.parametrize("n, m", [(1, 2), (2, 3), (3, 3)])
def test_closed_form_is_the_enumeration(n, m):
    eps = Fraction(1, 10)
    assert classical_bsc_error(n, eps, m) == brute_force_bsc_error(n, eps, m)


def test_classical_simulation_matches_the_exact_probability():
    # Classical BSC(0.11), n = 12, 64 codewords, likelihood metric: the
    # exact error probability with ties as errors is P = 0.38307.
    #
    # Trial count, fixed before the first run. The effect to detect is the
    # loss of ties to float rounding that an inexact scorer showed on this
    # case: 0.3735 against 0.38307, a shortfall of delta = 0.0096. A
    # two-sided z-test at alpha = 0.01 (z = 2.576) with power 0.8
    # (z = 0.842) needs
    #   T = ((2.576 + 0.842) * sqrt(P (1 - P)) / delta)^2
    #     = (3.418 * 0.4861 / 0.0096)^2 = 29,950,
    # so T = 30,000. The seed was fixed with it and never changed.
    ch = bsc(0.11)
    trials = 30_000
    cfg = SimConfig(p_x=uniform_pmf(ch.input), ch=ch, q=likelihood_metric(ch), n=12,
                    r_c=0.5, r_tx=0.5, eps_typ=0.25, trials=trials, rng_seed=2017,
                    mode="classical")
    assert cfg.codebook_sizes() == (64, 64, 1)
    p = classical_bsc_error(12, 0.11, 64)
    assert abs(p - 0.38307) < 5e-6
    res = run(cfg)
    assert res.decode_trials == trials
    z = (res.decode_error_rate - p) / math.sqrt(p * (1 - p) / trials)
    assert abs(z) < 2.576, (res.decode_error_rate, p, z)
