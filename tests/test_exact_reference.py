import math
from fractions import Fraction

import pytest

from exact_reference import (
    brute_force_bsc_error,
    brute_force_layered_bsc_error,
    classical_bsc_error,
    layered_bsc_error,
)
from psrates import Alphabet, SimConfig, TypicalSpec, bsc, likelihood_metric, run, uniform_pmf


@pytest.mark.parametrize("n, m", [(1, 2), (2, 3), (3, 3)])
def test_closed_form_is_the_enumeration(n, m):
    eps = Fraction(1, 10)
    assert classical_bsc_error(n, eps, m) == brute_force_bsc_error(n, eps, m)


@pytest.mark.parametrize("n, eps_typ, n_c, n_v", [
    (2, 0.0, 4, 1), (2, 0.0, 4, 2), (2, 0.0, 4, 4), (3, 0.5, 2, 2), (3, 0.5, 4, 2), (3, 0.5, 4, 4)])
def test_layered_closed_form_is_the_enumeration(n, eps_typ, n_c, n_v):
    spec = TypicalSpec(uniform_pmf(Alphabet((0, 1))), n, eps_typ)
    eps = Fraction(1, 10)
    assert layered_bsc_error(spec, eps, n_c, n_v) == brute_force_layered_bsc_error(spec, eps, n_c, n_v)


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


def test_layered_simulation_matches_the_exact_probability():
    # Layered-ps BSC(0.02), n = 8, 16 codewords in 2 blocks of 8, typical
    # set the weight-4 words, likelihood metric: the exact error
    # probability given encoding, with ties as errors, is P = 0.106912.
    #
    # Trial count, fixed from the reference before the first run. The
    # effect to detect is the one a simulator shows when the rows of block
    # u before x are drawn unconditioned rather than non-typical: g_nt
    # replaced by g, which gives the classical value 0.115591 at these
    # sizes, a shift of delta = 0.00868. A two-sided z-test at alpha = 0.01
    # (z = 2.576) with power 0.8 (z = 0.842) needs
    #   T_enc = ((2.576 + 0.842) * sqrt(P (1 - P)) / delta)^2 = 14,807
    # encoded trials. A block encodes with probability
    # 1 - (1 - 70/256)^8 = 0.92234, so T = 14,807 / 0.92234 = 16,054, and
    # T = 16,100. The seed was fixed with it and never changed.
    ch = bsc(0.02)
    trials = 16_100
    cfg = SimConfig(p_x=uniform_pmf(ch.input), ch=ch, q=likelihood_metric(ch), n=8,
                    r_c=0.5, r_tx=0.125, eps_typ=0.0, trials=trials, rng_seed=2017)
    assert cfg.codebook_sizes() == (16, 2, 8) and cfg.spec.count_ranges == ((4, 4), (4, 4))
    p = layered_bsc_error(cfg.spec, 0.02, 16, 8)
    assert abs(p - 0.106912) < 5e-7
    assert abs(classical_bsc_error(8, 0.02, 16) - 0.115591) < 5e-7
    res = run(cfg)
    z = (res.decode_error_rate - p) / math.sqrt(p * (1 - p) / res.decode_trials)
    assert abs(z) < 2.576, (res.decode_error_rate, res.decode_trials, p, z)
