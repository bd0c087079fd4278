import math

import numpy as np
import pytest

from psrates import (
    Alphabet,
    Dmc,
    Metric,
    NumericalCheckError,
    Pmf,
    Quantizer,
    achievable_transmission_rate,
    ask_constellation,
    awgn_quantized,
    binary_entropy,
    binary_hard_decision_rate,
    bit_marginal,
    bmd_rate,
    bsc,
    conditional_entropy,
    entropy,
    gmi,
    hard_decision_metric,
    hard_decision_rate,
    icm_rate,
    likelihood_metric,
    lm_rate,
    map_quantizer,
    mary_symmetric,
    mutual_information,
    optimize_metric_exponent,
    posterior_metric,
    product_alphabet,
    t_c_epsilon_lower_bound,
    uncertainty,
    uniform_pmf,
)
from psrates import rates

GRAY4 = Alphabet((0, 1, 2, 3), labels=("00", "01", "11", "10"))


def random_triple(rng, nx, ny):
    w = rng.random((nx, ny))
    w /= w.sum(axis=1, keepdims=True)
    ch = Dmc(Alphabet(tuple(range(nx))), Alphabet(tuple(range(ny))), w)
    p = Pmf(ch.input, rng.dirichlet(np.ones(nx)))
    q = Metric(ch.input, ch.output, rng.random((nx, ny)) + 1e-3)
    return p, ch, q


class TestUncertainty:
    def test_posterior_metric_gives_conditional_entropy(self):
        ch = bsc(0.2)
        p = Pmf(ch.input, np.array([0.8, 0.2]))
        u = uncertainty(p, ch, posterior_metric(p, ch))
        assert u == pytest.approx(conditional_entropy(p, ch), abs=1e-12)

    def test_noiseless_matching_metric(self):
        ch = mary_symmetric(4, 0.0)
        p = uniform_pmf(ch.input)
        assert uncertainty(p, ch, posterior_metric(p, ch)) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_likelihood_two_term_oracle(self):
        ch = bsc(0.11)
        p = uniform_pmf(ch.input)
        assert uncertainty(p, ch, likelihood_metric(ch)) == pytest.approx(
            binary_entropy(0.11), abs=1e-12
        )

    def test_infinite_on_zero_metric(self):
        ch = bsc(0.2)
        p = uniform_pmf(ch.input)
        q = Metric(ch.input, ch.output, np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert uncertainty(p, ch, q) == math.inf

    def test_posterior_is_optimal(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            p, ch, q = random_triple(rng, 3, 5)
            u = uncertainty(p, ch, q)
            h = conditional_entropy(p, ch)
            assert u >= h - 1e-12
            u_opt = uncertainty(p, ch, posterior_metric(p, ch))
            assert abs(u_opt - h) <= 1e-12


class TestAchievableTransmissionRate:
    def test_bsc_capacity(self):
        ch = bsc(0.11)
        p = uniform_pmf(ch.input)
        rep = achievable_transmission_rate(p, ch, posterior_metric(p, ch))
        assert rep.r_ps == pytest.approx(1 - binary_entropy(0.11), abs=1e-10)

    def test_point_mass_clamps(self):
        ch = bsc(0.11)
        p = Pmf(ch.input, np.array([1.0, 0.0]))
        rep = achievable_transmission_rate(p, ch, likelihood_metric(ch))
        assert rep.r_ps == 0.0
        assert rep.clamped

    def test_shaped_posterior_equals_mi(self):
        rng = np.random.default_rng(21)
        w = rng.random((4, 6))
        w /= w.sum(axis=1, keepdims=True)
        ch = Dmc(Alphabet(tuple(range(4))), Alphabet(tuple(range(6))), w)
        p = Pmf(ch.input, np.array([0.4, 0.3, 0.2, 0.1]))
        rep = achievable_transmission_rate(p, ch, posterior_metric(p, ch))
        assert rep.r_ps == pytest.approx(mutual_information(p, ch), abs=1e-10)

    def test_perspectives_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p, ch, q = random_triple(rng, 4, 5)
            rep = achievable_transmission_rate(p, ch, q)
            lo, hi = min(rep.r_ps_by_perspective), max(rep.r_ps_by_perspective)
            assert hi - lo <= 1e-10

    def test_infinite_uncertainty_report(self):
        ch = bsc(0.2)
        p = uniform_pmf(ch.input)
        q = Metric(ch.input, ch.output, np.array([[1.0, 0.0], [1.0, 1.0]]))
        rep = achievable_transmission_rate(p, ch, q)
        assert rep.t_c == -math.inf
        assert rep.r_ps == 0.0
        assert rep.clamped


class TestMutualInformation:
    def test_noiseless_uniform(self):
        ch = mary_symmetric(4, 0.0)
        assert mutual_information(uniform_pmf(ch.input), ch) == pytest.approx(2.0)

    def test_useless_channel(self):
        ch = Dmc(Alphabet((0, 1)), Alphabet((0, 1)), np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert mutual_information(uniform_pmf(ch.input), ch) == pytest.approx(0.0, abs=1e-12)

    def test_joint_pmf_oracle(self):
        ch = bsc(0.2)
        p = Pmf(ch.input, np.array([0.8, 0.2]))
        # frozen value from brute-force joint summation
        assert mutual_information(p, ch) == pytest.approx(0.18245336283713143, abs=1e-12)


class TestBmdRate:
    def _labeled_awgn(self):
        con = ask_constellation(4)
        return awgn_quantized(con, 0.6), uniform_pmf(con)

    def test_single_level_is_mi(self):
        ch = bsc(0.11)
        labeled = Alphabet((0, 1), labels=("0", "1"))
        chl = Dmc(labeled, ch.output, ch.w)
        p = Pmf(labeled, np.array([0.6, 0.4]))
        rep = bmd_rate(p, chl)
        assert rep.r_bmd == pytest.approx(mutual_information(p, chl), abs=1e-12)

    def test_noiseless_labeled(self):
        ch4 = mary_symmetric(4, 0.0)
        chl = Dmc(GRAY4, ch4.output, ch4.w)
        p = Pmf(GRAY4, np.array([0.4, 0.3, 0.2, 0.1]))
        assert bmd_rate(p, chl).r_bmd == pytest.approx(entropy(p), abs=1e-12)

    def test_below_symbol_mi(self):
        ch, p = self._labeled_awgn()
        rep = bmd_rate(p, ch)
        assert rep.r_bmd <= mutual_information(p, ch) + 1e-10

    def test_identity_violation_raises(self, monkeypatch):
        # independent uniform levels, with H(B) misreported by 1e-6 bits
        ch, p = self._labeled_awgn()
        monkeypatch.setattr(rates, "entropy",
                            lambda pmf: entropy(pmf) + (1e-6 if pmf is p else 0.0))
        with pytest.raises(NumericalCheckError, match="BMD identity"):
            bmd_rate(p, ch)

    def test_abc_rate_is_tc_over_m(self):
        ch, p = self._labeled_awgn()
        rep = bmd_rate(p, ch)
        assert rep.abc_rate == pytest.approx(
            1 - sum(rep.level_cond_entropies) / 2, abs=1e-12
        )


class TestIcmRate:
    def test_m1_is_mi(self):
        base = Alphabet((0, 1))
        xin = product_alphabet(base, 1)
        ch = Dmc(xin, product_alphabet(base, 1), np.array([[0.9, 0.1], [0.2, 0.8]]))
        p = Pmf(xin, np.array([0.7, 0.3]))
        scalar_ch = Dmc(base, base, ch.w)
        scalar_p = Pmf(base, p.probs)
        assert icm_rate(p, ch) == pytest.approx(
            mutual_information(scalar_p, scalar_ch), abs=1e-12
        )

    def test_iid_positions_additive(self):
        base_w = np.array([[0.9, 0.1], [0.2, 0.8]])
        base = Alphabet((0, 1))
        xin = product_alphabet(base, 2)
        yout = product_alphabet(base, 2)
        ch = Dmc(xin, yout, np.kron(base_w, base_w))
        marg = np.array([0.6, 0.4])
        p = Pmf(xin, np.kron(marg, marg))
        scalar = mutual_information(Pmf(base, marg), Dmc(base, base, base_w))
        assert icm_rate(p, ch) == pytest.approx(2 * scalar, abs=1e-10)

    def test_correlated_outputs_oracle(self):
        # Y_1 = Y_2 construction, checked against the per-position sum
        rng = np.random.default_rng(30)
        base = Alphabet((0, 1))
        xin = product_alphabet(base, 2)
        yout = product_alphabet(base, 2)
        w = np.zeros((4, 4))
        for i, xs in enumerate(xin.symbols):
            marg = rng.dirichlet(np.ones(2))
            w[i, yout.index((0, 0))] = marg[0]
            w[i, yout.index((1, 1))] = marg[1]
        ch = Dmc(xin, yout, w)
        p = Pmf(xin, rng.dirichlet(np.ones(4)))
        from psrates import icm_mixture

        p_mix, ch_mix = icm_mixture(p, ch)
        expected = max(0.0, entropy(p) - 2 * conditional_entropy(p_mix, ch_mix))
        assert icm_rate(p, ch) == pytest.approx(expected, abs=1e-12)


class TestGmi:
    def test_likelihood_at_least_mi(self):
        rng = np.random.default_rng(31)
        w = rng.random((3, 4))
        w /= w.sum(axis=1, keepdims=True)
        ch = Dmc(Alphabet(tuple(range(3))), Alphabet(tuple(range(4))), w)
        p = Pmf(ch.input, np.array([0.5, 0.3, 0.2]))
        rate, _ = gmi(p, ch, likelihood_metric(ch))
        assert rate >= mutual_information(p, ch) - 1e-9

    def test_symmetric_uniform_equals_mi(self):
        ch = bsc(0.11)
        p = uniform_pmf(ch.input)
        rate, s_star = gmi(p, ch, likelihood_metric(ch))
        assert rate == pytest.approx(mutual_information(p, ch), abs=1e-9)
        assert s_star == pytest.approx(1.0, abs=1e-4)

    def test_hamming_closed_form(self):
        from psrates import exp_transform

        ch = bsc(0.11)
        p = uniform_pmf(ch.input)
        quant = map_quantizer(p, ch)
        q = exp_transform(hard_decision_metric(quant, ch.input), 1.0)
        rate, s_star = gmi(p, ch, q)
        assert rate == pytest.approx(1 - binary_entropy(0.11), abs=1e-8)
        assert math.exp(s_star) == pytest.approx(0.89 / 0.11, rel=1e-6)


@pytest.mark.parametrize("optimizer", [gmi, optimize_metric_exponent])
@pytest.mark.parametrize("s_min, s_max", [(10, 1), (1, 1), (0, 1), (-1, 1)])
def test_s_bracket_checked(optimizer, s_min, s_max):
    ch = bsc(0.1)
    p = uniform_pmf(ch.input)
    with pytest.raises(ValueError, match="s_min < s_max"):
        optimizer(p, ch, likelihood_metric(ch), s_min=s_min, s_max=s_max)


class TestLmRate:
    def test_recovers_rps_full_support(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            p, ch, q = random_triple(rng, 3, 4)
            rep = achievable_transmission_rate(p, ch, q)
            r = lm_rate(p, ch, q, 1.0, 1.0 / p.probs)
            assert r == pytest.approx(rep.r_ps, abs=1e-10)

    def test_at_least_rps_on_deficient_support(self):
        rng = np.random.default_rng(33)
        w = rng.random((3, 4))
        w /= w.sum(axis=1, keepdims=True)
        ch = Dmc(Alphabet((0, 1, 2)), Alphabet(tuple(range(4))), w)
        p = Pmf(ch.input, np.array([0.6, 0.4, 0.0]))
        q = Metric(ch.input, ch.output, rng.random((3, 4)) + 0.1)
        rep = achievable_transmission_rate(p, ch, q)
        r = np.where(p.probs > 0, 1.0 / np.where(p.probs > 0, p.probs, 1.0), 1.0)
        assert lm_rate(p, ch, q, 1.0, r) >= rep.r_ps - 1e-12

    def test_weight_validation(self):
        ch = bsc(0.1)
        p = uniform_pmf(ch.input)
        with pytest.raises(ValueError):
            lm_rate(p, ch, likelihood_metric(ch), 1.0, np.array([0.0, 1.0]))


class TestHardDecisionRate:
    def test_noiseless(self):
        ch = mary_symmetric(4, 0.0)
        p = uniform_pmf(ch.input)
        rate, eps, scale = hard_decision_rate(p, ch, map_quantizer(p, ch))
        assert eps == 0.0
        assert rate == pytest.approx(2.0)
        assert scale == math.inf

    def test_binary_case(self):
        ch = bsc(0.11)
        p = uniform_pmf(ch.input)
        rate, eps, _ = hard_decision_rate(p, ch, map_quantizer(p, ch))
        assert eps == pytest.approx(0.11, abs=1e-12)
        assert rate == pytest.approx(1 - binary_entropy(0.11), abs=1e-10)

    def test_matches_gmi_of_exp_hamming(self):
        from psrates import exp_transform

        for M, eps in [(2, 0.1), (4, 0.1), (8, 0.05)]:
            ch = mary_symmetric(M, eps)
            p = uniform_pmf(ch.input)
            quant = map_quantizer(p, ch)
            rate, _, _ = hard_decision_rate(p, ch, quant)
            g, _ = gmi(p, ch, exp_transform(hard_decision_metric(quant, ch.input), 1.0))
            assert g == pytest.approx(rate, abs=1e-9)


class TestBinaryHardDecision:
    def _labeled_channel(self, rng):
        w = rng.random((4, 6))
        w /= w.sum(axis=1, keepdims=True)
        return Dmc(GRAY4, Alphabet(tuple(range(6))), w)

    def test_noiseless_levels(self):
        ch4 = mary_symmetric(4, 0.0)
        chl = Dmc(GRAY4, ch4.output, ch4.w)
        p = Pmf(GRAY4, np.array([0.4, 0.3, 0.2, 0.1]))
        quants = []
        for j in (1, 2):
            pb, chb = bit_marginal(p, chl, j)
            quants.append(map_quantizer(pb, chb))
        rate, eps = binary_hard_decision_rate(p, chl, quants)
        assert eps == pytest.approx(0.0, abs=1e-12)
        assert rate == pytest.approx(entropy(p), abs=1e-10)

    def test_eps_against_monte_carlo(self):
        rng = np.random.default_rng(34)
        ch = self._labeled_channel(rng)
        p = Pmf(GRAY4, np.array([0.4, 0.3, 0.2, 0.1]))
        quants = []
        for j in (1, 2):
            pb, chb = bit_marginal(p, ch, j)
            quants.append(map_quantizer(pb, chb))
        rate, eps = binary_hard_decision_rate(p, ch, quants)
        # sampling oracle: draw symbols and outputs, count bit decision errors
        n = 10 ** 6
        x = rng.choice(4, size=n, p=p.probs)
        cum = np.cumsum(ch.w, axis=1)
        y = (rng.random(n)[:, None] >= cum[x]).sum(axis=1)
        errs = 0
        for j, quant in enumerate(quants, start=1):
            bits = np.array([GRAY4.bit(i, j) for i in range(4)])
            decisions = np.array(quant.targets)
            errs += (bits[x] != decisions[y]).sum()
        emp = errs / (2 * n)
        sigma = math.sqrt(eps * (1 - eps) / (2 * n))
        assert abs(emp - eps) < 3 * sigma + 1e-9

    def test_uniform_input_formula(self):
        rng = np.random.default_rng(35)
        ch = self._labeled_channel(rng)
        p = uniform_pmf(GRAY4)
        quants = []
        for j in (1, 2):
            pb, chb = bit_marginal(p, ch, j)
            quants.append(map_quantizer(pb, chb))
        rate, eps = binary_hard_decision_rate(p, ch, quants)
        assert rate == pytest.approx(2 * (1 - binary_entropy(eps)), abs=1e-10)


class TestTcEpsilonLowerBound:
    def test_zero_tolerance_is_exact(self):
        ch = bsc(0.11)
        p = Pmf(ch.input, np.array([0.7, 0.3]))
        q = likelihood_metric(ch)
        t_c = math.log2(2) - uncertainty(p, ch, q)
        assert t_c_epsilon_lower_bound(p, ch, q, 0.0) == pytest.approx(t_c, abs=1e-12)

    def test_below_t_c(self):
        ch = bsc(0.11)
        p = Pmf(ch.input, np.array([0.7, 0.3]))
        q = likelihood_metric(ch)
        t_c = math.log2(2) - uncertainty(p, ch, q)
        assert t_c_epsilon_lower_bound(p, ch, q, 0.05) <= t_c + 1e-15

    @pytest.mark.parametrize("eps_typ", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_rejected(self, eps_typ):
        ch = bsc(0.1)
        p = uniform_pmf(ch.input)
        with pytest.raises(ValueError, match="tolerance"):
            t_c_epsilon_lower_bound(p, ch, likelihood_metric(ch), eps_typ)

    def test_hand_summation_oracle(self):
        ch = bsc(0.11)
        p = Pmf(ch.input, np.array([0.7, 0.3]))
        q = likelihood_metric(ch)
        # direct two-term evaluation
        e = []
        for a in (0, 1):
            total = 0.0
            for b in (0, 1):
                total += ch.w[a, b] * math.log2(ch.w[a, b] / (0.5 * (ch.w[0, b] + ch.w[1, b])))
            e.append(total)
        expected = sum(p.probs[a] * e[a] for a in (0, 1)) - 0.05 * sum(
            p.probs[a] * abs(e[a]) for a in (0, 1)
        )
        assert t_c_epsilon_lower_bound(p, ch, q, 0.05) == pytest.approx(expected, abs=1e-12)


class TestMonotonicity:
    def test_rates_decreasing_in_eps(self):
        for M in (2, 4):
            prev = None
            for eps in np.linspace(0, (M - 1) / M, 8):
                ch = mary_symmetric(M, eps)
                p = uniform_pmf(ch.input)
                r = achievable_transmission_rate(p, ch, posterior_metric(p, ch)).r_ps
                if prev is not None:
                    assert r <= prev + 1e-10
                prev = r
