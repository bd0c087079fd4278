import math

import numpy as np
import pytest

from psrates import (
    Alphabet,
    Dmc,
    Metric,
    Pmf,
    Quantizer,
    achievable_transmission_rate,
    bit_metric_product,
    bsc,
    exp_transform,
    gmi,
    hard_decision_metric,
    likelihood_metric,
    map_quantizer,
    mary_symmetric,
    metric_switch,
    posterior,
    posterior_metric,
    power_transform,
    uniform_pmf,
)

GRAY4 = Alphabet((0, 1, 2, 3), labels=("00", "01", "11", "10"))


def argmax_mask(q):
    """Where each column of q reaches its maximum; equal masks mean equal
    sets of maximizing inputs for every output."""
    return q.q == q.q.max(axis=0)


def random_channel(rng, nx, ny):
    w = rng.random((nx, ny))
    w /= w.sum(axis=1, keepdims=True)
    return Dmc(Alphabet(tuple(range(nx))), Alphabet(tuple(range(ny))), w)


class TestMetricType:
    def test_rejects_zero_column(self):
        with pytest.raises(ValueError):
            Metric(Alphabet((0, 1)), Alphabet((0, 1)), np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Metric(Alphabet((0, 1)), Alphabet((0, 1)), np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_keeps_own_copy(self):
        arr = np.array([[1.0, 0.0], [0.5, 1.0]])
        q = Metric(Alphabet((0, 1)), Alphabet((0, 1)), arr)
        assert arr.flags.writeable and not q.q.flags.writeable
        arr[0, 0] = 7.0
        assert q.q[0, 0] == 1.0


class TestPosteriorMetric:
    def test_matches_posterior_matrix(self):
        ch = bsc(0.2)
        p = Pmf(ch.input, np.array([0.8, 0.2]))
        assert np.allclose(posterior_metric(p, ch).q, posterior(p, ch))

    def test_uniform_input_matches_likelihood_order(self):
        ch = bsc(0.11)
        qp = posterior_metric(uniform_pmf(ch.input), ch)
        ql = likelihood_metric(ch)
        assert np.array_equal(argmax_mask(qp), argmax_mask(ql))

    def test_noiseless_is_permutation_pattern(self):
        ch = mary_symmetric(3, 0.0)
        q = posterior_metric(uniform_pmf(ch.input), ch)
        assert np.allclose(q.q, np.eye(3))

    def test_scaled_variant_equivalent(self):
        ch = bsc(0.2)
        p = Pmf(ch.input, np.array([0.8, 0.2]))
        a = posterior_metric(p, ch)
        # scaling each column by P(y) cancels in the per-column normalization
        b = Metric(ch.input, ch.output, a.q * (p.probs @ ch.w))
        assert np.array_equal(argmax_mask(a), argmax_mask(b))
        ra = achievable_transmission_rate(p, ch, a).r_ps
        rb = achievable_transmission_rate(p, ch, b).r_ps
        assert ra == pytest.approx(rb, abs=1e-12)


class TestLikelihoodMetric:
    def test_is_channel_matrix(self):
        ch = bsc(0.3)
        assert np.allclose(likelihood_metric(ch).q, ch.w)

    def test_worse_than_posterior_for_shaped_input(self):
        rng = np.random.default_rng(2)
        ch = random_channel(rng, 3, 4)
        p = Pmf(ch.input, np.array([0.7, 0.2, 0.1]))
        r_lik = achievable_transmission_rate(p, ch, likelihood_metric(ch)).r_ps
        r_post = achievable_transmission_rate(p, ch, posterior_metric(p, ch)).r_ps
        assert r_lik < r_post - 1e-6


class TestTransforms:
    def test_power_identity(self):
        ch = bsc(0.2)
        q = likelihood_metric(ch)
        assert np.allclose(power_transform(q, 1.0).q, q.q)

    def test_power_preserves_argmax(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = Metric(Alphabet((0, 1, 2)), Alphabet((0, 1, 2, 3)), rng.random((3, 4)))
            for s in (0.3, 2.0, 7.5):
                assert np.array_equal(argmax_mask(power_transform(q, s)), argmax_mask(q))

    def test_exp_on_hamming(self):
        quant = Quantizer(Alphabet((0, 1)), (0, 1))
        q = hard_decision_metric(quant, Alphabet((0, 1)))
        e = exp_transform(q, 2.0)
        assert sorted(set(np.round(e.q.ravel(), 12))) == [1.0, pytest.approx(math.e ** 2)]
        assert np.array_equal(argmax_mask(e), argmax_mask(q))

    def test_exp_optimality_condition(self):
        # e^s = (M-1)(1-eps)/eps makes the induced column the M-ary symmetric law
        M, eps = 4, 0.1
        ch = mary_symmetric(M, eps)
        quant = map_quantizer(uniform_pmf(ch.input), ch)
        q = hard_decision_metric(quant, ch.input)
        s = math.log((M - 1) * (1 - eps) / eps)
        e = exp_transform(q, s)
        col = e.q[:, 0] / e.q[:, 0].sum()
        assert col[0] == pytest.approx(1 - eps, abs=1e-12)
        assert np.allclose(col[1:], eps / (M - 1), atol=1e-12)

    def test_invalid_exponents(self):
        q = likelihood_metric(bsc(0.1))
        with pytest.raises(ValueError):
            power_transform(q, 0.0)
        with pytest.raises(ValueError):
            exp_transform(q, -1.0)


class TestBitMetricProduct:
    def test_single_level(self):
        labeled = Alphabet((0, 1), labels=("0", "1"))
        lvl = np.array([[0.9, 0.1], [0.1, 0.9]])
        q = bit_metric_product([lvl], labeled, Alphabet((0, 1)))
        assert np.allclose(q.q, lvl)

    def test_all_ones(self):
        out = Alphabet((0, 1, 2))
        q = bit_metric_product([np.ones((2, 3)), np.ones((2, 3))], GRAY4, out)
        assert np.allclose(q.q, 1.0)

    def test_entrywise_product_oracle(self):
        rng = np.random.default_rng(8)
        out = Alphabet((0, 1, 2))
        l1, l2 = rng.random((2, 3)), rng.random((2, 3))
        q = bit_metric_product([l1, l2], GRAY4, out)
        for i in range(4):
            b1, b2 = GRAY4.bits(1)[i], GRAY4.bits(2)[i]
            assert np.allclose(q.q[i], l1[b1] * l2[b2], atol=1e-15)

    def test_normalizers_factor(self):
        rng = np.random.default_rng(9)
        out = Alphabet(tuple(range(5)))
        l1, l2 = rng.random((2, 5)), rng.random((2, 5))
        q = bit_metric_product([l1, l2], GRAY4, out)
        assert np.allclose(
            q.q.sum(axis=0), l1.sum(axis=0) * l2.sum(axis=0), atol=1e-10
        )

    def test_level_count_mismatch(self):
        with pytest.raises(ValueError):
            bit_metric_product([np.ones((2, 2))], GRAY4, Alphabet((0, 1)))


class TestQuantizers:
    def test_identity_on_noiseless(self):
        ch = mary_symmetric(3, 0.0)
        quant = map_quantizer(uniform_pmf(ch.input), ch)
        assert quant.targets == (0, 1, 2)

    def test_bsc_uniform_identity(self):
        quant = map_quantizer(uniform_pmf(bsc(0.11).input), bsc(0.11))
        assert quant.targets == (0, 1)

    def test_brute_force_argmax_oracle(self):
        rng = np.random.default_rng(10)
        ch = random_channel(rng, 3, 6)
        p = Pmf(ch.input, np.array([0.6, 0.3, 0.1]))
        quant = map_quantizer(p, ch)
        joint = p.probs[:, None] * ch.w
        for b in range(6):
            assert quant.targets[b] == int(np.argmax(joint[:, b]))

    def test_hard_decision_one_hot_columns(self):
        rng = np.random.default_rng(12)
        ch = random_channel(rng, 4, 7)
        quant = map_quantizer(uniform_pmf(ch.input), ch)
        q = hard_decision_metric(quant, ch.input)
        assert np.allclose(q.q.sum(axis=0), 1.0)
        assert set(q.q.ravel()) <= {0.0, 1.0}


class TestMetricSwitch:
    def test_uniform_input_is_global_scaling(self):
        ch = bsc(0.2)
        q = likelihood_metric(ch)
        sw = metric_switch(q, uniform_pmf(ch.input), 2.0)
        assert np.allclose(sw.q, q.q * 0.5 ** 0.5)

    def test_s_one(self):
        ch = bsc(0.2)
        p = Pmf(ch.input, np.array([0.7, 0.3]))
        sw = metric_switch(likelihood_metric(ch), p, 1.0)
        assert np.allclose(sw.q, ch.w * p.probs[:, None])

    def test_reproduces_gmi(self):
        rng = np.random.default_rng(13)
        ch = random_channel(rng, 3, 4)
        p = Pmf(ch.input, np.array([0.5, 0.3, 0.2]))
        quant = map_quantizer(p, ch)
        q = exp_transform(hard_decision_metric(quant, ch.input), 1.0)
        rate, s_star = gmi(p, ch, q)
        rep = achievable_transmission_rate(
            p, ch, power_transform(metric_switch(q, p, s_star), s_star)
        )
        assert rep.r_ps_by_perspective[0] == pytest.approx(rate, abs=1e-9)
