import math
import warnings

import numpy as np
import pytest

from psrates import (
    Alphabet,
    Dmc,
    Metric,
    NumericalCheckError,
    Pmf,
    SequencePair,
    achievable_transmission_rate,
    bsc,
    composition_sorted_rate,
    divergence,
    empirical_code_rate,
    exact_composition_sequence,
    likelihood_metric,
    monte_carlo_t_c,
    posterior_metric,
    sample_channel_outputs,
    uniform_pmf,
)
from psrates import empirical


class TestSequencePair:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SequencePair((0, 1), (0,))

    def test_empty(self):
        with pytest.raises(ValueError):
            SequencePair((), ())

    def test_unknown_symbol(self):
        q = likelihood_metric(bsc(0.11))
        with pytest.raises(ValueError):
            empirical_code_rate(SequencePair((0, 7), (0, 1)), q)


class TestEmpiricalCodeRate:
    def test_two_term_hand_oracle(self):
        # frozen value from a by-hand two-term evaluation on a BSC(0.11)
        q = likelihood_metric(bsc(0.11))
        pair = SequencePair((0, 1), (0, 0))
        assert empirical_code_rate(pair, q) == pytest.approx(
            -0.6762736649728772, abs=1e-12
        )

    def test_all_agree_positions(self):
        q = likelihood_metric(bsc(0.11))
        pair = SequencePair((0, 0, 1, 1), (0, 0, 1, 1))
        expected = 1 + math.log2(0.89)
        assert empirical_code_rate(pair, q) == pytest.approx(expected, abs=1e-12)

    def test_metric_zero_gives_minus_inf(self):
        q = Metric(
            Alphabet((0, 1)), Alphabet((0, 1)), np.array([[1.0, 0.0], [1.0, 1.0]])
        )
        assert empirical_code_rate(SequencePair((0,), (1,)), q) == -math.inf

    def test_forms_disagreeing_raises(self, monkeypatch):
        per_term = empirical._per_term_rates

        def shifted(pair, q):
            xi, yi, terms = per_term(pair, q)
            return xi, yi, terms + 1e-6

        monkeypatch.setattr(empirical, "_per_term_rates", shifted)
        q = likelihood_metric(bsc(0.11))
        with pytest.raises(NumericalCheckError, match="forms disagree"):
            empirical_code_rate(SequencePair((0, 1), (0, 0)), q)

    def test_position_order_invariant(self):
        rng = np.random.default_rng(50)
        ch = bsc(0.2)
        q = likelihood_metric(ch)
        x = tuple(rng.integers(0, 2, 12))
        y = tuple(rng.integers(0, 2, 12))
        perm = rng.permutation(12)
        xp = tuple(x[i] for i in perm)
        yp = tuple(y[i] for i in perm)
        assert empirical_code_rate(SequencePair(x, y), q) == pytest.approx(
            empirical_code_rate(SequencePair(xp, yp), q), abs=1e-12
        )


class TestCompositionSortedRate:
    def test_recombination_identity(self):
        rng = np.random.default_rng(51)
        ch = bsc(0.2)
        q = likelihood_metric(ch)
        for _ in range(20):
            x = tuple(rng.integers(0, 2, 16))
            y = tuple(rng.integers(0, 2, 16))
            pair = SequencePair(x, y)
            breakdown = composition_sorted_rate(pair, q)
            recombined = sum(f * inner for f, inner in breakdown.values())
            assert recombined == pytest.approx(empirical_code_rate(pair, q), abs=1e-10)

    def test_frequencies_sum_to_one(self):
        q = likelihood_metric(bsc(0.3))
        pair = SequencePair((0, 0, 0, 1), (0, 1, 0, 1))
        breakdown = composition_sorted_rate(pair, q)
        assert sum(f for f, _ in breakdown.values()) == pytest.approx(1.0)
        assert breakdown[0][0] == pytest.approx(0.75)

    def test_absent_symbols_omitted(self):
        q = likelihood_metric(bsc(0.3))
        breakdown = composition_sorted_rate(SequencePair((0, 0), (0, 1)), q)
        assert set(breakdown) == {0}


class TestExactComposition:
    def test_counts_match_rounding(self):
        rng = np.random.default_rng(52)
        p = Pmf(Alphabet((0, 1, 2)), np.array([0.2, 0.3, 0.5]))
        seq = exact_composition_sequence(p, 10, rng)
        assert sorted(np.bincount(seq, minlength=3)) == [2, 3, 5]

    def test_largest_remainder(self):
        rng = np.random.default_rng(53)
        p = Pmf(Alphabet((0, 1)), np.array([0.26, 0.74]))
        seq = exact_composition_sequence(p, 10, rng)
        counts = np.bincount(seq, minlength=2)
        # 2.6 and 7.4 -> the larger remainder gets the extra slot
        assert list(counts) == [3, 7]

    def test_length(self):
        rng = np.random.default_rng(54)
        p = Pmf(Alphabet((0, 1, 2, 3)), np.array([0.1, 0.2, 0.3, 0.4]))
        for n in (1, 7, 23):
            assert len(exact_composition_sequence(p, n, rng)) == n

    @pytest.mark.parametrize("n", [2.5, 1.0, 0, -3])
    def test_bad_length_rejected(self, n):
        p = Pmf(Alphabet((0, 1)), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="block length n"):
            exact_composition_sequence(p, n, np.random.default_rng(0))


def comparison_count_sample(ch, x_idx, rng):
    """Reference sampler: count the cumulative entries each uniform reaches."""
    cum = np.cumsum(ch.w, axis=1)
    u = rng.random(len(x_idx))
    rows = cum[x_idx]
    return np.minimum((u[:, None] >= rows).sum(axis=1), len(ch.output) - 1)


class TestSampleChannelOutputs:
    def test_deterministic_channel(self):
        ch = Dmc(Alphabet((0, 1)), Alphabet((0, 1)), np.eye(2))
        rng = np.random.default_rng(55)
        x = np.array([0, 1, 1, 0])
        assert list(sample_channel_outputs(ch, x, rng)) == [0, 1, 1, 0]

    def test_matches_comparison_count(self):
        rng = np.random.default_rng(57)
        for trial in range(40):
            nx = int(rng.integers(1, 9))
            ny = int(rng.integers(1, 601))
            w = rng.dirichlet(np.ones(ny), size=nx)
            w[rng.random((nx, ny)) < 0.3] = 0.0
            w[:, 0] += 1e-3
            w /= w.sum(axis=1, keepdims=True)
            ch = Dmc(Alphabet(tuple(range(nx))), Alphabet(tuple(range(ny))), w)
            x = rng.integers(0, nx, size=int(rng.integers(0, 3001)))
            got = sample_channel_outputs(ch, x, np.random.default_rng(trial))
            want = comparison_count_sample(ch, x, np.random.default_rng(trial))
            assert np.array_equal(got, want)

    def test_list_input(self):
        ch = bsc(0.3)
        x = [0, 1, 1, 0, 1] * 20
        got = sample_channel_outputs(ch, x, np.random.default_rng(58))
        want = comparison_count_sample(ch, np.array(x), np.random.default_rng(58))
        assert np.array_equal(got, want)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(59)
        for x in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError):
                sample_channel_outputs(bsc(0.3), x, rng)

    @pytest.mark.parametrize("x", [np.full(5, 0.5), np.zeros(5), np.ones(5, dtype=bool)])
    def test_non_integer_indices_rejected(self, x):
        with pytest.raises(ValueError, match="input indices must be integers"):
            sample_channel_outputs(bsc(0.3), x, np.random.default_rng(59))

    def test_empirical_law(self):
        ch = bsc(0.2)
        rng = np.random.default_rng(56)
        x = np.zeros(200000, dtype=int)
        y = sample_channel_outputs(ch, x, rng)
        assert y.mean() == pytest.approx(0.2, abs=0.01)


class TestMonteCarloTc:
    def test_converges_to_t_c(self):
        ch = bsc(0.05)
        p = uniform_pmf(ch.input)
        q = likelihood_metric(ch)
        rep = achievable_transmission_rate(p, ch, q)
        res = monte_carlo_t_c(p, ch, q, n=200, trials=400, rng_seed=7)
        assert abs(res.mean - rep.t_c) < 4 * res.std_error + 1e-9

    def test_shaped_exact_composition(self):
        ch = bsc(0.1)
        p = Pmf(ch.input, np.array([0.75, 0.25]))
        q = posterior_metric(p, ch)
        rep = achievable_transmission_rate(p, ch, q)
        res = monte_carlo_t_c(
            p, ch, q, n=400, trials=300, rng_seed=11, composition="exact"
        )
        # exact-composition estimate targets T_c up to the divergence penalty
        # vanishing variance in composition keeps it near the iid mean
        assert abs(res.mean - rep.t_c) < 5 * res.std_error + 5e-3

    def test_reproducible(self):
        ch = bsc(0.11)
        p = uniform_pmf(ch.input)
        q = likelihood_metric(ch)
        a = monte_carlo_t_c(p, ch, q, n=50, trials=20, rng_seed=3)
        b = monte_carlo_t_c(p, ch, q, n=50, trials=20, rng_seed=3)
        assert a == b

    def test_single_trial_has_infinite_std_error(self):
        ch = bsc(0.11)
        res = monte_carlo_t_c(
            uniform_pmf(ch.input), ch, likelihood_metric(ch), 20, 1, 0
        )
        assert res.std_error == math.inf

    @pytest.mark.parametrize("eps, n, se", [(0.5, 40, 0.0), (0.1, 4, math.inf)])
    def test_minus_infinite_trials_have_no_nan_std_error(self, eps, n, se):
        # q vanishes off the sent symbol: a trial with a channel error reads
        # -inf; all of them (eps 0.5, n 40) or some of them (eps 0.1, n 4)
        ch = bsc(eps)
        q = Metric(ch.input, ch.output, np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = monte_carlo_t_c(uniform_pmf(ch.input), ch, q, n=n, trials=20, rng_seed=1)
        assert (res.mean, res.std_error) == (-math.inf, se)

    def test_validation(self):
        ch = bsc(0.11)
        p = uniform_pmf(ch.input)
        q = likelihood_metric(ch)
        with pytest.raises(ValueError):
            monte_carlo_t_c(p, ch, q, 10, 0, 0)
        with pytest.raises(ValueError):
            monte_carlo_t_c(p, ch, q, 10, 5, 0, composition="typical")
        with pytest.raises(ValueError, match="block length n must be an integer"):
            monte_carlo_t_c(p, ch, q, 2.5, 5, 0)

    def test_metric_on_other_input_order_rejected(self):
        # taken by position, these rows would be the likelihood itself
        ch = bsc(0.1)
        q = Metric(Alphabet((1, 0)), ch.output, ch.w)
        with pytest.raises(ValueError, match="metric alphabets"):
            monte_carlo_t_c(uniform_pmf(ch.input), ch, q, n=50, trials=20, rng_seed=1)

    def test_input_on_other_alphabet_rejected(self):
        ch = bsc(0.1)
        p = uniform_pmf(Alphabet(("a", "b")))
        with pytest.raises(ValueError, match="input distribution"):
            monte_carlo_t_c(p, ch, likelihood_metric(ch), n=50, trials=20, rng_seed=1)

    def test_iid_matches_choice_with_one_table(self, monkeypatch):
        # the classical draw reproduces rng.choice; its table is built once
        ch = bsc(0.1)
        p = Pmf(ch.input, np.array([0.8, 0.2]))
        q = posterior_metric(p, ch)
        draw, builds = empirical._IidDraw, []

        def counted(probs, size):
            builds.append(probs)
            return draw(probs, size)

        monkeypatch.setattr(empirical, "_IidDraw", counted)
        res = monte_carlo_t_c(p, ch, q, n=300, trials=7, rng_seed=5)
        assert len(builds) == 1
        values = []
        for t in range(7):
            rng = np.random.default_rng([5, t])
            x = rng.choice(2, size=300, p=p.probs)
            values.append(q.log2_ratio()[x, sample_channel_outputs(ch, x, rng)].mean())
        assert res.mean == float(np.mean(values))
        assert res.std_error == float(np.std(values, ddof=1) / math.sqrt(7))


def _iid_probs(nx, kind):
    """A pmf on nx symbols of the given kind, summing to 1 within 1e-12."""
    rng = np.random.default_rng(nx)
    p = rng.dirichlet(np.full(nx, 0.3 if kind == "sparse" else 1.0))
    if kind == "zeros":
        # first, middle and last, keeping one positive entry
        p[sorted({0, nx // 2, nx - 1})[:nx - 1]] = 0.0
    elif kind == "one-bucket":
        # up to 200 cdf steps of 1e-9, within one or two buckets
        p[1:201] = 1e-9
    elif kind == "subnormal":
        # subnormal cdf steps at the start and steps lost to rounding later
        p[:nx // 2] = 1e-310
    return p / p.sum()


# The classical codebook draw reproduces numpy's Generator.choice value for
# value and leaves the generator where choice leaves it, so that the
# simulator's output does not depend on how the draw is computed.

def _draw_iid(rng, p, size):
    """An array of the given size filled by empirical._IidDraw."""
    draw = empirical._IidDraw(p, np.prod(size, dtype=int))
    return draw.fill(rng, np.empty(size, draw.table.dtype))


class TestIidDrawOracle:
    @pytest.mark.parametrize("kind", ["dirichlet", "sparse", "zeros", "one-bucket", "subnormal"])
    @pytest.mark.parametrize("nx", [1, 2, 3, 4, 16, 64, 255, 256, 257, 1000])
    def test_draw_is_choice(self, nx, kind):
        p = _iid_probs(nx, kind)
        for size in (1, 7, 1001, (37, 13)):
            ours, ref = np.random.default_rng(9), np.random.default_rng(9)
            x = _draw_iid(ours, p, size)
            assert np.array_equal(x, ref.choice(nx, size=size, p=p)), size
            assert ours.bit_generator.state == ref.bit_generator.state
            assert ours.random() == ref.random()
            assert ours.integers(1000) == ref.integers(1000)

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_blocks_continue_the_stream(self, monkeypatch, block):
        # blocks smaller than the draw, the last one partial, fill the
        # array the one choice call fills, and the next fill goes on from there
        monkeypatch.setattr(empirical, "_IID_BLOCK", block)
        p = _iid_probs(257, "dirichlet")
        draw = empirical._IidDraw(p, 37 * 13)
        assert len(draw.u) == block
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        for size in ((37, 13), (3, 13)):
            x = draw.fill(ours, np.empty(size, draw.table.dtype))
            assert np.array_equal(x, ref.choice(257, size=size, p=p)), size
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("kind", ["dirichlet", "zeros", "one-bucket", "subnormal"])
    def test_uniforms_on_cdf_entries_and_bucket_edges(self, kind):
        # choice counts the cdf entries <= u: uniforms equal to an entry, or
        # one step either side of it, and on bucket edges must agree with it
        p = _iid_probs(257, kind)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        values = np.concatenate((
            cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 1),
            np.arange(0, empirical._GUIDE_BUCKETS, 97) / empirical._GUIDE_BUCKETS,
            [np.nextafter(1.0, 0)],
        ))
        values = values[values < 1]

        class Replay:
            def random(self, out):
                out[:] = values

        x = _draw_iid(Replay(), p, values.size)
        assert np.array_equal(x, cdf.searchsorted(values, "right"))

    def test_only_an_entry_inside_a_bucket_opens_it(self):
        # an entry on the edge b counts from bucket b on and opens none
        table = empirical._IidDraw(np.array([0.25, 0.25, 0.5]), 1).table
        b = empirical._GUIDE_BUCKETS // 4
        assert table[b - 1] == 0 and table[b] == 1 and not np.any(table < 0)
        table = empirical._IidDraw(np.array([1e-6, 1 - 1e-6]), 1).table
        assert table[0] == -1 and np.all(table[1:] == 1)
