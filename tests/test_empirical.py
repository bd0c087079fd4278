import math
import sys
import threading
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
    divergence,
    empirical_code_rate,
    likelihood_metric,
    monte_carlo_t_c,
    posterior_metric,
    sample_channel_outputs,
    uniform_pmf,
)
from psrates import channel, empirical
from psrates.channel import GridSpec, ask_constellation, awgn_quantized
from psrates.empirical import _composition


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
        log2_ratio = empirical._log2_ratio

        def shifted(q_xy, col, nx):
            return log2_ratio(q_xy, col, nx) + 1e-6

        monkeypatch.setattr(empirical, "_log2_ratio", shifted)
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
        # the rate sorted by input symbol: the rates of the positions that
        # send each symbol, weighted by its frequency, recombine to the
        # whole pair's rate
        rng = np.random.default_rng(51)
        ch = bsc(0.2)
        q = likelihood_metric(ch)
        for _ in range(20):
            x = rng.integers(0, 2, 16)
            y = rng.integers(0, 2, 16)
            recombined = 0.0
            for a in (0, 1):
                sel = x == a
                if sel.any():
                    inner = empirical_code_rate(SequencePair(x[sel], y[sel]), q)
                    recombined += sel.mean() * inner
            pair = SequencePair(tuple(x), tuple(y))
            assert recombined == pytest.approx(empirical_code_rate(pair, q), abs=1e-10)


class TestExactComposition:
    def test_counts_match_rounding(self):
        p = Pmf(Alphabet((0, 1, 2)), np.array([0.2, 0.3, 0.5]))
        assert _composition(p, 10).tolist() == [0] * 2 + [1] * 3 + [2] * 5

    def test_largest_remainder(self):
        p = Pmf(Alphabet((0, 1)), np.array([0.26, 0.74]))
        counts = np.bincount(_composition(p, 10), minlength=2)
        # 2.6 and 7.4 -> the larger remainder gets the extra slot
        assert list(counts) == [3, 7]

    def test_length(self):
        p = Pmf(Alphabet((0, 1, 2, 3)), np.array([0.1, 0.2, 0.3, 0.4]))
        for n in (1, 7, 23):
            assert len(_composition(p, n)) == n

    @pytest.mark.parametrize("n", [2.5, 1.0, 0, -3])
    def test_bad_length_rejected(self, n):
        ch = bsc(0.1)
        with pytest.raises(ValueError, match="block length n"):
            monte_carlo_t_c(uniform_pmf(ch.input), ch, likelihood_metric(ch), n, 1, 0,
                            composition="exact")


def comparison_count_sample(ch, x_idx, rng):
    """Reference sampler: count the cumulative entries each uniform reaches."""
    cum = np.cumsum(ch.w, axis=1)
    u = rng.random(len(x_idx))
    rows = cum[x_idx]
    return np.minimum((u[:, None] >= rows).sum(axis=1), len(ch.output) - 1)


def searchsorted_sample(ch, x_idx, rng):
    """Reference sampler: a binary search in the cumulative row of each
    position's input symbol, rows built on every call, one pass per symbol."""
    x_idx = np.asarray(x_idx)
    cum = np.cumsum(ch.w, axis=1)
    u = rng.random(len(x_idx))
    y = np.empty(len(x_idx), dtype=np.intp)
    for a in range(len(cum)):
        sel = x_idx == a
        y[sel] = np.searchsorted(cum[a], u[sel], side="right")
    return np.minimum(y, len(ch.output) - 1)


class Replay:
    """Stands in for a generator whose next uniforms are `values`."""

    def __init__(self, values):
        self.values = values

    def random(self, size):
        assert size == len(self.values)
        return self.values.copy()


def _random_channel(rng, nx, ny):
    """A channel with about 30 % zero entries and every row's first kept."""
    w = rng.dirichlet(np.ones(ny), size=nx)
    w[rng.random((nx, ny)) < 0.3] = 0.0
    w[:, 0] += 1e-3
    return Dmc(Alphabet(tuple(range(nx))), Alphabet(tuple(range(ny))),
               w / w.sum(axis=1, keepdims=True))


def _rows_ending_off_one():
    """A 6 x 7 channel whose cumulative rows end below, at and above 1."""
    rng = np.random.default_rng(61)
    while True:
        ch = Dmc(Alphabet(tuple(range(6))), Alphabet(tuple(range(7))),
                 rng.dirichlet(np.ones(7), size=6))
        ends = np.cumsum(ch.w, axis=1)[:, -1]
        if (ends < 1).any() and (ends == 1).any() and (ends > 1).any():
            return ch


def _edge_uniforms(ch):
    """(x, u): for every input symbol, uniforms on its cumulative entries,
    one step either side of them, and on and just below every bucket edge."""
    buckets = ch._guide[1].shape[1]
    edges = np.arange(buckets) / buckets
    xs, us = [], []
    for a, row in enumerate(np.cumsum(ch.w, axis=1)):
        u = np.concatenate((row, np.nextafter(row, 0), np.nextafter(row, 2),
                            edges, np.nextafter(edges, 0), [np.nextafter(1.0, 0)]))
        u = u[(u >= 0) & (u < 1)]
        xs.append(np.full(len(u), a))
        us.append(u)
    return np.concatenate(xs), np.concatenate(us)


class TestGuideTableSampler:
    # the guide table gives the values and generator state of the binary
    # search in the cumulative rows, searchsorted_sample

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 5), (2, 2), (8, 31), (8, 32),
                                       (4, 33), (5, 255), (3, 256), (8, 600)])
    def test_uniforms_on_entries_and_bucket_edges(self, shape):
        ch = _random_channel(np.random.default_rng(shape), *shape)
        x, u = _edge_uniforms(ch)
        got = sample_channel_outputs(ch, x, Replay(u))
        assert np.array_equal(got, searchsorted_sample(ch, x, Replay(u)))

    @pytest.mark.parametrize("cells", [512, 4096])
    def test_awgn_channel_edges(self, cells):
        # most cumulative entries crowd a few buckets near 0 and 1
        ch = awgn_quantized(ask_constellation(8), 0.5, GridSpec(cells))
        x, u = _edge_uniforms(ch)
        got = sample_channel_outputs(ch, x, Replay(u))
        assert np.array_equal(got, searchsorted_sample(ch, x, Replay(u)))

    def test_rows_ending_off_one_are_clamped(self):
        ch = _rows_ending_off_one()
        x, u = _edge_uniforms(ch)
        got = sample_channel_outputs(ch, x, Replay(u))
        assert np.array_equal(got, searchsorted_sample(ch, x, Replay(u)))
        # u = 1 - 2^-53 lies past the last entry of a row that ends below 1,
        # where both count 7 entries: the clamp ran
        short = np.flatnonzero(np.cumsum(ch.w, axis=1)[:, -1] < 1)
        top = np.isin(x, short) & (u == np.nextafter(1.0, 0))
        assert top.any() and np.all(got[top] == 6)

    def test_subnormal_and_lost_steps(self):
        w = np.full((2, 300), 1e-310)
        w[:, 150:] = np.random.default_rng(62).dirichlet(np.ones(150), size=2)
        ch = Dmc(Alphabet((0, 1)), Alphabet(tuple(range(300))), w)
        x, u = _edge_uniforms(ch)
        got = sample_channel_outputs(ch, x, Replay(u))
        assert np.array_equal(got, searchsorted_sample(ch, x, Replay(u)))

    @pytest.mark.parametrize("kind", ["uint8", "int64", "list"])
    def test_input_types_keep_values_and_stream(self, kind):
        rng = np.random.default_rng(63)
        for trial in range(30):
            ch = _random_channel(rng, int(rng.integers(1, 9)), int(rng.integers(1, 700)))
            x = rng.integers(0, len(ch.input), size=int(rng.integers(0, 3001)))
            x = x.tolist() if kind == "list" else x.astype(kind)
            if kind == "list" and not x:
                continue
            ours, ref = np.random.default_rng(trial), np.random.default_rng(trial)
            got = sample_channel_outputs(ch, x, ours)
            assert got.dtype == np.intp
            assert np.array_equal(got, searchsorted_sample(ch, x, ref))
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_table_within_a_multiple_of_the_rows(self):
        for ny in (1, 31, 32, 33, 255, 256, 512, 4096, 5000):
            ch = _random_channel(np.random.default_rng(ny), 3, ny)
            scaled, table = ch._guide
            assert not scaled.flags.writeable and not table.flags.writeable
            rows_bytes = scaled.nbytes
            assert table.nbytes <= max(4 * rows_bytes, 3 * 256), ny

    def test_table_built_once_per_channel(self, monkeypatch):
        builds = []

        def counted(cum, buckets):
            builds.append(cum.shape)
            return build(cum, buckets)

        build = channel._guide_table
        monkeypatch.setattr(channel, "_guide_table", counted)
        ch = bsc(0.1)
        p, q = uniform_pmf(ch.input), likelihood_metric(ch)
        for composition in ("iid", "exact"):
            monte_carlo_t_c(p, ch, q, n=50, trials=7, rng_seed=5, composition=composition)
        sample_channel_outputs(ch, [0, 1], np.random.default_rng(0))
        assert builds == [(2, 2)]
        sample_channel_outputs(bsc(0.1), [0, 1], np.random.default_rng(0))
        assert builds == [(2, 2)] * 2

    def test_threads_share_one_table(self, monkeypatch):
        # eight threads sample a fresh channel at once, the interpreter lock
        # handed over every microsecond: one build, and every thread's
        # values those of the reference
        builds, build = [], channel._guide_table

        def counted(cum, buckets):
            builds.append(cum.shape)
            return build(cum, buckets)

        monkeypatch.setattr(channel, "_guide_table", counted)
        ch = awgn_quantized(ask_constellation(8), 0.5, GridSpec(512))
        x = np.random.default_rng(66).integers(0, 8, 2000)
        start, results = threading.Barrier(8), [None] * 8

        def work(i):
            start.wait(10)
            results[i] = sample_channel_outputs(ch, x, np.random.default_rng(i))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert builds == [(8, 512)]
        for i, got in enumerate(results):
            assert np.array_equal(got, searchsorted_sample(ch, x, np.random.default_rng(i)))


def test_guide_table_counts_entries():
    # unnormalised rows, some summing well below 1, so that buckets past
    # every entry read k, and bucket counts from 1 up
    rng = np.random.default_rng(64)
    for trial in range(60):
        rows, k = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        w = rng.random((rows, k)) * (rng.random((rows, k)) < 0.7)
        cum = np.cumsum(w, axis=1)
        cum /= cum[:, -1:].max(initial=0) * rng.uniform(0.95, 3.0) or 1.0
        buckets = 1 << int(rng.integers(0, 9))
        scaled, table = channel._guide_table(cum, buckets)
        assert table.shape == (rows, buckets)
        u = np.concatenate((cum.ravel(), np.nextafter(cum.ravel(), 0),
                            np.nextafter(cum.ravel(), 1), np.arange(buckets) / buckets,
                            rng.random(200)))
        u = u[(u >= 0) & (u < 1)]
        for r in range(rows):
            want = cum[r].searchsorted(u, "right")
            got = table[r, (u * buckets).astype(np.intp)].astype(np.intp)
            exact = got < k
            assert np.array_equal(got[exact], want[exact])
            got[~exact] = scaled[r].searchsorted(u[~exact] * buckets, "right")
            assert np.array_equal(got, want)


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


def reference_monte_carlo(p_x, ch, q, n, trials, rng_seed, composition):
    """(mean, std_error) of the Monte-Carlo loop gathering ratio[x, y] per
    trial, with x from rng.choice or a permutation of _composition and y
    from searchsorted_sample."""
    ratio = q.log2_ratio()
    values = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([rng_seed, t])
        if composition == "iid":
            x = rng.choice(len(p_x.probs), size=n, p=p_x.probs)
        else:
            x = rng.permutation(_composition(p_x, n))
        values[t] = ratio[x, searchsorted_sample(ch, x, rng)].mean()
    mean = float(values.mean())
    if trials < 2 or not np.isfinite(values).all():
        agree = trials > 1 and (values == values[0]).all()
        return mean, 0.0 if agree else math.inf
    return mean, float(values.std(ddof=1) / math.sqrt(trials))


@pytest.mark.parametrize("composition", ["iid", "exact"])
def test_monte_carlo_matches_reference_loop(composition):
    # random scenarios, some with metric zeros on pairs the channel reaches
    # (trials of -inf), some with zero-probability inputs
    rng = np.random.default_rng(65)
    seen = set()
    for trial in range(40):
        nx, ny = int(rng.integers(1, 7)), int(rng.integers(1, 40))
        ch = _random_channel(rng, nx, ny)
        probs = rng.dirichlet(np.ones(nx))
        if nx > 1 and rng.random() < 0.3:
            probs[rng.integers(nx)] = 0.0
        p = Pmf(ch.input, probs / probs.sum())
        q = rng.random((nx, ny)) * (rng.random((nx, ny)) < rng.choice([0.5, 0.97, 1.0]))
        q = Metric(ch.input, ch.output, q)
        n, trials = int(rng.integers(1, 60)), int(rng.integers(1, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = monte_carlo_t_c(p, ch, q, n, trials, trial, composition=composition)
        want = reference_monte_carlo(p, ch, q, n, trials, trial, composition)
        assert (res.mean, res.std_error) == want, trial
        seen.add((math.isfinite(res.mean),
                  res.std_error if res.std_error in (0.0, math.inf) else "finite"))
    assert {(False, 0.0), (False, math.inf), (True, "finite")} <= seen


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
    @pytest.mark.parametrize("nx", [1, 2, 3, 4, 5, 16, 64, 128, 129, 200, 255, 256, 257, 300,
                                    1000])
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
        assert table[b - 1] == 0 and table[b] == 1 and not np.any(table == 3)
        table = empirical._IidDraw(np.array([1e-6, 1 - 1e-6]), 1).table
        assert table[0] == 2 and np.all(table[1:] == 1)
