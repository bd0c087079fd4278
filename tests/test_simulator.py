import math
import tracemalloc

import numpy as np
import pytest

from psrates import (
    Alphabet,
    Dmc,
    Pmf,
    SequencePair,
    SimConfig,
    TypicalSpec,
    bsc,
    empirical_code_rate,
    encoding_failure_bound,
    is_typical,
    likelihood_metric,
    mary_symmetric,
    pairwise_union_bound,
    posterior_metric,
    run,
    sample_channel_outputs,
    uniform_pmf,
)
from psrates import simulator


def layered_config(**overrides):
    ch = bsc(0.05)
    p = uniform_pmf(ch.input)
    defaults = dict(
        p_x=p,
        ch=ch,
        q=likelihood_metric(ch),
        n=16,
        r_c=0.75,
        r_tx=0.5,
        eps_typ=0.25,
        trials=60,
        rng_seed=100,
        mode="layered-ps",
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestSimConfig:
    def test_rate_ordering_enforced(self):
        with pytest.raises(ValueError):
            layered_config(r_tx=0.9)

    def test_feasibility_cap(self):
        with pytest.raises(ValueError):
            layered_config(n=40, r_c=1.0, r_tx=0.5)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            layered_config(trials=0)

    @pytest.mark.parametrize("eps_typ", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_rejected(self, eps_typ):
        with pytest.raises(ValueError, match="eps_typ"):
            layered_config(eps_typ=eps_typ)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            layered_config(mode="layered")

    def test_metric_on_other_alphabet_rejected(self):
        # q's rows in the order (1, 0) would be read by index by the decoder
        # and by symbol by t_hat
        w = np.array([[0.9, 0.1], [0.2, 0.8]])
        ch = Dmc(Alphabet((0, 1)), Alphabet((0, 1)), w)
        q = likelihood_metric(Dmc(Alphabet((1, 0)), Alphabet((0, 1)), w))
        with pytest.raises(ValueError, match="metric alphabets"):
            layered_config(p_x=uniform_pmf(ch.input), ch=ch, q=q)

    def test_input_on_other_alphabet_rejected(self):
        p = uniform_pmf(Alphabet((1, 0)))
        with pytest.raises(ValueError, match="input distribution"):
            layered_config(p_x=p)

    def test_codebook_sizes(self):
        cfg = layered_config(n=16, r_c=0.75, r_tx=0.5)
        n_c, n_u, n_v = cfg.codebook_sizes()
        assert n_u == 2 ** 8
        assert n_v == 2 ** 12 // 2 ** 8
        assert n_c == n_u * n_v

    def test_classical_sizes(self):
        cfg = layered_config(mode="classical")
        n_c, n_u, n_v = cfg.codebook_sizes()
        assert n_v == 1
        assert n_c == n_u


class TestPairwiseUnionBound:
    def test_formula(self):
        q = likelihood_metric(bsc(0.11))
        pair = SequencePair((0, 0, 1, 1), (0, 0, 1, 1))
        t_hat = 1 + math.log2(0.89)
        expected = min(1.0, 2.0 ** (-4 * (t_hat - 0.5)))
        assert pairwise_union_bound(pair, q, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_clipped_to_one(self):
        q = likelihood_metric(bsc(0.11))
        pair = SequencePair((0, 1), (1, 0))  # all positions flipped
        assert pairwise_union_bound(pair, q, 1.0) == 1.0


    def test_run_computes_t_hat_once_per_trial(self, monkeypatch):
        calls = []

        def counted(pair, q):
            calls.append(pair)
            return empirical_code_rate(pair, q)

        cfg = layered_config(n=12, trials=5)
        monkeypatch.setattr(simulator, "empirical_code_rate", counted)
        res = run(cfg)
        monkeypatch.undo()
        assert len(calls) == 5
        for pair, rec in zip(calls, res.per_trial):
            assert rec.union_bound == pairwise_union_bound(pair, cfg.q, res.realized_r_c)


class TestLayeredPs:
    def test_reproducible(self):
        a = run(layered_config())
        b = run(layered_config())
        assert a == b

    def test_counts_consistent(self):
        res = run(layered_config())
        assert res.trials == 60
        assert res.encoding_failures + res.decode_trials == res.trials
        assert res.encoding_failure_rate == res.encoding_failures / res.trials
        if res.decode_trials:
            assert res.decode_error_rate == res.decode_errors / res.decode_trials
        assert res.message_error_rate == res.message_errors / res.trials
        assert res.t_hat_min <= res.t_hat_mean <= res.t_hat_max
        assert len(res.per_trial) == res.trials

    def test_realized_rates(self):
        res = run(layered_config())
        n_c, n_u, _ = layered_config().codebook_sizes()
        assert res.realized_r_c == pytest.approx(math.log2(n_c) / 16)
        assert res.realized_r_tx == pytest.approx(math.log2(n_u) / 16)

    def test_encoding_failures_match_analytic_bound(self):
        cfg = layered_config(n=16, r_c=1.0, r_tx=0.25, trials=150, eps_typ=0.25)
        res = run(cfg)
        spec = TypicalSpec(cfg.p_x, cfg.n, cfg.eps_typ)
        bound = encoding_failure_bound(spec, res.realized_r_c - res.realized_r_tx)
        # observed frequency may exceed the bound only by sampling noise
        sigma = math.sqrt(max(bound, 1e-6) / cfg.trials)
        assert res.encoding_failure_rate <= bound + 5 * sigma + 0.02

    def test_transmitted_words_are_typical(self):
        # replay the trial RNG and confirm the encoder picks typical words
        cfg = layered_config(trials=30)
        res = run(cfg)
        spec = TypicalSpec(cfg.p_x, cfg.n, cfg.eps_typ)
        n_c, n_u, n_v = cfg.codebook_sizes()
        for t, rec in enumerate(res.per_trial):
            rng = np.random.default_rng([cfg.rng_seed, t])
            cb = rng.integers(2, size=(n_c, cfg.n))
            u = int(rng.integers(n_u))
            block = cb[u * n_v:(u + 1) * n_v]
            has_typical = any(is_typical(row, spec) for row in block)
            assert rec.encoding_failed == (not has_typical)

    def test_error_rate_below_union_bound(self):
        cfg = layered_config(n=16, r_c=0.5, r_tx=0.25, trials=200)
        res = run(cfg)
        sigma = math.sqrt(0.25 / res.decode_trials)
        assert res.decode_error_rate <= res.bound_2exp + 4 * sigma

    def test_low_rate_low_noise_decodes(self):
        cfg = layered_config(n=20, r_c=0.4, r_tx=0.2, trials=60)
        res = run(cfg)
        assert res.message_error_rate < 0.2

    def test_noiseless_errors_only_from_duplicates(self):
        # on a noiseless channel the decoder can only fail when the
        # transmitted codeword appears more than once in the codebook
        ch = mary_symmetric(2, 0.0)
        cfg = layered_config(ch=ch, q=likelihood_metric(ch), trials=40)
        res = run(cfg)
        n_c, n_u, n_v = cfg.codebook_sizes()
        for t, rec in enumerate(res.per_trial):
            rng = np.random.default_rng([cfg.rng_seed, t])
            cb = rng.integers(2, size=(n_c, cfg.n))
            u = int(rng.integers(n_u))
            block = cb[u * n_v:(u + 1) * n_v]
            spec = TypicalSpec(cfg.p_x, cfg.n, cfg.eps_typ)
            v = next(
                (k for k in range(n_v) if is_typical(block[k], spec)), 0
            )
            x = cb[u * n_v + v]
            dup = (cb == x).all(axis=1).sum() > 1
            assert rec.w_error == dup


class TestSymbolOrder:
    @pytest.mark.parametrize("mode", ["layered-ps", "classical"])
    def test_input_order_does_not_change_result(self, mode):
        # the codebook holds indices, so relabelling the input symbols must
        # leave the whole result, t_hat included, unchanged
        w = np.array([[0.9, 0.1], [0.2, 0.8]])
        results = []
        for symbols in ((0, 1), (1, 0)):
            ch = Dmc(Alphabet(symbols), Alphabet((0, 1)), w)
            p = Pmf(ch.input, np.array([0.7, 0.3]))
            cfg = layered_config(p_x=p, ch=ch, q=likelihood_metric(ch), mode=mode,
                                 n=12, r_c=0.75, r_tx=0.5, eps_typ=0.4, trials=10)
            results.append(run(cfg))
        assert results[0] == results[1]
        assert results[0].t_hat_mean > 0


class TestClassical:
    def test_counts_and_sizes(self):
        ch = bsc(0.05)
        p = Pmf(ch.input, np.array([0.8, 0.2]))
        cfg = layered_config(
            p_x=p, q=posterior_metric(p, ch), mode="classical", trials=50
        )
        res = run(cfg)
        assert res.codebook_size == res.message_count
        assert res.encoding_failures == 0
        assert res.trials == 50

    def test_shaped_codebook_composition(self):
        # classical mode draws codewords iid from P_X, not uniformly
        ch = bsc(0.05)
        p = Pmf(ch.input, np.array([0.9, 0.1]))
        cfg = layered_config(
            p_x=p, q=posterior_metric(p, ch), mode="classical", trials=40
        )
        n_c, _, _ = cfg.codebook_sizes()
        rng = np.random.default_rng([cfg.rng_seed, 0])
        cb = rng.choice(2, size=(n_c, cfg.n), p=p.probs)
        ones = cb.mean()
        assert abs(ones - 0.1) < 0.02

    def test_json_dict_round_trips_scalars(self):
        res = run(layered_config(mode="classical", trials=10))
        d = res.to_json_dict()
        assert d["trials"] == 10
        assert d["codebook_size"] == res.codebook_size
        assert "per_trial" not in d


def _one_shot_trial(cfg, t):
    """Trial t replayed with the whole codebook drawn and scored at once:
    (encoding_failed, w_error, u_error)."""
    nx = len(cfg.p_x.alphabet)
    n_c, n_u, n_v = cfg.codebook_sizes()
    rng = np.random.default_rng([cfg.rng_seed, t])
    if cfg.mode == "layered-ps":
        cb = rng.integers(nx, size=(n_c, cfg.n))
    else:
        cb = rng.choice(nx, size=(n_c, cfg.n), p=cfg.p_x.probs)
    u = int(rng.integers(n_u))
    spec = TypicalSpec(cfg.p_x, cfg.n, cfg.eps_typ)
    failed, v = False, 0
    if cfg.mode == "layered-ps":
        block = cb[u * n_v:(u + 1) * n_v]
        typical = [k for k in range(n_v) if is_typical(block[k], spec)]
        failed = not typical
        v = typical[0] if typical else 0
    w = u * n_v + v
    y = sample_channel_outputs(cfg.ch, cb[w], rng)
    scores = cfg.q.log2_q()[cb, y[None, :]].sum(axis=1)
    winners = np.flatnonzero(scores == scores.max())
    w_error = not (winners.size == 1 and winners[0] == w)
    return failed, w_error, (winners[0] // n_v) != u


def _streamed_cases():
    ch3 = mary_symmetric(3, 0.1)
    bsc05 = bsc(0.05)
    shaped = Pmf(bsc05.input, np.array([0.7, 0.3]))
    noiseless = mary_symmetric(2, 0.0)
    wide = {}
    for nx in (256, 257):  # uint8 and uint16 codebooks
        ch = mary_symmetric(nx, 0.1)
        p = Pmf(ch.input, np.random.default_rng(nx).dirichlet(np.ones(nx)))
        wide[f"classical-nx{nx}"] = layered_config(
            ch=ch, p_x=p, q=likelihood_metric(ch), mode="classical",
            n=2, r_c=5.0, r_tx=5.0, eps_typ=0.5, trials=3)
    return {
        **wide,
        "layered-nx2": layered_config(trials=6),
        # rng.integers(3) rejects and redraws; the chunked stream must too
        "layered-nx3": layered_config(
            ch=ch3, p_x=uniform_pmf(ch3.input), q=likelihood_metric(ch3),
            n=10, r_c=1.2, r_tx=0.6, eps_typ=0.3, trials=6),
        "classical-shaped": layered_config(
            p_x=shaped, q=posterior_metric(shaped, bsc05), mode="classical",
            n=12, r_c=0.75, r_tx=0.75, trials=6),
        # 2^10 codewords of length 10: duplicates, hence ties, in most trials
        "noiseless-ties": layered_config(
            ch=noiseless, q=likelihood_metric(noiseless), n=10, r_c=1.0,
            r_tx=0.5, eps_typ=0.5, trials=6),
    }


class TestStreamedCodebook:
    @pytest.mark.parametrize("case", sorted(_streamed_cases()))
    def test_chunk_size_does_not_change_result(self, monkeypatch, case):
        cfg = _streamed_cases()[case]
        default = run(cfg)
        # one row per chunk, an odd row count that divides no power of two,
        # and the whole codebook in one chunk
        for cells in (1, 7 * cfg.n + 3, 1 << 30):
            monkeypatch.setattr(simulator, "_CHUNK_CELLS", cells)
            assert run(cfg) == default, cells
        if case == "noiseless-ties":
            assert any(rec.w_error for rec in default.per_trial)

    @pytest.mark.parametrize("case", sorted(_streamed_cases()))
    def test_matches_one_shot_decoder(self, monkeypatch, case):
        cfg = _streamed_cases()[case]
        monkeypatch.setattr(simulator, "_CHUNK_CELLS", 7 * cfg.n + 3)
        res = run(cfg)
        for t, rec in enumerate(res.per_trial):
            assert (rec.encoding_failed, rec.w_error, rec.u_error) == _one_shot_trial(cfg, t)

    def test_codebook_memory_bounded(self):
        # the module docstring's promise: the uint8 codebook (n_c * n bytes),
        # one float64 score per codeword and up to about 24 bytes per chunk cell
        cfg = layered_config(n=18, r_c=1.0, r_tx=0.5, trials=2)
        n_c, _, _ = cfg.codebook_sizes()
        tracemalloc.start()
        try:
            run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_c * cfg.n + 8 * n_c + 24 * simulator._CHUNK_CELLS

    def test_classical_codebook_memory_bounded(self):
        # the same promise for the draw from P_X, whose temporaries differ
        ch = bsc(0.05)
        p = Pmf(ch.input, np.array([0.7, 0.3]))
        cfg = layered_config(p_x=p, q=posterior_metric(p, ch), mode="classical",
                             n=18, r_c=1.0, r_tx=1.0, trials=2)
        n_c, _, _ = cfg.codebook_sizes()
        tracemalloc.start()
        try:
            run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_c * cfg.n + 8 * n_c + 24 * simulator._CHUNK_CELLS


# The draw and the scorer reproduce numpy's own Generator.integers and row
# sum bit for bit, so that the simulator's output does not depend on how it
# computes them. A numpy whose algorithms differ must fail here, not change
# the golden outputs silently.

class TestDrawOracle:
    # powers of two take the shifted raw words, the other sizes integers
    # itself (2^31 + 1 rejects about half of all 32-bit words)
    @pytest.mark.parametrize("nx", [1, 2, 3, 4, 5, 8, 255, 256, 257, 2 ** 31, 2 ** 31 + 1])
    @pytest.mark.parametrize("size", [1, 7, 1001])
    @pytest.mark.parametrize("pending", [False, True], ids=["even", "pending-half"])
    def test_uniform_draw_is_integers(self, nx, size, pending):
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        if pending:
            # one 32-bit word leaves the high half of a 64-bit output pending
            ours.integers(3), ref.integers(3)
            assert ours.bit_generator.state["has_uint32"] == 1
        out = np.empty(size, dtype=np.uint64)
        simulator._draw_uniform(ours, nx, out)
        assert np.array_equal(out, ref.integers(nx, size=size))
        assert ours.bit_generator.state == ref.bit_generator.state
        assert ours.integers(1000) == ref.integers(1000)
        assert ours.random() == ref.random()


def _bits(a):
    return a.view(np.uint64)


class TestScoreOracle:
    def test_scores_are_numpy_row_sums(self):
        # terms of mixed magnitude, so that any other order of additions
        # rounds differently, and -inf at a few (position, symbol) pairs
        rng = np.random.default_rng(7)
        for n in range(1, 301):
            table = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-8, 9, size=(n, 4))
            table[rng.integers(n, size=2), 0] = -np.inf
            chunk = rng.integers(4, size=(33, n)).astype(np.uint8)
            out = np.empty(len(chunk))
            simulator._score_rows(table, chunk, out)
            expected = table[np.arange(n), chunk].sum(axis=1)
            assert np.array_equal(_bits(out), _bits(expected)), n

    def test_duplicate_codewords_tie(self):
        rng = np.random.default_rng(8)
        n = 150
        table = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-8, 9, size=(n, 2))
        chunk = rng.integers(2, size=(20, n)).astype(np.uint8)
        chunk[11] = chunk[3]
        out = np.empty(len(chunk))
        simulator._score_rows(table, chunk, out)
        assert _bits(out)[11] == _bits(out)[3]
        assert np.array_equal(_bits(out), _bits(table[np.arange(n), chunk].sum(axis=1)))
