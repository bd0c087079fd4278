import dataclasses
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from exact_reference import is_typical
from psrates import (
    Alphabet,
    Dmc,
    Metric,
    Pmf,
    SequencePair,
    SimConfig,
    TypicalSpec,
    bsc,
    empirical_code_rate,
    encoding_failure_bound,
    likelihood_metric,
    mary_symmetric,
    posterior_metric,
    run,
    sample_channel_outputs,
    uniform_pmf,
)
from psrates import channel, simulator
from psrates.cli import main


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

    @pytest.mark.parametrize("field", ["r_c", "r_tx"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_named(self, field, rate):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            layered_config(**{field: rate})

    def test_non_integer_length_rejected(self):
        with pytest.raises(ValueError, match="block length n must be an integer"):
            layered_config(n=2.5)

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
    """The union bound 2^(-n (T-hat - r_c)) on the conditional error, in
    [0, 1], as each trial computes it from the pair's empirical rate."""

    def test_formula(self):
        q = likelihood_metric(bsc(0.11))
        pair = SequencePair((0, 0, 1, 1), (0, 0, 1, 1))
        t_hat = 1 + math.log2(0.89)
        expected = min(1.0, 2.0 ** (-4 * (t_hat - 0.5)))
        bound = simulator._union_bound(empirical_code_rate(pair, q), 4, 0.5)
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_clipped_to_one(self):
        q = likelihood_metric(bsc(0.11))
        pair = SequencePair((0, 1), (1, 0))  # all positions flipped
        assert simulator._union_bound(empirical_code_rate(pair, q), 2, 1.0) == 1.0

    def test_clipped_far_below_the_rate(self):
        # six positions score 1e-300, so T-hat is about -298 and the
        # exponent -n (T-hat - r_c) about 5,980, where 2.0 ** e overflows
        q = Metric(Alphabet((0, 1)), Alphabet((0, 1)), np.array([[1.0, 1e-300], [1e-300, 1.0]]))
        pair = SequencePair((0,) * 20, (1,) * 6 + (0,) * 14)
        t_hat = empirical_code_rate(pair, q)
        assert t_hat < -290
        assert simulator._union_bound(t_hat, 20, 0.5) == 1.0

    def test_run_computes_t_hat_once_per_trial(self, monkeypatch):
        calls = []

        def counted(pair, q):
            calls.append(pair)
            return empirical_code_rate(pair, q)

        cfg = layered_config(n=12, trials=5)
        monkeypatch.setattr(simulator, "empirical_code_rate", counted)
        res = run(cfg)
        monkeypatch.undo()
        # the workers may call in any order, so each record is matched to
        # its own trial's pair
        pairs = [_one_shot(cfg, t)[1] for t in range(cfg.trials)]
        assert len(calls) == 5
        assert all(calls.count(pair) == pairs.count(pair) for pair in pairs)
        for pair, rec in zip(pairs, res.per_trial):
            t_hat = empirical_code_rate(pair, cfg.q)
            assert rec.union_bound == simulator._union_bound(t_hat, cfg.n, res.realized_r_c)


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


def _multiply_shift(rng, nx, shape):
    """(rows, n) uniform symbols of range(nx) from rng's 32-bit words w, as
    (w * nx) >> 32: each row takes ceil(n/2) whole 64-bit outputs, low half
    first, and an odd row drops its last word; zeros, and no word, when
    nx = 1."""
    if nx == 1:
        return np.zeros(shape, dtype=np.uint64)
    rows, n = shape
    words = rng.integers(2 ** 32, size=(rows, n + n % 2), dtype=np.uint32)[:, :n]
    return (words.astype(np.uint64) * nx) >> 32


def _one_shot_trial(cfg, t):
    """Trial t replayed with the whole codebook drawn and scored at once:
    (encoding_failed, w_error, u_error, t_hat)."""
    return _one_shot(cfg, t)[0]


def _one_shot(cfg, t):
    """(outcome, pair, winners, w): _one_shot_trial's outcome, the trial's
    transmitted (x, y) pair, the indices of every maximizer and the
    transmitted index."""
    nx = len(cfg.p_x.alphabet)
    n_c, n_u, n_v = cfg.codebook_sizes()
    rng = np.random.default_rng([cfg.rng_seed, t])
    if cfg.mode == "layered-ps":
        cb = _multiply_shift(rng, nx, (n_c, cfg.n))
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
    scores = _grid(cfg)[cb, y[None, :]].sum(axis=1)
    winners = np.flatnonzero(scores == scores.max())
    w_error = not (winners.size == 1 and winners[0] == w)
    pair = SequencePair([cfg.ch.input.symbols[i] for i in cb[w]],
                        [cfg.ch.output.symbols[j] for j in y])
    outcome = failed, w_error, (winners[0] // n_v) != u, empirical_code_rate(pair, cfg.q)
    return outcome, pair, winners, w


def _outcome(rec):
    return rec.encoding_failed, rec.w_error, rec.u_error, rec.t_hat


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
        # |X| = 3 is not a power of two, so the draw multiplies each word
        "layered-nx3": layered_config(
            ch=ch3, p_x=uniform_pmf(ch3.input), q=likelihood_metric(ch3),
            n=10, r_c=1.2, r_tx=0.6, eps_typ=0.3, trials=6),
        # odd n: each row leaves the high half of its last output unused
        "layered-odd-n-nx2": layered_config(n=13, r_c=0.8, r_tx=0.4, trials=4),
        "layered-odd-n-nx3": layered_config(
            ch=ch3, p_x=uniform_pmf(ch3.input), q=likelihood_metric(ch3),
            n=13, r_c=0.8, r_tx=0.4, eps_typ=0.3, trials=4),
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
            assert _outcome(rec) == _one_shot_trial(cfg, t)

    @staticmethod
    def _peak(cfg):
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _assert_flat(self, small, big):
        # the module docstring's promise: chunk buffers and temporaries of
        # at most about 19 bytes per cell and O(n) per trial, whatever the
        # codebook size
        n = big.n
        n_small, n_big = small.codebook_sizes()[0], big.codebook_sizes()[0]
        assert n_big >= 16 * n_small and small.n == n
        peaks = [self._peak(small), self._peak(big)]
        for peak in peaks:
            assert peak < 20 * simulator._CHUNK_CELLS + 1024 * n, peaks
        # the codebook grew by about 4.5 MB, the peak by at most 2 KB per
        # chunk
        chunks = -(-n_big // (simulator._CHUNK_CELLS // n))
        assert peaks[1] < peaks[0] + 2048 * chunks, peaks

    def test_codebook_memory_bounded(self):
        # both codebooks fill at least one chunk of 2^18 // 18 rows
        self._assert_flat(layered_config(n=18, r_c=14 / 18, r_tx=0.5, trials=2),
                          layered_config(n=18, r_c=1.0, r_tx=0.5, trials=2))

    def test_classical_codebook_memory_bounded(self):
        # the same promise for the draw from P_X, whose temporaries differ
        ch = bsc(0.05)
        p = Pmf(ch.input, np.array([0.7, 0.3]))
        small, big = (layered_config(p_x=p, q=posterior_metric(p, ch), mode="classical",
                                     n=18, r_c=r_c, r_tx=r_c, trials=2) for r_c in (14 / 18, 1.0))
        self._assert_flat(small, big)

    @pytest.mark.parametrize("n", [500, 4000])
    def test_long_block_memory_bounded(self, n):
        # the group table holds 2^(k g) / g entries per position, 32 at
        # g = 8 here: 1 MB per worker at n = 4000, within the O(n) term
        cfg = layered_config(n=n, r_c=12 / n, r_tx=6 / n, trials=2)
        assert simulator._group_size(n, 1, 1) == (4 if n == 500 else 8)
        peak = self._peak(cfg)
        assert peak < 20 * simulator._CHUNK_CELLS + 1024 * n, peak

    @pytest.mark.parametrize("mode", ["layered-ps", "classical"])
    def test_ties_at_minus_infinity(self, monkeypatch, mode):
        # q vanishes wherever P_X W is positive: the codebook never holds
        # symbol 2 (classical) or the metric needs all positions at 2, so
        # every score is -inf and all codewords tie (layered-ps may meet a
        # finite score, and the one-shot decoder decides)
        w = np.array([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]])
        ch = Dmc(Alphabet((0, 1, 2)), Alphabet((0, 1)), w)
        p = Pmf(ch.input, np.array([0.6, 0.4, 0.0]))
        q = Metric(ch.input, ch.output, np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        cfg = layered_config(p_x=p, ch=ch, q=q, mode=mode, n=10, r_c=1.0,
                             r_tx=1.0 if mode == "classical" else 0.5, eps_typ=0.5, trials=4)
        default = run(cfg)
        monkeypatch.setattr(simulator, "_CHUNK_CELLS", 1)
        assert run(cfg) == default
        for t, rec in enumerate(default.per_trial):
            assert _outcome(rec) == _one_shot_trial(cfg, t)
            assert rec.t_hat == -math.inf and rec.union_bound == 1.0
        if mode == "classical":
            assert all(rec.w_error for rec in default.per_trial)


def _grid(cfg):
    """run's decoder table for cfg: log2 q on its grid, -inf at zeros."""
    with np.errstate(divide="ignore"):
        return simulator._log2_q_grid(np.log2(cfg.q.q), cfg.n)


def _codebook(cfg):
    """A one-worker simulator._Codebook of cfg, as run builds it."""
    return simulator._Codebook(cfg, simulator._CHUNK_CELLS, _grid(cfg), threading.Lock())


def _run_on(monkeypatch, cfg, cpus):
    """(run(cfg) on a host of `cpus` CPUs, the chunk rows of each worker)."""
    books = []

    class Recorded(simulator._Codebook):
        def __init__(self, *args):
            super().__init__(*args)
            books.append(self)

    with monkeypatch.context() as m:
        m.setattr(simulator.os, "cpu_count", lambda: cpus)
        m.setattr(simulator, "_Codebook", Recorded)
        return run(cfg), [book.rows for book in books]


def _trial_seek(cfg, on_seek):
    """A _seek that calls on_seek(t) with the trial t whose start state it
    is given, then seeks."""
    trial_of = {np.random.default_rng([cfg.rng_seed, t]).bit_generator.state["state"]["state"]: t
                for t in range(cfg.trials)}
    seek = simulator._seek

    def traced(bg, start, outputs):
        on_seek(trial_of[start["state"]["state"]])
        seek(bg, start, outputs)

    return traced


class TestWorkers:
    # trial t runs on worker t mod 2, and the two workers split the chunk
    # cells; one worker, as on a 1-CPU host, must give the same result
    @staticmethod
    def _cases():
        ch3 = mary_symmetric(3, 0.1)
        streamed = _streamed_cases()
        return {
            "layered-odd-n-nx3": streamed["layered-odd-n-nx3"],
            "classical-odd-n-nx3": layered_config(
                ch=ch3, p_x=Pmf(ch3.input, np.array([0.5, 0.3, 0.2])),
                q=likelihood_metric(ch3), mode="classical", n=13, r_c=0.6, r_tx=0.6,
                eps_typ=0.3),
            "noiseless-ties": streamed["noiseless-ties"],
        }

    @pytest.mark.parametrize("cells", ["default", 1])
    @pytest.mark.parametrize("trials", [1, 2, 3, 7])
    @pytest.mark.parametrize("case", ["layered-odd-n-nx3", "classical-odd-n-nx3",
                                      "noiseless-ties"])
    def test_two_workers_equal_one(self, monkeypatch, case, trials, cells):
        cfg = dataclasses.replace(self._cases()[case], trials=trials)
        if cells != "default":
            monkeypatch.setattr(simulator, "_CHUNK_CELLS", cells)
        serial, serial_rows = _run_on(monkeypatch, cfg, 1)
        split, split_rows = _run_on(monkeypatch, cfg, 2)
        assert split == serial and len(split.per_trial) == trials
        workers = min(2, trials)
        assert serial_rows == [max(1, simulator._CHUNK_CELLS // cfg.n)]
        assert split_rows == [max(1, simulator._CHUNK_CELLS // workers // cfg.n)] * workers

    def test_workers_switching_inside_every_chunk(self, monkeypatch):
        # a switch interval of 1 us hands the interpreter lock between the
        # workers many times per chunk
        cfg = dataclasses.replace(self._cases()["noiseless-ties"], trials=7)
        monkeypatch.setattr(simulator, "_CHUNK_CELLS", 7 * cfg.n + 3)
        serial, _ = _run_on(monkeypatch, cfg, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split, _ = _run_on(monkeypatch, cfg, 2)
        finally:
            sys.setswitchinterval(interval)
        assert split == serial

    def test_channel_table_built_once(self, monkeypatch):
        # both workers sample in their first trials; a slow build makes the
        # second arrive while the first builds, and it waits for that table
        builds, build = [], channel._guide_table

        def slow(cum, buckets):
            builds.append(threading.current_thread().name)
            time.sleep(0.05)
            return build(cum, buckets)

        monkeypatch.setattr(channel, "_guide_table", slow)
        cfg = dataclasses.replace(self._cases()["classical-odd-n-nx3"], trials=4)
        split, _ = _run_on(monkeypatch, cfg, 2)
        assert len(builds) == 1
        serial, _ = _run_on(monkeypatch, dataclasses.replace(
            self._cases()["classical-odd-n-nx3"], trials=4), 1)
        assert split == serial and len(builds) == 2

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing", [{2}, {3}, {3, 4}])
    def test_lowest_failing_trial_is_raised(self, monkeypatch, cpus, failing):
        # the error a serial loop raises, whichever worker fails first
        cfg = dataclasses.replace(_streamed_cases()["layered-nx3"], trials=7)

        def fail(t):
            if t in failing:
                raise RuntimeError(f"trial {t}")

        monkeypatch.setattr(simulator, "_seek", _trial_seek(cfg, fail))
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: cpus)
        with pytest.raises(RuntimeError, match=f"^trial {min(failing)}$"):
            run(cfg)

    def test_interrupt_stops_the_other_worker(self, monkeypatch):
        # a Ctrl-C in trial 0, on the calling thread, while the helper runs
        # trial 1: run raises at once, and the helper ends after trial 1
        cfg = dataclasses.replace(_streamed_cases()["layered-nx3"], trials=7)
        seen, in_trial_1, release = [], threading.Event(), threading.Event()

        def interrupt(t):
            seen.append(t)
            if t == 0:
                assert in_trial_1.wait(10)
                raise KeyboardInterrupt
            if t == 1 and not in_trial_1.is_set():
                in_trial_1.set()
                assert release.wait(10)

        monkeypatch.setattr(simulator, "_seek", _trial_seek(cfg, interrupt))
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 2)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            run(cfg)
        release.set()
        for thread in set(threading.enumerate()) - before:
            thread.join(10)
            assert not thread.is_alive()
        assert sorted(set(seen)) == [0, 1]


class TestMessageErrors:
    def test_ties_won_by_the_lowest_index(self, capsys):
        # the message is decoded from the first maximizer, so a tie in which
        # the transmitted codeword has the lowest index is a decode error
        # and no message error; in classical mode that is the only gap
        argv = ["simulate", "--channel", "mary:3,0.238", "--input", "uniform",
                "--metric", "likelihood", "--mode", "classical", "--n", "7", "--rc", "0.89",
                "--rtx", "0.89", "--eps-typ", "0.3", "--trials", "20", "--seed", "2"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["decode_error_rate"], out["message_error_rate"]) == (0.55, 0.45)
        ch = mary_symmetric(3, 0.238)
        cfg = SimConfig(uniform_pmf(ch.input), ch, likelihood_metric(ch), n=7, r_c=0.89,
                        r_tx=0.89, eps_typ=0.3, trials=20, rng_seed=2, mode="classical")
        res = run(cfg)
        assert res.to_json_dict() == out
        gap = []
        for t, rec in enumerate(res.per_trial):
            assert rec.w_error or not rec.u_error
            if rec.w_error and not rec.u_error:
                _, _, winners, w = _one_shot(cfg, t)
                assert winners.size > 1 and winners[0] == w
                gap.append(t)
        assert len(gap) == 2


def _short_rows(n, nx, mode, probs=None):
    """A run of about 64 codewords of length n on a |X| = nx input
    alphabet."""
    ch = Dmc(Alphabet(tuple(range(nx))), Alphabet((0, 1)), np.full((nx, 2), 0.5))
    p = uniform_pmf(ch.input) if probs is None else Pmf(ch.input, probs)
    return layered_config(p_x=p, ch=ch, q=likelihood_metric(ch), mode=mode, n=n,
                          r_c=6 / n, r_tx=6 / n if mode == "classical" else 3 / n,
                          eps_typ=1.0, trials=1)


@pytest.mark.parametrize("nx", [2, 5, 128, 129, 200, 255, 256, 300])
def test_classical_chunk_takes_one_byte_up_to_255_symbols(nx):
    # the guide table marks an open bucket with nx, so it and the chunk
    # that takes its dtype stay unsigned
    probs = np.random.default_rng(nx).dirichlet(np.ones(nx))
    book = _codebook(_short_rows(4, nx, "classical", probs))
    dtype = np.uint8 if nx <= 255 else np.uint16
    assert book.iid.table.dtype == dtype and book.chunk.dtype == dtype


class TestStreamPosition:
    # u and block u are drawn from a generator moved with PCG64.advance to
    # where the chunked draw would reach. Every row takes the same number of
    # whole 64-bit outputs, so the seek is exact; each trial checks that at
    # its end and raises if not.
    @pytest.mark.parametrize("mode, nx", [
        ("layered-ps", 1), ("layered-ps", 2), ("layered-ps", 4), ("layered-ps", 256),
        ("layered-ps", 3), ("classical", 2), ("classical", 4), ("classical", 257)])
    def test_seek_is_the_serial_draw(self, mode, nx):
        probs = None if mode == "layered-ps" else np.random.default_rng(nx).dirichlet(np.ones(nx))
        start = np.random.default_rng([11, nx]).bit_generator.state
        for n in (1, 2, 13):
            book = _codebook(_short_rows(n, nx, mode, probs))
            # ceil(n/2) outputs per layered-ps row, none for one symbol, and
            # one per classical cell
            outputs = n if mode == "classical" else -(-n // 2) if nx > 1 else 0
            assert book.row_outputs == outputs
            for rows in range(21):
                for piece in (1, 3, 8):  # chunk boundaries at every piece
                    rng = np.random.default_rng()
                    rng.bit_generator.state = start
                    for lo in range(0, rows, piece):
                        book.draw(rng, min(piece, rows - lo))
                    seeked = np.random.PCG64()
                    simulator._seek(seeked, start, rows * outputs)
                    assert seeked.state == rng.bit_generator.state, (n, rows, piece)

    # 2^31 + 1 would have integers(nx) reject about half of all 32-bit words,
    # 3 * 2^30 a quarter, 3 and 100 almost none; the draw maps each of them,
    # so the seek counts ceil(n/2) outputs per row whatever nx is
    @pytest.mark.parametrize("nx", [3, 100, 2 ** 31 + 1, 3 * 2 ** 30])
    def test_counted_seek_is_the_serial_draw(self, nx):
        start = np.random.default_rng([12, nx]).bit_generator.state
        stream = np.random.PCG64()
        stream.state = start
        words = stream.random_raw(100).view("<u4").astype(np.uint64)
        if nx > 2 ** 31:
            assert np.count_nonzero((words * nx) % 2 ** 32 < 2 ** 32 % nx) > 40
        rng = np.random.default_rng()
        rng.bit_generator.state = start
        drawn = np.empty((100, 2), np.uint64)
        simulator._draw_uniform(rng, nx, drawn)
        assert np.array_equal(drawn.ravel(), (words * nx) >> np.uint64(32))
        for n in (1, 2, 13):
            for rows in range(41):
                for piece in (1, 3, 16):
                    rng = np.random.default_rng()
                    rng.bit_generator.state = start
                    for lo in range(0, rows, piece):
                        out = np.empty((min(piece, rows - lo), n), np.uint64)
                        simulator._draw_uniform(rng, nx, out)
                    seeked = np.random.PCG64()
                    simulator._seek(seeked, start, rows * -(-n // 2))
                    assert seeked.state == rng.bit_generator.state, (n, rows, piece)

    def test_rejected_word_in_the_codebook_draw(self, monkeypatch):
        # integers(100) would reject word 1115 of the 2048 that trial 0 draws
        # at this seed; the draw maps it like any other word, and small
        # chunks put it in the middle of one
        ch = mary_symmetric(100, 0.1)
        cfg = layered_config(ch=ch, p_x=uniform_pmf(ch.input), q=likelihood_metric(ch),
                             n=2, r_c=5.0, r_tx=2.5, eps_typ=1.0, trials=2, rng_seed=124586)
        stream = np.random.default_rng([cfg.rng_seed, 0]).bit_generator
        words = stream.random_raw(1024).view("<u4").astype(np.uint64)
        assert np.flatnonzero(words * 100 % 2 ** 32 < 2 ** 32 % 100).tolist() == [1115]
        monkeypatch.setattr(simulator, "_CHUNK_CELLS", 7 * cfg.n + 3)
        book, rng = _codebook(cfg), np.random.default_rng([cfg.rng_seed, 0])
        drawn = [book.draw(rng, min(book.rows, book.n_c - lo)).copy()
                 for lo in range(0, book.n_c, book.rows)]
        expected = _multiply_shift(np.random.default_rng([cfg.rng_seed, 0]), 100, (book.n_c, cfg.n))
        assert np.array_equal(np.concatenate(drawn), expected)
        for t, rec in enumerate(run(cfg).per_trial):
            assert _outcome(rec) == _one_shot_trial(cfg, t)

    @pytest.mark.parametrize("case", ["layered-nx2", "layered-nx3", "layered-odd-n-nx3",
                                      "classical-shaped", "noiseless-ties"])
    def test_seek_off_by_one_word_fails_the_end_check(self, monkeypatch, case):
        # the seek one 64-bit output long must raise, not return a record
        cfg = _streamed_cases()[case]
        seek = simulator._seek
        monkeypatch.setattr(simulator, "_seek",
                            lambda bg, start, outputs: seek(bg, start, outputs + 1))
        with pytest.raises(RuntimeError, match="did not end where _seek placed u"):
            run(cfg)


def _position(rng):
    """rng's PCG64 state and whether a 32-bit half is pending; the buffered
    half itself is dead when none is."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"]


# The draw reproduces numpy's own Generator.integers words bit for bit, so
# that the simulator's output does not depend on how it computes them. A
# numpy whose algorithm differs must fail here, not change the golden outputs
# silently.

class TestDrawOracle:
    # every size maps the words of integers(2^32), ceil(n/2) outputs per row,
    # by multiply-shift; for powers of two and even n that is integers(nx)
    # itself. integers(nx) would reject about half the words at 2^31 + 1 and
    # a quarter at 3 * 2^30
    @pytest.mark.parametrize("nx", [1, 2, 3, 4, 5, 8, 255, 256, 257, 2 ** 31, 2 ** 31 + 1,
                                    3 * 2 ** 30])
    @pytest.mark.parametrize("size", [1, 7, 1001])
    @pytest.mark.parametrize("n", [16, 13], ids=["even", "odd"])
    def test_uniform_draw_is_integers(self, nx, size, n):
        oracles = [lambda rng: _multiply_shift(rng, nx, (size, n))]
        if nx & (nx - 1) == 0 and n % 2 == 0:
            oracles.append(lambda rng: rng.integers(nx, size=(size, n)))
        for oracle in oracles:
            ours, ref = np.random.default_rng(5), np.random.default_rng(5)
            out = np.empty((size, n), dtype=np.uint64)
            simulator._draw_uniform(ours, nx, out)
            assert np.array_equal(out, oracle(ref))
            assert _position(ours) == _position(ref)
            assert ours.integers(1000) == ref.integers(1000)
            assert ours.random() == ref.random()


def _bits(a):
    return a.view(np.uint64)


def _score_rows(table, chunk):
    """simulator._score_rows of a copy of the chunk on the (n, |X|) position
    table, grouped as a run groups it, with fresh scratch arrays."""
    n, k = chunk.shape[1], simulator._symbol_bits(table.shape[1])
    g = simulator._group_size(n, k, chunk.itemsize)
    groups = np.zeros((n // g, 1 << k * g))
    simulator._group_sums(table.T, groups)
    out, term = np.empty(len(chunk)), np.empty(len(chunk))
    simulator._score_rows(groups, chunk.copy(), out, term, np.empty(len(chunk), np.intp))
    return out


class TestScoreOracle:
    @staticmethod
    def _mixed_table(rng, n, nx):
        # terms of mixed magnitude, so that unrounded sums depend on the
        # order of additions
        return rng.standard_normal((n, nx)) * 10.0 ** rng.integers(-8, 9, size=(n, nx))

    def test_grid_is_the_finest_exact_one(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 12, 24, 300, 20000):
            raw = self._mixed_table(rng, n, 4)
            raw[0, 0] = -np.inf
            grid = simulator._log2_q_grid(raw, n)
            finite = np.isfinite(raw)
            k = 52 - math.frexp(n * np.abs(raw[finite]).max())[1]
            assert np.array_equal(np.isfinite(grid), finite) and grid[0, 0] == -np.inf
            units = np.ldexp(grid[finite], k)
            assert np.array_equal(units, np.round(units)), n
            assert np.all(np.abs(grid[finite] - raw[finite]) <= 2.0 ** -(k + 1)), n
            # the worst sum of n entries fits 53 bits, and a grid twice as
            # fine would not leave room for it
            worst = n * np.abs(units).max()
            assert worst <= 2 ** 53 and 2 * n * np.abs(raw[finite]).max() * 2.0 ** k >= 2 ** 52, n

    def test_grid_of_zero_or_minus_inf_entries(self):
        for raw in (np.zeros((3, 2)), np.full((3, 2), -np.inf)):
            assert np.array_equal(simulator._log2_q_grid(raw, 3), raw)

    def test_scores_are_exact_row_sums(self):
        # on grid tables every partial sum is exact, so each score is the
        # correctly rounded sum of its row, -inf at a few (position,
        # symbol) pairs included
        rng = np.random.default_rng(7)
        for n in range(1, 301):
            table = self._mixed_table(rng, n, 4)
            table[rng.integers(n, size=2), 0] = -np.inf
            table = simulator._log2_q_grid(table, n)
            chunk = rng.integers(4, size=(33, n)).astype(np.uint8)
            out = _score_rows(table, chunk)
            terms = table[np.arange(n), chunk]
            expected = np.array([math.fsum(row) for row in terms.tolist()])
            assert np.array_equal(_bits(out), _bits(expected)), n

    @pytest.mark.parametrize("nx", [1, 2, 3, 4, 5, 8, 16, 17, 255, 256])
    def test_grouped_scores_are_exact_row_sums(self, nx):
        # group sizes 8 (nx <= 2), 4 (nx 3 and 4), 2 (nx 5 to 16) and 1, on
        # the chunk dtypes of both modes: layered-ps holds nx - 1 at most, and a
        # classical chunk takes 2 bytes at nx = 256, so g = 1 there
        rng = np.random.default_rng(nx)
        finite = False
        for n in [*range(1, 65), 500, 501]:
            table = self._mixed_table(rng, n, nx)
            chunk = rng.integers(nx, size=(19, n))
            chunk[1] = nx - 1
            # row 0 meets -inf at one position, other rows may; a single
            # symbol would meet it in every row, so it is left out at n
            # divisible by 3 there
            if nx > 1 or n % 3:
                at, symbol = rng.integers(n, size=3), rng.integers(nx, size=3)
                table[at, symbol] = -np.inf
                chunk[0, at] = symbol
            table = simulator._log2_q_grid(table, n)
            terms = table[np.arange(n), chunk]
            expected = np.array([math.fsum(row) for row in terms.tolist()])
            assert (expected[0] == -np.inf) == (nx > 1 or n % 3 > 0)
            finite |= np.isfinite(expected).any()
            for dtype in {np.min_scalar_type(nx - 1), np.min_scalar_type(nx)}:
                out = _score_rows(table, chunk.astype(dtype))
                # where all terms are -0.0, fsum gives +0.0 and the scorer
                # -0.0; adding +0.0 changes no other score
                assert np.array_equal(_bits(out + 0.0), _bits(expected)), (n, dtype)
        assert finite

    def test_group_size(self):
        # the largest power of two with g k <= 8 that divides n, and 1 for
        # cells wider than a byte
        assert [simulator._group_size(24, k, 1) for k in range(1, 10)] == [8, 4, 2, 2, 1, 1, 1, 1, 1]
        assert ([simulator._group_size(n, 1, 1) for n in (1, 2, 3, 4, 6, 12, 16, 500, 501)]
                == [1, 2, 1, 4, 2, 4, 8, 4, 1])
        assert simulator._group_size(24, 1, 2) == 1
        assert [simulator._symbol_bits(nx) for nx in (1, 2, 3, 4, 5, 16, 17, 256)] == [1, 1, 2, 2, 3, 4, 5, 8]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_packed_index_in_top_byte(self, k):
        # every tuple of g symbols of k bits, in two groups per row: the
        # index of each tuple and the same tuples in reverse order
        for g in (g for g in (1, 2, 4, 8) if g * k <= 8):
            index = np.arange(1 << k * g)
            digits = index[:, None] >> k * np.arange(g) & (1 << k) - 1
            chunk = np.concatenate([digits, digits[::-1]], axis=1).astype(np.uint8)
            packed = simulator._pack(chunk, g, k)
            assert packed.dtype == np.uint8 and packed.shape == (len(index), 2)
            assert np.array_equal(packed, np.stack([index, index[::-1]], axis=1)), g

    def test_duplicate_codewords_tie(self):
        rng = np.random.default_rng(8)
        n = 150
        table = simulator._log2_q_grid(self._mixed_table(rng, n, 2), n)
        chunk = rng.integers(2, size=(20, n)).astype(np.uint8)
        chunk[11] = chunk[3]
        out = _score_rows(table, chunk)
        assert _bits(out)[11] == _bits(out)[3]
        assert np.array_equal(_bits(out), _bits(table[np.arange(n), chunk].sum(axis=1)))

    @pytest.mark.parametrize("eps, n", [(0.11, 12), (0.05, 16), (0.02, 22)])
    def test_equal_joint_types_tie(self, eps, n):
        # BSC codewords at the same Hamming distance from y have the same
        # joint type with it, with their mismatches in different positions;
        # ties count as errors only if such codewords score bit-equal
        ch = bsc(eps)
        book = _codebook(layered_config(ch=ch, q=likelihood_metric(ch), n=n,
                                        r_c=0.5, r_tx=0.25, trials=1))
        rng = np.random.default_rng(n)
        y = rng.integers(2, size=n)
        table = np.ascontiguousarray(book.logq[:, y].T)
        # every codeword up to n = 16, 2^16 random ones above
        if n <= 16:
            chunk = (np.arange(2 ** n)[:, None] >> np.arange(n) & 1).astype(np.uint8)
        else:
            chunk = rng.integers(2, size=(2 ** 16, n)).astype(np.uint8)
        out = _score_rows(table, chunk)
        distance = np.count_nonzero(chunk != y, axis=1)
        for d in np.unique(distance):
            assert np.unique(_bits(out[distance == d])).size == 1, d
