"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with pytest -s); the assertions carry the actual tolerances.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from psrates import (
    Alphabet,
    Dmc,
    Metric,
    Pmf,
    SimConfig,
    TypicalSpec,
    achievable_transmission_rate,
    ask_constellation,
    awgn_quantized,
    binary_entropy,
    bit_marginal,
    bit_metric_product,
    bmd_rate,
    bsc,
    conditional_entropy,
    encoding_failure_bound,
    entropy,
    exp_transform,
    gmi,
    hard_decision_metric,
    hard_decision_rate,
    likelihood_metric,
    lm_rate,
    map_quantizer,
    mary_symmetric,
    metric_switch,
    monte_carlo_t_c,
    mutual_information,
    posterior_metric,
    power_transform,
    rate_of_typical_set,
    run,
    typical_set_size,
    uncertainty,
    uniform_pmf,
)
from psrates.cli import main as cli_main


def _report(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_triples(seed, count):
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(count):
        nx = int(rng.integers(2, 9))
        ny = int(rng.integers(2, 17))
        w = rng.random((nx, ny))
        w /= w.sum(axis=1, keepdims=True)
        ch = Dmc(Alphabet(tuple(range(nx))), Alphabet(tuple(range(ny))), w)
        p = Pmf(ch.input, rng.dirichlet(np.ones(nx)))
        q = Metric(ch.input, ch.output, rng.random((nx, ny)) + 1e-3)
        triples.append((p, ch, q))
    return triples


TRIPLES = _random_triples(2024, 100)


class TestAcceptance:
    def test_01_perspective_equivalence(self):
        start = time.perf_counter()
        ok = True
        for p, ch, q in TRIPLES:
            rep = achievable_transmission_rate(p, ch, q)
            lo, hi = min(rep.r_ps_by_perspective), max(rep.r_ps_by_perspective)
            ok = ok and (hi - lo <= 1e-10)
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 1.0
        _report(1, "perspective equivalence", ok)

    def test_02_posterior_optimality(self):
        ok = True
        for p, ch, q in TRIPLES:
            h = conditional_entropy(p, ch)
            ok = ok and uncertainty(p, ch, q) >= h - 1e-12
            qp = posterior_metric(p, ch)
            ok = ok and abs(uncertainty(p, ch, qp) - h) <= 1e-12
            rep = achievable_transmission_rate(p, ch, qp)
            ok = ok and abs(rep.r_ps - max(0.0, mutual_information(p, ch))) <= 1e-10
        _report(2, "posterior optimality", ok)

    def test_03_hard_decision_closed_form(self):
        ok = True
        for M in (2, 4, 8):
            for eps in (0.01, 0.1, 0.3):
                ch = mary_symmetric(M, eps)
                p = uniform_pmf(ch.input)
                quant = map_quantizer(p, ch)
                rate, eps_hat, scale = hard_decision_rate(p, ch, quant)
                closed = max(
                    0.0,
                    math.log2(M) - binary_entropy(eps) - eps * math.log2(M - 1),
                )
                ok = ok and abs(rate - closed) <= 1e-10
                q = exp_transform(hard_decision_metric(quant, ch.input), 1.0)
                g, s_star = gmi(p, ch, q)
                ok = ok and abs(g - closed) <= 1e-8
                target = (M - 1) * (1 - eps) / eps
                ok = ok and abs(math.exp(s_star) - target) <= 1e-6 * target
        _report(3, "hard-decision closed form", ok)

    def test_04_bitwise_factorization(self):
        con = ask_constellation(4)
        ch = awgn_quantized(con, 0.6)
        p = uniform_pmf(con)
        levels, u_sum, h_sum = [], 0.0, 0.0
        for j in (1, 2):
            pb, chb = bit_marginal(p, ch, j)
            ql = posterior_metric(pb, chb)
            levels.append(ql.q)
            u_sum += uncertainty(pb, chb, ql)
            h_sum += conditional_entropy(pb, chb)
        q_prod = bit_metric_product(levels, ch.input, ch.output)
        ok = abs(uncertainty(p, ch, q_prod) - u_sum) <= 1e-10
        rep = bmd_rate(p, ch)
        ok = ok and abs(rep.r_bmd - max(0.0, entropy(p) - h_sum)) <= 1e-10
        ok = ok and rep.r_bmd <= mutual_information(p, ch) + 1e-10
        _report(4, "bitwise-metric factorization", ok)

    def test_05_weighted_rate_identity(self):
        ok = True
        for p, ch, q in TRIPLES[:50]:
            rep = achievable_transmission_rate(p, ch, q)
            r = lm_rate(p, ch, q, 1.0, 1.0 / p.probs)
            ok = ok and abs(r - rep.r_ps) <= 1e-10
        rng = np.random.default_rng(77)
        w = rng.random((3, 4))
        w /= w.sum(axis=1, keepdims=True)
        ch = Dmc(Alphabet((0, 1, 2)), Alphabet((0, 1, 2, 3)), w)
        p = Pmf(ch.input, np.array([0.6, 0.4, 0.0]))
        q = Metric(ch.input, ch.output, rng.random((3, 4)) + 0.1)
        weights = np.where(p.probs > 0, 1.0 / np.where(p.probs > 0, p.probs, 1.0), 1.0)
        rep = achievable_transmission_rate(p, ch, q)
        ok = ok and lm_rate(p, ch, q, 1.0, weights) >= rep.r_ps - 1e-12
        _report(5, "weighted-rate identity", ok)

    def test_06_metric_switch(self):
        rng = np.random.default_rng(88)
        w = rng.random((3, 5))
        w /= w.sum(axis=1, keepdims=True)
        ch = Dmc(Alphabet((0, 1, 2)), Alphabet(tuple(range(5))), w)
        p = Pmf(ch.input, np.array([0.5, 0.3, 0.2]))
        quant = map_quantizer(p, ch)
        q = exp_transform(hard_decision_metric(quant, ch.input), 1.0)
        g, s_star = gmi(p, ch, q)
        switched = power_transform(metric_switch(q, p, s_star), s_star)
        rep = achievable_transmission_rate(p, ch, switched)
        ok = abs(rep.r_ps_by_perspective[0] - g) <= 1e-8
        _report(6, "metric switch", ok)

    def test_07_monte_carlo_consistency(self):
        start = time.perf_counter()
        ch = bsc(0.11)
        p = uniform_pmf(ch.input)
        q = likelihood_metric(ch)
        t_c = 1 - uncertainty(p, ch, q)
        passes = 0
        for seed in range(5):
            res = monte_carlo_t_c(p, ch, q, n=1000, trials=200, rng_seed=seed)
            if abs(res.mean - t_c) <= 3 * res.std_error:
                passes += 1
        elapsed = time.perf_counter() - start
        ok = passes >= 4 and elapsed < 5.0
        _report(7, "Monte-Carlo consistency", ok)

    def test_08_simulation_vs_bounds(self):
        start = time.perf_counter()
        ch = bsc(0.05)
        p = Pmf(ch.input, np.array([0.7, 0.3]))
        cfg = SimConfig(
            p_x=p, ch=ch, q=posterior_metric(p, ch), n=16, r_c=0.75,
            r_tx=0.25, eps_typ=0.2, trials=2000, rng_seed=2025,
            mode="layered-ps",
        )
        res = run(cfg)
        spec = TypicalSpec(p, cfg.n, cfg.eps_typ)
        enc_bound = encoding_failure_bound(spec, res.realized_r_c - res.realized_r_tx)
        se_enc = math.sqrt(max(enc_bound * (1 - enc_bound), 1e-9) / cfg.trials)
        ok = res.encoding_failure_rate <= enc_bound + 3 * se_enc
        dec_bound = res.bound_2exp
        se_dec = math.sqrt(
            max(dec_bound * (1 - dec_bound), 1e-9) / max(res.decode_trials, 1)
        )
        ok = ok and res.decode_error_rate <= dec_bound + 3 * se_dec
        ok = ok and all(
            rec.w_error or not rec.u_error for rec in res.per_trial
        )
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 120.0
        _report(8, "simulation vs. bounds", ok)

    def test_09_layered_matches_classical(self):
        ch = bsc(0.11)
        p = uniform_pmf(ch.input)
        q = likelihood_metric(ch)
        common = dict(
            p_x=p, ch=ch, q=q, n=16, r_c=0.5, r_tx=0.5, eps_typ=1.0,
            trials=2000, rng_seed=999,
        )
        res_l = run(SimConfig(mode="layered-ps", **common))
        res_c = run(SimConfig(mode="classical", **common))
        k1, k2 = res_l.message_errors, res_c.message_errors
        n1 = n2 = 2000
        pool = (k1 + k2) / (n1 + n2)
        if pool in (0.0, 1.0):
            z = 0.0
        else:
            z = (k1 / n1 - k2 / n2) / math.sqrt(
                pool * (1 - pool) * (1 / n1 + 1 / n2)
            )
        ok = abs(z) < 3.0
        _report(9, "shaping-free equivalence", ok)

    def test_10_typicality_exactness(self):
        ok = True
        pmfs = [
            Pmf(Alphabet((0, 1)), np.array([0.5, 0.5])),
            Pmf(Alphabet((0, 1)), np.array([0.3, 0.7])),
            Pmf(Alphabet((0, 1, 2)), np.array([0.2, 0.3, 0.5])),
            Pmf(Alphabet((0, 1, 2)), np.array([1 / 3, 1 / 3, 1 / 3])),
        ]
        for p in pmfs:
            nx = len(p.alphabet)
            for n in (4, 8, 12):
                digits = (
                    np.arange(nx ** n)[:, None]
                    // nx ** np.arange(n)[None, :]
                ) % nx
                counts = np.stack(
                    [(digits == a).sum(axis=1) for a in range(nx)], axis=1
                )
                for eps in (0.0, 0.1, 0.3):
                    spec = TypicalSpec(p, n, eps)
                    lo = (1 - eps) * p.probs * n
                    hi = (1 + eps) * p.probs * n
                    member = ((counts >= lo) & (counts <= hi)).all(axis=1)
                    ok = ok and typical_set_size(spec) == int(member.sum())
        p = Pmf(Alphabet((0, 1)), np.array([0.5, 0.5]))
        eps = 0.2
        ladder = [rate_of_typical_set(TypicalSpec(p, n, eps)) for n in (8, 16, 24)]
        ok = ok and ladder[0] < ladder[1] < ladder[2] <= 1.0
        ok = ok and ladder[2] >= (1 - eps) * entropy(p)
        _report(10, "typicality exactness", ok)

    def test_11_cli_determinism(self, tmp_path):
        scenarios = [
            ["rates", "--channel", "bsc:0.11", "--input", "uniform",
             "--metric", "posterior"],
            ["sweep", "--channel", "bsc:0.1", "--input", "uniform",
             "--metric", "likelihood", "--param", "eps",
             "--start", "0.0", "--stop", "0.4", "--steps", "5"],
            ["gmi", "--channel", "bsc:0.11", "--input", "uniform",
             "--metric", "likelihood"],
            ["lm", "--channel", "bsc:0.2", "--input", "uniform",
             "--metric", "likelihood", "--s", "1.0"],
            ["simulate", "--channel", "bsc:0.05", "--input", "uniform",
             "--metric", "likelihood", "--mode", "layered-ps", "--n", "16",
             "--rc", "0.75", "--rtx", "0.5", "--eps-typ", "0.25",
             "--trials", "25", "--seed", "5"],
            ["estimate-tc", "--channel", "bsc:0.11", "--input", "uniform",
             "--metric", "likelihood", "--n", "100", "--trials", "50",
             "--seed", "3"],
            ["typical", "--pmf", "0.5,0.5", "--n", "8,16", "--eps", "0.2"],
        ]
        ok = True
        for argv in scenarios:
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli_main(list(argv))
                ok = ok and code == 0
                outs.append(buf.getvalue().encode())
            ok = ok and outs[0] == outs[1]
        _report(11, "CLI determinism", ok)
