import json
import math

import numpy as np
import pytest

from psrates import (
    Alphabet,
    Dmc,
    GridSpec,
    Pmf,
    ask_constellation,
    awgn_quantized,
    binary_entropy,
    bit_marginal,
    bmd_rate,
    bsc,
    icm_mixture,
    mary_symmetric,
    mutual_information,
    posterior,
    product_alphabet,
    uniform_pmf,
)
from psrates import cli


class TestMarySymmetric:
    def test_bsc_matrix(self):
        ch = mary_symmetric(2, 0.11)
        assert np.allclose(ch.w, [[0.89, 0.11], [0.11, 0.89]])

    def test_noiseless_is_identity(self):
        ch = mary_symmetric(4, 0.0)
        assert np.allclose(ch.w, np.eye(4))

    def test_conditional_entropy_formula(self):
        # H(X'|Y') = H2(eps) + eps*log2(M-1) for uniform input
        ch = mary_symmetric(4, 0.1)
        p = uniform_pmf(ch.input)
        from psrates import conditional_entropy

        expected = binary_entropy(0.1) + 0.1 * np.log2(3)
        assert conditional_entropy(p, ch) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6274918436613968, abs=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            mary_symmetric(1, 0.1)
        with pytest.raises(ValueError):
            mary_symmetric(4, 1.5)

    def test_rows_stochastic(self):
        for m, eps in [(2, 0.3), (4, 0.01), (8, 0.9)]:
            ch = mary_symmetric(m, eps)
            assert np.allclose(ch.w.sum(axis=1), 1.0, atol=1e-12)


class TestDmc:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        a = Alphabet((0, 1))
        with pytest.raises(ValueError, match="finite"):
            Dmc(a, a, [[bad, bad], [0.5, 0.5]])

    def test_rows_and_shape_checked(self):
        a = Alphabet((0, 1))
        with pytest.raises(ValueError, match="channel probabilities sum to 1.1, not 1"):
            Dmc(a, a, [[0.9, 0.1], [0.5, 0.6]])
        with pytest.raises(ValueError, match=r"need shape \(2, 2\), got \(2, 3\)"):
            Dmc(a, a, [[0.9, 0.1, 0.0], [0.5, 0.5, 0.0]])
        # rows within the tolerance are renormalised exactly
        ch = Dmc(a, a, [[0.9, 0.1 + 1e-10], [0.5, 0.5]])
        assert ch.w.sum(axis=1).tolist() == [1.0, 1.0]

    def test_reads_json_with_labels_points_and_tuple_symbols(self):
        text = """{
          "input": {"symbols": [-1, 1], "labels": ["0", "1"], "signal_points": [-1.0, 1.0]},
          "output": {"symbols": [[0, 0], [0, 1], [1, 1]]},
          "rows": [[0.5, 0.25, 0.25], [0.125, 0.125, 0.75]]
        }"""
        ch = Dmc.from_json_dict(json.loads(text))
        assert ch.input == Alphabet((-1, 1), labels=("0", "1"), signal_points=(-1.0, 1.0))
        # JSON lists come back as tuple symbols, which index like any other
        assert ch.output.symbols == ((0, 0), (0, 1), (1, 1))
        assert ch.output.labels is None and ch.output.signal_points is None
        assert int(ch.output.indices([(0, 1)])[0]) == 1
        assert ch.w.tolist() == [[0.5, 0.25, 0.25], [0.125, 0.125, 0.75]]


def per_edge_awgn_quantized(constellation, noise_sigma, grid):
    """The former awgn_quantized: one scalar erf call per grid edge and point."""

    def phi(t):
        return 0.5 * (1 + math.erf(t / math.sqrt(2)))

    pts = np.asarray(constellation.signal_points)
    lo = pts.min() - grid.span * noise_sigma
    hi = pts.max() + grid.span * noise_sigma
    edges = np.linspace(lo, hi, grid.cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    w = np.empty((len(pts), grid.cells))
    for i, x in enumerate(pts):
        cdf = np.array([phi((e - x) / noise_sigma) for e in edges])
        row = np.diff(cdf)
        row[0] += cdf[0]
        row[-1] += 1 - cdf[-1]
        w[i] = row
    out = Alphabet(tuple(float(m) for m in mids), signal_points=tuple(float(m) for m in mids))
    return Dmc(constellation, out, w / w.sum(axis=1, keepdims=True))


class TestAwgnQuantized:
    def test_near_noiseless_rows_concentrate(self):
        con = Alphabet((-1.0, 1.0), signal_points=(-1.0, 1.0))
        ch = awgn_quantized(con, 1e-3, GridSpec(256, 8))
        assert ch.w.max(axis=1).min() > 0.4  # mass in a few adjacent cells

    def test_symmetry(self):
        con = ask_constellation(4)
        ch = awgn_quantized(con, 0.5, GridSpec(128, 8))
        # reflecting inputs and outputs leaves the law invariant
        assert np.allclose(ch.w, ch.w[::-1, ::-1], atol=1e-12)

    def test_grid_refinement_oracle(self):
        con = ask_constellation(4)
        p = uniform_pmf(con)
        coarse = mutual_information(p, awgn_quantized(con, 0.6, GridSpec(512, 8)))
        fine = mutual_information(p, awgn_quantized(con, 0.6, GridSpec(20000, 8)))
        assert abs(coarse - fine) < 1e-4

    def test_refinement_monotone(self):
        con = ask_constellation(4)
        p = uniform_pmf(con)
        mis = [
            mutual_information(p, awgn_quantized(con, 0.6, GridSpec(cells, 8)))
            for cells in (128, 256, 512)
        ]
        assert mis[0] <= mis[1] + 1e-12 <= mis[2] + 2e-12

    def test_requires_signal_points(self):
        with pytest.raises(ValueError):
            awgn_quantized(Alphabet((0, 1)), 0.5)
        con = ask_constellation(2)
        with pytest.raises(ValueError):
            awgn_quantized(con, -1.0)

    @pytest.mark.parametrize("sigma", [0.0, math.nan, math.inf, -math.inf])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise sigma"):
            awgn_quantized(ask_constellation(2), sigma)

    def test_overflowing_grid_rejected(self):
        with pytest.raises(ValueError, match="output grid"):
            awgn_quantized(ask_constellation(2), 1e308)

    @pytest.mark.parametrize("span", [5.9, math.nan, math.inf])
    def test_bad_span_rejected(self, span):
        with pytest.raises(ValueError, match="grid span"):
            GridSpec(512, span)

    def test_matches_per_edge_phi(self):
        rng = np.random.default_rng(20171)
        odd = (65, 127, 333, 1001)
        for case in range(210):
            m = int(rng.integers(2, 33))
            if m & (m - 1) == 0 and case % 2 == 0:
                con = ask_constellation(m, ("gray", "natural")[case % 4 // 2])
            else:
                # arbitrary real points: unsorted, unevenly spaced, any scale
                pts = rng.normal(0.0, 10 ** rng.uniform(-1, 1), m)
                con = Alphabet(tuple(range(m)), signal_points=tuple(pts))
            sigma = float(10 ** rng.uniform(-2, 1))
            cells = (4096 if case % 30 == 0 else odd[case % 4] if case % 3 == 0
                     else int(rng.integers(64, 600)))
            grid = GridSpec(cells, float(rng.uniform(6, 12)))
            old = per_edge_awgn_quantized(con, sigma, grid)
            new = awgn_quantized(con, sigma, grid)
            assert np.array_equal(new.w, old.w), (case, m, sigma, grid)
            assert new.output.symbols == old.output.symbols
            assert new.output.signal_points == old.output.signal_points


class TestPosterior:
    def test_noiseless(self):
        ch = mary_symmetric(3, 0.0)
        p = Pmf(ch.input, np.array([0.5, 0.3, 0.2]))
        assert np.allclose(posterior(p, ch), np.eye(3))

    def test_bsc_uniform(self):
        ch = bsc(0.11)
        post = posterior(uniform_pmf(ch.input), ch)
        assert np.allclose(post[:, 0], [0.89, 0.11])

    def test_bayes_oracle(self):
        ch = bsc(0.2)
        p = Pmf(ch.input, np.array([0.8, 0.2]))
        post = posterior(p, ch)
        assert post[0, 0] == pytest.approx(0.64 / 0.68, abs=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.random((3, 5))
            w /= w.sum(axis=1, keepdims=True)
            ch = Dmc(Alphabet((0, 1, 2)), Alphabet(tuple(range(5))), w)
            p = Pmf(ch.input, rng.dirichlet(np.ones(3)))
            post = posterior(p, ch)
            p_y = p.probs @ ch.w
            assert np.allclose(post[:, p_y > 0].sum(axis=0), 1.0, atol=1e-10)


GRAY4 = Alphabet((0, 1, 2, 3), labels=("00", "01", "11", "10"))


class TestBitMarginal:
    def test_single_level_is_original(self):
        ch = bsc(0.11)
        labeled = Alphabet((0, 1), labels=("0", "1"))
        chl = Dmc(labeled, ch.output, ch.w)
        p = Pmf(labeled, np.array([0.6, 0.4]))
        pb, chb = bit_marginal(p, chl, 1)
        assert np.allclose(pb.probs, p.probs)
        assert np.allclose(chb.w, ch.w)

    def test_independent_uniform_noiseless(self):
        ch4 = mary_symmetric(4, 0.0)
        chl = Dmc(GRAY4, ch4.output, ch4.w)
        p = uniform_pmf(GRAY4)
        for j in (1, 2):
            pb, chb = bit_marginal(p, chl, j)
            assert np.allclose(pb.probs, 0.5)
            # each level is noiseless: the two rows have disjoint support
            assert np.allclose(chb.w.sum(axis=1), 1.0)
            assert chb.w[0] @ chb.w[1] == pytest.approx(0.0, abs=1e-15)

    def test_joint_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        w = rng.random((4, 3))
        w /= w.sum(axis=1, keepdims=True)
        ch = Dmc(GRAY4, Alphabet(("a", "b", "c")), w)
        p = Pmf(GRAY4, np.array([0.4, 0.3, 0.2, 0.1]))
        for j in (1, 2):
            pb, chb = bit_marginal(p, ch, j)
            # brute-force the (B_j, Y) joint over all symbols
            joint = np.zeros((2, 3))
            for i in range(4):
                joint[GRAY4.bits(j)[i]] += p.probs[i] * w[i]
            assert np.allclose(pb.probs, joint.sum(axis=1), atol=1e-12)
            assert np.allclose(pb.probs[:, None] * chb.w, joint, atol=1e-12)

    def test_preserves_output_distribution(self):
        rng = np.random.default_rng(6)
        w = rng.random((4, 5))
        w /= w.sum(axis=1, keepdims=True)
        ch = Dmc(GRAY4, Alphabet(tuple(range(5))), w)
        p = Pmf(GRAY4, rng.dirichlet(np.ones(4)))
        p_y = p.probs @ w
        for j in (1, 2):
            pb, chb = bit_marginal(p, ch, j)
            assert np.allclose(pb.probs @ chb.w, p_y, atol=1e-10)

    def test_constant_level_accepted(self, capsys):
        # gray labels 00 01 11 10: bit 1 is always 0, so H(B_1|Y) = 0 and
        # the BMD rate is that of level 2 alone
        argv = ["rates", "--channel", "awgn-ask:4,0.5,64", "--input", "0.5,0.5,0,0",
                "--metric", "bitwise-posterior"]
        assert cli.main(argv) == 0
        r_ps = json.loads(capsys.readouterr().out)["r_ps"]
        ch = cli.parse_channel("awgn-ask:4,0.5,64")
        p = cli.parse_input("0.5,0.5,0,0", ch)
        pb, chb = bit_marginal(p, ch, 1)
        assert pb.probs.tolist() == [1.0, 0.0]
        assert np.all(chb.w[1] == 1 / len(ch.output))
        assert bmd_rate(p, ch).r_bmd == pytest.approx(r_ps, abs=1e-12)
        assert r_ps > 0


class TestIcmMixture:
    def _vector_channel(self, rng, m=2, nx=2, ny=2, same_output=False):
        xin = product_alphabet(Alphabet(tuple(range(nx))), m)
        yout = product_alphabet(Alphabet(tuple(range(ny))), m)
        if same_output:
            # Y_1 = Y_2: mass only on diagonal output pairs
            w = np.zeros((len(xin), len(yout)))
            for i, xs in enumerate(xin.symbols):
                marg = rng.dirichlet(np.ones(ny))
                for b in range(ny):
                    w[i, int(yout.indices([(b,) * m])[0])] = marg[b]
        else:
            w = rng.random((len(xin), len(yout)))
            w /= w.sum(axis=1, keepdims=True)
        return Dmc(xin, yout, w)

    def test_m1_identity(self):
        base = Alphabet((0, 1))
        xin = product_alphabet(base, 1)
        ch = Dmc(xin, product_alphabet(base, 1), np.array([[0.9, 0.1], [0.2, 0.8]]))
        p = Pmf(xin, np.array([0.7, 0.3]))
        p_mix, ch_mix = icm_mixture(p, ch)
        assert np.allclose(p_mix.probs, [0.7, 0.3])
        assert np.allclose(ch_mix.w, ch.w)

    def test_iid_positions_fixed_point(self):
        base_w = np.array([[0.9, 0.1], [0.2, 0.8]])
        xin = product_alphabet(Alphabet((0, 1)), 2)
        yout = product_alphabet(Alphabet((0, 1)), 2)
        w = np.kron(base_w, base_w)
        ch = Dmc(xin, yout, w)
        marg = np.array([0.6, 0.4])
        p = Pmf(xin, np.kron(marg, marg))
        p_mix, ch_mix = icm_mixture(p, ch)
        assert np.allclose(p_mix.probs, marg, atol=1e-12)
        assert np.allclose(ch_mix.w, base_w, atol=1e-12)

    @pytest.mark.parametrize("m, nx, ny, same_output", [
        (1, 2, 3, False),
        (2, 2, 2, True),
        (2, 3, 2, False),
        (3, 2, 3, False),
    ], ids=["m1-2x3", "m2-2x2-diag", "m2-3x2", "m3-2x3"])
    def test_direct_summation_oracle(self, m, nx, ny, same_output):
        rng = np.random.default_rng(11)
        ch = self._vector_channel(rng, m, nx, ny, same_output)
        p = Pmf(ch.input, rng.dirichlet(np.ones(len(ch.input))))
        p_mix, ch_mix = icm_mixture(p, ch)
        # term-by-term: P_X(a) p(b|a) = sum_j (1/m) P_Xj(a) p_Yj|Xj(b|a)
        joint_vec = p.probs[:, None] * ch.w
        for a in range(nx):
            for b in range(ny):
                total = 0.0
                for j in range(m):
                    sel_in = [i for i, s in enumerate(ch.input.symbols) if s[j] == a]
                    sel_out = [k for k, s in enumerate(ch.output.symbols) if s[j] == b]
                    total += joint_vec[np.ix_(sel_in, sel_out)].sum() / m
                assert p_mix.probs[a] * ch_mix.w[a, b] == pytest.approx(total, abs=1e-12)

    def test_non_product_rejected(self):
        ch = bsc(0.1)
        p = uniform_pmf(ch.input)
        with pytest.raises(ValueError):
            icm_mixture(p, ch)
