import math

import numpy as np
import pytest

from psrates import (
    Alphabet,
    Pmf,
    binary_entropy,
    cross_entropy,
    divergence,
    entropy,
    uniform_pmf,
)

A4 = Alphabet((0, 1, 2, 3))
A2 = Alphabet((0, 1))


def pmf(alphabet, *probs):
    return Pmf(alphabet, np.array(probs))


class TestAlphabet:
    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            Alphabet((0, 0, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_labels_must_match_size(self):
        with pytest.raises(ValueError):
            Alphabet((0, 1, 2), labels=("00", "01", "10"))

    def test_labeled_alphabet(self):
        a = Alphabet((0, 1, 2, 3), labels=("00", "01", "11", "10"))
        assert a.label_length == 2
        assert a.bits(1)[2] == 1
        assert a.bits(2)[2] == 1
        assert a.bits(2)[3] == 0

    def test_bits(self):
        a = Alphabet((0, 1, 2, 3), labels=("00", "01", "11", "10"))
        assert a.bits(1).tolist() == [0, 0, 1, 1]
        assert a.bits(2).tolist() == [0, 1, 1, 0]

    def test_bits_level_checked(self):
        a = Alphabet((0, 1), labels=("0", "1"))
        with pytest.raises(ValueError, match="out of range"):
            a.bits(2)
        with pytest.raises(ValueError, match="no labels"):
            A2.bits(1)

    def test_indices(self):
        a = Alphabet(("b", 3, 1.5))
        assert a.indices([1.5, "b", "b", 3]).tolist() == [2, 0, 0, 1]
        assert a.indices([]).dtype == np.intp
        assert int(a.indices([3])[0]) == 1
        with pytest.raises(ValueError, match="symbol 'c' not in alphabet"):
            a.indices(["b", "c"])


class TestPmf:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pmf(A2, -0.1, 1.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            pmf(A2, 0.5, 0.6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            pmf(A2, bad, 0.5)

    def test_rejects_wrong_shape_and_dtype(self):
        with pytest.raises(ValueError, match=r"need shape \(2,\), got \(3,\)"):
            pmf(A2, 0.2, 0.3, 0.5)
        with pytest.raises(ValueError, match="real numbers"):
            Pmf(A2, np.array(["0.5", "0.5"]))

    def test_normalizes_near_one(self):
        p = pmf(A2, 0.5, 0.5 + 1e-10)
        assert abs(p.probs.sum() - 1) < 1e-15


class TestUniform:
    def test_four_symbols(self):
        assert np.allclose(uniform_pmf(A4).probs, 0.25)

    def test_single_symbol(self):
        assert uniform_pmf(Alphabet((0,))).probs[0] == 1.0

    def test_entropy_of_uniform_eight(self):
        assert entropy(uniform_pmf(Alphabet(tuple(range(8))))) == pytest.approx(3.0)


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(pmf(A2, 0.5, 0.5)) == pytest.approx(1.0)

    def test_deterministic(self):
        assert entropy(pmf(A2, 1.0, 0.0)) == 0.0

    def test_direct_summation_oracle(self):
        # frozen value from independent high-precision summation
        p = pmf(A4, 0.0592, 0.1517, 0.2858, 0.5033)
        assert entropy(p) == pytest.approx(1.6691059754038655, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(4))
            perm = rng.permutation(4)
            assert entropy(pmf(A4, *probs)) == pytest.approx(
                entropy(pmf(A4, *probs[perm])), abs=1e-12
            )


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_boundaries(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    def test_symmetry(self):
        for eps in np.linspace(0, 1, 21):
            assert binary_entropy(eps) == pytest.approx(
                binary_entropy(1 - eps), abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestCrossEntropy:
    def test_equals_entropy_when_equal(self):
        p = pmf(A2, 0.5, 0.5)
        assert cross_entropy(p, p) == pytest.approx(1.0)

    def test_point_mass_against_uniform(self):
        assert cross_entropy(pmf(A2, 1, 0), pmf(A2, 0.5, 0.5)) == pytest.approx(1.0)

    def test_direct_summation(self):
        got = cross_entropy(pmf(A2, 0.7, 0.3), pmf(A2, 0.4, 0.6))
        assert got == pytest.approx(1.1464393446710153, abs=1e-12)

    def test_infinite_when_support_mismatch(self):
        assert cross_entropy(pmf(A2, 0.5, 0.5), pmf(A2, 1, 0)) == math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy(pmf(A2, 0.5, 0.5), pmf(Alphabet(("x", "y")), 0.5, 0.5))


class TestDivergence:
    def test_zero_iff_equal(self):
        p = pmf(A4, 0.4, 0.3, 0.2, 0.1)
        assert divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_vs_uniform(self):
        assert divergence(pmf(A4, 1, 0, 0, 0), uniform_pmf(A4)) == pytest.approx(2.0)

    def test_uniform_divergence_identity(self):
        p = pmf(A4, 0.4, 0.3, 0.2, 0.1)
        assert divergence(p, uniform_pmf(A4)) == pytest.approx(
            2.0 - entropy(p), abs=1e-12
        )

    def test_randomized_invariants(self):
        rng = np.random.default_rng(7)
        u = uniform_pmf(A4)
        for _ in range(100):
            p = pmf(A4, *rng.dirichlet(np.ones(4)))
            z = pmf(A4, *rng.dirichlet(np.ones(4)))
            assert divergence(p, z) >= -1e-15
            assert divergence(p, z) == pytest.approx(
                cross_entropy(p, z) - entropy(p), abs=1e-12
            )
            assert divergence(p, u) + entropy(p) == pytest.approx(2.0, abs=1e-12)
