import itertools
import math

import numpy as np
import pytest

from exact_reference import is_typical
from psrates import (
    Alphabet,
    Pmf,
    TypicalSpec,
    encoding_failure_bound,
    entropy,
    rate_of_typical_set,
    typical_set_size,
    uniform_pmf,
)
from psrates.typicality import is_typical_counts

A2 = Alphabet((0, 1))
A3 = Alphabet((0, 1, 2))


def recursive_size(spec):
    """Composition enumeration, the counting method before the dynamic
    program: sum the multinomial of every feasible composition."""
    bounds = spec.count_ranges
    n = spec.n
    total = 0
    counts = [0] * len(bounds)

    def multinomial():
        out, rest = 1, n
        for k in counts[:-1]:
            out *= math.comb(rest, k)
            rest -= k
        return out

    def rec(i, remaining):
        nonlocal total
        if i == len(bounds) - 1:
            lo, hi = bounds[i]
            if lo <= remaining <= hi:
                counts[i] = remaining
                total += multinomial()
            return
        lo, hi = bounds[i]
        tail_min = sum(b[0] for b in bounds[i + 1:])
        tail_max = sum(b[1] for b in bounds[i + 1:])
        for k in range(max(lo, remaining - tail_max), min(hi, remaining - tail_min) + 1):
            counts[i] = k
            rec(i + 1, remaining - k)

    if len(bounds) == 1:
        lo, hi = bounds[0]
        return 1 if lo <= n <= hi else 0
    rec(0, n)
    return total


def brute_force_size(spec):
    symbols = spec.p_x.alphabet.symbols
    return sum(
        1 for seq in itertools.product(symbols, repeat=spec.n) if is_typical(seq, spec)
    )


class TestSpec:
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1])
    def test_bad_tolerance_rejected(self, eps):
        with pytest.raises(ValueError, match="tolerance"):
            TypicalSpec(Pmf(A2, np.array([0.5, 0.5])), 10, eps)

    @pytest.mark.parametrize("n", [2.5, 8.0, "8"])
    def test_non_integer_length_rejected(self, n):
        with pytest.raises(ValueError, match="block length n must be an integer"):
            TypicalSpec(Pmf(A2, np.array([0.5, 0.5])), n, 0.2)

    def test_numpy_integer_length_accepted(self):
        p = Pmf(A2, np.array([0.5, 0.5]))
        assert typical_set_size(TypicalSpec(p, np.int64(8), 0.0)) == math.comb(8, 4)

    def test_count_ranges_are_the_float_rule(self):
        # each range holds exactly the counts k in 0..n that the rule's float
        # comparisons admit, also where k / n lands on a bound
        rng = np.random.default_rng(45)
        for trial in range(300):
            nx = int(rng.integers(1, 6))
            probs = rng.dirichlet(np.ones(nx))
            if trial % 3 == 0:
                # probabilities that n * P_X(a) meets exactly
                probs = rng.integers(0, 5, nx) + (np.arange(nx) == 0)
                probs = probs / probs.sum()
            p = Pmf(Alphabet(tuple(range(nx))), probs)
            n = int(rng.integers(1, 41))
            eps = float(rng.choice([0.0, 0.1, 0.25, 0.5, 1.0, 1.5, rng.uniform(0, 2)]))
            spec = TypicalSpec(p, n, eps)
            for (lo, hi), prob in zip(spec.count_ranges, p.probs):
                rule = [(1 - eps) * prob <= k / n <= (1 + eps) * prob for k in range(n + 1)]
                assert list(range(lo, hi + 1)) == np.flatnonzero(rule).tolist(), (probs, n, eps)


class TestMembership:
    def test_exact_composition_always_typical(self):
        spec = TypicalSpec(Pmf(A2, np.array([0.5, 0.5])), 10, 0.0)
        assert is_typical_counts([5, 5], spec)

    def test_off_composition_rejected_at_zero_tolerance(self):
        spec = TypicalSpec(Pmf(A2, np.array([0.5, 0.5])), 10, 0.0)
        assert not is_typical_counts([6, 4], spec)

    def test_tolerance_widens_set(self):
        p = Pmf(A2, np.array([0.5, 0.5]))
        assert not is_typical_counts([6, 4], TypicalSpec(p, 10, 0.1))
        assert is_typical_counts([6, 4], TypicalSpec(p, 10, 0.2))

    def test_zero_probability_symbol_excluded(self):
        p = Pmf(A3, np.array([0.5, 0.5, 0.0]))
        spec = TypicalSpec(p, 4, 0.5)
        assert not is_typical_counts([2, 1, 1], spec)
        assert is_typical_counts([2, 2, 0], spec)


class TestSize:
    def test_uniform_binary_zero_tolerance(self):
        spec = TypicalSpec(Pmf(A2, np.array([0.5, 0.5])), 10, 0.0)
        assert typical_set_size(spec) == math.comb(10, 5)

    def test_brute_force_binary(self):
        rng = np.random.default_rng(40)
        for _ in range(8):
            p = Pmf(A2, rng.dirichlet(np.ones(2)))
            n = int(rng.integers(4, 12))
            eps = float(rng.uniform(0, 0.6))
            spec = TypicalSpec(p, n, eps)
            assert typical_set_size(spec) == brute_force_size(spec)

    def test_brute_force_ternary(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            p = Pmf(A3, rng.dirichlet(np.ones(3)))
            n = int(rng.integers(4, 9))
            eps = float(rng.uniform(0, 0.5))
            spec = TypicalSpec(p, n, eps)
            assert typical_set_size(spec) == brute_force_size(spec)

    def test_matches_composition_enumeration(self):
        rng = np.random.default_rng(44)
        nonempty = 0
        for trial in range(400):
            nx = int(rng.integers(1, 6))
            probs = rng.dirichlet(np.ones(nx))
            if nx > 1 and trial % 4 == 0:
                probs[rng.integers(nx)] = 0.0
                probs /= probs.sum()
            p = Pmf(Alphabet(tuple(range(nx))), probs)
            n = int(rng.integers(1, 31))
            eps = float(rng.choice([0.0, 0.05, 0.2, 0.5, 1.5]))
            spec = TypicalSpec(p, n, eps)
            size = typical_set_size(spec)
            assert size == recursive_size(spec), (probs, n, eps)
            nonempty += size > 0
        assert nonempty >= 200

    def test_ccdm_type_class(self):
        # at eps = 0 with n * P integral the set is one type class
        k = [300, 250, 150, 120, 90, 60, 40, 14]
        n = sum(k)
        p = Pmf(Alphabet(tuple(range(8))), np.array(k) / n)
        spec = TypicalSpec(p, n, 0.0)
        multinomial = math.factorial(n)
        for kk in k:
            multinomial //= math.factorial(kk)
        assert typical_set_size(spec) == multinomial
        gap = entropy(p) - rate_of_typical_set(spec)
        assert 0 < gap <= 8 * math.log2(n + 1) / n

    def test_large_eps_covers_everything(self):
        p = Pmf(A2, np.array([0.5, 0.5]))
        spec = TypicalSpec(p, 8, 1.0)
        assert typical_set_size(spec) == 2 ** 8

    def test_empty_set(self):
        # incompatible composition: n*p not representable at zero tolerance
        p = Pmf(A2, np.array([0.3, 0.7]))
        spec = TypicalSpec(p, 5, 0.0)
        assert typical_set_size(spec) == 0
        assert rate_of_typical_set(spec) == -math.inf


class TestRate:
    def test_rate_definition(self):
        p = Pmf(A2, np.array([0.5, 0.5]))
        spec = TypicalSpec(p, 12, 0.2)
        size = typical_set_size(spec)
        assert rate_of_typical_set(spec) == pytest.approx(math.log2(size) / 12)

    def test_rate_approaches_entropy(self):
        # the per-symbol rate climbs toward H(X) as n grows
        p = Pmf(A2, np.array([0.5, 0.5]))
        rates = [rate_of_typical_set(TypicalSpec(p, n, 0.2)) for n in (8, 16, 24, 48)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert rates[-1] <= 1.0
        assert rates[-1] >= (1 - 0.2) * entropy(p)

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = Pmf(A3, rng.dirichlet(np.ones(3)))
            spec = TypicalSpec(p, 20, float(rng.uniform(0, 1)))
            assert rate_of_typical_set(spec) <= math.log2(3) + 1e-12

    def test_huge_n_no_overflow(self):
        p = Pmf(A2, np.array([0.5, 0.5]))
        r = rate_of_typical_set(TypicalSpec(p, 4000, 0.05))
        assert 0.9 < r <= 1.0


class TestEncodingFailureBound:
    def test_monotone_in_rate(self):
        p = Pmf(A2, np.array([0.5, 0.5]))
        spec = TypicalSpec(p, 12, 0.2)
        bounds = [encoding_failure_bound(spec, r) for r in (0.0, 0.25, 0.5, 1.0)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_closed_form_oracle(self):
        p = Pmf(A2, np.array([0.5, 0.5]))
        spec = TypicalSpec(p, 10, 0.0)
        expected = math.exp(-(math.comb(10, 5) / 2 ** 10) * 2 ** 5)
        assert encoding_failure_bound(spec, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_empty_set_is_trivial_bound(self):
        p = Pmf(A2, np.array([0.3, 0.7]))
        spec = TypicalSpec(p, 5, 0.0)
        assert encoding_failure_bound(spec, 1.0) == 1.0

    def test_large_n_no_overflow(self):
        p = Pmf(A2, np.array([0.5, 0.5]))
        spec = TypicalSpec(p, 2000, 0.1)
        assert encoding_failure_bound(spec, 0.6) == 0.0

    def test_negative_rate_rejected(self):
        spec = TypicalSpec(Pmf(A2, np.array([0.5, 0.5])), 4, 0.1)
        with pytest.raises(ValueError):
            encoding_failure_bound(spec, -0.1)

    def test_nan_rate_rejected(self):
        spec = TypicalSpec(Pmf(A2, np.array([0.5, 0.5])), 4, 0.1)
        with pytest.raises(ValueError, match="rate slack"):
            encoding_failure_bound(spec, math.nan)

    def test_empirical_failure_frequency(self):
        # simulate the encoder search and compare to the analytic bound
        p = Pmf(uniform_pmf(A2).alphabet, np.array([0.5, 0.5]))
        spec = TypicalSpec(p, 8, 0.0)
        r_prime = 0.25
        n_v = int(2 ** (8 * r_prime))
        rng = np.random.default_rng(43)
        fails = 0
        runs = 2000
        for _ in range(runs):
            block = rng.integers(0, 2, size=(n_v, 8))
            if not any(is_typical(row, spec) for row in block):
                fails += 1
        assert fails / runs <= encoding_failure_bound(spec, r_prime) + 0.03
