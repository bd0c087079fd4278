"""Letter-typical sets: membership, exact counting, and encoding bounds.

Counting is exact, a big-integer dynamic program over the symbols, so
desk-scale results can be compared against exhaustive sequence enumeration
without tolerance, and block lengths in the thousands stay cheap.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import Pmf


@dataclass(frozen=True)
class TypicalSpec:
    """Distribution, sequence length and tolerance defining a typical set.

    count_ranges holds, for each symbol a, the integer range [lo, hi] of the
    counts k in 0..n with (1 - eps) * P_X(a) <= k / n <= (1 + eps) * P_X(a),
    the one evaluation of the membership rule; lo > hi when there is none.
    k / n never decreases in k, so those counts are a range.
    """

    p_x: Pmf
    n: int
    eps_typ: float
    count_ranges: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_block_length(self.n)
        if not 0 <= self.eps_typ < math.inf:
            raise ValueError(
                f"typicality tolerance eps_typ must be finite and non-negative, got {self.eps_typ}"
            )
        freq = np.arange(self.n + 1) / self.n
        lo = freq.searchsorted((1 - self.eps_typ) * self.p_x.probs, "left")
        hi = freq.searchsorted((1 + self.eps_typ) * self.p_x.probs, "right") - 1
        object.__setattr__(self, "count_ranges", tuple(zip(lo.tolist(), hi.tolist())))


def _check_block_length(n):
    """Raise ValueError unless n is an integer of at least 1."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"block length n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"block length n must be at least 1, got {n}")


def is_typical_counts(counts, spec):
    """True iff every count k_a has k_a / n within (1 +- eps) * P_X(a).

    counts[a] counts the a-th alphabet symbol in a length-n sequence, and is
    checked against spec.count_ranges. This is the one membership
    predicate: a caller with a sequence counts its symbols first.
    """
    return all(lo <= k <= hi for k, (lo, hi) in zip(counts, spec.count_ranges))


def typical_set_size(spec):
    """Exact number of typical sequences, as a big-integer dynamic program.

    With the symbols taken last to first, f_i(r) = sum_k C(r, k) f_{i+1}(r - k)
    counts the length-r sequences over symbols i.. whose counts all lie in
    their ranges [lo, hi]. r runs only over the suffix's feasible range, k
    only over the counts the rest of the suffix can complete, and the first
    symbol is evaluated at r = n alone. Binomials are stepped along k, so the
    cost is at most O(|X| n^2) big-integer multiply-adds.
    """
    bounds, n = spec.count_ranges, spec.n
    # f[r - r_min] for the suffix processed so far; starts with the last symbol
    r_min, r_max = bounds[-1]
    f = [1] * (r_max - r_min + 1)
    for i in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[i]
        new_min, new_max = (n, n) if i == 0 else (r_min + lo, min(n, r_max + hi))
        g = []
        for r in range(new_min, new_max + 1):
            k0, k1 = max(lo, r - r_max), min(hi, r - r_min)
            total = 0
            if k0 <= k1:
                c = math.comb(r, k0)
                for k in range(k0, k1 + 1):
                    total += c * f[r - k - r_min]
                    c = c * (r - k) // (k + 1)
            g.append(total)
        f, r_min, r_max = g, new_min, new_max
    return f[n - r_min] if r_min <= n <= r_max else 0


def rate_of_typical_set(spec):
    """log2 of the typical-set size per symbol; -inf for an empty set."""
    return _rate_of_size(typical_set_size(spec), spec.n)


def _rate_of_size(size, n):
    """log2(size) / n, the rate of a set of `size` length-n sequences; -inf
    for an empty set."""
    if size == 0:
        return -math.inf
    return math.log2(size) / n


def encoding_failure_bound(spec, r_prime):
    """Upper bound on the probability that none of 2^(n*r') uniform random
    codewords lands in the shaping set: exp(-|T| / |X|^n * 2^(n*r')).

    Evaluated in the log2 domain, so it does not overflow at large n: 1.0
    for an empty set, 0.0 once the exponent exceeds the float range.
    """
    if not r_prime >= 0:
        raise ValueError(f"rate slack must be non-negative, got {r_prime}")
    size = typical_set_size(spec)
    if size == 0:
        return 1.0
    n = spec.n
    e = math.log2(size) - n * math.log2(len(spec.p_x.alphabet)) + n * r_prime
    if e >= 1024:
        return 0.0
    return math.exp(-2.0 ** e)
