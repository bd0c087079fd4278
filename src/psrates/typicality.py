"""Letter-typical sets: membership, exact counting, and encoding bounds.

Counting is exact over integer composition vectors with big-integer
multinomials, so desk-scale results can be compared against exhaustive
sequence enumeration without tolerance.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Pmf


@dataclass(frozen=True)
class TypicalSpec:
    """Distribution, sequence length and tolerance defining a typical set."""

    p_x: Pmf
    n: int
    eps_typ: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sequence length must be at least 1")
        if self.eps_typ < 0:
            raise ValueError("typicality tolerance must be non-negative")


def _count_bounds(spec):
    """Per-symbol integer count ranges [lo_a, hi_a] matching the float
    membership test exactly."""
    n, eps = spec.n, spec.eps_typ
    bounds = []
    for p in spec.p_x.probs:
        lo_target = (1 - eps) * p
        hi_target = (1 + eps) * p
        lo = max(0, math.ceil(lo_target * n) - 1)
        while lo / n < lo_target:
            lo += 1
        hi = min(n, math.floor(hi_target * n) + 1)
        while hi / n > hi_target:
            hi -= 1
        bounds.append((lo, hi))
    return bounds


def is_typical(x_seq, spec):
    """True iff every letter frequency lies within (1 +- eps) * P_X(a)."""
    seq = list(x_seq)
    if len(seq) != spec.n:
        raise ValueError(f"sequence length {len(seq)} != {spec.n}")
    index = {s: i for i, s in enumerate(spec.p_x.alphabet.symbols)}
    counts = [0] * len(index)
    for x in seq:
        if x not in index:
            raise ValueError(f"symbol {x!r} not in alphabet")
        counts[index[x]] += 1
    return is_typical_counts(counts, spec)


def is_typical_counts(counts, spec):
    """True iff every count k_a has k_a / n within (1 +- eps) * P_X(a).

    counts[a] counts the a-th alphabet symbol. This is the one membership
    predicate; is_typical counts a sequence's symbols and delegates here.
    """
    n, eps = spec.n, spec.eps_typ
    for k, p in zip(counts, spec.p_x.probs):
        if not (1 - eps) * p <= k / n <= (1 + eps) * p:
            return False
    return True


def typical_set_size(spec):
    """Exact number of typical sequences, summed over feasible compositions."""
    bounds = _count_bounds(spec)
    n = spec.n
    total = 0
    counts = [0] * len(bounds)

    def rec(i, remaining):
        nonlocal total
        if i == len(bounds) - 1:
            lo, hi = bounds[i]
            if lo <= remaining <= hi:
                counts[i] = remaining
                total += _multinomial(n, counts)
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


def _multinomial(n, counts):
    out = 1
    rest = n
    for k in counts[:-1]:
        out *= math.comb(rest, k)
        rest -= k
    return out


def rate_of_typical_set(spec):
    """log2 of the typical-set size per symbol; -inf for an empty set."""
    size = typical_set_size(spec)
    if size == 0:
        return -math.inf
    return _log2_big(size) / spec.n


def _log2_big(k):
    """log2 of a (possibly huge) positive integer."""
    bits = k.bit_length()
    if bits <= 512:
        return math.log2(k)
    shift = bits - 64
    return math.log2(k >> shift) + shift


def encoding_failure_bound(spec, r_prime):
    """Upper bound on the probability that none of 2^(n*r') uniform random
    codewords lands in the shaping set: exp(-|T| / |X|^n * 2^(n*r'))."""
    if r_prime < 0:
        raise ValueError("rate slack must be non-negative")
    size = typical_set_size(spec)
    total = len(spec.p_x.alphabet) ** spec.n
    frac = float(Fraction(size, total))
    return math.exp(-frac * 2.0 ** (spec.n * r_prime))
