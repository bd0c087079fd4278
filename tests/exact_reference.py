"""Exact random-coding error probabilities for the simulator's ensembles.

The decoder counts a tie as an error, so these are the probabilities that
some other codeword's metric is at least the transmitted one's. Each
function works on floats, or exactly on fractions.Fraction arguments.
"""

import itertools
import math
from fractions import Fraction

from psrates import is_typical


def classical_bsc_error(n, eps, m):
    """P(decoding error) of M = m i.i.d. uniform codewords of length n over
    BSC(eps), eps < 1/2, with the likelihood metric.

    The metric falls with the Hamming distance d between codeword and y, so
    an other codeword wins or ties when it lies within distance d of y,
    with probability G(d) = sum_{j <= d} C(n, j) / 2^n. Then
    P(err) = sum_d Binom(n, eps)(d) * [1 - (1 - G(d))^(m - 1)].
    """
    total, within = 0, 0
    for d in range(n + 1):
        within += math.comb(n, d)
        miss = 1 - Fraction(within, 2 ** n)
        total += math.comb(n, d) * eps ** d * (1 - eps) ** (n - d) * (1 - miss ** (m - 1))
    return total


def brute_force_bsc_error(n, eps, m):
    """classical_bsc_error by enumerating every codebook and output, with
    codeword 0 sent and each score the product of its likelihoods."""
    words = list(itertools.product((0, 1), repeat=n))

    def likelihood(x, y):
        return math.prod(eps if a != b else 1 - eps for a, b in zip(x, y))

    total = 0
    for book in itertools.product(words, repeat=m):
        for y in words:
            sent = likelihood(book[0], y)
            if any(likelihood(c, y) >= sent for c in book[1:]):
                total += sent
    return total / len(words) ** m


def layered_bsc_error(spec, eps, n_c, n_v):
    """P(decoding error | encoded) of the layered-ps ensemble over BSC(eps),
    eps < 1/2, with uniform input and the likelihood metric: n_c uniform
    codewords of length spec.n in blocks of n_v, and x the first row of
    block u in spec's typical set.

    With uniform P_X that set T is a weight range, read from
    spec.count_ranges. x is uniform on T. The v rows of block u before x
    are non-typical, and v has the law of the first success of
    p = |T| / 2^n, truncated to 0..n_v - 1. Every other row is uniform. So
    P(err) = 1 - E[(1 - g_nt)^v (1 - g)^(n_c - 1 - v)], where, with
    d = d(x, y) and the weight w of y, g = G(d) is the chance that a uniform
    row lies within distance d of y and g_nt(w, d) the same chance for a
    non-typical row.
    """
    n = spec.n
    ratio = Fraction if isinstance(eps, Fraction) else (lambda a, b: a / b)
    (lo0, hi0), (lo1, hi1) = spec.count_ranges
    weights = [k for k in range(n + 1) if lo1 <= k <= hi1 and lo0 <= n - k <= hi0]
    size = sum(math.comb(n, k) for k in weights)
    p = ratio(size, 2 ** n)
    v_law = [(1 - p) ** j * p / (1 - (1 - p) ** n_v) for j in range(n_v)]
    within = list(itertools.accumulate(math.comb(n, j) for j in range(n + 1)))

    def typical_within(w, d):
        # rows of T within distance d of a y of weight w: i of y's ones
        # and j of its zeros flipped
        return sum(math.comb(w, i) * math.comb(n - w, j)
                   for i in range(w + 1) for j in range(min(n - w, d - i) + 1)
                   if w - i + j in weights)

    def correct(w, d):
        # P(no other row scores >= x's | w, d), averaged over v
        g = ratio(within[d], 2 ** n)
        g_nt = ratio(within[d] - typical_within(w, d), 2 ** n - size) if size < 2 ** n else 0
        return sum(pv * (1 - g_nt) ** v * (1 - g) ** (n_c - 1 - v) for v, pv in enumerate(v_law))

    total = 0
    for k in weights:
        # a of x's ones and b of its zeros flipped: d = a + b, w = k - a + b
        for a in range(k + 1):
            for b in range(n - k + 1):
                law = ratio(math.comb(n, k), size) * math.comb(k, a) * math.comb(n - k, b)
                total += law * eps ** (a + b) * (1 - eps) ** (n - a - b) * correct(k - a + b, a + b)
    return 1 - total


def brute_force_layered_bsc_error(spec, eps, n_c, n_v):
    """layered_bsc_error by enumerating every codebook, message u and
    output, with each score the product of its likelihoods."""
    n = spec.n
    words = list(itertools.product((0, 1), repeat=n))
    likelihood = {(c, y): math.prod(eps if a != b else 1 - eps for a, b in zip(c, y))
                  for c in words for y in words}
    typical = {c: is_typical(c, spec) for c in words}
    errors = encoded = 0
    for book in itertools.product(words, repeat=n_c):
        for u in range(n_c // n_v):
            sent = next((r for r in range(u * n_v, (u + 1) * n_v) if typical[book[r]]), None)
            if sent is None:
                continue
            encoded += 1
            for y in words:
                score = likelihood[book[sent], y]
                if any(likelihood[c, y] >= score for r, c in enumerate(book) if r != sent):
                    errors += score
    return errors / encoded
