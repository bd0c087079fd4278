"""Exact random-coding error probabilities for the simulator's ensembles.

The decoder counts a tie as an error, so these are the probabilities that
some other codeword's metric is at least the transmitted one's. Each
function works on floats, or exactly on fractions.Fraction arguments.
"""

import itertools
import math
from fractions import Fraction


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
