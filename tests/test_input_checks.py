"""Bad input that no other test reaches fails with a ValueError naming it."""

import math

import numpy as np
import pytest

from psrates import (
    Alphabet,
    Dmc,
    Pmf,
    Quantizer,
    binary_hard_decision_rate,
    bit_metric_product,
    bsc,
    divergence,
    hard_decision_rate,
    likelihood_metric,
    metric_switch,
    optimize_metric_exponent,
    uniform_pmf,
)
from psrates.channel import (
    GridSpec,
    ask_constellation,
    icm_mixture,
    maxwell_boltzmann_pmf,
    product_alphabet,
)

GRAY4 = ask_constellation(4)
BSC = bsc(0.1)


def _icm(input_alphabet, output_alphabet):
    w = np.full((len(input_alphabet), len(output_alphabet)), 1 / len(output_alphabet))
    return icm_mixture(uniform_pmf(input_alphabet), Dmc(input_alphabet, output_alphabet, w))


def _labeled_bsc4():
    ch = Dmc(GRAY4, Alphabet((0, 1, 2, 3)), np.eye(4))
    return uniform_pmf(GRAY4), ch


CASES = {
    "grid-cells": (lambda: GridSpec(cells=63), "at least 64 cells"),
    "ask-not-power-of-2": (lambda: ask_constellation(3), "power of 2"),
    "ask-labeling": (lambda: ask_constellation(4, labeling="binary"), "unknown labeling"),
    "mb-no-signal-points": (lambda: maxwell_boltzmann_pmf(Alphabet((0, 1)), 0.1),
                            "signal points"),
    "product-m0": (lambda: product_alphabet(Alphabet((0, 1)), 0), "m must be at least 1"),
    "icm-not-tuples": (lambda: _icm(Alphabet((0, 1)), product_alphabet(Alphabet((0, 1)), 1)),
                       "not a product alphabet"),
    "icm-not-lexicographic": (
        lambda: _icm(Alphabet(((1, 0), (0, 0), (0, 1), (1, 1))),
                     product_alphabet(Alphabet((0, 1)), 2)),
        "lexicographically"),
    "icm-lengths": (lambda: _icm(product_alphabet(Alphabet((0, 1)), 2),
                                 product_alphabet(Alphabet((0, 1)), 1)),
                    "same length"),
    "label-count": (lambda: Alphabet((0, 1), labels=("0",)), "one label per symbol"),
    "label-lengths": (lambda: Alphabet((0, 1), labels=("0", "10")), "identical length"),
    "label-not-binary": (lambda: Alphabet((0, 1), labels=("0", "2")), "binary strings"),
    "label-repeated": (lambda: Alphabet((0, 1), labels=("1", "1")), "distinct"),
    "signal-point-count": (lambda: Alphabet((0, 1), signal_points=(1.0,)),
                           "one signal point per symbol"),
    "quantizer-targets": (lambda: Quantizer(Alphabet((0, 1, 2)), (0, 1)),
                          "one target per output symbol"),
    "bit-metric-level-shape": (
        lambda: bit_metric_product([np.ones((2, 3)), np.ones((3, 3))], GRAY4, Alphabet((0, 1, 2))),
        "2 x |Y|"),
    "switch-s-zero": (lambda: metric_switch(likelihood_metric(BSC), uniform_pmf(BSC.input), 0.0),
                      "exponent must be positive"),
    "switch-alphabet": (
        lambda: metric_switch(likelihood_metric(BSC), uniform_pmf(Alphabet(("a", "b"))), 1.0),
        "not on the metric input alphabet"),
    "hard-decision-always-wrong": (
        lambda: hard_decision_rate(uniform_pmf(BSC.input), bsc(0.0), Quantizer(BSC.output, (1, 0))),
        "eps = 1"),
    "binary-hard-decision-count": (
        lambda: binary_hard_decision_rate(*_labeled_bsc4(), [Quantizer(Alphabet((0, 1, 2, 3)),
                                                                         (0, 0, 1, 1))]),
        "need 2 quantizers, got 1"),
    "optimizer-family": (
        lambda: optimize_metric_exponent(uniform_pmf(BSC.input), BSC, likelihood_metric(BSC),
                                         family="linear"),
        "unknown family 'linear'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected(case):
    build, match = CASES[case]
    with pytest.raises(ValueError, match=match):
        build()


def test_divergence_infinite_where_z_vanishes():
    # p puts mass where z has none
    a = Alphabet((0, 1))
    assert divergence(Pmf(a, np.array([0.5, 0.5])), Pmf(a, np.array([1.0, 0.0]))) == math.inf
