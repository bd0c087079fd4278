"""The paper's rate identities over random small scenarios.

Inputs, channels and metrics are drawn from small integer weights, so
zero probabilities and zero metric entries are common.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from psrates import (
    Alphabet,
    Dmc,
    Metric,
    Pmf,
    achievable_transmission_rate,
    conditional_entropy,
    entropy,
    gmi,
    lm_rate,
    metric_switch,
    posterior_metric,
    power_transform,
    t_c_epsilon_lower_bound,
    uncertainty,
)


def _weights(n):
    """n non-negative integer weights with a positive sum."""
    return st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)


@st.composite
def scenarios(draw):
    """(P_X, channel, metric) on |X|, |Y| in 2..4; every metric column has
    a positive entry, as Metric requires."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    xs, ys = Alphabet(tuple(range(nx))), Alphabet(tuple(range(ny)))
    p = np.array(draw(_weights(nx)), dtype=float)
    w = np.array([draw(_weights(ny)) for _ in range(nx)], dtype=float)
    q = np.array([draw(_weights(nx)) for _ in range(ny)], dtype=float).T / 4
    ch = Dmc(xs, ys, w / w.sum(axis=1, keepdims=True))
    return Pmf(xs, p / p.sum()), ch, Metric(xs, ys, q)


def _joint(p, ch):
    return p.probs[:, None] * ch.w


def _vanishes(p, ch, q):
    """True when q is 0 on an (x, y) pair of positive probability."""
    return bool(np.any(q.q[_joint(p, ch) > 0] == 0))


@given(scenarios())
def test_three_forms_of_rps_agree(scenario):
    p, ch, q = scenario
    rep = achievable_transmission_rate(p, ch, q)
    if _vanishes(p, ch, q):
        assert rep.r_ps_by_perspective == (-math.inf,) * 3 and rep.r_ps == 0.0
        return
    joint = _joint(p, ch)
    mask = joint > 0
    u = -(joint[mask] * np.log2((q.q / q.q.sum(axis=0))[mask])).sum()
    for form in rep.r_ps_by_perspective:
        assert form == pytest.approx(entropy(p) - u, abs=1e-10)
    assert rep.r_ps == max(0.0, rep.r_ps_by_perspective[0])


@given(scenarios())
def test_posterior_metric_minimises_uncertainty(scenario):
    p, ch, q = scenario
    h_cond = conditional_entropy(p, ch)
    assert uncertainty(p, ch, posterior_metric(p, ch)) == pytest.approx(h_cond, abs=1e-12)
    assert uncertainty(p, ch, q) >= h_cond - 1e-12


@given(scenarios())
def test_lm_rate_at_s_one_and_inverse_weights_is_rps(scenario):
    p, ch, q = scenario
    supp = p.probs > 0
    r = np.where(supp, 1.0 / np.where(supp, p.probs, 1.0), 1.0)
    r_ps = achievable_transmission_rate(p, ch, q).r_ps
    if supp.all():
        assert lm_rate(p, ch, q, 1.0, r) == pytest.approx(r_ps, abs=1e-10)
    else:
        # the LM normaliser sums over the support only, so it can only gain
        assert lm_rate(p, ch, q, 1.0, r) >= r_ps - 1e-12


@settings(max_examples=20)
@given(scenarios())
def test_metric_switching_reproduces_gmi(scenario):
    p, ch, q = scenario
    rate, s = gmi(p, ch, q, s_min=0.05, s_max=20.0)
    switched = q.q * p.probs[:, None]
    if np.any(switched.sum(axis=0) == 0):
        # a column lives only on symbols of probability 0; no valid metric
        with pytest.raises(ValueError):
            metric_switch(q, p, s)
        return
    rep = achievable_transmission_rate(p, ch, power_transform(metric_switch(q, p, s), s))
    if math.isinf(rate):
        assert rep.r_ps_by_perspective[0] == rate
    else:
        assert rep.r_ps_by_perspective[0] == pytest.approx(rate, abs=1e-9)


@given(scenarios())
def test_t_c_bound_at_zero_tolerance_is_t_c(scenario):
    p, ch, q = scenario
    t_c = math.log2(len(p.alphabet)) - uncertainty(p, ch, q)
    bound = t_c_epsilon_lower_bound(p, ch, q, 0.0)
    if math.isinf(t_c):
        assert bound == t_c
    else:
        assert bound == pytest.approx(t_c, abs=1e-12)
        assert t_c_epsilon_lower_bound(p, ch, q, 0.1) <= bound


_symbols = st.one_of(st.integers(-5, 5), st.sampled_from(["a", "b", "ab"]),
                     st.tuples(st.integers(0, 2), st.integers(0, 2)))


@given(st.lists(_symbols, min_size=1, max_size=8, unique=True), st.data())
def test_indices_inverts_indexing_by_symbol(symbols, data):
    alphabet = Alphabet(tuple(symbols))
    idx = data.draw(st.lists(st.integers(0, len(symbols) - 1), max_size=12))
    assert alphabet.indices([alphabet.symbols[i] for i in idx]).tolist() == idx
