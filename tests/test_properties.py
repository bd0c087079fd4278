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
    exp_transform,
    gmi,
    lm_rate,
    metric_switch,
    posterior_metric,
    power_transform,
    t_c_epsilon_lower_bound,
    uncertainty,
)
from psrates.rates import _gmi_objective, _shaped_rate_objective


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


# The s-optimisers compute the scenario's invariants once and then build
# only each family member. The oracles below are the per-evaluation paths
# they replaced; the objectives must equal them exactly, not within a
# tolerance, so that s* and every printed digit stay the same.

_TRANSFORMS = {"power": power_transform, "exp": exp_transform}

# both ends of the optimisers' default bracket, and points in between
_S = st.one_of(st.sampled_from([1e-3, 1e3]), st.floats(1e-3, 1e3))


def _old_rate_report(p_x, ch, q):
    """(U, R_ps by perspective) as computed on whole arrays, each form
    from its own masked array (the evaluator before the invariants were
    hoisted)."""
    joint = _joint(p_x, ch)
    mask = joint > 0
    if np.any(q.q[mask] == 0):
        return math.inf, (-math.inf,) * 3
    nx = len(p_x.alphabet)
    h_x = entropy(p_x)
    div = math.log2(nx) - h_x
    denom = q.q.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask, q.q / denom, 1.0)
        u = float(-(joint[mask] * np.log2(ratio[mask])).sum())
        if math.isinf(u):
            return u, (-math.inf,) * 3
        large_code = float((joint[mask] * np.log2(nx * q.q / denom)[mask]).sum()) - div
        inv_p = np.where(p_x.probs > 0, 1.0 / np.where(p_x.probs > 0, p_x.probs, 1.0), 1.0)
        out_term = (q.q * inv_p[:, None]) / denom
        out_persp = float((joint[mask] * np.log2(out_term[mask])).sum())
    return u, (h_x - u, large_code, out_persp)


def _old_shaped_rate(p_x, ch, q, family, s):
    """The optimiser's objective that built a Metric at every evaluation."""
    try:
        rep = achievable_transmission_rate(p_x, ch, _TRANSFORMS[family](q, s))
    except ValueError:
        return -math.inf
    return rep.r_ps_by_perspective[0]


def _gmi_integrand(p_x, ch, q, s):
    """E[log2 q^s / sum_a P(a) q(a,Y)^s], computed in log domain."""
    joint = _joint(p_x, ch)
    mask = joint > 0
    with np.errstate(divide="ignore"):
        lq = np.log(q.q)
        lp = np.log(np.where(p_x.probs > 0, p_x.probs, 1.0))
        lp[p_x.probs == 0] = -np.inf
    if np.any(np.isneginf(lq[mask])):
        return -math.inf
    t = s * lq + lp[:, None]
    tmax = t.max(axis=0)
    lse = tmax + np.log(np.exp(t - tmax).sum(axis=0))
    val = (joint[mask] * (s * lq - lse[None, :])[mask]).sum()
    return float(val / math.log(2))


def _scaled(q, scale):
    """q times scale; scale 8 lets q^s overflow and exp(s*q) hit its cap."""
    return Metric(q.input, q.output, q.q * scale)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(scenarios(), st.sampled_from([0.25, 1.0, 8.0]), st.lists(_S, max_size=3))
def test_rate_report_equals_whole_array_formulas(scenario, scale, ss):
    p, ch, q = scenario
    q = _scaled(q, scale)
    for s in (1e-3, 1e3, *ss):
        try:
            qs = power_transform(q, s)
        except ValueError:
            continue
        u, forms = _old_rate_report(p, ch, qs)
        rep = achievable_transmission_rate(p, ch, qs)
        assert (rep.uncertainty, rep.r_ps_by_perspective) == (u, forms)
        assert rep.t_c == math.log2(len(p.alphabet)) - u
        assert uncertainty(p, ch, qs) == u


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(scenarios(), st.sampled_from([0.25, 1.0, 8.0]), st.lists(_S, max_size=3))
def test_power_transform_equals_whole_array_power(scenario, scale, ss):
    # power_transform raises only the positive entries to the power s
    _, _, q = scenario
    q = _scaled(q, scale)
    for s in (1e-3, 1e3, *ss):
        whole = q.q ** s
        if np.all(np.isfinite(whole)) and np.all(whole.sum(axis=0) > 0):
            assert np.array_equal(power_transform(q, s).q, whole)
        else:
            with pytest.raises(ValueError):
                power_transform(q, s)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(scenarios(), st.sampled_from([0.25, 1.0, 8.0]), st.sampled_from(["power", "exp"]),
       st.lists(_S, max_size=3))
def test_shaped_rate_objective_equals_rate_report(scenario, scale, family, ss):
    p, ch, q = scenario
    q = _scaled(q, scale)
    f = _shaped_rate_objective(p, ch, q, _TRANSFORMS[family])
    for s in (1e-3, 1e3, *ss):
        assert f(s) == _old_shaped_rate(p, ch, q, family, s)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(scenarios(), st.lists(_S, max_size=3))
def test_gmi_objective_equals_integrand(scenario, ss):
    p, ch, q = scenario
    f = _gmi_objective(p, ch, q)
    for s in (1e-3, 1e3, *ss):
        assert f(s) == _gmi_integrand(p, ch, q, s)


# output 2 never occurs, so a metric column that vanishes there touches no
# pair of positive probability
_W = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family, rows, s, why", [
    ("power", [[1.0, 0.5, 0.25], [0.5, 1.0, 0.25]], 1e3,
     "every metric column needs a positive entry"),
    ("power", [[4.0, 0.5, 1.0], [0.5, 1.0, 1.0]], 1e3, "metric entries must be finite"),
    ("exp", [[1.0, 0.5, 1.0], [0.5, 1.0, 1.0]], 701.0, "exponential transform overflows"),
])
def test_refused_members_are_minus_inf(family, rows, s, why):
    # the members the Metric path refuses: a column that underflows to 0,
    # an entry that overflows to inf, and exp(s*q) past its cap
    xs, ys = Alphabet((0, 1)), Alphabet((0, 1, 2))
    ch = Dmc(xs, ys, _W)
    p = Pmf(xs, np.array([0.6, 0.4]))
    q = Metric(xs, ys, np.array(rows))
    with pytest.raises(ValueError, match=why):
        _TRANSFORMS[family](q, s)
    assert _shaped_rate_objective(p, ch, q, _TRANSFORMS[family])(s) == -math.inf
