"""The paper's rate identities over random small scenarios.

Inputs, channels and metrics are drawn from small integer weights, so
zero probabilities and zero metric entries are common.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psrates import (
    Alphabet,
    Dmc,
    Metric,
    NumericalCheckError,
    Pmf,
    Quantizer,
    achievable_transmission_rate,
    bit_marginal,
    bit_metric_product,
    bmd_rate,
    conditional_entropy,
    entropy,
    exp_transform,
    gmi,
    hard_decision_metric,
    hard_decision_rate,
    icm_mixture,
    icm_rate,
    lm_rate,
    metric_switch,
    optimize_metric_exponent,
    posterior_metric,
    power_transform,
    product_alphabet,
    t_c_epsilon_lower_bound,
    uncertainty,
)
from psrates.rates import _lm_objective, _shaped_rate_objective
from test_metric import argmax_mask


def _weights(n):
    """n non-negative integer weights with a positive sum."""
    return st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)


@st.composite
def scenarios(draw):
    """(P_X, channel, metric) on |X|, |Y| in 2..4; in about half the draws
    one metric column is all zero, an output the decoder deems impossible."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    xs, ys = Alphabet(tuple(range(nx))), Alphabet(tuple(range(ny)))
    p = np.array(draw(_weights(nx)), dtype=float)
    w = np.array([draw(_weights(ny)) for _ in range(nx)], dtype=float)
    q = np.array([draw(_weights(nx)) for _ in range(ny)], dtype=float).T / 4
    dead = draw(st.integers(0, 2 * ny - 1))
    if dead < ny:
        q[:, dead] = 0
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
    with np.errstate(invalid="ignore"):  # 0/0 in an all-zero column, off the mask
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


def _linear_lm_rate(p_x, ch, q, s, r):
    """The LM rate summed in linear domain, as lm_rate computed it before it
    shared the GMI's log-domain evaluator; q^s underflows at large s."""
    joint = _joint(p_x, ch)
    mask = joint > 0
    if np.any(q.q[mask] == 0):
        return 0.0
    supp = p_x.probs > 0
    qs = q.q ** s
    denom = (p_x.probs[supp, None] * qs[supp] * r[supp, None]).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # denom is 0 only off the mask
        term = np.where(mask, qs * r[:, None] / denom, 1.0)
    return max(0.0, float((joint[mask] * np.log2(term[mask])).sum()))


# positive per-symbol weights of the LM rate
_R = st.lists(st.integers(1, 4), min_size=4, max_size=4)


@given(scenarios(), _R, st.floats(1e-3, 20.0))
def test_lm_rate_equals_linear_domain_sum(scenario, r, s):
    # metric entries are at least 0.25 where positive, so q^s >= 2^-40
    # here: the linear-domain sum does not underflow
    p, ch, q = scenario
    r = np.array(r[:len(p.alphabet)], dtype=float)
    assert lm_rate(p, ch, q, s, r) == pytest.approx(_linear_lm_rate(p, ch, q, s, r), abs=1e-12)


def _sharpened(ch, q):
    """q set to 1 on every pair the channel reaches, and at most 1/4
    elsewhere: the true input then maximises the metric, so the LM rate
    can stay positive as s grows."""
    return Metric(q.input, q.output, np.where(ch.w > 0, 1.0, q.q / 4))


@given(scenarios(), _R, st.sampled_from([1e-3, 1e3]), st.floats(1e-3, 1e3), st.booleans())
def test_lm_rate_invariant_to_scaling_q_or_r(scenario, r, scale, s, sharpen):
    # the scale cancels between numerator and normalizer; in linear domain
    # q^s under- or overflows long before s = 1e3
    p, ch, q = scenario
    if sharpen:
        q = _sharpened(ch, q)
    r = np.array(r[:len(p.alphabet)], dtype=float)
    rate = lm_rate(p, ch, q, s, r)
    assert lm_rate(p, ch, _scaled(q, scale), s, r) == pytest.approx(rate, abs=1e-9)
    assert lm_rate(p, ch, q, s, scale * r) == pytest.approx(rate, abs=1e-9)


@settings(max_examples=20)
@given(scenarios())
def test_metric_switching_reproduces_gmi(scenario):
    p, ch, q = scenario
    rate, s = gmi(p, ch, q, s_min=0.05, s_max=20.0)
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


# The paper's instance rates are R_ps of particular metrics.

@st.composite
def labeled_scenarios(draw):
    """(P_X, channel) on a 2^m-symbol alphabet with shuffled m-bit labels,
    m in 1..3, and |Y| in 2..4; a bit level may be constant."""
    m, ny = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    labels = draw(st.permutations([format(i, f"0{m}b") for i in range(2 ** m)]))
    xs, ys = Alphabet(tuple(range(2 ** m)), labels=labels), Alphabet(tuple(range(ny)))
    p = np.array(draw(_weights(2 ** m)), dtype=float)
    p = Pmf(xs, p / p.sum())
    w = np.array([draw(_weights(ny)) for _ in range(2 ** m)], dtype=float)
    return p, Dmc(xs, ys, w / w.sum(axis=1, keepdims=True))


@given(labeled_scenarios())
def test_bmd_rate_is_rps_of_bitwise_posterior_product(scenario):
    p, ch = scenario
    m = ch.input.label_length
    bmd = bmd_rate(p, ch)
    pre = entropy(p) - sum(bmd.level_cond_entropies)
    assert bmd.r_bmd == max(0.0, pre)
    levels = [posterior_metric(*bit_marginal(p, ch, j)) for j in range(1, m + 1)]
    q = bit_metric_product(levels, ch.input, ch.output)
    rep = achievable_transmission_rate(p, ch, q)
    assert rep.r_ps_by_perspective[0] == pytest.approx(pre, abs=1e-12)


@given(scenarios(), st.data())
def test_hard_decision_rate_is_rps_of_exp_hamming(scenario, data):
    p, ch, _ = scenario
    nx = len(ch.input)
    targets = data.draw(st.lists(st.integers(0, nx - 1), min_size=len(ch.output),
                                 max_size=len(ch.output)))
    quant = Quantizer(ch.output, targets)
    try:
        rate, _, scale = hard_decision_rate(p, ch, quant)
    except ValueError:
        assume(False)  # the quantizer is always wrong
    hamming = hard_decision_metric(quant, ch.input)
    if math.isinf(scale):
        q = hamming  # a noiseless quantizer: the limit of e^s -> inf
    elif scale > 1:
        q = exp_transform(hamming, math.log(scale))
    else:
        # s = log(scale) <= 0 lies outside the exp family; build e^(s q) here
        q = Metric(ch.input, ch.output, np.where(hamming.q > 0, scale, 1.0))
    assert rate == pytest.approx(achievable_transmission_rate(p, ch, q).r_ps, abs=1e-12)


@st.composite
def vector_scenarios(draw):
    """(P_X, channel) on m-fold product alphabets, m in 1..3, with base
    sizes in 2..3 (2 for m = 3) and a channel law that need not factor over
    positions."""
    m = draw(st.integers(1, 3))
    base = st.integers(2, 3 if m < 3 else 2)
    xs = product_alphabet(Alphabet(tuple(range(draw(base)))), m)
    ys = product_alphabet(Alphabet(tuple(range(draw(base)))), m)
    p = np.array(draw(_weights(len(xs))), dtype=float)
    w = np.array([draw(_weights(len(ys))) for _ in range(len(xs))], dtype=float)
    return Pmf(xs, p / p.sum()), Dmc(xs, ys, w / w.sum(axis=1, keepdims=True))


@given(vector_scenarios())
def test_icm_rate_is_rps_of_product_of_mixture_posteriors(scenario):
    p, ch = scenario
    m = len(ch.input.symbols[0])
    p_mix, ch_mix = icm_mixture(p, ch)
    pre = entropy(p) - m * conditional_entropy(p_mix, ch_mix)
    assert icm_rate(p, ch) == max(0.0, pre)
    post = posterior_metric(p_mix, ch_mix).q
    q = np.ones((len(ch.input), len(ch.output)))
    for i in range(m):
        x_i = np.array([x[i] for x in ch.input.symbols])
        y_i = np.array([y[i] for y in ch.output.symbols])
        q *= post[x_i[:, None], y_i[None, :]]
    rep = achievable_transmission_rate(p, ch, Metric(ch.input, ch.output, q))
    assert rep.r_ps_by_perspective[0] == pytest.approx(pre, abs=1e-12)


@st.composite
def sixty_fourths(draw):
    """Metric on |X|, |Y| in 2..4 with entries k/64, k in 0..64. Equal
    entries map to equal values under any entrywise transform, and distinct
    ones are 1/64 apart, so rounding can neither make nor break a tie."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    cols = [draw(st.lists(st.integers(0, 64), min_size=nx, max_size=nx).filter(any))
            for _ in range(ny)]
    return Metric(Alphabet(tuple(range(nx))), Alphabet(tuple(range(ny))),
                  np.array(cols, dtype=float).T / 64)


@given(sixty_fourths(), st.sampled_from(["power", "exp"]),
       st.one_of(st.sampled_from([1e-2, 1e2]), st.floats(1e-2, 1e2)))
def test_order_preserving_transforms_keep_column_argmax(q, family, s):
    assert np.array_equal(argmax_mask(_TRANSFORMS[family](q, s)), argmax_mask(q))


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
        if np.all(np.isfinite(whole)):
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
        try:
            expected = _old_shaped_rate(p, ch, q, family, s)
        except NumericalCheckError:
            continue  # the oracle's three-form check, which the objective skips
        assert f(s) == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(scenarios(), st.lists(_S, max_size=3))
def test_gmi_objective_equals_integrand(scenario, ss):
    p, ch, q = scenario
    f = _lm_objective(p, ch, q)
    for s in (1e-3, 1e3, *ss):
        assert f(s) == _gmi_integrand(p, ch, q, s)


@st.composite
def column_constant_scenarios(draw):
    """(P_X, channel, metric c_y 1_A): in each column y the metric is a
    constant c_y in 1e-5..1 on a random non-empty set A_y of inputs, 0 off
    it, so the column constants can differ by four orders of magnitude. In
    about half the draws the channel is moved inside A, W(y|x) > 0 only for
    x in A_y, so that q has a finite rate."""
    p, ch, _ = draw(scenarios())
    nx, ny = len(p.alphabet), len(ch.output)
    in_a = np.array([draw(st.lists(st.booleans(), min_size=nx, max_size=nx).filter(any))
                     for _ in range(ny)]).T
    if in_a.any(axis=1).all() and draw(st.booleans()):
        w = (ch.w + 1) * in_a
        ch = Dmc(ch.input, ch.output, w / w.sum(axis=1, keepdims=True))
    c = [draw(st.floats(0.1, 1.0)) * 10.0 ** -draw(st.integers(0, 4)) for _ in range(ny)]
    return p, ch, Metric(p.alphabet, ch.output, in_a * np.array(c))


@given(column_constant_scenarios())
def test_column_constant_metric_searches_exp_family(scenario):
    # every q^s normalizes back to q, and so does the 0/1 metric on A, so the
    # optimiser searches exp(s*1_A), whose members approach q as s grows, and
    # gets at least q's rate up to rounding: off A, exp(s*1_A) keeps entries 1
    # that a float sum may not drop
    p, ch, q = scenario
    rep, s_star = optimize_metric_exponent(p, ch, q)
    assert rep.r_ps >= achievable_transmission_rate(p, ch, q).r_ps - 1e-12
    on_a = Metric(q.input, q.output, q.q > 0)
    assert rep == achievable_transmission_rate(p, ch, exp_transform(on_a, s_star))


@given(scenarios())
def test_generic_metric_searches_power_family(scenario):
    p, ch, q = scenario
    assume(any(len(set(col[col > 0])) > 1 for col in q.q.T))
    rep, s_star = optimize_metric_exponent(p, ch, q)
    assert rep == achievable_transmission_rate(p, ch, power_transform(q, s_star))


# output 2 never occurs, so a metric column that vanishes there touches no
# pair of positive probability
_W = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])


def _off_support_scenario(rows):
    xs, ys = Alphabet((0, 1)), Alphabet((0, 1, 2))
    return Pmf(xs, np.array([0.6, 0.4])), Dmc(xs, ys, _W), Metric(xs, ys, np.array(rows))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family, rows, s, why", [
    ("power", [[4.0, 0.5, 1.0], [0.5, 1.0, 1.0]], 1e3, "metric entries must be finite"),
    ("exp", [[1.0, 0.5, 1.0], [0.5, 1.0, 1.0]], 701.0, "exponential transform overflows"),
])
def test_refused_members_are_minus_inf(family, rows, s, why):
    # the members the Metric path refuses: an entry that overflows to inf,
    # and exp(s*q) past its cap
    p, ch, q = _off_support_scenario(rows)
    with pytest.raises(ValueError, match=why):
        _TRANSFORMS[family](q, s)
    assert _shaped_rate_objective(p, ch, q, _TRANSFORMS[family])(s) == -math.inf


def test_off_support_underflow_member_is_finite():
    # column 2 of q^1000 underflows to 0, but output 2 never occurs: the
    # member costs what its other columns cost
    p, ch, q = _off_support_scenario([[1.0, 0.5, 0.25], [0.5, 1.0, 0.25]])
    member = power_transform(q, 1e3)
    assert not member.q[:, 2].any()
    pre_clamp = achievable_transmission_rate(p, ch, member).r_ps_by_perspective[0]
    assert math.isfinite(pre_clamp)
    assert _shaped_rate_objective(p, ch, q, power_transform)(1e3) == pre_clamp
