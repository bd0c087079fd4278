"""Closed-form achievable rates for shaped codebooks under a decoding metric.

Everything here is an exact finite sum over input x output; sampling-based
estimators live in the empirical module. All rates are in bits per symbol.
The [.]^+ clamp is applied last and the unclamped values are kept on the
report so identity tests can run pre-clamp.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import _joint, _product_base, bit_marginal, icm_mixture
from .core import binary_entropy, entropy
from .metric import exp_transform, power_transform

PERSPECTIVE_TOL = 1e-10

# Log-spaced grid points and golden-section steps of the s-maximizer.
GRID_POINTS = 64
REFINE_ITERS = 40


@dataclass(frozen=True)
class RateReport:
    """All rate quantities for one (input, channel, metric) triple."""

    uncertainty: float
    t_c: float
    divergence_to_uniform: float
    r_ps: float
    r_ps_by_perspective: tuple
    clamped: bool

    def to_json_dict(self):
        return {
            "uncertainty": self.uncertainty,
            "t_c": self.t_c,
            "divergence_to_uniform": self.divergence_to_uniform,
            "r_ps": self.r_ps,
            "r_ps_uncertainty_perspective": self.r_ps_by_perspective[0],
            "r_ps_divergence_perspective": self.r_ps_by_perspective[1],
            "r_ps_output_perspective": self.r_ps_by_perspective[2],
            "clamped": self.clamped,
        }


def _check_metric(ch, q):
    if q.input.symbols != ch.input.symbols or q.output.symbols != ch.output.symbols:
        raise ValueError("metric alphabets do not match the channel")


def uncertainty(p_x, ch, q):
    """Expected -log2 of the metric-induced posterior at the true input.

    Equals the conditional cross-entropy between the true posterior and the
    decoder's assumed posterior; +inf if the metric vanishes on a pair that
    occurs with positive probability.
    """
    _check_metric(ch, q)
    joint = _joint(p_x, ch)
    mask = joint > 0
    if np.any(q.q[mask] == 0):
        return math.inf
    denom = q.q.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask, q.q / denom, 1.0)
        return float(-(joint[mask] * np.log2(ratio[mask])).sum())


def achievable_transmission_rate(p_x, ch, q):
    """Full rate report, with the three perspectives evaluated independently."""
    _check_metric(ch, q)
    nx = len(p_x.alphabet)
    h_x = entropy(p_x)
    div = math.log2(nx) - h_x
    u = uncertainty(p_x, ch, q)
    if math.isinf(u):
        pre = -math.inf
        report = RateReport(u, -math.inf, div, 0.0, (pre, pre, pre), True)
        return report
    t_c = math.log2(nx) - u
    joint = _joint(p_x, ch)
    mask = joint > 0
    denom = q.q.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # divergence perspective: expected log of q over the uniform-mixture
        # normalizer, minus D(P_X || P_U)
        large_code = float(
            (joint[mask] * np.log2(nx * q.q / denom)[mask]).sum()
        ) - div
        # output perspective: q reweighted by 1/P_X(X)
        inv_p = np.where(p_x.probs > 0, 1.0 / np.where(p_x.probs > 0, p_x.probs, 1.0), 1.0)
        out_term = (q.q * inv_p[:, None]) / denom
        out_persp = float((joint[mask] * np.log2(out_term[mask])).sum())
    perspectives = (h_x - u, large_code, out_persp)
    spread = max(perspectives) - min(perspectives)
    if spread > PERSPECTIVE_TOL * max(1.0, abs(perspectives[0])):
        raise AssertionError(f"rate perspectives disagree by {spread}")
    pre = perspectives[0]
    return RateReport(u, t_c, div, max(0.0, pre), perspectives, pre < 0)


def conditional_entropy(p_x, ch):
    """H(X|Y) of the joint induced by the input distribution and channel."""
    joint = _joint(p_x, ch)
    p_y = joint.sum(axis=0)
    mask = joint > 0
    return float(-(joint[mask] * np.log2((joint / np.where(p_y > 0, p_y, 1.0))[mask])).sum())


def mutual_information(p_x, ch):
    """I(X;Y) = H(X) - H(X|Y) in bits."""
    return max(0.0, entropy(p_x) - conditional_entropy(p_x, ch))


@dataclass(frozen=True)
class BmdReport:
    """Bit-metric decoding rates on a labeled alphabet."""

    r_bmd: float
    abc_rate: float
    level_cond_entropies: tuple
    sum_level_mi: float


def bmd_rate(p_labels, ch):
    """BMD rate [H(B) - sum_j H(B_j|Y)]^+ and the per-bit ABC rate.

    When the bit levels are independent the pre-clamp BMD rate equals the
    sum of per-level mutual informations, which is asserted.
    """
    m = ch.input.label_length
    h_b = entropy(p_labels)
    cond, mi_sum = [], 0.0
    level_pmfs = []
    for j in range(1, m + 1):
        pb, chb = bit_marginal(p_labels, ch, j)
        h_cond = conditional_entropy(pb, chb)
        cond.append(h_cond)
        mi_sum += entropy(pb) - h_cond
        level_pmfs.append(pb)
    pre = h_b - sum(cond)
    # independence check: joint label pmf factorizes over levels
    prod = np.ones(len(ch.input))
    for j, pb in enumerate(level_pmfs, start=1):
        prod *= pb.probs[ch.input.bits(j)]
    if np.allclose(prod, p_labels.probs, atol=1e-12):
        if abs(pre - mi_sum) > 1e-9:
            raise AssertionError("independent-level BMD identity violated")
    abc = 1.0 - sum(cond) / m
    return BmdReport(max(0.0, pre), abc, tuple(cond), mi_sum)


def icm_rate(p_vec, ch_vec):
    """Interleaved coded modulation rate [H(X-vector) - m H(X|Y)]^+ using
    the time-averaged scalar mixture pair."""
    _, m = _product_base(ch_vec.input)
    p_mix, ch_mix = icm_mixture(p_vec, ch_vec)
    return max(0.0, entropy(p_vec) - m * conditional_entropy(p_mix, ch_mix))


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


def _maximize_log_s(f, s_min, s_max):
    """Maximizer of f over [s_min, s_max], which need not be unimodal.

    Evaluates f on a log-spaced grid, then refines around the best grid
    point by golden-section search in log s, for relative accuracy.
    """
    if not 0 < s_min < s_max:
        raise ValueError("need 0 < s_min < s_max")
    grid = np.logspace(math.log10(s_min), math.log10(s_max), GRID_POINTS)
    i = int(np.argmax([f(s) for s in grid]))
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, GRID_POINTS - 1)])
    invphi = (math.sqrt(5) - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(REFINE_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(math.exp(d))
    return math.exp((a + b) / 2)


def gmi(p_x, ch, q, s_min=1e-3, s_max=1e3):
    """Generalized mutual information: maximize the s-family over a bracket.

    The maximizer is the shared log-grid plus golden-section search, followed
    by one parabolic step around the flat maximum. Returns (rate, maximizing
    s); raises ValueError unless 0 < s_min < s_max.
    """
    _check_metric(ch, q)
    f = lambda s: _gmi_integrand(p_x, ch, q, s)
    s_star = _maximize_log_s(f, s_min, s_max)
    h = 1e-4 * s_star
    f0, fm, fp = f(s_star), f(s_star - h), f(s_star + h)
    denom = fm - 2 * f0 + fp
    if denom < 0:
        step = 0.5 * h * (fm - fp) / denom
        if abs(step) < h:
            s_star += step
    return f(s_star), s_star


def lm_rate(p_x, ch, q, s, r):
    """LM-rate with exponent s and per-symbol weights r, clamped at zero.

    With s=1, r=1/P_X and full support this reproduces the shaped rate.
    """
    if s <= 0:
        raise ValueError("exponent must be positive")
    _check_metric(ch, q)
    r = np.asarray(r, dtype=float)
    supp = p_x.probs > 0
    if np.any(r[supp] <= 0):
        raise ValueError("weights must be positive on the support")
    joint = _joint(p_x, ch)
    mask = joint > 0
    if np.any(q.q[mask] == 0):
        return 0.0
    qs = q.q ** s
    denom = (p_x.probs[supp, None] * qs[supp] * r[supp, None]).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # denom is 0 only off the mask
        term = np.where(mask, qs * r[:, None] / denom, 1.0)
    return max(0.0, float((joint[mask] * np.log2(term[mask])).sum()))


def hard_decision_rate(p_x, ch, quant):
    """Rate of quantize-then-Hamming decoding, via the symbol error rate.

    Returns (rate, eps, optimal_exp_scale) where optimal_exp_scale is the
    e^s that makes the exponential Hamming family attain the rate (+inf for
    a noiseless quantizer).
    """
    idx = ch.input.indices(quant.targets)
    correct = float(_joint(p_x, ch)[idx, np.arange(len(idx))].sum())
    eps = 1.0 - correct
    eps = min(max(eps, 0.0), 1.0)
    if eps >= 1:
        raise ValueError("quantizer is always wrong (eps = 1)")
    nx = len(ch.input)
    penalty = binary_entropy(eps) + (eps * math.log2(nx - 1) if nx > 1 else 0.0)
    rate = max(0.0, entropy(p_x) - penalty)
    scale = math.inf if eps == 0 else (nx - 1) * (1 - eps) / eps
    return float(rate), float(eps), float(scale)


def binary_hard_decision_rate(p_labels, ch, quants):
    """Per-level binary quantization rate [H(B) - m*H2(eps)]^+.

    eps is the level-averaged bit error probability Pr(B != B-hat); the
    returned tuple is (rate, eps).
    """
    m = ch.input.label_length
    if len(quants) != m:
        raise ValueError(f"need {m} quantizers, got {len(quants)}")
    eps_sum = 0.0
    for j, quant in enumerate(quants, start=1):
        pb, chb = bit_marginal(p_labels, ch, j)
        decisions = pb.alphabet.indices(quant.targets)
        for a in (0, 1):
            eps_sum += pb.probs[a] * chb.w[a, decisions != a].sum()
    eps = eps_sum / m
    rate = max(0.0, entropy(p_labels) - m * binary_entropy(eps))
    return rate, eps


def t_c_epsilon_lower_bound(p_x, ch, q, eps_typ):
    """Achievable code rate for any codeword in the eps-typical shaping set:
    the exact-composition value minus the typicality correction term."""
    if not 0 <= eps_typ < math.inf:
        raise ValueError(f"typicality tolerance must be finite and non-negative, got {eps_typ}")
    _check_metric(ch, q)
    mask = _joint(p_x, ch) > 0
    if np.any(q.q[mask] == 0):
        return -math.inf
    denom = q.q.sum(axis=0) / len(p_x.alphabet)
    with np.errstate(divide="ignore"):
        log_ratio = np.where(mask, np.log2(q.q / denom), 0.0)
    # e[a]: expected log-ratio given input a; rows outside the support give 0
    e = (ch.w * log_ratio).sum(axis=1)
    return float(p_x.probs @ e - eps_typ * (p_x.probs @ np.abs(e)))


def optimize_metric_exponent(p_x, ch, q, family="power", s_min=1e-3, s_max=1e3):
    """Maximize the shaped rate over the order-preserving s-family of q.

    family "power" sweeps q^s, family "exp" sweeps exp(s*q) (the right
    family for 0/1 Hamming metrics, which the power map leaves unchanged).
    Returns (RateReport at the best s, s_star); raises ValueError unless
    0 < s_min < s_max after the exp family's overflow cap on s_max.
    """
    if family == "power":
        make = lambda s: power_transform(q, s)
    elif family == "exp":
        make = lambda s: exp_transform(q, s)
        s_max = min(s_max, 650.0 / max(float(q.q.max()), 1e-300))
    else:
        raise ValueError(f"unknown family {family!r}")

    def pre_clamp(s):
        try:
            rep = achievable_transmission_rate(p_x, ch, make(s))
        except ValueError:
            return -math.inf
        return rep.r_ps_by_perspective[0]

    s_star = _maximize_log_s(pre_clamp, s_min, s_max)
    return achievable_transmission_rate(p_x, ch, make(s_star)), s_star
