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
from .core import NumericalCheckError, binary_entropy, entropy
from .metric import Metric, _check_exponent, exp_transform, power_transform

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


def _check_quantizer(ch, quant):
    if quant.output.symbols != ch.output.symbols:
        raise ValueError("quantizer output alphabet is not the channel output alphabet")


def _masked(values, mask):
    """values broadcast to the shape of mask, at the entries of mask in
    row-major order (a row of per-column or a column of per-row values)."""
    return np.broadcast_to(values, mask.shape)[mask]


class _Scenario:
    """What every rate of one (P_X, channel) pair shares across metrics:
    the support of the joint P_X.W, the joint on it (row-major), |X|, H(X)
    and D(P_X || P_U).
    """

    def __init__(self, p_x, ch):
        joint = _joint(p_x, ch)
        self.mask = joint > 0
        self.joint = joint[self.mask]
        self.nx = len(p_x.alphabet)
        self.h_x = entropy(p_x)
        self.div = math.log2(self.nx) - self.h_x

    def on_support(self, qs):
        """qs on the support (row-major), or None if it vanishes there."""
        qm = qs[self.mask]
        return None if np.any(qm == 0) else qm

    def uncertainty(self, qs):
        """(U, qs on the support, its column sums there) for the metric
        entries qs; U is +inf and the arrays None if qs vanishes there."""
        qm = self.on_support(qs)
        if qm is None:
            return math.inf, None, None
        denom = _masked(qs.sum(axis=0), self.mask)
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(-(self.joint * np.log2(qm / denom)).sum()), qm, denom


def uncertainty(p_x, ch, q):
    """Expected -log2 of the metric-induced posterior at the true input.

    Equals the conditional cross-entropy between the true posterior and the
    decoder's assumed posterior; +inf if the metric vanishes on a pair that
    occurs with positive probability.
    """
    _check_metric(ch, q)
    return _Scenario(p_x, ch).uncertainty(q.q)[0]


def achievable_transmission_rate(p_x, ch, q):
    """Full rate report. The three pre-clamp forms of R_ps are evaluated
    independently and must agree within PERSPECTIVE_TOL, else
    NumericalCheckError; all three are -inf when U is infinite.
    """
    _check_metric(ch, q)
    sc = _Scenario(p_x, ch)
    u, qm, denom = sc.uncertainty(q.q)
    forms = (-math.inf,) * 3
    if not math.isinf(u):
        inv_p = _masked(1.0 / np.where(p_x.probs > 0, p_x.probs, 1.0)[:, None], sc.mask)
        with np.errstate(divide="ignore", invalid="ignore"):
            # divergence perspective: expected log of q over the
            # uniform-mixture normalizer, minus D(P_X || P_U)
            large_code = float((sc.joint * np.log2(sc.nx * qm / denom)).sum()) - sc.div
            # output perspective: q reweighted by 1/P_X(X)
            out_persp = float((sc.joint * np.log2(qm * inv_p / denom)).sum())
        forms = (sc.h_x - u, large_code, out_persp)
        spread = max(forms) - min(forms)
        if spread > PERSPECTIVE_TOL * max(1.0, abs(forms[0])):
            raise NumericalCheckError(f"rate perspectives disagree by {spread}")
    return RateReport(u, math.log2(sc.nx) - u, sc.div, max(0.0, forms[0]), forms, forms[0] < 0)


def conditional_entropy(p_x, ch):
    """H(X|Y) of the joint induced by the input distribution and channel:
    the uncertainty of the joint P_X.W taken as the metric."""
    return _Scenario(p_x, ch).uncertainty(_joint(p_x, ch))[0]


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
            raise NumericalCheckError("independent-level BMD identity violated")
    abc = 1.0 - sum(cond) / m
    return BmdReport(max(0.0, pre), abc, tuple(cond), mi_sum)


def icm_rate(p_vec, ch_vec):
    """Interleaved coded modulation rate [H(X-vector) - m H(X|Y)]^+ using
    the time-averaged scalar mixture pair."""
    _, m = _product_base(ch_vec.input)
    p_mix, ch_mix = icm_mixture(p_vec, ch_vec)
    return max(0.0, entropy(p_vec) - m * conditional_entropy(p_mix, ch_mix))


def _maximize_log_s(f, s_min, s_max):
    """Maximizer of f over [s_min, s_max], which need not be unimodal.

    Evaluates f on a log-spaced grid, then refines around the best grid
    point by golden-section search in log s, for relative accuracy.
    """
    if not 0 < s_min < s_max < math.inf:
        raise ValueError(f"need 0 < s_min < s_max < inf, got s_min={s_min}, s_max={s_max}")
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


def _lm_objective(p_x, ch, q, r=1.0):
    """s -> E[log2 r(X) q(X,Y)^s / sum_a P(a) r(a) q(a,Y)^s], computed in
    log domain; r = 1 gives the GMI's s-family.

    log q, log P_X + log r, E[log r(X)] and the test whether q vanishes on
    the support (then the value is -inf at every s) are computed here, once.
    Each call exponentiates only the entries where q > 0 and P_X > 0;
    elsewhere s log q + log P_X is -inf and adds 0 to the log-sum-exp.
    """
    _check_metric(ch, q)
    sc = _Scenario(p_x, ch)
    q_m = sc.on_support(q.q)
    if q_m is None:
        return lambda s: -math.inf
    supp = p_x.probs > 0
    # log 1 is an exact 0, so r = 1 leaves every sum below bit-identical
    lr = np.log(np.where(supp, r, 1.0))
    e_lr = float((sc.joint * _masked(lr[:, None], sc.mask)).sum())
    lq_m = np.log(q_m)
    live = (q.q > 0) & supp[:, None]
    lq = np.log(q.q[live])
    lp = _masked((np.log(np.where(supp, p_x.probs, 1.0)) + lr)[:, None], live)

    def f(s):
        # at huge s, s log q overflows to -inf, and so does f, correctly
        with np.errstate(over="ignore"):
            t = s * lq + lp
            s_lq_m = s * lq_m
        t_all = np.full(q.q.shape, -np.inf)
        t_all[live] = t
        tmax = t_all.max(axis=0)
        e = np.zeros(q.q.shape)
        e[live] = np.exp(t - _masked(tmax, live))
        # a column with no such entry sums to 0; it lies off the support
        with np.errstate(divide="ignore"):
            lse = tmax + np.log(e.sum(axis=0))
        return float(((sc.joint * (s_lq_m - _masked(lse, sc.mask))).sum() + e_lr) / math.log(2))

    return f


def gmi(p_x, ch, q, s_min=1e-3, s_max=1e3):
    """Generalized mutual information: maximize the s-family over a bracket.

    The maximizer is the shared log-grid plus golden-section search, followed
    by one parabolic step around the flat maximum. log q, log P_X and the
    joint on its support are computed once per call; each evaluation forms
    only the s-dependent log-sum-exp. Returns (rate, maximizing s); raises
    ValueError unless 0 < s_min < s_max < inf.
    """
    f = _lm_objective(p_x, ch, q)
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
    """LM-rate with exponent s and per-symbol weights r, clamped at zero:
    the GMI's s-family with r(X) in the numerator and P(a) r(a) weights in
    the normalizer. With s=1, r=1/P_X and full support this reproduces the
    shaped rate. r holds one weight per input symbol; s and the weights on
    the support of P_X must be finite and positive.
    """
    _check_exponent(s)
    r = np.asarray(r, dtype=float)
    if r.shape != (len(ch.input),):
        raise ValueError(f"weights must have shape ({len(ch.input)},), got {r.shape}")
    r_supp = r[p_x.probs > 0]
    if not np.all((r_supp > 0) & (r_supp < math.inf)):
        raise ValueError("weights must be finite and positive on the support")
    return max(0.0, _lm_objective(p_x, ch, q, r)(s))


def hard_decision_rate(p_x, ch, quant):
    """Rate of quantize-then-Hamming decoding, via the symbol error rate.

    Returns (rate, eps, optimal_exp_scale) where optimal_exp_scale is the
    e^s that makes the exponential Hamming family attain the rate (+inf for
    a noiseless quantizer). quant must be on ch's output alphabet.
    """
    _check_quantizer(ch, quant)
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
    returned tuple is (rate, eps). Each quantizer must be on ch's output
    alphabet.
    """
    m = ch.input.label_length
    if len(quants) != m:
        raise ValueError(f"need {m} quantizers, got {len(quants)}")
    eps_sum = 0.0
    for j, quant in enumerate(quants, start=1):
        _check_quantizer(ch, quant)
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
    sc = _Scenario(p_x, ch)
    if sc.on_support(q.q) is None:
        return -math.inf
    log_ratio = np.where(sc.mask, q.log2_ratio(), 0.0)
    # e[a]: expected log-ratio given input a; rows outside the support give 0
    e = (ch.w * log_ratio).sum(axis=1)
    return float(p_x.probs @ e - eps_typ * (p_x.probs @ np.abs(e)))


def _shaped_rate_objective(p_x, ch, q, make):
    """s -> pre-clamp R_ps = H(X) - U of make(q, s), -inf where make
    refuses it. The joint on its support and H(X) are computed here, once;
    each call builds the member and evaluates its uncertainty.
    """
    _check_metric(ch, q)
    sc = _Scenario(p_x, ch)

    def f(s):
        try:
            qs = make(q, s)
        except ValueError:
            return -math.inf
        return sc.h_x - sc.uncertainty(qs.q)[0]

    return f


def optimize_metric_exponent(p_x, ch, q, s_min=1e-3, s_max=1e3):
    """Maximize the shaped rate over the order-preserving s-family of q. Where
    the positive entries of q are equal within every column (0/1 Hamming
    metrics; any metric of a noiseless channel), every q^s normalizes to q and
    1[q > 0]; the family is then exp(s*1[q > 0]) up to s = 650, else q^s.
    The scenario's invariants are computed once per call, and the search
    evaluates only the uncertainty form of R_ps; the three forms are checked
    against each other once, on the reported point. Returns
    (RateReport at the best s, s_star); raises ValueError unless
    0 < s_min < s_max < inf after the cap.
    """
    if np.all((q.q == 0) | (q.q == q.q.max(axis=0))):
        q = Metric(q.input, q.output, q.q > 0)
        make, s_max = exp_transform, min(s_max, 650.0)
    else:
        make = power_transform
    s_star = _maximize_log_s(_shaped_rate_objective(p_x, ch, q, make), s_min, s_max)
    return achievable_transmission_rate(p_x, ch, make(q, s_star)), s_star
