"""Decoding metrics on X x Y and their order-preserving transformations.

A metric is any non-negative score matrix with positive column sums. The
per-output normalization q(.,b)/sum_a q(a,b) plays the role of the posterior
distribution the decoder assumes, so zero columns are construction errors.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import _joint, posterior
from .core import Alphabet, _frozen_array


@dataclass(frozen=True)
class Metric:
    """Non-negative decoding metric q on input x output."""

    input: Alphabet
    output: Alphabet
    q: np.ndarray = field(repr=False)

    def __post_init__(self):
        q = _frozen_array(self.q, (len(self.input), len(self.output)), "metric entries")
        if np.any(q.sum(axis=0) <= 0):
            raise ValueError("every metric column needs a positive entry")
        object.__setattr__(self, "q", q)

    def log2_q(self):
        """Entrywise log2 of the metric, -inf at zeros; used by decoders."""
        with np.errstate(divide="ignore"):
            return np.log2(self.q)

    def column_argmax(self):
        """Set of maximizing input indices per output column."""
        return [frozenset(np.flatnonzero(col == col.max())) for col in self.q.T]

    def to_json_dict(self):
        return {
            "input": self.input.to_json_dict(),
            "output": self.output.to_json_dict(),
            "rows": [list(r) for r in self.q],
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            Alphabet.from_json_dict(d["input"]),
            Alphabet.from_json_dict(d["output"]),
            np.asarray(d["rows"], dtype=float),
        )


@dataclass(frozen=True)
class Quantizer:
    """Total map from output symbols to target symbols (decision regions)."""

    output: Alphabet
    targets: tuple

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if len(self.targets) != len(self.output):
            raise ValueError("need one target per output symbol")


def posterior_metric(p_x, ch, scaled=False):
    """Posterior P(x|y) as decoding metric; optionally scaled by P(y).

    The scaled variant is equivalent (the output factor cancels in the
    per-column normalization).
    """
    post = posterior(p_x, ch)
    if scaled:
        p_y = p_x.probs @ ch.w
        post = post * p_y
    # unreachable outputs have zero columns; score them uniformly
    dead = post.sum(axis=0) == 0
    post[:, dead] = 1.0 / len(ch.input)
    return Metric(ch.input, ch.output, post)


def likelihood_metric(ch):
    """Channel law itself as decoding metric, q(a,b) = p(b|a)."""
    return Metric(ch.input, ch.output, ch.w)


def power_transform(q, s):
    """Entrywise power q^s, order-preserving for s > 0."""
    if s <= 0:
        raise ValueError("power exponent must be positive")
    # 0^s = 0; skipping the zeros matters because pow is slow on them and
    # quantized-channel metrics are mostly zeros
    pos = q.q > 0
    qs = np.zeros(q.q.shape)
    qs[pos] = q.q[pos] ** s
    return Metric(q.input, q.output, qs)


def exp_transform(q, s):
    """Entrywise exp(s*q), order-preserving for s > 0."""
    if s <= 0:
        raise ValueError("exponential scale must be positive")
    scaled = s * q.q
    if scaled.max() > 700:
        raise ValueError("exponential transform overflows (s too large)")
    return Metric(q.input, q.output, np.exp(scaled))


def bit_metric_product(per_level, input_alphabet, output_alphabet):
    """Product bit-metric q(symbol, y) = prod_j q_j(bit_j(symbol), y).

    per_level is a list of 2 x |Y| arrays (or binary-input Metrics) over a
    common output alphabet; the input alphabet must carry m-bit labels.
    """
    m = input_alphabet.label_length
    if len(per_level) != m:
        raise ValueError(f"need {m} level metrics, got {len(per_level)}")
    q = np.ones((len(input_alphabet), len(output_alphabet)))
    for j, lvl in enumerate(per_level, start=1):
        arr = np.asarray(lvl.q if isinstance(lvl, Metric) else lvl, dtype=float)
        if arr.shape != (2, len(output_alphabet)):
            raise ValueError("each level metric must be 2 x |Y|")
        q *= arr[input_alphabet.bits(j)]
    return Metric(input_alphabet, output_alphabet, q)


def hard_decision_metric(quant, target):
    """Hamming indicator metric: 1 where the quantizer decides the symbol."""
    idx = target.indices(quant.targets)
    q = np.zeros((len(target), len(quant.output)))
    q[idx, np.arange(len(quant.output))] = 1.0
    return Metric(target, quant.output, q)


def map_quantizer(p_x, ch):
    """Maximum a posteriori decision regions; ties go to the lowest index."""
    decisions = _joint(p_x, ch).argmax(axis=0)
    return Quantizer(ch.output, tuple(ch.input.symbols[i] for i in decisions))


def metric_switch(q, p_x, s):
    """Reweight q by P(x)^(1/s), turning a classical-decoder metric into one
    whose shaped-codebook rate at exponent s reproduces the GMI."""
    if s <= 0:
        raise ValueError("exponent must be positive")
    if p_x.alphabet.symbols != q.input.symbols:
        raise ValueError("input distribution is not on the metric input alphabet")
    return Metric(q.input, q.output, q.q * p_x.probs[:, None] ** (1.0 / s))
