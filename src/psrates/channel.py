"""Discrete memoryless channels in matrix form.

Continuous-output channels are reduced to a finite output grid before any
rate computation; the discretization error is caller-controllable through
the grid spec and testable by refinement.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Alphabet, Pmf, _frozen_array


@dataclass(frozen=True)
class Dmc:
    """Discrete memoryless channel p(y|x) as a row-stochastic matrix."""

    input: Alphabet
    output: Alphabet
    w: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (len(self.input), len(self.output))
        w = _frozen_array(self.w, shape, "channel probabilities", normalize=True)
        object.__setattr__(self, "w", w)

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            Alphabet.from_json_dict(d["input"]),
            Alphabet.from_json_dict(d["output"]),
            np.asarray(d["rows"], dtype=float),
        )


@dataclass(frozen=True)
class GridSpec:
    """Output quantization grid: cell count and span in noise sigmas."""

    cells: int = 512
    span: float = 8.0

    def __post_init__(self):
        if self.cells < 64:
            raise ValueError("grid must have at least 64 cells")
        if not 6 <= self.span < math.inf:
            raise ValueError(f"grid span must be finite and at least 6 sigmas, got {self.span}")


def mary_symmetric(M, eps):
    """M-ary symmetric channel: stay with 1-eps, move with eps/(M-1) each.

    For M=2 this is the binary symmetric channel.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    alpha = Alphabet(tuple(range(M)))
    w = np.full((M, M), eps / (M - 1))
    np.fill_diagonal(w, 1 - eps)
    return Dmc(alpha, alpha, w)


def bsc(eps):
    """Binary symmetric channel with crossover probability eps."""
    return mary_symmetric(2, eps)


def awgn_quantized(constellation, noise_sigma, grid=GridSpec()):
    """Gaussian-noise channel on a real constellation, output on a cell grid.

    Cell probabilities are CDF differences at the cell edges; the two tail
    masses are folded into the edge cells so every row sums to one. The CDF
    at each edge is 0.5 * (1 + math.erf(t)) with t = (edge - point) / sigma /
    sqrt(2), computed elementwise, so a value does not depend on how the grid
    is batched.
    """
    if constellation.signal_points is None:
        raise ValueError("constellation must carry signal points")
    if not 0 < noise_sigma < math.inf:
        raise ValueError(f"noise sigma must be positive and finite, got {noise_sigma}")
    pts = np.asarray(constellation.signal_points)
    lo = pts.min() - grid.span * noise_sigma
    hi = pts.max() + grid.span * noise_sigma
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"output grid [{lo}, {hi}] is degenerate or not finite")
    edges = np.linspace(lo, hi, grid.cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    t = edges - pts[:, None]
    t /= noise_sigma
    t /= math.sqrt(2)
    cdf = np.fromiter(map(math.erf, t.flat), float, t.size).reshape(t.shape)
    cdf += 1
    cdf *= 0.5
    w = np.diff(cdf, axis=1)
    w[:, 0] += cdf[:, 0]
    w[:, -1] += 1 - cdf[:, -1]
    mids = mids.tolist()
    out = Alphabet(mids, signal_points=mids)
    return Dmc(constellation, out, w / w.sum(axis=1, keepdims=True))


def ask_constellation(M, labeling="gray"):
    """M-ASK constellation {+-1, +-3, ...} with Gray or natural bit labels."""
    m = int(round(math.log2(M)))
    if 2 ** m != M:
        raise ValueError("M must be a power of 2")
    pts = tuple(float(2 * i - M + 1) for i in range(M))
    if labeling == "gray":
        labels = tuple(format(i ^ (i >> 1), f"0{m}b") for i in range(M))
    elif labeling == "natural":
        labels = tuple(format(i, f"0{m}b") for i in range(M))
    else:
        raise ValueError(f"unknown labeling {labeling!r}")
    return Alphabet(pts, labels=labels, signal_points=pts)


def maxwell_boltzmann_pmf(alphabet, lam):
    """Shaped distribution p(x) proportional to exp(-lam * x^2).

    Raises ValueError unless the weights are finite and not all zero.
    """
    if alphabet.signal_points is None:
        raise ValueError("alphabet must carry signal points")
    pts = np.asarray(alphabet.signal_points)
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.exp(-lam * pts ** 2)
        total = p.sum()
    if not 0 < total < math.inf:
        raise ValueError(f"lambda {lam}: Maxwell-Boltzmann weights must be finite and not all 0")
    return Pmf(alphabet, p / total)


def posterior(p_x, ch):
    """Posterior matrix P(x|y), one column per output symbol.

    Columns for unreachable outputs (zero output probability) are zero and
    must be excluded from expectations by the caller.
    """
    joint = _joint(p_x, ch)
    p_y = joint.sum(axis=0)
    post = np.zeros_like(joint)
    reach = p_y > 0
    post[:, reach] = joint[:, reach] / p_y[reach]
    return post


def bit_marginal(p_labels, ch, j):
    """Marginal bit distribution and bit-conditional channel for level j.

    Returns (P_Bj as a Pmf on {0,1}, Dmc from {0,1} to the channel output).
    A bit value of probability 0 keeps its 0 in P_Bj and gets a uniform
    channel row, as a zero-mass input does in icm_mixture.
    """
    bits = ch.input.bits(j)
    _check_input(p_labels, ch)
    binary = Alphabet((0, 1), labels=("0", "1"))
    pb = np.array([p_labels.probs[bits == a].sum() for a in (0, 1)])
    wb = np.full((2, len(ch.output)), 1.0 / len(ch.output))
    for a in np.flatnonzero(pb):
        sel = bits == a
        wb[a] = (p_labels.probs[sel, None] / pb[a] * ch.w[sel]).sum(axis=0)
    return Pmf(binary, pb), Dmc(binary, ch.output, wb)


def product_alphabet(base, m):
    """m-fold product alphabet with tuple symbols, lexicographic order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return Alphabet(tuple(itertools.product(base.symbols, repeat=m)))


def _product_base(alphabet):
    """Base alphabet of an m-fold tuple-symbol product alphabet."""
    first = alphabet.symbols[0]
    if not isinstance(first, tuple):
        raise ValueError("not a product alphabet (symbols are not tuples)")
    m = len(first)
    base = sorted({s[0] for s in alphabet.symbols})
    expected = tuple(itertools.product(base, repeat=m))
    if tuple(alphabet.symbols) != expected:
        raise ValueError("product alphabet must enumerate all tuples lexicographically")
    return Alphabet(tuple(base)), m


def icm_mixture(p_vec, ch_vec):
    """Time-averaged scalar (input, channel) pair of a vector channel.

    The vector input and output alphabets must be m-fold products. The
    result is the distribution and channel law of (X_I, Y_I) with I uniform
    over positions, which is the scalar pair seen by an interleaved decoder.
    """
    joint = _joint(p_vec, ch_vec)
    in_base, m = _product_base(ch_vec.input)
    out_base, m_out = _product_base(ch_vec.output)
    if m_out != m:
        raise ValueError("input and output products must have the same length")
    nx, ny = len(in_base), len(out_base)
    # lexicographic product order makes axis j the j-th tuple position
    joint = joint.reshape((nx,) * m + (ny,) * m)
    mix = sum(
        joint.sum(axis=tuple(k for k in range(2 * m) if k not in (j, m + j)))
        for j in range(m)
    ) / m
    p_x = mix.sum(axis=1)
    w = np.full((nx, ny), 1.0 / ny)
    pos = p_x > 0
    w[pos] = mix[pos] / p_x[pos, None]
    return Pmf(in_base, p_x), Dmc(in_base, out_base, w)


def _check_input(p_x, ch):
    if p_x.alphabet.symbols != ch.input.symbols:
        raise ValueError("input distribution is not on the channel input alphabet")


def _joint(p_x, ch):
    """Joint P_X(x) W(y|x) as an |X| x |Y| array, after the alphabet check."""
    _check_input(p_x, ch)
    return p_x.probs[:, None] * ch.w
