"""Per-sequence empirical achievable code rate and its Monte-Carlo estimate.

All randomness is drawn from numpy's default PCG64 generator; trial streams
are derived from (seed, trial index) so runs are reproducible and the result
does not depend on execution order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import _check_input
from .core import NumericalCheckError
from .rates import _check_metric
from .typicality import _check_block_length

# Buckets of the guide table that _IidDraw looks uniforms up in.
_GUIDE_BUCKETS = 1 << 16
# Draws per block of _IidDraw's uniforms and bucket indices; a smaller block
# saves memory, but its extra calls cost time while another simulator worker
# holds the GIL.
_IID_BLOCK = 1 << 16


@dataclass(frozen=True)
class SequencePair:
    """Transmitted input sequence and observed output sequence."""

    x_seq: tuple
    y_seq: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_seq", tuple(self.x_seq))
        object.__setattr__(self, "y_seq", tuple(self.y_seq))
        if len(self.x_seq) != len(self.y_seq):
            raise ValueError("input and output sequences must have equal length")
        if len(self.x_seq) == 0:
            raise ValueError("sequences must be non-empty")


def _per_term_rates(pair, q):
    """(xi, terms, q_xy, col): the pair's input indices and, at each position
    i, log2 q(x_i,y_i) / (sum_a q(a,y_i)/|X|), q(x_i,y_i) and sum_a q(a,y_i).
    The terms equal q.log2_ratio()[xi, yi] bit for bit: the column sums are
    taken over the whole table, as there, and then gathered."""
    xi = q.input.indices(pair.x_seq)
    yi = q.output.indices(pair.y_seq)
    q_xy, col = q.q[xi, yi], q.q.sum(axis=0)[yi]
    with np.errstate(divide="ignore"):
        terms = np.log2(q_xy) - np.log2(col / len(q.input))
    return xi, terms, q_xy, col


def empirical_code_rate(pair, q):
    """Empirical achievable code rate of one (x, y) pair in bits per symbol.

    -inf when the metric vanishes at some transmitted position. The second
    form log2|X| minus the empirical uncertainty is computed as a
    cross-check.
    """
    _, terms, q_xy, col = _per_term_rates(pair, q)
    t_hat = float(terms.mean())
    if math.isinf(t_hat):
        return t_hat
    # alternative form: log2|X| - mean(-log2 q / sum_a q)
    alt = math.log2(len(q.input)) - float((-np.log2(q_xy / col)).mean())
    if abs(alt - t_hat) > 1e-10 * max(1.0, abs(t_hat)):
        raise NumericalCheckError("empirical code rate forms disagree")
    return t_hat


def composition_sorted_rate(pair, q):
    """Per-input-symbol breakdown {symbol: (frequency, inner average)}.

    The frequency-weighted recombination of the inner averages equals the
    empirical code rate (algebraic identity).
    """
    xi, terms, _, _ = _per_term_rates(pair, q)
    n = len(pair.x_seq)
    out = {}
    for a, symbol in enumerate(q.input.symbols):
        sel = xi == a
        cnt = int(sel.sum())
        if cnt:
            out[symbol] = (cnt / n, float(terms[sel].mean()))
    return out


def exact_composition_sequence(p_x, n, rng):
    """Random permutation of the largest-remainder rounding of n * P_X."""
    _check_block_length(n)
    target = p_x.probs * n
    base = np.floor(target).astype(int)
    short = n - base.sum()
    if short:
        order = np.argsort(-(target - base), kind="stable")
        base[order[:short]] += 1
    seq = np.repeat(np.arange(len(p_x.alphabet)), base)
    return rng.permutation(seq)


def sample_channel_outputs(ch, x_idx, rng):
    """Sample output indices for given input indices through the channel.

    Inverse-CDF sampling: one uniform draw per position, located by binary
    search in the cumulative row of its input symbol. The rows never
    decrease, so side="right" returns the number of entries <= u. Cost is
    O(|X| |Y|) for the cumulative rows, built on every call, plus
    O(n log |Y|) and one pass over x_idx per input symbol.
    """
    x_idx = np.asarray(x_idx)
    if x_idx.dtype.kind not in "iu":
        raise ValueError(f"input indices must be integers, got dtype {x_idx.dtype}")
    cum = np.cumsum(ch.w, axis=1)
    if len(x_idx) and not 0 <= x_idx.min() <= x_idx.max() < len(cum):
        raise ValueError("input index out of range")
    u = rng.random(len(x_idx))
    y = np.empty(len(x_idx), dtype=np.intp)
    # not np.unique: it imports numpy.ma on first use, about 1 MB and 0.1 s
    for a in range(len(cum)):
        sel = x_idx == a
        y[sel] = np.searchsorted(cum[a], u[sel], side="right")
    return np.minimum(y, len(ch.output) - 1)


class _IidDraw:
    """Indices drawn i.i.d. from probs: the values rng.choice(len(probs),
    size=m, p=probs) returns, leaving rng where choice leaves it.

    choice computes cdf.searchsorted(rng.random(m), "right"), the number of
    cdf entries <= each uniform. Here the same uniforms, scaled exactly by
    _GUIDE_BUCKETS, take that number from a guide table by their integer
    part; only those in a bucket with a cdf entry inside it are searched.
    The table takes 1 byte per bucket up to 255 symbols and 2 up to 65,535,
    and the uniforms and bucket indices 16 bytes per draw of a block of
    min(size, _IID_BLOCK) draws.
    """

    def __init__(self, probs, size):
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self.scaled = cdf * _GUIDE_BUCKETS
        # for each bucket [b, b + 1), the number of scaled entries <= every
        # point of it, or len(probs) when an entry lies inside it: entry k
        # counts in every bucket from floor(scaled[k]) on, so the last,
        # _GUIDE_BUCKETS, counts in none, and no count reaches len(probs)
        floor = np.floor(self.scaled)
        steps = np.diff(floor.astype(np.intp), prepend=0)
        self.table = np.repeat(np.arange(len(probs), dtype=np.min_scalar_type(len(probs))), steps)
        self.table[floor[floor != self.scaled].astype(np.intp)] = len(probs)
        block = min(size, _IID_BLOCK)
        self.u, self.bucket = np.empty(block), np.empty(block, np.intp)

    def fill(self, rng, out):
        """Fill the contiguous array out, of the table's dtype, with out.size
        draws from rng, block by block; returns out."""
        cells, block = out.reshape(-1), len(self.u)
        for lo in range(0, cells.size, block):
            part = cells[lo:lo + block]
            u, bucket = self.u[:part.size], self.bucket[:part.size]
            rng.random(out=u)
            u *= _GUIDE_BUCKETS
            np.copyto(bucket, u, casting="unsafe")
            self.table.take(bucket, out=part, mode="clip")
            # the bucket indices are spent; their bytes hold the open mask
            open_ = np.flatnonzero(np.equal(part, len(self.scaled),
                                            out=bucket.view(bool)[:part.size]))
            part[open_] = self.scaled.searchsorted(u[open_], "right")
        return out


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    std_error: float


def monte_carlo_t_c(p_x, ch, q, n, trials, rng_seed, composition="iid"):
    """Monte-Carlo estimate of the achievable code rate.

    composition is "iid" (entries drawn from P_X) or "exact" (each codeword
    has the largest-remainder composition of n * P_X, randomly permuted).
    p_x and q must be on ch's alphabets. The standard error is inf for one
    trial; when a trial gives -inf (q vanishes at a sent position) it is 0.0
    if every trial gave the same value and inf otherwise.
    """
    _check_input(p_x, ch)
    _check_metric(ch, q)
    _check_block_length(n)
    if trials < 1:
        raise ValueError("need at least one trial")
    if composition not in ("iid", "exact"):
        raise ValueError(f"unknown composition mode {composition!r}")
    if composition == "iid":
        draw = _IidDraw(p_x.probs, n)
        x = np.empty(n, draw.table.dtype)
    ratio = q.log2_ratio()
    values = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([rng_seed, t])
        if composition == "iid":
            draw.fill(rng, x)
        else:
            x = exact_composition_sequence(p_x, n, rng)
        y = sample_channel_outputs(ch, x, rng)
        values[t] = ratio[x, y].mean()
    mean = float(values.mean())
    if trials < 2 or not np.isfinite(values).all():
        agree = trials > 1 and (values == values[0]).all()
        return MonteCarloResult(mean, 0.0 if agree else math.inf)
    return MonteCarloResult(mean, float(values.std(ddof=1) / math.sqrt(trials)))
