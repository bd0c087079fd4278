"""Per-sequence empirical achievable code rate and its Monte-Carlo estimate.

All randomness is drawn from numpy's default PCG64 generator; trial streams
are derived from (seed, trial index) so runs are reproducible and the result
does not depend on execution order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import _check_input, _guide_table
from .core import NumericalCheckError
from .metric import _log2_ratio
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


def empirical_code_rate(pair, q):
    """Empirical achievable code rate of one (x, y) pair in bits per symbol.

    -inf when the metric vanishes at some transmitted position. The column
    sums are taken over the whole table, as q.log2_ratio() takes them, and
    then gathered. The second form log2|X| minus the empirical uncertainty
    is computed as a cross-check.
    """
    xi = q.input.indices(pair.x_seq)
    yi = q.output.indices(pair.y_seq)
    q_xy, col = q.q[xi, yi], q.q.sum(axis=0)[yi]
    t_hat = float(_log2_ratio(q_xy, col, len(q.input)).mean())
    if math.isinf(t_hat):
        return t_hat
    # alternative form: log2|X| - mean(-log2 q / sum_a q)
    alt = math.log2(len(q.input)) - float((-np.log2(q_xy / col)).mean())
    if abs(alt - t_hat) > 1e-10 * max(1.0, abs(t_hat)):
        raise NumericalCheckError("empirical code rate forms disagree")
    return t_hat


def _composition(p_x, n):
    """The largest-remainder rounding of n * P_X as n symbol indices in
    increasing order; the caller checks n."""
    target = p_x.probs * n
    base = np.floor(target).astype(int)
    short = n - base.sum()
    if short:
        order = np.argsort(-(target - base), kind="stable")
        base[order[:short]] += 1
    return np.repeat(np.arange(len(p_x.alphabet)), base)


def sample_channel_outputs(ch, x_idx, rng):
    """Sample output indices for given input indices through the channel.

    Inverse-CDF sampling: one uniform u per position, mapped to the number
    of entries <= u in the cumulative row of its input symbol, clamped to
    |Y| - 1 for rows that sum to just under one. The channel's guide table
    (channel._guide_table, built at the first call and kept on ch) gives
    that number by u's bucket; only uniforms in a bucket with an entry
    inside it are searched for, row by row. Cost is O(n) plus a binary
    search per searched uniform and a pass over them per input symbol
    among them.
    """
    x_idx = np.asarray(x_idx)
    if x_idx.dtype.kind not in "iu":
        raise ValueError(f"input indices must be integers, got dtype {x_idx.dtype}")
    if len(x_idx) and not 0 <= x_idx.min() <= x_idx.max() < len(ch.input):
        raise ValueError("input index out of range")
    scaled, table = ch._guide
    ny, buckets = scaled.shape[1], table.shape[1]
    u = rng.random(len(x_idx))
    u *= buckets
    # the flat table index x * buckets + floor(u * buckets) of each position
    cell = np.multiply(x_idx, buckets, dtype=np.intp)
    cell += u.astype(np.intp)
    y = table.reshape(-1).take(cell)
    open_ = np.flatnonzero(y == ny)
    y = y.astype(np.intp)
    if open_.size:
        x_open, u_open = x_idx[open_], u[open_]
        # not np.unique: it imports numpy.ma on first use, about 1 MB and 0.1 s
        for a in set(x_open.tolist()):
            sel = x_open == a
            y[open_[sel]] = scaled[a].searchsorted(u_open[sel], "right")
    return np.minimum(y, ny - 1, out=y)


class _IidDraw:
    """Indices drawn i.i.d. from probs: the values rng.choice(len(probs),
    size=m, p=probs) returns, leaving rng where choice leaves it.

    choice computes cdf.searchsorted(rng.random(m), "right"), the number of
    cdf entries <= each uniform. Here the same uniforms, scaled exactly by
    _GUIDE_BUCKETS, take that number from the guide table of the normalised
    cdf (channel._guide_table) by their integer part; only those in a bucket
    with a cdf entry inside it are searched. The table takes 1 byte per
    bucket up to 255 symbols and 2 up to 65,535, and the uniforms and bucket
    indices 16 bytes per draw of a block of min(size, _IID_BLOCK) draws.
    """

    def __init__(self, probs, size):
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        scaled, table = _guide_table(cdf[None], _GUIDE_BUCKETS)
        self.scaled, self.table = scaled[0], table[0]
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
    else:
        symbols = _composition(p_x, n)
    # ratio[x, y] is the flat ratio at x |Y| + y, gathered in the same order
    ratio, ny = q.log2_ratio().reshape(-1), len(ch.output)
    values = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([rng_seed, t])
        if composition == "iid":
            draw.fill(rng, x)
        else:
            x = rng.permutation(symbols)
        cell = sample_channel_outputs(ch, x, rng)
        cell += np.multiply(x, ny, dtype=np.intp)
        values[t] = ratio.take(cell).mean()
    mean = float(values.mean())
    if trials < 2 or not np.isfinite(values).all():
        agree = trials > 1 and (values == values[0]).all()
        return MonteCarloResult(mean, 0.0 if agree else math.inf)
    return MonteCarloResult(mean, float(values.std(ddof=1) / math.sqrt(trials)))
