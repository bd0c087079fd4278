"""Exhaustive desk-scale random-coding experiment for layered shaping.

`run` is the single entry point for both modes. Each trial draws a fresh
codebook (uniform for layered-ps, iid from P_X for classical), encodes one
message, transmits it through the channel and decodes by exhaustive
metric-product maximization over the whole codebook. The feasibility cap
n * r_c <= 22 keeps full fixture suites in the minutes range.

Memory: `run` holds no codebook. Each trial draws its codebook once, in row
chunks of about _CHUNK_CELLS cells from the trial's start state, and scores
each chunk as soon as it is drawn. It keeps the running maximum score, the
first index that reaches it and how many scores equal it, which is the whole
codebook's max / flatnonzero rule. A chunk's buffers and temporaries take at
most about 19 bytes per cell, as tracemalloc measures a trial's peak: about
19 for the classical draw (a reused float64 uniform, its intp bucket index,
the 1- or 2-byte drawn index and a bool mask), about 14 for the layered-ps
draw when |X| is not a power of two (the raw outputs, their uint64 products
and the drawn symbols) and about 6 when it is. Scoring adds 16/n: the scores
and one gathered column. Beyond that a trial holds O(n).

The draw of u follows the whole codebook in the stream, and the encoding scan
and x read the rows of block u, all before y exists. Both come from a spare
PCG64 moved there with advance (_seek). Every row owns whole 64-bit outputs:
ceil(n/2) for layered-ps, none when |X| = 1, and n for classical, so the seek
is exact and no draw stops inside an output. The scoring pass checks that
the codebook draw ends where the seek put it, and raises if not.

Output: a trial is the same for every chunk size, and the same as drawing
the whole codebook at once and scoring it with one row sum. The layered-ps
draw maps the 32-bit halves w of each row's outputs, low half first, to the
symbols (w * |X|) >> 32; an odd-n row leaves its last high half unused, and
no half is ever left pending between draws. This is Lemire's multiply-shift
without its rejection step, so a symbol's probability differs from 1/|X| by
less than 2^-32, and by nothing when |X| is a power of two. For such |X| and
even n the draw equals rng.integers(|X|, size=(rows, n)); for odd n it does
not. The classical draw takes the same rng.random uniforms as
rng.choice and maps them to choice's indices through a guide table over their
leading 16 bits (empirical._draw_iid), built once per run. Scores are exact
sums: the decoder's log2 q table is rounded once per run to the nearest
multiple of 2^-k, for the largest k at which any sum of n finite entries is
exact in float64, and -inf stays -inf (_log2_q_grid). Each score adds its n
terms in position order. Every partial sum is exact, so a score does not
depend on the order of its terms, and equals the grid table's row sum taken
in any order.

Decoder ties: the transmitted index counts as correctly decoded only when it
is the unique maximizer, so a tie counts as an error. Codewords with the
same joint type with y add the same terms, so they score bit-equal and tie.
The gap that remains is the grid: rounding moves each log2 q entry by at
most 2^-(k+1), so log-metric values closer than that can merge, and two
scores whose unrounded sums differ by less than n * 2^-k can tie or swap.
At n = 24 with |log2 q| <= 8 the grid is 2^-44.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import _check_input
from .empirical import (
    SequencePair,
    _draw_iid,
    _iid_guide,
    empirical_code_rate,
    sample_channel_outputs,
)
from .rates import _check_metric
from .typicality import TypicalSpec, is_typical_counts

FEASIBILITY_CAP = 22

# Cells per chunk of the codebook draw and of decode scoring.
_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """One simulator run; p_x and q must be on ch's alphabets."""

    p_x: object
    ch: object
    q: object
    n: int
    r_c: float
    r_tx: float
    eps_typ: float
    trials: int
    rng_seed: int
    mode: str = "layered-ps"

    def __post_init__(self):
        _check_input(self.p_x, self.ch)
        _check_metric(self.ch, self.q)
        TypicalSpec(self.p_x, self.n, self.eps_typ)
        for name, rate in (("r_c", self.r_c), ("r_tx", self.r_tx)):
            if not math.isfinite(rate):
                raise ValueError(f"{name} must be finite, got {rate}")
        if not 0 <= self.r_tx <= self.r_c:
            raise ValueError("need 0 <= r_tx <= r_c")
        if self.n * self.r_c > FEASIBILITY_CAP:
            raise ValueError(
                f"n * r_c = {self.n * self.r_c} exceeds the exhaustive cap {FEASIBILITY_CAP}"
            )
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.mode not in ("layered-ps", "classical"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def codebook_sizes(self):
        """(|C|, |U|, |V|): messages times shaping indices.

        Sizes are floor(2^(n*r)) with |V| adjusted so the double indexing is
        exact; realized rates are reported from the integer sizes.
        """
        n_u = max(1, int(2.0 ** (self.n * self.r_tx)))
        if self.mode == "classical":
            return n_u, n_u, 1
        n_c = max(1, int(2.0 ** (self.n * self.r_c)))
        n_v = max(1, n_c // n_u)
        return n_u * n_v, n_u, n_v


@dataclass(frozen=True)
class SimResult:
    trials: int
    encoding_failure_rate: float
    decode_error_rate: float
    message_error_rate: float
    bound_2exp: float
    t_hat_mean: float
    t_hat_min: float
    t_hat_max: float
    realized_r_c: float
    realized_r_tx: float
    codebook_size: int
    message_count: int
    encoding_failures: int
    decode_errors: int
    decode_trials: int
    message_errors: int
    per_trial: tuple = field(repr=False, default=())

    def to_json_dict(self):
        return {
            "trials": self.trials,
            "encoding_failure_rate": self.encoding_failure_rate,
            "decode_error_rate": self.decode_error_rate,
            "message_error_rate": self.message_error_rate,
            "bound_2exp": self.bound_2exp,
            "t_hat_mean": self.t_hat_mean,
            "t_hat_min": self.t_hat_min,
            "t_hat_max": self.t_hat_max,
            "realized_r_c": self.realized_r_c,
            "realized_r_tx": self.realized_r_tx,
            "codebook_size": self.codebook_size,
            "message_count": self.message_count,
        }


@dataclass(frozen=True)
class TrialRecord:
    encoding_failed: bool
    w_error: bool
    u_error: bool
    t_hat: float
    union_bound: float


def pairwise_union_bound(pair, q, r_c):
    """Union bound 2^(-n (T-hat - r_c)) on the conditional error, in [0,1]."""
    if not r_c >= 0:
        raise ValueError(f"code rate r_c must be non-negative, got {r_c}")
    return _union_bound(empirical_code_rate(pair, q), len(pair.x_seq), r_c)


def _union_bound(t_hat, n, r_c):
    if math.isinf(t_hat):
        return 1.0
    return min(1.0, 2.0 ** (-n * (t_hat - r_c)))


def run(cfg):
    """Run cfg.trials independent trials in the configured mode."""
    book = _Codebook(cfg)
    records = [book.trial(np.random.default_rng([cfg.rng_seed, t])) for t in range(cfg.trials)]
    realized_r_tx = math.log2(book.n_u) / cfg.n
    return _summarize(cfg, records, book.r_c, realized_r_tx, book.n_c, book.n_u)


class _Codebook:
    """The chunked codebook draw of one run and the buffers its trials reuse."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.nx = nx = len(cfg.p_x.alphabet)
        self.n_c, self.n_u, self.n_v = cfg.codebook_sizes()
        self.r_c = math.log2(self.n_c) / cfg.n
        self.rows = max(1, _CHUNK_CELLS // cfg.n)
        self.chunk = np.empty((min(self.rows, self.n_c), cfg.n), dtype=np.min_scalar_type(nx - 1))
        self.scores = np.empty(len(self.chunk))
        self.logq = _log2_q_grid(cfg.q.log2_q(), cfg.n)
        self.spec = TypicalSpec(cfg.p_x, cfg.n, cfg.eps_typ)
        # PCG64 outputs per row: half of one per layered-ps cell, rounded up,
        # none for a single symbol; one per classical uniform
        if cfg.mode == "layered-ps":
            self.row_outputs = -(-cfg.n // 2) if nx > 1 else 0
        else:
            self.guide, self.uniforms = _iid_guide(cfg.p_x.probs), np.empty(self.chunk.size)
            self.row_outputs = cfg.n
        self.spare = np.random.Generator(np.random.PCG64(0))

    def draw(self, rng, rows):
        """The next `rows` codebook rows from rng, in the chunk buffer."""
        out = self.chunk[:rows]
        if self.cfg.mode == "layered-ps":
            _draw_uniform(rng, self.nx, out)
        else:
            out.reshape(-1)[:] = _draw_iid(rng, self.guide, self.uniforms[:out.size])
        return out

    def trial(self, rng):
        """TrialRecord of the trial whose stream starts at rng's state, with
        u and block u drawn from the spare generator seeked past the
        codebook draw."""
        cfg, n_v = self.cfg, self.n_v
        gen, start = self.spare, rng.bit_generator.state
        _seek(gen.bit_generator, start, self.n_c * self.row_outputs)
        end = gen.bit_generator.state
        u = int(gen.integers(self.n_u))
        after_u = gen.bit_generator.state
        _seek(gen.bit_generator, start, u * n_v * self.row_outputs)
        failed, v, x = self._encode(gen)
        gen.bit_generator.state = after_u
        y = sample_channel_outputs(cfg.ch, x, gen)
        table = np.ascontiguousarray(self.logq[:, y].T)
        # the running max, the first index reaching it and its count; all
        # -inf scores tie at index 0
        best, w_hat, ties = -math.inf, 0, 0
        for lo in range(0, self.n_c, self.rows):
            chunk = self.draw(rng, min(self.rows, self.n_c - lo))
            scores = self.scores[:len(chunk)]
            _score_rows(table, chunk, scores)
            top = scores.max()
            if top > best:
                hits = scores == top
                best, w_hat, ties = top, lo + int(hits.argmax()), int(np.count_nonzero(hits))
            elif top == best:
                ties += int(np.count_nonzero(scores == top))
        if rng.bit_generator.state != end:
            raise RuntimeError("the codebook draw did not end where _seek placed u")
        w_error = not (ties == 1 and w_hat == u * n_v + v)
        u_error = (w_hat // n_v) != u
        # x and y hold indices; the empirical rates look symbols up
        pair = SequencePair([cfg.ch.input.symbols[i] for i in x.tolist()],
                            [cfg.ch.output.symbols[j] for j in y.tolist()])
        t_hat = empirical_code_rate(pair, cfg.q)
        bound = _union_bound(t_hat, cfg.n, self.r_c)
        return TrialRecord(failed, w_error, u_error, t_hat, bound)

    def _encode(self, gen):
        """(failed, v, x): the first typical row v of block u, drawn from
        gen, as x, or failed with v = 0 when there is none. A classical
        block is its one row, taken as it is."""
        if self.cfg.mode == "classical":
            return False, 0, self.draw(gen, 1)[0].copy()
        first, v, take = None, 0, 1
        while v < self.n_v:
            # the scan mostly stops early, so the pieces start small
            for row in self.draw(gen, min(take, self.n_v - v)):
                if is_typical_counts(np.bincount(row, minlength=self.nx), self.spec):
                    return False, v, row.copy()
                if first is None:
                    first = row.copy()
                v += 1
            take = min(2 * take, len(self.chunk))
        return True, 0, first


def _seek(bg, start, outputs):
    """Set bg to the state start advanced by `outputs` 64-bit PCG64 outputs,
    the state that many whole-output draws leave."""
    bg.state = start
    bg.advance(outputs)


def _draw_uniform(rng, nx, out):
    """Fill the (rows, n) array out with uniform symbols of range(nx),
    1 <= nx <= 2^32, from rng's next rows * ceil(n/2) PCG64 outputs.

    Row r owns outputs r * ceil(n/2) on; cell i maps the low, then the high,
    32-bit half w of the row's output i // 2 to the symbol (w * nx) >> 32,
    and an odd row leaves its last high half unused. When nx = 1 the cells
    are zeros and take no output. For nx = 2^k the symbol is w >> (32 - k).
    """
    if nx == 1:
        out[:] = 0
        return
    rows, n = out.shape
    raw = rng.bit_generator.random_raw((rows, -(-n // 2))).astype("<u8", copy=False)
    words = raw.view("<u4")[:, :n]
    if nx & (nx - 1):
        product = np.multiply(words, nx, dtype=np.uint64)
        np.right_shift(product, 32, out=out, casting="unsafe")
    else:
        # the same symbols as the product, in less time
        np.right_shift(words, 33 - nx.bit_length(), out=out, casting="unsafe")


def _log2_q_grid(logq, n):
    """logq rounded to the nearest multiple of 2^-k, for the largest k at
    which any sum of n finite entries is exact in float64; -inf stays.

    n * max|finite entry| < 2^(52 - k), so a sum of n rounded entries is an
    integer multiple of 2^-k below 2^(53 - k) in magnitude.
    """
    k = 52 - math.frexp(n * np.abs(logq[np.isfinite(logq)]).max(initial=0.0))[1]
    return np.ldexp(np.round(np.ldexp(logq, k)), -k)


def _score_rows(table, chunk, out):
    """out[r] = sum over i of table[i, chunk[r, i]], added in position order.

    On a _log2_q_grid table every partial sum is exact, so the score does
    not depend on the order of the terms.
    """
    table[0].take(chunk[:, 0], out=out)
    for i in range(1, chunk.shape[1]):
        out += table[i].take(chunk[:, i])


def _summarize(cfg, records, r_c, r_tx, n_c, n_u):
    trials = len(records)
    fails = sum(r.encoding_failed for r in records)
    ok = [r for r in records if not r.encoding_failed]
    decode_errors = sum(r.w_error for r in ok)
    msg_errors = sum(r.u_error for r in records)
    t_hats = [r.t_hat for r in records]
    return SimResult(
        trials=trials,
        encoding_failure_rate=fails / trials,
        decode_error_rate=decode_errors / len(ok) if ok else 0.0,
        message_error_rate=msg_errors / trials,
        bound_2exp=sum(r.union_bound for r in records) / trials,
        t_hat_mean=sum(t_hats) / trials,
        t_hat_min=min(t_hats),
        t_hat_max=max(t_hats),
        realized_r_c=r_c,
        realized_r_tx=r_tx,
        codebook_size=n_c,
        message_count=n_u,
        encoding_failures=fails,
        decode_errors=decode_errors,
        decode_trials=len(ok),
        message_errors=msg_errors,
        per_trial=tuple(records),
    )
