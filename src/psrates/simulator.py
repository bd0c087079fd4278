"""Exhaustive desk-scale random-coding experiment for layered shaping.

`run` is the single entry point for both modes. Each trial draws a fresh
codebook (uniform for layered-ps, iid from P_X for classical), encodes one
message, transmits it through the channel and decodes by exhaustive
metric-product maximization over the whole codebook. The feasibility cap
n * r_c <= 22 keeps full fixture suites in the minutes range.

Workers: `run` runs trial t on worker t mod W, with W = min(2,
os.cpu_count(), trials). Worker 0 is the calling thread and worker 1 a thread
of its own. Every trial draws from its own stream, and the records come back
in trial order, so the result does not depend on W. A 1-trial run, or a
1-CPU host, runs one worker and gains nothing.

Memory: `run` holds no codebook. Each trial draws its codebook once, in row
chunks from the trial's start state, and scores each chunk as soon as it is
drawn. It keeps the running maximum score, the first index that reaches it
and how many scores equal it, which is the whole codebook's max /
flatnonzero rule. Each worker owns a chunk of _CHUNK_CELLS // W cells, so the
workers together hold _CHUNK_CELLS cells whatever W is. Every per-chunk
buffer is allocated once per run, on the calling thread: a chunk cell takes
1-2 bytes, and scoring 25/n more (the scores, one gathered column, its intp
indices and a bool mask). Each worker's group table (see Output) holds
2^(b g) / g float64 entries per position, at most 16 times the n 2^b of a
table by position: about 8 KB at the benchmark's shapes (n = 12 to 24,
|X| <= 4) and 1 MB at n = 4000 with |X| = 2. The classical draw writes into
the chunk through 16 bytes per cell of a block of at most _IID_BLOCK cells
(empirical._IidDraw).
The layered-ps draw's raw outputs take 4 bytes per cell drawn, 12 when |X|
is not a power of two; the workers draw under one lock, so no buffer's life
depends on how they interleave, and neither does the peak. Beyond that a
run holds O(|X| |Y|) for the decoder table, and a trial O(n |X|). The
channel keeps its |X| cumulative rows, 8 |Y| bytes each, and their guide
table, built by the first sample_channel_outputs call on it and shared by
both workers (channel.Dmc._guide): 256 bytes a row up to 32 outputs, 8 |Y|
to 16 |Y| up to 255 and 16 |Y| to 32 |Y| from 256 to 65,535.

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
leading 16 bits (empirical._IidDraw), built once per worker. Scores are exact
sums: the decoder's log2 q table is rounded once per run to the nearest
multiple of 2^-k, for the largest k at which any sum of n finite entries is
exact in float64, and -inf stays -inf (_log2_q_grid). A score adds its
terms in groups of g adjacent positions, with b = max(1, bit_length(|X| - 1))
bits per symbol and g the largest power of two with g b <= 8 that divides n
(1 when a chunk cell takes 2 bytes). Each trial sums every group's g terms,
in position order, for every tuple of symbols, into the group table; each
chunk is packed in place so that one byte per group indexes that table
(_pack), and a score adds its n/g group sums in group order. A partial sum,
within a group or across groups, is a sum of at most n grid entries, so
every one is exact: a score does not depend on how its terms are grouped or
ordered, and equals the grid table's row sum taken in any order.

Decoder ties: the transmitted index counts as correctly decoded only when it
is the unique maximizer, so a tie counts as an error. Codewords with the
same joint type with y add the same terms, so they score bit-equal and tie.
The gap that remains is the grid: rounding moves each log2 q entry by at
most 2^-(k+1), so log-metric values closer than that can merge, and two
scores whose unrounded sums differ by less than n * 2^-k can tie or swap.
At n = 24 with |log2 q| <= 8 the grid is 2^-44.

Message errors: the decoded message is the block of the first maximizer,
the lowest codeword index reaching the maximum score. A tie is thus won by
the lowest index for the message rate, while the decode rate counts it as
an error. In classical mode every block is one codeword, so the message
errors are the decode errors less the ties in which the transmitted
codeword has the lowest index. The message rate counts every trial,
encoding failures included; the decode rate counts only the trials that
encoded.
"""

import math
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import _check_input
from .empirical import SequencePair, _IidDraw, empirical_code_rate, sample_channel_outputs
from .rates import _check_metric
from .typicality import TypicalSpec, is_typical_counts

FEASIBILITY_CAP = 22

# Cells per chunk of the codebook draw and of decode scoring, over all
# workers.
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
    # the typical set that layered-ps encoding looks for, built once here
    spec: TypicalSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_input(self.p_x, self.ch)
        _check_metric(self.ch, self.q)
        object.__setattr__(self, "spec", TypicalSpec(self.p_x, self.n, self.eps_typ))
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
    """The outcome of a run.

    decode_error_rate is decode_errors / decode_trials over the trials that
    encoded, 0.0 when none did: a decode error is a trial whose transmitted
    codeword is not the unique maximizer, so a tie is an error.
    message_error_rate is message_errors / trials over all trials: a message
    error is a trial whose first maximizer, the lowest tied index, lies
    outside the transmitted message's block. So the two rates differ in
    classical mode too, by the ties in which the transmitted codeword has
    the lowest index.
    """

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
        """The summary: the fields from trials to message_count, by name."""
        names = [f.name for f in fields(self)]
        return {k: getattr(self, k) for k in names[:names.index("message_count") + 1]}


@dataclass(frozen=True)
class TrialRecord:
    encoding_failed: bool
    w_error: bool
    u_error: bool
    t_hat: float
    union_bound: float


def _union_bound(t_hat, n, r_c):
    # 2.0 ** e overflows for e >= 1024, so it is clipped first
    e = -n * (t_hat - r_c)
    return 1.0 if e >= 0 else 2.0 ** e


def run(cfg):
    """Run cfg.trials independent trials in the configured mode.

    If trials fail, run raises the exception of the lowest failing trial,
    the one a serial loop would raise: no worker starts a trial above a
    failed one, so every trial below the lowest failure runs. A Ctrl-C
    stops the other worker at its next trial.
    """
    workers = min(2, os.cpu_count() or 1, cfg.trials)
    # the workers share the decoder table, and a lock under which their
    # layered-ps draws hold their raw outputs one at a time
    with np.errstate(divide="ignore"):
        logq = _log2_q_grid(np.log2(cfg.q.q), cfg.n)
    lock = threading.Lock()
    books = [_Codebook(cfg, _CHUNK_CELLS // workers, logq, lock) for _ in range(workers)]
    # a worker writes only its own trials' records and its own entry of
    # failed: its first failed trial and the exception
    records = [None] * cfg.trials
    failed = [(cfg.trials, None)] * workers

    def work(w):
        for t in range(w, cfg.trials, workers):
            if t > min(f[0] for f in failed):
                return
            try:
                records[t] = books[w].trial(np.random.default_rng([cfg.rng_seed, t]))
            except Exception as exc:
                failed[w] = (t, exc)
                return

    helper = threading.Thread(target=work, args=(1,)) if workers > 1 else None
    try:
        if helper is not None:
            helper.start()
        work(0)
        if helper is not None:
            helper.join()
    except BaseException:
        failed[0] = (-1, None)  # a Ctrl-C: the helper stops at its next trial
        raise
    exc = min(failed, key=lambda f: f[0])[1]
    if exc is not None:
        raise exc
    realized_r_tx = math.log2(books[0].n_u) / cfg.n
    return _summarize(cfg, records, books[0].r_c, realized_r_tx, books[0].n_c, books[0].n_u)


class _Codebook:
    """The chunked codebook draw of one run's worker, in chunks of about
    `cells` cells, and the buffers its trials reuse. logq is the run's
    _log2_q_grid table and lock the run's draw lock.

    The buffers include the group table of _group_sums, n/g rows of 2^(b g)
    float64 sums for b bits per symbol: at most 16 times the n 2^b entries
    of a table by position, about 8 KB at the benchmark's shapes.
    """

    def __init__(self, cfg, cells, logq, lock):
        self.cfg, self.logq, self.lock = cfg, logq, lock
        self.nx = nx = len(cfg.p_x.alphabet)
        self.n_c, self.n_u, self.n_v = cfg.codebook_sizes()
        self.r_c = math.log2(self.n_c) / cfg.n
        self.rows = max(1, cells // cfg.n)
        rows = min(self.rows, self.n_c)
        # PCG64 outputs per row: half of one per layered-ps cell, rounded up,
        # none for a single symbol; one per classical uniform
        if cfg.mode == "layered-ps":
            self.row_outputs = -(-cfg.n // 2) if nx > 1 else 0
            self.chunk = np.empty((rows, cfg.n), np.min_scalar_type(nx - 1))
        else:
            self.row_outputs = cfg.n
            self.iid = _IidDraw(cfg.p_x.probs, rows * cfg.n)
            self.chunk = np.empty((rows, cfg.n), self.iid.table.dtype)
        # the decoder's group table, refilled by each trial
        k = _symbol_bits(nx)
        g = _group_size(cfg.n, k, self.chunk.itemsize)
        self.groups = np.zeros((cfg.n // g, 1 << k * g))
        # the scores, one gathered column, its indices and the hits of a max
        self.scores, self.term, self.col = np.empty(rows), np.empty(rows), np.empty(rows, np.intp)
        self.hits = np.empty(rows, bool)
        self.spare = np.random.Generator(np.random.PCG64(0))

    def draw(self, rng, rows):
        """The next `rows` codebook rows from rng, in the chunk buffer."""
        out = self.chunk[:rows]
        if self.cfg.mode == "layered-ps":
            with self.lock:
                _draw_uniform(rng, self.nx, out)
        else:
            self.iid.fill(rng, out)
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
        _group_sums(self.logq[:, y], self.groups)
        # the running max, the first index reaching it and its count; all
        # -inf scores tie at index 0
        best, w_hat, ties = -math.inf, 0, 0
        for lo in range(0, self.n_c, self.rows):
            chunk = self.draw(rng, min(self.rows, self.n_c - lo))
            rows = len(chunk)
            scores = self.scores[:rows]
            _score_rows(self.groups, chunk, scores, self.term[:rows], self.col[:rows])
            top = scores.max()
            if top >= best:
                hits = np.equal(scores, top, out=self.hits[:rows])
                if top > best:
                    best, w_hat, ties = top, lo + int(hits.argmax()), 0
                ties += int(np.count_nonzero(hits))
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
                if is_typical_counts(np.bincount(row, minlength=self.nx), self.cfg.spec):
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


def _symbol_bits(nx):
    """k: the bits that hold a symbol of range(nx), at least one."""
    return max(1, (nx - 1).bit_length())


def _group_size(n, k, itemsize):
    """g: the largest power of two with g * k <= 8 that divides n, or 1 when
    chunk cells take itemsize > 1 bytes."""
    g = 1
    while itemsize == 1 and 2 * g * k <= 8 and n % (2 * g) == 0:
        g *= 2
    return g


def _group_sums(table, out):
    """Fill out, of n/g rows and 2^(k g) columns, with the sums of the
    (nx, n) array table over each group of g positions: out[c, index] is
    the sum over j < g of table[s_j, g c + j], where symbol s_j sits in bits
    k j to k j + k - 1 of the index, k = _symbol_bits(nx). Columns with a
    symbol of nx or more are left as they are; no symbol reads them.
    """
    nx, n = table.shape
    c, g = len(out), n // len(out)
    # axis g - j of the view holds s_j, axis 0 the group
    sub = out.reshape((c,) + (1 << _symbol_bits(nx),) * g)[(slice(None),) + (slice(nx),) * g]
    for j in range(g):
        terms = table[:, j::g].T.reshape((c,) + (1,) * (g - 1 - j) + (nx,) + (1,) * j)
        if j:
            np.add(sub, terms, out=sub)
        else:
            np.copyto(sub, terms)


def _pack(chunk, g, k):
    """The (rows, n/g) uint8 view of the contiguous one-byte chunk whose
    column c holds its group c's symbols as one index, symbol j in bits k j
    to k j + k - 1. Each group is a little-endian g-byte word, the sum over
    j of s_j 2^(8 j), multiplied in place by M = the sum over i < g of
    2^(8 (g - 1) - (8 - k) i), for 1 <= g k <= 8. The product's term for
    i = j puts s_j in bits 8 (g - 1) + k j on, inside the top byte; the
    terms for i > j stay below the top byte, without a carry into it, and
    those for i < j start at bit 8 g or above and wrap away. The chunk's
    symbols are lost.
    """
    words = chunk.view(f"<u{g}")
    # M as the words' own type: unsigned arithmetic that wraps the same way
    # whatever numpy's rules for Python ints
    words *= words.dtype.type(sum(1 << 8 * (g - 1) - (8 - k) * i for i in range(g)))
    return chunk.view(np.uint8)[:, g - 1::g]


def _score_rows(groups, chunk, out, term, col):
    """out[r] = the sum over c of groups[c, index of row r's group c], the
    _group_sums table of the chunk's positions, added in group order; term
    (float64) and col (intp) are scratch arrays of out's length. When g > 1
    the chunk is packed in place (_pack) and its symbols are lost.

    On a _log2_q_grid table every partial sum, within a group and across
    groups, is a sum of at most n entries and exact, so the score equals
    the row's sum of n terms taken in any order.
    """
    g = chunk.shape[1] // len(groups)
    if g > 1:
        chunk = _pack(chunk, g, (groups.shape[1].bit_length() - 1) // g)
    # take would copy each column to intp in a fresh array; "clip" writes
    # out directly, where "raise" would buffer it, and chunk holds valid
    # indices only
    for i in range(len(groups)):
        np.copyto(col, chunk[:, i])
        groups[i].take(col, out=term if i else out, mode="clip")
        if i:
            out += term


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
