"""Exhaustive desk-scale random-coding experiment for layered shaping.

`run` is the single entry point for both modes. Each trial draws a fresh
codebook (uniform for layered-ps, iid from P_X for classical), encodes one
message, transmits it through the channel and decodes by exhaustive
metric-product maximization over the whole codebook. The feasibility cap
n * r_c <= 22 keeps full fixture suites in the minutes range.

Memory: `run` holds one codebook of n_c * n bytes (the smallest unsigned
dtype that fits |X| - 1), reused by every trial, plus one float64 score per
codeword and fixed-size chunk buffers of about _CHUNK_CELLS cells. The
codebook is drawn and scored in row chunks; numpy's generators continue the
same stream across chunks, and each row's scores are summed over the same
values in the same order as a one-shot draw, so the output does not depend
on the chunk size.

Decoder ties: the transmitted index counts as correctly decoded only when it
is the unique maximizer. Ties are detected only when the float scores are
bit-equal; two codewords with equal metric products but different symbol
orders can differ in the last bit, and then the rounding picks the winner.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import _check_input
from .empirical import SequencePair, empirical_code_rate, sample_channel_outputs
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
        if not 0 <= self.r_tx <= self.r_c:
            raise ValueError("need 0 <= r_tx <= r_c")
        if self.n * self.r_c > FEASIBILITY_CAP:
            raise ValueError(
                f"n * r_c = {self.n * self.r_c} exceeds the exhaustive cap {FEASIBILITY_CAP}"
            )
        if not 0 <= self.eps_typ < math.inf:
            raise ValueError(
                f"typicality tolerance eps_typ must be finite and non-negative, got {self.eps_typ}"
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
    return _union_bound(empirical_code_rate(pair, q), len(pair.x_seq), r_c)


def _union_bound(t_hat, n, r_c):
    if math.isinf(t_hat):
        return 1.0
    return min(1.0, 2.0 ** (-n * (t_hat - r_c)))


def run(cfg):
    """Run cfg.trials independent trials in the configured mode."""
    nx = len(cfg.p_x.alphabet)
    n_c, n_u, n_v = cfg.codebook_sizes()
    realized_r_c = math.log2(n_c) / cfg.n
    realized_r_tx = math.log2(n_u) / cfg.n
    logq = cfg.q.log2_q()
    spec = TypicalSpec(cfg.p_x, cfg.n, cfg.eps_typ)
    rows = max(1, _CHUNK_CELLS // cfg.n)
    starts = range(0, n_c, rows)
    cb = np.empty((n_c, cfg.n), dtype=np.min_scalar_type(nx - 1))
    scores = np.empty(n_c)
    # flat index of (position i, symbol a) in the per-trial table is i*nx + a
    offsets = np.arange(cfg.n) * nx
    index = np.empty((min(rows, n_c), cfg.n), dtype=np.intp)
    terms = np.empty(index.shape)
    records = []
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.rng_seed, t])
        for lo in starts:
            m = min(rows, n_c - lo)
            if cfg.mode == "layered-ps":
                cb[lo:lo + m] = rng.integers(nx, size=(m, cfg.n))
            else:
                cb[lo:lo + m] = rng.choice(nx, size=(m, cfg.n), p=cfg.p_x.probs)
        u = int(rng.integers(n_u))
        if cfg.mode == "layered-ps":
            block = cb[u * n_v:(u + 1) * n_v]
            v = 0
            failed = True
            for k in range(n_v):
                counts = np.bincount(block[k], minlength=nx)
                if is_typical_counts(counts, spec):
                    v = k
                    failed = False
                    break
            w = u * n_v + v
        else:
            failed = False
            w = u
        x = cb[w]
        y = sample_channel_outputs(cfg.ch, x, rng)
        table = logq[:, y].T.ravel()
        for lo in starts:
            m = min(rows, n_c - lo)
            np.add(cb[lo:lo + m], offsets, out=index[:m])
            table.take(index[:m], out=terms[:m])
            terms[:m].sum(axis=1, out=scores[lo:lo + m])
        best = scores.max()
        winners = np.flatnonzero(scores == best)
        w_hat = int(winners[0])
        w_error = not (winners.size == 1 and w_hat == w)
        u_error = (w_hat // n_v) != u
        # x and y hold indices; the empirical rates look symbols up
        pair = SequencePair([cfg.ch.input.symbols[i] for i in x.tolist()],
                            [cfg.ch.output.symbols[j] for j in y.tolist()])
        t_hat = empirical_code_rate(pair, cfg.q)
        bound = _union_bound(t_hat, cfg.n, realized_r_c)
        records.append(TrialRecord(failed, w_error, u_error, t_hat, bound))
    return _summarize(cfg, records, realized_r_c, realized_r_tx, n_c, n_u)


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
