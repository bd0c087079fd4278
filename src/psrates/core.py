"""Finite alphabets, probability mass functions and information measures.

All information quantities are in bits (log base 2). The convention
0*log(0) = 0 is used throughout, and +inf is a legitimate value for
cross-entropy when the second argument has a zero where the first does not.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-9
VALID_TOL = 1e-12


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet, optionally with bit labels and signal points.

    labels, when present, are binary strings of a common length m and the
    alphabet size must be 2^m. signal_points are real values used by AWGN
    constellation constructors.
    """

    symbols: tuple
    labels: tuple = None
    signal_points: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) == 0:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if self.labels is not None:
            labels = tuple(str(l) for l in self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(self.symbols):
                raise ValueError("need one label per symbol")
            m = len(labels[0])
            if any(len(l) != m for l in labels):
                raise ValueError("labels must have identical length")
            if any(set(l) - {"0", "1"} for l in labels):
                raise ValueError("labels must be binary strings")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be distinct")
            if len(self.symbols) != 2 ** m:
                raise ValueError("labeled alphabet size must be 2^m")
        if self.signal_points is not None:
            pts = tuple(map(float, self.signal_points))
            object.__setattr__(self, "signal_points", pts)
            if len(pts) != len(self.symbols):
                raise ValueError("need one signal point per symbol")

    def __len__(self):
        return len(self.symbols)

    @property
    def label_length(self):
        if self.labels is None:
            raise ValueError("alphabet has no labels")
        return len(self.labels[0])

    def index(self, symbol):
        return self.symbols.index(symbol)

    def bit(self, symbol_index, level):
        """Bit of the label at 1-based level for the given symbol index."""
        if self.labels is None:
            raise ValueError("alphabet has no labels")
        if not 1 <= level <= self.label_length:
            raise ValueError(f"level {level} out of range 1..{self.label_length}")
        return int(self.labels[symbol_index][level - 1])

    def to_json_dict(self):
        d = {"symbols": list(self.symbols)}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        if self.signal_points is not None:
            d["signal_points"] = list(self.signal_points)
        return d

    @classmethod
    def from_json_dict(cls, d):
        symbols = [tuple(s) if isinstance(s, list) else s for s in d["symbols"]]
        return cls(
            symbols=tuple(symbols),
            labels=tuple(d["labels"]) if "labels" in d else None,
            signal_points=tuple(d["signal_points"]) if "signal_points" in d else None,
        )


@dataclass(frozen=True)
class Pmf:
    """Probability distribution on a finite ordered alphabet.

    Construction normalizes inputs whose sum is within 1e-9 of one and
    rejects anything further off. Entries are stored in linear domain.
    """

    alphabet: Alphabet
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.alphabet),):
            raise ValueError("need one probability per symbol")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        s = p.sum()
        if not (1 - SUM_TOL <= s <= 1 + SUM_TOL):
            raise ValueError(f"probabilities sum to {s}, not 1")
        p = p / s
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def support(self):
        """Indices of symbols with positive probability."""
        return np.flatnonzero(self.probs > 0)

    def to_json_dict(self):
        d = self.alphabet.to_json_dict()
        d["probs"] = list(self.probs)
        return d

    @classmethod
    def from_json_dict(cls, d):
        return cls(Alphabet.from_json_dict(d), np.asarray(d["probs"], dtype=float))

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))


def uniform_pmf(alphabet):
    """Uniform distribution on the alphabet."""
    n = len(alphabet)
    return Pmf(alphabet, np.full(n, 1.0 / n))


def entropy(p):
    """Shannon entropy in bits; zero-probability symbols contribute 0."""
    probs = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    pos = probs[probs > 0]
    return float(-(pos * np.log2(pos)).sum())


def binary_entropy(eps):
    """Binary entropy function in bits, with H2(0) = H2(1) = 0."""
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if eps == 0 or eps == 1:
        return 0.0
    return float(-eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps))


def cross_entropy(p, z):
    """Cross-entropy of p relative to z in bits; +inf when z vanishes on supp p."""
    _check_same_alphabet(p, z)
    mask = p.probs > 0
    if np.any(z.probs[mask] == 0):
        return math.inf
    return float(-(p.probs[mask] * np.log2(z.probs[mask])).sum())


def divergence(p, z):
    """Informational divergence D(p||z) in bits."""
    x = cross_entropy(p, z)
    if math.isinf(x):
        return math.inf
    return x - entropy(p)


def _check_same_alphabet(p, z):
    if p.alphabet.symbols != z.alphabet.symbols:
        raise ValueError("distributions are on different alphabets")
