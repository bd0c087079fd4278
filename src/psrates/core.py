"""Finite alphabets, probability mass functions and information measures.

All information quantities are in bits (log base 2). The convention
0*log(0) = 0 is used throughout, and +inf is a legitimate value for
cross-entropy when the second argument has a zero where the first does not.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SUM_TOL = 1e-9


class NumericalCheckError(ArithmeticError):
    """Two forms of a quantity that must agree by an identity do not.

    Raised by the internal cross-checks (the three forms of R_ps, the
    independent-level BMD identity, the two forms of the empirical code
    rate); the CLI reports it with exit code 3. Bad input raises ValueError.
    """


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

    def indices(self, seq):
        """Position of each symbol of seq in this alphabet, as an intp array.

        Raises ValueError on a symbol that is not in the alphabet.
        """
        try:
            return np.array([self._index[s] for s in seq], dtype=np.intp)
        except KeyError as e:
            raise ValueError(f"symbol {e.args[0]!r} not in alphabet") from None

    @cached_property
    def _index(self):
        # built at the first indices call: most large alphabets are never indexed
        return {s: i for i, s in enumerate(self.symbols)}

    def bits(self, level):
        """Label bit at 1-based level of every symbol, as an index array."""
        if not 1 <= level <= self.label_length:
            raise ValueError(f"level {level} out of range 1..{self.label_length}")
        return np.array([int(l[level - 1]) for l in self.labels])

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
        p = _frozen_array(self.probs, (len(self.alphabet),), "probabilities", normalize=True)
        object.__setattr__(self, "probs", p)


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


def _frozen_array(values, shape, what, normalize=False):
    """Read-only float64 array of values that shares no memory with them,
    checked for a real dtype, the given shape and finite, non-negative
    entries; what names them in errors. normalize also requires every sum
    along the last axis to lie within SUM_TOL of one, and divides by it.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, got dtype {a.dtype}")
    if a.shape != shape:
        raise ValueError(f"{what}: need shape {shape}, got {a.shape}")
    a = a.astype(float, copy=False)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
    if np.any(a < 0):
        raise ValueError(f"{what} must be non-negative")
    if normalize:
        sums = a.sum(axis=-1, keepdims=True)
        off = sums[np.abs(sums - 1) > SUM_TOL]
        if off.size:
            raise ValueError(f"{what} sum to {off[0]}, not 1")
        a = a / sums
    else:
        a = a.copy()
    a.setflags(write=False)
    return a


def _check_same_alphabet(p, z):
    if p.alphabet.symbols != z.alphabet.symbols:
        raise ValueError("distributions are on different alphabets")
