"""Finite-alphabet symbols, sequences, distributions, and base-2 information measures.

All public quantities are in bits. The convention 0*log(0) = 0 is applied
everywhere; a nonzero numerator over a zero denominator is an error (an
absolute-continuity violation), never a silent infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORMALIZATION_TOL = 1e-9


class AbsoluteContinuityError(ValueError):
    """p places mass where q has none, so D(p || q) is undefined (infinite)."""


class ZeroProbabilityError(ValueError):
    """Log-probability was queried for a symbol with zero probability."""


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet {0, 1, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.size}")

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class SymbolSeq:
    """An ordered sequence of symbols from a fixed alphabet."""

    alphabet: Alphabet
    data: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("symbol data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
            raise ValueError("symbol out of alphabet range")
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return int(self.data.size)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return SymbolSeq(self.alphabet, self.data[idx])
        return int(self.data[idx])

    @classmethod
    def from_list(cls, alphabet: Alphabet, symbols) -> "SymbolSeq":
        return cls(alphabet, np.asarray(list(symbols), dtype=np.int64))


@dataclass(frozen=True)
class ProbDist:
    """Probability vector over a finite alphabet.

    Entries must be nonnegative and sum to 1 within NORMALIZATION_TOL.
    """

    alphabet: Alphabet
    probs: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.shape != (self.alphabet.size,):
            raise ValueError(
                f"need {self.alphabet.size} probabilities, got shape {arr.shape}"
            )
        # written so that NaN fails both comparisons; an inf entry fails the sum
        if not np.all(arr >= 0.0):
            raise ValueError("negative or NaN probability entry")
        total = float(arr.sum())
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", arr)

    def prob(self, symbol: int) -> float:
        return float(self.probs[symbol])

    def log2_prob(self, symbol: int) -> float:
        p = float(self.probs[symbol])
        if p <= 0.0:
            raise ZeroProbabilityError(f"symbol {symbol} has zero probability")
        return math.log2(p)

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "ProbDist":
        return cls(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))


def _check_same_alphabet(p: ProbDist, q: ProbDist) -> None:
    if p.alphabet != q.alphabet:
        raise ValueError(
            f"alphabet mismatch: {p.alphabet.size} vs {q.alphabet.size}"
        )


def kl_divergence(p: ProbDist, q: ProbDist) -> float:
    """D(p || q) in bits, with 0*log(0/q) = 0.

    Raises AbsoluteContinuityError when p(x) > 0 while q(x) = 0.
    """
    _check_same_alphabet(p, q)
    return _kl_bits(p.probs, q.probs)


def _kl_bits(p: np.ndarray, q: np.ndarray):
    """D(p || q) in bits between probability arrays of equal shape: a float
    for two laws, one value per row for (rows, symbols) arrays; the array
    form of kl_divergence, without building ProbDists."""
    mass = p > 0.0
    if np.any(mass & (q == 0.0)):
        raise AbsoluteContinuityError("p has mass on a symbol where q is zero")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mass, p * np.log2(p / q), 0.0)
    # Rounding can push the exact-equality case a hair below zero.
    total = np.maximum(terms.sum(axis=-1), 0.0)
    return float(total) if total.ndim == 0 else total


def entropy(p: ProbDist) -> float:
    """H(p) in bits, with 0*log(0) = 0."""
    total = 0.0
    for pa in p.probs:
        if pa > 0.0:
            total -= pa * math.log2(pa)
    return max(total, 0.0)


def total_variation(p: ProbDist, q: ProbDist) -> float:
    """Total variation distance (1/2) * sum |p - q|, in [0, 1]."""
    _check_same_alphabet(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())
