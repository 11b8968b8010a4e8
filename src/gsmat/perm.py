"""Permutations stored as index arrays with O(n) application.

The convention throughout: ``sigma[i]`` is the destination index of source
``i``, so the dense matrix has a 1 at ``(sigma[i], i)`` and ``(P x)[sigma[i]]
= x[i]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Permutation",
    "identity_perm",
    "stride_perm",
    "paired_stride_perm",
    "perm_cols",
    "perm_cols_t",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., n-1}, immutable after construction."""

    sigma: np.ndarray = field(repr=False)
    # The inverse permutation, argsort(sigma), computed once at construction.
    _inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = np.asarray(self.sigma)
        if sigma.size and sigma.dtype.kind not in "iu":
            raise ValueError(f"sigma must hold integers, got dtype {sigma.dtype}")
        # A private copy, so later writes to the caller's array cannot reach it.
        sigma = sigma.astype(np.int64)
        if sigma.ndim != 1 or not np.array_equal(sigma[inv := np.argsort(sigma)], np.arange(sigma.size)):
            raise ValueError("sigma is not a bijection on {0..n-1}")
        sigma.flags.writeable = inv.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_inv", inv)

    @property
    def n(self) -> int:
        return self.sigma.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return P x, gathering entry inv[j] into position j (inv = sigma^{-1})."""
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise ValueError(f"length mismatch: expected {self.n}, got {x.shape[0]}")
        return np.take(x, self._inv, axis=0)

    def apply_inverse(self, x: np.ndarray) -> np.ndarray:
        """Return P^T x, gathering entry sigma[j] into position j."""
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise ValueError(f"length mismatch: expected {self.n}, got {x.shape[0]}")
        return np.take(x, self.sigma, axis=0)

    def invert(self) -> "Permutation":
        return Permutation(self._inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """Return the permutation p with p.apply(x) == self.apply(other.apply(x))."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch in compose: {self.n} vs {other.n}")
        return Permutation(self.sigma[other.sigma])

    def as_dense(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        m[self.sigma, np.arange(self.n)] = 1.0
        return m

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.sigma, np.arange(self.n)))

    def to_dict(self) -> dict:
        """The JSON encoding {"n": n, "sigma": [...]}."""
        return {"n": self.n, "sigma": self.sigma.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc) -> "Permutation":
        """Inverse of to_dict; raises ValueError for any malformed document."""
        try:
            p, n = cls(doc["sigma"]), doc["n"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"permutation JSON: missing or mistyped field {exc}") from exc
        if type(n) is not int or p.n != n:
            raise ValueError("permutation JSON: n does not match sigma length")
        return p

    @classmethod
    def from_json(cls, text: str) -> "Permutation":
        return cls.from_dict(json.loads(text))


def identity_perm(n: int) -> Permutation:
    return Permutation(np.arange(n))


def stride_perm(k: int, n: int) -> Permutation:
    """The reshape-transpose-flatten permutation sigma(i) = (i mod k)*(n/k) + i//k."""
    if k < 1 or n < 1 or n % k != 0:
        raise ValueError(f"stride_perm requires k | n with k >= 1, got k={k}, n={n}")
    i = np.arange(n)
    return Permutation((i % k) * (n // k) + i // k)


def paired_stride_perm(k: int, n: int) -> Permutation:
    """Stride permutation acting on adjacent channel pairs.

    sigma(i) = (floor(i/2) mod k) * n/k + 2*floor(i/(2k)) + (i mod 2);
    pair (2t, 2t+1) always lands on an adjacent even-odd pair.
    """
    if k < 1 or n < 1 or n % (2 * k) != 0:
        raise ValueError(f"paired_stride_perm requires 2k | n, got k={k}, n={n}")
    i = np.arange(n)
    return Permutation((i // 2 % k) * (n // k) + 2 * (i // (2 * k)) + i % 2)


def perm_cols(p: Permutation, m: np.ndarray) -> np.ndarray:
    """M @ P: column j of the result is column sigma[j] of M (a gather)."""
    if m.shape[1] != p.n:
        raise ValueError(f"column count mismatch: expected {p.n}, got {m.shape[1]}")
    return np.take(m, p.sigma, axis=1)


def perm_cols_t(p: Permutation, m: np.ndarray) -> np.ndarray:
    """M @ P^T, gathered through the cached inverse permutation."""
    if m.shape[1] != p.n:
        raise ValueError(f"column count mismatch: expected {p.n}, got {m.shape[1]}")
    return np.take(m, p._inv, axis=1)
