"""Block-diagonal operators and Cayley-parametrized orthogonal blocks.

All arithmetic is float64. The Cayley map Q = (I + K)(I - K)^{-1} sends a
skew-symmetric K to a special-orthogonal Q; free parameters are full square
generators A with K = A - A^T, so gradients flow through skew projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "BlockDiagonal",
    "SkewGenerators",
    "cayley",
    "cayley_blockdiag",
    "cayley_vjp",
    "pack_skew_triu",
    "unpack_skew_triu",
]


def _readonly_stack(arrays, what: str) -> np.ndarray:
    """A read-only float64 (k, b1, b2) copy of k >= 1 equal-shape matrices."""
    try:
        stack = np.array(arrays, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{what} must be numeric matrices that share one shape: {exc}") from exc
    if stack.ndim != 3 or not stack.shape[0]:
        raise ValueError(f"{what} must be a nonempty sequence of 2-D arrays")
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True, eq=False)
class BlockDiagonal:
    """k equal-shape dense blocks along the diagonal; immutable."""

    blocks: tuple = field(repr=False)
    # The blocks as one read-only (k, b1, b2) array; blocks holds its 2-D views.
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack = _readonly_stack(self.blocks, "blocks")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "blocks", tuple(stack))

    def __reduce__(self):
        # Pickle and deepcopy rebuild through __post_init__, so copies stay read-only.
        return BlockDiagonal, (self.stack,)

    @property
    def rows(self) -> int:
        k, b1, _ = self.stack.shape
        return k * b1

    @property
    def cols(self) -> int:
        k, _, b2 = self.stack.shape
        return k * b2

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Blockwise matvec (or matmat on the leading axis): one batched matmul."""
        if x.shape[0] != self.cols:
            raise ValueError(f"length mismatch: expected {self.cols}, got {x.shape[0]}")
        return _product(self.stack, x)

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """Transposed blockwise matvec."""
        if x.shape[0] != self.rows:
            raise ValueError(f"length mismatch: expected {self.rows}, got {x.shape[0]}")
        return _product(self.stack.transpose(0, 2, 1), x)

    def transpose(self) -> "BlockDiagonal":
        return BlockDiagonal(self.stack.transpose(0, 2, 1))

    def as_dense(self) -> np.ndarray:
        k, b1, b2 = self.stack.shape
        m = np.zeros((k, b1, k, b2))
        ar = np.arange(k)
        m[ar, :, ar] = self.stack
        return m.reshape(k * b1, k * b2)


def _product(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(k, b1, b2) @ (k, b2, width) on x's leading axis, reshaped back."""
    k, b1, b2 = stack.shape
    y = stack @ x.reshape(k, b2, math.prod(x.shape[1:]))
    return y.reshape(k * b1, *x.shape[1:])


@dataclass(frozen=True, eq=False)
class SkewGenerators:
    """Free square generators A_i as one read-only (k, b, b) array; K_i = A_i - A_i^T."""

    gens: np.ndarray = field(repr=False)

    def __post_init__(self):
        gens = _readonly_stack(self.gens, "generators")
        if gens.shape[1] != gens.shape[2]:
            raise ValueError("generators must be square matrices")
        object.__setattr__(self, "gens", gens)

    def __reduce__(self):
        return SkewGenerators, (self.gens,)

    @classmethod
    def zeros(cls, k: int, b: int) -> "SkewGenerators":
        return cls(np.zeros((k, b, b)))

    def skew(self) -> np.ndarray:
        return self.gens - self.gens.transpose(0, 2, 1)


def cayley(k: np.ndarray) -> np.ndarray:
    """Q = (I + K)(I - K)^{-1} for skew-symmetric K; Q is in SO(b)."""
    k = np.asarray(k, dtype=np.float64)
    if not np.all(np.isfinite(k)):
        raise ValueError("cayley: input contains NaN/Inf")
    eye = np.eye(k.shape[0])
    # (I+K) and (I-K)^{-1} commute, so the solve order is immaterial.
    return np.linalg.solve(eye - k, eye + k)


def cayley_blockdiag(g: SkewGenerators) -> BlockDiagonal:
    """Apply the Cayley map per block; zero generators give identity blocks."""
    return BlockDiagonal([cayley(k) for k in g.skew()])


def cayley_vjp(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. generator A of a loss with gradient G at Q = cayley(A - A^T).

    With S = I - K, I + Q = 2 S^{-1}, so dQ = 2 S^{-1} dK S^{-1} and
    grad_K = 2 S^{-T} G S^{-T}, where S^{-T} = (I + K)^{-1} (K is skew): one
    LU per block. grad_A = grad_K - grad_K^T.
    """
    a = np.asarray(a, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if a.shape != g.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {g.shape}")
    k = a - a.T
    s_inv_t = np.linalg.inv(np.eye(a.shape[0]) + k)
    grad_k = 2.0 * (s_inv_t @ g @ s_inv_t)
    return grad_k - grad_k.T


def pack_skew_triu(g: SkewGenerators) -> list:
    """Strict upper triangles of K_i = A_i - A_i^T, for serialization."""
    rows, cols = np.triu_indices(g.gens.shape[1], 1)
    return g.skew()[:, rows, cols].tolist()


def unpack_skew_triu(packed: Sequence[Sequence[float]], k: int, b: int) -> SkewGenerators:
    """Inverse of pack_skew_triu up to the skew projection A - A^T."""
    rows, cols = np.triu_indices(b, 1)
    vals = np.asarray(packed, dtype=np.float64)
    if vals.shape != (k, rows.size):
        raise ValueError(f"expected {k} packed generators of {rows.size} entries, got shape {vals.shape}")
    gens = np.zeros((k, b, b))
    gens[:, rows, cols] = vals
    return SkewGenerators(gens)
