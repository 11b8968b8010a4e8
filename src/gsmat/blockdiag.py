"""Block-diagonal operators and Cayley-parametrized orthogonal blocks.

All arithmetic is float64. The Cayley map Q = (I + K)(I - K)^{-1} sends a
skew-symmetric K to a special-orthogonal Q; free parameters are full square
generators A with K = A - A^T, so gradients flow through skew projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import attrgetter
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


@dataclass(frozen=True)
class BlockDiagonal:
    """Ordered dense blocks along the diagonal; immutable."""

    blocks: tuple = field(repr=False)
    # Maximal runs of consecutive equal-shape blocks, each one (k, b1, b2) stack.
    _runs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = [np.asarray(b, dtype=np.float64) for b in self.blocks]
        runs = [np.array(list(run)) for _, run in groupby(blocks, key=attrgetter("shape"))]
        if not runs or any(run.ndim != 3 for run in runs):
            raise ValueError("blocks must be a nonempty sequence of 2-D arrays")
        object.__setattr__(self, "_runs", tuple(runs))
        object.__setattr__(self, "blocks", tuple(chain.from_iterable(runs)))

    @classmethod
    def identity(cls, sizes: Sequence[int]) -> "BlockDiagonal":
        return cls(tuple(np.eye(b) for b in sizes))

    @property
    def block_rows(self) -> list:
        return [b.shape[0] for b in self.blocks]

    @property
    def block_cols(self) -> list:
        return [b.shape[1] for b in self.blocks]

    @property
    def rows(self) -> int:
        return sum(k * b1 for k, b1, _ in (run.shape for run in self._runs))

    @property
    def cols(self) -> int:
        return sum(k * b2 for k, _, b2 in (run.shape for run in self._runs))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Blockwise matvec (or matmat on the leading axis)."""
        if x.shape[0] != self.cols:
            raise ValueError(f"length mismatch: expected {self.cols}, got {x.shape[0]}")
        return self._product(x, transpose=False)

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """Transposed blockwise matvec."""
        if x.shape[0] != self.rows:
            raise ValueError(f"length mismatch: expected {self.rows}, got {x.shape[0]}")
        return self._product(x, transpose=True)

    def _product(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """One batched matmul per run: (k, b1, b2) @ (k, b2, width) on x's slice."""
        width = math.prod(x.shape[1:])
        out, lo = [], 0
        for run in self._runs:
            if transpose:
                run = run.transpose(0, 2, 1)
            k, b1, b2 = run.shape
            y = run @ x[lo : lo + k * b2].reshape(k, b2, width)
            out.append(y.reshape(k * b1, *x.shape[1:]))
            lo += k * b2
        return out[0] if len(out) == 1 else np.concatenate(out)

    def transpose(self) -> "BlockDiagonal":
        return BlockDiagonal(tuple(b.T for b in self.blocks))

    def as_dense(self) -> np.ndarray:
        m = np.zeros((self.rows, self.cols))
        r = c = 0
        for b in self.blocks:
            m[r : r + b.shape[0], c : c + b.shape[1]] = b
            r += b.shape[0]
            c += b.shape[1]
        return m


@dataclass(frozen=True)
class SkewGenerators:
    """Free square generators A_i; the skew factors are K_i = A_i - A_i^T."""

    gens: tuple = field(repr=False)

    def __post_init__(self):
        gens = tuple(np.asarray(a, dtype=np.float64) for a in self.gens)
        if not gens or any(a.ndim != 2 or a.shape[0] != a.shape[1] for a in gens):
            raise ValueError("generators must be square matrices")
        object.__setattr__(self, "gens", gens)

    @classmethod
    def zeros(cls, sizes: Sequence[int]) -> "SkewGenerators":
        return cls(tuple(np.zeros((b, b)) for b in sizes))

    @property
    def sizes(self) -> list:
        return [a.shape[0] for a in self.gens]

    def skew(self) -> list:
        return [a - a.T for a in self.gens]


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
    return BlockDiagonal(tuple(cayley(a - a.T) for a in g.gens))


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
    out = []
    for k in g.skew():
        iu = np.triu_indices(k.shape[0], 1)
        out.append(k[iu].tolist())
    return out

def unpack_skew_triu(packed: Sequence[Sequence[float]], sizes: Sequence[int]) -> SkewGenerators:
    """Inverse of pack_skew_triu up to the skew projection A - A^T."""
    if len(packed) != len(sizes):
        raise ValueError(f"expected {len(sizes)} packed generators, got {len(packed)}")
    gens = []
    for vals, b in zip(packed, sizes):
        a = np.zeros((b, b))
        a[np.triu_indices(b, 1)] = vals
        gens.append(a)
    return SkewGenerators(tuple(gens))
