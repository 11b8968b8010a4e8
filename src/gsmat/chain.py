"""Higher-order GS chains, density analysis, and parameter accounting.

A chain is P_out * B_m P_m * ... * B_1 P_1 with block-diagonal B_i. Density
of the class is a pure reachability question on the layered graph where each
B_i contributes all-true block-diagonal edges, which is what support_mask
computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .blockdiag import BlockDiagonal
from .gs import GSClassSpec
from .perm import Permutation, identity_perm

__all__ = [
    "GSChain",
    "chain_from_gs",
    "support_mask",
    "min_factors_dense",
    "butterfly_min_factors",
    "param_count",
    "flop_count",
    "monarch_member",
]


@dataclass(frozen=True)
class GSChain:
    """Ordered factors (B_i, P_i), i = 1..m, plus the outer permutation."""

    factors: tuple = field(repr=False)  # ((B_1, P_1), ..., (B_m, P_m))
    p_out: Permutation = field(repr=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("chain needs at least one factor")
        for i, (b, p) in enumerate(self.factors):
            if p.n != b.cols:
                raise ValueError(
                    f"dimension mismatch at factor boundary {i}: P_{i + 1} has "
                    f"dimension {p.n}, B_{i + 1} expects {b.cols}"
                )
            if i + 1 < len(self.factors):
                nxt = self.factors[i + 1][1].n
                if b.rows != nxt:
                    raise ValueError(
                        f"dimension mismatch at factor boundary {i + 1}: "
                        f"B_{i + 1} outputs {b.rows}, next factor expects {nxt}"
                    )
        if self.p_out.n != self.factors[-1][0].rows:
            raise ValueError("outer permutation dimension mismatch")

    @property
    def in_dim(self) -> int:
        return self.factors[0][1].n

    @property
    def out_dim(self) -> int:
        return self.p_out.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.in_dim:
            raise ValueError(f"length mismatch: expected {self.in_dim}, got {x.shape[0]}")
        for b, p in self.factors:
            x = b.apply(p.apply(x))
        return self.p_out.apply(x)

    def as_dense(self) -> np.ndarray:
        return self.apply(np.eye(self.in_dim))


def chain_from_gs(spec: GSClassSpec, l: BlockDiagonal, r: BlockDiagonal) -> GSChain:
    """The m=2 chain equal to the GS matrix P_L (L P R) P_R."""
    return GSChain(((r, spec.P_R), (l, spec.P)), spec.P_L)


def _block_reach(mask: np.ndarray, b: int, r: int) -> np.ndarray:
    """Propagate reachability through one all-true block-diagonal factor."""
    d = mask.shape[1]
    return np.repeat(mask.reshape(r, b, d).any(axis=1), b, axis=0)


def support_mask(b: int, r: int, interior_perms: Sequence[Permutation], m: int) -> np.ndarray:
    """Possible-nonzero pattern of an m-factor chain of b-block factors.

    interior_perms are P_2..P_m (length m - 1), the permutations between
    consecutive block factors; outer permutations cannot change density and
    are omitted.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(interior_perms) != m - 1:
        raise ValueError(f"expected {m - 1} interior permutations, got {len(interior_perms)}")
    d = b * r
    mask = _block_reach(np.eye(d, dtype=bool), b, r)
    for p in interior_perms:
        if p.n != d:
            raise ValueError(f"interior permutation dimension {p.n} != {d}")
        mask = _block_reach(p.apply(mask), b, r)
    return mask


def min_factors_dense(b: int, r: int) -> int:
    """Minimal chain length 1 + ceil(log_b r) able to form a dense matrix."""
    if b < 2:
        raise ValueError(f"block size must be >= 2, got {b}")
    if r < 1:
        raise ValueError(f"block count must be >= 1, got {r}")
    m, reach = 1, 1
    while reach < r:
        reach *= b
        m += 1
    return m


def butterfly_min_factors(r: int) -> int:
    """Block-butterfly baseline 1 + ceil(log2 r)."""
    return min_factors_dense(2, r)


def param_count(b: int, r: int, m: int) -> int:
    """Entries in m block-diagonal factors of r dense b x b blocks."""
    if min(b, r, m) < 1:
        raise ValueError("arguments must be positive")
    return m * r * b * b


def flop_count(b: int, r: int, m: int, batch: int = 1) -> int:
    """Multiply-adds for m block-diagonal matvecs; permutations are free."""
    if min(b, r, m, batch) < 1:
        raise ValueError("arguments must be positive")
    return m * r * b * b * batch


def monarch_member(spec: GSClassSpec) -> bool:
    """Whether the Monarch coupling constraints k_L = b_R1 and k_R = b_L2 hold."""
    return spec.k_L == spec.b_R1 and spec.k_R == spec.b_L2
