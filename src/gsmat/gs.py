"""Group-and-shuffle matrices A = P_L (L P R) P_R.

L is block-diagonal m x s with k_L blocks of size b_L1 x b_L2, R is s x n
with k_R blocks of size b_R1 x b_R2, and P_L, P, P_R are permutations of
dimensions m, s, n. The interior permutation routes rank-one terms between
blocks, giving the block-low-rank view and the per-block SVD projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .blockdiag import BlockDiagonal
from .chain import GSChain
from .perm import Permutation, identity_perm, perm_cols, perm_cols_t, stride_perm

__all__ = [
    "GSClassSpec",
    "GSMatrix",
    "block_rank_map",
    "to_block_lowrank",
    "svd_small",
    "project",
    "gsoft_spec",
]

_SVD_SIZE_CAP = 256
_SIZES = ("k_L", "b_L1", "b_L2", "k_R", "b_R1", "b_R2")
_PERMS = ("P_L", "P", "P_R")


@dataclass(frozen=True)
class GSClassSpec:
    """Dimensions, block counts/sizes and the three fixed permutations."""

    k_L: int
    b_L1: int
    b_L2: int
    k_R: int
    b_R1: int
    b_R2: int
    P_L: Permutation = field(repr=False)
    P: Permutation = field(repr=False)
    P_R: Permutation = field(repr=False)

    def __post_init__(self):
        if min(self.k_L, self.b_L1, self.b_L2, self.k_R, self.b_R1, self.b_R2) < 1:
            raise ValueError("block counts and sizes must be positive")
        if self.b_L2 * self.k_L != self.b_R1 * self.k_R:
            raise ValueError(
                f"inner dimensions disagree: b_L2*k_L={self.b_L2 * self.k_L} "
                f"vs b_R1*k_R={self.b_R1 * self.k_R}"
            )
        for p, dim, name in ((self.P_L, self.m, "P_L"), (self.P, self.s, "P"), (self.P_R, self.n, "P_R")):
            if p.n != dim:
                raise ValueError(f"{name} has dimension {p.n}, expected {dim}")

    @property
    def m(self) -> int:
        return self.b_L1 * self.k_L

    @property
    def n(self) -> int:
        return self.b_R2 * self.k_R

    @property
    def s(self) -> int:
        return self.b_L2 * self.k_L

    @classmethod
    def make(cls, k_L, b_L1, b_L2, k_R, b_R1, b_R2, P_L=None, P=None, P_R=None):
        """Build a spec, defaulting any missing permutation to the identity."""
        return cls(
            k_L, b_L1, b_L2, k_R, b_R1, b_R2,
            P_L if P_L is not None else identity_perm(b_L1 * k_L),
            P if P is not None else identity_perm(b_L2 * k_L),
            P_R if P_R is not None else identity_perm(b_R2 * k_R),
        )

    def to_dict(self) -> dict:
        """The JSON encoding: six sizes, then each permutation as Permutation.to_dict."""
        return {**{k: getattr(self, k) for k in _SIZES}, **{k: getattr(self, k).to_dict() for k in _PERMS}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc) -> "GSClassSpec":
        """Inverse of to_dict; raises ValueError for any malformed document."""
        try:
            sizes = [doc[k] for k in _SIZES]
            perms = [Permutation.from_dict(doc[k]) for k in _PERMS]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"GS class spec JSON: missing or mistyped field {exc}") from exc
        if any(type(v) is not int for v in sizes):
            raise ValueError(f"GS class spec JSON: {', '.join(_SIZES)} must be integers")
        return cls(*sizes, *perms)

    @classmethod
    def from_json(cls, text: str) -> "GSClassSpec":
        return cls.from_dict(json.loads(text))


def gsoft_spec(d: int, b: int) -> GSClassSpec:
    """The square spec GS(P^T, P, I) with P the stride permutation P_(r, br)."""
    if d < 1 or b < 1 or d % b != 0:
        raise ValueError(f"gsoft_spec requires b | d, got d={d}, b={b}")
    r = d // b
    p = stride_perm(r, d)
    return GSClassSpec(r, b, b, r, b, b, p.invert(), p, identity_perm(d))


@dataclass(frozen=True, eq=False)
class GSMatrix(GSChain):
    """A concrete member of a GS class: the spec plus its L and R factors.

    It is the 2-factor chain P_L * L P * R P_R, so apply and apply_t are
    GSChain's single loop over the factors ((R, P_R), (L, P)).
    """

    spec: GSClassSpec
    L: BlockDiagonal = field(repr=False)
    R: BlockDiagonal = field(repr=False)
    factors: tuple = field(init=False, repr=False)
    p_out: Permutation = field(init=False, repr=False)

    def __post_init__(self):
        sp = self.spec
        if [b.shape for b in self.L.blocks] != [(sp.b_L1, sp.b_L2)] * sp.k_L:
            raise ValueError(f"L must have {sp.k_L} blocks of shape ({sp.b_L1}, {sp.b_L2})")
        if [b.shape for b in self.R.blocks] != [(sp.b_R1, sp.b_R2)] * sp.k_R:
            raise ValueError(f"R must have {sp.k_R} blocks of shape ({sp.b_R1}, {sp.b_R2})")
        object.__setattr__(self, "factors", ((self.R, sp.P_R), (self.L, sp.P)))
        object.__setattr__(self, "p_out", sp.P_L)

    def as_dense(self) -> np.ndarray:
        # Kept apart from GSChain.as_dense (apply to the identity): the traced
        # benchmark pins this path's blockdiag.as_dense and perm.apply counts.
        core = self.L.as_dense() @ self.spec.P.apply(self.R.as_dense())
        return perm_cols(self.spec.P_R, self.spec.P_L.apply(core))


def _routing(spec: GSClassSpec):
    """The slot layout of the block-low-rank view: (ranks, l_slots, r_slots).

    Interior index i pairs column sigma(i) of L with row i of R, a rank-one
    term in block (sigma(i) // b_L2, i // b_R1). Slots are the interior indices
    sorted stably by block pair, so every pair owns a contiguous run of them.
    ranks is the k_L x k_R count per pair; l_slots and r_slots index the
    (k_L, b_L1, b_L2) and (k_R, b_R1, b_R2) stacks, giving one row per slot.
    """
    sigma = spec.P.sigma
    key = sigma // spec.b_L2 * spec.k_R + np.arange(spec.s) // spec.b_R1
    ranks = np.bincount(key, minlength=spec.k_L * spec.k_R).reshape(spec.k_L, spec.k_R)
    rows = np.argsort(key, kind="stable")
    cols = sigma[rows]
    return ranks, (cols // spec.b_L2, slice(None), cols % spec.b_L2), (rows // spec.b_R1, rows % spec.b_R1)


def _pairs(ranks: np.ndarray):
    """(k1, k2, run) for every routed block pair, run the slice of its slots."""
    ends = np.cumsum(ranks).reshape(ranks.shape)
    for k1, k2 in zip(*np.nonzero(ranks)):
        yield int(k1), int(k2), slice(int(ends[k1, k2] - ranks[k1, k2]), int(ends[k1, k2]))


def _gather(a: "GSMatrix"):
    """(ranks, u, v): the L column and R row of every slot, as rows of u and v."""
    ranks, l_slots, r_slots = _routing(a.spec)
    return ranks, np.stack(a.L.blocks)[l_slots], np.stack(a.R.blocks)[r_slots]


def _pack(spec: GSClassSpec, u: np.ndarray, v: np.ndarray) -> "GSMatrix":
    """GSMatrix whose L column and R row at every slot are that slot's rows of u, v."""
    _, l_slots, r_slots = _routing(spec)
    l = np.zeros((spec.k_L, spec.b_L1, spec.b_L2))
    r = np.zeros((spec.k_R, spec.b_R1, spec.b_R2))
    l[l_slots], r[r_slots] = u, v
    return GSMatrix(spec, BlockDiagonal(l), BlockDiagonal(r))


def block_rank_map(spec: GSClassSpec) -> np.ndarray:
    """k_L x k_R integer matrix of rank-one term counts routed by P."""
    return _routing(spec)[0]


def to_block_lowrank(a: GSMatrix) -> list:
    """Factor pairs (k1, k2, U, V) with block (k1, k2) of L P R equal to U @ V.T.

    Requires identity outer permutations; conjugate P_L, P_R away first.
    """
    sp = a.spec
    if not (sp.P_L.is_identity() and sp.P_R.is_identity()):
        raise ValueError(
            "to_block_lowrank requires identity outer permutations; "
            "strip P_L and P_R by conjugation first"
        )
    ranks, u, v = _gather(a)
    return [(k1, k2, u[run].T, v[run].T) for k1, k2, run in _pairs(ranks)]


def svd_small(m: np.ndarray):
    """Deterministic full SVD M = U diag(s) V^T for small dense matrices.

    Sign convention: the first nonzero entry of each left singular vector is
    nonnegative, so repeated runs and golden tests agree.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("svd_small expects a matrix")
    if max(m.shape) > _SVD_SIZE_CAP:
        raise ValueError(f"svd_small size cap {_SVD_SIZE_CAP} exceeded: {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd_small: input contains NaN/Inf")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    nz = np.abs(u) > 1e-14
    first = u[nz.argmax(0), np.arange(s.size)] if s.size else s
    sign = np.where(first < 0, -1.0, 1.0)
    return u * sign, s, vt.T * sign


def project(a: np.ndarray, spec: GSClassSpec) -> GSMatrix:
    """Frobenius-nearest member of the class, by per-block truncated SVD.

    Each block of P_L^T A P_R^T is truncated to the rank the interior
    permutation routes into it; the split factors U_r sqrt(S) and sqrt(S) V_r^T
    fill the pair's slots, and slots past the available spectrum stay zero.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (spec.m, spec.n):
        raise ValueError(f"shape mismatch: expected {(spec.m, spec.n)}, got {a.shape}")
    core = perm_cols_t(spec.P_R, spec.P_L.apply_inverse(a))
    blocks = core.reshape(spec.k_L, spec.b_L1, spec.k_R, spec.b_R2)
    u_slots, v_slots = np.zeros((spec.s, spec.b_L1)), np.zeros((spec.s, spec.b_R2))
    for k1, k2, run in _pairs(block_rank_map(spec)):
        u, s, v = svd_small(blocks[k1, :, k2])
        # Past the available spectrum the slots stay zero.
        n = min(run.stop - run.start, s.size)
        root = np.sqrt(s[:n])
        u_slots[run][:n], v_slots[run][:n] = (root * u[:, :n]).T, (root * v[:, :n]).T
    return _pack(spec, u_slots, v_slots)
