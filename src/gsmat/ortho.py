"""Orthogonal GS matrices: Cayley-block construction and re-orthogonalization.

For square classes with square blocks, enforcing orthogonality of every block
of L and R is enough: any orthogonal member of the class admits such a
representation, recovered constructively by per-block QR of the low-rank
factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockdiag import SkewGenerators, cayley_blockdiag, cayley_vjp
from .gs import GSClassSpec, GSMatrix, _gather, _pack, _pairs
from .perm import perm_cols, perm_cols_t

__all__ = [
    "OrthoGSParams",
    "materialize",
    "materialize_vjp",
    "orthogonalize_representation",
    "is_orthogonal",
]


@dataclass(frozen=True, eq=False)
class OrthoGSParams:
    """Skew generators for the L and R blocks of a square, square-block spec."""

    spec: GSClassSpec
    gen_L: SkewGenerators = field(repr=False)
    gen_R: SkewGenerators = field(repr=False)

    def __post_init__(self):
        sp = self.spec
        if sp.m != sp.n or sp.b_L1 != sp.b_L2 or sp.b_R1 != sp.b_R2:
            raise ValueError("OrthoGSParams requires a square spec with square blocks")
        if self.gen_L.sizes != [sp.b_L1] * sp.k_L or self.gen_R.sizes != [sp.b_R1] * sp.k_R:
            raise ValueError("generator sizes do not match the spec's blocks")

    @classmethod
    def zeros(cls, spec: GSClassSpec) -> "OrthoGSParams":
        return cls(
            spec,
            SkewGenerators.zeros([spec.b_L1] * spec.k_L),
            SkewGenerators.zeros([spec.b_R1] * spec.k_R),
        )

    @classmethod
    def random(cls, spec: GSClassSpec, rng: np.random.Generator, scale: float = 1.0) -> "OrthoGSParams":
        gl = tuple(scale * rng.standard_normal((spec.b_L1, spec.b_L1)) for _ in range(spec.k_L))
        gr = tuple(scale * rng.standard_normal((spec.b_R1, spec.b_R1)) for _ in range(spec.k_R))
        return cls(spec, SkewGenerators(gl), SkewGenerators(gr))


def materialize(p: OrthoGSParams) -> GSMatrix:
    """GSMatrix whose L and R blocks are Cayley images of the generators."""
    return GSMatrix(p.spec, cayley_blockdiag(p.gen_L), cayley_blockdiag(p.gen_R))


def materialize_vjp(p: OrthoGSParams, grad_q: np.ndarray):
    """Gradients of a loss w.r.t. gen_L and gen_R given its gradient at Q dense.

    Q = P_L L P R P_R gives grad_Ldense = H (P R)^T with H = P_L^T G P_R^T, and
    grad_Rdense = (P_L L P)^T G P_R^T. Only their k diagonal b x b blocks feed
    the per-block Cayley VJPs, so only those are contracted, one batched
    (k, b, d) @ (k, d, b) product per factor: O(d^2 b) work, not O(d^3).
    """
    sp = p.spec
    grad_q = np.asarray(grad_q, dtype=np.float64)
    if grad_q.shape != (sp.m, sp.n):
        raise ValueError(f"shape mismatch: expected {(sp.m, sp.n)}, got {grad_q.shape}")
    d, k_l, b_l, k_r, b_r = sp.m, sp.k_L, sp.b_L1, sp.k_R, sp.b_R1
    ld = cayley_blockdiag(p.gen_L).as_dense()
    rd = cayley_blockdiag(p.gen_R).as_dense()
    pr = sp.P.apply(rd)
    pllp = perm_cols(sp.P, sp.P_L.apply(ld))
    gpr = perm_cols_t(sp.P_R, grad_q)
    h = sp.P_L.apply_inverse(gpr)
    g_l = h.reshape(k_l, b_l, d) @ pr.reshape(k_l, b_l, d).transpose(0, 2, 1)
    g_r = pllp.reshape(d, k_r, b_r).transpose(1, 2, 0) @ gpr.reshape(d, k_r, b_r).transpose(1, 0, 2)
    grads_l = [cayley_vjp(a, g) for a, g in zip(p.gen_L.gens, g_l)]
    grads_r = [cayley_vjp(a, g) for a, g in zip(p.gen_R.gens, g_r)]
    return grads_l, grads_r


def is_orthogonal(m: np.ndarray, tol: float):
    """(residual <= tol, ||M^T M - I||_F) in float64."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    residual = float(np.linalg.norm(m.T @ m - np.eye(m.shape[0])))
    return residual <= tol, residual


def orthogonalize_representation(a: GSMatrix, input_tol: float = 1e-8) -> GSMatrix:
    """Re-represent an orthogonal GS matrix with orthogonal L and R blocks.

    The dense product is preserved exactly up to rounding: each routed block
    U V^T is re-associated as (QR-orthonormalized U)(V T^T)^T. Orthogonality
    of the resulting R blocks (and then L blocks) follows from orthogonality
    of the whole matrix once every U factor has orthonormal columns.
    """
    sp = a.spec
    dense = a.as_dense()
    if sp.m != sp.n:
        raise ValueError("orthogonalize_representation requires a square matrix")
    ok, residual = is_orthogonal(dense, input_tol)
    if not ok:
        raise ValueError(
            f"input is not orthogonal within {input_tol:g}: ||A^T A - I||_F = {residual:.3e}"
        )
    # Outer permutations are orthogonal, so the routed blocks of L P R decide.
    ranks, u, v = _gather(a)
    for _, _, run in _pairs(ranks):
        q, t = np.linalg.qr(u[run].T)
        u[run], v[run] = q.T, t @ v[run]
    return _pack(sp, u, v)
