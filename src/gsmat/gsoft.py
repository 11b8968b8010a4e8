"""Orthogonal fine-tuning adapters over frozen weights, plus a small trainer.

An adapter owns a frozen base weight W0 and a structured orthogonal Q built
from Cayley-parametrized blocks; the forward pass is scale * (Q W0)^T x and
Q stays orthogonal at every parameter value by construction.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blockdiag import SkewGenerators, cayley_blockdiag, cayley_vjp, pack_skew_triu, unpack_skew_triu
from .gs import GSClassSpec, gsoft_spec
from .ortho import OrthoGSParams, _factored_vjp, is_orthogonal, materialize, materialize_vjp

__all__ = [
    "GSOFTAdapter",
    "DoubleGSOFTAdapter",
    "fit_orthogonal_target",
    "fit_blockdiag_target",
    "save_adapter",
    "load_adapter",
]


@dataclass(frozen=True, eq=False)
class GSOFTAdapter:
    """Frozen W0 (d x n) with a learnable structured orthogonal Q (d x d)."""

    W0: np.ndarray = field(repr=False)
    q: OrthoGSParams
    scale: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.W0, dtype=np.float64)
        object.__setattr__(self, "W0", w)
        if w.ndim != 2 or w.shape[0] != self.q.spec.m:
            raise ValueError(
                f"W0 rows ({w.shape[0]}) must match the adapter dimension {self.q.spec.m}"
            )
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    @classmethod
    def init(cls, w0: np.ndarray, b: int) -> "GSOFTAdapter":
        """Identity-initialized adapter: zero generators, scale 1."""
        w0 = np.asarray(w0, dtype=np.float64)
        return cls(w0, OrthoGSParams.zeros(gsoft_spec(w0.shape[0], b)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """scale * W0^T (Q^T x), with Q applied through the structure."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.W0.shape[0]:
            raise ValueError(f"length mismatch: expected {self.W0.shape[0]}, got {x.shape[0]}")
        return self.scale * (self.W0.T @ materialize(self.q).apply_t(x))

    def merge(self) -> np.ndarray:
        """Dense merged weight scale * Q @ W0; forward equals merged^T x."""
        return self.scale * materialize(self.q).apply(self.W0)

    def backward(self, x: np.ndarray, grad_out: np.ndarray):
        """Gradients of <grad_out, forward(x)> w.r.t. generators and scale.

        x is one input (d,) or a batch (d, n) with grad_out (n_out,) or
        (n_out, n); a batch's gradients are the sums over its columns.
        """
        x, g = _batch(self.W0, x, grad_out)
        q, w0_g = materialize(self.q), self.W0 @ g
        grads_l, grads_r = _factored_vjp(q, x, self.scale * w0_g)
        # The scale gradient <g, forward(x)> / scale is <W0 g, Q^T x>.
        return {"gen_L": grads_l, "gen_R": grads_r, "scale": float(np.sum(w0_g * q.apply_t(x)))}


@dataclass(frozen=True, eq=False)
class DoubleGSOFTAdapter:
    """Two-sided variant: forward is scale * (Q_U W0 Q_V)^T x."""

    W0: np.ndarray = field(repr=False)
    q_U: OrthoGSParams
    q_V: OrthoGSParams
    scale: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.W0, dtype=np.float64)
        object.__setattr__(self, "W0", w)
        if w.shape != (self.q_U.spec.m, self.q_V.spec.m):
            raise ValueError(
                f"W0 shape {w.shape} must match ({self.q_U.spec.m}, {self.q_V.spec.m})"
            )
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    @classmethod
    def init(cls, w0: np.ndarray, b_u: int, b_v: int) -> "DoubleGSOFTAdapter":
        w0 = np.asarray(w0, dtype=np.float64)
        return cls(
            w0,
            OrthoGSParams.zeros(gsoft_spec(w0.shape[0], b_u)),
            OrthoGSParams.zeros(gsoft_spec(w0.shape[1], b_v)),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.W0.shape[0]:
            raise ValueError(f"length mismatch: expected {self.W0.shape[0]}, got {x.shape[0]}")
        t = materialize(self.q_U).apply_t(x)
        return self.scale * materialize(self.q_V).apply_t(self.W0.T @ t)

    def merge(self) -> np.ndarray:
        """Dense merged weight scale * Q_U @ W0 @ Q_V, through the structured products."""
        w0_qv = materialize(self.q_V).apply_t(self.W0.T).T
        return self.scale * materialize(self.q_U).apply(w0_qv)

    def backward(self, x: np.ndarray, grad_out: np.ndarray):
        """As GSOFTAdapter.backward, for both sides; x may be a (d, n) batch."""
        x, g = _batch(self.W0, x, grad_out)
        qu, qv = materialize(self.q_U), materialize(self.q_V)
        qu_t_x, w0_qv_g = qu.apply_t(x), self.W0 @ qv.apply(g)
        gu = _factored_vjp(qu, x, self.scale * w0_qv_g)
        gv = _factored_vjp(qv, self.scale * (self.W0.T @ qu_t_x), g)
        return {
            "q_U": {"gen_L": gu[0], "gen_R": gu[1]},
            "q_V": {"gen_L": gv[0], "gen_R": gv[1]},
            # The scale gradient <g, forward(x)> / scale is <W0 Q_V g, Q_U^T x>.
            "scale": float(np.sum(w0_qv_g * qu_t_x)),
        }


def _batch(w0: np.ndarray, x, grad_out):
    """x and grad_out as float64, checked to be (d,) and (n_out,), or (d, n) and (n_out, n)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != w0.shape[0] or g.shape != w0.shape[1:] + x.shape[1:]:
        raise ValueError(
            f"shape mismatch in backward: x {x.shape} and grad_out {g.shape} for W0 {w0.shape}"
        )
    return x, g


def _update_gens(g: SkewGenerators, grads, lr: float) -> SkewGenerators:
    """One descent step; raises when the step overflows the skew parts the Cayley map reads."""
    with np.errstate(over="ignore", invalid="ignore"):
        new = SkewGenerators(g.gens - lr * np.asarray(grads))
        if not np.all(np.isfinite(new.skew())):
            raise RuntimeError("training diverged (generators are not finite); try a smaller lr")
    return new


def _target(target, shape: tuple) -> np.ndarray:
    """target as float64, checked to have Q's shape so that it cannot broadcast against Q."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != shape:
        raise ValueError(f"target must have shape {shape}, got {target.shape}")
    return target


def _descend(theta, q_of, step, target: np.ndarray, steps: int):
    """Gradient descent on ||Q - target||_F^2 with Q = q_of(theta).

    step(theta, G) takes one descent step given the loss gradient G at Q.
    Returns (theta, losses); raises on divergence.
    """
    losses = []
    for _ in range(steps):
        diff = q_of(theta) - target
        loss = float(np.sum(diff * diff))
        if not np.isfinite(loss):
            raise RuntimeError("training diverged (loss is not finite); try a smaller lr")
        losses.append(loss)
        theta = step(theta, 2.0 * diff)
    return theta, losses


def fit_orthogonal_target(spec: GSClassSpec, target: np.ndarray, steps: int, lr: float):
    """Gradient descent on ||Q(theta) - target||_F^2 from identity init.

    Returns (params, losses, residuals); Q is orthogonal at every step by
    construction, and the per-step orthogonality residuals are recorded.
    Raises on divergence.
    """
    target = _target(target, (spec.m, spec.n))
    ok, residual = is_orthogonal(target, 1e-8)
    if not ok:
        raise ValueError(f"target is not orthogonal: ||T^T T - I||_F = {residual:.3e}")

    def step(params, grad_q):
        grads_l, grads_r = materialize_vjp(params, grad_q)
        return replace(
            params,
            gen_L=_update_gens(params.gen_L, grads_l, lr),
            gen_R=_update_gens(params.gen_R, grads_r, lr),
        )

    residuals = []

    def q_of(params):
        q = materialize(params).as_dense()
        residuals.append(is_orthogonal(q, np.inf)[1])
        return q

    params, losses = _descend(OrthoGSParams.zeros(spec), q_of, step, target, steps)
    return params, losses, residuals


def fit_blockdiag_target(d: int, b: int, target: np.ndarray, steps: int, lr: float):
    """Ablation arm: a single Cayley block-diagonal factor, no shuffling.

    Same loss and optimizer as fit_orthogonal_target, for like-for-like
    comparison at a matched parameter count.
    """
    if b < 1 or d % b != 0:
        raise ValueError(f"block size {b} must be positive and divide dimension {d}")
    target = _target(target, (d, d))
    k = d // b
    diag = np.arange(k)

    def step(gens, grad_q):
        return _update_gens(gens, cayley_vjp(gens.gens, grad_q.reshape(k, b, k, b)[diag, :, diag]), lr)

    gens = SkewGenerators.zeros(k, b)
    return _descend(gens, lambda g: cayley_blockdiag(g).as_dense(), step, target, steps)


def _w0_hash(w0: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(w0, dtype=np.float64).tobytes()).hexdigest()


def save_adapter(a: GSOFTAdapter, path: str) -> None:
    """Checkpoint: W0 hash, spec JSON, strict-upper-triangle generators, scale."""
    doc = {
        "format": "GSOFT1",
        "w0_sha256": _w0_hash(a.W0),
        "spec": a.q.spec.to_dict(),
        "gen_L_triu": pack_skew_triu(a.q.gen_L),
        "gen_R_triu": pack_skew_triu(a.q.gen_R),
        "scale": a.scale,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_adapter(path: str, w0: np.ndarray) -> GSOFTAdapter:
    """Restore a checkpoint, verifying W0 against the stored hash; ValueError when malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "GSOFT1":
        raise ValueError("not a GSOFT checkpoint (bad format field)")
    w0 = np.asarray(w0, dtype=np.float64)
    try:
        if _w0_hash(w0) != doc["w0_sha256"]:
            raise ValueError("base weight does not match the checkpointed W0 hash")
        spec = GSClassSpec.from_dict(doc["spec"])
        scale, triu_l, triu_r = doc["scale"], doc["gen_L_triu"], doc["gen_R_triu"]
        entries = [v for row in triu_l + triu_r for v in row]
        # JSON numbers only: bool is an int subclass, and "0.5" or null would convert.
        if any(type(v) not in (int, float) for v in [scale, *entries]) or not all(map(math.isfinite, entries)):
            raise ValueError("GSOFT checkpoint: scale and generator entries must be numbers, the entries finite")
        gen_l = unpack_skew_triu(triu_l, spec.k_L, spec.b_L1)
        gen_r = unpack_skew_triu(triu_r, spec.k_R, spec.b_R1)
        return GSOFTAdapter(w0, OrthoGSParams(spec, gen_l, gen_r), scale)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"GSOFT checkpoint: missing or mistyped field {exc}") from exc
