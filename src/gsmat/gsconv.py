"""Grouped orthogonal convolutions via the convolution exponential.

Convolutions are stride-1 cross-correlations with 'same' zero padding and odd
kernels; under that setup the transpose of the materialized Jacobian is again
a convolution, so the skew parametrization L = M - ConvTranspose(M) is exact
and exp(L) has an orthogonal Jacobian up to series truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .perm import Permutation, paired_stride_perm, stride_perm

__all__ = [
    "ConvKernel",
    "GSConvLayer",
    "grouped_conv",
    "conv_as_matrix",
    "skew_kernel",
    "conv_exponential",
    "gs_conv_forward",
    "layer_jacobian",
    "maxmin",
    "maxmin_permuted",
    "make_layer",
    "layer_config",
    "layer_from_config",
    "pairs_stay_in_groups",
]

_MATRIX_SIZE_CAP = 2048


@dataclass(frozen=True, eq=False)
class ConvKernel:
    """c_out x c_in x k_h x k_w kernel with block (grouped) channel structure."""

    weights: np.ndarray = field(repr=False)
    groups: int = 1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 4:
            raise ValueError("kernel must be 4-D (c_out, c_in, k_h, k_w)")
        pairs = _group_view(w, self.groups).transpose(0, 2, 1, 3, 4, 5)  # [out group, in group]
        if np.any(pairs[~np.eye(self.groups, dtype=bool)]):
            raise ValueError("cross-group kernel entries must be zero")

    @property
    def c_out(self) -> int:
        return self.weights.shape[0]

    @property
    def c_in(self) -> int:
        return self.weights.shape[1]

    @property
    def ksize(self):
        return self.weights.shape[2], self.weights.shape[3]


def _group_view(w: np.ndarray, groups: int) -> np.ndarray:
    """(c_out, c_in, kh, kw) weights viewed as (g, c_out/g, g, c_in/g, kh, kw)."""
    c_out, c_in, kh, kw = w.shape
    if groups < 1 or c_out % groups or c_in % groups:
        raise ValueError(f"groups={groups} must divide both channel counts ({c_out}, {c_in})")
    return w.reshape(groups, c_out // groups, groups, c_in // groups, kh, kw)


def random_grouped_kernel(c_out, c_in, k, groups, rng, scale=1.0) -> ConvKernel:
    w = scale * rng.standard_normal((c_out, c_in, k, k))
    masked = _group_view(w, groups) * np.eye(groups)[:, None, :, None, None, None]
    return ConvKernel(masked.reshape(w.shape), groups)


def grouped_conv(kernel: ConvKernel, x: np.ndarray) -> np.ndarray:
    """'Same'-padded stride-1 cross-correlation of a c_in x h x w tensor."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] != kernel.c_in:
        raise ValueError(f"input must be ({kernel.c_in}, h, w), got {x.shape}")
    kh, kw = kernel.ksize
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernel sides must be odd")
    _, h, w = x.shape
    g, gi = kernel.groups, kernel.c_in // kernel.groups
    # Diagonal group blocks, tap-major: taps[dy, dx] is (g, c_out/g, c_in/g).
    diag = np.arange(g)
    taps = np.ascontiguousarray(_group_view(kernel.weights, g)[diag, :, diag].transpose(3, 4, 0, 1, 2))
    if kh == kw == 1:
        return (taps[0, 0] @ x.reshape(g, gi, h * w)).reshape(kernel.c_out, h, w)
    # The padded image is stored flat with rows wp wide, plus 2pw spare zeros
    # at the end, so tap (dy, dx) reads the contiguous window of h*wp entries
    # starting at dy*wp + dx: a strided view that BLAS takes without a copy.
    # Each output row then has wp columns, of which the last 2pw are dropped.
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    xp = np.zeros((g, gi, hp * wp + 2 * pw))
    xp[:, :, : hp * wp].reshape(g, gi, hp, wp)[:, :, ph : ph + h, pw : pw + w] = x.reshape(g, gi, h, w)
    y = np.zeros((g, kernel.c_out // g, h * wp))
    for dy in range(kh):
        for dx in range(kw):
            start = dy * wp + dx
            y += taps[dy, dx] @ xp[:, :, start : start + h * wp]
    return np.ascontiguousarray(y.reshape(kernel.c_out, h, wp)[:, :, :w])


def conv_as_matrix(kernel: ConvKernel, h: int, w: int) -> np.ndarray:
    """Dense (c_out*h*w) x (c_in*h*w) matrix of the convolution, row-major vec."""
    kh, kw = kernel.ksize
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernel sides must be odd")
    if max(kernel.c_out, kernel.c_in) * h * w > _MATRIX_SIZE_CAP:
        raise ValueError(f"conv_as_matrix size cap {_MATRIX_SIZE_CAP} exceeded")
    ph, pw = kh // 2, kw // 2
    m = np.zeros((kernel.c_out * h * w, kernel.c_in * h * w))
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    ys, xs = ys.ravel(), xs.ravel()
    for dy in range(kh):
        for dx in range(kw):
            yy, xx = ys + dy - ph, xs + dx - pw
            ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            rows, cols = (ys * w + xs)[ok], (yy * w + xx)[ok]
            for o in range(kernel.c_out):
                for i in range(kernel.c_in):
                    val = kernel.weights[o, i, dy, dx]
                    if val != 0.0:
                        m[o * h * w + rows, i * h * w + cols] += val
    return m


def skew_kernel(m: ConvKernel) -> ConvKernel:
    """L = M - ConvTranspose(M), making the materialized Jacobian exactly skew."""
    if m.c_in != m.c_out:
        raise ValueError(f"skew_kernel requires square channels, got {m.c_out} x {m.c_in}")
    w = m.weights
    return ConvKernel(w - w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], m.groups)


def conv_exponential(l: ConvKernel, x: np.ndarray, terms: int) -> np.ndarray:
    """Partial sum X + L*X/1! + ... + L*^T X/T! of the convolution exponential."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if l.c_in != l.c_out:
        raise ValueError("convolution exponential requires square channels")
    acc = np.asarray(x, dtype=np.float64).copy()
    term = acc.copy()
    for t in range(1, terms + 1):
        term = grouped_conv(l, term)
        term /= t
        acc += term
    return acc


@dataclass(frozen=True, eq=False)
class GSConvLayer:
    """Channel shuffle + grouped exponential convolution, one or two stages."""

    shuffle1: Permutation
    kernel1: ConvKernel
    shuffle2: Optional[Permutation] = None
    kernel2: Optional[ConvKernel] = None
    exp_terms: int = 6

    def __post_init__(self):
        c = self.kernel1.c_in
        if self.shuffle1.n != c:
            raise ValueError("shuffle1 dimension must equal the channel count")
        if (self.kernel2 is None) != (self.shuffle2 is None):
            raise ValueError("kernel2 and shuffle2 must be provided together")
        if self.kernel2 is not None and (self.kernel2.c_in != c or self.shuffle2.n != c):
            raise ValueError("second stage channel count mismatch")
        if self.exp_terms < 1:
            raise ValueError("exp_terms must be >= 1")

    @property
    def channels(self) -> int:
        return self.kernel1.c_in


def _shuffle_channels(p: Permutation, x: np.ndarray) -> np.ndarray:
    y = np.empty_like(x)
    y[p.sigma] = x
    return y


def gs_conv_forward(layer: GSConvLayer, x: np.ndarray, terms: Optional[int] = None) -> np.ndarray:
    """Shuffle -> exp conv (-> shuffle -> exp conv) as configured."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != layer.channels:
        raise ValueError(f"expected {layer.channels} channels, got {x.shape[0]}")
    t = terms if terms is not None else layer.exp_terms
    y = conv_exponential(layer.kernel1, _shuffle_channels(layer.shuffle1, x), t)
    if layer.kernel2 is not None:
        y = conv_exponential(layer.kernel2, _shuffle_channels(layer.shuffle2, y), t)
    return y


def layer_jacobian(layer: GSConvLayer, h: int, w: int, terms: Optional[int] = None) -> np.ndarray:
    """Materialize the layer's Jacobian by applying it to all basis tensors."""
    c = layer.channels
    d = c * h * w
    if d > _MATRIX_SIZE_CAP:
        raise ValueError(f"layer_jacobian size cap {_MATRIX_SIZE_CAP} exceeded")
    jac = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        jac[:, j] = gs_conv_forward(layer, e.reshape(c, h, w), terms).ravel()
    return jac


def maxmin(x: np.ndarray) -> np.ndarray:
    """Sort channel pairs (i, i + c/2): max into the first half, min into the second."""
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[0]
    if c % 2:
        raise ValueError("maxmin requires an even channel count")
    a, b = x[: c // 2], x[c // 2 :]
    return np.concatenate([np.maximum(a, b), np.minimum(a, b)])


def maxmin_permuted(x: np.ndarray) -> np.ndarray:
    """Sort adjacent channel pairs (2t, 2t+1): max to the even, min to the odd."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] % 2:
        raise ValueError("maxmin_permuted requires an even channel count")
    out = np.empty_like(x)
    a, b = x[::2], x[1::2]
    out[::2] = np.maximum(a, b)
    out[1::2] = np.minimum(a, b)
    return out


def pairs_stay_in_groups(p: Permutation, group_size: int) -> bool:
    """Whether each adjacent pair (2t, 2t+1) lands intact inside one group."""
    if p.n % 2 or group_size < 1 or p.n % group_size:
        raise ValueError("need even dimension and group_size | n")
    even = p.sigma[::2]
    odd = p.sigma[1::2]
    return bool(np.all(odd == even + 1) and np.all(even // group_size == odd // group_size))


def make_layer(
    channels: int,
    groups1: int,
    groups2: Optional[int],
    exp_terms: int,
    rng: np.random.Generator,
    shuffle: str = "paired",
    kernel_scale: float = 0.3,
) -> GSConvLayer:
    """Random skew-parametrized layer; shuffle group count follows each conv."""
    if shuffle not in ("paired", "plain"):
        raise ValueError(f"unknown shuffle kind: {shuffle!r}")
    mk_perm = paired_stride_perm if shuffle == "paired" else stride_perm
    k1 = skew_kernel(random_grouped_kernel(channels, channels, 3, groups1, rng, kernel_scale))
    if groups2 is None:
        return GSConvLayer(mk_perm(groups1, channels), k1, exp_terms=exp_terms)
    k2 = skew_kernel(random_grouped_kernel(channels, channels, 1, groups2, rng, kernel_scale))
    return GSConvLayer(
        mk_perm(groups1, channels), k1, mk_perm(groups2, channels), k2, exp_terms
    )


def layer_config(layer: GSConvLayer, shuffle: str = "paired", activation: str = "maxmin_permuted") -> dict:
    """Structural description matching the layer config JSON schema."""
    return {
        "channels": layer.channels,
        "groups1": layer.kernel1.groups,
        "groups2": None if layer.kernel2 is None else layer.kernel2.groups,
        "exp_terms": layer.exp_terms,
        "shuffle": shuffle,
        "activation": activation,
    }


def layer_from_config(cfg: dict, rng: np.random.Generator, kernel_scale: float = 0.3) -> GSConvLayer:
    """Build a randomly initialized layer from a config dict."""
    if cfg.get("activation", "maxmin_permuted") not in ("maxmin", "maxmin_permuted"):
        raise ValueError(f"unknown activation: {cfg.get('activation')!r}")
    return make_layer(
        cfg["channels"],
        cfg["groups1"],
        cfg.get("groups2"),
        cfg.get("exp_terms", 6),
        rng,
        shuffle=cfg.get("shuffle", "paired"),
        kernel_scale=kernel_scale,
    )


def rescale_kernel(k: ConvKernel, factor: float) -> ConvKernel:
    return ConvKernel(k.weights * factor, k.groups)
