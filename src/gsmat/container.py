"""Binary container for matrices: JSON header plus contiguous f64le payload.

Layout: magic b"GSM1", little-endian uint32 header length, UTF-8 JSON header,
payload. The header carries format/kind/shape plus kind-specific metadata;
permutations store sigma in the header and have no payload. The payload is
exactly the blocks the header declares, and the header shape must match the
object they build. Round trips are bit-identical.
"""

from __future__ import annotations

import json
from itertools import accumulate

import numpy as np

from .blockdiag import BlockDiagonal
from .chain import GSChain
from .gs import GSClassSpec, GSMatrix
from .perm import Permutation

__all__ = ["ContainerError", "save_container", "load_container"]

_MAGIC = b"GSM1"


class ContainerError(Exception):
    """Malformed or inconsistent container file."""


def _encode(obj):
    """(header, payload blocks) for a supported object."""
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2:
            raise ContainerError("dense payload must be a matrix")
        return {"kind": "dense", "shape": list(obj.shape)}, [obj]
    if isinstance(obj, Permutation):
        return {"kind": "permutation", "shape": [obj.n, obj.n], "sigma": obj.sigma.tolist()}, []
    if isinstance(obj, BlockDiagonal):
        header = {
            "kind": "blockdiag",
            "shape": [obj.rows, obj.cols],
            "block_shapes": [list(b.shape) for b in obj.blocks],
        }
        return header, list(obj.blocks)
    if isinstance(obj, GSMatrix):
        header = {"kind": "gs", "shape": [obj.spec.m, obj.spec.n], "spec": obj.spec.to_dict()}
        return header, list(obj.L.blocks) + list(obj.R.blocks)
    if isinstance(obj, GSChain):
        header = {
            "kind": "chain",
            "shape": [obj.out_dim, obj.in_dim],
            "factors": [
                {
                    "block_shapes": [list(blk.shape) for blk in b.blocks],
                    "perm": p.sigma.tolist(),
                }
                for b, p in obj.factors
            ],
            "p_out": obj.p_out.sigma.tolist(),
        }
        return header, [blk for b, _ in obj.factors for blk in b.blocks]
    raise ContainerError(f"unsupported object type: {type(obj).__name__}")


def save_container(obj, path: str) -> None:
    header, blocks = _encode(obj)
    header = {"format": "GSM1", **header, "dtype": "f64le", "layout": "row-major"}
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(raw).to_bytes(4, "little"))
        fh.write(raw)
        for b in blocks:
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def _read_blocks(payload, shapes) -> list:
    """Split the payload into exactly one float64 matrix per [rows, cols] in shapes."""
    if not all(isinstance(s, list) and len(s) == 2 and all(type(d) is int and d >= 0 for d in s) for s in shapes):
        raise ContainerError("malformed header: block shapes must be pairs of nonnegative integers")
    sizes = [8 * r * c for r, c in shapes]
    if sum(sizes) != len(payload):
        fault = "truncated" if sum(sizes) > len(payload) else "has trailing bytes"
        raise ContainerError(f"payload {fault}: header declares {sum(sizes)} bytes, file holds {len(payload)}")
    return [
        np.frombuffer(payload, "<f8", size // 8, offset).reshape(shape).astype(np.float64)
        for shape, size, offset in zip(shapes, sizes, accumulate(sizes, initial=0))
    ]


def _decode(header: dict, payload):
    kind = header.get("kind")
    if kind == "dense":
        return _read_blocks(payload, [header["shape"]])[0]
    if kind == "permutation":
        _read_blocks(payload, [])
        return Permutation(header["sigma"])
    if kind == "blockdiag":
        return BlockDiagonal(tuple(_read_blocks(payload, header["block_shapes"])))
    if kind == "gs":
        sp = GSClassSpec.from_dict(header["spec"])
        blocks = _read_blocks(payload, [[sp.b_L1, sp.b_L2]] * sp.k_L + [[sp.b_R1, sp.b_R2]] * sp.k_R)
        return GSMatrix(sp, BlockDiagonal(tuple(blocks[: sp.k_L])), BlockDiagonal(tuple(blocks[sp.k_L :])))
    if kind == "chain":
        factors = [(f["block_shapes"], Permutation(f["perm"])) for f in header["factors"]]
        blocks = iter(_read_blocks(payload, [s for shapes, _ in factors for s in shapes]))
        return GSChain(
            tuple((BlockDiagonal(tuple(next(blocks) for _ in shapes)), p) for shapes, p in factors),
            Permutation(header["p_out"]),
        )
    raise ContainerError(f"malformed header: unknown kind {kind!r}")


def load_container(path: str):
    """Load and reconstruct the stored object; raise ContainerError when malformed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ContainerError(f"cannot read container: {exc}") from exc
    if data[:4] != _MAGIC:
        raise ContainerError("bad magic: not a GSM1 container")
    end = 8 + int.from_bytes(data[4:8], "little")
    if end > len(data):
        raise ContainerError("header truncated")
    try:
        header = json.loads(data[8:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ContainerError(f"malformed header JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != "GSM1":
        raise ContainerError("malformed header: bad 'format' field")
    if header.get("dtype") != "f64le":
        raise ContainerError("malformed header: bad 'dtype' field")
    try:
        obj = _decode(header, memoryview(data)[end:])
    except KeyError as exc:
        raise ContainerError(f"malformed header: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"inconsistent container contents: {exc}") from exc
    if _encode(obj)[0]["shape"] != header.get("shape"):
        raise ContainerError(f"header shape {header.get('shape')!r} does not match the stored object")
    return obj
