"""Command-line surface: density analysis, projection, benchmarks, demos.

Exit codes: 0 success, 2 usage, 3 I/O or container format error, 4 tolerance
failure. All randomized commands are deterministic under --seed (default from
the GS_SEED environment variable).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .blockdiag import BlockDiagonal
from .chain import (
    GSChain,
    butterfly_min_factors,
    flop_count,
    min_factors_dense,
    param_count,
    support_mask,
)
from .container import ContainerError, load_container, save_container
from .gs import GSClassSpec, gsoft_spec, project
from .gsconv import conv_as_matrix, layer_jacobian, make_layer, rescale_kernel
from .gsoft import fit_orthogonal_target
from .ortho import OrthoGSParams, materialize
from .perm import Permutation, identity_perm, stride_perm

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TOLERANCE = 4


def _default_seed() -> int:
    value = os.environ.get("GS_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"GS_SEED must be an integer, got {value!r}") from None


def _checked(parse, ok, expected: str):
    """argparse type that parses the text and requires ok(value).

    A rejected value makes argparse exit 2 with "argument --flag: expected ...".
    """

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return convert


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_positive_float = _checked(float, lambda v: 0 < v < float("inf"), "a finite positive number")
_tolerance = _checked(float, lambda v: 0 <= v < float("inf"), "a finite nonnegative number")


def _interior_perms(kind: str, b: int, r: int, m: int, seed: int):
    d = b * r
    if kind == "stride":
        return [stride_perm(r, d) for _ in range(m - 1)]
    rng = np.random.default_rng(seed)
    return [Permutation(rng.permutation(d)) for _ in range(m - 1)]


def cmd_density(args):
    mask = support_mask(args.b, args.r, _interior_perms(args.perm, args.b, args.r, args.m, args.seed), args.m)
    return {
        "b": args.b,
        "r": args.r,
        "m": args.m,
        "perm": args.perm,
        "dense": bool(mask.all()),
        "zero_entries": int(mask.size - mask.sum()),
        "min_m": min_factors_dense(args.b, args.r),
        "butterfly_m": butterfly_min_factors(args.r),
    }, EXIT_OK


def cmd_count(args):
    return {
        "b": args.b,
        "r": args.r,
        "m": args.m,
        "params": param_count(args.b, args.r, args.m),
        "flops": flop_count(args.b, args.r, args.m, args.batch),
        "min_m": min_factors_dense(args.b, args.r),
        "butterfly_m": butterfly_min_factors(args.r),
        "butterfly_params": param_count(args.b, args.r, butterfly_min_factors(args.r)),
    }, EXIT_OK


def cmd_project(args):
    a = load_container(args.input)
    if not isinstance(a, np.ndarray):
        raise ContainerError("--input must hold a dense matrix")
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = GSClassSpec.from_json(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise ContainerError(f"cannot read spec: {exc}") from exc
    if a.shape != (spec.m, spec.n):
        raise ValueError(f"input shape {a.shape} does not match spec {(spec.m, spec.n)}")
    b = project(a, spec)
    save_container(b, args.output)
    return {"error_norm": float(np.linalg.norm(a - b.as_dense()))}, EXIT_OK


def _time_apply(apply, x, reps: int) -> float:
    for _ in range(3):
        apply(x)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        apply(x)
        samples.append(time.perf_counter_ns() - t0)
    return float(np.median(samples))


def cmd_bench(args):
    """Writes its CSV table to stdout itself and returns no report."""
    d, b, m, reps = args.d, args.b, args.m, args.reps
    if d % b:
        raise ValueError(f"b={b} must divide d={d}")
    r = d // b
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(d)
    writer = csv.writer(sys.stdout)
    writer.writerow(["method", "d", "b", "m", "params", "flops", "ns_per_apply"])

    factors = tuple((BlockDiagonal(rng.standard_normal((r, b, b))), stride_perm(r, d)) for _ in range(m))
    chain = GSChain(factors, identity_perm(d))
    writer.writerow(
        ["gs_chain", d, b, m, param_count(b, r, m), flop_count(b, r, m), _time_apply(chain.apply, x, reps)]
    )

    dense = rng.standard_normal((d, d))
    writer.writerow(["dense", d, b, 0, d * d, d * d, _time_apply(lambda v: dense @ v, x, reps)])
    return None, EXIT_OK


def cmd_demo_gsoft(args):
    rng = np.random.default_rng(args.seed)
    spec = gsoft_spec(args.d, args.b)
    target = materialize(OrthoGSParams.random(spec, rng, scale=0.5)).as_dense()
    try:
        _, losses, residuals = fit_orthogonal_target(spec, target, args.steps, args.lr)
    except RuntimeError as exc:
        return {"error": str(exc)}, EXIT_TOLERANCE
    report = {
        "d": args.d,
        "b": args.b,
        "steps": args.steps,
        "lr": args.lr,
        "seed": args.seed,
        "final_loss": losses[-1],
        "max_ortho_residual": max(residuals),
        "loss_trace": losses,
    }
    return report, (EXIT_TOLERANCE if args.tol is not None and losses[-1] > args.tol else EXIT_OK)


def cmd_demo_conv(args):
    rng = np.random.default_rng(args.seed)
    layer = make_layer(args.channels, args.groups, None, args.terms, rng)
    h = w = args.size
    # Normalize the skew kernel's spectral norm so the truncation error is
    # governed by --terms alone.
    jac1 = conv_as_matrix(layer.kernel1, h, w)
    scale = 1.0 / max(np.linalg.norm(jac1, 2), 1e-12)
    layer = dataclasses.replace(layer, kernel1=rescale_kernel(layer.kernel1, scale))
    d = args.channels * h * w
    eye = np.eye(d)

    def residual(terms: int) -> float:
        jac = layer_jacobian(layer, h, w, terms)
        return float(np.linalg.norm(jac.T @ jac - eye))

    res = residual(args.terms)
    report = {
        "channels": args.channels,
        "groups": args.groups,
        "terms": args.terms,
        "seed": args.seed,
        "ortho_residual": res,
        "ortho_residual_terms_1": residual(1),
        "monotone_vs_terms_1": res <= residual(1),
    }
    return report, (EXIT_TOLERANCE if args.tol is not None and res > args.tol else EXIT_OK)


def cmd_info(args):
    return {
        "name": "gsmat",
        "version": __version__,
        "container_format": "GSM1: magic 'GSM1', uint32-le header length, JSON header, f64le row-major payload",
        "container_kinds": ["dense", "permutation", "blockdiag", "gs", "chain"],
        "exit_codes": {"0": "success", "2": "usage", "3": "I/O or format", "4": "tolerance failure"},
        "seed_env": "GS_SEED",
    }, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsmat",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="support-mask density report for a chain class (JSON)")
    p.add_argument("--b", type=_positive_int, required=True, help="block size")
    p.add_argument("--r", type=_positive_int, required=True, help="block count")
    p.add_argument("--m", type=_positive_int, required=True, help="number of factors")
    p.add_argument("--perm", choices=["stride", "random"], default="stride")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("count", help="parameter/FLOP accounting (JSON)")
    p.add_argument("--b", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--batch", type=_positive_int, default=1)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("project", help="project a dense matrix onto a GS class")
    p.add_argument("--input", required=True, help="GSM1 container holding a dense matrix")
    p.add_argument("--spec", required=True, help="GS class spec JSON file")
    p.add_argument("--output", required=True, help="output GSM1 container (kind 'gs')")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("bench", help="CSV apply benchmark: gs chain vs dense")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--b", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, default=2)
    p.add_argument("--reps", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("demo-gsoft", help="fit a structured orthogonal target (JSON report)")
    p.add_argument("--d", type=_positive_int, default=16)
    p.add_argument("--b", type=_positive_int, default=4)
    p.add_argument("--steps", type=_positive_int, default=2000)
    p.add_argument("--lr", type=_positive_float, default=0.05)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--tol", type=_tolerance, default=None, help="exit 4 if final loss exceeds this")
    p.set_defaults(func=cmd_demo_gsoft)

    p = sub.add_parser("demo-conv", help="orthogonality of a GS conv layer Jacobian (JSON report)")
    p.add_argument("--channels", type=_positive_int, default=8)
    p.add_argument("--groups", type=_positive_int, default=4)
    p.add_argument("--terms", type=_positive_int, default=20)
    p.add_argument("--size", type=_positive_int, default=4, help="spatial side length")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--tol", type=_tolerance, default=None, help="exit 4 if the residual exceeds this")
    p.set_defaults(func=cmd_demo_conv)

    p = sub.add_parser("info", help="version, formats and exit codes (JSON)")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place that writes its report or error."""
    try:
        args = build_parser().parse_args(argv)
        report, code = args.func(args)
        if report is not None:
            json.dump(report, sys.stdout, indent=2)
            print()
        return code
    except (ContainerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # An exception that is both an OSError and a ValueError (io.UnsupportedOperation) is I/O.
        return EXIT_IO if isinstance(exc, (ContainerError, OSError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
