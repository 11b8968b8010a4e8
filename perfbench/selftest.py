"""Self-test of the benchmark itself, run from the repository root:

    python3 perfbench/selftest.py

1. Checkers: each workload's checker accepts a true output and rejects
   corrupted ones, so ``ok_frac = 1`` is not vacuous.
2. Restore: tracing wraps every binding of a function and restores them all.
3. Smoke: a few ops of every workload, untraced and traced, report every
   metric named in BENCHMARK.json with its unit and a finite value.
4. Counts: one op of each kind makes exactly the calls derived below from
   gsmat's code, and two traced runs at one seed give identical ``*.calls``.

Exits non-zero on the first failed section, naming what failed.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile

import run  # sets the BLAS thread variables before numpy is imported

import numpy as np  # noqa: E402

from tracing import FUNCTIONS, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7

# Calls made by one op of each kind, read off gsmat's code:
#  - GSMatrix.apply: P_R, R, P, L, P_L; apply_t is the same in reverse with
#    inverses; GSChain.apply: one perm and one block factor per factor, then
#    p_out (3 factors = min_factors_dense(16, 256)).
#  - GSOFTAdapter step: forward materializes Q (32 Cayley blocks for b=32 at
#    d=512) and applies Q^T; backward runs materialize_vjp (both block sets
#    again, dense L and R, 32 Cayley VJPs, three perm products) and forward
#    once more for the scale gradient: 96 cayley, 32 cayley_vjp.
#  - DoubleGSOFTAdapter step: both sides (32 + 32 generators) in every
#    materialize, two forwards and one backward: 256 cayley, 64 cayley_vjp.
#  - compress: one svd_small per routed block pair, 16 x 16 = 256 for both
#    classes; as_dense densifies L and R and permutes twice.
#  - conv: two stages of a 6-term exponential, one grouped_conv per term.
INFER_GS = {"gs.apply": 1, "perm.apply": 3, "blockdiag.apply": 2}
INFER_GS_T = {"gs.apply_t": 1, "perm.apply_inverse": 3, "blockdiag.apply_t": 2}
INFER_CHAIN = {"chain.apply": 1, "perm.apply": 4, "blockdiag.apply": 3}
COMPRESS_OP = {
    "container.load": 1, "gs.project": 1, "gs.svd_small": 256, "container.save": 1,
    "gs.as_dense": 1, "blockdiag.as_dense": 2, "perm.apply": 2, "perm.apply_inverse": 1,
}
CONV_OP = {
    "gsconv.gs_conv_forward": 1, "gsconv.conv_exponential": 2,
    "gsconv.grouped_conv": 12, "gsconv.maxmin_permuted": 1,
}
EXPECTED_CALLS = {
    "infer": {
        **{f"gs.apply/{n}": INFER_GS for n in (1, 16, 256)},
        **{f"gs.apply_t/{n}": INFER_GS_T for n in (1, 16, 256)},
        **{f"chain.apply/{n}": INFER_CHAIN for n in (1, 16, 256)},
    },
    "finetune": {
        "single": {
            "gsoft.forward": 2, "gsoft.backward": 1, "ortho.materialize": 2, "ortho.materialize_vjp": 1,
            "blockdiag.cayley_blockdiag": 6, "blockdiag.cayley": 96, "blockdiag.cayley_vjp": 32,
            "blockdiag.as_dense": 2, "blockdiag.apply_t": 4, "gs.apply_t": 2,
            "perm.apply": 2, "perm.apply_inverse": 7,
        },
        "double": {
            "gsoft.double_forward": 2, "gsoft.double_backward": 1, "ortho.materialize": 6,
            "ortho.materialize_vjp": 2, "blockdiag.cayley_blockdiag": 16, "blockdiag.cayley": 256,
            "blockdiag.cayley_vjp": 64, "blockdiag.as_dense": 4, "blockdiag.apply_t": 10,
            "blockdiag.apply": 2, "gs.apply_t": 5, "gs.apply": 1, "perm.apply": 7, "perm.apply_inverse": 17,
        },
    },
    "compress": {"256/b16": COMPRESS_OP, "512/b32": COMPRESS_OP},
    "conv": {kind: CONV_OP for kind in ("16x16", "32x32")},
}


def rejected(wl, kind, j, out) -> bool:
    """The checker refuses out, by a reason or by raising (both count as failed)."""
    try:
        return wl.check(kind, j, out) is not None
    except Exception:  # measure() counts a raising checker as a failed op
        return True


def bump(a, rel=1e-6):
    """Copy of a with one entry moved by rel of the array's scale."""
    a = np.array(a, dtype=np.float64)
    a.flat[a.size // 2] += rel * (1.0 + np.max(np.abs(a)))
    return a


def check_checkers(workdir) -> list:
    g = run.import_gsmat()
    bad = []

    def expect(ok, what):
        if not ok:
            bad.append(what)

    for name, cls in WORKLOADS.items():
        wl = cls(g, SEED, workdir)
        wl.build_references()
        for kind in wl.kinds():
            out = wl.run(kind, 0)
            expect(wl.check(kind, 0, out) is None, f"{name}/{kind}: true output rejected")
            if name in ("infer", "conv"):
                expect(rejected(wl, kind, 0, bump(out)), f"{name}/{kind}: perturbed entry accepted")
                nan = np.array(out)
                nan.flat[0] = np.nan
                expect(rejected(wl, kind, 0, nan), f"{name}/{kind}: NaN accepted")
                expect(rejected(wl, kind, 0, out[:-1]), f"{name}/{kind}: truncated output accepted")
                expect(rejected(wl, kind, 0, out[::-1]), f"{name}/{kind}: reordered output accepted")
            elif name == "compress":
                m, err = out
                expect(rejected(wl, kind, 0, (m, err * (1 + 1e-6))), f"compress/{kind}: wrong error norm accepted")
                path = wl.out_path(kind)
                with open(path, "rb") as fh:
                    data = bytearray(fh.read())
                data[-3] ^= 0x01
                with open(path, "wb") as fh:
                    fh.write(bytes(data))
                expect(rejected(wl, kind, 0, out), f"compress/{kind}: flipped payload bit accepted")
                with open(path, "wb") as fh:
                    fh.write(bytes(data[:-8]))
                expect(rejected(wl, kind, 0, out), f"compress/{kind}: truncated file accepted")
            elif name == "finetune":
                wrong_loss = dict(out, loss=out["loss"] * (1 + 1e-6))
                expect(rejected(wl, kind, 0, wrong_loss), f"finetune/{kind}: wrong loss accepted")
                x, target = wl.inputs[kind][0], wl.targets[kind][0]
                ad, grads = out["before"], out["grads"]
                gens = wl.gens(ad)
                expect(wl.fd_check(ad, gens, grads, x, target) is None, f"finetune/{kind}: true gradient rejected")
                scaled = _scale_grads(grads, 1.01)
                expect(wl.fd_check(ad, gens, scaled, x, target) is not None, f"finetune/{kind}: scaled gradient accepted")
                side, p = wl.sides(ad)[0]
                m = g.materialize(p)
                expect(wl.ortho_reason(m) is None, f"finetune/{kind}: orthogonal Q rejected")
                skewed = g.GSMatrix(m.spec, g.BlockDiagonal(tuple(1.0001 * b for b in m.L.blocks)), m.R)
                expect(wl.ortho_reason(skewed) is not None, f"finetune/{kind}: non-orthogonal Q accepted")
        if name == "finetune":
            rng = np.random.default_rng(SEED)
            for kind, ad in wl.initial.items():
                far = {side: g.OrthoGSParams.random(p.spec, rng, 1.0) for side, p in wl.sides(ad)}
                wl.adapters[kind] = (g.GSOFTAdapter(ad.W0, far["q"], ad.scale) if kind == "single" else
                                     g.DoubleGSOFTAdapter(ad.W0, far["q_U"], far["q_V"], ad.scale))
            expect(len(wl.finish()) == 2, "finetune: rising loss accepted")
    return bad


def _scale_grads(grads, factor):
    """Gradient dict (nested per side, lists of arrays) with every entry scaled."""
    if isinstance(grads, dict):
        return {k: _scale_grads(v, factor) for k, v in grads.items()}
    if isinstance(grads, list):
        return [v * factor for v in grads]
    return grads * factor


def check_smoke(workdir) -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bad = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            res = run.run(name, SEED, 0.2, trace, min_ops=4)["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                bad.append(f"{name} trace={trace}: metrics differ: missing {sorted(set(want) - set(got))}, "
                           f"extra {sorted(set(got) - set(want))}, units {[k for k in want if got.get(k) != want[k]]}")
            values = [v["value"] for v in res["metrics"].values()]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                bad.append(f"{name} trace={trace}: non-finite metric value")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                bad.append(f"{name} trace={trace}: run not correct: {res}")
    return bad


def check_counts(workdir) -> list:
    bad = []
    names = [f[0] for f in FUNCTIONS]
    for name in WORKLOADS:
        runs = [run.run(name, SEED, 0.3, True, min_ops=4) for _ in range(2)]
        first, second = ({k: v["value"] for k, v in r["result"]["metrics"].items() if k.endswith(".calls")} for r in runs)
        if first != second:
            bad.append(f"{name}: *.calls differ between two traced runs at seed {SEED}")
        for kind, calls in runs[0]["details"]["calls_by_kind"].items():
            want = EXPECTED_CALLS[name][kind]
            got = {n: c for n, c in calls.items() if c}
            if got != {n: float(c) for n, c in want.items() if n in names}:
                bad.append(f"{name}/{kind}: calls {got} != expected {want}")
    return bad


def check_restore(workdir) -> list:
    """Wrapping reaches every binding of a function, and restore undoes all of it."""
    g = run.import_gsmat()
    spaces = [m for n, m in sys.modules.items() if n == "gsmat" or n.startswith("gsmat.")]
    spaces += [g.Permutation, g.BlockDiagonal, g.GSMatrix, g.GSChain, g.GSOFTAdapter, g.DoubleGSOFTAdapter]
    before = [dict(vars(ns)) for ns in spaces]
    rec = SpanRecorder()
    rec.wrap()
    bad = [f"{ns.__name__}.cayley_vjp not wrapped" for ns in (g, g.ortho, g.gsoft, g.blockdiag)
           if not hasattr(ns.cayley_vjp, "__wrapped__")]
    rec.restore()
    bad += [f"{ns.__name__} not restored" for ns, d in zip(spaces, before) if dict(vars(ns)) != d]
    return bad


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        sections = (("checkers", check_checkers), ("restore", check_restore),
                    ("smoke", check_smoke), ("counts", check_counts))
        for title, section in sections:
            bad = section(workdir)
            for line in bad:
                print(f"FAIL {title}: {line}")
            if bad:
                return 1
            print(f"ok   {title}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
