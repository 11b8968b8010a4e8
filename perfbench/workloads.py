"""The four benchmark workloads and their independent correctness checks.

Each workload builds its models and inputs from the seed, issues one operation
at a time through gsmat's public API, and checks every result against
reference data computed here with plain numpy, never through gsmat's own apply
paths. Operations are drawn from a deck: a fixed multiset of operation kinds,
reshuffled from the seed each time it is used up, so every deck has the same
mix and a run that stops at a deck boundary has the mix exactly.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

# --------------------------------------------------------------------------
# Reference arithmetic, written against raw arrays and index vectors only.
# --------------------------------------------------------------------------


def scatter_rows(sigma: np.ndarray, m: np.ndarray) -> np.ndarray:
    """P @ m for the permutation with a 1 at (sigma[i], i)."""
    out = np.empty_like(m)
    out[sigma] = m
    return out


def blockdiag_dense(blocks) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def gs_dense(p_l, p, p_r, l_blocks, r_blocks) -> np.ndarray:
    """Dense P_L L P R P_R from raw blocks and sigmas; (M P)[:, i] = M[:, sigma[i]]."""
    core = blockdiag_dense(l_blocks) @ scatter_rows(p, blockdiag_dense(r_blocks)[:, p_r])
    return scatter_rows(p_l, core)


def cayley_ref(a: np.ndarray) -> np.ndarray:
    """Q = (I + K)(I - K)^{-1} with K = A - A^T, solved from the right; a is (k, b, b)."""
    k = a - a.swapaxes(-1, -2)
    eye = np.eye(a.shape[-1])
    return np.linalg.solve((eye - k).swapaxes(-1, -2), (eye + k).swapaxes(-1, -2)).swapaxes(-1, -2)


def gs_t_apply(p_l, p, p_r, l_stack, r_stack, x) -> np.ndarray:
    """(P_L L P R P_R)^T x for a vector x, from stacked square blocks and sigmas."""

    def block_t(s, y):
        return np.einsum("kji,kj->ki", s, y.reshape(s.shape[0], s.shape[1])).reshape(-1)

    return block_t(r_stack, block_t(l_stack, x[p_l])[p])[p_r]


def conv_ref(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """'Same'-padded cross-correlation as one im2col matrix product."""
    c_out, c_in, kh, kw = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    patches = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = patches.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, h * wd)
    return (w.reshape(c_out, -1) @ cols).reshape(c_out, h, wd)


def close(out, ref, scale: float, rtol: float = 1e-9):
    """None when out matches ref elementwise to rtol of scale = max|ref|, else a reason."""
    out = np.asarray(out)
    if out.shape != ref.shape:
        return f"shape {out.shape} != {ref.shape}"
    diff = np.subtract(out, ref)
    err = float(np.abs(diff, out=diff).max())
    if not err <= rtol * (1.0 + scale):  # NaN in out fails here too
        return f"max abs error {err:.3e}"
    return None


def with_scale(ref: np.ndarray):
    return ref, float(np.max(np.abs(ref)))


def read_gsm1(path: str):
    """(header, payload bytes) of a GSM1 file, parsed without gsmat."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"GSM1":
        raise ValueError("bad magic")
    (hlen,) = struct.unpack("<I", data[4:8])
    return json.loads(data[8 : 8 + hlen].decode("utf-8")), data[8 + hlen :]


class Deck:
    """A fixed multiset of operation kinds, reshuffled by rng each time it is
    used up, or dealt in the given order when rng is None."""

    def __init__(self, counts: dict, rng=None):
        self.cards = [k for k, n in counts.items() for _ in range(n)]
        self.rng = rng
        self.order: list = []

    def draw(self):
        if not self.order:
            idx = range(len(self.cards)) if self.rng is None else self.rng.permutation(len(self.cards))
            self.order = [self.cards[i] for i in reversed(idx)]
        return self.order.pop()

    def at_boundary(self) -> bool:
        return not self.order


class Workload:
    """Interface: build in __init__ (set-up), then draw/run/check per op."""

    name = ""
    layers: tuple = ()  # layers a traced run must see called

    def __init__(self, g, seed: int, workdir: str):
        self.g = g
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.uses = {}

    def kinds(self):
        return list(dict.fromkeys(self.deck.cards))

    def draw(self):
        """(kind, input index), cycling through each kind's input pool."""
        kind = self.deck.draw()
        j = self.uses.get(kind, 0)
        self.uses[kind] = j + 1
        return kind, j % self.pool_size(kind)

    def warmup(self):
        for kind in self.kinds():
            self.run(kind, 0)

    def build_references(self):
        pass

    def finish(self) -> list:
        """Run-level check failures, as messages."""
        return []


# --------------------------------------------------------------------------
# infer: fixed structured layers applied to batches of 1, 16 or 256 vectors.
# --------------------------------------------------------------------------

# Deck weights, listed in rising op cost. The cheap batch-1 and batch-16 GS
# kinds hold 70% of the deck, with p50 in the middle of the batch-16 kinds;
# the batch-256 chain is the costliest kind at 10%, so p95 falls in the middle
# of its own latency distribution instead of on a boundary between two kinds.
INFER_MIX = {
    "gs.apply/1": 15, "gs.apply_t/1": 15,
    "gs.apply/16": 20, "gs.apply_t/16": 20,
    "chain.apply/1": 8,
    "gs.apply/256": 4, "gs.apply_t/256": 3,
    "chain.apply/16": 5,
    "chain.apply/256": 10,
}
GS_D, GS_B = 1024, 32
CHAIN_D, CHAIN_B = 4096, 16


class Infer(Workload):
    name = "infer"
    layers = ("perm", "blockdiag")

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        rng = self.rng
        spec = g.gsoft_spec(GS_D, GS_B)

        def blocks(b, k):
            return g.BlockDiagonal(tuple(rng.standard_normal((b, b)) / np.sqrt(b) for _ in range(k)))

        self.gsm = g.GSMatrix(spec, blocks(GS_B, GS_D // GS_B), blocks(GS_B, GS_D // GS_B))
        r = CHAIN_D // CHAIN_B
        m = g.min_factors_dense(CHAIN_B, r)
        self.chain = g.GSChain(
            tuple((blocks(CHAIN_B, r), g.stride_perm(r, CHAIN_D)) for _ in range(m)),
            g.identity_perm(CHAIN_D),
        )
        self.deck = Deck(INFER_MIX, rng)
        self.ops = {kind: kind.split("/")[0] for kind in self.kinds()}
        self.inputs = {}
        for kind in self.kinds():
            op, batch = kind.split("/")
            d = CHAIN_D if op == "chain.apply" else GS_D
            shape = (d,) if batch == "1" else (d, int(batch))
            self.inputs[kind] = [rng.standard_normal(shape) for _ in range(self.pool_size(kind))]

    def pool_size(self, kind):
        return 2 if kind.endswith("/256") else 4

    def run(self, kind, j):
        x = self.inputs[kind][j]
        op = self.ops[kind]
        if op == "gs.apply":
            return self.gsm.apply(x)
        if op == "gs.apply_t":
            return self.gsm.apply_t(x)
        return self.chain.apply(x)

    def build_references(self):
        sp = self.gsm.spec
        dense = gs_dense(sp.P_L.sigma, sp.P.sigma, sp.P_R.sigma, self.gsm.L.blocks, self.gsm.R.blocks)
        factors = [(np.stack(b.blocks), p.sigma) for b, p in self.chain.factors]
        p_out = self.chain.p_out.sigma

        def chain_ref(x):
            # Factor by factor: dense 4096^2 would dominate the process's memory.
            for stack, sigma in factors:
                k, b, _ = stack.shape
                y = scatter_rows(sigma, x).reshape((k, b) + x.shape[1:])
                x = np.einsum("kij,kj...->ki...", stack, y).reshape(x.shape)
            return scatter_rows(p_out, x)

        self.refs = {}
        for kind, xs in self.inputs.items():
            op = self.ops[kind]
            if op == "gs.apply":
                self.refs[kind] = [with_scale(dense @ x) for x in xs]
            elif op == "gs.apply_t":
                self.refs[kind] = [with_scale(dense.T @ x) for x in xs]
            else:
                self.refs[kind] = [with_scale(chain_ref(x)) for x in xs]

    def check(self, kind, j, out):
        return close(out, *self.refs[kind][j])


# --------------------------------------------------------------------------
# finetune: SGD steps of orthogonal fine-tuning adapters toward a teacher.
# --------------------------------------------------------------------------

FT_D, FT_B = 512, 32  # single-sided adapter on a 512 x 512 W0
FT_DU, FT_DV, FT_BU, FT_BV = 512, 256, 32, 16  # two-sided adapter on 512 x 256
FT_LR = 0.01
FT_TEACHER_SCALE = 0.02
FT_POOL = 64
FT_PROBE = 16
ORTHO_TOL = 1e-10
ORTHO_EVERY = 8  # orthogonality check on every 8th step of each kind
FD_EVERY = 16  # finite-difference spot check on every 16th step of each kind
FD_ENTRIES = 2
FD_EPS = 1e-5


class Finetune(Workload):
    name = "finetune"
    layers = ("blockdiag", "ortho", "gsoft")

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        rng = self.rng
        self.check_rng = np.random.default_rng([seed, 1])  # picks finite-difference entries
        w_single = rng.standard_normal((FT_D, FT_D)) / np.sqrt(FT_D)
        w_double = rng.standard_normal((FT_DU, FT_DV)) / np.sqrt(FT_DU)
        self.adapters = {
            "single": g.GSOFTAdapter.init(w_single, FT_B),
            "double": g.DoubleGSOFTAdapter.init(w_double, FT_BU, FT_BV),
        }
        # Every fourth step trains the two-sided adapter.
        self.deck = Deck({"single": 3, "double": 1})
        self.inputs, self.targets = {}, {}
        for kind, ad in self.adapters.items():
            teacher = {path: FT_TEACHER_SCALE * rng.standard_normal(gens.shape)
                       for path, gens in self.gens(ad).items()}
            xs = [4.0 / np.sqrt(ad.W0.shape[0]) * rng.standard_normal(ad.W0.shape[0]) for _ in range(FT_POOL)]
            self.inputs[kind] = xs
            self.targets[kind] = [self.forward_ref(ad, teacher, x) for x in xs]
        self.initial = dict(self.adapters)
        self.steps = {kind: 0 for kind in self.adapters}

    def pool_size(self, kind):
        return FT_POOL

    @staticmethod
    def sides(ad):
        """(name, OrthoGSParams) pairs of an adapter."""
        if hasattr(ad, "q"):
            return [("q", ad.q)]
        return [("q_U", ad.q_U), ("q_V", ad.q_V)]

    def gens(self, ad):
        """{(side, factor): generators stacked as (k, b, b)}."""
        return {(side, f): np.stack(getattr(p, f).gens) for side, p in self.sides(ad) for f in ("gen_L", "gen_R")}

    def forward_ref(self, ad, gens, x):
        """scale * (Q_U W0 Q_V)^T x from generators, with Q_V = I when single-sided."""

        def q_t(side, p, v):
            sp = p.spec
            l_stack, r_stack = cayley_ref(gens[(side, "gen_L")]), cayley_ref(gens[(side, "gen_R")])
            return gs_t_apply(sp.P_L.sigma, sp.P.sigma, sp.P_R.sigma, l_stack, r_stack, v)

        (side_u, p_u), *rest = self.sides(ad)
        y = ad.W0.T @ q_t(side_u, p_u, x)
        for side_v, p_v in rest:
            y = q_t(side_v, p_v, y)
        return ad.scale * y

    def run(self, kind, j):
        g = self.g
        ad = self.adapters[kind]
        x, target = self.inputs[kind][j], self.targets[kind][j]
        err = ad.forward(x) - target
        loss = float(err @ err)
        grads = ad.backward(x, 2.0 * err)

        def step(p, gr):
            return g.OrthoGSParams(
                p.spec,
                g.SkewGenerators(tuple(a - FT_LR * d for a, d in zip(p.gen_L.gens, gr["gen_L"]))),
                g.SkewGenerators(tuple(a - FT_LR * d for a, d in zip(p.gen_R.gens, gr["gen_R"]))),
            )

        if kind == "single":
            new = g.GSOFTAdapter(ad.W0, step(ad.q, grads), ad.scale)
        else:
            new = g.DoubleGSOFTAdapter(ad.W0, step(ad.q_U, grads["q_U"]), step(ad.q_V, grads["q_V"]), ad.scale)
        self.adapters[kind] = new
        return {"before": ad, "loss": loss, "grads": grads}

    def warmup(self):
        saved = dict(self.adapters)
        super().warmup()
        self.adapters = saved

    @staticmethod
    def grad_at(grads, side, f):
        return grads[f] if side == "q" else grads[side][f]

    def check(self, kind, j, out):
        ad, loss, grads = out["before"], out["loss"], out["grads"]
        gens = self.gens(ad)
        for side, f in gens:
            gr = self.grad_at(grads, side, f)
            if len(gr) != len(gens[(side, f)]) or not all(
                d.shape == a.shape and np.all(np.isfinite(d)) for d, a in zip(gr, gens[(side, f)])
            ):
                return f"bad gradient for {side}.{f}"
        x, target = self.inputs[kind][j], self.targets[kind][j]
        err = self.forward_ref(ad, gens, x) - target
        ref_loss = float(err @ err)
        if not np.isfinite(loss) or abs(loss - ref_loss) > 1e-9 * (1.0 + ref_loss):
            return f"loss {loss!r} != reference {ref_loss!r}"
        n = self.steps[kind]
        self.steps[kind] = n + 1
        if n % ORTHO_EVERY == 0:
            for side, p in self.sides(ad):
                why = self.ortho_reason(self.g.materialize(p))
                if why:
                    return f"{side}: {why}"
        if n % FD_EVERY == 0:
            return self.fd_check(ad, gens, grads, x, target)
        return None

    @staticmethod
    def ortho_reason(m):
        """None when the materialized GS matrix m is orthogonal to ORTHO_TOL."""
        sp = m.spec
        q = gs_dense(sp.P_L.sigma, sp.P.sigma, sp.P_R.sigma, m.L.blocks, m.R.blocks)
        res = float(np.linalg.norm(q.T @ q - np.eye(q.shape[0])))
        return None if res <= ORTHO_TOL else f"orthogonality residual {res:.3e}"

    def fd_check(self, ad, gens, grads, x, target):
        """Central differences of the reference loss on a few generator entries."""
        paths = list(gens)
        for _ in range(FD_ENTRIES):
            side, f = paths[self.check_rng.integers(len(paths))]
            k, b, _ = gens[(side, f)].shape
            blk = int(self.check_rng.integers(k))
            i, j = (int(v) for v in self.check_rng.choice(b, 2, replace=False))
            vals = []
            for sgn in (1.0, -1.0):
                moved = dict(gens)
                moved[(side, f)] = gens[(side, f)].copy()
                moved[(side, f)][blk, i, j] += sgn * FD_EPS
                err = self.forward_ref(ad, moved, x) - target
                vals.append(float(err @ err))
            fd = (vals[0] - vals[1]) / (2 * FD_EPS)
            got = float(self.grad_at(grads, side, f)[blk][i, j])
            if abs(fd - got) > 1e-5 * (1.0 + abs(fd)):
                return f"gradient {got!r} != finite difference {fd!r} at {side}.{f}[{blk}][{i},{j}]"
        return None

    def probe_loss(self, kind, ad):
        """Mean reference loss of ad over the first FT_PROBE pool inputs."""
        pairs = zip(self.inputs[kind][:FT_PROBE], self.targets[kind][:FT_PROBE])
        gens = self.gens(ad)
        return float(np.mean([np.sum((self.forward_ref(ad, gens, x) - t) ** 2) for x, t in pairs]))

    def finish(self):
        """The probe loss of each adapter that trained fell below its initial value."""
        out = []
        for kind, ad in self.adapters.items():
            if self.steps[kind]:
                before, after = self.probe_loss(kind, self.initial[kind]), self.probe_loss(kind, ad)
                if not after < before:
                    out.append(f"{kind} loss did not fall: {before:.6g} -> {after:.6g}")
        return out


# --------------------------------------------------------------------------
# compress: load a dense container, project onto a GS class, save, measure.
# --------------------------------------------------------------------------

COMPRESS_CLASSES = {"256/b16": (256, 16), "512/b32": (512, 32)}
COMPRESS_MIX = {"256/b16": 3, "512/b32": 1}
COMPRESS_POOL = {"256/b16": 3, "512/b32": 2}


class Compress(Workload):
    name = "compress"
    layers = ("gs", "container")

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        self.deck = Deck(COMPRESS_MIX, self.rng)
        self.specs, self.paths = {}, {}
        for kind, (d, b) in COMPRESS_CLASSES.items():
            self.specs[kind] = g.gsoft_spec(d, b)
            self.paths[kind] = []
            for j in range(COMPRESS_POOL[kind]):
                path = os.path.join(workdir, f"in-{d}-{j}.gsm")
                g.save_container(self.rng.standard_normal((d, d)), path)
                self.paths[kind].append(path)

    def pool_size(self, kind):
        return COMPRESS_POOL[kind]

    def out_path(self, kind):
        return os.path.join(self.workdir, f"out-{kind.split('/')[0]}.gsm")

    def run(self, kind, j):
        g = self.g
        a = g.load_container(self.paths[kind][j])
        m = g.project(a, self.specs[kind])
        g.save_container(m, self.out_path(kind))
        return m, float(np.linalg.norm(m.as_dense() - a))

    def build_references(self):
        """Optimal error sqrt(sum of discarded sigma^2) over the routed blocks."""
        self.refs = {}
        for kind, paths in self.paths.items():
            sp = self.specs[kind]
            p_l, p, p_r = sp.P_L.sigma, sp.P.sigma, sp.P_R.sigma
            i = np.arange(sp.s)
            ranks = np.zeros((sp.k_L, sp.k_R), dtype=np.int64)
            np.add.at(ranks, (p[i] // sp.b_L2, i // sp.b_R1), 1)
            self.refs[kind] = []
            for path in paths:
                header, payload = read_gsm1(path)
                a = np.frombuffer(payload, dtype="<f8").reshape(header["shape"])
                core = scatter_rows(p_r, a[p_l].T).T  # P_L^T A P_R^T
                blocks = core.reshape(sp.k_L, sp.b_L1, sp.k_R, sp.b_R2).transpose(0, 2, 1, 3)
                s = np.linalg.svd(blocks, compute_uv=False)
                kept = np.arange(s.shape[-1]) < ranks[..., None]
                self.refs[kind].append(float(np.sqrt(np.sum(np.where(kept, 0.0, s * s)))))

    def check(self, kind, j, out):
        m, err = out
        ref = self.refs[kind][j]
        if not abs(err - ref) <= 1e-9 * ref:
            return f"error norm {err!r} != optimal {ref!r}"
        header, payload = read_gsm1(self.out_path(kind))
        sp = self.specs[kind]
        if header.get("kind") != "gs" or header.get("shape") != [sp.m, sp.n]:
            return "saved header does not describe the projected class"
        for name, perm in (("P_L", sp.P_L), ("P", sp.P), ("P_R", sp.P_R)):
            if header["spec"][name]["sigma"] != perm.sigma.tolist():
                return f"saved {name} differs"
        expect = b"".join(np.ascontiguousarray(b, dtype="<f8").tobytes() for b in m.L.blocks + m.R.blocks)
        if payload != expect:
            return "saved payload is not bit-identical to the projected blocks"
        return None


# --------------------------------------------------------------------------
# conv: one image through a two-stage GS conv layer and the MaxMin activation.
# --------------------------------------------------------------------------

CONV_C, CONV_G1, CONV_G2, CONV_TERMS = 64, 8, 16, 6
# Image side by kind. One op in ten takes a 32x32 image, about four times the
# work of a 16x16 one, so p95 falls in the middle of that kind's latencies
# instead of in the tail of identical ops, where load from outside the
# process decides it.
CONV_HW = {"16x16": 16, "32x32": 32}
CONV_MIX = {"16x16": 9, "32x32": 1}
CONV_POOL = {"16x16": 8, "32x32": 2}


class Conv(Workload):
    name = "conv"
    layers = ("gsconv",)

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        self.layer = g.gsconv.make_layer(CONV_C, CONV_G1, CONV_G2, CONV_TERMS, self.rng, shuffle="paired")
        self.deck = Deck(CONV_MIX, self.rng)
        self.inputs = {
            kind: [self.rng.standard_normal((CONV_C, hw, hw)) for _ in range(CONV_POOL[kind])]
            for kind, hw in CONV_HW.items()
        }

    def pool_size(self, kind):
        return CONV_POOL[kind]

    def run(self, kind, j):
        g = self.g
        return g.maxmin_permuted(g.gs_conv_forward(self.layer, self.inputs[kind][j]))

    def build_references(self):
        self.refs = {kind: [with_scale(self.reference(x)) for x in xs] for kind, xs in self.inputs.items()}

    def reference(self, x):
        ly = self.layer
        for sigma, w in ((ly.shuffle1.sigma, ly.kernel1.weights), (ly.shuffle2.sigma, ly.kernel2.weights)):
            term = scatter_rows(sigma, x)
            x = term.copy()
            for t in range(1, ly.exp_terms + 1):
                term = conv_ref(w, term) / t
                x = x + term
        y = np.empty_like(x)
        y[::2], y[1::2] = np.maximum(x[::2], x[1::2]), np.minimum(x[::2], x[1::2])
        return y

    def check(self, kind, j, out):
        return close(out, *self.refs[kind][j])


WORKLOADS = {w.name: w for w in (Infer, Finetune, Compress, Conv)}
