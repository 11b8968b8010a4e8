"""Orthogonal fine-tuning adapters: forward, merge, gradients, trainer, I/O."""

import json
import tracemalloc

import numpy as np
import pytest

from gsmat import (
    DoubleGSOFTAdapter,
    GSOFTAdapter,
    OrthoGSParams,
    fit_blockdiag_target,
    fit_orthogonal_target,
    gsoft_spec,
    load_adapter,
    materialize,
    save_adapter,
    svd_small,
)
from gsmat import blockdiag
from gsmat.blockdiag import BlockDiagonal, SkewGenerators, cayley_vjp
from gsmat.gs import GSMatrix

from oracles import central_diff, jacobi_eigvals


def _random_adapter(d, b, rng, scale=1.0, gen_scale=0.5):
    w0 = rng.standard_normal((d, d))
    q = OrthoGSParams.random(gsoft_spec(d, b), rng, scale=gen_scale)
    return GSOFTAdapter(w0, q, scale)


def test_identity_init_is_transparent():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((8, 5))
    a = GSOFTAdapter.init(w0, 2)
    x = rng.standard_normal(8)
    np.testing.assert_allclose(a.forward(x), w0.T @ x, atol=1e-14)
    np.testing.assert_allclose(a.merge(), w0, atol=1e-14)


def test_forward_matches_merged_weight():
    rng = np.random.default_rng(1)
    a = _random_adapter(16, 4, rng, scale=1.3)
    x = rng.standard_normal(16)
    np.testing.assert_allclose(a.forward(x), a.merge().T @ x, atol=1e-12)


def test_rotation_example_d2():
    # d = 2, one 2 x 2 Cayley block: generator [[0, t]] gives a plane rotation.
    w0 = np.eye(2)
    spec = gsoft_spec(2, 2)
    t = 0.7
    gen = np.array([[0.0, t], [0.0, 0.0]])
    q = OrthoGSParams(spec, SkewGenerators((gen,)), SkewGenerators((np.zeros((2, 2)),)))
    a = GSOFTAdapter(w0, q)
    # Cayley of [[0, t], [-t, 0]] is the rotation by angle 2*atan(t).
    ang = 2.0 * np.arctan(t)
    rot = np.array([[np.cos(ang), np.sin(ang)], [-np.sin(ang), np.cos(ang)]])
    np.testing.assert_allclose(a.merge(), rot, atol=1e-14)


def test_merge_preserves_singular_values_and_gram():
    rng = np.random.default_rng(7)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        a = _random_adapter(16, 4, rng, scale=1.0)
        merged = a.merge()
        # Singular values via the library SVD ...
        sv_lib = np.sort(svd_small(merged)[1])[::-1]
        sv_base = np.sort(svd_small(a.W0)[1])[::-1]
        np.testing.assert_allclose(sv_lib, sv_base, atol=1e-10)
        # ... and independently via Jacobi eigenvalues of W^T W.
        ev = jacobi_eigvals(merged.T @ merged)
        np.testing.assert_allclose(np.sqrt(np.maximum(ev, 0.0)), sv_base, atol=1e-9)
        # Rotating the rows leaves the Gram matrix of columns unchanged.
        np.testing.assert_allclose(merged.T @ merged, a.W0.T @ a.W0, atol=1e-10)


def test_scaled_merge_scales_singular_values():
    rng = np.random.default_rng(12)
    a = _random_adapter(8, 2, rng, scale=2.5)
    sv = np.sort(svd_small(a.merge())[1])[::-1]
    sv0 = np.sort(svd_small(a.W0)[1])[::-1]
    np.testing.assert_allclose(sv, 2.5 * sv0, atol=1e-10)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        d, b = (8, 2) if trial % 2 == 0 else (16, 4)
        a = _random_adapter(d, b, rng, scale=1.0 + rng.uniform(0, 1), gen_scale=0.4)
        x = rng.standard_normal(d)
        g = rng.standard_normal(d)
        grads = a.backward(x, g)

        def loss(adapter):
            return float(g @ adapter.forward(x))

        for i in range(a.q.spec.k_L):
            def f(m, i=i):
                gens = list(a.q.gen_L.gens)
                gens[i] = m
                q = OrthoGSParams(a.q.spec, SkewGenerators(tuple(gens)), a.q.gen_R)
                return loss(GSOFTAdapter(a.W0, q, a.scale))

            fd = central_diff(f, a.q.gen_L.gens[i])
            np.testing.assert_allclose(grads["gen_L"][i], fd, atol=1e-6, rtol=1e-6)
        for i in range(a.q.spec.k_R):
            def f(m, i=i):
                gens = list(a.q.gen_R.gens)
                gens[i] = m
                q = OrthoGSParams(a.q.spec, a.q.gen_L, SkewGenerators(tuple(gens)))
                return loss(GSOFTAdapter(a.W0, q, a.scale))

            fd = central_diff(f, a.q.gen_R.gens[i])
            np.testing.assert_allclose(grads["gen_R"][i], fd, atol=1e-6, rtol=1e-6)
        # Scale gradient in closed form: d/ds [s * g^T W0^T Q^T x].
        expected_scale = float(g @ a.forward(x)) / a.scale
        assert np.isclose(grads["scale"], expected_scale, rtol=1e-12)


def test_double_adapter_forward_merge_and_backward():
    rng = np.random.default_rng(5)
    w0 = rng.standard_normal((8, 4))
    qu = OrthoGSParams.random(gsoft_spec(8, 2), rng, scale=0.4)
    qv = OrthoGSParams.random(gsoft_spec(4, 2), rng, scale=0.4)
    a = DoubleGSOFTAdapter(w0, qu, qv, scale=1.2)
    x = rng.standard_normal(8)
    np.testing.assert_allclose(a.forward(x), a.merge().T @ x, atol=1e-12)
    # Singular values survive two-sided rotation up to the scalar.
    sv = np.sort(svd_small(a.merge())[1])[::-1]
    sv0 = np.sort(svd_small(w0)[1])[::-1]
    np.testing.assert_allclose(sv, 1.2 * sv0, atol=1e-10)

    g = rng.standard_normal(4)
    grads = a.backward(x, g)

    def loss(qu_, qv_):
        return float(g @ DoubleGSOFTAdapter(w0, qu_, qv_, a.scale).forward(x))

    for i in range(qu.spec.k_L):
        def f(m, i=i):
            gens = list(qu.gen_L.gens)
            gens[i] = m
            return loss(OrthoGSParams(qu.spec, SkewGenerators(tuple(gens)), qu.gen_R), qv)

        fd = central_diff(f, qu.gen_L.gens[i])
        np.testing.assert_allclose(grads["q_U"]["gen_L"][i], fd, atol=1e-6, rtol=1e-6)
    for i in range(qv.spec.k_R):
        def f(m, i=i):
            gens = list(qv.gen_R.gens)
            gens[i] = m
            return loss(qu, OrthoGSParams(qv.spec, qv.gen_L, SkewGenerators(tuple(gens))))

        fd = central_diff(f, qv.gen_R.gens[i])
        np.testing.assert_allclose(grads["q_V"]["gen_R"][i], fd, atol=1e-6, rtol=1e-6)


def _flat(grads):
    """Every entry of a backward() result as one vector, in sorted key order."""
    if isinstance(grads, dict):
        return np.concatenate([_flat(grads[key]) for key in sorted(grads)])
    if isinstance(grads, list):
        return np.concatenate([np.ravel(g) for g in grads])
    return np.array([grads])


def test_batched_backward_sums_per_column_gradients():
    rng = np.random.default_rng(8)
    w0 = rng.standard_normal((16, 8))
    single = GSOFTAdapter(w0, OrthoGSParams.random(gsoft_spec(16, 4), rng, scale=0.4), 1.3)
    double = DoubleGSOFTAdapter(
        w0,
        OrthoGSParams.random(gsoft_spec(16, 4), rng, scale=0.4),
        OrthoGSParams.random(gsoft_spec(8, 2), rng, scale=0.4),
        0.7,
    )
    x = rng.standard_normal((16, 5))
    g = rng.standard_normal((8, 5))
    for a in (single, double):
        assert a.forward(x).shape == g.shape
        per_column = sum(_flat(a.backward(x[:, j], g[:, j])) for j in range(x.shape[1]))
        np.testing.assert_allclose(_flat(a.backward(x, g)), per_column, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="shape mismatch in backward"):
            a.backward(x, g[:, 0])
        with pytest.raises(ValueError, match="shape mismatch in backward"):
            a.backward(x[:, None, :], g[:, None, :])


def test_batched_backward_matches_finite_differences():
    rng = np.random.default_rng(9)
    a = _random_adapter(8, 2, rng, scale=1.4, gen_scale=0.4)
    x = rng.standard_normal((8, 3))
    g = rng.standard_normal((8, 3))
    grads = a.backward(x, g)

    def loss(adapter):
        return float(np.sum(g * adapter.forward(x)))

    for i in range(a.q.spec.k_L):
        def f(m, i=i):
            gens = list(a.q.gen_L.gens)
            gens[i] = m
            q = OrthoGSParams(a.q.spec, SkewGenerators(tuple(gens)), a.q.gen_R)
            return loss(GSOFTAdapter(a.W0, q, a.scale))

        fd = central_diff(f, a.q.gen_L.gens[i])
        np.testing.assert_allclose(grads["gen_L"][i], fd, atol=1e-6, rtol=1e-6)
    for i in range(a.q.spec.k_R):
        def f(m, i=i):
            gens = list(a.q.gen_R.gens)
            gens[i] = m
            q = OrthoGSParams(a.q.spec, a.q.gen_L, SkewGenerators(tuple(gens)))
            return loss(GSOFTAdapter(a.W0, q, a.scale))

        fd = central_diff(f, a.q.gen_R.gens[i])
        np.testing.assert_allclose(grads["gen_R"][i], fd, atol=1e-6, rtol=1e-6)
    assert np.isclose(grads["scale"], loss(a) / a.scale, rtol=1e-12)


def _dense_vjp(p, grad_q):
    """Generator gradients from the explicit d x d products Q = P_L L P R P_R and a dense G."""
    sp, gsm = p.spec, materialize(p)
    p_l, p_mid, p_r = (q.as_dense() for q in (sp.P_L, sp.P, sp.P_R))
    grad_l = p_l.T @ grad_q @ (p_mid @ gsm.R.as_dense() @ p_r).T
    grad_r = (p_l @ gsm.L.as_dense() @ p_mid).T @ grad_q @ p_r.T

    def diag(m, gens):
        b = gens.shape[1]
        return [cayley_vjp(a, m[i * b : (i + 1) * b, i * b : (i + 1) * b]) for i, a in enumerate(gens)]

    return {"gen_L": diag(grad_l, p.gen_L.gens), "gen_R": diag(grad_r, p.gen_R.gens)}


def _assert_grads_close(got, want, rtol=1e-12):
    got_gens, want_gens = (_flat({k: v for k, v in d.items() if k != "scale"}) for d in (got, want))
    assert np.max(np.abs(got_gens - want_gens)) <= rtol * np.max(np.abs(want_gens))
    assert abs(got["scale"] - want["scale"]) <= rtol * abs(want["scale"])


@pytest.mark.parametrize("batch", [(), (1,), (16,)])
def test_backward_matches_dense_reference(batch):
    """Factored adapter gradients against G = scale x (W0 g)^T and <g, forward(x)> / scale."""
    rng = np.random.default_rng(12)
    single = GSOFTAdapter(rng.standard_normal((16, 12)), OrthoGSParams.random(gsoft_spec(16, 4), rng, 0.4), 1.3)
    x = rng.standard_normal((16, *batch))
    g = rng.standard_normal((12, *batch))
    x2, g2 = x.reshape(16, -1), g.reshape(12, -1)
    want = _dense_vjp(single.q, single.scale * x2 @ (single.W0 @ g2).T)
    want["scale"] = float(np.sum(g * single.forward(x))) / single.scale
    _assert_grads_close(single.backward(x, g), want)

    qu = OrthoGSParams.random(gsoft_spec(16, 4), rng, 0.4)
    qv = OrthoGSParams.random(gsoft_spec(8, 2), rng, 0.4)
    double = DoubleGSOFTAdapter(rng.standard_normal((16, 8)), qu, qv, 0.7)
    g = rng.standard_normal((8, *batch))
    g2 = g.reshape(8, -1)
    qu_d, qv_d = materialize(qu).as_dense(), materialize(qv).as_dense()
    w0, scale = double.W0, double.scale
    want = {
        "q_U": _dense_vjp(qu, scale * x2 @ (w0 @ qv_d @ g2).T),
        "q_V": _dense_vjp(qv, scale * (w0.T @ qu_d.T @ x2) @ g2.T),
        "scale": float(np.sum(g * double.forward(x))) / scale,
    }
    _assert_grads_close(double.backward(x, g), want)


def test_backward_builds_no_dense_array_and_calls_no_forward(monkeypatch):
    """At d = 512, b = 32 neither adapter's backward densifies a factor, re-runs forward
    or allocates as much as one d x d float64 array."""
    rng = np.random.default_rng(13)
    single = GSOFTAdapter(rng.standard_normal((512, 512)), OrthoGSParams.random(gsoft_spec(512, 32), rng, 0.3))
    double = DoubleGSOFTAdapter(
        rng.standard_normal((512, 256)),
        OrthoGSParams.random(gsoft_spec(512, 32), rng, 0.3),
        OrthoGSParams.random(gsoft_spec(256, 16), rng, 0.3),
    )

    def refuse(*args):
        raise AssertionError("backward called a dense or forward path")

    for cls, name in ((BlockDiagonal, "as_dense"), (GSMatrix, "as_dense"),
                      (GSOFTAdapter, "forward"), (DoubleGSOFTAdapter, "forward")):
        monkeypatch.setattr(cls, name, refuse)
    for adapter in (single, double):
        x, g = rng.standard_normal(512), rng.standard_normal(adapter.W0.shape[1])
        tracemalloc.start()
        try:
            grads = adapter.backward(x, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 512 * 8, peak
        assert np.all(np.isfinite(_flat(grads)))


def test_adapter_step_solves_each_cayley_stack_once(monkeypatch):
    """forward + backward run one batched Cayley solve per factor of each params object and no inverse."""
    rng = np.random.default_rng(14)
    single = GSOFTAdapter(rng.standard_normal((16, 12)), OrthoGSParams.random(gsoft_spec(16, 4), rng, 0.4))
    double = DoubleGSOFTAdapter(
        rng.standard_normal((16, 8)),
        OrthoGSParams.random(gsoft_spec(16, 4), rng, 0.4),
        OrthoGSParams.random(gsoft_spec(8, 2), rng, 0.4),
    )
    calls = {"cayley": 0, "inv": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(blockdiag, "cayley", counted("cayley", blockdiag.cayley))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    for adapter, n_params in ((single, 1), (double, 2)):
        calls.update(cayley=0, inv=0)
        x = rng.standard_normal(16)
        adapter.forward(x)
        adapter.backward(x, rng.standard_normal(adapter.W0.shape[1]))
        assert calls == {"cayley": 2 * n_params, "inv": 0}


# fit_orthogonal_target and fit_blockdiag_target on gsoft_spec(16, 4), 6 steps at lr 0.05,
# toward the Cayley target drawn from default_rng(seed); recorded from the dense-gradient trainer.
_GOLDEN_LOSSES = {
    0: ([31.8782854543, 24.6101755754, 15.6701740918, 6.71815989455, 2.44134941777, 1.12961660353],
        [31.8782854543, 29.3408238021, 27.9606779847, 27.3566433701, 27.0285677407, 26.8142065256]),
    1: ([31.3851986752, 23.5804503878, 14.9422651682, 5.88007328026, 2.05391805139, 1.05573116261],
        [31.3851986752, 26.2509910975, 23.983738907, 22.9661631701, 22.4353857729, 22.1097369296]),
    2: ([32.2409865543, 24.894445114, 19.2163907704, 14.9989054457, 10.0323628318, 4.74808525981],
        [32.2409865543, 28.8862619096, 27.0962595356, 26.2032866136, 25.6330721705, 25.2017475587]),
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN_LOSSES))
def test_trainer_losses_match_golden_traces(seed):
    spec = gsoft_spec(16, 4)
    target = materialize(OrthoGSParams.random(spec, np.random.default_rng(seed), scale=0.5)).as_dense()
    full, ablation = _GOLDEN_LOSSES[seed]
    np.testing.assert_allclose(fit_orthogonal_target(spec, target, 6, 0.05)[1], full, rtol=1e-8, atol=0)
    np.testing.assert_allclose(fit_blockdiag_target(16, 4, target, 6, 0.05)[1], ablation, rtol=1e-8, atol=0)


@pytest.mark.filterwarnings("error")
def test_trainers_raise_on_overflowing_steps():
    spec = gsoft_spec(8, 2)
    target = materialize(OrthoGSParams.random(spec, np.random.default_rng(0), scale=0.5)).as_dense()
    with pytest.raises(RuntimeError, match="diverged"):
        fit_orthogonal_target(spec, target, 5, 1.7e308)
    with pytest.raises(RuntimeError, match="diverged"):
        fit_blockdiag_target(8, 2, target, 5, 1.7e308)


def test_fit_orthogonal_target_converges():
    rng = np.random.default_rng(4)
    spec = gsoft_spec(16, 4)
    target = materialize(OrthoGSParams.random(spec, rng, scale=0.5)).as_dense()
    params, losses, residuals = fit_orthogonal_target(spec, target, steps=2000, lr=0.05)
    assert losses[-1] <= 1e-4, losses[-1]
    assert max(residuals) < 1e-11 * 16, max(residuals)
    np.testing.assert_allclose(materialize(params).as_dense(), target, atol=1e-2)


def test_fit_rejects_non_orthogonal_target():
    with pytest.raises(ValueError, match="not orthogonal"):
        fit_orthogonal_target(gsoft_spec(8, 2), np.ones((8, 8)), steps=10, lr=0.1)


@pytest.mark.parametrize(
    "fit, match",
    [
        (lambda: fit_orthogonal_target(gsoft_spec(16, 4), np.eye(1), 3, 0.1), "shape"),
        (lambda: fit_orthogonal_target(gsoft_spec(16, 4), np.eye(16)[:, :8], 3, 0.1), "shape"),
        (lambda: fit_blockdiag_target(16, 4, np.eye(1), 3, 0.1), "shape"),
        (lambda: fit_blockdiag_target(16, 0, np.eye(16), 3, 0.1), "block size"),
        (lambda: fit_blockdiag_target(16, -4, np.eye(16), 3, 0.1), "block size"),
    ],
    ids=["ortho-1x1", "ortho-16x8", "blockdiag-1x1", "blockdiag-b0", "blockdiag-b-4"],
)
def test_trainers_reject_bad_target_or_block_size(fit, match):
    with pytest.raises(ValueError, match=match):
        fit()


def test_blockdiag_ablation_underfits_shuffled_target():
    # A block-diagonal-only model cannot represent a target whose mass sits
    # off the block diagonal, while the full adapter can.
    rng = np.random.default_rng(8)
    spec = gsoft_spec(16, 4)
    target = materialize(OrthoGSParams.random(spec, rng, scale=0.5)).as_dense()
    _, full_losses, _ = fit_orthogonal_target(spec, target, steps=1500, lr=0.05)
    _, ab_losses = fit_blockdiag_target(16, 4, target, steps=1500, lr=0.05)
    assert ab_losses[-1] > 10.0 * max(full_losses[-1], 1e-12)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    a = _random_adapter(8, 2, rng, scale=1.7)
    path = str(tmp_path / "adapter.json")
    save_adapter(a, path)
    b = load_adapter(path, a.W0)
    np.testing.assert_array_equal(b.W0, a.W0)
    assert b.scale == a.scale
    np.testing.assert_allclose(b.merge(), a.merge(), atol=0)


def test_checkpoint_rejects_wrong_base_weight(tmp_path):
    rng = np.random.default_rng(6)
    a = _random_adapter(8, 2, rng)
    path = str(tmp_path / "adapter.json")
    save_adapter(a, path)
    with pytest.raises(ValueError, match="hash"):
        load_adapter(path, a.W0 + 1e-12)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("scale"),
        lambda doc: doc.pop("spec"),
        lambda doc: doc.update(scale="1.7"),
        lambda doc: doc["gen_L_triu"].append([0.0]),
        lambda doc: doc["spec"]["P"].update(n=99),
        lambda doc: doc.update(scale=float("nan")),
        lambda doc: doc.update(scale=True),
        lambda doc: doc["gen_L_triu"][0].__setitem__(0, "0.5"),
        lambda doc: doc["gen_L_triu"][0].__setitem__(0, None),
        lambda doc: doc["gen_R_triu"][-1].__setitem__(0, True),
    ],
    ids=[
        "missing-scale", "missing-spec", "string-scale", "extra-generator", "perm-n", "nan-scale",
        "bool-scale", "string-entry", "null-entry", "bool-entry",
    ],
)
def test_checkpoint_rejects_malformed(tmp_path, edit):
    rng = np.random.default_rng(6)
    a = _random_adapter(8, 2, rng)
    path = tmp_path / "adapter.json"
    save_adapter(a, str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_adapter(str(path), a.W0)


def test_adapter_validation():
    rng = np.random.default_rng(2)
    w0 = rng.standard_normal((8, 3))
    with pytest.raises(ValueError):
        GSOFTAdapter(w0, OrthoGSParams.zeros(gsoft_spec(16, 4)))
    with pytest.raises(ValueError, match="scale"):
        GSOFTAdapter(w0, OrthoGSParams.zeros(gsoft_spec(8, 2)), scale=0.0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
def test_adapters_require_finite_positive_scale(scale):
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="scale"):
        GSOFTAdapter(rng.standard_normal((8, 3)), OrthoGSParams.zeros(gsoft_spec(8, 2)), scale)
    with pytest.raises(ValueError, match="scale"):
        DoubleGSOFTAdapter(
            rng.standard_normal((8, 4)),
            OrthoGSParams.zeros(gsoft_spec(8, 2)),
            OrthoGSParams.zeros(gsoft_spec(4, 2)),
            scale,
        )
