"""Orthogonal fine-tuning adapters: forward, merge, gradients, trainer, I/O."""

import json

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
from gsmat.blockdiag import SkewGenerators

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
