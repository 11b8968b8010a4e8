"""Orthogonal GS matrices: Cayley construction and re-orthogonalization."""

import numpy as np
import pytest

from gsmat import (
    GSMatrix,
    OrthoGSParams,
    gsoft_spec,
    is_orthogonal,
    materialize,
    materialize_vjp,
    orthogonalize_representation,
)
from gsmat.blockdiag import SkewGenerators, cayley_vjp

from oracles import central_diff, random_perm, random_square_spec


def test_zero_generators_give_identity():
    spec = gsoft_spec(16, 4)
    q = materialize(OrthoGSParams.zeros(spec)).as_dense()
    # Outer perms are P^T and P with identity core, so the product is exact I.
    np.testing.assert_array_equal(q, np.eye(16))


def test_materialize_is_orthogonal_and_special():
    rng = np.random.default_rng(11)
    for _ in range(25):
        spec = random_square_spec(rng)
        p = OrthoGSParams.random(spec, rng)
        q = materialize(p).as_dense()
        ok, res = is_orthogonal(q, 1e-12 * spec.m)
        assert ok, res
        # Cayley blocks have determinant +1; permutations contribute +-1.
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-10


def test_materialize_dense_matches_explicit_product():
    rng = np.random.default_rng(5)
    spec = random_square_spec(rng, sizes=(12,))
    p = OrthoGSParams.random(spec, rng)
    gsm = materialize(p)
    explicit = (
        spec.P_L.as_dense()
        @ gsm.L.as_dense()
        @ spec.P.as_dense()
        @ gsm.R.as_dense()
        @ spec.P_R.as_dense()
    )
    np.testing.assert_allclose(gsm.as_dense(), explicit, atol=1e-14)


def test_is_orthogonal_examples():
    ok, res = is_orthogonal(np.eye(7), 1e-15)
    assert ok and res == 0.0
    n = 5
    ok, res = is_orthogonal(2.0 * np.eye(n), 1e-6)
    # (2I)^T(2I) - I = 3I, Frobenius norm 3 sqrt(n).
    assert not ok
    assert np.isclose(res, 3.0 * np.sqrt(n))
    with pytest.raises(ValueError):
        is_orthogonal(np.ones((2, 3)), 1e-6)


def test_materialize_vjp_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(20):
        spec = random_square_spec(rng, sizes=(8, 12))
        p = OrthoGSParams.random(spec, rng, scale=0.4)
        target = rng.standard_normal((spec.m, spec.n))

        def loss_of(params):
            return 0.5 * np.sum((materialize(params).as_dense() - target) ** 2)

        grad_q = materialize(p).as_dense() - target
        grads_l, grads_r = materialize_vjp(p, grad_q)

        for i in range(spec.k_L):
            def f(a, i=i):
                gens = list(p.gen_L.gens)
                gens[i] = a
                return loss_of(OrthoGSParams(spec, SkewGenerators(tuple(gens)), p.gen_R))

            fd = central_diff(f, p.gen_L.gens[i])
            np.testing.assert_allclose(grads_l[i], fd, atol=1e-6, rtol=1e-6)
        for i in range(spec.k_R):
            def f(a, i=i):
                gens = list(p.gen_R.gens)
                gens[i] = a
                return loss_of(OrthoGSParams(spec, p.gen_L, SkewGenerators(tuple(gens))))

            fd = central_diff(f, p.gen_R.gens[i])
            np.testing.assert_allclose(grads_r[i], fd, atol=1e-6, rtol=1e-6)


def _perm_matrix(sigma):
    """Dense permutation matrix with a 1 at (sigma[i], i), built without gsmat."""
    sigma = np.asarray(sigma)
    m = np.zeros((sigma.size, sigma.size))
    m[sigma, np.arange(sigma.size)] = 1.0
    return m


def _block_diag(blocks):
    n = sum(blk.shape[0] for blk in blocks)
    out, at = np.zeros((n, n)), 0
    for blk in blocks:
        b = blk.shape[0]
        out[at : at + b, at : at + b] = blk
        at += b
    return out


def _diag_blocks(m, b):
    return [m[i : i + b, i : i + b] for i in range(0, m.shape[0], b)]


def test_materialize_vjp_matches_dense_reference():
    """The diagonal-block VJP against the full d x d products it contracts.

    Random outer permutations and b_L != b_R come from random_square_spec;
    gsoft_spec(64, 8) has P_L = P^T and P_R = I.
    """
    rng = np.random.default_rng(29)
    specs = [random_square_spec(rng, sizes=(12, 16, 24, 48)) for _ in range(30)]
    specs.append(gsoft_spec(64, 8))
    assert any(sp.b_L1 != sp.b_R1 for sp in specs)
    for spec in specs:
        p = OrthoGSParams.random(spec, rng, scale=0.5)
        gsm = materialize(p)
        p_l, p_mid, p_r = (_perm_matrix(q.sigma) for q in (spec.P_L, spec.P, spec.P_R))
        l, r = _block_diag(gsm.L.blocks), _block_diag(gsm.R.blocks)
        g = rng.standard_normal((spec.m, spec.n))
        grad_l = p_l.T @ g @ (p_mid @ r @ p_r).T
        grad_r = (p_l @ l @ p_mid).T @ g @ p_r.T
        want_l = [cayley_vjp(a, blk) for a, blk in zip(p.gen_L.gens, _diag_blocks(grad_l, spec.b_L1))]
        want_r = [cayley_vjp(a, blk) for a, blk in zip(p.gen_R.gens, _diag_blocks(grad_r, spec.b_R1))]
        got_l, got_r = materialize_vjp(p, g)
        assert len(got_l) == spec.k_L and len(got_r) == spec.k_R
        for got, want in zip(got_l + got_r, want_l + want_r):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_vjp_rejects_wrong_shape():
    spec = gsoft_spec(8, 2)
    p = OrthoGSParams.zeros(spec)
    with pytest.raises(ValueError):
        materialize_vjp(p, np.zeros((3, 3)))


def _scaled_block_member(spec, rng):
    """Orthogonal member whose stored blocks are *not* orthogonal.

    Scale each L block by a nonzero factor and divide the paired R rows by the
    same factor; the dense product is unchanged.
    """
    p = OrthoGSParams.random(spec, rng)
    gsm = materialize(p)
    scales = rng.uniform(0.5, 2.0, size=spec.k_L)
    l_blocks = tuple(s * b for s, b in zip(scales, gsm.L.blocks))
    rd = gsm.R.as_dense().copy()
    sigma = spec.P.sigma
    for i in range(spec.s):
        k1 = int(sigma[i]) // spec.b_L2
        rd[i, :] /= scales[k1]
    from gsmat.blockdiag import BlockDiagonal

    b_r = spec.b_R1
    r_blocks = tuple(rd[i * b_r : (i + 1) * b_r, i * b_r : (i + 1) * b_r] for i in range(spec.k_R))
    return GSMatrix(spec, BlockDiagonal(l_blocks), BlockDiagonal(r_blocks))


def test_orthogonalize_recovers_block_orthogonality():
    rng = np.random.default_rng(71)
    count = 0
    while count < 50:
        spec = random_square_spec(rng, sizes=(8, 12, 16))
        a = _scaled_block_member(spec, rng)
        dense = a.as_dense()
        out = orthogonalize_representation(a)
        np.testing.assert_allclose(out.as_dense(), dense, atol=1e-10)
        for blk in out.L.blocks + out.R.blocks:
            _, res = is_orthogonal(blk, np.inf)
            assert res <= 1e-10, res
        count += 1


def test_orthogonalize_fixed_point_on_rotation():
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    spec = gsoft_spec(4, 2)
    rng = np.random.default_rng(2)
    p = OrthoGSParams.random(spec, rng)
    gsm = materialize(p)
    out = orthogonalize_representation(gsm)
    np.testing.assert_allclose(out.as_dense(), gsm.as_dense(), atol=1e-12)
    assert rot.shape == (2, 2)


def test_orthogonalize_rejects_non_orthogonal_input():
    rng = np.random.default_rng(3)
    spec = random_square_spec(rng, sizes=(8,))
    from oracles import random_member

    a = random_member(spec, rng)
    with pytest.raises(ValueError, match="not orthogonal"):
        orthogonalize_representation(a)


def test_params_require_square_blocks():
    from gsmat import GSClassSpec

    spec = GSClassSpec.make(2, 2, 3, 3, 2, 2)  # rectangular L blocks
    with pytest.raises(ValueError):
        OrthoGSParams.zeros(spec)
