"""GS chains, density bounds, parameter accounting, and Monarch membership."""

import numpy as np
import pytest

from gsmat import (
    GSChain,
    GSClassSpec,
    GSMatrix,
    butterfly_min_factors,
    flop_count,
    min_factors_dense,
    monarch_member,
    param_count,
    support_mask,
)
from gsmat.blockdiag import BlockDiagonal
from gsmat.perm import identity_perm, stride_perm

from oracles import random_member, random_perm, random_spec


def _random_chain(rng, b, r, m):
    d = b * r
    factors = []
    for i in range(m):
        blocks = tuple(rng.standard_normal((b, b)) for _ in range(r))
        p = random_perm(d, rng) if i > 0 else identity_perm(d)
        factors.append((BlockDiagonal(blocks), p))
    return GSChain(tuple(factors), identity_perm(d))


def test_chain_apply_matches_dense_product():
    rng = np.random.default_rng(9)
    chain = _random_chain(rng, 3, 4, 3)
    dense = np.eye(12)
    for b, p in chain.factors:
        dense = b.as_dense() @ p.as_dense() @ dense
    dense = chain.p_out.as_dense() @ dense
    np.testing.assert_allclose(chain.as_dense(), dense, atol=1e-13)
    x = rng.standard_normal(12)
    np.testing.assert_allclose(chain.apply(x), dense @ x, atol=1e-13)


def test_chain_validates_boundaries():
    b1 = BlockDiagonal((np.zeros((2, 2)),) * 3)  # 6 x 6
    b2 = BlockDiagonal((np.zeros((2, 2)),) * 4)  # 8 x 8
    with pytest.raises(ValueError, match="boundary"):
        GSChain(((b1, identity_perm(6)), (b2, identity_perm(8))), identity_perm(8))
    with pytest.raises(ValueError, match="at least one"):
        GSChain((), identity_perm(4))


def test_chain_apply_t_matches_dense_transpose():
    rng = np.random.default_rng(10)
    for b, r, m in [(3, 4, 3), (2, 4, 1), (4, 2, 2)]:
        chain = _random_chain(rng, b, r, m)
        dense = chain.as_dense()
        x = rng.standard_normal((b * r, 5))
        np.testing.assert_allclose(chain.apply_t(x), dense.T @ x, atol=1e-12)
        np.testing.assert_allclose(chain.apply_t(np.eye(b * r)), dense.T, atol=1e-13)
    with pytest.raises(ValueError, match="length mismatch"):
        chain.apply_t(np.zeros(b * r + 1))


def test_gs_matrix_is_its_two_factor_chain():
    assert "apply" not in vars(GSMatrix) and "apply_t" not in vars(GSMatrix)
    rng = np.random.default_rng(17)
    for _ in range(15):
        spec = random_spec(rng)
        a = random_member(spec, rng)
        assert isinstance(a, GSChain)
        # The generic chain path (apply to the identity) against GSMatrix's override.
        np.testing.assert_allclose(GSChain.as_dense(a), a.as_dense(), atol=1e-13)
        np.testing.assert_allclose(a.apply_t(np.eye(spec.m)), a.as_dense().T, atol=1e-13)


def test_support_mask_matches_exact_nonzero_pattern():
    # With strictly positive blocks no cancellation can occur, so the product's
    # nonzero pattern equals the reachability mask exactly.
    rng = np.random.default_rng(31)
    for b, r, m in [(2, 4, 2), (2, 4, 3), (3, 3, 2), (4, 2, 2), (2, 8, 4)]:
        d = b * r
        perms = [random_perm(d, rng) for _ in range(m - 1)]
        mask = support_mask(b, r, perms, m)
        dense = np.eye(d)
        for i in range(m):
            blocks = tuple(rng.uniform(0.5, 1.5, (b, b)) for _ in range(r))
            p = perms[i - 1] if i > 0 else identity_perm(d)
            dense = BlockDiagonal(blocks).as_dense() @ p.as_dense() @ dense
        np.testing.assert_array_equal(mask, dense > 0)


def test_support_mask_identity_perms_stay_block_diagonal():
    mask = support_mask(2, 4, [identity_perm(8)], 2)
    expected = np.kron(np.eye(4, dtype=bool), np.ones((2, 2), dtype=bool))
    np.testing.assert_array_equal(mask, expected)


def test_stride_interleaving_reaches_density_at_min_length():
    # Sweep (b, r): with stride interior permutations the mask first becomes
    # all-true exactly at m = min_factors_dense(b, r).
    for b in (2, 3, 4):
        for r in (2, 3, 4, 8, 9, 16):
            if b * r > 64:
                continue
            d = b * r
            m_star = min_factors_dense(b, r)
            p = stride_perm(r, d)
            assert not support_mask(b, r, [p] * (m_star - 2), m_star - 1).all()
            assert support_mask(b, r, [p] * (m_star - 1), m_star).all()


def test_min_factors_examples():
    assert min_factors_dense(2, 8) == 4
    assert min_factors_dense(32, 32) == 2
    assert min_factors_dense(3, 9) == 3
    assert min_factors_dense(4, 16) == 3
    assert min_factors_dense(2, 1) == 1
    assert butterfly_min_factors(32) == 6
    with pytest.raises(ValueError):
        min_factors_dense(1, 4)


def test_param_and_flop_accounting():
    # d = 1024 split into 32 blocks of 32: a 2-factor chain needs 65,536
    # parameters where the 2-block butterfly baseline needs 196,608.
    assert param_count(32, 32, 2) == 65536
    assert param_count(32, 32, butterfly_min_factors(32)) == 196608
    assert flop_count(32, 32, 2) == 65536
    assert flop_count(32, 32, 2, batch=8) == 8 * 65536
    with pytest.raises(ValueError):
        param_count(0, 4, 2)


def test_monarch_membership():
    # Monarch fixes the coupling k_L = b_R1 and k_R = b_L2.
    assert monarch_member(GSClassSpec.make(4, 4, 4, 4, 4, 4))
    assert monarch_member(GSClassSpec.make(2, 3, 4, 4, 2, 3))
    # s = 12 split as 3 x 4 on the left and 6 x 2 on the right: k_L != b_R1.
    assert not monarch_member(GSClassSpec.make(3, 2, 4, 6, 2, 5))


def test_orthogonal_chain_stays_orthogonal():
    rng = np.random.default_rng(41)
    b, r, m = 3, 4, 3
    d = b * r
    factors = []
    for i in range(m):
        blocks = tuple(np.linalg.qr(rng.standard_normal((b, b)))[0] for _ in range(r))
        p = random_perm(d, rng) if i > 0 else identity_perm(d)
        factors.append((BlockDiagonal(blocks), p))
    chain = GSChain(tuple(factors), random_perm(d, rng))
    q = chain.as_dense()
    assert np.linalg.norm(q.T @ q - np.eye(d)) < 1e-13
