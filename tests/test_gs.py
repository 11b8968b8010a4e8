import numpy as np
import pytest

from gsmat import GSClassSpec, GSMatrix, block_rank_map, project, svd_small, to_block_lowrank
from gsmat.blockdiag import BlockDiagonal
from gsmat.perm import identity_perm, stride_perm
from oracles import jacobi_eigvals, random_member, random_perm, random_spec


def explicit_dense(a):
    sp = a.spec
    return (
        sp.P_L.as_dense()
        @ a.L.as_dense()
        @ sp.P.as_dense()
        @ a.R.as_dense()
        @ sp.P_R.as_dense()
    )


def test_spec_constraint_validation():
    with pytest.raises(ValueError, match="inner dimensions"):
        GSClassSpec.make(2, 2, 3, 2, 2, 2)
    with pytest.raises(ValueError, match="P_L has dimension"):
        GSClassSpec(2, 2, 2, 2, 2, 2, identity_perm(3), identity_perm(4), identity_perm(4))


def test_apply_identity_everything():
    sp = GSClassSpec.make(2, 2, 2, 2, 2, 2)
    a = GSMatrix(sp, BlockDiagonal.identity([2, 2]), BlockDiagonal.identity([2, 2]))
    x = np.arange(4.0)
    np.testing.assert_array_equal(a.apply(x), x)


def test_apply_fig2_configuration():
    # k_L=2 blocks of 3x3, k_R=3 blocks of 2x2, identity outer permutations.
    rng = np.random.default_rng(0)
    sp = GSClassSpec.make(2, 3, 3, 3, 2, 2, P=stride_perm(2, 6))
    a = random_member(sp, rng)
    x = rng.standard_normal(6)
    np.testing.assert_allclose(a.apply(x), explicit_dense(a) @ x, rtol=1e-12, atol=1e-12)


def test_apply_batched_equals_single():
    rng = np.random.default_rng(1)
    sp = random_spec(rng)
    a = random_member(sp, rng)
    xs = rng.standard_normal((sp.n, 16))
    batched = a.apply(xs)
    for j in range(16):
        np.testing.assert_allclose(batched[:, j], a.apply(xs[:, j]), atol=1e-13)


def test_apply_length_mismatch():
    sp = GSClassSpec.make(2, 2, 2, 2, 2, 2)
    a = GSMatrix(sp, BlockDiagonal.identity([2, 2]), BlockDiagonal.identity([2, 2]))
    with pytest.raises(ValueError, match="length mismatch"):
        a.apply(np.zeros(5))


def test_dense_consistency_random_specs():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = random_member(random_spec(rng), rng)
        d = a.as_dense()
        np.testing.assert_allclose(d, explicit_dense(a), atol=1e-13)
        x = rng.standard_normal(a.spec.n)
        np.testing.assert_allclose(a.apply(x), d @ x, atol=1e-12 * max(1, np.linalg.norm(d)))


def test_block_rank_map_stride_example():
    sp = GSClassSpec.make(2, 2, 2, 2, 2, 2, P=stride_perm(2, 4))
    assert block_rank_map(sp).tolist() == [[1, 1], [1, 1]]


def test_block_rank_map_identity_perm_is_diagonal():
    sp = GSClassSpec.make(3, 2, 2, 3, 2, 2)
    ranks = block_rank_map(sp)
    assert np.array_equal(ranks, 2 * np.eye(3, dtype=np.int64))


def test_block_rank_map_sums_to_s():
    rng = np.random.default_rng(3)
    for _ in range(50):
        sp = random_spec(rng)
        assert block_rank_map(sp).sum() == sp.s


def _routed_counts(sp):
    ranks = np.zeros((sp.k_L, sp.k_R), dtype=np.int64)
    np.add.at(ranks, (sp.P.sigma // sp.b_L2, np.arange(sp.s) // sp.b_R1), 1)
    return ranks


def test_block_rank_map_matches_independent_count():
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 30:
        sp = random_spec(rng)
        if sp.b_L2 != sp.b_R1:
            np.testing.assert_array_equal(block_rank_map(sp), _routed_counts(sp))
            checked += 1


def test_project_leaves_unreachable_slots_zero():
    # Pairs receive up to 4 routed terms but have rank at most min(b_L1, b_R2) = 2;
    # the terms past the spectrum, in increasing interior index, stay zero.
    rng = np.random.default_rng(15)
    unreachable = 0
    for p in [identity_perm(12)] + [random_perm(12, rng) for _ in range(4)]:
        sp = GSClassSpec(2, 2, 6, 3, 4, 2, random_perm(4, rng), p, random_perm(6, rng))
        unreachable += int(np.clip(_routed_counts(sp) - 2, 0, None).sum())
        b = project(rng.standard_normal((sp.m, sp.n)), sp)
        l, r, sigma = b.L.as_dense(), b.R.as_dense(), sp.P.sigma
        for k1 in range(sp.k_L):
            for k2 in range(sp.k_R):
                routed = [i for i in range(sp.s) if sigma[i] // sp.b_L2 == k1 and i // sp.b_R1 == k2]
                for j, i in enumerate(routed):
                    reachable = j < min(sp.b_L1, sp.b_R2)
                    assert np.any(l[:, sigma[i]] != 0.0) == reachable
                    assert np.any(r[i] != 0.0) == reachable
    assert unreachable > 0


def test_to_block_lowrank_identity_case():
    sp = GSClassSpec.make(2, 2, 2, 2, 2, 2)
    a = GSMatrix(sp, BlockDiagonal.identity([2, 2]), BlockDiagonal.identity([2, 2]))
    for k1, k2, u, v in to_block_lowrank(a):
        assert k1 == k2
        np.testing.assert_array_equal(u @ v.T, np.eye(2))


def test_to_block_lowrank_fig3_configuration():
    # k_L=4 blocks of 3x3 in L, k_R=2 blocks of 6x6 in R.
    rng = np.random.default_rng(4)
    sp = GSClassSpec.make(4, 3, 3, 2, 6, 6, P=stride_perm(4, 12))
    a = random_member(sp, rng)
    dense = a.as_dense()
    rec = np.zeros_like(dense)
    for k1, k2, u, v in to_block_lowrank(a):
        rec[k1 * 3 : (k1 + 1) * 3, k2 * 6 : (k2 + 1) * 6] = u @ v.T
    np.testing.assert_allclose(rec, dense, atol=1e-12)


def test_to_block_lowrank_random_s12():
    rng = np.random.default_rng(5)
    sp = random_spec(rng, s_choices=(12,), outer="identity")
    a = random_member(sp, rng)
    dense = a.as_dense()
    rec = np.zeros_like(dense)
    for k1, k2, u, v in to_block_lowrank(a):
        rec[
            k1 * sp.b_L1 : (k1 + 1) * sp.b_L1, k2 * sp.b_R2 : (k2 + 1) * sp.b_R2
        ] = u @ v.T
    np.testing.assert_allclose(rec, dense, atol=1e-12)


def test_to_block_lowrank_rejects_outer_permutations():
    rng = np.random.default_rng(6)
    sp = random_spec(rng, outer="random")
    a = random_member(sp, rng)
    with pytest.raises(ValueError, match="conjugation"):
        to_block_lowrank(a)


def test_svd_small_identity():
    u, s, v = svd_small(np.eye(3))
    np.testing.assert_allclose(s, [1, 1, 1])


def test_svd_small_diagonal():
    _, s, _ = svd_small(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(s, [3, 2, 1])


def test_svd_small_random_reconstruction_and_eig_oracle():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 5))
    u, s, v = svd_small(m)
    assert np.linalg.norm(u.T @ u - np.eye(5)) <= 1e-11
    assert np.linalg.norm(v.T @ v - np.eye(5)) <= 1e-11
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=1e-11 * np.linalg.norm(m))
    eigs = jacobi_eigvals(m.T @ m)
    np.testing.assert_allclose(s, np.sqrt(np.clip(eigs, 0, None)), atol=1e-9)


def test_svd_small_sign_convention_deterministic():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((6, 6))
    u1, _, v1 = svd_small(m)
    u2, _, v2 = svd_small(m.copy())
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(v1, v2)
    for j in range(6):
        nz = np.nonzero(np.abs(u1[:, j]) > 1e-14)[0]
        assert u1[nz[0], j] >= 0


def test_svd_small_sign_rule_with_leading_zero_rows():
    # Full column rank below the zero rows, so every left singular vector
    # starts below row 0 and the sign rule must look past the leading zeros.
    rng = np.random.default_rng(16)
    for rows, cols, zero in [(7, 4, 3), (12, 3, 8), (9, 5, 3), (6, 2, 4), (3, 1, 2)]:
        m = rng.standard_normal((rows, cols))
        m[:zero] = 0.0
        u, s, v = svd_small(m)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=1e-12 * np.linalg.norm(m))
        for j in range(s.size):
            first = np.flatnonzero(np.abs(u[:, j]) > 1e-14)[0]
            assert first >= zero
            assert u[first, j] >= 0


def test_svd_small_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        svd_small(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_project_fixed_point_on_members():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sp = random_spec(rng)
        a = random_member(sp, rng).as_dense()
        b = project(a, sp).as_dense()
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


def test_project_idempotent():
    rng = np.random.default_rng(10)
    sp = random_spec(rng)
    a = rng.standard_normal((sp.m, sp.n))
    b = project(a, sp).as_dense()
    b2 = project(b, sp).as_dense()
    assert np.linalg.norm(b - b2) <= 1e-10 * max(np.linalg.norm(b), 1e-12)


def test_project_structure_and_shape_check():
    rng = np.random.default_rng(11)
    sp = random_spec(rng)
    b = project(rng.standard_normal((sp.m, sp.n)), sp)
    assert b.spec is sp
    with pytest.raises(ValueError, match="shape mismatch"):
        project(np.zeros((sp.m + 1, sp.n)), sp)


def test_project_error_equals_singular_value_tail():
    rng = np.random.default_rng(12)
    for _ in range(10):
        sp = random_spec(rng)
        a = rng.standard_normal((sp.m, sp.n))
        err = np.linalg.norm(a - project(a, sp).as_dense()) ** 2
        core = sp.P_L.as_dense().T @ a @ sp.P_R.as_dense().T
        ranks = block_rank_map(sp)
        tail = 0.0
        for k1 in range(sp.k_L):
            for k2 in range(sp.k_R):
                block = core[
                    k1 * sp.b_L1 : (k1 + 1) * sp.b_L1, k2 * sp.b_R2 : (k2 + 1) * sp.b_R2
                ]
                svals = np.linalg.svd(block, compute_uv=False)
                tail += float(np.sum(svals[ranks[k1, k2] :] ** 2))
        assert abs(err - tail) <= 1e-9 * max(tail, 1e-12)


def test_project_optimality_vs_random_members_and_perturbations():
    rng = np.random.default_rng(13)
    sp = GSClassSpec.make(2, 4, 4, 2, 4, 4, P=stride_perm(2, 8))
    a = rng.standard_normal((8, 8))
    b = project(a, sp)
    err = np.linalg.norm(a - b.as_dense())
    for _ in range(1000):
        assert np.linalg.norm(a - random_member(sp, rng).as_dense()) >= err - 1e-12
    for _ in range(200):
        l = BlockDiagonal(tuple(blk + 1e-3 * rng.standard_normal(blk.shape) for blk in b.L.blocks))
        r = BlockDiagonal(tuple(blk + 1e-3 * rng.standard_normal(blk.shape) for blk in b.R.blocks))
        assert np.linalg.norm(a - GSMatrix(sp, l, r).as_dense()) >= err - 1e-12


def test_array_holding_objects_compare_by_identity_and_hash():
    rng = np.random.default_rng(4)
    spec = random_spec(rng)
    for make in (lambda: stride_perm(2, 4), lambda: BlockDiagonal((np.eye(2),)), lambda: random_member(spec, rng)):
        a, b = make(), make()
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
