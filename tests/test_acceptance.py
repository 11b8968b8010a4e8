"""Acceptance suite: one test per release criterion, pinned tolerances.

Each test finishes by printing a single PASS line naming the criterion; a
failure raises before that line is reached.
"""

import hashlib
import json

import numpy as np
import pytest

from gsmat import (
    GSClassSpec,
    GSMatrix,
    GSOFTAdapter,
    OrthoGSParams,
    butterfly_min_factors,
    conv_as_matrix,
    conv_exponential,
    fit_blockdiag_target,
    fit_orthogonal_target,
    gsoft_spec,
    is_orthogonal,
    load_container,
    materialize,
    maxmin,
    maxmin_permuted,
    min_factors_dense,
    monarch_member,
    orthogonalize_representation,
    param_count,
    project,
    save_container,
    skew_kernel,
    support_mask,
)
from gsmat.blockdiag import SkewGenerators, cayley, cayley_vjp
from gsmat.cli import EXIT_IO, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main
from gsmat.gsconv import layer_jacobian, make_layer, random_grouped_kernel
from gsmat.perm import Permutation, stride_perm

from oracles import (
    central_diff,
    jacobi_eigvals,
    random_member,
    random_perm,
    random_square_spec,
)


def test_criterion_01_parameter_accounting():
    # d = 1024 in 32 blocks of 32: two GS factors vs the butterfly baseline.
    assert min_factors_dense(32, 32) == 2
    assert butterfly_min_factors(32) == 6
    assert param_count(32, 32, 2) == 65536
    assert param_count(32, 32, 6) == 196608
    print("PASS criterion 1: parameter accounting (65536 vs 196608, m=2 vs 6)")


def test_criterion_02_density_sweep():
    rng = np.random.default_rng(2024)
    for b in (2, 3, 4):
        for r in range(2, 33):
            if b * r > 128:
                continue
            d = b * r
            m_star = min_factors_dense(b, r)
            p = stride_perm(r, d)
            # Stride chains of minimal length are fully dense.
            assert support_mask(b, r, [p] * (m_star - 1), m_star).all(), (b, r)
            # One factor shorter is never dense: stride perms ...
            assert not support_mask(b, r, [p] * (m_star - 2), m_star - 1).all(), (b, r)
            # ... nor 100 random interior permutations.
            for _ in range(100):
                perms = [random_perm(d, rng) for _ in range(m_star - 2)]
                assert not support_mask(b, r, perms, m_star - 1).all(), (b, r)
    print("PASS criterion 2: minimal dense chain length sweep, b in {2,3,4}, r in 2..32")


def test_criterion_03_orthogonality_by_construction():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 200:
        n = int(rng.choice([8, 16, 64, 256]))
        divs = [d for d in (2, 4, 8, 16) if n % d == 0]
        b_l = int(rng.choice(divs))
        b_r = int(rng.choice(divs))
        spec = GSClassSpec(
            n // b_l, b_l, b_l, n // b_r, b_r, b_r,
            random_perm(n, rng), random_perm(n, rng), random_perm(n, rng),
        )
        q = materialize(OrthoGSParams.random(spec, rng)).as_dense()
        _, res = is_orthogonal(q, np.inf)
        assert res <= 1e-11 * n, (n, res)
        checked += 1
    print("PASS criterion 3: 200 random members orthogonal to 1e-11*n")


def test_criterion_04_reorthogonalization_round_trip():
    rng = np.random.default_rng(4)
    done = 0
    while done < 50:
        spec = random_square_spec(rng, sizes=(8, 12, 16, 24))
        a = materialize(OrthoGSParams.random(spec, rng))
        if done % 2 == 1:
            # Scaled-block variant: blocks are no longer orthogonal but the
            # dense product is unchanged.
            scales = rng.uniform(0.5, 2.0, size=spec.k_L)
            l_blocks = tuple(s * b for s, b in zip(scales, a.L.blocks))
            rd = a.R.as_dense().copy()
            sigma = spec.P.sigma
            for i in range(spec.s):
                rd[i, :] /= scales[int(sigma[i]) // spec.b_L2]
            b_r = spec.b_R1
            r_blocks = tuple(
                rd[i * b_r : (i + 1) * b_r, i * b_r : (i + 1) * b_r] for i in range(spec.k_R)
            )
            a = GSMatrix(spec, type(a.L)(l_blocks), type(a.R)(r_blocks))
        dense = a.as_dense()
        out = orthogonalize_representation(a)
        assert np.linalg.norm(out.as_dense() - dense) <= 1e-9 * spec.m
        for blk in out.L.blocks + out.R.blocks:
            assert np.linalg.norm(blk.T @ blk - np.eye(blk.shape[1])) <= 1e-10
        done += 1
    print("PASS criterion 4: 50 re-orthogonalization round trips (incl. scaled blocks)")


def _spec_8x8(rng):
    s = int(rng.choice([8, 16]))
    ks = [k for k in (1, 2, 4, 8) if s % k == 0]
    k_l = int(rng.choice(ks))
    k_r = int(rng.choice(ks))
    return GSClassSpec(
        k_l, 8 // k_l, s // k_l, k_r, s // k_r, 8 // k_r,
        random_perm(8, rng), random_perm(s, rng), random_perm(8, rng),
    )


def _block_tail_sq(a, spec):
    """Sum of squared singular values beyond each block's structural rank.

    Independent route: Jacobi eigenvalues of B^T B per block of the
    permutation-stripped matrix.
    """
    core = spec.P_L.as_dense().T @ a @ spec.P_R.as_dense().T
    ranks = np.zeros((spec.k_L, spec.k_R), dtype=np.int64)
    np.add.at(ranks, (spec.P.sigma // spec.b_L2, np.arange(spec.s) // spec.b_R1), 1)
    total = 0.0
    for k1 in range(spec.k_L):
        for k2 in range(spec.k_R):
            blk = core[
                k1 * spec.b_L1 : (k1 + 1) * spec.b_L1,
                k2 * spec.b_R2 : (k2 + 1) * spec.b_R2,
            ]
            rank = ranks[k1, k2]
            ev = jacobi_eigvals(blk.T @ blk)  # descending
            # Zero eigenvalues come back as O(eps * ||B||^2) noise; clip them
            # so the sqrt below does not inflate rounding error to 1e-8.
            ev = np.where(ev > 1e-11 * max(1.0, ev.max(initial=0.0)), ev, 0.0)
            total += float(np.sum(ev[rank:]))
    return total


def test_criterion_05_projection_optimality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        spec = _spec_8x8(rng)
        a = rng.standard_normal((8, 8))
        pi = project(a, spec)
        err = np.linalg.norm(a - pi.as_dense())
        # Error equals the blockwise singular-value tail.
        tail = np.sqrt(_block_tail_sq(a, spec))
        assert abs(err - tail) <= 1e-9 * max(1.0, tail)
        # Beats random class members ...
        for _ in range(1000):
            cand = random_member(spec, rng)
            assert np.linalg.norm(a - cand.as_dense()) >= err - 1e-9
        # ... and local perturbations of the projection itself.
        for _ in range(200):
            eps = 10.0 ** rng.uniform(-4, -1)
            l_b = tuple(b + eps * rng.standard_normal(b.shape) for b in pi.L.blocks)
            r_b = tuple(b + eps * rng.standard_normal(b.shape) for b in pi.R.blocks)
            cand = GSMatrix(spec, type(pi.L)(l_b), type(pi.R)(r_b))
            assert np.linalg.norm(a - cand.as_dense()) >= err - 1e-9
        # Fixed point on in-class inputs.
        member = random_member(spec, rng)
        md = member.as_dense()
        re = project(md, spec).as_dense()
        assert np.linalg.norm(re - md) <= 1e-10 * max(1.0, np.linalg.norm(md))
    print("PASS criterion 5: projection optimality on 100 instances (tail, 1200 competitors, fixed point)")


def test_criterion_06_block_lowrank_equivalence():
    from gsmat import to_block_lowrank
    from oracles import random_spec

    rng = np.random.default_rng(6)
    done = 0
    while done < 100:
        spec = random_spec(rng, s_choices=(8, 12, 16, 24, 32, 48, 64), outer="identity")
        a = random_member(spec, rng)
        dense = a.as_dense()
        assembled = np.zeros_like(dense)
        for k1, k2, u, v in to_block_lowrank(a):
            assembled[
                k1 * spec.b_L1 : (k1 + 1) * spec.b_L1,
                k2 * spec.b_R2 : (k2 + 1) * spec.b_R2,
            ] += u @ v.T
        assert np.max(np.abs(assembled - dense)) <= 1e-12
        done += 1
    print("PASS criterion 6: block low-rank assembly equals dense on 100 specs")


def test_criterion_07_gradient_correctness():
    rng = np.random.default_rng(7)
    # cayley_vjp against central differences.
    for _ in range(20):
        n = int(rng.choice([2, 3, 4, 5]))
        a = 0.5 * rng.standard_normal((n, n))
        g = rng.standard_normal((n, n))
        grad = cayley_vjp(a, g)
        fd = central_diff(lambda m: float(np.sum(g * cayley(m - m.T))), a)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(grad - fd) / denom <= 1e-6
    # GSOFT backward against central differences.
    for trial in range(20):
        rng = np.random.default_rng(700 + trial)
        d, b = (8, 2) if trial % 2 else (16, 4)
        w0 = rng.standard_normal((d, d))
        q = OrthoGSParams.random(gsoft_spec(d, b), rng, scale=0.4)
        adapter = GSOFTAdapter(w0, q)
        x, g = rng.standard_normal(d), rng.standard_normal(d)
        grads = adapter.backward(x, g)

        def loss(gen_l, gen_r):
            qq = OrthoGSParams(q.spec, gen_l, gen_r)
            return float(g @ GSOFTAdapter(w0, qq).forward(x))

        for i in range(q.spec.k_L):
            fd = central_diff(
                lambda m, i=i: loss(
                    SkewGenerators(tuple(m if j == i else q.gen_L.gens[j] for j in range(q.spec.k_L))),
                    q.gen_R,
                ),
                q.gen_L.gens[i],
            )
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grads["gen_L"][i] - fd) / denom <= 1e-6
        for i in range(q.spec.k_R):
            fd = central_diff(
                lambda m, i=i: loss(
                    q.gen_L,
                    SkewGenerators(tuple(m if j == i else q.gen_R.gens[j] for j in range(q.spec.k_R))),
                ),
                q.gen_R.gens[i],
            )
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grads["gen_R"][i] - fd) / denom <= 1e-6
    print("PASS criterion 7: Cayley and adapter gradients match finite differences (rel 1e-6)")


def test_criterion_08_trainer_and_ablation():
    d, b = 16, 4
    spec = gsoft_spec(d, b)
    recorded_seeds = (0, 1, 2)
    for seed in recorded_seeds:
        rng = np.random.default_rng(seed)
        target = materialize(OrthoGSParams.random(spec, rng, scale=0.5)).as_dense()
        _, losses, residuals = fit_orthogonal_target(spec, target, steps=2000, lr=0.05)
        assert losses[-1] <= 1e-4, (seed, losses[-1])
        assert max(residuals) <= 1e-10 * d, (seed, max(residuals))
        # Equal parameter count, no shuffling: strictly worse on the same target.
        _, ab_losses = fit_blockdiag_target(d, b, target, steps=2000, lr=0.05)
        assert ab_losses[-1] >= 10.0 * max(losses[-1], 1e-12), (seed, ab_losses[-1])
    print("PASS criterion 8: trainer reaches 1e-4 with 1e-10*d residuals; ablation >= 10x worse")


def test_criterion_09_merge_and_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d, b = 16, 4
        w0 = rng.standard_normal((d, d))
        q = OrthoGSParams.random(gsoft_spec(d, b), rng)
        adapter = GSOFTAdapter(w0, q, scale=1.0)
        merged = adapter.merge()
        x = rng.standard_normal(d)
        assert np.linalg.norm(adapter.forward(x) - merged.T @ x) <= 1e-12 * max(
            1.0, np.linalg.norm(merged.T @ x)
        )
        # Singular values via an independent symmetric-eigenvalue route.
        sv_m = np.sqrt(np.maximum(jacobi_eigvals(merged.T @ merged), 0.0))
        sv_0 = np.sqrt(np.maximum(jacobi_eigvals(w0.T @ w0), 0.0))
        assert np.max(np.abs(sv_m - sv_0)) <= 1e-9
        # Column Gram matrix is invariant under left rotation.
        assert np.max(np.abs(merged.T @ merged - w0.T @ w0)) <= 1e-10
    print("PASS criterion 9: merge matches forward; singular values/Gram invariant")


def test_criterion_10_convolution_suite():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(10)
    # Exact skewness of the materialized Jacobian.
    for groups in (1, 2):
        k = random_grouped_kernel(4, 4, 3, groups, rng)
        m = conv_as_matrix(skew_kernel(k), 4, 4)
        np.testing.assert_array_equal(m, -m.T)
    # Truncated exponential vs dense expm, T = 20, c = 2, 4 x 4 grid.
    from gsmat.gsconv import rescale_kernel

    l = skew_kernel(random_grouped_kernel(2, 2, 3, 1, rng, scale=0.3))
    l = rescale_kernel(l, 1.0 / np.linalg.norm(conv_as_matrix(l, 4, 4), 2))
    em = scipy_linalg.expm(conv_as_matrix(l, 4, 4))
    for _ in range(5):
        x = rng.standard_normal((2, 4, 4))
        y = conv_exponential(l, x, terms=20)
        assert np.linalg.norm(y.ravel() - em @ x.ravel()) <= 1e-9
    # Full layer: c = 8, groups = 4, 6 x 6 grid.
    layer = make_layer(8, 4, None, exp_terms=16, rng=rng, kernel_scale=0.2)
    jac = layer_jacobian(layer, 6, 6)
    assert np.linalg.norm(jac.T @ jac - np.eye(jac.shape[0])) <= 1e-7
    for _ in range(5):
        x = rng.standard_normal((8, 6, 6))
        y = jac @ x.ravel()
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-7
    # Activations are exactly norm-preserving: they permute entries within
    # pairs, so the sorted value multiset is bit-identical.
    for _ in range(20):
        x = rng.standard_normal((8, 5, 5))
        for act in (maxmin, maxmin_permuted):
            np.testing.assert_array_equal(np.sort(act(x).ravel()), np.sort(x.ravel()))
    # Paired shuffles keep adjacent activation pairs inside one group.
    from gsmat.gsconv import pairs_stay_in_groups
    from gsmat.perm import paired_stride_perm

    for groups, c in [(2, 8), (4, 8), (4, 16)]:
        assert pairs_stay_in_groups(paired_stride_perm(groups, c), c // groups)
    print("PASS criterion 10: conv suite (skew exact, expm 1e-9, layer 1e-7, activations, pairing)")


def test_criterion_11_monarch_membership():
    rng = np.random.default_rng(11)

    def brute_force(spec):
        # Enumerate the Monarch shape family for this s and compare tuples.
        shape = (spec.k_L, spec.b_L1, spec.b_L2, spec.k_R, spec.b_R1, spec.b_R2)
        for p in range(1, spec.s + 1):
            if spec.s % p:
                continue
            q = spec.s // p
            if shape == (p, spec.b_L1, q, q, p, spec.b_R2):
                return True
        return False

    members = non_members = 0
    trials = 0
    while trials < 50:
        from oracles import random_spec

        spec = random_spec(rng)
        expected = brute_force(spec)
        assert monarch_member(spec) == expected, spec
        members += expected
        non_members += not expected
        trials += 1
    # Both directions must actually be exercised.
    assert members >= 5 and non_members >= 5, (members, non_members)
    print(f"PASS criterion 11: Monarch membership agrees with brute force ({members} in, {non_members} out)")


def test_criterion_12_cli_determinism_and_format(tmp_path, capsys):
    rng = np.random.default_rng(12)
    # Bit-identical container round trip.
    a = rng.standard_normal((6, 6))
    p1, p2 = str(tmp_path / "a1.gsm"), str(tmp_path / "a2.gsm")
    save_container(a, p1)
    save_container(load_container(p1), p2)
    h = lambda p: hashlib.sha256(open(p, "rb").read()).hexdigest()
    assert h(p1) == h(p2)
    # Deterministic subcommands under a fixed seed.
    for argv in (
        ["density", "--b", "2", "--r", "8", "--m", "4", "--perm", "random", "--seed", "5"],
        ["count", "--b", "32", "--r", "32", "--m", "2"],
        ["demo-conv", "--channels", "4", "--groups", "2", "--terms", "8", "--size", "3", "--seed", "5"],
        ["demo-gsoft", "--d", "8", "--b", "2", "--steps", "200", "--lr", "0.05", "--seed", "5"],
    ):
        assert main(argv) == EXIT_OK
        out1 = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == out1
        json.loads(out1)  # every report is valid JSON
    # Documented exit codes.
    with pytest.raises(SystemExit) as exc:
        main(["density", "--b", "2"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    assert main(["density", "--b", "1", "--r", "4", "--m", "2"]) == EXIT_USAGE
    assert (
        main(["project", "--input", str(tmp_path / "no.gsm"), "--spec", "s", "--output", "o"])
        == EXIT_IO
    )
    assert (
        main(["demo-conv", "--channels", "4", "--groups", "2", "--terms", "1", "--size", "3",
              "--seed", "0", "--tol", "1e-9"])
        == EXIT_TOLERANCE
    )
    capsys.readouterr()
    print("PASS criterion 12: container bit-identical, deterministic CLI, exit codes 2/3/4")
