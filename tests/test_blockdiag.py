import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsmat.blockdiag import (
    BlockDiagonal,
    SkewGenerators,
    cayley,
    cayley_blockdiag,
    cayley_vjp,
    pack_skew_triu,
    unpack_skew_triu,
)
from oracles import cayley_vjp_inverse, central_diff


def test_apply_identity_blocks():
    bd = BlockDiagonal((np.eye(2), np.eye(2), np.eye(2)))
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    np.testing.assert_array_equal(bd.apply(x), x)


def test_apply_scalar_blocks():
    bd = BlockDiagonal((np.array([[2.0]]), np.array([[3.0]])))
    np.testing.assert_array_equal(bd.apply(np.array([1.0, 1.0])), [2.0, 3.0])


def test_apply_matches_dense_random():
    rng = np.random.default_rng(0)
    bd = BlockDiagonal((rng.standard_normal((4, 5)), rng.standard_normal((4, 5))))
    x = rng.standard_normal(10)
    np.testing.assert_allclose(bd.apply(x), bd.as_dense() @ x, atol=1e-14)
    y = rng.standard_normal(bd.rows)
    np.testing.assert_allclose(bd.apply_t(y), bd.as_dense().T @ y, atol=1e-14)


def test_apply_dense_consistency_up_to_64():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k, b = rng.integers(1, 9, size=2)
        bd = BlockDiagonal(tuple(rng.standard_normal((b, b)) for _ in range(k)))
        x = rng.standard_normal(bd.cols)
        np.testing.assert_allclose(bd.apply(x), bd.as_dense() @ x, atol=1e-14)


# (k, b1, b2) block stacks, empty and non-square blocks included.
_block_stacks = st.tuples(st.integers(1, 8), st.integers(0, 5), st.integers(0, 5)).filter(
    lambda kb: kb[1] + kb[2]
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(kb=_block_stacks, trailing=st.sampled_from([(), (3,), (2, 3), (0,), (2, 0)]), seed=st.integers(0, 2**16))
def test_apply_matches_dense_for_block_stacks(kb, trailing, seed):
    rng = np.random.default_rng(seed)
    k, b1, b2 = kb
    blocks = [rng.standard_normal((b1, b2)) for _ in range(k)]
    bd = BlockDiagonal(tuple(blocks))
    assert len(bd.blocks) == len(blocks)
    for got, want in zip(bd.blocks, blocks):
        assert got.dtype == np.float64 and got.ndim == 2
        np.testing.assert_array_equal(got, want)
    dense = bd.as_dense()
    x = rng.standard_normal((bd.cols, *trailing))
    y = rng.standard_normal((bd.rows, *trailing))
    got, got_t = bd.apply(x), bd.apply_t(y)
    assert got.shape == (bd.rows, *trailing) and got_t.shape == (bd.cols, *trailing)
    np.testing.assert_allclose(got, np.tensordot(dense, x, 1), atol=1e-12)
    np.testing.assert_allclose(got_t, np.tensordot(dense.T, y, 1), atol=1e-12)


def _nonsquare_blocks(rng):
    return BlockDiagonal(tuple(rng.standard_normal((2, 3)) for _ in range(4)))


def test_shapes_on_nonsquare_blocks():
    bd = _nonsquare_blocks(np.random.default_rng(7))
    assert bd.stack.shape == (4, 2, 3)
    assert (bd.rows, bd.cols) == (8, 12)
    assert type(bd.rows) is int and type(bd.cols) is int
    assert bd.as_dense().shape == (8, 12)
    t = bd.transpose()
    assert (t.rows, t.cols, t.stack.shape) == (12, 8, (4, 3, 2))


def test_apply_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        BlockDiagonal((np.eye(2),)).apply(np.zeros(3))
    bd = _nonsquare_blocks(np.random.default_rng(9))
    with pytest.raises(ValueError, match="expected 8, got 12"):
        bd.apply_t(np.zeros(12))


def test_mixed_shapes_are_rejected():
    with pytest.raises(ValueError, match="share one shape"):
        BlockDiagonal((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="share one shape"):
        BlockDiagonal((np.zeros((2, 3)), np.zeros((3, 2))))
    with pytest.raises(ValueError, match="share one shape"):
        SkewGenerators((np.zeros((2, 2)), np.zeros((3, 3))))
    with pytest.raises(ValueError, match="nonempty"):
        BlockDiagonal(())
    with pytest.raises(ValueError, match="square"):
        SkewGenerators((np.zeros((2, 3)),))


def test_blocks_are_read_only_and_private_copies():
    rng = np.random.default_rng(10)
    stack = rng.standard_normal((3, 2, 2))
    bd = BlockDiagonal(stack)
    from_tuple = BlockDiagonal(tuple(stack))
    assert len(bd.blocks) == 3
    np.testing.assert_array_equal(bd.stack, from_tuple.stack)
    for got, want in zip(bd.blocks, from_tuple.blocks):
        np.testing.assert_array_equal(got, want)
    dense = bd.as_dense()
    g = SkewGenerators(stack)
    gens = g.gens.copy()
    stack[0, 0, 1] = 5.0
    np.testing.assert_array_equal(bd.as_dense(), dense)
    np.testing.assert_array_equal(g.gens, gens)
    for copied in (copy.deepcopy(bd), pickle.loads(pickle.dumps(bd))):
        np.testing.assert_array_equal(copied.as_dense(), dense)
        assert not copied.stack.flags.writeable and not copied.blocks[0].flags.writeable
    for copied in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        np.testing.assert_array_equal(copied.gens, gens)
        assert not copied.gens.flags.writeable
    for target in (bd.blocks[0], bd.stack, g.gens):
        with pytest.raises(ValueError, match="read-only"):
            target[0, 1] = 5.0
    np.testing.assert_array_equal(bd.as_dense(), dense)
    np.testing.assert_array_equal(g.gens, gens)


def test_cayley_zero_is_identity():
    np.testing.assert_array_equal(cayley(np.zeros((3, 3))), np.eye(3))


def test_cayley_hand_computed_rotation():
    k = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(cayley(k), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)


def test_cayley_orthogonal_and_special():
    rng = np.random.default_rng(2)
    for b in (2, 5, 8, 16, 64):
        a = rng.uniform(-1, 1, (b, b))
        q = cayley(a - a.T)
        assert np.linalg.norm(q.T @ q - np.eye(b)) <= 1e-12 * b
        assert abs(np.linalg.det(q) - 1.0) < 1e-9


def test_cayley_rejects_nonfinite():
    with pytest.raises(ValueError, match="NaN"):
        cayley(np.array([[0.0, np.nan], [-np.nan, 0.0]]))
    stack = np.zeros((4, 3, 3))
    stack[2, 0, 1] = np.nan  # one bad block in an otherwise finite stack
    with pytest.raises(ValueError, match="NaN"):
        cayley(stack)


@pytest.mark.parametrize("b", [1, 2, 16, 32])
def test_cayley_and_vjp_on_stacks_equal_stacked_per_block_results(b):
    rng = np.random.default_rng(b)
    a = rng.standard_normal((5, b, b))
    g = rng.standard_normal((5, b, b))
    k = a - a.transpose(0, 2, 1)
    assert np.array_equal(cayley(k), np.stack([cayley(blk) for blk in k]))
    assert np.array_equal(cayley_vjp(a, g), np.stack([cayley_vjp(x, y) for x, y in zip(a, g)]))
    assert np.array_equal(cayley_blockdiag(SkewGenerators(a)).stack, cayley(k))


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (4, 2, 3), (3, 1)])
def test_cayley_and_vjp_reject_non_square_shapes(shape):
    z = np.zeros(shape)
    with pytest.raises(ValueError, match="stack"):
        cayley(z)
    with pytest.raises(ValueError, match="shape mismatch"):
        cayley_vjp(z, z)


def test_cayley_blockdiag_zero_generators():
    bd = cayley_blockdiag(SkewGenerators.zeros(2, 3))
    np.testing.assert_array_equal(bd.as_dense(), np.eye(6))


def test_cayley_blockdiag_orthogonal():
    rng = np.random.default_rng(3)
    g = SkewGenerators(tuple(rng.standard_normal((8, 8)) for _ in range(4)))
    d = cayley_blockdiag(g).as_dense()
    assert np.linalg.norm(d.T @ d - np.eye(32)) <= 1e-12 * 32


def test_skew_generators_are_skew():
    rng = np.random.default_rng(4)
    g = SkewGenerators((rng.standard_normal((5, 5)),))
    k = g.skew()[0]
    assert np.array_equal(k, -k.T)


def test_cayley_vjp_zero_gradient():
    assert np.all(cayley_vjp(np.ones((3, 3)), np.zeros((3, 3))) == 0)


def test_cayley_vjp_matches_finite_differences():
    rng = np.random.default_rng(5)
    for trial in range(20):
        b = int(rng.integers(2, 7))
        a = rng.standard_normal((b, b))
        c = rng.standard_normal((b, b))
        grad = cayley_vjp(a, c)
        fd = central_diff(lambda m: float(np.sum(cayley(m - m.T) * c)), a)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12), trial
    for b in (8, 16, 32):  # the block sizes adapters use
        a = rng.standard_normal((b, b))
        c = rng.standard_normal((b, b))
        grad = cayley_vjp(a, c)
        fd = central_diff(lambda m: float(np.sum(cayley(m - m.T) * c)), a)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12), b


@pytest.mark.parametrize("scale", [0.01, 1.0, 10.0])
def test_cayley_vjp_matches_inverse_oracle(scale):
    """The VJP read off Q against 2 S^-T G S^-T from explicit inverses, small to large generators."""
    rng = np.random.default_rng(17)
    for b in (1, 2, 5, 16, 32):
        a = scale * rng.standard_normal((4, b, b))
        g = rng.standard_normal((4, b, b))
        want = cayley_vjp_inverse(a, g)
        got = cayley_vjp(a, g)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), b
        np.testing.assert_allclose(cayley_vjp(a[0], g[0]), want[0], rtol=0, atol=1e-12 * np.max(np.abs(want[0])))


def test_cayley_vjp_symmetric_directions_vanish():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4))
    c = rng.standard_normal((4, 4))
    grad = cayley_vjp(a, c)
    sym = rng.standard_normal((4, 4))
    sym = sym + sym.T
    assert abs(np.sum(grad * sym)) < 1e-12


def test_cayley_vjp_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        cayley_vjp(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        cayley_vjp(np.zeros((4, 2, 2)), np.zeros((3, 2, 2)))


def test_pack_unpack_skew_roundtrip():
    rng = np.random.default_rng(7)
    g = SkewGenerators((rng.standard_normal((4, 4)), rng.standard_normal((4, 4))))
    restored = unpack_skew_triu(pack_skew_triu(g), 2, 4)
    for orig, back in zip(g.skew(), restored.skew()):
        np.testing.assert_allclose(back, orig, atol=1e-15)
