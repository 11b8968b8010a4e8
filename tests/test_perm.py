import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gsmat.perm import (
    Permutation,
    identity_perm,
    paired_stride_perm,
    perm_cols,
    perm_cols_t,
    stride_perm,
)


def test_stride_perm_k2_n4():
    assert stride_perm(2, 4).sigma.tolist() == [0, 2, 1, 3]


def test_stride_perm_k1_identity():
    assert stride_perm(1, 8).is_identity()


def test_stride_perm_k3_n12_entries():
    p = stride_perm(3, 12)
    assert p.sigma[1] == 4
    assert p.sigma[4] == 5
    assert p.sigma[11] == 11


def test_stride_perm_rejects_nondivisor():
    with pytest.raises(ValueError, match="k=3, n=8"):
        stride_perm(3, 8)


def test_paired_stride_perm_k2_n8():
    assert paired_stride_perm(2, 8).sigma.tolist() == [0, 1, 4, 5, 2, 3, 6, 7]


def test_paired_stride_perm_k1_identity():
    assert paired_stride_perm(1, 4).is_identity()


@pytest.mark.parametrize("k,n", [(2, 8), (3, 12), (4, 24), (2, 16)])
def test_paired_stride_perm_preserves_pairs(k, n):
    sigma = paired_stride_perm(k, n).sigma
    assert np.all(sigma[::2] % 2 == 0)
    assert np.all(sigma[1::2] == sigma[::2] + 1)


def test_paired_stride_perm_rejects_bad_dims():
    with pytest.raises(ValueError):
        paired_stride_perm(2, 6)


def test_apply_scatter_example():
    p = stride_perm(2, 4)
    assert p.apply(np.array([1.0, 2.0, 3.0, 4.0])).tolist() == [1.0, 3.0, 2.0, 4.0]


def test_apply_matches_dense():
    rng = np.random.default_rng(0)
    for n in (3, 7, 16):
        p = Permutation(rng.permutation(n))
        x = rng.standard_normal(n)
        np.testing.assert_allclose(p.apply(x), p.as_dense() @ x)


def test_apply_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        stride_perm(2, 4).apply(np.zeros(5))


def test_bijection_rejected():
    with pytest.raises(ValueError, match=r"sigma is not a bijection on \{0\.\.n-1\}"):
        Permutation(np.array([0, 0, 1]))


@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_invert_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    p = Permutation(rng.permutation(n))
    x = rng.standard_normal(n)
    np.testing.assert_array_equal(p.invert().apply(p.apply(x)), x)


@given(st.integers(1, 32), st.integers(0, 2**32 - 1))
def test_compose_matches_sequential_apply(n, seed):
    rng = np.random.default_rng(seed)
    p = Permutation(rng.permutation(n))
    q = Permutation(rng.permutation(n))
    x = rng.standard_normal(n)
    np.testing.assert_array_equal(p.compose(q).apply(x), p.apply(q.apply(x)))
    assert p.compose(p.invert()).is_identity()


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        identity_perm(3).compose(identity_perm(4))


def test_stride_inverse_is_stride():
    n = 16
    for k in range(2, 9):
        if n % k:
            continue
        assert stride_perm(k, n).invert().sigma.tolist() == stride_perm(n // k, n).sigma.tolist()


def test_stride_matches_reshape_transpose_flatten():
    # With sigma as the scatter map (dense entry at (sigma(i), i)), P x
    # flattens the transpose of the (n/k) x k reshape; the gather direction
    # P^T x realizes the k x (n/k) reading of the same description.
    rng = np.random.default_rng(1)
    for n in (4, 12, 24, 60, 64):
        for k in range(1, n + 1):
            if n % k:
                continue
            x = rng.standard_normal(n)
            p = stride_perm(k, n)
            np.testing.assert_array_equal(p.apply(x), x.reshape(n // k, k).T.ravel())
            np.testing.assert_array_equal(p.apply_inverse(x), x.reshape(k, n // k).T.ravel())


def test_as_dense_orthogonal_exact():
    rng = np.random.default_rng(2)
    for n in (1, 5, 16):
        d = Permutation(rng.permutation(n)).as_dense()
        assert np.array_equal(d.T @ d, np.eye(n))
    assert np.array_equal(identity_perm(4).as_dense(), np.eye(4))


def test_matrix_helpers_match_dense_products():
    rng = np.random.default_rng(3)
    p = Permutation(rng.permutation(6))
    m = rng.standard_normal((6, 6))
    d = p.as_dense()
    np.testing.assert_allclose(p.apply(m), d @ m)
    np.testing.assert_allclose(p.apply_inverse(m), d.T @ m)
    np.testing.assert_allclose(perm_cols(p, m), m @ d)
    np.testing.assert_allclose(perm_cols_t(p, m), m @ d.T)
    # Non-square: the column helpers permute the 6 columns of a 4 x 6 matrix.
    wide = rng.standard_normal((4, 6))
    np.testing.assert_array_equal(perm_cols(p, wide), wide @ d)
    np.testing.assert_array_equal(perm_cols_t(p, wide), wide @ d.T)
    with pytest.raises(ValueError, match="column count"):
        perm_cols_t(p, wide.T)


def _leading_axis_inputs(n, rng):
    """Arrays with n entries on axis 0, including zero-width and non-contiguous ones."""
    return {
        "1-D": rng.standard_normal(n),
        "2-D": rng.standard_normal((n, 4)),
        "3-D": rng.standard_normal((n, 3, 2)),
        "zero-width": np.zeros((n, 0)),
        "transposed": rng.standard_normal((5, n)).T,
        "strided": rng.standard_normal((2 * n, 6))[::2, ::3],
    }


def _dense_products(p, x):
    """(P x, P^T x, M P, M P^T) from the dense P, with M = x with axes 0 and 1 swapped."""
    d = p.as_dense().astype(x.dtype)
    m = np.moveaxis(x, 0, 1) if x.ndim > 1 else x[None]
    cols = "ai...,ij->aj..."
    return m, (np.tensordot(d, x, 1), np.tensordot(d.T, x, 1), np.einsum(cols, m, d), np.einsum(cols, m, d.T))


@pytest.mark.parametrize("case", ["1-D", "2-D", "3-D", "zero-width", "transposed", "strided"])
def test_apply_and_column_helpers_match_dense_products(case):
    rng = np.random.default_rng(4)
    for n in (1, 5, 16):
        p = Permutation(rng.permutation(n))
        x = _leading_axis_inputs(n, rng)[case]
        m, want = _dense_products(p, x)
        got = (p.apply(x), p.apply_inverse(x), perm_cols(p, m), perm_cols_t(p, m))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.bool_, np.complex128])
def test_apply_and_column_helpers_keep_dtype(dtype):
    rng = np.random.default_rng(5)
    p = Permutation(rng.permutation(7))
    x = (rng.integers(-3, 4, size=(7, 3)) + (1j if dtype is np.complex128 else 0)).astype(dtype)
    m, want = _dense_products(p, x)
    got = (p.apply(x), p.apply_inverse(x), perm_cols(p, m), perm_cols_t(p, m))
    for g, w in zip(got, want):
        assert g.dtype == dtype
        np.testing.assert_array_equal(g, w)


def test_apply_bit_identical_to_scatter():
    rng = np.random.default_rng(6)
    p = Permutation(rng.permutation(64))
    for x in _leading_axis_inputs(64, rng).values():
        want = np.empty_like(x)
        want[p.sigma] = x
        assert p.apply(x).tobytes() == want.tobytes()
        assert p.apply_inverse(want).tobytes() == x.tobytes()


def test_caller_array_writes_do_not_reach_permutation():
    a = np.array([1, 0, 2])
    p = Permutation(a)
    a[0] = 0
    np.testing.assert_array_equal(p.apply(np.array([10.0, 20.0, 30.0])), [20.0, 10.0, 30.0])
    np.testing.assert_array_equal(p.sigma, [1, 0, 2])
    np.testing.assert_array_equal(p.invert().sigma, [1, 0, 2])
    with pytest.raises(ValueError, match="read-only"):
        p.sigma[0] = 0


@pytest.mark.parametrize(
    "sigma",
    [[0, 1, 3], [-1, 0, 1], [[0, 1], [1, 0]], [[0]]],
    ids=["out-of-range", "negative", "2-D", "2-D-singleton"],
)
def test_out_of_range_and_2d_sigma_rejected(sigma):
    with pytest.raises(ValueError, match=r"sigma is not a bijection on \{0\.\.n-1\}"):
        Permutation(np.array(sigma))


def test_empty_permutation():
    p = Permutation(np.array([], dtype=np.int64))
    assert p.n == 0 and p.is_identity()
    assert p.apply(np.zeros((0, 3))).shape == (0, 3)
    assert p.invert().n == 0


def test_json_roundtrip():
    p = stride_perm(3, 12)
    q = Permutation.from_json(p.to_json())
    assert q.sigma.tolist() == p.sigma.tolist()


@pytest.mark.parametrize(
    "text",
    [
        "[0, 1]",
        '{"n": 2}',
        '{"n": 2, "sigma": null}',
        '{"n": 3, "sigma": [1, 0]}',
        '{"n": 2, "sigma": [0.5, 1]}',
    ],
)
def test_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        Permutation.from_json(text)


def test_pickled_and_deepcopied_permutations_stay_read_only():
    p = stride_perm(3, 12)
    x = np.arange(12.0)
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert not q.sigma.flags.writeable and not q._inv.flags.writeable
        with pytest.raises(ValueError):
            q.sigma[0] = 1
        np.testing.assert_array_equal(q.apply(x), p.apply(x))
        np.testing.assert_array_equal(q.apply_inverse(x), p.apply_inverse(x))
