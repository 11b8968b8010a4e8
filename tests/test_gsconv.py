"""Grouped convolutions, the convolution exponential, and the shuffle layer."""

import numpy as np
import pytest

from gsmat import (
    ConvKernel,
    GSConvLayer,
    conv_as_matrix,
    conv_exponential,
    grouped_conv,
    gs_conv_forward,
    maxmin,
    maxmin_permuted,
    skew_kernel,
)
from gsmat.gsconv import (
    layer_config,
    layer_from_config,
    layer_jacobian,
    make_layer,
    pairs_stay_in_groups,
    random_grouped_kernel,
    rescale_kernel,
)
from gsmat.perm import paired_stride_perm

scipy_linalg = pytest.importorskip("scipy.linalg")


def test_identity_kernel_is_identity_map():
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    k = ConvKernel(w)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5, 4))
    np.testing.assert_array_equal(grouped_conv(k, x), x)


def test_shift_kernel_shifts_with_zero_boundary():
    # Weight at offset (dy, dx) = (1, 1) reads the pixel one down-right.
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 2, 2] = 1.0
    k = ConvKernel(w)
    x = np.arange(12, dtype=float).reshape(1, 3, 4)
    y = grouped_conv(k, x)
    assert y[0, 0, 0] == x[0, 1, 1]
    np.testing.assert_array_equal(y[0, -1, :], 0.0)
    np.testing.assert_array_equal(y[0, :, -1], 0.0)


def test_grouped_conv_matches_materialized_matrix():
    rng = np.random.default_rng(1)
    for groups, (c_out, c_in) in [(1, (3, 2)), (2, (4, 4)), (4, (8, 8))]:
        k = random_grouped_kernel(c_out, c_in, 3, groups, rng)
        h, w = 4, 5
        m = conv_as_matrix(k, h, w)
        for _ in range(3):
            x = rng.standard_normal((c_in, h, w))
            np.testing.assert_allclose(grouped_conv(k, x).ravel(), m @ x.ravel(), atol=1e-12)
    # Kernels assembled group by group, without random_grouped_kernel, on
    # geometries that reach every edge of the flattened padded layout.
    for groups, (c_out, c_in), (kh, kw), (h, w) in [
        (2, (6, 4), (3, 3), (4, 5)),  # c_out != c_in with several groups
        (2, (4, 6), (3, 5), (4, 5)),  # non-square kernel
        (2, (4, 4), (5, 3), (4, 5)),
        (2, (4, 4), (3, 1), (4, 5)),
        (2, (4, 4), (1, 3), (4, 5)),
        (2, (4, 4), (1, 1), (4, 5)),
        (2, (6, 4), (1, 1), (3, 2)),  # 1x1 with c_out != c_in
        (6, (6, 6), (3, 3), (4, 5)),  # depthwise: one channel per group
        (4, (4, 4), (1, 3), (2, 3)),  # depthwise 1x3
        (1, (2, 3), (5, 5), (1, 1)),  # image smaller than the kernel
        (2, (4, 4), (7, 7), (2, 2)),
        (1, (3, 2), (3, 3), (1, 5)),  # one-row and one-column images
        (2, (4, 4), (5, 3), (4, 1)),
        (2, (4, 4), (3, 3), (0, 4)),  # empty image
    ]:
        weights = np.zeros((c_out, c_in, kh, kw))
        go, gi = c_out // groups, c_in // groups
        for g in range(groups):
            block = rng.standard_normal((go, gi, kh, kw))
            weights[g * go : (g + 1) * go, g * gi : (g + 1) * gi] = block
        k = ConvKernel(weights, groups)
        m = conv_as_matrix(k, h, w)
        x = rng.standard_normal((c_in, h, w))
        y = grouped_conv(k, x)
        assert y.shape == (c_out, h, w) and y.flags.c_contiguous
        np.testing.assert_allclose(y.ravel(), m @ x.ravel(), atol=1e-12)


@pytest.mark.parametrize("groups, k", [(8, 3), (16, 1)])
@pytest.mark.parametrize("size", [16, 32])
def test_grouped_conv_matches_per_tap_reference_at_benchmark_size(groups, k, size):
    # 64 channels on 16x16 or 32x32 is past conv_as_matrix's cap: sum the taps
    # of the dense kernel over a zero-padded copy instead.
    rng = np.random.default_rng(15)
    kern = random_grouped_kernel(64, 64, k, groups, rng)
    x = rng.standard_normal((64, size, size))
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    expect = sum(
        np.einsum("oi,ihw->ohw", kern.weights[:, :, dy, dx], xp[:, dy : dy + size, dx : dx + size])
        for dy in range(k)
        for dx in range(k)
    )
    y = grouped_conv(kern, x)
    assert y.shape == x.shape and y.flags.c_contiguous
    np.testing.assert_allclose(y, expect, atol=1e-12)


def test_cross_group_entries_rejected():
    w = np.ones((4, 4, 1, 1))
    with pytest.raises(ValueError, match="cross-group"):
        ConvKernel(w, groups=2)
    # One nonzero entry in the (group 1 out, group 0 in) block of a 6 x 4 kernel.
    w = np.zeros((6, 4, 3, 3))
    w[4, 1, 2, 0] = 1e-300
    with pytest.raises(ValueError, match="cross-group"):
        ConvKernel(w, groups=2)
    w[4, 1, 2, 0] = 0.0
    w[4, 3, 2, 0] = 1.0
    ConvKernel(w, groups=2)


@pytest.mark.parametrize("groups", [0, -1, 3])
def test_group_count_must_divide_channels(groups):
    with pytest.raises(ValueError, match="must divide"):
        ConvKernel(np.zeros((4, 4, 1, 1)), groups)
    with pytest.raises(ValueError, match="must divide"):
        random_grouped_kernel(4, 4, 3, groups, np.random.default_rng(0))


def test_grouped_matrix_is_block_diagonal():
    rng = np.random.default_rng(2)
    k = random_grouped_kernel(4, 4, 3, 2, rng)
    m = conv_as_matrix(k, 3, 3)
    hw = 9
    np.testing.assert_array_equal(m[: 2 * hw, 2 * hw :], 0.0)
    np.testing.assert_array_equal(m[2 * hw :, : 2 * hw], 0.0)


def test_skew_kernel_gives_exactly_skew_matrix():
    rng = np.random.default_rng(3)
    for groups in (1, 2):
        k = random_grouped_kernel(4, 4, 3, groups, rng)
        l = skew_kernel(k)
        m = conv_as_matrix(l, 4, 4)
        np.testing.assert_array_equal(m, -m.T)


def test_skew_kernel_requires_square_channels():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        skew_kernel(random_grouped_kernel(4, 2, 3, 2, rng))


def test_conv_exponential_matches_matrix_exponential():
    # T = 20 terms on a 2-channel 4 x 4 grid against scipy's expm.
    rng = np.random.default_rng(5)
    l = skew_kernel(random_grouped_kernel(2, 2, 3, 1, rng, scale=0.3))
    m = conv_as_matrix(l, 4, 4)
    em = scipy_linalg.expm(m)
    for _ in range(5):
        x = rng.standard_normal((2, 4, 4))
        y = conv_exponential(l, x, terms=20)
        np.testing.assert_allclose(y.ravel(), em @ x.ravel(), atol=1e-9)
        # Orthogonal map: norms preserved to series accuracy.
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-9


def test_conv_exponential_truncation_improves_with_terms():
    rng = np.random.default_rng(6)
    l = skew_kernel(random_grouped_kernel(2, 2, 3, 1, rng, scale=0.5))
    m = conv_as_matrix(l, 4, 4)
    em = scipy_linalg.expm(m)
    x = rng.standard_normal((2, 4, 4))
    errs = [
        np.linalg.norm(conv_exponential(l, x, terms=t).ravel() - em @ x.ravel())
        for t in (1, 3, 6, 12)
    ]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_layer_jacobian_is_orthogonal():
    # 8 channels in 4 groups on a 6 x 6 grid; enough series terms for 1e-7.
    rng = np.random.default_rng(7)
    layer = make_layer(8, 4, None, exp_terms=16, rng=rng, kernel_scale=0.2)
    jac = layer_jacobian(layer, 6, 6)
    d = jac.shape[0]
    res = np.linalg.norm(jac.T @ jac - np.eye(d))
    assert res < 1e-7, res


def test_two_stage_layer_jacobian_is_orthogonal():
    rng = np.random.default_rng(8)
    layer = make_layer(8, 4, 2, exp_terms=16, rng=rng, kernel_scale=0.15)
    jac = layer_jacobian(layer, 4, 4)
    res = np.linalg.norm(jac.T @ jac - np.eye(jac.shape[0]))
    assert res < 1e-7, res


def test_zero_kernel_layer_is_pure_shuffle():
    rng = np.random.default_rng(9)
    k = ConvKernel(np.zeros((8, 8, 3, 3)), groups=4)
    layer = GSConvLayer(paired_stride_perm(4, 8), k, exp_terms=4)
    x = rng.standard_normal((8, 3, 3))
    y = gs_conv_forward(layer, x)
    expect = np.empty_like(x)
    expect[layer.shuffle1.sigma] = x
    np.testing.assert_array_equal(y, expect)


def test_maxmin_examples_and_norm_preservation():
    np.testing.assert_array_equal(maxmin(np.array([1.0, 2.0])), [2.0, 1.0])
    np.testing.assert_array_equal(
        maxmin(np.array([3.0, 1.0, 0.0, 5.0])), [3.0, 5.0, 0.0, 1.0]
    )
    np.testing.assert_array_equal(
        maxmin_permuted(np.array([3.0, 1.0, 0.0, 5.0])), [3.0, 1.0, 5.0, 0.0]
    )
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.standard_normal((8, 5, 5))
        for act in (maxmin, maxmin_permuted):
            assert np.isclose(np.linalg.norm(act(x)), np.linalg.norm(x))
    with pytest.raises(ValueError):
        maxmin(np.zeros(3))


def test_activations_are_1_lipschitz():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal((6, 4, 4))
        y = rng.standard_normal((6, 4, 4))
        for act in (maxmin, maxmin_permuted):
            assert np.linalg.norm(act(x) - act(y)) <= np.linalg.norm(x - y) + 1e-12


def test_paired_shuffle_keeps_activation_pairs_in_groups():
    # After a paired shuffle, adjacent activation pairs land intact inside a
    # single conv group, so maxmin_permuted never mixes information across
    # groups before a grouped conv.
    for groups, c in [(2, 8), (4, 8), (2, 12), (4, 16)]:
        p = paired_stride_perm(groups, c)
        assert pairs_stay_in_groups(p, c // groups)


def test_plain_stride_shuffle_breaks_pairs():
    from gsmat.perm import stride_perm

    assert not pairs_stay_in_groups(stride_perm(4, 8), 2)


def test_forward_linear_in_input_matches_jacobian():
    rng = np.random.default_rng(12)
    # 12 channels in 4 groups with a plain stride shuffle: 2 * groups need not
    # divide the channel count when no channels are paired.
    for channels, groups, terms, shuffle in [(4, 2, 8, "paired"), (12, 4, 3, "plain")]:
        layer = make_layer(channels, groups, None, exp_terms=terms, rng=rng, shuffle=shuffle, kernel_scale=0.3)
        jac = layer_jacobian(layer, 3, 3)
        x = rng.standard_normal((channels, 3, 3))
        np.testing.assert_allclose(gs_conv_forward(layer, x).ravel(), jac @ x.ravel(), atol=1e-12)


def test_layer_jacobian_size_cap():
    # 8 x 64 x 64 would be a 32768^2 matrix and 32768 forward passes.
    layer = make_layer(8, 4, None, 3, np.random.default_rng(17))
    with pytest.raises(ValueError, match="size cap"):
        layer_jacobian(layer, 64, 64)


def test_config_roundtrip():
    rng = np.random.default_rng(13)
    layer = make_layer(8, 4, 2, exp_terms=10, rng=rng)
    cfg = layer_config(layer)
    assert cfg == {
        "channels": 8,
        "groups1": 4,
        "groups2": 2,
        "exp_terms": 10,
        "shuffle": "paired",
        "activation": "maxmin_permuted",
    }
    rebuilt = layer_from_config(cfg, np.random.default_rng(13))
    assert layer_config(rebuilt) == cfg
    np.testing.assert_array_equal(rebuilt.kernel1.weights, layer.kernel1.weights)
    with pytest.raises(ValueError, match="activation"):
        layer_from_config({**cfg, "activation": "relu"}, rng)


def test_rescale_kernel():
    rng = np.random.default_rng(14)
    k = random_grouped_kernel(4, 4, 3, 2, rng)
    k2 = rescale_kernel(k, 0.5)
    np.testing.assert_array_equal(k2.weights, 0.5 * k.weights)
    assert k2.groups == k.groups
