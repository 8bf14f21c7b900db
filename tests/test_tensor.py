import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungrisk import tensor as T
from lungrisk.errors import (
    ConfigError,
    DimensionError,
    InvalidBatchError,
    MissingGradientError,
    NumericError,
)
from references import textbook_adam_step, two_unfold_conv2d_same, xhat_batch_norm


def t(x, name=None):
    return T.Tensor(np.asarray(x, dtype=np.float64), name=name)


# ---------------------------------------------------------------------------
# conv2d_same


def test_conv_zero_input_gives_zero_output():
    x = t(np.zeros((1, 1, 3, 3)))
    k = t(np.random.default_rng(0).normal(size=(8, 1, 3, 3)))
    out = T.conv2d_same(x, k, t(np.zeros(8)))
    assert out.shape == (8, 1, 3, 3)
    assert np.all(out.data == 0.0)


def test_conv_delta_kernel_is_identity():
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=(1, 1, 4, 4)))
    k = np.zeros((8, 1, 3, 3))
    k[:, 0, 1, 1] = 1.0  # center tap
    out = T.conv2d_same(x, t(k), t(np.zeros(8)))
    for o in range(8):
        np.testing.assert_array_equal(out.data[o], x.data[0])


def test_conv_all_ones_kernel_hand_value():
    # 2x2 input [[1,2],[3,4]], ones kernel, zero padding: every output tap
    # sees the whole input -> 10 everywhere.
    x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
    k = t(np.ones((1, 1, 3, 3)))
    out = T.conv2d_same(x, k, t(np.zeros(1)))
    np.testing.assert_allclose(out.data[0, 0], [[10.0, 10.0], [10.0, 10.0]])


def test_conv_channel_mismatch_raises():
    with pytest.raises(DimensionError):
        T.conv2d_same(t(np.zeros((2, 1, 4, 4))), t(np.zeros((8, 3, 3, 3))), t(np.zeros(8)))


def test_conv_rejects_a_single_map():
    # a lone (C,H,W) map is rejected; one map is passed as the (C,1,H,W) batch
    with pytest.raises(DimensionError, match=r"\(C,N,H,W\)"):
        T.conv2d_same(t(np.zeros((2, 4, 4))), t(np.zeros((8, 2, 3, 3))), t(np.zeros(8)))


def test_conv_matches_sliding_window_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 5, 6))
    k = rng.normal(size=(4, 2, 3, 3))
    b = rng.normal(size=4)
    out = T.conv2d_same(t(x[:, None]), t(k), t(b)).data[:, 0]

    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    expected = np.empty((4, 5, 6))
    for o in range(4):
        for i in range(5):
            for j in range(6):
                acc = b[o]
                for c in range(2):
                    for di in range(3):
                        for dj in range(3):
                            acc += k[o, c, di, dj] * xp[c, i + di, j + dj]
                expected[o, i, j] = acc
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_conv_linearity(a, b):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 1, 4, 4))
    y = rng.normal(size=(2, 1, 4, 4))
    k = t(rng.normal(size=(3, 2, 3, 3)))
    zero_b = t(np.zeros(3))
    lhs = T.conv2d_same(t(a * x + b * y), k, zero_b).data
    rhs = a * T.conv2d_same(t(x), k, zero_b).data + b * T.conv2d_same(t(y), k, zero_b).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_conv_batched_matches_per_instance():
    rng = np.random.default_rng(9)
    xb = rng.normal(size=(2, 3, 4, 4))          # channel-major: 2 channels, 3 maps
    k = t(rng.normal(size=(5, 2, 3, 3)))
    b = t(rng.normal(size=5))
    batched = T.conv2d_same(t(xb), k, b).data
    for i in range(3):
        single = T.conv2d_same(t(xb[:, i:i + 1]), k, b).data[:, 0]
        np.testing.assert_array_equal(batched[:, i], single)


def test_conv_and_bn_on_channel_major_batch_read_the_channel_axis():
    # N == C: the shape alone cannot tell the channel axis from the patch axis
    rng = np.random.default_rng(21)
    xb = rng.normal(size=(4, 4, 6, 5))          # (C, N, H, W)
    k = t(rng.normal(size=(4, 4, 3, 3)))
    b = t(rng.normal(size=4))
    bn = T.BatchNormState.create(4)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=4)
    bn.beta.data[:] = rng.normal(size=4)
    conv = T.conv2d_same(t(xb), k, b).data
    for i in range(4):
        np.testing.assert_array_equal(conv[:, i:i + 1],
                                      T.conv2d_same(t(xb[:, i:i + 1]), k, b).data)
    normed = T.batch_norm(t(xb), bn).data
    mu = xb.mean(axis=(1, 2, 3), keepdims=True)
    var = xb.var(axis=(1, 2, 3), keepdims=True)
    expected = (xb - mu) / np.sqrt(var + T.BN_EPSILON) * bn.gamma.data.reshape(4, 1, 1, 1) \
        + bn.beta.data.reshape(4, 1, 1, 1)
    np.testing.assert_allclose(normed, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 19])
def test_conv_of_a_patch_batch_equals_the_per_map_conv_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    xb = rng.normal(size=(8, n, 28, 28))
    k = t(rng.normal(size=(8, 8, 3, 3)))
    b = t(rng.normal(size=8))
    batched = T.conv2d_same(t(xb), k, b).data
    for i in range(n):
        np.testing.assert_array_equal(batched[:, i:i + 1],
                                      T.conv2d_same(t(xb[:, i:i + 1]), k, b).data)


def _whole_batch_conv_reference(x, k, b, g):
    """Forward and gradients of a same-padded 3x3 conv from one (C*9, N*H*W)
    column matrix of the whole (C,N,H,W) batch, with a col2im scatter for dx."""
    c, n, h, w = x.shape
    o = k.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.stack([xp[:, :, i:i + h, j:j + w] for i in range(3) for j in range(3)], axis=1)
    cols = cols.reshape(c * 9, n * h * w)
    out = (k.reshape(o, c * 9) @ cols + b[:, None]).reshape(o, n, h, w)
    gmat = g.reshape(o, n * h * w)
    gk = (gmat @ cols.T).reshape(o, c, 3, 3)
    gcols = (k.reshape(o, c * 9).T @ gmat).reshape(c, 3, 3, n, h, w)
    dxp = np.zeros_like(xp)
    for i in range(3):
        for j in range(3):
            dxp[:, :, i:i + h, j:j + w] += gcols[:, i, j]
    return out, gk, gmat.sum(axis=1), dxp[:, :, 1:-1, 1:-1]


def test_conv_gradients_match_a_whole_batch_im2col_reference():
    rng = np.random.default_rng(31)
    xd = rng.normal(size=(3, 5, 9, 7))
    x, k, b = t(xd), t(rng.normal(size=(4, 3, 3, 3))), t(rng.normal(size=4))
    g = rng.normal(size=(4, 5, 9, 7))
    out = T.conv2d_same(x, k, b)
    out._backward(g)
    ref = _whole_batch_conv_reference(xd, k.data, b.data, g)
    for got, want in zip((out.data, k.grad, b.grad, x.grad), ref):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# Offsets of a 3x3 tap along one axis, as (destination slice, source slice)
# within a zero-padded "same" window; the destination leaves out the border
# row or column that the padding would fill.
_TAP_SLICES = (
    (slice(1, None), slice(None, -1)),
    (slice(None), slice(None)),
    (slice(None, -1), slice(1, None)),
)


def _im2col(arr, cols):
    """Columns of the 3x3 taps of the (C,H,W) map `arr`, as (C*9, H*W), by
    nine slice assignments into the zeroed (C,3,3,H,W) buffer `cols`; the
    border the assignments never touch stays zero across maps."""
    c, h, w = arr.shape
    for i, (dst_i, src_i) in enumerate(_TAP_SLICES):
        for j, (dst_j, src_j) in enumerate(_TAP_SLICES):
            cols[:, i, j, dst_i, dst_j] = arr[:, src_i, src_j]
    return cols.reshape(c * 9, h * w)


def _nine_slice_conv(xd, k, b, g, leaf):
    """Forward and kernel, bias and input gradients of a same-padded 3x3 conv
    of a (C,N,H,W) batch, with the per-map GEMMs of `conv2d_same` and every
    map unfolded by `_im2col`. A `leaf` `xd` gets no dx, and its kernel
    gradient comes from its own columns; otherwise dx and the kernel gradient
    both come from the columns of `g`."""
    c, n, h, w = xd.shape
    o = k.shape[0]
    kmat = k.reshape(o, c * 9)
    cols = np.zeros((c, 3, 3, h, w))
    out = np.empty((o, n, h, w))
    out3 = out.reshape(o, n, h * w)
    for p in range(n):
        np.matmul(kmat, _im2col(xd[:, p], cols), out=out3[:, p])
    out3 += b[:, None, None]
    gb = g.reshape(o, -1).sum(axis=1)
    if leaf:
        g3 = g.reshape(o, n, h * w)
        gk = np.zeros((o, c * 9))
        for p in range(n):
            gk += g3[:, p] @ _im2col(xd[:, p], cols).T
        return out, gk.reshape(o, c, 3, 3), gb, None
    kflip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * 9)
    g4 = g.reshape(o, n, h, w)
    gcols = np.zeros((o, 3, 3, h, w))
    gkt = np.zeros((c, o * 9))
    dx = np.empty((c, n, h, w))
    dx3 = dx.reshape(c, n, h * w)
    for p in range(n):
        np.matmul(kflip, _im2col(g4[:, p], gcols), out=dx3[:, p])
        gkt += xd[:, p].reshape(c, h * w) @ gcols.reshape(o * 9, h * w).T
    gk = gkt.reshape(c, o, 3, 3).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return out, gk, gb, dx


@pytest.mark.parametrize("n", [1, 2, 5, 19])
@pytest.mark.parametrize("c", [3, 8])
def test_conv_equals_the_nine_slice_unfold_bit_for_bit(c, n):
    rng = np.random.default_rng(10 * c + n)
    shape = (c, n, 28, 28)
    xd = rng.normal(size=shape)
    kd, bd = rng.normal(size=(8, c, 3, 3)), rng.normal(size=8)
    g = rng.normal(size=(8,) + shape[1:])
    for leaf in (False, True):
        x, k, b = T.Tensor(xd, requires_grad=not leaf), t(kd), t(bd)
        out = T.conv2d_same(x, k, b)
        out._backward(g.copy())
        for got, want in zip((out.data, k.grad, b.grad, x.grad),
                             _nine_slice_conv(xd, kd, bd, g, leaf)):
            np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(c=st.integers(1, 9), o=st.integers(1, 9), n=st.integers(1, 4), h=st.integers(1, 6),
       w=st.integers(1, 6), leaf=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_conv_backward_matches_the_whole_batch_and_two_unfold_references(c, o, n, h, w, leaf,
                                                                        seed):
    # a side of 1 puts the zero padding on both edges of one tap at once
    rng = np.random.default_rng(seed)
    xd = rng.normal(size=(c, n, h, w))
    kd, bd = rng.normal(size=(o, c, 3, 3)), rng.normal(size=o)
    g = rng.normal(size=(o, n, h, w))
    results = []
    for op in (T.conv2d_same, two_unfold_conv2d_same):
        x, k, b = T.Tensor(xd, requires_grad=not leaf), t(kd), t(bd)
        out = op(x, k, b)
        out._backward(g.copy())
        results.append((out.data, k.grad, b.grad, x.grad))
    (out, gk, gb, dx), (_, ref_gk, _, ref_dx) = results
    whole = _whole_batch_conv_reference(xd, kd, bd, g)
    for got, want in zip((out, gk, gb, dx), whole):
        if got is None:
            assert leaf
            continue
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(gk - ref_gk)) <= 1e-12 * np.max(np.abs(ref_gk))
    if leaf:
        assert dx is None and ref_dx is None
    else:
        np.testing.assert_array_equal(dx, ref_dx)


@pytest.mark.parametrize("leaf", [False, True])
def test_conv_unfolds_each_map_once_a_pass(leaf, monkeypatch):
    # a conv whose input needs a gradient unfolds x forward and g backward;
    # one on a leaf (conv1, conv_skip) unfolds x both ways, its 27-row
    # columns cheaper than the gradient's 72
    rng = np.random.default_rng(33)
    n = 5
    x = T.Tensor(rng.normal(size=(3, n, 7, 6)), requires_grad=not leaf)
    k, b = t(rng.normal(size=(8, 3, 3, 3))), t(rng.normal(size=8))
    g = rng.normal(size=(8, n, 7, 6))
    unfold = T._columns
    counts = {"x": 0, "g": 0}

    def counted(maps):
        kind = "x" if maps is x.data else "g" if np.shares_memory(maps, g) else "other"
        for cols in unfold(maps):
            counts[kind] = counts.get(kind, 0) + 1
            yield cols

    monkeypatch.setattr(T, "_columns", counted)
    out = T.conv2d_same(x, k, b)
    assert counts == {"x": n, "g": 0}
    out._backward(g)
    assert counts == ({"x": 2 * n, "g": 0} if leaf else {"x": n, "g": n})


def test_conv_forward_and_backward_hold_no_batch_sized_columns():
    # The whole-batch column matrix alone is nine feature maps.
    rng = np.random.default_rng(32)
    x = t(rng.normal(size=(8, 32, 28, 28)))
    k, b = t(rng.normal(size=(8, 8, 3, 3))), t(rng.normal(size=8))
    g = rng.normal(size=x.shape)
    tracemalloc.start()
    try:
        out = T.conv2d_same(x, k, b)
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak < 6 * x.data.nbytes, peak


# ---------------------------------------------------------------------------
# batch_norm


def make_bn(channels):
    return T.BatchNormState.create(channels)


def test_bn_train_hand_computed():
    # batch {2,4}: mean 3, biased var 1 -> outputs ~ {-1,+1}
    bn = make_bn(1)
    out = T.batch_norm(t([[2.0], [4.0]]), bn)
    np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-4)


def test_bn_train_updates_running_stats():
    bn = make_bn(1)
    T.batch_norm(t([[2.0], [4.0]]), bn)
    np.testing.assert_allclose(bn.running_mean, [0.1 * 3.0])
    np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0])


def test_bn_empty_batch_raises():
    bn = make_bn(2)
    with pytest.raises(InvalidBatchError):
        T.batch_norm(t(np.zeros((0, 2))), bn)


def test_bn_rejects_a_single_map():
    # a lone (C,H,W) map is rejected; one map is passed as the (C,1,H,W) batch
    with pytest.raises(DimensionError):
        T.batch_norm(t(np.ones((4, 3, 5))), make_bn(4))


# ---------------------------------------------------------------------------
# dense / relu / sigmoid


def test_dense_zero_input_gives_bias():
    out = T.dense(t(np.zeros((1, 3))), t(np.eye(3)), t([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]])


def test_dense_identity_weights():
    x = np.array([[0.5, -1.5]])
    out = T.dense(t(x), t(np.eye(2)), t(np.zeros(2)))
    np.testing.assert_allclose(out.data, x)


def test_dense_hand_value():
    out = T.dense(t([[1.0, 2.0]]), t([[1.0, 0.0], [0.0, 2.0]]), t([1.0, 1.0]))
    np.testing.assert_allclose(out.data, [[2.0, 5.0]])


def test_dense_is_one_gemm_bit_for_bit():
    rng = np.random.default_rng(21)
    w, b = rng.normal(size=(6272, 64)), rng.normal(size=64)
    for n in (1, 3, 40):
        x = rng.normal(size=(n, 6272))
        assert np.array_equal(T.dense(t(x), t(w), t(b)).data, x @ w + b)


def test_dense_dim_mismatch():
    with pytest.raises(DimensionError, match=r"\(1, 3\) incompatible"):
        T.dense(t([[1.0, 2.0, 3.0]]), t(np.eye(2)), t(np.zeros(2)))


def test_dense_rejects_a_single_vector():
    # a lone (n,) vector is rejected; one row is passed as the (1,n) batch
    with pytest.raises(DimensionError):
        T.dense(t(np.ones(2)), t(np.eye(2)), t(np.zeros(2)))


def test_relu_values():
    out = T.relu(t([-3.0, 0.0, 3.0]))
    np.testing.assert_allclose(out.data, [0.0, 0.0, 3.0])


def test_relu_passes_nan_on():
    # a non-finite forward must reach the caller's finiteness check
    out = T.relu(T.Tensor([np.nan, -np.inf, np.inf, -1.0], requires_grad=False)).data
    assert np.isnan(out[0]) and out[1:].tolist() == [0.0, np.inf, 0.0]


def test_sigmoid_values():
    np.testing.assert_allclose(T.sigmoid(t(0.0)).data, 0.5)
    np.testing.assert_allclose(T.sigmoid(t(np.log(3.0))).data, 0.75, rtol=1e-12)


def test_sigmoid_strictly_inside_unit_interval():
    out = T.sigmoid(t([-1e6, -50.0, 0.0, 50.0, 1e6])).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_identity():
    x = t(np.ones((3, 3)))
    out = T.dropout(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_dropout_rate_one_rejected():
    with pytest.raises(ConfigError):
        T.dropout(t(np.ones(3)), 1.0, np.random.default_rng(0))


def test_dropout_monte_carlo_mean_preserved():
    # inverted dropout keeps the elementwise expectation at the input value
    rng = np.random.default_rng(42)
    value = 2.0
    n = 10_000
    samples = np.array([T.dropout(t([value]), 0.5, rng).data[0] for _ in range(n)])
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - value) < 3.0 * se


def test_dropout_on_channel_major_batch_keeps_the_patch_major_draws():
    # every element is kept or zeroed as it is when the same data is laid
    # out (N,C,H,W) and the mask drawn in that order
    rng = np.random.default_rng(22)
    patch_major = rng.normal(size=(4, 4, 3, 5))         # (N, C, H, W), N == C
    x = t(np.ascontiguousarray(patch_major.transpose(1, 0, 2, 3)))
    out = T.dropout(x, 0.4, np.random.default_rng(5)).data.transpose(1, 0, 2, 3)
    keep = np.random.default_rng(5).random(patch_major.shape) >= 0.4
    assert 0 < keep.sum() < keep.size
    np.testing.assert_array_equal(out, np.where(keep, patch_major * (1.0 / 0.6), 0.0))


def test_dropout_gradient_is_the_kept_and_scaled_mask():
    rng = np.random.default_rng(23)
    x = t(rng.normal(size=(3, 4, 2, 2)))
    out = T.dropout(x, 0.3, np.random.default_rng(6))
    g = rng.normal(size=x.shape)
    out._backward(g)
    kept = out.data != 0.0
    assert 0 < kept.sum() < kept.size
    np.testing.assert_array_equal(x.grad, np.where(kept, g * (1.0 / 0.7), 0.0))


# ---------------------------------------------------------------------------
# residual_add / segment_max / bce


def test_residual_add_values():
    a = np.random.default_rng(0).normal(size=(2, 3))
    assert np.array_equal(T.residual_add(t(a), t(np.zeros((2, 3)))).data, a)
    assert np.all(T.residual_add(t(a), t(-a)).data == 0.0)
    np.testing.assert_allclose(T.residual_add(t([1.0, 2.0]), t([3.0, 4.0])).data, [4.0, 6.0])


def test_residual_add_shape_mismatch():
    with pytest.raises(DimensionError):
        T.residual_add(t(np.zeros(2)), t(np.zeros(3)))


@pytest.mark.parametrize("shape", [(6,), (2, 3), (1, 2, 3)])
def test_flatten_takes_only_a_channel_major_batch(shape):
    with pytest.raises(DimensionError):
        T.flatten(t(np.zeros(shape)))


def test_shared_and_reshaped_gradients_are_exact_and_never_aliased():
    # Every view-passing op feeds one tensor twice, so a first gradient kept
    # as a view of its child's would be changed by the second one added in.
    rng = np.random.default_rng(34)
    x = t(rng.normal(0.0, 0.1, size=(2, 3, 2, 2)))  # (C, N, H, W)
    w, bias = t(rng.normal(0.0, 0.1, size=(16, 1))), t(rng.normal(size=1))
    f1, f2 = T.flatten(x), T.flatten(x)         # (3, 8) each
    c, d = T.concat(f1, f2), T.concat(f2, f1)   # (3, 16) each
    y, y2 = T.residual_add(c, c), T.residual_add(d, d)
    s0 = T.residual_add(y, y2)
    s = T.residual_add(s0, y2)
    q1, q2 = T.reshape(s, (48,)), T.reshape(s, (48,))
    r = T.residual_add(q1, q2)
    o = T.reshape(T.dense(T.reshape(r, (3, 16)), w, bias), (3,))
    loss = T.bce_loss(T.sigmoid(o), np.array([1.0, 0.0, 1.0]))
    nodes = [f1, f2, c, d, y, y2, s0, s, q1, q2, r, o]
    held, before = {}, {}
    for node in nodes:
        # backward releases each node's gradient once its closure has run,
        # so the wrapper holds on to the array to check it after the pass
        def run(g, node=node, inner=node._backward):
            held[id(node)], before[id(node)] = g, g.copy()
            inner(g)
        node._backward = run
    T.backward(loss)
    for node in nodes:
        np.testing.assert_array_equal(held[id(node)], before[id(node)])
    gr = (held[id(o)].reshape(3, 1) @ w.data.T).reshape(48)
    gs = (gr + gr).reshape(3, 16)
    gy, gy2 = gs, gs + gs
    gc, gd = gy + gy, gy2 + gy2
    gx1, gx2 = (g.reshape(3, 2, 2, 2).transpose(1, 0, 2, 3)
                for g in (gc[:, :8] + gd[:, 8:], gc[:, 8:] + gd[:, :8]))
    assert np.all(gx1 != 0.0)
    np.testing.assert_array_equal(x.grad, gx1 + gx2)


def test_segment_max_forward_and_grad():
    x = t([0.2, 0.7, 0.4, 0.1, 0.9])
    seg = np.array([0, 0, 0, 1, 1])
    out = T.segment_max(x, seg, 2)
    np.testing.assert_allclose(out.data, [0.7, 0.9])
    loss = T.bce_loss(out, np.array([1.0, 1.0]))
    T.backward(loss)
    # only the per-segment argmax entries receive gradient
    assert x.grad[1] != 0.0 and x.grad[4] != 0.0
    assert x.grad[0] == x.grad[2] == x.grad[3] == 0.0


def test_segment_max_empty_segment_raises():
    with pytest.raises(InvalidBatchError):
        T.segment_max(t([1.0]), np.array([0]), 2)


def test_bce_hand_values():
    np.testing.assert_allclose(float(T.bce_loss(t(0.5), 1.0).data), np.log(2.0), rtol=1e-12)
    assert float(T.bce_loss(t(1.0 - 1e-9), 1.0).data) < 1e-6
    np.testing.assert_allclose(float(T.bce_loss(t(0.25), 0.0).data), -np.log(0.75), rtol=1e-12)


def test_bce_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = rng.uniform(1e-6, 1 - 1e-6)
        y = float(rng.integers(0, 2))
        assert float(T.bce_loss(t(p), y).data) >= 0.0


def test_bce_gradient_hand_values():
    p = t(0.5)
    T.backward(T.bce_loss(p, 1.0))
    np.testing.assert_allclose(p.grad, -2.0, rtol=1e-12)

    x = t(0.0)
    T.backward(T.sigmoid(x))
    np.testing.assert_allclose(x.grad, 0.25, rtol=1e-12)


def test_leaves_without_requires_grad_get_no_gradient():
    rng = np.random.default_rng(8)
    x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=False)
    w, b = T.Tensor(rng.normal(size=(3, 1)), requires_grad=False), t([0.5])
    frozen = T.relu(T.dense(x, w, T.Tensor([0.5], requires_grad=False)))
    trained = T.relu(T.dense(x, w, b))
    assert frozen.data.tobytes() == trained.data.tobytes()
    T.backward(T.bce_loss(T.sigmoid(T.reshape(trained, (2,))), np.array([1.0, 0.0])))
    assert b.grad is not None and w.grad is None and x.grad is None


def test_a_loss_of_leaves_without_requires_grad_gives_no_gradient_to_apply():
    x = T.Tensor([[0.3, -0.2]], requires_grad=False)
    w, b = T.Tensor([[0.5], [-1.0]], requires_grad=False), T.Tensor([0.1], requires_grad=False)
    T.backward(T.bce_loss(T.sigmoid(T.reshape(T.relu(T.dense(x, w, b)), ())), 1.0))
    assert x.grad is None and w.grad is None and b.grad is None
    with pytest.raises(MissingGradientError) as caught:
        T.adam_step({"w": w, "b": b}, T.AdamState())
    assert "'w'" in str(caught.value) and "'b'" in str(caught.value)


def test_backward_releases_the_graph_as_it_descends_and_keeps_leaf_gradients():
    rng = np.random.default_rng(45)
    x = T.Tensor(rng.normal(size=(2, 5, 6, 6)), requires_grad=False)
    k, b = t(rng.normal(0.0, 0.3, size=(3, 2, 3, 3))), t(rng.normal(size=3))
    bn = T.BatchNormState.create(3)
    w, wb = t(rng.normal(0.0, 0.1, size=(108, 1))), t([0.1])
    conv = T.conv2d_same(x, k, b)
    conv_data = weakref.ref(conv.data)
    h = T.relu(T.batch_norm(conv, bn))
    del conv    # from here only the graph holds the conv result
    z = T.dense(T.flatten(h), w, wb)
    loss = T.bce_loss(T.sigmoid(T.reshape(z, (5,))), np.array([1.0, 0.0, 1.0, 1.0, 0.0]))
    value = loss.data.copy()
    leaves = {"k": k, "b": b, "w": w, "wb": wb, "gamma": bn.gamma, "beta": bn.beta}
    assert conv_data() is not None
    assert T.backward(loss) is None
    for name, leaf in leaves.items():
        assert leaf.grad is not None and np.all(np.isfinite(leaf.grad)), name
    for node in (h, z, loss):
        assert node.grad is None and node._parents == ()
        assert getattr(node._backward, "__closure__", None) is None    # no saved arrays
    assert conv_data() is None
    assert loss.data == value
    # a second pass would otherwise add to the first pass's leaf gradients
    with pytest.raises(MissingGradientError):
        T.backward(loss)
    relabelled = T.bce_loss(T.sigmoid(T.reshape(z, (5,))), np.zeros(5))
    with pytest.raises(MissingGradientError):
        T.backward(relabelled)


def test_backward_missing_gradient():
    used = t([1.0], name="used")
    unused = t([1.0], name="unused")
    T.backward(T.bce_loss(T.sigmoid(used), np.array([1.0])))
    assert used.grad is not None and unused.grad is None
    with pytest.raises(MissingGradientError, match="unused"):
        T.adam_step({"used": used, "unused": unused}, T.AdamState())


# ---------------------------------------------------------------------------
# Adam


def with_grad(data, grad):
    """A parameter holding `grad`, as `backward` leaves it for `adam_step`."""
    param = t(data)
    param.grad = np.asarray(grad, dtype=np.float64)
    return param


def test_adam_zero_gradient_fixed_point():
    w = with_grad([1.0, -2.0, 3.0], np.zeros(3))
    state = T.AdamState()
    T.adam_step({"w": w}, state)
    np.testing.assert_array_equal(w.data, [1.0, -2.0, 3.0])


def test_adam_first_step_magnitude():
    w = with_grad([0.0], [1.0])
    state = T.AdamState(learning_rate=1e-3)
    T.adam_step({"w": w}, state)
    np.testing.assert_allclose(w.data[0], -1e-3 / (1.0 + 1e-8), rtol=1e-12)


def test_adam_constant_gradient_steady_steps():
    w = with_grad([0.0], [1.0])
    state = T.AdamState(learning_rate=1e-3)
    T.adam_step({"w": w}, state)
    first = -w.data[0]
    before = w.data[0]
    w.grad = np.array([1.0])
    T.adam_step({"w": w}, state)
    second = before - w.data[0]
    assert abs(second - first) / first < 0.01


def test_adam_nan_gradient_names_parameter():
    state = T.AdamState()
    with pytest.raises(NumericError, match="convA"):
        T.adam_step({"convA": with_grad(np.zeros(2), [np.nan, 0.0])}, state)


def test_adam_moments_decay_toward_zero():
    w = with_grad([1.0], [1.0])
    state = T.AdamState()
    T.adam_step({"w": w}, state)
    m1 = abs(state.first_moment["w"][0])
    for _ in range(5):
        w.grad = np.zeros(1)
        T.adam_step({"w": w}, state)
    assert abs(state.first_moment["w"][0]) < m1


@pytest.mark.parametrize("shape", [(1,), (T._ADAM_BLOCK - 1,), (T._ADAM_BLOCK,),
                                   (T._ADAM_BLOCK + 1,), (6272, 64)])
def test_adam_chunks_equal_the_whole_array_expression(shape):
    # the moments keep the textbook recurrences' bits; the parameter takes
    # the folded update, which moves the rounding of the textbook one
    rng = np.random.default_rng(shape[0])
    w, ref = t(rng.normal(size=shape)), t(np.zeros(shape))
    state = T.AdamState(learning_rate=1e-3)
    ref_state = T.AdamState(learning_rate=1e-3)
    b1, b2, lr, eps = T.ADAM_BETA1, T.ADAM_BETA2, state.learning_rate, T.ADAM_EPSILON
    for step in range(1, 4):
        g = rng.normal(size=shape)
        before = w.data.copy()
        w.grad, ref.grad = g, g.copy()
        T.adam_step({"w": w}, state)
        textbook_adam_step({"w": ref}, ref_state)
        m, v = ref_state.first_moment["w"], ref_state.second_moment["w"]
        np.testing.assert_array_equal(state.first_moment["w"], m)
        np.testing.assert_array_equal(state.second_moment["w"], v)
        bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        folded = lr * np.sqrt(bc2) / bc1 * m / (np.sqrt(v) + eps * np.sqrt(bc2))
        np.testing.assert_array_equal(w.data, before - folded)
        textbook = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        assert np.all(np.abs(folded - textbook) <= 1e-12 * np.abs(textbook))


def test_adam_consumes_each_gradient_it_applies():
    rng = np.random.default_rng(46)
    x = T.Tensor(rng.normal(size=(4, 3)), requires_grad=False)
    w, b = t(rng.normal(size=(3, 1))), t([0.2])
    T.backward(T.bce_loss(T.sigmoid(T.reshape(T.dense(x, w, b), (4,))),
                          np.array([1.0, 0.0, 0.0, 1.0])))
    before = w.data.copy()
    assert T.adam_step({"w": w, "b": b}, T.AdamState()) is None
    assert w.grad is None and b.grad is None
    assert not np.array_equal(w.data, before)


def test_adam_missing_gradient_raises_before_any_parameter_moves():
    a, b, c = with_grad([1.0, 2.0], [0.5, -0.5]), t([3.0]), t([4.0])
    state = T.AdamState()
    with pytest.raises(MissingGradientError) as caught:
        T.adam_step({"a": a, "b": b, "c": c}, state)
    assert "'b'" in str(caught.value) and "'c'" in str(caught.value)
    assert "'a'" not in str(caught.value)
    np.testing.assert_array_equal(a.data, [1.0, 2.0])
    np.testing.assert_array_equal(a.grad, [0.5, -0.5])
    assert state.step_count == 0 and not state.first_moment


# ---------------------------------------------------------------------------
# gradient checks: every op against central finite differences (h=1e-5)


def _bce_head(out, labels):
    return T.bce_loss(T.sigmoid(out), labels)


def _gradcheck(loss_fn, tensors, **kw):
    errs = T.finite_difference_check(loss_fn, tensors, h=1e-5, **kw)
    assert max(errs.values()) < 1e-4, errs


def test_gradcheck_conv():
    rng = np.random.default_rng(11)
    x = t(rng.uniform(-1, 1, size=(2, 1, 4, 5)))
    k = t(rng.uniform(-1, 1, size=(3, 2, 3, 3)))
    b = t(rng.uniform(-1, 1, size=3))
    labels = rng.integers(0, 2, size=(3, 1, 4, 5)).astype(float)
    _gradcheck(lambda: _bce_head(T.conv2d_same(x, k, b), labels), {"x": x, "k": k, "b": b})


def test_gradcheck_conv_and_bn_train_on_channel_major_batch():
    rng = np.random.default_rng(23)
    x = t(rng.uniform(-1, 1, size=(3, 3, 4, 4)))       # (C, N, H, W), N == C
    k = t(rng.uniform(-1, 1, size=(3, 3, 3, 3)))
    b = t(rng.uniform(-1, 1, size=3))
    bn = make_bn(3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, size=3)
    labels = rng.integers(0, 2, size=(3, 3, 4, 4)).astype(float)
    _gradcheck(lambda: _bce_head(T.batch_norm(T.conv2d_same(x, k, b), bn), labels),
               {"x": x, "k": k, "b": b, "gamma": bn.gamma, "beta": bn.beta})


def test_conv_input_without_requires_grad_gets_no_gradient():
    # kernel and bias gradients do not depend on whether dx is computed
    rng = np.random.default_rng(13)
    xd = rng.uniform(-1, 1, size=(2, 3, 5, 5))
    kd = rng.uniform(-1, 1, size=(4, 2, 3, 3))
    bd = rng.uniform(-1, 1, size=4)
    labels = rng.integers(0, 2, size=(4, 3, 5, 5)).astype(float)
    grads = {}
    for requires_grad in (True, False):
        x, k, b = T.Tensor(xd, requires_grad=requires_grad), t(kd), t(bd)
        T.backward(_bce_head(T.conv2d_same(x, k, b), labels))
        grads[requires_grad] = (x.grad, k.grad, b.grad)
    assert grads[True][0] is not None and grads[False][0] is None
    np.testing.assert_array_equal(grads[False][1], grads[True][1])
    np.testing.assert_array_equal(grads[False][2], grads[True][2])


def test_gradcheck_bn_train():
    rng = np.random.default_rng(12)
    x = t(rng.uniform(-1, 1, size=(3, 4, 2, 2)))
    bn = make_bn(3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, size=3)
    labels = rng.integers(0, 2, size=(3, 4, 2, 2)).astype(float)
    _gradcheck(lambda: _bce_head(T.batch_norm(x, bn), labels),
               {"x": x, "gamma": bn.gamma, "beta": bn.beta})


def _nine_pass_bn_backward(xd, g, gamma, eps, axis):
    """The textbook chain rule through mean and variance, pass by pass."""
    m = xd.size // gamma.size
    mu = xd.mean(axis=axis, keepdims=True)
    xc = xd - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=axis, keepdims=True) + eps)
    gxhat = g * gamma
    dvar = (gxhat * xc).sum(axis=axis, keepdims=True) * (-0.5) * inv ** 3
    dmu = -gxhat.sum(axis=axis, keepdims=True) * inv
    return gxhat * inv + dvar * (2.0 / m) * xc + dmu / m


@pytest.mark.parametrize("shape", [(3, 4, 5, 6), (7, 3)], ids=["C,N,H,W", "N,F"])
def test_bn_train_backward_matches_the_nine_pass_formula_and_finite_differences(shape):
    rng = np.random.default_rng(33)
    channels, axis = (3, (1, 2, 3)) if len(shape) == 4 else (3, 0)
    bshape = (3, 1, 1, 1) if len(shape) == 4 else (1, 3)
    bn = make_bn(channels)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=channels)
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, size=channels)
    x = t(rng.normal(1.0, 2.0, size=shape))
    g = rng.normal(size=shape)
    out = T.batch_norm(x, bn)
    out._backward(g.copy())
    want = _nine_pass_bn_backward(x.data, g, bn.gamma.data.reshape(bshape), T.BN_EPSILON, axis)
    assert np.max(np.abs(x.grad - want)) <= 1e-12 * np.max(np.abs(want))
    labels = rng.integers(0, 2, size=shape).astype(float)
    _gradcheck(lambda: _bce_head(T.batch_norm(x, bn), labels),
               {"x": x, "gamma": bn.gamma, "beta": bn.beta})


@pytest.mark.parametrize("shape", [(3, 4, 5, 6), (40, 3)], ids=["C,N,H,W", "N,F"])
def test_bn_without_the_normalized_map_matches_it_on_channels_far_from_zero(shape):
    # batch-norm rebuilds its gradients from sum(g*x) - mu*sum(g), which
    # cancels where a channel's mean is 1e3 times its spread
    rng = np.random.default_rng(34)
    bshape = (3, 1, 1, 1) if len(shape) == 4 else (1, 3)
    sigma = rng.uniform(0.5, 2.0, size=3)
    xd = (1e3 * sigma * np.array([1.0, -1.0, 1.0])).reshape(bshape) \
        + sigma.reshape(bshape) * rng.normal(size=shape)
    g = rng.normal(size=shape)
    gamma, beta = rng.uniform(0.5, 1.5, size=3), rng.uniform(-0.5, 0.5, size=3)
    results = []
    for op in (T.batch_norm, xhat_batch_norm):
        bn = make_bn(3)
        bn.gamma.data[:], bn.beta.data[:] = gamma, beta
        x = t(xd)
        out = op(x, bn)
        out._backward(g.copy())
        results.append((out.data, x.grad, bn.gamma.grad, bn.beta.grad,
                        bn.running_mean, bn.running_var))
    (*got, mean, var), (*want, ref_mean, ref_var) = results
    np.testing.assert_array_equal(mean, ref_mean)
    np.testing.assert_array_equal(var, ref_var)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))


def test_gradcheck_dense():
    rng = np.random.default_rng(14)
    x = t(rng.uniform(-1, 1, size=(3, 6)))
    w = t(rng.uniform(-1, 1, size=(6, 4)))
    b = t(rng.uniform(-1, 1, size=4))
    labels = rng.integers(0, 2, size=(3, 4)).astype(float)
    _gradcheck(lambda: _bce_head(T.dense(x, w, b), labels), {"x": x, "w": w, "b": b})


def test_gradcheck_relu():
    rng = np.random.default_rng(15)
    raw = rng.uniform(-1, 1, size=(4, 5))
    raw += 0.2 * np.sign(raw)  # keep clear of the kink at 0
    x = t(raw)
    labels = rng.integers(0, 2, size=(4, 5)).astype(float)
    _gradcheck(lambda: _bce_head(T.relu(x), labels), {"x": x})


def test_gradcheck_sigmoid_chain():
    rng = np.random.default_rng(16)
    x = t(rng.uniform(-1, 1, size=(7,)))
    labels = rng.integers(0, 2, size=7).astype(float)
    _gradcheck(lambda: T.bce_loss(T.sigmoid(x), labels), {"x": x})


def test_gradcheck_dropout_fixed_mask():
    rng = np.random.default_rng(17)
    x = t(rng.uniform(-1, 1, size=(4, 4)))
    labels = rng.integers(0, 2, size=(4, 4)).astype(float)

    def loss():
        # fresh generator per eval -> identical mask every call
        return _bce_head(T.dropout(x, 0.4, np.random.default_rng(99)), labels)

    _gradcheck(loss, {"x": x})


def test_gradcheck_residual_and_segment_max():
    rng = np.random.default_rng(18)
    a = t(rng.uniform(-1, 1, size=6))
    b = t(rng.uniform(-1, 1, size=6))
    seg = np.array([0, 0, 1, 1, 1, 2])
    labels = rng.integers(0, 2, size=3).astype(float)

    def loss():
        return _bce_head(T.segment_max(T.residual_add(a, b), seg, 3), labels)

    _gradcheck(loss, {"a": a, "b": b})


def test_gradcheck_concat_flatten():
    rng = np.random.default_rng(19)
    a = t(rng.uniform(-1, 1, size=(1, 2, 1, 3)))     # (C,N,H,W), flattened to (2, 3)
    b = t(rng.uniform(-1, 1, size=(2, 2)))
    labels = rng.integers(0, 2, size=(2, 5)).astype(float)
    _gradcheck(lambda: _bce_head(T.concat(T.flatten(a), b), labels), {"a": a, "b": b})


def test_gradcheck_skips_exactly_the_coordinates_that_straddle_a_kink():
    x = t([0.3, -4e-6, 0.7, 2e-6, -0.5])       # entries 1 and 3 lie within h of relu's kink
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])

    def loss_fn():
        return T.bce_loss(T.sigmoid(T.relu(x)), labels)

    errs = T.finite_difference_check(loss_fn, {"x": x}, h=1e-5)
    assert errs["x"] > 1e-2
    # with the two straddling entries skipped the rest match to rounding
    errs = T.finite_difference_check(loss_fn, {"x": x}, h=1e-5, skip_kinks=True)
    assert errs["x"] < 1e-8
    kinked = t([1e-6, -3e-6])
    with pytest.raises(NumericError):
        T.finite_difference_check(lambda: T.bce_loss(T.sigmoid(T.relu(kinked)), labels[:2]),
                                  {"x": kinked}, h=1e-5, skip_kinks=True)


def test_gradcheck_sampling_needs_an_rng():
    # a cap on the coordinates draws them from the caller's generator, never a hidden one
    x = t([[0.3, -0.2, 0.5, 0.1]])
    labels = np.array([[1.0, 0.0, 1.0, 0.0]])

    def loss_fn():
        return T.bce_loss(T.sigmoid(x), labels)

    with pytest.raises(ConfigError, match="rng"):
        T.finite_difference_check(loss_fn, {"x": x}, h=1e-5, samples_per_tensor=2)
    errs = T.finite_difference_check(loss_fn, {"x": x}, h=1e-5, samples_per_tensor=2,
                                     rng=np.random.default_rng(3))
    assert errs["x"] < 1e-8


def test_gradcheck_checks_strongly_curved_coordinates_instead_of_skipping_them():
    # sigmoid(60 x) near x = 0.02: smooth, but curved enough that the
    # differences at h and h/2 part by more than rounding explains
    x = t([[0.02, -0.015, 0.025]])
    w, b = T.Tensor(60.0 * np.eye(3), requires_grad=False), T.Tensor(np.zeros(3), requires_grad=False)
    labels = np.array([[1.0, 0.0, 1.0]])
    errs = T.finite_difference_check(lambda: T.bce_loss(T.sigmoid(T.dense(x, w, b)), labels),
                                     {"x": x}, h=1e-5, skip_kinks=True)
    assert errs["x"] < 1e-8


@pytest.mark.parametrize("skip_kinks", [False, True])
def test_gradcheck_rejects_a_small_wrong_gradient_on_a_zero_gradient_coordinate(skip_kinks):
    # A conv bias ahead of train-mode batch-norm has a true gradient of 0;
    # its central differences are rounding alone. A backward that adds 1e-9
    # to it must still fail the 1e-4 tolerance.
    rng = np.random.default_rng(12)
    x = T.Tensor(rng.uniform(-1, 1, size=(2, 3, 4, 5)), requires_grad=False)
    k = T.Tensor(rng.uniform(-1, 1, size=(3, 2, 3, 3)), requires_grad=False)
    b = t(rng.uniform(-1, 1, size=3))
    bn = T.BatchNormState.create(3)
    labels = rng.integers(0, 2, size=(3, 3, 4, 5)).astype(float)

    def wrong_by(error):
        def shifted(v):
            def backward(g):
                v.accumulate(g + error)
            return T.Tensor(v.data.copy(), parents=(v,), backward=backward)
        return lambda: _bce_head(T.batch_norm(T.conv2d_same(x, k, shifted(b)), bn),
                                 labels)

    right = T.finite_difference_check(wrong_by(0.0), {"b": b}, h=1e-5, skip_kinks=skip_kinks)
    wrong = T.finite_difference_check(wrong_by(1e-9), {"b": b}, h=1e-5, skip_kinks=skip_kinks)
    assert right["b"] < 1e-4 < wrong["b"], (right, wrong)


# ---------------------------------------------------------------------------
# finiteness: all ops keep finite inputs finite


def test_ops_preserve_finiteness():
    rng = np.random.default_rng(20)
    x = rng.uniform(-100, 100, size=(2, 3, 4, 4))
    k = rng.uniform(-10, 10, size=(5, 2, 3, 3))
    bn = make_bn(5)
    out = T.conv2d_same(t(x), t(k), t(rng.normal(size=5)))
    out = T.batch_norm(out, bn)
    out = T.relu(out)
    out = T.dropout(out, 0.3, rng)
    out = T.flatten(out)
    out = T.dense(out, t(rng.normal(size=(80, 4))), t(rng.normal(size=4)))
    out = T.sigmoid(out)
    loss = T.bce_loss(out, rng.integers(0, 2, size=(3, 4)).astype(float))
    assert np.all(np.isfinite(out.data))
    assert np.isfinite(float(loss.data))
    T.backward(loss)
