import tracemalloc

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


def t(x, name=None):
    return T.Tensor(np.asarray(x, dtype=np.float64), name=name)


# ---------------------------------------------------------------------------
# conv2d_same


def test_conv_zero_input_gives_zero_output():
    x = t(np.zeros((1, 3, 3)))
    k = t(np.random.default_rng(0).normal(size=(8, 1, 3, 3)))
    out = T.conv2d_same(x, k, t(np.zeros(8)))
    assert out.shape == (8, 3, 3)
    assert np.all(out.data == 0.0)


def test_conv_delta_kernel_is_identity():
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=(1, 4, 4)))
    k = np.zeros((8, 1, 3, 3))
    k[:, 0, 1, 1] = 1.0  # center tap
    out = T.conv2d_same(x, t(k), t(np.zeros(8)))
    for o in range(8):
        np.testing.assert_array_equal(out.data[o], x.data[0])


def test_conv_all_ones_kernel_hand_value():
    # 2x2 input [[1,2],[3,4]], ones kernel, zero padding: every output tap
    # sees the whole input -> 10 everywhere.
    x = t([[[1.0, 2.0], [3.0, 4.0]]])
    k = t(np.ones((1, 1, 3, 3)))
    out = T.conv2d_same(x, k, t(np.zeros(1)))
    np.testing.assert_allclose(out.data[0], [[10.0, 10.0], [10.0, 10.0]])


def test_conv_channel_mismatch_raises():
    with pytest.raises(DimensionError):
        T.conv2d_same(t(np.zeros((2, 4, 4))), t(np.zeros((8, 3, 3, 3))), t(np.zeros(8)))


def test_conv_matches_sliding_window_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 5, 6))
    k = rng.normal(size=(4, 2, 3, 3))
    b = rng.normal(size=4)
    out = T.conv2d_same(t(x), t(k), t(b)).data

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
    x = rng.normal(size=(2, 4, 4))
    y = rng.normal(size=(2, 4, 4))
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
        single = T.conv2d_same(t(xb[:, i]), k, b).data
        np.testing.assert_array_equal(batched[:, i], single)


def test_conv_and_infer_bn_on_channel_major_batch_match_single_maps():
    # N == C: the shape alone cannot tell the channel axis from the patch axis
    rng = np.random.default_rng(21)
    xb = rng.normal(size=(4, 4, 6, 5))          # (C, N, H, W)
    k = t(rng.normal(size=(4, 4, 3, 3)))
    b = t(rng.normal(size=4))
    bn = T.BatchNormState.create(4)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=4)
    bn.beta.data[:] = rng.normal(size=4)
    bn.running_mean[:] = rng.normal(size=4)
    bn.running_var[:] = rng.uniform(0.5, 2.0, size=4)
    conv = T.conv2d_same(t(xb), k, b).data
    normed = T.batch_norm(t(xb), bn, "infer").data
    for i in range(4):
        np.testing.assert_array_equal(conv[:, i], T.conv2d_same(t(xb[:, i]), k, b).data)
        np.testing.assert_array_equal(normed[:, i], T.batch_norm(t(xb[:, i]), bn, "infer").data)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 19])
def test_conv_of_a_patch_batch_equals_the_per_map_conv_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    xb = rng.normal(size=(8, n, 28, 28))
    k = t(rng.normal(size=(8, 8, 3, 3)))
    b = t(rng.normal(size=8))
    batched = T.conv2d_same(t(xb), k, b).data
    for i in range(n):
        np.testing.assert_array_equal(batched[:, i], T.conv2d_same(t(xb[:, i]), k, b).data)


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


def make_bn(channels, **kw):
    return T.BatchNormState.create(channels, **kw)


def test_bn_infer_near_identity():
    bn = make_bn(3)
    x = np.random.default_rng(0).normal(size=(4, 3))
    out = T.batch_norm(t(x), bn, "infer")
    np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + bn.epsilon), rtol=1e-15)


def test_bn_infer_zero_gamma_gives_beta():
    bn = make_bn(2)
    bn.gamma.data[:] = 0.0
    bn.beta.data[:] = [5.0, -1.0]
    x = np.random.default_rng(1).normal(size=(6, 2))
    out = T.batch_norm(t(x), bn, "infer")
    np.testing.assert_allclose(out.data, np.broadcast_to([5.0, -1.0], (6, 2)))


def test_bn_train_hand_computed():
    # batch {2,4}: mean 3, biased var 1 -> outputs ~ {-1,+1}
    bn = make_bn(1, epsilon=1e-5)
    out = T.batch_norm(t([[2.0], [4.0]]), bn, "train")
    np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-4)


def test_bn_train_updates_running_stats():
    bn = make_bn(1, momentum=0.9)
    T.batch_norm(t([[2.0], [4.0]]), bn, "train")
    np.testing.assert_allclose(bn.running_mean, [0.1 * 3.0])
    np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0])


def test_bn_empty_batch_raises():
    bn = make_bn(2)
    with pytest.raises(InvalidBatchError):
        T.batch_norm(t(np.zeros((0, 2))), bn, "train")


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_bn_single_map_matches_batch_of_one(mode):
    # a channel-first (C,H,W) map normalizes as the (C,1,H,W) batch holding it
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 3, 5))
    labels = rng.integers(0, 2, size=x.shape).astype(float)
    runs = []
    for data in (x, x[:, None]):
        bn = make_bn(4)
        bn.running_mean[:] = [0.1, -0.2, 0.3, 0.0]
        bn.running_var[:] = [1.0, 2.0, 0.5, 3.0]
        xt = t(data)
        out = T.batch_norm(xt, bn, mode)
        T.backward(_bce_head(out, labels.reshape(data.shape)))
        runs.append((out.data.reshape(x.shape), xt.grad.reshape(x.shape), bn.gamma.grad,
                     bn.beta.grad, bn.running_mean, bn.running_var))
    for single, batched in zip(*runs):
        np.testing.assert_array_equal(single, batched)


def test_bn_infer_deterministic():
    bn = make_bn(4)
    bn.running_mean[:] = [0.1, -0.2, 0.3, 0.0]
    bn.running_var[:] = [1.0, 2.0, 0.5, 3.0]
    x = np.random.default_rng(5).normal(size=(4, 3, 2, 2))
    a = T.batch_norm(t(x), bn, "infer").data
    b = T.batch_norm(t(x), bn, "infer").data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# dense / relu / sigmoid


def test_dense_zero_input_gives_bias():
    out = T.dense(t(np.zeros(3)), t(np.eye(3)), t([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])


def test_dense_identity_weights():
    x = np.array([0.5, -1.5])
    out = T.dense(t(x), t(np.eye(2)), t(np.zeros(2)))
    np.testing.assert_allclose(out.data, x)


def test_dense_hand_value():
    out = T.dense(t([1.0, 2.0]), t([[1.0, 0.0], [0.0, 2.0]]), t([1.0, 1.0]))
    np.testing.assert_allclose(out.data, [2.0, 5.0])


def test_dense_rows_independent_of_batch_size():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(40, 6272))
    w, b = t(rng.normal(size=(6272, 64))), t(rng.normal(size=64))
    one_at_a_time = np.stack([T.dense(t(row[None]), w, b).data[0] for row in x])
    for n in (2, 3, 10, 40):
        assert np.array_equal(T.dense(t(x[:n]), w, b).data, one_at_a_time[:n])
    assert np.array_equal(T.dense(t(x[0]), w, b).data, one_at_a_time[0])


def test_dense_dim_mismatch():
    with pytest.raises(DimensionError):
        T.dense(t([1.0, 2.0, 3.0]), t(np.eye(2)), t(np.zeros(2)))


def test_relu_values():
    out = T.relu(t([-3.0, 0.0, 3.0]))
    np.testing.assert_allclose(out.data, [0.0, 0.0, 3.0])


def test_sigmoid_values():
    np.testing.assert_allclose(T.sigmoid(t(0.0)).data, 0.5)
    np.testing.assert_allclose(T.sigmoid(t(np.log(3.0))).data, 0.75, rtol=1e-12)


def test_sigmoid_strictly_inside_unit_interval():
    out = T.sigmoid(t([-1e6, -50.0, 0.0, 50.0, 1e6])).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_infer_identity():
    x = t(np.random.default_rng(0).normal(size=(5, 5)))
    out = T.dropout(x, 0.8, "infer")
    assert np.array_equal(out.data, x.data)


def test_dropout_rate_zero_identity():
    x = t(np.ones((3, 3)))
    out = T.dropout(x, 0.0, "train", np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_dropout_rate_one_rejected():
    with pytest.raises(ConfigError):
        T.dropout(t(np.ones(3)), 1.0, "train", np.random.default_rng(0))


def test_dropout_monte_carlo_mean_preserved():
    # inverted dropout keeps the elementwise expectation at the input value
    rng = np.random.default_rng(42)
    value = 2.0
    n = 10_000
    samples = np.array([T.dropout(t([value]), 0.5, "train", rng).data[0] for _ in range(n)])
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - value) < 3.0 * se


def test_dropout_on_channel_major_batch_keeps_the_patch_major_draws():
    # every element is kept or zeroed as it is when the same data is laid
    # out (N,C,H,W) and the mask drawn in that order
    rng = np.random.default_rng(22)
    patch_major = rng.normal(size=(4, 4, 3, 5))         # (N, C, H, W), N == C
    x = t(np.ascontiguousarray(patch_major.transpose(1, 0, 2, 3)))
    out = T.dropout(x, 0.4, "train", np.random.default_rng(5)).data.transpose(1, 0, 2, 3)
    keep = np.random.default_rng(5).random(patch_major.shape) >= 0.4
    assert 0 < keep.sum() < keep.size
    np.testing.assert_array_equal(out, np.where(keep, patch_major * (1.0 / 0.6), 0.0))


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
    before = {}
    for node in nodes:
        def run(g, node=node, inner=node._backward):
            before[id(node)] = node.grad.copy()
            inner(g)
        node._backward = run
    T.backward(loss)
    for node in nodes:
        np.testing.assert_array_equal(node.grad, before[id(node)])
    gr = (o.grad.reshape(3, 1) @ w.data.T).reshape(48)
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


def test_backward_missing_gradient():
    used = t([1.0], name="used")
    unused = t([1.0], name="unused")
    loss = T.bce_loss(T.sigmoid(used), np.array([1.0]))
    with pytest.raises(MissingGradientError):
        T.backward(loss, params={"used": used, "unused": unused})


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_fixed_point():
    p = np.array([1.0, -2.0, 3.0])
    state = T.AdamState()
    T.adam_step({"w": p}, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(p, [1.0, -2.0, 3.0])


def test_adam_first_step_magnitude():
    p = np.array([0.0])
    state = T.AdamState(learning_rate=1e-3)
    T.adam_step({"w": p}, {"w": np.array([1.0])}, state)
    np.testing.assert_allclose(p[0], -1e-3 / (1.0 + 1e-8), rtol=1e-12)


def test_adam_constant_gradient_steady_steps():
    p = np.array([0.0])
    state = T.AdamState(learning_rate=1e-3)
    T.adam_step({"w": p}, {"w": np.array([1.0])}, state)
    first = -p[0]
    before = p[0]
    T.adam_step({"w": p}, {"w": np.array([1.0])}, state)
    second = before - p[0]
    assert abs(second - first) / first < 0.01


def test_adam_nan_gradient_names_parameter():
    state = T.AdamState()
    with pytest.raises(NumericError, match="convA"):
        T.adam_step({"convA": np.zeros(2)}, {"convA": np.array([np.nan, 0.0])}, state)


def test_adam_moments_decay_toward_zero():
    p = np.array([1.0])
    state = T.AdamState()
    T.adam_step({"w": p}, {"w": np.array([1.0])}, state)
    m1 = abs(state.first_moment["w"][0])
    for _ in range(5):
        T.adam_step({"w": p}, {"w": np.zeros(1)}, state)
    assert abs(state.first_moment["w"][0]) < m1


@pytest.mark.parametrize("shape", [(1,), (8191,), (8192,), (8193,), (6272, 64)])
def test_adam_chunks_equal_the_whole_array_expression(shape):
    rng = np.random.default_rng(shape[0])
    p = rng.normal(size=shape)
    ref, m, v = p.copy(), np.zeros(shape), np.zeros(shape)
    state = T.AdamState(learning_rate=1e-3)
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.epsilon
    for step in range(1, 4):
        g = rng.normal(size=shape)
        T.adam_step({"w": p}, {"w": g}, state)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        ref = ref - lr * (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
        np.testing.assert_array_equal(state.first_moment["w"], m)
        np.testing.assert_array_equal(state.second_moment["w"], v)
        np.testing.assert_array_equal(p, ref)


# ---------------------------------------------------------------------------
# gradient checks: every op against central finite differences (h=1e-5)


def _bce_head(out, labels):
    return T.bce_loss(T.sigmoid(out), labels)


def _gradcheck(loss_fn, tensors, **kw):
    errs = T.finite_difference_check(loss_fn, tensors, h=1e-5, **kw)
    assert max(errs.values()) < 1e-4, errs


def test_gradcheck_conv():
    rng = np.random.default_rng(11)
    x = t(rng.uniform(-1, 1, size=(2, 4, 5)))
    k = t(rng.uniform(-1, 1, size=(3, 2, 3, 3)))
    b = t(rng.uniform(-1, 1, size=3))
    labels = rng.integers(0, 2, size=(3, 4, 5)).astype(float)
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
    _gradcheck(lambda: _bce_head(T.batch_norm(T.conv2d_same(x, k, b), bn, "train"), labels),
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
    _gradcheck(lambda: _bce_head(T.batch_norm(x, bn, "train"), labels),
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
    out = T.batch_norm(x, bn, "train")
    out._backward(g)
    want = _nine_pass_bn_backward(x.data, g, bn.gamma.data.reshape(bshape), bn.epsilon, axis)
    assert np.max(np.abs(x.grad - want)) <= 1e-12 * np.max(np.abs(want))
    labels = rng.integers(0, 2, size=shape).astype(float)
    _gradcheck(lambda: _bce_head(T.batch_norm(x, bn, "train"), labels),
               {"x": x, "gamma": bn.gamma, "beta": bn.beta})


def test_gradcheck_bn_infer():
    rng = np.random.default_rng(13)
    x = t(rng.uniform(-1, 1, size=(5, 4)))
    bn = make_bn(4)
    bn.running_mean[:] = rng.uniform(-0.5, 0.5, size=4)
    bn.running_var[:] = rng.uniform(0.5, 2.0, size=4)
    labels = rng.integers(0, 2, size=(5, 4)).astype(float)
    _gradcheck(lambda: _bce_head(T.batch_norm(x, bn, "infer"), labels),
               {"x": x, "gamma": bn.gamma, "beta": bn.beta})


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
        return _bce_head(T.dropout(x, 0.4, "train", np.random.default_rng(99)), labels)

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
    a = t(rng.uniform(-1, 1, size=(2, 3)))
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


# ---------------------------------------------------------------------------
# finiteness: all ops keep finite inputs finite


def test_ops_preserve_finiteness():
    rng = np.random.default_rng(20)
    x = rng.uniform(-100, 100, size=(2, 3, 4, 4))
    k = rng.uniform(-10, 10, size=(5, 2, 3, 3))
    bn = make_bn(5)
    out = T.conv2d_same(t(x), t(k), t(rng.normal(size=5)))
    out = T.batch_norm(out, bn, "train")
    out = T.relu(out)
    out = T.dropout(out, 0.3, "train", rng)
    out = T.flatten(out)
    out = T.dense(out, t(rng.normal(size=(80, 4))), t(rng.normal(size=4)))
    out = T.sigmoid(out)
    loss = T.bce_loss(out, rng.integers(0, 2, size=(3, 4)).astype(float))
    assert np.all(np.isfinite(out.data))
    assert np.isfinite(float(loss.data))
    T.backward(loss)
