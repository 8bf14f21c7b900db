"""Reference forms of training ops whose `lungrisk.tensor` versions compute
the same math in another order: tests compare the two within a rounding
bound set from float64."""

import numpy as np

from lungrisk import tensor as tz

# the op itself, taken before any test can monkeypatch the reference in its place
_conv2d_same = tz.conv2d_same


def two_unfold_conv2d_same(x, kernels, bias):
    """`tensor.conv2d_same` with a backward that unfolds every map twice when
    `x` needs a gradient: `x`'s columns again for the kernel gradient,
    gk += g_p @ cols(x_p).T, and the gradient's for dx = kflip @ cols(g_p)."""
    out = _conv2d_same(x, kernels, bias)
    xd, k = x.data, kernels.data
    c, n, h, w = xd.shape
    o = k.shape[0]

    def backward(g):
        g3 = g.reshape(o, n, h * w)
        gk = np.zeros((o, c * 9))
        for p, cols in enumerate(tz._columns(xd)):
            gk += g3[:, p] @ cols.T
        kernels.accumulate(gk.reshape(o, c, 3, 3))
        bias.accumulate(g.reshape(o, -1).sum(axis=1))
        if not x.requires_grad:
            return
        kflip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * 9)
        dx = np.empty((c, n, h, w))
        dx3 = dx.reshape(c, n, h * w)
        for p, gcols in enumerate(tz._columns(g.reshape(o, n, h, w))):
            np.matmul(kflip, gcols, out=dx3[:, p])
        x.accumulate(dx)

    out._backward = backward
    return out


def xhat_batch_norm(x, state):
    """Training batch-norm that holds the normalized map x_hat and takes the
    closed-form gradient from it:
    dx = gamma*inv*(g - sum(g)/m - x_hat*sum(g*x_hat)/m)."""
    channels = state.gamma.size
    view, bshape, layout = tz._bn_axes(x.data.shape, channels)
    shape = x.data.shape
    xd = x.data.reshape(view)
    gamma, beta = state.gamma, state.beta
    dot, red = f"{layout},{layout}->c", f"{layout}->c"
    m = xd.size // channels
    mu = np.einsum(red, xd) / m
    var = np.maximum(np.einsum(dot, xd, xd) / m - mu * mu, 0.0)
    inv = 1.0 / np.sqrt(var + tz.BN_EPSILON)
    xhat = xd - mu.reshape(bshape)
    xhat *= inv.reshape(bshape)
    out = xhat * gamma.data.reshape(bshape)
    out += beta.data.reshape(bshape)

    state.running_mean *= tz.BN_MOMENTUM
    state.running_mean += (1.0 - tz.BN_MOMENTUM) * mu
    state.running_var *= tz.BN_MOMENTUM
    state.running_var += (1.0 - tz.BN_MOMENTUM) * var

    def backward(g):
        g = g.reshape(view)
        dgamma = np.einsum(dot, g, xhat)
        dbeta = np.einsum(red, g)
        dx = xhat * (-dgamma / m).reshape(bshape)
        dx += g
        dx -= (dbeta / m).reshape(bshape)
        dx *= (gamma.data * inv).reshape(bshape)
        gamma.accumulate(dgamma)
        beta.accumulate(dbeta)
        x.accumulate(dx.reshape(shape))

    return tz.Tensor(out.reshape(shape), parents=(x, gamma, beta), backward=backward)


def textbook_adam_step(params, state):
    """Adam with the bias corrections applied to the moments, over whole
    arrays: p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)."""
    state.step_count += 1
    t = state.step_count
    b1, b2, lr, eps = tz.ADAM_BETA1, tz.ADAM_BETA2, state.learning_rate, tz.ADAM_EPSILON
    for name, param in params.items():
        g = param.grad
        m = state.first_moment.setdefault(name, np.zeros_like(param.data))
        v = state.second_moment.setdefault(name, np.zeros_like(param.data))
        m *= b1
        m += g * (1.0 - b1)
        v *= b2
        v += (g * g) * (1.0 - b2)
        param.data -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        param.grad = None
