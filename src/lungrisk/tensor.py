"""Dense float64 tensors with reverse-mode autodiff and an Adam optimizer.

Only the operations the risk network needs are provided: 3x3 same-padded
convolution, batch normalization, dense layers, relu/sigmoid, inverted
dropout, residual addition, flatten/concat, a per-segment max used for the
multi-instance pooling, and binary cross-entropy. Everything runs in 64-bit
floats on numpy arrays. Feature maps are channel-major (C,N,H,W) batches, so
each channel is one contiguous block, and flat activations are (N,F) rows.
The ops serve training; scoring runs `nnet`'s folded inference plans instead.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DimensionError,
    InvalidBatchError,
    MissingGradientError,
    NumericError,
)

# Sigmoid outputs are clipped into this open interval so the strict (0,1)
# range survives float64 saturation at |x| > ~37.
_SIG_LO = 1e-15
_SIG_HI = 1.0 - 1e-15

# Predictions are clamped to [eps, 1-eps] inside the cross-entropy.
BCE_EPS = 1e-7

# Batch-norm variance floor and running-statistics decay. LRNN1 weight files
# store neither, so they are part of the file format, not settings.
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Tensor:
    """A node in the reverse-mode graph wrapping a contiguous float64 array.

    Leaf tensors (parameters, inputs) have no parents; every op result
    records its parents and a closure that scatters the incoming gradient to
    them. A leaf made with `requires_grad=False` (an input nothing
    differentiates with respect to) never holds a gradient, and ops may skip
    computing it. `backward` consumes the graph it runs through (see there).
    """

    __slots__ = ("data", "grad", "name", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, name=None, requires_grad=True):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.name = name
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def accumulate(self, g):
        """Add `g` into `.grad`. The first gradient is kept, not copied, so
        `g` must be an array no one else holds; a caller passing its own
        incoming gradient, or a view of it, passes a copy."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.data.shape})"


@dataclass
class BatchNormState:
    """Scale/shift parameters plus running statistics for one BN layer."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        n = self.gamma.size
        if not (self.beta.size == self.running_mean.size == self.running_var.size == n):
            raise DimensionError("batch-norm vectors must share the channel count")
        if np.any(self.running_var < 0):
            raise NumericError("running_var must be non-negative")

    @classmethod
    def create(cls, channels: int, name: str = "bn") -> "BatchNormState":
        return cls(
            gamma=Tensor(np.ones(channels), name=f"{name}.gamma"),
            beta=Tensor(np.zeros(channels), name=f"{name}.beta"),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
        )


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    step_count: int = 0
    learning_rate: float = 1e-3


# ---------------------------------------------------------------------------
# forward/backward ops


def _columns(maps: np.ndarray) -> Iterator[np.ndarray]:
    """The im2col columns (Chellapilla et al. 2006) of each (C,H,W) map of the
    channel-major batch `maps` in turn: the 3x3 taps over zero padding, as
    one (C*9, H*W) buffer that is rewritten for the next map.

    Each map is copied into the interior of one zeroed (C,H+2,W+2) buffer,
    whose border stays zero, and its columns are a single strided copy of
    that buffer's 3x3 windows, viewed as (C,3,3,H,W). Nothing batch-sized
    is allocated."""
    c, n, h, w = maps.shape
    padded = np.zeros((c, h + 2, w + 2))
    interior = padded[:, 1:-1, 1:-1]
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
    cols = np.empty((c, 3, 3, h, w))
    flat = cols.reshape(c * 9, h * w)
    for p in range(n):
        np.copyto(interior, maps[:, p])
        np.copyto(cols, windows)
        yield flat


def conv2d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1 ("same" spatial size).

    `x` is a channel-major (C,N,H,W) batch; `kernels` is (O,C,3,3), `bias`
    (O,). The output is the (O,N,H,W) batch.

    Each map is unfolded by `_columns`, one strided copy of its padded 3x3
    windows into a one-map column buffer, and its columns feed one GEMM
    written straight into its slot of the output. Backward unfolds each map,
    and each map of the incoming gradient, again rather than holding the
    batch's columns. The columns stay cache-sized, and every GEMM has the
    shape of a single-map call, so a map's output does not depend on the
    batch it came in.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv input must be a (C,N,H,W) batch, got {x.shape}")
    k = kernels.data
    if k.ndim != 4 or k.shape[2:] != (3, 3):
        raise DimensionError(f"kernels must be (O,C,3,3), got {kernels.shape}")
    c, n, h, w = xd.shape
    o = k.shape[0]
    if k.shape[1] != c:
        raise DimensionError(f"kernel channels {k.shape[1]} != input channels {c}")
    if bias.data.shape != (o,):
        raise DimensionError(f"bias must be ({o},), got {bias.shape}")

    kmat = k.reshape(o, c * 9)
    out = np.empty((o, n, h, w))
    out3 = out.reshape(o, n, h * w)
    for p, cols in enumerate(_columns(xd)):
        np.matmul(kmat, cols, out=out3[:, p])
    out3 += bias.data[:, None, None]

    def backward(g):
        g3 = g.reshape(o, n, h * w)
        gk = np.zeros((o, c * 9))
        for p, cols in enumerate(_columns(xd)):
            gk += g3[:, p] @ cols.T
        kernels.accumulate(gk.reshape(o, c, 3, 3))
        bias.accumulate(g.reshape(o, -1).sum(axis=1))
        # The op records this backward whenever the kernels train, also when
        # `x` needs no gradient: conv1 and conv_skip read the input planes,
        # a leaf without one. Their dx GEMMs would be thrown away.
        if not x.requires_grad:
            return
        kflip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * 9)
        dx = np.empty((c, n, h, w))
        dx3 = dx.reshape(c, n, h * w)
        for p, gcols in enumerate(_columns(g.reshape(o, n, h, w))):
            np.matmul(kflip, gcols, out=dx3[:, p])
        x.accumulate(dx)

    return Tensor(out, parents=(x, kernels, bias), backward=backward)


def _bn_axes(shape, channels):
    # A (C,N,H,W) batch is viewed as (C, M), each channel's values one contiguous
    # row; flat (N,F) activations keep their channels on the last axis.
    if len(shape) == 4 and shape[0] == channels:
        return (channels, -1), (channels, 1), "cm"
    if len(shape) == 2 and shape[1] == channels:
        return shape, (1, channels), "mc"
    raise DimensionError(f"cannot batch-normalize shape {shape} with {channels} channels")


def batch_norm(x: Tensor, state: BatchNormState) -> Tensor:
    """Normalize per channel with the batch statistics, and update the
    running averages that a trained member's inference plan folds in."""
    channels = state.gamma.size
    view, bshape, layout = _bn_axes(x.data.shape, channels)
    shape = x.data.shape
    xd = x.data.reshape(view)
    gamma, beta = state.gamma, state.beta

    dot = f"{layout},{layout}->c"   # fused per-channel reductions
    red = f"{layout}->c"
    m = xd.size // channels
    if m == 0:
        raise InvalidBatchError("batch normalization over an empty batch")
    mu = np.einsum(red, xd) / m
    var = np.maximum(np.einsum(dot, xd, xd) / m - mu * mu, 0.0)
    inv = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat = xd - mu.reshape(bshape)
    xhat *= inv.reshape(bshape)
    out = xhat * gamma.data.reshape(bshape)
    out += beta.data.reshape(bshape)

    state.running_mean *= BN_MOMENTUM
    state.running_mean += (1.0 - BN_MOMENTUM) * mu
    state.running_var *= BN_MOMENTUM
    state.running_var += (1.0 - BN_MOMENTUM) * var

    def backward_train(g):
        # Closed form: dx = gamma*inv*(g - sum(g)/m - xhat*sum(g*xhat)/m),
        # built from the two reductions gamma and beta need anyway.
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

    return Tensor(out.reshape(shape), parents=(x, gamma, beta), backward=backward_train)


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map: out = x @ W + b for (N,n) rows x, as one GEMM."""
    w, b = weights.data, bias.data
    if w.ndim != 2:
        raise DimensionError(f"weights must be 2-D, got {weights.shape}")
    if x.data.ndim != 2 or x.data.shape[1] != w.shape[0]:
        raise DimensionError(f"dense input {x.shape} incompatible with weights {weights.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"bias must be ({w.shape[1]},), got {bias.shape}")
    out = x.data @ w + b

    def backward(g):
        weights.accumulate(x.data.T @ g)
        bias.accumulate(g.sum(axis=0))
        x.accumulate(g @ w.T)

    return Tensor(out, parents=(x, weights, bias), backward=backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); a NaN stays NaN, so a non-finite forward stays visible."""
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0

    def backward(g):
        x.accumulate(g * mask)

    return Tensor(out, parents=(x,), backward=backward)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic; output clipped strictly inside (0,1)."""
    out = np.clip(_sigmoid_raw(x.data), _SIG_LO, _SIG_HI)

    def backward(g):
        x.accumulate(g * out * (1.0 - out))

    return Tensor(out, parents=(x,), backward=backward)


def _sigmoid_raw(z):
    z = np.asarray(z, dtype=np.float64)
    pos = z >= 0
    out = np.empty_like(z)
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero each value with probability `rate` and scale
    the kept ones by 1/(1-rate); the identity at rate 0.

    The mask of a channel-major (C,N,H,W) batch is drawn in patch-major
    (N,C,H,W) order, so each patch's draws follow one another.
    """
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must lie in [0,1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout needs an rng")
    if x.data.ndim == 4:
        c, n, h, w = x.data.shape
        keep = np.ascontiguousarray((rng.random((n, c, h, w)) >= rate).transpose(1, 0, 2, 3))
    else:
        keep = rng.random(x.data.shape) >= rate
    scaled = keep * (1.0 / (1.0 - rate))    # 1/(1-rate) where kept, 0 where dropped
    out = x.data * scaled

    def backward(g):
        x.accumulate(g * scaled)

    return Tensor(out, parents=(x,), backward=backward)


def residual_add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"residual add needs identical shapes, got {a.shape} vs {b.shape}")
    out = a.data + b.data

    def backward(g):
        a.accumulate(g.copy())
        b.accumulate(g.copy())

    return Tensor(out, parents=(a, b), backward=backward)


def flatten(x: Tensor) -> Tensor:
    """A channel-major (C,N,H,W) batch as (N, C*H*W) rows, one patch's map each."""
    if x.data.ndim != 4:
        raise DimensionError(f"flatten expects a (C,N,H,W) batch, got {x.shape}")
    c, n, h, w = x.data.shape
    out = x.data.transpose(1, 0, 2, 3).reshape(n, -1)

    def backward(g):
        x.accumulate(g.reshape(n, c, h, w).transpose(1, 0, 2, 3).copy())

    return Tensor(out, parents=(x,), backward=backward)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    old = x.data.shape
    out = x.data.reshape(shape)

    def backward(g):
        x.accumulate(g.reshape(old).copy())

    return Tensor(out, parents=(x,), backward=backward)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis (the deep-and-wide merge)."""
    if a.data.ndim != b.data.ndim or a.data.shape[:-1] != b.data.shape[:-1]:
        raise DimensionError(f"cannot concat {a.shape} with {b.shape}")
    na = a.data.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)

    def backward(g):
        a.accumulate(g[..., :na].copy())
        b.accumulate(g[..., na:].copy())

    return Tensor(out, parents=(a, b), backward=backward)


def segment_max(x: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Max of x over each segment id; gradient flows to the first argmax.

    Every segment in [0, num_segments) must own at least one element.
    """
    if x.data.ndim != 1 or segments.shape != x.data.shape:
        raise DimensionError("segment_max expects matching 1-D score/segment arrays")
    counts = np.bincount(segments, minlength=num_segments)
    if np.any(counts == 0):
        raise InvalidBatchError("segment_max over a segment with no elements")
    out = np.full(num_segments, -np.inf)
    np.maximum.at(out, segments, x.data)
    n = x.data.size
    pos = np.where(x.data == out[segments], np.arange(n), n)
    first = np.full(num_segments, n, dtype=np.int64)
    np.minimum.at(first, segments, pos)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[first] += g
        x.accumulate(gx)

    return Tensor(out, parents=(x,), backward=backward)


def bce_loss(prediction: Tensor, label) -> Tensor:
    """Mean binary cross-entropy with predictions clamped to [eps, 1-eps].

    For scalar inputs this is the plain -[y ln p + (1-y) ln(1-p)].
    """
    y = np.asarray(label, dtype=np.float64)
    p = prediction.data
    if y.shape != p.shape:
        raise DimensionError(f"prediction shape {p.shape} != label shape {y.shape}")
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    n = max(pc.size, 1)
    out = -(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)).sum() / n

    def backward(g):
        # Zero gradient where the clamp is active: the clamped loss is flat there.
        inside = (p > BCE_EPS) & (p < 1.0 - BCE_EPS)
        dp = np.where(inside, (pc - y) / (pc * (1.0 - pc)), 0.0) / n
        prediction.accumulate(g * dp)

    return Tensor(out, parents=(prediction,), backward=backward)


# ---------------------------------------------------------------------------
# reverse pass and optimizer


def _released(g):
    # The closure of an op result whose graph an earlier backward consumed.
    raise MissingGradientError("the graph was released by an earlier backward: "
                               "recompute the loss to differentiate it again")


def backward(loss: Tensor):
    """Accumulate the gradient of a scalar loss into the `.grad` of each leaf
    that requires one, consuming the loss's graph.

    Op results are visited in reverse topological order. Once a result's
    closure has run, it drops its gradient, closure and parents, so its
    saved arrays, and any intermediate no caller holds, are freed while the
    pass descends. Results keep their `.data`; leaves keep their gradients
    until `adam_step` consumes them. A second backward through a released
    result raises MissingGradientError.
    """
    if loss.data.size != 1:
        raise DimensionError("backward expects a scalar loss")
    topo: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is None:      # a leaf
            continue
        node._backward(node.grad)
        node.grad, node._backward, node._parents = None, _released, ()


def adam_step(params: dict[str, Tensor], state: AdamState):
    """One bias-corrected Adam update that consumes the parameters' gradients.

    Raises MissingGradientError, naming every parameter whose `.grad` is
    None, before anything moves. Then each parameter's (C-contiguous) `.data`
    is updated in place from its `.grad`, which is set to None, so a
    gradient lives from `backward` to here and no longer.

    Each parameter is updated as a whole through two views of its size into
    one scratch buffer of the call, with the operations of
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
    in that order.
    """
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise MissingGradientError(f"no gradient reached parameters: {missing}")
    state.step_count += 1
    t = state.step_count
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.learning_rate, ADAM_EPSILON
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    # one buffer per step, not two per parameter: in a process without the
    # fold workers' malloc settings each large temporary is a fresh mmap
    scratch = np.empty((2, max((p.data.size for p in params.values()), default=0)))
    for name, param in params.items():
        p, g = param.data, param.grad
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        if not p.flags["C_CONTIGUOUS"]:
            raise DimensionError(f"parameter {name!r} is not C-contiguous")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if name not in state.first_moment:
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        m, v = state.first_moment[name], state.second_moment[name]
        sa, sb = (row[:p.size].reshape(p.shape) for row in scratch)
        np.multiply(g, 1.0 - b1, out=sa)
        m *= b1
        m += sa
        np.multiply(g, g, out=sa)
        sa *= 1.0 - b2
        v *= b2
        v += sa
        np.divide(m, bc1, out=sa)
        sa *= lr
        np.divide(v, bc2, out=sb)
        np.sqrt(sb, out=sb)
        sb += eps
        sa /= sb
        p -= sa
        param.grad = None


# ---------------------------------------------------------------------------
# finite-difference checking support


# Over a smooth stretch of the loss, the central differences at h and h/2
# agree to within rounding, at most 2e3 eps*max|f|/h on those losses, unless
# the loss curves strongly; then the gaps between the differences at h, h/2
# and h/4 shrink 4x per halving of the step (the h^2 error term). Across a
# kink (a relu, max or clamp switching branch inside the step) the gap is
# the slope change, 4e4 and up, and it stays or grows while the kink lies
# inside the smaller step.
_KINK_TOLERANCE = 1e4


def finite_difference_check(loss_fn, tensors: dict[str, Tensor], h: float = 1e-5,
                            samples_per_tensor: int | None = None,
                            rng: np.random.Generator | None = None,
                            skip_kinks: bool = False) -> dict[str, float]:
    """Compare analytic gradients with central finite differences at step h.

    `loss_fn()` must rebuild the graph from the current tensor data and
    return the scalar loss Tensor. Checks every coordinate unless
    `samples_per_tensor` caps it; a cap needs `rng` to draw the coordinates.

    With `skip_kinks`, the loss is also evaluated at +-h/2. A coordinate
    whose differences at h and h/2 disagree by more than rounding explains
    is evaluated at +-h/4 too. If the gap between the differences at h/2
    and h/4 is at most half the first gap, they converge, and the h/4
    difference is compared; otherwise the perturbation crosses a kink,
    where the loss is not differentiable, and the coordinate is skipped.
    Returns the max relative error per tensor name.
    """
    if samples_per_tensor is not None and rng is None:
        raise ConfigError("samples_per_tensor needs an rng to draw the coordinates")
    for t in tensors.values():
        t.grad = None
    loss = loss_fn()
    backward(loss)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in tensors.items()}
    eps = np.finfo(np.float64).eps

    def central(flat, i, step):
        # the central difference at coordinate i, and the larger |loss|
        orig = flat[i]
        flat[i] = orig + step
        up = float(loss_fn().data)
        flat[i] = orig - step
        down = float(loss_fn().data)
        flat[i] = orig
        return (up - down) / (2.0 * step), max(abs(up), abs(down))

    errors = {}
    for name, t in tensors.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if samples_per_tensor is None or samples_per_tensor >= n:
            idx = np.arange(n)
        else:
            idx = rng.choice(n, size=samples_per_tensor, replace=False)
        worst = 0.0
        checked = 0
        for i in idx:
            numeric, f_max = central(flat, i, h)
            if skip_kinks:
                half, f_half = central(flat, i, h / 2)
                gap = numeric - half
                tolerance = _KINK_TOLERANCE * eps * max(f_max, f_half) / h
                if abs(gap) > tolerance:
                    quarter, _ = central(flat, i, h / 4)
                    if abs(half - quarter) > abs(gap) / 2 + tolerance:
                        continue
                    numeric = quarter
            checked += 1
            a = float(analytic[name].reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
            worst = max(worst, rel)
        if checked == 0:
            raise NumericError(f"every sampled coordinate of {name!r} straddled a kink")
        errors[name] = worst
    return errors
