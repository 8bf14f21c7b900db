"""Dense float64 tensors with reverse-mode autodiff and an Adam optimizer.

Only the operations the risk network needs are provided: 3x3 same-padded
convolution, batch normalization, dense layers, relu/sigmoid, inverted
dropout, residual addition, flatten/concat, a per-segment max used for the
multi-instance pooling, and binary cross-entropy. Everything runs in 64-bit
floats on numpy arrays. Feature maps are channel-major: one map is (C,H,W)
and a batch of N maps is (C,N,H,W), so each channel is one contiguous block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


class Tensor:
    """A node in the reverse-mode graph wrapping a contiguous float64 array.

    Leaf tensors (parameters, inputs) have no parents; op results carry a
    closure that scatters the incoming gradient to their parents. A tensor
    made with `requires_grad=False` (an input nothing differentiates with
    respect to) never holds a gradient, and ops may skip computing it.
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

    def zero_grad(self):
        self.grad = None

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
    epsilon: float = 1e-5
    momentum: float = 0.9

    def __post_init__(self):
        n = self.gamma.size
        if not (self.beta.size == self.running_mean.size == self.running_var.size == n):
            raise DimensionError("batch-norm vectors must share the channel count")
        if np.any(self.running_var < 0):
            raise NumericError("running_var must be non-negative")
        if not (self.epsilon > 0):
            raise ConfigError("batch-norm epsilon must be positive")
        if not (0.0 < self.momentum < 1.0):
            raise ConfigError("batch-norm momentum must lie in (0,1)")

    @classmethod
    def create(cls, channels: int, name: str = "bn", epsilon: float = 1e-5,
               momentum: float = 0.9) -> "BatchNormState":
        return cls(
            gamma=Tensor(np.ones(channels), name=f"{name}.gamma"),
            beta=Tensor(np.zeros(channels), name=f"{name}.beta"),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
            epsilon=epsilon,
            momentum=momentum,
        )


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


# ---------------------------------------------------------------------------
# forward/backward ops


# Offsets of a 3x3 tap along one axis, as (destination slice, source
# slice) within a zero-padded "same" window. The destination leaves out the
# border row or column that the padding would fill.
_TAP_SLICES = (
    (slice(1, None), slice(None, -1)),
    (slice(None), slice(None)),
    (slice(None, -1), slice(1, None)),
)


def _im2col(arr: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns of all 3x3 taps of the (C,H,W) map `arr` over zero padding,
    as (C*9, H*W). They are written into `cols`, a (C,3,3,H,W) buffer made by
    np.zeros: each tap is one slice assignment of the shifted map, which
    never touches the border rows and columns, so they stay zero and the
    buffer can be reused for the next map without a padded copy."""
    c, h, w = arr.shape
    for i, (dst_i, src_i) in enumerate(_TAP_SLICES):
        for j, (dst_j, src_j) in enumerate(_TAP_SLICES):
            cols[:, i, j, dst_i, dst_j] = arr[:, src_i, src_j]
    return cols.reshape(c * 9, h * w)


def conv2d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1 ("same" spatial size).

    `x` is one (C,H,W) map or a channel-major (C,N,H,W) batch; `kernels` is
    (O,C,3,3), `bias` (O,). The output has the input's layout with O channels.

    The batch is unfolded one map at a time into a one-map column buffer:
    each map's columns feed one GEMM written straight into its slot of the
    output, and backward unfolds each map again rather than holding the
    batch's columns. The columns stay cache-sized, and every GEMM has the
    shape of a single-map call, so a map's output does not depend on the
    batch it came in.
    """
    single = x.data.ndim == 3
    xd = x.data[:, None] if single else x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv input must be (C,H,W) or (C,N,H,W), got {x.shape}")
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
    cols = np.zeros((c, 3, 3, h, w))
    out = np.empty((o, n, h, w))
    out3 = out.reshape(o, n, h * w)
    for p in range(n):
        np.matmul(kmat, _im2col(xd[:, p], cols), out=out3[:, p])
    out3 += bias.data[:, None, None]

    def backward(g):
        g3 = g.reshape(o, n, h * w)
        gk = np.zeros((o, c * 9))
        for p in range(n):
            gk += g3[:, p] @ _im2col(xd[:, p], cols).T
        kernels.accumulate(gk.reshape(o, c, 3, 3))
        bias.accumulate(g.reshape(o, -1).sum(axis=1))
        if not x.requires_grad:
            return
        kflip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * 9)
        g4 = g.reshape(o, n, h, w)
        gcols = np.zeros((o, 3, 3, h, w))
        dx = np.empty((c, n, h, w))
        dx3 = dx.reshape(c, n, h * w)
        for p in range(n):
            np.matmul(kflip, _im2col(g4[:, p], gcols), out=dx3[:, p])
        x.accumulate(dx.reshape(x.data.shape))

    return Tensor(out.reshape((o,) + x.data.shape[1:]), parents=(x, kernels, bias),
                  backward=backward)


def _bn_axes(shape, channels):
    # A feature map, one (C,H,W) map or a channel-major (C,N,H,W) batch, is
    # viewed as (C, M) with each channel's values in one contiguous row;
    # flat (N,F) activations keep their channels on the last axis.
    if len(shape) in (3, 4) and shape[0] == channels:
        return (channels, -1), (channels, 1), "cm"
    if len(shape) == 2 and shape[1] == channels:
        return shape, (1, channels), "mc"
    raise DimensionError(f"cannot batch-normalize shape {shape} with {channels} channels")


def batch_norm(x: Tensor, state: BatchNormState, mode: str) -> Tensor:
    """Normalize per channel; train mode uses batch stats and updates the EMA."""
    _check_mode(mode)
    channels = state.gamma.size
    view, bshape, layout = _bn_axes(x.data.shape, channels)
    shape = x.data.shape
    xd = x.data.reshape(view)
    gamma, beta = state.gamma, state.beta
    dot = f"{layout},{layout}->c"   # fused per-channel reductions
    red = f"{layout}->c"

    if mode == "infer":
        inv = 1.0 / np.sqrt(state.running_var + state.epsilon)
        xhat = (xd - state.running_mean.reshape(bshape)) * inv.reshape(bshape)
        out = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

        def backward_infer(g):
            g = g.reshape(view)
            gamma.accumulate(np.einsum(dot, g, xhat))
            beta.accumulate(np.einsum(red, g))
            x.accumulate((g * (gamma.data * inv).reshape(bshape)).reshape(shape))

        return Tensor(out.reshape(shape), parents=(x, gamma, beta), backward=backward_infer)

    m = xd.size // channels
    if m == 0:
        raise InvalidBatchError("batch normalization over an empty batch")
    mu = np.einsum(red, xd) / m
    var = np.maximum(np.einsum(dot, xd, xd) / m - mu * mu, 0.0)
    inv = 1.0 / np.sqrt(var + state.epsilon)
    xhat = xd - mu.reshape(bshape)
    xhat *= inv.reshape(bshape)
    out = xhat * gamma.data.reshape(bshape)
    out += beta.data.reshape(bshape)

    state.running_mean *= state.momentum
    state.running_mean += (1.0 - state.momentum) * mu
    state.running_var *= state.momentum
    state.running_var += (1.0 - state.momentum) * var

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
    """Affine map: out = x @ W + b for x of shape (n,) or (N,n).

    Each row is its own (1,n) @ (n,m) product, so a row's result does not
    depend on how many rows share the call: scoring patches in one batch
    gives exactly the scores of scoring them one at a time.
    """
    w, b = weights.data, bias.data
    if w.ndim != 2:
        raise DimensionError(f"weights must be 2-D, got {weights.shape}")
    if x.data.ndim not in (1, 2) or x.data.shape[-1] != w.shape[0]:
        raise DimensionError(f"dense input {x.shape} incompatible with weights {weights.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"bias must be ({w.shape[1]},), got {bias.shape}")
    out = (x.data[..., None, :] @ w)[..., 0, :] + b

    def backward(g):
        rows, grows = x.data.reshape(-1, w.shape[0]), g.reshape(-1, w.shape[1])
        weights.accumulate(rows.T @ grows)
        bias.accumulate(grows.sum(axis=0))
        x.accumulate(g @ w.T)

    return Tensor(out, parents=(x, weights, bias), backward=backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = np.where(mask, x.data, 0.0)

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


def dropout(x: Tensor, rate: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: train-time zeroing with 1/(1-rate) rescale, identity at inference.

    The mask of a channel-major (C,N,H,W) batch is drawn in patch-major
    (N,C,H,W) order, so each patch's draws follow one another.
    """
    _check_mode(mode)
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must lie in [0,1), got {rate}")
    if mode == "infer" or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("train-mode dropout needs an rng")
    if x.data.ndim == 4:
        c, n, h, w = x.data.shape
        keep = np.ascontiguousarray((rng.random((n, c, h, w)) >= rate).transpose(1, 0, 2, 3))
    else:
        keep = rng.random(x.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = np.where(keep, x.data * scale, 0.0)

    def backward(g):
        x.accumulate(np.where(keep, g * scale, 0.0))

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
    """Collapse all but the leading batch axis; 1-D stays 1-D. A channel-major
    (C,N,H,W) batch becomes (N, C*H*W) rows, one patch's (C,H,W) map each."""
    shape = x.data.shape
    if x.data.ndim == 4:
        out = x.data.transpose(1, 0, 2, 3).reshape(shape[1], -1)
    else:
        out = x.data.reshape(shape[0], -1) if x.data.ndim > 1 else x.data

    def backward(g):
        if len(shape) == 4:
            g = g.reshape(shape[1], shape[0], *shape[2:]).transpose(1, 0, 2, 3)
        x.accumulate(g.reshape(shape).copy())

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


def _check_mode(mode: str):
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")


# ---------------------------------------------------------------------------
# reverse pass and optimizer


def backward(loss: Tensor, params: dict[str, Tensor] | None = None):
    """Run reverse-mode accumulation from a scalar loss.

    When `params` is given, returns {name: gradient array} and raises
    MissingGradientError for any parameter the graph never touched.
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
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
    if params is None:
        return None
    missing = [name for name, t in params.items() if t.grad is None]
    if missing:
        raise MissingGradientError(f"no gradient reached parameters: {missing}")
    return {name: t.grad for name, t in params.items()}


# Adam walks each parameter in chunks of this many elements, small enough
# that a chunk and its two scratch rows stay in cache.
_ADAM_CHUNK = 8192


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; mutates the (C-contiguous) `params`
    arrays in place.

    Each parameter is updated chunk by chunk through two scratch rows, with
    the operations of
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
    in that order, so the result has the bits of the whole-array expression
    without its array-sized temporaries.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.epsilon
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    row_a, row_b = np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        if not p.flags["C_CONTIGUOUS"]:
            raise DimensionError(f"parameter {name!r} is not C-contiguous")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if name not in state.first_moment:
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        flat = [a.reshape(-1) for a in (p, g, state.first_moment[name], state.second_moment[name])]
        for lo in range(0, p.size, _ADAM_CHUNK):
            pc, gc, mc, vc = (a[lo:lo + _ADAM_CHUNK] for a in flat)
            sa, sb = row_a[:pc.size], row_b[:pc.size]
            np.multiply(gc, 1.0 - b1, out=sa)
            mc *= b1
            mc += sa
            np.multiply(gc, gc, out=sa)
            sa *= 1.0 - b2
            vc *= b2
            vc += sa
            np.divide(mc, bc1, out=sa)
            sa *= lr
            np.divide(vc, bc2, out=sb)
            np.sqrt(sb, out=sb)
            sb += eps
            sa /= sb
            pc -= sa
    return params, state


# ---------------------------------------------------------------------------
# finite-difference checking support


# Over a smooth stretch of the loss, the central differences at h and h/2
# agree to within rounding: at most 2e3 eps*max|f|/h on the network losses
# of the gradient checks. Across a kink (a relu, max or clamp switching
# branch inside the step) they differ by the slope change, 4e4 and up.
_KINK_TOLERANCE = 1e4


def finite_difference_check(loss_fn, tensors: dict[str, Tensor], h: float = 1e-5,
                            samples_per_tensor: int | None = None,
                            rng: np.random.Generator | None = None,
                            skip_kinks: bool = False) -> dict[str, float]:
    """Compare analytic gradients with central finite differences.

    `loss_fn()` must rebuild the graph from the current tensor data and
    return the scalar loss Tensor. Checks every coordinate unless
    `samples_per_tensor` caps it. With `skip_kinks`, the loss is also
    evaluated at +-h/2, and coordinates whose two central differences
    disagree by more than rounding explains are skipped: their perturbation
    crosses a kink, where the loss is not differentiable. Returns the max
    relative error per tensor name.
    """
    rng = rng or np.random.default_rng(0)
    for t in tensors.values():
        t.zero_grad()
    loss = loss_fn()
    backward(loss)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in tensors.items()}
    steps = (h, -h, h / 2, -h / 2) if skip_kinks else (h, -h)
    eps = np.finfo(np.float64).eps

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
            orig = flat[i]
            f = []
            for step in steps:
                flat[i] = orig + step
                f.append(float(loss_fn().data))
            flat[i] = orig
            numeric = (f[0] - f[1]) / (2.0 * h)
            if skip_kinks:
                half = (f[2] - f[3]) / h
                if abs(numeric - half) > _KINK_TOLERANCE * eps * max(map(abs, f)) / h:
                    continue
            checked += 1
            a = float(analytic[name].reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
            worst = max(worst, rel)
        if checked == 0:
            raise NumericError(f"every sampled coordinate of {name!r} straddled a kink")
        errors[name] = worst
    return errors
