"""Dense float64 tensors with reverse-mode autodiff and an Adam optimizer.

Only the operations the risk network needs are provided: 3x3 same-padded
convolution, batch normalization, dense layers, relu/sigmoid, inverted
dropout, residual addition, flatten/concat, a per-segment max used for the
multi-instance pooling, and binary cross-entropy. Everything runs in 64-bit
floats on numpy arrays.
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
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
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


def _im2col(arr: np.ndarray) -> np.ndarray:
    """(N,C,H,W) -> (C*9, N*H*W) columns of all 3x3 taps over a zero-padded
    input, filled tap by tap so every copy runs over long contiguous spans."""
    n, c, h, w = arr.shape
    padded = np.pad(arr, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((c, 3, 3, n, h, w))
    for i in range(3):
        for j in range(3):
            cols[:, i, j] = padded[:, :, i:i + h, j:j + w].transpose(1, 0, 2, 3)
    return cols.reshape(c * 9, n * h * w)


def conv2d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1 ("same" spatial size).

    `x` is (C,H,W) or batched (N,C,H,W); `kernels` is (O,C,3,3), `bias` (O,).
    """
    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv input must be (C,H,W) or (N,C,H,W), got {x.shape}")
    k = kernels.data
    if k.ndim != 4 or k.shape[2:] != (3, 3):
        raise DimensionError(f"kernels must be (O,C,3,3), got {kernels.shape}")
    n, c, h, w = xd.shape
    o = k.shape[0]
    if k.shape[1] != c:
        raise DimensionError(f"kernel channels {k.shape[1]} != input channels {c}")
    if bias.data.shape != (o,):
        raise DimensionError(f"bias must be ({o},), got {bias.shape}")

    cols = _im2col(xd)                              # (C*9, NHW)
    out2d = k.reshape(o, c * 9) @ cols
    out2d += bias.data[:, None]
    out = out2d.reshape(o, n, h, w).transpose(1, 0, 2, 3)
    out = out[0] if single else out

    def backward(g):
        gd = g[None] if single else g
        gmat = gd.transpose(1, 0, 2, 3).reshape(o, n * h * w)
        kernels.accumulate((gmat @ cols.T).reshape(o, c, 3, 3))
        bias.accumulate(gd.sum(axis=(0, 2, 3)))
        if not x.requires_grad:
            return
        gcols = _im2col(gd)                         # (O*9, NHW)
        kflip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * 9)
        dx = (kflip @ gcols).reshape(c, n, h, w).transpose(1, 0, 2, 3)
        x.accumulate(dx[0] if single else dx)

    return Tensor(out, parents=(x, kernels, bias), backward=backward)


def _bn_axes(shape, channels):
    # Channel axis is 1 for feature maps (N,C,H,W), 0 for a single map
    # (C,H,W), and the last axis for flat (N,F) activations.
    if len(shape) == 4 and shape[1] == channels:
        return (0, 2, 3), (1, channels, 1, 1), "nchw"
    if len(shape) == 3 and shape[0] == channels:
        return (1, 2), (channels, 1, 1), "chw"
    if len(shape) == 2 and shape[1] == channels:
        return (0,), (1, channels), "nc"
    raise DimensionError(f"cannot batch-normalize shape {shape} with {channels} channels")


def batch_norm(x: Tensor, state: BatchNormState, mode: str) -> Tensor:
    """Normalize per channel; train mode uses batch stats and updates the EMA."""
    _check_mode(mode)
    channels = state.gamma.size
    axes, bshape, layout = _bn_axes(x.data.shape, channels)
    gamma, beta = state.gamma, state.beta
    dot = f"{layout},{layout}->c"   # fused per-channel reductions
    red = f"{layout}->c"

    if mode == "infer":
        inv = 1.0 / np.sqrt(state.running_var + state.epsilon)
        xhat = (x.data - state.running_mean.reshape(bshape)) * inv.reshape(bshape)
        out = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

        def backward_infer(g):
            gamma.accumulate(np.einsum(dot, g, xhat))
            beta.accumulate(np.einsum(red, g))
            x.accumulate(g * (gamma.data * inv).reshape(bshape))

        return Tensor(out, parents=(x, gamma, beta), backward=backward_infer)

    m = int(np.prod([x.data.shape[a] for a in axes]))
    if m == 0:
        raise InvalidBatchError("batch normalization over an empty batch")
    mu = np.einsum(red, x.data) / m
    var = np.maximum(np.einsum(dot, x.data, x.data) / m - mu * mu, 0.0)
    inv = 1.0 / np.sqrt(var + state.epsilon)
    xc = x.data - mu.reshape(bshape)
    xhat = xc * inv.reshape(bshape)
    out = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    state.running_mean *= state.momentum
    state.running_mean += (1.0 - state.momentum) * mu
    state.running_var *= state.momentum
    state.running_var += (1.0 - state.momentum) * var

    def backward_train(g):
        gamma.accumulate(np.einsum(dot, g, xhat))
        beta.accumulate(np.einsum(red, g))
        gxhat = g * gamma.data.reshape(bshape)
        dvar = np.einsum(dot, gxhat, xc) * (-0.5) * inv ** 3
        dmu = -np.einsum(red, gxhat) * inv
        dx = gxhat * inv.reshape(bshape)
        dx += dvar.reshape(bshape) * (2.0 / m) * xc
        dx += dmu.reshape(bshape) / m
        x.accumulate(dx)

    return Tensor(out, parents=(x, gamma, beta), backward=backward_train)


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
    """Inverted dropout: train-time zeroing with 1/(1-rate) rescale, identity at inference."""
    _check_mode(mode)
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must lie in [0,1), got {rate}")
    if mode == "infer" or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("train-mode dropout needs an rng")
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
        a.accumulate(g)
        b.accumulate(g)

    return Tensor(out, parents=(a, b), backward=backward)


def flatten(x: Tensor) -> Tensor:
    """Collapse all but the leading batch axis; 1-D stays 1-D."""
    shape = x.data.shape
    out = x.data.reshape(shape[0], -1) if x.data.ndim > 1 else x.data

    def backward(g):
        x.accumulate(g.reshape(shape))

    return Tensor(out, parents=(x,), backward=backward)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    old = x.data.shape
    out = x.data.reshape(shape)

    def backward(g):
        x.accumulate(g.reshape(old))

    return Tensor(out, parents=(x,), backward=backward)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis (the deep-and-wide merge)."""
    if a.data.ndim != b.data.ndim or a.data.shape[:-1] != b.data.shape[:-1]:
        raise DimensionError(f"cannot concat {a.shape} with {b.shape}")
    na = a.data.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)

    def backward(g):
        a.accumulate(g[..., :na])
        b.accumulate(g[..., na:])

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


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; mutates `params` arrays in place."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if name not in state.first_moment:
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
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
