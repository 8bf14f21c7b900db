"""A tour of the tensor core: forward ops, reverse-mode gradients, Adam.

Everything the risk network needs is built from a handful of float64 ops
on a tape of closures. This script builds small graphs by hand, checks a
gradient against finite differences, and runs Adam on a toy logistic fit.
"""

import numpy as np

from lungrisk import tensor as tz

rng = np.random.default_rng(0)

# --- forward ops ------------------------------------------------------------
x = tz.Tensor(rng.normal(size=(1, 1, 6, 6)))        # a (C,N,H,W) batch of one map
kernels = tz.Tensor(rng.normal(size=(8, 1, 3, 3)))
bias = tz.Tensor(np.zeros(8))
feature_maps = tz.conv2d_same(x, kernels, bias)
print("conv2d_same keeps the spatial size:", x.shape, "->", feature_maps.shape)

bn = tz.BatchNormState.create(8)
normed = tz.batch_norm(feature_maps, bn)
print("batch-norm output mean per channel ~0:",
      np.abs(normed.data.mean(axis=(1, 2, 3))).max() < 1e-12)

scores = tz.sigmoid(tz.Tensor(np.array([-2.0, 0.0, np.log(3.0)])))
print("sigmoid(-2, 0, ln 3) =", np.round(scores.data, 4), "(note 0.75 = 3/4)")

# --- reverse mode -----------------------------------------------------------
# d(bce)/dp at p=0.5, y=1 is -1/p = -2
p = tz.Tensor(0.5)
loss = tz.bce_loss(p, 1.0)
tz.backward(loss)
print("BCE gradient at p=0.5, y=1:", p.grad, "(analytic -2)")

# the same machinery verified against central finite differences
w = tz.Tensor(rng.normal(size=(4, 2)))
b = tz.Tensor(np.zeros(2))
inputs = tz.Tensor(rng.normal(size=(5, 4)))
labels = rng.integers(0, 2, size=(5, 2)).astype(float)
errs = tz.finite_difference_check(
    lambda: tz.bce_loss(tz.sigmoid(tz.dense(inputs, w, b)), labels),
    {"w": w, "b": b}, h=1e-5)
print("max relative gradient error vs finite differences:",
      f"{max(errs.values()):.2e}")

# --- Adam on a toy logistic fit ----------------------------------------------
true_w = np.array([2.0, -3.0])
features = rng.normal(size=(256, 2))
targets = (1 / (1 + np.exp(-(features @ true_w))) > rng.random(256)).astype(float)

weights = tz.Tensor(np.zeros(2), name="w")
state = tz.AdamState(learning_rate=0.05)
for step in range(400):
    logits = tz.dense(tz.Tensor(features), tz.reshape(weights, (2, 1)), tz.Tensor(np.zeros(1)))
    loss = tz.bce_loss(tz.sigmoid(tz.reshape(logits, (-1,))), targets)
    tz.backward(loss)                       # fills weights.grad
    tz.adam_step({"w": weights}, state)     # applies weights.grad, then clears it
    if step % 100 == 0:
        print(f"step {step:3d}: loss {float(loss.data):.4f} w {np.round(weights.data, 2)}")
print("recovered weights:", np.round(weights.data, 2), "true:", true_w)
