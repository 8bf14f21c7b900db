"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from lungrisk import nnet
from lungrisk import tensor as tz

# the network's layers, named after the tensor op that produces them, in call order
_LAYERS_OF_OP = {
    "conv2d_same": ("conv1", "conv2", "conv3", "conv_skip"),
    "residual_add": ("merge",),
    "flatten": ("flatten",),
    "dense": ("dense1", "dense2", "dense_out"),
    "concat": ("concat",),
    "sigmoid": ("output",),
}


def _patch_shape(t):
    # one patch's shape: drop the patch axis, 1 in a (C,P,H,W) map, else 0
    shape = t.data.shape
    return shape[:1] + shape[2:] if len(shape) == 4 else shape[1:]


@pytest.fixture
def layer_shapes(monkeypatch):
    """A function that runs one training-mode network forward and returns
    its (layer, one patch's shape) list in call order, input first. It
    records by wrapping the `lungrisk.tensor` ops the network calls."""

    def forward(params, planes, metadata):
        shapes = []
        calls = dict.fromkeys(_LAYERS_OF_OP, 0)

        def wrap(op_name, op):
            def recorded(*args, **kwargs):
                out = op(*args, **kwargs)
                if not shapes:
                    shapes.append(("input", _patch_shape(args[0])))
                shapes.append((_LAYERS_OF_OP[op_name][calls[op_name]], _patch_shape(out)))
                calls[op_name] += 1
                return out
            return recorded

        with monkeypatch.context() as m:
            for op_name in _LAYERS_OF_OP:
                m.setattr(tz, op_name, wrap(op_name, getattr(tz, op_name)))
            nnet._forward_patch_batch(params, planes, metadata, np.random.default_rng(0))
        return shapes

    return forward
