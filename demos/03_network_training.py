"""Training the deep-and-wide multi-instance network on a toy problem.

Eight hand-made scans, dropout off, a few hundred epochs: the loss should
collapse toward zero (the optimizer/loss plumbing at work), and the risk
of a scan is exactly the max over its nodule branch scores.
"""

import numpy as np

from lungrisk import nnet
from lungrisk.preprocess import NodulePatch, ScanExample

rng = np.random.default_rng(2)

examples = []
for i in range(8):
    label = i % 2
    planes = rng.random((3, 28, 28)) * 0.25 + 0.55 * label     # positives brighter
    meta = rng.normal(size=5) + np.r_[3.0 * label, np.zeros(4)]
    patches = [NodulePatch(planes=planes, metadata=meta)]
    examples.append(ScanExample(scan_id=f"toy{i}", patches=patches, label=label))

config = nnet.NNetConfig(dropout_rate=0.0, epochs=300, batch_size=2, seed=3)
result = nnet.train(config, examples)
history = result.loss_history
print("loss: epoch 0:", round(history[0], 4),
      " epoch 150:", round(history[150], 4),
      " epoch 299:", round(history[-1], 4))

# multi-instance semantics: a bag's risk is the max of its branch scores,
# and one batch-invariant pass scores the whole bag
params, stats = result.params, result.metadata_stats
bag = [examples[1].patches[0], examples[0].patches[0], examples[3].patches[0]]
members = [nnet.FoldMember(params, stats)]


def bag_risk(plans, patches):
    # scoring runs each member folded into a plain-numpy inference plan
    return nnet.ensemble_predict(plans, [ScanExample(scan_id="bag", patches=patches, label=1)])[0]


plans = [nnet.build_plan(m) for m in members]
singles = [bag_risk(plans, [p]) for p in bag]
risk = bag_risk(plans, bag)
print("branch scores one at a time:", [round(s, 4) for s in singles])
print("bag risk in one pass:", round(risk, 4), " exactly their max:", risk == max(singles))

# persistence: the weight file round-trips bit-exactly; `load_plans` folds
# each weight file into its plan as it is read
import tempfile

with tempfile.TemporaryDirectory() as td:
    nnet.save_ensemble(nnet.FoldEnsemble(members), td)
    print("save/load risk identical:", bag_risk(nnet.load_plans(td), bag) == risk)
