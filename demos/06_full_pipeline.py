"""The whole pipeline at desk scale, via the same entry points as the CLI.

Simulates a small phantom cohort with a known generative risk rule, trains
a 2-fold ensemble, scores a held-out subset, and compares the network with
the PanCan baseline and with the generative (Bayes-optimal) risk.

Takes a couple of minutes; the real experiment (500 scans, 5 folds) runs
through the `lungrisk` CLI as shown in the README.
"""

import tempfile
from pathlib import Path

import numpy as np

from lungrisk import cli, evaluate as ev, fileio, pancan

with tempfile.TemporaryDirectory() as td:
    root = Path(td)
    data = root / "data"

    print("=== simulate ===")
    cli.main(["simulate", "--n", "80", "--prevalence", "0.25", "--seed", "31",
              "--out", str(data), "--dims", "80"])

    labels = fileio.read_labels_csv(data / "labels.csv")
    ids = sorted(labels)
    train_ids, test_ids = ids[:60], ids[60:]
    (root / "train.txt").write_text("\n".join(train_ids) + "\n")
    (root / "test.txt").write_text("\n".join(test_ids) + "\n")

    print("\n=== train (2 folds, a few epochs) ===")
    cli.main(["train", "--data", str(data), "--folds", "2", "--dropout", "0.25",
              "--epochs", "12", "--batch-size", "8", "--seed", "1",
              "--scans", str(root / "train.txt"), "--out", str(root / "model")])

    print("\n=== score the held-out scans ===")
    cli.main(["score", "--model", str(root / "model"), "--data", str(data),
              "--scans", str(root / "test.txt"), "--out", str(root / "nnet.csv")])

    print("\n=== PanCan baseline on the generative features ===")
    cli.main(["pancan", "--weights", str(pancan.placeholder_weights_path()),
              "--features", str(data / "pancan_features.csv"),
              "--scans", str(root / "test.txt"), "--out", str(root / "pancan.csv")])

    test_set = set(test_ids)
    nn = fileio.read_scores_csv(root / "nnet.csv")
    pan = fileio.read_scores_csv(root / "pancan.csv")
    bayes = {}
    for line in (data / "ground_truth.csv").read_text().splitlines()[1:]:
        sid, _, risk = line.split(",")
        if sid in test_set:
            bayes[sid] = float(risk)

    print("\n=== held-out comparison (tiny cohort; expect noisy numbers) ===")
    for name, scores in [("N-Net ensemble", nn), ("PanCan baseline", pan),
                         ("generative risk (Bayes)", bayes)]:
        cohort = ev.ScoredCohort.from_dicts(scores, labels)
        print(f"{name:26s} AUC {ev.auc(cohort):.4f}")
