"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end experiment
(criterion 6) simulates, trains and scores a full synthetic cohort and takes
around ten minutes on a desktop CPU; everything else is fast.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from lungrisk import cli, evaluate as ev, fileio, nnet, pancan, synthdata as sd
from lungrisk import tensor as tz
from lungrisk.errors import ChecksumError
from lungrisk.preprocess import MetadataStats, NodulePatch, ScanExample


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}")
    assert ok, line


def run_cli(argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness, every op + full network, h=1e-5, <2 min


def test_c1_gradient_correctness():
    started = time.time()
    h = 1e-5
    tol = 1e-4
    worst = 0.0
    rng = np.random.default_rng(1)

    def head(out, labels):
        return tz.bce_loss(tz.sigmoid(out), labels)

    def check(loss_fn, tensors, **kw):
        nonlocal worst
        errs = tz.finite_difference_check(loss_fn, tensors, h=h, **kw)
        worst = max(worst, max(errs.values()))

    # per-op instances (12 of the 20)
    for i in range(3):
        x = tz.Tensor(rng.uniform(-1, 1, size=(2, 1, 4, 5)))
        k = tz.Tensor(rng.uniform(-1, 1, size=(3, 2, 3, 3)))
        b = tz.Tensor(rng.uniform(-1, 1, size=3))
        y = rng.integers(0, 2, size=(3, 1, 4, 5)).astype(float)
        check(lambda: head(tz.conv2d_same(x, k, b), y), {"x": x, "k": k, "b": b})

    for i in range(3):
        x = tz.Tensor(rng.uniform(-1, 1, size=(5, 4)))
        bn = tz.BatchNormState.create(4)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=4)
        y = rng.integers(0, 2, size=(5, 4)).astype(float)
        check(lambda: head(tz.batch_norm(x, bn), y),
              {"x": x, "gamma": bn.gamma, "beta": bn.beta})

    for i in range(2):
        x = tz.Tensor(rng.uniform(-1, 1, size=(3, 6)))
        w = tz.Tensor(rng.uniform(-1, 1, size=(6, 4)))
        b = tz.Tensor(rng.uniform(-1, 1, size=4))
        y = rng.integers(0, 2, size=(3, 4)).astype(float)
        check(lambda: head(tz.dense(x, w, b), y), {"x": x, "w": w, "b": b})

    for i in range(2):
        raw = rng.uniform(-1, 1, size=(4, 5))
        raw += 0.2 * np.sign(raw)
        x = tz.Tensor(raw)
        y = rng.integers(0, 2, size=(4, 5)).astype(float)
        check(lambda: head(tz.relu(x), y), {"x": x})

    for i in range(2):
        a = tz.Tensor(rng.uniform(-1, 1, size=6))
        b = tz.Tensor(rng.uniform(-1, 1, size=6))
        seg = np.array([0, 0, 1, 1, 2, 2])
        y = rng.integers(0, 2, size=3).astype(float)
        check(lambda: head(tz.segment_max(tz.residual_add(a, b), seg, 3), y),
              {"a": a, "b": b})

    # full network instances (8 of the 20), dropout disabled
    for i in range(8):
        params = nnet.init_params(nnet.NNetConfig(dropout_rate=0.0, seed=100 + i))
        # three (3,28,28) patches, stacked channel-major
        planes = rng.uniform(0, 1, size=(3, 3, 28, 28)).transpose(1, 0, 2, 3)
        meta = rng.normal(size=(3, 5))
        segments = np.array([0, 0, 1])
        labels = np.array([1.0, 0.0])
        tensors = params.learnable()

        def loss():
            scores = nnet._forward_patch_batch(params, planes, meta)
            return tz.bce_loss(tz.segment_max(scores, segments, 2), labels)

        errs = tz.finite_difference_check(loss, tensors, h=h, samples_per_tensor=2,
                                          rng=np.random.default_rng(i), skip_kinks=True)
        worst = max(worst, max(errs.values()))

    elapsed = time.time() - started
    report(1, worst < tol and elapsed < 120,
           f"max relative error {worst:.3e} (tol {tol}), {elapsed:.0f}s (cap 120s)")


# ---------------------------------------------------------------------------
# criterion 2: architecture conformance


def _branch_score(params, patch):
    # a one-patch scan through a one-member ensemble whose metadata
    # statistics leave the metadata as it is
    identity = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    plans = [nnet.build_plan(nnet.FoldMember(params, identity))]
    return nnet.ensemble_predict(plans, [ScanExample(scan_id="b", patches=[patch], label=1)])[0]


def _layer_table(metadata_dim):
    """Per-branch activation shapes of the architecture, layer by layer."""
    return [
        ("input", (3, 28, 28)),
        ("conv1", (8, 28, 28)),
        ("conv2", (8, 28, 28)),
        ("conv3", (8, 28, 28)),
        ("conv_skip", (8, 28, 28)),
        ("merge", (8, 28, 28)),
        ("flatten", (8 * 28 * 28,)),
        ("dense1", (64,)),
        ("dense2", (64,)),
        ("concat", (64 + metadata_dim,)),
        ("dense_out", (1,)),
        ("output", ()),
    ]


def test_c2_architecture_conformance(layer_shapes):
    for metadata_dim in (5, 6):
        params = nnet.init_params(nnet.NNetConfig(metadata_dim=metadata_dim, seed=0))
        rng = np.random.default_rng(0)
        planes = rng.random((3, 1, 28, 28))
        meta = rng.normal(size=(1, metadata_dim))
        trace = layer_shapes(params, planes, meta)
        expected = _layer_table(metadata_dim)
        assert trace == expected, f"trace {trace} != manifest {expected}"
        conv_shapes = [s for name, s in trace if name.startswith("conv")]
        assert conv_shapes == [(8, 28, 28)] * 4
        assert dict(trace)["concat"] == (64 + metadata_dim,)

    # a scan's 10 branches pool into one scalar risk
    params = nnet.init_params(nnet.NNetConfig(seed=0))
    rng = np.random.default_rng(1)
    patches = [NodulePatch(planes=rng.random((3, 28, 28)), metadata=rng.normal(size=5))
               for _ in range(10)]
    ex = ScanExample(scan_id="s", patches=patches, label=1)
    identity = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    (risk,) = nnet.ensemble_predict([nnet.build_plan(nnet.FoldMember(params, identity))], [ex])
    assert isinstance(risk, float) and 0.0 < risk < 1.0
    report(2, True, "shape trace matches the layer table for metadata_dim 5 and 6")


# ---------------------------------------------------------------------------
# criterion 3: multi-instance invariants over 200 randomized cases


def test_c3_multi_instance_invariants():
    rng = np.random.default_rng(3)
    params = nnet.init_params(nnet.NNetConfig(seed=7))
    identity = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    plans = [nnet.build_plan(nnet.FoldMember(params, identity))]

    def scan_risk(patches):
        # one batched call scores every patch of the scan
        return nnet.ensemble_predict(plans, [ScanExample(scan_id="c", patches=patches,
                                                         label=1)])[0]

    sizes = set()
    for case in range(200):
        n = int(rng.integers(1, 10))
        sizes.add(n)
        patches = [NodulePatch(planes=rng.random((3, 28, 28)), metadata=rng.normal(size=5))
                   for _ in range(n)]
        risk = scan_risk(patches)

        # batch invariance: the batched risk is exactly the max of the
        # patches' one-at-a-time scores
        branch_scores = [_branch_score(params, p) for p in patches]
        assert risk == max(branch_scores)

        # exact permutation invariance
        assert scan_risk([patches[i] for i in rng.permutation(n)]) == risk

        # adding one patch: risk == max(old risk, new branch score)
        new_patch = NodulePatch(planes=rng.random((3, 28, 28)), metadata=rng.normal(size=5))
        assert scan_risk(patches + [new_patch]) == max(risk, _branch_score(params, new_patch))
    report(3, sizes == set(range(1, 10)),
           f"batched risk == max of single-patch scores for bag sizes {sorted(sizes)}; "
           f"permutation and added-patch composition exact")


# ---------------------------------------------------------------------------
# criterion 4: AUC dual oracle + operating points vs exhaustive enumeration


def _pair_count_auc(scores, labels):
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.size * neg.size)


def _trapezoid_auc(curve):
    # trapezoidal area under a tie-grouped ROC curve
    fpr, tpr = curve.fpr, curve.tpr
    return float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))


def test_c4_auc_dual_oracle_and_operating_points():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(4, 501))
        scores = np.round(rng.random(n), 2)  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        c = ev.ScoredCohort(scan_ids=[f"s{j}" for j in range(n)], scores=scores, labels=labels)
        a = ev.auc(c)
        worst = max(worst, abs(a - _pair_count_auc(scores, labels)))
        worst = max(worst, abs(a - _trapezoid_auc(ev.roc_curve(c))))
    assert worst < 1e-12

    mismatches = 0
    for i in range(60):
        n = int(rng.integers(4, 101))
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        c = ev.ScoredCohort(scan_ids=[f"s{j}" for j in range(n)], scores=scores, labels=labels)
        for spec_t in (0.0, 0.5, 0.8, 0.95):
            thresholds = np.r_[np.unique(scores), scores.max() + 1.0]
            sens = np.array([np.mean(scores[labels == 1] >= t) for t in thresholds])
            spec = np.array([np.mean(scores[labels == 0] < t) for t in thresholds])
            want_sens = sens[np.flatnonzero(spec >= spec_t)[0]]
            want_spec = spec[np.flatnonzero(sens >= spec_t)[-1]] if np.any(sens >= spec_t) else None
            if ev.sensitivity_at_specificity(c, spec_t) != want_sens:
                mismatches += 1
            if want_spec is not None and ev.specificity_at_sensitivity(c, spec_t) != want_spec:
                mismatches += 1
    report(4, worst < 1e-12 and mismatches == 0,
           f"max AUC oracle deviation {worst:.2e}; operating-point mismatches {mismatches}")


# ---------------------------------------------------------------------------
# criterion 5: permutation test exactness, reproducibility, power; <3 min


def test_c5_permutation_test():
    started = time.time()
    rng = np.random.default_rng(5)

    # identical cohorts -> exactly 1.0
    scores = rng.random(80)
    labels = rng.integers(0, 2, size=80)
    labels[:2] = [0, 1]
    a = ev.ScoredCohort(scan_ids=[f"s{i}" for i in range(80)], scores=scores, labels=labels)
    b = ev.ScoredCohort(scan_ids=[f"s{i}" for i in range(80)], scores=scores.copy(), labels=labels)
    p_same = ev.permutation_test_auc(a, b, n_perm=1000, rng=np.random.default_rng(0))
    assert p_same == 1.0

    # fixed seed -> identical p-value
    b2 = ev.ScoredCohort(scan_ids=a.scan_ids, scores=scores + rng.normal(0, 0.3, 80),
                         labels=labels)
    p1 = ev.permutation_test_auc(a, b2, n_perm=500, rng=np.random.default_rng(7))
    p2 = ev.permutation_test_auc(a, b2, n_perm=500, rng=np.random.default_rng(7))
    assert p1 == p2

    # power: engineered paired cohorts, observed AUC gap >= 0.05, n=200
    n = 200
    hits = 0
    trials = 0
    trial_rng = np.random.default_rng(55)
    while trials < 100:
        labels = np.repeat([0, 1], n // 2)
        latent = trial_rng.normal(size=n) + 1.8 * labels
        sa = latent + trial_rng.normal(0, 0.25, n)
        sb = latent + trial_rng.normal(0, 1.7, n)
        ca = ev.ScoredCohort(scan_ids=[f"s{i}" for i in range(n)], scores=sa, labels=labels)
        cb = ev.ScoredCohort(scan_ids=[f"s{i}" for i in range(n)], scores=sb, labels=labels)
        if ev.auc(ca) - ev.auc(cb) < 0.05:
            continue  # condition: gap at least 0.05
        trials += 1
        p = ev.permutation_test_auc(ca, cb, n_perm=1000,
                                    rng=np.random.default_rng(1000 + trials))
        if p < 0.05:
            hits += 1
    elapsed = time.time() - started
    report(5, p_same == 1.0 and hits >= 95 and elapsed < 180,
           f"identical p=1.0 exact; power {hits}/100; {elapsed:.0f}s (cap 180s)")


# ---------------------------------------------------------------------------
# criterion 7: overfit sanity (checked before the long end-to-end run)


def test_c7_overfit_sanity():
    rng = np.random.default_rng(7)
    examples = []
    for i in range(8):
        label = i % 2
        planes = rng.random((3, 28, 28)) * 0.25 + 0.55 * label
        meta = rng.normal(size=5) + np.r_[3.0 * label, np.zeros(4)]
        patches = [NodulePatch(planes=planes, metadata=meta)]
        examples.append(ScanExample(scan_id=f"t{i}", patches=patches, label=label))
    config = nnet.NNetConfig(dropout_rate=0.0, learning_rate=1e-2, epochs=500,
                             batch_size=2, seed=77)
    result = nnet.train(config, examples)
    final = result.loss_history[-1]
    report(7, final < 0.05, f"mean BCE after {config.epochs} epochs: {final:.4f} (< 0.05)")


# ---------------------------------------------------------------------------
# criterion 8: PanCan conformance


def test_c8_pancan_conformance():
    zero = pancan.PanCanWeights(values={k: 0.0 for k in pancan.WEIGHT_KEYS})
    f = pancan.PanCanFeatures(age=60, sex="female", family_history=False, emphysema=False,
                              nodule_count=1, diameter_mm=8.0, nodule_type="solid",
                              upper_lobe=False, spiculation=False)
    dev_zero = abs(pancan.nodule_score(f, zero) - 0.5)
    ln9 = pancan.PanCanWeights(values={k: 0.0 for k in pancan.WEIGHT_KEYS},
                               intercept=float(np.log(9.0)))
    dev_ln9 = abs(pancan.nodule_score(f, ln9) - 0.9)

    rng = np.random.default_rng(8)
    weights = pancan.load_weights(pancan.placeholder_weights_path())
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        nodules = [pancan.PanCanFeatures(
            age=float(rng.integers(50, 81)),
            sex="male" if rng.random() < 0.5 else "female",
            family_history=bool(rng.random() < 0.3),
            emphysema=bool(rng.random() < 0.3),
            nodule_count=n,
            diameter_mm=float(rng.uniform(2, 25)),
            nodule_type=str(rng.choice(["solid", "part_solid", "nonsolid"])),
            upper_lobe=bool(rng.random() < 0.5),
            spiculation=bool(rng.random() < 0.3),
        ) for _ in range(n)]
        base = pancan.patient_score(nodules, weights)
        extra = nodules[int(rng.integers(0, n))]
        if pancan.patient_score(nodules + [extra], weights) < base:
            violations += 1
    report(8, dev_zero < 1e-12 and dev_ln9 < 1e-12 and violations == 0,
           f"zero-weight dev {dev_zero:.1e}, ln9 dev {dev_ln9:.1e}, "
           f"monotonicity violations {violations}/1000")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns and weight-file integrity


def test_c9_reproducibility(tmp_path):
    data = tmp_path / "data"
    assert run_cli(["simulate", "--n", 30, "--prevalence", 0.3, "--seed", 90,
                    "--out", data, "--dims", 72]) == 0

    outputs = []
    for tag in ("r1", "r2"):
        model = tmp_path / f"model_{tag}"
        scores = tmp_path / f"scores_{tag}.csv"
        rep = tmp_path / f"rep_{tag}"
        assert run_cli(["train", "--data", data, "--folds", 2, "--dropout", 0.25,
                        "--epochs", 2, "--seed", 17, "--out", model]) == 0
        assert run_cli(["score", "--model", model, "--data", data, "--out", scores]) == 0
        assert run_cli(["eval", "--scores", scores, "--labels", data / "labels.csv",
                        "--out", rep]) == 0
        outputs.append((scores.read_bytes(),
                        rep.with_name(rep.name + "_report.csv").read_bytes(),
                        rep.with_name(rep.name + "_roc.csv").read_bytes(),
                        (model / "fold0.lrnn").read_bytes()))
    identical = outputs[0] == outputs[1]

    # weight round trip is bit-exact and checksums are enforced
    model_file = tmp_path / "model_r1" / "fold0.lrnn"
    member = nnet.load_member(model_file)
    resaved = tmp_path / "resaved.lrnn"
    nnet.save_params(member.params, resaved, member.metadata_stats)
    round_trip = resaved.read_bytes() == model_file.read_bytes()
    blob = bytearray(model_file.read_bytes())
    blob[len(blob) // 3] ^= 0x01
    corrupted = tmp_path / "corrupt.lrnn"
    corrupted.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        nnet.load_member(corrupted)
    report(9, identical and round_trip,
           f"rerun outputs byte-identical: {identical}; save/load bit-exact: {round_trip}; "
           f"checksum enforced")


# ---------------------------------------------------------------------------
# criterion 6: the full synthetic end-to-end experiment (slow)


def test_c6_end_to_end_synthetic_experiment(tmp_path):
    started = time.time()
    data = tmp_path / "data"
    model = tmp_path / "model"
    assert run_cli(["simulate", "--n", 500, "--prevalence", 0.2, "--seed", 20250,
                    "--out", data]) == 0
    labels = fileio.read_labels_csv(data / "labels.csv")
    ids = sorted(labels)
    train_list = tmp_path / "train_scans.txt"
    test_list = tmp_path / "test_scans.txt"
    train_list.write_text("\n".join(ids[:400]) + "\n")
    test_list.write_text("\n".join(ids[400:]) + "\n")

    assert run_cli(["train", "--data", data, "--folds", 5, "--dropout", 0.25,
                    "--lr", 1e-3, "--epochs", 40, "--batch-size", 8, "--seed", 11,
                    "--out", model, "--scans", train_list]) == 0
    nnet_scores_csv = tmp_path / "nnet_scores.csv"
    assert run_cli(["score", "--model", model, "--data", data,
                    "--scans", test_list, "--out", nnet_scores_csv]) == 0

    pancan_csv = tmp_path / "pancan_scores.csv"
    assert run_cli(["pancan", "--weights", pancan.placeholder_weights_path(),
                    "--features", data / "pancan_features.csv",
                    "--scans", test_list, "--out", pancan_csv]) == 0

    nn_scores = fileio.read_scores_csv(nnet_scores_csv)
    pan_scores = fileio.read_scores_csv(pancan_csv)
    nn_auc = ev.auc(ev.ScoredCohort.from_dicts(nn_scores, labels))
    pan_auc = ev.auc(ev.ScoredCohort.from_dicts(pan_scores, labels))
    elapsed = time.time() - started
    ok = nn_auc >= 0.85 and nn_auc >= pan_auc - 0.05 and elapsed <= 15 * 60
    report(6, ok,
           f"ensemble AUC {nn_auc:.4f} (>= 0.85), PanCan AUC {pan_auc:.4f} "
           f"(margin {nn_auc - pan_auc + 0.05:+.4f} vs -0.05), {elapsed:.0f}s (cap 900s)")
