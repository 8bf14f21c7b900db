"""The benchmark's output checks accept what the program writes and reject
deliberately corrupted copies of it.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracles.py -q
"""

import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from oracles import CheckFailed  # noqa: E402

from lungrisk import cli, nnet, pancan  # noqa: E402

WEIGHTS = pancan.placeholder_weights_path()


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A small phantom cohort with PanCan scores, an eval report and a comparison."""
    d = tmp_path_factory.mktemp("cohort")
    data = d / "data"
    run("simulate", "--n", 24, "--prevalence", 0.35, "--seed", 5, "--out", data, "--dims", 48)
    run("pancan", "--weights", WEIGHTS, "--features", data / "pancan_features.csv",
        "--out", d / "pancan.csv")
    run("eval", "--scores", d / "pancan.csv", "--labels", data / "labels.csv",
        "--out", d / "report")
    rows = oracles.read_rows(data / "ground_truth.csv")
    (d / "risk.csv").write_text("scan_id,score\n" + "".join(
        f"{r['scan_id']},{r['risk']}\n" for r in rows))
    run("compare", "--a", d / "pancan.csv", "--b", d / "risk.csv", "--labels",
        data / "labels.csv", "--perms", 200, "--seed", 1, "--out", d / "compare.csv")
    return d


def scores_of(path):
    return {r["scan_id"]: float(r["score"]) for r in oracles.read_rows(path)}


def write_scores(path, scores):
    path.write_text("scan_id,score\n" + "".join(f"{k},{v!r}\n" for k, v in scores.items()))


def test_pairwise_auc_counts_pairs_and_ties():
    assert oracles.pairwise_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert oracles.pairwise_auc([0.5, 0.5], [0, 1]) == 0.5


def test_eval_report_accepted_then_rejected_with_a_flipped_label(cohort):
    data = cohort / "data"
    labels = oracles.read_labels(data / "labels.csv")
    scores = scores_of(cohort / "pancan.csv")
    oracles.check_eval_report(cohort / "report_report.csv", cohort / "report_roc.csv",
                              scores, labels)
    flipped = dict(labels)
    sid = next(s for s in sorted(labels) if labels[s] == 1)
    flipped[sid] = 0
    with pytest.raises(CheckFailed):
        oracles.check_eval_report(cohort / "report_report.csv", cohort / "report_roc.csv",
                                  scores, flipped)


def test_eval_report_rejects_a_perturbed_roc_curve(cohort, tmp_path):
    labels = oracles.read_labels(cohort / "data" / "labels.csv")
    rows = oracles.read_rows(cohort / "report_roc.csv")
    rows[len(rows) // 2]["tpr"] = str(float(rows[len(rows) // 2]["tpr"]) * 0.5)
    roc = tmp_path / "roc.csv"
    roc.write_text("fpr,tpr,threshold\n" + "".join(
        f"{r['fpr']},{r['tpr']},{r['threshold']}\n" for r in rows))
    with pytest.raises(CheckFailed):
        oracles.check_eval_report(cohort / "report_report.csv", roc,
                                  scores_of(cohort / "pancan.csv"), labels)


def test_p_value_form(cohort):
    p = {r["metric"]: float(r["value"]) for r in oracles.read_rows(cohort / "compare.csv")}
    oracles.check_p_value(p["p_value"], 200)
    with pytest.raises(CheckFailed):
        oracles.check_p_value(p["p_value"] + 1e-3, 200)
    with pytest.raises(CheckFailed):
        oracles.check_p_value(p["p_value"], 10_000)


def test_labels_must_follow_nodules_and_a_flipped_one_is_rejected(cohort):
    data = cohort / "data"
    labels = oracles.read_labels(data / "labels.csv")
    oracles.check_labels_follow_nodules(labels, data / "nodule_truth.csv")
    sid = sorted(labels)[0]
    with pytest.raises(CheckFailed):
        oracles.check_labels_follow_nodules({**labels, sid: 1 - labels[sid]},
                                            data / "nodule_truth.csv")


def test_prevalence_bound_rejects_flipped_labels():
    labels = {f"s{i}": int(i < 80) for i in range(400)}
    oracles.check_prevalence(labels, 0.2)
    with pytest.raises(CheckFailed):
        oracles.check_prevalence({s: 1 - y for s, y in labels.items()}, 0.2)


def test_volume_check_rejects_a_truncated_volume(cohort, tmp_path):
    original = sorted((cohort / "data" / "volumes").glob("*.lrvol"))[0]
    oracles.check_volume_file(original)
    truncated = tmp_path / "short.lrvol"
    truncated.write_bytes(original.read_bytes()[:-2])
    with pytest.raises(CheckFailed):
        oracles.check_volume_file(truncated)
    renamed = tmp_path / "magic.lrvol"
    renamed.write_bytes(b"LRVOL2" + original.read_bytes()[6:])
    with pytest.raises(CheckFailed):
        oracles.check_volume_file(renamed)


def test_pancan_reference_matches_and_rejects_a_perturbed_score(cohort):
    written = scores_of(cohort / "pancan.csv")
    expected = oracles.pancan_reference(WEIGHTS, cohort / "data" / "pancan_features.csv")
    oracles.check_scores_match(written, expected, 1e-12, "PanCan")
    sid = sorted(written)[3]
    written[sid] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed):
        oracles.check_scores_match(written, expected, 1e-12, "PanCan")


def test_score_file_rejects_bad_scores(tmp_path):
    good = {"a": 0.2, "b": 0.7}
    path = tmp_path / "s.csv"
    write_scores(path, good)
    assert oracles.check_score_file(path, ["a", "b"]) == good
    for bad in ({"a": 0.2, "b": 1.0}, {"a": math.nan, "b": 0.7}, {"a": 0.2}):
        write_scores(path, bad)
        with pytest.raises(CheckFailed):
            oracles.check_score_file(path, ["a", "b"])
    path.write_text("scan_id,score\na,0.2\nb,0.7\nb,0.7\n")
    with pytest.raises(CheckFailed):
        oracles.check_score_file(path, ["a", "b"])


def test_training_loss_check(tmp_path):
    path = tmp_path / "loss.csv"
    path.write_text("fold,epoch,loss\n0,0,0.7\n0,1,0.5\n1,0,0.69\n1,1,0.6\n")
    oracles.check_training_loss(path, folds=2, epochs=2)
    for bad in ("0,0,0.7\n0,1,0.8\n1,0,0.69\n1,1,0.6\n",
                "0,0,0.7\n0,1,nan\n1,0,0.69\n1,1,0.6\n",
                "0,0,0.7\n0,1,0.5\n"):
        path.write_text("fold,epoch,loss\n" + bad)
        with pytest.raises(CheckFailed):
            oracles.check_training_loss(path, folds=2, epochs=2)


def test_auc_against_pancan():
    labels = {"a": 0, "b": 0, "c": 1, "d": 1}
    good = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
    oracles.check_auc_against_pancan(good, good, labels)
    worse = {"a": 0.4, "b": 0.2, "c": 0.3, "d": 0.1}
    with pytest.raises(CheckFailed):
        oracles.check_auc_against_pancan(worse, good, labels)


@pytest.fixture(scope="module")
def scored(cohort, tmp_path_factory):
    """A two-member ensemble with non-trivial batch-norm statistics, and its scores."""
    d = tmp_path_factory.mktemp("scored")
    rng = np.random.default_rng(3)
    config = nnet.NNetConfig(seed=4)
    members = []
    for _ in range(2):
        params = nnet.init_params(config, rng)
        for state in params.bn.values():
            state.running_mean[:] = rng.normal(0, 0.5, state.running_mean.size)
            state.running_var[:] = rng.uniform(0.5, 2.0, state.running_var.size)
            state.gamma.data[:] = rng.uniform(0.5, 1.5, state.gamma.size)
        stats = nnet.MetadataStats(mean=rng.normal(30, 5, 5), std=rng.uniform(1, 10, 5))
        members.append(nnet.FoldMember(params, stats))
    nnet.save_ensemble(nnet.FoldEnsemble(members), d / "model")
    run("score", "--model", d / "model", "--data", cohort / "data", "--out", d / "scores.csv")
    return d


def test_reference_forward_reproduces_scores_and_rejects_a_perturbed_one(cohort, scored):
    data = cohort / "data"
    scores = scores_of(scored / "scores.csv")
    members = [oracles.read_weights(f) for f in sorted((scored / "model").glob("fold*.lrnn"))]
    candidates = oracles.read_candidates(data / "candidates.csv")
    ref = oracles.reference_scan_scores(members, {
        s: (data / "volumes" / f"{s}.lrvol", candidates[s])
        for s in sorted(scores)})
    oracles.check_scores_match(scores, ref, 1e-10, "reference")
    sid = sorted(scores)[0]
    scores[sid] += 1e-8
    with pytest.raises(CheckFailed):
        oracles.check_scores_match(scores, ref, 1e-10, "reference")


def test_weight_reader_rejects_a_flipped_byte(scored, tmp_path):
    fold = sorted((scored / "model").glob("fold*.lrnn"))[0]
    arrays = oracles.read_weights(fold)
    assert arrays["dense1.weights"].shape == (6272, 64)
    blob = bytearray(fold.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    corrupt = tmp_path / "fold0.lrnn"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(CheckFailed):
        oracles.read_weights(corrupt)


def test_tree_digest_sees_a_changed_byte(cohort, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(cohort / "data", copy)
    assert oracles.sha256_tree(copy) == oracles.sha256_tree(cohort / "data")
    labels = copy / "labels.csv"
    labels.write_text(labels.read_text().replace(",0\n", ",1\n", 1))
    assert oracles.sha256_tree(copy) != oracles.sha256_tree(cohort / "data")
