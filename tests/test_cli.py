import hashlib
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from lungrisk import cli, fileio, nnet, pancan
from lungrisk.pancan import placeholder_weights_path


def run(argv):
    return cli.main([str(a) for a in argv])


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    """A tiny simulated dataset shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli_data")
    data = root / "data"
    assert run(["simulate", "--n", 24, "--prevalence", 0.35, "--seed", 99,
                "--out", data, "--dims", 72]) == 0
    return data


@pytest.fixture(scope="module")
def small_model(small_data, tmp_path_factory):
    model = tmp_path_factory.mktemp("cli_model") / "model"
    assert run(["train", "--data", small_data, "--folds", 2, "--dropout", 0.25,
                "--epochs", 2, "--seed", 1, "--out", model]) == 0
    return model


# ---------------------------------------------------------------------------
# simulate


def test_simulate_outputs(small_data):
    assert (small_data / "candidates.csv").exists()
    assert (small_data / "labels.csv").exists()
    assert (small_data / "manifest.txt").exists()
    labels = fileio.read_labels_csv(small_data / "labels.csv")
    assert len(labels) == 24
    assert len(list((small_data / "volumes").glob("*.lrvol"))) == 24


def test_simulate_rerun_identical_manifest(small_data, tmp_path):
    out = tmp_path / "again"
    assert run(["simulate", "--n", 24, "--prevalence", 0.35, "--seed", 99,
                "--out", out, "--dims", 72]) == 0
    assert file_hash(out / "manifest.txt") == file_hash(small_data / "manifest.txt")
    assert file_hash(out / "candidates.csv") == file_hash(small_data / "candidates.csv")


def test_simulate_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--n", 5, "--prevalence", 0.2, "--out", tmp_path / "x"])
    assert exc.value.code == 2


def test_simulate_bad_prevalence_is_usage_error(tmp_path):
    assert run(["simulate", "--n", 5, "--prevalence", 1.5, "--seed", 1,
                "--out", tmp_path / "x"]) == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# train


def test_train_writes_fold_files_and_logs(small_model):
    folds = sorted(p.name for p in small_model.glob("fold*.lrnn"))
    assert folds == ["fold0.lrnn", "fold1.lrnn"]
    loss = (small_model / "training_loss.csv").read_text().splitlines()
    assert loss[0] == "fold,epoch,loss"
    assert len(loss) == 1 + 2 * 2  # 2 folds x 2 epochs
    assert "dropout_rate=0.25" in (small_model / "resolved_config.txt").read_text()


def test_train_rejects_dropout_one(small_data, tmp_path):
    assert run(["train", "--data", small_data, "--folds", 1, "--dropout", 1.0,
                "--epochs", 1, "--seed", 1, "--out", tmp_path / "m"]) == cli.EXIT_USAGE


def test_train_accepts_high_dropout_regime(small_data, tmp_path):
    assert run(["train", "--data", small_data, "--folds", 1, "--dropout", 0.9,
                "--epochs", 1, "--seed", 1, "--out", tmp_path / "m"]) == 0


def test_train_data_consistency_error_lists_offenders(small_data, tmp_path, capsys):
    data = tmp_path / "broken"
    data.mkdir()
    (data / "volumes").symlink_to(small_data / "volumes")
    (data / "candidates.csv").write_text(
        (small_data / "candidates.csv").read_text())
    labels = fileio.read_labels_csv(small_data / "labels.csv")
    dropped = sorted(labels)[0]
    del labels[dropped]
    fileio.write_labels_csv(data / "labels.csv", labels)
    code = run(["train", "--data", data, "--folds", 1, "--epochs", 1,
                "--seed", 1, "--out", tmp_path / "m"])
    assert code == cli.EXIT_DATA
    assert dropped in capsys.readouterr().err


def test_train_fold_lacking_a_class_is_usage_error(small_data, tmp_path, capsys):
    # one positive scan: the fold holding it out trains on negatives alone
    labels = fileio.read_labels_csv(small_data / "labels.csv")
    positive = min(sid for sid, label in labels.items() if label == 1)
    negatives = sorted(sid for sid, label in labels.items() if label == 0)[:5]
    scans = tmp_path / "scans.txt"
    scans.write_text("\n".join([positive] + negatives) + "\n")
    code = run(["train", "--data", small_data, "--folds", 2, "--epochs", 1, "--seed", 1,
                "--scans", scans, "--out", tmp_path / "m"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "both classes" in err and err.count("\n") == 1, err


def test_train_worker_death_is_one_line_io_error(small_data, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(nnet, "_WORKER_ENTRY", "import os; os._exit(9)")
    code = run(["train", "--data", small_data, "--folds", 2, "--epochs", 1, "--seed", 1,
                "--out", tmp_path / "m"])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "fold worker exited with status 9" in err and err.count("\n") == 1, err


# Run as a child: `pin` limits it to one CPU before anything is imported.
TRAIN_CHILD = """
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from lungrisk import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def test_train_bytes_do_not_depend_on_blas_threads_or_cpus(small_data, tmp_path):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    outputs = []
    for tag, pin, blas in [("blas1", "all", {"OPENBLAS_NUM_THREADS": "1"}),
                           ("default", "all", {}), ("one-cpu", "pin", {})]:
        model = tmp_path / tag
        subprocess.run([sys.executable, "-c", TRAIN_CHILD, pin, "train", "--data", str(small_data),
                        "--folds", "3", "--epochs", "3", "--batch-size", "8", "--seed", "1",
                        "--out", str(model)], env={**env, **blas}, check=True, timeout=600,
                       stdout=subprocess.DEVNULL)
        outputs.append({p.name: p.read_bytes() for p in sorted(model.iterdir())})
    assert sorted(outputs[0]) == ["fold0.lrnn", "fold1.lrnn", "fold2.lrnn",
                                  "resolved_config.txt", "training_loss.csv"]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_train_config_file_with_flag_override(small_data, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\ndropout_rate=0.5\nbatch_size=8\n")
    model = tmp_path / "m"
    assert run(["train", "--data", small_data, "--folds", 1, "--seed", 2,
                "--config", cfg, "--out", model]) == 0
    resolved = (model / "resolved_config.txt").read_text()
    assert "dropout_rate=0.5" in resolved and "epochs=1" in resolved


# ---------------------------------------------------------------------------
# score


def test_score_deterministic_and_in_range(small_data, small_model, tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert run(["score", "--model", small_model, "--data", small_data, "--out", out1]) == 0
    assert run(["score", "--model", small_model, "--data", small_data, "--out", out2]) == 0
    assert file_hash(out1) == file_hash(out2)
    scores = fileio.read_scores_csv(out1)
    assert len(scores) == 24
    assert all(0.0 <= v <= 1.0 for v in scores.values())


def test_score_threads_do_not_change_results(small_data, small_model, tmp_path):
    out1 = tmp_path / "t1.csv"
    out4 = tmp_path / "t4.csv"
    assert run(["score", "--model", small_model, "--data", small_data, "--out", out1,
                "--threads", 1]) == 0
    assert run(["score", "--model", small_model, "--data", small_data, "--out", out4,
                "--threads", 4]) == 0
    assert file_hash(out1) == file_hash(out4)


def test_score_unknown_scan_id_is_explicit_error(small_data, small_model, tmp_path, capsys):
    scan_list = tmp_path / "scans.txt"
    scan_list.write_text("scan_00000\nno_such_scan\n")
    code = run(["score", "--model", small_model, "--data", small_data,
                "--out", tmp_path / "s.csv", "--scans", scan_list])
    assert code == cli.EXIT_DATA
    assert "no_such_scan" in capsys.readouterr().err


def test_score_checksum_failure_is_io_error(small_data, small_model, tmp_path):
    broken = tmp_path / "broken_model"
    broken.mkdir()
    for p in small_model.glob("fold*.lrnn"):
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (broken / p.name).write_bytes(bytes(blob))
    assert run(["score", "--model", broken, "--data", small_data,
                "--out", tmp_path / "s.csv"]) == cli.EXIT_IO


def test_score_candidate_outside_volume_is_data_error(small_data, small_model, tmp_path, capsys):
    data = tmp_path / "moved"
    data.mkdir()
    (data / "volumes").symlink_to(small_data / "volumes")
    (data / "labels.csv").symlink_to(small_data / "labels.csv")
    lines = (small_data / "candidates.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = "5000.0"
    (data / "candidates.csv").write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    code = run(["score", "--model", small_model, "--data", data, "--out", tmp_path / "s.csv"])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "(5000.0, " in err and "np." not in err and err.count("\n") == 1, err


def _set_dims(blob: bytes, name: str, dims) -> bytes:
    """A weight file whose manifest gives array `name` the shape `dims`
    (same rank), with its checksum recomputed."""
    blob = bytearray(blob[:-4])
    off = len(nnet.WEIGHTS_MAGIC) + 6
    while True:
        (name_len,) = struct.unpack_from("<H", blob, off)
        entry = blob[off + 2:off + 2 + name_len].decode()
        off += 2 + name_len
        ndim = blob[off]
        if entry == name:
            assert ndim == len(dims)
            struct.pack_into(f"<{ndim}i", blob, off + 1, *dims)
            return bytes(blob) + struct.pack("<I", zlib.crc32(bytes(blob)))
        off += 1 + 4 * ndim


@pytest.mark.parametrize("name, dims", [
    pytest.param("conv1.bias", (-1,), id="minus-one"),
    pytest.param("conv1.bias", (-8,), id="negative"),
    pytest.param("dense2.weights", (-64, -64), id="two-negatives"),
])
def test_score_weight_manifest_with_negative_dims_is_format_error(
        name, dims, small_data, small_model, tmp_path, capsys):
    model = tmp_path / "model"
    model.mkdir()
    (model / "fold0.lrnn").write_bytes(_set_dims((small_model / "fold0.lrnn").read_bytes(),
                                                 name, dims))
    code = run(["score", "--model", model, "--data", small_data, "--out", tmp_path / "s.csv"])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "negative dimension" in err and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# eval / compare / pancan


def test_eval_prints_auc_and_writes_reports(small_data, small_model, tmp_path, capsys):
    scores_csv = tmp_path / "scores.csv"
    run(["score", "--model", small_model, "--data", small_data, "--out", scores_csv])
    capsys.readouterr()
    code = run(["eval", "--scores", scores_csv, "--labels", small_data / "labels.csv",
                "--out", tmp_path / "rep"])
    assert code == 0
    out = capsys.readouterr().out
    assert "AUC: 0." in out or "AUC: 1." in out
    assert (tmp_path / "rep_report.csv").exists()
    assert (tmp_path / "rep_roc.csv").exists()


def test_eval_group_by_lungrads_adds_rows(small_data, small_model, tmp_path, capsys):
    scores_csv = tmp_path / "scores.csv"
    run(["score", "--model", small_model, "--data", small_data, "--out", scores_csv])
    code = run(["eval", "--scores", scores_csv, "--labels", small_data / "labels.csv",
                "--group-by", "lungrads", "--candidates", small_data / "candidates.csv",
                "--out", tmp_path / "rep"])
    assert code == 0
    report = (tmp_path / "rep_report.csv").read_text()
    assert "lungrads_" in report


def test_eval_degenerate_cohort_diagnostic(tmp_path, capsys):
    fileio.write_scores_csv(tmp_path / "s.csv", {"a": 0.5, "b": 0.6})
    fileio.write_labels_csv(tmp_path / "l.csv", {"a": 1, "b": 1})
    code = run(["eval", "--scores", tmp_path / "s.csv", "--labels", tmp_path / "l.csv"])
    assert code == cli.EXIT_DATA
    assert "both classes" in capsys.readouterr().err


def test_compare_p_value_and_reproducibility(small_data, tmp_path, capsys):
    labels = fileio.read_labels_csv(small_data / "labels.csv")
    rng = np.random.default_rng(0)
    good = {sid: 0.8 * label + 0.2 * rng.random() for sid, label in labels.items()}
    bad = {sid: rng.random() for sid in labels}
    fileio.write_scores_csv(tmp_path / "good.csv", good)
    fileio.write_scores_csv(tmp_path / "bad.csv", bad)
    code = run(["compare", "--a", tmp_path / "good.csv", "--b", tmp_path / "bad.csv",
                "--labels", small_data / "labels.csv", "--perms", 500, "--seed", 3,
                "--out", tmp_path / "cmp.csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "p-value" in out
    first = (tmp_path / "cmp.csv").read_text()
    run(["compare", "--a", tmp_path / "good.csv", "--b", tmp_path / "bad.csv",
         "--labels", small_data / "labels.csv", "--perms", 500, "--seed", 3,
         "--out", tmp_path / "cmp.csv"])
    assert (tmp_path / "cmp.csv").read_text() == first


def test_pancan_max_vs_mean_and_single_nodule_identity(small_data, tmp_path):
    features_csv = small_data / "pancan_features.csv"
    max_csv = tmp_path / "max.csv"
    mean_csv = tmp_path / "mean.csv"
    assert run(["pancan", "--weights", placeholder_weights_path(), "--features",
                features_csv, "--agg", "max", "--out", max_csv]) == 0
    assert run(["pancan", "--weights", placeholder_weights_path(), "--features",
                features_csv, "--agg", "mean", "--out", mean_csv]) == 0
    smax = fileio.read_scores_csv(max_csv)
    smean = fileio.read_scores_csv(mean_csv)
    features = pancan.read_features_csv(features_csv)
    multi = [sid for sid, nods in features.items() if len(nods) > 1]
    single = [sid for sid, nods in features.items() if len(nods) == 1]
    assert any(smax[sid] != smean[sid] for sid in multi)
    assert all(smax[sid] == smean[sid] for sid in single)


def test_pancan_zero_weight_file_scores_half(small_data, tmp_path):
    weights = pancan.PanCanWeights(values={k: 0.0 for k in pancan.WEIGHT_KEYS})
    wpath = tmp_path / "zero.txt"
    pancan.save_weights(weights, wpath)
    out = tmp_path / "s.csv"
    assert run(["pancan", "--weights", wpath, "--features",
                small_data / "pancan_features.csv", "--out", out]) == 0
    assert all(v == 0.5 for v in fileio.read_scores_csv(out).values())


def test_pancan_missing_weight_key_is_usage_error(small_data, tmp_path, capsys):
    wpath = tmp_path / "partial.txt"
    wpath.write_text("version=1\nage=0.1\n")
    code = run(["pancan", "--weights", wpath, "--features",
                small_data / "pancan_features.csv", "--out", tmp_path / "s.csv"])
    assert code == cli.EXIT_USAGE
    assert "diameter_mm" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bad input ends in a documented exit code and a one-line message

GOOD_SCORES = {"a": "0.2", "b": "0.7", "c": "0.4", "d": "0.9"}
GOOD_LABELS = {"a": "0", "b": "1", "c": "0", "d": "1"}


def write_csv(path, column, rows):
    path.write_text(f"scan_id,{column}\n" + "".join(f"{k},{v}\n" for k, v in rows.items()))
    return path


@pytest.mark.parametrize("command, bad_scores, bad_labels, flags, env, expected", [
    pytest.param("eval", {}, {"b": "x"}, [], {}, cli.EXIT_IO, id="eval-label-not-integer"),
    pytest.param("compare", {}, {"c": "0.5"}, [], {}, cli.EXIT_IO,
                 id="compare-label-not-integer"),
    pytest.param("eval", {"b": "high"}, {}, [], {}, cli.EXIT_IO, id="eval-score-not-number"),
    pytest.param("eval", {"b": "nan"}, {}, [], {}, cli.EXIT_NUMERIC, id="eval-score-nan"),
    pytest.param("eval", {"a": "-inf"}, {}, [], {}, cli.EXIT_NUMERIC, id="eval-score-minus-inf"),
    pytest.param("compare", {"d": "inf"}, {}, [], {}, cli.EXIT_NUMERIC, id="compare-score-inf"),
    pytest.param("compare", {"e": "0.5"}, {"e": "1"}, [], {}, cli.EXIT_DATA,
                 id="compare-different-scans"),
    pytest.param("eval", {}, {}, ["--spec", "1.5"], {}, cli.EXIT_USAGE, id="eval-spec-above-one"),
    pytest.param("eval", {}, {}, ["--spec", "-0.1"], {}, cli.EXIT_USAGE, id="eval-spec-negative"),
    pytest.param("eval", {}, {}, ["--sens", "1.5"], {}, cli.EXIT_USAGE, id="eval-sens-above-one"),
    pytest.param("eval", {}, {}, ["--sens", "nan"], {}, cli.EXIT_USAGE, id="eval-sens-nan"),
    pytest.param("score", {}, {}, [], {"LUNGRISK_THREADS": "two"}, cli.EXIT_USAGE,
                 id="score-threads-not-integer"),
])
def test_bad_input_exits_with_documented_code(command, bad_scores, bad_labels, flags, env,
                                              expected, tmp_path, monkeypatch, capsys, request):
    scores = write_csv(tmp_path / "scores.csv", "score", {**GOOD_SCORES, **bad_scores})
    labels = write_csv(tmp_path / "labels.csv", "label", {**GOOD_LABELS, **bad_labels})
    if command == "eval":
        argv = ["eval", "--scores", scores, "--labels", labels]
    elif command == "compare":
        other = write_csv(tmp_path / "other.csv", "score", GOOD_SCORES)
        argv = ["compare", "--a", scores, "--b", other, "--labels", labels,
                "--perms", 10, "--seed", 0]
    else:
        argv = ["score", "--model", request.getfixturevalue("small_model"),
                "--data", request.getfixturevalue("small_data"), "--out", tmp_path / "out.csv"]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run(argv + flags) == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
