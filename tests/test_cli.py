import contextlib
import csv
import ctypes
import hashlib
import io
import os
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungrisk import cli, fileio, host, nnet, pancan, synthdata
from lungrisk.errors import ZeroNoduleWarning
from lungrisk.pancan import placeholder_weights_path
from lungrisk.preprocess import MetadataStats, build_scan_example
from writers import save_weights, weight_file_bytes, write_volume_pair, write_weight_entries


def run(argv):
    return cli.main([str(a) for a in argv])


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_hashes(root):
    return {p.relative_to(root).as_posix(): file_hash(p)
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


# Run as a child: `pin` limits it to one CPU before anything is imported.
CLI_CHILD = """
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from lungrisk import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def child_env():
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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


@pytest.mark.parametrize("flags", [["--n", 0], ["--prevalence", "nan"], ["--dims", 0],
                                   ["--noise", -1], ["--seed", -1]],
                         ids=["n-zero", "prevalence-nan", "dims-zero", "noise-negative",
                              "seed-negative"])
def test_rejected_simulate_creates_nothing(flags, tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["simulate", "--n", 5, "--prevalence", 0.2, "--seed", 1, "--out", out]
               + flags) == cli.EXIT_USAGE
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# SHA-256 of every file `simulate --n 6 --prevalence 0.3 --seed 3 --dims 64`
# writes, from the single-threaded generator (numpy 2.4.6, x86-64). The
# phantom bytes must not move between versions.
SIMULATE_GOLDEN_ARGS = ["simulate", "--n", "6", "--prevalence", "0.3", "--seed", "3",
                        "--dims", "64"]
SIMULATE_GOLDEN = {
    "candidates.csv": "bfcdee4e22edec9106b4be474f7a6dd1f880445642e26d1db705c4f0ad6fc859",
    "ground_truth.csv": "54226e29ab5853400d6707fdb4fc84c6f755ed87f6e3fda6cb6363a6078b4197",
    "labels.csv": "dc0e1e0ace8ef10e56782c334ca81d5efd052196d40c579265e8512c637c2462",
    "manifest.txt": "ae281f619181a68e41d55079c3b9cdbddb99b62b47148eadbd241d6eea8fa30c",
    "nodule_truth.csv": "6377381fa8ccebd512a432b1763d106053ef9e44514663adf179f060e778ace5",
    "pancan_features.csv": "89b9520b7aac55ae8ff2f9afde882dd1d4394fa42e22bc252f8060083a96ee46",
    "volumes/scan_00000.lrvol": "f8d42cf9e83c7335cbd91e0685877c3a0363d294194db250e54672908987b1f4",
    "volumes/scan_00001.lrvol": "0f6c29dc946789630143a9182e2bf41aa54df2036938b5dcafcae0e06d38d830",
    "volumes/scan_00002.lrvol": "772675e6e37519a331d20f9b8b53fcce59c8daf1ffb240275d07939f6a5a4f43",
    "volumes/scan_00003.lrvol": "b14e909567bcfbfbdb733e326f079f08529c20fcd6e26541f9af32544e3338eb",
    "volumes/scan_00004.lrvol": "b5261c4025772c731d19dd40a73c0942c6f4142c4f280e8f2cee2b87b472e281",
    "volumes/scan_00005.lrvol": "b46d7743278466928af24c70522b5b130ed0cf367b4916d44a2073469bfb67ea",
}


@pytest.mark.parametrize("cpus", [None, 1, 2, 3], ids=["usable", "1", "2", "3"])
def test_simulate_writes_the_golden_bytes_at_any_thread_count(cpus, tmp_path, monkeypatch):
    asked = []
    if cpus is not None:
        monkeypatch.setattr(host, "usable_cpus", lambda: asked.append(cpus) or cpus)
    assert run(SIMULATE_GOLDEN_ARGS + ["--out", tmp_path / "d"]) == 0
    assert tree_hashes(tmp_path / "d") == SIMULATE_GOLDEN
    assert asked == ([] if cpus is None else [cpus])


def test_simulate_writes_the_golden_bytes_on_one_pinned_cpu(tmp_path):
    subprocess.run([sys.executable, "-c", CLI_CHILD, "pin", *SIMULATE_GOLDEN_ARGS,
                    "--out", str(tmp_path / "d")], env=child_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    assert tree_hashes(tmp_path / "d") == SIMULATE_GOLDEN


def openblas_core() -> str | None:
    """The core that numpy's bundled OpenBLAS picked at run time, or None
    with another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            return None
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        return corename().decode()
    return None


# SHA-256 of every output of `simulate --n 16 --prevalence 0.4 --seed 3
# --dims 64`, `train --folds 3 --epochs 3 --batch-size 8 --seed 4`, `score`
# (numpy 2.4.6, x86-64), keyed by the OpenBLAS core: GEMM bits differ between
# cores. SkylakeX ran natively; the other cores were forced on the same
# machine with OPENBLAS_CORETYPE. Pinned again when `tensor.dense` became one
# GEMM, which moved every fold's bits. The score CSVs are those of the folded
# inference plan, whose risks differ from the unfolded forward's by at most
# 3.3e-16 on these four cores.
TRAIN_SCORE_GOLDEN = {
    "SkylakeX": {
        "fold0.lrnn": "744b5a0287a756431de186eda6d70c0a5cfd0257e8ceb9a13720048f93c166cd",
        "fold1.lrnn": "fb7c8f254e1c1b0e8ac362cd1acaf947155f52b87092471d661942b3ecb8e20e",
        "fold2.lrnn": "b93e7415008763054ae92823a3778a92f0eeb3da1b29b0fe2b1db790a97bc966",
        "resolved_config.txt": "4cc02e0128af344b08e9db9134d8187a70ab08f376f524b67a5cbb4d8c2e7b25",
        "training_loss.csv": "4d4ddb13e2cfb92e718a998490381c0519d9575082cd64dc4baf7753d7952d77",
        "scores.csv": "34742f0af8f83df9551a3bc615a8e08ef3e1f06ea14ffaa2c61e91557f7aaa9d",
    },
    "Haswell": {
        "fold0.lrnn": "737745a52409abd7d052a605a84382046095479733a85a901e5a0f3c9d8fa116",
        "fold1.lrnn": "118006de5c0fe719191392f6a57fd24dd3b97bc557ecd2a78cfeafee90fddfa5",
        "fold2.lrnn": "22589f8a520a84ad97b75ac74387b591b55362a7c37de45386431a2316486a84",
        "resolved_config.txt": "4cc02e0128af344b08e9db9134d8187a70ab08f376f524b67a5cbb4d8c2e7b25",
        "training_loss.csv": "46d0919666bcb159187ac2a3eb0c9ed97accce4219a0d0129e3f0d50304e6a24",
        "scores.csv": "d0d67b2d5862a80a9ca968764a4f032b0a0fc79e9ddcbcc50535d3d289a1c1e7",
    },
    "Sandybridge": {
        "fold0.lrnn": "6064d7a0c5adf76cdfd18241c2dae7551b323ee69330bfbf612344612e3ce147",
        "fold1.lrnn": "fa03ad0df120f13319b90ab05c3d8c7b2828e9c0af2317714ea4d711b0e1f3cd",
        "fold2.lrnn": "67924ac098dd41b51a2e945fa1588749345ae2ee187acc1fdf1467cb2311425b",
        "resolved_config.txt": "4cc02e0128af344b08e9db9134d8187a70ab08f376f524b67a5cbb4d8c2e7b25",
        "training_loss.csv": "367a9736106807d387c3c5ec240999ed21a66b30802c94c3da796d4d19fea375",
        "scores.csv": "46af239ca73fb012707dca1deede4361a12835362f5d6a056bdd712043c6008a",
    },
    "Nehalem": {
        "fold0.lrnn": "ea0ba5f8aec53f7c97b265c8ccaee09ef8ecaa5619962b11ddc2de5469cfd1d3",
        "fold1.lrnn": "e0a64a1f166fe23d597634e1632dbe8cb774cacd5a4205de8e92e5ea333bbc03",
        "fold2.lrnn": "0a2e433ff95c75caaca77a0d268f541d01c033857965376bbbd2fb1c30d9f27b",
        "resolved_config.txt": "4cc02e0128af344b08e9db9134d8187a70ab08f376f524b67a5cbb4d8c2e7b25",
        "training_loss.csv": "86d35a8db6e91ce66936eacceb44ba586235a831fa77cf355ab0e4bfeabbb2db",
        "scores.csv": "037a54a028a93200fa77721220ce937f3d7b2707adc02dd113d1ccb13051f7d8",
    },
}
# The SkylakeX risks of that chain, from before `dense` became one GEMM. On
# any core they must hold within TRAIN_SCORE_RISK_TOLERANCE; the four cores
# above lie within 4.4e-12 of them and of each other.
TRAIN_SCORE_RISKS = {
    "scan_00000": 0.8068063355853591, "scan_00001": 0.8339910614968365,
    "scan_00002": 0.861961944751187, "scan_00003": 0.8457972926216049,
    "scan_00004": 0.8432448567746036, "scan_00005": 0.8342547469296971,
    "scan_00006": 0.6019389049118828, "scan_00007": 0.5145345617155317,
    "scan_00008": 0.5251473333342291, "scan_00009": 0.6931438588606792,
    "scan_00010": 0.6652506482044358, "scan_00011": 0.5777349133938727,
    "scan_00012": 0.838686368340158, "scan_00013": 0.7464489387548375,
    "scan_00014": 0.7032273182907242, "scan_00015": 0.8170767651413766,
}
TRAIN_SCORE_RISK_TOLERANCE = 1e-9


def test_train_and_score_write_the_golden_bytes(tmp_path):
    data, model, scores = tmp_path / "d", tmp_path / "m", tmp_path / "m" / "scores.csv"
    assert run(["simulate", "--n", 16, "--prevalence", 0.4, "--seed", 3, "--dims", 64,
                "--out", data]) == 0
    assert run(["train", "--data", data, "--folds", 3, "--epochs", 3, "--batch-size", 8,
                "--seed", 4, "--out", model]) == 0
    assert run(["score", "--model", model, "--data", data, "--out", scores]) == 0
    risks = fileio.read_scores_csv(scores)
    assert risks.keys() == TRAIN_SCORE_RISKS.keys()
    for scan_id, risk in TRAIN_SCORE_RISKS.items():
        assert abs(risks[scan_id] - risk) <= TRAIN_SCORE_RISK_TOLERANCE, (scan_id, risks[scan_id])
    golden = TRAIN_SCORE_GOLDEN.get(openblas_core())
    if golden is not None:
        assert tree_hashes(model) == golden


def test_simulate_write_error_cancels_queued_scans(tmp_path, capsys, monkeypatch):
    started = []
    generate_scan, write = synthdata._generate_scan, synthdata.write_volume_compact

    def counted(scan_id, *rest):
        started.append(scan_id)
        return generate_scan(scan_id, *rest)

    def failing(volume, path):
        if path.name == "scan_00005.lrvol":
            raise OSError(f"no space left on device: {path.name}")
        write(volume, path)

    monkeypatch.setattr(host, "usable_cpus", lambda: 2)
    monkeypatch.setattr(synthdata, "_generate_scan", counted)
    monkeypatch.setattr(synthdata, "write_volume_compact", failing)
    assert run(["simulate", "--n", 40, "--prevalence", 0.3, "--seed", 1, "--dims", 64,
                "--out", tmp_path / "d"]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err == "error: no space left on device: scan_00005.lrvol\n", err
    # scans 0-5, and the few each thread took before the cancel (2-3 in
    # all on a 2-core machine); a pool that ran its queue out would start 40
    assert "scan_00005" in started and len(started) <= 14, started
    assert not (tmp_path / "d" / "labels.csv").exists()


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


def test_train_duplicate_scan_list_id_is_data_error(small_data, tmp_path, capsys):
    # a repeated id would weight the scan twice, and could put it in a
    # fold's training split and its holdout at once
    scans = tmp_path / "scans.txt"
    scans.write_text("scan_00000\nscan_00001\nscan_00000\nscan_00002\n")
    code = run(["train", "--data", small_data, "--folds", 2, "--epochs", 1, "--seed", 1,
                "--scans", scans, "--out", tmp_path / "m"])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "'scan_00000'" in err and str(scans) in err and err.count("\n") == 1, err
    assert not (tmp_path / "m").exists()


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


def test_rejected_train_leaves_no_out_directory(small_data, tmp_path, capsys):
    # no scan has a nodule, so training cannot standardize the metadata
    data = tmp_path / "no_nodules"
    data.mkdir()
    (data / "volumes").symlink_to(small_data / "volumes")
    (data / "labels.csv").write_text((small_data / "labels.csv").read_text())
    header = (small_data / "candidates.csv").read_text().splitlines()[0]
    (data / "candidates.csv").write_text(header + "\n")
    out = tmp_path / "m"
    code = run(["train", "--data", data, "--folds", 1, "--epochs", 1, "--seed", 1, "--out", out])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "without nodules" in err and err.count("\n") == 1, err
    assert not out.exists()


def test_train_worker_death_is_one_line_io_error(small_data, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(nnet, "_WORKER_ENTRY", "import os; os._exit(9)")
    code = run(["train", "--data", small_data, "--folds", 2, "--epochs", 1, "--seed", 1,
                "--out", tmp_path / "m"])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "fold worker exited with status 9" in err and err.count("\n") == 1, err


def test_train_bytes_do_not_depend_on_blas_threads_or_cpus(small_data, tmp_path):
    env = {k: v for k, v in child_env().items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    outputs = []
    for tag, pin, blas in [("blas1", "all", {"OPENBLAS_NUM_THREADS": "1"}),
                           ("default", "all", {}), ("one-cpu", "pin", {})]:
        model = tmp_path / tag
        subprocess.run([sys.executable, "-c", CLI_CHILD, pin, "train", "--data", str(small_data),
                        "--folds", "3", "--epochs", "3", "--batch-size", "8", "--seed", "1",
                        "--out", str(model)], env={**env, **blas}, check=True, timeout=600,
                       stdout=subprocess.DEVNULL)
        outputs.append({p.name: p.read_bytes() for p in sorted(model.iterdir())})
    assert sorted(outputs[0]) == ["fold0.lrnn", "fold1.lrnn", "fold2.lrnn",
                                  "resolved_config.txt", "training_loss.csv"]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def _children(pid):
    try:
        return [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except FileNotFoundError:
        return []


def _alive(pid):
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<pid>/children")
def test_train_workers_die_with_a_killed_parent(small_data, tmp_path):
    env = child_env()
    with open(tmp_path / "stderr", "w") as err:
        parent = subprocess.Popen([sys.executable, "-c", CLI_CHILD, "all", "train", "--data",
                                   str(small_data), "--folds", "2", "--epochs", "1000",
                                   "--seed", "1", "--out", str(tmp_path / "m")],
                                  env=env, stdout=subprocess.DEVNULL, stderr=err)
    workers = []
    try:
        deadline = time.monotonic() + 120
        while not workers and parent.poll() is None and time.monotonic() < deadline:
            time.sleep(0.1)
            workers = _children(parent.pid)
        assert workers, "train started no fold workers"
        time.sleep(1.0)             # let the workers get into training
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_alive, workers))
    finally:
        parent.kill()
        parent.wait()
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
    assert "Traceback" not in (tmp_path / "stderr").read_text()


def test_train_config_file_with_flag_override(small_data, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\ndropout_rate=0.5\nbatch_size=8\n")
    model = tmp_path / "m"
    assert run(["train", "--data", small_data, "--folds", 1, "--seed", 2,
                "--config", cfg, "--out", model]) == 0
    resolved = (model / "resolved_config.txt").read_text()
    assert "dropout_rate=0.5" in resolved and "epochs=1" in resolved


def test_retraining_into_the_same_out_drops_the_older_folds(small_data, small_model, tmp_path):
    # `small_model` is a fresh 2-fold model with these settings
    model = tmp_path / "model"
    for folds in (3, 2):
        assert run(["train", "--data", small_data, "--folds", folds, "--dropout", 0.25,
                    "--epochs", 2, "--seed", 1, "--out", model]) == 0
    assert tree_hashes(model) == tree_hashes(small_model)
    for name, path in (("retrained", model), ("fresh", small_model)):
        assert run(["score", "--model", path, "--data", small_data,
                    "--out", tmp_path / f"{name}.csv"]) == 0
    assert file_hash(tmp_path / "retrained.csv") == file_hash(tmp_path / "fresh.csv")


def test_train_and_score_a_cohort_with_a_zero_candidate_scan(small_data, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "volumes").symlink_to(small_data / "volumes")
    (data / "labels.csv").symlink_to(small_data / "labels.csv")
    lines = (small_data / "candidates.csv").read_text().splitlines()
    bare = lines[1].split(",")[0]
    kept = [line for line in lines if not line.startswith(bare + ",")]
    (data / "candidates.csv").write_text("\n".join(kept) + "\n")
    model = tmp_path / "m"
    assert run(["train", "--data", data, "--folds", 2, "--epochs", 1, "--seed", 1,
                "--out", model]) == 0
    out = tmp_path / "s.csv"
    with pytest.warns(ZeroNoduleWarning, match=bare):
        assert run(["score", "--model", model, "--data", data, "--out", out]) == 0
    assert fileio.read_scores_csv(out)[bare] == 0.0


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


@pytest.fixture(scope="module")
def small_scores(small_data, small_model, tmp_path_factory):
    """The bytes of `lungrisk score` on the small cohort, at the usable CPUs."""
    out = tmp_path_factory.mktemp("cli_scores") / "s.csv"
    assert run(["score", "--model", small_model, "--data", small_data, "--out", out]) == 0
    return file_hash(out)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_score_bytes_do_not_depend_on_the_thread_count(cpus, small_data, small_model,
                                                       small_scores, tmp_path, monkeypatch):
    asked = []
    monkeypatch.setattr(host, "usable_cpus", lambda: asked.append(cpus) or cpus)
    monkeypatch.setattr(nnet, "SCORE_CHUNK_PATCHES", 4)   # more chunks than threads
    out = tmp_path / "s.csv"
    assert run(["score", "--model", small_model, "--data", small_data, "--out", out]) == 0
    assert file_hash(out) == small_scores
    assert asked == [cpus]


def test_score_bytes_on_one_pinned_cpu(small_data, small_model, small_scores, tmp_path):
    subprocess.run([sys.executable, "-c", CLI_CHILD, "pin", "score", "--model", str(small_model),
                    "--data", str(small_data), "--out", str(tmp_path / "s.csv")],
                   env=child_env(), check=True, timeout=300, stdout=subprocess.DEVNULL)
    assert file_hash(tmp_path / "s.csv") == small_scores


def test_score_non_finite_chunk_cancels_the_queued_chunks(small_data, small_model, tmp_path,
                                                          capsys, monkeypatch):
    started = []
    predict = nnet._predict_chunk

    def failing(ensemble, chunk):
        started.append(chunk[0].scan_id)
        scored = predict(ensemble, chunk)
        if chunk[0].scan_id == "scan_00005":
            scored[0] = (scored[0][0], float("nan"))
        return scored

    monkeypatch.setattr(host, "usable_cpus", lambda: 2)
    monkeypatch.setattr(nnet, "SCORE_CHUNK_PATCHES", 1)     # one scan a chunk
    monkeypatch.setattr(nnet, "_predict_chunk", failing)
    out = tmp_path / "s.csv"
    code = run(["score", "--model", small_model, "--data", small_data, "--out", out])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "scan_00005" in err and "nan" in err and err.count("\n") == 1, err
    # scans 0-5, and at most two chunks per thread after them; a scorer
    # that ran its queue out would start all 24
    assert "scan_00005" in started and len(started) <= 10, started
    assert not out.exists()


def test_score_unknown_scan_id_is_explicit_error(small_data, small_model, tmp_path, capsys):
    scan_list = tmp_path / "scans.txt"
    scan_list.write_text("scan_00000\nno_such_scan\n")
    code = run(["score", "--model", small_model, "--data", small_data,
                "--out", tmp_path / "s.csv", "--scans", scan_list])
    assert code == cli.EXIT_DATA
    assert "no_such_scan" in capsys.readouterr().err


def test_score_duplicate_scan_list_id_is_data_error(small_data, small_model, tmp_path,
                                                     capsys):
    scan_list = tmp_path / "scans.txt"
    scan_list.write_text("scan_00000\nscan_00003\nscan_00000\n")
    out = tmp_path / "s.csv"
    code = run(["score", "--model", small_model, "--data", small_data,
                "--out", out, "--scans", scan_list])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "'scan_00000'" in err and str(scan_list) in err and err.count("\n") == 1, err
    assert not out.exists()


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


def test_score_resolves_each_volume_once_and_a_missing_one_before_any_read(
        small_data, small_model, tmp_path, capsys, monkeypatch):
    scan_ids = sorted(fileio.read_labels_csv(small_data / "labels.csv"))
    resolved, reads = [], []
    volume_path, read_volume = cli._volume_path, cli._read_volume
    monkeypatch.setattr(cli, "_volume_path",
                        lambda data, sid: resolved.append(sid) or volume_path(data, sid))
    monkeypatch.setattr(cli, "_read_volume", lambda path: reads.append(path) or read_volume(path))
    assert run(["score", "--model", small_model, "--data", small_data,
                "--out", tmp_path / "s.csv"]) == 0
    assert resolved == scan_ids
    assert len(reads) == len(scan_ids)

    data = tmp_path / "data"
    (data / "volumes").mkdir(parents=True)
    for name in ("labels.csv", "candidates.csv"):
        (data / name).write_bytes((small_data / name).read_bytes())
    for sid in scan_ids[:-1]:
        (data / "volumes" / f"{sid}.lrvol").symlink_to(small_data / "volumes" / f"{sid}.lrvol")
    resolved.clear()
    reads.clear()
    capsys.readouterr()
    code = run(["score", "--model", small_model, "--data", data, "--out", tmp_path / "t.csv"])
    assert code == cli.EXIT_DATA
    assert reads == [] and not (tmp_path / "t.csv").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(scan_ids[-1]) in err, err


def test_score_folds_each_weight_file_before_it_reads_the_next(small_data, tmp_path,
                                                                monkeypatch):
    model = tmp_path / "model"
    model.mkdir()
    stats = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    for i in range(5):
        params = nnet.init_params(nnet.NNetConfig(seed=i))
        nnet.save_params(params, model / f"fold{i}.lrnn", stats)
    member_bytes = sum(a.nbytes for a in params.arrays().values())
    peaks = []      # traced bytes at their peak, from the start of `score` to its scoring

    def predict(plans, examples):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return [0.5 for _ in examples]

    monkeypatch.setattr(nnet, "ensemble_predict", predict)
    tracemalloc.start()
    try:
        assert run(["score", "--model", model, "--data", small_data,
                    "--out", tmp_path / "s.csv"]) == 0
    finally:
        tracemalloc.stop()
    # a file's bytes and the arrays read from them, then only its plan
    # (holding all five members' arrays would be over 5)
    assert peaks[0] < 2.5 * member_bytes, peaks[0] / member_bytes


def test_score_checks_every_weight_file_before_it_builds_a_scan(small_data, small_model,
                                                                tmp_path, capsys, monkeypatch):
    model = tmp_path / "model"
    model.mkdir()
    for p in small_model.glob("fold*.lrnn"):
        (model / p.name).write_bytes(p.read_bytes())
    blob = bytearray((model / "fold1.lrnn").read_bytes())
    blob[-100] ^= 0xFF
    (model / "fold1.lrnn").write_bytes(bytes(blob))
    reads = []
    monkeypatch.setattr(cli, "_read_volume", lambda path: reads.append(path))
    code = run(["score", "--model", model, "--data", small_data, "--out", tmp_path / "s.csv"])
    assert code == cli.EXIT_IO and reads == []
    err = capsys.readouterr().err
    assert "fold1.lrnn: checksum mismatch" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("setting, values", [("metadata_dim", (5, 6)),
                                             ("projection", ("slice", "mip"))])
def test_score_members_that_disagree_are_a_usage_error(setting, values, small_data, tmp_path,
                                                        capsys):
    for i, value in enumerate(values):
        params = nnet.init_params(nnet.NNetConfig(**{setting: value}))
        dim = params.metadata_dim
        nnet.save_params(params, tmp_path / f"fold{i}.lrnn",
                         MetadataStats(mean=np.zeros(dim), std=np.ones(dim)))
    code = run(["score", "--model", tmp_path, "--data", small_data, "--out", tmp_path / "s.csv"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"ensemble members disagree on {setting}" in err and err.count("\n") == 1, err


def test_score_uses_the_projection_the_model_was_trained_on(small_data, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("projection=mip\nepochs=2\n")
    model = tmp_path / "m"
    assert run(["train", "--data", small_data, "--folds", 1, "--seed", 3,
                "--config", cfg, "--out", model]) == 0
    out = tmp_path / "s.csv"
    assert run(["score", "--model", model, "--data", small_data, "--out", out]) == 0
    scores = fileio.read_scores_csv(out)
    plans = nnet.load_plans(model)
    candidates = fileio.read_candidates_csv(small_data / "candidates.csv")

    def predict(scan_id, projection):
        volume = fileio.read_volume_compact(small_data / "volumes" / f"{scan_id}.lrvol")
        example = build_scan_example(volume, candidates.get(scan_id, []), 0,
                                     projection=projection, scan_id=scan_id)
        return nnet.ensemble_predict(plans, [example])[0]

    assert all(score == predict(sid, "mip") for sid, score in scores.items())
    assert not any(score == predict(sid, "slice") for sid, score in scores.items())


def test_score_unknown_projection_code_is_format_error(small_data, small_model, tmp_path,
                                                       capsys, monkeypatch):
    member = nnet.load_ensemble(small_model).members[0]
    member.params.projection = "cubic"
    monkeypatch.setitem(nnet._PROJECTION_CODES, "cubic", 2.0)
    (tmp_path / "model").mkdir()
    nnet.save_params(member.params, tmp_path / "model" / "fold0.lrnn", member.metadata_stats)
    monkeypatch.undo()
    code = run(["score", "--model", tmp_path / "model", "--data", small_data,
                "--out", tmp_path / "s.csv"])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "projection code 2.0" in err and err.count("\n") == 1, err


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


@pytest.mark.parametrize("entry, value", [
    pytest.param("dense2.weights", np.nan, id="nan-weight"),
    pytest.param("bn_fc1.running_var", np.inf, id="inf-running-var"),
    pytest.param("meta_stats.mean", -np.inf, id="inf-metadata-mean"),
    pytest.param("meta_stats.std", 0.0, id="zero-metadata-std"),
    pytest.param("meta_stats.std", -1.0, id="negative-metadata-std"),
    pytest.param("bn_conv1.running_var", -1.0, id="negative-running-var"),
])
def test_score_non_finite_weight_file_is_numeric_error(entry, value, small_data, small_model,
                                                       tmp_path, capsys):
    path = small_model / "fold0.lrnn"
    member = nnet.load_member(path)
    params, stats = member.params, member.metadata_stats
    arrays = {**params.arrays(), "meta_stats.mean": stats.mean, "meta_stats.std": stats.std}
    arrays[entry].flat[0] = value
    (tmp_path / "model").mkdir()
    nnet.save_params(params, tmp_path / "model" / "fold0.lrnn", stats)
    out = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["score", "--model", tmp_path / "model", "--data", small_data, "--out", out])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "fold0.lrnn" in err and repr(entry) in err and err.count("\n") == 1, err
    assert not caught and not out.exists()


@pytest.mark.parametrize("entry", ["config.projection", "config.metadata_dim"],
                         ids=["nan-projection", "nan-metadata-dim"])
def test_score_nan_config_entry_is_numeric_error(entry, small_data, small_model, tmp_path,
                                                 capsys):
    arrays = {**nnet._read_weight_arrays(small_model / "fold0.lrnn"), entry: np.array([np.nan])}
    (tmp_path / "model").mkdir()
    write_weight_entries(sorted(arrays.items()), tmp_path / "model" / "fold0.lrnn")
    out = tmp_path / "s.csv"
    code = run(["score", "--model", tmp_path / "model", "--data", small_data, "--out", out])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert repr(entry) in err and err.count("\n") == 1, err
    assert not out.exists()


def test_score_weight_entry_repeated_in_the_manifest_is_format_error(small_data, small_model,
                                                                     tmp_path, capsys):
    entries = sorted(nnet._read_weight_arrays(small_model / "fold0.lrnn").items())
    bias = dict(entries)["conv1.bias"]
    (tmp_path / "model").mkdir()
    write_weight_entries(entries + [("conv1.bias", bias + 1.0)], tmp_path / "model" / "fold0.lrnn")
    out = tmp_path / "s.csv"
    code = run(["score", "--model", tmp_path / "model", "--data", small_data, "--out", out])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "'conv1.bias'" in err and "repeated" in err and err.count("\n") == 1, err
    assert not out.exists()


def test_score_weights_with_a_non_finite_forward_are_numeric_error(small_data, small_model,
                                                                   tmp_path, capsys):
    # finite numbers whose products overflow to infinities of both signs
    path = small_model / "fold0.lrnn"
    member = nnet.load_member(path)
    params, stats = member.params, member.metadata_stats
    params.bn["bn_fc2"].gamma.data[:] = 1e300
    params.tensors["dense_out.weights"].data[:] = 1e300
    (tmp_path / "model").mkdir()
    nnet.save_params(params, tmp_path / "model" / "fold0.lrnn", stats)
    out = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["score", "--model", tmp_path / "model", "--data", small_data, "--out", out])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "scan_00000" in err and "nan" in err and err.count("\n") == 1, err
    assert not caught and not out.exists()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Three small phantoms and the bytes of a one-member model for them."""
    root = tmp_path_factory.mktemp("lrnn_fuzz")
    assert run(["simulate", "--n", 3, "--prevalence", 0.5, "--seed", 4, "--out", root / "data",
                "--dims", 48]) == 0
    path = root / "clean.lrnn"
    stats = MetadataStats(mean=np.linspace(-1, 1, 5), std=np.linspace(0.5, 2, 5))
    nnet.save_params(nnet.init_params(nnet.NNetConfig(seed=5)), path, stats)
    (root / "model").mkdir()
    return root, path.read_bytes()


def _manifest_end(blob: bytes) -> int:
    (n_arrays,) = struct.unpack_from("<I", blob, len(nnet.WEIGHTS_MAGIC) + 2)
    off = len(nnet.WEIGHTS_MAGIC) + 6
    for _ in range(n_arrays):
        (name_len,) = struct.unpack_from("<H", blob, off)
        off += 2 + name_len
        off += 1 + 4 * blob[off]
    return off


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_score_on_a_mangled_weight_file_exits_with_a_documented_code(fuzz_inputs, data):
    root, clean = fuzz_inputs
    blob = bytearray(clean[:-4])
    start = _manifest_end(clean)
    kind = data.draw(st.sampled_from(["manifest", "payload", "non-finite"]), label="kind")
    if kind == "non-finite":
        slot = data.draw(st.integers(0, (len(blob) - start) // 8 - 1), label="slot")
        value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
        struct.pack_into("<d", blob, start + 8 * slot, value)
    else:
        lo, hi = (len(nnet.WEIGHTS_MAGIC), start) if kind == "manifest" else (start, len(blob))
        for pos in data.draw(st.lists(st.integers(lo, hi - 1), min_size=1, max_size=4),
                             label="positions"):
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    (root / "model" / "fold0.lrnn").write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
    out = root / "scores.csv"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNoduleWarning)
        code = run(["score", "--model", root / "model", "--data", root / "data", "--out", out])
    assert code in (0, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_IO, cli.EXIT_NUMERIC), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert all(np.isfinite(v) for v in fileio.read_scores_csv(out).values())
    else:
        assert err.getvalue().count("\n") == 1 and not out.exists(), err.getvalue()


@pytest.fixture(scope="module")
def score_fuzz_inputs(fuzz_inputs, tmp_path_factory):
    """A clean one-member model for `fuzz_inputs`'s phantoms, and a data
    directory each for mangled volumes and mangled candidate files."""
    data, clean = fuzz_inputs[0] / "data", fuzz_inputs[1]
    root = tmp_path_factory.mktemp("score_fuzz")
    (root / "model").mkdir()
    (root / "model" / "fold0.lrnn").write_bytes(clean)
    for name in ("volumes", "candidates"):
        (root / name / "volumes").mkdir(parents=True)
        for path in [data / "labels.csv", data / "candidates.csv", *(data / "volumes").iterdir()]:
            target = root / name / path.relative_to(data)
            target.write_bytes(path.read_bytes())
    return root, data


def assert_exits_with_a_documented_code(argv, outs) -> int:
    """The command's exit code, after checking that it is 0, or a documented
    code with one `error:` line on stderr, no traceback and none of the
    `outs` files or directories."""
    for out in outs:
        shutil.rmtree(out) if out.is_dir() else out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code in (0, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_IO, cli.EXIT_NUMERIC), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
            err.getvalue()
        assert not any(out.exists() for out in outs)
    return code


def assert_score_exits_with_a_documented_code(model, data, out):
    """`score` exits 0 with finite scores, or with a documented code, one
    line on stderr, no traceback and no --out."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNoduleWarning)
        code = assert_exits_with_a_documented_code(
            ["score", "--model", model, "--data", data, "--out", out], [out])
    if code == 0:
        assert all(np.isfinite(v) for v in fileio.read_scores_csv(out).values())


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_score_on_a_mangled_volume_file_exits_with_a_documented_code(score_fuzz_inputs, data):
    root, clean_data = score_fuzz_inputs
    name = data.draw(st.sampled_from(sorted(p.name for p in (clean_data / "volumes").iterdir())),
                     label="volume")
    blob = bytearray((clean_data / "volumes" / name).read_bytes())
    kind = data.draw(st.sampled_from(["header", "truncated", "extended"]), label="kind")
    if kind == "header":        # magic, dims, spacing, origin and padding
        for pos in data.draw(st.lists(st.integers(0, 71), min_size=1, max_size=4),
                             label="positions"):
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    elif kind == "truncated":
        del blob[data.draw(st.integers(0, len(blob) - 1), label="length"):]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=64), label="tail")
    volume = root / "volumes" / "volumes" / name
    try:
        volume.write_bytes(bytes(blob))
        assert_score_exits_with_a_documented_code(root / "model", root / "volumes",
                                                  root / "volumes.csv")
    finally:
        volume.write_bytes((clean_data / "volumes" / name).read_bytes())


MANGLED_CELLS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", " ", "nan", "-inf", "inf", "1e309", "-1e308", "1e-320", "0", "-0.0",
                     "2", "5", "3.0", "0x10", "1_000", "\x00", '"', '1,2', "1\n2", "scan_00000"]),
    st.floats().map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_score_on_a_mangled_candidates_csv_exits_with_a_documented_code(score_fuzz_inputs,
                                                                         data):
    root, clean_data = score_fuzz_inputs
    clean = (clean_data / "candidates.csv").read_bytes()
    rows = [line.split(",") for line in clean.decode().splitlines()]
    kind = data.draw(st.sampled_from(["cells", "quoted cells", "bytes"]), label="kind")
    if kind == "bytes":
        blob = bytearray(clean)
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4),
                             label="positions"):
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
        (root / "candidates" / "candidates.csv").write_bytes(bytes(blob))
    else:
        for _ in range(data.draw(st.integers(1, 3), label="cells")):
            row = data.draw(st.integers(0, len(rows) - 1), label="row")
            col = data.draw(st.integers(0, len(rows[row]) - 1), label="column")
            rows[row][col] = data.draw(MANGLED_CELLS, label="cell")
        with open(root / "candidates" / "candidates.csv", "w", newline="",
                  encoding="utf-8") as fh:
            if kind == "quoted cells":
                csv.writer(fh).writerows(rows)
            else:
                fh.write("".join(",".join(row) + "\n" for row in rows))
    assert_score_exits_with_a_documented_code(root / "model", root / "candidates",
                                              root / "candidates.csv.out")


def mangled(data, clean: bytes, sep: str) -> bytes:
    """`clean`, lines of `sep`-separated cells, with one to three cells replaced
    (written raw or quoted), a cell dropped or added, or up to four bytes XOR-ed."""
    kind = data.draw(st.sampled_from(["cells", "quoted cells", "dropped cell", "extra cell",
                                      "bytes"]), label="kind")
    if kind == "bytes":
        blob = bytearray(clean)
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4),
                             label="positions"):
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
        return bytes(blob)
    rows = [line.split(sep) for line in clean.decode().splitlines()]
    for _ in range(data.draw(st.integers(1, 3), label="cells") if kind.endswith("cells") else 1):
        row = rows[data.draw(st.integers(0, len(rows) - 1), label="row")]
        if kind == "extra cell":
            row.append(data.draw(MANGLED_CELLS, label="cell"))
            continue
        col = data.draw(st.integers(0, len(row) - 1), label="column")
        if kind == "dropped cell":
            del row[col]
        else:
            row[col] = data.draw(MANGLED_CELLS, label="cell")
    text = io.StringIO()
    if kind == "quoted cells":
        csv.writer(text, delimiter=sep, lineterminator="\n").writerows(rows)
    else:
        text.write("".join(sep.join(row) + "\n" for row in rows))
    return text.getvalue().encode()


@pytest.fixture(scope="module")
def text_fuzz_inputs(fuzz_inputs, tmp_path_factory):
    """Clean text inputs for `fuzz_inputs`'s phantoms: the labels, a scores
    CSV, the PanCan features and weights, a training config, and a copy of
    the data directory whose volumes are `.mhd`/`.raw` pairs."""
    data = fuzz_inputs[0] / "data"
    root = tmp_path_factory.mktemp("text_fuzz")
    labels = fileio.read_labels_csv(data / "labels.csv")
    fileio.write_labels_csv(root / "labels.csv", labels)
    fileio.write_scores_csv(root / "scores.csv",
                            {sid: 0.1 + 0.2 * i for i, sid in enumerate(labels)})
    shutil.copy(data / "pancan_features.csv", root / "features.csv")
    shutil.copy(placeholder_weights_path(), root / "weights.txt")
    (root / "train.cfg").write_text("# training config\ndropout_rate=0.25\nmetadata_dim=5\n"
                                    "learning_rate=0.001\nepochs=1\nbatch_size=8\n"
                                    "projection=slice\n")
    (root / "mhd" / "volumes").mkdir(parents=True)
    for name in ("labels.csv", "candidates.csv"):
        shutil.copy(data / name, root / "mhd" / name)
    for path in (data / "volumes").iterdir():
        write_volume_pair(fileio.read_volume_compact(path),
                          root / "mhd" / "volumes" / f"{path.stem}.mhd")
    return root


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_eval_and_compare_on_a_mangled_labels_or_scores_csv_exit_with_a_documented_code(
        text_fuzz_inputs, data):
    root = text_fuzz_inputs
    name = data.draw(st.sampled_from(["labels.csv", "scores.csv"]), label="file")
    (root / "mangled.csv").write_bytes(mangled(data, (root / name).read_bytes(), ","))
    path = {"labels.csv": root / "labels.csv", "scores.csv": root / "scores.csv",
            name: root / "mangled.csv"}
    if data.draw(st.sampled_from(["eval", "compare"]), label="command") == "eval":
        assert_exits_with_a_documented_code(
            ["eval", "--scores", path["scores.csv"], "--labels", path["labels.csv"],
             "--out", root / "rep"], [root / "rep_report.csv", root / "rep_roc.csv"])
    else:
        assert_exits_with_a_documented_code(
            ["compare", "--a", path["scores.csv"], "--b", root / "scores.csv",
             "--labels", path["labels.csv"], "--perms", 10, "--seed", 0,
             "--out", root / "compare.csv"], [root / "compare.csv"])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pancan_on_a_mangled_features_csv_or_weight_file_exits_with_a_documented_code(
        text_fuzz_inputs, data):
    root = text_fuzz_inputs
    name, sep = data.draw(st.sampled_from([("features.csv", ","), ("weights.txt", "=")]),
                          label="file")
    (root / "mangled").write_bytes(mangled(data, (root / name).read_bytes(), sep))
    path = {"features.csv": root / "features.csv", "weights.txt": root / "weights.txt",
            name: root / "mangled"}
    assert_exits_with_a_documented_code(
        ["pancan", "--weights", path["weights.txt"], "--features", path["features.csv"],
         "--out", root / "pancan.csv"], [root / "pancan.csv"])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_train_on_a_mangled_config_file_exits_with_a_documented_code(fuzz_inputs,
                                                                     text_fuzz_inputs, data):
    root = text_fuzz_inputs
    (root / "mangled.cfg").write_bytes(mangled(data, (root / "train.cfg").read_bytes(), "="))
    # --epochs 1 overrides an accepted epochs value of any size, so the run stays short
    assert_exits_with_a_documented_code(
        ["train", "--data", fuzz_inputs[0] / "data", "--config", root / "mangled.cfg",
         "--folds", 1, "--epochs", 1, "--seed", 0, "--out", root / "model"], [root / "model"])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_score_on_a_mangled_mhd_header_exits_with_a_documented_code(score_fuzz_inputs,
                                                                    text_fuzz_inputs, data):
    data_dir = text_fuzz_inputs / "mhd"
    headers = sorted(p.name for p in (data_dir / "volumes").glob("*.mhd"))
    name = data.draw(st.sampled_from(headers), label="header")
    header = data_dir / "volumes" / name
    clean = header.read_bytes()
    try:
        header.write_bytes(mangled(data, clean, "="))
        assert_score_exits_with_a_documented_code(score_fuzz_inputs[0] / "model", data_dir,
                                                  text_fuzz_inputs / "mhd.csv")
    finally:
        header.write_bytes(clean)


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


def test_compare_of_cohorts_holding_different_scans_says_how_many_each_holds_alone(
        tmp_path, capsys):
    # `--a` scores 3 of the 6 labelled scans, `--b` all of them
    labels = {f"s{i}": i % 2 for i in range(6)}
    fileio.write_labels_csv(tmp_path / "labels.csv", labels)
    fileio.write_scores_csv(tmp_path / "a.csv", {f"s{i}": 0.1 * i for i in range(3)})
    fileio.write_scores_csv(tmp_path / "b.csv", {sid: 0.5 for sid in labels})
    code = run(["compare", "--a", tmp_path / "a.csv", "--b", tmp_path / "b.csv",
                "--labels", tmp_path / "labels.csv", "--perms", 10, "--seed", 0])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "0 only in A []" in err and "3 only in B ['s3', 's4', 's5']" in err
    assert "same order" not in err


def test_a_compare_out_write_that_fails_leaves_the_old_file_and_no_partial_file(
        tmp_path, monkeypatch, capsys):
    labels = write_csv(tmp_path / "labels.csv", "label", GOOD_LABELS)
    scores = write_csv(tmp_path / "scores.csv", "score", GOOD_SCORES)
    out = tmp_path / "out" / "compare.csv"
    out.parent.mkdir()
    argv = ["compare", "--a", scores, "--b", scores, "--labels", labels, "--seed", 0, "--out", out]
    assert run(argv + ["--perms", 10]) == 0
    before = out.read_bytes()

    def disk_full_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" in mode:
            write = fh.write

            def write_half(text):       # half the text reaches the disk, then it is full
                write(text[:len(text) // 2])
                raise OSError(28, "No space left on device")
            fh.write = write_half
        return fh

    monkeypatch.setattr(fileio, "open", disk_full_open, raising=False)
    capsys.readouterr()
    assert run(argv + ["--perms", 20]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No space" in err and err.count("\n") == 1, err
    assert out.read_bytes() == before
    assert [p.name for p in out.parent.iterdir()] == ["compare.csv"]


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


def test_pancan_scores_only_the_listed_scans(small_data, tmp_path, capsys):
    features_csv = small_data / "pancan_features.csv"
    every, listed, scans = tmp_path / "every.csv", tmp_path / "listed.csv", tmp_path / "scans.txt"
    assert run(["pancan", "--weights", placeholder_weights_path(), "--features", features_csv,
                "--out", every]) == 0
    scores = fileio.read_scores_csv(every)
    chosen = sorted(scores)[1::2]
    scans.write_text("\n".join(chosen) + "\n")
    assert run(["pancan", "--weights", placeholder_weights_path(), "--features", features_csv,
                "--scans", scans, "--out", listed]) == 0
    assert fileio.read_scores_csv(listed) == {sid: scores[sid] for sid in chosen}
    # a listed scan without feature rows
    scans.write_text(f"{chosen[0]}\nscan_99999\n")
    capsys.readouterr()
    assert run(["pancan", "--weights", placeholder_weights_path(), "--features", features_csv,
                "--scans", scans, "--out", tmp_path / "none.csv"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err == "error: scan list entries without feature rows: ['scan_99999']\n", err
    assert not (tmp_path / "none.csv").exists()


README = Path(__file__).resolve().parents[1] / "README.md"
# the README experiment's sizes, scaled down: a flag's value is replaced
README_SCALED = {"--n": "60", "--epochs": "1", "--folds": "2", "--perms": "200"}


def readme_experiment() -> list[list[str]]:
    """The commands of the bash block under the README's "end-to-end
    experiment by hand", one argv each, continuation lines joined."""
    section = README.read_text().split("## The end-to-end experiment by hand", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.startswith("#")]


def test_the_readme_experiment_runs_scaled_down(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_experiment()
    # the two shell lines write the split, 4/5 of the sorted scans to train.txt
    assert [argv[-2:] for argv in commands if argv[0] != "lungrisk"] == [
        [">", "train.txt"], [">", "test.txt"]]
    assert [argv[1] for argv in commands if argv[0] == "lungrisk"] == [
        "simulate", "train", "score", "pancan", "eval", "eval", "compare"]
    for argv in commands:
        if argv[0] != "lungrisk":
            ids = sorted(fileio.read_labels_csv(Path("data/labels.csv")))
            cut = len(ids) * 4 // 5
            split = ids[:cut] if argv[-1] == "train.txt" else ids[cut:]
            Path(argv[-1]).write_text("\n".join(split) + "\n")
            continue
        # each argument after "lungrisk", scaled when the flag before it is in README_SCALED
        args = [README_SCALED.get(flag, arg) for flag, arg in zip(argv, argv[1:])]
        args = [str(README.parent / a) if a.startswith("src/") else a for a in args]
        assert cli.main(args) == 0, argv


def test_pancan_zero_weight_file_scores_half(small_data, tmp_path):
    weights = pancan.PanCanWeights(values={k: 0.0 for k in pancan.WEIGHT_KEYS})
    wpath = tmp_path / "zero.txt"
    save_weights(weights, wpath)
    out = tmp_path / "s.csv"
    assert run(["pancan", "--weights", wpath, "--features",
                small_data / "pancan_features.csv", "--out", out]) == 0
    assert all(v == 0.5 for v in fileio.read_scores_csv(out).values())


def test_train_config_repeated_key_is_usage_error(small_data, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nbatch_size=8\nepochs=2\n")
    code = run(["train", "--data", small_data, "--folds", 1, "--seed", 2, "--config", cfg,
                "--out", tmp_path / "m"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{cfg}:3:" in err and "'epochs'" in err and err.count("\n") == 1, err
    assert not (tmp_path / "m").exists()


def test_pancan_repeated_weight_key_is_format_error(small_data, tmp_path, capsys):
    wpath = tmp_path / "weights.txt"
    placeholder = placeholder_weights_path().read_text()
    wpath.write_text(placeholder + "age=0.05\n")
    out = tmp_path / "s.csv"
    code = run(["pancan", "--weights", wpath, "--features", small_data / "pancan_features.csv",
                "--out", out])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    line = len(placeholder.splitlines()) + 1
    assert f"{wpath}:{line}:" in err and "'age'" in err and err.count("\n") == 1, err
    assert not out.exists()


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


# a data directory of one scan with one candidate; a case overrides or adds files
ONE_SCAN = {
    "labels.csv": b"scan_id,label\nv0,1\n",
    "candidates.csv": b"scan_id,x_mm,y_mm,z_mm,radius_mm,confidence\nv0,1.0,1.0,1.0,2.0,0.9\n",
    "volumes/v0.raw": bytes(16),
}
# dims (-2, -1, 1) claim 2 voxels, which the 4 payload bytes match
LRVOL_NEGATIVE_DIMS = struct.pack("<8s3i6d4x", b"LRVOL1\0\0", -2, -1, 1,
                                  1.0, 1.0, 1.0, 0.0, 0.0, 0.0) + bytes(4)
MHD_WORDY_NDIMS = (b"NDims = three\nDimSize = 2 2 2\nElementSpacing = 1 1 1\nOffset = 0 0 0\n"
                   b"ElementType = MET_SHORT\nElementDataFile = v0.raw\n")
# a good 2x2x2 header over ONE_SCAN's raw file, and LRVOL1 files with that geometry
MHD_2x2x2 = (b"NDims = 3\nDimSize = 2 2 2\nElementSpacing = 1 1 1\nOffset = 0 0 0\n"
             b"ElementType = MET_SHORT\nElementDataFile = v0.raw\n")


def lrvol_2x2x2(spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    return struct.pack("<8s3i6d4x", b"LRVOL1\0\0", 2, 2, 2, *spacing, *origin) + bytes(16)


FEATURES = (b"scan_id,age,sex,family_history,emphysema,nodule_count,diameter_mm,nodule_type,"
            b"upper_lobe,spiculation\nv0,62.0,male,0,1,1,8.0,solid,1,0\n")
WEIGHTS = placeholder_weights_path().read_bytes()


def candidates_with(x_mm):
    return ONE_SCAN["candidates.csv"].replace(b"v0,1.0,", b"v0," + x_mm + b",")


def lrnn_of_metadata_dim(dim):
    """A weight file whose entries are all sized for `config.metadata_dim` = dim."""
    entries = {name: np.ones(shape) for name, shape in nnet._stored_shapes(dim).items()}
    entries["config.metadata_dim"] = np.array([float(dim)])
    entries["config.dropout_rate"] = entries["config.projection"] = np.zeros(1)
    return weight_file_bytes(sorted(entries.items()))


def write_csv(path, column, rows):
    """A `scan_id,<column>` table; a row whose value is None lacks its second cell."""
    path.write_text(f"scan_id,{column}\n" + "".join(k + ("" if v is None else f",{v}") + "\n"
                                                   for k, v in rows.items()))
    return path


@pytest.mark.parametrize("command, bad_scores, bad_labels, flags, files, expected", [
    pytest.param("eval", {}, {"b": "x"}, [], {}, cli.EXIT_IO,
                 id="eval-label-not-integer"),
    pytest.param("compare", {}, {"c": "0.5"}, [], {}, cli.EXIT_IO,
                 id="compare-label-not-integer"),
    pytest.param("eval", {"b": "high"}, {}, [], {}, cli.EXIT_IO,
                 id="eval-score-not-number"),
    pytest.param("eval", {}, {"b": None}, [], {}, cli.EXIT_IO, id="eval-label-cell-missing"),
    pytest.param("eval", {}, {"b": "1" * 200_000}, [], {}, cli.EXIT_IO,
                 id="eval-label-cell-over-the-csv-field-limit"),
    pytest.param("compare", {}, {"b": None}, [], {}, cli.EXIT_IO,
                 id="compare-label-cell-missing"),
    pytest.param("eval", {"c": None}, {}, [], {}, cli.EXIT_IO, id="eval-score-cell-missing"),
    pytest.param("compare", {"c": None}, {}, [], {}, cli.EXIT_IO,
                 id="compare-score-cell-missing"),
    pytest.param("eval", {"b": "nan"}, {}, [], {}, cli.EXIT_NUMERIC, id="eval-score-nan"),
    pytest.param("eval", {"a": "-inf"}, {}, [], {}, cli.EXIT_NUMERIC,
                 id="eval-score-minus-inf"),
    pytest.param("compare", {"d": "inf"}, {}, [], {}, cli.EXIT_NUMERIC,
                 id="compare-score-inf"),
    pytest.param("compare", {"e": "0.5"}, {"e": "1"}, [], {}, cli.EXIT_DATA,
                 id="compare-different-scans"),
    pytest.param("eval", {}, {}, ["--spec", "1.5"], {}, cli.EXIT_USAGE,
                 id="eval-spec-above-one"),
    pytest.param("eval", {}, {}, ["--spec", "-0.1"], {}, cli.EXIT_USAGE,
                 id="eval-spec-negative"),
    pytest.param("eval", {}, {}, ["--sens", "1.5"], {}, cli.EXIT_USAGE,
                 id="eval-sens-above-one"),
    pytest.param("eval", {}, {}, ["--sens", "nan"], {}, cli.EXIT_USAGE,
                 id="eval-sens-nan"),
    pytest.param("score", {}, {}, [], {"volumes/v0.lrvol": LRVOL_NEGATIVE_DIMS}, cli.EXIT_IO,
                 id="score-lrvol-negative-dims"),
    pytest.param("score", {}, {}, [], {"volumes/v0.mhd": MHD_WORDY_NDIMS}, cli.EXIT_IO,
                 id="score-mhd-ndims-not-a-number"),
    pytest.param("score", {}, {}, [],
                 {"volumes/v0.mhd": MHD_2x2x2.replace(b"Spacing = 1 1", b"Spacing = nan 1")},
                 cli.EXIT_IO, id="score-mhd-spacing-nan"),
    pytest.param("score", {}, {}, [],
                 {"volumes/v0.mhd": MHD_2x2x2.replace(b"Spacing = 1 1", b"Spacing = inf 1")},
                 cli.EXIT_IO, id="score-mhd-spacing-inf"),
    pytest.param("score", {}, {}, [],
                 {"volumes/v0.mhd": MHD_2x2x2.replace(b"Offset = 0", b"Offset = nan")},
                 cli.EXIT_IO, id="score-mhd-offset-nan"),
    pytest.param("score", {}, {}, [],
                 {"volumes/v0.mhd": MHD_2x2x2 + b"ElementDataFile = v0.raw\n"},
                 cli.EXIT_IO, id="score-mhd-data-file-repeated"),
    pytest.param("score", {}, {}, [], {"volumes/v0.mhd": MHD_2x2x2 + b"BinaryData True\n"},
                 cli.EXIT_IO, id="score-mhd-line-without-equals"),
    pytest.param("score", {}, {}, [],
                 {"volumes/v0.mhd": MHD_2x2x2.replace(b"v0.raw", b"v0\0.raw")},
                 cli.EXIT_IO, id="score-mhd-data-file-nul"),
    # 8 * (2**61 + 1) voxels wrap to the raw file's 8 in int64
    pytest.param("score", {}, {}, [],
                 {"volumes/v0.mhd": MHD_2x2x2.replace(b"2 2 2", b"2305843009213693953 8 1")},
                 cli.EXIT_IO, id="score-mhd-dims-overflow-int64"),
    pytest.param("score", {}, {}, [], {"volumes/v0.lrvol": lrvol_2x2x2(spacing=(1.0, np.nan, 1.0))},
                 cli.EXIT_IO, id="score-lrvol-spacing-nan"),
    pytest.param("score", {}, {}, [], {"volumes/v0.lrvol": lrvol_2x2x2(origin=(0.0, 0.0, np.inf))},
                 cli.EXIT_IO, id="score-lrvol-origin-inf"),
    # the candidate lies 3.7e19 voxels into a 1 mm grid too long to index
    pytest.param("score", {}, {}, [],
                 {"volumes/v0.lrvol": lrvol_2x2x2(spacing=(1e300, 1.0, 1.0),
                                                  origin=(-3.7e19, 0.0, 0.0))},
                 cli.EXIT_IO, id="score-lrvol-grid-beyond-intp"),
    pytest.param("score", {}, {}, [], {"candidates.csv": candidates_with(b"abc")}, cli.EXIT_IO,
                 id="score-candidate-x-not-number"),
    pytest.param("score", {}, {}, [], {"candidates.csv": candidates_with(b"nan")}, cli.EXIT_IO,
                 id="score-candidate-x-nan"),
    pytest.param("score", {}, {}, [], {"candidates.csv": candidates_with(b"\xff")}, cli.EXIT_IO,
                 id="score-candidates-not-utf8"),
    pytest.param("score", {}, {}, [], {"model/fold0.lrnn": lrnn_of_metadata_dim(7)},
                 cli.EXIT_IO, id="score-model-metadata-dim-7"),
    pytest.param("train", {}, {}, [], {"train.cfg": b"epochs=abc\n"}, cli.EXIT_USAGE,
                 id="train-config-epochs-not-number"),
    pytest.param("train", {}, {}, ["--lr", "nan"], {"train.cfg": b""}, cli.EXIT_USAGE,
                 id="train-lr-nan"),
    pytest.param("train", {}, {}, [], {"train.cfg": b"learning_rate=inf\n"}, cli.EXIT_USAGE,
                 id="train-config-lr-inf"),
    pytest.param("pancan", {}, {}, [], {"features.csv": FEATURES.replace(b",0,1,", b",yes,1,")},
                 cli.EXIT_IO, id="pancan-flag-not-integer"),
    pytest.param("pancan", {}, {}, [], {"features.csv": FEATURES.replace(b",0,1,", b",2,1,")},
                 cli.EXIT_IO, id="pancan-flag-two"),
    pytest.param("pancan", {}, {}, [], {"features.csv": FEATURES.replace(b"62.0", b"nan")},
                 cli.EXIT_NUMERIC, id="pancan-age-nan"),
    pytest.param("pancan", {}, {}, [],
                 {"features.csv": FEATURES.replace(b",1,8.0,", b"," + b"1" * 400 + b",8.0,")},
                 cli.EXIT_IO, id="pancan-nodule-count-overflows-a-float"),
    pytest.param("pancan", {}, {}, [],
                 {"weights.txt": WEIGHTS.replace(b"intercept=-6.8", b"intercept=nan")},
                 cli.EXIT_NUMERIC, id="pancan-intercept-nan"),
    pytest.param("simulate", {}, {}, ["--seed", "-1"], {}, cli.EXIT_USAGE,
                 id="simulate-seed-negative"),
    pytest.param("simulate", {}, {}, ["--noise", "1e308"], {}, cli.EXIT_NUMERIC,
                 id="simulate-noise-overflows"),
    # numpy refuses each of these arrays (petabytes) before it allocates any of it
    pytest.param("simulate", {}, {}, ["--dims", "100000"], {}, cli.EXIT_USAGE,
                 id="simulate-dims-beyond-memory"),
    pytest.param("simulate", {}, {}, ["--nodules-max", "1000000000000"], {}, cli.EXIT_USAGE,
                 id="simulate-nodules-max-beyond-memory"),
    # and numpy cannot represent these sizes at all
    pytest.param("simulate", {}, {}, ["--dims", "3000000"], {}, cli.EXIT_USAGE,
                 id="simulate-dims-beyond-intp-bytes"),
    pytest.param("simulate", {}, {}, ["--dims", "100000000000000000000"], {}, cli.EXIT_USAGE,
                 id="simulate-dims-beyond-intp"),
    pytest.param("simulate", {}, {}, ["--nodules-max", "100000000000000000000"], {},
                 cli.EXIT_USAGE, id="simulate-nodules-max-beyond-int64"),
    pytest.param("simulate", {}, {}, ["--nodules-min", "100000000000000000000",
                                      "--nodules-max", "100000000000000000000"], {},
                 cli.EXIT_USAGE, id="simulate-nodules-min-and-max-beyond-int64"),
    pytest.param("train", {}, {}, ["--seed", "-1"], {"train.cfg": b""}, cli.EXIT_USAGE,
                 id="train-seed-negative"),
    pytest.param("compare", {}, {}, ["--seed", "-1"], {}, cli.EXIT_USAGE,
                 id="compare-seed-negative"),
])
def test_bad_input_exits_with_documented_code(command, bad_scores, bad_labels, flags, files,
                                              expected, tmp_path, capsys, request):
    scores = write_csv(tmp_path / "scores.csv", "score", {**GOOD_SCORES, **bad_scores})
    labels = write_csv(tmp_path / "labels.csv", "label", {**GOOD_LABELS, **bad_labels})
    data = tmp_path / "data"
    for name, content in {**ONE_SCAN, "features.csv": FEATURES, "weights.txt": WEIGHTS,
                          **files}.items():
        (data / name).parent.mkdir(parents=True, exist_ok=True)
        (data / name).write_bytes(content)
    if command == "eval":
        argv = ["eval", "--scores", scores, "--labels", labels]
    elif command == "compare":
        other = write_csv(tmp_path / "other.csv", "score", GOOD_SCORES)
        argv = ["compare", "--a", scores, "--b", other, "--labels", labels,
                "--perms", 10, "--seed", 0]
    elif command == "train":
        argv = ["train", "--data", data, "--config", data / "train.cfg", "--seed", 0,
                "--out", tmp_path / "model"]
    elif command == "simulate":
        argv = ["simulate", "--n", 2, "--prevalence", 0.3, "--seed", 0, "--dims", 40,
                "--out", tmp_path / "sim"]
    elif command == "pancan":
        argv = ["pancan", "--weights", data / "weights.txt", "--features", data / "features.csv",
                "--out", tmp_path / "out.csv"]
    else:
        model = (data / "model" if "model/fold0.lrnn" in files
                 else request.getfixturevalue("small_model"))
        argv = ["score", "--model", model,
                "--data", data if files else request.getfixturevalue("small_data"),
                "--out", tmp_path / "out.csv"]
    assert run(argv + flags) == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not any((tmp_path / "sim").rglob("*.lrvol*"))
