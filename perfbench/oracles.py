"""Checks on lungrisk's outputs, computed apart from the program.

Nothing here imports lungrisk: every check re-derives its expectation from
the files the program wrote (or from properties the method must have) with
plain numpy, so a fault in a shared helper cannot hide itself. Each check
raises `CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
import zlib
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, reason: str):
    if not ok:
        raise CheckFailed(reason)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sha256_tree(path) -> str:
    """Digest of a file's bytes, or of every file under a directory with its relative path."""
    path = Path(path)
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# ROC statistics


def pairwise_auc(scores, labels) -> float:
    """Mann-Whitney count over every (positive, negative) pair, ties half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    require(pos.size > 0 and neg.size > 0, "AUC needs both classes")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def trapezoid_area(fpr, tpr) -> float:
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    return float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))


def check_eval_report(report_csv, roc_csv, scores: dict, labels: dict):
    """The AUC `eval` wrote equals the pairwise count and the area under its ROC CSV."""
    rows = read_rows(report_csv)
    auc_rows = [r for r in rows if r["metric"] == "auc" and r["group"] == "all"]
    require(len(auc_rows) == 1, f"{report_csv}: expected one overall auc row")
    written = float(auc_rows[0]["value"])
    ids = sorted(scores)
    counted = pairwise_auc([scores[i] for i in ids], [labels[i] for i in ids])
    roc = read_rows(roc_csv)
    area = trapezoid_area([r["fpr"] for r in roc], [r["tpr"] for r in roc])
    require(abs(written - counted) <= 1e-12,
            f"eval AUC {written!r} != pairwise count {counted!r}")
    require(abs(written - area) <= 1e-12,
            f"eval AUC {written!r} != trapezoid area {area!r} under its ROC CSV")
    return written


def check_p_value(p: float, n_perm: int):
    """A permutation p-value with add-one smoothing is (1+k)/(1+n_perm)."""
    k = p * (1 + n_perm) - 1
    require(math.isfinite(k) and abs(k - round(k)) < 1e-6 and 0 <= round(k) <= n_perm,
            f"p-value {p!r} is not (1+k)/(1+{n_perm}) for an integer k")


# ---------------------------------------------------------------------------
# phantom cohort


def check_prevalence(labels: dict, requested: float, calibration_scans: int = 4000):
    """Observed prevalence within a binomial bound of the request.

    The bound is 4.5 standard errors of a cohort of this size plus 3 of the
    Monte-Carlo sample the generator calibrates its intercept on.
    """
    n = len(labels)
    observed = sum(labels.values()) / n
    var = requested * (1 - requested)
    bound = 4.5 * math.sqrt(var / n) + 3.0 * math.sqrt(var / calibration_scans)
    require(abs(observed - requested) <= bound,
            f"prevalence {observed:.4f} is further than {bound:.4f} from {requested}")


def check_labels_follow_nodules(labels: dict, nodule_truth_csv):
    """Each scan's label is the OR of its nodules' malignant flags."""
    malignant: dict[str, int] = {}
    for r in read_rows(nodule_truth_csv):
        malignant[r["scan_id"]] = malignant.get(r["scan_id"], 0) | int(r["malignant"])
    require(set(malignant) == set(labels), "nodule_truth.csv and labels.csv list different scans")
    bad = sorted(s for s in labels if labels[s] != malignant[s])
    require(not bad, f"labels differ from the OR of malignant nodules for {bad[:5]}")


LRVOL_MAGIC = b"LRVOL1\x00\x00"
LRVOL_HEADER = 72


def check_volume_file(path):
    """LRVOL1 magic and a length of 72 + 2*nx*ny*nz bytes."""
    with open(path, "rb") as fh:
        head = fh.read(LRVOL_HEADER)
        fh.seek(0, 2)
        size = fh.tell()
    require(len(head) == LRVOL_HEADER and head[:8] == LRVOL_MAGIC,
            f"{path} does not start with the LRVOL1 magic")
    nx, ny, nz = struct.unpack_from("<3i", head, 8)
    require(size == LRVOL_HEADER + 2 * nx * ny * nz,
            f"{path} holds {size} bytes, not 72 + 2*{nx}*{ny}*{nz}")


def read_volume(path):
    """(voxels indexed x,y,z as float64, spacing, origin) of an LRVOL1 file."""
    check_volume_file(path)
    blob = Path(path).read_bytes()
    nx, ny, nz = struct.unpack_from("<3i", blob, 8)
    spacing = struct.unpack_from("<3d", blob, 20)
    origin = struct.unpack_from("<3d", blob, 44)
    vox = np.frombuffer(blob, dtype="<i2", offset=LRVOL_HEADER).reshape(nz, ny, nx)
    return vox.transpose(2, 1, 0).astype(np.float64), spacing, origin


# ---------------------------------------------------------------------------
# PanCan baseline


def read_key_values(path) -> dict[str, float]:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


def pancan_reference(weights_path, features_csv) -> dict[str, float]:
    """Logistic over the nine features per nodule, max over each scan's nodules."""
    w = read_key_values(weights_path)
    best: dict[str, float] = {}
    for r in read_rows(features_csv):
        z = (w.get("intercept", 0.0)
             + w["age"] * float(r["age"])
             + w["sex_male"] * (r["sex"] == "male")
             + w["family_history"] * int(r["family_history"])
             + w["emphysema"] * int(r["emphysema"])
             + w["nodule_count"] * int(r["nodule_count"])
             + w["diameter_mm"] * float(r["diameter_mm"])
             + w["type_part_solid"] * (r["nodule_type"] == "part_solid")
             + w["type_nonsolid"] * (r["nodule_type"] == "nonsolid")
             + w["upper_lobe"] * int(r["upper_lobe"])
             + w["spiculation"] * int(r["spiculation"]))
        p = 1.0 / (1.0 + math.exp(-z))
        best[r["scan_id"]] = max(best.get(r["scan_id"], 0.0), p)
    return best


def check_scores_match(written: dict, expected: dict, tol: float, what: str):
    require(set(written) == set(expected), f"{what}: scores cover different scans")
    worst = max(abs(written[s] - expected[s]) for s in expected)
    require(worst <= tol, f"{what}: a score is {worst:.3g} from its reference (tolerance {tol:g})")
    return worst


def check_score_file(path, requested: list[str]) -> dict[str, float]:
    """Exactly one finite score in (0,1) per requested scan, and no others."""
    rows = read_rows(path)
    ids = [r["scan_id"] for r in rows]
    require(len(ids) == len(set(ids)), f"{path}: a scan is scored twice")
    require(set(ids) == set(requested), f"{path}: scored scans differ from the requested list")
    scores = {r["scan_id"]: float(r["score"]) for r in rows}
    bad = sorted(s for s, v in scores.items() if not (math.isfinite(v) and 0.0 < v < 1.0))
    require(not bad, f"{path}: scores outside (0,1) or non-finite for {bad[:5]}")
    return scores


def check_auc_against_pancan(nn: dict, pancan: dict, labels: dict, margin: float = 0.05):
    """The network's held-out AUC is no worse than PanCan's on the same scans by more than `margin`."""
    ids = sorted(nn)
    y = [labels[i] for i in ids]
    a_nn = pairwise_auc([nn[i] for i in ids], y)
    a_pc = pairwise_auc([pancan[i] for i in ids], y)
    require(a_nn >= a_pc - margin,
            f"held-out AUC {a_nn:.4f} is below PanCan's {a_pc:.4f} by more than {margin}")
    return a_nn, a_pc


# ---------------------------------------------------------------------------
# network weights and training


LRNN_MAGIC = b"LRNN1"


def read_weights(path) -> dict[str, np.ndarray]:
    """Arrays of an LRNN1 file, after checking its CRC32 trailer."""
    blob = Path(path).read_bytes()
    require(blob[:5] == LRNN_MAGIC and len(blob) > 15, f"{path} is not an LRNN1 file")
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    require(zlib.crc32(blob[:-4]) == crc, f"{path}: CRC32 does not match its contents")
    _, count = struct.unpack_from("<HI", blob, 5)
    off = 11
    manifest = []
    for _ in range(count):
        (length,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + length].decode()
        off += 2 + length
        ndim = blob[off]
        shape = struct.unpack_from(f"<{ndim}i", blob, off + 1)
        off += 1 + 4 * ndim
        manifest.append((name, shape))
    arrays = {}
    for name, shape in manifest:
        n = int(np.prod(shape)) if shape else 1
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape)
        off += 8 * n
    require(off == len(blob) - 4, f"{path}: payload length disagrees with its manifest")
    return arrays


def check_training_loss(path, folds: int, epochs: int):
    """Every fold's loss is finite and its last epoch is below its first."""
    by_fold: dict[int, list[tuple[int, float]]] = {}
    for r in read_rows(path):
        by_fold.setdefault(int(r["fold"]), []).append((int(r["epoch"]), float(r["loss"])))
    require(sorted(by_fold) == list(range(folds)), f"{path}: expected folds 0..{folds - 1}")
    for fold, rows in by_fold.items():
        losses = [loss for _, loss in sorted(rows)]
        require(len(losses) == epochs, f"{path}: fold {fold} has {len(losses)} epochs")
        require(all(math.isfinite(v) for v in losses), f"{path}: fold {fold} has a non-finite loss")
        require(losses[-1] < losses[0], f"{path}: fold {fold} loss did not fall "
                                        f"({losses[0]:.4f} -> {losses[-1]:.4f})")


# ---------------------------------------------------------------------------
# reference forward pass


BN_EPSILON = 1e-5
HU_LO, HU_HI = -1000.0, 400.0


def patch_inputs(volume, candidates: list[dict], metadata_dim: int):
    """(P,3,28,28) planes and (P,metadata_dim) raw metadata for one scan.

    The centre 28^3 of the 32^3 block around each candidate (air outside the
    volume), its three central slices, HU window mapped onto [0,1]; the ten
    largest candidates at most.
    """
    vox, spacing, origin = volume
    require(tuple(spacing) == (1.0, 1.0, 1.0), "reference pass expects 1 mm volumes")
    chosen = sorted(candidates, key=lambda c: (-c["radius_mm"], -c["confidence"],
                                               (c["x_mm"], c["y_mm"], c["z_mm"])))[:10]
    planes, meta = [], []
    for c in chosen:
        centre = np.array([c["x_mm"], c["y_mm"], c["z_mm"]])
        start = np.floor((centre - np.asarray(origin)) + 0.5).astype(int) - 16 + 2
        crop = np.full((28, 28, 28), HU_LO)
        lo = np.maximum(start, 0)
        hi = np.minimum(start + 28, vox.shape)
        if np.all(hi > lo):
            crop[tuple(slice(a - s, b - s) for a, b, s in zip(lo, hi, start))] = \
                vox[tuple(slice(a, b) for a, b in zip(lo, hi))]
        views = np.stack([crop[:, 14, :], crop[14, :, :], crop[:, :, 14]])
        planes.append((np.clip(views, HU_LO, HU_HI) - HU_LO) / (HU_HI - HU_LO))
        row = [c["radius_mm"], c["x_mm"], c["y_mm"], c["z_mm"], c["confidence"]]
        if metadata_dim == 6:
            row.append(c["sphericity"])
        meta.append(row)
    return np.stack(planes), np.asarray(meta, dtype=np.float64)


def _conv3x3(x, kernels, bias):
    """Direct shifted-sum 3x3 convolution with zero padding 1."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2, w + 2))
    padded[:, :, 1:-1, 1:-1] = x
    out = np.zeros((n, kernels.shape[0], h, w))
    for di in range(3):
        for dj in range(3):
            out += np.einsum("oc,nchw->nohw", kernels[:, :, di, dj],
                             padded[:, :, di:di + h, dj:dj + w])
    return out + bias[None, :, None, None]


def _bn(x, a, name):
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    inv = 1.0 / np.sqrt(a[f"{name}.running_var"] + BN_EPSILON)
    return ((x - a[f"{name}.running_mean"].reshape(shape)) * inv.reshape(shape)
            * a[f"{name}.gamma"].reshape(shape) + a[f"{name}.beta"].reshape(shape))


def reference_patch_scores(a: dict, planes, metadata) -> np.ndarray:
    """Infer-mode branch scores of the ten-branch network for a patch stack."""
    h = planes
    for conv in ("conv1", "conv2", "conv3"):
        h = np.maximum(_bn(_conv3x3(h, a[f"{conv}.kernels"], a[f"{conv}.bias"]), a,
                           f"bn_{conv}"), 0.0)
    skip = _bn(_conv3x3(planes, a["conv_skip.kernels"], a["conv_skip.bias"]), a, "bn_skip")
    h = _bn(_bn(h + skip, a, "bn_merge"), a, "bn_drop_map")
    h = h.reshape(h.shape[0], -1)
    h = _bn(h @ a["dense1.weights"] + a["dense1.bias"], a, "bn_fc1")
    h = _bn(h, a, "bn_drop_vec")
    h = _bn(h @ a["dense2.weights"] + a["dense2.bias"], a, "bn_fc2")
    meta = (metadata - a["meta_stats.mean"]) / a["meta_stats.std"]
    z = np.concatenate([h, meta], axis=1) @ a["dense_out.weights"] + a["dense_out.bias"]
    with np.errstate(over="ignore"):
        return np.clip(1.0 / (1.0 + np.exp(-z[:, 0])), 1e-15, 1.0 - 1e-15)


def reference_scan_scores(members: list[dict], scans: dict) -> dict[str, float]:
    """Max over each scan's patches, mean over the ensemble members.

    `scans` maps scan_id -> (LRVOL1 path, candidates); volumes are read one
    at a time and all patches go through each member in one stack.
    """
    dim = int(members[0]["config.metadata_dim"][0])
    planes, meta, sizes = [], [], []
    for path, candidates in scans.values():
        p, m = patch_inputs(read_volume(path), candidates, dim)
        planes.append(p)
        meta.append(m)
        sizes.append(len(p))
    planes, meta = np.concatenate(planes), np.concatenate(meta)
    bounds = np.cumsum([0] + sizes)
    per_member = np.stack([np.maximum.reduceat(reference_patch_scores(a, planes, meta),
                                               bounds[:-1]) for a in members])
    return dict(zip(scans, per_member.mean(axis=0).tolist()))


def read_candidates(path) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in read_rows(path):
        c = {k: float(r[k]) for k in ("x_mm", "y_mm", "z_mm", "radius_mm", "confidence")}
        if r.get("sphericity"):
            c["sphericity"] = float(r["sphericity"])
        out.setdefault(r["scan_id"], []).append(c)
    return out


def read_labels(path) -> dict[str, int]:
    return {r["scan_id"]: int(r["label"]) for r in read_rows(path)}
