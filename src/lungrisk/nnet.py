"""The deep-and-wide multi-instance risk network: build, train, persist, run.

One shared convolutional/dense stack scores each of the ten nodule branches;
the patient risk is the max over unmasked branch scores. Branch layout:

    input (3,28,28)
      -> conv+BN+relu  x3        (main path, 8 channels each)
      -> conv+BN on the raw input (skip path)
      -> add + BN
      -> dropout + BN, flatten (6272)
      -> dense(64) + BN
      -> dropout + BN
      -> dense(64) + BN
      -> concat with the standardized metadata vector
      -> dense(1) + sigmoid
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import struct
import subprocess
import sys
import threading
import warnings
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensor as tz
from .errors import (
    ChecksumError,
    ConfigError,
    FoldWorkerError,
    FormatError,
    LungRiskError,
    TruncatedFileError,
    VersionError,
    ZeroNoduleWarning,
)
from .preprocess import (
    CROP_SIDE,
    MAX_NODULES,
    MetadataStats,
    ScanExample,
    crop28,
    metadata_stats_from_examples,
    normalize_hu,
    triplanar,
)

N_CHANNELS = 8
FC_UNITS = 64
FLAT_DIM = N_CHANNELS * CROP_SIDE * CROP_SIDE

_BN_MAP_NAMES = ("bn_conv1", "bn_conv2", "bn_conv3", "bn_skip", "bn_merge", "bn_drop_map")
_BN_VEC_NAMES = ("bn_fc1", "bn_drop_vec", "bn_fc2")


@dataclass
class NNetConfig:
    dropout_rate: float = 0.25
    metadata_dim: int = 5
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    n_branches: int = MAX_NODULES
    projection: str = "slice"   # plane extraction used for train-time re-crops

    def __post_init__(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must lie in [0,1), got {self.dropout_rate}")
        if self.metadata_dim not in (5, 6):
            raise ConfigError(f"metadata_dim must be 5 or 6, got {self.metadata_dim}")
        if self.n_branches != MAX_NODULES:
            raise ConfigError(f"n_branches is fixed at {MAX_NODULES}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")


class NNetParams:
    """All learnable tensors and batch-norm states, shared across branches."""

    def __init__(self, metadata_dim: int, dropout_rate: float = 0.25):
        self.metadata_dim = metadata_dim
        self.dropout_rate = dropout_rate
        self.tensors: dict[str, tz.Tensor] = {}
        self.bn: dict[str, tz.BatchNormState] = {}

    def learnable(self) -> dict[str, tz.Tensor]:
        out = dict(self.tensors)
        for name, state in self.bn.items():
            out[f"{name}.gamma"] = state.gamma
            out[f"{name}.beta"] = state.beta
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        """Every persisted array, including BN running statistics."""
        out = {name: t.data for name, t in self.learnable().items()}
        for name, state in self.bn.items():
            out[f"{name}.running_mean"] = state.running_mean
            out[f"{name}.running_var"] = state.running_var
        return out

    def zero_grad(self):
        for t in self.learnable().values():
            t.zero_grad()


def _param_shapes(metadata_dim: int) -> dict[str, tuple]:
    shapes = {
        "conv1.kernels": (N_CHANNELS, 3, 3, 3),
        "conv1.bias": (N_CHANNELS,),
        "conv2.kernels": (N_CHANNELS, N_CHANNELS, 3, 3),
        "conv2.bias": (N_CHANNELS,),
        "conv3.kernels": (N_CHANNELS, N_CHANNELS, 3, 3),
        "conv3.bias": (N_CHANNELS,),
        "conv_skip.kernels": (N_CHANNELS, 3, 3, 3),
        "conv_skip.bias": (N_CHANNELS,),
        "dense1.weights": (FLAT_DIM, FC_UNITS),
        "dense1.bias": (FC_UNITS,),
        "dense2.weights": (FC_UNITS, FC_UNITS),
        "dense2.bias": (FC_UNITS,),
        "dense_out.weights": (FC_UNITS + metadata_dim, 1),
        "dense_out.bias": (1,),
    }
    return shapes


def init_params(config: NNetConfig, rng: np.random.Generator | None = None) -> NNetParams:
    """He-style uniform fan-in init for conv/dense weights, zero biases,
    identity batch-norm; deterministic for a given seed."""
    rng = rng or np.random.default_rng(config.seed)
    params = NNetParams(config.metadata_dim, config.dropout_rate)
    fan_in = {
        "conv1.kernels": 3 * 9, "conv2.kernels": N_CHANNELS * 9,
        "conv3.kernels": N_CHANNELS * 9, "conv_skip.kernels": 3 * 9,
        "dense1.weights": FLAT_DIM, "dense2.weights": FC_UNITS,
        "dense_out.weights": FC_UNITS + config.metadata_dim,
    }
    for name, shape in _param_shapes(config.metadata_dim).items():
        if name in fan_in:
            bound = np.sqrt(6.0 / fan_in[name])
            if name == "dense_out.weights":
                bound *= 0.1  # start near sigmoid(0): calibrated initial loss
            data = rng.uniform(-bound, bound, size=shape)
        else:
            data = np.zeros(shape)
        params.tensors[name] = tz.Tensor(data, name=name)
    for bn_name in _BN_MAP_NAMES:
        params.bn[bn_name] = tz.BatchNormState.create(N_CHANNELS, name=bn_name)
    for bn_name in _BN_VEC_NAMES:
        params.bn[bn_name] = tz.BatchNormState.create(FC_UNITS, name=bn_name)
    return params


# ---------------------------------------------------------------------------
# forward passes


def _forward_patch_batch(params: NNetParams, planes: np.ndarray, metadata: np.ndarray,
                         mode: str, rng: np.random.Generator | None = None,
                         trace: list | None = None) -> tz.Tensor:
    """Branch scores for a (P,3,28,28) patch stack; returns a (P,) tensor."""
    p = params.tensors
    bn = params.bn
    rate = params.dropout_rate

    def record(name, t):
        if trace is not None:
            trace.append((name, tuple(t.data.shape[1:])))
        return t

    x = tz.Tensor(planes, requires_grad=False)
    record("input", x)
    h = tz.relu(tz.batch_norm(tz.conv2d_same(x, p["conv1.kernels"], p["conv1.bias"]),
                              bn["bn_conv1"], mode))
    record("conv1", h)
    h = tz.relu(tz.batch_norm(tz.conv2d_same(h, p["conv2.kernels"], p["conv2.bias"]),
                              bn["bn_conv2"], mode))
    record("conv2", h)
    h = tz.relu(tz.batch_norm(tz.conv2d_same(h, p["conv3.kernels"], p["conv3.bias"]),
                              bn["bn_conv3"], mode))
    record("conv3", h)
    skip = tz.batch_norm(tz.conv2d_same(x, p["conv_skip.kernels"], p["conv_skip.bias"]),
                         bn["bn_skip"], mode)
    record("conv_skip", skip)
    h = tz.batch_norm(tz.residual_add(h, skip), bn["bn_merge"], mode)
    record("merge", h)
    h = tz.batch_norm(tz.dropout(h, rate, mode, rng), bn["bn_drop_map"], mode)
    h = tz.flatten(h)
    record("flatten", h)
    h = tz.batch_norm(tz.dense(h, p["dense1.weights"], p["dense1.bias"]), bn["bn_fc1"], mode)
    record("dense1", h)
    h = tz.batch_norm(tz.dropout(h, rate, mode, rng), bn["bn_drop_vec"], mode)
    h = tz.batch_norm(tz.dense(h, p["dense2.weights"], p["dense2.bias"]), bn["bn_fc2"], mode)
    record("dense2", h)
    h = tz.concat(h, tz.Tensor(metadata, requires_grad=False))
    record("concat", h)
    z = tz.dense(h, p["dense_out.weights"], p["dense_out.bias"])
    score = tz.sigmoid(tz.reshape(z, (-1,)))
    record("output", score)
    return score


def score_bags(params: NNetParams, planes: np.ndarray, metadata: np.ndarray,
               segments: np.ndarray, n_bags: int, mode: str,
               rng: np.random.Generator | None = None) -> tz.Tensor:
    """Risk of each bag: the max branch score over the patches of its segment.

    Train and inference share this path. In infer mode every layer scores a
    patch independently of the rest of the batch, so a bag's risk is
    exactly the max of its patches' one-at-a-time scores, in any order.
    """
    scores = _forward_patch_batch(params, planes, metadata, mode, rng)
    return tz.segment_max(scores, segments, n_bags)


def shape_manifest(metadata_dim: int = 5) -> list[tuple[str, tuple]]:
    """Expected per-branch activation shapes, for conformance checks."""
    s = CROP_SIDE
    return [
        ("input", (3, s, s)),
        ("conv1", (N_CHANNELS, s, s)),
        ("conv2", (N_CHANNELS, s, s)),
        ("conv3", (N_CHANNELS, s, s)),
        ("conv_skip", (N_CHANNELS, s, s)),
        ("merge", (N_CHANNELS, s, s)),
        ("flatten", (FLAT_DIM,)),
        ("dense1", (FC_UNITS,)),
        ("dense2", (FC_UNITS,)),
        ("concat", (FC_UNITS + metadata_dim,)),
        ("output", ()),
    ]


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    params: NNetParams
    metadata_stats: MetadataStats
    loss_history: list[float]


def _gather_batch(examples: list[ScanExample], meta_rows: list[np.ndarray],
                  mode: str, rng, projection: str):
    """Stack the unmasked patches (which lead each patch list) of a batch of
    scans; returns planes, metadata, segment ids and labels, or None when
    every scan is all-masked. Train mode re-crops from the stored cubes."""
    planes, meta, segments, labels = [], [], [], []
    scan_slot = 0
    for ex, rows in zip(examples, meta_rows):
        n = ex.n_unmasked
        if n == 0:
            continue
        for j in range(n):
            if mode == "train" and ex.cubes is not None:
                cube = crop28(ex.cubes[j], "train", rng)
                planes.append(normalize_hu(triplanar(cube, projection)))
            else:
                planes.append(ex.patches[j].planes)
        meta.append(rows[:n])
        segments.extend([scan_slot] * n)
        labels.append(ex.label)
        scan_slot += 1
    if scan_slot == 0:
        return None
    return (np.stack(planes), np.concatenate(meta), np.asarray(segments),
            np.asarray(labels, dtype=np.float64))


def train(config: NNetConfig, dataset: list[ScanExample],
          rng: np.random.Generator | None = None) -> TrainResult:
    """Mini-batch Adam/BCE training with per-iteration random re-crops.

    Returns the trained parameters, the metadata statistics computed from
    this dataset, and the mean per-epoch training loss.
    """
    if not dataset:
        raise ConfigError("training needs a non-empty dataset")
    label_set = {ex.label for ex in dataset}
    if label_set != {0, 1}:
        raise ConfigError(f"training needs both classes, found labels {sorted(label_set)}")
    if any(ex.metadata_standardized for ex in dataset):
        raise ConfigError("training expects raw metadata; examples are already standardized")

    rng = rng or np.random.default_rng(config.seed)
    stats = metadata_stats_from_examples(dataset)
    meta_rows = [
        np.stack([stats.standardize(p.metadata) if not p.masked else p.metadata
                  for p in ex.patches])
        for ex in dataset
    ]
    params = init_params(config, rng)
    learnable = params.learnable()
    adam = tz.AdamState(learning_rate=config.learning_rate)
    raw = {name: t.data for name, t in learnable.items()}

    history: list[float] = []
    n = len(dataset)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_scored = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = _gather_batch([dataset[i] for i in idx], [meta_rows[i] for i in idx],
                                  "train", rng, config.projection)
            if batch is None:
                continue
            planes, meta, segments, labels = batch
            risks = score_bags(params, planes, meta, segments, labels.size, "train", rng)
            loss = tz.bce_loss(risks, labels)
            params.zero_grad()
            grads = tz.backward(loss, params=learnable)
            tz.adam_step(raw, grads, adam)
            epoch_loss += float(loss.data) * labels.size
            n_scored += labels.size
        history.append(epoch_loss / n_scored)
    return TrainResult(params=params, metadata_stats=stats, loss_history=history)


# ---------------------------------------------------------------------------
# k-fold ensemble


@dataclass
class FoldMember:
    params: NNetParams
    metadata_stats: MetadataStats
    loss_history: list[float] = field(default_factory=list)


@dataclass
class FoldEnsemble:
    members: list[FoldMember]

    def __post_init__(self):
        if not self.members:
            raise ConfigError("an ensemble needs at least one member")
        dims = {m.params.metadata_dim for m in self.members}
        if len(dims) != 1:
            raise ConfigError(f"ensemble members disagree on metadata_dim: {dims}")


def stratified_folds(labels: list[int], k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Deterministic label-stratified partition into k validation folds."""
    labels = np.asarray(labels)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (1, 0):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        for j, i in enumerate(idx):
            folds[j % k].append(int(i))
    return [np.sort(np.asarray(f)) for f in folds]


def kfold_train(config: NNetConfig, dataset: list[ScanExample], k: int = 5,
                rng: np.random.Generator | None = None) -> FoldEnsemble:
    """Train k models, each on k-1 stratified folds, for averaged inference.

    With k=1 the one model trains on the whole dataset under `config.seed`.
    The folds train side by side in fold workers (see `_train_in_workers`).
    """
    if len(dataset) < k:
        raise ConfigError(f"need at least {k} examples for {k}-fold training")
    if k < 1:
        raise ConfigError("fold count must be positive")
    if k == 1:
        jobs = [(config, np.empty(0, dtype=np.int64))]
    else:
        seeds = np.random.SeedSequence(config.seed).generate_state(k + 1)
        fold_rng = np.random.default_rng(seeds[k])
        folds = stratified_folds([ex.label for ex in dataset], k, fold_rng)
        jobs = [(replace(config, seed=int(seeds[i])), holdout)
                for i, holdout in enumerate(folds)]
    return FoldEnsemble(members=[
        FoldMember(params=r.params, metadata_stats=r.metadata_stats, loss_history=r.loss_history)
        for r in _train_in_workers(dataset, jobs)])


# ---------------------------------------------------------------------------
# fold workers
#
# Each worker is a fresh interpreter with BLAS on one thread. On a 2-core
# machine (OpenBLAS 0.3.31) a second BLAS thread made a train step about 6%
# faster, a second fold in its own process about 87%. One thread also makes
# a fold's bytes independent of the thread count BLAS would pick on the
# machine at hand. Workers start through `subprocess`, not `multiprocessing`,
# whose spawn mode re-runs the caller's unguarded `__main__` and whose fork
# mode inherits the parent's BLAS threads.

_WORKER_ENTRY = "from lungrisk.nnet import _serve_folds; _serve_folds()"
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_env() -> dict[str, str]:
    package_root = str(Path(__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, **_ONE_BLAS_THREAD, "PYTHONPATH": path}


def _train_in_workers(dataset: list[ScanExample], jobs: list[tuple]) -> list[TrainResult]:
    """Train each (config, holdout indices) job on the dataset less its holdout.

    The jobs run in min(len(jobs), usable CPUs) workers. Each worker gets
    the dataset once over its stdin, then takes jobs until none are left;
    results come back over its stdout and are returned in job order. A
    LungRiskError raised by a job is re-raised here with its class and
    message, and a worker that ends without its result raises
    FoldWorkerError; either stops the other workers. When several jobs fail,
    the error of the first of them is raised.
    """
    pending = iter(enumerate(jobs))
    lock = threading.Lock()
    failed = threading.Event()
    results: list[TrainResult | None] = [None] * len(jobs)
    errors: list[tuple[int, LungRiskError]] = []
    workers: list[subprocess.Popen] = []
    threads: list[threading.Thread] = []

    def stop():
        failed.set()
        for worker in workers:
            worker.kill()

    def drive(worker):
        i = len(jobs)          # no job taken yet
        try:
            pickle.dump(dataset, worker.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            while not failed.is_set():
                with lock:
                    i, job = next(pending, (len(jobs), None))
                if job is None:
                    break
                pickle.dump(job, worker.stdin, protocol=pickle.HIGHEST_PROTOCOL)
                worker.stdin.flush()
                ok, payload = pickle.load(worker.stdout)
                if ok:
                    results[i] = payload
                else:
                    errors.append((i, payload))
                    stop()
        except (OSError, EOFError, pickle.UnpicklingError):
            if not failed.is_set():
                code = worker.wait()
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                task = f"fold {i}" if i < len(jobs) else "a fold"
                errors.append((i, FoldWorkerError(f"a fold worker {how} before returning {task}")))
                stop()
        finally:
            with contextlib.suppress(OSError):
                worker.stdin.close()

    try:
        for _ in range(min(len(jobs), _usable_cpus())):
            workers.append(subprocess.Popen([sys.executable, "-c", _WORKER_ENTRY],
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                            env=_worker_env()))
        for worker in workers:
            threads.append(threading.Thread(target=drive, args=(worker,)))
            threads[-1].start()
        for thread in threads:
            thread.join()
    except BaseException:
        stop()
        raise
    finally:
        for thread in threads:
            thread.join()
        for worker in workers:
            with contextlib.suppress(OSError):
                worker.stdin.close()
            worker.wait()
            worker.stdout.close()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def _serve_folds():
    """Fold-worker entry: read the dataset from stdin, then answer each
    (config, holdout) job with (True, TrainResult) or (False, LungRiskError)
    on stdout, until stdin ends."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent stops its workers
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)           # a stray print must not corrupt the replies
    requests = sys.stdin.buffer
    dataset = pickle.load(requests)
    while True:
        try:
            config, holdout = pickle.load(requests)
        except EOFError:
            return
        held = set(holdout.tolist())
        try:
            result = train(config, [ex for j, ex in enumerate(dataset) if j not in held])
        except LungRiskError as exc:
            reply = (False, exc)
        else:
            result.params.zero_grad()
            reply = (True, result)
        pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()


def ensemble_predict(ensemble: FoldEnsemble, example: ScanExample) -> float:
    """Mean of member infer-mode risks; expects raw (unstandardized) metadata.

    Each member scores the scan's unmasked patches in one call. All-masked
    examples score 0.0 and raise a ZeroNoduleWarning.
    """
    if example.metadata_standardized:
        raise ConfigError("ensemble_predict standardizes per member; pass raw examples")
    raw_rows = np.stack([p.metadata for p in example.patches])
    batch = _gather_batch([example], [raw_rows], "infer", None, "slice")
    if batch is None:
        warnings.warn(f"scan {example.scan_id!r} has no unmasked nodules; risk set to 0.0",
                      ZeroNoduleWarning, stacklevel=2)
        return 0.0
    planes, raw_meta, segments, _ = batch
    risks = [float(score_bags(m.params, planes, m.metadata_stats.standardize(raw_meta),
                              segments, 1, "infer").data[0])
             for m in ensemble.members]
    return float(np.mean(risks))


# ---------------------------------------------------------------------------
# persistence: magic "LRNN1", version u16, shape manifest, f64 payload, crc32

WEIGHTS_MAGIC = b"LRNN1"
WEIGHTS_VERSION = 1


def save_params(params: NNetParams, path, metadata_stats: MetadataStats | None = None):
    """Write a versioned, checksummed weight file; round trips are bit-exact."""
    arrays = dict(params.arrays())
    arrays["config.metadata_dim"] = np.array([float(params.metadata_dim)])
    arrays["config.dropout_rate"] = np.array([float(params.dropout_rate)])
    if metadata_stats is not None:
        arrays["meta_stats.mean"] = metadata_stats.mean
        arrays["meta_stats.std"] = metadata_stats.std
    names = sorted(arrays)
    blob = bytearray()
    blob += WEIGHTS_MAGIC
    blob += struct.pack("<HI", WEIGHTS_VERSION, len(names))
    for name in names:
        encoded = name.encode()
        arr = arrays[name]
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}i", *arr.shape)
    for name in names:
        blob += np.ascontiguousarray(arrays[name], dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    Path(path).write_bytes(bytes(blob))


def _read_weight_arrays(path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    if len(blob) < len(WEIGHTS_MAGIC) + 10:
        raise TruncatedFileError(f"{path} is too short to be a weight file")
    if blob[:len(WEIGHTS_MAGIC)] != WEIGHTS_MAGIC:
        raise VersionError(f"{path} does not carry the LRNN1 magic")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise ChecksumError(f"{path}: checksum mismatch, file is corrupt")
    off = len(WEIGHTS_MAGIC)
    version, n_arrays = struct.unpack_from("<HI", blob, off)
    if version != WEIGHTS_VERSION:
        raise VersionError(f"{path}: unsupported weight format version {version}")
    off += 6
    manifest = []
    try:
        for _ in range(n_arrays):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + name_len].decode()
            off += name_len
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}i", blob, off)
            off += 4 * ndim
            manifest.append((name, shape))
    except struct.error:
        raise TruncatedFileError(f"{path}: manifest ends early") from None
    for name, shape in manifest:
        if any(d < 0 for d in shape):
            raise FormatError(f"{path}: array {name!r} has a negative dimension {shape}")
    arrays = {}
    for name, shape in manifest:
        count = int(np.prod(shape)) if shape else 1
        end = off + 8 * count
        if end > len(blob) - 4:
            raise TruncatedFileError(f"{path}: payload ends early at array {name!r}")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape).copy()
        off = end
    return arrays


def load_params(path) -> NNetParams:
    return _params_from_arrays(_read_weight_arrays(path), path)


def load_metadata_stats(path) -> MetadataStats | None:
    """Metadata statistics stored alongside the weights, if any."""
    return _metadata_stats_from_arrays(_read_weight_arrays(path))


def _params_from_arrays(arrays: dict[str, np.ndarray], path) -> NNetParams:
    try:
        metadata_dim = int(arrays["config.metadata_dim"][0])
        dropout_rate = float(arrays["config.dropout_rate"][0])
    except KeyError as missing:
        raise VersionError(f"{path}: weight file lacks entry {missing}") from None
    params = NNetParams(metadata_dim, dropout_rate)
    for name, shape in _param_shapes(metadata_dim).items():
        if name not in arrays:
            raise VersionError(f"{path}: weight file lacks tensor {name!r}")
        if arrays[name].shape != shape:
            raise VersionError(f"{path}: tensor {name!r} has shape {arrays[name].shape}, "
                               f"expected {shape}")
        params.tensors[name] = tz.Tensor(arrays[name], name=name)
    for bn_name in _BN_MAP_NAMES + _BN_VEC_NAMES:
        channels = N_CHANNELS if bn_name in _BN_MAP_NAMES else FC_UNITS
        state = tz.BatchNormState(
            gamma=tz.Tensor(arrays[f"{bn_name}.gamma"], name=f"{bn_name}.gamma"),
            beta=tz.Tensor(arrays[f"{bn_name}.beta"], name=f"{bn_name}.beta"),
            running_mean=arrays[f"{bn_name}.running_mean"],
            running_var=arrays[f"{bn_name}.running_var"],
        )
        if state.gamma.size != channels:
            raise VersionError(f"{path}: batch-norm {bn_name!r} has wrong width")
        params.bn[bn_name] = state
    return params


def _metadata_stats_from_arrays(arrays: dict[str, np.ndarray]) -> MetadataStats | None:
    if "meta_stats.mean" not in arrays:
        return None
    return MetadataStats(mean=arrays["meta_stats.mean"], std=arrays["meta_stats.std"])


def save_ensemble(ensemble: FoldEnsemble, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, member in enumerate(ensemble.members):
        save_params(member.params, directory / f"fold{i}.lrnn", member.metadata_stats)


def load_ensemble(directory) -> FoldEnsemble:
    directory = Path(directory)
    paths = sorted(directory.glob("fold*.lrnn"))
    if not paths:
        raise ConfigError(f"no fold*.lrnn weight files in {directory}")
    members = []
    for p in paths:
        arrays = _read_weight_arrays(p)
        stats = _metadata_stats_from_arrays(arrays)
        if stats is None:
            raise VersionError(f"{p} lacks the metadata statistics of its training fold")
        members.append(FoldMember(params=_params_from_arrays(arrays, p), metadata_stats=stats))
    return FoldEnsemble(members=members)


# ---------------------------------------------------------------------------
# key-value training-config files (keys mirror NNetConfig)

_CONFIG_TYPES = {
    "dropout_rate": float, "metadata_dim": int, "learning_rate": float,
    "epochs": int, "batch_size": int, "seed": int, "n_branches": int,
    "projection": str,
}


def load_train_config(path, **overrides) -> NNetConfig:
    """Parse `key=value` lines into an NNetConfig; kwargs take precedence."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _CONFIG_TYPES[key](value.strip())
    values.update({k: v for k, v in overrides.items() if v is not None})
    return NNetConfig(**values)
