"""The deep-and-wide multi-instance risk network: build, train, persist, run.

One shared convolutional/dense stack scores each of a scan's (at most ten)
nodule branches; the patient risk is the max over its branch scores. Training
runs the layers below through `tensor`'s autodiff ops; scoring runs each member
folded into a plain-numpy `_InferencePlan` (see `build_plan`). Branch layout:

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
import functools
import itertools
import math
import os
import pickle
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings
import zlib
from collections import namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import host, tensor as tz
from .errors import (
    ChecksumError,
    ConfigError,
    FoldWorkerError,
    FormatError,
    LungRiskError,
    NumericError,
    TruncatedFileError,
    VersionError,
    ZeroNoduleWarning,
)
from .fileio import read_key_values
from .preprocess import (
    CROP_SIDE,
    CUBE_SIDE,
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

# each batch-norm's width: the conv maps' channels, then the dense layers' units
_BN_WIDTHS = {**dict.fromkeys(("bn_conv1", "bn_conv2", "bn_conv3", "bn_skip", "bn_merge",
                               "bn_drop_map"), N_CHANNELS),
              **dict.fromkeys(("bn_fc1", "bn_drop_vec", "bn_fc2"), FC_UNITS)}
# how LRNN1 files store the plane projection, as a float
_PROJECTION_CODES = {"slice": 0.0, "mip": 1.0}


@dataclass
class NNetConfig:
    dropout_rate: float = 0.25
    metadata_dim: int = 5
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    projection: str = "slice"   # plane extraction; saved with the weights for scoring

    def __post_init__(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must lie in [0,1), got {self.dropout_rate}")
        if self.metadata_dim not in (5, 6):
            raise ConfigError(f"metadata_dim must be 5 or 6, got {self.metadata_dim}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.projection not in _PROJECTION_CODES:
            raise ConfigError(f"projection must be 'slice' or 'mip', got {self.projection!r}")


class NNetParams:
    """All learnable tensors and batch-norm states, shared across branches,
    and the plane projection the model was trained on."""

    def __init__(self, metadata_dim: int, dropout_rate: float, projection: str):
        self.metadata_dim = metadata_dim
        self.dropout_rate = dropout_rate
        self.projection = projection
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
    params = NNetParams(config.metadata_dim, config.dropout_rate, config.projection)
    for name, shape in _param_shapes(config.metadata_dim).items():
        if name.endswith(".bias"):
            data = np.zeros(shape)
        else:
            # fan-in: a kernel's input channels times its taps, a dense layer's input width
            fan_in = math.prod(shape[1:]) if name.endswith(".kernels") else shape[0]
            bound = np.sqrt(6.0 / fan_in)
            if name == "dense_out.weights":
                bound *= 0.1  # start near sigmoid(0): calibrated initial loss
            data = rng.uniform(-bound, bound, size=shape)
        params.tensors[name] = tz.Tensor(data, name=name)
    for bn_name, width in _BN_WIDTHS.items():
        params.bn[bn_name] = tz.BatchNormState.create(width, name=bn_name)
    return params


# ---------------------------------------------------------------------------
# forward passes


def _forward_patch_batch(params: NNetParams, planes: np.ndarray, metadata: np.ndarray,
                         rng: np.random.Generator | None = None) -> tz.Tensor:
    """Training branch scores for a channel-major (3,P,28,28) patch stack; returns
    a (P,) tensor. Feature maps stay channel-major, (8,P,28,28), up to flatten."""
    p = params.tensors
    bn = params.bn
    rate = params.dropout_rate

    x = tz.Tensor(planes, requires_grad=False)
    h = tz.relu(tz.batch_norm(tz.conv2d_same(x, p["conv1.kernels"], p["conv1.bias"]),
                              bn["bn_conv1"]))
    h = tz.relu(tz.batch_norm(tz.conv2d_same(h, p["conv2.kernels"], p["conv2.bias"]),
                              bn["bn_conv2"]))
    h = tz.relu(tz.batch_norm(tz.conv2d_same(h, p["conv3.kernels"], p["conv3.bias"]),
                              bn["bn_conv3"]))
    skip = tz.batch_norm(tz.conv2d_same(x, p["conv_skip.kernels"], p["conv_skip.bias"]),
                         bn["bn_skip"])
    h = tz.batch_norm(tz.residual_add(h, skip), bn["bn_merge"])
    h = tz.batch_norm(tz.dropout(h, rate, rng), bn["bn_drop_map"])
    h = tz.flatten(h)
    h = tz.batch_norm(tz.dense(h, p["dense1.weights"], p["dense1.bias"]), bn["bn_fc1"])
    h = tz.batch_norm(tz.dropout(h, rate, rng), bn["bn_drop_vec"])
    h = tz.batch_norm(tz.dense(h, p["dense2.weights"], p["dense2.bias"]), bn["bn_fc2"])
    h = tz.concat(h, tz.Tensor(metadata, requires_grad=False))
    z = tz.dense(h, p["dense_out.weights"], p["dense_out.bias"])
    return tz.sigmoid(tz.reshape(z, (-1,)))


# ---------------------------------------------------------------------------
# training


@dataclass
class FoldMember:
    """One trained model: its parameters, the metadata statistics of its
    training set, and its mean per-epoch training loss."""

    params: NNetParams
    metadata_stats: MetadataStats
    loss_history: list[float] = field(default_factory=list)


def _gather_batch(examples: list[ScanExample], rng, projection: str):
    """Stack the patches of a batch of scans; returns channel-major
    (3,P,28,28) planes, raw metadata, segment ids and labels, or None when
    no scan has a patch. Scans without patches are left out. A scan that keeps
    its cubes (a training scan) is re-cropped from them at a random offset."""
    planes, meta, segments, labels = [], [], [], []
    for ex in examples:
        if not ex.patches:
            continue
        for j, patch in enumerate(ex.patches):
            if ex.cubes is not None:
                cube = crop28(ex.cubes[j], rng.integers(0, CUBE_SIDE - CROP_SIDE + 1, size=3))
                planes.append(normalize_hu(triplanar(cube, projection)))
            else:
                planes.append(patch.planes)
            meta.append(patch.metadata)
        segments.extend([len(labels)] * len(ex.patches))
        labels.append(ex.label)
    if not labels:
        return None
    return (np.stack(planes, axis=1), np.stack(meta), np.asarray(segments),
            np.asarray(labels, dtype=np.float64))


def train(config: NNetConfig, dataset: list[ScanExample]) -> FoldMember:
    """Mini-batch Adam/BCE training with per-iteration random re-crops, all
    drawn from one generator seeded with `config.seed`.

    Returns the trained parameters, without gradients: each step's `adam_step`
    consumes those of its `backward`. Also returns the metadata statistics
    computed from this dataset and the mean per-epoch training loss. Scans
    without patches are skipped.
    """
    return _train_epochs(config, dataset, None, config.epochs)


# A fold's whole training state at an epoch boundary; the metadata statistics
# are not part of it, since they follow from the training set.
_FoldState = namedtuple("_FoldState", "params adam rng history")


def _train_epochs(config: NNetConfig, dataset: list[ScanExample], state: _FoldState | None,
                  stop: int) -> _FoldState | FoldMember:
    """Train from `state` (None: from the start, as `train` does) up to epoch
    `stop`. Returns the FoldMember once `stop` is `config.epochs`, else the
    state, from which a later call on the same dataset, in this process or
    after a pickle round trip, continues bit for bit as if never stopped."""
    if not dataset:
        raise ConfigError("training needs a non-empty dataset")
    label_set = {ex.label for ex in dataset}
    if label_set != {0, 1}:
        raise ConfigError(f"training needs both classes, found labels {sorted(label_set)}")

    stats = metadata_stats_from_examples(dataset)
    if state is None:
        rng = np.random.default_rng(config.seed)
        state = _FoldState(init_params(config, rng), tz.AdamState(learning_rate=config.learning_rate),
                           rng, [])
    params, adam, rng, history = state
    learnable = params.learnable()
    n = len(dataset)
    for _ in range(len(history), stop):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_scored = 0
        for start in range(0, n, config.batch_size):
            batch = _gather_batch([dataset[i] for i in order[start:start + config.batch_size]],
                                  rng, config.projection)
            if batch is None:
                continue
            planes, meta, segments, labels = batch
            # a bag's risk is the max branch score over the patches of its segment
            risks = tz.segment_max(_forward_patch_batch(params, planes, stats.standardize(meta), rng),
                                   segments, labels.size)
            loss = tz.bce_loss(risks, labels)
            tz.backward(loss)
            tz.adam_step(learnable, adam)
            epoch_loss += float(loss.data) * labels.size
            n_scored += labels.size
        history.append(epoch_loss / n_scored)
    if stop < config.epochs:
        return state
    return FoldMember(params=params, metadata_stats=stats, loss_history=history)


# ---------------------------------------------------------------------------
# k-fold ensemble


@dataclass
class FoldEnsemble:
    members: list[FoldMember]

    def __post_init__(self):
        _check_agreement([m.params for m in self.members])


def _check_agreement(models: list):
    """ConfigError unless there is a model and all (`NNetParams` or plans) agree."""
    if not models:
        raise ConfigError("an ensemble needs at least one member")
    for attr in ("metadata_dim", "projection"):
        values = {getattr(m, attr) for m in models}
        if len(values) != 1:
            raise ConfigError(f"ensemble members disagree on {attr}: {values}")


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


def kfold_train(config: NNetConfig, dataset: list[ScanExample], k: int) -> FoldEnsemble:
    """Train k models, each on k-1 stratified folds, for averaged inference.

    With k=1 the one model trains on the whole dataset under `config.seed`.
    The folds train side by side in fold workers (see `_train_in_workers`),
    and each member is the same bytes whatever the number of usable CPUs.
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
    return FoldEnsemble(members=_train_in_workers(dataset, jobs))


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
#
# The folds are dealt to the workers in whole epochs (`_fold_plans`, by
# McNaughton's wrap-around rule; McNaughton 1959, Management Science 6:1), so
# 5 folds on 2 CPUs take 2.5 fold-times, not the 3 of whole folds dealt in
# rounds, whose last round left a core idle. A fold split between two workers
# is handed over at an epoch boundary as its exact `_FoldState`, by pickle
# through the parent, so its bytes do not depend on where its epochs ran.

_WORKER_ENTRY = "from lungrisk.nnet import _serve_folds; _serve_folds()"
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# glibc malloc keeps freed blocks below 64 MB on its heap and trims the heap
# only past 128 MB, so each train step reuses the previous step's buffers
# instead of mapping fresh pages. Without these two variables the `train`
# workload's rate_per_s fell from 368 to 260 scan-epochs/s (medians, -29%,
# 3 of 3 pairs, 2-core VM, glibc 2.36).
_REUSE_FREED_MEMORY = {"MALLOC_MMAP_THRESHOLD_": str(64 << 20),
                       "MALLOC_TRIM_THRESHOLD_": str(128 << 20)}


def _worker_env() -> dict[str, str]:
    package_root = str(Path(__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, **_ONE_BLAS_THREAD, **_REUSE_FREED_MEMORY, "PYTHONPATH": path}


def _fold_plans(k: int, epochs: int, workers: int) -> list[list[tuple[int, int, int]]]:
    """Each worker's (fold, start epoch, stop epoch) pieces, in the order it
    runs them. Folds are dealt in order, ceil(k*epochs/workers) epochs to a
    worker. A fold that does not fit in the r epochs left on worker j runs its
    last r epochs at the end of worker j and its first epochs at the head of
    worker j+1; since a fold's epochs are no more than a worker's, the head
    piece ends before the tail piece is due. Workers left without a piece are
    dropped."""
    cap = -(-k * epochs // workers)
    plans: list[list[tuple[int, int, int]]] = [[] for _ in range(workers)]
    j, room = 0, cap
    for fold in range(k):
        if room == 0:
            j, room = j + 1, cap
        if epochs <= room:
            plans[j].append((fold, 0, epochs))
            room -= epochs
        else:
            plans[j].append((fold, epochs - room, epochs))
            plans[j + 1].append((fold, 0, epochs - room))
            j, room = j + 1, cap - (epochs - room)
    return [plan for plan in plans if plan]


def _train_in_workers(dataset: list[ScanExample], jobs: list[tuple]) -> list[FoldMember]:
    """Train each (config, holdout indices) job on the dataset less its holdout.

    The jobs, which share an epoch count, run in W = min(len(jobs), usable
    CPUs) workers, each walking its plan from `_fold_plans`. Each worker gets
    the dataset once over its stdin, then one piece of a fold at a time; a
    piece that resumes a fold waits until the piece before it has returned
    the fold's state. Results come back over the workers' stdout and are
    returned in job order. A LungRiskError raised by a job is re-raised here
    with its class and message, and a worker that ends without its result
    raises FoldWorkerError; either stops the other workers and wakes a piece
    that waits. When several jobs fail, the error of the first of them is
    raised.
    """
    epochs = jobs[0][0].epochs
    plans = _fold_plans(len(jobs), epochs, min(len(jobs), host.usable_cpus()))
    handed = threading.Condition()
    states: dict[int, _FoldState] = {}     # fold -> state handed between workers
    failed = threading.Event()
    results: list[FoldMember | None] = [None] * len(jobs)
    errors: list[tuple[int, LungRiskError]] = []
    workers: list[subprocess.Popen] = []
    threads: list[threading.Thread] = []

    def stop():
        failed.set()
        with handed:
            handed.notify_all()
        for worker in workers:
            worker.kill()

    def drive(worker, plan):
        i = len(jobs)          # no piece taken yet
        try:
            pickle.dump(dataset, worker.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            for i, start, end in plan:
                with handed:
                    handed.wait_for(lambda: start == 0 or i in states or failed.is_set())
                    if failed.is_set():
                        break
                    state = states.pop(i, None)
                pickle.dump((*jobs[i], state, end), worker.stdin, protocol=pickle.HIGHEST_PROTOCOL)
                del state
                worker.stdin.flush()
                ok, payload = pickle.load(worker.stdout)
                if not ok:
                    errors.append((i, payload))
                    stop()
                elif end < epochs:
                    with handed:
                        states[i] = payload
                        handed.notify_all()
                else:
                    results[i] = payload
        except (OSError, EOFError, pickle.UnpicklingError):
            code = worker.wait()
            if not (failed.is_set() and code == -signal.SIGKILL):     # not killed by stop()
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                task = f"fold {i}" if i < len(jobs) else "a fold"
                errors.append((i, FoldWorkerError(f"a fold worker {how} before returning {task}")))
                stop()
        finally:
            with contextlib.suppress(OSError):
                worker.stdin.close()

    try:
        for _ in plans:
            workers.append(subprocess.Popen(
                [sys.executable, "-c", _WORKER_ENTRY, str(os.getpid())],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_worker_env()))
        for worker, plan in zip(workers, plans):
            threads.append(threading.Thread(target=drive, args=(worker, plan)))
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


def _exit_when_orphaned(parent: int):
    # A parent killed by a signal cannot stop its workers; they notice here.
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _serve_folds():
    """Fold-worker entry: read the dataset from stdin, then answer each
    (config, holdout, state or None, stop epoch) job with (True, result of
    `_train_epochs`) or (False, LungRiskError) on stdout, until stdin ends.
    The worker ends within about half a second of the death of its parent,
    whose pid is its first argument, and quietly if a reply finds the parent
    gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent stops its workers
    threading.Thread(target=_exit_when_orphaned, args=(int(sys.argv[1]),), daemon=True).start()
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)           # a stray print must not corrupt the replies
    requests = sys.stdin.buffer
    dataset = pickle.load(requests)
    while True:
        try:
            config, holdout, state, stop = pickle.load(requests)
        except EOFError:
            return
        held = set(holdout.tolist())
        try:
            reply = (True, _train_epochs(config, [ex for j, ex in enumerate(dataset) if j not in held],
                                         state, stop))
        except LungRiskError as exc:
            reply = (False, exc)
        try:
            pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
            replies.flush()
        except BrokenPipeError:
            os._exit(1)     # the parent is gone
        del reply, state    # not held through the next job


# `ensemble_predict` scores whole scans in chunks of at least this many
# patches. `lungrisk score` through the inference plans on the seed-11
# `score` inputs (96 scans, 240 patches, 5 members, 2-core VM, two scoring
# threads, 16 alternating child processes each, medians):
#   chunk  8: 0.48 s, peak RSS 41.6 MB     chunk 20: 0.44 s, peak RSS 47.2 MB
#   chunk 12: 0.46 s, peak RSS 43.6 MB     chunk 24: 0.43 s, peak RSS 48.0 MB
#   chunk 16: 0.42 s, peak RSS 45.4 MB     chunk 32: 0.44 s, peak RSS 51.8 MB
# 16 read fastest here and in a batch of 12 processes each, though from 16
# up the times differ by less than their spread; each scoring thread holds
# its chunk's maps, about 0.2 MB a patch.
SCORE_CHUNK_PATCHES = 16


def ensemble_predict(plans: list[_InferencePlan], examples: Iterable[ScanExample]) -> list[float]:
    """Risk of each example, in input order: the mean of the members' risks,
    from their plans (see `load_plans`, `build_plan`), each member
    standardizing the raw metadata with its own statistics. An example
    without patches scores 0.0 and raises a ZeroNoduleWarning; a risk that
    is not finite raises NumericError.

    Chunks of examples holding at least SCORE_CHUNK_PATCHES patches are
    pulled on the calling thread and scored by `_predict_chunk` on a thread
    of `host.ordered_map` while the next is pulled, so a generator that
    builds examples on demand keeps at most one chunk per usable CPU, plus
    the one being pulled, alive. Warnings and errors are raised here, in
    scan order; an error cancels the chunks not yet started. A plan scores
    each patch on its own, so chunking does not change the risks.
    """
    risks: list[float] = []
    scored = host.ordered_map(functools.partial(_predict_chunk, plans), _chunks(examples))
    with contextlib.closing(scored):
        for scan_id, risk in itertools.chain.from_iterable(scored):
            if risk is None:
                warnings.warn(f"scan {scan_id!r} has no nodules; risk set to 0.0",
                              ZeroNoduleWarning, stacklevel=2)
                risk = 0.0
            elif not np.isfinite(risk):
                raise NumericError(f"the ensemble scores scan {scan_id!r} as {risk!r}: "
                                   f"its weights or the scan's voxels are out of range")
            risks.append(risk)
    return risks


def _chunks(examples: Iterable[ScanExample]) -> Iterator[list[ScanExample]]:
    """Whole examples, without their cubes, in lists of at least
    SCORE_CHUNK_PATCHES patches (the last may hold fewer)."""
    chunk: list[ScanExample] = []
    n_patches = 0
    for example in examples:
        chunk.append(replace(example, cubes=None))      # scoring never reads the cubes
        n_patches += len(example.patches)
        del example         # frees the cubes before the next example is built
        if n_patches >= SCORE_CHUNK_PATCHES:
            yield chunk
            chunk, n_patches = [], 0
    if chunk:
        yield chunk


def _predict_chunk(plans: list[_InferencePlan],
                   chunk: list[ScanExample]) -> list[tuple[str, float | None]]:
    """(scan id, mean member risk) of each example of one chunk, from one
    `_plan_scores` call per member; None for an example without patches."""
    batch = _gather_batch(chunk, rng=None, projection=None)     # `_chunks` dropped the cubes
    bag_risks = iter(())
    if batch is not None:
        planes, raw_meta, segments, _ = batch
        starts = np.flatnonzero(np.diff(segments, prepend=-1))
        with np.errstate(all="ignore"):     # `ensemble_predict` reports a non-finite risk
            by_member = np.stack([np.maximum.reduceat(_plan_scores(plan, planes, raw_meta), starts)
                                  for plan in plans], axis=1)
        # one contiguous row of member risks per scan: the same mean, summed
        # in the same order, as for a scan scored on its own
        bag_risks = iter(float(np.mean(row)) for row in by_member)
    return [(ex.scan_id, next(bag_risks) if ex.patches else None) for ex in chunk]


# ---------------------------------------------------------------------------
# inference plan

_InferencePlan = namedtuple("_InferencePlan", "convs tail meta_weights constant metadata_stats "
                                               "metadata_dim projection")


def build_plan(member: FoldMember) -> _InferencePlan:
    """Fold a member into a plain-numpy inference plan. When a member scores,
    each batch-norm is a fixed per-channel affine map and dropout is the
    identity, so a conv's batch-norm folds into its kernels and bias (Jacob
    et al. 2018, CVPR, section 3.2): s = gamma/sqrt(running_var+eps) and
    b' = (b-running_mean)*s + beta. conv1 and conv_skip read the same input
    and stack into one 16-row kernel. No relu follows the residual add, so
    bn_merge to dense_out's image half collapse, right to left by mat-vec
    products, into a 6272-vector `tail` and a constant (NaN if they overflow)."""
    params, p = member.params, member.params.tensors
    with np.errstate(all="ignore"):
        scale = {name: state.gamma.data / np.sqrt(state.running_var + tz.BN_EPSILON)
                 for name, state in params.bn.items()}
        convs = []      # (O, C*9) kernel matrix and (O, 1) bias of each folded conv
        for conv, bn_name in (("conv1", "bn_conv1"), ("conv_skip", "bn_skip"),
                              ("conv2", "bn_conv2"), ("conv3", "bn_conv3")):
            s, state = scale[bn_name], params.bn[bn_name]
            bias = (p[f"{conv}.bias"].data - state.running_mean) * s + state.beta.data
            kernels = p[f"{conv}.kernels"].data.reshape(len(s), -1) * s[:, None]
            convs.append((kernels, bias[:, None]))
        convs[:2] = [tuple(np.concatenate(pair) for pair in zip(*convs[:2]))]
        w_out = p["dense_out.weights"].data[:, 0]
        tail, constant = w_out[:FC_UNITS], float(p["dense_out.bias"].data[0])
        for layer in ("bn_fc2", "dense2", "bn_drop_vec", "bn_fc1", "dense1", "bn_drop_map",
                      "bn_merge"):
            if layer.startswith("dense"):
                constant += float(tail @ p[f"{layer}.bias"].data)
                tail = p[f"{layer}.weights"].data @ tail
            else:       # tail . ((x - running_mean) * s + beta), one channel per row
                s, state = scale[layer], params.bn[layer]
                rows = tail.reshape(len(s), -1)
                constant += float((state.beta.data - state.running_mean * s) @ rows.sum(axis=1))
                tail = (rows * s[:, None]).reshape(-1)
    return _InferencePlan(convs, tail, w_out[FC_UNITS:].copy(), constant, member.metadata_stats,
                          params.metadata_dim, params.projection)


def _plan_scores(plan: _InferencePlan, planes: np.ndarray, raw_meta: np.ndarray) -> np.ndarray:
    """Branch scores of a channel-major (3,P,28,28) patch stack and its raw metadata. Every
    GEMM and dot works on one patch, so a score does not depend on the rest of the stack."""
    n, maps = planes.shape[1], planes
    for i, (kernels, bias) in enumerate(plan.convs):
        h = np.empty((n, len(kernels), CROP_SIDE * CROP_SIDE))     # patch-major
        for j, cols in enumerate(tz._columns(maps)):
            np.matmul(kernels, cols, out=h[j])
        h += bias
        if i == 0:
            h, skip = h[:, :N_CHANNELS], h[:, N_CHANNELS:]
        np.maximum(h, 0.0, out=h)
        maps = h.reshape(n, N_CHANNELS, CROP_SIDE, CROP_SIDE).transpose(1, 0, 2, 3)
    h += skip
    meta = plan.metadata_stats.standardize(raw_meta)
    z = np.array([np.dot(row, plan.tail) + np.dot(m, plan.meta_weights)
                  for row, m in zip(h.reshape(n, FLAT_DIM), meta)])
    return np.clip(tz._sigmoid_raw(z + plan.constant), tz._SIG_LO, tz._SIG_HI)


# ---------------------------------------------------------------------------
# persistence: magic "LRNN1", version u16, shape manifest, f64 payload, crc32

WEIGHTS_MAGIC = b"LRNN1"
WEIGHTS_VERSION = 1


def save_params(params: NNetParams, path, metadata_stats: MetadataStats):
    """Write a member's parameters and the metadata statistics of its
    training set as a versioned, checksummed weight file; `load_member`
    reads them back bit-exact."""
    arrays = dict(params.arrays())
    arrays["config.metadata_dim"] = np.array([float(params.metadata_dim)])
    arrays["config.dropout_rate"] = np.array([float(params.dropout_rate)])
    arrays["config.projection"] = np.array([_PROJECTION_CODES[params.projection]])
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
    except UnicodeDecodeError:
        raise FormatError(f"{path}: an array name in the manifest is not UTF-8") from None
    seen = set()
    for name, shape in manifest:
        if name in seen:
            raise FormatError(f"{path}: array {name!r} is repeated in the manifest")
        seen.add(name)
        if any(d < 0 for d in shape):
            raise FormatError(f"{path}: array {name!r} has a negative dimension {shape}")
    arrays = {}
    for name, shape in manifest:
        count = math.prod(shape)
        end = off + 8 * count
        if end > len(blob) - 4:
            raise TruncatedFileError(f"{path}: payload ends early at array {name!r}")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape).copy()
        off = end
        if not np.isfinite(arrays[name]).all():
            raise NumericError(f"{path}: entry {name!r} holds a value that is not finite")
    if off != len(blob) - 4:
        raise FormatError(f"{path}: {len(blob) - 4 - off} bytes follow the last array")
    if "meta_stats.std" in arrays and not (arrays["meta_stats.std"] > 0).all():
        raise NumericError(f"{path}: entry 'meta_stats.std' holds a value that is not positive")
    return arrays


def _stored_shapes(metadata_dim: int) -> dict[str, tuple]:
    """The name and shape of every array a weight file of this metadata width
    holds, in the order `load_member` checks them: the config first, since
    the other shapes follow from `config.metadata_dim`."""
    shapes = {f"config.{key}": (1,) for key in ("metadata_dim", "dropout_rate", "projection")}
    shapes.update(_param_shapes(metadata_dim))
    for bn_name, width in _BN_WIDTHS.items():
        shapes.update({f"{bn_name}.{part}": (width,)
                       for part in ("gamma", "beta", "running_mean", "running_var")})
    shapes["meta_stats.mean"] = shapes["meta_stats.std"] = (metadata_dim,)
    return shapes


def load_member(path) -> FoldMember:
    """The trained member a weight file holds, from one read: its parameters
    and the metadata statistics of its training set; the loss history is not
    stored. A file without those statistics, or lacking or misshaping an
    entry of `_stored_shapes`, raises VersionError; entries not in it are
    ignored."""
    arrays = _read_weight_arrays(path)
    if "meta_stats.mean" not in arrays:
        raise VersionError(f"{path} lacks the metadata statistics of its training fold")
    dim = arrays.get("config.metadata_dim")
    # a missing or misshapen config.metadata_dim is the table's first fault
    metadata_dim = int(dim[0]) if dim is not None and dim.shape == (1,) else 0
    for name, shape in _stored_shapes(metadata_dim).items():
        if name not in arrays:
            raise VersionError(f"{path}: weight file lacks entry {name!r}")
        if arrays[name].shape != shape:
            raise VersionError(f"{path}: entry {name!r} has shape {arrays[name].shape}, "
                               f"expected {shape}")
    if dim[0] not in (5.0, 6.0):
        raise VersionError(f"{path}: config.metadata_dim {float(dim[0])!r} is not 5 or 6")
    dropout_rate = float(arrays["config.dropout_rate"][0])
    if not 0.0 <= dropout_rate < 1.0:
        raise VersionError(f"{path}: dropout rate {dropout_rate!r} lies outside [0,1)")
    code = float(arrays["config.projection"][0])
    projection = {c: name for name, c in _PROJECTION_CODES.items()}.get(code)
    if projection is None:
        raise VersionError(f"{path}: unknown projection code {code!r}")
    params = NNetParams(metadata_dim, dropout_rate, projection)
    params.tensors = {n: tz.Tensor(arrays[n], name=n) for n in _param_shapes(metadata_dim)}
    for bn_name in _BN_WIDTHS:
        if (arrays[f"{bn_name}.running_var"] < 0).any():
            raise NumericError(f"{path}: entry '{bn_name}.running_var' holds a negative variance")
        params.bn[bn_name] = tz.BatchNormState(
            gamma=tz.Tensor(arrays[f"{bn_name}.gamma"], name=f"{bn_name}.gamma"),
            beta=tz.Tensor(arrays[f"{bn_name}.beta"], name=f"{bn_name}.beta"),
            running_mean=arrays[f"{bn_name}.running_mean"],
            running_var=arrays[f"{bn_name}.running_var"],
        )
    stats = MetadataStats(mean=arrays["meta_stats.mean"], std=arrays["meta_stats.std"])
    return FoldMember(params=params, metadata_stats=stats)


def save_ensemble(ensemble: FoldEnsemble, directory):
    """Write member i to `fold{i}.lrnn`, then remove every other `fold*.lrnn`
    in the directory, such as those of an earlier, larger ensemble, so that
    `load_ensemble` reads back exactly this ensemble."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = [directory / f"fold{i}.lrnn" for i in range(len(ensemble.members))]
    for path, member in zip(written, ensemble.members):
        save_params(member.params, path, member.metadata_stats)
    for path in set(directory.glob("fold*.lrnn")) - set(written):
        path.unlink()


def _fold_paths(directory) -> list[Path]:
    paths = sorted(Path(directory).glob("fold*.lrnn"))
    if not paths:
        raise ConfigError(f"no fold*.lrnn weight files in {directory}")
    return paths


def load_ensemble(directory) -> FoldEnsemble:
    """The members of every `fold*.lrnn` file in the directory, in name order."""
    return FoldEnsemble(members=[load_member(p) for p in _fold_paths(directory)])


def load_plans(directory) -> list[_InferencePlan]:
    """The inference plan of every `fold*.lrnn` file in the directory, in name
    order. Each file is read and checked by `load_member` and folded by
    `build_plan` before the next is read, so one member's arrays are held."""
    plans = [build_plan(load_member(p)) for p in _fold_paths(directory)]
    _check_agreement(plans)
    return plans


# ---------------------------------------------------------------------------
# key-value training-config files: one key per NNetConfig field, parsed as
# the type of the field's default

_CONFIG_TYPES = {f.name: type(f.default) for f in fields(NNetConfig)}


def _config_value(key: str, value: str):
    if key not in _CONFIG_TYPES:
        raise ValueError(f"not one of {sorted(_CONFIG_TYPES)}")
    return _CONFIG_TYPES[key](value)


def load_train_config(path, **overrides) -> NNetConfig:
    """Parse `key=value` lines into an NNetConfig; kwargs take precedence."""
    values = read_key_values(path, _config_value, "config key", ConfigError)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return NNetConfig(**values)
