import errno
import pickle
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungrisk import host, nnet, tensor as tz
from lungrisk.errors import (
    ChecksumError,
    ConfigError,
    FoldWorkerError,
    FormatError,
    TruncatedFileError,
    VersionError,
    ZeroNoduleWarning,
)
from lungrisk.preprocess import (
    MetadataStats,
    NoduleCandidate,
    NodulePatch,
    ScanExample,
    Volume,
    build_scan_example,
    normalize_hu,
    triplanar,
)
from references import textbook_adam_step, two_unfold_conv2d_same, xhat_batch_norm
from writers import write_weight_entries


def random_patch(rng, metadata_dim=5):
    # an int16 cube of HU a little past the window on both sides, so the crops clip
    return NodulePatch(cube=rng.integers(-1100, 500, size=(32, 32, 32), dtype=np.int16),
                       metadata=rng.normal(size=metadata_dim))


def random_example(rng, n_patches, label=1, metadata_dim=5, scan_id="s0"):
    patches = [random_patch(rng, metadata_dim) for _ in range(n_patches)]
    return ScanExample(scan_id=scan_id, patches=patches, label=label)


def small_params(rng_seed=0, metadata_dim=5, dropout=0.0):
    config = nnet.NNetConfig(dropout_rate=dropout, metadata_dim=metadata_dim, seed=rng_seed)
    return nnet.init_params(config)


# ---------------------------------------------------------------------------
# init_params


def test_init_same_seed_identical():
    a = small_params(7)
    b = small_params(7)
    for name, t in a.learnable().items():
        np.testing.assert_array_equal(t.data, b.learnable()[name].data)


def test_init_different_seeds_differ():
    a = small_params(1)
    b = small_params(2)
    assert any(not np.array_equal(t.data, b.learnable()[name].data)
               for name, t in a.learnable().items())


def test_init_dense_out_shape_with_five_metadata():
    p = small_params(metadata_dim=5)
    assert p.tensors["dense_out.weights"].shape == (64 + 5, 1)
    p6 = small_params(metadata_dim=6)
    assert p6.tensors["dense_out.weights"].shape == (64 + 6, 1)


def test_init_bn_identity():
    p = small_params()
    for state in p.bn.values():
        assert np.all(state.gamma.data == 1.0)
        assert np.all(state.beta.data == 0.0)
        assert np.all(state.running_mean == 0.0)
        assert np.all(state.running_var == 1.0)


# ---------------------------------------------------------------------------
# bag scores / ensemble_predict

IDENTITY_STATS = MetadataStats(mean=np.zeros(5), std=np.ones(5))


def plans(ensemble):
    """The inference plans `ensemble_predict` scores an ensemble's members with."""
    return [nnet.build_plan(m) for m in ensemble.members]


def scan_risk(p, ex):
    """Risk through the `lungrisk score` path: a one-member ensemble whose
    metadata statistics leave the metadata as it is."""
    return nnet.ensemble_predict([nnet.build_plan(nnet.FoldMember(p, IDENTITY_STATS))], [ex])[0]


def bag_risk(p, patches):
    """Risk of one bag, all its patches scored in one chunk."""
    return scan_risk(p, ScanExample(scan_id="bag", patches=list(patches), label=1))


def branch_score(p, patch):
    return bag_risk(p, [patch])


def test_zero_head_scores_half():
    p = small_params()
    p.tensors["dense_out.weights"].data[:] = 0.0
    p.tensors["dense_out.bias"].data[:] = 0.0
    patch = random_patch(np.random.default_rng(0))
    assert branch_score(p, patch) == 0.5


def test_branch_score_in_unit_interval():
    rng = np.random.default_rng(1)
    p = small_params(3)
    for _ in range(5):
        s = branch_score(p, random_patch(rng))
        assert 0.0 < s < 1.0


def test_branch_infer_bit_stable():
    rng = np.random.default_rng(2)
    p = small_params(4, dropout=0.5)
    patch = random_patch(rng)
    assert branch_score(p, patch) == branch_score(p, patch)


def test_scan_risk_is_max_of_branches():
    rng = np.random.default_rng(3)
    p = small_params(5)
    ex = random_example(rng, 3)
    branch_scores = [branch_score(p, patch) for patch in ex.patches]
    assert scan_risk(p, ex) == max(branch_scores)


def test_training_scores_each_bag_independently():
    # training pools each bag over its own segment of the batch's branch scores
    rng = np.random.default_rng(9)
    p = small_params(10)
    bags = [ScanExample(f"s{b}", [random_patch(rng) for _ in range(n)], 1)
            for b, n in enumerate((3, 1, 5))]
    planes, meta = nnet._gather_batch(bags, None, "slice")[:2]
    segments = np.repeat(np.arange(3), [3, 1, 5])
    risks = tz.segment_max(nnet._forward_patch_batch(p, planes, meta), segments, 3).data
    scores = nnet._forward_patch_batch(p, planes, meta).data
    assert risks.tolist() == [scores[segments == b].max() for b in range(3)]


def test_scan_permutation_invariant():
    rng = np.random.default_rng(4)
    p = small_params(6)
    ex = random_example(rng, 4)
    risk = scan_risk(p, ex)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(4)
        shuffled = ScanExample(scan_id="s0", patches=[ex.patches[i] for i in perm], label=1)
        assert scan_risk(p, shuffled) == risk


def test_scan_all_masked_warns_and_scores_zero():
    p = small_params()
    ex = random_example(np.random.default_rng(5), 0)
    with pytest.warns(ZeroNoduleWarning):
        assert scan_risk(p, ex) == 0.0


def test_masked_patch_is_noop_and_new_patch_maxes():
    rng = np.random.default_rng(6)
    p = small_params(7)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        ex = random_example(rng, n)
        risk = scan_risk(p, ex)
        new_patch = random_patch(rng)
        grown = ScanExample(scan_id="s0", patches=[*ex.patches, new_patch], label=1)
        assert scan_risk(p, grown) == max(risk, branch_score(p, new_patch))


def test_weight_sharing_perturbation_moves_all_branches():
    rng = np.random.default_rng(8)
    p = small_params(9)
    ex = random_example(rng, 3)
    before = [branch_score(p, patch) for patch in ex.patches[:3]]
    p.tensors["conv1.kernels"].data += 0.35
    after = [branch_score(p, patch) for patch in ex.patches[:3]]
    assert all(a != b for a, b in zip(after, before))


def test_shape_trace_matches_manifest(layer_shapes):
    manifest = [
        ("input", (3, 28, 28)),
        ("conv1", (8, 28, 28)), ("conv2", (8, 28, 28)), ("conv3", (8, 28, 28)),
        ("conv_skip", (8, 28, 28)), ("merge", (8, 28, 28)),
        ("flatten", (8 * 28 * 28,)), ("dense1", (64,)), ("dense2", (64,)),
        ("concat", (64 + 5,)), ("dense_out", (1,)), ("output", ()),
    ]
    p = small_params()
    ex = ScanExample("s0", [random_patch(np.random.default_rng(0))], 1)
    trace = layer_shapes(p, *nnet._gather_batch([ex], None, "slice")[:2])
    assert trace == manifest


# ---------------------------------------------------------------------------
# full-network gradient check (dropout disabled)


def test_full_network_gradient_check():
    rng = np.random.default_rng(10)
    p = small_params(11, dropout=0.0)
    # three (3,28,28) patches, stacked channel-major
    planes = rng.uniform(0, 1, size=(3, 3, 28, 28)).transpose(1, 0, 2, 3)
    meta = rng.normal(size=(3, 5))
    segments = np.array([0, 0, 1])
    labels = np.array([1.0, 0.0])
    learnable = p.learnable()
    check_set = {name: learnable[name] for name in
                 ["conv1.kernels", "conv2.bias", "conv_skip.kernels", "dense1.weights",
                  "dense2.weights", "dense_out.weights", "dense_out.bias",
                  "bn_merge.gamma", "bn_fc1.beta", "bn_drop_map.gamma"]}

    def loss():
        scores = nnet._forward_patch_batch(p, planes, meta)
        return tz.bce_loss(tz.segment_max(scores, segments, 2), labels)

    errs = tz.finite_difference_check(loss, check_set, h=1e-5, samples_per_tensor=4,
                                      rng=np.random.default_rng(0), skip_kinks=True)
    assert max(errs.values()) < 1e-4, errs


def test_gradient_check_keeps_curved_batch_norm_shifts_a_two_step_gap_test_took_for_kinks():
    # Planes read channel-major as drawn. Both sampled bn_conv1.beta
    # coordinates (5 and 6) are smooth, but their differences at h and h/2
    # part by more than rounding; a gap test at those two steps alone skipped
    # both and raised NumericError. Their h/2 and h/4 differences converge.
    rng = np.random.default_rng(11)
    params = nnet.init_params(nnet.NNetConfig(dropout_rate=0.0, seed=11))
    planes = rng.uniform(0, 1, size=(3, 3, 28, 28))
    meta = rng.normal(size=(3, 5))
    segments = np.array([0, 0, 1])
    labels = np.array([1.0, 0.0])

    def loss():
        scores = nnet._forward_patch_batch(params, planes, meta)
        return tz.bce_loss(tz.segment_max(scores, segments, 2), labels)

    errs = tz.finite_difference_check(loss, {"beta": params.learnable()["bn_conv1.beta"]},
                                      h=1e-5, samples_per_tensor=2,
                                      rng=np.random.default_rng(7), skip_kinks=True)
    assert errs["beta"] < 1e-4, errs


# ---------------------------------------------------------------------------
# training


def tiny_dataset(rng, n=8, metadata_dim=5):
    """Separable toy set: positives have bright patches and high first metadata."""
    out = []
    for i in range(n):
        label = i % 2
        # HU -1000..-720 in negatives, -160..120 in positives
        cube = np.rint(rng.random((32, 32, 32)) * 280.0 - 1000.0 + 840.0 * label).astype(np.int16)
        meta = rng.normal(size=metadata_dim) + np.r_[3.0 * label, np.zeros(metadata_dim - 1)]
        patches = [NodulePatch(cube=cube, metadata=meta)]
        out.append(ScanExample(scan_id=f"s{i}", patches=patches, label=label))
    return out


def test_train_rejects_single_class():
    rng = np.random.default_rng(0)
    data = [ex for ex in tiny_dataset(rng) if ex.label == 1]
    with pytest.raises(ConfigError):
        nnet.train(nnet.NNetConfig(epochs=1), data)


def test_train_loss_decreases_on_separable_data():
    rng = np.random.default_rng(1)
    data = tiny_dataset(rng)
    config = nnet.NNetConfig(dropout_rate=0.0, epochs=30, batch_size=8, seed=3)
    result = nnet.train(config, data)
    assert result.loss_history[-1] < result.loss_history[0]
    assert len(result.loss_history) == 30


def test_train_seeded_bit_identical():
    rng = np.random.default_rng(2)
    data = tiny_dataset(rng)
    config = nnet.NNetConfig(dropout_rate=0.25, epochs=3, batch_size=4, seed=9)
    a = nnet.train(config, data)
    b = nnet.train(config, data)
    assert a.loss_history == b.loss_history
    for name, tns in a.params.learnable().items():
        np.testing.assert_array_equal(tns.data, b.params.learnable()[name].data)


def int16_volume_examples(n=8):
    """Examples built from int16 volumes on the 1 mm grid, as LRVOL1 files
    give them: one to three nodules a scan, larger and brighter in positives."""
    rng = np.random.default_rng(41)
    grid = np.indices((40, 40, 40)).transpose(1, 2, 3, 0)
    out = []
    for i in range(n):
        label = i % 2
        centers = [tuple(rng.uniform(10.0, 30.0, size=3)) for _ in range(1 + i % 3)]
        vox = rng.normal(-800.0, 60.0, size=grid.shape[:3])
        for c in centers:
            vox += (500.0 + 400.0 * label) * np.exp(-np.sum((grid - c) ** 2, axis=-1)
                                                    / (6.0 + 10.0 * label))
        volume = Volume(np.rint(vox).astype(np.int16), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        candidates = [NoduleCandidate(c, 2.0 + 2.0 * label + j, 0.9)
                      for j, c in enumerate(centers)]
        out.append(build_scan_example(volume, candidates, label, scan_id=f"s{i}"))
    return out


@pytest.mark.parametrize("projection", ["slice", "mip"])
def test_int16_cubes_train_the_bits_of_their_float64_copies(projection):
    short = int16_volume_examples()
    assert all(patch.cube.dtype == np.int16 for ex in short for patch in ex.patches)
    wide = [replace(ex, patches=[replace(patch, cube=patch.cube.astype(np.float64))
                                 for patch in ex.patches]) for ex in short]
    config = nnet.NNetConfig(dropout_rate=0.25, epochs=3, batch_size=4, seed=5,
                             projection=projection)
    a, b = nnet.train(config, short), nnet.train(config, wide)
    assert a.loss_history == b.loss_history
    wide_arrays = b.params.arrays()
    for name, array in a.params.arrays().items():
        assert array.tobytes() == wide_arrays[name].tobytes(), name


def test_gather_batch_train_crops_are_seeded_and_cover_every_offset(monkeypatch):
    # each patch of a training batch is cropped from its cube at an offset
    # of 0 to 4 on every axis, drawn in patch order from the batch's rng
    offsets = []
    crop = nnet.crop28

    def recorded(cube, offset):
        offsets.append(tuple(int(o) for o in offset))
        return crop(cube, offset)

    monkeypatch.setattr(nnet, "crop28", recorded)
    rng = np.random.default_rng(4)
    cube = rng.normal(-500.0, 400.0, size=(32, 32, 32))
    ex = ScanExample("s0", [NodulePatch(cube, rng.normal(size=5)) for _ in range(10)], 1)
    runs = []
    for _ in range(2):
        offsets.clear()
        planes = nnet._gather_batch([ex] * 20, np.random.default_rng(7), "slice")[0]
        runs.append((list(offsets), planes))
    assert runs[0][0] == runs[1][0] and runs[0][1].tobytes() == runs[1][1].tobytes()
    replay = np.random.default_rng(7)
    assert runs[0][0] == [tuple(int(o) for o in replay.integers(0, 5, size=3))
                          for _ in range(200)]
    for axis in range(3):
        assert {o[axis] for o in runs[0][0]} == {0, 1, 2, 3, 4}
    x, y, z = runs[0][0][-1]
    np.testing.assert_array_equal(
        planes[:, -1], normalize_hu(triplanar(cube[x:x + 28, y:y + 28, z:z + 28], "slice")))


def test_backward_peak_stays_near_the_memory_live_when_it_starts(monkeypatch):
    # backward frees each op's saved arrays and gradient as it descends, so
    # its peak is the live graph plus about one layer's gradients and the
    # parameter gradients; a pass that kept every gradient read 1.5-1.7x
    dataset = int16_volume_examples(n=12)
    config = nnet.NNetConfig(dropout_rate=0.25, epochs=2, batch_size=12, seed=7)
    ratios = []
    run_backward = tz.backward

    def traced(loss):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_backward(loss)
        ratios.append(tracemalloc.get_traced_memory()[1] / live)

    monkeypatch.setattr(tz, "backward", traced)
    tracemalloc.start()
    try:
        nnet.train(config, dataset)
    finally:
        tracemalloc.stop()
    assert len(ratios) == 2 and max(ratios) <= 1.25, ratios


# ---------------------------------------------------------------------------
# k-fold


def test_kfold_partition_properties():
    rng = np.random.default_rng(3)
    labels = [1] * 30 + [0] * 70
    folds = nnet.stratified_folds(labels, 5, rng)
    all_idx = np.concatenate(folds)
    assert sorted(all_idx.tolist()) == list(range(100))
    assert len(set(all_idx.tolist())) == 100
    for f in folds:
        pos = sum(1 for i in f if labels[i] == 1)
        assert pos == 6  # 30 positives dealt evenly over 5 folds


def test_kfold_train_sizes_and_determinism():
    rng = np.random.default_rng(4)
    data = tiny_dataset(rng, n=10)
    config = nnet.NNetConfig(dropout_rate=0.0, epochs=2, batch_size=4, seed=5)
    ens = nnet.kfold_train(config, data, k=5)
    assert len(ens.members) == 5
    ens2 = nnet.kfold_train(config, data, k=5)
    for m1, m2 in zip(ens.members, ens2.members):
        for name, tns in m1.params.learnable().items():
            np.testing.assert_array_equal(tns.data, m2.params.learnable()[name].data)


def test_kfold_members_come_back_in_fold_order():
    # five folds on fewer workers: member i holds the model of job i, which
    # training in this process reproduces (up to BLAS summation order here)
    rng = np.random.default_rng(6)
    data = tiny_dataset(rng, n=10)
    config = nnet.NNetConfig(dropout_rate=0.25, epochs=2, batch_size=4, seed=7)
    ens = nnet.kfold_train(config, data, k=5)
    seeds = np.random.SeedSequence(config.seed).generate_state(6)
    folds = nnet.stratified_folds([ex.label for ex in data], 5, np.random.default_rng(seeds[5]))
    for i, (member, holdout) in enumerate(zip(ens.members, folds)):
        train_set = [ex for j, ex in enumerate(data) if j not in set(holdout.tolist())]
        ref = nnet.train(replace(config, seed=int(seeds[i])), train_set)
        np.testing.assert_array_equal(member.metadata_stats.mean, ref.metadata_stats.mean)
        np.testing.assert_allclose(member.loss_history, ref.loss_history, rtol=1e-12)
        assert all(t.grad is None for t in member.params.learnable().values())


def test_kfold_one_fold_trains_on_everything_with_the_config_seed():
    rng = np.random.default_rng(7)
    data = tiny_dataset(rng, n=6)
    config = nnet.NNetConfig(dropout_rate=0.0, epochs=2, batch_size=4, seed=8)
    (member,) = nnet.kfold_train(config, data, k=1).members
    ref = nnet.train(config, data)
    np.testing.assert_allclose(member.loss_history, ref.loss_history, rtol=1e-12)


def test_kfold_fold_error_keeps_its_class():
    # one positive: fold 0 holds it, so fold 0 trains on negatives alone
    rng = np.random.default_rng(8)
    data = [ex for ex in tiny_dataset(rng, n=10) if ex.label == 0 or ex.scan_id == "s1"]
    with pytest.raises(ConfigError, match="both classes"):
        nnet.kfold_train(nnet.NNetConfig(epochs=1), data, k=2)


@pytest.mark.parametrize("entry, expected, one_worker", [
    ("import os; os._exit(3)", "exited with status 3 before returning", False),
    # With two workers, the one holding job 1 could die first and stop the
    # one holding job 0 before it fails: one worker takes job 0 for certain.
    ("import os, pickle, sys; pickle.load(sys.stdin.buffer); os._exit(4)",
     "exited with status 4 before returning fold 0", True),
    ("import os, signal; os.kill(os.getpid(), signal.SIGKILL)", "killed by signal 9", False),
], ids=["at-start", "after-the-dataset", "killed"])
def test_kfold_worker_death_raises_fold_worker_error(entry, expected, one_worker, monkeypatch):
    monkeypatch.setattr(nnet, "_WORKER_ENTRY", entry)
    if one_worker:
        monkeypatch.setattr(host, "usable_cpus", lambda: 1)
    rng = np.random.default_rng(9)
    with pytest.raises(FoldWorkerError, match=expected):
        nnet.kfold_train(nnet.NNetConfig(epochs=1), tiny_dataset(rng, n=6), k=3)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fold_plans_split_at_most_one_fold_per_worker_boundary(data):
    k = data.draw(st.integers(1, 8), label="k")
    epochs = data.draw(st.integers(1, 60), label="epochs")
    workers = data.draw(st.integers(1, k), label="workers")
    cap = -(-k * epochs // workers)
    plans = nnet._fold_plans(k, epochs, workers)
    assert 1 <= len(plans) <= workers and all(plans)
    where = {}      # fold -> [(worker, position, first epoch-time, piece)]
    for j, plan in enumerate(plans):
        clock = 0
        for position, (fold, start, stop) in enumerate(plan):
            assert 0 <= start < stop <= epochs
            where.setdefault(fold, []).append((j, position, clock, (start, stop)))
            clock += stop - start
        assert clock <= cap
    assert sorted(where) == list(range(k))
    split = {fold: pieces for fold, pieces in where.items() if len(pieces) > 1}
    assert len(split) <= workers - 1
    for fold, pieces in where.items():
        ranges = sorted(piece for *_, piece in pieces)
        assert [r[0] for r in ranges] == [0] + [r[1] for r in ranges[:-1]]
        assert ranges[-1][1] == epochs
    for fold, pieces in split.items():
        assert len(pieces) == 2
        (tail_j, tail_pos, tail_at, (mid, _)), (head_j, head_pos, head_at, (_, head_stop)) = pieces
        assert head_j == tail_j + 1 and head_pos == 0 and tail_pos == len(plans[tail_j]) - 1
        assert head_stop == mid and head_at + head_stop <= tail_at


def member_bytes(member):
    return ({name: a.tobytes() for name, a in member.params.arrays().items()},
            member.loss_history)


def test_kfold_train_bytes_do_not_depend_on_the_cpu_count(monkeypatch):
    # 5 folds of 3 epochs: one worker; two and three with one fold split;
    # four with two folds split; five with none
    rng = np.random.default_rng(10)
    data = tiny_dataset(rng, n=10)
    config = nnet.NNetConfig(dropout_rate=0.25, epochs=3, batch_size=4, seed=11)
    runs = []
    for cpus in range(1, 6):
        monkeypatch.setattr(host, "usable_cpus", lambda: cpus)
        runs.append([member_bytes(m) for m in nnet.kfold_train(config, data, k=5).members])
    assert all(run == runs[0] for run in runs[1:])


def test_train_stopped_pickled_and_resumed_equals_an_uninterrupted_run():
    rng = np.random.default_rng(12)
    data = tiny_dataset(rng, n=8)
    config = nnet.NNetConfig(dropout_rate=0.25, epochs=3, batch_size=4, seed=13)
    state = nnet._train_epochs(config, data, None, 1)
    assert len(state.history) == 1
    state = pickle.loads(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
    state = nnet._train_epochs(config, data, state, 2)
    resumed = nnet._train_epochs(config, data, pickle.loads(pickle.dumps(state)), 3)
    assert member_bytes(resumed) == member_bytes(nnet.train(config, data))


def test_kfold_worker_death_during_a_hand_off_stops_every_worker(monkeypatch, tmp_path):
    # 3 folds of 3 epochs on 2 workers: the second worker runs epoch 0 of
    # fold 1 first, and it is killed there once the first worker has trained
    # fold 0 and its driver waits for fold 1's state
    holding = tmp_path / "holding-the-head-piece"
    entry = ("import time, lungrisk.nnet as nn; run = nn._train_epochs; "
             f"hold = lambda: open({str(holding)!r}, 'w').close() or time.sleep(600); "
             "nn._train_epochs = lambda c, d, s, stop: hold() if stop < c.epochs "
             "else run(c, d, s, stop); nn._serve_folds()")
    monkeypatch.setattr(nnet, "_WORKER_ENTRY", entry)
    monkeypatch.setattr(host, "usable_cpus", lambda: 2)
    started, popen = [], subprocess.Popen
    waiting = threading.Event()

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    class Watched(threading.Condition):
        def wait_for(self, predicate, timeout=None):
            if not predicate():
                waiting.set()
            return super().wait_for(predicate, timeout)

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    monkeypatch.setattr(threading, "Condition", Watched)
    raised = []

    def train():
        data = tiny_dataset(np.random.default_rng(14), n=6)
        with pytest.raises(FoldWorkerError) as info:
            nnet.kfold_train(nnet.NNetConfig(epochs=3, batch_size=4), data, k=3)
        raised.append(str(info.value))

    thread = threading.Thread(target=train, daemon=True)
    thread.start()
    assert waiting.wait(timeout=120)
    for _ in range(1200):
        if holding.exists():
            break
        time.sleep(0.1)
    started[1].kill()
    thread.join(timeout=120)
    assert not thread.is_alive(), "the driver waiting for the hand-off hung"
    assert raised == ["a fold worker was killed by signal 9 before returning fold 1"]
    assert len(started) == 2 and all(w.poll() is not None for w in started)


def _row_by_row_dense(x, weights, bias):
    # `tensor.dense` as it was before it became one GEMM: each row its own
    # product, so a row did not depend on the batch
    w, b = weights.data, bias.data
    out = (x.data[:, None, :] @ w)[:, 0, :] + b

    def backward(g):
        weights.accumulate(x.data.T @ g)
        bias.accumulate(g.sum(axis=0))
        x.accumulate(g @ w.T)

    return tz.Tensor(out, parents=(x, weights, bias), backward=backward)


def test_one_training_step_matches_the_row_by_row_dense_reference(monkeypatch):
    # every learnable's gradient and every running statistic after one step
    # on a fixed batch of 6 scans (15 patches), dropout on, within 1e-12 of
    # the largest entry of its layer: a bias or a beta whose true gradient is
    # 0 (it feeds a batch-norm) holds rounding noise of about 1e-17 alone
    rng = np.random.default_rng(15)
    examples = [random_example(rng, n, label=i % 2, scan_id=f"s{i}")
                for i, n in enumerate((1, 4, 2, 3, 1, 4))]
    planes, meta, segments, labels = nnet._gather_batch(examples, None, "slice")

    def step(dense):
        params = small_params(16, dropout=0.25)
        with monkeypatch.context() as m:
            m.setattr(tz, "dense", dense)
            scores = nnet._forward_patch_batch(params, planes, meta, np.random.default_rng(17))
            tz.backward(tz.bce_loss(tz.segment_max(scores, segments, labels.size), labels))
        grads = {name: t.grad for name, t in params.learnable().items()}
        running = {f"{name}.{part}": getattr(state, part) for name, state in params.bn.items()
                   for part in ("running_mean", "running_var")}
        return grads, running

    (grads, running), (ref_grads, ref_running) = step(tz.dense), step(_row_by_row_dense)
    assert len(ref_grads) == 32 and len(ref_running) == 18
    for got, ref in ((grads, ref_grads), (running, ref_running)):
        assert got.keys() == ref.keys()
        scale = {}
        for name, a in ref.items():
            layer = name.split(".")[0]
            scale[layer] = max(scale.get(layer, 0.0), np.abs(a).max())
        for name in ref:
            assert np.abs(got[name] - ref[name]).max() <= 1e-12 * scale[name.split(".")[0]], name


def _assert_within_layer_scale(got, ref, bound):
    # each array within `bound` of the largest entry of its layer (the name's
    # first part), so an array whose true value is 0 may hold rounding noise
    assert got.keys() == ref.keys()
    scale = {}
    for name, a in ref.items():
        layer = name.split(".")[0]
        scale[layer] = max(scale.get(layer, 0.0), np.abs(a).max())
    for name in ref:
        assert np.abs(got[name] - ref[name]).max() <= bound * scale[name.split(".")[0]], name


def test_one_training_step_matches_the_normalized_map_and_textbook_adam_references(monkeypatch):
    # the batch of the dense reference above, once through the ops and once
    # through the batch-norm that holds its normalized map; then Adam, and
    # the Adam that divides the bias corrections into the moments, apply
    # the same gradients
    rng = np.random.default_rng(15)
    examples = [random_example(rng, n, label=i % 2, scan_id=f"s{i}")
                for i, n in enumerate((1, 4, 2, 3, 1, 4))]
    planes, meta, segments, labels = nnet._gather_batch(examples, None, "slice")

    def step(batch_norm):
        params = small_params(16, dropout=0.25)
        with monkeypatch.context() as m:
            m.setattr(tz, "batch_norm", batch_norm)
            scores = nnet._forward_patch_batch(params, planes, meta, np.random.default_rng(17))
            tz.backward(tz.bce_loss(tz.segment_max(scores, segments, labels.size), labels))
        running = {f"{name}.{part}": getattr(state, part) for name, state in params.bn.items()
                   for part in ("running_mean", "running_var")}
        return params.learnable(), running

    (learnable, running), (ref_learnable, ref_running) = step(tz.batch_norm), step(xhat_batch_norm)
    assert len(ref_learnable) == 32 and len(ref_running) == 18
    _assert_within_layer_scale({name: t.grad for name, t in learnable.items()},
                               {name: t.grad for name, t in ref_learnable.items()}, 1e-12)
    _assert_within_layer_scale(running, ref_running, 1e-12)
    for name, t in ref_learnable.items():
        t.data[:], t.grad = learnable[name].data, learnable[name].grad.copy()
    tz.adam_step(learnable, tz.AdamState())
    textbook_adam_step(ref_learnable, tz.AdamState())
    _assert_within_layer_scale({name: t.data for name, t in learnable.items()},
                               {name: t.data for name, t in ref_learnable.items()}, 1e-12)


def test_one_training_step_matches_the_two_unfold_conv_reference(monkeypatch):
    # the batch of the dense reference above, once through the conv that
    # takes conv2's and conv3's kernel gradients from the unfolded output
    # gradient and once through the one that unfolds their input again
    rng = np.random.default_rng(15)
    examples = [random_example(rng, n, label=i % 2, scan_id=f"s{i}")
                for i, n in enumerate((1, 4, 2, 3, 1, 4))]
    planes, meta, segments, labels = nnet._gather_batch(examples, None, "slice")

    def step(conv):
        params = small_params(16, dropout=0.25)
        with monkeypatch.context() as m:
            m.setattr(tz, "conv2d_same", conv)
            scores = nnet._forward_patch_batch(params, planes, meta, np.random.default_rng(17))
            tz.backward(tz.bce_loss(tz.segment_max(scores, segments, labels.size), labels))
        grads = {name: t.grad for name, t in params.learnable().items()}
        running = {f"{name}.{part}": getattr(state, part) for name, state in params.bn.items()
                   for part in ("running_mean", "running_var")}
        return grads, running

    (grads, running), (ref_grads, ref_running) = (step(tz.conv2d_same),
                                                  step(two_unfold_conv2d_same))
    assert len(ref_grads) == 32 and len(ref_running) == 18
    _assert_within_layer_scale(grads, ref_grads, 1e-12)
    _assert_within_layer_scale(running, ref_running, 1e-12)


def test_a_training_step_holds_no_normalized_maps_or_float_dropout_masks():
    # at 24 patches the step peaks at 25.6 MB over its inputs and parameters;
    # a normalized copy of each batch-norm's input and a float64 dropout mask
    # held 8.3 MB more (33.8 MB)
    rng = np.random.default_rng(18)
    planes = rng.random((3, 24, 28, 28))
    meta = rng.normal(size=(24, 5))
    params = small_params(19, dropout=0.25)
    tracemalloc.start()
    try:
        scores = nnet._forward_patch_batch(params, planes, meta, np.random.default_rng(20))
        tz.backward(tz.bce_loss(scores, np.arange(24) % 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 29_000_000, peak


def test_worker_env_sets_one_blas_thread_and_allocator_reuse():
    env = nnet._worker_env()
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[key] == "1"
    assert env["MALLOC_MMAP_THRESHOLD_"] == str(64 << 20)
    assert env["MALLOC_TRIM_THRESHOLD_"] == str(128 << 20)


def test_kfold_too_few_examples():
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigError):
        nnet.kfold_train(nnet.NNetConfig(epochs=1), tiny_dataset(rng, n=4), k=5)


def varied_member(rng, seed, metadata_dim, projection):
    """A member whose batch-norms are far from the identity."""
    params = nnet.init_params(nnet.NNetConfig(dropout_rate=0.0, metadata_dim=metadata_dim,
                                              seed=seed, projection=projection))
    for state in params.bn.values():
        state.running_mean[:] = rng.normal(0, 0.5, state.running_mean.size)
        state.running_var[:] = rng.uniform(0.5, 2.0, state.running_var.size)
        state.gamma.data[:] = rng.uniform(0.5, 1.5, state.gamma.size)
        state.beta.data[:] = rng.normal(0, 0.2, state.beta.size)
    stats = MetadataStats(mean=rng.normal(size=metadata_dim),
                          std=rng.uniform(0.5, 2.0, metadata_dim))
    return nnet.FoldMember(params, stats)


def _reference_conv(x, kernels, bias):
    """3x3 zero-padded convolution of (N,C,H,W) maps as nine shifted sums."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2, w + 2))
    padded[:, :, 1:-1, 1:-1] = x
    out = np.zeros((n, len(kernels), h, w))
    for di in range(3):
        for dj in range(3):
            out += np.einsum("oc,nchw->nohw", kernels[:, :, di, dj],
                             padded[:, :, di:di + h, dj:dj + w])
    return out + bias[None, :, None, None]


def _reference_bn(x, state):
    """Batch-norm with the running statistics, channels on axis 1."""
    shape = (1, -1) + (1,) * (x.ndim - 2)
    inv = 1.0 / np.sqrt(state.running_var + tz.BN_EPSILON)
    return ((x - state.running_mean.reshape(shape)) * inv.reshape(shape)
            * state.gamma.data.reshape(shape) + state.beta.data.reshape(shape))


def reference_planes(cube, projection):
    """A scored patch's planes, written out: the centre 28^3 of its 32^3
    cube, the three views through index 14 (or the maxima along each axis),
    and the HU window [-1000, 400] mapped onto [0, 1]."""
    crop = cube[2:30, 2:30, 2:30].astype(np.float64)
    if projection == "slice":
        views = [crop[:, 14, :], crop[14, :, :], crop[:, :, 14]]
    else:
        views = [crop.max(axis=1), crop.max(axis=0), crop.max(axis=2)]
    return (np.clip(np.stack(views), -1000.0, 400.0) + 1000.0) / 1400.0


def reference_risks(member, examples):
    """Each example's risk from the layer list of `nnet`'s docstring, layer
    by layer with running statistics and nothing folded, on planes cut from
    each patch's cube by `reference_planes`; dropout is the identity when
    scoring."""
    p, bn = member.params.tensors, member.params.bn

    def conv(x, name):
        return _reference_conv(x, p[f"{name}.kernels"].data, p[f"{name}.bias"].data)

    risks = []
    for ex in examples:
        x = np.stack([reference_planes(patch.cube, member.params.projection)
                      for patch in ex.patches])
        h = x
        for name in ("conv1", "conv2", "conv3"):
            h = np.maximum(_reference_bn(conv(h, name), bn[f"bn_{name}"]), 0.0)
        h = _reference_bn(h + _reference_bn(conv(x, "conv_skip"), bn["bn_skip"]), bn["bn_merge"])
        h = _reference_bn(h, bn["bn_drop_map"]).reshape(len(x), -1)
        h = _reference_bn(h @ p["dense1.weights"].data + p["dense1.bias"].data, bn["bn_fc1"])
        h = _reference_bn(h, bn["bn_drop_vec"])
        h = _reference_bn(h @ p["dense2.weights"].data + p["dense2.bias"].data, bn["bn_fc2"])
        meta = member.metadata_stats.standardize(np.stack([patch.metadata for patch in ex.patches]))
        z = np.concatenate([h, meta], axis=1) @ p["dense_out.weights"].data + p["dense_out.bias"].data
        risks.append(np.max(1.0 / (1.0 + np.exp(-z[:, 0]))))
    return np.array(risks)


@pytest.mark.parametrize("metadata_dim", [5, 6])
def test_inference_plan_matches_an_unfolded_reference_forward(metadata_dim):
    for projection in ("slice", "mip"):
        rng = np.random.default_rng(40 + metadata_dim)
        ensemble = nnet.FoldEnsemble(members=[varied_member(rng, seed, metadata_dim, projection)
                                              for seed in (41, 42)])
        examples = [random_example(rng, n, metadata_dim=metadata_dim, scan_id=f"s{i}")
                    for i, n in enumerate((1, 3, 10, 2, 5))]
        expected = np.mean([reference_risks(m, examples) for m in ensemble.members], axis=0)

        def check():
            np.testing.assert_allclose(nnet.ensemble_predict(plans(ensemble), examples),
                                       expected, rtol=1e-12, atol=0, err_msg=projection)

        check()
        # one dense1 weight, of the centre pixel of channel 0, moved by 1e-6
        ensemble.members[0].params.tensors["dense1.weights"].data[14 * 28 + 14, 0] += 1e-6
        with pytest.raises(AssertionError):
            check()


def test_ensemble_mean_and_identical_members():
    rng = np.random.default_rng(6)
    stats = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    params = small_params(12)
    ens = nnet.FoldEnsemble(members=[nnet.FoldMember(params, stats)] * 5)
    ex = random_example(rng, 2)
    assert nnet.ensemble_predict(plans(ens), [ex]) == [bag_risk(params, ex.patches[:2])]


def member_mean_of_one_scan(ensemble, ex):
    """Reference: each member scores the scan alone in one call, then the
    member risks are averaged."""
    if not ex.patches:
        return 0.0
    return float(np.mean([nnet.ensemble_predict([nnet.build_plan(m)], [ex])[0]
                          for m in ensemble.members]))


# nodules per scan: a zero-nodule scan inside a chunk, a 10-nodule scan that
# overflows the chunk budget, chunks that close at exactly 8, a trailing part
CHUNKED_COUNTS = [2, 0, 10, 1, 3, 4, 0, 7, 1, 1, 5, 0, 2, 8, 3]


def chunked_cohort(rng):
    """An ensemble with non-identity metadata statistics, and the scans of
    CHUNKED_COUNTS in an id order that is not sorted."""
    members = [nnet.FoldMember(small_params(seed),
                               MetadataStats(mean=rng.normal(size=5), std=rng.uniform(0.5, 2, 5)))
               for seed in (31, 32, 33)]
    ids = rng.permutation(len(CHUNKED_COUNTS))
    examples = [random_example(rng, n, scan_id=f"scan_{i:02d}")
                for i, n in zip(ids, CHUNKED_COUNTS)]
    assert [ex.scan_id for ex in examples] != sorted(ex.scan_id for ex in examples)
    return nnet.FoldEnsemble(members=members), examples


@pytest.mark.parametrize("budget", sorted({1, 5, 8, 12, 24, 1000, nnet.SCORE_CHUNK_PATCHES}))
def test_chunked_scorer_equals_one_scan_at_a_time_bit_for_bit(budget, monkeypatch):
    ensemble, examples = chunked_cohort(np.random.default_rng(30))
    calls = []          # patches of each plan call, in the order the threads made them
    score = nnet._plan_scores
    monkeypatch.setattr(nnet, "_plan_scores",
                        lambda plan, planes, *args: calls.append(planes.shape[1])
                        or score(plan, planes, *args))
    monkeypatch.setattr(nnet, "SCORE_CHUNK_PATCHES", budget)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        risks = nnet.ensemble_predict(plans(ensemble), iter(examples))
    chunks = [sum(len(ex.patches) for ex in chunk) for chunk in nnet._chunks(examples)]
    monkeypatch.undo()
    zero_ids = [ex.scan_id for ex in examples if not ex.patches]
    assert [w.category for w in caught] == [ZeroNoduleWarning] * len(zero_ids)
    assert all(sid in str(w.message) for sid, w in zip(zero_ids, caught))
    assert risks == [member_mean_of_one_scan(ensemble, ex) for ex in examples]
    assert risks[1] == 0.0 and risks[6] == 0.0 and risks[11] == 0.0
    # one plan call per member per chunk with a patch, whatever thread made it
    assert sorted(calls) == sorted(n for n in chunks if n for _ in ensemble.members)
    if budget == 8:
        assert chunks == [12, 8, 8, 8, 8, 3]


def test_ensemble_predict_pulls_one_chunk_ahead_and_drops_it(monkeypatch):
    # 3 scans of 3 patches a chunk at a budget of 8
    monkeypatch.setattr(nnet, "SCORE_CHUNK_PATCHES", 8)
    rng = np.random.default_rng(34)
    ensemble = nnet.FoldEnsemble(members=[nnet.FoldMember(small_params(35), IDENTITY_STATS)])
    examples = [random_example(rng, 3, scan_id=f"s{i}") for i in range(15)]
    expected = [scan_risk(ensemble.members[0].params, ex) for ex in examples]

    def build(patches, alive, ahead):
        for i, ex in enumerate(examples):
            # copies, so that the list above keeps none of them alive
            fresh = replace(ex, patches=[replace(p) for p in ex.patches])
            patches.append([weakref.ref(p) for p in fresh.patches])
            chunks = {j // 3 for j, refs in enumerate(patches) if any(r() for r in refs)}
            alive.append(len(chunks))
            ahead.append(i // 3 - min(chunks) + 1)
            yield fresh
            del fresh

    for threads in (1, 2, 3):
        monkeypatch.setattr(host, "usable_cpus", lambda: threads)
        patches = []    # weak references to the patches of each example pulled
        alive = []      # chunks pulled and not yet freed, at each pull
        ahead = []      # chunks from the oldest of those to the one being pulled
        risks = nnet.ensemble_predict(plans(ensemble), build(patches, alive, ahead))
        # a chunk per thread being scored, plus the one being pulled; a
        # scorer that read the iterable out first would hold all 5
        assert max(alive) <= threads + 1, (threads, alive)
        # scored chunks wait for a slower one before them, two per thread
        assert max(ahead) <= 2 * threads + 1, (threads, ahead)
        assert all(r() is None for refs in patches for r in refs)
        assert risks == expected


def test_zero_nodule_warnings_come_once_per_scan_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(host, "usable_cpus", lambda: 2)
    monkeypatch.setattr(nnet, "SCORE_CHUNK_PATCHES", 2)
    ensemble, examples = chunked_cohort(np.random.default_rng(36))
    warned = []
    warn = warnings.warn

    def spy(message, category=UserWarning, *args, **kwargs):
        warned.append((str(message), category, threading.current_thread()))
        warn(message, category, *args, **kwargs)

    monkeypatch.setattr(warnings, "warn", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nnet.ensemble_predict(plans(ensemble), examples)
    monkeypatch.undo()
    zero_ids = [ex.scan_id for ex in examples if not ex.patches]
    assert [category for _, category, _ in warned] == [ZeroNoduleWarning] * len(zero_ids)
    assert all(sid in message for sid, (message, _, _) in zip(zero_ids, warned))
    assert all(thread is threading.current_thread() for _, _, thread in warned)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip_bit_exact(tmp_path):
    p = small_params(13)
    # make running stats non-trivial
    for state in p.bn.values():
        state.running_mean += 0.125
        state.running_var *= 1.5
    stats = MetadataStats(mean=np.arange(5.0), std=np.arange(1.0, 6.0))
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path, stats)
    member = nnet.load_member(path)
    loaded = member.params
    for name, arr in p.arrays().items():
        np.testing.assert_array_equal(loaded.arrays()[name], arr)
    back = member.metadata_stats
    np.testing.assert_array_equal(back.mean, stats.mean)
    np.testing.assert_array_equal(back.std, stats.std)
    assert loaded.metadata_dim == 5
    assert loaded.dropout_rate == 0.0


# Saves a member under a 1 MB file-size limit. With SIGXFSZ ignored, the
# write of the 3.3 MB file fails part way with EFBIG instead of ending the process.
SAVE_OVER_A_FILE_SIZE_LIMIT = """
import resource, signal, sys
import numpy as np
from lungrisk import nnet
from lungrisk.preprocess import MetadataStats
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
nnet.save_params(nnet.init_params(nnet.NNetConfig(seed=2)), sys.argv[1],
                 MetadataStats(mean=np.zeros(5), std=np.ones(5)))
"""


def test_a_weight_write_that_fails_leaves_the_old_file_and_no_partial_file(tmp_path):
    path = tmp_path / "fold0.lrnn"
    nnet.save_params(small_params(1), path, IDENTITY_STATS)
    before = path.read_bytes()
    assert len(before) > 3 << 20
    child = subprocess.run([sys.executable, "-c", SAVE_OVER_A_FILE_SIZE_LIMIT, str(path)],
                           env=nnet._worker_env(), capture_output=True, timeout=120)
    assert child.returncode == 1 and f"[Errno {errno.EFBIG}]".encode() in child.stderr, child.stderr
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["fold0.lrnn"]


def test_save_load_inference_identical(tmp_path):
    rng = np.random.default_rng(14)
    p = small_params(15)
    ex = random_example(rng, 3)
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path, IDENTITY_STATS)
    loaded = nnet.load_member(path).params
    assert scan_risk(loaded, ex) == scan_risk(p, ex)


def test_corrupted_byte_raises_checksum_error(tmp_path):
    p = small_params(16)
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path, IDENTITY_STATS)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        nnet.load_member(path)


def test_future_version_raises_version_error(tmp_path):
    p = small_params(17)
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path, IDENTITY_STATS)
    blob = bytearray(path.read_bytes())
    # bump the version field and fix the checksum so only the version differs
    struct.pack_into("<H", blob, len(nnet.WEIGHTS_MAGIC), 99)
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])))
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        nnet.load_member(path)


def test_truncated_file_raises(tmp_path):
    p = small_params(18)
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path, IDENTITY_STATS)
    blob = path.read_bytes()[: len(path.read_bytes()) // 2]
    path.write_bytes(blob)
    with pytest.raises((TruncatedFileError, ChecksumError)):
        nnet.load_member(path)


def test_ensemble_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    stats = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    members = [nnet.FoldMember(small_params(seed), stats) for seed in (20, 21, 22)]
    ens = nnet.FoldEnsemble(members=members)
    nnet.save_ensemble(ens, tmp_path / "model")
    back = nnet.load_ensemble(tmp_path / "model")
    assert len(back.members) == 3
    ex = random_example(rng, 2)
    expected = nnet.ensemble_predict(plans(ens), [ex])
    assert nnet.ensemble_predict(plans(back), [ex]) == expected
    assert nnet.ensemble_predict(nnet.load_plans(tmp_path / "model"), [ex]) == expected


def load_edited(path, params, edits):
    """`load_member` of the file `save_params` writes for `params`, with each
    entry of `edits` set to its value, or dropped where the value is None."""
    nnet.save_params(params, path, IDENTITY_STATS)
    arrays = nnet._read_weight_arrays(path)
    for name, value in edits.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    write_weight_entries(sorted(arrays.items()), path)
    return nnet.load_member(path)


def test_projection_round_trips_and_a_file_without_it_is_rejected(tmp_path):
    params = nnet.init_params(nnet.NNetConfig(projection="mip"))
    assert params.projection == "mip"
    path = tmp_path / "model.lrnn"
    nnet.save_params(params, path, IDENTITY_STATS)
    assert nnet.load_member(path).params.projection == "mip"
    np.testing.assert_array_equal(nnet._read_weight_arrays(path)["config.projection"], [1.0])
    with pytest.raises(VersionError, match="lacks entry 'config.projection'"):
        load_edited(path, params, {"config.projection": None})
    with pytest.raises(VersionError, match="unknown projection code 2.0"):
        load_edited(path, params, {"config.projection": np.array([2.0])})


def metadata_dim_of(value):
    """`config.metadata_dim` set to `value`, with dense_out and the metadata
    statistics sized to match it, so that the value is the file's one fault."""
    width = int(value)
    return {"config.metadata_dim": np.array([value]),
            "dense_out.weights": np.zeros((nnet.FC_UNITS + width, 1)),
            "meta_stats.mean": np.zeros(width), "meta_stats.std": np.ones(width)}


@pytest.mark.parametrize("edits", [
    {"config.projection": np.zeros(0)},
    {"config.metadata_dim": np.zeros(0)},
    {"config.dropout_rate": np.zeros(2)},
    metadata_dim_of(0.0),
    metadata_dim_of(5.5),
    metadata_dim_of(7.0),
], ids=["empty-projection", "empty-metadata-dim", "two-dropout-rates", "metadata-dim-0",
        "metadata-dim-5.5", "metadata-dim-7"])
def test_malformed_config_entry_raises_version_error(edits, tmp_path):
    name = next(iter(edits))    # the faulty entry
    with pytest.raises(VersionError, match=name):
        load_edited(tmp_path / "model.lrnn", small_params(), edits)


@pytest.mark.parametrize("name, value", [
    pytest.param("bn_fc1.gamma", None, id="missing-gamma"),
    pytest.param("bn_conv1.running_mean", None, id="missing-running-mean"),
    pytest.param("bn_fc1.running_var", np.ones(nnet.FC_UNITS - 1), id="short-running-var"),
    pytest.param("bn_conv2.beta", np.zeros((nnet.N_CHANNELS, 1)), id="two-dim-beta"),
    pytest.param("dense2.bias", None, id="missing-dense-bias"),
] + [pytest.param(name, None, id=f"drop-{name}") for name in nnet._stored_shapes(5)])
def test_malformed_array_entry_raises_version_error(name, value, tmp_path):
    # without its mean, a file reads as one written before the statistics were stored
    match = "metadata statistics" if name == "meta_stats.mean" else f"'{name}'"
    with pytest.raises(VersionError, match=match):
        load_edited(tmp_path / "model.lrnn", small_params(), {name: value})


@pytest.mark.parametrize("metadata_dim", [5, 6])
def test_a_saved_file_holds_the_stored_shapes(metadata_dim, tmp_path):
    path = tmp_path / "model.lrnn"
    nnet.save_params(small_params(metadata_dim=metadata_dim), path,
                     MetadataStats(mean=np.zeros(metadata_dim), std=np.ones(metadata_dim)))
    arrays = nnet._read_weight_arrays(path)
    assert {name: a.shape for name, a in arrays.items()} == nnet._stored_shapes(metadata_dim)


def test_load_member_is_bit_exact(tmp_path):
    p = small_params(25)
    for state in p.bn.values():
        state.running_var *= 1.25
    stats = MetadataStats(mean=np.arange(5.0), std=np.arange(1.0, 6.0))
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path, stats)
    member = nnet.load_member(path)
    assert isinstance(member, nnet.FoldMember) and member.loss_history == []
    loaded = member.params.arrays()
    assert loaded.keys() == p.arrays().keys()
    for name, arr in p.arrays().items():
        assert loaded[name].tobytes() == arr.tobytes(), name
    assert member.metadata_stats.mean.tobytes() == stats.mean.tobytes()
    assert member.metadata_stats.std.tobytes() == stats.std.tobytes()


def test_load_member_without_metadata_statistics_raises_version_error(tmp_path):
    path = tmp_path / "fold0.lrnn"
    nnet.save_params(small_params(), path, IDENTITY_STATS)
    arrays = nnet._read_weight_arrays(path)
    for name in ("meta_stats.mean", "meta_stats.std"):
        del arrays[name]
    write_weight_entries(sorted(arrays.items()), path)
    with pytest.raises(VersionError, match="metadata statistics"):
        nnet.load_member(path)
    with pytest.raises(VersionError, match="metadata statistics"):
        nnet.load_ensemble(tmp_path)


def test_ensemble_rejects_members_of_different_projections(tmp_path):
    stats = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    members = [nnet.FoldMember(nnet.init_params(nnet.NNetConfig(projection=proj)), stats)
               for proj in ("slice", "mip")]
    with pytest.raises(ConfigError, match="projection"):
        nnet.FoldEnsemble(members=members)
    assert plans(nnet.FoldEnsemble(members=members[1:]))[0].projection == "mip"
    # the plans of their weight files go through the same check
    for i, member in enumerate(members):
        nnet.save_params(member.params, tmp_path / f"fold{i}.lrnn", stats)
    with pytest.raises(FormatError, match="fold1.lrnn.*disagrees with fold0.lrnn on projection"):
        nnet.load_plans(tmp_path)


def test_load_ensemble_reads_each_file_once(tmp_path, monkeypatch):
    stats = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    members = [nnet.FoldMember(small_params(seed), stats) for seed in (23, 24)]
    nnet.save_ensemble(nnet.FoldEnsemble(members=members), tmp_path)
    reads = []
    read = nnet._read_weight_arrays
    monkeypatch.setattr(nnet, "_read_weight_arrays", lambda path: reads.append(path) or read(path))
    back = nnet.load_ensemble(tmp_path)
    assert sorted(reads) == [tmp_path / "fold0.lrnn", tmp_path / "fold1.lrnn"]
    np.testing.assert_array_equal(back.members[1].params.tensors["dense1.weights"].data,
                                  members[1].params.tensors["dense1.weights"].data)
    np.testing.assert_array_equal(back.members[1].metadata_stats.std, stats.std)


# ---------------------------------------------------------------------------
# config files


def test_train_config_file_round_trip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("# comment\ndropout_rate=0.7\nepochs=12\nseed=4\nprojection=mip\n")
    config = nnet.load_train_config(path)
    assert config.dropout_rate == 0.7
    assert config.epochs == 12
    assert config.projection == "mip"
    override = nnet.load_train_config(path, epochs=3)
    assert override.epochs == 3


def test_train_config_unknown_key(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("momentum=0.9\n")
    with pytest.raises(ConfigError):
        nnet.load_train_config(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        nnet.NNetConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        nnet.NNetConfig(metadata_dim=7)
    for lr in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ConfigError, match="learning_rate"):
            nnet.NNetConfig(learning_rate=lr)


def test_config_rejects_unknown_projection(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("projection=cubic\n")
    with pytest.raises(ConfigError, match="projection"):
        nnet.load_train_config(path)
