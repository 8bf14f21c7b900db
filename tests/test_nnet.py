from dataclasses import replace

import numpy as np
import pytest

from lungrisk import nnet, tensor as tz
from lungrisk.errors import (
    ChecksumError,
    ConfigError,
    FoldWorkerError,
    TruncatedFileError,
    VersionError,
    ZeroNoduleWarning,
)
from lungrisk.preprocess import MetadataStats, NodulePatch, ScanExample


def random_patch(rng, metadata_dim=5):
    return NodulePatch(planes=rng.random((3, 28, 28)), metadata=rng.normal(size=metadata_dim))


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
# score_bags / ensemble_predict

IDENTITY_STATS = MetadataStats(mean=np.zeros(5), std=np.ones(5))


def bag_risk(p, patches):
    """Infer-mode risk of one bag, all patches scored in one call."""
    planes = np.stack([patch.planes for patch in patches], axis=1)
    meta = np.stack([patch.metadata for patch in patches])
    segments = np.zeros(len(patches), dtype=np.int64)
    return float(nnet.score_bags(p, planes, meta, segments, 1, "infer").data[0])


def branch_score(p, patch):
    return bag_risk(p, [patch])


def scan_risk(p, ex):
    """Risk through the `lungrisk score` path: a one-member ensemble whose
    metadata statistics leave the metadata as it is."""
    ensemble = nnet.FoldEnsemble(members=[nnet.FoldMember(p, IDENTITY_STATS)])
    return nnet.ensemble_predict(ensemble, ex)


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


def test_score_bags_scores_each_bag_independently():
    rng = np.random.default_rng(9)
    p = small_params(10)
    bags = [[random_patch(rng) for _ in range(n)] for n in (3, 1, 5)]
    flat = [patch for bag in bags for patch in bag]
    planes = np.stack([patch.planes for patch in flat], axis=1)
    meta = np.stack([patch.metadata for patch in flat])
    segments = np.repeat(np.arange(3), [3, 1, 5])
    risks = nnet.score_bags(p, planes, meta, segments, 3, "infer").data
    assert risks.tolist() == [max(branch_score(p, patch) for patch in bag) for bag in bags]


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
    patch = random_patch(np.random.default_rng(0))
    trace = layer_shapes(p, patch.planes[:, None], patch.metadata[None])
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
        scores = nnet._forward_patch_batch(p, planes, meta, "train")
        return tz.bce_loss(tz.segment_max(scores, segments, 2), labels)

    errs = tz.finite_difference_check(loss, check_set, h=1e-5, samples_per_tensor=4,
                                      rng=np.random.default_rng(0), skip_kinks=True)
    assert max(errs.values()) < 1e-4, errs


# ---------------------------------------------------------------------------
# training


def tiny_dataset(rng, n=8, metadata_dim=5):
    """Separable toy set: positives have bright patches and high first metadata."""
    out = []
    for i in range(n):
        label = i % 2
        planes = rng.random((3, 28, 28)) * 0.2 + 0.6 * label
        meta = rng.normal(size=metadata_dim) + np.r_[3.0 * label, np.zeros(metadata_dim - 1)]
        patches = [NodulePatch(planes=planes, metadata=meta)]
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
        monkeypatch.setattr(nnet, "_usable_cpus", lambda: 1)
    rng = np.random.default_rng(9)
    with pytest.raises(FoldWorkerError, match=expected):
        nnet.kfold_train(nnet.NNetConfig(epochs=1), tiny_dataset(rng, n=6), k=3)


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


def test_ensemble_mean_and_identical_members():
    rng = np.random.default_rng(6)
    stats = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    params = small_params(12)
    ens = nnet.FoldEnsemble(members=[nnet.FoldMember(params, stats)] * 5)
    ex = random_example(rng, 2)
    assert nnet.ensemble_predict(ens, ex) == bag_risk(params, ex.patches[:2])


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
    loaded = nnet.load_params(path)
    for name, arr in p.arrays().items():
        np.testing.assert_array_equal(loaded.arrays()[name], arr)
    back = nnet.load_metadata_stats(path)
    np.testing.assert_array_equal(back.mean, stats.mean)
    np.testing.assert_array_equal(back.std, stats.std)
    assert loaded.metadata_dim == 5
    assert loaded.dropout_rate == 0.0


def test_save_load_inference_identical(tmp_path):
    rng = np.random.default_rng(14)
    p = small_params(15)
    ex = random_example(rng, 3)
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path)
    loaded = nnet.load_params(path)
    assert scan_risk(loaded, ex) == scan_risk(p, ex)


def test_corrupted_byte_raises_checksum_error(tmp_path):
    p = small_params(16)
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        nnet.load_params(path)


def test_future_version_raises_version_error(tmp_path):
    p = small_params(17)
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path)
    blob = bytearray(path.read_bytes())
    # bump the version field and fix the checksum so only the version differs
    import struct
    import zlib
    struct.pack_into("<H", blob, len(nnet.WEIGHTS_MAGIC), 99)
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])))
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        nnet.load_params(path)


def test_truncated_file_raises(tmp_path):
    p = small_params(18)
    path = tmp_path / "model.lrnn"
    nnet.save_params(p, path)
    blob = path.read_bytes()[: len(path.read_bytes()) // 2]
    path.write_bytes(blob)
    with pytest.raises((TruncatedFileError, ChecksumError)):
        nnet.load_params(path)


def test_ensemble_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    stats = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    members = [nnet.FoldMember(small_params(seed), stats) for seed in (20, 21, 22)]
    ens = nnet.FoldEnsemble(members=members)
    nnet.save_ensemble(ens, tmp_path / "model")
    back = nnet.load_ensemble(tmp_path / "model")
    assert len(back.members) == 3
    ex = random_example(rng, 2)
    assert nnet.ensemble_predict(back, ex) == nnet.ensemble_predict(ens, ex)


def test_projection_round_trips_and_older_files_read_as_slice(tmp_path):
    params = nnet.init_params(nnet.NNetConfig(projection="mip"))
    assert params.projection == "mip"
    path = tmp_path / "model.lrnn"
    nnet.save_params(params, path)
    assert nnet.load_params(path).projection == "mip"
    arrays = nnet._read_weight_arrays(path)
    np.testing.assert_array_equal(arrays["config.projection"], [1.0])
    del arrays["config.projection"]
    assert nnet._params_from_arrays(arrays, path).projection == "slice"
    arrays["config.projection"] = np.array([2.0])
    with pytest.raises(VersionError, match="projection"):
        nnet._params_from_arrays(arrays, path)


@pytest.mark.parametrize("name, value", [
    ("config.projection", np.zeros(0)),
    ("config.projection", np.array([np.nan])),
    ("config.metadata_dim", np.zeros(0)),
    ("config.metadata_dim", np.array([np.nan])),
    ("config.dropout_rate", np.zeros(2)),
], ids=["empty-projection", "nan-projection", "empty-metadata-dim", "nan-metadata-dim",
        "two-dropout-rates"])
def test_malformed_config_entry_raises_version_error(name, value, tmp_path):
    path = tmp_path / "model.lrnn"
    nnet.save_params(small_params(), path)
    arrays = {**nnet._read_weight_arrays(path), name: value}
    with pytest.raises(VersionError, match=name):
        nnet._params_from_arrays(arrays, path)


@pytest.mark.parametrize("name, value", [
    ("bn_fc1.gamma", None),
    ("bn_conv1.running_mean", None),
    ("bn_fc1.running_var", np.ones(nnet.FC_UNITS - 1)),
    ("bn_conv2.beta", np.zeros((nnet.N_CHANNELS, 1))),
    ("dense2.bias", None),
], ids=["missing-gamma", "missing-running-mean", "short-running-var", "two-dim-beta",
        "missing-dense-bias"])
def test_malformed_array_entry_raises_version_error(name, value, tmp_path):
    path = tmp_path / "model.lrnn"
    nnet.save_params(small_params(), path)
    arrays = nnet._read_weight_arrays(path)
    if value is None:
        del arrays[name]
    else:
        arrays[name] = value
    with pytest.raises(VersionError, match=name):
        nnet._params_from_arrays(arrays, path)


def test_ensemble_rejects_members_of_different_projections():
    stats = MetadataStats(mean=np.zeros(5), std=np.ones(5))
    members = [nnet.FoldMember(nnet.init_params(nnet.NNetConfig(projection=proj)), stats)
               for proj in ("slice", "mip")]
    with pytest.raises(ConfigError, match="projection"):
        nnet.FoldEnsemble(members=members)
    assert nnet.FoldEnsemble(members=members[1:]).projection == "mip"


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
    with pytest.raises(ConfigError):
        nnet.NNetConfig(n_branches=5)
    for lr in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ConfigError, match="learning_rate"):
            nnet.NNetConfig(learning_rate=lr)


def test_config_rejects_unknown_projection(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("projection=cubic\n")
    with pytest.raises(ConfigError, match="projection"):
        nnet.load_train_config(path)
