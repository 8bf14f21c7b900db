import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lungrisk import evaluate as ev
from lungrisk import fileio, pancan, synthdata as sd
from lungrisk.errors import ConfigError
from lungrisk.fileio import read_candidates_csv, read_labels_csv, read_volume_compact


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_spec_validation():
    with pytest.raises(ConfigError):
        sd.PhantomSpec(n_scans=10, prevalence=0.0)
    with pytest.raises(ConfigError):
        sd.PhantomSpec(n_scans=10, prevalence=0.2, size_range_mm=(4.0, 40.0))
    with pytest.raises(ConfigError):
        sd.PhantomSpec(n_scans=10, prevalence=0.2, volume_dims=(30, 96, 96))
    with pytest.raises(ConfigError):
        sd.PhantomSpec(n_scans=10, prevalence=0.2, nodules_per_scan=(0, 3))
    for sigma in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="texture_noise_sigma"):
            sd.PhantomSpec(n_scans=10, prevalence=0.2, texture_noise_sigma=sigma)
    assert sd.PhantomSpec(n_scans=10, prevalence=0.2, texture_noise_sigma=0.0)


def calibrate_intercept_scan_by_scan(spec):
    # the reference: each calibration scan's features drawn in turn, as
    # rendering draws a scan's, and the bisection of `calibrate_intercept`
    rng = np.random.default_rng(sd._CALIBRATION_SEED)
    lo_n, hi_n = spec.nodules_per_scan
    counts = rng.integers(lo_n, hi_n + 1, size=sd._CALIBRATION_SCANS)
    flat = np.concatenate([sd._malignancy_logit(*sd._draw_nodule_features(rng, spec, int(n)))
                           for n in counts])
    starts = np.r_[0, np.cumsum(counts)][:-1]

    def prevalence_at(b0):
        p = 1.0 / (1.0 + np.exp(-(flat + b0)))
        return float(np.mean(1.0 - np.exp(np.add.reduceat(np.log1p(-p), starts))))

    lo, hi = -20.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if prevalence_at(mid) < spec.prevalence:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("prevalence, nodules, sizes", [
    (0.2, (1, 4), (4.0, 20.0)),
    (0.3, (2, 10), (4.0, 20.0)),
    (0.5, (1, 1), (5.0, 12.5)),
    (0.05, (1, 4), (3.0, 9.0)),
])
def test_calibrate_intercept_equals_the_scan_by_scan_draw(prevalence, nodules, sizes):
    spec = sd.PhantomSpec(n_scans=5, prevalence=prevalence, nodules_per_scan=nodules,
                          size_range_mm=sizes)
    assert repr(sd.calibrate_intercept(spec)) == repr(calibrate_intercept_scan_by_scan(spec))


def test_generation_deterministic_bytes(tmp_path):
    spec = sd.PhantomSpec(n_scans=6, prevalence=0.3, seed=42)
    sd.generate(spec, out_dir=tmp_path / "a")
    sd.generate(spec, out_dir=tmp_path / "b")
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")


def test_different_seed_changes_output(tmp_path):
    sd.generate(sd.PhantomSpec(n_scans=3, prevalence=0.3, seed=1), out_dir=tmp_path / "a")
    sd.generate(sd.PhantomSpec(n_scans=3, prevalence=0.3, seed=2), out_dir=tmp_path / "b")
    assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")


def test_positive_count_within_binomial_bounds():
    # 99% binomial interval for n=100, p=0.2 is [9, 32]
    ds = sd.generate(sd.PhantomSpec(n_scans=100, prevalence=0.2, seed=2024))
    positives = sum(s.label for s in ds.scans)
    assert 9 <= positives <= 32


def test_generative_risk_is_strong_oracle():
    ds = sd.generate(sd.PhantomSpec(n_scans=250, prevalence=0.2, seed=77))
    cohort = ev.ScoredCohort(
        scan_ids=[s.scan_id for s in ds.scans],
        scores=np.array([s.risk for s in ds.scans]),
        labels=np.array([s.label for s in ds.scans]),
    )
    assert ev.auc(cohort) >= 0.90


def test_label_is_or_of_nodule_malignancies():
    ds = sd.generate(sd.PhantomSpec(n_scans=60, prevalence=0.4, seed=5))
    for s in ds.scans:
        assert s.label == int(any(nd.malignant for nd in s.nodules))


def test_centers_respect_cube_margin():
    spec = sd.PhantomSpec(n_scans=40, prevalence=0.2, seed=6)
    ds = sd.generate(spec)
    dims = np.asarray(spec.volume_dims, dtype=float)
    for s in ds.scans:
        for nd in s.nodules:
            c = np.asarray(nd.center)
            assert np.all(c >= 16.0) and np.all(c <= dims - 16.0)


def test_written_files_are_consistent(tmp_path):
    spec = sd.PhantomSpec(n_scans=5, prevalence=0.3, seed=9)
    ds = sd.generate(spec, out_dir=tmp_path)
    labels = read_labels_csv(tmp_path / "labels.csv")
    assert labels == ds.labels
    cands = read_candidates_csv(tmp_path / "candidates.csv")
    assert set(cands) == {s.scan_id for s in ds.scans}
    for s in ds.scans:
        assert len(cands[s.scan_id]) == len(s.candidates)
        vol = read_volume_compact(tmp_path / "volumes" / f"{s.scan_id}.lrvol")
        assert vol.dims == spec.volume_dims
        assert vol.spacing == (1.0, 1.0, 1.0)
    truth = (tmp_path / "ground_truth.csv").read_text().splitlines()
    assert truth[0] == "scan_id,label,risk"
    assert len(truth) == 1 + len(ds.scans)


def test_upper_lobe_flag_matches_z_position():
    spec = sd.PhantomSpec(n_scans=50, prevalence=0.2, seed=10)
    ds = sd.generate(spec)
    lo, hi = 16.0, spec.volume_dims[2] - 16.0
    split = lo + 0.55 * (hi - lo)
    for s in ds.scans:
        for nd in s.nodules:
            assert nd.upper_lobe == (nd.center[2] >= split)


# ---------------------------------------------------------------------------
# the slab renderer against the whole-volume oracle


def render_nodule_whole(vox, rng, center, semi_axes, core_hu, spiculated, noise_sigma):
    # the reference: one nodule blended into the whole float64 volume
    extent = max(semi_axes) + sd.EDGE_WIDTH_MM / 2.0 + (sd.SPIKE_LENGTH_MM if spiculated else 0.0)
    lo = np.maximum(np.floor(np.subtract(center, extent)).astype(int), 0)
    hi = np.minimum(np.ceil(np.add(center, extent)).astype(int) + 1, vox.shape)
    dx = (np.arange(lo[0], hi[0]) - center[0])[:, None, None]
    dy = (np.arange(lo[1], hi[1]) - center[1])[None, :, None]
    dz = (np.arange(lo[2], hi[2]) - center[2])[None, None, :]
    rho = np.sqrt((dx / semi_axes[0]) ** 2 + (dy / semi_axes[1]) ** 2 + (dz / semi_axes[2]) ** 2)
    r_geo = float(np.cbrt(np.prod(semi_axes)))
    signed_mm = (rho - 1.0) * r_geo
    weight = np.clip(0.5 - signed_mm / sd.EDGE_WIDTH_MM, 0.0, 1.0)
    if spiculated:
        dirs = rng.normal(size=(sd.SPIKE_COUNT, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        norm = np.sqrt(dx ** 2 + dy ** 2 + dz ** 2)
        norm = np.where(norm == 0, 1.0, norm)
        best_cos = np.full(rho.shape, -1.0)
        for d in dirs:
            best_cos = np.maximum(best_cos, (dx * d[0] + dy * d[1] + dz * d[2]) / norm)
        spike = ((best_cos > sd.SPIKE_COS) & (signed_mm > -0.5)
                 & (signed_mm < sd.SPIKE_LENGTH_MM))
        spike_w = np.where(spike, 0.85 * np.clip(1.0 - signed_mm / sd.SPIKE_LENGTH_MM, 0.0, 1.0),
                           0.0)
        weight = np.maximum(weight, spike_w)
    region = vox[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    core = core_hu + rng.normal(0.0, noise_sigma / 4.0, size=region.shape)
    vox[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = region + (core - region) * weight


def oracle_lrvol_bytes(spec, intercept, seed):
    """The LRVOL1 bytes of a scan rendered whole: one normal draw of the
    float64 volume, the gradient, each nodule blended into the volume in
    turn, then the volume rounded and transposed to z-major order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(spec.nodules_per_scan[0], spec.nodules_per_scan[1] + 1))
    diam, spic, upper = sd._draw_nodule_features(rng, spec, n)
    types = rng.choice(len(sd._TYPE_NAMES), size=n, p=sd._TYPE_PROBS)
    centers = sd._place_centers(rng, spec, diam, upper)
    rng.random(n)                                       # malignancy
    vox = rng.normal(sd.BACKGROUND_HU, spec.texture_noise_sigma, size=spec.volume_dims)
    nz = spec.volume_dims[2]
    vox += sd.APICAL_GRADIENT_HU * (np.arange(nz) / max(nz - 1, 1) - 0.5)
    for i in range(n):
        r_long = diam[i] / 2.0
        r_other = r_long * rng.uniform(0.75, 1.0)
        r_z = r_long * rng.uniform(0.75, 1.0)
        semi = (r_long, r_other, r_z) if rng.random() < 0.5 else (r_other, r_long, r_z)
        render_nodule_whole(vox, rng, centers[i], semi, sd._CORE_HU[sd._TYPE_NAMES[types[i]]],
                            bool(spic[i]), spec.texture_noise_sigma)
        rng.normal(0.0, 0.5, size=3)                    # the candidate's jitter,
        rng.normal(0.0, 0.03)                           # radius
        rng.normal(0.0, 0.03)                           # and confidence
    stored = np.clip(np.rint(vox), -32768, 32767).astype("<i2")
    header = fileio._COMPACT_HEADER.pack(fileio.COMPACT_MAGIC, *spec.volume_dims,
                                         1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    return header + stored.transpose(2, 1, 0).tobytes()


def boxes_of(record, dims):
    return [sd._nodule_box(nd.center, nd.diameter_mm / 2.0, nd.spiculation, dims)
            for nd in record.nodules]


def boxes_overlap(boxes):
    return any(np.all(np.minimum(hi_a, hi_b) > np.maximum(lo_a, lo_b))
               for i, (lo_a, hi_a) in enumerate(boxes) for lo_b, hi_b in boxes[:i])


def clipped_spiculated(record, dims):
    # a spiculated nodule whose box reaches past a volume face
    for nd in record.nodules:
        extent = nd.diameter_mm / 2.0 + sd.EDGE_WIDTH_MM / 2.0 + sd.SPIKE_LENGTH_MM
        if nd.spiculation and (np.any(np.floor(np.subtract(nd.center, extent)) < 0)
                               or np.any(np.ceil(np.add(nd.center, extent)) + 1 > dims)):
            return True
    return False


@pytest.mark.parametrize("spec, covers", [
    (sd.PhantomSpec(n_scans=1, prevalence=0.3), None),
    (sd.PhantomSpec(n_scans=1, prevalence=0.3, volume_dims=(40, 40, 40),
                    nodules_per_scan=(10, 10)),
     lambda record, dims: boxes_overlap(boxes_of(record, dims))),
    (sd.PhantomSpec(n_scans=1, prevalence=0.3, volume_dims=(40, 41, 42),
                    nodules_per_scan=(4, 4), size_range_mm=(23.0, 24.5)),
     clipped_spiculated),
], ids=["default-96", "overlapping-boxes", "clipped-spiculated"])
def test_slab_renderer_writes_the_whole_volume_oracle_bytes(spec, covers, tmp_path):
    covered = 0
    for k, seed in enumerate(np.random.SeedSequence(8).spawn(4)):
        record, volume = sd._generate_scan("s", spec, -3.0, seed)
        assert volume.voxels.dtype == np.int16
        fileio.write_volume_compact(volume, tmp_path / f"{k}.lrvol")
        assert (tmp_path / f"{k}.lrvol").read_bytes() == oracle_lrvol_bytes(spec, -3.0, seed)
        covered += covers is None or covers(record, np.asarray(spec.volume_dims))
    assert covered >= 1


def test_rendering_and_writing_a_scan_holds_no_float64_volume(tmp_path):
    # a 96^3 float64 volume alone is 7.1 MB
    spec = sd.PhantomSpec(n_scans=1, prevalence=0.3)
    for k, seed in enumerate(np.random.SeedSequence(8).spawn(4)):
        tracemalloc.start()
        try:
            _, volume = sd._generate_scan("s", spec, -3.0, seed)
            fileio.write_volume_compact(volume, tmp_path / f"{k}.lrvol")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, (k, peak)


# ---------------------------------------------------------------------------
# pancan feature export


def test_export_row_count_matches_nodules(tmp_path):
    ds = sd.generate(sd.PhantomSpec(n_scans=12, prevalence=0.3, seed=11))
    path = tmp_path / "features.csv"
    rows = sd.export_pancan_features(ds, path)
    total = sum(len(s.nodules) for s in ds.scans)
    assert len(rows) == total
    back = pancan.read_features_csv(path)
    assert sum(len(v) for v in back.values()) == total


def test_export_nodule_count_equals_candidate_count(tmp_path):
    ds = sd.generate(sd.PhantomSpec(n_scans=10, prevalence=0.3, seed=12))
    path = tmp_path / "features.csv"
    sd.export_pancan_features(ds, path)
    back = pancan.read_features_csv(path)
    for s in ds.scans:
        for f in back[s.scan_id]:
            assert f.nodule_count == len(s.candidates)


def _crossing(line, start, threshold, direction):
    i = start
    while 0 < i < len(line) - 1:
        j = i + direction
        if line[j] < threshold:
            frac = (line[i] - threshold) / (line[i] - line[j])
            return abs(i - start) + frac
        i = j
    return abs(i - start)


def test_exported_diameter_matches_rendered_extent(tmp_path):
    # subvoxel threshold-crossing measurement of the in-slice long axis,
    # on spiculation-free nodules (spikes sit on top of the ellipsoid), in
    # the written LRVOL1 volumes
    ds = sd.generate(sd.PhantomSpec(n_scans=25, prevalence=0.2, seed=13), out_dir=tmp_path)
    measured = 0
    for s in ds.scans:
        vol = read_volume_compact(tmp_path / "volumes" / f"{s.scan_id}.lrvol").voxels
        for nd in s.nodules:
            if nd.spiculation:
                continue
            cx, cy, cz = (int(round(c)) for c in nd.center)
            thr = (sd._CORE_HU[nd.nodule_type] + sd.BACKGROUND_HU) / 2.0
            line_x = vol[:, cy, cz]
            line_y = vol[cx, :, cz]
            ext_x = _crossing(line_x, cx, thr, +1) + _crossing(line_x, cx, thr, -1)
            ext_y = _crossing(line_y, cy, thr, +1) + _crossing(line_y, cy, thr, -1)
            assert abs(max(ext_x, ext_y) - nd.diameter_mm) <= 1.0
            measured += 1
    assert measured >= 10
