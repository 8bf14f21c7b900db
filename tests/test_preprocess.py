import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungrisk import fileio, preprocess as pp
from lungrisk.errors import ConfigError, DimensionError, FormatError, OutOfBoundsError
from writers import write_volume_pair


def make_volume(dims=(20, 20, 20), spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0), fill=None):
    if fill is None:
        vox = np.random.default_rng(0).normal(-800, 50, size=dims)
    else:
        vox = np.full(dims, float(fill))
    return pp.Volume(vox, spacing, origin)


def resampled(v):
    """Oracle: the whole volume trilinearly resampled onto its 1 mm grid,
    world positions preserved; a volume already on that grid as it is."""
    if v.spacing == (1.0, 1.0, 1.0):
        return v
    return pp.Volume(pp._trilinear_gather(v, (0, 0, 0), pp._grid_dims(v)), (1.0, 1.0, 1.0),
                     v.origin)


def grid_block(block):
    """The slices of a cube that hold the volume's grid rather than air."""
    inside = np.argwhere(block != pp.AIR_HU)
    return tuple(slice(a, b + 1) for a, b in zip(inside.min(axis=0), inside.max(axis=0)))


# ---------------------------------------------------------------------------
# resampling: extract_cube off the 1 mm grid


def test_resample_identity_for_isotropic_input():
    v = make_volume(dims=(40, 40, 40))
    assert np.array_equal(pp.extract_cube(v, center=(20.0, 20.0, 20.0)), v.voxels[4:36, 4:36, 4:36])
    # the same along the 1 mm axes of an anisotropic volume, and at every
    # other point of its 2 mm axis; the points between are the midpoints
    v = make_volume(dims=(40, 20, 40), spacing=(1.0, 2.0, 1.0))
    block = pp.extract_cube(v, center=(20.0, 20.0, 20.0))
    assert block.dtype == np.float64
    assert np.array_equal(block[:, ::2, :], v.voxels[4:36, 2:18, 4:36])
    np.testing.assert_allclose(block[:, 1::2, :],
                               (v.voxels[4:36, 2:18, 4:36] + v.voxels[4:36, 3:19, 4:36]) / 2)


def test_resample_constant_volume_doubles_dims():
    v = make_volume(dims=(5, 6, 7), spacing=(2.0, 2.0, 2.0), fill=100.0)
    block = pp.extract_cube(v, center=(5.0, 6.0, 7.0))      # the whole grid and air around it
    region = grid_block(block)
    assert block[region].shape == (10, 12, 14)
    np.testing.assert_allclose(block[region], 100.0)


def test_resample_ramp_hits_midpoints():
    # values 0,10,20 along z at 2mm spacing -> 1mm samples include 5 and 15
    vox = np.zeros((1, 1, 3))
    vox[0, 0, :] = [0.0, 10.0, 20.0]
    v = pp.Volume(vox, (2.0, 2.0, 2.0), (0.0, 0.0, 0.0))
    block = pp.extract_cube(v, center=(1.0, 1.0, 3.0))
    region = grid_block(block)
    assert block[region].shape == (2, 2, 6)
    line = block[region][0, 0, :]
    np.testing.assert_allclose(line[:5], [0.0, 5.0, 10.0, 15.0, 20.0])


def test_float64_voxels_are_kept_without_a_copy_and_int16_as_stored():
    vox = np.random.default_rng(2).normal(size=(3, 4, 5))
    assert pp.Volume(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)).voxels is vox
    short = np.rint(vox * 100).astype(np.int16)
    assert pp.Volume(short, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)).voxels is short
    assert pp.Volume(short.astype(np.int32), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)).voxels.dtype == np.float64


def _int16_volume(spacing):
    # a nodule-like bright blob on lung-dark noise, as volume files store it
    rng = np.random.default_rng(5)
    grid = np.indices((48, 44, 40)).transpose(1, 2, 3, 0)
    blob = np.exp(-np.sum((grid - (24, 20, 18)) ** 2, axis=-1) / 30.0)
    vox = np.rint(rng.normal(-800, 60, size=(48, 44, 40)) + 900 * blob).astype(np.int16)
    return pp.Volume(vox, spacing, (-5.0, 2.5, 7.0))


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 0.8, 1.25)])
def test_int16_volume_gives_the_bits_of_its_float64_copy(spacing):
    short = _int16_volume(spacing)
    wide = pp.Volume(short.voxels.astype(np.float64), short.spacing, short.origin)
    a, b = resampled(short), resampled(wide)
    assert a.dims == b.dims
    np.testing.assert_array_equal(a.voxels, b.voxels)
    centers = [(12.0, 15.0, 25.5), (0.0, 0.0, 7.0), (30.5, 33.0, 50.0)]
    candidates = [pp.NoduleCandidate(c, 3.0 + i, 0.9) for i, c in enumerate(centers)]
    ex_a = pp.build_scan_example(short, candidates, 1)
    ex_b = pp.build_scan_example(wide, candidates, 1)
    assert len(ex_a.patches) == len(ex_b.patches) == 3
    # on the 1 mm grid the cube keeps the volume's int16, with the float64
    # copy's values; a resampled volume is float64 and so are its cubes
    want = np.int16 if spacing == (1.0, 1.0, 1.0) else np.float64
    for pa, pb, ca, cb in zip(ex_a.patches, ex_b.patches, ex_a.cubes, ex_b.cubes):
        assert ca.dtype == want and cb.dtype == np.float64
        np.testing.assert_array_equal(ca, cb)
        np.testing.assert_array_equal(pa.planes, pb.planes)
        np.testing.assert_array_equal(pa.metadata, pb.metadata)


@pytest.mark.parametrize("stored_as", ["lrvol", "MET_SHORT", "MET_FLOAT"])
def test_cube_dtype_follows_the_volume(stored_as, tmp_path):
    short = _int16_volume((1.0, 1.0, 1.0))
    if stored_as == "lrvol":
        fileio.write_volume_compact(short, tmp_path / "v.lrvol")
        volume = fileio.read_volume_compact(tmp_path / "v.lrvol")
    else:
        write_volume_pair(short, tmp_path / "v.mhd", stored_as)
        volume = fileio.read_volume_pair(tmp_path / "v.mhd")
    want = np.float64 if stored_as == "MET_FLOAT" else np.int16
    # one cube inside the volume, one reaching past its corner into air
    for center in [(19.0, 22.5, 25.0), (-3.0, 4.0, 9.0)]:
        cube = pp.extract_cube(volume, center)
        wide = pp.extract_cube(pp.Volume(short.voxels.astype(np.float64), short.spacing,
                                         short.origin), center)
        assert cube.dtype == want and wide.dtype == np.float64
        np.testing.assert_array_equal(cube, wide)
    assert cube[0, 0, 0] == pp.AIR_HU
    # resampling promotes: cubes off the 1 mm grid are float64 whatever the volume stored
    coarse = pp.Volume(volume.voxels, (1.0, 1.0, 1.5), volume.origin)
    assert pp.extract_cube(coarse, (19.0, 22.5, 25.0)).dtype == np.float64


@pytest.mark.parametrize("spacing", [(0.7, 0.8, 1.25), (1.0, 2.5, 1.0), (3.0, 0.5, 0.9)])
def test_built_cubes_are_those_of_the_resampled_volume_bit_for_bit(spacing):
    v = _int16_volume(spacing)
    iso = resampled(v)
    # inside, past the low corner, past the high corner, one voxel in
    centers = [(12.0, 15.0, 25.5), (-4.0, 0.0, 7.0), (30.5, 33.0, 50.0),
               (iso.dims[0] + 14.6 - 5.0, 2.5 - 15.4, 7.0)]
    candidates = [pp.NoduleCandidate(c, 5.0 - i, 0.9) for i, c in enumerate(centers)]
    ex = pp.build_scan_example(v, candidates, 1)
    assert len(ex.cubes) == 4
    for cube, c in zip(ex.cubes, pp.select_top_nodules(candidates)):
        want = pp.extract_cube(iso, c.center)
        assert cube.dtype == want.dtype == np.float64
        assert cube.tobytes() == want.tobytes()


def test_building_an_example_does_not_resample_the_whole_volume():
    import tracemalloc

    # a 2**40 mm voxel pitch: the 1 mm grid would hold about 10**17 voxels
    v = pp.Volume(_int16_volume((1.0, 1.0, 1.0)).voxels, (2.0 ** 40, 1.0, 1.0), (0.0, 0.0, 0.0))
    tracemalloc.start()
    try:
        ex = pp.build_scan_example(v, [pp.NoduleCandidate((5e12, 20.0, 18.0), 4.0, 0.9)], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ex.cubes[0].dtype == np.float64 and (ex.cubes[0] > pp.AIR_HU).any()
    assert peak < 8 << 20, peak


def test_resample_rejects_bad_spacing():
    with pytest.raises(FormatError):
        pp.Volume(np.zeros((2, 2, 2)), (0.0, 1.0, 1.0), (0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# extract_cube


def test_extract_interior_is_pure_copy():
    v = make_volume(dims=(64, 64, 64))
    block = pp.extract_cube(v, center=(32.0, 32.0, 32.0))
    assert block.shape == (32, 32, 32)
    np.testing.assert_array_equal(block, v.voxels[16:48, 16:48, 16:48])


def test_extract_corner_pads_with_air():
    v = make_volume(dims=(40, 40, 40), fill=100.0)
    block = pp.extract_cube(v, center=(0.0, 20.0, 20.0))
    # half of the x range is outside -> filled with -1000
    assert np.all(block[:16] == -1000.0)
    assert np.all(block[16:] == 100.0)


def test_extract_constant_interior():
    v = make_volume(dims=(64, 64, 64), fill=100.0)
    block = pp.extract_cube(v, center=(30.0, 30.0, 30.0))
    np.testing.assert_allclose(block, 100.0)


def test_extract_fully_outside_raises():
    v = make_volume(dims=(40, 40, 40))
    with pytest.raises(OutOfBoundsError):
        pp.extract_cube(v, center=(100.0, 20.0, 20.0))


def test_a_far_off_cube_is_out_of_bounds_without_a_numeric_warning():
    v = make_volume(dims=(40, 40, 40), origin=(-1e308, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # an overflowing subtraction or cast would warn
        for center in [(1e308, 20.0, 20.0), (-1e300, 20.0, 20.0), (5e18, 20.0, 20.0)]:
            with pytest.raises(OutOfBoundsError):
                pp.extract_cube(v, center)


def test_a_volume_without_a_1mm_grid_is_rejected_with_or_without_nodules():
    v = make_volume(dims=(4, 4, 4), spacing=(0.1, 1.0, 1.0))      # 0.4 mm rounds to no voxel
    for candidates in ([], [pp.NoduleCandidate((0.0, 2.0, 2.0), 3.0, 0.9)]):
        with pytest.raises(FormatError):
            pp.build_scan_example(v, candidates, 1)
    with pytest.raises(FormatError):
        pp.extract_cube(v, (0.0, 2.0, 2.0))


# ---------------------------------------------------------------------------
# crop28


def test_crop_infer_deterministic():
    # the scoring crop: the 28^3 block centred in the cube
    cube = np.random.default_rng(2).normal(size=(32, 32, 32))
    a = pp.crop28(cube, pp.CENTER_OFFSET)
    np.testing.assert_array_equal(a, cube[2:30, 2:30, 2:30])
    assert np.shares_memory(a, cube)


def test_crop_infer_excludes_corner_marker():
    cube = np.zeros((32, 32, 32))
    cube[0, 0, 0] = 12345.0
    out = pp.crop28(cube, pp.CENTER_OFFSET)
    assert not np.any(out == 12345.0)


def test_crop_wrong_shape():
    with pytest.raises(DimensionError):
        pp.crop28(np.zeros((28, 28, 28)), pp.CENTER_OFFSET)


def test_crop_train_offsets_cover_range():
    # every offset a training draw can take, 0 to 4 on each axis, is a full
    # 28^3 window; (4,4,4) is the last one, ending at the cube's far corner
    cube = np.arange(32 ** 3, dtype=float).reshape(32, 32, 32)
    for o in range(5):
        offset = (o, 4 - o, 2)
        np.testing.assert_array_equal(pp.crop28(cube, offset),
                                      cube[o:o + 28, 4 - o:32 - o, 2:30])
    last = pp.crop28(cube, (4, 4, 4))
    assert last.shape == (28, 28, 28) and last[-1, -1, -1] == cube[-1, -1, -1]


# ---------------------------------------------------------------------------
# triplanar


def test_triplanar_constant_cube():
    out = pp.triplanar(np.full((28, 28, 28), 7.0))
    assert out.shape == (3, 28, 28)
    np.testing.assert_allclose(out, 7.0)


def test_triplanar_separable_ramp():
    # cube = f(x): sagittal (fixed x) is constant, other two show the ramp
    x = np.arange(28, dtype=float)
    cube = np.broadcast_to(x[:, None, None], (28, 28, 28)).copy()
    cor, sag, tra = pp.triplanar(cube)
    assert np.ptp(sag) == 0.0
    assert np.ptp(cor) > 0.0 and np.ptp(tra) > 0.0
    np.testing.assert_array_equal(cor[:, 0], x)


def test_triplanar_axis_transpose_permutes_channels():
    cube = np.random.default_rng(4).normal(size=(28, 28, 28))
    cor, sag, tra = pp.triplanar(cube)
    cor2, sag2, tra2 = pp.triplanar(np.ascontiguousarray(cube.transpose(2, 1, 0)))
    # swapping x and z: coronal transposes in place, sagittal <-> transverse
    np.testing.assert_array_equal(cor2, cor.T)
    np.testing.assert_array_equal(sag2, tra.T)
    np.testing.assert_array_equal(tra2, sag.T)


def test_triplanar_mip_flag():
    cube = np.zeros((28, 28, 28))
    cube[5, 6, 7] = 99.0
    cor, sag, tra = pp.triplanar(cube, projection="mip")
    assert cor[5, 7] == 99.0 and sag[6, 7] == 99.0 and tra[5, 6] == 99.0


# ---------------------------------------------------------------------------
# normalize_hu


@pytest.mark.parametrize("hu,expected", [(-1000.0, 0.0), (400.0, 1.0), (-300.0, 0.5), (2000.0, 1.0), (-5000.0, 0.0)])
def test_normalize_hu_values(hu, expected):
    np.testing.assert_allclose(pp.normalize_hu(np.array([hu]))[0], expected)


# ---------------------------------------------------------------------------
# select_top_nodules


def cand(radius, conf=0.5, center=(0.0, 0.0, 0.0)):
    return pp.NoduleCandidate(center=center, radius_mm=radius, confidence=conf)


@pytest.mark.parametrize("field, value", [
    ("center", (np.nan, 1.0, 1.0)), ("center", (1.0, np.inf, 1.0)),
    ("confidence", np.nan), ("sphericity", -np.inf), ("radius_mm", np.nan),
])
def test_candidate_rejects_non_finite_numbers(field, value):
    good = dict(center=(1.0, 2.0, 3.0), radius_mm=4.0, confidence=0.5, sphericity=0.9)
    pp.NoduleCandidate(**good)
    with pytest.raises(FormatError, match=field):
        pp.NoduleCandidate(**{**good, field: value})


def test_select_takes_ten_largest():
    cands = [cand(r) for r in [3, 7, 1, 9, 4, 8, 2, 6, 5, 10, 11, 12]]
    out = pp.select_top_nodules(cands)
    assert [c.radius_mm for c in out] == [12, 11, 10, 9, 8, 7, 6, 5, 4, 3]


def test_select_short_list_passes_through():
    cands = [cand(3), cand(1), cand(2)]
    out = pp.select_top_nodules(cands)
    assert [c.radius_mm for c in out] == [3, 2, 1]


def test_select_tie_breaks_by_confidence():
    a = cand(5.0, conf=0.9, center=(1, 1, 1))
    b = cand(5.0, conf=0.4, center=(0, 0, 0))
    assert pp.select_top_nodules([b, a]) == [a, b]


def test_select_radius_tie_and_confidence_tie_uses_position():
    a = cand(5.0, conf=0.5, center=(0, 0, 1))
    b = cand(5.0, conf=0.5, center=(0, 0, 2))
    assert pp.select_top_nodules([b, a]) == [a, b]


@given(st.lists(st.tuples(st.floats(0.5, 20), st.floats(0, 1)), min_size=0, max_size=25))
@settings(max_examples=50, deadline=None)
def test_select_properties(pairs):
    cands = [cand(r, conf=c, center=(i, 0, 0)) for i, (r, c) in enumerate(pairs)]
    out = pp.select_top_nodules(cands)
    assert len(out) == min(10, len(cands))
    radii = [c.radius_mm for c in out]
    assert radii == sorted(radii, reverse=True)
    assert all(c in cands for c in out)


# ---------------------------------------------------------------------------
# build_scan_example


def volume_with_nodule(center=(30.0, 30.0, 30.0), dims=(64, 64, 64)):
    vox = np.full(dims, -850.0)
    cx, cy, cz = (int(c) for c in center)
    vox[cx - 3:cx + 3, cy - 3:cy + 3, cz - 3:cz + 3] = 50.0
    return pp.Volume(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def test_build_zero_candidates_all_masked():
    v = volume_with_nodule()
    ex = pp.build_scan_example(v, [], label=0)
    assert ex.patches == []
    assert ex.cubes == []


def test_build_single_candidate():
    v = volume_with_nodule()
    c = cand(4.0, conf=0.8, center=(30.0, 30.0, 30.0))
    ex = pp.build_scan_example(v, [c], label=1)
    assert len(ex.patches) == 1
    np.testing.assert_array_equal(ex.patches[0].metadata, [4.0, 30.0, 30.0, 30.0, 0.8])
    assert ex.patches[0].planes.shape == (3, 28, 28)
    assert ex.patches[0].planes.min() >= 0.0 and ex.patches[0].planes.max() <= 1.0
    assert ex.cubes is not None and len(ex.cubes) == 1


def test_build_infer_deterministic_and_needs_stats():
    v = volume_with_nodule()
    c = cand(4.0, center=(30.0, 30.0, 30.0))
    a = pp.build_scan_example(v, [c], 1)
    b = pp.build_scan_example(v, [c], 1)
    np.testing.assert_array_equal(a.patches[0].planes, b.patches[0].planes)
    np.testing.assert_array_equal(a.patches[0].metadata, b.patches[0].metadata)
    np.testing.assert_array_equal(a.cubes[0], b.cubes[0])
    # no statistics: the metadata stays raw, each model standardizes it itself
    np.testing.assert_array_equal(a.patches[0].metadata, pp.candidate_metadata(c, 5))


@pytest.mark.parametrize("projection", ["slice", "mip"])
def test_build_planes_are_the_center_crop_of_the_kept_cubes(projection):
    v = volume_with_nodule()
    cands = [cand(4.0, center=(30.0, 30.0, 30.0)), cand(3.0, center=(20.0, 33.0, 41.0))]
    ex = pp.build_scan_example(v, cands, 1, projection=projection)
    assert len(ex.cubes) == len(ex.patches) == 2
    for patch, cube, c in zip(ex.patches, ex.cubes, pp.select_top_nodules(cands)):
        np.testing.assert_array_equal(cube, pp.extract_cube(v, c.center))
        np.testing.assert_array_equal(
            patch.planes,
            pp.normalize_hu(pp.triplanar(pp.crop28(cube, pp.CENTER_OFFSET), projection)))


def test_build_output_shape_invariant_to_candidate_count():
    v = volume_with_nodule()
    for n in (0, 1, 3, 12):
        cands = [cand(4.0 + i, center=(30.0, 30.0, 30.0)) for i in range(n)]
        ex = pp.build_scan_example(v, cands, 0)
        assert len(ex.patches) <= 10
        assert all(p.planes.shape == (3, 28, 28) for p in ex.patches)
        assert all(p.metadata.shape == (5,) for p in ex.patches)


def test_build_keeps_the_top_candidates_only():
    v = volume_with_nodule()
    for n in (0, 1, 9, 10, 11, 15):
        cands = [cand(2.0 + 0.5 * i, center=(30.0, 30.0, 30.0)) for i in range(n)]
        ex = pp.build_scan_example(v, cands, 1)
        assert len(ex.patches) == min(n, 10)
        radii = [p.metadata[0] for p in ex.patches]
        assert radii == [c.radius_mm for c in pp.select_top_nodules(cands)]
        assert len(ex.cubes) == len(ex.patches)


def blank_patches(n):
    return [pp.NodulePatch(planes=np.zeros((3, 28, 28)), metadata=np.zeros(5))
            for _ in range(n)]


def test_scan_example_holds_zero_to_ten_patches():
    for n in (0, 1, 10):
        assert len(pp.ScanExample(scan_id="s", patches=blank_patches(n), label=0).patches) == n
    with pytest.raises(DimensionError):
        pp.ScanExample(scan_id="s", patches=blank_patches(11), label=0)


def test_metadata_standardization_round_trip():
    v = volume_with_nodule()
    cands = [cand(4.0, conf=0.2, center=(30.0, 30.0, 30.0)),
             cand(6.0, conf=0.9, center=(32.0, 30.0, 28.0))]
    ex = pp.build_scan_example(v, cands, 1)
    stats = pp.metadata_stats_from_examples([ex])
    raw = np.stack([p.metadata for p in ex.patches])
    rows = stats.standardize(raw)
    np.testing.assert_allclose(rows.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(rows * stats.std + stats.mean, raw, atol=1e-12)


def test_metadata_dim6_requires_sphericity():
    v = volume_with_nodule()
    c = cand(4.0, center=(30.0, 30.0, 30.0))
    with pytest.raises(ConfigError):
        pp.build_scan_example(v, [c], 1, metadata_dim=6)
