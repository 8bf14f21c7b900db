import re
import tracemalloc

import numpy as np
import pytest

from lungrisk import fileio
from lungrisk.errors import DataConsistencyError, FormatError, NumericError
from lungrisk.preprocess import NoduleCandidate, Volume
from writers import write_volume_pair


def sample_volume():
    rng = np.random.default_rng(0)
    vox = np.rint(rng.normal(-700, 150, size=(6, 5, 4)))
    return Volume(vox, (0.7, 0.7, 1.25), (-3.0, 4.0, 11.5))


def test_volume_pair_round_trip_short(tmp_path):
    v = sample_volume()
    header = tmp_path / "scan.mhd"
    write_volume_pair(v, header)
    back = fileio.read_volume_pair(header)
    np.testing.assert_array_equal(back.voxels, v.voxels)
    assert back.spacing == v.spacing
    assert back.origin == v.origin


def test_volume_pair_round_trip_double(tmp_path):
    v = Volume(np.random.default_rng(1).normal(size=(3, 3, 3)), (1, 1, 1), (0, 0, 0))
    header = tmp_path / "scan.mhd"
    write_volume_pair(v, header, element_type="MET_DOUBLE")
    back = fileio.read_volume_pair(header)
    np.testing.assert_array_equal(back.voxels, v.voxels)


def test_volume_pair_missing_key(tmp_path):
    header = tmp_path / "bad.mhd"
    header.write_text("NDims = 3\nDimSize = 2 2 2\n")
    with pytest.raises(FormatError):
        fileio.read_volume_pair(header)


def test_volume_pair_repeated_key_names_it_and_its_line(tmp_path):
    v = sample_volume()
    header = tmp_path / "scan.mhd"
    write_volume_pair(v, header)
    (tmp_path / "other.raw").write_bytes(header.with_suffix(".raw").read_bytes())
    header.write_text(header.read_text() + "ElementDataFile = other.raw\n")
    with pytest.raises(FormatError, match=re.escape(f"{header}:7: volume header key "
                                                    "'ElementDataFile' is repeated")):
        fileio.read_volume_pair(header)


def test_volume_pair_line_without_equals_names_its_line(tmp_path):
    header = tmp_path / "scan.mhd"
    write_volume_pair(sample_volume(), header)
    header.write_text("# a comment\n\n" + header.read_text() + "BinaryData True\n")
    with pytest.raises(FormatError, match=re.escape(f"{header}:9: expected key=value, got "
                                                    "'BinaryData True'")):
        fileio.read_volume_pair(header)


def test_volume_pair_size_mismatch(tmp_path):
    v = sample_volume()
    header = tmp_path / "scan.mhd"
    raw = write_volume_pair(v, header)
    raw.write_bytes(raw.read_bytes()[:-2])
    with pytest.raises(FormatError):
        fileio.read_volume_pair(header)


def test_volume_pair_size_is_checked_before_the_raw_file_is_read(tmp_path):
    header = tmp_path / "scan.mhd"
    raw = write_volume_pair(Volume(np.zeros((2, 2, 2)), (1, 1, 1), (0, 0, 0)), header)
    with open(raw, "r+b") as fh:
        fh.truncate(64 << 20)       # sparse: takes no disk space
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="raw file size does not match DimSize"):
            fileio.read_volume_pair(header)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_compact_round_trip(tmp_path):
    v = sample_volume()
    path = tmp_path / "scan.lrvol"
    fileio.write_volume_compact(v, path)
    back = fileio.read_volume_compact(path)
    np.testing.assert_array_equal(back.voxels, v.voxels)
    assert back.spacing == v.spacing
    assert back.origin == v.origin


def test_compact_bad_magic(tmp_path):
    v = sample_volume()
    path = tmp_path / "scan.lrvol"
    fileio.write_volume_compact(v, path)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        fileio.read_volume_compact(path)


def test_compact_truncated(tmp_path):
    v = sample_volume()
    path = tmp_path / "scan.lrvol"
    fileio.write_volume_compact(v, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError):
        fileio.read_volume_compact(path)


def write_short(v, path, writer):
    if writer == "compact":
        fileio.write_volume_compact(v, path)
        return fileio.read_volume_compact(path).voxels
    write_volume_pair(v, path.with_suffix(".mhd"))
    return fileio.read_volume_pair(path.with_suffix(".mhd")).voxels


@pytest.mark.parametrize("writer", ["compact", "pair"])
def test_short_writers_round_half_to_even_and_clip_to_int16(writer, tmp_path):
    vox = np.array([-40000.0, 40000.0, 2.5, -2.5, 3.5, 0.49, -700.6, 32767.4]).reshape(2, 2, 2)
    back = write_short(Volume(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), tmp_path / "v", writer)
    np.testing.assert_array_equal(back.ravel(), [-32768, 32767, 2, -2, 4, 0, -701, 32767])


@pytest.mark.parametrize("writer", ["compact", "pair"])
def test_short_writers_allocate_at_most_one_float64_copy(writer, tmp_path):
    v = Volume(np.random.default_rng(2).normal(-300, 600, size=(48, 40, 32)),
               (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if writer == "compact":
            fileio.write_volume_compact(v, tmp_path / "v.lrvol")
        else:
            write_volume_pair(v, tmp_path / "v.mhd")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= v.voxels.nbytes, peak


@pytest.mark.parametrize("writer", ["compact", "pair"])
def test_short_reads_keep_int16_voxels_and_rewrite_the_same_bytes(writer, tmp_path):
    if writer == "compact":
        write, read, names = fileio.write_volume_compact, fileio.read_volume_compact, ["v.lrvol"]
    else:
        write, read, names = write_volume_pair, fileio.read_volume_pair, ["v.mhd", "v.raw"]
    v = sample_volume()
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    write(v, first / names[0])
    back = read(first / names[0])
    assert back.voxels.dtype == np.int16
    np.testing.assert_array_equal(back.voxels, v.voxels)
    write(back, second / names[0])
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_a_volume_write_that_fails_leaves_the_old_file_and_no_partial_file(tmp_path, monkeypatch):
    out = tmp_path / "v.lrvol"
    vox = np.random.default_rng(4).normal(-700, 150, size=(40, 40, 100))
    fileio.write_volume_compact(Volume(vox, (1, 1, 1), (0, 0, 0)), out)
    before = out.read_bytes()
    vox[7, 3, 90] = np.nan          # in one of the last streamed z-blocks
    during = []
    rounded_hu = fileio._rounded_hu

    def listed(*args, **kwargs):
        during.append(sorted(p.name for p in tmp_path.iterdir()))
        return rounded_hu(*args, **kwargs)

    monkeypatch.setattr(fileio, "_rounded_hu", listed)
    with pytest.raises(NumericError, match="not finite"):
        fileio.write_volume_compact(Volume(vox, (1, 1, 1), (0, 0, 0)), out)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["v.lrvol"]
    # the failing block came after others had gone to a sibling partial file
    assert len(during) > 1
    assert during[-1][0] == "v.lrvol" and during[-1][1].startswith("v.lrvol.partial-")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rounding_rejects_a_non_finite_voxel(bad):
    vox = np.zeros((3, 2, 2))
    vox[2, 1, 0] = bad
    with pytest.raises(NumericError, match="not finite"):
        fileio._rounded_hu(vox)


def test_met_float_reads_are_float64(tmp_path):
    v = Volume(np.random.default_rng(3).normal(-300, 600, size=(5, 4, 3)), (1, 1, 1), (0, 0, 0))
    write_volume_pair(v, tmp_path / "v.mhd", element_type="MET_FLOAT")
    back = fileio.read_volume_pair(tmp_path / "v.mhd")
    assert back.voxels.dtype == np.float64
    np.testing.assert_array_equal(back.voxels, v.voxels.astype(np.float32))


def test_candidates_csv_round_trip(tmp_path):
    rows = {
        "scan_b": [NoduleCandidate((1.5, -2.25, 3.0), 4.5, 0.75, sphericity=0.9, lungrads_category=3)],
        "scan_a": [NoduleCandidate((0.0, 1.0, 2.0), 2.0, 0.5, sphericity=0.8, lungrads_category=2),
                   NoduleCandidate((5.0, 6.0, 7.0), 8.0, 0.9, sphericity=0.7, lungrads_category=4)],
    }
    path = tmp_path / "candidates.csv"
    fileio.write_candidates_csv(path, rows)
    back = fileio.read_candidates_csv(path)
    assert back == rows


def test_candidates_csv_optional_columns_absent(tmp_path):
    path = tmp_path / "candidates.csv"
    path.write_text("scan_id,x_mm,y_mm,z_mm,radius_mm,confidence\ns,1.0,2.0,3.0,4.0,0.5\n")
    back = fileio.read_candidates_csv(path)
    assert back == {"s": [NoduleCandidate((1.0, 2.0, 3.0), 4.0, 0.5)]}
    assert back["s"][0].sphericity is None
    assert back["s"][0].lungrads_category is None


def test_candidates_csv_missing_column(tmp_path):
    path = tmp_path / "candidates.csv"
    path.write_text("scan_id,x_mm,y_mm,z_mm,radius_mm\ns,0,0,0,1\n")
    with pytest.raises(FormatError):
        fileio.read_candidates_csv(path)


def test_labels_csv_round_trip(tmp_path):
    labels = {"a": 1, "b": 0, "c": 1}
    path = tmp_path / "labels.csv"
    fileio.write_labels_csv(path, labels)
    assert fileio.read_labels_csv(path) == labels


def test_labels_csv_duplicate_rejected(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("scan_id,label\na,1\na,0\n")
    with pytest.raises(DataConsistencyError):
        fileio.read_labels_csv(path)


def test_labels_csv_bad_value(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("scan_id,label\na,2\n")
    with pytest.raises(FormatError):
        fileio.read_labels_csv(path)


def test_scores_csv_round_trip(tmp_path):
    scores = {"a": 0.123456789012345, "b": 1.0 / 3.0}
    path = tmp_path / "scores.csv"
    fileio.write_scores_csv(path, scores)
    back = fileio.read_scores_csv(path)
    assert back == scores  # repr round-trips float64 exactly


def test_a_scores_write_that_fails_leaves_the_old_file_and_no_partial_file(tmp_path):
    out = tmp_path / "scores.csv"
    fileio.write_scores_csv(out, {"a": 0.25})
    before = out.read_bytes()
    during = []

    class DiskFull:
        # the second row's score: the header and the first row are written by now
        def __float__(self):
            during.append((out.read_bytes(), sorted(p.name for p in tmp_path.iterdir())))
            raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space"):
        fileio.write_scores_csv(out, {"a": 0.5, "b": DiskFull()})
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]
    # the rows went to a sibling partial file, not into the old one
    (old, names), = during
    assert old == before and names[0] == "scores.csv"
    assert len(names) == 2 and names[1].startswith("scores.csv.partial-")

    fileio.write_scores_csv(out, {"a": 0.5})
    assert out.read_bytes() == b"scan_id,score\r\na,0.5\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]
