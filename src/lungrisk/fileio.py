"""On-disk formats: volume files, candidate/label/score CSVs.

Two volume containers are supported:

* a MetaImage-style pair: a text header next to a raw little-endian voxel
  file (x varies fastest on disk, matching the usual .mhd/.raw layout);
* a compact single file with a fixed 72-byte binary header (magic
  ``LRVOL1``, dims as three int32, spacing and origin as float64 triples)
  followed by voxels as little-endian int16 Hounsfield units.

Both are read; only the compact one is written.
"""

from __future__ import annotations

import contextlib
import csv
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataConsistencyError, FormatError, NumericError
from .preprocess import NoduleCandidate, Volume

_ELEMENT_TYPES = {
    "MET_SHORT": np.dtype("<i2"),
    "MET_FLOAT": np.dtype("<f4"),
    "MET_DOUBLE": np.dtype("<f8"),
}

COMPACT_MAGIC = b"LRVOL1\x00\x00"
_COMPACT_HEADER = struct.Struct("<8s3i6d4x")  # 72 bytes


def read_volume_pair(header_path) -> Volume:
    """The volume of a header + raw pair. MET_SHORT voxels stay int16, as
    stored; MET_FLOAT and MET_DOUBLE voxels become float64 (see `Volume`)."""
    header_path = Path(header_path)
    fields = {}
    for lineno, line in enumerate(header_path.read_text().splitlines(), start=1):
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise FormatError(f"{header_path}:{lineno}: volume header key {key!r} is repeated")
        fields[key] = value.strip()

    def field(key):
        if key not in fields:
            raise FormatError(f"volume header {header_path} lacks key {key!r}")
        return fields[key]

    def numbers(key, kind, count=3):
        try:
            values = tuple(kind(x) for x in field(key).split())
        except ValueError:
            values = ()
        if len(values) != count:
            raise FormatError(f"{key} in {header_path} must be {count} number(s), "
                              f"got {fields[key]!r}")
        return values

    if numbers("NDims", int, 1) != (3,):
        raise FormatError(f"expected NDims = 3 in {header_path}")
    dims = numbers("DimSize", int)
    if min(dims) < 0:
        raise FormatError(f"DimSize in {header_path} has a negative dimension {dims}")
    spacing = numbers("ElementSpacing", float)
    origin = numbers("Offset", float)
    element_type = field("ElementType")
    data_file = field("ElementDataFile")
    if element_type not in _ELEMENT_TYPES:
        raise FormatError(f"unsupported element type {element_type!r} in {header_path}")
    dtype = _ELEMENT_TYPES[element_type]
    raw = np.fromfile(header_path.parent / data_file, dtype=dtype)
    if raw.size != int(np.prod(dims)):
        raise FormatError(f"raw file size does not match DimSize in {header_path}")
    return Volume(raw.reshape(dims[2], dims[1], dims[0]).transpose(2, 1, 0), spacing, origin)


def write_volume_compact(v: Volume, path):
    """Single-file container with int16 HU voxels."""
    path = Path(path)
    header = _COMPACT_HEADER.pack(COMPACT_MAGIC, *v.dims, *v.spacing, *v.origin)
    vox = _rounded_hu(v.voxels)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vox.transpose(2, 1, 0).tobytes())


def _rounded_hu(voxels: np.ndarray) -> np.ndarray:
    """Voxels rounded to the nearest integer and clipped to the int16 range,
    as int16. Rounds one x-plane at a time into a float64 scratch plane, so
    no float64 copy of the volume is made."""
    out = np.empty(voxels.shape, dtype="<i2")
    scratch = np.empty(voxels.shape[1:])
    for x, plane in enumerate(voxels):
        np.rint(plane, out=scratch)
        np.clip(scratch, -32768, 32767, out=scratch)
        out[x] = scratch
    return out


def read_volume_compact(path) -> Volume:
    """The volume with its int16 voxels as stored: a read-only (x,y,z) view
    of the file's bytes, with no float64 copy."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _COMPACT_HEADER.size:
        raise FormatError(f"{path} is too short to hold a volume header")
    magic, nx, ny, nz, sx, sy, sz, ox, oy, oz = _COMPACT_HEADER.unpack_from(blob)
    if magic != COMPACT_MAGIC:
        raise FormatError(f"{path} does not carry the LRVOL1 magic")
    if min(nx, ny, nz) < 0:
        raise FormatError(f"{path} has a negative dimension {(nx, ny, nz)}")
    expected = _COMPACT_HEADER.size + 2 * nx * ny * nz
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    vox = np.frombuffer(blob, dtype="<i2", offset=_COMPACT_HEADER.size)
    return Volume(vox.reshape(nz, ny, nx).transpose(2, 1, 0), (sx, sy, sz), (ox, oy, oz))


# ---------------------------------------------------------------------------
# CSV formats

CANDIDATE_BASE_COLUMNS = ["scan_id", "x_mm", "y_mm", "z_mm", "radius_mm", "confidence"]


def write_candidates_csv(path, rows: dict[str, list[NoduleCandidate]]):
    """Write per-scan candidate lists, with the optional sphericity and
    lungrads columns; a candidate without a value leaves its cell empty."""
    write_csv(path, CANDIDATE_BASE_COLUMNS + ["sphericity", "lungrads"], (
        [scan_id, repr(c.center[0]), repr(c.center[1]), repr(c.center[2]), repr(c.radius_mm),
         repr(c.confidence), "" if c.sphericity is None else repr(c.sphericity),
         "" if c.lungrads_category is None else str(c.lungrads_category)]
        for scan_id in sorted(rows) for c in rows[scan_id]))


def read_candidates_csv(path) -> dict[str, list[NoduleCandidate]]:
    out: dict[str, list[NoduleCandidate]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in CANDIDATE_BASE_COLUMNS if c not in header]
        if missing:
            raise FormatError(f"candidate file {path} lacks columns {missing}")
        for row in reader:
            sph = row.get("sphericity") or None
            lr = row.get("lungrads") or None
            try:
                cand = NoduleCandidate(
                    center=(float(row["x_mm"]), float(row["y_mm"]), float(row["z_mm"])),
                    radius_mm=float(row["radius_mm"]),
                    confidence=float(row["confidence"]),
                    sphericity=None if sph is None else float(sph),
                    lungrads_category=None if lr is None else int(lr),
                )
            except (TypeError, ValueError):
                raise FormatError(f"candidate file {path}, line {reader.line_num}: "
                                  f"a field is missing or not a number") from None
            out.setdefault(row["scan_id"], []).append(cand)
    return out


def write_labels_csv(path, labels: dict[str, int]):
    write_csv(path, ["scan_id", "label"], ([sid, int(labels[sid])] for sid in sorted(labels)))


def read_labels_csv(path) -> dict[str, int]:
    out: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"scan_id", "label"} - set(reader.fieldnames):
            raise FormatError(f"label file {path} must carry scan_id,label columns")
        for row in reader:
            try:
                value = int(row["label"])
            except ValueError:
                raise FormatError(f"label for {row['scan_id']!r} in {path} is not an integer: "
                                  f"{row['label']!r}") from None
            if value not in (0, 1):
                raise FormatError(f"label for {row['scan_id']!r} must be 0 or 1, got {value}")
            if row["scan_id"] in out:
                raise DataConsistencyError(f"duplicate scan_id {row['scan_id']!r} in {path}")
            out[row["scan_id"]] = value
    return out


@contextlib.contextmanager
def whole_file(path):
    """A text handle on the sibling `<path>.partial-<pid>`, which replaces
    `path` when the block ends; if the block raises, it is removed instead.
    Readers see the old file or the whole new one, never a part."""
    partial = Path(f"{path}.partial-{os.getpid()}")
    try:
        with open(partial, "w", newline="") as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)     # left only if the block raised


def write_csv(path, header: list[str], rows):
    """Write the header and the rows, whole or not at all (see `whole_file`)."""
    with whole_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_scores_csv(path, scores: dict[str, float]):
    write_csv(path, ["scan_id", "score"],
              ([sid, repr(float(scores[sid]))] for sid in sorted(scores)))


def read_scores_csv(path) -> dict[str, float]:
    out: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"scan_id", "score"} - set(reader.fieldnames):
            raise FormatError(f"score file {path} must carry scan_id,score columns")
        for row in reader:
            if row["scan_id"] in out:
                raise DataConsistencyError(f"duplicate scan_id {row['scan_id']!r} in {path}")
            try:
                value = float(row["score"])
            except ValueError:
                raise FormatError(f"score for {row['scan_id']!r} in {path} is not a number: "
                                  f"{row['score']!r}") from None
            if not np.isfinite(value):
                raise NumericError(f"score for {row['scan_id']!r} in {path} is not finite: "
                                   f"{row['score']!r}")
            out[row["scan_id"]] = value
    return out
