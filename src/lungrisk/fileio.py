"""On-disk formats: volume files, CSV tables and `key=value` files, each
shape of text read by one reader (`read_table`, `read_key_values`).

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
import math
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
_BLOCK_VOXELS = 1 << 15     # voxels per block of a streamed volume write (256 kB as float64)


def read_key_values(path, parse, kind: str, error: type[Exception]) -> dict:
    """{key: parse(key, value)} of a text file's `key=value` lines, skipping blank
    and `#` lines. A line without `=`, a repeated key, or a ValueError or TypeError
    from `parse` raises `error` as `path:line: <kind> 'key' ...` (kind: "config key")."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise error(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in values:
            raise error(f"{path}:{lineno}: {kind} {key!r} is repeated")
        try:
            values[key] = parse(key, value.strip())
        except (TypeError, ValueError) as exc:
            raise error(f"{path}:{lineno}: {kind} {key!r}: {exc}") from None
    return values


def read_volume_pair(header_path) -> Volume:
    """The volume of a header + raw pair. MET_SHORT voxels stay int16, as
    stored; MET_FLOAT and MET_DOUBLE voxels become float64 (see `Volume`)."""
    header_path = Path(header_path)
    fields = read_key_values(header_path, lambda _, value: value, "volume header key", FormatError)
    missing = [key for key in ("NDims", "DimSize", "ElementSpacing", "Offset", "ElementType",
                               "ElementDataFile") if key not in fields]
    if missing:
        raise FormatError(f"volume header {header_path} lacks keys {missing}")

    def numbers(key, kind, count=3):
        try:
            values = tuple(kind(x) for x in fields[key].split())
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
    element_type, data_file = fields["ElementType"], fields["ElementDataFile"]
    if element_type not in _ELEMENT_TYPES:
        raise FormatError(f"unsupported element type {element_type!r} in {header_path}")
    if "\0" in data_file:
        raise FormatError(f"ElementDataFile in {header_path} holds a NUL character")
    dtype, data_path = _ELEMENT_TYPES[element_type], header_path.parent / data_file
    count = math.prod(dims)     # in Python ints, which do not wrap
    # checked before the read, which stops at `count`: a header cannot make
    # it read more than its DimSize names
    size_ok = os.path.getsize(data_path) == count * dtype.itemsize
    raw = np.fromfile(data_path, dtype=dtype, count=count) if size_ok else None
    if raw is None or raw.size != count:
        raise FormatError(f"raw file size does not match DimSize in {header_path}")
    return Volume(raw.reshape(dims[2], dims[1], dims[0]).transpose(2, 1, 0), spacing, origin)


def write_volume_compact(v: Volume, path):
    """Single-file container with int16 HU voxels, written whole or not at
    all (see `whole_file`). The file's z-major order is streamed in blocks of
    about `_BLOCK_VOXELS` voxels: int16 voxels go out as stored, any others
    are rounded a block at a time by `_rounded_hu`, so no copy of the whole
    volume is made."""
    header = _COMPACT_HEADER.pack(COMPACT_MAGIC, *v.dims, *v.spacing, *v.origin)
    nx, ny, nz = v.dims
    step = max(1, _BLOCK_VOXELS // (nx * ny))
    with whole_file(path, binary=True) as fh:
        fh.write(header)
        for z0 in range(0, nz, step):
            block = v.voxels[:, :, z0:z0 + step]
            if block.dtype != np.int16:
                block = _rounded_hu(block)
            fh.write(np.ascontiguousarray(block.transpose(2, 1, 0), dtype="<i2"))


def _rounded_hu(voxels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Voxels rounded half to even and clipped to the int16 range, as int16,
    into `out` when given. A NaN or infinite voxel raises NumericError, as
    int16 has no value for it. Makes one float64 copy of `voxels`, so callers
    pass a volume a block at a time."""
    if not np.isfinite(voxels).all():
        raise NumericError("a volume voxel is not finite; int16 HU cannot hold it")
    scratch = np.rint(voxels)
    np.clip(scratch, -32768, 32767, out=scratch)
    if out is None:
        return scratch.astype("<i2")
    out[...] = scratch
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


def read_table(path, kind: str, columns, parse_row):
    """Yield `parse_row(row)` for each row of the `kind` ("label") CSV table at
    `path`, a dict of cells where a missing cell reads "". A header without all of
    `columns`, a ValueError or TypeError from `parse_row` or a csv.Error is a FormatError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        try:
            missing = [c for c in columns if c not in (reader.fieldnames or [])]
            if missing:
                raise FormatError(f"{kind} file {path} lacks columns {missing}")
            for row in reader:
                try:
                    item = parse_row(row)
                except (TypeError, ValueError) as exc:
                    raise FormatError(f"{path}:{reader.line_num}: bad {kind} row: {exc}") from None
                yield item
        except csv.Error as exc:        # a cell over the field size limit
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from None


def _by_scan(path, rows) -> dict:
    """{scan_id: value} of the rows; a repeated scan_id is a DataConsistencyError."""
    out = {}
    for scan_id, value in rows:
        if scan_id in out:
            raise DataConsistencyError(f"duplicate scan_id {scan_id!r} in {path}")
        out[scan_id] = value
    return out


def _candidate_row(row) -> tuple[str, NoduleCandidate]:
    sph, lr = row.get("sphericity"), row.get("lungrads")
    return row["scan_id"], NoduleCandidate(
        center=(float(row["x_mm"]), float(row["y_mm"]), float(row["z_mm"])),
        radius_mm=float(row["radius_mm"]), confidence=float(row["confidence"]),
        sphericity=float(sph) if sph else None, lungrads_category=int(lr) if lr else None)


def read_candidates_csv(path) -> dict[str, list[NoduleCandidate]]:
    out: dict[str, list[NoduleCandidate]] = {}
    for scan_id, cand in read_table(path, "candidate", CANDIDATE_BASE_COLUMNS, _candidate_row):
        out.setdefault(scan_id, []).append(cand)
    return out


def write_labels_csv(path, labels: dict[str, int]):
    write_csv(path, ["scan_id", "label"], ([sid, int(labels[sid])] for sid in sorted(labels)))


def _label_row(row) -> tuple[str, int]:
    label = int(row["label"])
    if label not in (0, 1):
        raise ValueError(f"label for {row['scan_id']!r} must be 0 or 1, got {label}")
    return row["scan_id"], label


def read_labels_csv(path) -> dict[str, int]:
    return _by_scan(path, read_table(path, "label", ["scan_id", "label"], _label_row))


@contextlib.contextmanager
def whole_file(path, binary: bool = False):
    """A text handle (a binary one if `binary`) on the sibling
    `<path>.partial-<pid>`, which replaces `path` when the block ends; if the
    block raises, it is removed instead. Readers see the old file or the
    whole new one, never a part."""
    partial = Path(f"{path}.partial-{os.getpid()}")
    try:
        with open(partial, "wb") if binary else open(partial, "w", newline="") as fh:
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
    def score_row(row):
        score = float(row["score"])
        if not np.isfinite(score):
            raise NumericError(f"score for {row['scan_id']!r} in {path} is not finite: "
                               f"{row['score']!r}")
        return row["scan_id"], score

    return _by_scan(path, read_table(path, "score", ["scan_id", "score"], score_row))
