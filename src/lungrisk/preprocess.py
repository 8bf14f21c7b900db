"""CT volume to network input: resample, extract, crop, project, normalize.

World coordinates are millimetres; voxel arrays use (x, y, z) axis order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, OutOfBoundsError

AIR_HU = -1000.0
HU_WINDOW = (-1000.0, 400.0)
CUBE_SIDE = 32
CROP_SIDE = 28
MAX_NODULES = 10
CENTER_OFFSET = (2, 2, 2)       # the crop of every scored patch, centred in its cube


@dataclass
class Volume:
    """A 3-D grid of Hounsfield units with physical spacing and origin.

    int16 voxels, as volume files store them, are kept as they are; any
    other voxels become float64. A cube resampled off the 1 mm grid is
    float64, and one cut from an int16 volume on it stays int16 until
    `normalize_hu` promotes its crop; both promotions are exact.
    """

    voxels: np.ndarray                      # (nx, ny, nz) int16 or float64
    spacing: tuple[float, float, float]     # mm per voxel
    origin: tuple[float, float, float]      # world mm of voxel (0,0,0)

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels)
        if self.voxels.dtype != np.int16:
            self.voxels = self.voxels.astype(np.float64, copy=False)
        if self.voxels.ndim != 3 or min(self.voxels.shape) < 1:
            raise FormatError(f"volume must be 3-D with positive dims, got {self.voxels.shape}")
        self.spacing = tuple(float(s) for s in self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        if not np.isfinite(self.spacing + self.origin).all():
            raise FormatError(f"spacing and origin must be finite, "
                              f"got {self.spacing} and {self.origin}")
        if any(s <= 0 for s in self.spacing):
            raise FormatError(f"spacing must be strictly positive, got {self.spacing}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape


@dataclass(frozen=True)
class NoduleCandidate:
    """One detector output row."""

    center: tuple[float, float, float]      # world mm
    radius_mm: float
    confidence: float
    sphericity: float | None = None
    lungrads_category: int | None = None

    def __post_init__(self):
        if not self.radius_mm > 0:
            raise FormatError(f"radius_mm must be positive, got {self.radius_mm}")
        if not np.isfinite(self.center).all():
            raise FormatError(f"center must be finite, got {tuple(map(float, self.center))}")
        if not np.isfinite(self.confidence):
            raise FormatError("confidence must be finite")
        if self.sphericity is not None and not np.isfinite(self.sphericity):
            raise FormatError("sphericity must be finite")
        if self.lungrads_category is not None and self.lungrads_category not in (2, 3, 4):
            raise FormatError(f"lungrads category must be 2, 3 or 4, got {self.lungrads_category}")


@dataclass
class NodulePatch:
    """One nodule: the 32^3 block around it, in the dtype `extract_cube`
    gives, plus raw metadata. The network's planes are cut from the cube
    only where they are read (`nnet._gather_batch`): at a random offset in
    training, at `CENTER_OFFSET` when scoring."""

    cube: np.ndarray         # (32, 32, 32) HU, int16 or float64
    metadata: np.ndarray     # (radius, x, y, z, confidence[, sphericity])


@dataclass
class ScanExample:
    """A scan's nodule patches (0 to 10, largest first) plus its label.

    The patches hold raw metadata; each model standardizes it with its own
    training-set statistics.
    """

    scan_id: str
    patches: list[NodulePatch]
    label: int

    def __post_init__(self):
        if len(self.patches) > MAX_NODULES:
            raise DimensionError(f"a ScanExample holds at most {MAX_NODULES} patches")
        if self.label not in (0, 1):
            raise FormatError(f"label must be 0 or 1, got {self.label}")


@dataclass
class MetadataStats:
    """Per-feature mean/std of raw nodule metadata over a training set."""

    mean: np.ndarray
    std: np.ndarray

    def standardize(self, metadata: np.ndarray) -> np.ndarray:
        return (metadata - self.mean) / self.std


# ---------------------------------------------------------------------------
# operations


def _grid_dims(v: Volume) -> tuple[int, int, int]:
    """The dims of the volume's 1 mm grid; FormatError if it is empty or
    larger than an index can address."""
    dims = tuple(int(np.floor(n * s + 0.5)) for n, s in zip(v.dims, v.spacing))
    if not 1 <= min(dims) <= max(dims) <= np.iinfo(np.intp).max:
        raise FormatError(f"a volume of {v.dims} voxels at spacing {v.spacing} has no 1 mm grid")
    return dims


def _trilinear_gather(v: Volume, lo, hi):
    # Separable trilinear interpolation of the points lo to hi (exclusive)
    # of the volume's 1 mm grid, clamped at the volume faces. Each gathered
    # corner is promoted to float64 by its weight product.
    vox, coords = v.voxels, [np.arange(a, b, dtype=np.float64) / s
                             for a, b, s in zip(lo, hi, v.spacing)]
    lows, fracs = [], []
    for axis, c in enumerate(coords):
        c = np.clip(c, 0.0, vox.shape[axis] - 1.0)
        lo = np.floor(c).astype(np.intp)
        lo = np.minimum(lo, vox.shape[axis] - 1)
        hi_exists = lo < vox.shape[axis] - 1
        lows.append((lo, np.where(hi_exists, lo + 1, lo)))
        fracs.append(c - lo)
    out = np.zeros(tuple(len(c) for c in coords))
    fx = fracs[0][:, None, None]
    fy = fracs[1][None, :, None]
    fz = fracs[2][None, None, :]
    for dx, wx in ((0, 1.0 - fx), (1, fx)):
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            for dz, wz in ((0, 1.0 - fz), (1, fz)):
                ix = lows[0][dx]
                iy = lows[1][dy]
                iz = lows[2][dz]
                out += wx * wy * wz * vox[np.ix_(ix, iy, iz)]
    return out


def extract_cube(v: Volume, center) -> np.ndarray:
    """Cut a 32^3 block of the volume's 1 mm grid around `center`, at any
    spacing; outside the volume it fills with air.

    Only the block is resampled (trilinear, world positions preserved), so
    its cost grows with neither the volume nor its spacing. On the 1 mm grid
    the block keeps the volume's dtype: int16 voxels, as stored, give an
    int16 cube of the same integers at a quarter of float64's size. Any
    other spacing gives a float64 cube. `normalize_hu` promotes a crop
    exactly. Raises OutOfBoundsError when the block misses the volume entirely.
    """
    dims = _grid_dims(v)
    with np.errstate(over="ignore"):    # a far-off center lies outside, as an inf does
        start = np.floor(np.asarray(center, dtype=np.float64) - v.origin + 0.5) - CUBE_SIDE // 2
    if np.any(start + CUBE_SIDE <= 0) or np.any(start >= dims):
        raise OutOfBoundsError(
            f"cube around {tuple(float(c) for c in center)} lies outside the volume")
    start = start.astype(np.intp)       # checked first, so the cast cannot overflow
    src_lo, src_hi = np.maximum(start, 0), np.minimum(start + CUBE_SIDE, dims)
    region = (v.voxels[tuple(slice(a, b) for a, b in zip(src_lo, src_hi))]
              if v.spacing == (1.0, 1.0, 1.0) else _trilinear_gather(v, src_lo, src_hi))
    block = np.full((CUBE_SIDE,) * 3, AIR_HU, dtype=region.dtype)
    block[tuple(slice(a, b) for a, b in zip(src_lo - start, src_hi - start))] = region
    return block


def crop28(cube: np.ndarray, offset) -> np.ndarray:
    """The 28^3 crop of a 32^3 cube from `offset` (x, y, z), each in 0..4.

    The crop is a view into `cube`, not a copy: writing to it writes to the cube.
    """
    if cube.shape != (CUBE_SIDE,) * 3:
        raise DimensionError(f"crop28 expects a {CUBE_SIDE}^3 cube, got {cube.shape}")
    x, y, z = offset
    return cube[x:x + CROP_SIDE, y:y + CROP_SIDE, z:z + CROP_SIDE]


def triplanar(cube: np.ndarray, projection: str) -> np.ndarray:
    """Stack coronal/sagittal/transverse views of a 28^3 cube as channels.

    projection="slice" takes the central slice through index 14 on each
    axis; projection="mip" takes the max-intensity projection along each axis.
    """
    if cube.shape != (CROP_SIDE,) * 3:
        raise DimensionError(f"triplanar expects a {CROP_SIDE}^3 cube, got {cube.shape}")
    mid = CROP_SIDE // 2
    if projection == "slice":
        coronal = cube[:, mid, :]
        sagittal = cube[mid, :, :]
        transverse = cube[:, :, mid]
    elif projection == "mip":
        coronal = cube.max(axis=1)
        sagittal = cube.max(axis=0)
        transverse = cube.max(axis=2)
    else:
        raise ConfigError(f"projection must be 'slice' or 'mip', got {projection!r}")
    return np.stack([coronal, sagittal, transverse])


def normalize_hu(x: np.ndarray) -> np.ndarray:
    """Clip HU to [-1000, 400] and map linearly onto [0, 1]."""
    lo, hi = HU_WINDOW
    return (np.clip(x, lo, hi) - lo) / (hi - lo)


def select_top_nodules(candidates: list[NoduleCandidate]) -> list[NoduleCandidate]:
    """The ten largest nodules, radius descending; ties by confidence then position."""
    ordered = sorted(candidates, key=lambda c: (-c.radius_mm, -c.confidence, c.center))
    return ordered[:MAX_NODULES]


def candidate_metadata(c: NoduleCandidate, metadata_dim: int) -> np.ndarray:
    if metadata_dim == 5:
        return np.array([c.radius_mm, *c.center, c.confidence])
    if metadata_dim == 6:
        if c.sphericity is None:
            raise ConfigError("metadata_dim=6 requires a sphericity value on every candidate")
        return np.array([c.radius_mm, *c.center, c.confidence, c.sphericity])
    raise ConfigError(f"metadata_dim must be 5 or 6, got {metadata_dim}")


def build_scan_example(v: Volume, candidates: list[NoduleCandidate], label: int,
                       metadata_dim: int = 5, scan_id: str = "") -> ScanExample:
    """Run the per-scan pipeline on the top nodules of a scan.

    Composes select -> resample and extract (`extract_cube`) for each of the
    (at most 10) selected candidates; no candidates give an example without
    patches. Each patch keeps its 32^3 cube, int16 from an int16 volume on
    the 1 mm grid and float64 otherwise, and its raw metadata.
    """
    _grid_dims(v)       # a volume without a 1 mm grid is rejected, nodules or not
    patches = [NodulePatch(cube=extract_cube(v, cand.center),
                           metadata=candidate_metadata(cand, metadata_dim))
               for cand in select_top_nodules(candidates)]
    return ScanExample(scan_id=scan_id, patches=patches, label=label)


def metadata_stats_from_examples(examples: list[ScanExample]) -> MetadataStats:
    """Mean/std over all raw metadata rows; constant features get std 1."""
    rows = [p.metadata for ex in examples for p in ex.patches]
    if not rows:
        raise ConfigError("cannot compute metadata statistics without nodules")
    mat = np.stack(rows)
    std = mat.std(axis=0)
    return MetadataStats(mean=mat.mean(axis=0), std=np.where(std < 1e-9, 1.0, std))
