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


@dataclass
class Volume:
    """A 3-D grid of Hounsfield units with physical spacing and origin."""

    voxels: np.ndarray                      # (nx, ny, nz) floats
    spacing: tuple[float, float, float]     # mm per voxel
    origin: tuple[float, float, float]      # world mm of voxel (0,0,0)

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.float64)
        if self.voxels.ndim != 3 or min(self.voxels.shape) < 1:
            raise FormatError(f"volume must be 3-D with positive dims, got {self.voxels.shape}")
        self.spacing = tuple(float(s) for s in self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        if any(s <= 0 for s in self.spacing):
            raise FormatError(f"spacing must be strictly positive, got {self.spacing}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape

    def world_to_voxel(self, point) -> np.ndarray:
        return (np.asarray(point, dtype=np.float64) - self.origin) / self.spacing

    def voxel_to_world(self, index) -> np.ndarray:
        return np.asarray(self.origin) + np.asarray(index, dtype=np.float64) * self.spacing


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
    """Network input for one nodule: three 28x28 planes plus raw metadata."""

    planes: np.ndarray       # (3, 28, 28) in [0,1]
    metadata: np.ndarray     # (radius, x, y, z, confidence[, sphericity])


@dataclass
class ScanExample:
    """A scan's nodule patches (0 to 10, largest first) plus its label.

    The patches hold raw metadata; each model standardizes it with its own
    training-set statistics. `cubes` keeps the source 32^3 blocks, one per
    patch, for train-time re-cropping; every built example keeps them. A
    hand-built example without cubes trains on its planes.
    """

    scan_id: str
    patches: list[NodulePatch]
    label: int
    cubes: list[np.ndarray] | None = None

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


def resample_isotropic(v: Volume) -> Volume:
    """Trilinear resample onto a 1 mm grid; world positions are preserved.

    A volume already on the 1 mm grid is returned as it is, so the result
    may share its voxels with the input.
    """
    if v.spacing == (1.0, 1.0, 1.0):
        return v
    out_dims = tuple(int(np.floor(n * s + 0.5)) for n, s in zip(v.dims, v.spacing))
    coords = [np.arange(d, dtype=np.float64) / s for d, s in zip(out_dims, v.spacing)]
    out = _trilinear_gather(v.voxels, coords)
    return Volume(out, (1.0, 1.0, 1.0), v.origin)


def _trilinear_gather(vox, coords):
    # Separable trilinear interpolation on an axis-aligned grid of sample
    # coordinates, clamped at the volume faces.
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


def extract_cube(v: Volume, center, side: int = CUBE_SIDE) -> np.ndarray:
    """Cut a side^3 block (1 mm grid) around `center`; outside fills with air.

    Raises OutOfBoundsError when the block misses the volume entirely.
    """
    if v.spacing != (1.0, 1.0, 1.0):
        raise FormatError("extract_cube expects an isotropically resampled 1 mm volume")
    center_idx = np.floor(v.world_to_voxel(center) + 0.5).astype(np.intp)
    start = center_idx - side // 2
    stop = start + side
    if np.any(stop <= 0) or np.any(start >= np.asarray(v.dims)):
        raise OutOfBoundsError(
            f"cube around {tuple(float(c) for c in center)} lies outside the volume")
    block = np.full((side, side, side), AIR_HU)
    src_lo = np.maximum(start, 0)
    src_hi = np.minimum(stop, v.dims)
    dst_lo = src_lo - start
    dst_hi = dst_lo + (src_hi - src_lo)
    block[dst_lo[0]:dst_hi[0], dst_lo[1]:dst_hi[1], dst_lo[2]:dst_hi[2]] = \
        v.voxels[src_lo[0]:src_hi[0], src_lo[1]:src_hi[1], src_lo[2]:src_hi[2]]
    return block


def crop28(cube: np.ndarray, mode: str, rng: np.random.Generator | None = None) -> np.ndarray:
    """28^3 crop of a 32^3 cube: random offsets in train, center (2,2,2) at inference.

    The crop is a view into `cube`, not a copy: writing to it writes to the cube.
    """
    if cube.shape != (CUBE_SIDE,) * 3:
        raise DimensionError(f"crop28 expects a {CUBE_SIDE}^3 cube, got {cube.shape}")
    if mode == "train":
        if rng is None:
            raise ConfigError("train-mode crop needs an rng")
        off = rng.integers(0, CUBE_SIDE - CROP_SIDE + 1, size=3)
    elif mode == "infer":
        off = np.array([2, 2, 2])
    else:
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    return cube[off[0]:off[0] + CROP_SIDE,
                off[1]:off[1] + CROP_SIDE,
                off[2]:off[2] + CROP_SIDE]


def triplanar(cube: np.ndarray, projection: str = "slice") -> np.ndarray:
    """Stack coronal/sagittal/transverse views of a 28^3 cube as channels.

    The default takes the central slice through index 14 on each axis;
    projection="mip" takes the max-intensity projection along each axis.
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


def select_top_nodules(candidates: list[NoduleCandidate], k: int = MAX_NODULES) -> list[NoduleCandidate]:
    """The k largest nodules, radius descending; ties by confidence then position."""
    ordered = sorted(candidates, key=lambda c: (-c.radius_mm, -c.confidence, c.center))
    return ordered[:k]


def candidate_metadata(c: NoduleCandidate, metadata_dim: int) -> np.ndarray:
    if metadata_dim == 5:
        return np.array([c.radius_mm, *c.center, c.confidence])
    if metadata_dim == 6:
        if c.sphericity is None:
            raise ConfigError("metadata_dim=6 requires a sphericity value on every candidate")
        return np.array([c.radius_mm, *c.center, c.confidence, c.sphericity])
    raise ConfigError(f"metadata_dim must be 5 or 6, got {metadata_dim}")


def build_scan_example(v: Volume, candidates: list[NoduleCandidate], label: int,
                       metadata_dim: int = 5, projection: str = "slice",
                       scan_id: str = "") -> ScanExample:
    """Run the full per-scan pipeline on the top nodules of a scan.

    Composes resample -> select -> extract -> center crop -> triplanar ->
    normalize for each of the (at most 10) selected candidates; no
    candidates give an example without patches. Metadata stays raw. The
    example keeps its 32^3 cubes so the training loop can re-draw crops.
    """
    iso = resample_isotropic(v)
    patches: list[NodulePatch] = []
    cubes: list[np.ndarray] = []
    for cand in select_top_nodules(candidates):
        cube = extract_cube(iso, cand.center)
        planes = normalize_hu(triplanar(crop28(cube, "infer"), projection))
        patches.append(NodulePatch(planes=planes, metadata=candidate_metadata(cand, metadata_dim)))
        cubes.append(cube)
    return ScanExample(scan_id=scan_id, patches=patches, label=label, cubes=cubes)


def metadata_stats_from_examples(examples: list[ScanExample]) -> MetadataStats:
    """Mean/std over all raw metadata rows; constant features get std 1."""
    rows = [p.metadata for ex in examples for p in ex.patches]
    if not rows:
        raise ConfigError("cannot compute metadata statistics without nodules")
    mat = np.stack(rows)
    std = mat.std(axis=0)
    return MetadataStats(mean=mat.mean(axis=0), std=np.where(std < 1e-9, 1.0, std))
