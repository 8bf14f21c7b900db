"""Deterministic synthetic CT phantoms with a known generative risk rule.

Each scan is a noisy lung-like background (about -850 HU) holding one or
more soft-edged ellipsoidal nodules, optionally with spiculation spikes.
Per-nodule malignancy follows a documented logistic rule over diameter,
spiculation and upper-lobe location:

    p = sigmoid(b0 + B_DIAMETER*(diameter_mm - 10) + B_SPICULATION*spic
                   + B_UPPER_LOBE*upper)

with b0 calibrated so the scan-level prevalence (label = OR over nodule
malignancies) matches the requested value in expectation. Malignant nodules
therefore skew larger and more spiculated, so both the rendered image and
the exported features carry label signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import host
from .errors import ConfigError
from .fileio import (_rounded_hu, write_candidates_csv, write_csv, write_labels_csv,
                     write_volume_compact)
from .pancan import PanCanFeatures, write_features_csv
from .preprocess import NoduleCandidate, Volume

BACKGROUND_HU = -850.0
EDGE_WIDTH_MM = 1.5      # HU crosses the core/background midpoint at the nominal surface
SPIKE_LENGTH_MM = 3.0
SPIKE_COUNT = 8
SPIKE_COS = np.cos(np.radians(10.0))
PLACEMENT_MARGIN_MM = 16.0   # keeps every center >= 16 mm inside (cube extraction margin)
_SLAB_VOXELS = 1 << 16       # a float64 background slab of 512 kB, sized for a core's L2 cache

# documented logistic slopes of the generative malignancy rule; steep enough
# that the Bayes-optimal score separates labels with AUC well above 0.9, and
# weighted toward detector-visible features (size, location) so both the
# image/metadata path and the oracle-feature path carry learnable signal
B_DIAMETER = 1.8
B_SPICULATION = 1.0
B_UPPER_LOBE = 0.8

# gravity-dependent background density gradient: apical (high z) lung reads
# slightly denser, so a nodule patch carries its lobe location in the image
APICAL_GRADIENT_HU = 30.0

_CORE_HU = {"solid": 50.0, "part_solid": -300.0, "nonsolid": -600.0}
_TYPE_NAMES = ("solid", "part_solid", "nonsolid")
_TYPE_PROBS = (0.60, 0.25, 0.15)

_CALIBRATION_SEED = 0xC0FFEE
_CALIBRATION_SCANS = 4000


@dataclass
class PhantomSpec:
    n_scans: int
    prevalence: float
    volume_dims: tuple[int, int, int] = (96, 96, 96)
    nodules_per_scan: tuple[int, int] = (1, 4)
    size_range_mm: tuple[float, float] = (4.0, 20.0)
    texture_noise_sigma: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.prevalence < 1.0):
            raise ConfigError(f"prevalence must lie in (0,1), got {self.prevalence}")
        if self.n_scans < 1:
            raise ConfigError("n_scans must be positive")
        if not 0.0 <= self.texture_noise_sigma < np.inf:
            raise ConfigError(f"texture_noise_sigma must be finite and non-negative, "
                              f"got {self.texture_noise_sigma}")
        lo, hi = self.nodules_per_scan
        if not (1 <= lo <= hi < np.iinfo(np.int64).max):
            raise ConfigError(f"invalid nodules_per_scan range {self.nodules_per_scan}")
        dlo, dhi = self.size_range_mm
        if not (0.5 <= dlo <= dhi):
            raise ConfigError(f"invalid size_range_mm {self.size_range_mm}")
        # largest nodule (semi-axis + soft edge + spikes) must fit inside the margin
        if dhi / 2.0 + EDGE_WIDTH_MM / 2.0 + SPIKE_LENGTH_MM > PLACEMENT_MARGIN_MM:
            raise ConfigError(f"size_range_mm upper bound {dhi} too large for the "
                              f"{PLACEMENT_MARGIN_MM} mm placement margin")
        if min(self.volume_dims) < 2 * PLACEMENT_MARGIN_MM + 8:
            raise ConfigError(f"volume_dims {self.volume_dims} too small for the "
                              f"placement margin")
        if 8 * math.prod(self.volume_dims) > np.iinfo(np.intp).max:
            raise ConfigError(f"volume_dims {self.volume_dims} exceed the largest array "
                              f"numpy can make")


@dataclass
class NoduleRecord:
    center: tuple[float, float, float]
    diameter_mm: float
    semi_axes: tuple[float, float, float]
    spiculation: bool
    upper_lobe: bool
    nodule_type: str
    p_malignant: float
    malignant: bool


@dataclass
class ScanRecord:
    scan_id: str
    label: int
    risk: float                      # 1 - prod(1 - p_i): the generative oracle score
    nodules: list[NoduleRecord]
    candidates: list[NoduleCandidate]
    age: float
    sex: str
    family_history: bool
    emphysema: bool


@dataclass
class SynthDataset:
    spec: PhantomSpec
    intercept: float                 # calibrated b0 of the malignancy rule
    scans: list[ScanRecord]

    @property
    def labels(self) -> dict[str, int]:
        return {s.scan_id: s.label for s in self.scans}


# ---------------------------------------------------------------------------
# generative rule


def _draw_nodule_features(rng: np.random.Generator, spec: PhantomSpec, n: int):
    diam = rng.uniform(*spec.size_range_mm, size=n)
    spic = rng.random(n) < 0.30
    upper = rng.random(n) < 0.40
    return diam, spic, upper


def _malignancy_logit(diam, spic, upper):
    return B_DIAMETER * (diam - 10.0) + B_SPICULATION * spic + B_UPPER_LOBE * upper


def calibrate_intercept(spec: PhantomSpec) -> float:
    """Solve for b0 so the expected scan prevalence matches the spec.

    Uses a fixed-seed Monte-Carlo feature sample (independent of spec.seed)
    and bisection over the monotone prevalence curve. The sample is the one
    `_draw_nodule_features` would draw scan by scan: each scan's n diameters,
    n spiculation and n upper-lobe doubles, in that order, sliced out of one
    draw. `uniform(lo, hi)` is `lo + (hi - lo) * next_double`, so the
    diameters keep their bits.
    """
    rng = np.random.default_rng(_CALIBRATION_SEED)
    lo_n, hi_n = spec.nodules_per_scan
    counts = rng.integers(lo_n, hi_n + 1, size=_CALIBRATION_SCANS)
    bounds = np.r_[0, np.cumsum(counts)]
    doubles = rng.random(3 * int(bounds[-1]))
    n = np.repeat(counts, counts)
    # the k-th nodule of a scan starting at nodule s reads double 3s + k
    first = 2 * np.repeat(bounds[:-1], counts) + np.arange(bounds[-1])
    lo_mm, hi_mm = spec.size_range_mm
    diam = lo_mm + (hi_mm - lo_mm) * doubles[first]
    flat = _malignancy_logit(diam, doubles[first + n] < 0.30, doubles[first + 2 * n] < 0.40)

    def prevalence_at(b0):
        p = 1.0 / (1.0 + np.exp(-(flat + b0)))
        log_none = np.log1p(-p)
        scan_log_none = np.add.reduceat(log_none, bounds[:-1])
        return float(np.mean(1.0 - np.exp(scan_log_none)))

    lo, hi = -20.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if prevalence_at(mid) < spec.prevalence:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# rendering


def _place_centers(rng, spec, diam, upper):
    dims = np.asarray(spec.volume_dims, dtype=np.float64)
    lo = PLACEMENT_MARGIN_MM
    hi = dims - PLACEMENT_MARGIN_MM
    z_split = lo + 0.55 * (hi[2] - lo)
    centers = []
    for d, up in zip(diam, upper):
        for _ in range(200):
            x = rng.uniform(lo, hi[0])
            y = rng.uniform(lo, hi[1])
            z = rng.uniform(z_split, hi[2]) if up else rng.uniform(lo, z_split)
            ok = all(np.linalg.norm(np.subtract((x, y, z), c)) >= (d + dc) / 2.0 + 6.0
                     for c, dc in centers)
            if ok:
                break
        centers.append(((x, y, z), d))
    return [c for c, _ in centers]


def _nodule_box(center, r_long, spiculated, dims):
    """Corners `lo` (inclusive) and `hi` (exclusive) of the voxels a nodule may
    touch: its long semi-axis, half the soft edge and any spikes, clipped to
    the volume."""
    extent = r_long + EDGE_WIDTH_MM / 2.0 + (SPIKE_LENGTH_MM if spiculated else 0.0)
    lo = np.maximum(np.floor(np.subtract(center, extent)).astype(int), 0)
    hi = np.minimum(np.ceil(np.add(center, extent)).astype(int) + 1, dims)
    return lo, hi


def _copy_overlap(dst, dst_lo, src, src_lo):
    """Copy into `dst` the voxels of `src` where the two overlap; each array
    sits in the volume with its (0,0,0) voxel at the corner given."""
    lo = np.maximum(dst_lo, src_lo)
    hi = np.minimum(np.add(dst_lo, dst.shape), np.add(src_lo, src.shape))
    if np.all(hi > lo):
        dst[tuple(map(slice, lo - dst_lo, hi - dst_lo))] = \
            src[tuple(map(slice, lo - src_lo, hi - src_lo))]


def _render_nodule(region, lo, rng, center, semi_axes, core_hu, spiculated, noise_sigma):
    """Blend one nodule into `region`, the float64 voxels of its box from
    corner `lo` (see `_nodule_box`)."""
    hi = np.add(lo, region.shape)
    dx = (np.arange(lo[0], hi[0]) - center[0])[:, None, None]
    dy = (np.arange(lo[1], hi[1]) - center[1])[None, :, None]
    dz = (np.arange(lo[2], hi[2]) - center[2])[None, None, :]
    rho = (dx / semi_axes[0]) ** 2 + (dy / semi_axes[1]) ** 2 + (dz / semi_axes[2]) ** 2
    np.sqrt(rho, out=rho)
    r_geo = float(np.cbrt(np.prod(semi_axes)))
    signed_mm = rho
    signed_mm -= 1.0
    signed_mm *= r_geo
    weight = signed_mm / EDGE_WIDTH_MM
    np.subtract(0.5, weight, out=weight)
    np.clip(weight, 0.0, 1.0, out=weight)

    if spiculated:
        # box-sized buffers are reused; each value takes the same operations,
        # in the same order, so the rendered bytes do not depend on it
        dirs = rng.normal(size=(SPIKE_COUNT, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        norm = dx ** 2 + dy ** 2 + dz ** 2
        np.sqrt(norm, out=norm)
        norm[norm == 0] = 1.0
        best_cos = np.full(rho.shape, -1.0)
        cos = np.empty(rho.shape)
        for d in dirs:
            np.add(dx * d[0] + dy * d[1], dz * d[2], out=cos)
            cos /= norm
            np.maximum(best_cos, cos, out=best_cos)
        spike = ((best_cos > SPIKE_COS) & (signed_mm > -0.5)
                 & (signed_mm < SPIKE_LENGTH_MM))
        spike_w = np.divide(signed_mm, SPIKE_LENGTH_MM, out=cos)
        np.subtract(1.0, spike_w, out=spike_w)
        np.clip(spike_w, 0.0, 1.0, out=spike_w)
        spike_w *= 0.85
        spike_w[~spike] = 0.0
        np.maximum(weight, spike_w, out=weight)

    core = rng.normal(0.0, noise_sigma / 4.0, size=region.shape)
    core += core_hu
    core -= region
    core *= weight
    region += core


def _render_background(rng, spec, boxes):
    """The int16 background of a scan, and a float64 copy of each box of it.

    The noise is drawn in x-slabs of about `_SLAB_VOXELS` voxels, in the
    volume's C order, so the generator yields the same doubles as one
    whole-volume draw; `z * sigma + BACKGROUND_HU` is the double
    `rng.normal(BACKGROUND_HU, sigma)` makes of the same `z`. Each slab gives
    the boxes their part of it before it is rounded into the volume.
    """
    nx, ny, nz = spec.volume_dims
    gradient = APICAL_GRADIENT_HU * (np.arange(nz) / max(nz - 1, 1) - 0.5)
    vox = np.empty(spec.volume_dims, dtype=np.int16)
    regions = [np.empty(np.subtract(hi, lo)) for lo, hi in boxes]
    step = max(1, _SLAB_VOXELS // (ny * nz))
    buffer = np.empty((min(step, nx), ny, nz))
    for x0 in range(0, nx, step):
        slab = buffer[:min(step, nx - x0)]
        rng.standard_normal(out=slab)
        slab *= spec.texture_noise_sigma
        slab += BACKGROUND_HU
        slab += gradient
        for (lo, _), region in zip(boxes, regions):
            _copy_overlap(region, lo, slab, (x0, 0, 0))
        _rounded_hu(slab, out=vox[x0:x0 + len(slab)])
    return vox, regions


def _lungrads_from_diameter(d: float) -> int:
    if d < 6.0:
        return 2
    if d < 8.0:
        return 3
    return 4


# an overflow leaves a non-finite voxel, which `_rounded_hu` rejects with one error
@np.errstate(over="ignore", invalid="ignore")
def _generate_scan(scan_id, spec, intercept, seed) -> tuple[ScanRecord, Volume]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(spec.nodules_per_scan[0], spec.nodules_per_scan[1] + 1))
    diam, spic, upper = _draw_nodule_features(rng, spec, n)
    types = rng.choice(len(_TYPE_NAMES), size=n, p=_TYPE_PROBS)
    centers = _place_centers(rng, spec, diam, upper)
    logits = _malignancy_logit(diam, spic, upper) + intercept
    p_mal = 1.0 / (1.0 + np.exp(-logits))
    malignant = rng.random(n) < p_mal
    risk = float(1.0 - np.prod(1.0 - p_mal))

    # max(semi_axes) is r_long = diam / 2, so the boxes are known before the
    # semi-axes are drawn
    boxes = [_nodule_box(centers[i], diam[i] / 2.0, bool(spic[i]), spec.volume_dims)
             for i in range(n)]
    vox, regions = _render_background(rng, spec, boxes)
    nodules, candidates = [], []
    for i in range(n):
        r_long = diam[i] / 2.0
        r_other = r_long * rng.uniform(0.75, 1.0)
        r_z = r_long * rng.uniform(0.75, 1.0)
        if rng.random() < 0.5:
            semi = (r_long, r_other, r_z)   # long in-slice axis along x
        else:
            semi = (r_other, r_long, r_z)   # ... or along y
        name = _TYPE_NAMES[types[i]]
        # an earlier nodule whose box overlaps this one has already blended
        # into the overlap; the last box to take a voxel holds its value
        for j in range(i):
            _copy_overlap(regions[i], boxes[i][0], regions[j], boxes[j][0])
        _render_nodule(regions[i], boxes[i][0], rng, centers[i], semi, _CORE_HU[name],
                       bool(spic[i]), spec.texture_noise_sigma)
        nodules.append(NoduleRecord(
            center=tuple(float(c) for c in centers[i]),
            diameter_mm=float(diam[i]),
            semi_axes=tuple(float(s) for s in semi),
            spiculation=bool(spic[i]),
            upper_lobe=bool(upper[i]),
            nodule_type=name,
            p_malignant=float(p_mal[i]),
            malignant=bool(malignant[i]),
        ))
        jitter = rng.normal(0.0, 0.5, size=3)
        detected_radius = max(0.5, r_long * (1.0 + rng.normal(0.0, 0.03)))
        confidence = float(np.clip(
            1.0 / (1.0 + np.exp(-0.35 * (diam[i] - 10.0))) + rng.normal(0.0, 0.03),
            0.05, 0.999))
        candidates.append(NoduleCandidate(
            center=tuple(float(c) for c in centers[i] + jitter),
            radius_mm=float(detected_radius),
            confidence=confidence,
            sphericity=float(min(semi) / max(semi)),
            lungrads_category=_lungrads_from_diameter(float(diam[i])),
        ))

    record = ScanRecord(
        scan_id=scan_id,
        label=int(np.any(malignant)),
        risk=risk,
        nodules=nodules,
        candidates=candidates,
        age=float(rng.integers(55, 76)),
        sex="male" if rng.random() < 0.5 else "female",
        family_history=bool(rng.random() < 0.2),
        emphysema=bool(rng.random() < 0.3),
    )
    for (lo, hi), region in zip(boxes, regions):
        _rounded_hu(region, out=vox[tuple(map(slice, lo, hi))])
    volume = Volume(vox, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    return record, volume


# ---------------------------------------------------------------------------
# public entry points


def generate(spec: PhantomSpec, out_dir=None) -> SynthDataset:
    """Produce the whole dataset; writes volumes/CSVs when out_dir is given.

    Scans are rendered by `host.ordered_map`, one thread per usable CPU.
    Each scan draws from its own SeedSequence child and records come back
    in scan order, so the bytes do not depend on the thread count. A volume
    is rendered straight into int16 (see `_render_background`), written as
    soon as it is rendered and not kept in memory, so at most one per thread
    is in flight. When a scan raises, no further scan is started and the
    error reaches the caller.
    """
    intercept = calibrate_intercept(spec)
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_scans)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        (out_dir / "volumes").mkdir(parents=True, exist_ok=True)

    def render(i: int) -> ScanRecord:
        scan_id = f"scan_{i:05d}"
        record, volume = _generate_scan(scan_id, spec, intercept, seeds[i])
        if out_dir is not None:
            write_volume_compact(volume, out_dir / "volumes" / f"{scan_id}.lrvol")
        return record

    # threads, not processes: the normal fill, which is most of a scan, and
    # the volume write run with the GIL released; a thread holds its int16
    # volume, one float64 slab and the nodule boxes, never a float64 volume
    scans = list(host.ordered_map(render, range(spec.n_scans)))
    dataset = SynthDataset(spec=spec, intercept=intercept, scans=scans)
    if out_dir is not None:
        write_candidates_csv(out_dir / "candidates.csv", {s.scan_id: s.candidates for s in scans})
        write_labels_csv(out_dir / "labels.csv", dataset.labels)
        _write_ground_truth(dataset, out_dir)
        export_pancan_features(dataset, out_dir / "pancan_features.csv")
    return dataset


def _write_ground_truth(dataset: SynthDataset, out_dir: Path):
    write_csv(out_dir / "ground_truth.csv", ["scan_id", "label", "risk"],
              ([s.scan_id, s.label, repr(s.risk)] for s in dataset.scans))
    write_csv(out_dir / "nodule_truth.csv",
              ["scan_id", "diameter_mm", "spiculation", "upper_lobe", "nodule_type",
               "p_malignant", "malignant"],
              ([s.scan_id, repr(nd.diameter_mm), int(nd.spiculation), int(nd.upper_lobe),
                nd.nodule_type, repr(nd.p_malignant), int(nd.malignant)]
               for s in dataset.scans for nd in s.nodules))


def export_pancan_features(dataset: SynthDataset, path):
    """One feature row per nodule, using the true generative feature values."""
    rows = []
    for s in dataset.scans:
        for nd in s.nodules:
            rows.append((s.scan_id, PanCanFeatures(
                age=s.age,
                sex=s.sex,
                family_history=s.family_history,
                emphysema=s.emphysema,
                nodule_count=len(s.candidates),
                diameter_mm=nd.diameter_mm,
                nodule_type=nd.nodule_type,
                upper_lobe=nd.upper_lobe,
                spiculation=nd.spiculation,
            )))
    write_features_csv(path, rows)
    return rows
