"""From a CT volume to the network's fixed-shape input.

Builds a small anisotropic volume with one bright blob, then walks the
pipeline: a 32mm cube cut on the 1 mm grid (only the cube is resampled),
28mm crop, the three orthogonal projections, intensity normalization, and
nodule selection.
"""

import numpy as np

from lungrisk import preprocess as pp

rng = np.random.default_rng(1)

# a 2 x 1 x 1.5 mm spaced volume holding a bright 8mm blob at a known spot
vox = rng.normal(-850.0, 20.0, size=(50, 90, 60))
center_vox = (30, 45, 30)
xs, ys, zs = np.ogrid[:50, :90, :60]
dist2 = ((xs - 30) * 2.0) ** 2 + ((ys - 45) * 1.0) ** 2 + ((zs - 30) * 1.5) ** 2
vox[dist2 < 4.0 ** 2] = 60.0
volume = pp.Volume(vox, spacing=(2.0, 1.0, 1.5), origin=(-10.0, 5.0, 0.0))
print("raw volume:", volume.dims, "at spacing", volume.spacing)

world_center = np.add(volume.origin, np.multiply(center_vox, volume.spacing))
cube = pp.extract_cube(volume, world_center)
print("1 mm cube:", cube.shape, cube.dtype, " min/max HU:", round(cube.min()), round(cube.max()))

crop = pp.crop28(cube, pp.CENTER_OFFSET)     # the centred crop scoring takes
planes = pp.triplanar(crop)
normalized = pp.normalize_hu(planes)
print("triplanar channels:", planes.shape, " normalized range:",
      round(normalized.min(), 3), "..", round(normalized.max(), 3))

# nodule selection: ten largest by radius, deterministic tie-breaks
candidates = [
    pp.NoduleCandidate(center=tuple(world_center), radius_mm=r, confidence=c)
    for r, c in [(4.0, 0.9), (6.5, 0.4), (6.5, 0.8), (2.0, 0.99), (9.0, 0.7)]
]
chosen = pp.select_top_nodules(candidates)[:3]
print("top-3 radii:", [c.radius_mm for c in chosen],
      "(ties broken by confidence)")

example = pp.build_scan_example(volume, candidates, label=1, scan_id="demo")
print("scan example:", len(example.patches), "nodule patches, radii",
      [float(p.metadata[0]) for p in example.patches], "; planes",
      example.patches[0].planes.shape, "; kept cubes", example.cubes[0].shape)
