"""Writers of input files that no lungrisk command writes: the MetaImage
volume pair (`fileio.read_volume_pair`), the PanCan weight file
(`pancan.load_weights`) and an LRNN1 weight file of any entries
(`nnet.load_member`). Tests make their inputs with them."""

import struct
import zlib
from pathlib import Path

import numpy as np

from lungrisk import fileio, nnet, pancan


def write_volume_pair(v, header_path, element_type: str = "MET_SHORT"):
    """Write the text-header + raw-file pair; returns the raw path. MET_SHORT
    voxels are rounded half to even and clipped to int16, as LRVOL1 stores them."""
    header_path = Path(header_path)
    raw_path = header_path.with_suffix(".raw")
    vox = v.voxels
    if element_type == "MET_SHORT":
        vox = np.empty(v.dims, dtype="<i2")
        for x, plane in enumerate(v.voxels):    # one float64 plane at a time
            fileio._rounded_hu(plane, out=vox[x])
    # disk order: z slowest, x fastest
    vox.astype(fileio._ELEMENT_TYPES[element_type]).transpose(2, 1, 0).tofile(raw_path)
    lines = [
        "NDims = 3",
        f"DimSize = {v.dims[0]} {v.dims[1]} {v.dims[2]}",
        f"ElementSpacing = {v.spacing[0]!r} {v.spacing[1]!r} {v.spacing[2]!r}",
        f"Offset = {v.origin[0]!r} {v.origin[1]!r} {v.origin[2]!r}",
        f"ElementType = {element_type}",
        f"ElementDataFile = {raw_path.name}",
    ]
    header_path.write_text("\n".join(lines) + "\n")
    return raw_path


def save_weights(w: pancan.PanCanWeights, path):
    """A PanCan weight file that `pancan.load_weights` reads back as `w`."""
    lines = [f"version={pancan.WEIGHT_FILE_VERSION}", f"intercept={w.intercept!r}"]
    lines += [f"{k}={w.values[k]!r}" for k in pancan.WEIGHT_KEYS]
    Path(path).write_text("\n".join(lines) + "\n")


def write_weight_entries(entries, path):
    """A checksummed LRNN1 weight file of the (name, array) pairs, in their
    order, repeated names included: the layout `nnet.save_params` writes."""
    Path(path).write_bytes(weight_file_bytes(entries))


def weight_file_bytes(entries):
    """The bytes `write_weight_entries` writes for the same entries."""
    blob = bytearray(nnet.WEIGHTS_MAGIC + struct.pack("<HI", nnet.WEIGHTS_VERSION, len(entries)))
    for name, arr in entries:
        blob += struct.pack("<H", len(name.encode())) + name.encode()
        blob += struct.pack(f"<B{arr.ndim}i", arr.ndim, *arr.shape)
    for _, arr in entries:
        blob += arr.astype("<f8").tobytes()
    return bytes(blob) + struct.pack("<I", zlib.crc32(bytes(blob)))
