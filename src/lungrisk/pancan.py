"""Logistic nodule-malignancy model over 9 clinical/image features.

The published coefficient values are not part of this package; weights are
loaded from a versioned key-value text file. A clearly-labeled placeholder
set (synthetic, for tests and demos only) ships in ``data/``.
"""

from __future__ import annotations

import importlib.resources
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, NoNoduleError, NumericError
from .fileio import read_key_values, read_table, write_csv
from .tensor import _sigmoid_raw

NODULE_TYPES = ("nonsolid", "part_solid", "solid")

WEIGHT_KEYS = (
    "age",
    "sex_male",
    "family_history",
    "emphysema",
    "nodule_count",
    "diameter_mm",
    "type_part_solid",
    "type_nonsolid",
    "upper_lobe",
    "spiculation",
)

_SCORE_LO = 1e-300
_SCORE_HI = 1.0 - 1e-15


@dataclass(frozen=True)
class PanCanFeatures:
    """Per-nodule inputs: three patient, one clinical, one scan, four nodule features."""

    age: float
    sex: str                 # "male" | "female"
    family_history: bool
    emphysema: bool
    nodule_count: int
    diameter_mm: float
    nodule_type: str         # "nonsolid" | "part_solid" | "solid"
    upper_lobe: bool
    spiculation: bool

    def __post_init__(self):
        if not np.isfinite([self.age, self.diameter_mm]).all():
            raise NumericError(f"age and diameter_mm must be finite, got "
                               f"{self.age!r} and {self.diameter_mm!r}")
        if self.sex not in ("male", "female"):
            raise FormatError(f"sex must be 'male' or 'female', got {self.sex!r}")
        if self.nodule_type not in NODULE_TYPES:
            raise FormatError(f"nodule_type must be one of {NODULE_TYPES}, got {self.nodule_type!r}")
        if not self.diameter_mm > 0:
            raise FormatError(f"diameter_mm must be positive, got {self.diameter_mm}")
        if not self.nodule_count >= 1:
            raise FormatError(f"nodule_count must be >= 1, got {self.nodule_count}")
        if not self.nodule_count <= sys.float_info.max:     # an int can outgrow a float
            raise FormatError("nodule_count is too large to be a finite number")


@dataclass(frozen=True)
class PanCanWeights:
    """One weight per model input, solid nodules as the type reference level.

    `intercept` is an optional additive constant (0 when the weight file
    omits it).
    """

    values: dict
    intercept: float = 0.0

    def __post_init__(self):
        missing = [k for k in WEIGHT_KEYS if k not in self.values]
        if missing:
            raise ConfigError(f"weight set lacks keys {missing}")
        extra = [k for k in self.values if k not in WEIGHT_KEYS]
        if extra:
            raise ConfigError(f"weight set has unknown keys {extra}")
        bad = [k for k, v in {**self.values, "intercept": self.intercept}.items()
               if not np.isfinite(v)]
        if bad:
            raise NumericError(f"weight set has non-finite values for {bad}")

    def __getitem__(self, key: str) -> float:
        return self.values[key]


def nodule_score(f: PanCanFeatures, w: PanCanWeights) -> float:
    """Sigmoid of the weighted feature sum, strictly inside (0,1)."""
    z = (
        w.intercept
        + w["age"] * f.age
        + w["sex_male"] * (f.sex == "male")
        + w["family_history"] * f.family_history
        + w["emphysema"] * f.emphysema
        + w["nodule_count"] * f.nodule_count
        + w["diameter_mm"] * f.diameter_mm
        + w["type_part_solid"] * (f.nodule_type == "part_solid")
        + w["type_nonsolid"] * (f.nodule_type == "nonsolid")
        + w["upper_lobe"] * f.upper_lobe
        + w["spiculation"] * f.spiculation
    )
    return float(np.clip(_sigmoid_raw(z), _SCORE_LO, _SCORE_HI))


def patient_score(nodules: list[PanCanFeatures], w: PanCanWeights, agg: str = "max") -> float:
    """Scan-level score: max of the per-nodule scores (mean behind a flag)."""
    if not nodules:
        raise NoNoduleError("patient_score needs at least one nodule")
    scores = [nodule_score(f, w) for f in nodules]
    if agg == "max":
        return max(scores)
    if agg == "mean":
        return float(np.mean(scores))
    raise ConfigError(f"agg must be 'max' or 'mean', got {agg!r}")


# ---------------------------------------------------------------------------
# weight file format: `# comment` lines, a `version=` key, then key=value


WEIGHT_FILE_VERSION = 1


def load_weights(path) -> PanCanWeights:
    values = read_key_values(path, lambda _, value: float(value), "weight key", FormatError)
    version = values.pop("version", None)
    if version != WEIGHT_FILE_VERSION:
        raise FormatError(f"{path}: weight file version {version!r}, not {WEIGHT_FILE_VERSION}")
    intercept = values.pop("intercept", 0.0)
    return PanCanWeights(values=values, intercept=intercept)


# ---------------------------------------------------------------------------
# per-nodule feature CSV (one row per nodule, grouped by scan_id)

FEATURE_COLUMNS = ["scan_id", "age", "sex", "family_history", "emphysema",
                   "nodule_count", "diameter_mm", "nodule_type", "upper_lobe",
                   "spiculation"]


def write_features_csv(path, rows: list[tuple[str, PanCanFeatures]]):
    write_csv(path, FEATURE_COLUMNS, (
        [scan_id, repr(f.age), f.sex, int(f.family_history), int(f.emphysema), f.nodule_count,
         repr(f.diameter_mm), f.nodule_type, int(f.upper_lobe), int(f.spiculation)]
        for scan_id, f in rows))


def _feature_row(row) -> tuple[str, PanCanFeatures]:
    flags = {name: int(row[name]) for name in ("family_history", "emphysema", "upper_lobe",
                                               "spiculation")}
    for name, value in flags.items():
        if value not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {row[name]!r}")
    return row["scan_id"], PanCanFeatures(
        age=float(row["age"]),
        sex=row["sex"],
        nodule_count=int(row["nodule_count"]),
        diameter_mm=float(row["diameter_mm"]),
        nodule_type=row["nodule_type"],
        **{name: bool(value) for name, value in flags.items()},
    )


def read_features_csv(path) -> dict[str, list[PanCanFeatures]]:
    out: dict[str, list[PanCanFeatures]] = {}
    for scan_id, f in read_table(path, "feature", FEATURE_COLUMNS, _feature_row):
        out.setdefault(scan_id, []).append(f)
    return out


def placeholder_weights_path() -> Path:
    """Path of the shipped synthetic placeholder weight file."""
    return Path(importlib.resources.files("lungrisk").joinpath(
        "data/pancan_placeholder_weights.txt"))
