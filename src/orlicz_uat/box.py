"""Axis-aligned boxes in R^d used as domains, clip regions, and sample ranges."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _frozen, _parsed


@dataclass(frozen=True, eq=False)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if lo.ndim != 1 or lo.size == 0 or lo.shape != hi.shape:
            raise ValidationError("box bounds must be nonempty 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValidationError("box lower bounds must not exceed upper bounds")
        object.__setattr__(self, "lo", _frozen(lo, self.lo))
        object.__setattr__(self, "hi", _frozen(hi, self.hi))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def enlarged(self, margin: float) -> "Box":
        if margin < 0:
            raise ValidationError("enlargement margin must be nonnegative")
        return Box(self.lo - margin, self.hi + margin)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValidationError(f"points must have {self.dim} coordinates, as the box has")
        # a reduce over columns: all(axis=1) over short rows is several times slower
        return np.logical_and.reduce([(pts[:, k] >= self.lo[k]) & (pts[:, k] <= self.hi[k])
                                      for k in range(self.dim)])

    def covers(self, other: "Box") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(self.hi >= other.hi))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def to_json_dict(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Box":
        if not isinstance(obj, dict) or set(obj) != {"lo", "hi"}:
            raise ValidationError("box object must have exactly the keys lo and hi")
        return cls(*(_parsed(key, lambda v: np.asarray(v, dtype=np.float64), obj[key])
                     for key in ("lo", "hi")))
