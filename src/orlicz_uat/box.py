"""Axis-aligned boxes in R^d used as domains, clip regions, and sample ranges."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _parsed


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
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def enlarged(self, margin: float) -> "Box":
        if margin < 0:
            raise ValidationError("enlargement margin must be nonnegative")
        return Box(self.lo - margin, self.hi + margin)

    def contains(self, points: np.ndarray, atol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all((pts >= self.lo - atol) & (pts <= self.hi + atol), axis=1)

    def covers(self, other: "Box") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(self.hi >= other.hi))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def grid(self, per_dim: int) -> np.ndarray:
        """Cartesian product grid with per_dim points per coordinate."""
        if per_dim < 2:
            raise ValidationError("grid needs at least two points per dimension")
        axes = [np.linspace(self.lo[i], self.hi[i], per_dim) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def to_json_dict(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Box":
        if not isinstance(obj, dict) or set(obj) != {"lo", "hi"}:
            raise ValidationError("box object must have exactly the keys lo and hi")
        return cls(*(_parsed(key, lambda v: np.asarray(v, dtype=np.float64), obj[key])
                     for key in ("lo", "hi")))
