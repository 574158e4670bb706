"""Finitely supported measures and measure families.

A DiscreteMeasure is a finite set of support points in R^d with nonnegative
weights.  A support is one sort of its points plus +0.0 (so 0.0 and -0.0
are one point).  The gaussian and mixture samplers share one rejection loop
into a box, and one std rule: nonnegative, a zero std drawing its mean.  A
MeasureFamily is built from its members alone: one sort of all member points
gives the dominating measure (the uniform average of the members over the
union support) and each member's rows of it, and each member's density is kept
once, on those rows only.  The certificate over a family's densities is
``robust.dlvp_certificate``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .box import Box
from .errors import AbsoluteContinuityError, ValidationError, _count, _frozen, _known, _parsed


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if pts.ndim != 2 or 0 in pts.shape:
            raise ValidationError("a measure needs a nonempty 2-d point array")
        if pts.shape[0] != w.shape[0]:
            raise ValidationError("points and weights must have equal length")
        if not np.isfinite(pts).all():
            raise ValidationError("support points must be finite")
        if not (np.isfinite(w).all() and (w >= 0.0).all()):
            raise ValidationError("weights must be finite and nonnegative")
        object.__setattr__(self, "points", _frozen(np.ascontiguousarray(pts), self.points))
        object.__setattr__(self, "weights", _frozen(w, self.weights))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def support_size(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def to_json_dict(self) -> dict:
        return {"dim": self.dimension, "points": self.points.tolist(),
                "weights": self.weights.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DiscreteMeasure":
        if not isinstance(obj, dict) or set(obj) != {"dim", "points", "weights"}:
            raise ValidationError("measure object needs exactly dim, points, weights")
        def floats(v):
            return np.asarray(v, dtype=np.float64)
        pts = _parsed("points", floats, obj["points"])
        if pts.ndim != 2 or pts.shape[1] != _parsed("dim", _count, obj["dim"]):
            raise ValidationError("measure points do not match the declared dim")
        return make_discrete(pts, _parsed("weights", floats, obj["weights"]))


def make_discrete(points, weights) -> DiscreteMeasure:
    """Canonical measure: duplicates merged, zero weights dropped, points sorted."""
    given = DiscreteMeasure(points, weights)  # checked as given
    return _canonical(given.points, given.weights)[0]


def _canonical(pts: np.ndarray, w: np.ndarray):
    """make_discrete's measure, and the support row of each input row (-1 where its
    point has no weight).  bincount sums each run in input order, as np.add.at
    would; np.add.reduceat reorders the sum and can move its last bit."""
    # lexicographic: by the first coordinate, then the rows tied in it by all; -0.0 and 0.0
    # sort as equals, and + 0.0 makes both 0.0.  take, compress and column-wise reduces handle
    # whole rows several times faster than 2-d fancy indexing and any(axis=1)
    order = np.argsort(pts[:, 0])
    if pts.shape[1] > 1:
        tie = np.r_[pts[order[1:], 0] == pts[order[:-1], 0], False]
        tied = np.flatnonzero(tie | np.r_[False, tie[:-1]])
        order[tied] = order[tied][np.lexsort(pts.take(order[tied], axis=0).T[::-1])]
    run = pts.take(order, axis=0) + 0.0
    starts = np.ones(run.shape[0], dtype=bool)
    starts[1:] = np.logical_or.reduce([run[1:, k] != run[:-1, k] for k in range(run.shape[1])])
    rows = np.empty_like(order)
    if starts.all():  # no point repeats
        rows[order], support = np.arange(order.size), run
    else:
        rows[order], support = np.cumsum(starts) - 1, run.compress(starts, axis=0)
    merged = np.bincount(rows, w)
    kept = merged > 0.0
    if not kept.all():
        if not kept.any():
            raise ValidationError("measure has empty support after dropping zero weights")
        rows = np.where(kept[rows], (np.cumsum(kept) - 1)[rows], -1)
        support, merged = support.compress(kept, axis=0), merged[kept]
    return DiscreteMeasure(support, merged), rows


_SAMPLER_KEYS = {"uniform": (), "gaussian": ("mean", "std"), "mixture": ("components",)}
_REJECTION_ROUNDS = 1000


def _coords(key: str, value, d: int, least: float = -np.inf) -> np.ndarray:
    """value as a finite float vector of length d, none below least; a scalar repeats."""
    def convert(v):
        out = np.asarray(v, dtype=np.float64)
        if out.shape != (d,):
            out = np.broadcast_to(out, (d,))
        if not (np.isfinite(out).all() and (out >= least).all()):
            raise ValueError("not finite, or too small")
        return out
    return _parsed(key, convert, value)


def _component(c, d: int):
    """(weight, mean, std) of one mixture component."""
    _known(_parsed("components", dict, c), ("weight", "mean", "std"), "mixture component")
    weight, mean, std = _parsed("components", lambda v: (v["weight"], v["mean"], v["std"]), c)
    return _parsed("weight", float, weight), _coords("mean", mean, d), _coords("std", std, d, 0.0)


def _kept_in_box(draw, n: int, box: Box, name: str) -> np.ndarray:
    """The first n points inside box in draw order, drawn in batches by repeated draw() calls."""
    kept = []
    for _ in range(_REJECTION_ROUNDS):
        cand = draw()
        kept.append(cand.compress(box.contains(cand), axis=0))
        if sum(len(k) for k in kept) >= n:
            return np.concatenate(kept)[:n]
    raise ValidationError(f"{name} sampler kept missing the clip box")


def sample_empirical(density_spec, n: int, seed: int, clip_box: Box) -> DiscreteMeasure:
    """n equally weighted points drawn inside clip_box from a named sampler.

    density_spec is a sampler name, or a dict of a name and the sampler's
    parameters: gaussian takes mean and std, mixture a components list of
    {weight, mean, std} dicts.  A mean or std is a scalar or one value per
    coordinate, and a std is nonnegative: zero draws the mean.
    """
    if _parsed("n", _count, n) < 1:
        raise ValidationError("sample size must be positive")
    seed = _parsed("seed", _count, seed)
    spec = ({"name": density_spec} if isinstance(density_spec, str)
            else _parsed("sampler", dict, density_spec))
    name = spec.pop("name", None)
    if not isinstance(name, str) or name not in _SAMPLER_KEYS:
        raise ValidationError(f"unknown sampler {name!r}; choose from {tuple(_SAMPLER_KEYS)}")
    _known(spec, _SAMPLER_KEYS[name], f"{name} sampler")
    rng, d = np.random.default_rng(seed), clip_box.dim
    if name == "uniform":
        pts = clip_box.sample(rng, n)
    elif name == "gaussian":
        mean = _coords("mean", spec.get("mean", 0.5 * (clip_box.lo + clip_box.hi)), d)
        std = _coords("std", spec.get("std", 0.25 * (clip_box.hi - clip_box.lo)), d, 0.0)
        pts = _kept_in_box(lambda: mean + std * rng.standard_normal((n, d)), n, clip_box, name)
    else:
        if not spec.get("components"):
            raise ValidationError("mixture sampler needs a nonempty components list")
        weights, means, stds = zip(*[_component(c, d) for c in
                                     _parsed("components", list, spec["components"])])
        probs = np.array(weights)
        with np.errstate(over="ignore"):  # a sum past the double range is refused
            total = probs.sum()
        if not (np.all(probs > 0.0) and total < np.inf):
            raise ValidationError("mixture component weights must be positive, with a finite sum")
        # rng.choice(cdf.size, n, p=probs / total) draws rng.random(n) and inverts this
        # cdf; doing so here skips choice's checks of p on every round, bit for bit
        cdf = np.cumsum(probs / total)
        cdf /= cdf[-1]

        def draw():
            idx = cdf.searchsorted(rng.random(n), side="right")
            cand = np.empty((n, d))
            for k in range(cdf.size):
                sel = idx == k
                drawn = means[k] + stds[k] * rng.standard_normal((np.count_nonzero(sel), d))
                for c in range(d):  # a masked 2-d assignment is several times slower
                    cand[:, c][sel] = drawn[:, c]
            return cand
        pts = _kept_in_box(draw, n, clip_box, name)
    return _canonical(pts, np.full(n, 1.0 / n))[0]


@dataclass(frozen=True, eq=False)
class MeasureFamily:
    """Member measures, and their dominating measure mu, rows and densities, all derived.

    ``rows[i]`` are member i's rows of mu, each once and increasing, and
    ``densities[i]`` is d(nu_i)/d(mu) on those rows only (0 off them).
    """
    members: tuple
    dominating: DiscreteMeasure = field(init=False)
    rows: tuple = field(init=False, repr=False)
    densities: tuple = field(init=False, repr=False)

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValidationError("need at least one member measure")
        if len({m.dimension for m in members}) != 1:
            raise ValidationError("member measures must share one dimension")
        # one sort of all member points gives mu and each member's rows of it
        mu, found = _canonical(np.concatenate([m.points for m in members]),
                               np.concatenate([m.weights for m in members]) / len(members))
        if (found < 0).any():
            raise AbsoluteContinuityError("a member point has no dominating mass")
        rows, densities = [], []
        for nu, end in zip(members, np.cumsum([m.support_size for m in members])):
            j = found[end - nu.support_size:end]
            density = nu.weights / mu.weights[j]
            if (j[1:] <= j[:-1]).any():  # not canonical: a repeated point's mass is its total
                j, inv = np.unique(j, return_inverse=True)
                density = np.bincount(inv, density)
            rows.append(j)
            densities.append(density)
        for a in rows + densities:
            a.setflags(write=False)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "dominating", mu)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "densities", tuple(densities))

    @classmethod
    def from_members(cls, members) -> "MeasureFamily":
        return cls(members)

    @property
    def size(self) -> int:
        return len(self.members)

    def integrals(self, g) -> np.ndarray:
        """Each member's integral of g, given on mu's support: sum of d * g * mu on its rows."""
        weighted = np.asarray(g, dtype=np.float64) * self.dominating.weights
        return np.array([d @ weighted[j] for d, j in zip(self.densities, self.rows)])
