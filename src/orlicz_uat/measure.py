"""Finitely supported measures, measure families, and integrability certificates.

A DiscreteMeasure is a finite set of support points in R^d with nonnegative
weights.  A support is one lexsort of its points plus +0.0 (so 0.0 and -0.0
are one point).  A MeasureFamily is built from its member measures alone: one
sort of all member points gives the dominating measure (the uniform average
of the members over the union support) and each member's rows of it, and each
member's density is kept once, on those rows only; radon_nikodym gives the
dense form over the whole dominating support.  The de la Vallee
Poussin style certificate records, for one candidate Young function psi, the
gauge norms of all member densities, each on its member's rows, and their
supremum; a finite supremum witnesses uniform integrability relative to psi.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .box import Box
from .errors import AbsoluteContinuityError, ValidationError, _frozen, _parsed
from .young import YoungFunction, entropy, is_structural_n_function, power


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
        if not np.all(np.isfinite(pts)):
            raise ValidationError("support points must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
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
        if pts.ndim != 2 or pts.shape[1] != _parsed("dim", int, obj["dim"]):
            raise ValidationError("measure points do not match the declared dim")
        return make_discrete(pts, _parsed("weights", floats, obj["weights"]))


def make_discrete(points, weights) -> DiscreteMeasure:
    """Canonical measure: duplicates merged, zero weights dropped, points sorted."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    w = np.asarray(weights, dtype=np.float64).ravel()
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ValidationError("points must form a 1-d or 2-d array with at least one coordinate")
    if pts.shape[0] != w.shape[0]:
        raise ValidationError("points and weights must have equal length")
    if np.any(~np.isfinite(w)) or np.any(w < 0.0):
        raise ValidationError("weights must be finite and nonnegative")
    return _canonical(pts, w)[0]


def _canonical(pts: np.ndarray, w: np.ndarray):
    """make_discrete's measure, and the support row of each input row (-1 where its
    point has no weight).  bincount sums each run in input order, as np.add.at
    would; np.add.reduceat reorders the sum and can move its last bit."""
    order = np.lexsort(pts.T[::-1])  # -0.0 and 0.0 sort as equals; + 0.0 makes both 0.0
    run = pts[order] + 0.0
    starts = np.concatenate([[True], np.any(run[1:] != run[:-1], axis=1)])
    rows = np.empty_like(order)
    rows[order] = np.cumsum(starts) - 1
    merged = np.bincount(rows, w)
    kept = merged > 0.0
    if not np.any(kept):
        raise ValidationError("measure has empty support after dropping zero weights")
    rows = np.where(kept[rows], (np.cumsum(kept) - 1)[rows], -1)
    return DiscreteMeasure(run[starts][kept], merged[kept]), rows


_SAMPLER_NAMES = ("uniform", "gaussian", "mixture")
_REJECTION_ROUNDS = 1000


def _coords(key: str, value, d: int) -> np.ndarray:
    """value as a finite float vector of length d; a scalar is repeated d times."""
    def convert(v):
        out = np.broadcast_to(np.asarray(v, dtype=np.float64), (d,))
        if not np.all(np.isfinite(out)):
            raise ValueError("not finite")
        return out
    return _parsed(key, convert, value)


def _draw_gaussian(rng: np.random.Generator, n: int, mean, std, box: Box) -> np.ndarray:
    mean, std = _coords("mean", mean, box.dim), _coords("std", std, box.dim)
    if np.any(std <= 0.0):
        raise ValidationError("gaussian std must be positive")
    out = np.empty((0, box.dim))
    for _ in range(_REJECTION_ROUNDS):
        cand = mean + std * rng.standard_normal((n, box.dim))
        cand = cand[box.contains(cand)]
        out = np.concatenate([out, cand])
        if out.shape[0] >= n:
            return out[:n]
    raise ValidationError("gaussian sampler kept missing the clip box")


def sample_empirical(density_spec, n: int, seed: int, clip_box: Box) -> DiscreteMeasure:
    """n equally weighted points drawn inside clip_box from a named sampler.

    density_spec is either a sampler name or a dict with a name key plus
    sampler parameters: gaussian takes mean and std, mixture takes a
    components list of {weight, mean, std} dicts.
    """
    if n < 1:
        raise ValidationError("sample size must be positive")
    spec = ({"name": density_spec} if isinstance(density_spec, str)
            else _parsed("sampler", dict, density_spec))
    name = spec.pop("name", None)
    if name not in _SAMPLER_NAMES:
        raise ValidationError(f"unknown sampler {name!r}; choose from {_SAMPLER_NAMES}")
    rng = np.random.default_rng(seed)
    d = clip_box.dim
    if name == "uniform":
        if spec:
            raise ValidationError(f"uniform sampler takes no parameters, got {sorted(spec)}")
        pts = clip_box.sample(rng, n)
    elif name == "gaussian":
        mean = spec.pop("mean", 0.5 * (clip_box.lo + clip_box.hi))
        std = spec.pop("std", 0.25 * (clip_box.hi - clip_box.lo))
        if spec:
            raise ValidationError(f"unknown gaussian parameters {sorted(spec)}")
        pts = _draw_gaussian(rng, n, mean, std, clip_box)
    else:
        comps = spec.pop("components", None)
        if spec or not comps:
            raise ValidationError("mixture sampler needs a nonempty components list")
        comps = _parsed("components", lambda v: [(float(c["weight"]), c["mean"], c["std"])
                                                for c in v], comps)
        probs = np.array([w for w, _, _ in comps])
        if not np.all((probs > 0.0) & (probs < np.inf)):
            raise ValidationError("mixture component weights must be positive and finite")
        probs = probs / probs.sum()
        means = [_coords("mean", m, d) for _, m, _ in comps]
        stds = [_coords("std", sd, d) for _, _, sd in comps]
        pts = np.empty((0, d))
        for _ in range(_REJECTION_ROUNDS):
            idx = rng.choice(len(comps), size=n, p=probs)
            cand = np.empty((n, d))
            for k in range(len(comps)):
                sel = idx == k
                cand[sel] = means[k] + stds[k] * rng.standard_normal((int(sel.sum()), d))
            cand = cand[clip_box.contains(cand)]
            pts = np.concatenate([pts, cand])
            if pts.shape[0] >= n:
                pts = pts[:n]
                break
        else:
            raise ValidationError("mixture sampler kept missing the clip box")
    return make_discrete(pts, np.full(n, 1.0 / n))


def dominating_measure(members) -> DiscreteMeasure:
    """Uniform average of the members over the union of their supports."""
    return MeasureFamily(members).dominating


def _match_rows(support, points, missing=AbsoluteContinuityError) -> np.ndarray:
    """Last support row equal to each row of points; a point with none raises missing."""
    void = np.dtype((np.void, 8 * support.shape[1]))
    keys, wanted = (np.ascontiguousarray(a + 0.0).view(void).ravel() for a in (support, points))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    pos = np.maximum(np.searchsorted(keys, wanted, side="right") - 1, 0)
    off = keys[pos] != wanted
    if np.any(off):
        raise missing(f"point {points[np.argmax(off)].tolist()} is off the support")
    return order[pos]


def radon_nikodym(nu: DiscreteMeasure, mu: DiscreteMeasure) -> np.ndarray:
    """Density d(nu)/d(mu) over all of mu.points, zero off nu: a family density in dense form."""
    if nu.dimension != mu.dimension:
        raise ValidationError("measures must share one dimension")
    rows = _match_rows(mu.points, nu.points)
    return np.bincount(rows, nu.weights / mu.weights[rows], mu.support_size)


@dataclass(frozen=True, eq=False)
class MeasureFamily:
    """Member measures, and their dominating measure mu, rows and densities, all derived.

    ``rows[i]`` are member i's rows of mu, each once and increasing, and
    ``densities[i]`` is d(nu_i)/d(mu) on those rows only (0 off them);
    ``radon_nikodym(nu_i, mu)`` gives the dense form over all of mu.
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
                               np.concatenate([m.weights / len(members) for m in members]))
        ends = np.cumsum([m.support_size for m in members])[:-1]
        rows, densities = [], []
        for nu, j in zip(members, np.split(found, ends)):
            if np.any(j < 0):
                raise AbsoluteContinuityError("a member point has no dominating mass")
            unique, inv = np.unique(j, return_inverse=True)  # a repeated point's mass is its total
            rows.append(unique)
            densities.append(np.bincount(inv, nu.weights / mu.weights[j]))
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

    def density_norms(self, psi: YoungFunction, tol: float) -> np.ndarray:
        """Every density's psi gauge norm on its member's rows (psi(0) = 0), in one solve."""
        from .orlicz import _gauge_solve

        w = [self.dominating.weights[j] for j in self.rows]
        return _gauge_solve(psi, np.concatenate(self.densities), np.concatenate(w),
                            [j.size for j in self.rows], tol)[1]

    def integrals(self, g) -> np.ndarray:
        """Each member's integral of g, given on mu's support: sum of d * g * mu on its rows."""
        weighted = np.asarray(g, dtype=np.float64) * self.dominating.weights
        return np.array([d @ weighted[j] for d, j in zip(self.densities, self.rows)])


@dataclass(frozen=True)
class DlvpCertificate:
    psi: YoungFunction
    per_member_norms: np.ndarray = field(repr=False)
    sup_norm: float = 0.0


def default_psi_candidates() -> list[YoungFunction]:
    return [power(2.0, 0.5), power(1.5, 1.0 / 1.5), power(3.0, 1.0 / 3.0), entropy()]


def dlvp_certificate(family: MeasureFamily, psi_candidates=None) -> DlvpCertificate:
    """The first candidate psi, with its member density gauge norms and their supremum.

    A gauge norm on a finite support is finite, so the first candidate always
    certifies (a norm past the double range raises BracketingError).  The norms
    are resolved to the pipeline's gauge tolerance in one solve, each on its
    member's rows, so ``verify_robust_bound`` may take them from the certificate.

    Every candidate must be an N-function; cataloged kinds are checked
    structurally and power with p = 1 is refused.
    """
    from .orlicz import _GAUGE_TOL

    candidates = list(psi_candidates) if psi_candidates is not None else default_psi_candidates()
    if not candidates:
        raise ValidationError("need at least one candidate psi")
    for psi in candidates:
        if is_structural_n_function(psi) is False:
            raise ValidationError(f"candidate {psi.kind} with p={psi.p} is not an N-function")
    norms = family.density_norms(candidates[0], _GAUGE_TOL)
    return DlvpCertificate(candidates[0], norms, float(np.max(norms)))
