"""Test oracles and hypothesis checkers that the pipeline never runs.

The robust pipeline fixes case iv's additive family (the affine maps) and its
weight 1 + |x|^2, so it samples no functional-input hypothesis; the checks of
the additive-family axioms and of weight compatibility live here, as do the
sampled Young and Holder inequalities, the dense Radon-Nikodym density, a
lookup target on a measure's support, and a box grid.  Callers are tests, so
no input is validated beyond what the library objects they build check.
"""
import math
from dataclasses import dataclass

import numpy as np

from orlicz_uat import AbsoluteContinuityError, FunctionTable, TargetFunction, ValidationError
from orlicz_uat.orlicz import _HOLDER_SLACK, _point_norms, gauge_norm


def box_grid(box, per_dim: int) -> np.ndarray:
    """Cartesian product grid with per_dim points per coordinate of box."""
    axes = [np.linspace(box.lo[i], box.hi[i], per_dim) for i in range(box.dim)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def match_rows(support, points, missing=AbsoluteContinuityError) -> np.ndarray:
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


def radon_nikodym(nu, mu) -> np.ndarray:
    """Density d(nu)/d(mu) over all of mu.points, zero off nu: a family density in dense form."""
    rows = match_rows(mu.points, nu.points)
    return np.bincount(rows, nu.weights / mu.weights[rows], mu.support_size)


def from_table(mu, values) -> TargetFunction:
    """Lookup target defined only on the support of mu; a point off it raises ValidationError."""
    table = FunctionTable(values)
    return TargetFunction("table", mu.dimension, table.output_dim,
                          lambda X: table.values[match_rows(mu.points, X, ValidationError)])


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    holds: bool
    norm_f: float
    norm_g: float


def holder_check(phi, psi, mu, f, g) -> HolderReport:
    """Generalized Holder inequality with constant two:

    sum ||f|| * ||g|| dmu <= 2 * gauge_norm(phi, f) * gauge_norm(psi, g).
    """
    nf, ng = gauge_norm(phi, mu, f).value, gauge_norm(psi, mu, g).value
    lhs = float(np.sum(_point_norms(f, "euclidean") * _point_norms(g, "euclidean")
                       * mu.weights))
    rhs = 2.0 * nf * ng
    return HolderReport(lhs, rhs, lhs <= rhs * (1.0 + _HOLDER_SLACK), nf, ng)


@dataclass(frozen=True)
class YoungInequalityReport:
    max_violation: float
    witnesses: tuple
    sample_count: int


def check_young_inequality(phi, psi, sample_count: int = 10_000, seed: int = 0,
                           sample_range: float = 10.0) -> YoungInequalityReport:
    """Sampled check of x*y <= phi(x) + psi(y)."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-sample_range, sample_range, sample_count)
    ys = rng.uniform(-sample_range, sample_range, sample_count)
    gap = xs * ys - phi(xs) - psi(ys)
    witnesses = tuple((float(xs[i]), float(ys[i]), float(gap[i]))
                      for i in np.argsort(gap)[-3:] if gap[i] > 0.0)
    return YoungInequalityReport(max(0.0, float(np.max(gap))), witnesses, sample_count)


@dataclass(frozen=True, eq=False)
class AffineMap:
    a: np.ndarray
    b: float

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(X, dtype=np.float64)) @ self.a + self.b


class AffineFamily:
    """All maps x -> a.x + b on R^dim."""

    def __init__(self, dim: int):
        self.dim = dim

    def sample_member(self, rng: np.random.Generator) -> AffineMap:
        return AffineMap(rng.standard_normal(self.dim), float(rng.standard_normal()))

    def add(self, m1: AffineMap, m2: AffineMap):
        return AffineMap(m1.a + m2.a, m1.b + m2.b)

    def constant(self, value: float):
        return AffineMap(np.zeros(self.dim), value)

    def separating_member(self, x1: np.ndarray, x2: np.ndarray):
        return AffineMap(np.asarray(x1, dtype=np.float64) - np.asarray(x2, dtype=np.float64), 0.0)


class LinearOnlyFamily(AffineFamily):
    """Maps x -> a.x with no constant term; cannot represent constants."""

    def sample_member(self, rng):
        return AffineMap(rng.standard_normal(self.dim), 0.0)

    def add(self, m1, m2):
        return AffineMap(m1.a + m2.a, 0.0)

    def constant(self, value):
        return AffineMap(np.zeros(self.dim), 0.0) if value == 0.0 else None


class ZeroFamily(LinearOnlyFamily):
    """The single map x -> 0; cannot separate points."""

    def sample_member(self, rng):
        return AffineMap(np.zeros(self.dim), 0.0)

    def add(self, m1, m2):
        return AffineMap(np.zeros(self.dim), 0.0)

    def separating_member(self, x1, x2):
        return None


@dataclass(frozen=True)
class AdditiveFamilyReport:
    closed_under_addition: bool
    point_separating: bool
    contains_constants: bool


def check_additive_family(family, probe_points, seed: int = 0,
                          pair_samples: int = 8) -> AdditiveFamilyReport:
    """Sampled verdicts for the three additive-family axioms."""
    pts = np.atleast_2d(np.asarray(probe_points, dtype=np.float64))
    rng = np.random.default_rng(seed)
    closed = True
    for _ in range(pair_samples):
        m1 = family.sample_member(rng)
        m2 = family.sample_member(rng)
        m12 = family.add(m1, m2)
        want = m1(pts) + m2(pts)
        if m12 is None or (np.max(np.abs(m12(pts) - want))
                           > 1e-12 * max(1.0, float(np.max(np.abs(want))))):
            closed = False
            break
    separating = True
    for i in range(pts.shape[0]):
        for j in range(i + 1, pts.shape[0]):
            if np.array_equal(pts[i], pts[j]):
                continue
            h = family.separating_member(pts[i], pts[j])
            scale = 1.0 + float(np.max(np.abs(pts[i])) + np.max(np.abs(pts[j])))
            if h is None or abs(float(h(pts[i:i + 1])[0] - h(pts[j:j + 1])[0])) <= 1e-9 * scale:
                separating = False
                break
        if not separating:
            break
    constants = True
    for v in (1.0, -2.5, math.pi):
        h = family.constant(v)
        if h is None or np.max(np.abs(h(pts) - v)) > 1e-12 * max(1.0, abs(v)):
            constants = False
            break
    return AdditiveFamilyReport(closed, separating, constants)


def quadratic_weight(X: np.ndarray) -> np.ndarray:
    """Admissible weight 1 + ||x||^2 on R^d."""
    pts = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return 1.0 + np.sum(pts * pts, axis=1)


def quadratic_weight_scalar(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return 1.0 + z * z


@dataclass(frozen=True)
class WeightCompatReport:
    sup_ratio: float
    admissible_weight: bool
    ring_min_w: float
    inner_min_w: float


def check_weight_compatibility(h_members, weight_w, weight_w1,
                               probe_points) -> WeightCompatReport:
    """sup over members and probes of w1(h(x)) / w(x), plus a weight check.

    The admissibility proxy asks that the input weight grows outward: hull
    points of the probe cloud are pushed out to three times their distance
    from the cloud's center, and the weight's minimum over that ring must
    exceed its minimum over the probes themselves.  Constant and decaying
    weights fail; weights with bounded sublevel sets pass on any probe box
    around which they keep growing.
    """
    pts = np.atleast_2d(np.asarray(probe_points, dtype=np.float64))
    w = np.asarray(weight_w(pts), dtype=np.float64).ravel()
    sup_ratio = 0.0
    for h in h_members:
        w1 = np.asarray(weight_w1(np.asarray(h(pts), dtype=np.float64).ravel()),
                        dtype=np.float64).ravel()
        sup_ratio = max(sup_ratio, float(np.max(w1 / w)))
    col_lo, col_hi = np.min(pts, axis=0), np.max(pts, axis=0)
    center = 0.5 * (col_lo + col_hi)
    on_hull = np.any((pts == col_lo) | (pts == col_hi), axis=1)
    ring_w = np.asarray(weight_w(center + 3.0 * (pts[on_hull] - center)),
                        dtype=np.float64).ravel()
    inner_min, ring_min = float(np.min(w)), float(np.min(ring_w))
    return WeightCompatReport(sup_ratio, ring_min > inner_min, ring_min, inner_min)
