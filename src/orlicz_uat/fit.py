"""Candidate approximators: random-feature least squares.

The fitter draws hidden features deterministically from a seed, one child
seed stream per feature, so the features for width w are a prefix of the
features for any larger width.  Readouts solve a ridge-regularized weighted
least-squares problem on the support of the measure.  Nothing here optimizes
a gauge norm directly; gauge errors are evaluated after the fact.

There is one fit path, ``FeatureCache``: one seed's hidden activations on
the support and the weighted Gram matrix of the features drawn so far.  A
width/seed schedule keeps one cache per seed and grows it, so widening draws,
activates and weights only the new features and adds only the Gram border;
a standalone ``fit_random_features`` call grows a fresh cache once.  Every
width's readout comes from a Cholesky factorization of its own assembled
system, with the intercept last.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitSolverError, ValidationError, _count, _parsed
from .measure import DiscreteMeasure, _match_rows
from .net import _ROW_BLOCK, Layer, Network, _apply_activation
from .orlicz import FunctionTable, gauge_norm, l1_norm

_FIT_ACTS = ("relu", "sigmoid", "tanh")
_DEFAULT_RIDGE = 1e-10


@dataclass(frozen=True, eq=False)
class TargetFunction:
    """A named vector field with an optional declared sup-norm bound."""

    name: str
    dim: int
    out_dim: int
    fn: object
    bound: float | None = None

    def __post_init__(self):
        if self.dim < 1 or self.out_dim < 1:
            raise ValidationError("target dimensions must be positive")
        if self.bound is not None and not (self.bound > 0.0 and math.isfinite(self.bound)):
            raise ValidationError("a declared bound must be finite and positive")

    def evaluate(self, X) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if pts.shape[1] != self.dim:
            raise ValidationError("target input dimension mismatch")
        # non-finite output is rejected below, so numpy need not warn of it
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.asarray(self.fn(pts), dtype=np.float64)
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        if out.shape != (pts.shape[0], self.out_dim):
            raise ValidationError("target output shape mismatch")
        if not np.all(np.isfinite(out)):
            raise ValidationError("target produced non-finite values")
        return out


def sin_product(dim: int = 1, frequency: float = 1.0) -> TargetFunction:
    """prod_i sin(2 pi frequency x_i); bounded by 1."""
    frequency = float(frequency)
    def fn(X):
        return np.prod(np.sin(2.0 * np.pi * frequency * X), axis=1)
    return TargetFunction("sin_product", dim, 1, fn, bound=1.0)


def gaussian_blob(dim: int = 1, center=None, sigma: float = 0.25) -> TargetFunction:
    if not (sigma > 0.0):
        raise ValidationError("blob width must be positive")
    c = np.full(dim, 0.5) if center is None else np.asarray(center, dtype=np.float64)
    if c.shape != (dim,):
        raise ValidationError("blob center dimension mismatch")
    def fn(X):
        d2 = np.sum((X - c) ** 2, axis=1)
        return np.exp(-d2 / (2.0 * sigma * sigma))
    return TargetFunction("gaussian_blob", dim, 1, fn, bound=1.0)


def smooth_step(dim: int = 1, rate: float = 8.0, threshold: float = 0.5) -> TargetFunction:
    """Logistic ramp in the first coordinate; bounded by 1."""
    if not (rate > 0.0):
        raise ValidationError("step rate must be positive")
    threshold = float(threshold)
    def fn(X):
        return 1.0 / (1.0 + np.exp(-rate * (X[:, 0] - threshold)))
    return TargetFunction("smooth_step", dim, 1, fn, bound=1.0)


def constant(dim: int = 1, value: float = 1.0) -> TargetFunction:
    def fn(X):
        return np.full(X.shape[0], float(value))
    bound = abs(float(value)) if value != 0.0 else None
    return TargetFunction("constant", dim, 1, fn, bound=bound)


def from_table(mu: DiscreteMeasure, values, bound: float | None = None) -> TargetFunction:
    """Lookup target defined only on the support of mu."""
    table = FunctionTable.from_values(values)
    if table.length != mu.support_size:
        raise ValidationError("table length disagrees with the support size")
    return TargetFunction("table", mu.dimension, table.output_dim,
                          lambda X: table.values[_match_rows(mu.points, X, ValidationError)],
                          bound=bound)


_TARGET_BUILDERS = {
    "sin_product": sin_product,
    "gaussian_blob": gaussian_blob,
    "smooth_step": smooth_step,
    "constant": constant,
}


def make_target(spec: dict) -> TargetFunction:
    if not isinstance(spec, dict) or "name" not in spec:
        raise ValidationError("target spec needs a name")
    params = dict(spec)
    name = params.pop("name")
    if not isinstance(name, str) or name not in _TARGET_BUILDERS:
        raise ValidationError(f"unknown target {name!r}")
    if "dim" in params:
        params["dim"] = _parsed("dim", _count, params["dim"])
    try:
        return _TARGET_BUILDERS[name](**params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad parameters for target {name!r}: {exc}") from None


def _support_box(mu: DiscreteMeasure):
    return np.min(mu.points, axis=0), np.max(mu.points, axis=0)


def draw_features(dim: int, width: int, seed: int, lo, hi, start: int = 0):
    """Standard normal weights; each kink anchored uniformly inside [lo, hi].

    Feature k is drawn from child stream k of the seed, so widening the
    draw extends it without disturbing earlier features.  Returns features
    start..width-1.
    """
    W = np.empty((width - start, dim))
    b = np.empty(width - start)
    children = np.random.SeedSequence(seed).spawn(width)
    for row, k in enumerate(range(start, width)):
        rng = np.random.default_rng(children[k])
        W[row] = rng.standard_normal(dim)
        anchor = rng.uniform(lo, hi)
        b[row] = -float(W[row] @ anchor)
    return W, b


class FeatureCache:
    """One seed's random-feature least-squares system on one support, grown in place.

    Holds the design matrix on the support as one C-ordered
    ``n x (capacity + 1)`` array: column 0 is the intercept's constant 1 and
    column k is hidden feature k - 1.  The weighted Gram matrix and
    right-hand sides of the columns filled so far are kept in the same
    order.  ``values`` are the target's values on the support, evaluated
    once by the caller.
    """

    def __init__(self, mu: DiscreteMeasure, values: np.ndarray, activation: str,
                 seed: int, ridge: float, capacity: int):
        self.mu, self.activation, self.seed, self.ridge = mu, activation, seed, ridge
        self._capacity, self._width = capacity, 0
        self._box = _support_box(mu)
        self._weighted_values = values * mu.weights[:, None]
        self._W = np.empty((capacity, mu.dimension))
        self._b = np.empty(capacity)
        self._design = np.empty((values.shape[0], capacity + 1))
        self._design[:, 0] = 1.0
        self._gram = np.empty((capacity + 1, capacity + 1))
        self._rhs = np.empty((capacity + 1, values.shape[1]))

    @staticmethod
    def _slots(width: int) -> list:
        """Columns of the system for ``width`` features: the features, then the intercept."""
        return [*range(1, width + 1), 0]

    def _grow(self, width: int):
        w0, X, wts = self._width, self.mu.points, self.mu.weights
        W, b = draw_features(self.mu.dimension, width, self.seed, *self._box, start=w0)
        self._W[w0:width], self._b[w0:width] = W, b
        new = slice(w0 + 1, width + 1)
        # support points activated per block, which only bounds the temporaries
        for start in range(0, X.shape[0], _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            self._design[rows, new] = _apply_activation(self.activation, X[rows] @ W.T + b)
        if w0 == 0:
            # built from [H | 1] in one product, as a fresh fit always was,
            # so that every one-step fit keeps its exact bits
            slots = self._slots(width)
            Phi = np.hstack([self._design[:, 1:width + 1], np.ones((X.shape[0], 1))])
            self._gram[np.ix_(slots, slots)] = Phi.T @ (Phi * wts[:, None])
            self._rhs[slots] = Phi.T @ self._weighted_values
        else:
            # the border, intercept row included, in one product; the upper
            # triangle, which the factorization reads, is written last
            border = self._design[:, :width + 1].T @ (self._design[:, new] * wts[:, None])
            self._gram[new, :width + 1] = border.T
            self._gram[:width + 1, new] = border
            self._rhs[new] = self._design[:, new].T @ self._weighted_values
        self._width = width

    def fit(self, width: int) -> Network:
        """The readout for the first ``width`` features, widening the cache if needed."""
        if width > self._capacity:
            raise ValidationError("width exceeds the capacity of the feature cache")
        if width > self._width:
            with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite below
                self._grow(width)
        slots = self._slots(width)
        G = self._gram[np.ix_(slots, slots)]
        # the Gram matrix scales with the measure's mass, and so does the ridge
        G[np.diag_indices_from(G)] += self.ridge * self.mu.total_mass
        rhs = self._rhs[slots]
        # the factorization passes nan and inf through rather than refuse them
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(rhs))):
            raise FitSolverError("non-finite normal equations")
        try:
            # the upper factor reads the upper triangle, which _grow writes last
            U = np.linalg.cholesky(G, upper=True)
            coef = np.linalg.solve(U, np.linalg.solve(U.T, rhs))
        except np.linalg.LinAlgError as exc:
            raise FitSolverError(f"singular normal equations ({exc})") from None
        readout = coef[:width].T
        bias = coef[width]
        hidden = Layer(self._W[:width].copy(), self._b[:width].copy(), self.activation)
        return Network((hidden, Layer(readout, bias, "none")))

    def predict(self, net: Network) -> np.ndarray:
        """Values on the support of a network ``fit`` returned, from the cached features.

        This is the network's own last-layer expression applied to the
        cached hidden activations.
        """
        out = net.layers[-1]
        return self._design[:, 1:out.in_dim + 1] @ out.A.T + out.b


def fit_random_features(f: TargetFunction, mu: DiscreteMeasure, width: int,
                        activation: str = "relu", seed: int = 0,
                        ridge: float = _DEFAULT_RIDGE,
                        cache: FeatureCache | None = None) -> Network:
    """Weighted ridge least squares of f on random features over support(mu).

    The intercept column is always included and lands in the readout bias.
    The ridge is relative: ``ridge * mu.total_mass`` is added to the
    diagonal of the weighted Gram matrix, so scaling the weights moves the
    fit only by rounding.
    ``cache`` is a ``FeatureCache`` of this same problem (mu, activation,
    seed, ridge and the values of f) to grow in place; without one a fresh
    cache of capacity ``width`` is made.
    """
    if width < 1:
        raise ValidationError("width must be at least 1")
    if activation not in _FIT_ACTS:
        raise ValidationError(f"activation must be one of {_FIT_ACTS}")
    if not (0.0 <= ridge < math.inf):
        raise ValidationError("ridge must be finite and nonnegative")
    if f.dim != mu.dimension:
        raise ValidationError("target and measure dimensions disagree")
    seed = _parsed("seed", _count, seed)
    if cache is None:
        cache = FeatureCache(mu, f.evaluate(mu.points), activation, seed, ridge, width)
    elif (cache.mu is not mu or cache.activation != activation or cache.seed != seed
          or cache.ridge != ridge):
        raise ValidationError("the feature cache belongs to another fit")
    return cache.fit(width)


def residual_table(f: TargetFunction, eta, mu: DiscreteMeasure) -> FunctionTable:
    return FunctionTable.from_values(f.evaluate(mu.points) - eta.evaluate_batch(mu.points))


def l2_residual(f: TargetFunction, eta, mu: DiscreteMeasure) -> float:
    r = residual_table(f, eta, mu).values
    return float(np.sqrt(np.sum(np.sum(r * r, axis=1) * mu.weights)))


@dataclass(frozen=True)
class CurveRow:
    width: int
    seed: int
    gauge_error: float
    l1_error: float


def approximation_curve(f: TargetFunction, mu: DiscreteMeasure, phi,
                        widths, activation: str = "relu", seeds=(0, 1, 2),
                        ridge: float = _DEFAULT_RIDGE) -> list:
    """One row per (width, seed): gauge and L1 errors of the fitted residual.

    Each seed's fit grows through the widths in one ``FeatureCache``.
    """
    widths = [int(w) for w in widths]
    values = f.evaluate(mu.points)
    capacity = max([0, *widths])
    caches = [FeatureCache(mu, values, activation, int(seed), ridge, capacity) for seed in seeds]
    rows = []
    for width in widths:
        for cache in caches:
            eta = fit_random_features(f, mu, width, activation, cache.seed, ridge, cache)
            resid = FunctionTable.from_values(values - cache.predict(eta))
            g = gauge_norm(phi, mu, resid).value
            l1 = l1_norm(mu, resid)
            rows.append(CurveRow(width, cache.seed, g, l1))
    return rows


def curve_csv_rows(rows) -> tuple:
    """CSV form of a curve; the reserved fit_millis column is pinned to 0.

    A wall-clock column would make otherwise identical runs produce
    different bytes, so reproducibility wins and the column stays constant.
    """
    header = ("width", "seed", "gauge_error", "l1_error", "fit_millis")
    body = [(r.width, r.seed, r.gauge_error, r.l1_error, 0) for r in rows]
    return header, body
