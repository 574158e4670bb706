"""Targets and candidate approximators: random-feature least squares.

The fitter draws hidden features deterministically from a seed, one child
seed stream per feature, so the features for width w are a prefix of the
features for any larger width.  Readouts solve a ridge-regularized weighted
least-squares problem on the support of the measure.  Nothing here optimizes
a gauge norm directly; gauge errors are evaluated after the fact.

There is one fit path, ``FeatureCache``: one seed's design matrix on the
support, feature-major with the intercept's row first, and the weighted Gram
matrix of the features drawn so far.  The width/seed schedule of the ``fit``
curve and the robust run, ``robust._schedule``, grows one cache per seed, so
widening draws and activates only the new features and adds only the Gram
border, summed over fixed blocks of support points in block order; a lone
``fit_random_features`` call grows a fresh cache once.  Every width's readout
comes from a Cholesky factorization of its own system, intercept last.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitSolverError, ValidationError, _count, _parsed
from .measure import DiscreteMeasure, _match_rows
from .net import _ROW_BLOCK, _ROW_PAD, Layer, Network, _apply_activation
from .orlicz import FunctionTable

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
    table = FunctionTable(values)
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


def draw_features(dim: int, width: int, seed: int, lo, hi, start: int = 0):
    """Standard normal weights; each kink anchored uniformly inside [lo, hi].

    Feature k is drawn from child k of the seed, ``SeedSequence(seed).spawn(n)[k]``
    for any n > k, so widening the draw extends it without disturbing earlier
    features.  Returns features start..width-1.
    """
    side = hi - lo
    if not np.all(np.isfinite(side)):
        raise ValidationError("the support's bounding box has a side past the double range")
    W = np.empty((width - start, dim))
    b = np.empty(width - start)
    for row, k in enumerate(range(start, width)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        W[row] = rng.standard_normal(dim)
        anchor = lo + side * rng.random(dim)  # Generator.uniform's own formula
        b[row] = -float(W[row] @ anchor)
    return W, b


class FeatureCache:
    """One seed's random-feature least-squares system on one support, grown in place.

    Holds the design matrix feature-major, as one C-ordered
    ``(capacity + 1) x n`` array: row 0 is the intercept's constant 1 and
    row k is hidden feature k - 1.  Column j is support point j; the columns
    are padded with zero-weight origins to a multiple of ``_ROW_PAD``, as a
    network evaluation pads its blocks, so that ``predict`` rounds as the
    network does.  The weighted Gram matrix and right-hand sides of the rows
    filled so far are kept in the same order, each a sum of partials over
    fixed ``_ROW_BLOCK``-column blocks added in block order.  ``values`` are
    the target's values on the support, evaluated once by the caller.
    """

    def __init__(self, mu: DiscreteMeasure, values: np.ndarray, activation: str,
                 seed: int, ridge: float, capacity: int):
        self.mu, self.activation, self.seed, self.ridge = mu, activation, seed, ridge
        self._capacity, self._width = capacity, 0
        # one strided pass per coordinate: no row-by-row loop, and no copy
        self._box = (np.array([x.min() for x in mu.points.T]),
                     np.array([x.max() for x in mu.points.T]))
        pad = ((0, -values.shape[0] % _ROW_PAD), (0, 0))
        self._points = np.pad(mu.points, pad)
        self._weights = np.pad(mu.weights, pad[0])
        self._weighted_values = np.pad(values * mu.weights[:, None], pad)
        self._W = np.empty((capacity, mu.dimension))
        self._b = np.empty(capacity)
        self._design = np.empty((capacity + 1, self._points.shape[0]))
        self._design[0] = 1.0
        self._gram = np.empty((capacity + 1, capacity + 1))
        self._rhs = np.empty((capacity + 1, values.shape[1]))

    def _grow(self, width: int):
        w0, X, wts, D = self._width, self._points, self._weights, self._design
        W, b = draw_features(self.mu.dimension, width, self.seed, *self._box, start=w0)
        self._W[w0:width], self._b[w0:width] = W, b
        # the first step adds the intercept row too, so its border is the whole system
        new = slice(w0 + 1 if w0 else 0, width + 1)
        border = np.zeros((width + 1, new.stop - new.start))
        rhs = np.zeros((new.stop - new.start, self._rhs.shape[1]))
        # partial sums over fixed column blocks, added in block order: bounded
        # temporaries, and one summation order however a run is scheduled
        for start in range(0, X.shape[0], _ROW_BLOCK):
            cols = slice(start, start + _ROW_BLOCK)
            z = D[w0 + 1:width + 1, cols]
            np.matmul(W, X[cols].T, out=z)
            z += b[:, None]
            _apply_activation(self.activation, z)
            border += D[:width + 1, cols] @ (D[new, cols] * wts[cols]).T
            rhs += D[new, cols] @ self._weighted_values[cols]
        # the upper triangle, which the factorization reads, is written last
        self._gram[new, :width + 1] = border.T
        self._gram[:width + 1, new] = border
        self._rhs[new] = rhs
        self._width = width

    def fit(self, width: int) -> Network:
        """The readout for the first ``width`` features, widening the cache if needed."""
        if width > self._capacity:
            raise ValidationError("width exceeds the capacity of the feature cache")
        if width > self._width:
            with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite below
                self._grow(width)
        slots = [*range(1, width + 1), 0]  # the features, then the intercept
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
        hidden = Layer(self._W[:width], self._b[:width], self.activation)
        return Network((hidden, Layer(readout, bias, "none")))

    def predict(self, net: Network) -> np.ndarray:
        """Values on the support of a network ``fit`` returned, from the cached features.

        This is the network's own last-layer expression applied to the
        cached hidden activations.
        """
        out = net.layers[-1]
        return (out.A @ self._design[1:out.in_dim + 1])[:, :self.mu.support_size].T + out.b


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
    return FunctionTable(f.evaluate(mu.points) - eta.evaluate_batch(mu.points))
