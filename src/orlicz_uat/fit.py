"""Targets and candidate approximators: random-feature least squares.

The fitter draws hidden features deterministically from a seed, one child
seed stream per feature, so the features for width w are a prefix of the
features for any larger width; numpy's seeding hash runs on arrays over all
the features at once.  Readouts solve a ridge-regularized weighted least-squares
problem on the support of the measure.  Nothing here optimizes a gauge norm
directly; gauge errors are evaluated after the fact.

There is one fit path, ``FeatureCache``: one seed's design matrix on the
support, feature-major with the intercept's row first, and the weighted Gram
matrix of the features drawn so far.  The width/seed schedule of the ``fit``
curve and the robust run, ``robust._schedule``, makes one cache per seed,
which draws all the features of the widest width in the caller's thread;
widening then activates only the new features and adds only the Gram
border, summed over fixed blocks of support points in block order; a lone
``fit_random_features`` call grows a fresh cache once.  Every width's readout
comes from a Cholesky factorization of its own system, intercept last.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitSolverError, ValidationError, _count, _parsed
from .measure import DiscreteMeasure
from .net import _ROW_BLOCK, _ROW_PAD, Layer, Network, _apply_activation

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
        if _parsed("dim", _count, self.dim) < 1 or _parsed("out_dim", _count, self.out_dim) < 1:
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
    dim = _parsed("dim", _count, dim)  # before numpy sizes the center with it
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the PCG64 multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32, _MASK128 = 0xCA01F9DD, 0x4973F715, 2**32 - 1, 2**128 - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _child_states(seed: int, keys: np.ndarray):
    """(state, inc) of ``PCG64(SeedSequence(seed, spawn_key=(k,)))`` for each k of keys.

    SeedSequence's own hash: the seed's 32-bit words, zero-padded to the pool of
    4 as a spawn key asks, fill the pool on Python ints; its words past the pool
    and each key's word are mixed in on uint32 arrays, which wrap as numpy's C does.
    """
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value, hash_const = value ^ hash_const, hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
        return r ^ r >> 16

    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 128), 32)]
    pool = [hashmix(w) for w in words[:4]]
    for src, dst in ((src, dst) for src in range(4) for dst in range(4) if src != dst):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in [*words[4:], keys.astype(np.uint32)]:
        pool = [mix(p, hashmix(word)) for p in pool]
    hash_const = _INIT_B
    out = np.array([hashmix(pool[i % 4], _MULT_B) for i in range(8)], dtype=np.uint64)
    for s0, s1, i0, i1 in zip(*(out[0::2] | out[1::2] << np.uint64(32)).tolist()):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        yield (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128, inc


def draw_features(dim: int, width: int, seed: int, lo, hi):
    """Standard normal weights; each kink anchored uniformly inside [lo, hi].

    Feature k is drawn from child k of the seed, ``SeedSequence(seed).spawn(n)[k]``
    for any n > k, so widening the draw extends it without disturbing earlier
    features.  One generator draws each child from its state, which
    ``_child_states`` hashes as numpy does; the oracle test in
    ``tests/test_fit.py`` spawns numpy's own.  Keys past 32 bits are refused.
    """
    dim, width, seed = (_parsed(key, _count, value) for key, value in
                        (("dim", dim), ("width", width), ("seed", seed)))
    if width > 2**32:
        raise ValidationError(f"width {width} is past the 2**32 features a seed spawns")
    # an overflowing side is refused here, a non-finite bias by the fit
    with np.errstate(over="ignore", invalid="ignore"):
        side = hi - lo
        if not np.all(np.isfinite(side)):
            raise ValidationError("the support's bounding box has a side past the double range")
        W, U = np.empty((width, dim)), np.empty((width, dim))
        rng = np.random.default_rng(0)
        for row, (state, inc) in enumerate(_child_states(seed, np.arange(width))):
            rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state, "inc": inc}}
            rng.standard_normal(out=W[row])
            rng.random(out=U[row])
        return W, -np.vecdot(W, lo + side * U)  # the anchor is Generator.uniform's own formula


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
    the target's values on the support, evaluated once by the caller.  All
    ``capacity`` features are drawn on construction: a fit runs numpy calls alone.
    The activation and the ridge (finite, nonnegative) are checked here, before
    any schedule width runs.
    """

    def __init__(self, mu: DiscreteMeasure, values: np.ndarray, activation: str,
                 seed: int, ridge: float, capacity: int):
        if activation not in _FIT_ACTS:
            raise ValidationError(f"bad value for activation: {activation!r:.80}")
        if not 0.0 <= _parsed("ridge", float, ridge) < math.inf:
            raise ValidationError(f"bad value for ridge: {ridge!r:.80}")
        self.mu, self.activation, self.seed, self.ridge = mu, activation, seed, float(ridge)
        self._capacity, self._width = capacity, 0
        # one strided pass per coordinate: no row-by-row loop, and no copy
        self._box = (np.array([x.min() for x in mu.points.T]),
                     np.array([x.max() for x in mu.points.T]))
        pad = ((0, -values.shape[0] % _ROW_PAD), (0, 0))
        self._points = np.pad(mu.points, pad)
        self._weights = np.pad(mu.weights, pad[0])
        self._weighted_values = np.pad(values * mu.weights[:, None], pad)
        try:
            self._design = np.empty((capacity + 1, self._points.shape[0]))
            self._gram = np.empty((capacity + 1, capacity + 1))
        except MemoryError:
            raise ValidationError(f"width {capacity} needs a {capacity + 1} x {len(self._points)} "
                                  "design matrix, past the memory") from None
        self._design[0] = 1.0
        self._rhs = np.empty((capacity + 1, values.shape[1]))
        # every feature is drawn here, so growing the cache is numpy work alone
        self._W, self._b = draw_features(mu.dimension, capacity, seed, *self._box)

    def _grow(self, width: int):
        w0, X, wts, D = self._width, self._points, self._weights, self._design
        W, b = self._W[w0:width], self._b[w0:width]
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
    cache of capacity ``width`` is made, which checks the activation and ridge.
    """
    width = _parsed("width", _count, width)
    if width < 1:
        raise ValidationError("width must be at least 1")
    if f.dim != mu.dimension:
        raise ValidationError("target and measure dimensions disagree")
    seed = _parsed("seed", _count, seed)
    if cache is None:
        cache = FeatureCache(mu, f.evaluate(mu.points), activation, seed, ridge, width)
    elif (cache.mu is not mu or cache.activation != activation or cache.seed != seed
          or cache.ridge != ridge):
        raise ValidationError("the feature cache belongs to another fit")
    return cache.fit(width)

