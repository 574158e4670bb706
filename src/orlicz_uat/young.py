"""Young-function algebra.

A Young function is an even, convex phi: R -> [0, inf) with phi(0) = 0 and
phi(x) -> inf as |x| -> inf.  An N-function additionally satisfies
phi(x)/x -> 0 at zero and phi(x)/x -> inf at infinity, with phi(x) = 0 only
at x = 0.  The catalog covers

    power            scale * |x|**p            (p >= 1, scale > 0)
    exp_minus_linear exp(|x|) - |x| - 1
    entropy          (1 + |x|) * log(1 + |x|) - |x|
    tabulated        piecewise-linear convex interpolation of sampled values

The complementary (convex conjugate) function is

    psi(y) = sup_{x >= 0} (x * |y| - phi(x)),

returned in closed form for cataloged pairs and otherwise as a tabulated
function on an ordinate grid.  The conjugate of a tabulated function is
exact there: its supremum sits at a knot, psi(y) = max_k (g_k y - v_k)
(the discrete Legendre transform; Lucet, Numer. Algorithms 16, 1997).
A cataloged function tabulated on request (numeric=True) is its closed-form
conjugate sampled on the grid.  Only finite-valued functions are
representable; conjugates that jump to infinity, or overflow on the grid,
raise UnboundedConjugateError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnboundedConjugateError, ValidationError, _count, _frozen, _known, _parsed

POWER = "power"
EXP_MINUS_LINEAR = "exp_minus_linear"
ENTROPY = "entropy"
TABULATED = "tabulated"

_KINDS = (POWER, EXP_MINUS_LINEAR, ENTROPY, TABULATED)

# The closed forms expm1(r) - r and (1 + r) log1p(r) - r cancel for small r
# (a 2% error at r = 1e-14), so below a bound their Taylor series from r^2 on
# is summed.  Each bound keeps the closed form's error under 5e-15, and the
# terms dropped add under 1e-16 of the sum.
_SERIES = {EXP_MINUS_LINEAR: (0.05, [1.0 / math.factorial(k) for k in range(2, 10)]),
           ENTROPY: (0.1, [(-1.0) ** k / (k * (k - 1)) for k in range(2, 16)])}
_DEFAULT_CONJUGATE_GRID = (1e-6, 1e2, 1024)


def _small_by_series(r: np.ndarray, out: np.ndarray, kind: str) -> np.ndarray:
    """out, with its entries below kind's series bound taken from the series."""
    below, coefs = _SERIES[kind]
    small = np.flatnonzero(r < below)  # indices: a sparse boolean mask gathers slowly
    if small.size:
        rs = r[small]
        acc = np.zeros_like(rs)
        for coef in reversed(coefs):  # Horner's rule, in place
            acc *= rs
            acc += coef
        out[small] = acc * rs * rs
    return out


@dataclass(frozen=True, eq=False)
class YoungFunction:
    """One cataloged or tabulated Young function.

    Evaluation accepts scalars or arrays and always sees |x| first, so the
    result is exactly even.  Tabulated functions interpolate linearly between
    knots (the secant of the convex data) and extrapolate with the final
    slope beyond the last knot.
    """

    kind: str
    p: float | None = None
    scale: float | None = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown Young function kind {self.kind!r}")
        if self.kind == POWER:
            p = _parsed("p", float, self.p)
            if not math.isfinite(p) or p < 1.0:
                raise ValidationError("power kind needs finite p >= 1")
            s = 1.0 if self.scale is None else _parsed("scale", float, self.scale)
            if not math.isfinite(s) or s <= 0.0:
                raise ValidationError("power kind needs finite scale > 0")
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "scale", s)
        elif self.kind in (EXP_MINUS_LINEAR, ENTROPY):
            if self.p is not None or self.scale is not None:
                raise ValidationError(f"{self.kind} takes no parameters")
        else:
            self._init_tabulated()

    def _init_tabulated(self):
        if self.grid is None or self.values is None:
            raise ValidationError("tabulated kind needs grid and values")
        g = _parsed("grid", lambda a: np.asarray(a, dtype=np.float64).ravel(), self.grid)
        v = _parsed("values", lambda a: np.asarray(a, dtype=np.float64).ravel(), self.values)
        if g.size != v.size or g.size < 2:
            raise ValidationError("tabulated grid and values need equal length >= 2")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise ValidationError("tabulated data must be finite")
        if np.any(np.diff(g) <= 0.0) or g[0] < 0.0:
            raise ValidationError("tabulated grid must be strictly increasing and >= 0")
        if g[0] > 0.0:
            g = np.concatenate([[0.0], g])
            v = np.concatenate([[0.0], v])
        if v[0] != 0.0:
            raise ValidationError("tabulated values must satisfy phi(0) = 0")
        vscale = float(np.max(np.abs(v)))
        if np.any(np.diff(v) < -1e-9 * max(1.0, vscale)):
            raise ValidationError("tabulated values must be nondecreasing")
        slopes = np.diff(v) / np.diff(g)
        if np.any(np.diff(slopes) < -1e-9 * max(1.0, float(np.max(np.abs(slopes))))):
            raise ValidationError("tabulated values must be convex")
        if v[-1] <= 0.0:
            raise ValidationError("tabulated values must grow away from zero")
        object.__setattr__(self, "grid", _frozen(g, self.grid))
        object.__setattr__(self, "values", _frozen(v, self.values))

    def _eval_abs(self, r: np.ndarray) -> np.ndarray:
        """phi on a 1-d array r >= 0."""
        if self.kind == POWER:
            with np.errstate(over="ignore"):
                return self.scale * r**self.p
        if self.kind == EXP_MINUS_LINEAR:
            with np.errstate(over="ignore"):
                return _small_by_series(r, np.expm1(r) - r, self.kind)
        if self.kind == ENTROPY:
            return _small_by_series(r, (1.0 + r) * np.log1p(r) - r, self.kind)
        out = np.interp(r, self.grid, self.values)
        beyond = r > self.grid[-1]
        if np.any(beyond):
            s_last = (self.values[-1] - self.values[-2]) / (self.grid[-1] - self.grid[-2])
            out = np.where(beyond, self.values[-1] + s_last * (r - self.grid[-1]), out)
        return out

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = self._eval_abs(np.abs(arr).ravel()).reshape(arr.shape)
        if arr.ndim == 0:
            return float(out)
        return out

    def to_json_dict(self) -> dict:
        if self.kind == POWER:
            return {"kind": POWER, "p": self.p, "scale": self.scale}
        if self.kind == TABULATED:
            return {"kind": TABULATED, "grid": self.grid.tolist(),
                    "values": self.values.tolist()}
        return {"kind": self.kind}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "YoungFunction":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("Young function object needs a kind key")
        kind = obj["kind"]
        params = {POWER: ("p", "scale"), TABULATED: ("grid", "values")}.get(
            kind if isinstance(kind, str) else None, ())
        _known(obj, ("kind", *params), "Young function")
        return cls(kind, **{key: obj.get(key) for key in params})


def power(p: float, scale: float = 1.0) -> YoungFunction:
    return YoungFunction(POWER, p=p, scale=scale)


def exp_minus_linear() -> YoungFunction:
    return YoungFunction(EXP_MINUS_LINEAR)


def entropy() -> YoungFunction:
    return YoungFunction(ENTROPY)


def tabulated(grid, values) -> YoungFunction:
    return YoungFunction(TABULATED, grid=grid, values=values)


def is_structural_n_function(phi: YoungFunction) -> bool | None:
    """Exact N-function verdict where the kind decides it; None for tabulated."""
    if phi.kind == POWER:
        return phi.p > 1.0
    if phi.kind in (EXP_MINUS_LINEAR, ENTROPY):
        return True
    return None


def _resolve_grid(grid_spec) -> np.ndarray:
    if grid_spec is None:
        lo, hi, n = _DEFAULT_CONJUGATE_GRID
        return np.geomspace(lo, hi, n)
    if isinstance(grid_spec, tuple) and len(grid_spec) == 3:
        lo, hi, n = _parsed("grid_spec", lambda v: (float(v[0]), float(v[1]), _count(v[2])),
                            grid_spec)
        if not (0.0 < lo < hi < math.inf) or n < 2:
            raise ValidationError("grid spec needs 0 < lo < hi < inf and n >= 2")
        return np.geomspace(lo, hi, n)
    g = _parsed("grid_spec", lambda v: np.unique(np.asarray(v, dtype=np.float64).ravel()),
                grid_spec)
    if g.size < 1 or np.any(~np.isfinite(g)) or np.any(g < 0.0):
        raise ValidationError("explicit conjugate grid must be finite and >= 0")
    return g


def _knot_maximum(phi: YoungFunction, ygrid: np.ndarray) -> np.ndarray:
    """sup_{x >= 0} (x*y - phi(x)) at each ordinate y >= 0 of ygrid, for a tabulated phi."""
    # x*y - phi(x) is linear between knots and along the final ray, so the
    # supremum sits at a knot unless y exceeds the final slope.
    g, v = phi.grid, phi.values
    over = ygrid[ygrid > (v[-1] - v[-2]) / (g[-1] - g[-2])]
    if over.size:
        raise UnboundedConjugateError(
            f"conjugate ordinate y={over[0]:g} exceeds the final slope of the table")
    return np.array([float(np.max(g * y - v)) if y else 0.0 for y in ygrid])


def complementary(phi: YoungFunction, grid_spec=None, *, numeric: bool = False) -> YoungFunction:
    """Complementary Young function psi(y) = sup_x (x|y| - phi(x)).

    Cataloged pairs come back in closed form: power(p, s) maps to
    power(q, (s*p)**(1-q)/q) with 1/p + 1/q = 1, and exp_minus_linear and
    entropy are conjugate to each other.  Pass numeric=True to get that
    closed form tabulated on grid_spec, which may be None (log-spaced
    default), a (lo, hi, count) triple, or an explicit array of ordinates;
    a tabulated phi always gives its exact knot maximum on that grid.
    """
    if phi.kind == TABULATED:
        ygrid = _resolve_grid(grid_spec)
        return tabulated(ygrid, _knot_maximum(phi, ygrid))
    if phi.kind == POWER:
        if phi.p == 1.0:
            raise UnboundedConjugateError(
                "the conjugate of scale*|x| is not finite-valued")
        q = phi.p / (phi.p - 1.0)
        try:
            scale = (phi.scale * phi.p) ** (1.0 - q) / q
        except OverflowError:  # float ** raises where numpy would give inf
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise UnboundedConjugateError(
                f"the conjugate scale of power({phi.p:g}, {phi.scale:g}) leaves the double range")
        psi = power(q, scale)
    else:
        psi = entropy() if phi.kind == EXP_MINUS_LINEAR else exp_minus_linear()
    if not numeric:
        return psi
    ygrid = _resolve_grid(grid_spec)
    vals = psi(ygrid)
    if not np.all(np.isfinite(vals)):
        raise UnboundedConjugateError(
            f"conjugate at y={ygrid[~np.isfinite(vals)][0]:g} overflows the double range")
    return tabulated(ygrid, vals)
