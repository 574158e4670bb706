"""Gauge (Luxemburg) norms and companion functionals on discrete measures.

For a Young function phi, a measure mu, and a vector-valued table f on the
support of mu, the modular at scale k > 0 is

    rho(k) = sum_x phi(||f(x)|| / k) * mu({x})

and the gauge norm is the infimum of k with rho(k) <= 1.  On finite supports
the modular is continuous and strictly decreasing wherever it is positive, so
the norm is computed by geometric bracketing followed by bisection.  For
phi(x) = s*|x|**p the norm has the closed form (s * sum ||f||**p mu)**(1/p),
the classical L^p norm scaled by s**(1/p) (Rao & Ren, Theory of Orlicz
Spaces, ch. 3); it seeds a bracket of relative width tol/2 that the modular
itself confirms, and the bisection runs only when that check fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, ValidationError, _parsed
from .measure import DiscreteMeasure
from .young import POWER, YoungFunction

_NORM_CHOICES = ("euclidean", "max")
_HOLDER_SLACK = 1e-8
# the relative tolerance of every gauge norm the pipeline computes
_GAUGE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Values of a function listed in the order of a measure's support points."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.ndim != 2 or v.shape[0] == 0:
            raise ValidationError("a table needs a nonempty 1-d or 2-d value array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("table values must be finite")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def output_dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_values(cls, values) -> "FunctionTable":
        return cls(np.asarray(values, dtype=np.float64))

    @classmethod
    def from_callable(cls, fn, mu: DiscreteMeasure) -> "FunctionTable":
        return cls(np.asarray(fn(mu.points), dtype=np.float64))

    def to_json_dict(self) -> dict:
        return {"values": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FunctionTable":
        if not isinstance(obj, dict) or set(obj) != {"values"}:
            raise ValidationError("table object needs exactly a values key")
        return cls(_parsed("values", lambda v: np.asarray(v, dtype=np.float64), obj["values"]))


def _point_norms(f: FunctionTable, norm_choice: str) -> np.ndarray:
    if norm_choice == "euclidean":
        return np.linalg.norm(f.values, axis=1)
    if norm_choice == "max":
        return np.max(np.abs(f.values), axis=1)
    raise ValidationError(f"unknown norm choice {norm_choice!r}; choose from {_NORM_CHOICES}")


def _check_alignment(mu: DiscreteMeasure, f: FunctionTable):
    if f.length != mu.support_size:
        raise ValidationError("table length must match the measure support size")


def modular(phi: YoungFunction, mu: DiscreteMeasure, f: FunctionTable,
            k: float, norm_choice: str = "euclidean") -> float:
    if not (k > 0.0):
        raise ValidationError("modular scale k must be positive")
    _check_alignment(mu, f)
    norms = _point_norms(f, norm_choice)
    with np.errstate(over="ignore"):
        return float(np.sum(phi(norms / k) * mu.weights))


@dataclass(frozen=True)
class GaugeNormResult:
    value: float
    bracket: tuple
    modular_at_value: float
    iterations: int


def gauge_norm(phi: YoungFunction, mu: DiscreteMeasure, f: FunctionTable,
               tol: float = _GAUGE_TOL, norm_choice: str = "euclidean") -> GaugeNormResult:
    """inf{k > 0 : modular(k) <= 1}, resolved to relative tolerance tol.

    Returns the upper end of the final bracket so the modular at the reported
    value never exceeds one.  The zero table has norm exactly zero.  tol must
    lie in (0, 1); below about 1e-16 the bisection stops at adjacent doubles.
    """
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"gauge tolerance must lie in (0, 1), got {tol!r}")
    _check_alignment(mu, f)
    norms = _point_norms(f, norm_choice)
    if not np.any(norms > 0.0):
        return GaugeNormResult(0.0, (0.0, 0.0), 0.0, 0)

    weights = mu.weights

    def rho(k: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(phi(norms / k) * weights))

    if phi.kind == POWER:
        with np.errstate(over="ignore"):
            k = (phi.scale * float(np.sum(norms ** phi.p * weights))) ** (1.0 / phi.p)
        k_lo, k_hi = k * (1.0 - tol / 4.0), k * (1.0 + tol / 4.0)
        if 0.0 < k_lo and k_hi < math.inf:
            rho_hi = rho(k_hi)
            if rho_hi <= 1.0 < rho(k_lo):
                return GaugeNormResult(k_hi, (k_lo, k_hi), rho_hi, 2)

    iterations = 1
    if rho(1.0) <= 1.0:
        k_hi = 1.0
        k_lo = 0.5
        while rho(k_lo) <= 1.0:
            k_hi = k_lo
            k_lo *= 0.5
            iterations += 1
            if iterations > 200:
                raise BracketingError("gauge norm bracketing ran out of halving steps")
    else:
        k_lo = 1.0
        k_hi = 2.0
        while rho(k_hi) > 1.0:
            k_lo = k_hi
            k_hi *= 2.0
            iterations += 1
            if iterations > 200:
                raise BracketingError("gauge norm bracketing ran out of doubling steps")
    while k_hi - k_lo > tol * max(1.0, k_hi):
        mid = 0.5 * (k_lo + k_hi)
        if not k_lo < mid < k_hi:
            break
        iterations += 1
        if rho(mid) <= 1.0:
            k_hi = mid
        else:
            k_lo = mid
    return GaugeNormResult(k_hi, (k_lo, k_hi), rho(k_hi), iterations)


def l1_norm(nu: DiscreteMeasure, f: FunctionTable, norm_choice: str = "euclidean") -> float:
    _check_alignment(nu, f)
    return float(np.sum(_point_norms(f, norm_choice) * nu.weights))


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    holds: bool
    norm_f: float
    norm_g: float


def holder_check(phi: YoungFunction, psi: YoungFunction, mu: DiscreteMeasure,
                 f: FunctionTable, g: FunctionTable,
                 norm_choice: str = "euclidean") -> HolderReport:
    """Generalized Holder inequality with constant two:

    sum ||f|| * ||g|| dmu <= 2 * gauge_norm(phi, f) * gauge_norm(psi, g).
    """
    _check_alignment(mu, f)
    _check_alignment(mu, g)
    lhs = float(np.sum(_point_norms(f, norm_choice) * _point_norms(g, norm_choice)
                       * mu.weights))
    nf = gauge_norm(phi, mu, f, norm_choice=norm_choice).value
    ng = gauge_norm(psi, mu, g, norm_choice=norm_choice).value
    rhs = 2.0 * nf * ng
    return HolderReport(lhs, rhs, lhs <= rhs * (1.0 + _HOLDER_SLACK), nf, ng)
