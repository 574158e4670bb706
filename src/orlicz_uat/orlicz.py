"""Gauge (Luxemburg) norms and companion functionals on discrete measures.

For a Young function phi, a measure mu, and a vector-valued table f on the
support of mu, the modular at scale k > 0 is

    rho(k) = sum_x phi(||f(x)|| / k) * mu({x})

and the gauge norm is the infimum of k with rho(k) <= 1.  A power kind's
closed form (s * sum ||f||**p mu)**(1/p) answers where the modular confirms a
bracket of relative width tol/2 about it; all other tables are solved at once,
each in units of a power of two at its largest point norm (exact by homogeneity;
Rao & Ren, Theory of Orlicz Spaces, ch. 3).  Steps in log2 k from k = 1 that
double bracket the norm, and Illinois secant steps of log rho against log k
(Dowell & Jarratt, BIT 11, 1971) narrow it to hi - lo <= tol * hi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, ValidationError, _frozen, _parsed
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
        object.__setattr__(self, "values", _frozen(np.ascontiguousarray(v), self.values))

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def output_dim(self) -> int:
        return self.values.shape[1]

    def to_json_dict(self) -> dict:
        return {"values": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FunctionTable":
        if not isinstance(obj, dict) or set(obj) != {"values"}:
            raise ValidationError("table object needs exactly a values key")
        return cls(_parsed("values", lambda v: np.asarray(v, dtype=np.float64), obj["values"]))


def _point_norms(f: FunctionTable, norm_choice: str) -> np.ndarray:
    if norm_choice == "euclidean":
        # no squares, so no nonzero row under- or overflows; abs is 4x faster than hypot
        if f.output_dim == 1:
            return np.abs(f.values[:, 0])
        return np.hypot.reduce(f.values, axis=1)
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
    """inf{k > 0 : modular(k) <= 1} to relative tolerance tol: a one-table solve."""
    _check_alignment(mu, f)
    lo, hi, rho_hi, evals = _gauge_solve(phi, _point_norms(f, norm_choice), mu.weights,
                                         [f.length], tol)
    return GaugeNormResult(float(hi[0]), (float(lo[0]), float(hi[0])), float(rho_hi[0]), evals)


def _gauge_solve(phi: YoungFunction, norms: np.ndarray, weights: np.ndarray, sizes,
                 tol: float):
    """Gauge norms of tables of sizes[g] consecutive rows each, solved together: per table
    the bracket lo, hi (the norm), the modular at hi (<= 1); and the evaluation count."""
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"gauge tolerance must lie in (0, 1), got {tol!r}")
    starts, ends = np.cumsum(sizes) - sizes, np.cumsum(sizes)
    peak = np.maximum.reduceat(norms, starts)
    (lo, hi, rho_hi), todo, evals = np.zeros((3, peak.size)), peak > 0.0, 0
    for g in np.flatnonzero(todo) if phi.kind == POWER else ():
        x, w = norms[starts[g]:ends[g]], weights[starts[g]:ends[g]]
        with np.errstate(over="ignore"):
            k = (phi.scale * float(np.sum(x ** phi.p * w))) ** (1.0 / phi.p)
            k_lo, k_hi = k * (1.0 - tol / 4.0), k * (1.0 + tol / 4.0)
            if 0.0 < k_lo and k_hi < np.inf:
                r, evals = float(np.sum(phi(x / k_hi) * w)), evals + 2
                if r <= 1.0 < float(np.sum(phi(x / k_lo) * w)):
                    lo[g], hi[g], rho_hi[g], todo[g] = k_lo, k_hi, r, False
    if not todo.any():
        return lo, hi, rho_hi, evals
    rows, sizes = np.repeat(todo, sizes), np.asarray(sizes)[todo]
    norms, weights, e = norms[rows], weights[rows], np.frexp(peak[todo])[1]
    starts = np.cumsum(sizes) - sizes
    # each row's table; a lone table broadcasts its scale and sums as modular does
    at = np.repeat(np.arange(sizes.size), sizes) if sizes.size > 1 else slice(None)

    def rho(k: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            terms = phi(norms / np.ldexp(k, e)[at]) * weights  # the modular at k * 2**e, exactly
        return np.add.reduceat(terms, starts) if sizes.size > 1 else np.sum(terms, keepdims=True)

    s_lo, s_hi = np.zeros(sizes.size), np.full(sizes.size, np.inf)
    r_lo, r_hi, s_rho, side = np.full(sizes.size, np.inf), *np.zeros((3, sizes.size))
    while np.any(open_ := (s_lo == 0.0) | (s_hi == np.inf) | (s_hi - s_lo > tol * s_hi)):
        with np.errstate(all="ignore"):
            t_lo, t_hi, g_lo, g_hi = np.log((s_lo, s_hi, r_lo, r_hi))
            k = np.exp(t_hi - g_hi * (t_hi - t_lo) / (g_hi - g_lo))
            # keep tol / 2 inside each end, so a secant on the root closes the bracket next
            k = np.clip(k, s_lo * (1.0 + 0.5 * tol), s_hi * (1.0 - 0.5 * tol))
            mid = np.where(s_hi > 2.0 * s_lo, np.exp(0.5 * (t_lo + t_hi)), 0.5 * (s_lo + s_hi))
            k = np.where(np.isfinite(g_lo - g_hi) & (s_lo < k) & (k < s_hi), k, mid)
            # log2 k = 0, +-1, +-3, +-7, ... until the bracket holds the norm
            k = np.where(s_hi == np.inf, np.maximum(2.0 * s_lo * s_lo, 1.0),
                         np.where(s_lo == 0.0, 0.5 * s_hi * s_hi, k))
        open_ &= (s_lo < k) & (k < s_hi)  # else adjacent doubles, or out of range (refused)
        if not np.any(open_):
            break
        r, evals = rho(k), evals + 1
        below, above = open_ & (r <= 1.0), open_ & ~(r <= 1.0)
        # Illinois: an end kept twice running has the log of its secant value halved
        r_lo = np.where(below & (side > 0), np.sqrt(r_lo), r_lo)
        r_hi = np.where(above & (side < 0), np.sqrt(r_hi), r_hi)
        side = np.where(below, 1.0, np.where(above, -1.0, side))
        s_lo, r_lo = np.where(above, k, s_lo), np.where(above, r, r_lo)
        s_hi, r_hi = np.where(below, k, s_hi), np.where(below, r, r_hi)
        s_rho = np.where(below, r, s_rho)
    with np.errstate(over="ignore"):
        lo[todo], hi[todo], rho_hi[todo] = np.ldexp(s_lo, e), np.ldexp(s_hi, e), s_rho
    if not np.all((lo[todo] >= np.finfo(np.float64).tiny) & (hi[todo] < np.inf)):
        raise BracketingError("gauge norm lies outside the range of normal doubles")
    return lo, hi, rho_hi, evals


def l1_norm(nu: DiscreteMeasure, f: FunctionTable, norm_choice: str = "euclidean") -> float:
    _check_alignment(nu, f)
    return float(np.sum(_point_norms(f, norm_choice) * nu.weights))
