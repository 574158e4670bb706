"""Worst-case approximation over a finite family of measures.

The pipeline: pick a Young pair (phi_M, psi_M) so that every member density
has a finite psi_M gauge norm against the dominating measure, fit candidate
networks on a width/seed schedule, measure the supremum of per-member L1
errors, and certify the chain

    sup_nu ||f - eta||_{L1(nu)} <= 2 N_{phi_M}(f - eta) sup_nu N_{psi_M}(dnu/dmu_M)

which every produced report asserts unconditionally.  Success of a run means
the measured sup_l1 dropped below the configured epsilon; the certificate is
reported, not used as the stopping rule.

One schedule runner, ``_schedule``, serves the robust run and the ``fit``
curve.  Every schedule entry is scored from its seed's cached hidden
features, with no network evaluated: the fit's readout, clipped to [c, C] in
case ii.  Only the chosen entry becomes an artifact.  In case ii it is
rewritten into register form and clipped, which equals the clipped fit on
the box holding every support point; in case iv its readout bias is folded
into a hidden unit.  The verification evaluates the written network twice,
at once on two threads: on the dominating support, where it must also agree
with its scores, so the curve describes the written network, and on the
member points.  It takes the member density norms from the certificate.

One thread pool serves the whole schedule, with the standard library's
default number of workers, ``min(32, os.cpu_count() + 4)``, so every seed of a
width runs at once unless there are more seeds than that.  Each task grows
only its own seed's cache, whose sums run in a fixed order, so the results
and the artifacts do not depend on the worker count.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize
from .box import Box
from .errors import (HypothesisViolation, OrliczError, ValidationError, _count, _counts,
                     _known, _parsed)
from .fit import (_DEFAULT_RIDGE, _FIT_ACTS, FeatureCache, TargetFunction,
                  fit_random_features, make_target)
from .measure import (DiscreteMeasure, DlvpCertificate, MeasureFamily,
                      dlvp_certificate, sample_empirical)
from .net import (Layer, Network, _check_agreement, clip_and_localize,
                  to_register_form, zero_network)
from .orlicz import (_GAUGE_TOL, _HOLDER_SLACK, FunctionTable, _point_norms, gauge_norm,
                     l1_norm)
from .young import YoungFunction, complementary

_CASES = ("i", "ii", "iii", "iv")
_DEFAULT_WIDTHS = (8, 16, 32, 64, 128)
_DEFAULT_SEEDS = (0, 1, 2)
_CHANGE_OF_MEASURE_RTOL = 1e-12


@dataclass(frozen=True)
class RobustReport:
    per_measure_l1: tuple
    sup_l1: float
    gauge_error: float
    density_norm_sup: float
    holder_rhs: float
    bound_holds: bool
    epsilon: float


def associated_young_pair(family: MeasureFamily, psi_candidates=None):
    """(phi_M, psi_M, certificate) with phi_M complementary to the chosen psi_M."""
    cert = dlvp_certificate(family, psi_candidates)
    return complementary(cert.psi), cert.psi, cert


def robust_error(family: MeasureFamily, f: TargetFunction, eta):
    """Per-member L1 errors of f - eta, each on its own points, and their supremum."""
    points = np.concatenate([nu.points for nu in family.members])  # f and eta evaluated once
    resid = np.split(f.evaluate(points) - eta.evaluate_batch(points),
                     np.cumsum([nu.support_size for nu in family.members])[:-1])
    per = np.array([l1_norm(nu, FunctionTable(r)) for nu, r in zip(family.members, resid)])
    return per, float(np.max(per))


def _certified_density_norms(family: MeasureFamily, psi_M: YoungFunction,
                             certificate: DlvpCertificate, gauge_tol: float) -> np.ndarray:
    """The certificate's per-member psi_M norms, refused unless they are the ones wanted."""
    if certificate.psi is not psi_M:
        raise ValidationError("the certificate was made for another psi")
    if len(certificate.per_member_norms) != family.size:
        raise ValidationError("the certificate has a norm count other than the member count")
    if gauge_tol != _GAUGE_TOL:
        raise ValidationError(
            f"the certificate's norms were resolved to {_GAUGE_TOL}, not to {gauge_tol}")
    return certificate.per_member_norms


def verify_robust_bound(family: MeasureFamily, phi_M: YoungFunction,
                        psi_M: YoungFunction, f: TargetFunction, eta,
                        epsilon: float = math.nan,
                        gauge_tol: float = _GAUGE_TOL,
                        certificate: DlvpCertificate | None = None,
                        check=None) -> RobustReport:
    """Populate a report and hard-assert the generalized Holder chain.

    Also checks, per member, that the direct L1 error equals the
    density-weighted integral against the dominating measure.  With the
    ``certificate`` that chose psi_M, the member density norms are taken
    from it rather than recomputed.  eta is evaluated once on the dominating
    support and once, by ``robust_error``, on the member points, the two
    passes at once on two threads; ``check``, if given, is called with the
    first pass's values before they are used, and refuses them by raising.
    """
    density_norms = (family.density_norms(psi_M, gauge_tol) if certificate is None
                     else _certified_density_norms(family, psi_M, certificate, gauge_tol))
    mu = family.dominating
    with ThreadPoolExecutor(1) as pool:  # numpy releases the GIL in BLAS and ufunc loops
        members = pool.submit(robust_error, family, f, eta)
        on_mu = eta.evaluate_batch(mu.points)
        if check is not None:
            check(on_mu)
        resid = FunctionTable(f.evaluate(mu.points) - on_mu)
        gauge_error = gauge_norm(phi_M, mu, resid, tol=gauge_tol).value
        per, sup_l1 = members.result()
    via_density = family.integrals(_point_norms(resid, "euclidean"))
    if np.any(np.abs(via_density - per) > _CHANGE_OF_MEASURE_RTOL * np.maximum(per, 1e-300)):
        raise OrliczError("change-of-measure identity failed for a member")
    density_norm_sup = float(max(density_norms))
    holder_rhs = 2.0 * gauge_error * density_norm_sup
    bound_holds = sup_l1 <= holder_rhs * (1.0 + _HOLDER_SLACK)
    if not bound_holds:
        raise OrliczError(
            f"generalized Holder chain violated: sup_l1={sup_l1} > rhs={holder_rhs}")
    return RobustReport(tuple(float(v) for v in per), sup_l1, gauge_error,
                        density_norm_sup, holder_rhs, bound_holds, epsilon)


def report_json_dict(report: RobustReport, network_file: str, case: str) -> dict:
    return {"sup_l1": report.sup_l1,
            "holder_rhs": report.holder_rhs,
            "gauge_error": report.gauge_error,
            "density_norm_sup": report.density_norm_sup,
            "per_measure_l1": list(report.per_measure_l1),
            "bound_holds": report.bound_holds,
            "network_file": network_file,
            "case": case}


_FAMILY_KINDS = {
    "samplers": {"kind", "samplers", "points", "seed", "box"},
    "members": {"kind", "members"},
    "mixtures": {"kind", "count", "points", "seed", "box"},
}


def _mixture_spec(rng: np.random.Generator, box: Box) -> dict:
    extent = box.hi - box.lo
    return {"name": "mixture", "components": [
        {"weight": rng.uniform(0.3, 0.7),
         "mean": box.lo + extent * rng.uniform(0.1, 0.9, size=box.dim),
         "std": extent * rng.uniform(0.05, 0.2, size=box.dim)} for _ in range(2)]}


def build_family(spec: dict):
    """MeasureFamily plus its declared box (hull of supports for members-kind)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("family spec needs a kind")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _FAMILY_KINDS:
        raise ValidationError(f"unknown family kind {kind!r}")
    _known(spec, _FAMILY_KINDS[kind], "family", _FAMILY_KINDS[kind])
    if kind == "members":
        family = MeasureFamily.from_members(_parsed(
            "members", lambda v: [DiscreteMeasure.from_json_dict(m) for m in v], spec["members"]))
        hull = family.dominating.points  # every member point has mass
        return family, Box(hull.min(axis=0), hull.max(axis=0))
    box = Box.from_json_dict(spec["box"])
    n = _parsed("points", _count, spec["points"])
    master = np.random.SeedSequence(_parsed("seed", _count, spec["seed"]))
    if kind == "samplers":
        samplers = _parsed("samplers", list, spec["samplers"])
        if not samplers:
            raise ValidationError("need at least one sampler")
        children = master.spawn(len(samplers))
        members = [sample_empirical(s, n, int(children[i].generate_state(1)[0]), box)
                   for i, s in enumerate(samplers)]
    else:
        size = _parsed("count", _count, spec["count"])
        if size < 1:
            raise ValidationError("mixture family count must be positive")
        children = master.spawn(size)
        members = []
        for child in children:
            spec_seed, sample_seed = child.generate_state(2)
            mix = _mixture_spec(np.random.default_rng(int(spec_seed)), box)
            members.append(sample_empirical(mix, n, int(sample_seed), box))
    return MeasureFamily.from_members(members), box


def _bias_as_hidden_unit(net: Network) -> Network:
    """The same one-hidden-layer network with a zero readout bias.

    Functional-input networks sum hidden maps of the additive family, with
    no readout bias.  A nonzero bias becomes one extra hidden unit on a
    constant map whose activation is exactly 1.0 (relu of 1, sigmoid and
    tanh of 64), read out with the bias itself as its weight.
    """
    hid, out = net.layers
    A, b, readout = hid.A, hid.b, out.A
    if np.any(out.b != 0.0):
        A = np.vstack([A, np.zeros((1, net.input_dim))])
        b = np.append(b, 1.0 if hid.act == "relu" else 64.0)
        readout = np.hstack([readout, out.b[:, None]])
    return Network((Layer(A, b, hid.act), Layer(readout, np.zeros(out.out_dim), "none")))


_CONFIG_KEYS = {"case", "family", "target", "epsilon", "widths", "seeds",
                "activation", "delta", "clip_range", "ridge",
                "psi_candidates", "compact_box", "out_dir"}
_REQUIRED_KEYS = {"case", "family", "target", "epsilon"}
_DEFAULT_ACTIVATION = {"i": "sigmoid", "ii": "relu", "iii": "sigmoid", "iv": "sigmoid"}


def _finite_positive(value) -> float:
    x = float(value)
    if not 0.0 < x < math.inf:
        raise ValueError("not a finite positive number")
    return x


def _validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ValidationError("config must be an object")
    _known(config, _CONFIG_KEYS, "config", _REQUIRED_KEYS)
    cfg = dict(config)
    if cfg["case"] not in _CASES:
        raise ValidationError(f"case must be one of {_CASES}")
    cfg["epsilon"] = _parsed("epsilon", float, cfg["epsilon"])
    if not (cfg["epsilon"] > 0.0):
        raise ValidationError("epsilon must be positive")
    cfg["widths"] = _parsed("widths", _counts, cfg.get("widths", _DEFAULT_WIDTHS))
    cfg["seeds"] = _parsed("seeds", lambda v: _counts(range(v) if isinstance(v, int) else v),
                           cfg.get("seeds", _DEFAULT_SEEDS))
    cfg.setdefault("activation", _DEFAULT_ACTIVATION[cfg["case"]])
    if cfg["activation"] not in _FIT_ACTS:
        raise ValidationError(f"bad value for activation: {cfg['activation']!r:.80}")
    # the register rewrite of case ii enlarges the box by delta
    cfg["delta"] = _parsed("delta", _finite_positive, cfg.get("delta", 0.05))
    cfg["ridge"] = _parsed("ridge", float, cfg.get("ridge", _DEFAULT_RIDGE))
    if "clip_range" in cfg:
        cfg["clip_range"] = _parsed(
            "clip_range", lambda v: np.asarray(v, dtype=np.float64).reshape(2), cfg["clip_range"])
        c_lo, c_hi = cfg["clip_range"]
        # scoring clips with it long before the chosen fit is rewritten
        if not (math.isfinite(c_lo) and math.isfinite(c_hi) and c_lo < c_hi):
            raise ValidationError("clip_range must be two finite numbers c < C")
    if "compact_box" in cfg:
        cfg["compact_box"] = Box.from_json_dict(cfg["compact_box"])
    if "psi_candidates" in cfg:
        cfg["psi_candidates"] = _parsed(
            "psi_candidates", lambda v: [YoungFunction.from_json_dict(c) for c in v],
            cfg["psi_candidates"])
    return cfg


@dataclass(frozen=True)
class RobustRunResult:
    report: RobustReport
    success: bool
    chosen_width: int
    chosen_seed: int
    rows: tuple
    paths: dict


def _check_hypotheses(case: str, cfg: dict, family: MeasureFamily, f: TargetFunction,
                      box: Box):
    """Refuse a config whose case hypotheses fail on this family and target.

    Case iv's additive family (affine maps) and weight (1 + |x|^2) are fixed
    by the program, so they hold by construction and nothing is sampled here.
    """
    if case == "i" and cfg["activation"] not in ("sigmoid", "tanh"):
        raise HypothesisViolation("bounded activation",
                                  f"{cfg['activation']} is unbounded")
    if case == "ii":
        if cfg["activation"] != "relu":
            raise ValidationError("the narrow construction needs relu features")
        if f.bound is None and "clip_range" not in cfg:
            raise HypothesisViolation("bounded target",
                                      "no declared bound and no clip_range")
    if case == "iii":
        declared = cfg.get("compact_box", box)
        if declared.dim != family.dominating.dimension:
            raise ValidationError("compact_box dimension disagrees with the family")
        for i, nu in enumerate(family.members):
            if not np.all(declared.contains(nu.points)):
                raise HypothesisViolation(
                    "compact support", f"member {i} has mass outside the declared box")


def _clip_range(cfg: dict, f: TargetFunction) -> tuple:
    """(c, C) of case ii: the configured clip_range, else the target's declared bound."""
    if "clip_range" in cfg:
        return tuple(float(v) for v in cfg["clip_range"])
    return -f.bound, f.bound


def _schedule(f: TargetFunction, mu: DiscreteMeasure, phi: YoungFunction, widths, seeds,
              activation: str, ridge: float, clip=None):
    """Yield each width with its seeds' (fit, scored values, residual, phi gauge norm).

    The target is evaluated once, each seed grows one ``FeatureCache``, and a
    width's seeds run at once on one pool, which lives as long as the
    generator.  Width 0 is the zero network; any other fit is scored by its
    readout on the cached features, clipped to ``clip`` = (c, C) if given.
    """
    values = f.evaluate(mu.points)
    caches = [FeatureCache(mu, values, activation, seed, ridge, max(widths)) for seed in seeds]

    def run_one(width: int, cache: FeatureCache):
        if width == 0:
            g, scored = zero_network(f.dim, f.out_dim), np.zeros_like(values)
        else:
            g = fit_random_features(f, mu, width, activation, cache.seed, ridge, cache)
            scored = cache.predict(g) if clip is None else np.clip(cache.predict(g), *clip)
        resid = FunctionTable(values - scored)
        return g, scored, resid, gauge_norm(phi, mu, resid).value

    with ThreadPoolExecutor() as pool:
        for width in widths:
            # results are handed over as the caller takes them, never held as a list
            yield width, pool.map(run_one, [width] * len(caches), caches)


@dataclass(frozen=True)
class CurveRow:
    width: int
    seed: int
    gauge_error: float
    l1_error: float


def approximation_curve(f: TargetFunction, mu: DiscreteMeasure, phi: YoungFunction,
                        widths, activation: str = "relu", seeds=_DEFAULT_SEEDS,
                        ridge: float = _DEFAULT_RIDGE) -> list:
    """One row per (width, seed): gauge and L1 errors of the fitted residual.

    Widths and seeds are nonempty lists of counts, a bad one refused by a
    ValidationError naming ``widths`` or ``seed``; width 0 is the zero network.
    """
    widths, seeds = _parsed("widths", _counts, widths), _parsed("seed", _counts, seeds)
    return [CurveRow(width, seed, gauge, l1_norm(mu, resid))
            for width, batch in _schedule(f, mu, phi, widths, seeds, activation, ridge)
            for seed, (_, _, resid, gauge) in zip(seeds, batch)]


def curve_csv_rows(rows) -> tuple:
    """CSV form of a curve; the wall-clock column fit_millis is pinned to 0 to reproduce bytes."""
    header = ("width", "seed", "gauge_error", "l1_error", "fit_millis")
    body = [(r.width, r.seed, r.gauge_error, r.l1_error, 0) for r in rows]
    return header, body


def _written(case: str, cfg: dict, f: TargetFunction, box: Box, g: Network) -> Network:
    """The artifact for the chosen fit ``g``.

    Case ii rewrites g into register form on the delta-enlarged box and
    clips it; that equals clip(g, c, C) on the box, which holds every
    support point.  Case iv folds the readout bias into a hidden unit.
    Cases i and iii, and the zero network, are written as fitted.  The
    verification checks every written network against its scored values.
    """
    if len(g.layers) == 1 or case in ("i", "iii"):
        return g
    if case == "ii":
        c_lo, c_hi = _clip_range(cfg, f)
        reg = to_register_form(g, box.enlarged(cfg["delta"]))
        return clip_and_localize(reg, box, cfg["delta"], c_lo, c_hi).network
    return _bias_as_hidden_unit(g)


def run_robust_experiment(config: dict, out_dir=None) -> RobustRunResult:
    """Run a schedule until sup_l1 < epsilon, then write the artifacts.

    Artifacts: report.json (the certified report for the selected network),
    curve.csv with one row per evaluated (width, seed), and network.json.
    The selected network is the first schedule entry beating epsilon, or the
    best one seen if the schedule is exhausted.
    """
    cfg = _validate_config(config)
    case = cfg["case"]
    out = Path(out_dir if out_dir is not None else cfg.get("out_dir", "."))
    family, box = build_family(cfg["family"])
    f = make_target(cfg["target"])
    if f.dim != family.dominating.dimension:
        raise ValidationError("target and family dimensions disagree")
    phi_M, psi_M, cert = associated_young_pair(family, cfg.get("psi_candidates"))
    _check_hypotheses(case, cfg, family, f, box)
    epsilon = cfg["epsilon"]
    rows, chosen, best = [], None, None
    schedule = _schedule(f, family.dominating, phi_M, cfg["widths"], cfg["seeds"],
                         cfg["activation"], cfg["ridge"],
                         _clip_range(cfg, f) if case == "ii" else None)
    for width, batch in schedule:
        for seed, (g, scored, resid, gauge) in zip(cfg["seeds"], batch):
            # the scored values on the dominating support give every member's
            # error: ||f - eta||_{L1(nu)} = sum ||f - eta|| * (dnu/dmu) * mu
            sup = float(np.max(family.integrals(_point_norms(resid, "euclidean"))))
            rows.append((width, seed, sup, gauge))
            if best is None or sup < best[0]:
                best = (sup, width, seed, g, scored)
            if chosen is None and sup < epsilon:
                chosen = (sup, width, seed, g, scored)
        del scored, resid  # not kept through the next width's fits
        if chosen is not None:
            break
    schedule.close()  # the pool and the hidden features go before the verification runs
    success = chosen is not None
    sup, width, seed, g, scored = chosen if success else best
    eta = _written(case, cfg, f, box, g)
    departure = f"the written case-{case} network departs from its scored values"
    report = verify_robust_bound(
        family, phi_M, psi_M, f, eta, epsilon=epsilon, certificate=cert,
        check=lambda got: _check_agreement(got, scored, departure))
    out.mkdir(parents=True, exist_ok=True)
    paths = {"report": out / "report.json", "curve": out / "curve.csv",
             "network": out / "network.json"}
    serialize.write_bytes(paths["network"], serialize.json_text(eta.to_json_dict()))
    serialize.write_bytes(paths["report"], serialize.json_text(
        report_json_dict(report, "network.json", case)))
    serialize.write_bytes(paths["curve"], serialize.csv_text(
        ("width", "seed", "sup_l1", "gauge_error"), rows))
    return RobustRunResult(report, success, width, seed, tuple(rows),
                           {k: str(v) for k, v in paths.items()})
