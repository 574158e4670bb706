"""Acceptance gate: ten go/no-go checks with stated tolerances and runtimes.

Each test prints one pass/fail line.  The checks are intentionally
independent of the unit suites: oracles are recomputed inline.
"""
import json
import time
from pathlib import Path

import numpy as np

from orlicz_uat import (AffineFamily, Box, FunctionTable, LinearOnlyFamily,
                        MeasureFamily, ZeroFamily, associated_young_pair,
                        box_indicator, bump_1d, check_additive_family,
                        check_weight_compatibility, check_young_inequality,
                        clip_and_localize, complementary, curve_csv_rows,
                        entropy, exp_minus_linear, fit_random_features,
                        from_table, gauge_norm, holder_check, l1_norm,
                        make_discrete, max_gadget, min_gadget, modular, power,
                        quadratic_weight, quadratic_weight_scalar,
                        run_robust_experiment, sin_product, to_register_form,
                        verify_robust_bound, zero_network)
from orlicz_uat.cli import dispatch
from orlicz_uat.robust import approximation_curve
from orlicz_uat.net import Layer, Network
from orlicz_uat.serialize import csv_text, write_bytes

LP_SET = (1.0, 1.5, 2.0, 3.0)


def _finish(num, name, ok, started, limit):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {num:02d} {verdict} {name} ({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"criterion {num:02d} {name} failed its checks"
    assert elapsed < limit, f"criterion {num:02d} {name} exceeded {limit:g}s"


def _random_measure(rng, n, dim=1):
    pts = rng.uniform(-2.0, 2.0, size=(n, dim))
    w = rng.uniform(0.05, 1.5, size=n)
    return make_discrete(pts, w)


def test_01_lp_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        p = LP_SET[int(rng.integers(len(LP_SET)))]
        n = int(rng.integers(2, 14))
        m = int(rng.integers(1, 4))
        mu = _random_measure(rng, n, dim=int(rng.integers(1, 3)))
        f = FunctionTable(rng.standard_normal((n, m)) * rng.uniform(0.2, 4.0))
        point_norms = np.sqrt(np.sum(f.values ** 2, axis=1))
        want = float(np.sum(point_norms ** p * mu.weights) ** (1.0 / p))
        got = gauge_norm(power(p), mu, f).value
        ok = ok and abs(got - want) <= 1e-8 * max(1.0, want)
    _finish(1, "lp gauge norms match closed forms", ok, started, 5.0)


def test_02_conjugate_pairs():
    started = time.perf_counter()
    grid = np.linspace(0.1, 10.0, 64)
    ok = True
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        psi = complementary(power(p, 1.0 / p), grid_spec=grid, numeric=True)
        want = (np.abs(grid) ** q) / q
        got = np.array([psi(y) for y in grid])
        rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-30))
        ok = ok and rel <= 1e-6
    assert complementary(exp_minus_linear()).kind == "entropy"
    assert complementary(entropy()).kind == "exp_minus_linear"
    spot = np.sort(np.append(grid, np.e - 1.0))
    psi = complementary(exp_minus_linear(), grid_spec=spot, numeric=True)
    ok = ok and abs(psi(np.e - 1.0) - 1.0) <= 1e-6
    _finish(2, "numeric conjugates match closed forms", ok, started, 5.0)


def test_03_young_and_holder():
    started = time.perf_counter()
    pairs = [(power(p, 1.0 / p), complementary(power(p, 1.0 / p)))
             for p in (1.5, 2.0, 3.0)]
    pairs.append((exp_minus_linear(), entropy()))
    ok = True
    for i, (phi, psi) in enumerate(pairs):
        report = check_young_inequality(phi, psi, sample_count=10000, seed=300 + i)
        ok = ok and report.max_violation <= 1e-10
    rng = np.random.default_rng(303)
    for _ in range(1000):
        phi, psi = pairs[int(rng.integers(len(pairs)))]
        n = int(rng.integers(2, 9))
        mu = _random_measure(rng, n)
        f = FunctionTable(rng.standard_normal((n, 1)) * 3.0)
        g = FunctionTable(rng.standard_normal((n, 1)) * 3.0)
        ok = ok and holder_check(phi, psi, mu, f, g).holds
    _finish(3, "young inequality and holder bound", ok, started, 10.0)


def test_04_relu_gadgets():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    X = rng.uniform(-50.0, 50.0, size=(100000, 2))
    mx = max_gadget().evaluate_batch(X)[:, 0]
    mn = min_gadget().evaluate_batch(X)[:, 0]
    ok = float(np.max(np.abs(mx - np.max(X, axis=1)))) <= 1e-12
    ok = ok and float(np.max(np.abs(mn - np.min(X, axis=1)))) <= 1e-12

    V = bump_1d(0.0, 1.0, 0.5)
    ok = ok and V.evaluate([0.5])[0] == 1.0
    ok = ok and V.evaluate([-0.5])[0] == 0.0
    ok = ok and abs(V.evaluate([-0.25])[0] - 0.5) <= 1e-15

    for trial in range(3):
        dim = trial + 1
        lo = rng.uniform(-1.5, -0.5, size=dim)
        hi = lo + rng.uniform(0.5, 2.0, size=dim)
        J = Box(lo, hi)
        delta = float(rng.uniform(0.1, 0.5))
        K = J.enlarged(delta)
        net = box_indicator(J, delta)
        pts = rng.uniform(-4.0, 4.0, size=(10000, dim))
        vals = net.evaluate_batch(pts)[:, 0]
        # plateau arithmetic at non-dyadic corners carries ulp noise, so the
        # range check uses the same 1e-12 slack as the other gadget checks
        ok = ok and float(np.min(vals)) >= -1e-12
        ok = ok and float(np.max(vals)) <= 1.0 + 1e-12
        on = np.all((pts >= J.lo) & (pts <= J.hi), axis=1)
        off = np.any((pts < K.lo - 1e-12) | (pts > K.hi + 1e-12), axis=1)
        ok = ok and bool(np.all(np.abs(vals[on] - 1.0) <= 1e-12))
        ok = ok and bool(np.all(np.abs(vals[off]) <= 1e-12))
    _finish(4, "gadget exactness and box support", ok, started, 10.0)


def test_05_register_and_clip():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(20):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 3))
        m = int(rng.integers(1, 17))
        half = rng.uniform(1.0, 3.0, size=n_in)
        box = Box(-half, half)
        shallow = Network((Layer(rng.standard_normal((m, n_in)),
                                 rng.standard_normal(m), "relu"),
                           Layer(rng.standard_normal((n_out, m)),
                                 rng.standard_normal(n_out), "none")))
        reg = to_register_form(shallow, box)
        width = n_in + n_out + 1
        ok = ok and all(w == width for w in reg.network.hidden_widths)
        X = box.sample(rng, 500)
        err = np.max(np.abs(shallow.evaluate_batch(X) - reg.network.evaluate_batch(X)))
        ok = ok and float(err) <= 1e-9

        delta = float(rng.uniform(0.05, 0.2))
        J = Box(-0.5 * half, 0.5 * half)
        sampled = shallow.evaluate_batch(J.sample(rng, 64))
        c = float(np.min(sampled)) - rng.uniform(0.0, 1.0)
        C = float(np.max(sampled)) - rng.uniform(0.0, 0.5 * (np.max(sampled) - c))
        if not c < C:
            c, C = C - 1.0, c + 1.0
        G = clip_and_localize(reg, J, delta, c, C)
        ok = ok and all(w == width for w in G.network.hidden_widths)
        inside = J.sample(rng, 300)
        want = np.clip(shallow.evaluate_batch(inside), c, C)
        ok = ok and float(np.max(np.abs(want - G.network.evaluate_batch(inside)))) <= 1e-9
        K = J.enlarged(delta)
        ext = rng.uniform(-8.0, 8.0, size=(2000, n_in))
        keep = np.any((ext < K.lo - 1e-9) | (ext > K.hi + 1e-9), axis=1)
        ok = ok and float(np.max(np.abs(G.network.evaluate_batch(ext[keep])))) <= 1e-12
    _finish(5, "register narrowing and clip localization", ok, started, 30.0)


def test_06_norm_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    phis = (power(1.5), power(2.0, 0.5), power(3.0), power(2.0))
    ok = True
    for _ in range(500):
        phi = phis[int(rng.integers(len(phis)))]
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 3))
        mu = _random_measure(rng, n)
        F = rng.standard_normal((n, m)) * rng.uniform(0.2, 3.0)
        G = rng.standard_normal((n, m)) * rng.uniform(0.2, 3.0)
        f, g = FunctionTable(F), FunctionTable(G)
        alpha = float(rng.uniform(0.05, 6.0))
        nf = gauge_norm(phi, mu, f).value
        ng = gauge_norm(phi, mu, g).value
        ok = ok and nf > 0.0
        nfa = gauge_norm(phi, mu, FunctionTable(alpha * F)).value
        ok = ok and abs(nfa - alpha * nf) <= 1e-8 * max(1.0, alpha * nf)
        nsum = gauge_norm(phi, mu, FunctionTable(F + G)).value
        ok = ok and nsum <= nf + ng + 1e-8
        mod1 = modular(phi, mu, f, 1.0)
        if nf <= 1.0:
            ok = ok and mod1 <= 1.0 + 1e-8
        if mod1 <= 1.0:
            ok = ok and nf <= 1.0 + 1e-8
    zero = FunctionTable(np.zeros((3, 1)))
    mu3 = _random_measure(rng, 3)
    ok = ok and gauge_norm(power(2.0), mu3, zero).value == 0.0
    _finish(6, "gauge norm axioms and unit ball", ok, started, 10.0)


def desk_config(out_dir):
    return {
        "case": "i",
        "family": {"kind": "mixtures", "count": 5, "points": 256, "seed": 11,
                   "box": {"lo": [0.0], "hi": [1.0]}},
        "target": {"name": "sin_product", "dim": 1},
        "epsilon": 0.05,
        "widths": [8, 16, 32, 64, 128],
        "seeds": 3,
        "activation": "sigmoid",
        "out_dir": str(out_dir),
    }


def test_07_desk_scale_robust_run(tmp_path):
    started = time.perf_counter()
    result = run_robust_experiment(desk_config(tmp_path))
    report = result.report
    ok = result.success
    ok = ok and report.sup_l1 < 0.05
    ok = ok and report.sup_l1 <= report.holder_rhs * (1.0 + 1e-8)
    ok = ok and report.bound_holds
    # the catalog pick for this family is y^2/2
    family_obj = json.loads(Path(result.paths["report"]).read_text())
    ok = ok and family_obj["case"] == "i"
    _finish(7, "desk-scale robust approximation run", ok, started, 60.0)


def test_08_holder_equality_witness():
    started = time.perf_counter()
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    family = MeasureFamily.from_members([mu])
    phi = power(2.0, 0.5)
    f = from_table(family.dominating, [1.0, 1.0])
    report = verify_robust_bound(family, phi, phi, f, zero_network(1, 1),
                                 gauge_tol=1e-12)
    ok = abs(report.sup_l1 - 1.0) <= 1e-10
    ok = ok and abs(report.holder_rhs - 1.0) <= 1e-10
    _finish(8, "holder equality witness", ok, started, 1.0)


def test_09_fnn_hypothesis_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    ok = True
    for dim in (1, 2):
        probes = Box(-10.0 * np.ones(dim), 10.0 * np.ones(dim)).grid(9)
        family = AffineFamily(dim)
        axioms = check_additive_family(family, probes)
        ok = ok and axioms.closed_under_addition
        ok = ok and axioms.point_separating
        ok = ok and axioms.contains_constants
        members = [family.sample_member(rng) for _ in range(8)]
        compat = check_weight_compatibility(members, quadratic_weight,
                                            quadratic_weight_scalar, probes)
        ok = ok and np.isfinite(compat.sup_ratio)
        ok = ok and compat.admissible_weight

        zero_report = check_additive_family(ZeroFamily(dim), probes)
        ok = ok and not zero_report.point_separating
        linear_report = check_additive_family(LinearOnlyFamily(dim), probes)
        ok = ok and not linear_report.contains_constants

    families = [
        MeasureFamily.from_members([make_discrete([[0.0], [1.0]], [0.5, 0.5])]),
        MeasureFamily.from_members([make_discrete([[0.0], [1.0]], [0.2, 0.8]),
                                    make_discrete([[0.0], [1.0]], [0.8, 0.2])]),
        MeasureFamily.from_members(
            [make_discrete(rng.uniform(0.0, 1.0, size=(32, 2)),
                           np.full(32, 1.0 / 32)) for _ in range(3)]),
    ]
    for fam in families:
        phi_M, _, _ = associated_young_pair(fam)
        mu = fam.dominating
        w = FunctionTable(quadratic_weight(mu.points))
        value = gauge_norm(phi_M, mu, w).value
        ok = ok and np.isfinite(value)
    _finish(9, "functional-input hypothesis checks", ok, started, 5.0)


def _artifact_pass(base: Path, measure_file: Path, table_file: Path):
    """One full artifact-producing sweep: robust run, curve CSV, norm CSV,
    conjugate JSON.  Everything is seeded, so bytes must be reproducible."""
    base.mkdir(parents=True, exist_ok=True)
    run_robust_experiment(desk_config(base / "robust"))

    pts = np.linspace(0.0, 1.0, 64).reshape(-1, 1)
    mu = make_discrete(pts, np.full(64, 1.0 / 64))
    rows = approximation_curve(sin_product(), mu, power(2.0), (4, 8),
                               activation="sigmoid", seeds=(0, 1))
    header, body = curve_csv_rows(rows)
    write_bytes(str(base / "curve.csv"), csv_text(header, body))

    assert dispatch(["norm", "--phi", "power:2", "--measure", str(measure_file),
                     "--f", str(table_file), "--out", str(base / "norm.csv")]) == 0
    assert dispatch(["conjugate", "--phi", "power:2:0.5",
                     "--out", str(base / "conjugate.json")]) == 0


def test_10_byte_identical_artifacts(tmp_path):
    started = time.perf_counter()
    # shared input files so the norm CSV's measure-id column matches too
    measure_file = tmp_path / "mu.json"
    measure_file.write_text(json.dumps(
        {"dim": 1, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]}))
    table_file = tmp_path / "f.json"
    table_file.write_text(json.dumps({"values": [[1.0], [3.0]]}))

    first, second = tmp_path / "first", tmp_path / "second"
    _artifact_pass(first, measure_file, table_file)
    _artifact_pass(second, measure_file, table_file)
    names = ["robust/report.json", "robust/curve.csv", "robust/network.json",
             "curve.csv", "norm.csv", "conjugate.json"]
    ok = True
    for name in names:
        ok = ok and (first / name).read_bytes() == (second / name).read_bytes()
    _finish(10, "byte-identical artifacts across reruns", ok, started, 120.0)
