"""The certificate's Young pair, robust L1 error, bound verification, experiments."""
import csv
import dataclasses
import json
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_uat import (Box, DiscreteMeasure, DlvpCertificate, HypothesisViolation, Layer,
                        MeasureFamily, Network, OrliczError, ValidationError,
                        approximation_curve, build_family, complementary, constant,
                        dlvp_certificate, draw_features, entropy, exp_minus_linear,
                        fit_random_features, make_discrete, make_target, power,
                        report_json_dict, robust, robust_error,
                        run_robust_experiment, sample_empirical, tabulated,
                        verify_robust_bound, zero_network)
from orlicz_uat import curve_csv_rows
from orlicz_uat import fit as fit_module
from orlicz_uat.cli import dispatch
from orlicz_uat.fit import gaussian_blob, sin_product, smooth_step
from orlicz_uat.serialize import csv_text

from oracles import from_table, radon_nikodym


def singleton_family():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    return MeasureFamily.from_members([mu])


def test_associated_pair_self_conjugate_singleton():
    family = singleton_family()
    cert = dlvp_certificate(family, [power(2.0, 0.5)])
    psi_M, phi_M = cert.psi, cert.phi
    assert psi_M.kind == "power" and psi_M.p == 2.0 and psi_M.scale == 0.5
    assert phi_M.kind == "power" and phi_M.p == 2.0 and phi_M.scale == 0.5
    assert abs(cert.sup_norm - 1.0 / np.sqrt(2.0)) <= 1e-9


def test_associated_pair_density_bound():
    # densities (0.4,1.6) and (1.6,0.4) stay below 2, so the certificate
    # cannot exceed 2/sqrt(2)
    pts = [[0.0], [1.0]]
    family = MeasureFamily.from_members([make_discrete(pts, [0.2, 0.8]),
                                         make_discrete(pts, [0.8, 0.2])])
    cert = dlvp_certificate(family, [power(2.0, 0.5)])
    assert cert.sup_norm <= np.sqrt(2.0) + 1e-12


def test_associated_pair_empty_candidates():
    with pytest.raises(ValidationError):
        dlvp_certificate(singleton_family(), [])


def test_associated_pair_entropy_conjugate():
    cert = dlvp_certificate(singleton_family(), [entropy()])
    assert cert.psi.kind == "entropy"
    assert cert.phi.kind == "exp_minus_linear"


@pytest.mark.parametrize("psi", [power(1.5, 2.0 / 3.0), entropy(), exp_minus_linear(),
                                 tabulated([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 500.0])],
                         ids=["power", "entropy", "exp_minus_linear", "tabulated"])
def test_certificate_phi_is_the_conjugate_of_its_psi(psi):
    cert = dlvp_certificate(singleton_family(), [psi])
    assert cert.psi is psi
    assert cert.phi.to_json_dict() == complementary(psi).to_json_dict()


def test_a_replaced_psi_derives_its_phi_again():
    cert = dlvp_certificate(singleton_family(), [power(2.0, 0.5)])
    assert cert.phi.kind == "power"
    swapped = dataclasses.replace(cert, psi=entropy())
    assert swapped.psi.kind == "entropy" and swapped.phi.kind == "exp_minus_linear"
    # phi is derived, never given: no pair that is not complementary is accepted
    with pytest.raises(TypeError):
        DlvpCertificate(cert.psi, cert.per_member_norms, phi=power(1.01))
    with pytest.raises(ValueError):
        dataclasses.replace(cert, phi=power(1.01))


def test_a_certificate_hashes_and_equals_itself():
    # it holds an array of norms, so it compares by identity, as the other value objects do
    cert = dlvp_certificate(singleton_family(), [power(2.0, 0.5)])
    assert hash(cert) == hash(cert) and cert == cert
    assert cert != dataclasses.replace(cert)


_UNIT_BOX = Box([0.0], [1.0])
_TWO_POINTS = make_discrete([[0.0], [1.0]], [0.5, 0.5])


@pytest.mark.parametrize("call, named", [
    (lambda: draw_features(1, 4, -1, np.zeros(1), np.ones(1)), "seed"),
    (lambda: draw_features(1, 4, 1.5, np.zeros(1), np.ones(1)), "seed"),
    (lambda: draw_features(1, -1, 0, np.zeros(1), np.ones(1)), "width"),
    (lambda: fit_random_features(constant(1), _TWO_POINTS, 1.5, "sigmoid"), "width"),
    (lambda: fit_random_features(constant(1), _TWO_POINTS, True, "sigmoid"), "width"),
    (lambda: sample_empirical("uniform", 1.5, 0, _UNIT_BOX), "n"),
    (lambda: sample_empirical("uniform", 4, -1, _UNIT_BOX), "seed"),
    (lambda: tabulated(["a", "b"], [0, 1]), "grid"),
    (lambda: complementary(power(2.0), "abc", numeric=True), "grid_spec"),
    (lambda: sin_product(1.5), "dim"),
    (lambda: smooth_step(1.5), "dim"),
    (lambda: constant(1.5), "dim"),
    (lambda: gaussian_blob(1.5), "dim"),
    (lambda: zero_network(-1, 1), "n_in"),
    (lambda: DiscreteMeasure.from_json_dict({"dim": 1.5, "points": [[0.0]], "weights": [1.0]}),
     "dim"),
    (lambda: DiscreteMeasure.from_json_dict({"dim": True, "points": [[0.0]], "weights": [1.0]}),
     "dim"),
    (lambda: Network.from_json_dict(dict(zero_network(1, 1).to_json_dict(), input_dim=1.9)),
     "input_dim"),
    (lambda: approximation_curve(sin_product(), _TWO_POINTS, power(2.0), [0],
                                 activation="bogus", ridge=-1.0), "activation"),
    (lambda: approximation_curve(sin_product(), _TWO_POINTS, power(2.0), [0], ridge=-1.0),
     "ridge"),
    (lambda: run_robust_experiment(base_config("unwritten", ridge=-1.0, widths=[0])), "ridge"),
], ids=["draw-negative-seed", "draw-float-seed", "draw-negative-width",
        "fit-float-width", "fit-bool-width", "sample-float-n", "sample-negative-seed",
        "tabulated-strings", "conjugate-string-grid", "sin-product-float-dim",
        "smooth-step-float-dim", "constant-float-dim", "blob-float-dim",
        "zero-network-negative-dim", "measure-float-dim", "measure-bool-dim",
        "network-float-input-dim",
        "curve-bad-activation", "curve-negative-ridge", "config-negative-ridge"])
def test_public_calls_name_a_bad_argument(call, named):
    with pytest.raises(ValidationError, match=f"^bad value for {named}: "):
        call()


def test_robust_error_oracles():
    family = singleton_family()
    mu = family.dominating
    ones = from_table(mu, [1.0, 1.0])
    eta0 = zero_network(1, 1)
    per, sup = robust_error(family, ones, eta0)
    assert per.tolist() == [1.0]
    assert sup == 1.0

    zero = from_table(mu, [0.0, 0.0])
    per, sup = robust_error(family, zero, eta0)
    assert sup == 0.0


def test_robust_error_multi_member_matches_direct():
    pts = [[0.0], [1.0]]
    family = MeasureFamily.from_members([make_discrete(pts, [0.2, 0.8]),
                                         make_discrete(pts, [0.9, 0.1])])
    f = from_table(family.dominating, [2.0, -1.0])
    eta0 = zero_network(1, 1)
    per, sup = robust_error(family, f, eta0)
    want = [0.2 * 2.0 + 0.8 * 1.0, 0.9 * 2.0 + 0.1 * 1.0]
    assert np.allclose(per, want, rtol=0.0, atol=1e-15)
    assert sup == max(want)


def test_verify_bound_equality_witness():
    family = singleton_family()
    phi = power(2.0, 0.5)
    f = from_table(family.dominating, [1.0, 1.0])
    report = verify_robust_bound(family, dlvp_certificate(family, [phi]), f,
                                 zero_network(1, 1))
    assert abs(report.sup_l1 - 1.0) <= 1e-10
    assert abs(report.holder_rhs - 1.0) <= 1e-10
    assert report.bound_holds


def test_verify_bound_zero_residual():
    family = singleton_family()
    phi = power(2.0, 0.5)
    f = from_table(family.dominating, [0.0, 0.0])
    report = verify_robust_bound(family, dlvp_certificate(family, [phi]), f,
                                 zero_network(1, 1))
    assert report.sup_l1 == 0.0
    assert report.holder_rhs == 0.0
    assert report.bound_holds


def test_verify_bound_cross_checks_each_member_through_its_density():
    # the change-of-measure check integrates through the densities and
    # compares each member with its direct error, so a density a part in
    # 1e9 off is refused
    pts = [[0.0], [1.0]]
    family = MeasureFamily.from_members([make_discrete(pts, [0.2, 0.8]),
                                         make_discrete(pts, [0.9, 0.1])])
    phi = power(2.0, 0.5)
    f = from_table(family.dominating, [2.0, -1.0])
    cert = dlvp_certificate(family, [phi])
    assert verify_robust_bound(family, cert, f, zero_network(1, 1)).bound_holds
    first, second = family.densities
    object.__setattr__(family, "densities", (first, second * (1.0 + 1e-9)))
    with pytest.raises(OrliczError, match="change-of-measure"):
        verify_robust_bound(family, cert, f, zero_network(1, 1))


def test_verify_bound_random_sweep():
    rng = np.random.default_rng(29)
    phi = power(2.0, 0.5)
    for _ in range(150):
        n = int(rng.integers(2, 8))
        pts = np.sort(rng.uniform(-1.0, 1.0, size=n)).reshape(-1, 1)
        m = int(rng.integers(1, 4))
        members = []
        for _ in range(m):
            w = rng.uniform(0.05, 1.0, size=n)
            keep = rng.random(n) < 0.8
            w = np.where(keep, w, 0.0)
            if not np.any(w > 0.0):
                w[0] = 1.0
            members.append(make_discrete(pts, w))
        family = MeasureFamily.from_members(members)
        f = from_table(family.dominating,
                       rng.standard_normal(family.dominating.support_size) * 3.0)
        eta = zero_network(1, 1)
        report = verify_robust_bound(family, dlvp_certificate(family, [phi]), f, eta)
        assert report.bound_holds
        assert report.sup_l1 == max(report.per_measure_l1)


def test_sup_l1_monotone_in_family_growth():
    pts = [[0.0], [1.0]]
    nu1 = make_discrete(pts, [0.5, 0.5])
    nu2 = make_discrete(pts, [0.1, 0.9])
    f_small = MeasureFamily.from_members([nu1])
    f_big = MeasureFamily.from_members([nu1, nu2])
    phi = power(2.0, 0.5)
    table = from_table(f_big.dominating, [1.0, 2.0])
    small = verify_robust_bound(f_small, dlvp_certificate(f_small, [phi]), table,
                                zero_network(1, 1))
    big = verify_robust_bound(f_big, dlvp_certificate(f_big, [phi]), table,
                              zero_network(1, 1))
    assert big.sup_l1 >= small.sup_l1


def test_report_json_schema():
    family = singleton_family()
    phi = power(2.0, 0.5)
    f = from_table(family.dominating, [1.0, 1.0])
    report = verify_robust_bound(family, dlvp_certificate(family, [phi]), f,
                                 zero_network(1, 1))
    obj = report_json_dict(report, "i")
    assert set(obj) == {"sup_l1", "holder_rhs", "gauge_error",
                        "density_norm_sup", "per_measure_l1", "bound_holds",
                        "network_file", "case"}
    assert obj["case"] == "i"
    assert obj["network_file"] == "network.json"
    assert obj["bound_holds"] is True
    json.dumps(obj)


def base_config(tmp_path, **overrides):
    cfg = {
        "case": "i",
        "family": {"kind": "mixtures", "count": 2, "points": 64, "seed": 7,
                   "box": {"lo": [0.0], "hi": [1.0]}},
        "target": {"name": "sin_product", "dim": 1},
        "epsilon": 0.05,
        "widths": [8, 16],
        "seeds": 2,
        "out_dir": str(tmp_path),
    }
    cfg.update(overrides)
    return cfg


def test_experiment_trivial_epsilon_zero_width(tmp_path):
    cfg = base_config(tmp_path, epsilon=2.0, widths=[0])
    result = run_robust_experiment(cfg)
    assert result.success
    assert result.chosen_width == 0
    assert result.report.sup_l1 <= 1.0
    for name in ("report", "curve", "network"):
        assert Path(result.paths[name]).exists()


def test_experiment_case_i_desk_scale(tmp_path):
    result = run_robust_experiment(base_config(tmp_path))
    assert result.success
    assert result.report.sup_l1 < 0.05
    assert result.report.bound_holds
    report = json.loads(Path(result.paths["report"]).read_text())
    assert report["case"] == "i"
    assert report["sup_l1"] < 0.05


def test_experiment_case_ii_register_widths(tmp_path):
    cfg = base_config(tmp_path, case="ii", epsilon=0.5, widths=[4],
                      seeds=1, activation="relu", clip_range=[-2.0, 2.0])
    result = run_robust_experiment(cfg)
    net_obj = json.loads(Path(result.paths["network"]).read_text())
    widths = [len(layer["b"]) for layer in net_obj["layers"][:-1]]
    assert widths
    assert all(w == 3 for w in widths)


def test_experiment_case_iii_compact_box(tmp_path):
    cfg = base_config(tmp_path, case="iii", epsilon=0.5,
                      compact_box={"lo": [0.0], "hi": [1.0]}, widths=[8], seeds=1)
    result = run_robust_experiment(cfg)
    assert result.report.bound_holds

    shifted = base_config(tmp_path, case="iii", epsilon=0.5,
                          compact_box={"lo": [0.4], "hi": [0.6]},
                          widths=[8], seeds=1)
    with pytest.raises(HypothesisViolation):
        run_robust_experiment(shifted)


def test_experiment_case_iv_runs(tmp_path):
    cfg = base_config(tmp_path, case="iv", epsilon=0.5, widths=[8], seeds=1)
    result = run_robust_experiment(cfg)
    assert result.report.bound_holds
    report = json.loads(Path(result.paths["report"]).read_text())
    assert report["case"] == "iv"


def test_experiment_case_i_rejects_relu(tmp_path):
    cfg = base_config(tmp_path, activation="relu", widths=[4], seeds=1)
    with pytest.raises(HypothesisViolation) as info:
        run_robust_experiment(cfg)
    assert "bounded activation" in str(info.value)


def test_experiment_case_ii_needs_bound(tmp_path):
    # the zero constant declares no sup bound and no clip_range is given
    cfg = base_config(tmp_path, case="ii", activation="relu",
                      target={"name": "constant", "value": 0.0},
                      widths=[2], seeds=1)
    with pytest.raises(HypothesisViolation) as info:
        run_robust_experiment(cfg)
    assert "bounded target" in str(info.value)


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValidationError):
        run_robust_experiment(base_config(tmp_path, bogus=1))
    cfg = base_config(tmp_path)
    del cfg["target"]
    with pytest.raises(ValidationError):
        run_robust_experiment(cfg)
    with pytest.raises(ValidationError):
        run_robust_experiment(base_config(tmp_path, widths=[-1]))
    with pytest.raises(ValidationError):
        run_robust_experiment(base_config(tmp_path, case="v"))
    for clip_range in ([1.0, -1.0], [0.5, 0.5], [-1.0, float("nan")], [-1.0, float("inf")]):
        with pytest.raises(ValidationError, match="clip_range"):
            run_robust_experiment(base_config(tmp_path, case="ii", activation="relu",
                                              clip_range=clip_range))


def test_experiment_artifacts_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_robust_experiment(base_config(out1))
    run_robust_experiment(base_config(out2))
    for name in ("report.json", "curve.csv", "network.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("overrides", [{}, {"case": "ii", "activation": "relu"}])
def test_artifacts_do_not_depend_on_the_thread_count(tmp_path, monkeypatch, overrides):
    # 4,500 dominating points, so each fit sums over two column blocks
    family = {"kind": "mixtures", "count": 3, "points": 1500, "seed": 7,
              "box": {"lo": [0.0], "hi": [1.0]}}
    default_pool, fit = robust.ThreadPoolExecutor, robust.fit_random_features
    sizes, threads = [], {"one": set(), "default": set()}

    class OneWorker(default_pool):
        def __init__(self, *args, **kwargs):
            sizes.append((args, kwargs))
            super().__init__(max_workers=1)

    for tag, pool in (("one", OneWorker), ("default", default_pool)):
        def recording(*args, tag=tag):
            threads[tag].add(threading.get_ident())
            return fit(*args)

        monkeypatch.setattr(robust, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(robust, "fit_random_features", recording)
        result = run_robust_experiment(base_config(tmp_path / tag, epsilon=1e-9,
                                                   widths=[4, 8, 16], seeds=3,
                                                   family=family, **overrides))
    assert build_family(family)[0].dominating.support_size > 4096
    assert len(result.rows) == 9
    for name in ("report.json", "curve.csv", "network.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
    # the program asks for the default pool, which OneWorker overrode
    assert sizes == [((), {}), ((1,), {})]  # then one worker for the verification's member pass
    assert len(threads["one"]) == 1 and len(threads["default"]) > 1


def _recorded(monkeypatch) -> tuple:
    """(pools, threads): each pool's arguments, and the threads that fit or verify."""
    pools, threads = [], set()

    class Recorded(robust.ThreadPoolExecutor):
        def __init__(self, *args):
            pools.append(args)
            super().__init__(*args)

    def on_thread(call):
        def recorded(*args):
            threads.add(threading.get_ident())
            return call(*args)
        return recorded

    monkeypatch.setattr(robust, "ThreadPoolExecutor", Recorded)
    for name in ("fit_random_features", "robust_error"):
        monkeypatch.setattr(robust, name, on_thread(getattr(robust, name)))
    return pools, threads


@pytest.mark.parametrize("run", ["sub-block-run", "sub-block-curve", "one-seed-curve"])
def test_small_schedules_fit_on_the_calling_thread(tmp_path, monkeypatch, run):
    pools, threads = _recorded(monkeypatch)
    if run == "sub-block-run":  # 2 x 64 points, so the verification runs inline too
        rows = run_robust_experiment(base_config(tmp_path, epsilon=1e-9)).rows
    else:
        n, seeds = (4095, (0, 1, 2)) if run == "sub-block-curve" else (4500, (0,))
        mu = sample_empirical("uniform", n, 3, _UNIT_BOX)
        assert mu.support_size == n
        rows = robust.approximation_curve(sin_product(), mu, power(2.0), [8, 16], "sigmoid", seeds)
    assert len(rows) == {"sub-block-run": 4, "sub-block-curve": 6, "one-seed-curve": 2}[run]
    assert pools == [] and threads == {threading.get_ident()}


@pytest.mark.parametrize("overrides", [{}, {"case": "ii", "activation": "relu"}])
def test_small_supports_write_the_same_bytes_with_the_pool_forced(tmp_path, monkeypatch,
                                                                  overrides):
    mu = sample_empirical("uniform", 256, 5, _UNIT_BOX)

    def outputs(tag):
        run_robust_experiment(base_config(tmp_path / tag, epsilon=1e-9, widths=[4, 8, 16],
                                          seeds=3, **overrides))
        rows = robust.approximation_curve(sin_product(), mu, power(2.0), [4, 8, 16], "tanh")
        return ([(tmp_path / tag / name).read_bytes()
                 for name in ("report.json", "curve.csv", "network.json")]
                + [csv_text(*curve_csv_rows(rows))])

    inline = outputs("inline")
    pools, threads = _recorded(monkeypatch)
    monkeypatch.setattr(robust, "_POOL_POINTS", 1)  # every schedule and verification pools
    assert outputs("pooled") == inline
    assert pools == [(), (1,), ()] and threading.get_ident() not in threads


def _reference_points(sampler, n: int, seed: int, box: Box) -> np.ndarray:
    """sample_empirical's n points, made plainly: the same random calls, each
    round's in-box candidates appended, the first n kept."""
    rng, d = np.random.default_rng(seed), box.dim
    spec = {"name": sampler} if isinstance(sampler, str) else sampler
    if spec["name"] == "uniform":
        return rng.uniform(box.lo, box.hi, size=(n, d))
    comps = spec.get("components") or [{"weight": 1.0,
                                        "mean": spec.get("mean", 0.5 * (box.lo + box.hi)),
                                        "std": spec.get("std", 0.25 * (box.hi - box.lo))}]
    probs = np.array([c["weight"] for c in comps])
    kept = np.empty((0, d))
    while kept.shape[0] < n:
        if spec["name"] == "gaussian":
            cand = np.asarray(comps[0]["mean"]) + np.asarray(comps[0]["std"]) * \
                rng.standard_normal((n, d))
        else:
            idx = rng.choice(len(comps), size=n, p=probs / probs.sum())
            cand = np.empty((n, d))
            for k, c in enumerate(comps):
                cand[idx == k] = (np.asarray(c["mean"]) + np.asarray(c["std"])
                                  * rng.standard_normal((np.sum(idx == k), d)))
        kept = np.concatenate([kept, cand[np.all((cand >= box.lo) & (cand <= box.hi), axis=1)]])
    return kept[:n]


def _reference_canonical(pts, w):
    """Support, weights and each row's support row, by a lexicographic unique."""
    support, inverse = np.unique(pts + 0.0, axis=0, return_inverse=True)
    return support, np.bincount(inverse.ravel(), w), inverse.ravel()


def _reference_family(spec: dict):
    """build_family's members, dominating measure, rows and densities, made plainly."""
    box = Box.from_json_dict(spec["box"])
    master, n = np.random.SeedSequence(spec["seed"]), spec["points"]
    if spec["kind"] == "samplers":
        draws = [(s, int(child.generate_state(1)[0]))
                 for s, child in zip(spec["samplers"], master.spawn(len(spec["samplers"])))]
    else:
        draws, extent = [], box.hi - box.lo
        for child in master.spawn(spec["count"]):
            spec_seed, sample_seed = child.generate_state(2)
            rng = np.random.default_rng(int(spec_seed))
            comps = [{"weight": rng.uniform(0.3, 0.7),
                      "mean": box.lo + extent * rng.uniform(0.1, 0.9, size=box.dim),
                      "std": extent * rng.uniform(0.05, 0.2, size=box.dim)} for _ in range(2)]
            draws.append(({"name": "mixture", "components": comps}, int(sample_seed)))
    members = [DiscreteMeasure(*_reference_canonical(_reference_points(s, n, seed, box),
                                                     np.full(n, 1.0 / n))[:2])
               for s, seed in draws]
    *mu, found = _reference_canonical(np.concatenate([m.points for m in members]),
                                      np.concatenate([m.weights for m in members]) / len(members))
    mu = DiscreteMeasure(*mu)
    ends = np.cumsum([m.support_size for m in members])
    rows = [np.unique(found[end - m.support_size:end]) for m, end in zip(members, ends)]
    return members, mu, rows, [radon_nikodym(m, mu)[j] for m, j in zip(members, rows)]


@st.composite
def _family_specs(draw):
    """mixtures and samplers families; a box side may have zero width, and every
    sampler's mean lies in the box, with a std at most its side."""
    d = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    side = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=d,
                                  max_size=d)))
    spec = {"points": draw(st.integers(1, 300)), "seed": draw(st.integers(0, 2**32 - 1)),
            "box": {"lo": lo.tolist(), "hi": (lo + side).tolist()}}
    if draw(st.booleans()):
        return dict(spec, kind="mixtures", count=draw(st.integers(1, 6)))
    unit = st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d).map(np.array)
    component = st.builds(lambda w, u, v: {"weight": w, "mean": (lo + side * u).tolist(),
                                           "std": (side * v).tolist()},
                          st.floats(0.1, 2.0), unit, unit)
    sampler = st.one_of(
        st.just("uniform"), st.just({"name": "gaussian"}),
        component.map(lambda c: {"name": "gaussian", "mean": c["mean"], "std": c["std"]}),
        st.lists(component, min_size=1, max_size=3).map(
            lambda cs: {"name": "mixture", "components": cs}))
    return dict(spec, kind="samplers", samplers=draw(st.lists(sampler, min_size=1, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(_family_specs())
def test_build_family_matches_a_plain_reference(spec):
    family, _ = build_family(spec)
    members, mu, rows, densities = _reference_family(spec)
    assert len(family.members) == len(members)
    got = [family.dominating.points, family.dominating.weights, *family.rows, *family.densities]
    want = [mu.points, mu.weights, *rows, *densities]
    for nu, ref in zip(family.members, members):
        got += [nu.points, nu.weights]
        want += [ref.points, ref.weights]
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_feature_caches_are_released_before_verification(tmp_path, monkeypatch):
    caches = []

    class Recorded(robust.FeatureCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(weakref.ref(self))

    verify = robust.verify_robust_bound

    def checked(*args, **kwargs):
        assert caches and all(ref() is None for ref in caches)
        return verify(*args, **kwargs)

    monkeypatch.setattr(robust, "FeatureCache", Recorded)
    monkeypatch.setattr(robust, "verify_robust_bound", checked)
    run_robust_experiment(base_config(tmp_path, epsilon=1e-9))
    assert len(caches) == 2


def test_features_are_drawn_once_per_seed_on_the_calling_thread(tmp_path, monkeypatch):
    draw, calls = fit_module.draw_features, []

    def recorded(*args, **kwargs):
        calls.append((args[1], args[2], kwargs, threading.current_thread()))
        return draw(*args, **kwargs)

    monkeypatch.setattr(fit_module, "draw_features", recorded)
    # the widest width comes second: each seed draws it once, before any fit
    run_robust_experiment(base_config(tmp_path, epsilon=1e-9, widths=[2, 8, 4], seeds=3))
    assert [call[:3] for call in calls] == [(8, 0, {}), (8, 1, {}), (8, 2, {})]
    assert all(call[3] is threading.current_thread() for call in calls)


@pytest.mark.parametrize("overrides", [
    {}, {"case": "ii", "activation": "relu"}, {"case": "iv"}])
def test_the_written_network_is_evaluated_once_per_point_set(tmp_path, monkeypatch, overrides):
    # the members share 17 points, so the 33-point dominating support and
    # the 50 stacked member points tell the two passes apart
    members = [{"dim": 1, "points": np.linspace(0.0, 1.0, n)[:, None].tolist(),
                "weights": np.full(n, 1.0 / n).tolist()} for n in (33, 17)]
    calls = []
    evaluate = Network.evaluate_batch

    def counted(net, X):
        calls.append((net.to_json_dict(), len(X)))
        return evaluate(net, X)

    monkeypatch.setattr(Network, "evaluate_batch", counted)
    run_robust_experiment(base_config(tmp_path, epsilon=1e-9, widths=[4, 8], seeds=2,
                                      family={"kind": "members", "members": members},
                                      **overrides))
    written = json.loads((tmp_path / "network.json").read_text())
    assert sorted(n for _, n in calls) == [33, 50]
    assert all(net == written for net, _ in calls)


@pytest.mark.parametrize("overrides", [
    {"widths": [0, 8, 16], "seeds": 2},
    {"case": "ii", "activation": "relu", "clip_range": [-2.0, 2.0],
     "widths": [4, 8], "seeds": 2},
    {"case": "iv", "widths": [4, 8], "seeds": 2},
    # case iv's affine family and weight are fixed, so no box, however far
    # out or small, fails a hypothesis
    *({"case": "iv", "widths": [4, 8], "seeds": 2,
       "family": {"kind": "mixtures", "count": 3, "points": 64, "seed": 7,
                  "box": {"lo": [lo], "hi": [hi]}}}
      for lo, hi in ((10.0, 11.0), (-11.0, -10.0), (0.0, 1e-6))),
])
def test_curve_rows_match_direct_member_errors(tmp_path, monkeypatch, overrides):
    # curve.csv takes each member error from the densities; every candidate,
    # not only the verified one, must agree with the direct per-member sum
    # of the network that would be written for it
    fit = robust.fit_random_features
    cfg = base_config(tmp_path, epsilon=1e-9, **overrides)
    checked = robust._validate_config(cfg)
    family, box = build_family(cfg["family"])
    f = make_target(cfg["target"])
    # width 0 is the zero network, which no fit makes
    candidates = {(0, seed): (f, zero_network(1, 1))
                  for seed in checked["seeds"] if 0 in checked["widths"]}

    def recording(f, mu, width, activation, seed, ridge, cache):
        g = fit(f, mu, width, activation, seed, ridge, cache)
        candidates[(width, seed)] = (f, robust._written(checked["case"], checked, f, box, g))
        return g

    monkeypatch.setattr(robust, "fit_random_features", recording)
    result = run_robust_experiment(cfg)
    with open(result.paths["curve"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(candidates) == len(overrides["widths"]) * 2
    for row in rows:
        f, eta = candidates[(int(row["width"]), int(row["seed"]))]
        _, direct = robust_error(family, f, eta)
        assert float(row["sup_l1"]) == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_only_the_chosen_case_ii_fit_is_rewritten(tmp_path, monkeypatch):
    calls = {"to_register_form": 0, "clip_and_localize": 0}

    def counted(name):
        raw = getattr(robust, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return raw(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(robust, name, counted(name))
    result = run_robust_experiment(base_config(
        tmp_path, epsilon=1e-9, case="ii", activation="relu", widths=[4, 8], seeds=2))
    assert len(result.rows) == 4
    assert calls == {"to_register_form": 1, "clip_and_localize": 1}


def _bumped(network: Network) -> Network:
    """The same network with the first output's readout bias moved by 1e-6."""
    *hidden, last = network.layers
    b = last.b.copy()
    b[0] += 1e-6
    return Network((*hidden, Layer(last.A, b, last.act)))


@pytest.mark.parametrize("case, name, bump", [
    ("ii", "clip_and_localize", lambda reg: dataclasses.replace(reg, network=_bumped(reg.network))),
    ("iv", "_bias_as_hidden_unit", _bumped),
    # cases i and iii write the fit itself, which agrees with its scores bit
    # for bit, so a network written off them is refused as in cases ii and iv
    ("i", "_written", _bumped),
    ("iii", "_written", _bumped),
])
def test_a_written_network_off_its_scores_is_refused(tmp_path, monkeypatch, capsys,
                                                      case, name, bump):
    raw = getattr(robust, name)
    monkeypatch.setattr(robust, name, lambda *args: bump(raw(*args)))
    cfg = base_config(tmp_path / "run", case=case, epsilon=1e-9, widths=[4], seeds=1,
                      activation="relu" if case == "ii" else "sigmoid")
    with pytest.raises(OrliczError, match=f"written case-{case} network departs"):
        run_robust_experiment(cfg)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = dispatch(["robust", "--config", str(tmp_path / "cfg.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: the written case-{case} network departs") and \
        err.count("\n") == 1, err


def test_a_clip_range_far_beyond_the_fit_is_refused(tmp_path, capsys):
    # the register network clipped to [-1e20, 1] rounds at the scale of the
    # clip range and departs from its scores by thousands; the agreement
    # check scales with the scored values, not the clip range, so it refuses
    cfg = base_config(tmp_path / "run", case="ii", activation="relu", clip_range=[-1e20, 1.0],
                      epsilon=0.5, widths=[8], seeds=1,
                      family={"kind": "mixtures", "count": 3, "points": 128, "seed": 7,
                              "box": {"lo": [0.0], "hi": [1.0]}})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = dispatch(["robust", "--config", str(tmp_path / "cfg.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the written case-ii network departs") and \
        err.count("\n") == 1, err


def _certify_like(tmp_path):
    """A small case-iii family and fit with an entropy psi, as the certify benchmark runs."""
    cfg = base_config(tmp_path, case="iii", epsilon=1e-9, widths=[8], seeds=1,
                      psi_candidates=[{"kind": "entropy"}],
                      family={"kind": "mixtures", "count": 12, "points": 96, "seed": 3,
                              "box": {"lo": [0.0], "hi": [1.0]}},
                      target={"name": "gaussian_blob", "dim": 1})
    family, _ = build_family(cfg["family"])
    f = make_target(cfg["target"])
    eta = fit_random_features(f, family.dominating, 8, "sigmoid", seed=0)
    return cfg, family, f, eta


def test_verification_takes_the_density_norms_from_the_certificate(tmp_path):
    _, family, f, eta = _certify_like(tmp_path)
    cert = dlvp_certificate(family, [entropy()])
    report = verify_robust_bound(family, cert, f, eta)
    assert report.density_norm_sup == cert.sup_norm == float(np.max(cert.per_member_norms))
    short = dataclasses.replace(cert, per_member_norms=cert.per_member_norms[:-1])
    with pytest.raises(ValidationError, match="member count"):
        verify_robust_bound(family, short, f, eta)
    # the supremum is derived from the norms, so a changed certificate carries its own
    doubled = dataclasses.replace(cert, per_member_norms=2.0 * cert.per_member_norms)
    assert doubled.sup_norm == 2.0 * cert.sup_norm
    assert verify_robust_bound(family, doubled, f, eta).density_norm_sup == doubled.sup_norm


def test_a_run_computes_each_density_norm_once(tmp_path, monkeypatch):
    cfg, family, _, _ = _certify_like(tmp_path)
    calls = []
    gauge = robust.gauge_norm

    def counted(*args, **kwargs):
        calls.append(args[0])
        return gauge(*args, **kwargs)

    monkeypatch.setattr(robust, "gauge_norm", counted)
    run_robust_experiment(cfg)
    # one for the scored candidate and one for the verified residual; the
    # densities' norms come from the certificate
    assert len(calls) == 2
