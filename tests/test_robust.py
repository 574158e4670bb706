"""Associated Young pair, robust L1 error, bound verification, experiments."""
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

from orlicz_uat import (Box, DiscreteMeasure, HypothesisViolation, Layer, MeasureFamily,
                        Network, OrliczError, ValidationError, associated_young_pair,
                        build_family, constant, entropy, fit_random_features,
                        from_table, make_discrete, make_target, power, radon_nikodym,
                        report_json_dict, robust, robust_error,
                        run_robust_experiment, serialize, verify_robust_bound,
                        zero_network)
from orlicz_uat.cli import dispatch


def singleton_family():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    return MeasureFamily.from_members([mu])


def test_associated_pair_self_conjugate_singleton():
    family = singleton_family()
    phi_M, psi_M, cert = associated_young_pair(family, [power(2.0, 0.5)])
    assert psi_M.kind == "power" and psi_M.p == 2.0 and psi_M.scale == 0.5
    assert phi_M.kind == "power" and phi_M.p == 2.0 and phi_M.scale == 0.5
    assert abs(cert.sup_norm - 1.0 / np.sqrt(2.0)) <= 1e-9


def test_associated_pair_density_bound():
    # densities (0.4,1.6) and (1.6,0.4) stay below 2, so the certificate
    # cannot exceed 2/sqrt(2)
    pts = [[0.0], [1.0]]
    family = MeasureFamily.from_members([make_discrete(pts, [0.2, 0.8]),
                                         make_discrete(pts, [0.8, 0.2])])
    _, _, cert = associated_young_pair(family, [power(2.0, 0.5)])
    assert cert.sup_norm <= np.sqrt(2.0) + 1e-12


def test_associated_pair_empty_candidates():
    with pytest.raises(ValidationError):
        associated_young_pair(singleton_family(), [])


def test_associated_pair_entropy_conjugate():
    family = singleton_family()
    phi_M, psi_M, _ = associated_young_pair(family, [entropy()])
    assert psi_M.kind == "entropy"
    assert phi_M.kind == "exp_minus_linear"


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
    report = verify_robust_bound(family, phi, phi, f, zero_network(1, 1),
                                 epsilon=2.0, gauge_tol=1e-12)
    assert abs(report.sup_l1 - 1.0) <= 1e-10
    assert abs(report.holder_rhs - 1.0) <= 1e-10
    assert report.bound_holds
    assert report.epsilon == 2.0


def test_verify_bound_zero_residual():
    family = singleton_family()
    phi = power(2.0, 0.5)
    f = from_table(family.dominating, [0.0, 0.0])
    report = verify_robust_bound(family, phi, phi, f, zero_network(1, 1))
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
    assert verify_robust_bound(family, phi, phi, f, zero_network(1, 1)).bound_holds
    first, second = family.densities
    object.__setattr__(family, "densities", (first, second * (1.0 + 1e-9)))
    with pytest.raises(OrliczError, match="change-of-measure"):
        verify_robust_bound(family, phi, phi, f, zero_network(1, 1))


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
        report = verify_robust_bound(family, phi, phi, f, eta)
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
    small = verify_robust_bound(f_small, phi, phi, table, zero_network(1, 1))
    big = verify_robust_bound(f_big, phi, phi, table, zero_network(1, 1))
    assert big.sup_l1 >= small.sup_l1


def test_report_json_schema():
    family = singleton_family()
    phi = power(2.0, 0.5)
    f = from_table(family.dominating, [1.0, 1.0])
    report = verify_robust_bound(family, phi, phi, f, zero_network(1, 1),
                                 epsilon=0.5)
    obj = report_json_dict(report, "network.json", "i")
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
    phi_M, psi_M, cert = associated_young_pair(family, [entropy()])
    reports = [verify_robust_bound(family, phi_M, psi_M, f, eta, certificate=c)
               for c in (None, cert)]
    texts = [serialize.json_text(report_json_dict(r, "network.json", "iii")) for r in reports]
    assert texts[0] == texts[1]
    assert reports[1].density_norm_sup == float(np.max(cert.per_member_norms))
    for bad, kwargs in [
        (dataclasses.replace(cert, psi=entropy()), {}),
        (dataclasses.replace(cert, per_member_norms=cert.per_member_norms[:-1]), {}),
        (cert, {"gauge_tol": 1e-12}),
    ]:
        with pytest.raises(ValidationError):
            verify_robust_bound(family, phi_M, psi_M, f, eta, certificate=bad, **kwargs)


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
