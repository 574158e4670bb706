"""Random-feature least squares and error curves."""
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_uat import (Box, FitSolverError, FunctionTable, ValidationError, curve_csv_rows,
                        fit_random_features, from_table, gauge_norm, l1_norm,
                        make_discrete, make_target, power, residual_table, robust,
                        sample_empirical)
from orlicz_uat.fit import (FeatureCache, constant, draw_features, gaussian_blob,
                            sin_product, smooth_step)
from orlicz_uat.robust import approximation_curve
from orlicz_uat.net import _ROW_BLOCK, _apply_activation
from orlicz_uat.serialize import csv_text, json_text


def l2_residual(f, eta, mu):
    """The mu-weighted L2 norm of f - eta on the support of mu."""
    r = residual_table(f, eta, mu).values
    return float(np.sqrt(np.sum(np.sum(r * r, axis=1) * mu.weights)))


def uniform_support(n=256, seed=1, lo=0.0, hi=1.0):
    box = Box(np.array([lo]), np.array([hi]))
    return sample_empirical({"name": "uniform"}, n, seed=seed, clip_box=box)


def test_targets_evaluate():
    X = np.array([[0.0], [0.25], [0.5]])
    f = sin_product()
    assert np.allclose(f.evaluate(X)[:, 0],
                       np.sin(2.0 * np.pi * X[:, 0]), atol=1e-15)
    assert f.bound == 1.0
    g = gaussian_blob()
    assert abs(g.evaluate(np.array([[0.5]]))[0, 0] - 1.0) <= 1e-15
    s = smooth_step()
    assert 0.0 < s.evaluate(np.array([[0.5]]))[0, 0] < 1.0
    c = constant(value=2.5)
    assert c.evaluate(X)[:, 0].tolist() == [2.5, 2.5, 2.5]


def test_from_table_lookup():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    f = from_table(mu, [3.0, 7.0])
    assert f.evaluate(np.array([[1.0], [0.0]]))[:, 0].tolist() == [7.0, 3.0]
    with pytest.raises(ValidationError):
        f.evaluate(np.array([[0.5]]))
    # 0.0 and -0.0 are one point, whichever the support stores
    assert f.evaluate(np.array([[-0.0]]))[:, 0].tolist() == [3.0]
    g = from_table(make_discrete([[-0.0], [1.0]], [0.5, 0.5]), [3.0, 7.0])
    assert g.evaluate(np.array([[0.0]]))[:, 0].tolist() == [3.0]


def test_make_target_registry():
    f = make_target({"name": "sin_product", "dim": 1, "frequency": 2.0})
    x = np.array([[0.125]])
    assert abs(f.evaluate(x)[0, 0] - np.sin(4.0 * np.pi * 0.125)) <= 1e-15
    with pytest.raises(ValidationError):
        make_target({"name": "lorenz"})


def test_exact_recovery_of_in_span_feature():
    # target equal to the first drawn relu feature is recovered with zero
    # residual: the optimum puts weight 1 on that same feature column
    mu = uniform_support(64, seed=3)
    lo, hi = np.min(mu.points, axis=0), np.max(mu.points, axis=0)
    W, b = draw_features(1, 4, seed=9, lo=lo, hi=hi)
    vals = _apply_activation("relu", mu.points @ W.T + b)[:, 0]
    f = from_table(mu, vals)
    eta = fit_random_features(f, mu, 4, activation="relu", seed=9, ridge=0.0)
    assert l2_residual(f, eta, mu) <= 1e-10


def test_constant_target_residual_via_intercept():
    mu = uniform_support(128, seed=5)
    f = constant(value=0.75)
    eta = fit_random_features(f, mu, 1, activation="sigmoid", seed=0)
    assert l2_residual(f, eta, mu) <= 1e-8


def test_monotone_best_residual_in_width():
    mu = uniform_support(256, seed=1)
    f = sin_product()
    best = []
    for width in (8, 16, 32, 64):
        errs = [l2_residual(f, fit_random_features(f, mu, width, "sigmoid", s), mu)
                for s in (0, 1, 2)]
        best.append(min(errs))
    for lo_w, hi_w in zip(best, best[1:]):
        assert hi_w <= lo_w + 1e-9


def test_prefix_property_appending_feature_never_hurts():
    # nested draws share the first w features, so the wider least-squares
    # problem contains the narrow optimum and its residual cannot grow
    mu = uniform_support(64, seed=7)
    f = gaussian_blob()
    for w in (2, 5, 9):
        lo_fit = fit_random_features(f, mu, w, "relu", seed=4, ridge=0.0)
        hi_fit = fit_random_features(f, mu, w + 1, "relu", seed=4, ridge=0.0)
        assert l2_residual(f, hi_fit, mu) <= l2_residual(f, lo_fit, mu) + 1e-10


def test_feature_draw_prefix_property():
    lo, hi = np.array([0.0]), np.array([1.0])
    W8, b8 = draw_features(1, 8, seed=2, lo=lo, hi=hi)
    W16, b16 = draw_features(1, 16, seed=2, lo=lo, hi=hi)
    assert W16[:8].tolist() == W8.tolist()
    assert b16[:8].tolist() == b8.tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(1, 3), st.integers(1, 40), st.data())
def test_feature_draw_is_the_spawned_child_stream(seed, dim, width, data):
    # oracle: spawn all width children, then draw feature k from child k,
    # its anchor by Generator.uniform on any box whose sides are doubles
    start = data.draw(st.integers(0, width - 1))
    ends = st.lists(st.floats(-1e307, 1e307), min_size=dim, max_size=dim)
    lo, hi = np.sort([data.draw(ends), data.draw(ends)], axis=0)
    children = np.random.SeedSequence(seed).spawn(width)
    W_want, b_want = np.empty((width - start, dim)), np.empty(width - start)
    for row, k in enumerate(range(start, width)):
        rng = np.random.default_rng(children[k])
        W_want[row] = rng.standard_normal(dim)
        # + 0.0: uniform refuses lo = 0.0 above hi = -0.0, which sort as equals
        b_want[row] = -float(W_want[row] @ rng.uniform(lo + 0.0, hi + 0.0))
    W, b = draw_features(dim, width, seed, lo, hi, start=start)
    assert np.array_equal(W, W_want) and np.array_equal(b, b_want)


def test_fit_determinism_bitwise():
    mu = uniform_support(64, seed=11)
    f = sin_product()
    a = fit_random_features(f, mu, 16, "relu", seed=3)
    b = fit_random_features(f, mu, 16, "relu", seed=3)
    assert json_text(a.to_json_dict()) == json_text(b.to_json_dict())


@st.composite
def _growth_problems(draw):
    dim = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(8, 48))
    mu = make_discrete(rng.uniform(size=(n, dim)), rng.uniform(0.1, 1.0, size=n))
    widths = sorted(draw(st.sets(st.integers(1, 24), min_size=2, max_size=5)))
    return (mu, sin_product(dim), widths, draw(st.sampled_from(("relu", "sigmoid", "tanh"))),
            draw(st.integers(0, 99)), draw(st.floats(1e-6, 1e-2)))


@settings(max_examples=60, deadline=None)
@given(_growth_problems())
def test_grown_fit_predicts_like_a_fresh_fit(problem):
    mu, f, widths, act, seed, ridge = problem
    cache = FeatureCache(mu, f.evaluate(mu.points), act, seed, ridge, widths[-1])
    for step, width in enumerate(widths):
        grown = fit_random_features(f, mu, width, act, seed, ridge, cache)
        fresh = fit_random_features(f, mu, width, act, seed, ridge)
        want = fresh.evaluate_batch(mu.points)
        got = grown.evaluate_batch(mu.points)
        if step == 0:
            # the first step of a cache is a fresh fit, whatever its capacity
            assert json_text(grown.to_json_dict()) == json_text(fresh.to_json_dict())
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        assert grown.layers[0].A.tolist() == fresh.layers[0].A.tolist()


def test_cached_score_is_the_network_on_the_support():
    mu = uniform_support(512, seed=3)
    f = sin_product()
    for act in ("relu", "sigmoid", "tanh"):
        cache = FeatureCache(mu, f.evaluate(mu.points), act, 2, 1e-10, 64)
        for width in (8, 16, 64, 32):
            eta = fit_random_features(f, mu, width, act, 2, 1e-10, cache)
            want = eta.evaluate_batch(mu.points)
            assert np.array_equal(cache.predict(eta), want)


def test_growth_over_several_column_blocks():
    # three blocks of support points, the last one partial
    n = 2 * _ROW_BLOCK + 37
    rng = np.random.default_rng(5)
    mu = make_discrete(rng.uniform(size=(n, 2)), rng.uniform(0.1, 1.0, size=n))
    assert mu.support_size == n
    f = sin_product(2)
    for act in ("relu", "sigmoid", "tanh"):
        cache = FeatureCache(mu, f.evaluate(mu.points), act, 4, 1e-6, 40)
        for width in (8, 24, 40):
            grown = fit_random_features(f, mu, width, act, 4, 1e-6, cache)
            want = fit_random_features(f, mu, width, act, 4, 1e-6).evaluate_batch(mu.points)
            got = grown.evaluate_batch(mu.points)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
            assert np.array_equal(cache.predict(grown), got)


def test_feature_cache_refuses_another_fit():
    mu = uniform_support(16, seed=2)
    f = sin_product()
    cache = FeatureCache(mu, f.evaluate(mu.points), "relu", 0, 1e-10, 8)
    with pytest.raises(ValidationError):
        fit_random_features(f, mu, 4, "relu", 1, 1e-10, cache)
    with pytest.raises(ValidationError):
        fit_random_features(f, uniform_support(16, seed=2), 4, "relu", 0, 1e-10, cache)
    with pytest.raises(ValidationError):
        fit_random_features(f, mu, 9, "relu", 0, 1e-10, cache)


def test_fit_validation_and_singular_advice():
    mu = uniform_support(16, seed=2)
    f = sin_product()
    with pytest.raises(ValidationError):
        fit_random_features(f, mu, 0, "relu", 0)
    with pytest.raises(ValidationError):
        fit_random_features(f, mu, 4, "softmax", 0)
    # duplicated support points leave dead-relu columns exactly collinear
    dup = make_discrete([[0.5]], [1.0])
    g = from_table(dup, [1.0])
    with pytest.raises(FitSolverError):
        fit_random_features(g, dup, 8, "relu", seed=0, ridge=0.0)
    # on two points, feature 1 of seed 16 is dead and feature 0 is not: a
    # cache grown past width 1 meets an exactly zero Cholesky pivot
    two = make_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    W, b = draw_features(2, 2, 16, np.zeros(2), np.ones(2))
    h = _apply_activation("relu", two.points @ W.T + b)
    assert h[0, 0] != h[1, 0] and not np.any(h[:, 1])
    g = from_table(two, [1.0, 2.0])
    cache = FeatureCache(two, g.evaluate(two.points), "relu", 16, 0.0, 2)
    fit_random_features(g, two, 1, "relu", 16, 0.0, cache)
    with pytest.raises(FitSolverError):
        fit_random_features(g, two, 2, "relu", 16, 0.0, cache)


def test_non_finite_normal_equations_are_refused():
    # relu features on a support spanning 1e300 overflow the Gram matrix
    mu = make_discrete([[0.0], [1e300]], [0.5, 0.5])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FitSolverError):
        fit_random_features(from_table(mu, [1.0, 2.0]), mu, 8, "relu", seed=0)


def test_ridge_is_relative_to_the_total_mass():
    # eight sigmoid features on three points are nearly collinear; an
    # absolute ridge vanished beside a Gram matrix of mass 1e6
    pts = np.array([[0.0], [0.5], [1.0]])
    f = gaussian_blob()
    light, heavy = (fit_random_features(f, make_discrete(pts, [0.2 * m, 0.3 * m, 0.5 * m]),
                                        8, "sigmoid", seed=0) for m in (1.0, 1e6))
    assert np.max(np.abs(light.evaluate_batch(pts) - heavy.evaluate_batch(pts))) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 64), width=st.integers(4, 64),
       activation=st.sampled_from(("relu", "sigmoid", "tanh")), c=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**16))
def test_scaling_the_weights_keeps_the_fit(n, width, activation, c, seed):
    rng = np.random.default_rng(seed)
    pts, w = rng.uniform(size=(n, 2)), rng.uniform(0.1, 1.0, n)
    f = gaussian_blob(2)
    fits = [fit_random_features(f, make_discrete(pts, scale * w), width, activation, seed)
            for scale in (1.0, c)]
    a, b = (net.evaluate_batch(pts) for net in fits)
    assert np.max(np.abs(a - b)) <= 1e-5


def test_curve_single_width_single_seed():
    mu = uniform_support(64, seed=13)
    f = sin_product()
    rows = approximation_curve(f, mu, power(2.0), [8], seeds=(0,))
    assert len(rows) == 1
    assert rows[0].width == 8 and rows[0].seed == 0
    assert rows[0].gauge_error > 0.0 and rows[0].l1_error > 0.0


def test_curve_zero_error_when_target_in_span():
    mu = uniform_support(64, seed=17)
    f = sin_product()
    eta = fit_random_features(f, mu, 8, "relu", seed=5, ridge=0.0)
    table = from_table(mu, eta.evaluate_batch(mu.points)[:, 0])
    rows = approximation_curve(table, mu, power(2.0), [8], activation="relu",
                               seeds=(5,), ridge=0.0)
    assert rows[0].gauge_error <= 1e-9
    assert rows[0].l1_error <= 1e-9


def test_curve_best_over_seeds_nonincreasing():
    mu = uniform_support(256, seed=1)
    f = sin_product()
    rows = approximation_curve(f, mu, power(2.0), (8, 16, 32), "sigmoid")
    best = {}
    for r in rows:
        best[r.width] = min(best.get(r.width, np.inf), r.gauge_error)
    series = [best[w] for w in (8, 16, 32)]
    for lo_w, hi_w in zip(series, series[1:]):
        assert hi_w <= lo_w + 1e-9


def test_curve_gauge_matches_l2_for_square_phi():
    # with phi = x^2 the gauge norm is the weighted L2 norm, so the curve's
    # gauge_error column must match l2_residual
    mu = uniform_support(64, seed=19)
    f = sin_product()
    rows = approximation_curve(f, mu, power(2.0), [8], seeds=(0,))
    eta = fit_random_features(f, mu, 8, "relu", seed=0)
    assert abs(rows[0].gauge_error - l2_residual(f, eta, mu)) <= 1e-8
    resid = residual_table(f, eta, mu)
    assert abs(rows[0].gauge_error - gauge_norm(power(2.0), mu, resid).value) <= 1e-12


def test_curve_csv_rows_shape():
    mu = uniform_support(32, seed=23)
    f = sin_product()
    rows = approximation_curve(f, mu, power(2.0), [4], seeds=(0, 1))
    header, body = curve_csv_rows(rows)
    assert header == ("width", "seed", "gauge_error", "l1_error", "fit_millis")
    assert len(body) == 2
    assert all(r[4] == 0 for r in body)


def test_curve_rows_equal_a_serial_reference_loop():
    # 4,500 points, so each fit sums over two column blocks
    mu = uniform_support(4500, seed=29)
    f, phi, widths, seeds = sin_product(), power(1.5), (4, 8, 16), (0, 1, 2)
    values = f.evaluate(mu.points)
    caches = [FeatureCache(mu, values, "sigmoid", seed, 1e-10, max(widths)) for seed in seeds]
    want = []
    for width in widths:
        for cache in caches:
            resid = FunctionTable(values - cache.predict(cache.fit(width)))
            want.append((width, cache.seed, gauge_norm(phi, mu, resid).value, l1_norm(mu, resid)))
    rows = approximation_curve(f, mu, phi, widths, "sigmoid", seeds)
    assert [(r.width, r.seed, r.gauge_error, r.l1_error) for r in rows] == want


def test_a_curves_seeds_run_on_more_than_one_thread(monkeypatch):
    fit, threads = robust.fit_random_features, set()

    def recording(*args):
        threads.add(threading.get_ident())
        return fit(*args)

    monkeypatch.setattr(robust, "fit_random_features", recording)
    rows = approximation_curve(sin_product(), uniform_support(), power(2.0), (8, 16))
    assert len(rows) == 6
    assert len(threads) > 1 and threading.get_ident() not in threads


def test_curve_csv_does_not_depend_on_the_thread_count(monkeypatch):
    mu = uniform_support(4500, seed=31)

    def curve_csv():
        rows = approximation_curve(sin_product(), mu, power(2.0), (4, 8, 16), "tanh")
        return csv_text(*curve_csv_rows(rows))

    default = curve_csv()

    class OneWorker(robust.ThreadPoolExecutor):
        def __init__(self):
            super().__init__(max_workers=1)

    monkeypatch.setattr(robust, "ThreadPoolExecutor", OneWorker)
    assert curve_csv() == default


def test_curve_width_zero_is_the_zero_network():
    mu = uniform_support(64, seed=37)
    f, phi = sin_product(), power(2.0)
    rows = approximation_curve(f, mu, phi, [0, 4], seeds=(0, 1))
    values = FunctionTable(f.evaluate(mu.points))
    assert [(r.width, r.seed) for r in rows] == [(0, 0), (0, 1), (4, 0), (4, 1)]
    for r in rows[:2]:
        assert (r.gauge_error, r.l1_error) == (gauge_norm(phi, mu, values).value,
                                               l1_norm(mu, values))


@pytest.mark.parametrize("widths, seeds, named", [
    ([], (0,), "widths"), ([4], (), "seed"), ([-1], (0,), "widths"), ([4], (-1,), "seed"),
    (["4"], (0,), "widths"), ([4.0], (0,), "widths"), ([4], "x", "seed"),
])
def test_curve_refuses_bad_widths_and_seeds(widths, seeds, named):
    mu = uniform_support(16)
    with pytest.raises(ValidationError, match=f"^bad value for {named}: "):
        approximation_curve(sin_product(), mu, power(2.0), widths, seeds=seeds)
