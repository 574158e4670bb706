"""Network data model, ReLU gadgets, register form, clipping, functional nets."""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_uat
from orlicz_uat import (AffineFamily, AffineMap, Box, Layer,
                        LinearOnlyFamily, Network, RegisterLayout,
                        ValidationError, ZeroFamily, bump_1d, box_indicator,
                        check_additive_family, check_weight_compatibility,
                        clip_and_localize, fit_random_features,
                        identity_gadget, make_discrete, max_gadget,
                        min_gadget, quadratic_weight,
                        quadratic_weight_scalar, robust, sin_product,
                        to_register_form, zero_network)
from orlicz_uat.fit import FeatureCache
from orlicz_uat.net import _AGREEMENT_TOL


def relu_pair_identity():
    # rho(x) - rho(-x) = x for all x
    hidden = Layer(np.array([[1.0], [-1.0]]), np.zeros(2), "relu")
    out = Layer(np.array([[1.0, -1.0]]), np.zeros(1), "none")
    return Network((hidden, out))


def _one_product(net: Network, X: np.ndarray) -> np.ndarray:
    """Every layer over all rows at once, feature-major, the sigmoid as 1 / (1 + exp(-z)).

    The rows are padded with zeros to a multiple of 64: BLAS computes a
    product's last rows with an edge kernel of its own (OpenBLAS does above
    1e6 multiply-adds), so unpadded, the one product itself rounds its last
    rows by the row count.
    """
    z = np.concatenate([X, np.zeros((-len(X) % 64, X.shape[1]))]).T
    for lay in net.layers:
        z = lay.A @ z + lay.b[:, None]
        if lay.act == "relu":
            z = np.maximum(z, 0.0)
        elif lay.act == "sigmoid":
            with np.errstate(over="ignore"):
                z = 1.0 / (1.0 + np.exp(-z))
        elif lay.act == "tanh":
            z = np.tanh(z)
    return z.T[:len(X)]


_BLOCK_ROWS = (0, 1, 4095, 4096, 4097, 2 * 4096 + 3)


def _blocked_matches(seed, dims, acts, rows, decades):
    rng = np.random.default_rng(seed)
    layers = [Layer(rng.standard_normal((m, k)), rng.standard_normal(m), act)
              for k, m, act in zip(dims, dims[1:], acts)]
    net = Network((*layers[:-1], Layer(layers[-1].A, layers[-1].b, "none")))
    X = 10.0 ** decades * rng.standard_normal((rows, dims[0]))
    X_before = X.copy()
    assert np.array_equal(net.evaluate_batch(X), _one_product(net, X))
    assert np.array_equal(X, X_before)


_ROWS = st.sampled_from(_BLOCK_ROWS) | st.integers(0, 3 * 4096)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 140), min_size=2, max_size=9),
       st.lists(st.sampled_from(("relu", "sigmoid", "tanh", "identity")), min_size=7,
                max_size=7),
       _ROWS, st.floats(0.0, 3.0))
def _blocked_is_the_one_product(seed, dims, acts, rows, decades):
    # depth 1-8 and widths 1-140; inputs up to 1e3 push sigmoid arguments
    # below -709, where exp(-z) overflows to inf and the sigmoid is exactly 0
    _blocked_matches(seed, dims, acts, rows, decades)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 140),
       st.lists(st.integers(1, 5), min_size=141, max_size=141),
       st.lists(st.sampled_from(("relu", "identity")), min_size=140, max_size=140),
       _ROWS, st.floats(0.0, 3.0))
def _blocked_deep_narrow_is_the_one_product(seed, depth, widths, acts, rows, decades):
    # the shape of a register network: depth 1-140, widths 1-5
    _blocked_matches(seed, widths[:depth + 1], acts, rows, decades)


def _long_blocks_are_the_one_product():
    # a block holds at most 16 x 4,096 activations of its widest layer and
    # never fewer than 4,096 rows: width 4 runs 16,384-row blocks, width 16
    # sits on the budget and width 17 past it, both at 4,096 rows
    for width, depth in ((4, 120), (16, 3), (17, 3)):
        acts = ["relu", "identity", "tanh"] * (depth // 3 + 1)
        _blocked_matches(width, [2, *[width] * depth, 1], acts, 2 * 16_384 + 37, 0.0)


def test_blocked_evaluation_is_the_one_product_bit_for_bit():
    # on one BLAS thread, in a fresh interpreter: a threaded BLAS splits the
    # rows of a matrix-vector product among its threads and rounds a row by
    # where the split falls, so even the one product then depends on the row count
    paths = [str(Path(__file__).resolve().parent), str(Path(orlicz_uat.__file__).parents[1])]
    probe = (f"import sys; sys.path[:0] = {paths!r}; import test_net; "
             "test_net._blocked_is_the_one_product(); "
             "test_net._blocked_deep_narrow_is_the_one_product(); "
             "test_net._long_blocks_are_the_one_product()")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_evaluation_holds_one_block_of_activations():
    # all 100,000 rows of a width-128 layer at once would take 98 MiB per temporary
    rng = np.random.default_rng(0)
    net = Network((Layer(rng.standard_normal((128, 2)), rng.standard_normal(128), "sigmoid"),
                   Layer(rng.standard_normal((1, 128)), rng.standard_normal(1), "none")))
    X = rng.standard_normal((100_000, 2))
    tracemalloc.start()
    try:
        net.evaluate_batch(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_evaluate_affine_identity():
    net = Network((Layer(np.eye(2), np.zeros(2), "none"),))
    x = np.array([0.3, -2.0])
    assert net.evaluate(x).tolist() == x.tolist()


def test_evaluate_relu_pair_identity():
    net = relu_pair_identity()
    assert net.evaluate([-3.0])[0] == -3.0
    assert net.evaluate([4.5])[0] == 4.5
    assert net.evaluate([0.0])[0] == 0.0


def test_evaluate_relu_kills_negative():
    net = Network((Layer(np.eye(1), np.zeros(1), "relu"),
                   Layer(np.eye(1), np.zeros(1), "none")))
    assert net.evaluate([-1.0])[0] == 0.0
    assert net.evaluate([2.0])[0] == 2.0


def test_evaluate_dimension_mismatch():
    net = relu_pair_identity()
    with pytest.raises(ValidationError):
        net.evaluate([1.0, 2.0])


def test_network_validation():
    with pytest.raises(ValidationError):
        Network(())
    with pytest.raises(ValidationError):
        Network((Layer(np.eye(2), np.zeros(2), "relu"),
                 Layer(np.eye(3), np.zeros(3), "none")))
    with pytest.raises(ValidationError):
        # final layer must be the affine readout
        Network((Layer(np.eye(1), np.zeros(1), "relu"),))
    with pytest.raises(ValidationError):
        Layer(np.eye(1), np.zeros(1), "softplus")
    with pytest.raises(ValidationError):
        Layer(np.array([[np.inf]]), np.zeros(1), "relu")


def test_network_json_round_trip_bit_exact():
    rng = np.random.default_rng(2)
    net = Network((Layer(rng.standard_normal((3, 2)), rng.standard_normal(3), "relu"),
                   Layer(rng.standard_normal((1, 3)), rng.standard_normal(1), "none")))
    obj = net.to_json_dict()
    assert set(obj) == {"input_dim", "layers"}
    assert set(obj["layers"][0]) == {"A", "b", "act"}
    back = Network.from_json_dict(json.loads(json.dumps(obj)))
    for la, lb in zip(net.layers, back.layers):
        assert la.A.tolist() == lb.A.tolist()
        assert la.b.tolist() == lb.b.tolist()
        assert la.act == lb.act


def test_zero_network():
    net = zero_network(2, 3)
    assert net.evaluate([5.0, -1.0]).tolist() == [0.0, 0.0, 0.0]


def test_identity_gadget_oracles():
    net = identity_gadget(10.0)
    assert net.evaluate([-5.0])[0] == -5.0
    assert net.evaluate([3.0])[0] == 3.0
    # out-of-domain saturation below -N
    assert net.evaluate([-11.0])[0] == -10.0
    with pytest.raises(ValidationError):
        identity_gadget(0.0)


def test_max_min_gadget_oracles():
    mx, mn = max_gadget(), min_gadget()
    assert mx.evaluate([2.0, 5.0])[0] == 5.0
    assert mn.evaluate([-1.0, -3.0])[0] == -3.0
    assert mx.evaluate([4.0, 4.0])[0] == 4.0
    assert mn.evaluate([4.0, 4.0])[0] == 4.0


def test_gadget_exactness_sweep():
    rng = np.random.default_rng(3)
    X = rng.uniform(-100.0, 100.0, size=(100000, 2))
    mx = max_gadget().evaluate_batch(X)[:, 0]
    mn = min_gadget().evaluate_batch(X)[:, 0]
    assert float(np.max(np.abs(mx - np.max(X, axis=1)))) <= 1e-12
    assert float(np.max(np.abs(mn - np.min(X, axis=1)))) <= 1e-12
    xs = rng.uniform(-9.5, 50.0, size=(2000, 1))
    ident = identity_gadget(10.0).evaluate_batch(xs)[:, 0]
    assert float(np.max(np.abs(ident - xs[:, 0]))) <= 1e-12


def test_bump_1d_oracles():
    V = bump_1d(0.0, 1.0, 0.5)
    assert V.evaluate([0.5])[0] == 1.0
    assert V.evaluate([-0.5])[0] == 0.0
    assert V.evaluate([-0.25])[0] == 0.5
    assert V.evaluate([1.25])[0] == 0.5
    assert V.evaluate([2.0])[0] == 0.0
    with pytest.raises(ValidationError):
        bump_1d(1.0, 0.0, 0.5)
    with pytest.raises(ValidationError):
        bump_1d(0.0, 1.0, 0.0)


def test_bump_1d_range_on_dense_grid():
    V = bump_1d(-0.5, 0.75, 0.25)
    xs = np.linspace(-3.0, 3.0, 2001).reshape(-1, 1)
    vals = V.evaluate_batch(xs)[:, 0]
    assert float(np.min(vals)) >= 0.0
    assert float(np.max(vals)) <= 1.0
    on = (xs[:, 0] >= -0.5) & (xs[:, 0] <= 0.75)
    off = (xs[:, 0] <= -0.75 - 1e-12) | (xs[:, 0] >= 1.0 + 1e-12)
    assert np.allclose(vals[on], 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(vals[off], 0.0, rtol=0.0, atol=1e-12)


def test_box_indicator_oracles():
    J = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    V = box_indicator(J, 0.5)
    assert V.evaluate([0.5, 0.5])[0] == 1.0
    assert V.evaluate([0.5, 1.6])[0] == 0.0
    assert abs(V.evaluate([-0.25, 0.5])[0] - 0.5) <= 1e-12


def test_box_indicator_support_sweep():
    J = Box(np.array([-1.0, 0.0, 0.5]), np.array([1.0, 2.0, 1.5]))
    delta = 0.25
    V = box_indicator(J, delta)
    rng = np.random.default_rng(8)
    X = rng.uniform(-3.0, 4.0, size=(10000, 3))
    vals = V.evaluate_batch(X)[:, 0]
    assert float(np.min(vals)) >= 0.0 and float(np.max(vals)) <= 1.0
    K = J.enlarged(delta)
    inside_J = np.all((X >= J.lo) & (X <= J.hi), axis=1)
    outside_K = np.any((X < K.lo - 1e-12) | (X > K.hi + 1e-12), axis=1)
    assert np.allclose(vals[inside_J], 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(vals[outside_K], 0.0, rtol=0.0, atol=1e-12)


def random_shallow(rng, n_in, n_out, m):
    W1 = rng.standard_normal((m, n_in))
    b1 = rng.standard_normal(m)
    W2 = rng.standard_normal((n_out, m))
    b2 = rng.standard_normal(n_out)
    return Network((Layer(W1, b1, "relu"), Layer(W2, b2, "none")))


def test_register_layout_width():
    layout = RegisterLayout.for_dims(3, 2)
    assert layout.width == 6
    idx = sorted(list(layout.input_registers) + list(layout.output_registers)
                 + [layout.compute_index])
    assert idx == list(range(6))


def test_to_register_form_agrees_with_shallow():
    rng = np.random.default_rng(31)
    box = Box(np.array([-10.0]), np.array([10.0]))
    shallow = random_shallow(rng, 1, 1, 1)
    reg = to_register_form(shallow, box)
    X = rng.uniform(-10.0, 10.0, size=(100, 1))
    want = shallow.evaluate_batch(X)
    got = reg.network.evaluate_batch(X)
    assert float(np.max(np.abs(want - got))) <= 1e-9
    for w in reg.network.hidden_widths:
        assert w == 3


def test_to_register_form_multi_dim_sweep():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 3))
        m = int(rng.integers(1, 17))
        box = Box(-2.0 * np.ones(n_in), 2.0 * np.ones(n_in))
        shallow = random_shallow(rng, n_in, n_out, m)
        reg = to_register_form(shallow, box)
        X = box.sample(rng, 200)
        err = np.max(np.abs(shallow.evaluate_batch(X) - reg.network.evaluate_batch(X)))
        assert float(err) <= 1e-9
        for w in reg.network.hidden_widths:
            assert w == n_in + n_out + 1


def test_to_register_form_affine_edge():
    # a pure affine input comes back unchanged
    affine = Network((Layer(np.array([[2.0, 0.5]]), np.array([1.0]), "none"),))
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    out = to_register_form(affine, box)
    assert isinstance(out, Network)
    x = np.array([0.3, -0.4])
    assert abs(out.evaluate(x)[0] - affine.evaluate(x)[0]) <= 1e-12


def test_to_register_form_rejects_deep_nets():
    deep = Network((Layer(np.eye(1), np.zeros(1), "relu"),
                    Layer(np.eye(1), np.zeros(1), "relu"),
                    Layer(np.eye(1), np.zeros(1), "none")))
    box = Box(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        to_register_form(deep, box)


def test_clip_and_localize_oracle_values():
    # a shallow net computing the constant 0.5 inside the box
    shallow = Network((Layer(np.zeros((1, 1)), np.array([0.5]), "relu"),
                       Layer(np.eye(1), np.zeros(1), "none")))
    J = Box(np.array([0.0]), np.array([1.0]))
    box = Box(np.array([-2.0]), np.array([2.0]))
    reg = to_register_form(shallow, box)
    G = clip_and_localize(reg, J, 0.25, -1.0, 2.0)
    assert abs(G.network.evaluate([0.5])[0] - 0.5) <= 1e-12
    assert G.network.evaluate([1.6])[0] == 0.0

    # constant 3 exceeds C=2, so the clip takes over on J
    shallow3 = Network((Layer(np.zeros((1, 1)), np.array([3.0]), "relu"),
                        Layer(np.eye(1), np.zeros(1), "none")))
    reg3 = to_register_form(shallow3, box)
    G3 = clip_and_localize(reg3, J, 0.25, -1.0, 2.0)
    assert abs(G3.network.evaluate([0.5])[0] - 2.0) <= 1e-9


def test_clip_and_localize_support_and_interior():
    rng = np.random.default_rng(41)
    n_in, n_out = 2, 2
    box = Box(-3.0 * np.ones(n_in), 3.0 * np.ones(n_in))
    J = Box(np.array([-1.0, 0.0]), np.array([1.0, 1.5]))
    delta = 0.25
    shallow = random_shallow(rng, n_in, n_out, 7)
    reg = to_register_form(shallow, box)
    c, C = -4.0, 4.0
    G = clip_and_localize(reg, J, delta, c, C)
    for w in G.network.hidden_widths:
        assert w == n_in + n_out + 1

    inside = J.sample(rng, 400)
    want = np.clip(shallow.evaluate_batch(inside), c, C)
    got = G.network.evaluate_batch(inside)
    assert float(np.max(np.abs(want - got))) <= 1e-9

    K = J.enlarged(delta)
    exterior = rng.uniform(-30.0, 30.0, size=(4000, n_in))
    keep = np.any((exterior < K.lo - 1e-9) | (exterior > K.hi + 1e-9), axis=1)
    out_vals = G.network.evaluate_batch(exterior[keep])
    assert float(np.max(np.abs(out_vals))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 16), st.integers(0, 2**32 - 1),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
       st.floats(0.01, 1.0), st.floats(-2.0, 1.0), st.floats(0.05, 4.0))
def test_clipped_register_network_is_the_clip_on_the_box(n_in, n_out, m, seed, lo, extent,
                                                         delta, c, span):
    # the robust pipeline scores case ii as clip(g, c, C) and rewrites only
    # the chosen fit; the rewrite must equal g on the enlarged box K, and its
    # clip the clip of g on J, within the run's check, at width n_in + n_out + 1
    rng = np.random.default_rng(seed)
    g = random_shallow(rng, n_in, n_out, m)
    J = Box(np.array(lo[:n_in]), np.array(lo[:n_in]) + np.array(extent[:n_in]))
    K = J.enlarged(delta)
    C = c + span
    reg = to_register_form(g, K)
    clipped = clip_and_localize(reg, J, delta, c, C).network
    for net, box, want_of in ((reg.network, K, lambda v: v),
                              (clipped, J, lambda v: np.clip(v, c, C))):
        assert set(net.hidden_widths) == {n_in + n_out + 1}
        X = np.vstack([box.lo, box.hi, box.sample(rng, 64)])
        want = want_of(g.evaluate_batch(X))
        gap = np.max(np.abs(net.evaluate_batch(X) - want))
        assert float(gap) <= _AGREEMENT_TOL * max(1.0, float(np.max(np.abs(want))))


def test_clip_and_localize_validation():
    box = Box(np.array([-2.0]), np.array([2.0]))
    shallow = random_shallow(np.random.default_rng(0), 1, 1, 2)
    reg = to_register_form(shallow, box)
    J = Box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        clip_and_localize(reg, J, 0.25, 2.0, 2.0)
    with pytest.raises(ValidationError):
        clip_and_localize(reg, J, -0.1, -1.0, 1.0)
    wide = Box(np.array([-10.0]), np.array([10.0]))
    with pytest.raises(ValidationError):
        # K must sit inside the declared register box
        clip_and_localize(reg, wide, 0.25, -1.0, 1.0)


def test_case_iv_artifact_folds_the_readout_bias():
    mu = make_discrete(np.linspace(0.0, 1.0, 33).reshape(-1, 1), np.ones(33))
    f = sin_product(1)
    for act in ("sigmoid", "tanh", "relu"):
        fitted = fit_random_features(f, mu, 6, act, seed=3, ridge=1e-10)
        assert np.any(fitted.layers[1].b != 0.0)
        cache = FeatureCache(mu, f.evaluate(mu.points), act, 3, 1e-10, 6)
        cfg = {"activation": act, "ridge": 1e-10}
        art = robust._written("iv", cfg, f, None, cache.fit(6))
        hid, out = art.layers
        assert out.b.tolist() == [0.0]
        assert hid.out_dim == 7
        # a constant unit of activation exactly 1.0, read out with the bias itself
        assert hid.A[-1].tolist() == [0.0] and hid.b[-1] == (1.0 if act == "relu" else 64.0)
        assert out.A[0, -1] == fitted.layers[1].b[0]
        assert hid.A[:-1].tolist() == fitted.layers[0].A.tolist()
        assert np.array_equal(art.evaluate_batch(mu.points), fitted.evaluate_batch(mu.points))
    unbiased = Network((fitted.layers[0], Layer(fitted.layers[1].A, [0.0], "none")))
    assert robust._bias_as_hidden_unit(unbiased).layers[0].out_dim == 6


def test_check_additive_family_affine_passes():
    probes = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])).grid(4)
    report = check_additive_family(AffineFamily(2), probes)
    assert report.closed_under_addition
    assert report.point_separating
    assert report.contains_constants


def test_check_additive_family_zero_fails_separation():
    probes = Box(np.array([-1.0]), np.array([1.0])).grid(5)
    report = check_additive_family(ZeroFamily(1), probes)
    assert not report.point_separating


def test_check_additive_family_linear_fails_constants():
    probes = Box(np.array([-1.0]), np.array([1.0])).grid(5)
    report = check_additive_family(LinearOnlyFamily(1), probes)
    assert report.closed_under_addition
    assert not report.contains_constants


def test_weight_compatibility_quadratic_pair():
    rng = np.random.default_rng(61)
    family = AffineFamily(2)
    members = [family.sample_member(rng) for _ in range(8)]
    probes = Box(np.array([-10.0, -10.0]), np.array([10.0, 10.0])).grid(9)
    report = check_weight_compatibility(members, quadratic_weight,
                                        quadratic_weight_scalar, probes)
    assert np.isfinite(report.sup_ratio)
    assert report.admissible_weight
    # direct grid maximum reproduces sup_ratio
    w = quadratic_weight(probes)
    best = 0.0
    for h in members:
        best = max(best, float(np.max(quadratic_weight_scalar(h(probes)) / w)))
    assert abs(report.sup_ratio - best) <= 1e-12


def test_weight_compatibility_constant_w1():
    rng = np.random.default_rng(62)
    family = AffineFamily(1)
    members = [family.sample_member(rng) for _ in range(4)]
    probes = np.linspace(-50.0, 50.0, 41).reshape(-1, 1)
    report = check_weight_compatibility(members, quadratic_weight, np.ones_like, probes)
    assert report.sup_ratio <= 1.0


def test_weight_compatibility_decaying_weight_fails():
    rng = np.random.default_rng(63)
    family = AffineFamily(1)
    members = [family.sample_member(rng) for _ in range(4)]
    probes = np.linspace(-5.0, 5.0, 21).reshape(-1, 1)

    def decaying(X):
        return np.exp(-np.sqrt(np.sum(X * X, axis=1)))

    report = check_weight_compatibility(members, decaying, np.ones_like, probes)
    assert not report.admissible_weight


def test_weight_compatibility_rejects_nonpositive_weight():
    members = [AffineMap(np.ones(1), 0.0)]
    probes = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)

    def signed(X):
        return X[:, 0]

    with pytest.raises(ValidationError):
        check_weight_compatibility(members, signed, np.ones_like, probes)
