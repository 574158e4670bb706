"""Modulars, gauge norms and the generalized Hölder inequality."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_uat import (FunctionTable, ValidationError, complementary, entropy,
                        exp_minus_linear, gauge_norm, l1_norm, make_discrete, modular, power,
                        tabulated)
from orlicz_uat.orlicz import _point_norms

from oracles import holder_check


def two_point_setup():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    f = FunctionTable([1.0, 3.0])
    return mu, f


def test_modular_direct_sum_oracle():
    mu, f = two_point_setup()
    phi = power(2.0)
    assert modular(phi, mu, f, 1.0) == 5.0
    assert modular(phi, mu, f, 2.0) == 1.25


def test_modular_zero_table():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    zero = FunctionTable([0.0, 0.0])
    for phi in (power(1.5), power(3.0, 0.2)):
        assert modular(phi, mu, zero, 1.0) == 0.0


def test_modular_errors():
    mu, f = two_point_setup()
    with pytest.raises(ValidationError):
        modular(power(2.0), mu, f, 0.0)
    with pytest.raises(ValidationError):
        modular(power(2.0), mu, f, -1.0)
    short = FunctionTable([1.0])
    with pytest.raises(ValidationError):
        modular(power(2.0), mu, short, 1.0)


def test_modular_strictly_decreasing_in_k():
    rng = np.random.default_rng(4)
    mu = make_discrete(rng.uniform(0.0, 1.0, size=(6, 1)), rng.uniform(0.1, 1.0, 6))
    f = FunctionTable(rng.standard_normal(6) + 2.0)
    phi = power(2.0)
    ks = np.geomspace(0.25, 8.0, 12)
    vals = [modular(phi, mu, f, float(k)) for k in ks]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gauge_norm_l2_oracle():
    mu, f = two_point_setup()
    result = gauge_norm(power(2.0), mu, f)
    assert abs(result.value - np.sqrt(5.0)) <= 1e-9
    assert result.modular_at_value <= 1.0
    k_lo, k_hi = result.bracket
    assert result.value == k_hi
    assert modular(power(2.0), mu, f, k_hi) <= 1.0 <= modular(power(2.0), mu, f, k_lo)
    assert k_hi - k_lo <= 1e-10 * max(1.0, result.value)
    assert result.iterations > 0


def test_gauge_norm_l1_oracle():
    mu, f = two_point_setup()
    assert abs(gauge_norm(power(1.0), mu, f).value - 2.0) <= 1e-9


def test_gauge_norm_zero_table():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    zero = FunctionTable([0.0, 0.0])
    result = gauge_norm(power(2.0), mu, zero)
    assert result.value == 0.0


@pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, np.nan, np.inf])
def test_gauge_norm_refuses_a_tolerance_outside_the_unit_interval(tol):
    mu, f = two_point_setup()
    with pytest.raises(ValidationError):
        gauge_norm(power(2.0), mu, f, tol=tol)


def test_gauge_norm_below_double_resolution_stops_at_adjacent_doubles():
    # a tolerance finer than the spacing of doubles used to bisect forever
    mu, f = two_point_setup()
    for phi in (power(2.0), power(3.0, 0.5)):
        want = (phi.scale * np.sum(np.abs(f.values[:, 0]) ** phi.p * mu.weights)) ** (1 / phi.p)
        assert abs(gauge_norm(phi, mu, f, tol=1e-17).value - want) <= 1e-15 * want
    result = gauge_norm(entropy(), mu, f, tol=1e-17)
    assert result.modular_at_value <= 1.0 < modular(entropy(), mu, f, result.bracket[0])


def test_gauge_norm_lp_consistency():
    rng = np.random.default_rng(13)
    for p in (1.0, 1.5, 2.0, 3.0):
        phi = power(p)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            mu = make_discrete(rng.uniform(-1.0, 1.0, size=(n, 1)),
                               rng.uniform(0.05, 1.0, size=n))
            f = FunctionTable(rng.standard_normal(n) * 3.0)
            want = float(np.sum(np.abs(f.values[:, 0]) ** p * mu.weights) ** (1.0 / p))
            got = gauge_norm(phi, mu, f).value
            assert abs(got - want) <= 1e-8 * max(1.0, want), (p, got, want)


def test_gauge_norm_scale_folds_into_lp():
    # phi = s|x|^p gives the L^p norm of s^{1/p} f
    mu, f = two_point_setup()
    got = gauge_norm(power(2.0, 0.25), mu, f).value
    want = np.sqrt(0.25) * np.sqrt(5.0)
    assert abs(got - want) <= 1e-9


def _bisected_norm(phi, mu, f, rtol=1e-13):
    """inf{k : modular(k) <= 1} by plain bisection to a relative tolerance."""
    hi = 1.0
    while modular(phi, mu, f, hi) > 1.0:
        hi *= 2.0
    while modular(phi, mu, f, 0.5 * hi) <= 1.0:
        hi *= 0.5
    lo = 0.5 * hi
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if modular(phi, mu, f, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=80, deadline=None)
@given(p=st.floats(1.0, 4.0), scale=st.floats(0.05, 20.0), exponent=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**16))
def test_power_gauge_closed_form_matches_bisection(p, scale, exponent, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    mu = make_discrete(rng.uniform(size=(n, 1)), rng.uniform(0.05, 1.0, size=n))
    values = rng.uniform(-1.0, 1.0, size=(mu.support_size, 2))
    f = FunctionTable(10.0 ** exponent * values)
    phi = power(p, scale)
    tol = 1e-10
    result = gauge_norm(phi, mu, f, tol=tol)
    k_lo, k_hi = result.bracket
    assert result.value == k_hi
    assert abs(result.value - _bisected_norm(phi, mu, f)) <= 1e-9 * result.value
    assert modular(phi, mu, f, k_hi) <= 1.0 <= modular(phi, mu, f, k_lo)
    assert k_hi - k_lo <= tol * result.value


_YOUNG = {"power": power(1.5, 2.0 / 3.0), "power3": power(3.0), "entropy": entropy(),
          "exp_minus_linear": exp_minus_linear(),
          "tabulated": tabulated([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 8.0])}


def _random_table(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    mu = make_discrete(rng.uniform(size=(n, 1)), rng.uniform(0.05, 1.0, size=n))
    return mu, rng.uniform(-1.0, 1.0, size=(mu.support_size, int(rng.integers(1, 3))))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_YOUNG)), st.floats(-200.0, 200.0), st.integers(0, 2**16))
def test_gauge_norm_is_homogeneous_over_the_double_range(kind, exponent, seed):
    mu, values = _random_table(seed)
    c = 10.0 ** exponent
    base = gauge_norm(_YOUNG[kind], mu, FunctionTable(values)).value
    scaled = gauge_norm(_YOUNG[kind], mu, FunctionTable(c * values)).value
    assert abs(scaled - c * base) <= 1e-9 * (c * base)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_YOUNG)), st.floats(-200.0, 200.0),
       st.sampled_from((1e-3, 1e-10, 1e-13)), st.integers(0, 2**16))
def test_gauge_norm_bracket_is_sound_at_any_scale(kind, exponent, tol, seed):
    # the stop test is relative, so a norm far below 1 is resolved as finely
    # as one near 1; the one-table solve sums its modular as modular does, so
    # these comparisons hold exactly
    mu, values = _random_table(seed)
    phi = _YOUNG[kind]
    f = FunctionTable(10.0 ** exponent * values)
    result = gauge_norm(phi, mu, f, tol=tol)
    k_lo, k_hi = result.bracket
    assert result.value == k_hi
    assert result.modular_at_value == modular(phi, mu, f, k_hi) <= 1.0 < modular(phi, mu, f, k_lo)
    assert k_hi - k_lo <= tol * k_hi


_ENTRY = (st.sampled_from((0.0, -0.0)) | st.floats(0.1, 10.0) | st.floats(-10.0, -0.1))


@settings(max_examples=200, deadline=None)
@given(st.integers(-300, 300), st.integers(1, 3).flatmap(lambda c: st.lists(
    st.lists(_ENTRY, min_size=c, max_size=c), min_size=1, max_size=8)))
def test_point_norms_over_the_whole_double_range(exponent, rows):
    # no row is squared, so a nonzero row keeps a finite positive norm at any scale
    unit = np.array(rows)
    table = FunctionTable(unit * 10.0 ** exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _point_norms(table, "euclidean")
    nonzero = np.any(unit != 0.0, axis=1)
    assert np.all(np.isfinite(norms)) and np.all(norms[nonzero] > 0.0)
    assert not np.any(norms[~nonzero])
    if unit.shape[1] == 1:
        assert norms.tobytes() == np.abs(table.values[:, 0]).tobytes()
    expected = np.linalg.norm(unit, axis=1) * 10.0 ** exponent
    assert np.allclose(norms, expected, rtol=1e-15, atol=0.0)


def test_gauge_norm_vector_norm_choices():
    mu = make_discrete([[0.0]], [1.0])
    f = FunctionTable([[3.0, 4.0]])
    assert abs(gauge_norm(power(2.0), mu, f).value - 5.0) <= 1e-9
    assert abs(gauge_norm(power(2.0), mu, f, norm_choice="max").value - 4.0) <= 1e-9
    with pytest.raises(ValidationError):
        gauge_norm(power(2.0), mu, f, norm_choice="manhattan")


def test_norm_axioms_property_sweep():
    rng = np.random.default_rng(17)
    phis = (power(1.5), power(2.0, 0.5), power(3.0))
    for _ in range(60):
        phi = phis[int(rng.integers(len(phis)))]
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 4))
        mu = make_discrete(rng.uniform(-2.0, 2.0, size=(n, 2)),
                           rng.uniform(0.05, 1.5, size=n))
        F = rng.standard_normal((n, m)) * 2.0
        G = rng.standard_normal((n, m)) * 2.0
        f, g = FunctionTable(F), FunctionTable(G)
        alpha = float(rng.uniform(0.1, 5.0))
        nf = gauge_norm(phi, mu, f).value
        ng = gauge_norm(phi, mu, g).value
        nfa = gauge_norm(phi, mu, FunctionTable(alpha * F)).value
        nsum = gauge_norm(phi, mu, FunctionTable(F + G)).value
        assert abs(nfa - alpha * nf) <= 1e-8 * max(1.0, alpha * nf)
        assert nsum <= nf + ng + 1e-8
        assert nf > 0.0


def test_norm_zero_iff_zero_table():
    mu = make_discrete([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
    tiny = FunctionTable([0.0, 1e-12, 0.0])
    assert gauge_norm(power(2.0), mu, tiny).value > 0.0
    zero = FunctionTable([0.0, 0.0, 0.0])
    assert gauge_norm(power(2.0), mu, zero).value == 0.0


def test_unit_ball_characterization():
    rng = np.random.default_rng(19)
    phi = power(2.0, 0.5)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        mu = make_discrete(rng.uniform(0.0, 1.0, size=(n, 1)),
                           rng.uniform(0.05, 1.0, size=n))
        f = FunctionTable(rng.standard_normal(n) * rng.uniform(0.2, 3.0))
        norm = gauge_norm(phi, mu, f).value
        mod1 = modular(phi, mu, f, 1.0)
        if norm <= 1.0:
            assert mod1 <= 1.0 + 1e-8
        if mod1 <= 1.0:
            assert norm <= 1.0 + 1e-8


def test_l1_norm_oracle_and_homogeneity():
    mu, f = two_point_setup()
    assert l1_norm(mu, f) == 2.0
    doubled = FunctionTable(2.0 * f.values)
    assert l1_norm(mu, doubled) == 2.0 * l1_norm(mu, f)
    zero = FunctionTable([0.0, 0.0])
    assert l1_norm(mu, zero) == 0.0


def test_holder_equality_witness():
    # phi(x) = x^2/2 is self-complementary; f = g = 1 on a probability
    # measure gives lhs = 1 and rhs = 2 (1/sqrt 2)^2 = 1
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    ones = FunctionTable([1.0, 1.0])
    phi = power(2.0, 0.5)
    report = holder_check(phi, complementary(phi), mu, ones, ones)
    assert abs(report.lhs - 1.0) <= 1e-12
    assert abs(report.rhs - 1.0) <= 1e-9
    assert report.holds


def test_holder_zero_case():
    mu, f = two_point_setup()
    zero = FunctionTable([0.0, 0.0])
    phi = power(2.0, 0.5)
    report = holder_check(phi, complementary(phi), mu, zero, zero)
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.holds


def test_holder_random_sweep():
    rng = np.random.default_rng(23)
    pairs = [(power(p, 1.0 / p), complementary(power(p, 1.0 / p)))
             for p in (1.5, 2.0, 3.0)]
    for _ in range(200):
        phi, psi = pairs[int(rng.integers(len(pairs)))]
        n = int(rng.integers(2, 9))
        mu = make_discrete(rng.uniform(-1.0, 1.0, size=(n, 1)),
                           rng.uniform(0.05, 1.0, size=n))
        f = FunctionTable(rng.standard_normal(n) * 4.0)
        g = FunctionTable(rng.standard_normal(n) * 4.0)
        report = holder_check(phi, psi, mu, f, g)
        assert report.holds, (report.lhs, report.rhs)


def test_compact_table_density_sanity():
    # on finite support the function itself is a compactly supported table,
    # so the approximation error can be driven to zero exactly
    mu, f = two_point_setup()
    diff = FunctionTable(f.values - f.values)
    assert gauge_norm(power(2.0), mu, diff).value == 0.0


def test_function_table_validation():
    with pytest.raises(ValidationError):
        FunctionTable([])
    with pytest.raises(ValidationError):
        FunctionTable([np.inf])
