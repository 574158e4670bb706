"""Young-function algebra: evaluation, conjugates and inequalities.

Oracle values are computed independently (closed forms or brute-force
maximization) and frozen as literals where they are exact.
"""
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_uat import (UnboundedConjugateError, ValidationError, YoungFunction,
                        complementary, entropy, exp_minus_linear, power, tabulated)

from oracles import check_young_inequality


def test_power_evaluation_closed_form():
    phi = power(2.0, 0.5)
    assert phi(1.0) == 0.5
    assert phi(0.0) == 0.0
    assert phi(-2.0) == 2.0
    assert power(3.0)(2.0) == 8.0


def test_entropy_at_e_minus_one():
    # (1+y)ln(1+y) - y at y = e-1 collapses to e - (e-1) = 1
    assert abs(entropy()(np.e - 1.0) - 1.0) < 1e-14


def test_exp_minus_linear_evaluation():
    phi = exp_minus_linear()
    assert phi(0.0) == 0.0
    assert abs(phi(1.0) - (np.e - 2.0)) < 1e-15
    assert phi(-1.0) == phi(1.0)


def _decimal_phi(kind: str, r: float) -> float:
    """phi(r) to 50 digits, with enough extra digits to absorb its cancellation."""
    d = Decimal(r)
    with localcontext() as ctx:
        ctx.prec = 50 + 2 * max(0, -d.adjusted())
        if kind == "exp_minus_linear":
            return float(d.exp() - d - 1)
        return float((1 + d) * (1 + d).ln() - d)


# below r = 1.5e-154 the true values are subnormal
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["exp_minus_linear", "entropy"]),
       st.floats(1.5e-154, 1e6) | st.floats(-153.8, 6.0).map(lambda e: 10.0**e))
def test_exp_minus_linear_and_entropy_are_accurate_near_zero(kind, r):
    phi = exp_minus_linear() if kind == "exp_minus_linear" else entropy()
    want = _decimal_phi(kind, r)
    got = phi(np.array([r, -r]))
    assert got[0] == got[1] == phi(r)
    if np.isinf(want):  # exp(r) beyond the double range
        assert np.isinf(got[0])
    else:
        assert abs(got[0] - want) <= 1e-14 * want


def test_evaluate_is_even_and_zero_at_zero():
    rng = np.random.default_rng(0)
    for phi in (power(1.5), power(3.0, 0.2), exp_minus_linear(), entropy()):
        assert phi(0.0) == 0.0
        for x in rng.uniform(0.0, 20.0, size=50):
            assert phi(x) == phi(-x)


def test_evaluate_convex_on_probe_triples():
    rng = np.random.default_rng(1)
    for phi in (power(1.5), power(2.0, 0.3), exp_minus_linear(), entropy()):
        for _ in range(200):
            a, b = np.sort(rng.uniform(0.0, 10.0, size=2))
            mid = 0.5 * (a + b)
            assert phi(mid) <= 0.5 * phi(a) + 0.5 * phi(b) + 1e-12


def test_power_validation():
    with pytest.raises(ValidationError):
        power(0.5)
    with pytest.raises(ValidationError):
        power(2.0, 0.0)
    with pytest.raises(ValidationError):
        power(2.0, -1.0)
    # p = 1 is a Young function even though it is not an N-function
    assert power(1.0, 2.0)(3.0) == 6.0


def test_tabulated_validation_and_interpolation():
    grid = np.array([1.0, 2.0, 4.0])
    vals = np.array([1.0, 4.0, 16.0])
    phi = tabulated(grid, vals)
    # (0, 0) is prepended, interior by secant, beyond-last by last slope
    assert phi(0.0) == 0.0
    assert phi(0.5) == 0.5
    assert phi(3.0) == 10.0
    assert phi(8.0) == 16.0 + 6.0 * 4.0
    with pytest.raises(ValidationError):
        tabulated([1.0, 2.0], [4.0, 1.0])
    with pytest.raises(ValidationError):
        tabulated([2.0, 1.0], [1.0, 4.0])
    with pytest.raises(ValidationError):
        tabulated([0.0, 1.0, 2.0], [0.0, 3.0, 4.0])


def test_conjugate_power_self_dual():
    psi = complementary(power(2.0, 0.5))
    assert psi.kind == "power"
    assert psi.p == 2.0
    assert psi.scale == 0.5
    assert psi(1.0) == 0.5


def test_conjugate_power_p3():
    # conjugate of |x|^3/3 is |y|^{3/2}/(3/2), so psi(1) = 2/3
    psi = complementary(power(3.0, 1.0 / 3.0))
    assert psi.kind == "power"
    assert abs(psi.p - 1.5) < 1e-15
    assert abs(psi.scale - 2.0 / 3.0) < 1e-15
    assert abs(psi(1.0) - 2.0 / 3.0) < 1e-15


def test_conjugate_exp_entropy_pair():
    assert complementary(exp_minus_linear()).kind == "entropy"
    assert complementary(entropy()).kind == "exp_minus_linear"


def test_conjugate_p1_unbounded():
    with pytest.raises(UnboundedConjugateError):
        complementary(power(1.0))


def brute_force_conjugate(phi, y, x_hi=200.0, n=400001):
    xs = np.linspace(0.0, x_hi, n)
    return float(np.max(xs * abs(y) - phi(xs)))


def test_numeric_conjugate_matches_brute_force():
    grid = np.linspace(0.1, 10.0, 64)
    for phi, analytic in ((power(2.0, 0.5), lambda y: 0.5 * y * y),
                          (power(3.0, 1.0 / 3.0), lambda y: (y ** 1.5) / 1.5)):
        psi = complementary(phi, grid_spec=grid, numeric=True)
        assert psi.kind == "tabulated"
        for y in grid[::9]:
            want = analytic(y)
            assert abs(psi(y) - want) <= 1e-9 * max(1.0, want)
            brute = brute_force_conjugate(phi, y)
            assert abs(psi(y) - brute) <= 1e-5 * max(1.0, brute)


def test_numeric_conjugate_of_exp_reaches_entropy_values():
    grid = np.array([0.5, 1.0, np.e - 1.0, 3.0])
    psi = complementary(exp_minus_linear(), grid_spec=grid, numeric=True)
    want = entropy()
    for y in grid:
        assert abs(psi(y) - want(y)) <= 1e-9 * max(1.0, want(y))


def test_numeric_conjugate_without_derivative_path():
    # tabulated phi has no derivative; the exact discrete transform is used
    xs = np.linspace(0.0, 50.0, 2001)
    phi = tabulated(xs[1:], 0.5 * xs[1:] ** 2)
    psi = complementary(phi, grid_spec=np.linspace(0.5, 5.0, 10), numeric=True)
    for y in (0.5, 2.0, 5.0):
        assert abs(psi(y) - 0.5 * y * y) <= 1e-3 * max(1.0, 0.5 * y * y)


def test_tabulated_conjugate_is_exact():
    # an optimizer off by 1.8e-9 made this table fail its own convexity check
    g = np.linspace(0.0, 10.0, 200)
    phi = tabulated(g, g ** 2)
    psi = complementary(phi, grid_spec=(1e-2, 1e1, 300))
    for y in psi.grid[1::23]:
        assert psi(y) == float(np.max(g * y - g ** 2))
        # the brute-force grid (step 5e-5) passes within 2.5e-5 of the best
        # knot, where the objective's slopes differ by 20/199 at most
        gap = psi(y) - brute_force_conjugate(phi, y, x_hi=20.0)
        assert -1e-12 <= gap <= 2.5e-5 * 20.0 / 199.0 + 1e-12
    # the final slope is 2 * 10 * (1 - 1/398); one ordinate above it diverges
    with pytest.raises(UnboundedConjugateError):
        complementary(phi, grid_spec=np.array([1.0, 19.99]))


_CONJUGATE_GRIDS = ((1e-6, 1e2, 1024), (1e-3, 10.0, 37), (0.1, 5.0, 64), (1.0, 1e3, 16))


@settings(max_examples=80, deadline=None)
@given(st.builds(power, st.floats(1.0, 4.0, exclude_min=True), st.floats(0.1, 10.0))
       | st.sampled_from((exp_minus_linear(), entropy())),
       st.sampled_from(_CONJUGATE_GRIDS))
def test_numeric_conjugate_is_the_closed_form_on_the_grid(phi, grid):
    # the table holds the closed form's own values at every ordinate, or, where
    # that form leaves the double range (p near 1, or exp past y = 709), refuses
    y = np.geomspace(*grid)
    try:
        want = complementary(phi)(y)
    except UnboundedConjugateError:
        want = np.array([np.inf])
    if not np.all(np.isfinite(want)):
        with pytest.raises(UnboundedConjugateError):
            complementary(phi, grid_spec=grid, numeric=True)
        return
    psi = complementary(phi, grid_spec=grid, numeric=True)
    assert psi.kind == "tabulated"
    assert psi.grid.tolist() == [0.0] + y.tolist() and psi.values[0] == 0.0
    assert psi.values[1:].tobytes() == want.tobytes()
    assert psi(y).tobytes() == want.tobytes()


def test_numeric_conjugate_of_power_1_5_on_the_default_grid():
    # psi(y) = 4 y^3 / 27; bisection on phi' was off by 4.2e-7 relative near y = 1e-6
    psi = complementary(power(1.5), numeric=True)
    y = psi.grid[1:]
    assert y.size == 1024 and y[0] == 1e-6 and y[-1] == 1e2
    want = 4.0 * y ** 3 / 27.0
    assert float(np.max(np.abs(psi.values[1:] - want) / want)) <= 1e-15
    assert psi.values[1:].tobytes() == complementary(power(1.5))(y).tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_conjugate_scale_outside_the_double_range_is_unbounded(scale):
    # (1.5 s)^(-2) / 3 overflows at s = 1e-300 and underflows to 0 at s = 1e300
    for numeric in (False, True):
        with pytest.raises(UnboundedConjugateError, match="leaves the double range"):
            complementary(power(1.5, scale), numeric=numeric)


def test_conjugate_duality_on_catalog():
    probes = np.geomspace(0.1, 10.0, 25)
    for phi in (power(1.5), power(2.0, 0.5), power(3.0, 2.0),
                exp_minus_linear(), entropy()):
        back = complementary(complementary(phi))
        for x in probes:
            want = phi(x)
            assert abs(back(x) - want) <= 1e-6 * max(1.0, want)


def test_young_inequality_equality_case():
    phi = power(2.0, 0.5)
    # x = y = 1: xy = 1 = phi(1) + psi(1)
    assert 1.0 * 1.0 == phi(1.0) + complementary(phi)(1.0)


def test_young_inequality_sampled_all_pairs():
    for phi in (power(1.5), power(2.0, 0.5), power(3.0), exp_minus_linear()):
        psi = complementary(phi)
        report = check_young_inequality(phi, psi, sample_count=10000, seed=3)
        assert report.sample_count == 10000
        assert report.max_violation <= 1e-10, (phi.kind, report.max_violation)


def test_young_inequality_reports_violation_for_wrong_pair():
    # x^2 paired with a deliberately-too-small psi must violate
    report = check_young_inequality(power(2.0), power(2.0, 0.01),
                                    sample_count=2000, seed=0)
    assert report.max_violation > 0.1
    assert len(report.witnesses) > 0


def test_json_round_trip():
    for phi in (power(2.0, 0.5), exp_minus_linear(), entropy(),
                tabulated([1.0, 2.0], [1.0, 3.0])):
        obj = phi.to_json_dict()
        back = YoungFunction.from_json_dict(obj)
        for x in (0.0, 0.5, 1.0, 7.0):
            assert back(x) == phi(x)
    assert power(2.0, 0.5).to_json_dict() == {"kind": "power", "p": 2.0, "scale": 0.5}
    with pytest.raises(ValidationError):
        YoungFunction.from_json_dict({"kind": "power", "p": 2.0, "scale": 0.5, "bogus": 1})
