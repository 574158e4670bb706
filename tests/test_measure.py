"""Discrete measures, families, densities, and the integrability certificate."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_uat import (AbsoluteContinuityError, Box, DiscreteMeasure, FunctionTable,
                        MeasureFamily, ValidationError, default_psi_candidates,
                        dlvp_certificate, dominating_measure, entropy,
                        exp_minus_linear, gauge_norm, make_discrete, measure, power,
                        radon_nikodym, sample_empirical, tabulated)


def test_box_validation_and_queries():
    box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    assert box.dim == 2
    inside = np.array([[0.5, 0.0], [0.0, -1.0]])
    outside = np.array([[1.5, 0.0]])
    assert bool(np.all(box.contains(inside)))
    assert not bool(np.any(box.contains(outside)))
    with pytest.raises(ValidationError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValidationError):
        Box([], [])


def test_box_enlarged_and_covers():
    box = Box(np.array([0.0]), np.array([1.0]))
    big = box.enlarged(0.25)
    assert big.lo[0] == -0.25 and big.hi[0] == 1.25
    assert big.covers(box)
    assert not box.covers(big)


def test_box_sample_and_grid():
    box = Box(np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    pts = box.sample(np.random.default_rng(0), 64)
    assert pts.shape == (64, 2)
    assert bool(np.all(box.contains(pts)))
    grid = box.grid(3)
    assert grid.shape == (9, 2)
    assert bool(np.all(box.contains(grid)))
    assert [0.0, 2.0] in grid.tolist() and [1.0, 3.0] in grid.tolist()


def test_box_json_round_trip():
    box = Box(np.array([0.0]), np.array([1.0]))
    back = Box.from_json_dict(box.to_json_dict())
    assert back.lo.tolist() == [0.0] and back.hi.tolist() == [1.0]


def test_make_discrete_basic():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    assert mu.support_size == 2
    assert mu.total_mass == 1.0
    assert mu.dimension == 1


def test_make_discrete_merges_duplicates():
    mu = make_discrete([[0.0], [0.0]], [0.3, 0.2])
    assert mu.support_size == 1
    assert abs(mu.total_mass - 0.5) < 1e-15


def test_make_discrete_drops_zero_weights():
    mu = make_discrete([[0.0], [1.0]], [0.0, 1.0])
    assert mu.support_size == 1
    assert mu.points[0, 0] == 1.0


def test_make_discrete_errors():
    with pytest.raises(ValidationError):
        make_discrete([[0.0]], [-1.0])
    with pytest.raises(ValidationError):
        make_discrete([[0.0], [1.0]], [0.5])
    with pytest.raises(ValidationError):
        make_discrete([[0.0]], [0.0])
    with pytest.raises(ValidationError):
        make_discrete(np.zeros((2, 0)), [0.5, 0.5])


def test_make_discrete_scalar_points_promote():
    mu = make_discrete([0.0, 1.0], [0.25, 0.75])
    assert mu.dimension == 1
    assert mu.points.shape == (2, 1)


def test_sample_empirical_uniform():
    box = Box(np.array([0.0]), np.array([1.0]))
    mu = sample_empirical({"name": "uniform"}, 4, seed=5, clip_box=box)
    assert mu.support_size == 4
    assert abs(mu.total_mass - 1.0) < 1e-15
    assert bool(np.all(box.contains(mu.points)))


def test_sample_empirical_deterministic():
    box = Box(np.array([0.0]), np.array([1.0]))
    a = sample_empirical({"name": "uniform"}, 16, seed=9, clip_box=box)
    b = sample_empirical({"name": "uniform"}, 16, seed=9, clip_box=box)
    assert a.points.tolist() == b.points.tolist()
    assert a.weights.tolist() == b.weights.tolist()
    c = sample_empirical({"name": "uniform"}, 16, seed=10, clip_box=box)
    assert a.points.tolist() != c.points.tolist()


def test_sample_empirical_gaussian_clipped():
    box = Box(np.array([-1.0]), np.array([1.0]))
    spec = {"name": "gaussian", "mean": [0.0], "std": [2.0]}
    mu = sample_empirical(spec, 100, seed=2, clip_box=box)
    assert mu.support_size == 100
    assert bool(np.all(box.contains(mu.points)))


def test_sample_empirical_mixture():
    box = Box(np.array([0.0]), np.array([1.0]))
    spec = {"name": "mixture", "components": [
        {"weight": 0.5, "mean": [0.25], "std": [0.05]},
        {"weight": 0.5, "mean": [0.75], "std": [0.05]},
    ]}
    mu = sample_empirical(spec, 256, seed=3, clip_box=box)
    assert mu.support_size == 256
    assert bool(np.all(box.contains(mu.points)))


def test_sample_empirical_unknown_kind():
    box = Box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        sample_empirical({"name": "cauchy"}, 4, seed=0, clip_box=box)


def test_dominating_measure_average_of_point_masses():
    nu1 = make_discrete([[0.0]], [1.0])
    nu2 = make_discrete([[1.0]], [1.0])
    mu = dominating_measure([nu1, nu2])
    assert mu.support_size == 2
    assert mu.weights.tolist() == [0.5, 0.5]


def test_dominating_measure_identical_members():
    nu = make_discrete([[0.0], [1.0]], [0.25, 0.75])
    mu = dominating_measure([nu, nu])
    assert mu.points.tolist() == nu.points.tolist()
    assert np.allclose(mu.weights, nu.weights, rtol=0.0, atol=1e-16)


def test_dominating_measure_single_member():
    nu = make_discrete([[0.5]], [2.0])
    mu = dominating_measure([nu])
    assert mu.points.tolist() == nu.points.tolist()
    assert mu.weights.tolist() == nu.weights.tolist()


def test_dominating_measure_mass_is_average():
    rng = np.random.default_rng(11)
    members = []
    for _ in range(5):
        pts = rng.uniform(0.0, 1.0, size=(6, 2))
        w = rng.uniform(0.1, 2.0, size=6)
        members.append(make_discrete(pts, w))
    mu = dominating_measure(members)
    want = float(np.mean([m.total_mass for m in members]))
    assert abs(mu.total_mass - want) < 1e-12 * want


def test_dominating_measure_dimension_mismatch():
    nu1 = make_discrete([[0.0]], [1.0])
    nu2 = make_discrete([[0.0, 0.0]], [1.0])
    with pytest.raises(ValidationError):
        dominating_measure([nu1, nu2])


def test_radon_nikodym_pointwise_ratio():
    pts = [[0.0], [1.0]]
    nu = make_discrete(pts, [0.2, 0.8])
    mu = make_discrete(pts, [0.5, 0.5])
    density = radon_nikodym(nu, mu)
    assert np.allclose(density, [0.4, 1.6], rtol=0.0, atol=1e-15)


def test_radon_nikodym_self_density_one():
    nu = make_discrete([[0.0], [2.0], [5.0]], [0.1, 0.6, 0.3])
    assert np.allclose(radon_nikodym(nu, nu), 1.0, rtol=0.0, atol=1e-15)


def test_radon_nikodym_zero_where_nu_absent():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    nu = make_discrete([[1.0]], [1.0])
    density = radon_nikodym(nu, mu)
    assert density.tolist() == [0.0, 2.0]


def test_radon_nikodym_absolute_continuity_error():
    mu = make_discrete([[0.0]], [1.0])
    nu = make_discrete([[1.0]], [1.0])
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym(nu, mu)


_GRID = (-1.0, -0.0, 0.0, 0.5)


@st.composite
def raw_members(draw):
    """Members as given, not canonical: points from a grid holding both signed
    zeros, a point may repeat, and a weight may be zero."""
    point = st.tuples(*[st.sampled_from(_GRID)] * draw(st.integers(1, 2)))
    weight = st.one_of(st.just(0.0), st.floats(0.1, 1.0))
    member = st.lists(st.tuples(point, weight), min_size=1, max_size=6)
    return [DiscreteMeasure([p for p, _ in m], [w for _, w in m])
            for m in draw(st.lists(member, min_size=1, max_size=4))]


@settings(max_examples=150, deadline=None)
@given(raw_members(), st.integers(0, 2**32 - 1))
def test_family_reconstruction_identity(members, seed):
    # each density is the dense oracle on its member's rows and 0 off them,
    # and integrating g against density * dominating recovers the member integral
    charged = {(p + 0.0).tobytes() for nu in members for p, w in zip(nu.points, nu.weights) if w}
    if any((p + 0.0).tobytes() not in charged for nu in members for p in nu.points):
        # with nothing charged there is no dominating support at all
        with pytest.raises(AbsoluteContinuityError if charged else ValidationError):
            MeasureFamily.from_members(members)
        return
    family = MeasureFamily.from_members(members)
    mu = family.dominating
    row = {p.tobytes(): i for i, p in enumerate(mu.points)}
    g = np.random.default_rng(seed).standard_normal(mu.support_size)
    for nu, d, j, via_density in zip(members, family.densities, family.rows,
                                     family.integrals(g)):
        dense = radon_nikodym(nu, mu)
        assert d.tobytes() == dense[j].tobytes()
        assert not np.any(np.delete(dense, j))
        direct = sum(g[row[(p + 0.0).tobytes()]] * w for p, w in zip(nu.points, nu.weights))
        assert abs(via_density - direct) <= 1e-12 * max(1.0, abs(direct))


def test_family_is_built_from_its_members_alone():
    members = [make_discrete([[0.0], [1.0]], [0.5, 0.5]), make_discrete([[1.0]], [1.0])]
    family = MeasureFamily(members)
    assert [j.tolist() for j in family.rows] == [[0, 1], [1]]
    assert [d.tolist() for d in family.densities] == [[2.0, 2.0 / 3.0], [4.0 / 3.0]]
    with pytest.raises(TypeError):
        MeasureFamily(members, family.dominating)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_family_counts_signed_zeros_as_one_point(first, second):
    members = [make_discrete([[first], [1.0]], [0.5, 0.5]),
               make_discrete([[second], [1.0]], [0.5, 0.5])]
    family = MeasureFamily.from_members(members)
    assert family.dominating.support_size == 2
    assert [j.tolist() for j in family.rows] == [[0, 1], [0, 1]]
    assert [d.tolist() for d in family.densities] == [[1.0, 1.0], [1.0, 1.0]]
    assert radon_nikodym(members[1], family.dominating).tolist() == [1.0, 1.0]


def test_family_build_matches_all_member_points_at_once(monkeypatch):
    # the member rows come from the inverse of the dominating sort, so the
    # build never searches the support
    calls = []
    match = measure._match_rows

    def counted(support, points):
        calls.append(points.shape[0])
        return match(support, points)

    monkeypatch.setattr(measure, "_match_rows", counted)
    members = [make_discrete([[0.0], [1.0]], [0.5, 0.5]),
               make_discrete([[1.0], [2.0], [3.0]], [0.2, 0.3, 0.5]),
               make_discrete([[3.0]], [1.0])]
    MeasureFamily.from_members(members)
    assert calls == []


@st.composite
def grid_members(draw):
    """Members whose points come from a shared grid holding both signed zeros."""
    point = st.tuples(*[st.sampled_from(_GRID)] * draw(st.integers(1, 2)))
    member = st.lists(st.tuples(point, st.floats(0.1, 1.0)), min_size=1, max_size=6)
    return [make_discrete([p for p, _ in m], [w for _, w in m])
            for m in draw(st.lists(member, min_size=1, max_size=4))]


@settings(max_examples=60, deadline=None)
@given(grid_members())
def test_family_matcher_against_a_dict_reference(members):
    family = MeasureFamily.from_members(members)
    mu = family.dominating
    reference = {(p + 0.0).tobytes(): i for i, p in enumerate(mu.points)}
    grid = np.array(list(itertools.product(_GRID + (2.0,), repeat=mu.dimension)))
    for nu in members:
        expected = [reference[(p + 0.0).tobytes()] for p in nu.points]
        assert measure._match_rows(mu.points, nu.points).tolist() == expected
    for p in grid:
        key = (p + 0.0).tobytes()
        if key in reference:
            assert measure._match_rows(mu.points, p[None]).tolist() == [reference[key]]
        else:
            with pytest.raises(AbsoluteContinuityError):
                measure._match_rows(mu.points, p[None])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.lists(
    st.tuples(st.tuples(*[st.sampled_from(_GRID)] * d),
              st.one_of(st.just(0.0), st.floats(1e-3, 1.0))), min_size=1, max_size=40)))
def test_canonical_support_against_np_unique(drawn):
    # runs of up to 40 equal points, signed zeros and zero weights; np.unique
    # keeps whichever signed zero its unstable sort puts first, so the
    # reference sorts the points plus +0.0, as the canonical support does
    pts = np.array([p for p, _ in drawn])
    w = np.array([x for _, x in drawn])
    keep = w > 0.0
    if not np.any(keep):
        with pytest.raises(ValidationError):
            make_discrete(pts, w)
        return
    mu, rows = measure._canonical(pts, w)
    uniq, inv = np.unique(pts[keep] + 0.0, axis=0, return_inverse=True)
    merged = np.zeros(uniq.shape[0])
    np.add.at(merged, inv.ravel(), w[keep])
    assert mu.points.tobytes() == uniq.tobytes()
    assert mu.weights.tobytes() == merged.tobytes()
    assert rows[keep].tolist() == inv.ravel().tolist()
    index = {p.tobytes(): i for i, p in enumerate(uniq)}
    assert rows[~keep].tolist() == [index.get((p + 0.0).tobytes(), -1) for p in pts[~keep]]


_PSIS = {"power": power(1.5, 2.0 / 3.0), "exp_minus_linear": exp_minus_linear(),
         "entropy": entropy(), "tabulated": tabulated([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 8.0])}


@settings(max_examples=150, deadline=None)
@given(raw_members(), st.sampled_from(sorted(_PSIS)))
def test_density_norms_on_member_rows_equal_the_full_support_norms(members, kind):
    # one batched solve over every member's rows, against one gauge_norm of
    # each dense density; members may repeat a point and hold massless ones
    try:
        family = MeasureFamily.from_members(members)
    except (AbsoluteContinuityError, ValidationError):
        return
    mu = family.dominating
    for nu, j in zip(family.members, family.rows):
        assert j.tolist() == np.unique(measure._match_rows(mu.points, nu.points)).tolist()
    # within the pipeline's tolerance, and within 1e-12 when resolved far finer,
    # where only the two summation orders part them
    for tol, rtol in ((1e-10, 1e-10), (1e-15, 1e-12)):
        batched = family.density_norms(_PSIS[kind], tol)
        for nu, norm in zip(family.members, batched):
            dense = FunctionTable.from_values(radon_nikodym(nu, mu))
            full = gauge_norm(_PSIS[kind], mu, dense, tol=tol).value
            assert abs(norm - full) <= rtol * full
            assert (norm == 0.0) == (nu.total_mass == 0.0)


def test_family_takes_a_repeated_member_point_once_with_its_total_mass():
    # a DiscreteMeasure may list a point twice; the density on its row is 0.5 / 0.5
    repeated = DiscreteMeasure([[0.0], [0.0], [1.0]], [0.25, 0.25, 0.5])
    family = MeasureFamily.from_members([repeated])
    assert family.densities[0].tolist() == [1.0, 1.0]
    merged = MeasureFamily.from_members([make_discrete(repeated.points, repeated.weights)])
    psi = power(2.0, 0.5)
    assert family.density_norms(psi, 1e-12).tolist() == merged.density_norms(psi, 1e-12).tolist()


def test_family_member_points_without_mass():
    # a point of weight zero belongs to the family only where another member has mass
    massless = DiscreteMeasure([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(AbsoluteContinuityError):
        MeasureFamily.from_members([massless])
    with pytest.raises(AbsoluteContinuityError):  # its dominating measure is the family's
        dominating_measure([massless])
    family = MeasureFamily.from_members([massless, make_discrete([[0.0]], [1.0])])
    assert [j.tolist() for j in family.rows] == [[0, 1], [0]]
    assert [d.tolist() for d in family.densities] == [[0.0, 2.0], [2.0]]
    assert radon_nikodym(massless, family.dominating).tolist() == [0.0, 2.0]


def test_measure_json_shape():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    obj = mu.to_json_dict()
    assert obj == {"dim": 1, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]}
    back = DiscreteMeasure.from_json_dict(obj)
    assert back.points.tolist() == mu.points.tolist()


def test_dlvp_singleton_probability_family():
    # density is identically 1; with psi(y)=y^2/2 the modular equation
    # sum (1/k)^2/2 * mu = 1 gives k = 1/sqrt(2)
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    family = MeasureFamily.from_members([mu])
    cert = dlvp_certificate(family, [power(2.0, 0.5)])
    assert abs(cert.sup_norm - 1.0 / np.sqrt(2.0)) <= 1e-9
    assert cert.psi.kind == "power"
    assert len(cert.per_member_norms) == 1


def test_dlvp_constant_density_scales_norm():
    # members with constant densities 0.2 and 1.8 against a mass-2 dominating
    # measure: gauge norm of a constant c with psi=y^2/2 solves c^2/k^2 = 1
    pts = [[0.0], [1.0]]
    nu1 = make_discrete(pts, [0.2, 0.2])
    nu2 = make_discrete(pts, [1.8, 1.8])
    family = MeasureFamily.from_members([nu1, nu2])
    cert = dlvp_certificate(family, [power(2.0, 0.5)])
    assert np.allclose(cert.per_member_norms, [0.2, 1.8], rtol=1e-9, atol=0.0)
    assert abs(cert.sup_norm - 1.8) <= 1e-9


def test_dlvp_unit_level_set_oracle():
    # entropy has psi(e-1) = 1, so a singleton probability family yields
    # sup_norm = 1/(e-1)
    mu = make_discrete([[0.25], [0.75]], [0.5, 0.5])
    family = MeasureFamily.from_members([mu])
    cert = dlvp_certificate(family, [entropy()])
    assert abs(cert.sup_norm - 1.0 / (np.e - 1.0)) <= 1e-9


def test_dlvp_first_finite_candidate_wins():
    mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
    family = MeasureFamily.from_members([mu])
    cert = dlvp_certificate(family)
    assert cert.psi.kind == "power" and cert.psi.p == 2.0
    with pytest.raises(ValidationError):
        dlvp_certificate(family, [])


def test_default_psi_candidates_catalog():
    kinds = [(c.kind, getattr(c, "p", None)) for c in default_psi_candidates()]
    assert kinds[0] == ("power", 2.0)
    assert ("entropy", None) in kinds
    assert len(kinds) == 4
