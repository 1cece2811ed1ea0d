"""Rescaled-operator family tests.

Central oracle: two independent assembly paths for the same object.  The
quasi-periodic potential assembled directly on the small physical hole
boundary must equal the epsilon-weighted combination of the rescaled family
matrices assembled on the fixed reference curve — for all five identity
kinds, across shapes and epsilon.  Limit values at epsilon = 0, smoothness in
epsilon, and the necessity of the log-epsilon term are checked separately.
"""

import numpy as np
import pytest

from qphelm import geometry, nonlinear, perturbation, potentials, qpgreen, specfun
from qphelm.errors import ContainmentError, SeriesTruncationError

CENTER = (0.5, 0.5)


def _far_probes(n=12, seed=3):
    rng = np.random.default_rng(seed)
    return np.stack([0.95 + 0.05 * (rng.random(n) - 0.5),
                     0.95 + 0.05 * (rng.random(n) - 0.5)], axis=-1)


def test_all_five_identities_on_circle_and_kite(lat, green):
    probes = _far_probes()
    for ref in (geometry.make_curve("circle", radius=1.0),
                geometry.make_curve("kite")):
        dc = geometry.discretize(ref, 96)
        theta = potentials.Density(curve=dc, values=np.exp(1j * dc.t) + 0.4)
        for eps in (0.2, 0.1, 0.05, 0.02):
            if eps >= geometry.containment_bound(ref, CENTER, lat):
                continue
            res = perturbation.rescaling_identity_suite(
                eps, theta, probes, center=CENTER, green=green)
            assert set(res) == set(perturbation.IDENTITY_KINDS)
            for kind, value in res.items():
                assert value <= 1e-8, (ref, eps, kind, value)


def test_identity_reference_values_at_n256(green):
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 256)
    theta = potentials.Density(curve=dc, values=np.ones(256))
    res = perturbation.rescaling_identity_suite(
        0.05, theta, _far_probes(), center=CENTER, green=green,
        kinds=("single-trace", "adjoint", "far-single"))
    assert res["single-trace"] <= 1e-9
    assert res["adjoint"] <= 1e-9
    assert res["far-single"] <= 1e-10


def test_suite_matches_individual_checks(green):
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    theta = potentials.Density(curve=dc, values=np.cos(dc.t) - 0.7j)
    probes = _far_probes()
    suite = perturbation.rescaling_identity_suite(
        0.1, theta, probes, center=CENTER, green=green)
    for kind, value in suite.items():
        single = perturbation.rescaling_identity_suite(
            0.1, theta, probes, center=CENTER, green=green, kinds=(kind,))[kind]
        assert single == value  # table sharing must not change the numbers


def test_suite_refuses_far_kinds_without_probes_before_assembly(green, monkeypatch):
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    theta = potentials.Density(curve=dc, values=np.ones(64))

    def refuse(*args, **kwargs):
        raise AssertionError("assembled before the kinds were checked")

    monkeypatch.setattr(potentials, "regular_tables", refuse)
    with pytest.raises(ValueError, match="probe"):
        perturbation.rescaling_identity_suite(
            0.1, theta, center=CENTER, green=green, kinds=("adjoint", "far-single"))


def test_suite_returns_residuals_in_the_requested_order(green):
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    theta = potentials.Density(curve=dc, values=np.ones(64))
    kinds = ("far-double", "adjoint", "single-trace")
    res = perturbation.rescaling_identity_suite(
        0.1, theta, _far_probes(), center=CENTER, green=green, kinds=kinds)
    assert tuple(res) == kinds


def test_families_finite_at_zero_and_negative_epsilon(green):
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    for family in "MNP":
        for index in (1, 2, 3):
            for eps in (0.0, -0.1, 0.1):
                m = perturbation.rescaled_operator(
                    family, index, eps, dc, CENTER, green=green)
                assert np.all(np.isfinite(m)), (family, index, eps)


def test_index1_at_zero_is_laplace(green):
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    got = perturbation.rescaled_operator("M", 1, 0.0, dc, CENTER,
                                         green=green)
    ref = potentials.assemble_free("single_trace", dc, 0.0).matrix
    assert np.array_equal(got, ref)


def test_log_family_at_zero_averages_the_density(green):
    # The log-weighted kernel at epsilon = 0 is the constant 1/(2 pi), so the
    # operator returns the mean of the density against arc length.
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    m3 = perturbation.rescaled_operator("M", 3, 0.0, dc, CENTER, green=green)
    tv = np.cos(dc.t) + 2.0
    ref = np.sum(tv * dc.weights) / (2.0 * np.pi)
    assert np.max(np.abs(m3 @ tv - ref)) < 1e-13


def _index3_from_both_profiles(family, epsilon, dc, k):
    """The index-3 member read off the full profile pairs, the J half kept."""
    kind = perturbation._FAMILY_KIND[family]
    y = epsilon * (dc.points[:, None, :] - dc.points[None, :, :])
    r = np.sqrt(np.sum(y * y, axis=2))
    if kind == "single_trace":
        A1 = 0.5 * specfun.fs_coefficients(2, k * r)[0]
    else:
        nd = potentials._contract(kind, dc.normals, dc.normals, y)
        gJ = specfun.fs_coefficients_dz_over_z(2, specfun.ProfilePoints(k * r))[0]
        A1 = 0.5 * (k * k) * gJ * nd
    return 2.0 * A1 * dc.weights[None, :]


@pytest.mark.parametrize("family", ["M", "N", "P"])
def test_log_family_sums_only_the_j_profile(green, monkeypatch, family):
    dc = geometry.discretize(geometry.make_curve("kite"), 64)
    refs = {eps: _index3_from_both_profiles(family, eps, dc, green.k)
            for eps in (0.1, 1e-3)}

    def refuse(*args):
        raise AssertionError("an index-3 family summed a Neumann profile")

    monkeypatch.setattr(specfun, "entire_neumann", refuse)
    monkeypatch.setattr(specfun, "entire_neumann_dz_over_z", refuse)
    for eps, ref in refs.items():
        got = perturbation.rescaled_operator(family, 3, eps, dc, CENTER,
                                             green=green)
        # the series sums the J-profile in its own order
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [1.3, 6.0, 2 + 0.5j])
@pytest.mark.parametrize("N", [64, 128])
@pytest.mark.parametrize("shape", ["circle", "kite"])
def test_series_members_match_direct_assembly(lat, shape, N, k):
    # index 1 against the free-space assembly at eps*k, index 3 against the
    # J-profile summed at eps*d, at every epsilon of the default grid
    ref = geometry.make_curve("circle", radius=1.0) if shape == "circle" \
        else geometry.make_curve("kite")
    dc = geometry.discretize(ref, N)
    grid = nonlinear.default_epsilon_grid(dc, CENTER, lat)
    series = perturbation.FamilySeries(dc, k, max(grid))
    for eps in grid:
        for family in "MNP":
            kind = perturbation._FAMILY_KIND[family]
            for index, direct in (
                    (1, potentials.assemble_free(kind, dc, eps * k).matrix),
                    (3, _index3_from_both_profiles(family, eps, dc, k))):
                got = series.member(family, index, eps)
                err = np.max(np.abs(got - direct)) / np.max(np.abs(direct))
                assert err <= 1e-13, (family, index, eps, err)


@pytest.mark.parametrize("k", [1.3, 2 + 0.5j])
def test_series_at_zero_is_the_laplace_assembly(k):
    dc = geometry.discretize(geometry.make_curve("kite"), 64)
    series = perturbation.FamilySeries(dc, k, 0.1)
    for family, kind in perturbation._FAMILY_KIND.items():
        got = series.member(family, 1, 0.0)
        assert np.array_equal(got, potentials.assemble_free(kind, dc, 0.0).matrix)


def test_series_refuses_arguments_past_the_series_radius(lat):
    # |k| eps max|d| = 16 * 0.45 * 2 = 14.4 > SERIES_RADIUS = 8
    green16 = qpgreen.make_green_evaluator(lat, 16.0)
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    with pytest.raises(SeriesTruncationError, match="series radius"):
        perturbation.rescaled_operator("M", 1, 0.45, dc, CENTER, green=green16)
    # z_max = 16 * 0.2 * 2 = 6.4: the table builds, and refuses a larger epsilon
    series = perturbation.FamilySeries(dc, 16.0, 0.2)
    with pytest.raises(ValueError, match="epsilon_max"):
        series.member("M", 1, 0.21)


def test_normal_family_regular_part_at_zero_has_rank_structure(green):
    # At epsilon = 0 the kernel nu(t) . grad R(0) does not depend on the
    # source point: every row is proportional to the quadrature weights.
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    n2 = perturbation.rescaled_operator("N", 2, 0.0, dc, CENTER,
                                        green=green)
    ratios = n2 / dc.weights[None, :]
    assert np.max(np.abs(ratios - ratios[:, :1])) < 1e-13


def test_leading_split_remainder_decays_linearly(green):
    # The free-space standing-wave kernel is even in the wavenumber, so the
    # divided difference (F1[eps] - F1[0]) / eps vanishes linearly.
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)

    def remainder(family, eps):
        def f1(e):
            return perturbation.rescaled_operator(family, 1, e, dc, CENTER,
                                                  green=green)
        return (f1(eps) - f1(0.0)) / eps

    norms = {}
    for eps in (1e-2, 1e-3, 1e-4):
        norms[eps] = np.max(np.abs(remainder("M", eps)))
    assert norms[1e-3] < 0.15 * norms[1e-2]
    assert norms[1e-4] < 0.15 * norms[1e-3]
    # boundedness sweep for the normal-derivative analogue
    for eps in (1e-2, 1e-3, 1e-4):
        rem_n = remainder("N", eps)
        assert np.all(np.isfinite(rem_n))
        assert np.max(np.abs(rem_n)) < 1.0


def test_epsilon_smoothness_second_differences(green):
    # Numerical surrogate for analyticity in epsilon: centered second
    # differences stabilize to the second-derivative norm as the step halves.
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    for family, index in (("M", 2), ("N", 2), ("M", 3)):
        def second_diff(h):
            def fam(e):
                return perturbation.rescaled_operator(
                    family, index, e, dc, CENTER, green=green)
            return np.max(np.abs(fam(0.1 + h) - 2 * fam(0.1) + fam(0.1 - h))) / h**2

        d_coarse, d_fine = second_diff(0.02), second_diff(0.005)
        assert np.isfinite(d_fine)
        assert 0.9 * d_coarse < d_fine < 1.1 * d_coarse


def test_log_term_is_necessary(lat, green):
    # Dropping the index-3 member from the single-trace identity leaves a
    # residual ~ eps |log eps| (the planar case genuinely carries log terms).
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    tv = np.ones(64)
    for eps in (0.05, 0.02, 0.01):
        phys = geometry.discretize(geometry.rescale(
            geometry.HoleConfig(reference=dc.curve, center=CENTER, epsilon=eps,
                                lattice=lat)), 64)
        lhs = potentials.assemble("single_trace", phys, green=green).matrix @ tv
        parts = [perturbation.rescaled_operator("M", i, eps, dc, CENTER,
                                                green=green) @ tv
                 for i in (1, 2)]
        truncated = np.max(np.abs(lhs - eps * parts[0] - eps * parts[1]))
        ratio = truncated / (eps * abs(np.log(eps)))
        assert 0.9 < ratio < 1.1
        assert truncated > 1e-2  # orders of magnitude above the full identity


def test_epsilon_range_is_enforced(lat, green):
    ref = geometry.make_curve("circle", radius=1.0)
    dc = geometry.discretize(ref, 64)
    bound = geometry.containment_bound(ref, CENTER, lat)
    with pytest.raises(ContainmentError):
        perturbation.rescaled_operator("M", 1, bound, dc, CENTER, green=green)
    theta = potentials.Density(curve=dc, values=np.ones(64))
    with pytest.raises(ContainmentError):
        perturbation.rescaling_identity_suite(
            0.0, theta, center=CENTER, green=green, kinds=("single-trace",))
    with pytest.raises(ValueError):
        perturbation.rescaled_operator("Q", 1, 0.1, dc, CENTER, green=green)
    with pytest.raises(ValueError):
        perturbation.rescaling_identity_suite(
            0.1, theta, None, center=CENTER, green=green, kinds=("far-single",))
