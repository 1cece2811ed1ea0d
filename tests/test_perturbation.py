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

from qphelm import geometry, perturbation, potentials, qpgreen
from qphelm.errors import ContainmentError
from qphelm.lattice import Lattice

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
        single = perturbation.rescaling_identity_check(
            kind, 0.1, theta, probes, center=CENTER, green=green)
        assert single == value  # table sharing must not change the numbers


def test_families_finite_at_zero_and_negative_epsilon(green):
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    for family in "MNP":
        for index in (1, 2, 3):
            for eps in (0.0, -0.1, 0.1):
                m = perturbation.rescaled_operator(
                    family, index, eps, dc, CENTER, green=green).matrix
                assert np.all(np.isfinite(m)), (family, index, eps)


def test_index1_at_zero_is_laplace(green):
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    got = perturbation.rescaled_operator("M", 1, 0.0, dc, CENTER,
                                         green=green).matrix
    ref = potentials.assemble_free("single_trace", dc, 0.0).matrix
    assert np.array_equal(got, ref)


def test_log_family_at_zero_averages_the_density(green):
    # The log-weighted kernel at epsilon = 0 is the constant 1/(2 pi), so the
    # operator returns the mean of the density against arc length.
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    m3 = perturbation.rescaled_operator("M", 3, 0.0, dc, CENTER, green=green).matrix
    tv = np.cos(dc.t) + 2.0
    ref = np.sum(tv * dc.weights) / (2.0 * np.pi)
    assert np.max(np.abs(m3 @ tv - ref)) < 1e-13


def test_normal_family_regular_part_at_zero_has_rank_structure(green):
    # At epsilon = 0 the kernel nu(t) . grad R(0) does not depend on the
    # source point: every row is proportional to the quadrature weights.
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    n2 = perturbation.rescaled_operator("N", 2, 0.0, dc, CENTER,
                                        green=green).matrix
    ratios = n2 / dc.weights[None, :]
    assert np.max(np.abs(ratios - ratios[:, :1])) < 1e-13


def test_leading_split_reconstructs_exactly(wave, green):
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    for eps in (1e-2, 1e-3):
        leading, remainder = perturbation.leading_split("M", eps, dc, CENTER,
                                                        green=green)
        full = potentials.assemble_free("single_trace", dc, eps * wave.k).matrix
        assert np.max(np.abs(leading + eps * remainder - full)) < 1e-15


def test_leading_split_remainder_decays_linearly(green):
    # The free-space standing-wave kernel is even in the wavenumber, so the
    # divided difference (F1[eps] - F1[0]) / eps vanishes linearly.
    dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    norms = {}
    for eps in (1e-2, 1e-3, 1e-4):
        _, remainder = perturbation.leading_split("M", eps, dc, CENTER, green=green)
        norms[eps] = np.max(np.abs(remainder))
    assert norms[1e-3] < 0.15 * norms[1e-2]
    assert norms[1e-4] < 0.15 * norms[1e-3]
    # boundedness sweep for the normal-derivative analogue
    for eps in (1e-2, 1e-3, 1e-4):
        _, rem_n = perturbation.leading_split("N", eps, dc, CENTER, green=green)
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
                    family, index, e, dc, CENTER, green=green).matrix
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
                                                green=green).matrix @ tv
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
    with pytest.raises(ContainmentError):
        perturbation.leading_split("M", 0.9 * bound, dc, CENTER, green=green)
    theta = potentials.Density(curve=dc, values=np.ones(64))
    with pytest.raises(ContainmentError):
        perturbation.rescaling_identity_check(
            "single-trace", 0.0, theta, center=CENTER, green=green)
    with pytest.raises(ValueError):
        perturbation.rescaled_operator("Q", 1, 0.1, dc, CENTER, green=green)
    with pytest.raises(ValueError):
        perturbation.rescaling_identity_check(
            "far-single", 0.1, theta, None, center=CENTER, green=green)
