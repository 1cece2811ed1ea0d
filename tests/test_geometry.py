"""Curves, discretization, trigonometric interpolation, hole rescaling."""

import math

import numpy as np
import pytest

from qphelm import geometry
from qphelm.errors import ContainmentError
from qphelm.lattice import Lattice


def test_circle_discretization_exact():
    a, c = 0.35, (0.5, 0.5)
    dc = geometry.discretize(geometry.make_curve("circle", radius=a, center=c), 64)
    assert dc.N == 64
    np.testing.assert_allclose(dc.speeds, a, rtol=1e-14)
    np.testing.assert_allclose(dc.curvature, 1 / a, rtol=1e-12)
    np.testing.assert_allclose(dc.length, 2 * math.pi * a, rtol=1e-14)
    radial = dc.points - np.asarray(c)
    np.testing.assert_allclose(dc.normals, radial / a, atol=1e-14)


def test_normals_formula_and_outward_orientation():
    # normal = (x2', -x1')/|x'| and integral of nu.(x - x_in) equals 2*Area
    for name, params, interior, area in (
            ("circle", dict(radius=0.35, center=(0.5, 0.5)), (0.5, 0.5),
             math.pi * 0.35 ** 2),
            ("ellipse", dict(a=0.4, b=0.2), (0.0, 0.0), math.pi * 0.4 * 0.2),
            ("kite", dict(), (0.0, 0.0), None)):
        dc = geometry.discretize(geometry.make_curve(name, **params), 256)
        nu_ref = np.stack([dc.velocity[:, 1], -dc.velocity[:, 0]], axis=1)
        nu_ref /= dc.speeds[:, None]
        np.testing.assert_allclose(dc.normals, nu_ref, atol=1e-13)
        flux = np.sum(np.sum(dc.normals * (dc.points - np.asarray(interior)),
                             axis=1) * dc.weights)
        assert flux > 0
        if area is not None:
            assert flux == pytest.approx(2 * area, rel=1e-12)


def test_curve_derivatives_match_finite_differences():
    # velocity from position and acceleration from velocity, on every shape
    h = 1e-6
    t = np.array([0.3, 1.7, 4.2])
    for curve in (geometry.make_curve("circle", radius=0.35, center=(0.5, 0.5)),
                  geometry.make_curve("ellipse", a=0.4, b=0.2, center=(0.2, -0.1)),
                  geometry.make_curve("kite"),
                  geometry.make_curve("kite", center=(0.5, 0.45), scale=0.3)):
        for f, df in ((curve.position, curve.velocity),
                      (curve.velocity, curve.acceleration)):
            fd = (f(t + h) - f(t - h)) / (2 * h)
            np.testing.assert_allclose(df(t), fd, atol=1e-7, err_msg=curve.name)


def test_trapezoid_superconvergence():
    # doubling N gains >= 1e4 accuracy on analytic periodic integrands
    # (geometric Fourier decay: pole of the integrand off the real axis)
    exact = 2 * math.pi / math.sqrt(1.2 ** 2 - 1)
    errs = []
    for N in (16, 32):
        dc = geometry.discretize(geometry.make_curve("circle", radius=1.0), N)
        errs.append(abs(np.sum(1.0 / (1.2 - np.cos(dc.t)) * dc.weights) - exact))
    assert errs[1] < 1e-4 * errs[0]
    # same behavior for the arc length of the kite once in the asymptotic range
    curve = geometry.make_curve("kite")
    ref = geometry.discretize(curve, 512).length
    err48 = abs(geometry.discretize(curve, 48).length - ref)
    err96 = abs(geometry.discretize(curve, 96).length - ref)
    assert err96 < 1e-4 * err48


def test_trig_interpolation_exact_on_band_limited():
    N = 32
    t = 2 * math.pi * np.arange(N) / N
    vals = np.exp(3j * t) + 2.0 * np.cos(5 * t) - 0.7
    taus = np.array([0.123, 2.9, 5.5])
    expected = np.exp(3j * taus) + 2.0 * np.cos(5 * taus) - 0.7
    got = geometry.trig_interpolate(vals, taus)
    np.testing.assert_allclose(got, expected, atol=1e-13)
    # reproduces nodal values exactly
    got_nodes = geometry.trig_interpolate(vals, t[:5] + 2 * math.pi)
    np.testing.assert_allclose(got_nodes, vals[:5], atol=1e-13)


def test_rescale_is_exact_affine_map():
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    ref = geometry.make_curve("kite")
    cfg = geometry.HoleConfig(reference=ref, center=(0.5, 0.5), epsilon=0.1,
                              lattice=lat)
    small = geometry.rescale(cfg)
    t = np.array([0.0, 1.0, 2.5, 4.0])
    np.testing.assert_allclose(small.position(t),
                               np.asarray((0.5, 0.5)) + 0.1 * ref.position(t),
                               rtol=1e-15)
    np.testing.assert_allclose(small.velocity(t), 0.1 * ref.velocity(t),
                               rtol=1e-15)
    ds = geometry.discretize(small, 64)
    dr = geometry.discretize(ref, 64)
    np.testing.assert_allclose(ds.normals, dr.normals, atol=1e-13)
    np.testing.assert_allclose(ds.curvature, dr.curvature / 0.1, rtol=1e-11)


def test_a_rescaled_curve_maps_the_reference_samples():
    # extent and disk of the physical curve have the bits of sampling it
    # afresh, and taking them samples neither curve again
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    for shape, params in (("circle", dict(radius=1.0)), ("kite", dict())):
        curve = geometry.make_curve(shape, **params)
        calls = []

        def position(t, curve=curve):
            calls.append(np.size(t))
            return curve.position(t)

        ref = geometry.BoundaryCurve(position, curve.velocity, curve.acceleration)
        for eps in (0.125, 2.0 ** -7, 0.001):
            cfg = geometry.HoleConfig(reference=ref, center=(0.5, 0.5), epsilon=eps,
                                      lattice=lat)
            phys = geometry.rescale(cfg)
            n = len(calls)
            extent, disk = phys.extent, phys.disk
            assert len(calls) == n
            fresh = geometry.BoundaryCurve(phys.position, phys.velocity,
                                           phys.acceleration)
            assert all(np.array_equal(a, b) for a, b in zip(extent, fresh.extent))
            assert np.array_equal(disk[0], fresh.disk[0]) and disk[1] == fresh.disk[1]


def test_containment_bound_circle():
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    disk = geometry.make_curve("circle", radius=1.0)
    assert geometry.containment_bound(disk, (0.5, 0.5), lat) == \
        pytest.approx(0.5, rel=1e-3)
    assert geometry.containment_bound(disk, (0.25, 0.5), lat) == \
        pytest.approx(0.25, rel=1e-3)
    cfg = geometry.HoleConfig(reference=disk, center=(0.5, 0.5), epsilon=0.4,
                              lattice=lat)
    assert cfg.epsilon_max == pytest.approx(0.5, rel=1e-3)
    assert cfg.validated_radius == pytest.approx(0.25, rel=1e-3)


def test_containment_bound_samples_each_curve_once():
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    kite = geometry.make_curve("kite")
    calls = []

    def position(t):
        calls.append(np.size(t))
        return kite.position(t)

    ref = geometry.BoundaryCurve(position, kite.velocity, kite.acceleration)
    bounds = {geometry.containment_bound(ref, c, lat) for c in [(0.5, 0.5)] * 3}
    geometry.HoleConfig(reference=ref, center=(0.5, 0.5), epsilon=0.1, lattice=lat)
    assert calls == [4096]
    assert bounds == {geometry.containment_bound(kite, (0.5, 0.5), lat)}


def test_containment_violations_raise():
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    disk = geometry.make_curve("circle", radius=1.0)
    with pytest.raises(ContainmentError):
        geometry.HoleConfig(reference=disk, center=(0.5, 0.5), epsilon=0.6,
                            lattice=lat)
    with pytest.raises(ContainmentError):
        geometry.containment_bound(disk, (1.5, 0.5), lat)  # center outside cell


def test_unknown_curve_rejected():
    with pytest.raises(ValueError):
        geometry.make_curve("pentagon")
