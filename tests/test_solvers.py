"""Boundary-value solver tests.

The main oracle is a manufactured solution: the quasi-periodic Green's
function with a source placed inside the hole is an exact exterior solution,
so its boundary trace (or normal derivative) can be fed to the solver and the
reconstruction compared at probe points.  Convergence rates, gauge invariance
of the A=1 representation, and interior-eigenvalue rescue are checked on top.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jnp_zeros, jvp

from qphelm import geometry, potentials, qpgreen, solvers
from qphelm.errors import ContainmentError
from qphelm.lattice import Lattice, make_wave_context

FIRST_DISK_NEUMANN_K = 5.260525089544742  # first zero of J_1' over radius 0.35


def disk_neumann_wavenumbers(radius: float, max_order: int = 3,
                             count: int = 3) -> np.ndarray:
    """Interior Neumann eigen-wavenumbers of a disk, from zeros of J_m'."""
    ks = []
    for m in range(max_order + 1):
        ks.extend(jnp_zeros(m, count) / radius)
    return np.sort(np.asarray(ks))


def _probe_ring(rng, n=20):
    ang = rng.uniform(0, 2 * np.pi, n)
    rad = rng.uniform(0.44, 0.49, n)
    return np.stack([0.5 + rad * np.cos(ang), 0.5 + rad * np.sin(ang)], axis=-1)


@pytest.fixture(scope="module")
def manufactured(lat, wave, green, circle128):
    x0 = np.array([0.5, 0.5])
    gv, gg = qpgreen.green_eval(green, circle128.points - x0)
    probes = _probe_ring(np.random.default_rng(7))
    exact, _ = qpgreen.green_eval(green, probes - x0)
    return {"trace": gv, "normal_deriv": np.einsum("ij,ij->i", circle128.normals, gg),
            "probes": probes, "exact": exact}


def test_manufactured_dirichlet(circle128, lat, wave, green, manufactured):
    sol = solvers.solve_dirichlet(circle128, lat, wave, manufactured["trace"],
                                  green=green)
    u = sol.field(manufactured["probes"]).values
    assert np.max(np.abs(u - manufactured["exact"])) < 1e-10
    assert sol.condition_estimate < 1e3
    assert sol.boundary_residual < 1e-10
    assert sol.notes == ()


def test_manufactured_neumann(circle128, lat, wave, green, manufactured):
    sol = solvers.solve_neumann(circle128, lat, wave,
                                manufactured["normal_deriv"], green=green)
    u = sol.field(manufactured["probes"]).values
    assert np.max(np.abs(u - manufactured["exact"])) < 1e-10
    assert sol.condition_estimate < 1e3
    assert sol.boundary_residual < 1e-10


@pytest.fixture(scope="module")
def kite_green(lat):
    return qpgreen.make_green_evaluator(lat, 6.0)


def test_dirichlet_gauge_flag_changes_density_not_field(circle128, lat, wave,
                                                        green, manufactured):
    # With A=1 the representation gains an i*(single layer) term: the density
    # must change, the reconstructed field must not.
    plain = solvers.solve_dirichlet(circle128, lat, wave, manufactured["trace"],
                                    green=green)
    gauged = solvers.solve_dirichlet(circle128, lat, wave, manufactured["trace"],
                                     a_flag=1, green=green)
    assert gauged.a_flag == 1
    assert np.max(np.abs(gauged.density.values - plain.density.values)) > 0.1
    u = gauged.field(manufactured["probes"]).values
    assert np.max(np.abs(u - manufactured["exact"])) < 1e-10


def test_gauged_field_takes_one_green_call(circle128, lat, wave, green, manufactured,
                                          monkeypatch):
    # D[mu] + i S[mu] with gradients contracts one Green jet for both layers,
    # the double layer's gradient by parts from G and grad G
    sol = solvers.solve_dirichlet(circle128, lat, wave, manufactured["trace"],
                                  a_flag=1, green=green)
    probes = manufactured["probes"]
    double = potentials.field_eval("double", sol.density, probes, green=green,
                                   want_gradients=True)
    single = potentials.field_eval("single", sol.density, probes, green=green,
                                   want_gradients=True)
    calls = []
    for name in ("green_eval", "green_hessian"):
        def traced(*args, _name=name, _call=getattr(qpgreen, name)):
            calls.append(_name)
            return _call(*args)
        monkeypatch.setattr(qpgreen, name, traced)
    s = sol.field(probes, want_gradients=True)
    assert calls == ["green_eval"]
    scale = np.max(np.abs(double.gradients))
    assert np.max(np.abs(s.values - (double.values + 1j * single.values))) < 1e-13 * scale
    assert np.max(np.abs(s.gradients - (double.gradients + 1j * single.gradients))) \
        < 1e-13 * scale


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gauged_kite_field_gradients_match_the_point_source(lat, kite_green, seed,
                                                           monkeypatch):
    # the benchmark's kite at N = 128 and k = 6 with a_flag = 1: the double
    # layer's gradient by parts from G and grad G holds the exact field's
    # gradient to 1e-11 at probes 0.15 clear of the kite and its images (the
    # Hessian contraction it replaced read 5-8e-11 here)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from qpbench import workloads

    curve = workloads.hole("kite")
    dc = geometry.discretize(curve, 128)
    rng = np.random.default_rng(seed)
    x0 = workloads.draw_source(rng)
    probes = workloads.draw_probes(rng, curve, lat, 64)
    gv, _ = qpgreen.green_eval(kite_green, dc.points - x0)
    sol = solvers.solve_dirichlet(dc, lat, kite_green.wave, gv, a_flag=1, green=kite_green)
    s = sol.field(probes, want_gradients=True)
    ev, eg, _ = qpgreen.ewald_oracle(kite_green, probes - x0)
    assert np.max(np.abs(s.values - ev)) <= 1e-11
    assert np.max(np.abs(s.gradients - eg)) <= 1e-11


def test_zero_data_gives_zero_solution(circle128, lat, wave, green, manufactured):
    for solve in (solvers.solve_dirichlet, solvers.solve_neumann):
        sol = solve(circle128, lat, wave, np.zeros(circle128.N), green=green)
        assert np.max(np.abs(sol.density.values)) < 1e-14
        assert np.max(np.abs(sol.field(manufactured["probes"]).values)) < 1e-14


def test_solution_is_linear_in_data(circle128, lat, wave, green, rng):
    g1 = rng.normal(size=circle128.N) + 1j * rng.normal(size=circle128.N)
    g2 = rng.normal(size=circle128.N) + 1j * rng.normal(size=circle128.N)
    a, b = 0.8 - 1.1j, 2.3 + 0.2j
    mus = [solvers.solve_neumann(circle128, lat, wave, g, green=green).density.values
           for g in (g1, g2, a * g1 + b * g2)]
    assert np.max(np.abs(mus[2] - (a * mus[0] + b * mus[1]))) < 1e-10


def test_solution_field_is_quasiperiodic_helmholtz(circle128, lat, wave, green,
                                                   manufactured):
    sol = solvers.solve_dirichlet(circle128, lat, wave, manufactured["trace"],
                                  green=green)
    xq = np.array([[0.07, 0.12]])
    v0 = sol.field(xq).values[0]
    for j, shift in enumerate((np.array([1.0, 0.0]), np.array([0.0, 1.0]))):
        vs = sol.field(xq + shift).values[0]
        phase = np.exp(1j * lat.eta[j] * lat.q[j])
        assert abs(vs - phase * v0) < 1e-9
    # 4th-order finite-difference Laplacian: (Delta + k^2) u = 0 off the hole
    h = 1e-3
    st = np.array([[0, 0], [h, 0], [-h, 0], [0, h], [0, -h],
                   [2 * h, 0], [-2 * h, 0], [0, 2 * h], [0, -2 * h]])
    vals = sol.field(xq + st).values
    lap = (-60 * vals[0] + 16 * np.sum(vals[1:5]) - np.sum(vals[5:9])) / (12 * h * h)
    assert abs(lap + wave.k ** 2 * vals[0]) < 1e-6


def test_spectral_convergence_on_kite(lat):
    # Doubling N from 128 to 256 must shrink the probe error by >= 1e3 for
    # both problems (analytic curve and data, pre-asymptotic at k = 6).
    k = 6.0
    wave = make_wave_context(lat, k)
    green = qpgreen.make_green_evaluator(lat, k)
    kite = geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5))
    x0 = np.array([0.5, 0.5])
    rng = np.random.default_rng(11)
    probes = np.stack([rng.uniform(0.86, 0.95, 20), rng.uniform(0.35, 0.65, 20)],
                      axis=-1)
    exact, _ = qpgreen.green_eval(green, probes - x0)

    errs = {"dirichlet": {}, "neumann": {}}
    for N in (128, 256):
        dc = geometry.discretize(kite, N)
        gv, gg = qpgreen.green_eval(green, dc.points - x0)
        sd = solvers.solve_dirichlet(dc, lat, wave, gv, green=green)
        errs["dirichlet"][N] = np.max(np.abs(sd.field(probes).values - exact))
        hv = np.einsum("ij,ij->i", dc.normals, gg)
        sn = solvers.solve_neumann(dc, lat, wave, hv, green=green)
        errs["neumann"][N] = np.max(np.abs(sn.field(probes).values - exact))
    for problem in ("dirichlet", "neumann"):
        assert errs[problem][128] > 1e-12  # coarse level genuinely unresolved
        assert errs[problem][128] / errs[problem][256] >= 1e3


def test_interior_eigenvalue_rescue(circle128, lat):
    # At an interior Neumann eigen-wavenumber of the hole the plain Dirichlet
    # system degenerates; the A=1 coupling restores bounded conditioning.
    keig = disk_neumann_wavenumbers(0.35)[0]
    assert abs(keig - FIRST_DISK_NEUMANN_K) < 1e-12
    wave = make_wave_context(lat, keig)
    green = qpgreen.make_green_evaluator(lat, keig)
    x0 = np.array([0.5, 0.5])
    gv, _ = qpgreen.green_eval(green, circle128.points - x0)
    probes = _probe_ring(np.random.default_rng(7))
    exact, _ = qpgreen.green_eval(green, probes - x0)

    with pytest.warns(UserWarning, match="condition"):
        sol0 = solvers.solve_dirichlet(circle128, lat, wave, gv, green=green)
    assert sol0.condition_estimate > 1e12
    assert len(sol0.notes) == 1

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol1 = solvers.solve_dirichlet(circle128, lat, wave, gv, a_flag=1,
                                       green=green)
    assert sol1.condition_estimate < 1e3
    assert sol1.notes == ()
    assert np.max(np.abs(sol1.field(probes).values - exact)) < 1e-10


def test_solvers_refuse_an_evaluator_for_another_problem(circle128, lat, wave,
                                                         green):
    other_k = qpgreen.make_green_evaluator(lat, 2.0)
    other_lattice = qpgreen.make_green_evaluator(
        Lattice(q_diag=(1.0, 1.2), eta=lat.eta), wave.k)
    data = np.ones(circle128.N)
    for ev in (other_k, other_lattice):
        with pytest.raises(ValueError, match="Green evaluator built for"):
            solvers.solve_dirichlet(circle128, lat, wave, data, green=ev)
        with pytest.raises(ValueError, match="Green evaluator built for"):
            solvers.solve_neumann(circle128, lat, wave, data, green=ev)


def test_solvers_refuse_a_hole_that_meets_its_own_images(lat, wave, green):
    # a radius-0.6 disk spans 1.2 on both axes of the unit cell
    dc = geometry.discretize(geometry.make_curve("circle", radius=0.6,
                                                 center=(0.5, 0.5)), 64)
    data = np.ones(dc.N)
    for solve in (solvers.solve_dirichlet, solvers.solve_neumann):
        with pytest.raises(ContainmentError, match=r"hole spans \(1\.2.*\(1\.0, 1\.0\)"):
            solve(dc, lat, wave, data, green=green)


# (radius, N, warns): the gap to the image is 1 - 2 radius, the node spacing
# 2 pi radius / N; the manufactured residual is 0.75/0.72/0.48 at radius
# 0.499, 5.4e-2/9.0e-3/5.6e-5 at 0.49 and 3.9e-6/1.1e-11/1.7e-14 at 0.45
@pytest.mark.parametrize("radius, N, warns", [
    (0.499, 64, True), (0.499, 128, True), (0.499, 256, True),
    (0.49, 64, True), (0.49, 128, True), (0.49, 256, False),
    (0.45, 64, False), (0.45, 128, False), (0.45, 256, False)])
def test_a_hole_within_a_node_spacing_of_its_image_warns(lat, wave, green, radius, N,
                                                         warns):
    dc = geometry.discretize(geometry.make_curve("circle", radius=radius,
                                                 center=(0.5, 0.5)), N)
    data, _ = qpgreen.green_eval(green, dc.points - np.array([0.5, 0.5]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solvers.solve_dirichlet(dc, lat, wave, data, green=green)
    guard = [str(w.message) for w in caught
             if issubclass(w.category, potentials.AccuracyGuardWarning)]
    assert guard == list(sol.notes) == (
        [f"the hole comes within {1 - 2 * radius:.3g} of its periodic image, below "
         f"the node spacing {float(np.max(dc.weights)):.3g}; accuracy degrades"]
        if warns else [])


def test_disk_neumann_wavenumbers_are_derivative_zeros():
    a = 0.35
    ks = disk_neumann_wavenumbers(a, max_order=3, count=3)
    assert len(ks) == 12
    assert np.all(np.diff(ks) >= 0)
    for k in ks:
        assert min(abs(jvp(m, k * a)) for m in range(4)) < 1e-10
