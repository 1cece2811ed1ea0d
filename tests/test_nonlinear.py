"""Nonlinear Robin continuation tests.

Oracles: the Laplace limit equation on a disk has the constant solution
G(0); the residual map is affine for affine nonlinearities; the Jacobian is
checked against directional finite differences of the residual; Newton step
norms must contract quadratically; and the reconstructed far field must
follow the leading epsilon-scaling law with the limit-density charge.
"""

import collections
from pathlib import Path

import numpy as np
import pytest

from qphelm import geometry, nonlinear, perturbation, potentials, qpgreen, solvers, specfun
from qphelm.errors import QphelmError

CENTER = (0.5, 0.5)

SHORT_SWEEP = (0.06, 0.03, 0.015, 0.0075, 0.003)


@pytest.fixture(scope="module")
def poly2():
    # G(u) = 1 + 0.5 u^2: nonzero at 0 (nontrivial branch), genuinely nonlinear
    return nonlinear.make_nonlinearity("poly2", offset=1.0, gamma=0.5)


@pytest.fixture(scope="module")
def sweep_states(disk96, green, poly2):
    return nonlinear.continuation_sweep(poly2, disk96, CENTER, green=green,
                                        epsilons=SHORT_SWEEP)


def test_make_nonlinearity_kinds():
    u = 0.3 + 0.2j
    cases = {
        "constant": ({"value": 2.0}, 2.0),
        "affine": ({"offset": 1.0, "slope": 0.5}, 1.0 + 0.5 * u),
        "quadratic": ({"gamma": 0.5}, 0.5 * u * u),
        "sine": ({"gamma": 0.7}, 0.7 * np.sin(u)),
        "poly2": ({"offset": 1.0, "gamma": 0.5}, 1.0 + 0.5 * u * u),
    }
    for kind, (params, expected) in cases.items():
        B = nonlinear.make_nonlinearity(kind, **params)
        assert np.abs(B(u) - expected) < 1e-14, kind
        assert B.description
    with pytest.raises(ValueError):
        nonlinear.make_nonlinearity("cubic")


def test_make_nonlinearity_rejects_unknown_parameters():
    with pytest.raises(ValueError, match="ofset"):
        nonlinear.make_nonlinearity("poly2", ofset=2.0)
    with pytest.raises(ValueError, match="gamma"):
        nonlinear.make_nonlinearity("constant", value=1.0, gamma=0.5)


def test_derivative_gate_rejects_wrong_derivative():
    lying = nonlinear.RobinNonlinearity(fn=lambda u: u * u,
                                        dfn=lambda u: 3.0 * u,
                                        description="wrong derivative")
    with pytest.raises(ValueError):
        nonlinear.derivative_gate(lying)


def test_limit_density_is_constant_on_disk(disk96, poly2):
    # (1/2 I + K*) 1 = 1 for the Laplace adjoint double layer on a circle,
    # so the limit equation with right-hand side G(0) = 1 has solution 1.
    theta = nonlinear.limit_density(disk96, poly2)
    assert np.max(np.abs(theta.values - 1.0)) < 1e-12


def test_residual_and_jacobian_at_limit_state(disk96, green, poly2):
    theta = nonlinear.limit_density(disk96, poly2).values
    pack = nonlinear.build_pack(0.0, disk96, CENTER, green=green)
    res = pack.residual(poly2, 0.0, theta)
    assert np.max(np.abs(res)) < 1e-12
    # at epsilon = r = 0 the Jacobian degenerates to the limit operator
    J = pack.jacobian(poly2, 0.0, theta)
    ref = 0.5 * np.eye(disk96.N) + potentials.assemble_free(
        "adjoint_double", disk96, 0.0).matrix
    assert np.max(np.abs(J - ref)) < 1e-14


def test_jacobian_matches_directional_finite_difference(disk96, green, poly2,
                                                        rng):
    eps = 0.05
    r = eps * np.log(eps)
    tv = 1.0 + 0.2 * np.cos(disk96.t) + 0.1j * np.sin(2 * disk96.t)
    pack = nonlinear.build_pack(eps, disk96, CENTER, green=green)
    J = pack.jacobian(poly2, r, tv)
    v = rng.normal(size=disk96.N) + 1j * rng.normal(size=disk96.N)
    h = 1e-6

    def residual_at(values):
        return pack.residual(poly2, r, values)

    fd = (residual_at(tv + h * v) - residual_at(tv - h * v)) / (2 * h)
    assert np.max(np.abs(J @ v - fd)) < 1e-6 * max(1.0, np.max(np.abs(J @ v)))


def test_residual_is_affine_for_affine_nonlinearity(disk96, green, rng):
    B = nonlinear.make_nonlinearity("affine", offset=0.3, slope=1.2)
    pack = nonlinear.build_pack(0.08, disk96, CENTER, green=green)

    def res(values):
        return pack.residual(B, 0.08 * np.log(0.08), values)

    t1 = rng.normal(size=disk96.N) + 1j * rng.normal(size=disk96.N)
    t2 = rng.normal(size=disk96.N) + 1j * rng.normal(size=disk96.N)
    zero = np.zeros(disk96.N, dtype=complex)
    gap = res(t1 + t2) - res(t1) - res(t2) + res(zero)
    assert np.max(np.abs(gap)) < 1e-12


def test_solve_theta_poly2(disk96, green, poly2):
    state = nonlinear.solve_theta(0.05, poly2, disk96, CENTER, green=green)
    assert state.epsilon == 0.05
    assert state.residual_norm <= 1e-12
    assert state.newton_iterations < 40
    bc = nonlinear.boundary_condition_residual(state, poly2, center=CENTER,
                                               green=green)
    assert bc < 1e-6


def test_newton_steps_contract_quadratically(disk96, green):
    # G = 0.5 u^2 has the trivial branch; a finite perturbed start forces
    # genuine Newton iterations whose step norms must square down.
    B = nonlinear.make_nonlinearity("quadratic", gamma=0.5)
    pert = 0.5 * (1.0 + 0.3 * np.cos(disk96.t)) + 0.1j * np.sin(2 * disk96.t)
    saw_ratio = False
    for eps in (0.1, 0.02):
        state = nonlinear.solve_theta(eps, B, disk96, CENTER, green=green,
                                      start=pert, tol=1e-13)
        steps = state.step_norms
        assert state.residual_norm <= 1e-13
        ratios = [steps[i + 1] / steps[i] ** 2 for i in range(len(steps) - 1)
                  if steps[i] > 1e-10]
        assert ratios, "no measurable Newton steps recorded"
        assert max(ratios) < 10.0
        saw_ratio = True
    assert saw_ratio


def test_sweep_states_vary_continuously(sweep_states):
    # theta(eps) follows a continuous branch: increments are controlled by
    # the parameter increments (eps and eps*log(eps) both enter the system).
    for a, b in zip(sweep_states, sweep_states[1:]):
        gap = np.max(np.abs(np.asarray(a.theta.values)
                            - np.asarray(b.theta.values)))
        dpar = abs(a.epsilon - b.epsilon) + abs(a.r - b.r)
        assert gap <= 5.0 * dpar


def test_sweep_boundary_defects(sweep_states, green, poly2):
    for state in sweep_states:
        bc = nonlinear.boundary_condition_residual(state, poly2, center=CENTER,
                                                   green=green)
        assert bc < 1e-6, state.epsilon


def test_far_field_scaling_law(sweep_states, disk96, green, poly2):
    ang = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    probes = np.stack([1.65 + 0.08 * np.cos(ang), 1.35 + 0.08 * np.sin(ang)],
                      axis=1)
    fit = nonlinear.far_field_scaling(sweep_states, probes, center=CENTER,
                                      green=green)
    assert np.all(np.abs(fit.exponents - 1.0) < 0.05)
    # limit coefficient: Green's function at the probe times the charge of
    # the limit density
    tt = np.asarray(nonlinear.limit_density(disk96, poly2).values)
    charge = np.sum(tt * disk96.weights)
    gref, _ = qpgreen.green_eval(green, probes - np.asarray(CENTER))
    pred = gref * charge
    assert np.max(np.abs(fit.c0 - pred) / np.abs(pred)) < 2e-2


def test_far_field_fit_evaluates_every_state_in_one_green_call(sweep_states, green,
                                                              monkeypatch):
    ang = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    probes = np.stack([1.65 + 0.08 * np.cos(ang), 1.35 + 0.08 * np.sin(ang)], axis=1)
    # reference: per-state reconstruction and the fit's least squares
    states = sorted(sweep_states, key=lambda s: s.epsilon)
    eps = np.array([s.epsilon for s in states])
    U = np.stack([nonlinear.reconstruct_field(s, probes, center=CENTER, green=green).values
                  for s in states])
    basis = np.stack([np.ones_like(eps), eps, eps * np.log(eps)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, U / eps[:, None], rcond=None)
    logs, x = np.log(np.abs(U)), np.log(eps)
    slope = ((logs * x[:, None]).mean(axis=0) - x.mean() * logs.mean(axis=0)) \
        / (np.mean(x * x) - x.mean() ** 2)
    calls = []
    green_eval = qpgreen.green_eval

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return green_eval(*args, **kwargs)

    monkeypatch.setattr(qpgreen, "green_eval", counted)
    fit = nonlinear.far_field_scaling(sweep_states, probes, center=CENTER, green=green)
    assert calls == [len(states) * len(probes) * states[0].theta.curve.N]
    for got, want in ((fit.c0, coef[0]), (fit.c1, coef[1]), (fit.c2, coef[2]),
                      (fit.exponents, slope)):
        assert np.array_equal(got, want)


def test_a_probe_inside_a_hole_or_its_image_is_refused(sweep_states, green):
    # the state at eps = 0.06 covers the disk of radius 0.06 about (0.5, 0.5)
    # and its images; the state at eps = 0.003 does not reach these probes
    big, small = sweep_states[0], sweep_states[-1]
    for probe in ([0.5, 0.52], [1.5, -0.46], [0.45, 0.5]):
        with pytest.raises(ValueError, match="inside the hole"):
            nonlinear.reconstruct_field(big, [probe], center=CENTER, green=green)
        nonlinear.reconstruct_field(small, [probe], center=CENTER, green=green)
    probes = np.array([[1.65, 1.35], [1.6, 1.45], [0.5, 0.52]])
    # the fit runs from the smallest epsilon up: 0.03 is the first to cover it
    with pytest.raises(ValueError, match=r"\[0.5, 0.52\].*epsilon=0.03"):
        nonlinear.far_field_scaling(sweep_states, probes, center=CENTER, green=green)


@pytest.mark.filterwarnings("ignore::qphelm.potentials.AccuracyGuardWarning")
def test_probes_in_a_kites_notch_are_accepted(green, poly2):
    # the reference kite at (0.5, 0.5) leaves the notch left of its centre
    # outside the hole, though inside the hole's enclosing disk; the first
    # probe lies within a node spacing of the curve
    kite = geometry.discretize(geometry.make_curve("kite"), 64)
    theta = nonlinear.limit_density(kite, poly2)
    states = [nonlinear.ContinuationState(eps, nonlinear._slaved_r(eps), theta, 0, 0.0, ())
              for eps in (0.1, 0.08, 0.06, 0.04)]
    notch = np.array([[0.5 + 0.1 * x, 0.5] for x in (-1.1, -1.3, -1.45)])
    phys = perturbation.physical_curve(kite, CENTER, 0.1, green.lattice)
    assert not potentials.inside_hole(phys, green.lattice, notch).any()
    u = nonlinear.reconstruct_field(states[0], notch, center=CENTER, green=green)
    assert np.all(np.isfinite(u.values))
    fit = nonlinear.far_field_scaling(states, notch, center=CENTER, green=green)
    assert np.all(np.isfinite(fit.c0))
    # inside the kite, and inside an image of it; the fit runs from the
    # smallest epsilon up, and 0.06 is the first to cover them
    for probe in ([0.45, 0.5], [1.45, -0.5]):
        with pytest.raises(ValueError, match="inside the hole"):
            nonlinear.reconstruct_field(states[0], [probe], center=CENTER, green=green)
        with pytest.raises(ValueError, match=r"inside the hole .*epsilon=0.06,"):
            nonlinear.far_field_scaling(states, [probe], center=CENTER, green=green)


def test_the_benchmark_sweep_probes_are_never_refused(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from qpbench import workloads

    lat = workloads.lattice()
    disk = geometry.discretize(geometry.make_curve("circle", radius=1.0),
                               workloads.SWEEP_N)
    for seed in range(8):
        probes = workloads.draw_sweep(seed)
        for eps in nonlinear.default_epsilon_grid(disk, workloads.CENTER, lat):
            phys = perturbation.physical_curve(disk, workloads.CENTER, eps, lat)
            assert not potentials.inside_hole(phys, lat, probes).any(), (seed, eps)


def test_boundary_condition_residual_takes_one_j0_profile(sweep_states, green, poly2,
                                                          j0_sizes):
    # the V and K* trace rows share one row set, so one J_0 profile on its
    # pairs where each kind took its own
    state = sweep_states[0]
    nonlinear.boundary_condition_residual(state, poly2, center=CENTER, green=green)
    N = state.theta.curve.N
    assert j0_sizes[len(solvers._midpoint_taus(N)) * N] == 1


def test_sweep_profile_calls_do_not_grow_with_the_grid(green, poly2, monkeypatch):
    # no per-epsilon profile pass: a sweep over 8 epsilons sums the entire
    # profiles exactly as often as one over 4 (the limit density's, once)
    disk = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    grid = nonlinear.default_epsilon_grid(disk, CENTER, green.lattice)
    assert len(grid) == 8
    calls = collections.Counter()

    class CountedPoints(specfun.ProfilePoints):
        def __init__(self, z):
            calls["ProfilePoints"] += 1
            super().__init__(z)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(specfun, "ProfilePoints", CountedPoints)
    for name in ("entire_bessel_J", "fs_coefficients", "fs_coefficients_dz_over_z"):
        monkeypatch.setattr(specfun, name, counted(name, getattr(specfun, name)))

    def count(epsilons):
        calls.clear()
        nonlinear.continuation_sweep(poly2, disk, CENTER, green=green, epsilons=epsilons)
        return dict(calls)

    count(grid[:1])  # the evaluator's first separable table fits its expansion
    four, eight = count(grid[:4]), count(grid)
    assert four and four == eight


@pytest.mark.parametrize("fit_max_epsilon, kept", [(1e-3, 0), (0.0075, 2)])
def test_far_field_fit_refuses_fewer_than_3_states(sweep_states, green,
                                                   fit_max_epsilon, kept):
    # the model has 3 coefficients; 2 states would fit them exactly
    probes = np.array([[1.65, 1.35]])
    with pytest.raises(ValueError, match=f"fit_max_epsilon={fit_max_epsilon} keeps {kept}"):
        nonlinear.far_field_scaling(sweep_states, probes, center=CENTER, green=green,
                                    fit_max_epsilon=fit_max_epsilon)


def test_zero_nonlinearity_gives_zero_branch(disk96, green):
    B = nonlinear.make_nonlinearity("constant", value=0.0)
    state = nonlinear.solve_theta(0.05, B, disk96, CENTER, green=green)
    assert np.max(np.abs(state.theta.values)) < 1e-13
    probe = np.array([[1.65, 1.35]])
    u = nonlinear.reconstruct_field(state, probe, center=CENTER,
                                    green=green).values
    assert np.max(np.abs(u)) < 1e-13


def test_epsilon_domain_is_enforced(disk96, green, poly2):
    with pytest.raises(ValueError):
        nonlinear.solve_theta(0.0, poly2, disk96, CENTER, green=green)
    with pytest.raises(ValueError):
        nonlinear.solve_theta(-0.05, poly2, disk96, CENTER, green=green)
    with pytest.raises(ValueError):
        # validated radius is half the containment bound (0.5 for this disk)
        nonlinear.solve_theta(0.3, poly2, disk96, CENTER, green=green)


def test_errors_derive_from_package_root():
    assert issubclass(nonlinear.NewtonDivergenceError, QphelmError)
    assert issubclass(nonlinear.IllConditionedError, QphelmError)
