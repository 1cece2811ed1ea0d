"""Nonlinear Robin continuation tests.

Oracles: the Laplace limit equation on a disk has the constant solution
G(0); the residual map is affine for affine nonlinearities; the Jacobian is
checked against directional finite differences of the residual; Newton step
norms must contract quadratically; and the reconstructed far field must
follow the leading epsilon-scaling law with the limit-density charge.
"""

import numpy as np
import pytest

from qphelm import geometry, nonlinear, potentials, qpgreen
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
    theta = nonlinear.limit_density(disk96, poly2)
    state = nonlinear.ContinuationState(epsilon=0.0, r=0.0, theta=theta,
                                        newton_iterations=0, residual_norm=0.0,
                                        step_norms=())
    pack = nonlinear.build_pack(0.0, disk96, CENTER, green=green)
    res = nonlinear.lambda_residual(state, poly2, pack)
    assert np.max(np.abs(res.values)) < 1e-12
    # at epsilon = r = 0 the Jacobian degenerates to the limit operator
    J = nonlinear.lambda_jacobian(state, poly2, pack)
    ref = 0.5 * np.eye(disk96.N) + potentials.assemble_free(
        "adjoint_double", disk96, 0.0).matrix
    assert np.max(np.abs(J - ref)) < 1e-14


def test_jacobian_matches_directional_finite_difference(disk96, green, poly2,
                                                        rng):
    eps = 0.05
    tv = 1.0 + 0.2 * np.cos(disk96.t) + 0.1j * np.sin(2 * disk96.t)
    state = nonlinear.ContinuationState(
        epsilon=eps, r=eps * np.log(eps),
        theta=potentials.Density(curve=disk96, values=tv),
        newton_iterations=0, residual_norm=0.0, step_norms=())
    pack = nonlinear.build_pack(eps, disk96, CENTER, green=green)
    J = nonlinear.lambda_jacobian(state, poly2, pack)
    v = rng.normal(size=disk96.N) + 1j * rng.normal(size=disk96.N)
    h = 1e-6

    def residual_at(values):
        s = nonlinear.ContinuationState(
            epsilon=eps, r=state.r,
            theta=potentials.Density(curve=disk96, values=values),
            newton_iterations=0, residual_norm=0.0, step_norms=())
        return np.asarray(nonlinear.lambda_residual(s, poly2, pack).values)

    fd = (residual_at(tv + h * v) - residual_at(tv - h * v)) / (2 * h)
    assert np.max(np.abs(J @ v - fd)) < 1e-6 * max(1.0, np.max(np.abs(J @ v)))


def test_pack_at_another_epsilon_is_refused(disk96, green, poly2):
    pack = nonlinear.build_pack(0.08, disk96, CENTER, green=green)
    state = nonlinear.ContinuationState(
        epsilon=0.05, r=0.05 * np.log(0.05),
        theta=nonlinear.limit_density(disk96, poly2),
        newton_iterations=0, residual_norm=0.0, step_norms=())
    with pytest.raises(ValueError, match="epsilon"):
        nonlinear.lambda_residual(state, poly2, pack)
    with pytest.raises(ValueError, match="epsilon"):
        nonlinear.lambda_jacobian(state, poly2, pack)


def test_residual_is_affine_for_affine_nonlinearity(disk96, green, rng):
    B = nonlinear.make_nonlinearity("affine", offset=0.3, slope=1.2)
    pack = nonlinear.build_pack(0.08, disk96, CENTER, green=green)

    def res(values):
        s = nonlinear.ContinuationState(
            epsilon=0.08, r=0.08 * np.log(0.08),
            theta=potentials.Density(curve=disk96, values=values),
            newton_iterations=0, residual_norm=0.0, step_norms=())
        return np.asarray(nonlinear.lambda_residual(s, B, pack).values)

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
