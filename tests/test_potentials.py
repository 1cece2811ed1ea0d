"""Boundary-operator and layer-potential tests.

Oracles (all independent of the singular Nystrom quadrature under test):
  * log-quadrature weights against closed-form Fourier-mode integrals,
  * circle eigendensities against Bessel-function eigenvalues of the
    standing-wave kernel,
  * jump relations against off-boundary evaluation extrapolated to the
    curve from both sides (tests/jump_oracle.py),
  * convergence rates against heavily over-resolved self-references.
"""

import warnings

import numpy as np
import pytest
from scipy.special import jv, jvp, yv, yvp

from jump_oracle import one_sided_limits
from qphelm import geometry, qpgreen
from qphelm.errors import ResonanceError
from qphelm.lattice import Lattice, make_wave_context
from qphelm.potentials import (
    AccuracyGuardWarning,
    Density,
    assemble,
    assemble_free,
    boundary_trace_rows,
    cell_flux_integral,
    field_eval,
    log_weight_matrix,
    log_weight_rows,
    regular_tables,
)

EULER = 0.5772156649015329


# --------------------------------------------------------------------------- #
# log-singular quadrature weights
# --------------------------------------------------------------------------- #

def test_log_weights_exact_on_fourier_modes():
    # int_0^{2pi} log(4 sin^2((t-s)/2)) cos(m s) ds = -(2 pi / m) cos(m t),
    # and 0 for the constant mode; the rule is exact below the Nyquist degree.
    N = 32
    R = log_weight_matrix(N)
    t = 2.0 * np.pi * np.arange(N) / N
    assert np.max(np.abs(R @ np.ones(N))) < 1e-13
    for m in (1, 2, 3, 5, 9):
        for f, ref in ((np.cos, np.cos), (np.sin, np.sin)):
            got = R @ f(m * t)
            assert np.max(np.abs(got - (-2.0 * np.pi / m) * ref(m * t))) < 1e-12


def test_log_weight_rows_exact_off_node():
    N = 32
    taus = np.array([0.3, 2.77, 5.5])
    R = log_weight_rows(N, taus)
    t = 2.0 * np.pi * np.arange(N) / N
    assert np.max(np.abs(R @ np.ones(N))) < 1e-13
    for m in (1, 2, 4, 7):
        got = R @ np.cos(m * t)
        assert np.max(np.abs(got - (-2.0 * np.pi / m) * np.cos(m * taus))) < 1e-12
        got = R @ np.sin(m * t)
        assert np.max(np.abs(got - (-2.0 * np.pi / m) * np.sin(m * taus))) < 1e-12


def test_log_weights_require_even_node_count():
    with pytest.raises(ValueError):
        log_weight_matrix(17)
    with pytest.raises(ValueError):
        log_weight_rows(17, [0.3])


# --------------------------------------------------------------------------- #
# free-space circle identities
# --------------------------------------------------------------------------- #

def test_laplace_circle_identities():
    # Constants are eigendensities of the Laplace operators on a circle of
    # radius a: V[1] = a log a, K[1] = K*[1] = 1/2.
    a = 0.35
    dc = geometry.discretize(geometry.make_curve("circle", radius=a), 64)
    one = np.ones(64)
    V = assemble_free("single_trace", dc, 0.0).matrix
    K = assemble_free("double_boundary", dc, 0.0).matrix
    Ks = assemble_free("adjoint_double", dc, 0.0).matrix
    assert np.max(np.abs(V @ one - a * np.log(a))) < 1e-13
    assert np.max(np.abs(K @ one - 0.5)) < 1e-13
    assert np.max(np.abs(Ks @ one - 0.5)) < 1e-13


def _circle_eigenvalues(m, k, a):
    """Closed-form circle eigenvalues for the standing-wave kernel.

    The kernel is S(r) = (1/4) Y_0(k r) - (log(k/2) + gamma)/(2 pi) J_0(k r),
    whose circular-harmonic expansion has coefficients
    s_m = (1/4) J_m Y_m + c_k J_m^2 with c_k = -(log(k/2) + gamma)/(2 pi).
    """
    ck = -(np.log(k / 2.0) + EULER) / (2.0 * np.pi)
    J, Jp = jv(m, k * a), jvp(m, k * a)
    Y, Yp = yv(m, k * a), yvp(m, k * a)
    lam_v = (np.pi * a / 2) * J * Y + 2 * np.pi * a * ck * J * J
    lam_half_plus_kstar = (np.pi * k * a / 2) * J * Yp + 2 * np.pi * a * ck * k * J * Jp
    lam_kminus_half = (np.pi * k * a / 2) * Jp * Y + 2 * np.pi * a * ck * k * Jp * J
    return lam_v, lam_half_plus_kstar, lam_kminus_half


def test_helmholtz_circle_eigendensities():
    a, k, N = 0.35, 1.3, 96
    dc = geometry.discretize(geometry.make_curve("circle", radius=a), N)
    V = assemble_free("single_trace", dc, k).matrix
    K = assemble_free("double_boundary", dc, k).matrix
    Ks = assemble_free("adjoint_double", dc, k).matrix
    eye = np.eye(N)
    for m in (0, 3, 7):
        e = np.exp(1j * m * dc.t)
        lam_v, lam_n, lam_d = _circle_eigenvalues(m, k, a)
        assert np.max(np.abs(V @ e - lam_v * e)) < 1e-12
        assert np.max(np.abs((0.5 * eye + Ks) @ e - lam_n * e)) < 1e-12
        assert np.max(np.abs((-0.5 * eye + K) @ e - lam_d * e)) < 1e-12


def test_helmholtz_circle_eigendensity_complex_wavenumber():
    a, k, N = 0.35, 1.1 + 0.8j, 96
    dc = geometry.discretize(geometry.make_curve("circle", radius=a), N)
    V = assemble_free("single_trace", dc, k).matrix
    m = 2
    e = np.exp(1j * m * dc.t)
    lam_v, _, _ = _circle_eigenvalues(m, k, a)
    assert np.max(np.abs(V @ e - lam_v * e)) < 1e-12


# --------------------------------------------------------------------------- #
# assembled quasi-periodic operators
# --------------------------------------------------------------------------- #

def test_operator_action_is_linear(circle128, green, rng):
    op = assemble("single_trace", circle128, green=green)
    mu = rng.normal(size=128) + 1j * rng.normal(size=128)
    nu = rng.normal(size=128) + 1j * rng.normal(size=128)
    a, b = 1.7 - 0.4j, -0.6 + 2.2j
    lhs = op.apply(a * mu + b * nu)
    rhs = a * op.apply(mu) + b * op.apply(nu)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_assembly_is_deterministic(circle128, green):
    A = assemble("double_boundary", circle128, green=green).matrix
    B = assemble("double_boundary", circle128, green=green).matrix
    assert np.array_equal(A, B)


def test_shared_regular_tables_are_exactly_reused(circle128, green):
    tables = regular_tables(circle128, green)
    A = assemble("single_trace", circle128, green=green).matrix
    B = assemble("single_trace", circle128, green=green, tables=tables).matrix
    assert np.array_equal(A, B)


def test_shared_trace_tables_give_bit_identical_rows(circle128, green):
    taus = (2 * np.arange(0, 128, 9) + 1) * np.pi / 128
    tables = regular_tables(circle128, green, taus)
    for kind in ("single_trace", "double_boundary", "adjoint_double"):
        alone = boundary_trace_rows(kind, circle128, taus, green=green)
        shared = boundary_trace_rows(kind, circle128, taus, green=green, tables=tables)
        assert np.array_equal(alone, shared)


def test_assemble_rejects_resonant_wave(circle128, lat):
    k_res = float(np.hypot(*lat.eta))  # zero dual index is exactly resonant
    wave = make_wave_context(lat, k_res)
    assert wave.is_resonant
    with pytest.raises(ResonanceError):
        assemble("single_trace", circle128,
                 green=qpgreen.make_green_evaluator(lat, k_res))


def test_compact_operator_singular_values_decay():
    # The double-layer operator and its adjoint are compact; on a small circle
    # the assembled spectrum collapses fast: sigma_25 / sigma_1 <= 1e-6.
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    k = 0.9
    wave = make_wave_context(lat, k)
    green = qpgreen.make_green_evaluator(lat, k)
    dc = geometry.discretize(
        geometry.make_curve("circle", radius=0.08, center=(0.5, 0.5)), 128)
    for kind in ("double_boundary", "adjoint_double"):
        M = assemble(kind, dc, green=green).matrix
        s = np.linalg.svd(M, compute_uv=False)
        assert s[24] / s[0] < 1e-6


# --------------------------------------------------------------------------- #
# jump relations
# --------------------------------------------------------------------------- #

def test_jump_relations_against_offboundary_oracle(circle128, green):
    curve = circle128.curve
    mu = np.exp(1j * circle128.t) + 0.3 * np.cos(3 * circle128.t)
    taus = np.array([0.41, 2.13])
    mu_tau = geometry.trig_interpolate(mu, taus)

    v_rows = boundary_trace_rows("single_trace", circle128, taus, green=green)
    k_rows = boundary_trace_rows("double_boundary", circle128, taus, green=green)
    ks_rows = boundary_trace_rows("adjoint_double", circle128, taus, green=green)

    sv_out, sd_out = one_sided_limits("single", curve, mu, green, taus, +1.0)
    sv_in, sd_in = one_sided_limits("single", curve, mu, green, taus, -1.0)
    dv_out, dd_out = one_sided_limits("double", curve, mu, green, taus, +1.0)
    dv_in, dd_in = one_sided_limits("double", curve, mu, green, taus, -1.0)

    # single layer: value continuous, normal derivative jumps by the density
    assert np.max(np.abs(sv_out - v_rows @ mu)) < 1e-10
    assert np.max(np.abs(sv_in - v_rows @ mu)) < 1e-10
    assert np.max(np.abs(sd_out - (0.5 * mu_tau + ks_rows @ mu))) < 1e-9
    assert np.max(np.abs(sd_in - (-0.5 * mu_tau + ks_rows @ mu))) < 1e-9
    # double layer: value jumps by the density, normal derivative continuous
    assert np.max(np.abs(dv_out - (-0.5 * mu_tau + k_rows @ mu))) < 1e-9
    assert np.max(np.abs(dv_in - (0.5 * mu_tau + k_rows @ mu))) < 1e-9
    assert np.max(np.abs(dd_out - dd_in)) < 1e-6


def test_boundary_traces_converge_spectrally():
    # Doubling the node count must cut the trace error by at least 1e3 on an
    # analytic curve/density (spectral, not algebraic, convergence).  The
    # reference is the same trace at 8x resolution, where the error is
    # negligible against the N=64 and N=128 levels.
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    green = qpgreen.make_green_evaluator(lat, 6.0)
    kite = geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5))
    taus = np.array([0.9, 3.7])

    def mu_fn(t):
        return np.exp(np.cos(t)) + 0.4j * np.sin(2 * t)

    for kind in ("single_trace", "double_boundary", "adjoint_double"):
        trace = {}
        for N in (64, 128, 512):
            dc = geometry.discretize(kite, N)
            trace[N] = boundary_trace_rows(kind, dc, taus, green=green) @ mu_fn(dc.t)
        err64 = np.max(np.abs(trace[64] - trace[512]))
        err128 = np.max(np.abs(trace[128] - trace[512]))
        assert err64 > 1e-12  # coarse level genuinely unresolved
        assert err128 <= 1e-3 * err64


def test_trace_rows_reject_node_collision(circle128, green):
    with pytest.raises(ValueError):
        boundary_trace_rows("single_trace", circle128, [circle128.t[3]],
                            green=green)


# --------------------------------------------------------------------------- #
# off-curve fields
# --------------------------------------------------------------------------- #

def test_field_distance_guard(circle128, green):
    mu = np.cos(circle128.t)
    dens = Density(curve=circle128, values=mu)
    near = np.array([[0.5, 0.5 + 0.35 + 0.005]])
    with pytest.warns(AccuracyGuardWarning):
        field_eval("single", dens, near, green=green)
    far = np.array([[0.5, 0.97]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field_eval("single", dens, far, green=green)
    # the guard is advisory and can be switched off
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field_eval("single", dens, near, green=green, check_distance=False)


def test_cell_flux_pairing_vanishes(circle128, green):
    # For real quasi-momentum the outward flux pairing of any quasi-periodic
    # layer field over the cell boundary cancels between opposite faces.
    mu = np.exp(np.cos(circle128.t)) + 0.4j * np.sin(2 * circle128.t)
    dens = Density(curve=circle128, values=mu)
    for kind in ("single", "double"):
        flux, norm2 = cell_flux_integral(kind, dens, green=green)
        assert abs(flux) < 1e-10 * max(1.0, norm2)
