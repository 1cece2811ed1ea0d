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
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jv, jvp, yv, yvp

from jump_oracle import one_sided_limits
from oracle_qpgreen import (
    assert_tables_agree,
    regular_part_by_ewald,
    sampled_coefficients,
    series_jet,
)
from qphelm import geometry, perturbation, potentials, qpgreen, solvers
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
    inside_hole,
    log_weight_matrix,
    log_weight_rows,
    nystrom_rows,
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


@pytest.mark.parametrize("N", [16, 32, 64, 128, 256])
def test_log_weight_rows_match_the_cosine_sum(N):
    # the rows as one product against the direct sum of cos(m (tau - t_j))
    n = N // 2
    taus = np.r_[0.0, np.random.default_rng(N).uniform(0.0, 2.0 * np.pi, 40)]
    delta = taus[:, None] - 2.0 * np.pi * np.arange(N)[None, :] / N
    ref = -(np.pi / n ** 2) * np.cos(n * delta)
    for m in range(1, n):
        ref -= (2.0 * np.pi / n) * np.cos(m * delta) / m
    assert np.max(np.abs(log_weight_rows(N, taus) - ref)) <= 1e-14


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
    rows = nystrom_rows(circle128, green, ["single_trace"])
    A = assemble("single_trace", circle128, green=green).matrix
    B = assemble("single_trace", circle128, green=green, rows=rows).matrix
    assert np.array_equal(A, B)


def test_shared_trace_tables_give_bit_identical_rows(circle128, green):
    taus = (2 * np.arange(0, 128, 9) + 1) * np.pi / 128
    kinds = ("single_trace", "double_boundary", "adjoint_double")
    rows = nystrom_rows(circle128, green, kinds, taus)
    for kind in kinds:
        alone = boundary_trace_rows(kind, circle128, taus, green=green)
        shared = boundary_trace_rows(kind, circle128, taus, green=green, rows=rows)
        assert np.array_equal(alone, shared)


def _pointwise_tables(green, d):
    """qpgreen.regular_part point by point on the flattened differences d."""
    v, g = qpgreen.regular_part(green, d.reshape(-1, 2))
    return v.reshape(d.shape[:-1]), g.reshape(d.shape)


def test_node_tables_match_pointwise_tables(circle128, green, monkeypatch):
    kite = geometry.discretize(
        geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5)), 128)
    for curve in (circle128, kite):
        p = curve.points
        pointwise = _pointwise_tables(green, p[:, None, :] - p[None, :, :])
        tables = regular_tables(curve, green)
        if qpgreen.separable_order(green, curve.curve.disk[1]) is not None:
            assert_tables_agree(tables, pointwise)
            continue
        # bvp's kite (r0 = 0.570) falls back: the bits of the pointwise path
        assert curve is kite
        assert all(np.array_equal(a, b) for a, b in zip(tables, pointwise))
        with monkeypatch.context() as m:
            m.setattr(potentials, "regular_tables", lambda *args: pointwise)
            rows = nystrom_rows(curve, green, potentials.OPERATOR_KINDS)
        for kind in potentials.OPERATOR_KINDS:
            A = assemble(kind, curve, green=green).matrix
            B = assemble(kind, curve, green=green, rows=rows).matrix
            assert np.array_equal(A, B), kind


def test_a_row_set_gives_the_same_bits_in_any_order_of_kinds(green):
    kite = geometry.discretize(
        geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5)), 64)
    taus = (2 * np.arange(0, 64, 5) + 1) * np.pi / 64
    kinds = ("single_trace", "double_boundary", "adjoint_double")
    alone = {kind: (assemble(kind, kite, green=green).matrix,
                    boundary_trace_rows(kind, kite, taus, green=green)) for kind in kinds}
    for order in (kinds, kinds[::-1], kinds[1:] + kinds[:1]):
        rows, trace = nystrom_rows(kite, green, kinds), nystrom_rows(kite, green, kinds, taus)
        for kind in order:
            assert np.array_equal(assemble(kind, kite, green=green, rows=rows).matrix,
                                  alone[kind][0]), (order, kind)
            assert np.array_equal(
                boundary_trace_rows(kind, kite, taus, green=green, rows=trace),
                alone[kind][1]), (order, kind)


def test_a_row_set_of_another_curve_or_other_taus_is_refused(circle128, green):
    other = geometry.discretize(circle128.curve, 128)
    taus = (2 * np.arange(0, 128, 9) + 1) * np.pi / 128
    kinds = ("single_trace", "adjoint_double")
    rows, trace = nystrom_rows(circle128, green, kinds), nystrom_rows(circle128, green, kinds, taus)
    for bad in (lambda: assemble("single_trace", other, green=green, rows=rows),
                lambda: assemble("single_trace", circle128, green=green, rows=trace),
                lambda: boundary_trace_rows("single_trace", circle128, taus,
                                            green=green, rows=rows),
                # as many taus as the row set's, but not the same ones
                lambda: boundary_trace_rows("adjoint_double", circle128, taus + 0.01,
                                            green=green, rows=trace),
                lambda: boundary_trace_rows("adjoint_double", other, taus,
                                            green=green, rows=trace)):
        with pytest.raises(ValueError, match="row set was built for another"):
            bad()
    # a kind the row set was not built for, or one it has already served
    for kind in ("double_boundary", "single_layer"):
        with pytest.raises(ValueError, match=f"'{kind}' is unknown or not left"):
            assemble(kind, circle128, green=green, rows=rows)
    assemble("adjoint_double", circle128, green=green, rows=rows)
    with pytest.raises(ValueError, match="'adjoint_double' is unknown or not left"):
        assemble("adjoint_double", circle128, green=green, rows=rows)


def test_a_row_set_drops_d_and_z_after_the_last_kind_that_needs_them(circle128, green):
    rows = nystrom_rows(circle128, green, ("double_boundary", "single_trace"))
    rows.matrix("double_boundary")
    assert rows.d is None and "_shared" in vars(rows)
    rows.matrix("single_trace")
    assert "_shared" not in vars(rows)


def test_one_j0_profile_per_row_set(lat, wave, green, j0_sizes):
    # an a_flag = 1 Dirichlet solve takes K and V on the node pairs, then on
    # the trace pairs: one J_0 profile on each row set, where each kind took
    # its own
    kite = geometry.discretize(
        geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5)), 128)
    n_trace = len(solvers._midpoint_taus(128))
    solvers.solve_dirichlet(kite, lat, wave, np.exp(np.cos(kite.t)) + 0j, 1,
                            green=green)
    assert (j0_sizes[128 * 128], j0_sizes[n_trace * 128]) == (1, 1)


@pytest.mark.parametrize("epsilon", [0.125, 1e-3, -0.125, 0.3])
def test_scaled_tables_match_pointwise_tables(disk96, kite96, green, epsilon):
    for curve in (disk96, kite96):
        d = curve.points[:, None, :] - curve.points[None, :, :]
        scaled = perturbation.scaled_regular_tables(curve, epsilon, green)
        y = epsilon * curve.points
        # the differences of the scaled nodes, which round otherwise than epsilon * d
        pointwise = _pointwise_tables(green, y[:, None, :] - y[None, :, :])
        radius = abs(epsilon) * curve.curve.disk[1]
        if qpgreen.separable_order(green, radius) is not None:
            off = np.any(d != 0.0, axis=-1) & (np.arange(96) % 5 == 0)
            ewald = regular_part_by_ewald(green, epsilon * d[off])
            if abs(epsilon) < 0.01:
                # Ewald's grad G - grad S_2 cancels ~1/(2 pi |x|) there and
                # keeps ~1e-11 of the table's maximum: its values, and the
                # fitted coefficients' Taylor jet for the gradients
                jet = series_jet(green, sampled_coefficients(green), epsilon * d[off])
                ewald = (ewald[0], jet[1])
            assert_tables_agree(scaled, pointwise, ewald, off)
            continue
        # the kite near its containment bound 1/3 falls back, bit for bit
        assert curve is kite96 and epsilon == 0.3
        assert all(np.array_equal(a, b) for a, b in zip(scaled, pointwise))


def test_trace_rows_match_pointwise_rows_whatever_the_other_taus(circle128, green):
    kite = geometry.discretize(
        geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5)), 64)
    taus = (2 * np.arange(0, 128, 6) + 1) * np.pi / 128
    rng = np.random.default_rng(3)
    subsets = [[4], [0, 1], [len(taus) - 1], rng.choice(len(taus), 7, replace=False),
               np.arange(2, 15)]
    for curve in (circle128, kite):
        targets = curve.curve.position(taus)
        whole = regular_tables(curve, green, targets)
        pointwise = _pointwise_tables(green, targets[:, None, :] - curve.points[None, :, :])
        if curve is kite:
            assert all(np.array_equal(a, b) for a, b in zip(whole, pointwise))
        else:
            assert_tables_agree(whole, pointwise)
        for idx in subsets:
            for part, ref in zip(regular_tables(curve, green, targets[idx]), whole):
                assert np.array_equal(part, ref[idx])


@pytest.mark.parametrize("k", [1.3, 6.0])
@pytest.mark.parametrize("N", [64, 128])
def test_node_matrices_and_off_node_rows_agree(lat, k, N):
    # The node matrix carries the diagonal limits the off-node rows never
    # use; on the circle, interpolating its action reproduces the rows.
    green = qpgreen.make_green_evaluator(lat, k)
    dc = geometry.discretize(
        geometry.make_curve("circle", radius=0.35, center=(0.5, 0.5)), N)
    mu = np.exp(np.cos(dc.t)) + 0.4j * np.sin(2 * dc.t)
    taus = dc.t + np.pi / N
    for kind in ("single_trace", "double_boundary", "adjoint_double"):
        rows = boundary_trace_rows(kind, dc, taus, green=green) @ mu
        nodes = geometry.trig_interpolate(assemble(kind, dc, green=green).matrix @ mu,
                                          taus)
        err = np.max(np.abs(rows - nodes)) / np.max(np.abs(nodes))
        assert err <= 1e-12, (kind, err)


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


def test_distance_guard_counts_points_near_any_image(green):
    # the guard's nearest-image distance against a brute-force 5 x 5 window
    # of the curve's images, on probes inside and around the cell
    from qphelm import potentials

    kite = geometry.discretize(geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5)), 64)
    lat = green.lattice
    pts = np.random.default_rng(5).uniform(-0.6, 1.6, size=(3000, 2)) * lat.q
    shifts = np.array([[i, j] for i in range(-2, 3) for j in range(-2, 3)]) * lat.q
    images = (kite.points[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    dist = np.min(np.linalg.norm(pts[:, None, :] - images[None, :, :], axis=2), axis=1)
    close = dist < float(np.max(kite.weights))
    assert 0 < np.sum(close) < len(pts)
    for sel in (np.ones(len(pts), dtype=bool), ~close):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            potentials._distance_guard(kite, lat,
                                       pts[sel][:, None, :] - kite.points[None, :, :])
        counts = [int(str(w.message).split()[0]) for w in caught]
        assert counts == ([int(np.sum(close))] if sel.all() else [])


def test_cell_flux_pairing_vanishes(circle128, green):
    # For real quasi-momentum the outward flux pairing of any quasi-periodic
    # layer field over the cell boundary cancels between opposite faces.
    mu = np.exp(np.cos(circle128.t)) + 0.4j * np.sin(2 * circle128.t)
    dens = Density(curve=circle128, values=mu)
    for kind in ("single", "double"):
        flux, norm2 = cell_flux_integral(kind, dens, green=green)
        assert abs(flux) < 1e-10 * max(1.0, norm2)


@pytest.mark.parametrize("q, k", [((1.0, 1.0), 1.3), ((1.0, 1.0), 6.0),
                                  ((1.0, 1.0), 2.0 + 0.5j), ((1.0, 1.7), 2.1)])
def test_double_layer_gradient_by_parts_matches_the_hessian_contraction(q, k):
    # grad D[mu] = k^2 S[nu mu] + rot S[mu'] against -sum_j H(x - y_j) nu_j
    # mu_j w_j from the Ewald oracle's Hessians, at probes 0.15 clear of the
    # circle and its images, where N = 128 resolves both sums
    lat = Lattice(q_diag=q, eta=(0.4, 0.7))
    ev = qpgreen.make_green_evaluator(lat, k)
    dc = geometry.discretize(geometry.make_curve("circle", radius=0.35, center=(0.5, 0.5)),
                             128)
    mu = np.exp(np.cos(dc.t)) + 0.4j * np.sin(2 * dc.t)
    cand = np.random.default_rng(5).uniform(0.0, 1.0, size=(400, 2)) * lat.q
    images = np.array([0.5, 0.5]) + np.array([[i, j] for i in (-1, 0, 1)
                                              for j in (-1, 0, 1)]) * lat.q
    far = np.min(np.hypot(*(cand[:, None, :] - images[None]).transpose(2, 0, 1)), axis=1)
    probes = cand[far >= 0.5][:24]
    assert len(probes) == 24
    got = field_eval("double", Density(dc, mu), probes, green=ev, want_gradients=True)
    _, _, H = qpgreen.ewald_oracle(ev, probes[:, None, :] - dc.points[None, :, :])
    ref = -np.einsum("pjil,jl,j->pi", H, dc.normals, mu * dc.weights)
    assert np.max(np.abs(got.gradients - ref)) <= 1e-13 * np.max(np.abs(ref))


# --------------------------------------------------------------------------- #
# the solution's domain: the side test of the node polygon


def _kite(N):
    return geometry.discretize(geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5)), N)


def test_inside_hole_finds_the_hole_and_its_images(lat, circle128):
    # points beyond one node spacing of the curve get the side of the curve
    # itself, in any cell: the circle against its disk, the kite against a
    # 4,096-node polygon of it
    pts = np.random.default_rng(3).uniform(-1.5, 2.5, size=(4000, 2))
    red = pts - np.round(pts - 0.5)
    r = np.hypot(red[:, 0] - 0.5, red[:, 1] - 0.5)
    far = np.abs(r - 0.35) > np.max(circle128.weights)
    assert np.array_equal(inside_hole(circle128, lat, pts)[far], (r < 0.35)[far])
    kite, fine = _kite(128), _kite(4096)
    d = red[:, None, :] - fine.points[None, :, :]
    far = np.min(np.sum(d * d, axis=2), axis=1) > np.max(kite.weights) ** 2
    side = inside_hole(kite, lat, pts)
    assert np.array_equal(side[far], inside_hole(fine, lat, pts)[far])
    assert 0 < np.sum(side) < len(pts)
    # the kite's notch, left of its centre, is outside, in every cell
    notch = np.array([[0.14, 0.5], [1.14, 0.5], [0.14, -1.5], [-2.86, 3.5]])
    assert not inside_hole(kite, lat, notch).any()
    assert inside_hole(kite, lat, notch + [0.3, 0.0]).all()


def test_the_benchmark_probes_lie_outside_the_hole(monkeypatch):
    # the bvp and field workloads' probes (both holes, several seeds) are
    # never refused by the side test
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from qpbench import workloads

    lat = workloads.lattice()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for shape in ("circle", "kite"):
            probes = workloads.draw_probes(rng, workloads.hole(shape), lat, 1000)
            for N in (128, 256):
                dc = geometry.discretize(workloads.hole(shape), N)
                assert not inside_hole(dc, lat, probes).any()
