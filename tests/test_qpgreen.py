"""Quasi-periodic Green function: periodicity, PDE, split invariance, regular part.

Frozen reference values were produced by tests/oracle_qpgreen.py (Richardson
limit of G - S for the regular part; absolutely convergent image sum at
absorbing wavenumber for the spot value); the separable tables are checked
against its Ewald G - S_2.
"""

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_qpgreen import (
    InsufficientDecayError,
    assert_tables_agree,
    image_sum_oracle,
    regular_part_by_ewald,
)
from qphelm import geometry, qpgreen, specfun
from qphelm.errors import (
    NearLatticePointError,
    ResonanceError,
    SeriesTruncationError,
)
from qphelm.lattice import Lattice, make_wave_context

# from tests/oracle_qpgreen.py
R_AT_ZERO = 1.160462070733026
IMAGE_SUM_SPOT = 0.18125238189318368 - 0.096039798974044424j


def test_quasi_periodicity_both_directions(lat, green, rng):
    pts = rng.uniform(0.1, 0.9, size=(10, 2))
    v0, g0 = qpgreen.green_eval(green, pts)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = lat.q_diag[axis]
        phase = np.exp(1j * lat.eta_vec[axis] * lat.q_diag[axis])
        v1, g1 = qpgreen.green_eval(green, pts + shift)
        assert np.max(np.abs(v1 - phase * v0) / np.abs(v0)) < 1e-11
        assert np.max(np.abs(g1 - phase * g0)) < 1e-10 * np.max(np.abs(g0))


def test_ewald_split_invariance(lat, wave, green):
    pts = np.array([[0.3, 0.2], [0.71, 0.55], [0.1, 0.9]])
    v0, _, _ = qpgreen.ewald_oracle(green, pts)
    base = green.ewald_split
    for factor in (0.8, 1.25):
        ev = qpgreen.make_green_evaluator(lat, wave.k, ewald_split=base * factor)
        v1, _, _ = qpgreen.ewald_oracle(ev, pts)
        assert np.max(np.abs(v1 - v0) / np.abs(v0)) < 1e-10


def test_helmholtz_residual_fd_order(lat, wave, green):
    # fourth-order nine-point Laplacian: residual should shrink like h**4
    x0 = np.array([0.43, 0.61])
    k = wave.k
    res = []
    for h in (1e-2, 5e-3):
        offs = [np.zeros(2)]
        for axis in range(2):
            for step in (-2, -1, 1, 2):
                e = np.zeros(2)
                e[axis] = step * h
                offs.append(e)
        v, _ = qpgreen.green_eval(green, x0[None, :] + np.array(offs))
        lap = 0.0
        for axis in range(2):
            m2, m1, p1, p2 = v[1 + 4 * axis:5 + 4 * axis]
            lap += (-p2 + 16 * p1 - 30 * v[0] + 16 * m1 - m2) / (12 * h ** 2)
        res.append(abs(lap + k ** 2 * v[0]))
    order = np.log2(res[0] / res[1])
    assert order >= 3.5


def test_image_sum_agreement_complex_k(lat):
    k = 2.0 + 1.2j
    ev = qpgreen.make_green_evaluator(lat, k)
    pts = np.array([[0.31, 0.47], [-0.22, 0.18], [0.05, -0.41]])
    ref, tail = image_sum_oracle(lat, k, pts, truncation=40)
    got, _ = qpgreen.green_eval(ev, pts)
    assert np.max(tail) < 1e-12
    assert np.max(np.abs(got - ref)) < 1e-9
    assert abs(ref[0] - IMAGE_SUM_SPOT) < 1e-13


def test_image_sum_requires_absorption(lat):
    with pytest.raises(InsufficientDecayError):
        image_sum_oracle(lat, 1.3 + 0.01j, np.array([[0.3, 0.4]]))


def test_gradient_consistency_fd(green, rng):
    pts = rng.uniform(0.2, 0.8, size=(5, 2))
    _, grads = qpgreen.green_eval(green, pts)
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        vp, _ = qpgreen.green_eval(green, pts + e)
        vm, _ = qpgreen.green_eval(green, pts - e)
        fd = (vp - vm) / (2 * h)
        assert np.max(np.abs(fd - grads[:, axis])) < 1e-7


def test_hessian_consistency_fd(green):
    pts = np.array([[0.37, 0.52], [0.7, 0.33]])
    _, _, H = qpgreen.green_hessian(green, pts)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        _, gp = qpgreen.green_eval(green, pts + e)
        _, gm = qpgreen.green_eval(green, pts - e)
        fd = (gp - gm) / (2 * h)
        assert np.max(np.abs(fd - H[:, i, :])) < 1e-5


def test_regular_part_value_and_smoothness(lat, wave, green):
    # frozen Richardson limit from the oracle script
    RV, RG = qpgreen.regular_part(green, np.zeros((1, 2)))
    assert abs(RV[0] - R_AT_ZERO) < 1e-12
    # R is smooth: quadratic interpolation through nearby values matches
    d = np.array([0.6, 0.8]) / 1.0
    hs = np.array([0.02, 0.01, 0.005])
    vals = [qpgreen.regular_part(green, (h * d)[None, :])[0][0] for h in hs]
    extrap = vals[2] + (vals[2] - vals[1]) / 1.0  # crude linear guess
    assert abs(vals[0] - vals[1]) < 0.1 * abs(RV[0])
    assert np.isfinite(extrap)


def test_green_log_divergence_matches_kernel(lat, wave, green):
    # G(t e1) - (1/2pi) log t stays bounded as t -> 0 (log split is correct)
    ts = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    pts = np.stack([ts, np.zeros_like(ts)], axis=1)
    vals, _ = qpgreen.green_eval(green, pts)
    reg = vals - np.log(ts) / (2 * np.pi)
    assert np.max(np.abs(np.diff(reg))) < 1e-2
    assert np.max(np.abs(reg)) < 10.0


def test_regular_part_seam_consistency(green, rng):
    # R = G - S holds where both sides are directly computable
    pts = rng.uniform(0.05, 0.25, size=(8, 2))
    RV, RG = qpgreen.regular_part(green, pts)
    g, ggrad, _ = qpgreen.ewald_oracle(green, pts)
    s = specfun.fundamental_solution(2, pts, green.k)
    assert np.max(np.abs(RV - (g - s.value))) < 1e-11
    assert np.max(np.abs(RG - (ggrad - s.gradient))) < 1e-9


def test_resonant_wavenumber_refused(lat):
    k = float(np.hypot(0.4, 0.7))
    with pytest.raises(ResonanceError):
        qpgreen.make_green_evaluator(lat, k)


def test_evaluator_refuses_a_resonant_wave_context(lat):
    # built directly, bypassing make_green_evaluator's own check
    wave = make_wave_context(lat, float(np.hypot(0.4, 0.7)))
    assert wave.is_resonant
    with pytest.raises(ResonanceError):
        qpgreen.GreenEvaluator(lat, wave, ewald_split=2.0)


def test_near_lattice_point_rejected(green):
    with pytest.raises(NearLatticePointError):
        qpgreen.green_eval(green, np.array([[1e-14, 0.0]]))


def test_regular_part_ball_enforcement(lat, green):
    big = np.array([[0.55, 0.0]])  # outside the half-cell ball |x| < min(q)/2
    RV, _ = qpgreen.regular_part(green, big)
    assert np.isfinite(RV).all()


# --------------------------------------------------------------------------- #
# Fourier-Bessel expansion of the regular part


def _seam(ev, pts):
    """G - S_2 and its gradient straight from the Ewald sum (points away from 0)."""
    g, gg, _ = qpgreen.ewald_oracle(ev, pts)
    s = specfun.fundamental_solution(2, pts, ev.k)
    return g - s.value, gg - s.gradient


@pytest.mark.parametrize("k", [1.3, 6.0, 2.0 + 0.5j, 1.0 + 5.0j])
def test_expansion_matches_ewald_seam(lat, k):
    ev = qpgreen.make_green_evaluator(lat, k)
    rng = np.random.default_rng(7)
    cell = rng.uniform(-0.5, 0.5, size=(300, 2))
    cell = cell[np.hypot(cell[:, 0], cell[:, 1]) > 1e-3]
    corner = np.array([[0.5, 0.5], [-0.5, 0.5]])
    moved = np.array([[0.8, 0.3], [-0.7, -0.9], [1.0 + 1e-3, 0.0], [0.2, 0.97]])
    pts = np.concatenate([cell, corner, moved])
    RV, RG = qpgreen.regular_part(ev, pts)
    ref_v, ref_g = _seam(ev, pts)
    assert np.max(np.abs(RV - ref_v)) < 1e-13
    assert np.max(np.abs(RG - ref_g)) < 1e-12 * max(1.0, np.max(np.abs(ref_g)))


def test_expansion_against_image_sum_complex_k(lat):
    k = 2.0 + 1.2j
    ev = qpgreen.make_green_evaluator(lat, k)
    pts = np.array([[0.31, 0.47], [-0.22, 0.18], [0.05, -0.41], [0.5, -0.5], [0.01, 0.0]])
    ref, tail = image_sum_oracle(lat, k, pts, truncation=40)
    RV, _ = qpgreen.regular_part(ev, pts)
    s = specfun.fundamental_solution(2, pts, k).value
    assert tail < 1e-12
    assert np.max(np.abs(RV - (ref - s))) < 1e-11


def test_expansion_fit_is_lazy_and_recorded(lat, wave):
    ev = qpgreen.make_green_evaluator(lat, wave.k)
    pts = np.array([[0.1, 0.2], [0.7, -0.3]])
    # Green calls sum Ewald until a regular_part call fits the expansion
    v, g, H = qpgreen.green_hessian(ev, pts)
    assert all(np.array_equal(a, b) for a, b in zip((v, g, H), qpgreen.ewald_oracle(ev, pts)))
    params = ev.parameters()
    assert params["expansion_terms"] is None and params["expansion_radius"] is None
    qpgreen.regular_part(ev, np.array([[0.1, 0.2]]))
    params = ev.parameters()
    assert 0 < params["expansion_terms"] < qpgreen._EXPANSION_CAP
    assert params["expansion_terms"] == ev.expansion.terms(ev.expansion.radius)
    v1, _ = qpgreen.green_eval(ev, pts)
    assert not np.array_equal(v1, v) and np.max(np.abs(v1 - v) / np.abs(v)) <= 1e-12
    assert params["expansion_radius"] == pytest.approx(qpgreen._EXPANSION_RADIUS)
    assert params["jmax"] == ev.jmax and params["ewald_split"] == ev.ewald_split


def test_anisotropic_cell_reaches_beyond_the_expansion_radius():
    lat = Lattice(q_diag=(1.0, 2.5), eta=(0.4, 0.7))
    ev = qpgreen.make_green_evaluator(lat, 1.3)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(400, 2)) * lat.q
    reduced = pts - np.round(pts / lat.q) * lat.q
    rr = np.hypot(reduced[:, 0], reduced[:, 1])
    pts = pts[rr > 0.05]
    rr = rr[rr > 0.05]
    RV, RG = qpgreen.regular_part(ev, pts)
    assert np.any(rr > ev.expansion.radius) and np.any(rr < ev.expansion.radius)
    ref_v, ref_g = _seam(ev, pts)
    assert np.max(np.abs(RV - ref_v)) < 1e-13
    assert np.max(np.abs(RG - ref_g)) < 1e-12 * max(1.0, np.max(np.abs(ref_g)))


def test_regular_part_refuses_points_on_a_shifted_source(green):
    with pytest.raises(NearLatticePointError):
        qpgreen.regular_part(green, np.array([[1.0 + 1e-12, 0.0]]))
    # the origin itself is a regular point of R
    RV, _ = qpgreen.regular_part(green, np.array([[1e-12, 0.0]]))
    assert abs(RV[0] - R_AT_ZERO) < 1e-12


def test_expansion_cap_too_small_raises(lat, wave, monkeypatch):
    monkeypatch.setattr(qpgreen, "_EXPANSION_CAP", 20)
    ev = qpgreen.make_green_evaluator(lat, wave.k)
    with pytest.raises(SeriesTruncationError):
        qpgreen.regular_part(ev, np.array([[0.1, 0.2]]))


# --------------------------------------------------------------------------- #
# properties off the square cell: the fit radius, the exclusion radius, the
# cell reduction and the default Ewald split all depend on the cell and on k

_CELLS = st.tuples(
    st.floats(0.7, 1.4),                      # shorter period
    st.floats(1.0, 2.5),                      # aspect ratio
    st.booleans(),                            # long axis is x_1
    st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),  # eta's distance
    st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0))),  # from the zone edge
)


def _evaluator(cell, k):
    short, aspect, long_x1, gap, sign = cell
    q = (short * aspect, short) if long_x1 else (short, short * aspect)
    eta = tuple(s * (np.pi / qj) * (1.0 - g) for s, qj, g in zip(sign, q, gap))
    lat = Lattice(q_diag=q, eta=eta)
    try:
        return lat, qpgreen.make_green_evaluator(lat, k)
    except ResonanceError:
        assume(False)


def _points(lat, seed, n, span):
    """Points in [-span q, span q] kept 0.05 min(q) from every lattice point."""
    pts = np.random.default_rng(seed).uniform(-span, span, size=(n, 2)) * lat.q
    reduced = pts - np.round(pts / lat.q) * lat.q
    return pts[np.hypot(reduced[:, 0], reduced[:, 1]) > 0.05 * float(np.min(lat.q))]


@settings(deadline=None, max_examples=20)
@given(cell=_CELLS, k=st.floats(0.5, 8.0), seed=st.integers(0, 2**16))
def test_green_quasi_periodic_off_the_square_cell(cell, k, seed):
    lat, ev = _evaluator(cell, k)
    pts = _points(lat, seed, 20, 0.5)
    v0, g0 = qpgreen.green_eval(ev, pts)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = lat.q_diag[axis]
        phase = np.exp(1j * lat.eta_vec[axis] * lat.q_diag[axis])
        v1, g1 = qpgreen.green_eval(ev, pts + shift)
        assert np.max(np.abs(v1 - phase * v0)) < 1e-11 * max(1.0, np.max(np.abs(v0)))
        assert np.max(np.abs(g1 - phase * g0)) < 1e-11 * max(1.0, np.max(np.abs(g0)))


@settings(deadline=None, max_examples=25)
@given(cell=_CELLS, k=st.floats(0.5, 8.0), seed=st.integers(0, 2**16))
def test_split_invariance_and_seam_off_the_square_cell(cell, k, seed):
    lat, ev = _evaluator(cell, k)
    pts = _points(lat, seed, 100, 1.0)
    g, gg, _ = qpgreen.ewald_oracle(ev, pts)
    scale = max(1.0, float(np.max(np.abs(g))))
    other = qpgreen.make_green_evaluator(lat, k, ewald_split=1.25 * ev.ewald_split)
    assert np.max(np.abs(qpgreen.ewald_oracle(other, pts)[0] - g)) < 1e-12 * scale
    RV, RG = qpgreen.regular_part(ev, pts)
    s = specfun.fundamental_solution(2, pts, k)
    assert np.max(np.abs(RV - (g - s.value))) < 1e-12 * scale
    gscale = max(1.0, float(np.max(np.abs(gg))))
    assert np.max(np.abs(RG - (gg - s.gradient))) < 1e-11 * gscale


# --------------------------------------------------------------------------- #
# The Ewald sum's spatial shells and the fit's samples

_SHELL_CELLS = [(1.0, 1.0), (1.0, 1.7), (1.0, 2.5)]
_SHELL_KS = [1.3, 6.0, 6.0 + 0.5j, 20.0]


@pytest.fixture(scope="module")
def shell_evaluators():
    return {(q, k): qpgreen.make_green_evaluator(Lattice(q_diag=q, eta=(0.4, 0.7)), k)
            for q in _SHELL_CELLS for k in _SHELL_KS}


def _with_more_shells(ev, extra):
    """A copy of ev whose spatial sum runs ``extra`` shells further."""
    wide = copy.copy(ev)
    ms = np.concatenate([qpgreen._shell_indices(s)
                         for s in range(ev.spatial_truncation + extra + 1)])
    wide.shifts = ms * ev.lattice.q
    wide.shift_phases = np.exp(1j * wide.shifts @ ev.lattice.eta_vec)
    return wide


_CORNERS = np.array([[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]])


@settings(deadline=None, max_examples=30)
@given(q=st.sampled_from(_SHELL_CELLS), k=st.sampled_from(_SHELL_KS),
       fractions=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                          min_size=1, max_size=6))
def test_the_shell_bound_drops_no_shell_that_matters(shell_evaluators, q, k, fractions):
    # the spatial sum stops where a reduced point is (s - 1/2) min(q) from
    # shell s; two shells more must not move values, gradients or Hessians
    ev = shell_evaluators[q, k]
    pts = np.concatenate([_CORNERS, np.array(fractions)]) * ev.lattice.q
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-3]
    wide = _with_more_shells(ev, 2)
    for got, ref in zip(qpgreen.ewald_oracle(ev, pts), qpgreen.ewald_oracle(wide, pts)):
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@settings(deadline=None, max_examples=40)
@given(q=st.sampled_from(_SHELL_CELLS), s=st.integers(1, 8),
       x=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
def test_shell_s_lies_at_least_s_minus_a_half_cells_from_a_reduced_point(
        shell_evaluators, q, s, x):
    ev = shell_evaluators[q, 1.3]
    xr = ev._reduce(np.array([x]))[0]
    d = xr - qpgreen._shell_indices(s) * ev.lattice.q
    assert np.min(np.hypot(d[:, 0], d[:, 1])) >= (s - 0.5) * float(np.min(ev.lattice.q))


@pytest.mark.parametrize("q, k", [((1.0, 1.0), 1.3), ((1.0, 1.0), 6.0 + 0.5j),
                                  ((1.0, 1.7), 1.3)])
def test_the_fit_reads_exactly_the_oracle_values(q, k, monkeypatch):
    ev = qpgreen.make_green_evaluator(Lattice(q_diag=q, eta=(0.4, 0.7)), k)
    kernel = qpgreen._ewald_kernel
    calls = []

    def recorded(ev, derivatives):
        inner = kernel(ev, derivatives)

        def run(chunk):
            out = inner(chunk)
            calls.append((derivatives, chunk, out))
            return out
        return run

    monkeypatch.setattr(qpgreen, "_ewald_kernel", recorded)
    qpgreen.FourierBesselExpansion(ev)
    monkeypatch.undo()
    radii = float(np.min(ev.lattice.q)) * np.asarray(qpgreen._FIT_RADII)
    assert len(calls) == len(radii)
    for (derivatives, pts, out), rho in zip(calls, radii):
        # values only, on one whole fit circle
        assert derivatives == 0 and len(out) == 1
        assert len(pts) == qpgreen._FIT_SAMPLES
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), rho, rtol=1e-15)
        assert np.array_equal(out[0], qpgreen.ewald_oracle(ev, pts)[0])


# --------------------------------------------------------------------------- #
# G from S_2 + the fitted expansion, checked against the Ewald oracle


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@settings(deadline=None, max_examples=20)
@given(cell=_CELLS, k=st.floats(0.5, 8.0), seed=st.integers(0, 2**16))
def test_green_jet_matches_the_ewald_oracle_off_the_square_cell(cell, k, seed):
    lat, ev = _evaluator(cell, k)
    pts = _points(lat, seed, 100, 1.0)
    ev.expansion  # fitted: reduced points within its radius take S_2 + R
    v, g, _ = qpgreen.green_hessian(ev, pts)
    ref_v, ref_g, _ = qpgreen.ewald_oracle(ev, pts)
    assert _rel(v, ref_v) <= 1e-12
    assert _rel(g, ref_g) <= 1e-12
    v1, g1 = qpgreen.green_eval(ev, pts)
    assert _rel(v1, ref_v) <= 1e-12 and _rel(g1, ref_g) <= 1e-12


@pytest.mark.parametrize("q, k", [((1.0, 1.0), 1.3), ((1.0, 2.5), 6.0)])
def test_hessian_matches_differences_of_the_oracle_gradients(q, k):
    ev = qpgreen.make_green_evaluator(Lattice(q_diag=q, eta=(0.4, 0.7)), k)
    ev.expansion
    # unmoved and moved points, one beyond the expansion radius when q2 = 2.5
    pts = np.array([[0.37, 0.52], [0.7, 0.33], [-0.45, 0.1], [1.2, -0.6], [0.1, 1.0]])
    _, _, H = qpgreen.green_hessian(ev, pts)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        _, gp, _ = qpgreen.ewald_oracle(ev, pts + e)
        _, gm, _ = qpgreen.ewald_oracle(ev, pts - e)
        fd = (gp - gm) / (2 * h)
        assert np.max(np.abs(fd - H[:, i, :])) < 1e-7 * np.max(np.abs(H))


@pytest.mark.parametrize("fitted", [False, True])
def test_green_refuses_points_on_a_lattice_point(lat, fitted):
    ev = qpgreen.make_green_evaluator(lat, 1.3)
    if fitted:
        ev.expansion
    for x in ([0.0, 0.0], [1.0 + 1e-12, 0.0], [1.0, -1e-12]):
        with pytest.raises(NearLatticePointError):
            qpgreen.green_eval(ev, np.array([x]))
        with pytest.raises(NearLatticePointError):
            qpgreen.green_hessian(ev, np.array([x]))


def test_helmholtz_residual_across_the_expansion_seam():
    # q2 = 2.5 reduces points up to 1.25 min(q) from the origin; the fourth-order
    # Laplacian must see one smooth solution inside, on and beyond the seam at
    # 0.72 min(q), where the evaluation switches from S_2 + R to Ewald
    lat = Lattice(q_diag=(1.0, 2.5), eta=(0.4, 0.7))
    k = 4.0
    ev = qpgreen.make_green_evaluator(lat, k)
    seam = ev.expansion.radius
    direction = np.array([0.28, 0.96])
    for radius, shift in ((0.55, 0.0), (seam, 0.0), (seam, 1.0), (0.9, 0.0), (1.1, -1.0)):
        x0 = radius * direction + shift * lat.q
        res = []
        for h in (2e-2, 1e-2):
            offs = [np.zeros(2)]
            for axis in range(2):
                for step in (-2, -1, 1, 2):
                    e = np.zeros(2)
                    e[axis] = step * h
                    offs.append(e)
            v, _ = qpgreen.green_eval(ev, x0[None, :] + np.array(offs))
            lap = 0.0
            for axis in range(2):
                m2, m1, p1, p2 = v[1 + 4 * axis:5 + 4 * axis]
                lap += (-p2 + 16 * p1 - 30 * v[0] + 16 * m1 - m2) / (12 * h ** 2)
            res.append(abs(lap + k ** 2 * v[0]))
        assert np.log2(res[0] / res[1]) >= 3.5, (radius, shift, res)


def _rung_points(ev, n, seed):
    """n points whose reduced |x'| covers every ladder rung and the rest of the
    cell, moved by up to two cells, with x = 0 and points on the axes."""
    fb = ev.expansion
    rng = np.random.default_rng(seed)
    m = n // 2
    r = fb.radius * qpgreen._LADDER_RATIO ** rng.uniform(0.0, qpgreen._LADDER_STEPS + 2, m)
    a = rng.uniform(0.0, 2.0 * np.pi, m)
    inner = np.stack([r * np.cos(a), r * np.sin(a)], axis=1)
    cell = rng.uniform(-0.5, 0.5, size=(n - m - 3, 2)) * ev.lattice.q
    pts = np.concatenate([[[0.0, 0.0], [0.0, 0.3], [-0.2, 0.0]], inner, cell])
    shifts = rng.integers(-2, 3, size=pts.shape)
    shifts[0] = 0  # R is singular at the other lattice points
    return pts + shifts * ev.lattice.q


def _rung_counts(ev, pts):
    """The number of points within the expansion's radius at each order count."""
    fb = ev.expansion
    xr = pts - np.round(pts / ev.lattice.q) * ev.lattice.q
    r = np.hypot(xr[:, 0], xr[:, 1])
    level = np.searchsorted(fb._ladder, r[r <= fb.radius])
    tops = fb._tops[np.minimum(level, qpgreen._LADDER_STEPS - 1)]
    return {int(t): int(np.sum(tops == t)) for t in np.unique(tops)}


def _alike(call, pts, seed):
    """call on random sub-batches (one-point ones among them) and on single
    points gives the bits of the whole call."""
    whole = call(pts)
    rng = np.random.default_rng(seed)
    cuts = np.unique(rng.choice(len(pts), size=60))
    cuts = np.unique(np.r_[cuts, cuts + 1])
    for idx in np.split(np.arange(len(pts)), cuts):
        for part, ref in zip(call(pts[idx]), whole):
            assert np.array_equal(part, ref[idx])
    for i in rng.choice(len(pts), size=40, replace=False):
        for part, ref in zip(call(pts[i]), whole):
            assert np.array_equal(part, ref[i])
    return whole


@pytest.mark.parametrize("q, k", [((1.0, 1.0), 1.3), ((1.3, 0.8), 3.0 + 0.2j),
                                  ((1.0, 1.7), 6.0)])
def test_each_point_is_evaluated_alike_in_any_batch(q, k):
    # the CLI splits grids over threads, and a call groups its points by rung
    # and block and runs S_2 and Ewald over them; every point must come out
    # bit for bit the same whichever batch it is evaluated in, single points
    # included
    lat = Lattice(q_diag=q, eta=(0.4, 0.7))
    ev = qpgreen.make_green_evaluator(lat, k)
    fb = ev.expansion
    pts = _rung_points(ev, qpgreen._S2_RUN + 2 * qpgreen._CHUNK, 6)
    counts = _rung_counts(ev, pts)
    assert set(counts) == set(fb._tops)
    # the whole call crosses a block boundary in some rung and a run
    # boundary of the S_2 fold
    assert any(n > fb._block[t] for t, n in counts.items())
    assert sum(counts.values()) - 3 > qpgreen._S2_RUN
    xr = pts - np.round(pts / lat.q) * lat.q
    assert np.any(np.hypot(xr[:, 0], xr[:, 1]) > fb.radius) == (min(q) != max(q))
    off = pts[3:]  # G is singular at x = 0 and on the lattice
    _alike(lambda p: qpgreen.green_eval(ev, p), off, 7)
    _alike(lambda p: qpgreen.green_hessian(ev, p), off, 8)
    _alike(lambda p: qpgreen.ewald_oracle(ev, p)[:2], off, 9)
    _alike(lambda p: qpgreen.regular_part(ev, p), pts, 10)
    # before the fit Ewald serves every point, with the oracle's bits
    fresh = qpgreen.make_green_evaluator(lat, k)
    oracle = qpgreen.ewald_oracle(fresh, off)
    for call, seed in ((qpgreen.green_eval, 14), (qpgreen.green_hessian, 15)):
        whole = _alike(lambda p: call(fresh, p), off, seed)
        assert all(np.array_equal(a, b) for a, b in zip(whole, oracle))
    assert fresh._expansion is None
    # an antisymmetric table over every rung, its zero diagonal and moved
    # pairs included, holds the bits of its entries in any batch, and so does
    # every principal sub-table
    n = 80
    y = _rung_points(ev, n, 11) / 2.0
    d = y[:, None, :] - y[None, :, :]
    assert n * n >= 3 * qpgreen._CHUNK
    assert np.array_equal(d, -d.swapaxes(0, 1))
    i, j = np.triu_indices(n)
    assert set(_rung_counts(ev, d[i, j])) == set(fb._tops)
    table = qpgreen.regular_part(ev, d)
    flat = _alike(lambda p: qpgreen.regular_part(ev, p), d.reshape(-1, 2), 12)
    for a, b in zip(table, flat):
        assert np.array_equal(a, b.reshape(a.shape))
    rng = np.random.default_rng(13)
    for size in (1, 2, 17, 45):
        s = np.sort(rng.choice(n, size=size, replace=False))
        for a, b in zip(qpgreen.regular_part(ev, d[np.ix_(s, s)]), table):
            assert np.array_equal(a, b[np.ix_(s, s)])


@pytest.mark.parametrize("k", [1.3, 6.0, 20.0, 6.0 + 0.5j])
def test_phi_table_matches_the_bessel_function(k):
    # phi_n(z) = n! (2/z)^n J_n(z) from mpmath's Bessel function, on the
    # rows and the radii the expansion uses, x = 0 included
    mpmath = pytest.importorskip("mpmath")
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    ev = qpgreen.make_green_evaluator(lat, k)
    fb = ev.expansion
    nmax = qpgreen._EXPANSION_CAP + 2
    r = fb.radius * np.r_[0.0, np.geomspace(1e-3, 1.0, 11)]
    phi = qpgreen._phi_table((ev.k * ev.k / 4.0) * r * r, nmax,
                             abs(k) ** 2 * fb.radius ** 2 / 4.0)
    for col, z in zip(phi.T, complex(k) * r):
        if z == 0:
            ref = np.ones(nmax + 1)
        else:
            with mpmath.workdps(60):
                zm = mpmath.mpf(z.real) if z.imag == 0 else mpmath.mpc(z.real, z.imag)
                ref = np.array([complex(mpmath.factorial(n) * (2 / zm) ** n
                                        * mpmath.besselj(n, zm))
                                for n in range(nmax + 1)])
        assert np.all(np.abs(col - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))), z


def test_the_basis_type_follows_k_alone():
    # real arithmetic for a real k, a given 0j included, and complex for a
    # complex k even where the data are real (x = 0)
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    r2 = np.array([0.0, 0.01, 0.3])
    for k, real in ((1.3, True), (6.0 + 0j, True), (0.0, True), (6.0 + 0.5j, False)):
        ev = qpgreen.make_green_evaluator(lat, k)
        assert isinstance(ev.k, float) == real
        phi = qpgreen._phi_table((ev.k * ev.k / 4.0) * r2, 16, 1.0)
        assert (phi.dtype == float) == real
        assert (qpgreen._phi_table((ev.k * ev.k / 4.0) * r2[:1], 16, 1.0).dtype == float) == real


def _flux_call():
    """A fitted evaluator (unit cell, k = 6), the N = 128 kite at scale 0.3
    and the 288 x 128 point-node differences of a cell flux on it."""
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    ev = qpgreen.make_green_evaluator(lat, 6.0)
    ev.expansion
    kite = geometry.discretize(geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5)), 128)
    s = (np.arange(72) + 0.5) / 72
    edges = [np.stack([s, 0 * s + side], axis=1)[:, ::order]
             for side in (0.0, 1.0) for order in (1, -1)]
    pts = (np.concatenate(edges)[:, None, :] - kite.points[None, :, :]).reshape(-1, 2)
    assert len(pts) == 36864
    return ev, kite, pts


def test_a_flux_sized_green_call_stays_small():
    # one green_eval call at the point-node differences of a cell flux: the
    # outputs take 1.7 MiB, the rest of the peak is bounded by the rung
    # blocks and a few per-point arrays
    import tracemalloc

    ev, _, pts = _flux_call()
    qpgreen.green_eval(ev, pts[:600])
    tracemalloc.start()
    try:
        qpgreen.green_eval(ev, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 ** 20


def test_every_phi_table_stays_within_the_cap_block(monkeypatch):
    # a rung's block is sized by its table's entries (the phi rows and the
    # free-space profiles' columns), not by its points: no table outgrows the
    # cap block's, and low rungs take longer blocks
    ev, kite, pts = _flux_call()
    tables = []
    phi_rows = qpgreen._phi_rows

    def recorded(u, n0, series):
        tab = phi_rows(u, n0, series)
        tables.append((np.size(u), tab.size))
        return tab

    monkeypatch.setattr(qpgreen, "_phi_rows", recorded)
    qpgreen.green_eval(ev, pts)
    y = kite.points
    qpgreen.regular_part(ev, y[:, None, :] - y[None, :, :])
    assert max(entries for _, entries in tables) <= 512 * (qpgreen._EXPANSION_CAP + 3)
    assert max(points for points, _ in tables) > 512


@pytest.mark.parametrize("k", [1.3, 6.0, 6.0 + 0.5j, 20.0])
def test_the_rung_pass_folds_in_the_free_space_kernel(k):
    # a fitted green_eval at x = x' + q m is e^{i eta . q m} (R(x') + S_2(x'))
    # with R(x') from regular_part and S_2 from specfun, |x'| from 1e-6 to
    # the radius, to 1e-14 of |R| + |S_2|; at k = 20 the outer rungs pass
    # the block's profile radius and specfun's series radius
    lat = Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))
    ev = qpgreen.make_green_evaluator(lat, k)
    fb = ev.expansion
    assert any(not near for _, _, near in fb._series.values()) == (k == 20.0)
    rng = np.random.default_rng(17)
    r = np.geomspace(1e-6, fb.radius, 800)
    th = rng.uniform(0.0, 2.0 * np.pi, len(r))
    x = np.stack([r * np.cos(th), r * np.sin(th)], axis=1) \
        + rng.integers(-2, 3, size=(len(r), 2)) * lat.q
    # the evaluator's own reduction: x - q m* rounds at |x'| << 1
    xr, shift = ev._reduce(x)
    if k == 20.0:
        assert np.max(abs(k) * np.hypot(xr[:, 0], xr[:, 1])) > specfun.SERIES_RADIUS
    gv, gg = qpgreen.green_eval(ev, x)
    rv, rg = qpgreen.regular_part(ev, xr)
    s = specfun.fundamental_solution(2, xr, ev.k)
    ph = ev._phase(shift)
    scale_v = np.abs(rv) + np.abs(s.value)
    scale_g = np.max(np.abs(rg) + np.abs(s.gradient), axis=1)
    assert np.max(np.abs(gv - ph * (rv + s.value)) / scale_v) <= 1e-14
    err_g = np.max(np.abs(gg - ph[:, None] * (rg + s.gradient)), axis=1)
    assert np.max(err_g / scale_g) <= 1e-14


def test_a_fitted_green_call_takes_s2_from_its_blocks(monkeypatch):
    # S_2 and its gradient come from the rung pass's own tables: a flux-sized
    # call never sums specfun's profiles
    ev, _, pts = _flux_call()
    calls = []
    original = specfun.fundamental_solution

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(specfun, "fundamental_solution", counted)
    qpgreen.green_eval(ev, pts)
    assert calls == []


# --------------------------------------------------------------------------- #
# node-pair tables: the lower triangle from the antipodes


def _pair_table(shape: str, N: int) -> np.ndarray:
    curve = geometry.make_curve("circle", radius=0.35, center=(0.5, 0.5)) \
        if shape == "circle" else geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5))
    p = geometry.discretize(curve, N).points
    return p[:, None, :] - p[None, :, :]


def _one_by_one(ev, x):
    """regular_part on the flattened points: the pointwise path."""
    v, g = qpgreen.regular_part(ev, x.reshape(-1, 2))
    return v.reshape(x.shape[:-1]), g.reshape(x.shape)


@pytest.mark.parametrize("shape", ["circle", "kite"])
@pytest.mark.parametrize("k", [1.3, 6.0, 6.0 + 0.5j])
def test_antisymmetric_table_is_bit_identical_to_the_pointwise_path(lat, shape, k):
    ev = qpgreen.make_green_evaluator(lat, k)
    d = _pair_table(shape, 64)
    assert np.array_equal(d, -d.swapaxes(0, 1))
    # pairs with a difference component of exactly 0 are among them
    assert np.any(d[~np.eye(64, dtype=bool)] == 0.0)
    for a, b in zip(qpgreen.regular_part(ev, d), _one_by_one(ev, d)):
        assert np.array_equal(a, b)


def test_antisymmetric_table_beyond_the_expansion_radius():
    lat = Lattice(q_diag=(1.0, 1.7), eta=(0.4, 0.7))
    ev = qpgreen.make_green_evaluator(lat, 2.1)
    d = _pair_table("kite", 64)
    reduced = d - np.round(d / lat.q) * lat.q
    assert np.any(np.hypot(reduced[..., 0], reduced[..., 1]) > ev.expansion.radius)
    for a, b in zip(qpgreen.regular_part(ev, d), _one_by_one(ev, d)):
        assert np.array_equal(a, b)


def test_a_table_that_is_not_antisymmetric_is_evaluated_point_by_point(green):
    d = _pair_table("kite", 32)
    d[3, 5] += 1e-3
    RV, RG = qpgreen.regular_part(green, d)
    ref_v, ref_g = _one_by_one(green, d)
    assert np.array_equal(RV, ref_v) and np.array_equal(RG, ref_g)
    # the entry below the perturbed one is R at its own point, not at the antipode
    v, _ = qpgreen.regular_part(green, -d[3, 5])
    assert RV[5, 3] != v


def test_antisymmetric_table_near_a_shifted_source_raises(green):
    p = np.array([[0.1, 0.2], [0.4, 0.5], [1.1 - 5e-9, 0.2]])
    for order in ([0, 1, 2], [2, 1, 0]):
        d = p[order][:, None, :] - p[order][None, :, :]
        with pytest.raises(NearLatticePointError):
            qpgreen.regular_part(green, d)


# --------------------------------------------------------------------------- #
# separable tables: Graf's addition theorem inside the expansion disk


def test_separable_order_follows_the_expansion_radius(green):
    circle = geometry.make_curve("circle", radius=0.35, center=(0.5, 0.5))
    kite = geometry.make_curve("kite", scale=0.3, center=(0.5, 0.5))
    fb = green.expansion
    assert qpgreen.separable_order(green, circle.disk[1]) == fb.terms(0.7) + 1
    assert qpgreen.separable_order(green, 0.5 * fb.radius) is not None
    # the benchmark's kite (r0 = 0.570) keeps regular_part
    assert kite.disk[1] > 0.5 * fb.radius
    assert qpgreen.separable_order(green, kite.disk[1]) is None
    assert qpgreen.separable_tables(green, np.zeros((2, 2)), np.zeros((2, 2)),
                                    *kite.disk) is None


@pytest.mark.parametrize("q, k", [((1.0, 1.0), 1.3), ((1.0, 1.0), 6.0),
                                  ((1.0, 1.0), 6.0 + 0.5j), ((1.0, 1.7), 2.1),
                                  ((1.0, 1.0), 0.0)])
def test_separable_tables_match_regular_part_and_the_oracle(q, k):
    ev = qpgreen.make_green_evaluator(Lattice(q_diag=q, eta=(0.4, 0.7)), k)
    curve = geometry.make_curve("circle", radius=0.35, center=(0.5, 0.5))
    nodes = geometry.discretize(curve, 128).points
    taus = (2 * np.arange(0, 128, 5) + 1) * np.pi / 128
    for targets in (nodes, curve.position(taus)):
        tables = qpgreen.separable_tables(ev, targets, nodes, *curve.disk)
        d = targets[:, None, :] - nodes[None, :, :]
        v, g = qpgreen.regular_part(ev, d.reshape(-1, 2))
        off = np.any(d != 0.0, axis=-1) & (np.arange(len(nodes)) % 7 == 0)
        assert_tables_agree(tables, (v.reshape(d.shape[:-1]), g.reshape(d.shape)),
                            regular_part_by_ewald(ev, d[off]), off)


def test_separable_tables_of_a_point_disk_hold_R_at_zero(green):
    # epsilon = 0: every scaled node sits at the centre
    zeros = np.zeros((6, 2))
    v, g = qpgreen.separable_tables(green, zeros, zeros, np.zeros(2), 0.0)
    v0, g0 = qpgreen.regular_part(green, np.zeros((1, 2)))
    assert np.max(np.abs(v - v0[0])) <= 1e-13 * abs(v0[0])
    assert np.max(np.abs(g - g0[0])) <= 1e-13 * np.max(np.abs(g0))
