"""Quasi-periodic Green function: periodicity, PDE, split invariance, regular part.

Frozen reference values were produced by tests/oracle_qpgreen.py (Richardson
limit of G - S for the regular part; absolutely convergent image sum at
absorbing wavenumber for the spot value).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qphelm import qpgreen, specfun
from qphelm.errors import (
    InsufficientDecayError,
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
    ref, tail = qpgreen.image_sum_oracle(lat, k, pts, truncation=40)
    got, _ = qpgreen.green_eval(ev, pts)
    assert np.max(tail) < 1e-12
    assert np.max(np.abs(got - ref)) < 1e-9
    assert abs(ref[0] - IMAGE_SUM_SPOT) < 1e-13


def test_image_sum_requires_absorption(lat):
    with pytest.raises(InsufficientDecayError):
        qpgreen.image_sum_oracle(lat, 1.3 + 0.01j, np.array([[0.3, 0.4]]))


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
    ref, tail = qpgreen.image_sum_oracle(lat, k, pts, truncation=40)
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
    assert params["expansion_terms"] == ev.expansion.terms(ev.expansion.radius, 1)
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
# G from S_2 + the fitted expansion, checked against the Ewald oracle


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@settings(deadline=None, max_examples=20)
@given(cell=_CELLS, k=st.floats(0.5, 8.0), seed=st.integers(0, 2**16))
def test_green_jet_matches_the_ewald_oracle_off_the_square_cell(cell, k, seed):
    lat, ev = _evaluator(cell, k)
    pts = _points(lat, seed, 100, 1.0)
    ev.expansion  # fitted: reduced points within its radius take S_2 + R
    v, g, H = qpgreen.green_hessian(ev, pts)
    ref_v, ref_g, ref_H = qpgreen.ewald_oracle(ev, pts)
    assert _rel(v, ref_v) <= 1e-12
    assert _rel(g, ref_g) <= 1e-12
    assert _rel(H, ref_H) <= 1e-12
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


@pytest.mark.parametrize("q, k", [((1.0, 1.0), 1.3), ((1.3, 0.8), 3.0 + 0.2j)])
def test_each_point_is_evaluated_alike_in_any_batch(q, k):
    # the CLI splits grids over threads; every point must come out bit for bit
    # the same whichever batch it is evaluated in, single points included
    lat = Lattice(q_diag=q, eta=(0.4, 0.7))
    ev = qpgreen.make_green_evaluator(lat, k)
    ev.expansion
    pts = _points(lat, 5, 3000, 1.5)
    rng = np.random.default_rng(6)
    cuts = np.unique(rng.choice(len(pts), size=100))
    cuts = np.unique(np.r_[cuts, cuts + 1])  # some one-point batches
    for call in (lambda p: qpgreen.green_hessian(ev, p),
                 lambda p: qpgreen.regular_part(ev, p),
                 lambda p: qpgreen.ewald_oracle(ev, p)[:2]):
        whole = call(pts)
        for idx in np.split(np.arange(len(pts)), cuts):
            for part, ref in zip(call(pts[idx]), whole):
                assert np.array_equal(part, ref[idx])
