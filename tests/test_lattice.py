"""Lattice bookkeeping: dual vectors, spectrum distance, resonance detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qphelm import qpgreen
from qphelm.errors import ResonanceError
from qphelm.lattice import (
    Lattice,
    dual_vector,
    make_wave_context,
    resonance_set,
    spectrum_distance,
)


def test_cell_measure_and_vectors():
    lat = Lattice(q_diag=(2.0, 0.5), eta=(0.3, -0.1))
    assert lat.dim == 2
    assert lat.cell_measure == pytest.approx(1.0)
    np.testing.assert_allclose(dual_vector(lat, (1, 0)),
                               [0.3 + 2 * math.pi / 2.0, -0.1])
    np.testing.assert_allclose(dual_vector(lat, (0, -2)),
                               [0.3, -0.1 - 4 * math.pi / 0.5])


def test_invalid_lattice_rejected():
    with pytest.raises(ValueError):
        Lattice(q_diag=(0.0, 1.0), eta=(0.0, 0.0))
    with pytest.raises(ValueError):
        Lattice(q_diag=(1.0, -2.0), eta=(0.0, 0.0))


def test_lattice_refuses_dimension_3():
    with pytest.raises(ValueError):
        Lattice(q_diag=(1.0, 1.0, 1.0), eta=(0.0, 0.0, 0.0))


def test_spectrum_distance_brute_force(lat):
    # independent oracle: scan a generous index box directly
    k = 1.3
    best = min(abs(k ** 2 - float(np.dot(dual_vector(lat, (m1, m2)),
                                         dual_vector(lat, (m1, m2)))))
               for m1 in range(-6, 7) for m2 in range(-6, 7))
    assert spectrum_distance(lat, k) == pytest.approx(best, rel=1e-14)
    assert spectrum_distance(lat, k) > 0


def test_exact_resonance_detected(lat):
    # |eta| itself is in the spectrum (index (0,0))
    k = math.sqrt(0.4 ** 2 + 0.7 ** 2)
    hits = resonance_set(lat, k)
    assert (0, 0) in hits
    assert spectrum_distance(lat, k) <= 1e-15
    wave = make_wave_context(lat, k)
    assert wave.is_resonant
    with pytest.raises(ResonanceError, match="spectral distance"):
        qpgreen.GreenEvaluator(lat, wave)


def test_wave_context_flags(lat):
    ctx = make_wave_context(lat, 1.3)
    assert not ctx.is_resonant
    assert ctx.k == 1.3 + 0j
    assert ctx.spectral_distance > 0.5


def test_resonance_set_bloch_equivalence():
    # shifting eta by one dual-lattice vector relabels the resonant indices
    q1 = 1.0
    lat = Lattice(q_diag=(q1, 1.0), eta=(0.4, 0.7))
    k = float(np.linalg.norm(dual_vector(lat, (1, -1))))
    hits = set(resonance_set(lat, k))
    assert (1, -1) in hits
    shifted = Lattice(q_diag=(q1, 1.0), eta=(0.4 + 2 * math.pi / q1, 0.7))
    hits_shifted = set(resonance_set(shifted, k))
    assert hits_shifted == {(z1 - 1, z2) for z1, z2 in hits}


@settings(deadline=None, max_examples=30)
@given(kr=st.floats(0.3, 6.0), e1=st.floats(-3.0, 3.0), e2=st.floats(-3.0, 3.0))
def test_spectrum_distance_is_lower_envelope(kr, e1, e2):
    lat = Lattice(q_diag=(1.0, 1.0), eta=(e1, e2))
    d = spectrum_distance(lat, kr)
    assert d >= 0
    for m1 in range(-2, 3):
        for m2 in range(-2, 3):
            beta = dual_vector(lat, (m1, m2))
            assert d <= abs(kr ** 2 - float(beta @ beta)) + 1e-12


def _loop_scan(lat, k, tolerance=1e-9):
    """The index-by-index scan: resonant indices and the spectrum distance."""
    half = int(math.ceil((abs(k) + float(np.max(np.abs(lat.eta_vec))))
                         * float(np.max(lat.q)) / (2.0 * np.pi))) + 2
    tol = tolerance * max(1.0, abs(k) ** 2)
    hits, best = [], math.inf
    for m1 in range(-half, half + 1):
        for m2 in range(-half, half + 1):
            beta = dual_vector(lat, (m1, m2))
            gap = abs(complex(k) ** 2 - float(beta @ beta))
            best = min(best, gap)
            if gap <= tol:
                hits.append((m1, m2))
    return hits, best


@pytest.mark.parametrize("q, k", [
    ((1.0, 1.0), None),          # resonant at index (1, -1)
    ((1.0, 1.0), 2.0 + 0.3j),
    ((1.0, 2.5), 4.0),
    ((1.0, 2.5), None),          # resonant at index (1, -1)
    ((1.0, 1.0), 20.0),
])
def test_vectorised_scans_match_the_index_loop(q, k):
    lat = Lattice(q_diag=q, eta=(0.4, 0.7))
    resonant = k is None
    if resonant:
        k = float(np.linalg.norm(dual_vector(lat, (1, -1))))
    hits, best = _loop_scan(lat, k)
    assert ((1, -1) in hits) == resonant and bool(hits) == resonant
    assert resonance_set(lat, k) == hits
    # |k^2 - |beta|^2| cancels: the loop's beta @ beta and an elementwise sum
    # round differently, so the two agree to the scale of k^2, not of the gap
    assert abs(spectrum_distance(lat, k) - best) <= 1e-15 * max(1.0, abs(k) ** 2)
    assert make_wave_context(lat, k).resonance_set == tuple(hits)
