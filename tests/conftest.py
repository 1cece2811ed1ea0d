"""Shared fixtures: one lattice/wavenumber configuration and its Green evaluator.

Building the quasi-periodic evaluator and discretized curves once per session
keeps the suite fast; all objects are immutable from the tests' point of view.
"""

import collections

import numpy as np
import pytest

from qphelm import geometry, qpgreen, specfun
from qphelm.lattice import Lattice, make_wave_context


@pytest.fixture(scope="session")
def lat():
    return Lattice(q_diag=(1.0, 1.0), eta=(0.4, 0.7))


@pytest.fixture(scope="session")
def wave(lat):
    return make_wave_context(lat, 1.3)


@pytest.fixture(scope="session")
def green(lat, wave):
    return qpgreen.make_green_evaluator(lat, wave.k)


@pytest.fixture(scope="session")
def circle128():
    """Radius-0.35 circle centered in the unit cell, 128 nodes."""
    return geometry.discretize(
        geometry.make_curve("circle", radius=0.35, center=(0.5, 0.5)), 128)


@pytest.fixture(scope="session")
def disk96():
    """Unit-radius reference disk (origin-centered), 96 nodes."""
    return geometry.discretize(geometry.make_curve("circle", radius=1.0), 96)


@pytest.fixture(scope="session")
def kite96():
    """Default kite reference curve, 96 nodes."""
    return geometry.discretize(geometry.make_curve("kite"), 96)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def j0_sizes(monkeypatch):
    """Argument sizes of the J_0 profile calls (specfun.entire_bessel_J at order 0)."""
    sizes = collections.Counter()
    original = specfun.entire_bessel_J

    def counted(nu, z):
        if nu == 0:
            sizes[np.asarray(z).size] += 1
        return original(nu, z)

    monkeypatch.setattr(specfun, "entire_bessel_J", counted)
    return sizes
