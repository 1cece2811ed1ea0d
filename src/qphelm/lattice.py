"""Rectangular periodicity lattices, dual vectors, and resonance bookkeeping.

The period cell is the box [0, q_1) x [0, q_2) with diagonal period matrix
diag(q_1, q_2); quasi-momentum eta shifts the dual lattice, so the plane-wave
frequencies are beta_z = 2 pi z / q + eta for integer z.  A wavenumber k is
resonant when k**2 equals some |beta_z|**2: qpgreen.GreenEvaluator refuses it,
so the periodic Green function is never evaluated there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Lattice",
    "WaveContext",
    "dual_vector",
    "resonance_set",
    "spectrum_distance",
    "make_wave_context",
    "DEFAULT_RESONANCE_TOLERANCE",
]

DEFAULT_RESONANCE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Lattice:
    """Diagonal-period lattice with quasi-momentum.

    Attributes
    ----------
    q_diag : pair of positive floats, the cell edge lengths
    eta : pair of floats, the quasi-momentum
    """

    q_diag: tuple[float, ...]
    eta: tuple[float, ...]

    def __post_init__(self):
        q = tuple(float(v) for v in self.q_diag)
        e = tuple(float(v) for v in self.eta)
        if len(q) != len(e):
            raise ValueError("q_diag and eta must have the same length")
        if len(q) != 2:
            raise ValueError(f"only dimension 2 is supported, got {len(q)}")
        if any(v <= 0.0 for v in q):
            raise ValueError("cell edges must be positive")
        object.__setattr__(self, "q_diag", q)
        object.__setattr__(self, "eta", e)

    @property
    def dim(self) -> int:
        return len(self.q_diag)

    @property
    def cell_measure(self) -> float:
        return float(np.prod(self.q_diag))

    @property
    def q(self) -> np.ndarray:
        return np.asarray(self.q_diag, dtype=float)

    @property
    def eta_vec(self) -> np.ndarray:
        return np.asarray(self.eta, dtype=float)

    def reduce(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x - q m*, q m*) at points x (shape (..., 2)), q m* the lattice point nearest x.

        At a difference of two points, x - q m* is the difference to the
        second point's nearest image.
        """
        q = self.q
        shift = np.round(x / q) * q
        return x - shift, shift


def dual_vector(lattice: Lattice, z) -> np.ndarray:
    """beta_z = 2 pi z / q + eta for integer multi-indices z (vectorized over rows)."""
    z = np.asarray(z, dtype=float)
    return 2.0 * np.pi * z / lattice.q + lattice.eta_vec


def _index_box(lattice: Lattice, k: complex) -> int:
    """Half-width of the integer search box that surely contains all near-resonant z."""
    kmag = abs(k)
    emag = float(np.max(np.abs(lattice.eta_vec)))
    qmax = float(np.max(lattice.q))
    return int(math.ceil((kmag + emag) * qmax / (2.0 * np.pi))) + 2


def _spectrum_gaps(lattice: Lattice, k: complex) -> tuple[np.ndarray, np.ndarray]:
    """Indices z of the search box, in lexicographic order, and |k**2 - |beta_z|**2|."""
    half = _index_box(lattice, k)
    rng = np.arange(-half, half + 1)
    zs = np.stack(np.meshgrid(rng, rng, indexing="ij"), axis=-1).reshape(-1, 2)
    beta = dual_vector(lattice, zs)
    return zs, np.abs(complex(k) ** 2 - (beta[:, 0] * beta[:, 0] + beta[:, 1] * beta[:, 1]))


def resonance_set(lattice: Lattice, k: complex,
                  tolerance: float = DEFAULT_RESONANCE_TOLERANCE) -> list[tuple[int, ...]]:
    """Integer indices z with k**2 = |beta_z|**2 up to tolerance (scaled by max(1, |k|^2))."""
    zs, gaps = _spectrum_gaps(lattice, k)
    tol = tolerance * max(1.0, abs(k) ** 2)
    return [tuple(z) for z in zs[gaps <= tol].tolist()]


def spectrum_distance(lattice: Lattice, k: complex) -> float:
    """min_z |k**2 - |beta_z|**2|, the margin from the lattice spectrum."""
    return float(np.min(_spectrum_gaps(lattice, k)[1]))


@dataclass(frozen=True)
class WaveContext:
    """Wavenumber plus its resonance diagnostics for a fixed lattice."""

    k: complex
    resonance_set: tuple[tuple[int, ...], ...] = field(default=())
    spectral_distance: float = math.inf

    @property
    def is_resonant(self) -> bool:
        return len(self.resonance_set) > 0


def make_wave_context(lattice: Lattice, k: complex,
                      resonance_tolerance: float = DEFAULT_RESONANCE_TOLERANCE) -> WaveContext:
    """Build a WaveContext; GreenEvaluator refuses a resonant one."""
    k = complex(k)
    hits = resonance_set(lattice, k, tolerance=resonance_tolerance)
    return WaveContext(k=k, resonance_set=tuple(hits),
                       spectral_distance=spectrum_distance(lattice, k))
