"""Boundary curves, spectral discretizations, and hole rescaling.

Curves are 2 pi periodic parametrizations traversed counterclockwise, so the
normal (x2', -x1')/|x'| points outward.  Discretization uses the N equispaced
nodes t_j = 2 pi j / N that the logarithmic Nystrom quadrature expects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ContainmentError
from .lattice import Lattice

__all__ = [
    "BoundaryCurve",
    "DiscreteCurve",
    "HoleConfig",
    "containment_bound",
    "make_curve",
    "discretize",
    "rescale",
    "trig_interpolate",
]


@dataclass(frozen=True)
class BoundaryCurve:
    """Smooth closed curve given by position/velocity/acceleration callables.

    Each callable maps parameter arrays of shape (...) to points (..., 2).
    """

    position: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]
    acceleration: Callable[[np.ndarray], np.ndarray]
    name: str = "curve"

    @cached_property
    def _samples(self) -> np.ndarray:
        return self.position(2.0 * np.pi * np.arange(4096) / 4096)

    @cached_property
    def extent(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate-wise (min, max) of the curve, sampled at 4,096 parameters."""
        return self._samples.min(axis=0), self._samples.max(axis=0)

    @cached_property
    def disk(self) -> tuple[np.ndarray, float]:
        """(centre, radius) of a disk holding the curve: the extent's midpoint and
        the largest distance of the 4,096 samples from it."""
        lo, hi = self.extent
        center = 0.5 * (lo + hi)
        return center, float(np.max(np.hypot(*(self._samples - center).T)))


def make_curve(shape: str, center=(0.0, 0.0), *, radius: float | None = None,
               a: float | None = None, b: float | None = None,
               scale: float = 1.0) -> BoundaryCurve:
    """Standard shapes: circle(radius), ellipse(a, b), kite(scale).

    The kite is x(t) = scale * (cos t + 0.65 cos 2t - 0.65, 1.5 sin t) + center;
    scale defaults to 1 (the reference hole shape) and lets the same curve serve
    as a cell boundary at reduced size.
    """
    c = np.asarray(center, dtype=float)
    if shape == "circle":
        if radius is None or radius <= 0:
            raise ValueError("circle needs a positive radius")
        r = float(radius)

        def pos(t):
            t = np.asarray(t, dtype=float)
            return np.stack([c[0] + r * np.cos(t), c[1] + r * np.sin(t)], axis=-1)

        def vel(t):
            t = np.asarray(t, dtype=float)
            return np.stack([-r * np.sin(t), r * np.cos(t)], axis=-1)

        def acc(t):
            t = np.asarray(t, dtype=float)
            return np.stack([-r * np.cos(t), -r * np.sin(t)], axis=-1)

        return BoundaryCurve(pos, vel, acc, name=f"circle(r={r})")

    if shape == "ellipse":
        if a is None or b is None or a <= 0 or b <= 0:
            raise ValueError("ellipse needs positive semi-axes a and b")
        a_, b_ = float(a), float(b)

        def pos(t):
            t = np.asarray(t, dtype=float)
            return np.stack([c[0] + a_ * np.cos(t), c[1] + b_ * np.sin(t)], axis=-1)

        def vel(t):
            t = np.asarray(t, dtype=float)
            return np.stack([-a_ * np.sin(t), b_ * np.cos(t)], axis=-1)

        def acc(t):
            t = np.asarray(t, dtype=float)
            return np.stack([-a_ * np.cos(t), -b_ * np.sin(t)], axis=-1)

        return BoundaryCurve(pos, vel, acc, name=f"ellipse(a={a_},b={b_})")

    if shape == "kite":
        s = float(scale)

        def pos(t):
            t = np.asarray(t, dtype=float)
            return np.stack([
                c[0] + s * (np.cos(t) + 0.65 * np.cos(2 * t) - 0.65),
                c[1] + s * 1.5 * np.sin(t),
            ], axis=-1)

        def vel(t):
            t = np.asarray(t, dtype=float)
            return np.stack([
                s * (-np.sin(t) - 1.3 * np.sin(2 * t)),
                s * 1.5 * np.cos(t),
            ], axis=-1)

        def acc(t):
            t = np.asarray(t, dtype=float)
            return np.stack([
                s * (-np.cos(t) - 2.6 * np.cos(2 * t)),
                s * (-1.5) * np.sin(t),
            ], axis=-1)

        return BoundaryCurve(pos, vel, acc, name=f"kite(scale={s})")

    raise ValueError(f"unknown shape {shape!r}")


@dataclass(frozen=True)
class DiscreteCurve:
    """Equispaced-node discretization carrying everything assembly needs."""

    curve: BoundaryCurve
    N: int
    t: np.ndarray
    points: np.ndarray
    velocity: np.ndarray
    speeds: np.ndarray
    normals: np.ndarray
    curvature: np.ndarray
    weights: np.ndarray  # trapezoid arc-length weights 2 pi / N * |x'|

    @property
    def length(self) -> float:
        return float(np.sum(self.weights))


def discretize(curve: BoundaryCurve, N: int) -> DiscreteCurve:
    """Sample the curve at N (even, >= 16) equispaced parameters."""
    if N < 16 or N % 2 != 0:
        raise ValueError(f"N must be even and at least 16, got {N}")
    t = 2.0 * np.pi * np.arange(N) / N
    x = curve.position(t)
    v = curve.velocity(t)
    a = curve.acceleration(t)
    speed = np.sqrt(np.sum(v * v, axis=-1))
    if np.any(speed <= 0.0):
        raise ValueError("degenerate parametrization: |x'| vanishes at a node")
    normals = np.stack([v[:, 1], -v[:, 0]], axis=-1) / speed[:, None]
    curvature = (v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0]) / speed ** 3
    weights = (2.0 * np.pi / N) * speed
    return DiscreteCurve(curve=curve, N=N, t=t, points=x, velocity=v, speeds=speed,
                         normals=normals, curvature=curvature, weights=weights)


def containment_bound(reference: BoundaryCurve, center, lattice) -> float:
    """Largest epsilon for which center + epsilon*reference stays in the open cell."""
    p = np.asarray(center, dtype=float)
    q = lattice.q
    if np.any(p <= 0.0) or np.any(p >= q):
        raise ContainmentError(f"hole center {tuple(p)} not inside the open cell")
    lows, highs = reference.extent
    bound = np.inf
    for i in range(2):
        lo, hi = float(lows[i]), float(highs[i])
        if lo < 0.0:
            bound = min(bound, p[i] / (-lo))
        if hi > 0.0:
            bound = min(bound, (q[i] - p[i]) / hi)
    return float(bound)


@dataclass(frozen=True)
class HoleConfig:
    """A reference hole placed at p and shrunk by epsilon inside the cell.

    epsilon_max is the exact containment bound against the (axis-aligned,
    open) cell walls; the validated working radius is half of it.
    """

    reference: BoundaryCurve
    center: tuple[float, float]
    epsilon: float
    lattice: Lattice
    epsilon_max: float = field(init=False)

    def __post_init__(self):
        bound = containment_bound(self.reference, self.center, self.lattice)
        object.__setattr__(self, "epsilon_max", float(bound))
        if not (0.0 < self.epsilon < self.epsilon_max):
            raise ContainmentError(
                f"epsilon={self.epsilon} outside the containment range "
                f"(0, {self.epsilon_max:.6g}) for center {self.center}"
            )

    @property
    def validated_radius(self) -> float:
        """Where the small-hole expansion is used: half the containment bound."""
        return 0.5 * self.epsilon_max


def rescale(cfg: HoleConfig) -> BoundaryCurve:
    """Physical hole boundary t -> p + epsilon * x_ref(t).

    Its extent and disk come from the reference's 4,096 samples, mapped.
    """
    ref = cfg.reference
    p = np.asarray(cfg.center, dtype=float)
    eps = float(cfg.epsilon)

    def pos(t):
        return p + eps * ref.position(t)

    def vel(t):
        return eps * ref.velocity(t)

    def acc(t):
        return eps * ref.acceleration(t)

    curve = BoundaryCurve(pos, vel, acc, name=f"{ref.name}@p={tuple(p)},eps={eps}")
    # the reference's samples moved, with the bits of pos at the same
    # parameters: extent and disk never sample the physical curve again
    curve.__dict__["_samples"] = p + eps * ref._samples
    return curve


def trig_interpolate(values: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of nodal values at parameters taus.

    values live on the N equispaced nodes 2 pi j / N (N even); the Nyquist mode
    is split symmetrically (cos), the canonical minimal-oscillation choice.
    """
    values = np.asarray(values)
    taus = np.asarray(taus, dtype=float)
    N = len(values)
    if N % 2 != 0:
        raise ValueError("even node count required")
    c = np.fft.fft(values) / N
    m = np.fft.fftfreq(N, d=1.0 / N)  # integer frequencies, m[N//2] = -N/2
    cols = np.exp(1j * np.outer(taus, m))
    cols[:, N // 2] = np.cos((N / 2) * taus)
    out = cols @ c
    if not np.iscomplexobj(values):
        out = out.real
    return out
