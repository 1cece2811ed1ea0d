"""Rescaled operator families for the shrinking-hole expansion.

A hole p + eps*Omega carries boundary operators whose eps-dependence untangles
into three fixed assemblies on the *reference* curve:

  index 1: free-space kernel at the rescaled wavenumber eps*k
           (the log-quadrature of ``potentials.assemble_free``),
  index 2: regular part R of the periodic Green function at rescaled distances
           eps*(x(t)-x(s)), contracted by operator kind as the periodic
           assembly does (trapezoid; analytic through zero),
  index 3: the log-rescaling correction profile T(y) = J-profile(k|y|) at
           rescaled distances, or its normal derivative; no Neumann profile
           enters (trapezoid; the eps*log(eps) term of the split).

Indices 1 and 3 are even entire functions of eps*k|d|, so ``FamilySeries``
holds them as power series in kappa = eps*k: one table of coefficient
matrices per (curve, k) serves every |eps| up to the one it was built for,
and a member costs one product of the powers of kappa^2 with the stacked
planes.  Index 2 takes ``scaled_regular_tables`` at each eps.

With d = x(t)-x(s) on the reference curve, the physical-curve identities are

  single trace:     V_phys      = eps*M1 + eps*M2 + eps*log(eps)*M3
  adjoint double:   K*_phys     = N1 + eps*N2 + eps*log(eps)*N3
  double boundary:  K_phys      = P1 + eps*P2 + eps*log(eps)*P3
  far single layer: S[theta](x) = eps*(far map applied to theta)
  far double layer: D[theta](x) = eps*(far double map applied to theta)

all exact at the discrete level because both sides share nodes and weights.

The Green evaluator is the problem context: every function here takes it as
``green`` and reads the lattice (for the containment bound and the physical
hole) and k from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, potentials, qpgreen, specfun
from .errors import ContainmentError, SeriesTruncationError
from .geometry import DiscreteCurve
from .lattice import Lattice

__all__ = [
    "FamilySeries",
    "RescaledFamily",
    "rescaled_operator",
    "rescaling_identity_suite",
    "scaled_regular_tables",
    "physical_curve",
    "IDENTITY_KINDS",
]

_FAMILY_KIND = {"M": "single_trace", "N": "adjoint_double", "P": "double_boundary"}
IDENTITY_KINDS = ("single-trace", "adjoint", "double-boundary",
                  "far-single", "far-double")


@dataclass(frozen=True)
class RescaledFamily:
    """One member of the rescaled operator families on the reference curve."""

    family: str
    index: int
    epsilon: float
    matrix: np.ndarray
    curve: DiscreteCurve


def _check_family(family: str, index: int):
    if family not in _FAMILY_KIND:
        raise ValueError(f"family must be one of {tuple(_FAMILY_KIND)}, got {family!r}")
    if index not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {index!r}")


def _check_epsilon(epsilon: float, curve: DiscreteCurve, center, lattice: Lattice):
    bound = geometry.containment_bound(curve.curve, center, lattice)
    if not abs(epsilon) < bound:
        raise ContainmentError(
            f"epsilon={epsilon} outside the open containment interval "
            f"(-{bound:.6g}, {bound:.6g})")


class FamilySeries:
    """The index-1 and index-3 members of M, N and P as power series in kappa = epsilon*k.

    Index 1 is the free-space Nystrom matrix at kappa: its profiles are even
    entire functions of kappa|d|, so every entry is sum_m kappa^(2m) C_m.  C_m
    is ``potentials._combine`` applied to the order-m monomials of the
    profiles with k^2 = 1 on one free-space ``potentials.NystromRows``; the
    double kinds' k^2 gJ and k^2 gN terms move up one power, and C_0 is the
    Laplace matrix.  Index 3 is the J-profile at epsilon*d: M3 =
    sum_m kappa^(2m) (j_m / 2 pi) |d|^(2m) w, and N3, P3 =
    epsilon k^2 sum_m kappa^(2m) g_m |d|^(2m) (nu . d) w.

    One table serves every |epsilon| <= ``epsilon_max``.  Its degree is the
    smallest at which every profile's terms |c_m| z_max^(2m), z_max =
    |k| epsilon_max max|d|, pass ``specfun._trim_degree``; a z_max beyond
    ``specfun.SERIES_RADIUS`` raises SeriesTruncationError.  A family's
    coefficient planes are built on its first use.
    """

    def __init__(self, curve: DiscreteCurve, k, epsilon_max: float):
        self.curve, self.k = curve, k
        self.epsilon_max = abs(float(epsilon_max))
        # the geometry of every family's planes; the row set serves no matrix
        self._rows = potentials.NystromRows(curve, (), k, None, None)
        d = self._rows.d
        r2 = np.sum(d * d, axis=2)
        z_max = abs(k) * self.epsilon_max * math.sqrt(float(r2.max()))
        if z_max > specfun.SERIES_RADIUS:
            raise SeriesTruncationError(
                f"|k| epsilon max|d| = {z_max:.3g} exceeds the series radius "
                f"{specfun.SERIES_RADIUS:g} of the rescaled families")
        self.degree = max(specfun._trim_degree(c, z_max) for _, c in _PROFILES.values())
        # |d|^(2m), m = 0..degree
        rpow = np.empty((self.degree + 1,) + r2.shape)
        rpow[0], rpow[1:] = 1.0, r2
        self._rpow = np.cumprod(rpow, axis=0)
        self._planes = {}

    def _monomials(self, profile: str) -> np.ndarray:
        """The order-m monomials c_m |d|^(2m) of one profile, m = 0..degree."""
        scale, c = _PROFILES[profile]
        # z_max <= SERIES_RADIUS keeps the degree within every stored series
        return (scale * c[:len(self._rpow)])[:, None, None] * self._rpow

    def _family_planes(self, family: str):
        """(index-1 planes, index-3 planes) of one family, each (degree + 1, N, N)."""
        if family not in self._planes:
            kind, rows = _FAMILY_KIND[family], self._rows
            w = self.curve.weights[None, None, :]
            J2 = self._monomials("J2")
            if kind == "single_trace":
                contraction = None
                profiles = zip(J2, self._monomials("N2"))
                log_planes = J2 * w
            else:
                contraction = rows.contraction(kind)
                # k^2 gJ and k^2 gN: one power of kappa^2 up
                gJ, gN = self._monomials("gJ"), self._monomials("gN")
                profiles = zip([0.0, *gJ[:-1]], [0.0, *gN[:-1]], J2)
                log_planes = gJ * contraction[0] * w
            one_planes = np.stack([potentials._combine(kind, rows, contraction, 1.0, p)
                                   for p in profiles])
            self._planes[family] = (one_planes, log_planes)
        return self._planes[family]

    def member(self, family: str, index: int, epsilon: float) -> np.ndarray:
        """The index-1 or index-3 member of ``family`` at ``epsilon``."""
        if abs(epsilon) > self.epsilon_max:
            raise ValueError(f"epsilon={epsilon} beyond the table's epsilon_max="
                             f"{self.epsilon_max}")
        planes = self._family_planes(family)[0 if index == 1 else 1]
        powers = np.power((epsilon * self.k) ** 2, np.arange(self.degree + 1))
        flat = planes.reshape(len(planes), -1)
        if np.iscomplexobj(powers):
            re, im = np.stack([powers.real, powers.imag]) @ flat
            matrix = re + 1j * im
        else:
            matrix = powers @ flat
        matrix = matrix.reshape(planes.shape[1:])
        if index == 3 and family != "M":
            matrix = (epsilon * self.k * self.k) * matrix
        return matrix


# the profiles of potentials.NystromRows.matrix as (scale, series coefficients):
# J2 = J~0/(2 pi), gJ = -J~1/(2 pi), N2 = N~0/4 and gN = (N~0'/z)/4
_PROFILES = {
    "J2": (1.0 / (2.0 * np.pi), specfun._get_jtilde(0.0).coefficients),
    "gJ": (-1.0 / (2.0 * np.pi), specfun._get_jtilde(1.0).coefficients),
    "N2": (0.25, specfun._get_ntilde(0).coefficients),
    "gN": (0.25, specfun._get_ntilde(0).dz_over_z.coefficients),
}


def rescaled_operator(family: str, index: int, epsilon: float,
                      curve: DiscreteCurve, center, *,
                      green: qpgreen.GreenEvaluator) -> RescaledFamily:
    """Assemble one rescaled family member on the reference curve.

    Index 1 depends on epsilon only through the wavenumber epsilon*k and is
    defined for every epsilon in (-eps0, eps0), including 0 (Laplace limit)
    and negative values.  Indices 1 and 3 come from a ``FamilySeries`` built
    at |epsilon|.
    """
    _check_family(family, index)
    _check_epsilon(epsilon, curve, center, green.lattice)
    if index == 2:
        series, tables = None, scaled_regular_tables(curve, epsilon, green)
    else:
        series, tables = FamilySeries(curve, green.k, epsilon), None
    matrix = _family_matrix(family, index, epsilon, curve, series, tables)
    return RescaledFamily(family, index, float(epsilon), matrix, curve)


def _family_matrix(family: str, index: int, epsilon: float, curve: DiscreteCurve,
                   series: FamilySeries | None, tables) -> np.ndarray:
    """Matrix of one member, without checks: indices 1 and 3 from ``series``,
    index 2 from the scaled ``tables``."""
    if index != 2:
        return series.member(family, index, epsilon)
    nu = curve.normals
    return potentials._table_kernel(_FAMILY_KIND[family], nu, nu, *tables) \
        * curve.weights[None, :]


def physical_curve(curve: DiscreteCurve, center, epsilon: float,
                   lattice: Lattice) -> DiscreteCurve:
    """The physical hole p + epsilon*Omega, discretized on the reference nodes."""
    cfg = geometry.HoleConfig(reference=curve.curve, center=tuple(center),
                              epsilon=float(epsilon), lattice=lattice)
    return geometry.discretize(geometry.rescale(cfg), curve.N)


def scaled_regular_tables(curve: DiscreteCurve, epsilon: float,
                          green: qpgreen.GreenEvaluator):
    """Regular-part tables at the scaled pairwise differences epsilon*(t-s).

    These feed the index-2 families; the table is shared by M2, N2 and P2 at
    one epsilon, so precomputing it once saves the dominant assembly cost.
    The scaled nodes lie in the curve's disk scaled by epsilon (centre
    epsilon*c, radius |epsilon|*r0), which every epsilon small enough for
    ``qpgreen.separable_order`` serves by ``qpgreen.separable_tables``;
    otherwise ``qpgreen.regular_part`` evaluates the antisymmetric table
    epsilon * d on its upper triangle.
    """
    center, radius = curve.curve.disk
    y = epsilon * curve.points
    tables = qpgreen.separable_tables(green, y, y, epsilon * center, abs(epsilon) * radius)
    if tables is None:
        d = curve.points[:, None, :] - curve.points[None, :, :]
        tables = qpgreen.regular_part(green, epsilon * d)
    return tables


_BOUNDARY_IDENTITY = {"single-trace": ("single_trace", "M"),
                      "adjoint": ("adjoint_double", "N"),
                      "double-boundary": ("double_boundary", "P")}


def _boundary_identity_residual(kind, epsilon, tv, curve, phys, green,
                                phys_rows, series, fam_tables) -> float:
    op_kind, family = _BOUNDARY_IDENTITY[kind]
    lhs = potentials.assemble(op_kind, phys, green=green, rows=phys_rows).matrix @ tv
    parts = [_family_matrix(family, i, epsilon, curve, series, fam_tables) @ tv
             for i in (1, 2, 3)]
    loge = math.log(epsilon)
    if family == "M":
        rhs = epsilon * parts[0] + epsilon * parts[1] + epsilon * loge * parts[2]
    else:
        rhs = parts[0] + epsilon * parts[1] + epsilon * loge * parts[2]
    return float(np.max(np.abs(lhs - rhs)))


def _far_identity_residual(kind, epsilon, tv, curve, phys, center, probes,
                           green) -> float:
    pts = np.atleast_2d(np.asarray(probes, dtype=float))
    dens_phys = potentials.Density(curve=phys, values=tv)
    p = np.asarray(center, dtype=float)
    diffs = (pts[:, None, :] - p[None, None, :]
             - epsilon * curve.points[None, :, :]).reshape(-1, 2)
    if kind == "far-single":
        lhs = potentials.field_eval("single", dens_phys, pts, green=green,
                                    check_distance=False).values
        vals, _ = qpgreen.green_eval(green, diffs)
        far = vals.reshape(len(pts), curve.N) @ (tv * curve.weights)
    else:
        lhs = potentials.field_eval("double", dens_phys, pts, green=green,
                                    check_distance=False).values
        _, grads = qpgreen.green_eval(green, diffs)
        grads = grads.reshape(len(pts), curve.N, 2)
        far = -np.einsum("pji,ji,j->p", grads, curve.normals, tv * curve.weights)
    return float(np.max(np.abs(lhs - epsilon * far)))


def rescaling_identity_suite(epsilon: float, theta: potentials.Density,
                             probes=None, *, center,
                             green: qpgreen.GreenEvaluator,
                             kinds=None) -> dict[str, float]:
    """Sup residuals between physical-curve assembly and its rescaled combination.

    Boundary kinds compare Nystrom traces on the physical hole boundary with
    the eps-weighted combination of the three family members; far kinds
    compare the layer field at probe points with the eps-scaled far map.  The
    physical curve's row set and the scaled family table are built once for
    every kind.  ``kinds`` defaults to all five with ``probes`` and to the
    boundary kinds without; far kinds need ``probes``.  Both rules are checked
    before any assembly, and the residuals come back in the order of
    ``kinds``.  Building the physical hole checks 0 < epsilon < the
    containment bound, so the family members are assembled without checking
    it again.
    """
    if kinds is None:
        kinds = IDENTITY_KINDS if probes is not None else \
            tuple(_BOUNDARY_IDENTITY)
    bad = set(kinds) - set(IDENTITY_KINDS)
    if bad:
        raise ValueError(f"unknown identity kinds: {sorted(bad)}")
    if probes is None and set(kinds) - set(_BOUNDARY_IDENTITY):
        raise ValueError("far-field identity kinds require probe points")
    curve = theta.curve
    tv = np.asarray(theta.values)
    phys = physical_curve(curve, center, epsilon, green.lattice)
    out = {}
    boundary = [k for k in kinds if k in _BOUNDARY_IDENTITY]
    if boundary:
        series = FamilySeries(curve, green.k, epsilon)
        phys_rows = potentials.nystrom_rows(
            phys, green, [_BOUNDARY_IDENTITY[kind][0] for kind in boundary])
        fam_tables = scaled_regular_tables(curve, epsilon, green)
        for kind in boundary:
            out[kind] = _boundary_identity_residual(
                kind, epsilon, tv, curve, phys, green,
                phys_rows=phys_rows, series=series, fam_tables=fam_tables)
    for kind in kinds:
        if kind not in _BOUNDARY_IDENTITY:
            out[kind] = _far_identity_residual(kind, epsilon, tv, curve, phys,
                                               center, probes, green)
    return {kind: out[kind] for kind in kinds}
