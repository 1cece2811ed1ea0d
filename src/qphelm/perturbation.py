"""Rescaled operator families for the shrinking-hole expansion.

A hole p + eps*Omega carries boundary operators whose eps-dependence untangles
into three fixed assemblies on the *reference* curve:

  index 1: free-space kernel at the rescaled wavenumber eps*k (log-quadrature),
  index 2: regular part R of the periodic Green function at rescaled distances
           eps*(x(t)-x(s)) (trapezoid; analytic through zero),
  index 3: the log-rescaling correction profile T(y) = J-profile(k|y|) at
           rescaled distances (trapezoid; the eps*log(eps) term of the split).

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

from . import geometry, potentials, qpgreen
from .errors import ContainmentError
from .geometry import DiscreteCurve
from .lattice import Lattice

__all__ = [
    "RescaledFamily",
    "rescaled_operator",
    "rescaling_identity_check",
    "rescaling_identity_suite",
    "scaled_regular_tables",
    "physical_curve",
    "leading_split",
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


def rescaled_operator(family: str, index: int, epsilon: float,
                      curve: DiscreteCurve, center, *,
                      green: qpgreen.GreenEvaluator, tables=None) -> RescaledFamily:
    """Assemble one rescaled family member on the reference curve.

    Index 1 depends on epsilon only through the wavenumber epsilon*k and is
    defined for every epsilon in (-eps0, eps0), including 0 (Laplace limit)
    and negative values.  ``tables`` may carry the precomputed regular-part
    pair at the scaled differences epsilon*(t-s); the index-2 table is
    identical for all three families at one epsilon.
    """
    _check_family(family, index)
    _check_epsilon(epsilon, curve, center, green.lattice)
    kind = _FAMILY_KIND[family]
    if index == 1:
        matrix = potentials.assemble_free(kind, curve, epsilon * green.k).matrix
        return RescaledFamily(family, index, float(epsilon), matrix, curve)

    nu = curve.normals
    if index == 2:
        if tables is None:
            tables = scaled_regular_tables(curve, epsilon, green)
        RV, RG = tables
        core = potentials._layer_core(kind, nu, nu, RV=RV, RG=RG)[1]
    else:
        # the J-profile that multiplies log|y| at y = epsilon*d is 2*A1
        y = epsilon * (curve.points[:, None, :] - curve.points[None, :, :])
        r = np.sqrt(np.sum(y * y, axis=2))
        core = 2.0 * potentials._layer_core(kind, nu, nu, d=y, r=r, k=green.k)[0]
    matrix = core * curve.weights[None, :]
    return RescaledFamily(family, index, float(epsilon), matrix, curve)


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
    """
    d = curve.points[:, None, :] - curve.points[None, :, :]
    return potentials._regular_tables(green, epsilon * d)


_BOUNDARY_IDENTITY = {"single-trace": ("single_trace", "M"),
                      "adjoint": ("adjoint_double", "N"),
                      "double-boundary": ("double_boundary", "P")}


def _boundary_identity_residual(kind, epsilon, tv, curve, phys, center, green,
                                phys_tables, fam_tables) -> float:
    op_kind, family = _BOUNDARY_IDENTITY[kind]
    lhs = potentials.assemble(op_kind, phys, green=green,
                              tables=phys_tables).matrix @ tv
    parts = [rescaled_operator(family, i, epsilon, curve, center, green=green,
                               tables=fam_tables if i == 2 else None).matrix @ tv
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


def rescaling_identity_check(kind: str, epsilon: float, theta: potentials.Density,
                             probes=None, *, center,
                             green: qpgreen.GreenEvaluator) -> float:
    """Sup residual between physical-curve assembly and its rescaled combination.

    Boundary kinds compare Nystrom traces on the physical hole boundary with
    the eps-weighted combination of the three family members; far kinds compare
    the layer field at probe points with the eps-scaled far map.
    """
    return rescaling_identity_suite(epsilon, theta, probes, center=center,
                                    green=green, kinds=(kind,))[kind]


def rescaling_identity_suite(epsilon: float, theta: potentials.Density,
                             probes=None, *, center,
                             green: qpgreen.GreenEvaluator,
                             kinds=None) -> dict[str, float]:
    """All identity residuals at one epsilon, sharing the regular-part tables.

    Equivalent to looping :func:`rescaling_identity_check` over the kinds but
    assembles the physical-curve table and the scaled family table only once.
    """
    if kinds is None:
        kinds = IDENTITY_KINDS if probes is not None else \
            tuple(_BOUNDARY_IDENTITY)
    bad = set(kinds) - set(IDENTITY_KINDS)
    if bad:
        raise ValueError(f"unknown identity kinds: {sorted(bad)}")
    if not 0.0 < epsilon:
        raise ContainmentError("identity check requires epsilon > 0")
    curve = theta.curve
    tv = np.asarray(theta.values)
    phys = physical_curve(curve, center, epsilon, green.lattice)
    out = {}
    boundary = [k for k in kinds if k in _BOUNDARY_IDENTITY]
    if boundary:
        phys_tables = potentials.regular_tables(phys, green)
        fam_tables = scaled_regular_tables(curve, epsilon, green)
        for kind in boundary:
            out[kind] = _boundary_identity_residual(
                kind, epsilon, tv, curve, phys, center, green,
                phys_tables=phys_tables, fam_tables=fam_tables)
    for kind in kinds:
        if kind in _BOUNDARY_IDENTITY:
            continue
        if probes is None:
            raise ValueError("far-field identity kinds require probe points")
        out[kind] = _far_identity_residual(kind, epsilon, tv, curve, phys,
                                           center, probes, green)
    return out


def leading_split(family: str, epsilon: float, curve: DiscreteCurve, center, *,
                  green: qpgreen.GreenEvaluator,
                  validated_radius: float | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Split the index-1 family as Laplace leading term + epsilon * remainder.

    The remainder is the divided difference (F1[eps] - F1[0])/eps; at eps = 0
    it is the series limit, which vanishes because the free-space kernels are
    even in the wavenumber.
    """
    _check_family(family, 1)
    bound = geometry.containment_bound(curve.curve, center, green.lattice)
    if validated_radius is None:
        validated_radius = 0.5 * bound
    if not abs(epsilon) <= validated_radius:
        raise ContainmentError(
            f"epsilon={epsilon} outside the validated radius {validated_radius:.6g}")
    kind = _FAMILY_KIND[family]
    leading = potentials.assemble_free(kind, curve, 0.0).matrix
    if epsilon == 0.0:
        remainder = np.zeros_like(leading)
    else:
        full = potentials.assemble_free(kind, curve, epsilon * green.k).matrix
        remainder = (full - leading) / epsilon
    return leading, remainder
