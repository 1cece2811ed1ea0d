"""Nystrom assembly of boundary-layer operators and field evaluation.

Kernels split into A1(t,s) log(4 sin^2((t-s)/2)) + A2(t,s) with A1, A2 smooth;
the log factor is integrated by the classical spectrally accurate product
quadrature on equispaced nodes and A2 by the plain trapezoid rule.  The same
splits serve the quasi-periodic kernel (free-space profile plus analytic
remainder of the periodic Green function) and the free-space kernel at any
wavenumber, including zero (the Laplace limit the perturbation theory needs).

Operator kinds:

- ``single_trace``      V:  integral of G(x_t - x_s) mu(s) dsigma_s
- ``double_boundary``   K:  integral of  d/dnu(y_s) G(x_t - x_s) mu(s) dsigma_s
- ``adjoint_double``    K*: integral of  d/dnu(x_t) G(x_t - x_s) mu(s) dsigma_s
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import qpgreen, specfun
from .geometry import DiscreteCurve
from .lattice import Lattice

__all__ = [
    "OPERATOR_KINDS",
    "FIELD_KINDS",
    "BoundaryOperator",
    "Density",
    "FieldSample",
    "AccuracyGuardWarning",
    "log_weight_matrix",
    "log_weight_rows",
    "regular_tables",
    "assemble",
    "assemble_free",
    "boundary_trace_rows",
    "field_eval",
    "cell_flux_integral",
]

OPERATOR_KINDS = ("single_trace", "double_boundary", "adjoint_double")
# "combined" is D[mu] + i S[mu], the Dirichlet representation with a_flag = 1
FIELD_KINDS = ("single", "double", "combined")
# Gauss-Legendre panels per cell edge and nodes per panel of the flux pairing
_FLUX_PANELS, _FLUX_ORDER = 6, 12


class AccuracyGuardWarning(UserWarning):
    """Field evaluation requested closer to the source curve than the node spacing."""


@dataclass(frozen=True)
class BoundaryOperator:
    """Dense Nystrom matrix for one boundary operator."""

    kind: str
    matrix: np.ndarray
    curve: DiscreteCurve

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(values)


@dataclass(frozen=True)
class Density:
    """Nodal boundary density on a discrete curve."""

    curve: DiscreteCurve
    values: np.ndarray


@dataclass(frozen=True)
class FieldSample:
    """Field values (and optionally gradients) at scattered points."""

    points: np.ndarray
    values: np.ndarray
    gradients: np.ndarray | None = None


# --------------------------------------------------------------------------- #
# log-quadrature weights
# --------------------------------------------------------------------------- #

def log_weight_rows(N: int, taus) -> np.ndarray:
    """Quadrature weights R_j(tau) for integrands f(s) log(4 sin^2((tau-s)/2)).

    Exact for trigonometric polynomials f of degree < N/2 at any target tau.
    """
    if N % 2 != 0:
        raise ValueError("even node count required")
    n = N // 2
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    m = np.arange(1, n + 1)
    # R_j(tau) = sum_m w_m cos(m (tau - t_j)), split by the angle-difference formula
    w = -(2.0 * np.pi / n) / m
    w[-1] = -np.pi / n ** 2
    at_taus = np.outer(taus, m)
    at_nodes = np.outer(m, 2.0 * np.pi * np.arange(N) / N)
    return np.cos(at_taus) @ (w[:, None] * np.cos(at_nodes)) \
        + np.sin(at_taus) @ (w[:, None] * np.sin(at_nodes))


def log_weight_matrix(N: int) -> np.ndarray:
    """Node-to-node log-quadrature weights (circulant in i - j)."""
    row = log_weight_rows(N, [0.0])[0]
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return row[idx]


# --------------------------------------------------------------------------- #
# kernel tables
# --------------------------------------------------------------------------- #

def _smooth_log_ratio(r: np.ndarray, dt: np.ndarray, diag_speeds: np.ndarray | None):
    """L = log(r / (2 |sin(dt/2)|)); its diagonal limit is log |x'|."""
    s = 2.0 * np.abs(np.sin(0.5 * dt))
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log(r / s)
    if diag_speeds is not None:
        np.fill_diagonal(L, np.log(diag_speeds))
    return L


def _regular_tables(green: qpgreen.GreenEvaluator, d: np.ndarray):
    flat = d.reshape(-1, 2)
    RV, RG = qpgreen.regular_part(green, flat)
    return RV.reshape(d.shape[:-1]), RG.reshape(d.shape)


def _contract(kind: str, target_normals: np.ndarray, source_normals: np.ndarray,
              v: np.ndarray) -> np.ndarray:
    """Normal derivative taken by a double-type kind of a pairwise vector table.

    K* differentiates at the target, nu(x_t) . v; K at the source, where
    d/dnu(y) G(x - y) = -nu(y_s) . v.
    """
    if kind == "adjoint_double":
        return np.einsum("ti,tsi->ts", target_normals, v)
    return -np.einsum("si,tsi->ts", source_normals, v)


def _layer_core(kind: str, target_normals: np.ndarray, source_normals: np.ndarray,
                *, d: np.ndarray | None = None, r: np.ndarray | None = None,
                L: np.ndarray | None = None, k: complex | None = None,
                RV: np.ndarray | None = None, RG: np.ndarray | None = None,
                ratio_diagonal: np.ndarray | None = None):
    """Kernel split (A1, A2) of one operator kind at pairwise differences d.

    The free-space profile at k|d| gives the log factor A1 and, with the smooth
    log ratio L, its smooth part; the regular-part tables (RV, RG) of the
    periodic kernel add to A2.  ``k=None`` leaves only that regular part
    (A1 None); ``L=None`` leaves only A1, half the coefficient of log|d|.
    ``ratio_diagonal`` is the on-node limit of (nu . d)/|d|^2.
    """
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    single = kind == "single_trace"
    A1 = A2 = None
    if k is not None:
        z = k * r
        if single:
            J2, N2 = specfun.fs_coefficients(2, z)
            A1 = 0.5 * J2
            if L is not None:
                A2 = J2 * L + N2
        else:
            k2 = k * k
            nd = _contract(kind, target_normals, source_normals, d)
            z = specfun.ProfilePoints(z)
            gJ, gN = specfun.fs_coefficients_dz_over_z(2, z)
            A1 = 0.5 * k2 * gJ * nd
            if L is not None:
                J2 = specfun.entire_bessel_J(0.0, z) / (2.0 * np.pi)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = nd / (r * r)
                if ratio_diagonal is not None:
                    np.fill_diagonal(ratio, ratio_diagonal)
                A2 = k2 * gJ * nd * L + J2 * ratio + k2 * gN * nd
    if RV is not None:
        reg = RV if single else _contract(kind, target_normals, source_normals, RG)
        A2 = reg if A2 is None else A2 + reg
    return A1, A2


def _assemble_matrix(kind: str, dc: DiscreteCurve, k: complex,
                     RV: np.ndarray | None, RG: np.ndarray | None) -> np.ndarray:
    d = dc.points[:, None, :] - dc.points[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=2))
    L = _smooth_log_ratio(r, dc.t[:, None] - dc.t[None, :], dc.speeds)
    # curvature limit of (nu . d)/r^2: +kappa/2 for both orientations
    A1, A2 = _layer_core(kind, dc.normals, dc.normals, d=d, r=r, L=L, k=k,
                         RV=RV, RG=RG, ratio_diagonal=0.5 * dc.curvature)
    return (log_weight_matrix(dc.N) * A1 + (2.0 * np.pi / dc.N) * A2) \
        * dc.speeds[None, :]


def regular_tables(curve: DiscreteCurve, green: qpgreen.GreenEvaluator, taus=None):
    """Pairwise regular-part tables (values, gradients) for a discrete curve.

    Rows are the nodes, or with ``taus`` the curve points at those parameters.
    Precompute once and pass via ``tables=`` to :func:`assemble` (node rows)
    or :func:`boundary_trace_rows` (the same ``taus``) when several operator
    kinds share one curve — the table is the dominant cost and is identical
    across kinds.
    """
    d = _targets(curve, taus)[:, None, :] - curve.points[None, :, :]
    return _regular_tables(green, d)


def _targets(dc: DiscreteCurve, taus) -> np.ndarray:
    if taus is None:
        return dc.points
    return dc.curve.position(np.atleast_1d(np.asarray(taus, dtype=float)))


def assemble(kind: str, curve: DiscreteCurve, *, green: qpgreen.GreenEvaluator,
             tables=None) -> BoundaryOperator:
    """Assemble a quasi-periodic boundary operator on the given curve."""
    if tables is None:
        tables = regular_tables(curve, green)
    M = _assemble_matrix(kind, curve, green.k, *tables)
    return BoundaryOperator(kind=kind, matrix=M, curve=curve)


def assemble_free(kind: str, curve: DiscreteCurve, k: complex) -> BoundaryOperator:
    """Assemble the free-space analogue at wavenumber k (k = 0 gives Laplace)."""
    M = _assemble_matrix(kind, curve, complex(k), None, None)
    return BoundaryOperator(kind=kind, matrix=M, curve=curve)


def boundary_trace_rows(kind: str, dc: DiscreteCurve, taus, *,
                        green: qpgreen.GreenEvaluator, tables=None) -> np.ndarray:
    """Off-node evaluation rows of a quasi-periodic boundary operator at taus.

    ``tables`` may carry ``regular_tables(dc, green, taus)``.  taus must avoid
    the nodes (the on-node limits live in the assembled matrices).
    """
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    curve = dc.curve
    xt = _targets(dc, taus)
    vt = curve.velocity(taus)
    st = np.sqrt(np.sum(vt * vt, axis=-1))
    nut = np.stack([vt[:, 1], -vt[:, 0]], axis=-1) / st[:, None]
    if not curve.outward_normal:
        nut = -nut
    d = xt[:, None, :] - dc.points[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=2))
    if np.any(r == 0.0):
        raise ValueError("off-node targets must avoid the quadrature nodes")
    L = _smooth_log_ratio(r, taus[:, None] - dc.t[None, :], None)
    RV, RG = _regular_tables(green, d) if tables is None else tables
    A1, A2 = _layer_core(kind, nut, dc.normals, d=d, r=r, L=L, k=green.k, RV=RV, RG=RG)
    return (log_weight_rows(dc.N, taus) * A1 + (2.0 * np.pi / dc.N) * A2) \
        * dc.speeds[None, :]


# --------------------------------------------------------------------------- #
# field evaluation
# --------------------------------------------------------------------------- #

def _distance_guard(dc: DiscreteCurve, lattice: Lattice, points: np.ndarray):
    spacing = float(np.max(dc.weights))
    shifts = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
    y = (dc.points[None, :, :] + (shifts * lattice.q)[:, None, :]).reshape(-1, 2)
    dmin = np.min(
        np.sqrt(np.sum((points[:, None, :] - y[None, :, :]) ** 2, axis=2)), axis=1
    )
    if np.any(dmin < spacing):
        warnings.warn(
            f"{int(np.sum(dmin < spacing))} evaluation point(s) closer to the source "
            f"curve than the node spacing {spacing:.3g}; accuracy degrades there",
            AccuracyGuardWarning,
            stacklevel=3,
        )


def field_eval(kind: str, density: Density, points, *,
               green: qpgreen.GreenEvaluator,
               want_gradients: bool = False, check_distance: bool = True) -> FieldSample:
    """Evaluate a layer potential off the curve by plain quadrature.

    Every kind takes one Green call at the point-node differences: values and
    gradients, plus Hessians for the gradient of a double layer.
    """
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dc = density.curve
    mu_w = np.asarray(density.values) * dc.weights
    if check_distance:
        _distance_guard(dc, green.lattice, pts)
    d = (pts[:, None, :] - dc.points[None, :, :]).reshape(-1, 2)
    shape = (len(pts), dc.N)
    vals = np.zeros(len(pts), dtype=complex)
    grads = np.zeros((len(pts), 2), dtype=complex) if want_gradients else None
    if kind != "single" and want_gradients:
        v, g, H = qpgreen.green_hessian(green, d)
    else:
        v, g = qpgreen.green_eval(green, d)
    g = g.reshape(shape + (2,))
    if kind != "single":
        # d/dnu(y) G(x - y) = -nu(y) . (grad G)(x - y)
        vals -= np.einsum("pji,ji,j->p", g, dc.normals, mu_w)
        if want_gradients:
            H = H.reshape(shape + (2, 2))
            grads -= np.einsum("pjil,jl,j->pi", H, dc.normals, mu_w)
    if kind != "double":
        c = 1.0 if kind == "single" else 1j
        vals += c * (v.reshape(shape) @ mu_w)
        if want_gradients:
            grads += c * np.einsum("pji,j->pi", g, mu_w)
    return FieldSample(points=pts, values=vals, gradients=grads)


def cell_flux_integral(kind: str, density: Density, *,
                       green: qpgreen.GreenEvaluator) -> tuple[complex, float]:
    """Outward flux pairing of a layer field over the cell boundary.

    Returns (integral of dv/dnu * conj(v) over the cell boundary, integral of
    |v|^2): quasi-periodicity makes the first vanish for real quasi-momentum.
    """
    from scipy.special import roots_legendre

    lat = green.lattice
    q = lat.q
    xg, wg = roots_legendre(_FLUX_ORDER)
    nodes, weights, normals = [], [], []
    for axis in range(2):
        L = q[axis]
        for pl in range(_FLUX_PANELS):
            a = L * pl / _FLUX_PANELS
            b = L * (pl + 1) / _FLUX_PANELS
            s = 0.5 * (a + b) + 0.5 * (b - a) * xg
            w = 0.5 * (b - a) * wg
            for side, nrm in ((0.0, -1.0), (q[1 - axis], 1.0)):
                pts = np.zeros((_FLUX_ORDER, 2))
                pts[:, axis] = s
                pts[:, 1 - axis] = side
                nv = np.zeros(2)
                nv[1 - axis] = nrm
                nodes.append(pts)
                weights.append(w)
                normals.append(np.tile(nv, (_FLUX_ORDER, 1)))
    pts = np.concatenate(nodes, axis=0)
    ws = np.concatenate(weights, axis=0)
    nrm = np.concatenate(normals, axis=0)
    sample = field_eval(kind, density, pts, green=green, want_gradients=True,
                        check_distance=False)
    dn = np.einsum("pi,pi->p", nrm, sample.gradients)
    flux = complex(np.sum(ws * dn * np.conj(sample.values)))
    norm2 = float(np.sum(ws * np.abs(sample.values) ** 2).real)
    return flux, norm2
