"""Nystrom assembly of boundary-layer operators and field evaluation.

Kernels split into A1(t,s) log(4 sin^2((t-s)/2)) + A2(t,s) with A1, A2 smooth;
the log factor is integrated by the classical spectrally accurate product
quadrature on equispaced nodes and A2 by the plain trapezoid rule.  The same
splits serve the quasi-periodic kernel (free-space profile plus analytic
remainder of the periodic Green function) and the free-space kernel at any
wavenumber, including zero (the Laplace limit the perturbation theory needs).

One row set per curve, ``NystromRows``, builds the node matrices or the
off-node trace rows of every kind from geometry, tables and profiles built
once.  The periodic remainder is a pairwise (value, gradient) table that
``_table_kernel`` contracts by operator kind, as the index-2 rescaled
families of :mod:`qphelm.perturbation` do.

Off the curve, ``field_eval`` takes every layer potential and its gradient
from G and grad G alone, the double layer's gradient by parts.

Operator kinds:

- ``single_trace``      V:  integral of G(x_t - x_s) mu(s) dsigma_s
- ``double_boundary``   K:  integral of  d/dnu(y_s) G(x_t - x_s) mu(s) dsigma_s
- ``adjoint_double``    K*: integral of  d/dnu(x_t) G(x_t - x_s) mu(s) dsigma_s
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

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
    "NystromRows",
    "nystrom_rows",
    "assemble",
    "assemble_free",
    "boundary_trace_rows",
    "field_eval",
    "inside_hole",
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
# Nystrom rows
# --------------------------------------------------------------------------- #

def _contract(kind: str, target_normals: np.ndarray, source_normals: np.ndarray,
              v: np.ndarray) -> np.ndarray:
    """Normal derivative taken by a double-type kind of a pairwise vector table.

    K* differentiates at the target, nu(x_t) . v; K at the source, where
    d/dnu(y) G(x - y) = -nu(y_s) . v.
    """
    if kind == "adjoint_double":
        return np.einsum("ti,tsi->ts", target_normals, v)
    return -np.einsum("si,tsi->ts", source_normals, v)


def _table_kernel(kind: str, target_normals: np.ndarray, source_normals: np.ndarray,
                  values: np.ndarray, gradients: np.ndarray) -> np.ndarray:
    """Kernel of one operator kind from a pairwise (value, gradient) table.

    V reads the values; K and K* take the normal derivative of the gradients.
    """
    if kind == "single_trace":
        return values
    return _contract(kind, target_normals, source_normals, gradients)


class NystromRows:
    """The Nystrom rows of one curve for its ``kinds``: at the nodes (taus None) or at taus.

    Built once: d = x(tau) - y(s), r = |d|, L = log(|d| / (2 |sin((tau - s)/2)|)),
    the log weights W, the target normals and, with ``green``, the periodic
    kernel's regular-part ``tables`` (else free space at k; a float k stays
    real); on first use, z = k r (``specfun.ProfilePoints``) and J2 = J~0(z)/(2 pi).
    A double kind's nd = nu . d, ratio = nd / r^2 and a kind's other profiles
    come on request, each kind once, in any order; d goes once no double kind
    is left, z once no kind is.  On the nodes L -> log |x'|, ratio -> kappa/2.
    """

    def __init__(self, curve: DiscreteCurve, kinds, k: complex | float, taus,
                 green: qpgreen.GreenEvaluator | None):
        self.curve, self.k, self.green, self._pending = curve, k, green, list(kinds)
        self.taus = None if taus is None else np.atleast_1d(np.asarray(taus, dtype=float))
        self.tables = None if green is None else regular_tables(curve, green, self.taus)
        if self.taus is None:
            ts, xt, self.target_normals = curve.t, curve.points, curve.normals
        else:
            ts = self.taus
            xt, vt = curve.curve.position(ts), curve.curve.velocity(ts)
            st = np.sqrt(np.sum(vt * vt, axis=-1))
            self.target_normals = np.stack([vt[:, 1], -vt[:, 0]], axis=-1) / st[:, None]
        self.d = xt[:, None, :] - curve.points[None, :, :]
        self.r = np.sqrt(np.sum(self.d * self.d, axis=2))
        if self.taus is not None and np.any(self.r == 0.0):
            raise ValueError("off-node targets must avoid the quadrature nodes")
        with np.errstate(divide="ignore", invalid="ignore"):
            self.L = np.log(self.r / (2.0 * np.abs(np.sin(0.5 * (ts[:, None] - curve.t)))))
        if self.taus is None:
            np.fill_diagonal(self.L, np.log(curve.speeds))
        self.W = log_weight_matrix(curve.N) if self.taus is None else log_weight_rows(curve.N, ts)

    def _check(self, curve: DiscreteCurve, green, taus):
        """Refuse to serve rows of another curve, evaluator or set of taus."""
        if curve is not self.curve or green is not self.green \
                or not np.array_equal(self.taus, taus):
            raise ValueError("the row set was built for another curve, Green "
                             "evaluator or set of taus")

    @cached_property
    def _shared(self) -> tuple:
        """(z, J2): the profiles' argument and the one profile every kind takes."""
        z = specfun.ProfilePoints(self.k * self.r)
        return z, specfun.entire_bessel_J(0.0, z) / (2.0 * np.pi)

    def contraction(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(nd, ratio) of a double kind."""
        nd = _contract(kind, self.target_normals, self.curve.normals, self.d)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = nd / (self.r * self.r)
        if self.taus is None:
            # curvature limit of (nu . d)/r^2: +kappa/2 for both orientations
            np.fill_diagonal(ratio, 0.5 * self.curve.curvature)
        return nd, ratio

    def matrix(self, kind: str) -> np.ndarray:
        """The rows of one kind: V combines (J2, N2), the log and remainder
        profiles of the kernel; K and K* their derivatives over z, (gJ, gN), and J2."""
        if kind not in OPERATOR_KINDS or kind not in self._pending:
            raise ValueError(f"operator kind {kind!r} is unknown or not left in this row set")
        self._pending.remove(kind)
        z, J2 = self._shared
        if kind == "single_trace":
            contraction, profiles = None, (J2, specfun.entire_neumann(2, z) / 4.0)
        else:
            contraction = self.contraction(kind)
            profiles = (*specfun.fs_coefficients_dz_over_z(2, z), J2)
        if all(p == "single_trace" for p in self._pending):
            self.d = None
        if not self._pending:
            del self._shared, z
        return _combine(kind, self, contraction, self.k * self.k, profiles)


def _combine(kind: str, rows: NystromRows, contraction, k2, profiles) -> np.ndarray:
    """Nystrom rows from the geometry and the profiles: W A1 + (2 pi / N) A2.

    The profiles give the log factor A1 and, with L, the smooth part A2; the
    rows' regular-part tables of the periodic kernel add to A2.  The double
    kinds read their ``contraction`` (nd, ratio) and scale their derivative
    profiles by k2 = k^2.
    """
    dc = rows.curve
    if kind == "single_trace":
        J2, N2 = profiles
        A1 = 0.5 * J2
        A2 = J2 * rows.L + N2
    else:
        (gJ, gN, J2), (nd, ratio) = profiles, contraction
        A1 = 0.5 * k2 * gJ * nd
        A2 = k2 * gJ * nd * rows.L + J2 * ratio + k2 * gN * nd
    if rows.tables is not None:
        A2 = A2 + _table_kernel(kind, rows.target_normals, dc.normals, *rows.tables)
    return (rows.W * A1 + (2.0 * np.pi / dc.N) * A2) * dc.speeds[None, :]


def regular_tables(curve: DiscreteCurve, green: qpgreen.GreenEvaluator, taus=None):
    """Pairwise regular-part tables (values, gradients) for a discrete curve.

    Rows are the nodes, or with ``taus`` the curve points at those parameters;
    :func:`nystrom_rows` builds them once for every operator kind.  A curve
    whose enclosing disk (``BoundaryCurve.disk``) passes
    ``qpgreen.separable_order`` takes ``qpgreen.separable_tables``: a matrix
    product of basis tables, within rounding of the pointwise values.  Any
    other curve takes ``qpgreen.regular_part``, which evaluates the
    antisymmetric node table on its upper triangle and rows at ``taus`` point
    by point.  Either way a row does not depend on the other ``taus``.
    """
    targets = curve.points if taus is None else \
        curve.curve.position(np.atleast_1d(np.asarray(taus, dtype=float)))
    tables = qpgreen.separable_tables(green, targets, curve.points, *curve.curve.disk)
    if tables is None:
        tables = qpgreen.regular_part(green, targets[:, None, :] - curve.points[None, :, :])
    return tables


def nystrom_rows(curve: DiscreteCurve, green: qpgreen.GreenEvaluator, kinds,
                 taus=None) -> NystromRows:
    """The periodic row set of a curve for ``kinds``: at its nodes, or at off-node ``taus``.

    Pass it as ``rows=`` to :func:`assemble` (node rows) or
    :func:`boundary_trace_rows` (the same ``taus``), which refuse a row set
    built for another curve, evaluator or set of taus, and a kind it has
    already served or was not built for."""
    return NystromRows(curve, kinds, green.k, taus, green)


def assemble(kind: str, curve: DiscreteCurve, *, green: qpgreen.GreenEvaluator,
             rows: NystromRows | None = None) -> BoundaryOperator:
    """Assemble a quasi-periodic boundary operator on the given curve."""
    if rows is None:
        rows = nystrom_rows(curve, green, (kind,))
    rows._check(curve, green, None)
    return BoundaryOperator(kind=kind, matrix=rows.matrix(kind), curve=curve)


def assemble_free(kind: str, curve: DiscreteCurve, k: complex) -> BoundaryOperator:
    """Assemble the free-space analogue at wavenumber k (k = 0 gives Laplace).

    A real k (Im k = 0) assembles in real arithmetic, into a real matrix.
    """
    M = NystromRows(curve, (kind,), qpgreen._wavenumber(k), None, None).matrix(kind)
    return BoundaryOperator(kind=kind, matrix=M, curve=curve)


def boundary_trace_rows(kind: str, dc: DiscreteCurve, taus, *,
                        green: qpgreen.GreenEvaluator,
                        rows: NystromRows | None = None) -> np.ndarray:
    """Off-node evaluation rows of a quasi-periodic boundary operator at taus.

    ``rows`` may carry ``nystrom_rows(dc, green, kinds, taus)``.  taus must
    avoid the nodes (the on-node limits live in the assembled matrices).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if rows is None:
        rows = nystrom_rows(dc, green, (kind,), taus)
    rows._check(dc, green, taus)
    return rows.matrix(kind)


# --------------------------------------------------------------------------- #
# field evaluation
# --------------------------------------------------------------------------- #

def _distance_guard(dc: DiscreteCurve, lattice: Lattice, points: np.ndarray):
    """Warn about points closer than the node spacing to a node or a periodic image.

    Each point-node difference is reduced into the centred cell, which on a
    rectangular lattice leaves the difference to the nearest image.
    """
    spacing = float(np.max(dc.weights))
    q = lattice.q
    d = points[:, None, :] - dc.points[None, :, :]
    d -= np.round(d / q) * q
    close = np.min(np.sum(d * d, axis=2), axis=1) < spacing * spacing
    if np.any(close):
        warnings.warn(
            f"{int(np.sum(close))} evaluation point(s) closer to the source "
            f"curve than the node spacing {spacing:.3g}; accuracy degrades there",
            AccuracyGuardWarning,
            stacklevel=3,
        )


def inside_hole(dc: DiscreteCurve, lattice: Lattice, points) -> np.ndarray:
    """Which points lie inside the hole bounded by dc, or inside a periodic image of it.

    Each point is reduced into the box [lo, lo + q) whose corner lo holds the
    least node coordinate on each axis.  A hole narrower than a period meets
    no image of itself inside that box, so the crossings of a ray from the
    reduced point with the one node polygon decide, by their parity.  The
    polygon stands in for the curve: a point on which the two disagree lies
    within a chord's sagitta of the curve, inside one node spacing, where
    _distance_guard already warns.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    q = lattice.q
    lo = np.min(dc.points, axis=0)
    p = pts - np.floor((pts - lo) / q) * q
    a, b = dc.points, np.roll(dc.points, -1, axis=0)
    x, y = p[:, :1], p[:, 1:]
    # edge j spans the height y; a level edge never does, so its zero
    # division is discarded
    spans = (a[:, 1] > y) != (b[:, 1] > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        at = a[:, 0] + (y - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
    return np.count_nonzero(spans & (x < at), axis=1) % 2 == 1


def field_eval(kind: str, density: Density, points, *,
               green: qpgreen.GreenEvaluator,
               want_gradients: bool = False, check_distance: bool = True) -> FieldSample:
    """Evaluate a layer potential off the curve by plain quadrature.

    Every kind takes one Green call, green_eval at the point-node
    differences.  The double layer's gradient needs no Hessian: G solves
    Delta G = -k^2 G off the lattice, so integrating by parts around the
    closed curve gives Maue's identity (Kress, Linear Integral Equations,
    3rd ed., 2014), with mu' = d mu / ds and rot f = (d_2 f, -d_1 f):

        grad D[mu] = k^2 S[nu mu] + rot S[mu'].
    """
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dc = density.curve
    mu = np.asarray(density.values)
    mu_w = mu * dc.weights
    if check_distance:
        _distance_guard(dc, green.lattice, pts)
    d = (pts[:, None, :] - dc.points[None, :, :]).reshape(-1, 2)
    shape = (len(pts), dc.N)
    vals = np.zeros(len(pts), dtype=complex)
    grads = np.zeros((len(pts), 2), dtype=complex) if want_gradients else None
    v, g = qpgreen.green_eval(green, d)
    v, g = v.reshape(shape), g.reshape(shape + (2,))
    if kind != "single":
        # d/dnu(y) G(x - y) = -nu(y) . (grad G)(x - y)
        vals -= np.einsum("pji,ji,j->p", g, dc.normals, mu_w)
        if want_gradients:
            # mu'_j w_j = (2 pi / N) d mu / dt at t_j: the spectral derivative,
            # whose Nyquist mode (a cosine, see geometry.trig_interpolate) has
            # zero slope at the nodes
            m = np.fft.fftfreq(dc.N, d=1.0 / dc.N)
            m[dc.N // 2] = 0.0
            dmu_w = np.fft.ifft(1j * m * np.fft.fft(mu)) * (2.0 * np.pi / dc.N)
            grads += green.k * green.k * (v @ (dc.normals * mu_w[:, None]))
            grads[:, 0] += g[..., 1] @ dmu_w
            grads[:, 1] -= g[..., 0] @ dmu_w
    if kind != "double":
        c = 1.0 if kind == "single" else 1j
        vals += c * (v @ mu_w)
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
