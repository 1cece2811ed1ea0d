"""Dirichlet and Neumann solvers for the exterior quasi-periodic problem.

The domain is the period cell minus a hole; fields are quasi-periodic across
the cell and satisfy the Helmholtz equation.  Dirichlet data is matched by a
combined representation u = D[mu] + i*A*S[mu] (A a caller-supplied 0/1 flag
turning on the single-layer coupling used near interior Neumann eigenvalues),
Neumann data by u = S[mu].  Both reduce to second-kind systems

    T = -I/2 + K + i*A*V      (Dirichlet trace of the representation)
    M =  I/2 + K*             (exterior normal derivative of S)

solved densely by LU with one step of iterative refinement.  A hole not
narrower than a period on both axes, whose copies may overlap, is refused.

The operators come from the Green evaluator ``green``, the problem context.
The solvers also take the problem's lattice and wave context and raise
ValueError unless ``green`` was built for that lattice and wavenumber.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import geometry, potentials, qpgreen
from .errors import ContainmentError, IllConditionedError
from .geometry import DiscreteCurve
from .lattice import Lattice, WaveContext

__all__ = [
    "BVPSolution",
    "solve_dirichlet",
    "solve_neumann",
    "CONDITION_WARN_THRESHOLD",
]

CONDITION_WARN_THRESHOLD = 1e8
# off-node points at which solves and the Robin sweep check the boundary condition
_N_CHECK = 16


@dataclass(frozen=True)
class BVPSolution:
    """Solved boundary-value problem: density, representation and diagnostics."""

    problem: str
    density: potentials.Density
    a_flag: int
    condition_estimate: float
    boundary_residual: float
    green: qpgreen.GreenEvaluator
    notes: tuple[str, ...]

    def field(self, points, want_gradients: bool = False) -> potentials.FieldSample:
        """Evaluate the represented solution away from the boundary.

        A point inside the hole or one of its periodic images
        (potentials.inside_hole) raises ValueError: the representation is
        not the solution there.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = potentials.inside_hole(self.density.curve, self.green.lattice, pts)
        if np.any(inside):
            raise ValueError(
                f"target {pts[np.argmax(inside)].tolist()} lies inside the hole (or a "
                f"periodic image of it), where the representation is not the solution")
        kind = _representation(self.problem, self.a_flag)[0]
        return potentials.field_eval(kind, self.density, pts,
                                     green=self.green, want_gradients=want_gradients)


def _lu_solve_refined(A: np.ndarray, b: np.ndarray, solve_tol: float):
    lu, piv = sla.lu_factor(A)
    x = sla.lu_solve((lu, piv), b)
    # one step of iterative refinement
    r = b - A @ x
    x = x + sla.lu_solve((lu, piv), r)
    r = b - A @ x
    scale = np.max(np.abs(b))
    relres = float(np.max(np.abs(r)) / scale) if scale > 0 else float(np.max(np.abs(r)))
    if relres > solve_tol:
        raise IllConditionedError(
            f"linear solve residual {relres:.3e} exceeds tolerance {solve_tol:.1e}"
        )
    anorm = np.linalg.norm(A, 1)
    rcond = lapack.zgecon(lu, anorm)[0]
    cond = float(1.0 / rcond) if rcond > 0 else float("inf")
    return x, cond


def _midpoint_taus(N: int) -> np.ndarray:
    # midpoints of the discretization grid itself are never nodes
    idx = np.unique(np.round(np.linspace(0, N - 1, _N_CHECK)).astype(int))
    return (2 * idx + 1) * np.pi / N


def _representation(problem: str, a_flag: int):
    """(field kind, jump, [(operator kind, coefficient)]) of a problem's ansatz.

    Its boundary operator is jump*I + sum(coefficient * operator), taken on
    the nodes for the solve and off them for the boundary residual.
    """
    if problem == "dirichlet":
        if a_flag:
            return "combined", -0.5, [("double_boundary", 1), ("single_trace", 1j)]
        return "double", -0.5, [("double_boundary", 1)]
    return "single", 0.5, [("adjoint_double", 1)]


def _solve_common(problem, curve, lattice, wave, data, a_flag, green, solve_tol):
    if green.lattice != lattice or green.k != complex(wave.k):
        raise ValueError(
            f"Green evaluator built for q={green.lattice.q_diag}, "
            f"eta={green.lattice.eta}, k={green.k}; the solve asks for "
            f"q={lattice.q_diag}, eta={lattice.eta}, k={complex(wave.k)}")
    lo, hi = curve.curve.extent
    span = tuple(float(v) for v in hi - lo)
    if any(s >= q for s, q in zip(span, lattice.q_diag)):
        raise ContainmentError(
            f"hole spans {span}, not narrower than the periods {lattice.q_diag} "
            "on both axes: its periodic copies may overlap")
    g = np.asarray(data, dtype=complex)
    _, jump, terms = _representation(problem, a_flag)
    kinds = [kind for kind, _ in terms]
    rows = potentials.nystrom_rows(curve, green, kinds)
    notes = []
    # no image lies nearer than the extent bound; below the spacing, the node
    # pairs that Lattice.reduce moves are the pairs between images
    spacing = float(np.max(curve.weights))
    if min(q - s for s, q in zip(span, lattice.q_diag)) < spacing:
        xr, shift = lattice.reduce(rows.d)
        gap = float(np.sqrt(np.min(np.sum(xr * xr, axis=-1)[np.any(shift != 0.0, axis=-1)],
                                   initial=np.inf)))
        if gap < spacing:
            notes.append(f"the hole comes within {gap:.3g} of its periodic image, "
                         f"below the node spacing {spacing:.3g}; accuracy degrades")
            warnings.warn(notes[-1], potentials.AccuracyGuardWarning, stacklevel=3)
    A = jump * np.eye(curve.N)
    for kind, c in terms:
        A = A + c * potentials.assemble(kind, curve, green=green, rows=rows).matrix
    del rows  # its N x N arrays go before the LU and the trace rows
    mu, cond = _lu_solve_refined(A.astype(complex), g, solve_tol)

    # boundary-condition residual at off-node midpoints
    taus = _midpoint_taus(curve.N)
    rows = potentials.nystrom_rows(curve, green, kinds, taus)
    trace = jump * geometry.trig_interpolate(mu, taus)
    for kind, c in terms:
        trace = trace + c * (potentials.boundary_trace_rows(kind, curve, taus, green=green,
                                                            rows=rows) @ mu)
    residual = float(np.max(np.abs(trace - geometry.trig_interpolate(g, taus))))

    if cond > CONDITION_WARN_THRESHOLD:
        notes.append(f"condition estimate {cond:.2e} exceeds {CONDITION_WARN_THRESHOLD:.0e}; "
                     "wavenumber may sit near an interior eigenvalue")
        warnings.warn(notes[-1], stacklevel=3)
    return BVPSolution(problem=problem,
                       density=potentials.Density(curve=curve, values=mu),
                       a_flag=int(a_flag), condition_estimate=cond,
                       boundary_residual=residual, green=green, notes=tuple(notes))


def solve_dirichlet(curve: DiscreteCurve, lattice: Lattice, wave: WaveContext,
                    data, a_flag: int = 0, *, green: qpgreen.GreenEvaluator,
                    solve_tol: float = 1e-10) -> BVPSolution:
    """Solve the exterior quasi-periodic Dirichlet problem around one hole.

    Parameters
    ----------
    curve : DiscreteCurve for the hole boundary.
    lattice, wave : the problem's lattice and wavenumber; ``green`` must have
        been built for the same ones (ValueError otherwise).
    data : nodal array of boundary values.
    a_flag : 0 or 1; 1 adds the i*V coupling that restores unique solvability
        when k^2 is an interior Neumann eigenvalue of the hole.
    """
    return _solve_common("dirichlet", curve, lattice, wave, data, a_flag, green,
                         solve_tol)


def solve_neumann(curve: DiscreteCurve, lattice: Lattice, wave: WaveContext,
                  data, *, green: qpgreen.GreenEvaluator,
                  solve_tol: float = 1e-10) -> BVPSolution:
    """Solve the exterior quasi-periodic Neumann problem around one hole.

    ``data`` holds the normal derivative at the nodes.  ``green`` must have
    been built for ``lattice`` and ``wave.k``.
    """
    return _solve_common("neumann", curve, lattice, wave, data, 0, green, solve_tol)
