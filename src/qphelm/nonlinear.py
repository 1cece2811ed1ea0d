"""Nonlinear Robin problem on a shrinking hole: Newton continuation in epsilon.

The field u = S[theta on the physical hole boundary] satisfies the nonlinear
boundary condition d/dnu u = G(u) exactly when the rescaled density theta on
the reference curve solves

    Lambda[eps, r, theta]
        = theta/2 + N1[eps] theta + eps N2 theta + r N3 theta
          - G(eps M1[eps] theta + eps M2 theta + r M3 theta) = 0,

with r the auxiliary variable standing in for eps*log(eps) (slaved to that
value in actual solves; kept free so Lambda is analytic in (eps, r), and
``OperatorPack.residual`` and ``.jacobian`` take any r).  At
(0, 0) this reduces to the Laplace limit equation theta/2 + K* theta = G(0),
whose solution seeds the continuation.

The Green evaluator is the problem context: the pack, Newton, sweep and
reconstruction functions take it as ``green`` and read the lattice and k from
it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import geometry, perturbation, potentials, qpgreen, solvers
from .errors import IllConditionedError, NewtonDivergenceError
from .geometry import DiscreteCurve
from .lattice import Lattice

__all__ = [
    "RobinNonlinearity",
    "ContinuationState",
    "OperatorPack",
    "FarFieldFit",
    "make_nonlinearity",
    "derivative_gate",
    "build_pack",
    "limit_density",
    "solve_theta",
    "continuation_sweep",
    "reconstruct_field",
    "boundary_condition_residual",
    "far_field_scaling",
    "default_epsilon_grid",
]

# Newton: iteration cap and step halvings per iteration
_MAX_ITER, _MAX_HALVINGS = 40, 8
_LIMIT_SOLVE_TOL = 1e-12
# continuations start at this share of eps0, inside the validated radius;
# the default sweep ends at the floor
_START_SHARE, _EPSILON_FLOOR = 0.25, 1e-3


@dataclass(frozen=True)
class RobinNonlinearity:
    """Pointwise boundary nonlinearity u -> G(u) with derivative."""

    fn: callable
    dfn: callable
    description: str

    def __call__(self, u):
        return self.fn(u)


def derivative_gate(B: RobinNonlinearity) -> float:
    """Check dfn against central differences at 20 seeded random complex points."""
    rng = np.random.default_rng(0)
    pts = rng.normal(size=20) + 1j * rng.normal(size=20)
    worst = 0.0
    for u in pts:
        h = 1e-6 * max(1.0, abs(u))
        fd = (B.fn(u + h) - B.fn(u - h)) / (2.0 * h)
        err = abs(fd - B.dfn(u)) / max(1.0, abs(B.dfn(u)))
        worst = max(worst, float(err))
    if worst > 1e-7:
        raise ValueError(
            f"nonlinearity derivative mismatches finite differences by {worst:.3e}")
    return worst


# kind -> its parameters and their defaults
_NONLINEARITY_PARAMS = {
    "constant": {"value": 1.0},
    "affine": {"offset": 0.0, "slope": 1.0},
    "quadratic": {"gamma": 1.0},
    "sine": {"gamma": 1.0},
    "poly2": {"offset": 1.0, "gamma": 0.5},
}


def make_nonlinearity(kind: str, **params) -> RobinNonlinearity:
    """Built-in nonlinearities: constant, affine, quadratic, sine, poly2.

    constant: G = c            (params: value)
    affine:   G = a + b u      (params: offset, slope)
    quadratic:G = gamma u^2    (params: gamma)
    sine:     G = gamma sin(u) (params: gamma)
    poly2:    G = a + g u^2    (params: offset, gamma) - offset + pure quadratic

    A parameter the kind does not take raises ValueError.
    """
    if kind not in _NONLINEARITY_PARAMS:
        raise ValueError(f"unknown nonlinearity kind {kind!r}")
    defaults = _NONLINEARITY_PARAMS[kind]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameter(s) {unknown} for nonlinearity "
                         f"{kind!r}; it takes {sorted(defaults)}")
    p = {name: complex(params.get(name, value)) for name, value in defaults.items()}
    if kind == "constant":
        c = p["value"]
        B = RobinNonlinearity(lambda u: c + 0.0 * u, lambda u: 0.0 * u,
                              f"constant {c}")
    elif kind == "affine":
        a, b = p["offset"], p["slope"]
        B = RobinNonlinearity(lambda u: a + b * u, lambda u: b + 0.0 * u,
                              f"affine {a}+{b}u")
    elif kind == "quadratic":
        g = p["gamma"]
        B = RobinNonlinearity(lambda u: g * u * u, lambda u: 2.0 * g * u,
                              f"quadratic {g}u^2")
    elif kind == "sine":
        g = p["gamma"]
        B = RobinNonlinearity(lambda u: g * np.sin(u), lambda u: g * np.cos(u),
                              f"sine {g}sin(u)")
    else:
        a, g = p["offset"], p["gamma"]
        B = RobinNonlinearity(lambda u: a + g * u * u, lambda u: 2.0 * g * u,
                              f"poly2 {a}+{g}u^2")
    derivative_gate(B)
    return B


@dataclass(frozen=True)
class ContinuationState:
    """Accepted Newton solution at one (epsilon, r) pair."""

    epsilon: float
    r: float
    theta: potentials.Density
    newton_iterations: int
    residual_norm: float
    step_norms: tuple[float, ...]


@dataclass(frozen=True)
class OperatorPack:
    """The six rescaled assemblies entering Lambda at one epsilon."""

    epsilon: float
    curve: DiscreteCurve
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray

    def linear_parts(self, r: float):
        """(A, Binner) with Lambda = A theta - G(Binner theta)."""
        eps = self.epsilon
        A = 0.5 * np.eye(self.curve.N) + self.n1 + eps * self.n2 + r * self.n3
        Binner = eps * self.m1 + eps * self.m2 + r * self.m3
        return A, Binner

    def residual(self, B: RobinNonlinearity, r: float, theta) -> np.ndarray:
        """Nodal values of Lambda[eps, r, theta] at this pack's epsilon."""
        A, Binner = self.linear_parts(r)
        tv = np.asarray(theta, dtype=complex)
        return A @ tv - B.fn(Binner @ tv)

    def jacobian(self, B: RobinNonlinearity, r: float, theta) -> np.ndarray:
        """Frechet derivative of Lambda in theta at this pack's epsilon."""
        A, Binner = self.linear_parts(r)
        gprime = np.asarray(B.dfn(Binner @ np.asarray(theta, dtype=complex)),
                            dtype=complex)
        return A - gprime[:, None] * Binner


def build_pack(epsilon: float, curve: DiscreteCurve, center, *,
               green: qpgreen.GreenEvaluator,
               series: perturbation.FamilySeries | None = None) -> OperatorPack:
    """Assemble all rescaled families needed by Lambda at one epsilon.

    Indices 1 and 3 are read from ``series``, a table that covers epsilon;
    without one, a table is built at |epsilon|.
    """
    perturbation._check_epsilon(epsilon, curve, center, green.lattice)
    if series is None:
        series = perturbation.FamilySeries(curve, green.k, epsilon)
    tables = perturbation.scaled_regular_tables(curve, epsilon, green)
    ops = {}
    for fam in "NM":
        for idx in (1, 2, 3):
            ops[f"{fam.lower()}{idx}"] = perturbation._family_matrix(
                fam, idx, epsilon, curve, series, tables)
    return OperatorPack(epsilon=float(epsilon), curve=curve, **ops)


def _slaved_r(epsilon: float) -> float:
    return float(epsilon * math.log(epsilon)) if epsilon > 0 else 0.0


def limit_density(curve: DiscreteCurve, B: RobinNonlinearity) -> potentials.Density:
    """Solve the Laplace limit equation theta/2 + K* theta = G(0)."""
    Ks = potentials.assemble_free("adjoint_double", curve, 0.0).matrix
    A = 0.5 * np.eye(curve.N) + Ks
    rhs = np.full(curve.N, complex(B.fn(0.0)))
    theta = sla.solve(A, rhs)
    res = np.max(np.abs(A @ theta - rhs))
    if res > _LIMIT_SOLVE_TOL:
        raise IllConditionedError(
            f"limit equation solve residual {res:.3e} exceeds {_LIMIT_SOLVE_TOL:.1e}")
    return potentials.Density(curve=curve, values=theta)


def _newton(pack: OperatorPack, B: RobinNonlinearity, theta0: np.ndarray,
            r: float, tol: float):
    theta = np.asarray(theta0, dtype=complex).copy()
    res = pack.residual(B, r, theta)
    rnorm = float(np.max(np.abs(res)))
    steps: list[float] = []
    iterations = 0
    while rnorm > tol:
        if iterations >= _MAX_ITER:
            raise NewtonDivergenceError(
                f"Newton did not reach tolerance {tol:.1e} in {_MAX_ITER} "
                f"iterations (residual {rnorm:.3e})")
        delta = sla.solve(pack.jacobian(B, r, theta), -res)
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = theta + scale * delta
            cres = pack.residual(B, r, cand)
            crnorm = float(np.max(np.abs(cres)))
            if crnorm < rnorm or crnorm <= tol:
                break
            scale *= 0.5
        else:
            raise NewtonDivergenceError(
                f"Newton step damping exhausted at residual {rnorm:.3e}")
        steps.append(float(np.max(np.abs(scale * delta))))
        theta, res, rnorm = cand, cres, crnorm
        iterations += 1
    return theta, iterations, rnorm, tuple(steps)


def _walk(path, B: RobinNonlinearity, curve: DiscreteCurve, center,
          green: qpgreen.GreenEvaluator, start, tol: float) -> list[ContinuationState]:
    """Newton at each epsilon of the path, warm-started from the previous one.

    The walk starts from ``start`` or, without one, from the limit density;
    r is slaved to eps*log(eps).  One ``perturbation.FamilySeries``, built at
    the largest epsilon once it passes the containment check, serves every
    pack of the path.
    """
    if start is None:
        start = limit_density(curve, B).values
    theta = np.asarray(start, dtype=complex)
    eps_max = max(path)
    perturbation._check_epsilon(eps_max, curve, center, green.lattice)
    series = perturbation.FamilySeries(curve, green.k, eps_max)
    states = []
    for e in path:
        pack = build_pack(e, curve, center, green=green, series=series)
        r = _slaved_r(e)
        theta, its, rnorm, steps = _newton(pack, B, theta, r, tol)
        states.append(ContinuationState(
            epsilon=float(e), r=float(r),
            theta=potentials.Density(curve=curve, values=theta),
            newton_iterations=its, residual_norm=rnorm, step_norms=steps))
    return states


def solve_theta(epsilon: float, B: RobinNonlinearity, curve: DiscreteCurve,
                center, *, green: qpgreen.GreenEvaluator,
                start: np.ndarray | None = None,
                tol: float = 1e-12) -> ContinuationState:
    """Newton solve for theta at one epsilon (r slaved to eps*log(eps)).

    Without an explicit ``start``, a short geometric continuation from the
    limit density keeps Newton inside the contraction neighborhood.
    """
    if epsilon <= 0:
        raise ValueError("solve_theta requires epsilon > 0")
    # the hole itself refuses an epsilon at or past the containment bound
    hole = geometry.HoleConfig(reference=curve.curve, center=tuple(center),
                               epsilon=float(epsilon), lattice=green.lattice)
    if epsilon > hole.validated_radius:
        raise ValueError(
            f"epsilon={epsilon} above the validated radius {hole.validated_radius:.6g}")
    path = [float(epsilon)]
    if start is None:
        eps_start = _START_SHARE * hole.epsilon_max
        if epsilon < eps_start:
            nseg = max(1, int(math.ceil(math.log2(eps_start / epsilon))))
            path = list(eps_start * (epsilon / eps_start) ** (np.arange(1, nseg + 1)
                                                              / nseg))
            path[-1] = float(epsilon)
    return _walk(path, B, curve, center, green, start, tol)[-1]


def default_epsilon_grid(curve: DiscreteCurve, center, lattice: Lattice) -> list[float]:
    """Halving sweep grid from a quarter of the containment bound eps0 down to 1e-3."""
    e = _START_SHARE * geometry.containment_bound(curve.curve, center, lattice)
    grid = []
    while e > _EPSILON_FLOOR * (1 + 1e-12):
        grid.append(float(e))
        e *= 0.5
    grid.append(float(_EPSILON_FLOOR))
    return grid


def continuation_sweep(B: RobinNonlinearity, curve: DiscreteCurve, center, *,
                       green: qpgreen.GreenEvaluator, epsilons=None,
                       tol: float = 1e-12) -> list[ContinuationState]:
    """Warm-started Newton sweep over a decreasing epsilon grid."""
    if epsilons is None:
        epsilons = default_epsilon_grid(curve, center, green.lattice)
    epsilons = sorted((float(e) for e in epsilons), reverse=True)
    return _walk(epsilons, B, curve, center, green, None, tol)


def reconstruct_field(state: ContinuationState, probes, *, center,
                      green: qpgreen.GreenEvaluator) -> potentials.FieldSample:
    """Evaluate u = S[physical-hole density] at probe points.

    A probe inside the physical hole or one of its periodic images raises
    ValueError.
    """
    pts = np.atleast_2d(np.asarray(probes, dtype=float))
    return potentials.FieldSample(pts, _probe_values([state], pts, center, green)[0])


def _probe_values(states, pts: np.ndarray, center,
                  green: qpgreen.GreenEvaluator) -> np.ndarray:
    """u = S[theta] of every state at the probes, (n_states, n_probes), in one Green call.

    Each state is contracted as ``potentials.field_eval`` contracts the single
    layer, v_s @ (theta_s w_s), with its own distance guard.  A probe inside a
    state's physical hole or one of its images (``potentials.inside_hole``)
    raises ValueError: S[theta] is not the solution there.
    """
    physs = []
    for s in states:
        phys = perturbation.physical_curve(s.theta.curve, center, s.epsilon, green.lattice)
        inside = potentials.inside_hole(phys, green.lattice, pts)
        if np.any(inside):
            raise ValueError(
                f"probe {pts[np.argmax(inside)].tolist()} lies inside the hole (or a "
                f"periodic image of it) at epsilon={s.epsilon}, where the layer "
                f"potential is not the solution")
        physs.append(phys)
    for phys in physs:
        potentials._distance_guard(phys, green.lattice, pts)
    d = np.concatenate([(pts[:, None, :] - phys.points[None, :, :]).reshape(-1, 2)
                        for phys in physs])
    v, _ = qpgreen.green_eval(green, d)
    v = v.reshape(len(states), len(pts), -1)
    return np.stack([v_s @ (np.asarray(s.theta.values) * phys.weights)
                     for v_s, s, phys in zip(v, states, physs)])


def boundary_condition_residual(state: ContinuationState, B: RobinNonlinearity,
                                *, center, green: qpgreen.GreenEvaluator) -> float:
    """Sup-norm Robin defect d/dnu u - G(u) at off-node physical boundary points."""
    phys = perturbation.physical_curve(state.theta.curve, center, state.epsilon,
                                       green.lattice)
    taus = solvers._midpoint_taus(phys.N)
    tv = np.asarray(state.theta.values, dtype=complex)
    th_tau = geometry.trig_interpolate(tv, taus)
    rows = potentials.nystrom_rows(phys, green, ("single_trace", "adjoint_double"), taus)
    vrows = potentials.boundary_trace_rows("single_trace", phys, taus, green=green,
                                           rows=rows)
    krows = potentials.boundary_trace_rows("adjoint_double", phys, taus, green=green,
                                           rows=rows)
    u_tau = vrows @ tv
    dnu_tau = 0.5 * th_tau + krows @ tv
    return float(np.max(np.abs(dnu_tau - B.fn(u_tau))))


@dataclass(frozen=True)
class FarFieldFit:
    """Least-squares fit u(eps, x) = eps*(c0 + c1 eps + c2 eps log eps)."""

    probes: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    exponents: np.ndarray
    fit_residuals: np.ndarray


def far_field_scaling(states, probes, *, center, green: qpgreen.GreenEvaluator,
                      fit_max_epsilon: float | None = None) -> FarFieldFit:
    """Fit the epsilon-scaling of the reconstructed field at fixed probes.

    The three-term model eps*(c0 + c1 eps + c2 eps log eps) is asymptotic;
    ``fit_max_epsilon`` restricts the fit to the small-epsilon tail of the
    sweep where the neglected O(eps^2 log^2 eps) terms are negligible.  Fewer
    than three states in the window cannot determine the three coefficients
    and raise ValueError, as does a probe inside the physical hole of a state
    in the window or of its periodic images.  The field of every state comes
    from one Green call.
    """
    states = sorted(states, key=lambda s: s.epsilon)
    if fit_max_epsilon is not None:
        states = [s for s in states if s.epsilon <= fit_max_epsilon]
    if len(states) < 3:
        raise ValueError(
            f"far-field fit needs at least 3 states for its 3 coefficients; "
            f"fit_max_epsilon={fit_max_epsilon} keeps {len(states)}")
    if len(states) < 4:
        warnings.warn("epsilon sweep is short; far-field fit may be degenerate",
                      stacklevel=2)
    pts = np.atleast_2d(np.asarray(probes, dtype=float))
    eps = np.array([s.epsilon for s in states])
    U = _probe_values(states, pts, center, green)
    basis = np.stack([np.ones_like(eps), eps, eps * np.log(eps)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, U / eps[:, None], rcond=None)
    resid = np.max(np.abs(basis @ coef - U / eps[:, None]), axis=0)
    # leading exponent from a log-log slope
    logs = np.log(np.abs(U))
    x = np.log(eps)
    slope = ((logs * x[:, None]).mean(axis=0) - x.mean() * logs.mean(axis=0)) \
        / (np.mean(x * x) - x.mean() ** 2)
    return FarFieldFit(probes=pts, c0=coef[0], c1=coef[1], c2=coef[2],
                       exponents=slope, fit_residuals=resid)
