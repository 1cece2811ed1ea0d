"""The three closed-loop workloads: ``bvp``, ``field`` and ``sweep``.

A :class:`Workload` draws its inputs (source points and probes) from the
seed, then ``setup(inputs, work_dir)`` builds everything the timed ops need
and returns a :class:`Prepared`: the fixed op cycle plus the workload's
settings for the run record.  Drawing is not part of the timed set-up; the op
mix and its order are fixed.  Every op checks its output against an
independent reference and returns a :class:`~qpbench.loop.Outcome`.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qphelm import cli, geometry, nonlinear, potentials, qpgreen, solvers
from qphelm.lattice import Lattice, make_wave_context

from .loop import Outcome

Q_DIAG = (1.0, 1.0)
ETA = (0.4, 0.7)
CENTER = (0.5, 0.5)

# Probes keep this distance from the hole and each of its periodic images, so
# AccuracyGuardWarning cannot fire and the plain-quadrature field is accurate
# to ~1e-12 (values) and ~1e-10 (gradients) at N = 128.  At 0.1 the kite's
# gradients lose three more digits.
PROBE_CLEARANCE = 0.15
# Manufactured point sources sit within this distance of the hole's centre,
# well inside both holes (the kite's boundary is 0.277 from its centre).
SOURCE_SPREAD = 0.05

# Gates, at the acceptance tolerances of tests/test_acceptance.py.
BVP_TOL = 1e-8            # criterion 6: probe error of a manufactured solve
FIELD_TOL = 1e-8          # criterion 6 tolerance, on field values and gradients
FLUX_TOL = 1e-8           # criterion 5: |flux| / ||v||^2
SWEEP_BC_TOL = 1e-6       # criterion 8: every boundary-condition defect
SWEEP_EXPONENT_TOL = 0.05  # criterion 8: |mean far-field exponent - 1|
SWEEP_MISMATCH_TOL = 0.02  # criterion 8: far field against the point source


def lattice() -> Lattice:
    return Lattice(q_diag=Q_DIAG, eta=ETA)


def hole(shape: str) -> geometry.BoundaryCurve:
    """The two benchmark holes, both centred in the unit cell."""
    if shape == "circle":
        return geometry.make_curve("circle", radius=0.35, center=CENTER)
    return geometry.make_curve("kite", scale=0.3, center=CENTER)


# --------------------------------------------------------------------------- #
# seeded inputs


def _inside(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray test of points against a closed polygon."""
    x, y = points[:, 0, None], points[:, 1, None]
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    crosses = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcut = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return np.count_nonzero(crosses & (x < xcut), axis=1) % 2 == 1


def clear_of_hole(points, curve: geometry.BoundaryCurve, lat: Lattice,
                  clearance: float) -> np.ndarray:
    """True where a point lies outside the hole and all its periodic images,
    at least ``clearance`` from each of their boundaries."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = curve.position(2.0 * np.pi * np.arange(1024) / 1024)
    ok = np.ones(len(pts), dtype=bool)
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            img = poly + np.array([i, j]) * lat.q
            dist = np.min(np.linalg.norm(pts[:, None, :] - img[None, :, :], axis=2),
                          axis=1)
            ok &= (dist >= clearance) & ~_inside(pts, img)
    return ok


def draw_probes(rng: np.random.Generator, curve: geometry.BoundaryCurve,
                lat: Lattice, n: int, clearance: float = PROBE_CLEARANCE) -> np.ndarray:
    """n points drawn uniformly from the cell, kept clear of the hole."""
    out = np.empty((0, 2))
    while len(out) < n:
        cand = rng.uniform(0.0, 1.0, size=(4 * n, 2)) * lat.q
        out = np.concatenate([out, cand[clear_of_hole(cand, curve, lat, clearance)]])
    return out[:n]


def draw_source(rng: np.random.Generator) -> np.ndarray:
    """A point source inside the hole, near its centre."""
    r = SOURCE_SPREAD * np.sqrt(rng.uniform())
    a = rng.uniform(0.0, 2.0 * np.pi)
    return np.asarray(CENTER) + r * np.array([np.cos(a), np.sin(a)])


def sweep_probes(rng: np.random.Generator) -> np.ndarray:
    """Six probes on a small circle near the cell corner, far from the hole."""
    c = np.asarray(Q_DIAG) + rng.uniform(-0.08, 0.08, size=2)
    ang = rng.uniform(0.0, 2.0 * np.pi) + np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    return np.stack([c[0] + 0.06 * np.cos(ang), c[1] + 0.06 * np.sin(ang)], axis=1)


@dataclass
class Prepared:
    """A set-up workload: its op cycle and the settings it ran with."""

    cycle: list
    config: dict


@dataclass(frozen=True)
class Workload:
    draw: Callable[[int], Any]               # seed -> inputs
    setup: Callable[[Any, Path], Prepared]   # (inputs, work_dir) -> ops


# --------------------------------------------------------------------------- #
# bvp: manufactured exterior solves


# (solver, shape, k, N).  A run completes ops from the start of the cycle, 10-14
# of them in 30 s on a 2-vCPU Xeon.  For every count from 7 to 20 most are N = 128, k = 6
# solves, so the median op is one of them rather than a mean across cost
# clusters; the a_flag = 1 and N = 256 solves show in ops_per_s.  The least accurate op (a_flag = 1 on the kite) comes
# early so accuracy_digits does not depend on the count.  a_flag = 1 builds
# the regular table twice, so it runs at N = 128 only (9-12 s at N = 256).
BVP_CYCLE = (
    ("dirichlet0", "circle", 6.0, 128),
    ("neumann", "kite", 6.0, 128),
    ("dirichlet1", "kite", 1.3, 128),
    ("dirichlet0", "kite", 6.0, 128),
    ("neumann", "circle", 6.0, 128),
    ("dirichlet0", "kite", 1.3, 256),
    ("dirichlet0", "circle", 6.0, 128),
    ("neumann", "kite", 6.0, 128),
    ("neumann", "circle", 1.3, 256),
    ("dirichlet1", "circle", 1.3, 128),
)
# Per op.  The worst error over a run is a maximum over the kite ops' probes;
# with 16 per op it sits near the kite's sup (~1e-12, between the kite's tips
# and their periodic images) on every seed, where 8 scatter over two digits.
BVP_PROBES = 16


def _bvp_op(solver, dc, lat, wave, green, data, probes, exact):
    def op():
        if solver == "neumann":
            sol = solvers.solve_neumann(dc, lat, wave, data, green=green)
        else:
            sol = solvers.solve_dirichlet(dc, lat, wave, data, green=green,
                                          a_flag=int(solver == "dirichlet1"))
        u = sol.field(probes).values
        err = float(np.max(np.abs(u - exact)))
        return Outcome(err, err <= BVP_TOL,
                       np.asarray(sol.density.values).tobytes() + u.tobytes())
    return op


def draw_bvp(seed: int) -> list:
    """A point source and probes for each cycle position."""
    rng = np.random.default_rng([seed, 1])
    lat = lattice()
    return [(draw_source(rng), draw_probes(rng, hole(shape), lat, BVP_PROBES))
            for _, shape, _, _ in BVP_CYCLE]


def setup_bvp(inputs: list, work_dir: Path) -> Prepared:
    lat = lattice()
    waves = {k: make_wave_context(lat, k) for k in {c[2] for c in BVP_CYCLE}}
    greens = {k: qpgreen.make_green_evaluator(lat, k) for k in waves}
    curves = {}
    cycle = []
    for (solver, shape, k, N), (x0, probes) in zip(BVP_CYCLE, inputs):
        if (shape, N) not in curves:
            curves[shape, N] = geometry.discretize(hole(shape), N)
        dc = curves[shape, N]
        gv, gg = qpgreen.green_eval(greens[k], dc.points - x0)
        data = np.einsum("ij,ij->i", dc.normals, gg) if solver == "neumann" else gv
        exact, _ = qpgreen.green_eval(greens[k], probes - x0)
        cycle.append((f"{solver}/{shape}/k={k}/N={N}",
                      _bvp_op(solver, dc, lat, waves[k], greens[k], data, probes,
                              exact)))
    return Prepared(cycle, {"cycle": [list(c) for c in BVP_CYCLE],
                            "probes_per_op": BVP_PROBES,
                            "probe_clearance": PROBE_CLEARANCE,
                            "gate_probe_error": BVP_TOL})


# --------------------------------------------------------------------------- #
# field: evaluation of one solved density


FIELD_K = 6.0
FIELD_N = 128
FIELD_BATCH = 64
# Four probe batches and the two flux kinds.  The batches form the majority,
# so the median op is a probe batch; the fluxes (about 3 and 6 s) show in
# ops_per_s.
FIELD_CYCLE = ("probes0", "probes1", "flux/double", "probes2", "probes3",
               "flux/single")


def _probe_op(sol, probes, exact_v, exact_g):
    def op():
        s = sol.field(probes, want_gradients=True)
        ev = float(np.max(np.abs(s.values - exact_v)))
        eg = float(np.max(np.abs(s.gradients - exact_g)))
        return Outcome(max(ev, eg), max(ev, eg) <= FIELD_TOL,
                       s.values.tobytes() + s.gradients.tobytes())
    return op


def _flux_op(kind, sol):
    def op():
        flux, norm2 = potentials.cell_flux_integral(kind, sol.density, green=sol.green)
        rel = abs(flux) / norm2
        return Outcome(rel, rel <= FLUX_TOL, np.array([flux, norm2]).tobytes())
    return op


def draw_field(seed: int):
    """The point source and one probe batch per probe op."""
    rng = np.random.default_rng([seed, 2])
    lat = lattice()
    x0 = draw_source(rng)
    return x0, [draw_probes(rng, hole("kite"), lat, FIELD_BATCH)
                for label in FIELD_CYCLE if label.startswith("probes")]


def setup_field(inputs, work_dir: Path) -> Prepared:
    x0, batches = inputs
    lat = lattice()
    wave = make_wave_context(lat, FIELD_K)
    green = qpgreen.make_green_evaluator(lat, FIELD_K)
    dc = geometry.discretize(hole("kite"), FIELD_N)
    gv, _ = qpgreen.green_eval(green, dc.points - x0)
    sol = solvers.solve_dirichlet(dc, lat, wave, gv, a_flag=1, green=green)
    cycle = []
    batch = iter(batches)
    for label in FIELD_CYCLE:
        if label.startswith("flux/"):
            cycle.append((label, _flux_op(label[5:], sol)))
            continue
        probes = next(batch)
        ev, eg = qpgreen.green_eval(green, probes - x0)
        cycle.append((label, _probe_op(sol, probes, ev, eg)))
    return Prepared(cycle, {"k": FIELD_K, "N": FIELD_N, "shape": "kite", "a_flag": 1,
                            "cycle": list(FIELD_CYCLE), "batch": FIELD_BATCH,
                            "probe_clearance": PROBE_CLEARANCE,
                            "gate_value_and_gradient_error": FIELD_TOL,
                            "gate_flux_ratio": FLUX_TOL})


# --------------------------------------------------------------------------- #
# sweep: small-hole continuation through the CLI


SWEEP_K = 1.3
SWEEP_N = 64


def sweep_config(probes: np.ndarray) -> dict:
    """CLI config for the unit-disk sweep on the default epsilon grid."""
    return {
        "lattice": {"q_diag": list(Q_DIAG), "eta": list(ETA)},
        "wave": {"k_re": SWEEP_K},
        "geometry": {"shape": "circle", "params": {"radius": 1.0}, "N": SWEEP_N,
                     "center": list(CENTER)},
        "problem": {"kind": "robin",
                    "nonlinearity": {"kind": "poly2",
                                     "params": {"offset": 1.0, "gamma": 0.5}},
                    "fit_max_epsilon": 0.07},
        "probes": probes.tolist(),
    }


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _sweep_op(cfg, out: Path, pred: np.ndarray):
    def op():
        if out.exists():
            shutil.rmtree(out)
        code = cli.run("sweep-epsilon", cfg, out)
        manifest = json.loads((out / "run_manifest.json").read_text())
        res = manifest.get("results", {})
        if code != 0 or manifest.get("status") != "complete":
            return Outcome(np.inf, False, b"")
        bc = max(float(r["bc_defect"]) for r in _read_csv(out / "sweep.csv"))
        far = _read_csv(out / "farfield.csv")
        c0 = np.array([complex(float(r["c0_re"]), float(r["c0_im"])) for r in far])
        mismatch = float(np.max(np.abs(c0 - pred) / np.abs(pred)))
        worst = max(mismatch, res["max_rel_mismatch"])
        ok = (bc <= SWEEP_BC_TOL
              and abs(res["mean_exponent"] - 1.0) <= SWEEP_EXPONENT_TOL
              and worst <= SWEEP_MISMATCH_TOL)
        output = b"".join((out / name).read_bytes()
                          for name in ("run_manifest.json", "sweep.csv", "farfield.csv"))
        return Outcome(worst, ok, output)
    return op


def draw_sweep(seed: int) -> np.ndarray:
    return sweep_probes(np.random.default_rng([seed, 3]))


def setup_sweep(probes: np.ndarray, work_dir: Path) -> Prepared:
    cfg = cli.parse_config(json.dumps(sweep_config(probes)))
    # Independent reference: the point source the far field collapses onto,
    # G(x - p) times the charge of the Laplace-limit density.
    lat = lattice()
    wave = make_wave_context(lat, SWEEP_K)
    green = qpgreen.make_green_evaluator(lat, wave.k)
    ref = geometry.discretize(geometry.make_curve("circle", radius=1.0), SWEEP_N)
    B = nonlinear.make_nonlinearity("poly2", offset=1.0, gamma=0.5)
    theta0 = np.asarray(nonlinear.limit_density(ref, B).values)
    gref, _ = qpgreen.green_eval(green, probes - np.asarray(CENTER))
    pred = gref * np.sum(theta0 * ref.weights)
    return Prepared([("sweep-epsilon", _sweep_op(cfg, work_dir / "sweep", pred))],
                    {"cli_config": sweep_config(probes),
                     "gate_bc_defect": SWEEP_BC_TOL,
                     "gate_exponent": SWEEP_EXPONENT_TOL,
                     "gate_rel_mismatch": SWEEP_MISMATCH_TOL})


WORKLOADS = {"bvp": Workload(draw_bvp, setup_bvp),
             "field": Workload(draw_field, setup_field),
             "sweep": Workload(draw_sweep, setup_sweep)}
