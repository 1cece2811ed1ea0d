"""Deterministic batch driver: JSON config in, CSV + run manifest out.

Subcommands: green-eval, solve-dirichlet, solve-neumann, solve-robin,
sweep-epsilon, check-rescaling, selftest.  One run per process; a
run_manifest.json is written before any result file, then rewritten with the
final status so partial outputs are always identifiable.  Exit codes:
2 config error, 3 resonant wavenumber, 4 solver failure, 5 I/O failure.

All floating-point output is printed with 17 significant digits and complex
quantities are split into _re/_im columns, so reruns of the same config are
bit-identical.  ``--threads`` parallelizes only over point batches with an
order-fixed reduction, which keeps multi-threaded output bytes equal to the
single-threaded ones.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, geometry, nonlinear, perturbation, potentials, qpgreen, solvers
from .errors import (
    ConfigError,
    ContainmentError,
    IllConditionedError,
    NearLatticePointError,
    NewtonDivergenceError,
    QphelmError,
    ResonanceError,
    SeriesTruncationError,
)
from .lattice import Lattice, make_wave_context, spectrum_distance

__all__ = ["RunConfig", "parse_config", "serialize_config", "run", "main"]

DEFAULT_TOLERANCES = {
    "solve": 1e-10,
    "newton": 1e-12,
    "resonance": 1e-8,
}


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Validated run configuration (one JSON file per run)."""

    q_diag: tuple[float, float]
    eta: tuple[float, float]
    k: complex
    shape: str | None = None
    shape_params: dict = field(default_factory=dict)
    center: tuple[float, float] | None = None
    epsilon: float | None = None
    epsilon_sweep: tuple[float, ...] | None = None
    n_nodes: int = 128
    problem: str | None = None
    a_flag: int = 0
    nonlinearity: dict | None = None
    identity_kinds: tuple[str, ...] | None = None
    fit_max_epsilon: float | None = None
    source: tuple[float, float] | None = None
    coefficients: tuple[complex, ...] | None = None
    probes: tuple[tuple[float, float], ...] | None = None
    grid_n: int = 50
    exclusion_radius: float = 0.1
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def lattice(self) -> Lattice:
        return Lattice(q_diag=self.q_diag, eta=self.eta)


def _pair(obj, what: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a pair of numbers, got {obj!r}") from exc
    return (a, b)


_TOP_KEYS = {"lattice", "wave", "geometry", "problem", "data", "probes", "grid",
             "tolerances"}


def parse_config(text_or_obj) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    if isinstance(text_or_obj, (str, bytes)):
        try:
            obj = json.loads(text_or_obj)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        obj = text_or_obj
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    def _check_keys(section, mapping, allowed):
        if mapping is None:
            return
        if not isinstance(mapping, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        extra = set(mapping) - allowed
        if extra:
            raise ConfigError(f"unknown keys in {section}: {sorted(extra)}")

    _check_keys("lattice", obj.get("lattice"), {"q_diag", "eta"})
    _check_keys("wave", obj.get("wave"), {"k_re", "k_im"})
    _check_keys("geometry", obj.get("geometry"),
                {"shape", "params", "N", "center", "epsilon", "epsilon_sweep"})
    _check_keys("problem", obj.get("problem"),
                {"kind", "a_flag", "nonlinearity", "identity_kinds",
                 "fit_max_epsilon"})
    _check_keys("data", obj.get("data"), {"source", "coefficients"})
    _check_keys("grid", obj.get("grid"), {"n", "exclusion_radius"})

    lat = obj.get("lattice", {})
    wave = obj.get("wave", {})
    if "k_re" not in wave:
        raise ConfigError("wave.k_re is required")
    kwargs = dict(
        q_diag=_pair(lat.get("q_diag", (1.0, 1.0)), "lattice.q_diag"),
        eta=_pair(lat.get("eta", (0.0, 0.0)), "lattice.eta"),
        k=complex(float(wave["k_re"]), float(wave.get("k_im", 0.0))),
    )
    if kwargs["q_diag"][0] <= 0 or kwargs["q_diag"][1] <= 0:
        raise ConfigError("lattice.q_diag entries must be positive")

    geo = obj.get("geometry")
    if geo is not None:
        shape = geo.get("shape")
        if shape is not None and shape not in ("circle", "ellipse", "kite"):
            raise ConfigError(f"unknown geometry.shape {shape!r}")
        kwargs["shape"] = shape
        kwargs["shape_params"] = dict(geo.get("params", {}))
        if "center" in geo:
            kwargs["center"] = _pair(geo["center"], "geometry.center")
        if "epsilon" in geo and geo["epsilon"] is not None:
            eps = float(geo["epsilon"])
            if eps <= 0:
                raise ConfigError("geometry.epsilon must be positive")
            kwargs["epsilon"] = eps
        if "epsilon_sweep" in geo and geo["epsilon_sweep"] is not None:
            sweep = tuple(float(e) for e in geo["epsilon_sweep"])
            if not sweep or min(sweep) <= 0:
                raise ConfigError("geometry.epsilon_sweep must be positive values")
            kwargs["epsilon_sweep"] = sweep
        n = int(geo.get("N", 128))
        if n < 16 or n % 2:
            raise ConfigError("geometry.N must be an even integer >= 16")
        kwargs["n_nodes"] = n

    prob = obj.get("problem")
    if prob is not None:
        kind = prob.get("kind")
        if kind is not None and kind not in (
                "dirichlet", "neumann", "robin", "green-eval", "check-rescaling"):
            raise ConfigError(f"unknown problem.kind {kind!r}")
        kwargs["problem"] = kind
        a_flag = int(prob.get("a_flag", 0))
        if a_flag not in (0, 1):
            raise ConfigError("problem.a_flag must be 0 or 1")
        kwargs["a_flag"] = a_flag
        if "nonlinearity" in prob and prob["nonlinearity"] is not None:
            nl = prob["nonlinearity"]
            if not isinstance(nl, dict) or set(nl) - {"kind", "params"}:
                raise ConfigError(
                    "problem.nonlinearity accepts only 'kind' and 'params'")
            if "kind" not in nl:
                raise ConfigError("problem.nonlinearity.kind is required")
            kwargs["nonlinearity"] = {"kind": nl["kind"],
                                      "params": dict(nl.get("params", {}))}
        if "identity_kinds" in prob and prob["identity_kinds"] is not None:
            kinds = tuple(prob["identity_kinds"])
            bad = set(kinds) - set(perturbation.IDENTITY_KINDS)
            if bad:
                raise ConfigError(f"unknown identity kinds: {sorted(bad)}")
            kwargs["identity_kinds"] = kinds
        if "fit_max_epsilon" in prob and prob["fit_max_epsilon"] is not None:
            kwargs["fit_max_epsilon"] = float(prob["fit_max_epsilon"])

    data = obj.get("data")
    if data is not None:
        if "source" in data and data["source"] is not None:
            kwargs["source"] = _pair(data["source"], "data.source")
        if "coefficients" in data and data["coefficients"] is not None:
            try:
                kwargs["coefficients"] = tuple(
                    complex(float(c[0]), float(c[1])) for c in data["coefficients"])
            except (TypeError, ValueError, IndexError) as exc:
                raise ConfigError(
                    "data.coefficients must be a list of [re, im] pairs") from exc

    if "probes" in obj and obj["probes"] is not None:
        kwargs["probes"] = tuple(_pair(p, "probes entry") for p in obj["probes"])

    grid = obj.get("grid")
    if grid is not None:
        gn = int(grid.get("n", 50))
        if gn < 2:
            raise ConfigError("grid.n must be >= 2")
        kwargs["grid_n"] = gn
        kwargs["exclusion_radius"] = float(grid.get("exclusion_radius", 0.1))

    tol = dict(DEFAULT_TOLERANCES)
    for key, val in obj.get("tolerances", {}).items():
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {key!r}")
        tol[key] = float(val)
    kwargs["tolerances"] = tol
    return RunConfig(**kwargs)


def serialize_config(cfg: RunConfig) -> dict:
    """Serialize back to the JSON layout accepted by parse_config."""
    obj = {
        "lattice": {"q_diag": list(cfg.q_diag), "eta": list(cfg.eta)},
        "wave": {"k_re": cfg.k.real, "k_im": cfg.k.imag},
        "tolerances": dict(cfg.tolerances),
    }
    if cfg.shape is not None or cfg.center is not None:
        geo = {"N": cfg.n_nodes}
        if cfg.shape is not None:
            geo["shape"] = cfg.shape
            geo["params"] = dict(cfg.shape_params)
        if cfg.center is not None:
            geo["center"] = list(cfg.center)
        if cfg.epsilon is not None:
            geo["epsilon"] = cfg.epsilon
        if cfg.epsilon_sweep is not None:
            geo["epsilon_sweep"] = list(cfg.epsilon_sweep)
        obj["geometry"] = geo
    prob = {}
    if cfg.problem is not None:
        prob["kind"] = cfg.problem
    if cfg.a_flag:
        prob["a_flag"] = cfg.a_flag
    if cfg.nonlinearity is not None:
        prob["nonlinearity"] = {"kind": cfg.nonlinearity["kind"],
                                "params": dict(cfg.nonlinearity["params"])}
    if cfg.identity_kinds is not None:
        prob["identity_kinds"] = list(cfg.identity_kinds)
    if cfg.fit_max_epsilon is not None:
        prob["fit_max_epsilon"] = cfg.fit_max_epsilon
    if prob:
        obj["problem"] = prob
    data = {}
    if cfg.source is not None:
        data["source"] = list(cfg.source)
    if cfg.coefficients is not None:
        data["coefficients"] = [[c.real, c.imag] for c in cfg.coefficients]
    if data:
        obj["data"] = data
    if cfg.probes is not None:
        obj["probes"] = [list(p) for p in cfg.probes]
    obj["grid"] = {"n": cfg.grid_n, "exclusion_radius": cfg.exclusion_radius}
    return obj


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _parallel_values(fn, points: np.ndarray, threads: int) -> np.ndarray:
    """Evaluate fn on row-chunks of points; concatenation order is fixed."""
    if threads <= 1 or len(points) < 2 * threads:
        return fn(points)
    chunks = [c for c in np.array_split(np.arange(len(points)), 4 * threads)
              if len(c)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda idx: fn(points[idx]), chunks))
    return np.concatenate(parts, axis=0)


class _Manifest:
    """run_manifest.json, written before results and finalized afterwards."""

    def __init__(self, out_dir: Path, subcommand: str, cfg_obj, threads: int,
                 seed: int):
        self.path = out_dir / "run_manifest.json"
        self.doc = {
            "tool": "qphelm",
            "version": __version__,
            "subcommand": subcommand,
            "status": "running",
            "threads": threads,
            "seed": seed,
            "config": cfg_obj,
            "outputs": [],
            "results": {},
        }
        self.green: qpgreen.GreenEvaluator | None = None
        self._flush()

    def _flush(self):
        self.path.write_text(json.dumps(self.doc, indent=2, sort_keys=True) + "\n")

    def add_output(self, name: str):
        self.doc["outputs"].append(name)
        self._flush()

    def finish(self, status: str, results: dict | None = None,
               error: str | None = None):
        self.doc["status"] = status
        if self.green is not None:
            # read at the end: the regular-part expansion is fitted lazily
            self.doc["green_evaluator"] = self.green.parameters()
        if results:
            self.doc["results"].update(results)
        if error is not None:
            self.doc["error"] = error
            self.doc["note"] = "outputs listed above may be partial"
        self._flush()


# ---------------------------------------------------------------------------
# shared pieces


def _require(cfg: RunConfig, *names: str):
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ConfigError(f"config is missing required fields: {missing}")


def _reference_curve(cfg: RunConfig) -> geometry.DiscreteCurve:
    _require(cfg, "shape")
    try:
        curve = geometry.make_curve(cfg.shape, **cfg.shape_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad geometry.params for {cfg.shape!r}: {exc}") from exc
    return geometry.discretize(curve, cfg.n_nodes)


def _setup(cfg: RunConfig, manifest: _Manifest):
    """(wave, green) at the configured resonance tolerance.

    Both the wave context and the evaluator use ``tolerances.resonance``, so a
    resonant wavenumber is refused the same way by every subcommand.  The
    evaluator carries the lattice and k; the wave goes to the solvers, which
    check it against the evaluator.  The manifest records the evaluator's
    parameters when the run ends.
    """
    lattice = cfg.lattice()
    tol = cfg.tolerances["resonance"]
    wave = make_wave_context(lattice, cfg.k, resonance_tolerance=tol,
                             require_nonresonant=True)
    green = qpgreen.make_green_evaluator(lattice, wave.k, resonance_tolerance=tol)
    manifest.green = green
    return wave, green


def _boundary_data(cfg: RunConfig, dc: geometry.DiscreteCurve, kind: str,
                   green: qpgreen.GreenEvaluator):
    """Boundary data from a manufactured interior source or a coefficient list."""
    if cfg.source is not None:
        vals, grads = qpgreen.green_eval(green, dc.points - np.asarray(cfg.source))
        return vals if kind == "dirichlet" else np.sum(dc.normals * grads, axis=1)
    if cfg.coefficients is not None:
        coeffs = np.asarray(cfg.coefficients, dtype=complex)
        modes = np.arange(len(coeffs)) - (len(coeffs) - 1) // 2
        return np.exp(1j * np.outer(dc.t, modes)) @ coeffs
    raise ConfigError("data.source or data.coefficients is required")


def _probe_array(cfg: RunConfig) -> np.ndarray | None:
    if cfg.probes is None:
        return None
    return np.asarray(cfg.probes, dtype=float)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_green_eval(cfg: RunConfig, out: Path, manifest: _Manifest,
                    threads: int) -> dict:
    _, green = _setup(cfg, manifest)
    q1, q2 = cfg.q_diag
    n = cfg.grid_n
    xs = (np.arange(n) + 0.5) * q1 / n
    ys = (np.arange(n) + 0.5) * q2 / n
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    # drop points inside the exclusion disk of any lattice translate
    shifts = np.array([(i * q1, j * q2) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    dist = np.min(np.linalg.norm(pts[:, None, :] - shifts[None, :, :], axis=2),
                  axis=1)
    pts = pts[dist > cfg.exclusion_radius]
    vals = _parallel_values(lambda p: qpgreen.green_eval(green, p)[0], pts, threads)
    _write_csv(out / "grid.csv", ["x", "y", "ReG", "ImG"],
               ((p[0], p[1], v.real, v.imag) for p, v in zip(pts, vals)))
    manifest.add_output("grid.csv")
    return {"points": int(len(pts)),
            "spectrum_distance": spectrum_distance(green.lattice, cfg.k)}


def _cmd_solve_bvp(cfg: RunConfig, out: Path, manifest: _Manifest,
                   threads: int, kind: str) -> dict:
    wave, green = _setup(cfg, manifest)
    dc = _reference_curve(cfg)
    if cfg.epsilon is not None:
        _require(cfg, "center")
        dc = perturbation.physical_curve(dc, cfg.center, cfg.epsilon, green.lattice)
    data = _boundary_data(cfg, dc, kind, green)
    solve = solvers.solve_dirichlet if kind == "dirichlet" else solvers.solve_neumann
    extra = {"a_flag": cfg.a_flag} if kind == "dirichlet" else {}
    sol = solve(dc, green.lattice, wave, data, green=green,
                solve_tol=cfg.tolerances["solve"], **extra)
    _write_csv(out / "density.csv", ["t", "mu_re", "mu_im"],
               ((t, v.real, v.imag) for t, v in zip(dc.t, sol.density.values)))
    manifest.add_output("density.csv")
    results = {
        "condition_estimate": sol.condition_estimate,
        "boundary_residual": sol.boundary_residual,
        "a_flag": cfg.a_flag if kind == "dirichlet" else None,
    }
    probes = _probe_array(cfg)
    if probes is not None:
        uvals = _parallel_values(lambda p: sol.field(p).values, probes, threads)
        if cfg.source is not None:
            # the solution's tables came from the expansion; check it on Ewald
            ref, _, _ = qpgreen.ewald_oracle(green, probes - np.asarray(cfg.source))
            err = np.abs(uvals - ref)
            _write_csv(out / "probes.csv",
                       ["x", "y", "u_re", "u_im", "ref_re", "ref_im", "abs_err"],
                       ((p[0], p[1], u.real, u.imag, r.real, r.imag, e)
                        for p, u, r, e in zip(probes, uvals, ref, err)))
            results["sup_probe_error"] = float(np.max(err))
        else:
            _write_csv(out / "probes.csv", ["x", "y", "u_re", "u_im"],
                       ((p[0], p[1], u.real, u.imag)
                        for p, u in zip(probes, uvals)))
        manifest.add_output("probes.csv")
    return results


def _robin_pieces(cfg: RunConfig, manifest: _Manifest):
    _require(cfg, "center", "nonlinearity")
    _, green = _setup(cfg, manifest)
    ref = _reference_curve(cfg)
    B = nonlinear.make_nonlinearity(cfg.nonlinearity["kind"],
                                    **cfg.nonlinearity["params"])
    return green, ref, B


def _cmd_solve_robin(cfg: RunConfig, out: Path, manifest: _Manifest,
                     threads: int) -> dict:
    _require(cfg, "epsilon")
    green, ref, B = _robin_pieces(cfg, manifest)
    state = nonlinear.solve_theta(cfg.epsilon, B, ref, cfg.center, green=green,
                                  tol=cfg.tolerances["newton"])
    _write_csv(out / "density.csv", ["t", "theta_re", "theta_im"],
               ((t, v.real, v.imag) for t, v in zip(ref.t, state.theta.values)))
    manifest.add_output("density.csv")
    defect = nonlinear.boundary_condition_residual(state, B, center=cfg.center,
                                                   green=green)
    results = {
        "epsilon": state.epsilon,
        "r": state.r,
        "newton_iterations": state.newton_iterations,
        "residual_norm": state.residual_norm,
        "bc_defect": defect,
    }
    probes = _probe_array(cfg)
    if probes is not None:
        uvals = _parallel_values(
            lambda p: nonlinear.reconstruct_field(
                state, p, center=cfg.center, green=green).values,
            probes, threads)
        _write_csv(out / "probes.csv", ["x", "y", "u_re", "u_im"],
                   ((p[0], p[1], u.real, u.imag) for p, u in zip(probes, uvals)))
        manifest.add_output("probes.csv")
    return results


def _cmd_sweep_epsilon(cfg: RunConfig, out: Path, manifest: _Manifest,
                       threads: int) -> dict:
    green, ref, B = _robin_pieces(cfg, manifest)
    states = nonlinear.continuation_sweep(
        B, ref, cfg.center, green=green, epsilons=cfg.epsilon_sweep,
        tol=cfg.tolerances["newton"])
    rows = []
    for s in states:
        defect = nonlinear.boundary_condition_residual(
            s, B, center=cfg.center, green=green)
        rows.append((s.epsilon, s.r, str(s.newton_iterations), s.residual_norm,
                     defect))
    _write_csv(out / "sweep.csv",
               ["epsilon", "r", "newton_iterations", "residual_norm", "bc_defect"],
               rows)
    manifest.add_output("sweep.csv")
    results = {"states": len(states),
               "epsilon_min": states[-1].epsilon if states else None,
               "epsilon_max": states[0].epsilon if states else None}

    probes = _probe_array(cfg)
    if probes is not None:
        fit = nonlinear.far_field_scaling(states, probes, center=cfg.center,
                                          green=green,
                                          fit_max_epsilon=cfg.fit_max_epsilon)
        theta0 = np.asarray(nonlinear.limit_density(ref, B).values)
        charge = np.sum(theta0 * ref.weights)
        gref, _, _ = qpgreen.ewald_oracle(green, probes - np.asarray(cfg.center))
        pred = gref * charge
        rel = np.abs(fit.c0 - pred) / np.maximum(np.abs(pred), 1e-300)
        _write_csv(out / "farfield.csv",
                   ["x", "y", "c0_re", "c0_im", "exponent", "fit_residual",
                    "pred_re", "pred_im", "rel_mismatch"],
                   ((p[0], p[1], c.real, c.imag, e, fr, pr.real, pr.imag, rm)
                    for p, c, e, fr, pr, rm in zip(
                        probes, fit.c0, fit.exponents, fit.fit_residuals, pred,
                        rel)))
        manifest.add_output("farfield.csv")
        results["mean_exponent"] = float(np.mean(fit.exponents))
        results["max_rel_mismatch"] = float(np.max(rel))
    return results


def _cmd_check_rescaling(cfg: RunConfig, out: Path, manifest: _Manifest,
                         threads: int) -> dict:
    _require(cfg, "center")
    _, green = _setup(cfg, manifest)
    ref = _reference_curve(cfg)
    eps_list = cfg.epsilon_sweep or ((cfg.epsilon,) if cfg.epsilon else
                                     (0.2, 0.1, 0.05, 0.02))
    probes = _probe_array(cfg)
    kinds = cfg.identity_kinds
    if kinds is None:
        kinds = perturbation.IDENTITY_KINDS if probes is not None else \
            ("single-trace", "adjoint", "double-boundary")
    needs_probes = {"far-single", "far-double"}
    if needs_probes & set(kinds) and probes is None:
        raise ConfigError("far-field identity kinds require a probes list")
    # a fixed, generic density: smooth, non-symmetric, complex
    theta = potentials.Density(
        curve=ref, values=np.exp(np.cos(ref.t)) + 0.4j * np.sin(2 * ref.t))
    rows = []
    worst = 0.0
    for eps in eps_list:
        res = perturbation.rescaling_identity_suite(
            eps, theta, probes=probes, center=cfg.center, green=green,
            kinds=kinds)
        for kind in kinds:
            rows.append((kind, _fmt(eps), _fmt(res[kind])))
            worst = max(worst, res[kind])
    _write_csv(out / "rescaling.csv", ["kind", "epsilon", "residual"], rows)
    manifest.add_output("rescaling.csv")
    return {"max_residual": worst, "kinds": list(kinds),
            "epsilons": [float(e) for e in eps_list]}


def _cmd_selftest(out: Path, manifest: _Manifest, seed: int) -> dict:
    """Quick invariant suite over every layer; raises on first failure."""
    from . import specfun
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float, float]] = []  # (name, error, tolerance)

    J0, N0 = specfun.fs_coefficients(2, 0.0)
    checks.append(("kernel J profile at 0", abs(J0 - 1 / (2 * math.pi)), 1e-14))
    checks.append(("kernel N profile at 0", abs(N0), 1e-14))
    _, N30 = specfun.fs_coefficients(3, 0.0)
    checks.append(("n=3 kernel constant", abs(N30 - (-1 / (4 * math.pi))), 1e-14))

    # kernel rescaling: S(eps x, k) = S(x, eps k) + J(eps k |x|) log(eps)
    err = 0.0
    for _ in range(20):
        x = rng.uniform(0.2, 1.5, size=2)
        kk = rng.uniform(0.5, 3.0)
        eps = rng.uniform(0.05, 0.5)
        lhs = specfun.fundamental_solution(2, eps * x, kk).value
        rhs = (specfun.fundamental_solution(2, x, eps * kk).value
               + specfun.analytic_correction(2, x, eps * kk).value * math.log(eps))
        err = max(err, abs(lhs - rhs) / max(1.0, abs(lhs)))
    checks.append(("kernel rescaling identity", err, 1e-12))

    _, ev = _setup(RunConfig(q_diag=(1.0, 1.0), eta=(0.4, 0.7), k=1.3), manifest)
    lat = ev.lattice
    pts = rng.uniform(0.15, 0.85, size=(5, 2))
    v0, _ = qpgreen.green_eval(ev, pts)
    v1, _ = qpgreen.green_eval(ev, pts + np.array([1.0, 0.0]))
    phase = np.exp(1j * lat.eta_vec[0] * lat.q_diag[0])
    checks.append(("Green quasi-periodicity",
                   float(np.max(np.abs(v1 - phase * v0) / np.abs(v0))), 1e-9))
    ev2 = qpgreen.make_green_evaluator(lat, ev.k, ewald_split=2.4)
    w0, _, _ = qpgreen.ewald_oracle(ev, pts)
    w2, _, _ = qpgreen.ewald_oracle(ev2, pts)
    checks.append(("Ewald split invariance",
                   float(np.max(np.abs(w2 - w0) / np.abs(w0))), 1e-10))
    # points past the half cell fold through m* != 0 into the centred cell
    xs = np.vstack([pts - 0.5, pts, [[0.8, 0.3]]])
    rv, _ = qpgreen.regular_part(ev, xs, enforce_ball=False)
    gv, _, _ = qpgreen.ewald_oracle(ev, xs)
    sv = specfun.fundamental_solution(2, xs, ev.k).value
    checks.append(("regular part expansion against G - S",
                   float(np.max(np.abs(rv - (gv - sv)))), 1e-12))

    dc = geometry.discretize(geometry.make_curve("circle", radius=0.35), 64)
    ones = np.ones(dc.N)
    Vlap = potentials.assemble_free("single_trace", dc, 0.0).matrix
    checks.append(("Laplace single layer on circle",
                   float(np.max(np.abs(Vlap @ ones - 0.35 * math.log(0.35)))),
                   1e-12))
    Klap = potentials.assemble_free("double_boundary", dc, 0.0).matrix
    checks.append(("Laplace double layer on circle",
                   float(np.max(np.abs(Klap @ ones - 0.5))), 1e-12))

    theta = potentials.Density(curve=dc, values=np.exp(np.cos(dc.t)) + 0j)
    res = perturbation.rescaling_identity_check(
        "single-trace", 0.1, theta, center=(0.5, 0.5), green=ev)
    checks.append(("rescaled single-trace identity", float(res), 1e-10))

    disk = geometry.discretize(geometry.make_curve("circle", radius=1.0), 64)
    Bc = nonlinear.make_nonlinearity("constant", value=1.0)
    tt = nonlinear.limit_density(disk, Bc).values
    checks.append(("Robin limit density on disk", float(np.max(np.abs(tt - 1.0))),
                   1e-10))

    failures = [c for c in checks if not (c[1] <= c[2])]
    lines = [f"{'PASS' if c[1] <= c[2] else 'FAIL'} {c[0]}: "
             f"error {c[1]:.3e} (tolerance {c[2]:.1e})" for c in checks]
    print("\n".join(lines))
    (out / "selftest.txt").write_text("\n".join(lines) + "\n")
    manifest.add_output("selftest.txt")
    if failures:
        raise QphelmError(f"{len(failures)} selftest check(s) failed")
    return {"checks": len(checks), "failures": 0}


# subcommand -> (problem.kind its config may carry, runner); a kind of None
# marks a subcommand that takes no config
_COMMANDS = {
    "green-eval": ("green-eval", _cmd_green_eval),
    "solve-dirichlet": ("dirichlet", partial(_cmd_solve_bvp, kind="dirichlet")),
    "solve-neumann": ("neumann", partial(_cmd_solve_bvp, kind="neumann")),
    "solve-robin": ("robin", _cmd_solve_robin),
    "sweep-epsilon": ("robin", _cmd_sweep_epsilon),
    "check-rescaling": ("check-rescaling", _cmd_check_rescaling),
    "selftest": (None, _cmd_selftest),
}
SUBCOMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# driver


def run(subcommand: str, cfg: RunConfig | None, out_dir: str | Path,
        threads: int = 1, seed: int = 0) -> int:
    """Execute one subcommand; returns the process exit code."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 5
    cfg_obj = serialize_config(cfg) if cfg is not None else None
    manifest = _Manifest(out, subcommand, cfg_obj, threads, seed)
    try:
        if subcommand not in _COMMANDS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        kind, command = _COMMANDS[subcommand]
        if kind is None:
            results = command(out, manifest, seed)
        elif cfg is None:
            raise ConfigError(f"subcommand {subcommand!r} requires a config")
        else:
            results = command(cfg, out, manifest, threads)
    except (ConfigError, ContainmentError, NearLatticePointError,
            ValueError) as exc:
        manifest.finish("failed", error=str(exc))
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResonanceError as exc:
        manifest.finish("failed", error=str(exc))
        print(f"resonance: {exc}", file=sys.stderr)
        return 3
    except (IllConditionedError, NewtonDivergenceError,
            SeriesTruncationError) as exc:
        manifest.finish("failed", error=str(exc))
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except QphelmError as exc:
        manifest.finish("failed", error=str(exc))
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        manifest.finish("failed", error=str(exc))
        print(f"I/O error: {exc}", file=sys.stderr)
        return 5
    manifest.finish("complete", results=_jsonify(results))
    return 0


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="qphelm",
        description="Quasi-periodic Helmholtz layer-potential runs")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="thread count for point-batch evaluation")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized invariant draws")
    args = parser.parse_args(argv)

    expected = _COMMANDS[args.subcommand][0]
    cfg = None
    if expected is not None:
        if not args.config:
            print("error: --config is required for this subcommand",
                  file=sys.stderr)
            raise SystemExit(2)
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            raise SystemExit(2)
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            raise SystemExit(2)
        if cfg.problem is not None and cfg.problem != expected:
            print(f"config error: problem.kind {cfg.problem!r} does not match "
                  f"subcommand {args.subcommand!r}", file=sys.stderr)
            raise SystemExit(2)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(run(args.subcommand, cfg, args.out, threads=args.threads,
                         seed=args.seed))
