"""Deterministic batch driver: JSON config in, CSV + run manifest out.

Subcommands: green-eval, solve-dirichlet, solve-neumann, solve-robin,
sweep-epsilon, check-rescaling, selftest.  One run per process; a
run_manifest.json is written before any result file, then rewritten with the
final status so partial outputs are always identifiable.  The configuration
entries are the rows of ``_FIELDS`` and the exit codes those of ``_EXITS``.

All floating-point output is printed with 17 significant digits and complex
quantities are split into _re/_im columns, so reruns of the same config are
bit-identical.  ``--threads`` parallelizes only over point batches with an
order-fixed reduction, which keeps multi-threaded output bytes equal to the
single-threaded ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
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
from .lattice import Lattice, make_wave_context
# no longer called here; bench/qpbench's span installer test patches this binding
from .lattice import spectrum_distance  # noqa: F401

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
    """Validated run configuration (one JSON file per run).

    The defaults here are the configuration's defaults: an entry that is
    missing or null keeps them.
    """

    k_re: float
    k_im: float = 0.0
    q_diag: tuple[float, float] = (1.0, 1.0)
    eta: tuple[float, float] = (0.0, 0.0)
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

    @property
    def k(self) -> complex:
        return complex(self.k_re, self.k_im)

    def lattice(self) -> Lattice:
        return Lattice(q_diag=self.q_diag, eta=self.eta)


# Each parser takes a JSON value and its "section.key" and returns the field
# value, or raises ConfigError naming the key.


def _number(v, name: str) -> float:
    # the bound refuses NaN, infinities and integers too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def _integer(v, name: str) -> int:
    if not _number(v, name).is_integer():
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _pair(v, name: str) -> tuple[float, float]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ConfigError(f"{name} must be a pair of numbers, got {v!r}")
    return (_number(v[0], name), _number(v[1], name))


def _object(v, name: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{name} must be an object, got {v!r}")
    return dict(v)


def _list(item):
    """A non-empty list, each entry parsed by item."""
    def parse(v, name: str) -> tuple:
        if not isinstance(v, (list, tuple)) or not v:
            raise ConfigError(f"{name} must be a non-empty list, got {v!r}")
        return tuple(item(x, f"{name}[{i}]") for i, x in enumerate(v))
    return parse


def _rule(parse, text: str, ok):
    """parse, then require ok(value); text states the rule."""
    def check(v, name: str):
        value = parse(v, name)
        if not ok(value):
            raise ConfigError(f"{name} must be {text}, got {v!r}")
        return value
    return check


def _one_of(*choices):
    return _rule(lambda v, name: v, f"one of {list(choices)}", lambda v: v in choices)


_positive = _rule(_number, "positive", lambda x: x > 0)


def _nonlinearity(v, name: str) -> dict:
    v = _object(v, name)
    if set(v) - {"kind", "params"} or not isinstance(v.get("kind"), str):
        raise ConfigError(f"{name} takes a string 'kind' and optional 'params', "
                          f"got {v!r}")
    return {"kind": v["kind"], "params": _object(v.get("params", {}), f"{name}.params")}


def _problem_kind(v, name: str) -> str:
    # the kinds the subcommands of _COMMANDS take, read when a config is parsed
    return _one_of(*dict.fromkeys(k for k, _ in _COMMANDS.values() if k))(v, name)


def _tolerances(v, name: str) -> dict:
    v = _object(v, name)
    unknown = set(v) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    return {**DEFAULT_TOLERANCES, **{k: _positive(x, f"{name}.{k}") for k, x in v.items()}}


# One row per configuration entry: (section, or None for a top-level key, key,
# RunConfig field, parser).  The field's default is the entry's default.
_FIELDS = (
    ("lattice", "q_diag", "q_diag",
     _rule(_pair, "a pair of positive numbers", lambda p: min(p) > 0)),
    ("lattice", "eta", "eta", _pair),
    ("wave", "k_re", "k_re", _number),
    ("wave", "k_im", "k_im", _number),
    ("geometry", "shape", "shape", _one_of("circle", "ellipse", "kite")),
    ("geometry", "params", "shape_params", _object),
    ("geometry", "center", "center", _pair),
    ("geometry", "epsilon", "epsilon", _positive),
    ("geometry", "epsilon_sweep", "epsilon_sweep", _list(_positive)),
    ("geometry", "N", "n_nodes",
     _rule(_integer, "an even integer >= 16", lambda n: n >= 16 and n % 2 == 0)),
    ("problem", "kind", "problem", _problem_kind),
    ("problem", "a_flag", "a_flag", _rule(_integer, "0 or 1", lambda n: n in (0, 1))),
    ("problem", "nonlinearity", "nonlinearity", _nonlinearity),
    ("problem", "identity_kinds", "identity_kinds",
     _list(_one_of(*perturbation.IDENTITY_KINDS))),
    ("problem", "fit_max_epsilon", "fit_max_epsilon", _positive),
    ("data", "source", "source", _pair),
    ("data", "coefficients", "coefficients",
     _list(lambda v, name: complex(*_pair(v, name)))),
    (None, "probes", "probes", _list(_pair)),
    ("grid", "n", "grid_n", _rule(_integer, "an integer >= 2", lambda n: n >= 2)),
    ("grid", "exclusion_radius", "exclusion_radius", _number),
    (None, "tolerances", "tolerances", _tolerances),
)
# section -> its keys; the None entry holds the top-level keys and sections
_KEYS = {s: {key for s2, key, _, _ in _FIELDS if s2 == s} for s, _, _, _ in _FIELDS}
_KEYS[None] |= set(_KEYS) - {None}
# field -> its "section.key", or the key alone at the top level
_ENTRY = {name: key if s is None else f"{s}.{key}" for s, key, name, _ in _FIELDS}
_REQUIRED = sorted(f.name for f in fields(RunConfig)
                   if f.default is MISSING and f.default_factory is MISSING)


def parse_config(text_or_obj) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    if isinstance(text_or_obj, (str, bytes)):
        try:
            obj = json.loads(text_or_obj)
        except ValueError as exc:  # JSONDecodeError, bad UTF-8, overlong integers
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        obj = text_or_obj
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    for section, keys in _KEYS.items():
        block = obj if section is None else obj.get(section)
        if block is not None and not isinstance(block, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = set(block or {}) - keys
        if unknown:
            raise ConfigError(f"unknown keys in {section or 'the config root'}: "
                              f"{sorted(unknown)}")
    kwargs = {}
    for section, key, name, parse in _FIELDS:
        value = (obj if section is None else obj.get(section) or {}).get(key)
        if value is not None:
            kwargs[name] = parse(value, _ENTRY[name])
    missing = [_ENTRY[name] for name in _REQUIRED if name not in kwargs]
    if missing:
        raise ConfigError(f"config is missing required entries: {missing}")
    return RunConfig(**kwargs)


def serialize_config(cfg: RunConfig) -> dict:
    """Every field that is not None, defaults included, in parse_config's layout."""
    obj = {}
    for section, key, name, _ in _FIELDS:
        value = getattr(cfg, name)
        if value is not None:
            block = obj if section is None else obj.setdefault(section, {})
            block[key] = _jsonify(value)
    return obj


def _jsonify(obj):
    """JSON-ready copy: tuples become lists, complex numbers [re, im] pairs."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
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
            # read at the end: the regular-part expansion is built lazily
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
    missing = [_ENTRY[n] for n in names if getattr(cfg, n) is None]
    if missing:
        raise ConfigError(f"config is missing required entries: {missing}")


def _reference_curve(cfg: RunConfig) -> geometry.DiscreteCurve:
    _require(cfg, "shape")
    try:
        curve = geometry.make_curve(cfg.shape, **cfg.shape_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad geometry.params for {cfg.shape!r}: {exc}") from exc
    return geometry.discretize(curve, cfg.n_nodes)


def _setup(cfg: RunConfig, manifest: _Manifest):
    """(wave, green) at the configured resonance tolerance.

    The wave context is built once, at ``tolerances.resonance``, and the
    evaluator built on it refuses a resonant wavenumber, the same way for
    every subcommand.  The evaluator carries the lattice and k; the wave goes to
    the solvers, which check it against the evaluator.  The manifest records
    the evaluator's parameters when the run ends.
    """
    lattice = cfg.lattice()
    wave = make_wave_context(lattice, cfg.k, resonance_tolerance=cfg.tolerances["resonance"])
    green = qpgreen.GreenEvaluator(lattice, wave)
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
    # drop points inside the exclusion disk of the nearest lattice point
    dist = np.linalg.norm(green.lattice.reduce(pts)[0], axis=1)
    pts = pts[dist > cfg.exclusion_radius]
    vals = _parallel_values(lambda p: qpgreen.green_eval(green, p)[0], pts, threads)
    _write_csv(out / "grid.csv", ["x", "y", "ReG", "ImG"],
               ((p[0], p[1], v.real, v.imag) for p, v in zip(pts, vals)))
    manifest.add_output("grid.csv")
    return {"points": int(len(pts)),
            "spectrum_distance": green.wave.spectral_distance}


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
        # the basis order of the separable tables, None for regular_part's
        "separable_order": qpgreen.separable_order(green, dc.curve.disk[1]),
        "notes": list(sol.notes),
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
        steps = s.step_norms or (0.0,)
        rows.append((s.epsilon, s.r, str(s.newton_iterations), s.residual_norm,
                     defect, steps[-1], max(steps)))
    _write_csv(out / "sweep.csv",
               ["epsilon", "r", "newton_iterations", "residual_norm", "bc_defect",
                "final_step_norm", "max_step_norm"],
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
    # a fixed, generic density: smooth, non-symmetric, complex
    theta = potentials.Density(
        curve=ref, values=np.exp(np.cos(ref.t)) + 0.4j * np.sin(2 * ref.t))
    rows = []
    worst = 0.0
    for eps in eps_list:
        # the suite picks the default kinds and refuses far kinds without probes
        res = perturbation.rescaling_identity_suite(
            eps, theta, probes=probes, center=cfg.center, green=green,
            kinds=cfg.identity_kinds)
        for kind, value in res.items():
            rows.append((kind, _fmt(eps), _fmt(value)))
            worst = max(worst, value)
    _write_csv(out / "rescaling.csv", ["kind", "epsilon", "residual"], rows)
    manifest.add_output("rescaling.csv")
    return {"max_residual": worst, "kinds": list(res),
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

    _, ev = _setup(RunConfig(k_re=1.3, eta=(0.4, 0.7)), manifest)
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
    rv, _ = qpgreen.regular_part(ev, xs)
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
    res = perturbation.rescaling_identity_suite(
        0.1, theta, center=(0.5, 0.5), green=ev, kinds=("single-trace",))["single-trace"]
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


# (error types, exit code, stderr prefix); an error takes the first row it
# matches, so the base class QphelmError comes after its subclasses
_EXITS = (
    ((ConfigError, ContainmentError, NearLatticePointError, ValueError), 2,
     "config error"),
    ((ResonanceError,), 3, "resonance"),
    ((IllConditionedError, NewtonDivergenceError, SeriesTruncationError), 4,
     "solver failure"),
    ((QphelmError,), 1, "failure"),
    ((OSError,), 5, "I/O error"),
)


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
        elif cfg.problem not in (None, kind):
            raise ConfigError(f"problem.kind {cfg.problem!r} does not match "
                              f"subcommand {subcommand!r}")
        else:
            results = command(cfg, out, manifest, threads)
    except tuple(t for types, _, _ in _EXITS for t in types) as exc:
        code, prefix = next((c, p) for types, c, p in _EXITS if isinstance(exc, types))
        manifest.finish("failed", error=str(exc))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    manifest.finish("complete", results=_jsonify(results))
    return 0


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
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    cfg = None
    if args.config:
        try:
            cfg = parse_config(Path(args.config).read_text())
        except (OSError, ConfigError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            with contextlib.suppress(OSError):
                out = Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                _Manifest(out, args.subcommand, None, args.threads,
                          args.seed).finish("failed", error=str(exc))
            raise SystemExit(2)
    raise SystemExit(run(args.subcommand, cfg, args.out, threads=args.threads,
                         seed=args.seed))
