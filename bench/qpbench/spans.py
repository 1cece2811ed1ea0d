"""Spans recorded around calls into qphelm's public functions.

The benchmark traces from outside the library: :func:`install` replaces each
traced function with a wrapper in its defining module and in every loaded
``qphelm`` module that bound it by name (``from .lattice import
make_wave_context`` in ``qpgreen`` and ``cli``), so every call path records a
span.  Spans are kept in memory; self times and counts are computed from them
after the run.  The tracer assumes one calling thread, which the closed-loop
workloads guarantee (the CLI runs with ``threads=1``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _points(arr, width: int = 1) -> int:
    return int(np.asarray(arr).size // width)


def _bytes_under(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())


# Traced functions as "module.function", each with the work counts taken from
# its arguments (and result).  Counts are exact: point, entry and row numbers,
# not estimates.
TRACED = {
    "specfun.fs_coefficients":
        lambda a, kw, res: {"points": _points(_arg(a, kw, 1, "z"))},
    "specfun.fs_coefficients_dz_over_z":
        lambda a, kw, res: {"points": _points(_arg(a, kw, 1, "z"))},
    "lattice.make_wave_context": None,
    "qpgreen.make_green_evaluator": None,
    "qpgreen.regular_part": lambda a, kw, res: {"points": _points(_arg(a, kw, 1, "x"), 2)},
    "qpgreen.green_eval": lambda a, kw, res: {"points": _points(_arg(a, kw, 1, "x"), 2)},
    "qpgreen.green_hessian": lambda a, kw, res: {"points": _points(_arg(a, kw, 1, "x"), 2)},
    "geometry.discretize": None,
    "geometry.containment_bound": None,
    "geometry.trig_interpolate": None,
    "potentials.regular_tables": None,
    "potentials.assemble":
        lambda a, kw, res: {"entries": int(res.matrix.size)},
    "potentials.assemble_free": None,
    "potentials.boundary_trace_rows":
        lambda a, kw, res: {"rows": int(res.shape[0])},
    "potentials.field_eval":
        lambda a, kw, res: {"pairs": len(res.points) * _arg(a, kw, 1, "density").curve.N},
    "potentials.cell_flux_integral": None,
    "solvers.solve_dirichlet": None,
    "solvers.solve_neumann": None,
    "perturbation.scaled_regular_tables": None,
    "perturbation.rescaled_operator": None,
    "nonlinear.build_pack": None,
    "nonlinear.limit_density": None,
    "nonlinear.continuation_sweep":
        lambda a, kw, res: {"newton_iterations": sum(s.newton_iterations for s in res)},
    "nonlinear.boundary_condition_residual": None,
    "nonlinear.far_field_scaling": None,
    "cli.run": lambda a, kw, res: {"bytes_written": _bytes_under(_arg(a, kw, 2, "out_dir"))},
}


@dataclass
class Span:
    """One traced call: name, interval, causing span and the op it served."""

    name: str
    start: float
    end: float
    parent: int | None
    op: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span log with a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(Span(name, tracer.clock(), 0.0, parent, tracer.op))
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx].end = tracer.clock()
            if counter is not None:
                tracer.spans[idx].counts = counter(args, kwargs, result)
            return result

        return traced


def _qphelm_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qphelm" or n.startswith("qphelm."))]


def install(tracer: Tracer, names=None) -> list[tuple[object, str, object]]:
    """Wrap each named function wherever a loaded qphelm module binds it.

    Returns the undo list for :func:`uninstall`.  A name bound under an alias
    or captured in a closure would escape; qphelm binds none that way.
    """
    names = list(TRACED) if names is None else list(names)
    for mod in sorted({n.split(".")[0] for n in TRACED}):
        importlib.import_module(f"qphelm.{mod}")
    modules = _qphelm_modules()
    undo = []
    for name in names:
        mod_name, fn_name = name.split(".")
        original = getattr(importlib.import_module(f"qphelm.{mod_name}"), fn_name)
        wrapper = tracer.wrap(name, original, TRACED.get(name))
        for mod in modules:
            if mod.__dict__.get(fn_name) is original:
                undo.append((mod, fn_name, original))
                setattr(mod, fn_name, wrapper)
    return undo


def uninstall(undo) -> None:
    for mod, fn_name, original in reversed(undo):
        setattr(mod, fn_name, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        inner = [(max(s, sp.start), min(e, sp.end)) for s, e in children.get(i, [])]
        out.append((sp.end - sp.start) - _covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def subtree(spans: list[Span], root: int) -> set[int]:
    """Indices of a span and all its descendants (children follow parents)."""
    members = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in members:
            members.add(i)
    return members


@dataclass
class LayerTotals:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)


def layer_totals(spans: list[Span], keep=lambda sp: True) -> dict[str, LayerTotals]:
    """Per-function sums of self time, inclusive time, calls and work counts.

    Inclusive time counts only outermost calls of a function, so a recursive
    or re-entrant call is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for i, sp in enumerate(spans):
        if not keep(sp):
            continue
        t = out.setdefault(sp.name, LayerTotals())
        t.self_s += selfs[i]
        t.calls += 1
        p = sp.parent
        while p is not None and spans[p].name != sp.name:
            p = spans[p].parent
        if p is None:
            t.total_s += sp.end - sp.start
        for key, val in sp.counts.items():
            t.counts[key] = t.counts.get(key, 0) + val
    return out
