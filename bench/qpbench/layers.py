"""Per-layer metrics from a traced run, and the predicted split per workload.

A per-layer value describes one set-up plus one average op: the set-up's
total plus the ops' total divided by the number of traced ops.  The traced
ops are whole cycles, so the counts are the same on every run of the same
code.  ``.points_per_s`` is a rate: points over inclusive span time.
"""

from __future__ import annotations

from .spans import LayerTotals, Span, layer_totals, self_times, subtree

# Metric names, in the order BENCHMARK.json lists them.  "<function>.<field>"
# where field is self_s, calls, points_per_s or a work count of that function.
PER_LAYER = (
    "specfun.fs_coefficients.self_s",
    "specfun.fs_coefficients.points",
    "specfun.fs_coefficients_dz_over_z.self_s",
    "specfun.fs_coefficients_dz_over_z.points",
    "lattice.make_wave_context.self_s",
    "qpgreen.make_green_evaluator.self_s",
    "qpgreen.regular_part.self_s",
    "qpgreen.regular_part.calls",
    "qpgreen.regular_part.points",
    "qpgreen.regular_part.points_per_s",
    "qpgreen.green_eval.self_s",
    "qpgreen.green_eval.points",
    "qpgreen.green_eval.points_per_s",
    "qpgreen.green_hessian.self_s",
    "qpgreen.green_hessian.points",
    "geometry.discretize.self_s",
    "geometry.containment_bound.self_s",
    "geometry.containment_bound.calls",
    "geometry.trig_interpolate.self_s",
    "potentials.regular_tables.self_s",
    "potentials.assemble.self_s",
    "potentials.assemble.entries",
    "potentials.assemble_free.self_s",
    "potentials.boundary_trace_rows.self_s",
    "potentials.boundary_trace_rows.rows",
    "potentials.field_eval.self_s",
    "potentials.field_eval.pairs",
    "potentials.cell_flux_integral.self_s",
    "solvers.solve_dirichlet.self_s",
    "solvers.solve_neumann.self_s",
    "perturbation.scaled_regular_tables.self_s",
    "perturbation.scaled_regular_tables.calls",
    "perturbation.rescaled_operator.self_s",
    "perturbation.rescaled_operator.calls",
    "nonlinear.build_pack.self_s",
    "nonlinear.build_pack.calls",
    "nonlinear.limit_density.self_s",
    "nonlinear.continuation_sweep.self_s",
    "nonlinear.newton_iterations",
    "nonlinear.boundary_condition_residual.self_s",
    "nonlinear.far_field_scaling.self_s",
    "cli.run.self_s",
    "cli.bytes_written",
)

# Everything a traced run reports: the layers, then the tracing overhead and
# the outcome of the workload's predicted split (see split_check).
TRACE_METRICS = PER_LAYER + ("trace_overhead_frac", "split.prediction_held",
                             "split.predicted_share")

# Counts recorded on another function's span than the metric name suggests.
_ALIASES = {
    "nonlinear.newton_iterations": ("nonlinear.continuation_sweep", "newton_iterations"),
    "cli.bytes_written": ("cli.run", "bytes_written"),
}


def unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(".points_per_s"):
        return "1/s"
    if metric in ("trace_overhead_frac", "split.predicted_share"):
        return "1"
    if metric == "split.prediction_held":
        return "bool"
    return "count"


def _field(totals: dict[str, LayerTotals], metric: str) -> float:
    fn, field = _ALIASES.get(metric) or metric.rsplit(".", 1)
    t = totals.get(fn)
    if t is None:
        return 0.0
    if field == "self_s":
        return t.self_s
    if field == "calls":
        return float(t.calls)
    return float(t.counts.get(field, 0))


def per_layer(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Set-up plus per-op mean for every PER_LAYER metric."""
    setup = layer_totals(spans, lambda sp: sp.op == "setup")
    ops = layer_totals(spans, lambda sp: sp.op != "setup")
    every = layer_totals(spans)
    out = {}
    for metric in PER_LAYER:
        if metric.endswith(".points_per_s"):
            t = every.get(metric[:-len(".points_per_s")])
            out[metric] = (t.counts.get("points", 0) / t.total_s
                           if t is not None and t.total_s > 0 else 0.0)
        else:
            out[metric] = _field(setup, metric) + _field(ops, metric) / max(n_ops, 1)
    return out


def split_check(workload: str, spans: list[Span],
                op_time: float) -> tuple[bool, float, str]:
    """Check the predicted split inside timed ops.

    ``op_time`` is the traced ops' wall time.  Returns (held, share of op time
    taken by the predicted layer(s), detail).
    """
    totals = layer_totals(spans, lambda sp: sp.op != "setup")
    own = {name: t.self_s for name, t in totals.items()}
    ranked = sorted(own.items(), key=lambda kv: -kv[1])
    top = ", ".join(f"{n} {v / op_time:.1%}" for n, v in ranked[:4])
    if workload == "bvp":
        share = own.get("qpgreen.regular_part", 0.0) / op_time
        held = bool(ranked) and ranked[0][0] == "qpgreen.regular_part"
        return held, share, f"largest self times: {top}"
    if workload == "field":
        green = own.get("qpgreen.green_eval", 0.0) + own.get("qpgreen.green_hessian", 0.0)
        others = [v for n, v in own.items()
                  if n not in ("qpgreen.green_eval", "qpgreen.green_hessian")]
        calls = totals.get("qpgreen.regular_part", LayerTotals()).calls
        held = green > max(others, default=0.0) and calls == 0
        return held, green / op_time, (f"green_eval+green_hessian {green / op_time:.1%}; "
                                       f"regular_part calls in ops {calls}; "
                                       f"largest self times: {top}")
    # sweep: the build_pack subtree against every layer's self time outside it
    inside: set[int] = set()
    for i, sp in enumerate(spans):
        if sp.op != "setup" and sp.name == "nonlinear.build_pack" and i not in inside:
            inside |= subtree(spans, i)
    pack = sum(spans[i].end - spans[i].start for i in inside
               if spans[i].name == "nonlinear.build_pack")
    selfs = self_times(spans)
    outside: dict[str, float] = {}
    for i, sp in enumerate(spans):
        if sp.op != "setup" and i not in inside:
            outside[sp.name] = outside.get(sp.name, 0.0) + selfs[i]
    cli_self = own.get("cli.run", 0.0)
    held = pack > max(outside.values(), default=0.0) and cli_self > 0.0
    return held, pack / op_time, (f"build_pack subtree {pack / op_time:.1%}; "
                                  f"cli.run self {cli_self:.4f} s; "
                                  f"largest self times: {top}")
