"""qphelm benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload bvp --seed 1 --seconds 30 --trace 0

A single caller issues each op after the previous one returns.  With
``--trace 0`` nothing is patched and the end-to-end metrics are reported;
with ``--trace 1`` the same workload and seed run with a span around every
traced qphelm function, and the per-layer metrics are reported.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s is the median of several set-ups: at least SETUP_MIN_REPEATS, and more
# while they total under SETUP_MIN_SECONDS, up to SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("bvp", "field", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _setup_repeated(workload, inputs, work_dir):
    times = []
    prepared = None
    while (len(times) < SETUP_MIN_REPEATS
           or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS)):
        t0 = time.perf_counter()
        prepared = workload.setup(inputs, work_dir)
        times.append(time.perf_counter() - t0)
    return prepared, times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(args, workload, inputs, work_dir):
    from qpbench import loop

    prepared, setup_times = _setup_repeated(workload, inputs, work_dir)
    records, elapsed = loop.closed_loop(prepared.cycle, args.seconds)
    s = loop.summarize(records, elapsed, len(prepared.cycle))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s_p50": (s.op_s_p50, "s"),
        "ops_per_s": (s.ops_per_s, "1/s"),
        "accuracy_digits": (s.accuracy_digits, "digits"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    lines = [f"{args.workload} setup_s {metrics['setup_s'][0]:.6g} s "
             f"(median of {len(setup_times)} set-ups)",
             f"{args.workload} op_s_p50 {s.op_s_p50:.6g} s (n={s.samples})"]
    if s.tail is not None:
        lines.append(f"{args.workload} op_s_p{s.tail[0]:g} {s.tail[1]:.6g} s (n={s.samples})")
    lines += [f"{args.workload} ops_per_s {s.ops_per_s:.6g} 1/s "
              f"(whole {len(prepared.cycle)}-op cycles; {s.attempted} ops in {elapsed:.3f} s)",
              f"{args.workload} fail_frac {s.fail_frac:.6g} 1 ({s.failed}/{s.attempted})",
              f"{args.workload} accuracy_digits {s.accuracy_digits:.6g} digits "
              f"(worst error {s.worst_error:.3e})",
              f"{args.workload} peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MiB"]
    for r in records:
        if r.failed:
            why = r.exception or f"gate missed, error {r.outcome.error:.3e}"
            lines.append(f"failed op {r.label}: {why}")
    return prepared, records, metrics, s.failed == 0, lines


def _traced(args, workload, inputs, work_dir):
    from qpbench import layers, loop, spans

    tracer = spans.Tracer()

    def traced(label, fn):
        undo = spans.install(tracer)
        try:
            return loop.run_op(label, fn)
        finally:
            spans.uninstall(undo)

    tracer.op = "setup"
    undo = spans.install(tracer)
    try:
        prepared = workload.setup(inputs, work_dir)
    finally:
        spans.uninstall(undo)

    # Whole cycles, each op once untraced and once traced, alternating which
    # goes first; at least one cycle, more while time remains.
    plain, with_spans = [], []
    t0 = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - t0 < args.seconds:
        for i, (label, fn) in enumerate(prepared.cycle):
            tracer.op = f"{cycles}:{i}:{label}"
            if len(plain) % 2 == 0:
                plain.append(loop.run_op(label, fn))
                with_spans.append(traced(label, fn))
            else:
                with_spans.append(traced(label, fn))
                plain.append(loop.run_op(label, fn))
        cycles += 1

    identical = all(a.outcome is not None and b.outcome is not None
                    and a.outcome.output == b.outcome.output
                    for a, b in zip(plain, with_spans))
    failed = sum(r.failed for r in plain + with_spans)
    overhead = (sum(r.seconds for r in with_spans) / sum(r.seconds for r in plain)) - 1.0
    held, share, detail = layers.split_check(args.workload, tracer.spans,
                                             sum(r.seconds for r in with_spans))
    values = layers.per_layer(tracer.spans, len(with_spans))
    values["trace_overhead_frac"] = overhead
    values["split.prediction_held"] = float(held)
    values["split.predicted_share"] = share
    metrics = {name: (values[name], layers.unit(name)) for name in layers.TRACE_METRICS}
    lines = [f"{args.workload} traced {len(with_spans)} ops in {cycles} cycle(s), "
             f"{len(tracer.spans)} spans",
             f"{args.workload} outputs bit-identical traced vs untraced: {identical}",
             f"{args.workload} trace_overhead_frac {overhead:.4f}",
             f"{args.workload} split prediction {'held' if held else 'FAILED'}: {detail}"]
    lines += [f"{args.workload} {name} {v:.6g} {u}" for name, (v, u) in metrics.items()]
    return prepared, plain + with_spans, metrics, identical and failed == 0, lines


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from qpbench import record

    record.pin_threads()
    try:
        import qphelm
    except ImportError as exc:
        print(f"error: cannot import qphelm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(qphelm.__file__).resolve().parent != ROOT / "src" / "qphelm":
        print(f"error: qphelm resolved to {qphelm.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from qpbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.draw(args.seed)
    work_dir = ROOT / ".bench_work"
    try:
        run = _traced if args.trace else _untraced
        prepared, records, metrics, correct, lines = run(args, workload, inputs, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    rec = record.run_record(ROOT, workload=args.workload, seed=args.seed,
                            seconds=args.seconds, trace=args.trace,
                            closed_loop_clients=1, config=prepared.config)
    print("record " + json.dumps(rec, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
