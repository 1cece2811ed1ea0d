"""Closed-loop op runner and the summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

# Percentiles above the median that may be reported, highest first.  One is
# reported only when at least MIN_TAIL samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_TAIL = 10
# accuracy_digits is clipped to +-16: an error below double-precision rounding
# carries no further digits, and a missing or non-finite error reads as -16.
ERROR_FLOOR = 1e-16


@dataclass(frozen=True)
class Outcome:
    """What one op returned: its worst error, whether it met its gate, and the
    output bytes the traced run must reproduce exactly."""

    error: float
    ok: bool
    output: bytes


@dataclass(frozen=True)
class OpRecord:
    label: str
    seconds: float
    outcome: Outcome | None  # None when the op raised
    exception: str | None = None

    @property
    def failed(self) -> bool:
        return self.outcome is None or not self.outcome.ok


def run_op(label: str, fn, clock=time.perf_counter) -> OpRecord:
    """Time one op.  An exception is recorded as a failure, never re-raised."""
    t0 = clock()
    try:
        outcome = fn()
    except Exception:  # the loop must keep running; the failure is counted
        return OpRecord(label, clock() - t0, None, traceback.format_exc(limit=3))
    return OpRecord(label, clock() - t0, outcome)


def closed_loop(cycle, seconds: float, clock=time.perf_counter):
    """Issue ops from the fixed cycle, each after the previous one returned,
    until ``seconds`` have elapsed.  Returns (records, elapsed seconds)."""
    records = []
    t0 = clock()
    i = 0
    while clock() - t0 < seconds:
        label, fn = cycle[i % len(cycle)]
        records.append(run_op(label, fn, clock))
        i += 1
    return records, clock() - t0


def tail_percentile(n: int) -> float | None:
    """Highest reportable percentile for n samples, or None."""
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_TAIL:
            return p
    return None


@dataclass(frozen=True)
class Summary:
    attempted: int
    failed: int
    op_s_p50: float
    samples: int
    tail: tuple[float, float] | None  # (percentile, seconds)
    ops_per_s: float
    worst_error: float

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted

    @property
    def accuracy_digits(self) -> float:
        return -math.log10(min(max(self.worst_error, ERROR_FLOOR), 1.0 / ERROR_FLOOR))


def summarize(records, elapsed: float, cycle_len: int = 1) -> Summary:
    """Summary of a closed-loop run over a cycle of ``cycle_len`` ops.

    ops_per_s counts whole cycles only, over their own op time, so the rate is
    at the stated op mix whatever part of a cycle the deadline cut; a run
    that completed no whole cycle falls back to every op over ``elapsed``.
    """
    times = [r.seconds for r in records]
    failed = sum(r.failed for r in records)
    errors = [r.outcome.error if math.isfinite(r.outcome.error) else math.inf
              for r in records if r.outcome is not None]
    whole = len(records) // cycle_len * cycle_len
    if whole:
        rate = sum(not r.failed for r in records[:whole]) / sum(times[:whole])
    else:
        rate = (len(records) - failed) / elapsed
    p = tail_percentile(len(times))
    tail = (p, float(np.percentile(times, p))) if p is not None else None
    return Summary(
        attempted=len(records),
        failed=failed,
        op_s_p50=statistics.median(times),
        samples=len(times),
        tail=tail,
        ops_per_s=rate,
        worst_error=max(errors) if errors else math.inf,
    )
