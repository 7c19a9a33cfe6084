"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload fit_arm --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src``. The run sets the
workload up several times (``setup_s`` is the median), then repeats it while
another repetition, as long as the last one, still ends within
``--seconds`` (always at least once), and reports medians over the
repetitions. Each repetition runs under the calibrator (``calibration.py``):
the gated times are in units of its reference kernel ("ref"), and
``setup_s`` is in seconds at the kernel's reference speed; the raw seconds
are in the report. Every repetition is checked, and repetitions
must agree bit for bit on their quality values. ``--trace 1`` makes one
untraced and one traced repetition and reports the per-layer metrics
instead of the end-to-end ones.

Standard output ends with two lines: a report (environment, every metric by
name and unit, checks, the span tree when traced) and the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pin  # noqa: E402  (must come before anything that imports NumPy)

SETUP_BATCH = 51
# Kernel seconds that one "ref" stands for when setup_s is put back into seconds:
# the calibration kernel ran in 2.1-2.7 ms on the 2-core host the bounds were set on.
KERNEL_REFERENCE_S = 2e-3
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "surrogate_ref": "ref"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_checkout():
    """Import the workloads, refusing a ``pinnpid`` from outside this checkout."""
    import workloads
    import pinnpid

    if workloads.SRC not in Path(pinnpid.__file__).resolve().parents:
        raise ImportError(f"pinnpid was imported from {pinnpid.__file__}, not {workloads.SRC}")
    return workloads


def run_once(wl, case, setup=None, tracer=None):
    """One repetition under the calibrator, which also times ``setup`` when given.

    Returns (run, {stage: (seconds, ref units)}, kernel seconds over the whole
    repetition, set-up seconds, absent hook keys).
    """
    import tracing
    from calibration import Calibrator

    gc.collect()
    absent_hooks = []
    with Calibrator(extra=setup) as cal:
        if tracer is None:
            run = wl.run(case, cal.clock)
        else:
            tracer.clock = cal.clock
            with tracing.traced(tracer) as absent_hooks:
                run = wl.run(case, cal.clock)
    timings = wl.timings(run)
    stages = {k: (sec, sec / cal.unit(a, b)) for k, (sec, a, b) in timings.items()}
    kernel_s = cal.unit(*timings["wall"][1:])
    return run, stages, kernel_s, cal.extra_samples, absent_hooks


def time_setups(wl, seed: int, n: int):
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        case = wl.setup(seed)
        times.append(time.perf_counter() - t0)
    return case, times


def measure(wl, seed: int, seconds: float, trace: bool):
    """Set up, run, check and score one workload; returns (report, result)."""
    import workloads as W
    import tracing

    gc.collect()
    case, setup_times = time_setups(wl, seed, SETUP_BATCH)

    problems, runs, stages, kernels, qualities = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run, stage_times, kernel_s, setups, _ = run_once(wl, case, setup=lambda: wl.setup(seed))
        last = time.perf_counter() - t0
        setup_times += setups
        runs.append(run)
        stages.append(stage_times)
        kernels.append(kernel_s)
        problems += wl.check(case, run)
        if not wl.failed(run):
            qualities.append(wl.quality(case, run))
        if trace or time.perf_counter() - start + last > seconds:
            break
    setup_times += time_setups(wl, seed, SETUP_BATCH)[1]
    if any(q != qualities[0] for q in qualities):
        problems.append(f"repetitions disagree on quality values: {qualities}")
    quality = qualities[0] if qualities else {}

    raw = {f"{k}_s": [st[k][0] for st in stages] for k in stages[0]}
    ref = {f"{k}_ref": W.median([st[k][1] for st in stages]) for k in stages[0]}
    # set-up seconds at the kernel's reference speed: raw seconds drifted by up
    # to 30% between two ten-run sets on a shared host, this by up to 14%
    kernel_s = W.median(kernels)
    setup_raw_s = W.median(setup_times)
    end_to_end = {"setup_s": setup_raw_s / kernel_s * KERNEL_REFERENCE_S,
                  **{k: ref[k] for k in END_TO_END if k in ref}}
    attempted = wl.attempted() * len(runs)
    failed = sum(wl.failed(r) for r in runs)
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": pin.environment(), "repetitions": len(runs), "setup_runs_s": setup_times,
        "stages": stages,
        "metrics": {"setup_s": [end_to_end["setup_s"], "s"], "setup_raw_s": [setup_raw_s, "s"],
                    "kernel_ms": [1e3 * kernel_s, "ms"],
                    **{k: [v, "ref"] for k, v in ref.items()},
                    **{k: [W.median(v), "s"] for k, v in raw.items()},
                    "failed_frac": [failed / attempted, "ratio"],
                    **wl.stage_metrics(runs),
                    **{k: [v, "1"] for k, v in quality.items()}},
        "errors": [e for r in runs for e in wl.errors(r)],
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}

    if trace:
        tracer = tracing.Tracer()
        traced_run, traced_stages, _, _, absent_hooks = run_once(wl, case, tracer=tracer)
        attempted += wl.attempted()
        failed += wl.failed(traced_run)
        problems += wl.check(case, traced_run)
        if not wl.failed(traced_run) and wl.quality(case, traced_run) != quality:
            problems.append("the traced repetition changed the quality values")
        absent = tracing.absent_spans(absent_hooks)
        tracing.require_spans(tracer, wl.expected_spans, absent)
        # both walls in kernel units, so host drift between the two repetitions cancels
        overhead = traced_stages["wall"][1] / end_to_end["wall_ref"] - 1.0
        extras = {**wl.trace_extras(case, traced_run), "overhead_frac": overhead}
        layers = tracing.layer_metrics(tracer, absent, extras)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report.update(absent_hooks=absent_hooks, absent_spans=sorted(absent),
                      layer_metrics={k: [v, u] for k, (v, u) in layers.items()},
                      span_tree=tracing.span_tree(tracer))

    report["problems"] = problems
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin.pin_threads()
    except pin.UnpinnedEnvironment as exc:
        print(f"refusing to time: {exc}", file=sys.stderr)
        return 2
    W = import_checkout()
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    report, result = measure(W.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
