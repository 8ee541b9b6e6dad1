"""Benchmark entry point: one workload, closed loop, metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up (several times, reporting the median),
then issues its operation back to back -- each one after the previous one
completes, from this single process -- until ``--seconds`` have passed, and
prints the end-to-end metrics.  ``--trace 1`` replays the workload once
untraced and once with spans around every layer entry point (sweeps on the
serial backend, so all layers run in this process), prints the per-layer
metrics and writes the spans to ``<workdir>/trace-<workload>-<seed>.json``.

Every unit of work the workload issues is counted: the end-to-end rates are
completed units over the summed host time of the timed operations.

* ``points_per_s`` -- design points: sweep grid points, policy x leveler
  grid points, or fleet cohorts (one scenario x seed-group duty map each).
* ``evals_per_s`` and ``eval_s.p50`` -- evaluations: a sweep job (as timed
  by the sweep), one ``AgingSimulator.run`` plus its summary and histogram,
  or one whole generated-fleet evaluation (compile included).
* ``devices_per_s`` -- simulated devices: one per sweep or grid point, the
  population size for a fleet.
* ``peak_rss_mb`` -- peak resident set of this process plus the summed
  peaks of one sweep's worker pool, during the timed operations.
* ``setup_s`` -- import and registry load plus the median of the repeated
  workload warm-ups.

Failed sweep jobs, raised operations and failed correctness checks are
counted in ``failed`` (``failed / attempted`` is the failure fraction).  The
line before the result carries the run's settings, environment, checks and
the simulated statistics, which the metrics do not gate.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "evals_per_s": "1/s",
    "eval_s.p50": "s",
    "devices_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Environment variables that would change the measured path if inherited.
UNPINNED_ENV = ("DNN_LIFE_MAX_WORKERS", "DNN_LIFE_STREAM_CACHE")


def per_layer_unit(name: str) -> str:
    """Unit of one per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    if (name.endswith("_ratio") or name.endswith("_util") or name.endswith("_frac")
            or name.startswith("leveling.overhead.")):
        return "ratio"
    return "count"


def _bootstrap() -> None:
    """Import the simulator from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _percentiles(samples):
    """Median plus the highest percentile with at least ten samples beyond it."""
    count = len(samples)
    result = {"count": count, "p50": statistics.median(samples) if samples else 0.0}
    ordered = sorted(samples)
    for percent in (99.9, 99, 95, 90, 75):
        if count * (1 - percent / 100) >= 10:
            index = min(count - 1, int(round(percent / 100 * (count - 1))))
            result[f"p{percent:g}"] = ordered[index]
            break
    return result


def _run_op(workload, ctx, **kwargs):
    """One operation; an exception is reported and counted as a failure."""
    from perfbench.workloads import OpResult

    start = time.perf_counter()
    try:
        return workload.operation(ctx, **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return OpResult(seconds=time.perf_counter() - start, points=0, evals=0,
                        devices=0, eval_samples=[], attempted=1, failed=1)


def _run_checks(workload, ctx, last):
    """Correctness checks on the last operation; a raising check fails."""
    if last is None or last.detail is None:
        return {"operation_completed": False}
    try:
        return workload.checks(ctx, last)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {"checks_completed": False}


def _orchestration(report, executor, workers):
    """Pool metrics of one process-backend sweep."""
    busy = sum(result.seconds for result in report.results)
    pool = max(1, min(workers, executor.batches))
    return {
        "orchestration.wall_s": report.seconds,
        "orchestration.busy_s": busy,
        "orchestration.pool_util": busy / (pool * report.seconds) if report.seconds else 0.0,
        "orchestration.batches": float(executor.batches),
        "orchestration.jobs_failed": float(report.num_failed),
    }


def measure(workload, ctx, seconds):
    """Set up, run the closed loop, and return (metrics, ops, setup info)."""
    from perfbench.probes import PeakMemory

    import_s = time.perf_counter() - START
    warmups = []
    for _ in range(workload.setup_repeats):
        begin = time.perf_counter()
        workload.setup(ctx)
        warmups.append(time.perf_counter() - begin)
    ops = []
    with PeakMemory(children=workload.uses_workers) as memory:
        loop_start = time.perf_counter()
        while True:
            if ops:  # hold one result at a time: memory must not grow with the op count
                ops[-1].detail = None
            ops.append(_run_op(workload, ctx))
            if ops[-1].failed == ops[-1].attempted or \
                    time.perf_counter() - loop_start >= seconds:
                break
    busy = sum(op.seconds for op in ops)
    samples = [sample for op in ops for sample in op.eval_samples]
    metrics = {
        "setup_s": import_s + statistics.median(warmups),
        "points_per_s": sum(op.points for op in ops) / busy,
        "evals_per_s": sum(op.evals for op in ops) / busy,
        "eval_s.p50": statistics.median(samples) if samples else 0.0,
        "devices_per_s": sum(op.devices for op in ops) / busy,
        "peak_rss_mb": memory.peak_mb,
    }
    info = {"import_s": import_s, "warmup_s": warmups,
            "eval_s": _percentiles(samples)}
    return metrics, ops, info


def replay_traced(workload, ctx, trace_path):
    """Untraced and traced replays of one operation; per-layer metrics."""
    from perfbench.tracing import Tracer, instrument, layer_metrics, span_records
    from perfbench.workloads import CountingExecutor, SweepWorkload

    workload.setup(ctx)
    ops = []
    orchestration = {"orchestration.wall_s": 0.0, "orchestration.busy_s": 0.0,
                     "orchestration.pool_util": 0.0, "orchestration.batches": 0.0,
                     "orchestration.jobs_failed": 0.0}
    if isinstance(workload, SweepWorkload):
        executor = CountingExecutor(ctx.workers)
        pooled = workload.run_sweep(ctx, executor)
        ops.append(pooled)
        orchestration = _orchestration(pooled.detail, executor, ctx.workers)
    untraced = _run_op(workload, ctx, serial=True)
    tracer = Tracer()
    with instrument(tracer):
        traced = _run_op(workload, ctx, serial=True)
    ops += [untraced, traced]
    metrics = layer_metrics(tracer.spans, cells=workload.cells)
    metrics.update(orchestration)
    trace_path.write_text(json.dumps({"workload": workload.name, "seed": ctx.seed,
                                      "spans": span_records(tracer.spans)}))
    info = {"untraced_s": untraced.seconds, "traced_s": traced.seconds,
            "tracing_overhead_frac": ((traced.seconds - untraced.seconds)
                                      / untraced.seconds if untraced.seconds else 0.0),
            "spans": len(tracer.spans), "trace_file": trace_path.name}
    return metrics, ops, info


def run(args, workdir: Path):
    """Measure one workload; returns (report, result) dictionaries."""
    from perfbench.probes import calibration_seconds
    from perfbench.tracing import span_cost_seconds
    from perfbench.workloads import Context, make_workload
    from repro.orchestration.registry import load_all_experiments

    load_all_experiments()
    nproc = len(os.sched_getaffinity(0))
    ctx = Context(seed=args.seed, workdir=workdir, workers=min(2, nproc))
    ctx.fresh_store()
    workload = make_workload(args.workload, smoke=args.smoke)
    if args.trace:
        metrics, ops, info = replay_traced(
            workload, ctx, workdir.parent / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics, ops, info = measure(workload, ctx, args.seconds)
    completed = [op for op in ops if op.detail is not None]
    last = completed[-1] if completed else None
    checks = _run_checks(workload, ctx, last)
    attempted = sum(op.attempted for op in ops) + len(checks)
    failed = sum(op.failed for op in ops) + sum(1 for ok in checks.values() if not ok)
    if args.trace:
        metrics["failed_frac"] = failed / attempted
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        units = END_TO_END_UNITS
    import numpy

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "settings": {"stream_store": "fresh directory per run"
                     + (", and per sweep" if args.workload == "cold_sweep" else ""),
                     "result_cache": None,
                     "backend": ("process for orchestration metrics, serial for spans"
                                 if args.trace else "process"),
                     "workers": ctx.workers, "nproc": nproc,
                     "load": "closed loop, one client"},
        "environment": {"calibration_s": calibration_seconds(),
                        "tracer_span_s": span_cost_seconds(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__, "machine": platform.machine()},
        "measurement": info,
        "operations": [{"seconds": op.seconds, "points": op.points,
                        "evals": op.evals, "devices": op.devices,
                        "attempted": op.attempted, "failed": op.failed}
                       for op in ops],
        "checks": checks,
        "statistics": workload.statistics(last) if last is not None else {},
        "input_sha256": hashlib.sha256(workload.fingerprint().encode()).hexdigest(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_sweep", "warm_sweep", "leveled_grid", "gen_fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes (the harness self-test)")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench-work",
                        help="scratch directory for stream stores and traces")
    args = parser.parse_args(argv)
    _bootstrap()
    workdir = args.workdir.resolve() / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["DNN_LIFE_CACHE_DIR"] = str(workdir / "result-cache")
    os.environ["REPRO_FULL_EXPERIMENTS"] = "0"
    for name in UNPINNED_ENV:
        os.environ.pop(name, None)
    try:
        report, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no trace was kept there
        except OSError:
            pass
    print(json.dumps({"perfbench": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
