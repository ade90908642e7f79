"""One workload in one process: set up, measure, check, print one JSON line.

Started by run.py with froblab's sources and this directory on PYTHONPATH.
Set-up time counts from the top of this file, so it includes importing
numpy and froblab; like the tasks' times it is scaled to reference speed
(reference.py).
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

MIN_TASKS = 100  # so that at least ten samples lie beyond p90


def measure(workload, seconds: float, min_tasks: int, reference):
    """Run whole passes over the inputs until `seconds` of task time and
    `min_tasks` tasks, sampling the machine's speed (reference.py).  A cap of
    `seconds` + 60 s of wall time keeps a pathological slowdown from
    running past the time limit."""
    workload.reference = reference
    task_s, records, index = 0.0, [], 0
    wall_start = time.perf_counter()
    with reference.sampling():
        while task_s < seconds or len(records) < min_tasks or index % workload.pass_units():
            if time.perf_counter() - wall_start > seconds + 60:
                break
            _, tasks = workload.run_unit(index)
            task_s += sum(t.latency_s for t in tasks)
            records.extend(tasks)
            index += 1
    workload.reference = None
    return records


def latency_metrics(latencies: list[float]) -> dict:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "tasks_per_s": len(latencies) / sum(latencies),
        "task_p50_ms": deciles[4] * 1e3,
        "task_p90_ms": deciles[8] * 1e3,
    }


def end_to_end(records, nominal_s: float) -> tuple[dict, dict]:
    """The metrics on task times scaled to reference speed, and the same
    on wall-clock task times.  A task without a reference time (one that
    never ran) is not scaled."""
    wall = [t.latency_s for t in records]
    scaled = [t.latency_s * nominal_s / t.ref_s if t.ref_s else t.latency_s for t in records]
    return latency_metrics(scaled), latency_metrics(wall)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="CSV file for the spans of a traced run")
    args = parser.parse_args()

    import numpy
    from reference import NOMINAL_S, Reference, Stopwatch

    # set-up is timed in laps with a reference block after each, like tasks
    imported = time.perf_counter()
    reference = Reference()
    stopwatch = Stopwatch(reference, _T0)
    stopwatch.lap(end=imported)
    from workloads import WORKLOADS  # imports froblab: part of set-up time

    stopwatch.lap()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.stopwatch = stopwatch
    workload.setup()
    stopwatch.lap()
    workload.stopwatch = None
    result = {
        "setup_s": stopwatch.scaled_s,
        "setup_wall_s": stopwatch.wall_s,
        "info": workload.info,
        "numpy": numpy.__version__,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from tracing import Tracer

        # each unit runs untraced, then again traced, until the untraced
        # runs reach half the time; alternating keeps machine drift out of
        # the overhead
        tracer = Tracer()
        plain_s, plain, traced_s, records, index = 0.0, [], 0.0, [], 0
        while plain_s < args.seconds / 2:
            elapsed, tasks = workload.run_unit(index)
            plain_s += elapsed
            plain.extend(tasks)
            tracer.install()
            workload.tracer = tracer
            try:
                elapsed, tasks = workload.run_unit(index)
            finally:
                tracer.uninstall()
                workload.tracer = None
            traced_s += elapsed
            records.extend(tasks)
            index += 1
        metrics = tracer.metrics(len(records))
        metrics["trace.overhead_s"] = (traced_s - plain_s) / len(records)
        metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
        result["trace"] = {
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "tasks": len(records),
            "spans": len(tracer.spans),
        }
        if args.spans:
            tracer.write_spans(args.spans)
        records = plain + records
    else:
        records = measure(workload, args.seconds, MIN_TASKS, reference)
        metrics, result["wall"] = end_to_end(records, NOMINAL_S)
        result["reference_piece_ms"] = statistics.median(t.ref_s for t in records) * 1e3

    failures = [t.note for t in records if not t.ok]
    result.update(
        metrics=metrics,
        attempted=len(records),
        failed=len(failures),
        failure_notes=failures[:5],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
