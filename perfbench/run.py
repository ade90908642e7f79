"""froblab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload check_catalog --seed 1 --seconds 20 --trace 0

Run from the root of a froblab checkout.  Each workload runs in fresh
single-threaded processes (BLAS and OpenMP pools pinned to one thread):
two that only set up, then one that sets up, measures and checks.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Lines before it give the same numbers for a reader, with provenance.

Times are scaled to reference speed: each task's time is multiplied by
`reference.NOMINAL_S` over the time of a fixed reference piece of work
timed during and beside it, so the host's changes of speed cancel out
(see reference.py).  The
wall-clock numbers are printed too.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("check_catalog", "module_files", "algebra_zoo", "submodule_lattice")
END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_RUNS = 3  # set-up is measured in three processes; the median is reported
TIME_LIMIT_S = 170  # every process of one workload run ends within this


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    env.pop("FROBLAB_BUDGET", None)
    return env


def provenance() -> dict[str, object]:
    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py to completion and parse its last output line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + argv
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=max(deadline - time.monotonic(), 1),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run the workload's processes, each in a fresh work directory: with
    `trace` 0, set-up-only processes and then the measuring one."""
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    runs = 1 if trace else SETUP_RUNS
    results = []
    for i in range(runs):
        if i < runs - 1:
            extra = ["--setup-only"]
        else:
            extra = ["--trace", str(trace)]
            if trace:
                extra += ["--spans", os.path.join(OUT, f"spans-{name}.csv")]
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
        try:
            results.append(run_worker(base + extra + ["--workdir", workdir], deadline))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    result = results[-1]
    if not trace:
        result["setup_samples_s"] = [r["setup_s"] for r in results]
        result["setup_wall_samples_s"] = [r["setup_wall_s"] for r in results]
        result["metrics"]["setup_s"] = statistics.median(result["setup_samples_s"])
        result["metrics"]["peak_rss_mb"] = result["peak_rss_mb"]
    return result


def per_layer_units() -> dict[str, str]:
    sys.path.insert(0, HERE)
    from tracing import PER_LAYER

    return {name: unit for name, unit, _ in PER_LAYER}


def report(name: str, seed: int, trace: int, result: dict, prov: dict) -> dict:
    """Print the human-readable lines; return the metrics with units."""
    units = per_layer_units() if trace else dict(END_TO_END)
    metrics = {k: {"value": result["metrics"][k], "unit": units[k]} for k in units}
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name} seed {seed} trace {trace}: "
          f"{attempted} tasks attempted, {failed} failed")
    print(f"  fail_ratio = {failed / attempted:.6f} ratio")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if not trace:
        beyond = attempted - int(0.9 * attempted)
        wall = result["wall"]
        print(f"  latency samples: {attempted} ({beyond} beyond p90); "
              f"set-up samples: {', '.join(f'{s:.3f}' for s in result['setup_samples_s'])} s")
        print(f"  wall clock: tasks_per_s = {wall['tasks_per_s']:.6g} 1/s, "
              f"task_p50_ms = {wall['task_p50_ms']:.6g} ms, "
              f"task_p90_ms = {wall['task_p90_ms']:.6g} ms, set-up samples: "
              f"{', '.join(f'{s:.3f}' for s in result['setup_wall_samples_s'])} s; "
              f"median reference piece {result['reference_piece_ms']:.4f} ms")
    else:
        t = result["trace"]
        print(f"  traced {t['tasks']} tasks, {t['spans']} spans: {t['traced_s']:.3f} s traced "
              f"vs {t['untraced_s']:.3f} s untraced")
    for note in result["failure_notes"]:
        print(f"  FAILED: {note}")
    if result["info"]:
        print(f"  info: {json.dumps(result['info'])}")
    print("  provenance: " + json.dumps(dict(prov, numpy=result["numpy"])))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "froblab", "cli.py")):
        print(f"no froblab sources under {ROOT}/src; run from a froblab checkout",
              file=sys.stderr)
        return 2
    prov = provenance()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"workload {name} did not finish: {exc}", file=sys.stderr)
            return 1
        shown = report(name, args.seed, args.trace, result, prov)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in shown.items()})
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
