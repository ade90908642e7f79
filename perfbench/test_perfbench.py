"""Checks of the benchmark itself: corrupted outputs count as failures,
times are scaled by the reference blocks beside them, and tracing leaves
froblab as it found it.

    python3 -m pytest perfbench -q
"""
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import froblab  # noqa: E402
from froblab import fileio, linalg  # noqa: E402

import builders  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from reference import NOMINAL_S, Reference, Stopwatch  # noqa: E402
from tracing import Tracer  # noqa: E402


class SmallModuleFiles(workloads.ModuleFiles):
    ALGEBRAS = [(2, 3)]
    DIMS = [6]


def test_corrupted_dual_file_fails(tmp_path):
    w = SmallModuleFiles(seed=3, workdir=str(tmp_path))
    w.setup()
    _, tasks = w.run_unit(0)  # dualize
    assert w.units[0][0] == "dualize" and tasks[0].ok, tasks[0].note
    dual_path = w.path("dual_0.json")
    doc = fileio.load_json(dual_path)
    doc["action"][0][0][0] = 1 - doc["action"][0][0][0]  # rho(1) is no longer the identity
    with open(dual_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    ok, note = w.verify_dualize(json.dumps({"round_trip_verified": True}), dual_path, 0)
    assert not ok and "unreadable" in note


def test_unverified_round_trip_fails(tmp_path):
    w = SmallModuleFiles(seed=3, workdir=str(tmp_path))
    w.setup()
    w.run_unit(0)
    ok, _ = w.verify_dualize(
        json.dumps({"round_trip_verified": False}), w.path("dual_0.json"), 0
    )
    assert not ok


def test_wrong_exponent_fails(tmp_path):
    w = SmallModuleFiles(seed=3, workdir=str(tmp_path))
    w.setup()
    assert [cmd for cmd, _ in w.units] == ["dualize", "analyze", "analyze_dual"]
    for index in range(3):
        _, tasks = w.run_unit(index)
        assert tasks[0].ok, tasks[0].note
    for cmd, dual in (("analyze", False), ("analyze_dual", True)):
        report_path = w.path(f"out_0_{cmd}.json")
        doc = fileio.load_json(report_path)
        key = "divisibility_exponent" if doc["side"] == "right" else "torsion_exponent"
        doc[key] += 1
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        ok, note = w.verify_analyze(report_path, 0, dual=dual)
        assert not ok and "expected" in note


def test_check_failures_outside_tasks_fail_every_task():
    tasks = [workloads.Task(0.01, True, ""), workloads.Task(0.02, True, "")]
    doc = {"ok": False, "total": 10, "failed": 1, "results": []}
    workloads.CheckCatalog.verify(1, json.dumps(doc), tasks, 0, "check")
    assert not any(t.ok for t in tasks)
    tasks = [workloads.Task(0.01, True, "")]
    workloads.CheckCatalog.verify(0, "not json", tasks, 0, "check")
    assert not tasks[0].ok


def test_check_failure_inside_a_task_fails_only_that_task():
    tasks = [workloads.Task(0.01, False, "bad"), workloads.Task(0.02, True, "")]
    doc = {"ok": False, "total": 10, "failed": 1, "results": []}
    workloads.CheckCatalog.verify(1, json.dumps(doc), tasks, 1, "check")
    assert [t.ok for t in tasks] == [False, True]


def test_lattice_mismatch_fails():
    assert workloads.SubmoduleLattice.verify(4, 4, {1, 2}, {1, 2})[0]
    assert not workloads.SubmoduleLattice.verify(4, 3, {1, 2}, {1, 2})[0]
    assert not workloads.SubmoduleLattice.verify(4, 4, {1, 2}, {1})[0]


def test_block_module_has_exact_block_count_and_dimension():
    A = froblab.truncated_polynomial_algebra(2, 3)
    M = builders.block_module(A, 4, "right", seed=5, dim=7)
    assert M.dim == 7 and M.validate()
    # without a dimension every block is a proper nonzero quotient A/a
    M = builders.block_module(A, 3, "left", seed=5)
    assert 3 <= M.dim <= 6 and not M.graded_annihilator().is_zero()
    found, _ = builders.divisible_right_modules(A, [3, 4], seed=1)
    assert [m.dim for m in found] == [3, 4] and all(m.is_x_divisible() for m in found)


def test_tracer_spans_nest_and_uninstall_restores():
    kernel = linalg.FpMatrix.kernel
    from_vectors = linalg.Subspace.__dict__["from_vectors"]
    tracer = Tracer()
    for _ in range(2):  # installing again reuses the same wrappers
        tracer.install()
        try:
            tracer.task = 7
            m = froblab.FpMatrix(3, [[1, 2, 0], [0, 1, 1]])
            assert m.kernel().dim == 1
        finally:
            tracer.uninstall()
    assert len(tracer.names) == len(set(tracer.names))
    assert linalg.FpMatrix.kernel is kernel
    assert linalg.Subspace.__dict__["from_vectors"] is from_vectors
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert "FpMatrix.kernel" in names and "Subspace.from_vectors" in names
    by_id = {s[1]: s for s in tracer.spans}
    for name_id, sid, parent, task, start, end, self_s, cells, _ in tracer.spans:
        assert task == 7 and start <= end and 0 <= self_s <= end - start + 1e-9
        if parent >= 0:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]
    metrics = tracer.metrics(1)
    assert metrics["linalg.elim_calls"] >= 2 and metrics["linalg.fpmatrix_new"] >= 1
    assert metrics["linalg.elim_cells"] >= 6


def test_times_are_scaled_by_the_reference_beside_them(tmp_path):
    # a task run while a piece took twice the nominal time counts half
    tasks = [workloads.Task(0.01 * (i + 1), True, "", 2 * NOMINAL_S) for i in range(20)]
    scaled, wall = worker.end_to_end(tasks, NOMINAL_S)
    assert abs(scaled["tasks_per_s"] - 2 * wall["tasks_per_s"]) < 1e-9
    assert abs(scaled["task_p50_ms"] - wall["task_p50_ms"] / 2) < 1e-9

    w = SmallModuleFiles(seed=3, workdir=str(tmp_path))
    w.setup()
    w.reference = Reference()
    before = w.reference.last_s
    _, tasks = w.run_unit(0)
    assert tasks[0].ok, tasks[0].note
    assert tasks[0].ref_s == (before + w.reference.last_s) / 2  # no samples inside


def test_samples_inside_a_task_are_taken_off_its_time():
    w = workloads.Workload(seed=0, workdir="")
    w.reference = Reference()
    before = w.reference.last_s
    start = time.perf_counter()
    with w.reference.sampling():
        task, _, _ = w.timed(lambda: sum(i * i for i in range(3_000_000)))
    inside = list(w.reference.samples)
    assert inside, "no sample inside a task of several timer periods"
    assert task.ok and task.latency_s + w.reference.paused_s < time.perf_counter() - start
    pieces = inside + [before, w.reference.last_s]
    assert abs(task.ref_s - sum(pieces) / len(pieces)) < 1e-12
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_stopwatch_scales_each_lap():
    reference = Reference()
    stopwatch = Stopwatch(reference, start=0.0)
    stopwatch.lap(end=1.0)  # the first lap is scaled by the block after it
    first = reference.last_s
    assert abs(stopwatch.scaled_s - NOMINAL_S / first) < 1e-12
    stopwatch.mark -= 1.0  # a second lap of about one second
    stopwatch.lap()
    second = stopwatch.scaled_s - NOMINAL_S / first
    lap_s = stopwatch.wall_s - 1.0
    assert abs(second - lap_s * NOMINAL_S / ((first + reference.last_s) / 2)) < 1e-12
