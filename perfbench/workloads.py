"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup()`, then runs units
of work through `run_unit(i)`.  A unit returns the seconds it spent inside
froblab and one `Task` per task it ran; every task's output is checked right
after the unit, outside the timed part.  Units repeat cyclically, so a run
of any length is well defined.  In a measured run the speed of the machine
is sampled during and right after every task (reference.py), outside the
task's time; a `check_catalog` unit's seconds include those samples, its
tasks' do not.

The program is driven only through froblab's public API and the in-process
`froblab.cli.main`.  Calls go through module attributes (`fl.dual_module`,
not a name imported into this file), so a traced run sees them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass

import numpy as np

import froblab as fl
from froblab import checks, cli, fileio

import builders
from tracing import replace_function, restore


GOLDEN = (5**0.5 - 1) / 2


def spread(items: list, key, rng: random.Random) -> list:
    """A seeded order of `items` in which every run of consecutive items
    samples the whole range of `key` in proportion.

    Items are ranked by key; position i takes the rank of the i-th point of
    a golden-ratio sequence.  A run that stops part-way through a pass then
    has the same cost mix as a whole pass.
    """
    ranked = sorted(items, key=lambda item: (key(item), rng.random()))
    offset = rng.random()
    x = [(i * GOLDEN + offset) % 1.0 for i in range(len(ranked))]
    rank_of = [0] * len(x)
    for rank, i in enumerate(sorted(range(len(x)), key=x.__getitem__)):
        rank_of[i] = rank
    return [ranked[rank_of[i]] for i in range(len(ranked))]


@dataclass
class Task:
    latency_s: float
    ok: bool
    note: str
    # mean reference piece time while the task ran (reference.py); 0.0
    # when no reference runs
    ref_s: float = 0.0


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.reference = None  # a reference.Reference in a measured run
        self.stopwatch = None  # a reference.Stopwatch during set-up
        self.task_id = 0
        self.info: dict[str, object] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, index: int) -> tuple[float, list[Task]]:
        raise NotImplementedError

    def pass_units(self) -> int:
        """Units in one pass over the inputs.  A measured run ends at the end
        of a pass, so every run times the same mix of tasks."""
        raise NotImplementedError

    def lap(self) -> None:
        """Mark a point in set-up between two pieces of work."""
        if self.stopwatch is not None:
            self.stopwatch.lap()

    def _start_task(self) -> None:
        if self.tracer is not None:
            self.tracer.task = self.task_id
        self.task_id += 1
        if self.reference is not None:
            self._mark = self.reference.mark()

    def _end_task(self, elapsed: float, ok: bool, note: str) -> Task:
        """Close a task that took `elapsed` seconds.  In a measured run,
        take the reference samples off its time, time one reference block
        right after it, and give it the mean piece time of the samples and
        the blocks before and after: how fast the machine ran meanwhile."""
        if self.tracer is not None:
            self.tracer.task = -1
        if self.reference is None:
            return Task(elapsed, ok, note)
        inside, paused = self.reference.since(self._mark)
        pieces = inside + [self.reference.last_s, self.reference.block()]
        return Task(elapsed - paused, ok, note, sum(pieces) / len(pieces))

    def timed(self, work):
        """Run `work()` as one task: (the task, its result or None, error
        text).  The task is ok until the caller's checks say otherwise.

        A task that raises is a failed task; the run goes on.
        """
        self._start_task()
        start = time.perf_counter()
        try:
            result, error = work(), ""
        except Exception as exc:
            result, error = None, repr(exc)
        elapsed = time.perf_counter() - start
        return self._end_task(elapsed, True, ""), result, error

    def checking(self):
        """Context for output checks: never traced."""
        return self.tracer.pause() if self.tracer is not None else contextlib.nullcontext()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


# -- check_catalog -----------------------------------------------------------------


class CheckCatalog(Workload):
    """`froblab check` on the default catalog; a task is one module_suite call."""

    name = "check_catalog"
    BUDGET = 8  # random instances per algebra: 182 module_suite calls per check
    # Exhaustive submodule enumeration is capped at 256 vectors.  At the
    # default 1024 a few F5 modules of dimension 4 take seconds each and
    # decide the run time on their own; submodule_lattice measures them.
    SUBMODULE_BUDGET = 256
    # `check --seed s` samples its modules from s, and their sizes and costs
    # vary with it.  Every run therefore cycles through the same three
    # checks (a 16 s run completes three to five), so every run measures
    # nearly the same cost mix; the seed picks the order.
    CHECK_SEEDS = (1, 2, 3)

    def setup(self) -> None:
        os.environ["FROBLAB_BUDGET"] = str(self.SUBMODULE_BUDGET)
        self.check_seeds = list(self.CHECK_SEEDS)
        random.Random(self.seed).shuffle(self.check_seeds)

    def pass_units(self) -> int:
        return 1  # each check is a whole pass over the catalog

    def run_unit(self, index: int) -> tuple[float, list[Task]]:
        seed = self.check_seeds[index % len(self.check_seeds)]
        tasks: list[Task] = []
        laws_failed_in_tasks = 0
        suite = checks.module_suite  # the traced wrapper during a traced run

        def timed_suite(ctx, name, module, rng, report, submodule_budget):
            nonlocal laws_failed_in_tasks
            before = len(report.results)
            self._start_task()
            start = time.perf_counter()
            ok = False
            try:
                suite(ctx, name, module, rng, report, submodule_budget)
                failed = sum(not r.ok for r in report.results[before:])
                laws_failed_in_tasks += failed
                ok = failed == 0
            finally:
                elapsed = time.perf_counter() - start
                tasks.append(self._end_task(elapsed, ok, "" if ok else name))

        undo = replace_function(suite, timed_suite)
        out = io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(
                    ["check", "--seed", str(seed), "--budget", str(self.BUDGET),
                     "--format", "structured"]
                )
        except Exception as exc:  # a crash fails the unit; the run goes on
            rc, error = None, repr(exc)
        finally:
            elapsed = time.perf_counter() - start
            restore(undo)
        self.verify(rc, out.getvalue(), tasks, laws_failed_in_tasks,
                    f"check --seed {seed} {error}".strip())
        return elapsed, tasks

    @staticmethod
    def verify(rc, stdout: str, tasks: list[Task], laws_failed_in_tasks: int, what: str) -> None:
        """Exit 0 with zero failed laws; otherwise the failures must be the
        tasks' own, or every task of the check fails.

        A failing law inside a task has already failed that task.  A failure
        the tasks cannot account for (a crash, an unparsable report, a failed
        catalog-level law) is charged to all of them.
        """
        try:
            doc = json.loads(stdout)
            failed_laws = int(doc["failed"])
            consistent = doc["ok"] == (failed_laws == 0) and doc["total"] > 0
        except (ValueError, KeyError, TypeError):
            failed_laws, consistent = -1, False
        expected_rc = 0 if failed_laws == 0 else 1
        if consistent and rc == expected_rc and failed_laws == laws_failed_in_tasks:
            return
        for t in tasks:
            t.ok = False
            t.note = f"{what}: exit {rc}, {failed_laws} failed laws"
        if not tasks:
            tasks.append(Task(0.0, False, f"{what}: exit {rc}, no task ran"))


# -- module_files ---------------------------------------------------------------------


class ModuleFiles(Workload):
    """Per-file `froblab dualize` and `froblab analyze` on module files."""

    name = "module_files"
    # (p, k): modules over F_p[t]/t^k; 1048573 is the largest prime below 2^20
    ALGEBRAS = [(2, 3), (3, 2), (1048573, 2)]
    DIMS = [8, 10, 12, 14, 16, 20, 24]

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.files = []
        for p, k in self.ALGEBRAS:
            A = fl.truncated_polynomial_algebra(p, k)
            alg_path = self.path(f"algebra_p{p}.json")
            fileio.atomic_write_text(alg_path, fileio.dump_json(fileio.algebra_to_doc(A)))
            for j, n in enumerate(self.DIMS):
                # the block structure is fixed per (p, n); the seed picks the basis
                side = ("left", "right")[j % 2]
                M = builders.block_module(A, n // 2, side, seed=1000 * p + n, dim=n)
                M = builders.conjugate(M, rng)
                mod_path = self.path(f"module_p{p}_n{n}.json")
                fileio.atomic_write_text(mod_path, fileio.dump_json(fileio.module_to_doc(M)))
                self.files.append((alg_path, mod_path, A, M))
                self.lap()
        self.files = spread(self.files, lambda f: (f[3].dim, f[2].p), rng)
        # per file: write the dual, analyze the module, analyze the dual
        self.units = [
            (cmd, i) for i in range(len(self.files))
            for cmd in ("dualize", "analyze", "analyze_dual")
        ]
        self.contexts: dict[int, object] = {}
        self.expected_exponents: dict[int, int] = {}

    def pass_units(self) -> int:
        return len(self.units)

    def run_unit(self, index: int) -> tuple[float, list[Task]]:
        cmd, i = self.units[index % len(self.units)]
        alg_path, mod_path, A, M = self.files[i]
        dual_path = self.path(f"dual_{i}.json")
        out_path = self.path(f"out_{i}_{cmd}.json")
        if cmd == "dualize":
            argv = ["dualize", alg_path, mod_path, "--out", dual_path, "--format", "structured"]
        else:
            target = mod_path if cmd == "analyze" else dual_path
            argv = ["analyze", alg_path, target, "--format", "structured", "--out", out_path]
        stdout = io.StringIO()

        def work():
            with contextlib.redirect_stdout(stdout):
                return cli.main(argv)

        task, rc, error = self.timed(work)
        with self.checking():
            if rc != 0:
                task.ok, task.note = False, f"{' '.join(argv[:3])}: exit {rc} {error}"
            elif cmd == "dualize":
                task.ok, task.note = self.verify_dualize(stdout.getvalue(), dual_path, i)
            else:
                task.ok, task.note = self.verify_analyze(out_path, i, dual=cmd == "analyze_dual")
        return task.latency_s, [task]

    def _context(self, A):
        if A.p not in self.contexts:
            self.contexts[A.p] = fl.build_duality_context(A)
        return self.contexts[A.p]

    def verify_dualize(self, stdout: str, dual_path: str, i: int) -> tuple[bool, str]:
        """The round trip is reported verified, and dualizing the written dual
        gives back the input exactly."""
        _, mod_path, A, M = self.files[i]
        try:
            report = json.loads(stdout)
            dual = fileio.module_from_doc(fileio.load_json(dual_path), A)
        except (ValueError, KeyError, OSError, fl.AxiomError) as exc:
            return False, f"dualize {mod_path}: unreadable output ({exc})"
        if report.get("round_trip_verified") is not True:
            return False, f"dualize {mod_path}: round_trip_verified is not true"
        if dual.side == M.side or fl.dual_module(dual, self._context(A)) != M:
            return False, f"dualize {mod_path}: the dual of the written dual is not the input"
        return True, ""

    def verify_analyze(self, report_path: str, i: int, dual: bool = False) -> tuple[bool, str]:
        """A right module's divisibility exponent and its dual's torsion
        exponent (or a left module's torsion exponent and its dual's
        divisibility exponent) are equal: both reports must give the value
        computed from the in-memory module."""
        _, mod_path, A, M = self.files[i]
        if i not in self.expected_exponents:
            D = fl.dual_module(M, self._context(A))
            self.expected_exponents[i] = (
                D.torsion_exponent() if M.side == "right" else D.divisibility_exponent()
            )
        side = M.side if not dual else ("left" if M.side == "right" else "right")
        key = "divisibility_exponent" if side == "right" else "torsion_exponent"
        try:
            doc = fileio.load_json(report_path)
            got = (doc["side"], doc["dim"], doc[key])
        except (ValueError, KeyError, OSError) as exc:
            return False, f"analyze {report_path}: unreadable report ({exc})"
        want = (side, M.dim, self.expected_exponents[i])
        if got != want:
            what = "dual of " + mod_path if dual else mod_path
            return False, f"analyze {what}: reported {got}, expected {want}"
        return True, ""


# -- algebra_zoo -------------------------------------------------------------------------


@dataclass
class AlgebraSpec:
    family: str
    p: int
    table: np.ndarray
    one: np.ndarray
    labels: list[str]
    factors: int
    twist: np.ndarray


class AlgebraZoo(Workload):
    """The algebra layer on 100 fresh algebras of dimension 4 to 10."""

    name = "algebra_zoo"
    # (family, p, dimension, count): counts fall with the p^dim element scans,
    # so one pass over the zoo takes about 13 s on a 2-core Xeon.  Nothing
    # above dimension 10: a single task of 1 to 3 s (F2[t]/t^12) decides
    # whether a run takes it once or twice.
    STRATA = (
        [("truncated", 2, d, c) for d, c in ((4, 3), (5, 3), (6, 3), (7, 2), (8, 2), (9, 2), (10, 1))]
        + [("truncated", 3, d, c) for d, c in ((4, 3), (5, 2), (6, 2))]
        + [("truncated", 5, 4, 3)]
        + [("monomial", 2, d, c) for d, c in ((4, 5), (5, 4), (6, 4), (7, 3), (8, 3), (9, 2), (10, 1))]
        + [("monomial", 3, d, c) for d, c in ((4, 4), (5, 3), (6, 2))]
        + [("product", 2, d, c) for d, c in ((4, 6), (5, 5), (6, 5), (7, 4), (8, 3), (9, 2), (10, 1))]
        + [("product", 3, d, c) for d, c in ((4, 5), (5, 4), (6, 3))]
        + [("product", 5, d, c) for d, c in ((4, 4), (5, 1))]
    )

    def setup(self) -> None:
        rng = random.Random(self.seed)
        # the algebras are the same for every seed, so is the cost mix; the
        # seed picks the twisting units and the order
        structure = random.Random(0)
        self.specs = []
        for family, p, d, count in self.STRATA:
            for _ in range(count):
                A, factors = builders.zoo_algebra(family, p, d, structure)
                # twisting by the same unit on both sides: the unit search then
                # stops at the first u with u^p = u, whose place in the element
                # order does not depend on the unit
                c = self._unit(A, rng)
                self.specs.append(AlgebraSpec(family, p, A.table, A.one, A.labels, factors, c))
            self.lap()
        self.specs = spread(self.specs, lambda spec: spec.p ** len(spec.one), rng)

    @staticmethod
    def _unit(A, rng: random.Random) -> np.ndarray:
        while True:
            u = np.array([rng.randrange(A.p) for _ in range(A.dim)], dtype=np.int64)
            if A.is_unit(u):
                return u

    def pass_units(self) -> int:
        return len(self.specs)

    def run_unit(self, index: int) -> tuple[float, list[Task]]:
        spec = self.specs[index % len(self.specs)]

        def work():
            A = fl.FiniteAlgebra(spec.p, spec.table, spec.one, labels=spec.labels)
            A.frobenius()
            A.nilradical()
            decomp = A.local_components()
            fl.build_duality_context(A)
            eye = np.eye(A.dim, dtype=np.int64)
            closures = []
            for i in range(A.dim):
                ideal = A.ideal([eye[i]])
                closures.append((ideal, fl.frobenius_closure_data(ideal)))
            cartier, reason = fl.cartier_from_splitting(A)
            iso, witness = fl.twisted_modules_isomorphic(A, spec.twist, spec.twist)
            return A, decomp, closures, cartier, reason, iso, witness

        task, outputs, error = self.timed(work)
        what = f"{spec.family} p={spec.p} dim={len(spec.one)}"
        if error:
            task.ok, task.note = False, f"{what}: {error}"
            return task.latency_s, [task]
        with self.checking():
            ok, note = self.verify(spec, *outputs)
        task.ok, task.note = ok, f"{what}: {note}" if note else ""
        return task.latency_s, [task]

    @staticmethod
    def verify(spec, A, decomp, closures, cartier, reason, iso, witness) -> tuple[bool, str]:
        if len(decomp.components) != spec.factors:
            return False, f"{len(decomp.components)} local components, expected {spec.factors}"
        if sum(c.dim for c in decomp.components) != A.dim:
            return False, "component dimensions do not add up"
        for ideal, data in closures:
            if fl.frobenius_closure_data(data.closure).closure.space != data.closure.space:
                return False, f"closure of {ideal!r} is not closed"
            m = 0
            while A.p**m < data.exponent:
                m += 1
            if data.closure.frobenius_power(m) != ideal.frobenius_power(m):
                return False, f"Frobenius powers of {ideal!r} and its closure differ at Q"
        if (cartier is None) != (reason is not None) or (cartier is None) == A.is_reduced():
            return False, f"Cartier structure {'missing' if cartier is None else 'present'}"
        if not iso or witness is None:
            return False, "twisted modules reported not isomorphic"
        F = A.frobenius().matrix
        mu = A.mult_matrix(witness)
        x = A.mult_matrix(spec.twist) @ F
        if not mu.is_invertible() or mu @ x != x @ mu:
            return False, "the isomorphism witness does not intertwine"
        return True, ""


# -- submodule_lattice ----------------------------------------------------------------------


class SubmoduleLattice(Workload):
    """Quotient/submodule annihilator correspondence on x-divisible modules."""

    name = "submodule_lattice"
    # algebra -> {module dimension over F_p: number of modules}.  A module's
    # cost grows with its number of submodules, which its x-action decides.
    # Most modules have dimension 4, so the median task lies inside one
    # cluster of costs rather than in the gap between dimensions 3 and 4;
    # one pass over the 70 modules takes about 10 s on a 2-core Xeon.
    POOL = {
        "F2": {3: 5, 4: 10, 5: 2},
        "F4": {4: 10, 6: 1},
        "F2xF2": {3: 5, 4: 10, 5: 1},
        "F2[t]/t2": {3: 5, 4: 10, 5: 1},
        "F3": {3: 5, 4: 4},
    }

    def setup(self) -> None:
        f2 = fl.prime_field(2)
        algebras = {
            "F2": f2,
            "F4": fl.extension_field(2, [1, 1, 1]),
            "F2xF2": fl.product_algebra(f2, f2),
            "F2[t]/t2": fl.truncated_polynomial_algebra(2, 2),
            "F3": fl.prime_field(3),
        }
        rng = random.Random(self.seed)
        self.modules = []
        rejected = 0
        for k, (name, counts) in enumerate(self.POOL.items()):
            A = algebras[name]
            ctx = fl.build_duality_context(A)
            dims = [n for n, c in counts.items() for _ in range(c)]
            # the modules' structure is the same for every seed, so is the
            # cost mix; the seed picks each module's basis
            found, miss = builders.divisible_right_modules(A, dims, seed=k)
            rejected += miss
            self.modules.extend((name, builders.conjugate(M, rng), ctx) for M in found)
            self.lap()
        self.modules = spread(self.modules, lambda m: (m[1].dim, m[1].algebra.p), rng)
        self.info["candidates_rejected"] = rejected

    def pass_units(self) -> int:
        return len(self.modules)

    def run_unit(self, index: int) -> tuple[float, list[Task]]:
        name, M, ctx = self.modules[index % len(self.modules)]

        def work():
            dual = fl.dual_module(M, ctx)
            budget = M.algebra.p**M.dim
            subs = M.enumerate_submodules(budget)
            quotient_keys = {M.quotient(s)[0].graded_annihilator().key() for s in subs}
            dual_subs = dual.enumerate_submodules(budget)
            sub_keys = {s.as_module()[0].graded_annihilator().key() for s in dual_subs}
            return len(subs), len(dual_subs), quotient_keys, sub_keys

        task, outputs, error = self.timed(work)
        what = f"{name} dim {M.dim}"
        if error:
            task.ok, task.note = False, f"{what}: {error}"
            return task.latency_s, [task]
        ok, note = self.verify(*outputs)
        task.ok, task.note = ok, f"{what}: {note}" if note else ""
        return task.latency_s, [task]

    @staticmethod
    def verify(n_subs: int, n_dual_subs: int, quotient_keys: set, sub_keys: set) -> tuple[bool, str]:
        if n_subs != n_dual_subs:
            return False, f"{n_subs} submodules, but {n_dual_subs} in the dual"
        if n_subs < 2:
            return False, "fewer than two submodules in a nonzero module"
        if quotient_keys != sub_keys:
            return False, f"annihilator key sets differ: {len(quotient_keys)} vs {len(sub_keys)}"
        return True, ""


WORKLOADS = {w.name: w for w in (CheckCatalog, ModuleFiles, AlgebraZoo, SubmoduleLattice)}
