"""Per-layer spans recorded around froblab's public functions, from outside.

`Tracer.install()` replaces the functions and methods listed in `SPANNED`
with wrappers that record one span per call: name, start, end, parent span
and task id.  Nothing under `src/` changes; module-level functions are
replaced in every froblab namespace that imported them, methods on their
class.  `uninstall()` puts the originals back.

A span's self time is its duration minus the durations of its child spans.
Children of one span run one after another, so their durations never
overlap and the difference is exactly the time the span spent outside them.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

LAYERS = (
    "linalg",
    "algebra",
    "skew",
    "fmodule",
    "duality",
    "generators",
    "checks",
    "fileio",
    "cli",
    "report",
)

# Public entry points of each layer.  Very small, very hot helpers such as
# Subspace.contains and FiniteAlgebra.mul are left out: a span costs about a
# microsecond, and their time is charged to the calling span instead.
SPANNED = {
    "linalg": [
        "FpMatrix.rref", "FpMatrix.rank", "FpMatrix.kernel", "FpMatrix.image",
        "FpMatrix.solve", "FpMatrix.is_invertible", "FpMatrix.inverse",
        "FpMatrix.preimage", "FpMatrix.__matmul__", "FpMatrix.__pow__",
        "Subspace.from_vectors", "Subspace.__add__", "Subspace.__and__",
        "Subspace.annihilator", "quotient_representatives", "operator_kernel",
        "operator_solve",
    ],
    "algebra": [
        "FiniteAlgebra.validate", "FiniteAlgebra.mult_matrix",
        "FiniteAlgebra.basis_matrices", "FiniteAlgebra.element_inverse",
        "FiniteAlgebra.frobenius", "FiniteAlgebra.nilradical",
        "FiniteAlgebra.local_components", "Ideal.__init__", "Ideal.frobenius_power",
        "Ideal.frobenius_closure", "frobenius_closure_data", "prime_field",
        "truncated_polynomial_algebra", "extension_field", "product_algebra",
    ],
    "skew": [
        "SkewPolynomial.__mul__", "GradedTwoSidedIdeal.__init__",
        "GradedTwoSidedIdeal.key", "GradedTwoSidedIdeal.__eq__",
        "zero_graded_ideal", "unit_graded_ideal", "x_power_graded_ideal",
    ],
    "fmodule": [
        "_FModule.validate", "_FModule.rho", "_FModule.submodule",
        "_FModule.quotient", "_FModule.enumerate_submodules",
        "LeftFModule.torsion_exponent", "LeftFModule.graded_annihilator",
        "LeftFModule.annihilator_submodule", "LeftFModule.x_torsion",
        "RightFModule.divisibility_exponent", "RightFModule.graded_annihilator",
        "RightFModule.times_graded_ideal", "RightFModule.annihilator_chain",
        "RightFModule.localize", "RightFModule.is_x_divisible",
        "FSubmodule.as_module", "natural_frobenius_module",
        "twisted_frobenius_module", "twisted_modules_isomorphic",
        "cartier_from_splitting", "hom_space", "find_module_isomorphism",
    ],
    "duality": [
        "build_duality_context", "check_duality_identities", "dual_left",
        "dual_right", "dual_module", "double_dual_map", "eval_dual_formula_left",
        "eval_dual_formula_right",
    ],
    "generators": [
        "standard_algebras", "default_catalog", "sampled_modules", "random_module",
        "random_ideal", "random_proper_ideal", "semilinear_solution_space",
        "random_hom",
    ],
    "checks": [
        "run_catalog_checks", "module_suite", "check_stabilization",
        "check_uniform_torsion_bound", "check_square_multiplier",
        "check_localization", "stabilization_bound",
    ],
    "fileio": [
        "load_json", "dump_json", "atomic_write_text", "algebra_from_doc",
        "algebra_to_doc", "module_from_doc", "module_to_doc", "catalog_from_doc",
    ],
    "cli": [
        "main", "cmd_analyze", "cmd_dualize", "cmd_fclosure", "cmd_check",
        "cmd_probe_question",
    ],
    "report": ["Report.add", "Report.extend", "Report.to_doc", "Report.render_text"],
}

# Elimination entry points of the linear-algebra layer.  The two operator_*
# functions assemble a system and hand it to kernel/solve; their own work is
# the assembly, so their size is that of the system but their cells are
# counted once, at the child that eliminates.
ELIMINATION = {
    "FpMatrix.rref", "FpMatrix.rank", "FpMatrix.kernel", "FpMatrix.solve",
    "FpMatrix.inverse", "FpMatrix.preimage", "Subspace.from_vectors",
    "operator_kernel", "operator_solve",
}
ASSEMBLERS = {"operator_kernel", "operator_solve"}
BIG_ELIMINATION_CELLS = 10_000

# Named time metrics: inclusive time of the outermost call in the group.
GROUPS = {
    "linalg.operator_kernel_s": ["operator_kernel", "operator_solve"],
    "algebra.local_s": ["FiniteAlgebra.local_components"],
    "algebra.closure_s": ["frobenius_closure_data", "Ideal.frobenius_closure"],
    "algebra.frobenius_s": ["FiniteAlgebra.frobenius"],
    "fmodule.enum_s": ["_FModule.enumerate_submodules"],
    "fmodule.validate_s": ["_FModule.validate"],
    "fmodule.hom_s": ["hom_space", "find_module_isomorphism"],
    "fmodule.exponent_s": [
        "LeftFModule.torsion_exponent", "RightFModule.divisibility_exponent",
    ],
    "fmodule.grann_s": [
        "LeftFModule.graded_annihilator", "RightFModule.graded_annihilator",
    ],
    "fmodule.quotient_s": ["_FModule.quotient"],
    "duality.context_s": ["build_duality_context"],
    "duality.identities_s": ["check_duality_identities"],
    "duality.functor_s": ["dual_left", "dual_right", "dual_module"],
    "duality.double_dual_s": ["double_dual_map"],
    "generators.solspace_s": ["semilinear_solution_space"],
    "generators.module_s": ["random_module"],
    "checks.localization_s": ["check_localization"],
    "checks.square_s": ["check_square_multiplier"],
    "checks.torsion_s": ["check_uniform_torsion_bound"],
    "checks.stabilization_s": ["check_stabilization"],
    "fileio.load_s": [
        "load_json", "algebra_from_doc", "module_from_doc", "catalog_from_doc",
    ],
    "fileio.dump_s": ["dump_json", "atomic_write_text", "module_to_doc", "algebra_to_doc"],
}

# Every per-layer metric, with its unit and better direction.  Times and
# counts are per task of the traced phase, so they compare across runs that
# fit a different number of tasks into the same seconds.
PER_LAYER = (
    [
        ("linalg.big_elim_s", "s/task", "lower"),
        ("linalg.small_elim_s", "s/task", "lower"),
        ("linalg.elim_calls", "count/task", "lower"),
        ("linalg.elim_cells", "count/task", "lower"),
        ("linalg.matmul_calls", "count/task", "lower"),
        ("linalg.fpmatrix_new", "count/task", "lower"),
        ("algebra.elements_scanned", "count/task", "lower"),
        ("algebra.ideal_new", "count/task", "lower"),
        ("fmodule.enum_closures", "count/task", "lower"),
        ("fmodule.enum_yield", "ratio", "higher"),
        ("fmodule.validate_calls", "count/task", "lower"),
        ("generators.ideal_accept_ratio", "ratio", "higher"),
    ]
    + [(name, "s/task", "lower") for name in GROUPS]
    + [(f"{layer}.self_s", "s/task", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count/task", "lower") for layer in LAYERS]
    + [
        ("trace.overhead_s", "s/task", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

SPAN_FIELDS = ("name", "span", "parent", "task", "start", "end", "self_s", "cells")


def _resolve(layer: str, qualname: str):
    """The owner (class or module) and attribute name of a listed callable."""
    module = importlib.import_module(f"froblab.{layer}")
    owner_name, _, attr = qualname.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), attr


def _namespaces():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "froblab"]


def replace_function(old, new) -> list[tuple[object, str, object]]:
    """Point every froblab module attribute that holds `old` at `new`.

    Returns undo records for `restore`.
    """
    undo = []
    for module in _namespaces():
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
                undo.append((module, key, old))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


class Tracer:
    """In-memory span recorder plus the counters that are not spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [span id, child time, largest child cells]
        self.next_id = 0
        self.task = -1
        self.group_bits = {name: 1 << i for i, name in enumerate(GROUPS)}
        self.depth = [0] * len(GROUPS)
        self.active = 0  # bit i set while a span of group i is open
        self.fpmatrix_new = 0
        self.elements_scanned = 0
        self.enum_closures = 0
        self.enum_found = 0
        self.random_ideals = 0
        self.accepted_ideals = 0
        self._last_random_ideal = None
        self._patches: list[tuple[object, str, object, object]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.paused = False

    @contextlib.contextmanager
    def pause(self):
        """Run the body without recording, e.g. the benchmark's own output checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            self._build()
        for owner, attr, original, wrapper in self._patches:
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                self._undo.extend(replace_function(original, wrapper))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _build(self) -> None:
        from froblab import algebra, linalg

        for layer, qualnames in SPANNED.items():
            for qualname in qualnames:
                owner, attr = _resolve(layer, qualname)
                name_id = len(self.names)
                self.names.append(qualname)
                self.layer_of.append(layer)
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._span_wrapper(raw.__func__, name_id, qualname))
                    else:
                        wrapper = self._span_wrapper(raw, name_id, qualname)
                else:
                    raw = getattr(owner, attr)
                    wrapper = self._span_wrapper(raw, name_id, qualname)
                self._patches.append((owner, attr, raw, wrapper))
        # counters without spans, on the hottest constructor and generator
        init = linalg.FpMatrix.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            if not self.paused:
                self.fpmatrix_new += 1
            init(obj, *args, **kwargs)

        self._patches.append((linalg.FpMatrix, "__init__", init, counted_init))
        elements = algebra.FiniteAlgebra.elements

        @functools.wraps(elements)
        def counted_elements(obj):
            for item in elements(obj):
                if not self.paused:
                    self.elements_scanned += 1
                yield item

        self._patches.append((algebra.FiniteAlgebra, "elements", elements, counted_elements))

    def _span_wrapper(self, fn, name_id: int, qualname: str):
        tracer = self
        bits = 0
        for group, members in GROUPS.items():
            if qualname in members:
                bits |= self.group_bits[group]
        groups = [i for i, g in enumerate(GROUPS) if bits & (1 << i)]
        elimination = qualname in ELIMINATION
        assembler = qualname in ASSEMBLERS
        size_of = _SIZE_PROBES.get(qualname)
        after = _AFTER_HOOKS.get(qualname)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            outer = bits & ~tracer.active
            for i in groups:
                tracer.depth[i] += 1
            tracer.active |= bits
            frame = [sid, 0.0, 0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                for i in groups:
                    tracer.depth[i] -= 1
                    if not tracer.depth[i]:
                        tracer.active &= ~(1 << i)
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                cells = 0
                if elimination:
                    cells = frame[2] if assembler else size_of(args, kwargs)
                    if stack and cells > stack[-1][2]:
                        stack[-1][2] = cells
                tracer.spans.append(
                    (name_id, sid, parent, tracer.task, start, end,
                     duration - frame[1], cells, outer)
                )
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    # -- aggregation ---------------------------------------------------------

    def metrics(self, tasks: int) -> dict[str, float]:
        """Per-layer metrics over every recorded span, per task."""
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        matmul = self.names.index("FpMatrix.__matmul__")
        validate = self.names.index("_FModule.validate")
        ideal_new = self.names.index("Ideal.__init__")
        elimination = {i for i, n in enumerate(self.names) if n in ELIMINATION}
        assemblers = {i for i, n in enumerate(self.names) if n in ASSEMBLERS}
        group_bits = list(self.group_bits.items())
        for name_id, _, _, _, start, end, self_s, cells, outer in self.spans:
            layer = self.layer_of[name_id]
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.calls"] += 1
            if name_id in elimination:
                key = "linalg.big_elim_s" if cells >= BIG_ELIMINATION_CELLS else "linalg.small_elim_s"
                out[key] += self_s
                out["linalg.elim_calls"] += 1
                if name_id not in assemblers:
                    out["linalg.elim_cells"] += cells
            elif name_id == matmul:
                out["linalg.matmul_calls"] += 1
            elif name_id == validate:
                out["fmodule.validate_calls"] += 1
            elif name_id == ideal_new:
                out["algebra.ideal_new"] += 1
            if outer:
                for group, bit in group_bits:
                    if outer & bit:
                        out[group] += end - start
        out["linalg.fpmatrix_new"] = self.fpmatrix_new
        out["algebra.elements_scanned"] = self.elements_scanned
        out["fmodule.enum_closures"] = self.enum_closures
        per_task = {k for k, unit, _ in PER_LAYER if unit.endswith("/task")}
        for key in per_task:
            out[key] /= max(tasks, 1)
        out["fmodule.enum_yield"] = self.enum_found / self.enum_closures if self.enum_closures else 0.0
        out["generators.ideal_accept_ratio"] = (
            self.accepted_ideals / self.random_ideals if self.random_ideals else 0.0
        )
        return out

    def write_spans(self, path: str) -> None:
        """All spans as CSV, times in microseconds from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(SPAN_FIELDS) + "\n")
            for name_id, sid, parent, task, start, end, self_s, cells, _ in self.spans:
                handle.write(
                    f"{self.names[name_id]},{sid},{parent},{task},"
                    f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                    f"{self_s * 1e6:.1f},{cells}\n"
                )


# -- size probes and result hooks -------------------------------------------------


def _matrix_cells(args, kwargs) -> int:
    rows, cols = args[0].data.shape
    return rows * cols


def _from_vectors_cells(args, kwargs) -> int:
    # classmethod wrapped through __func__: args are (cls, p, ambient_dim, vectors)
    vectors = args[3] if len(args) > 3 else kwargs["vectors"]
    return len(vectors) * int(args[2]) if hasattr(vectors, "__len__") else 0


_SIZE_PROBES = {
    "FpMatrix.rref": _matrix_cells,
    "FpMatrix.rank": _matrix_cells,
    "FpMatrix.kernel": _matrix_cells,
    "FpMatrix.solve": _matrix_cells,
    "FpMatrix.inverse": _matrix_cells,
    "FpMatrix.preimage": _matrix_cells,
    "Subspace.from_vectors": _from_vectors_cells,
}


def _after_submodule(tracer: Tracer, result) -> None:
    if tracer.active & tracer.group_bits["fmodule.enum_s"]:
        tracer.enum_closures += 1


def _after_enumerate(tracer: Tracer, result) -> None:
    tracer.enum_found += len(result)


def _after_random_ideal(tracer: Tracer, result) -> None:
    tracer.random_ideals += 1
    tracer._last_random_ideal = result


def _after_random_proper_ideal(tracer: Tracer, result) -> None:
    if result is not None and result is tracer._last_random_ideal:
        tracer.accepted_ideals += 1


_AFTER_HOOKS = {
    "_FModule.submodule": _after_submodule,
    "_FModule.enumerate_submodules": _after_enumerate,
    "random_ideal": _after_random_ideal,
    "random_proper_ideal": _after_random_proper_ideal,
}
