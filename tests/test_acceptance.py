"""End-to-end acceptance run: every law checked at full sample size.

One test per criterion; each prints a single pass/fail line so the whole
gate can be read off `pytest -s tests/test_acceptance.py`.
"""
import random

import numpy as np
import pytest

from froblab.algebra import (
    extension_field,
    frobenius_closure_data,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from froblab.checks import check_localization, check_square_multiplier, check_stabilization
from froblab.duality import (
    build_duality_context,
    double_dual_map,
    dual_module,
    dual_pairing_element,
    eval_dual_formula_left,
    eval_dual_formula_right,
)
from froblab.errors import AxiomError
from froblab.fmodule import twisted_modules_isomorphic
from froblab.generators import enumerate_local_algebras, random_ideal, random_module
from froblab.report import Report
from froblab.skew import unit_graded_ideal, x_power_graded_ideal, zero_graded_ideal
from froblab.duality import _check_left_kernel_identity, _check_right_kernel_identity

SEED = 20240901
MIN_MODULES = 200
MIN_EVAL_TUPLES = 1000
MIN_IDEALS = 100
SUBMODULE_BUDGET = 1 << 10


def _report_line(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} {name} failed: {detail}"


@pytest.fixture(scope="module")
def catalog():
    algebras = [(f"local_f2_{i}", A) for i, A in enumerate(enumerate_local_algebras(2, 3))]
    algebras += [
        ("F4", extension_field(2, [1, 1, 1])),
        ("F9", extension_field(3, [1, 0, 1])),
        ("F3[t]/t2", truncated_polynomial_algebra(3, 2)),
        ("F2xF2", product_algebra(prime_field(2), prime_field(2))),
    ]
    return algebras


@pytest.fixture(scope="module")
def contexts(catalog):
    return {name: build_duality_context(A) for name, A in catalog}


@pytest.fixture(scope="module")
def samples(catalog):
    """Seeded random valid modules, both sides, dimension at most 4."""
    rng = random.Random(SEED)
    out = []
    for name, A in catalog:
        for side in ("left", "right"):
            for i in range(4):
                max_dim = rng.choice([2, 3, 4])
                module = random_module(A, side, max_dim, rng)
                out.append((name, f"{name}/{side}{i}", module))
    return out


def test_criterion_01_duality_context_invariants(catalog, contexts):
    failures = []
    for name, A in catalog:
        try:
            A.validate()
            assert contexts[name] is not None
        except AxiomError as exc:
            failures.append(f"{name}: {exc}")
    _report_line(
        1,
        "dualizing-context invariants on the full catalog",
        not failures,
        f"{len(catalog)} algebras" if not failures else "; ".join(failures),
    )


def test_criterion_02_duality_equivalence(contexts, samples):
    assert len(samples) >= MIN_MODULES
    failures = []
    for alg_name, name, module in samples:
        ctx = contexts[alg_name]
        try:
            omega = double_dual_map(module, ctx)  # asserts double dual == module
            if module.dim and not omega.is_invertible():
                failures.append(name)
        except AxiomError as exc:
            failures.append(f"{name}: {exc}")
    _report_line(
        2,
        "dualizing is an inverse equivalence on both sides",
        not failures,
        f"{len(samples)} modules" if not failures else "; ".join(failures[:3]),
    )


def test_criterion_03_formula_fidelity(contexts, samples):
    rng = random.Random(SEED + 3)
    mismatches = 0
    total = 0
    while total < MIN_EVAL_TUPLES:
        for alg_name, name, module in samples:
            ctx = contexts[alg_name]
            A = module.algebra
            dual = dual_module(module, ctx)
            for _ in range(3):
                lam = np.array([rng.randrange(A.p) for _ in range(module.dim)], dtype=np.int64)
                v = np.array([rng.randrange(A.p) for _ in range(module.dim)], dtype=np.int64)
                r = np.array([rng.randrange(A.p) for _ in range(A.dim)], dtype=np.int64)
                if module.side == "left":
                    got = eval_dual_formula_left(ctx, module, lam, r, v)
                    want = dual_pairing_element(
                        module, dual.x_action.apply(dual.rho(r).apply(lam)), v
                    )
                else:
                    got = eval_dual_formula_right(ctx, module, r, lam, v)
                    want = A.mult_matrix(r).T.apply(
                        dual_pairing_element(module, dual.x_action.apply(lam), v)
                    )
                total += 1
                if not np.array_equal(got, want):
                    mismatches += 1
        if total == 0:
            break
    _report_line(
        3,
        "literal dual-action formulas match the fast path",
        mismatches == 0 and total >= MIN_EVAL_TUPLES,
        f"{total} tuples",
    )


def test_criterion_04_dual_stabilization_exponents(contexts, samples):
    failures = []
    count = 0
    for alg_name, name, module in samples:
        if module.side != "right":
            continue
        count += 1
        dual = dual_module(module, contexts[alg_name])
        if module.divisibility_exponent() != dual.torsion_exponent():
            failures.append(name)
    _report_line(
        4,
        "image-chain exponent equals kernel-chain exponent of the dual",
        not failures,
        f"{count} right modules" if not failures else "; ".join(failures[:3]),
    )


def test_criterion_05_stabilization_pipeline(samples):
    report = Report()
    count = 0
    for _, name, module in samples:
        if module.side != "right":
            continue
        count += 1
        check_stabilization(name, module, report)
    _report_line(
        5,
        "reduction pipeline terminates and bounds the direct exponent",
        report.ok,
        f"{count} right modules"
        if report.ok
        else "; ".join(f"{r.instance}: {r.details}" for r in report.failures()[:3]),
    )


def test_criterion_06_graded_annihilators_dual(contexts, samples):
    failures = []
    for alg_name, name, module in samples:
        dual = dual_module(module, contexts[alg_name])
        if module.graded_annihilator() != dual.graded_annihilator():
            failures.append(name)
    _report_line(
        6,
        "graded annihilators are preserved by dualizing",
        not failures,
        f"{len(samples)} modules" if not failures else "; ".join(failures[:3]),
    )


def test_criterion_07_kernel_identities(contexts, samples):
    report = Report()
    pairs = 0
    for alg_name, name, module in samples:
        ctx = contexts[alg_name]
        A = module.algebra
        ideals = [
            ("zero", zero_graded_ideal(A)),
            ("deg>=1", x_power_graded_ideal(A, 1)),
            ("deg>=2", x_power_graded_ideal(A, 2)),
            ("unit", unit_graded_ideal(A)),
            ("grann", module.graded_annihilator()),
        ]
        dual = dual_module(module, ctx)
        for bname, B in ideals:
            pairs += 1
            if module.side == "left":
                _check_left_kernel_identity(name, module, dual, B, bname, report)
            else:
                _check_right_kernel_identity(ctx, name, module, dual, B, bname, report)
        if module.side == "right":
            report.add(
                "divisible_iff_dual_torsion_free",
                "",
                name,
                module.is_x_divisible() == dual.is_x_torsion_free(),
            )
    _report_line(
        7,
        "kernel identities and divisible/torsion-free duality",
        report.ok,
        f"{pairs} module-ideal pairs"
        if report.ok
        else "; ".join(f"{r.check}@{r.instance}" for r in report.failures()[:3]),
    )


def test_criterion_08_finiteness_correspondence(contexts, samples):
    failures = []
    count = 0
    for alg_name, name, module in samples:
        if module.side != "right" or not module.is_x_divisible():
            continue
        if module.algebra.p**module.dim > SUBMODULE_BUDGET:
            continue
        count += 1
        dual = dual_module(module, contexts[alg_name])
        quotient_chains = set()
        for sub in module.enumerate_submodules(SUBMODULE_BUDGET):
            quotient, _ = module.quotient(sub)
            quotient_chains.add(quotient.graded_annihilator().key())
        submodule_chains = set()
        for sub in dual.enumerate_submodules(SUBMODULE_BUDGET):
            smod, _ = sub.as_module()
            submodule_chains.add(smod.graded_annihilator().key())
        if quotient_chains != submodule_chains:
            failures.append(name)
    _report_line(
        8,
        "graded annihilators of quotients match submodules of the dual",
        not failures and count > 0,
        f"{count} divisible right modules" if not failures else "; ".join(failures[:3]),
    )


def test_criterion_09_frobenius_closure(catalog):
    f2t3 = truncated_polynomial_algebra(2, 3)
    data = frobenius_closure_data(f2t3.ideal([[0, 0, 1]]))
    base_ok = data.closure == f2t3.ideal([[0, 1, 0]]) and data.exponent == 4

    rng = random.Random(SEED + 9)
    ideals = []
    while len(ideals) < MIN_IDEALS:
        for _, A in catalog:
            ideals.append((A, random_ideal(A, rng)))
    failures = []
    for A, a in ideals:
        closure, q = a.frobenius_closure()
        steps = 0
        while A.p**steps < q:
            steps += 1
        ok = a.space <= closure.space
        ok = ok and closure.frobenius_closure()[0] == closure
        ok = ok and closure.frobenius_power(steps) == a.frobenius_power(steps)
        if q > 1:
            ok = ok and closure.frobenius_power(steps - 1) != a.frobenius_power(steps - 1)
        if not ok:
            failures.append(repr(a))
    _report_line(
        9,
        "Frobenius closure: regression case, idempotence, witness exponent",
        base_ok and not failures,
        f"{len(ideals)} ideals" if not failures else "; ".join(failures[:3]),
    )


def test_criterion_10_multiplier_and_localization(samples):
    report = Report()
    count = 0
    for _, name, module in samples:
        if module.side != "right":
            continue
        count += 1
        check_square_multiplier(name, module, report)
        check_localization(name, module, report)
    _report_line(
        10,
        "square-multiplier descent and localization identities",
        report.ok,
        f"{count} right modules"
        if report.ok
        else "; ".join(f"{r.check}@{r.instance}" for r in report.failures()[:3]),
    )


def test_criterion_11_rank_one_classification():
    failures = []
    checked = 0
    for p in (3, 5):
        A = prime_field(p)
        units = [u for u in A.elements() if A.is_unit(u)]
        for c1 in A.elements():
            for c2 in A.elements():
                checked += 1
                got, _ = twisted_modules_isomorphic(A, c1, c2)
                # oracle: exhaustive unit enumeration of the root criterion
                want = any(
                    np.array_equal(A.mul(A.power(u, p - 1), c2), c1 % p) for u in units
                )
                if got != want:
                    failures.append(f"p={p}, c1={c1}, c2={c2}")
    _report_line(
        11,
        "rank-one twisted modules classified by (p-1)-th roots of units",
        not failures,
        f"{checked} pairs" if not failures else "; ".join(failures[:3]),
    )
