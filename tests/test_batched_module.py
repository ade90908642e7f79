"""The batched module layer against the per-matrix routes it replaced.

Every module keeps one (d+1) x n x n stack of its action matrices and X, and
rho, annihilator_submodule, times_graded_ideal, quotient, image_rows,
semilinear_stacks and the literal dual-action formulas each read it with a
few broadcast products.  The references in fmodule_reference take one
matrix, one element or one entry at a time.  The arithmetic is exact in both,
so the results must be equal, not close.

annihilator_submodule's spin-up tail and the Fitting-index bounds of the
two law checks are compared the same way with the size-bounded routes.

Tier-1 cost: about 9 s for the whole file on a 2-core Xeon, 1.9 s of it
in the dim >= 16 direct sums and 4.0 s in the size-bounded comparisons.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from froblab.algebra import (
    FiniteAlgebra,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from froblab.checks import check_localization, check_square_multiplier
from froblab.duality import (
    build_duality_context,
    dual_module,
    dual_pairing_element,
    eval_dual_formula_left,
    eval_dual_formula_right,
)
from froblab.errors import AxiomError
from froblab.fmodule import LeftFModule, RightFModule, semilinear_stacks
from froblab.generators import default_catalog, random_module, sampled_modules
from froblab.linalg import (
    LIST_KERNEL_CELLS,
    MAX_PRIME,
    FpMatrix,
    Subspace,
    as_vector,
    close_under,
    image_rows,
    is_prime,
    quotient_maps,
)
from froblab.report import Report
from froblab.skew import GradedTwoSidedIdeal

import fmodule_reference as reference
from module_strategies import (
    LARGE_PRIME_ALGEBRAS,
    SMALL_PRIME_ALGEBRAS,
    direct_sum,
    large_modules,
    modules,
)

# p in {2, 3, 1048573}
POOL = {**SMALL_PRIME_ALGEBRAS, **LARGE_PRIME_ALGEBRAS}


def graded_ideals(A: FiniteAlgebra, modules_, rng: random.Random) -> list[GradedTwoSidedIdeal]:
    """The standard graded ideals, the modules' graded annihilators, the
    radical ideals and one chain of two random ideals."""
    ctx = build_duality_context(A)
    out = [B for _, B in ctx.standard_graded_ideals]
    out += [M.graded_annihilator() for M in modules_]
    decomp = A.local_components()
    out += [GradedTwoSidedIdeal(A, [decomp.radical_ideal([i])]) for i in range(len(decomp.components))]
    first = A.ideal([[rng.randrange(A.p) for _ in range(A.dim)]])
    second = first + A.ideal([[rng.randrange(A.p) for _ in range(A.dim)]])
    out.append(GradedTwoSidedIdeal(A, [A.zero_ideal(), first, second]))
    return out


def assert_semilinear_stacks_match(M) -> None:
    """semilinear_stacks against the pairs the combine reference builds."""
    A = M.algebra
    a, b = semilinear_stacks(A, M.structure[:-1], M.side)
    want = reference.semilinear_pairs(A, M.action, M.side)
    assert a.shape == b.shape == (A.dim, M.dim, M.dim)
    assert a.dtype == b.dtype == np.int64
    assert a.tolist() == [x.data.tolist() for x, _ in want]
    assert b.tolist() == [y.data.tolist() for _, y in want]


def assert_batched_routes_match(M, rng: random.Random) -> None:
    """Every batched route on M and on its dual against its reference."""
    A = M.algebra
    p, d = A.p, A.dim
    ctx = build_duality_context(A)
    dual = dual_module(M, ctx)
    left, right = (M, dual) if M.side == "left" else (dual, M)

    def draw(n):
        return np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)

    for N in (left, right):
        n = N.dim
        block = np.array([draw(d) for _ in range(3)], dtype=np.int64).reshape(3, d)
        rhos = N.rhos(block)
        for r, got in zip(block, rhos):
            assert N.rho(r) == reference.rho(N, r)
            assert np.array_equal(got, reference.rho(N, r).data)
        assert_semilinear_stacks_match(N)
        space = Subspace.from_vectors(p, n, [draw(n) for _ in range(2)])
        operators = [*N.action, N.x_action]
        want = reference.image_rows(space, operators)
        assert np.array_equal(image_rows(space, operators), want)
        assert np.array_equal(image_rows(space, N.structure), want)
        assert np.array_equal(image_rows(space, []), reference.image_rows(space, []))
        sub = N.submodule([draw(n)])
        quotient, proj = N.quotient(sub)
        want_quotient, want_proj = reference.quotient(N, sub)
        assert quotient == want_quotient and proj == want_proj
        assert np.array_equal(quotient.structure, want_quotient.structure)
        lam, v = draw(n), draw(n)
        assert np.array_equal(dual_pairing_element(N, lam, v), reference.dual_pairing_element(N, lam, v))

    for B in graded_ideals(A, (left, right), rng):
        assert left.annihilator_submodule(B).space == reference.annihilator_submodule(left, B)
        assert right.times_graded_ideal(B).space == reference.times_graded_ideal(right, B)

    lam, r, v = draw(left.dim), draw(d), draw(left.dim)
    assert np.array_equal(
        eval_dual_formula_left(ctx, left, lam, r, v),
        reference.eval_dual_formula_left(ctx, left, lam, r, v),
    )
    lam, v = draw(right.dim), draw(right.dim)
    assert np.array_equal(
        eval_dual_formula_right(ctx, right, r, lam, v),
        reference.eval_dual_formula_right(ctx, right, r, lam, v),
    )


@settings(max_examples=120, deadline=None)
@given(modules(pool=POOL), st.integers(0, 2**32 - 1))
def test_batched_routes_match_the_per_matrix_references(M, seed):
    assert_batched_routes_match(M, random.Random(seed))


@settings(max_examples=25, deadline=None)
@given(large_modules(pool=POOL), st.integers(0, 2**32 - 1))
def test_batched_routes_match_past_the_list_kernel(M, seed):
    assert M.dim >= 16 and M.validate()
    # the annihilator system of the unit ideal alone has (dim + 1) * d * dim rows
    assert (M.dim + 1) * M.algebra.dim * M.dim * M.dim > LIST_KERNEL_CELLS
    assert_batched_routes_match(M, random.Random(seed))


# -- the spin-up tail and the Fitting-index bounds against the size bounds -------
#
# annihilator_submodule spins up the stable tail, and check_square_multiplier
# and check_localization stop at the Fitting index.  Both are linear algebra
# alone, so they agree with the routes bounded by the dimension on any stack,
# one that breaks the module laws included.


def check_outcome(check, M) -> tuple[list, str | None]:
    """What a law check reports on M, and the AxiomError it raises, if any."""
    report = Report()
    try:
        check("m", M, report)
    except AxiomError as exc:
        return report.results, str(exc)
    return report.results, None


def annihilator_outcome(M, B) -> Subspace | str:
    """annihilator_submodule(B), or the AxiomError of a kernel that is no submodule."""
    try:
        return M.annihilator_submodule(B).space
    except AxiomError as exc:
        return str(exc)


def reference_annihilator_outcome(M, B) -> Subspace | str:
    space = reference.annihilator_submodule(M, B)
    if space.contains(reference.image_rows(space, [*M.action, M.x_action])):
        return space
    return "subspace is not closed under the module structure"


def assert_structural_routes_match(M, rng: random.Random, valid: bool = True) -> tuple[list, list]:
    """The annihilators of the left one of M and its dual, and both law checks
    on the right one, against the size-bounded references; returns the two
    checks' outcomes."""
    dual = dual_module(M, build_duality_context(M.algebra))
    left, right = (M, dual) if M.side == "left" else (dual, M)
    for B in graded_ideals(M.algebra, (left, right) if valid else (), rng):
        assert annihilator_outcome(left, B) == reference_annihilator_outcome(left, B)
    outcomes = []
    for check, old in [
        (check_square_multiplier, reference.check_square_multiplier),
        (check_localization, reference.check_localization),
    ]:
        got = check_outcome(check, right)
        assert got == check_outcome(old, right)
        outcomes.append(got)
    return outcomes


@settings(max_examples=60, deadline=None)
@given(modules(pool=POOL), st.integers(0, 2**32 - 1))
def test_structural_bounds_match_the_size_bounded_routes(M, seed):
    for results, error in assert_structural_routes_match(M, random.Random(seed)):
        assert error is None and all(r.ok for r in results)


def broken_stack(M, rng: random.Random, kind: str):
    """M's stack with a random X ("x"), with every matrix random ("all") or
    with two random entries of the action ("action"), built by the trusted
    constructor, which checks no law."""
    p, stack = M.algebra.p, M.structure.copy()
    if kind == "action":
        for _ in range(2 if M.dim else 0):
            stack[rng.randrange(M.algebra.dim), rng.randrange(M.dim), rng.randrange(M.dim)] = rng.randrange(p)
    else:
        part = stack[-1:] if kind == "x" else stack
        part[...] = np.array([rng.randrange(p) for _ in range(part.size)]).reshape(part.shape)
    return type(M)._from_structure(M.algebra, stack)


def validation_outcome(validate, M):
    """validate(M), or the message of the AxiomError it raises."""
    try:
        return validate(M)
    except AxiomError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    modules(pool=POOL),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["valid", "x", "all", "action"]),
)
def test_validate_matches_the_loop_reference(M, seed, kind):
    # one broadcast product for all (i, j) against one product per i: the
    # same verdict, and on a broken stack the same first bad (i, j)
    if kind != "valid":
        M = broken_stack(M, random.Random(seed), kind)
    assert validation_outcome(type(M).validate, M) == validation_outcome(reference.validate, M)


def test_validate_reports_the_first_bad_pair_in_row_major_order():
    # over F2^3, rho(e_0) and rho(e_1) are idempotents with rho(e_0) rho(e_1)
    # = 0 but rho(e_1) rho(e_0) != 0, and rho(1) = id: (0,1) holds, (1,0) fails
    F2 = prime_field(2)
    A = product_algebra(product_algebra(F2, F2), F2)
    action = [[[1, 0], [0, 0]], [[0, 0], [1, 1]], [[0, 0], [1, 0]]]
    M = LeftFModule._from_structure(A, np.array([*action, np.zeros((2, 2))], dtype=np.int64))
    for validate in (LeftFModule.validate, reference.validate):
        with pytest.raises(AxiomError, match=r"^action is not multiplicative on \(1,0\)$"):
            validate(M)


@settings(max_examples=80, deadline=None)
@given(modules(pool=POOL), st.integers(0, 2**32 - 1), st.sampled_from(["x", "all"]))
def test_structural_bounds_match_on_stacks_that_break_the_laws(M, seed, kind):
    rng = random.Random(seed)
    assert_structural_routes_match(broken_stack(M, rng, kind), rng, valid=False)


def test_structural_bounds_agree_on_failing_verdicts():
    """Seeded broken stacks on which each check fails without raising or on
    which localize refuses, and two built to fail only at k = 2: the
    references agree on every one."""
    rng = random.Random(3)
    failed, refused = [0, 0], 0
    for A in POOL.values():
        for side in ("left", "right"):
            for kind in ("x", "all"):
                for _ in range(3):
                    M = broken_stack(random_module(A, side, 4, rng), rng, kind)
                    for i, (results, error) in enumerate(assert_structural_routes_match(M, rng, False)):
                        failed[i] += not all(r.ok for r in results) and error is None
                        refused += error is not None
    assert min(failed) > 0 and refused > 0, (failed, refused)
    # over F2xF2, rho(eps_0) = P is no projection: P im X = im P, but
    # P im X^2 = 0, past the Fitting index 0 of X on im P; e_M = 2
    A = product_algebra(prime_field(2), prime_field(2))
    P = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    X = [[1, 0, 0], [0, 0, 0], [0, 1, 0]]
    M = RightFModule._from_structure(A, np.array([np.zeros((3, 3)), P, X], dtype=np.int64))
    assert M.fitting_index() == 2 and M.localize(0).fitting_index() == 0
    results, error = assert_structural_routes_match(M, rng, False)[1]
    assert error is None and [r.ok for r in results] == [False, True]
    # over F3, rho(1) = R with im R = im X, so S = F3, but R does not map
    # into im X^2 = 0: the square 1 * 1 fails at k = e = 2
    R, X = [[1, 0], [0, 0]], [[0, 1], [0, 0]]
    M = RightFModule._from_structure(prime_field(3), np.array([R, X], dtype=np.int64))
    results, error = assert_structural_routes_match(M, rng, False)[0]
    assert error is None and [r.ok for r in results] == [False]


def block_module_48(A: FiniteAlgebra, side: str, seed: int):
    """A block sum of random modules of dim exactly 48."""
    rng, parts, dim = random.Random(seed), [], 0
    while dim < 48:
        part = random_module(A, side, min(6, 48 - dim), rng)
        parts.append(part)
        dim += part.dim
    return direct_sum([part for part in parts if part.dim])


@pytest.mark.parametrize(
    "A, side",
    [(truncated_polynomial_algebra(2, 3), "left"), (product_algebra(prime_field(3), prime_field(3)), "right")],
    ids=["F2[t]/t3-left", "F3xF3-right"],
)
def test_structural_bounds_match_on_a_dim_48_block_module(A, side):
    M = block_module_48(A, side, 48)
    assert M.dim == 48 and M.validate()
    # the tail of the unit ideal alone: (dim + 1) * dim rows by the size bound
    assert (M.dim + 1) * M.dim * M.dim > LIST_KERNEL_CELLS
    for results, error in assert_structural_routes_match(M, random.Random(48)):
        assert error is None and all(r.ok for r in results)


# -- edge cases -------------------------------------------------------------------

# algebras with a residue field F_p, so that dim-1 modules exist
EDGE_ALGEBRAS = [
    prime_field(2),
    truncated_polynomial_algebra(3, 2),
    product_algebra(prime_field(2), prime_field(2)),
    LARGE_PRIME_ALGEBRAS["Fl[t]/t2"],
]


@pytest.mark.parametrize("A", EDGE_ALGEBRAS, ids=lambda A: f"p{A.p}d{A.dim}")
@pytest.mark.parametrize("cls", [LeftFModule, RightFModule])
def test_zero_and_dim_one_modules_through_every_batched_method(A, cls):
    rng = random.Random(5)
    dim_one = random_module(A, cls.side, 1, rng)
    assert dim_one.dim == 1
    for M in (cls.zero(A), dim_one):
        n, p, d = M.dim, A.p, A.dim
        assert M.structure.shape == (d + 1, n, n) and M.validate()
        assert M.rhos(np.zeros((0, d), dtype=np.int64)).shape == (0, n, n)
        assert M.rho(A.one) == FpMatrix.identity(p, n)
        assert M.graded_annihilator() == reference.graded_annihilator(M)
        assert M._cyclic_words().shape == (n * d * n, n)
        assert_semilinear_stacks_match(M)
        for sub in (M.zero_submodule(), M.submodule(np.eye(n, dtype=np.int64))):
            got, want = M.quotient(sub), reference.quotient(M, sub)
            assert got[0] == want[0] and got[1] == want[1] and got[0].validate()
            assert sub.as_module()[0].validate()
        space = Subspace.full(p, n)
        assert image_rows(space, []).shape == (0, n)
        assert image_rows(space, np.zeros((0, n, n), dtype=np.int64)).shape == (0, n)
        assert close_under(space, []) == space
        assert close_under(Subspace.zero(p, n), M.structure).is_zero()
        assert len(M.enumerate_submodules(1 << 20)) == (1 if n == 0 else 2)
        for B in graded_ideals(A, [M], rng):
            if M.side == "left":
                assert M.annihilator_submodule(B).space == reference.annihilator_submodule(M, B)
            else:
                assert M.times_graded_ideal(B).space == reference.times_graded_ideal(M, B)
        ctx = build_duality_context(A)
        lam, r, v = [1] * n, A.one, [1] * n
        assert np.array_equal(dual_pairing_element(M, lam, v), reference.dual_pairing_element(M, lam, v))
        if M.side == "left":
            got = eval_dual_formula_left(ctx, M, lam, r, v)
            assert np.array_equal(got, reference.eval_dual_formula_left(ctx, M, lam, r, v))
        else:
            got = eval_dual_formula_right(ctx, M, r, lam, v)
            assert np.array_equal(got, reference.eval_dual_formula_right(ctx, M, r, lam, v))
            assert M.annihilator_chain() == reference.annihilator_chain(M)
            for i in range(len(A.local_components().components)):
                assert M.localize(i).validate()


# -- the largest prime: every product against Python integers ---------------------

TOP_PRIME = 33554393  # the largest prime below MAX_PRIME


def py_mul(a: list, b: list, p: int) -> list:
    """Matrix product of nested lists in Python integers, reduced mod p."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def py_rho(M, r, p: int) -> list:
    """sum r_i rho(e_i) in Python integers."""
    acts = [a.data.tolist() for a in M.action]
    n = M.dim
    return [[sum(int(c) * act[i][j] for c, act in zip(r, acts)) % p for j in range(n)] for i in range(n)]


def test_top_prime_is_the_largest_below_the_word_limit():
    assert is_prime(TOP_PRIME) and TOP_PRIME < MAX_PRIME
    assert not any(is_prime(q) for q in range(TOP_PRIME + 1, MAX_PRIME))


@pytest.mark.parametrize("side", ["left", "right"])
def test_batched_products_at_the_top_prime_match_python_integers(side):
    p = TOP_PRIME
    F = prime_field(p)
    rng = random.Random(11)
    for A in (F, truncated_polynomial_algebra(p, 2), product_algebra(F, F)):
        M = random_module(A, side, 4, rng)
        n = M.dim
        elements = [[rng.randrange(p) for _ in range(A.dim)] for _ in range(3)]
        for r in elements:
            assert M.rho(r).data.tolist() == py_rho(M, r, p)
        assert [m.tolist() for m in M.rhos(elements)] == [py_rho(M, r, p) for r in elements]
        # annihilator conditions rho(b) X^m, every product in Python integers
        left = M if side == "left" else dual_module(M, build_duality_context(A))
        XL = left.x_action.data.tolist()
        for B in graded_ideals(A, [left], rng):
            N, rows = B.stable_from, []
            power = np.eye(left.dim, dtype=np.int64).tolist()
            for m in range(N + left.dim + 1):
                for b in B.component(m).space.basis:
                    rows += py_mul(py_rho(left, b, p), power, p)
                power = py_mul(XL, power, p)
            want = FpMatrix(p, np.array(rows, dtype=np.int64).reshape(len(rows), left.dim)).kernel()
            assert left.annihilator_submodule(B).space == want
        # the quotient action proj @ a @ lift, by a proper submodule: one
        # generated inside the first summand of M + M
        double = direct_sum([M, M])
        sub = double.submodule([[rng.randrange(1, p) for _ in range(n)] + [0] * n])
        assert 0 < sub.dim <= n
        quotient, proj = double.quotient(sub)
        P, L = quotient_maps(sub.space)
        P, L = P.data.tolist(), L.data.tolist()
        for got, a in zip(
            [*quotient.action, quotient.x_action], [*double.action, double.x_action]
        ):
            assert got.data.tolist() == py_mul(py_mul(P, a.data.tolist(), p), L, p)
        assert proj.data.tolist() == P


# -- every FpMatrix is frozen, reduced and owns no writable data ---------------


def assert_frozen(data: np.ndarray, p: int, ndim: int = 2) -> None:
    assert isinstance(data, np.ndarray) and data.ndim == ndim and data.dtype == np.int64
    assert not data.flags.writeable
    base = data.base
    while isinstance(base, np.ndarray):
        assert not base.flags.writeable, "an FpMatrix is a view of a writable array"
        base = base.base
    assert ((data >= 0) & (data < p)).all()


def module_matrices(M) -> list[FpMatrix]:
    A = M.algebra
    mats = [*M.action, M.x_action, M.rho(A.one)]
    mats += [M.x_power(k) for k in range(M.fitting_index() + 2)]
    return mats


def derived_modules(M, ctx):
    """M, its dual, its quotients and submodules as modules, and its
    localizations, with the projections and inclusions."""
    out = [M, dual_module(M, ctx)]
    subs = [M.zero_submodule(), M.submodule(np.eye(M.dim, dtype=np.int64)[:1])]
    B = ctx.standard_graded_ideals[1][1]
    subs.append(M.annihilator_submodule(B) if M.side == "left" else M.times_graded_ideal(B))
    maps = []
    for sub in subs:
        piece, incl = sub.as_module()
        quotient, proj = M.quotient(sub)
        out += [piece, quotient]
        maps += [incl, proj]
    if M.side == "right":
        out += [M.localize(i) for i in range(len(M.algebra.local_components().components))]
    return out, maps


def test_every_matrix_the_package_builds_is_frozen_and_reduced():
    cat = default_catalog()
    samples = [module for _, module in cat.modules.values()]
    for seed, A in enumerate(cat.algebras.values()):
        samples += [module for _, module in sampled_modules(A, seed, per_side=2)]
    for M in samples:
        ctx = build_duality_context(M.algebra)
        derived, maps = derived_modules(M, ctx)
        for m in maps:
            assert_frozen(m.data, m.p)
        for N in derived:
            for m in module_matrices(N):
                assert_frozen(m.data, m.p)
            for stack in semilinear_stacks(N.algebra, N.structure[:-1], N.side):
                assert_frozen(stack, N.algebra.p, ndim=3)
            # the structure is all a module stores: its matrices are views of it
            assert not N.structure.flags.writeable and N.structure.flags.c_contiguous
            if N.dim:
                for m in [*N.action, N.x_action]:
                    assert np.shares_memory(m.data, N.structure)


# -- public constructors refuse non-integer data ---------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: FpMatrix(2, [[1.5, 2.7]]),
        lambda: FpMatrix(5, np.array([[1.0]])),
        lambda: as_vector([0.9, 3.2], 5),
        lambda: Subspace.from_vectors(5, 2, np.array([[0.5, 1.0]])),
        lambda: Subspace.from_vectors(5, 2, [[0.5, 1.0]]),
        lambda: Subspace.full(5, 2).contains([1.5, 0]),
        lambda: FiniteAlgebra(2, [[[1.0]]], [1]),
        lambda: FiniteAlgebra(2, [[[1]]], [1.2]),
        lambda: FpMatrix(3, [["1"]]),
    ],
)
def test_public_constructors_refuse_non_integer_data(build):
    with pytest.raises(ValueError):
        build()


def test_integer_data_of_every_kind_is_accepted_and_reduced():
    assert FpMatrix(5, [[7, -1]]).data.tolist() == [[2, 4]]
    assert FpMatrix(5, np.array([[True, False]])).data.tolist() == [[1, 0]]
    assert FpMatrix(5, np.array([[2**64 - 1]], dtype=np.uint64)).data.tolist() == [[(2**64 - 1) % 5]]
    assert FpMatrix(5, np.array([[9]], dtype=np.int8)).data.tolist() == [[4]]
    assert FpMatrix(5, np.zeros((0, 3))).data.shape == (0, 3)
    assert as_vector([], 5).shape == (0,)
