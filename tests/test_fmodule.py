import collections
import functools
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from froblab.algebra import (
    FiniteAlgebra,
    extension_field,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from froblab.checks import (
    check_localization,
    check_square_multiplier,
    check_uniform_torsion_bound,
    module_suite,
)
from froblab import fmodule as fmodule_mod
from froblab import linalg
from froblab.errors import AxiomError, BudgetError
from froblab.fmodule import (
    FSubmodule,
    LeftFModule,
    RightFModule,
    _FModule,
    cartier_from_splitting,
    find_module_isomorphism,
    graded_annihilator_set,
    hom_space,
    natural_frobenius_module,
    semilinear_stacks,
    twisted_frobenius_module,
    twisted_modules_isomorphic,
)
from froblab.duality import build_duality_context, dual_left, dual_module
from froblab import generators as generators_mod
from froblab.generators import (
    default_catalog,
    random_module,
    sampled_modules,
    semilinear_solution_space,
    standard_algebras,
)
from froblab.linalg import (
    FpMatrix,
    Subspace,
    as_vector,
    mulmod,
    operator_stack,
    quotient_representatives,
    stabilize,
)
from froblab.report import Report
from froblab.skew import (
    GradedTwoSidedIdeal,
    SkewPolynomial,
    is_graded_two_sided,
    unit_graded_ideal,
    x_power_graded_ideal,
    zero_graded_ideal,
)
import fmodule_reference as reference
from frobenius_reference import cartier_by_splitting_solve, frobenius_pool, nilradical_by_squaring
from fmodule_reference import act, apply_x_power
from linalg_reference import whole_operator_kernel
from module_strategies import (
    ALL_ALGEBRAS,
    LARGE_PRIME,
    STANDARD_ALGEBRAS,
    algebras,
    divisible_right_modules,
    modules,
)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F2T2 = truncated_polynomial_algebra(2, 2)
F2T3 = truncated_polynomial_algebra(2, 3)
F4 = extension_field(2, [1, 1, 1])
F2xF2 = product_algebra(F2, F2)


def jordan_module(p: int, n: int) -> RightFModule:
    """Nilpotent shift of index n over the prime field."""
    x = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        x[i, i + 1] = 1
    return RightFModule(prime_field(p), [FpMatrix(p, np.eye(n, dtype=np.int64))], FpMatrix(p, x))


def residue_right_module() -> RightFModule:
    """The one-dimensional quotient of F_2[t]/(t^2) with x acting as 1."""
    return RightFModule(F2T2, [FpMatrix(2, [[1]]), FpMatrix(2, [[0]])], FpMatrix(2, [[1]]))


def dual_natural_right_module() -> RightFModule:
    """Right module on the linear dual of the natural module: transposed data."""
    nat = natural_frobenius_module(F2T2)
    return RightFModule(F2T2, [a.T for a in nat.action], nat.x_action.T)


# -- validation ---------------------------------------------------------------


def test_natural_module_is_left_valid():
    H = natural_frobenius_module(F2T2)
    assert H.validate()
    # x acts as squaring: x(1+t) = (1+t)^2 = 1
    assert H.x_action.apply([1, 1]).tolist() == [1, 0]


def test_zero_x_action_is_valid_on_both_sides():
    mats = F2T2.basis_matrices()
    z = FpMatrix.zeros(2, 2, 2)
    assert LeftFModule(F2T2, mats, z).validate()
    assert RightFModule(F2T2, mats, z).validate()


def test_wrong_twist_fails_right_validation():
    nat = natural_frobenius_module(F2T2)
    with pytest.raises(AxiomError, match="semilinearity"):
        RightFModule(F2T2, nat.action, nat.x_action)


def test_non_multiplicative_action_is_rejected():
    bad = [FpMatrix.identity(2, 2), FpMatrix.identity(2, 2)]  # rho(t) = id
    with pytest.raises(AxiomError, match="multiplicative"):
        LeftFModule(F2T2, bad, FpMatrix.zeros(2, 2, 2))


@pytest.mark.parametrize("rho_p", [2, 3])
def test_matrices_over_another_field_are_refused(rho_p):
    # over F_2, X = 2 is 0 and the module is not x-divisible; answers read
    # off the F_3 data would say it is
    with pytest.raises(ValueError, match="F_2"):
        RightFModule(prime_field(2), [FpMatrix(rho_p, [[1]])], FpMatrix(3, [[2]]))


# -- the pairwise multiplicativity loop the batched check replaced ---------------


def reference_validate(M) -> str | None:
    """The d^2-pair validate: the message of the first failing axiom, or None."""
    A = M.algebra
    eye = np.eye(A.dim, dtype=np.int64)
    if M.rho(A.one) != FpMatrix.identity(A.p, M.dim):
        return "action is not unital: rho(1) != id"
    for i in range(A.dim):
        for j in range(A.dim):
            if M.action[i] @ M.action[j] != M.rho(A.mul(eye[i], eye[j])):
                return f"action is not multiplicative on ({i},{j})"
    for i, (a, b) in enumerate(reference.semilinear_pairs(A, M.action, M.side)):
        if M.x_action @ a != b @ M.x_action:
            return f"{M.side} semilinearity fails on basis element {A.labels[i]}"
    return None


def validate_message(M) -> str | None:
    try:
        M.validate()
    except AxiomError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(modules(pool=ALL_ALGEBRAS), st.data())
def test_validate_matches_pairwise_reference(M, data):
    assert validate_message(M) is None and reference_validate(M) is None
    if not M.dim:
        return
    # one action entry moved (off the unit, where it can, so that the
    # multiplicativity check is what refuses it): both give the same message
    A = M.algebra
    i = data.draw(st.sampled_from([k for k in range(A.dim) if not A.one[k]] or [0]))
    r, c = data.draw(st.integers(0, M.dim - 1)), data.draw(st.integers(0, M.dim - 1))
    moved = M.action[i].data.copy()
    moved[r, c] += data.draw(st.integers(1, A.p - 1))
    action = [FpMatrix(A.p, moved) if k == i else a for k, a in enumerate(M.action)]
    bad = type(M)._from_structure(A, operator_stack(A.p, M.dim, [*action, M.x_action]))
    assert validate_message(bad) == reference_validate(bad)


def test_validate_names_the_first_failing_pair():
    # F2[t]/t3 with rho(1) = rho(t) = rho(t^2) = id: the pairs (0, *), (1, 0)
    # and (1, 1) hold, and t * t^2 == t^3 == 0 fails first, at (1, 2)
    eye = FpMatrix.identity(2, 2)
    stack = operator_stack(2, 2, [eye, eye, eye, FpMatrix.zeros(2, 2, 2)])
    bad = LeftFModule._from_structure(F2T3, stack)
    assert reference_validate(bad) == "action is not multiplicative on (1,2)"
    assert validate_message(bad) == reference_validate(bad)


# -- twisted regular modules ----------------------------------------------------


def test_twist_by_identity_is_natural():
    assert twisted_frobenius_module(F2T2, F2T2.one) == natural_frobenius_module(F2T2)


def test_twist_by_zero_kills_x():
    assert twisted_frobenius_module(F2T2, [0, 0]).x_action.is_zero()


def test_twist_scalar_case():
    mod = twisted_frobenius_module(F3, [2])
    assert mod.x_action == FpMatrix(3, [[2]])


def brute_root_criterion(A, c1, c2) -> bool:
    """Oracle: some unit u has u^(p-1) * c2 == c1."""
    c1 = np.asarray(c1) % A.p
    units = (u for u in A.elements() if A.is_unit(u))
    return any(np.array_equal(A.mul(A.power(u, A.p - 1), c2), c1) for u in units)


def test_rank_one_same_twist_gives_identity_witness():
    ok, witness = twisted_modules_isomorphic(F3, [1], [1])
    assert ok and np.array_equal(witness, [1])


def test_rank_one_nonsquare_over_f3():
    ok, witness = twisted_modules_isomorphic(F3, [1], [2])
    assert not ok and witness is None
    assert not brute_root_criterion(F3, [1], [2])


def test_rank_one_unit_with_root_over_f2t2():
    ok, witness = twisted_modules_isomorphic(F2T2, [1, 0], [1, 1])
    assert ok and witness is not None
    assert brute_root_criterion(F2T2, [1, 0], [1, 1])


@pytest.mark.parametrize("A", [F3, F5])
def test_rank_one_matches_root_criterion_exhaustively(A):
    for c1 in A.elements():
        for c2 in A.elements():
            ok, _ = twisted_modules_isomorphic(A, c1, c2)
            assert ok == brute_root_criterion(A, c1, c2)


def reference_twisted_isomorphic(A, c1, c2) -> bool:
    """Reference: scan every element for a unit intertwining the x-actions."""
    F = A.frobenius().matrix
    x1 = A.mult_matrix(c1) @ F
    x2 = A.mult_matrix(c2) @ F
    for u in A.elements():
        mu = A.mult_matrix(u)
        if mu.is_invertible() and mu @ x1 == x2 @ mu:
            return True
    return False


def assert_unit_search_matches_scan(A, c1, c2):
    ok, witness = twisted_modules_isomorphic(A, c1, c2)
    assert ok == reference_twisted_isomorphic(A, c1, c2)
    assert (witness is not None) == ok
    if ok:
        F = A.frobenius().matrix
        mu = A.mult_matrix(witness)
        assert mu.is_invertible()
        assert mu @ A.mult_matrix(c1) @ F == A.mult_matrix(c2) @ F @ mu


def test_unit_search_matches_element_scan_on_standard_algebras():
    for A in standard_algebras().values():
        assert A.p**A.dim <= 9
        for c1, c2 in itertools.product(list(A.elements()), repeat=2):
            assert_unit_search_matches_scan(A, c1, c2)


@pytest.mark.parametrize(
    "A",
    [
        truncated_polynomial_algebra(3, 3),
        product_algebra(product_algebra(F2T2, F2), F2),
    ],
)
def test_unit_search_matches_element_scan_on_seeded_pairs(A):
    rng = random.Random(7)
    for _ in range(50):
        c1, c2 = ([rng.randrange(A.p) for _ in range(A.dim)] for _ in range(2))
        assert_unit_search_matches_scan(A, c1, c2)


def test_unit_search_beyond_element_scans():
    # the solution space is all of F_p x F_p: 1048573^2 elements, of which
    # the units are found per factor
    p = LARGE_PRIME
    A = product_algebra(prime_field(p), prime_field(p))
    ok, witness = twisted_modules_isomorphic(A, [1, 1], [1, 1])
    assert ok
    F = A.frobenius().matrix
    mu = A.mult_matrix(witness)
    assert mu.is_invertible()
    assert mu @ F == F @ mu
    # over F_p, u^p = u, so u c1 = c2 u^p has only u = 0 when c1 != c2
    assert twisted_modules_isomorphic(A, [1, 1], [1, 2]) == (False, None)


# -- Cartier-type structures ---------------------------------------------------


def test_cartier_on_prime_field_is_identity():
    mod, reason = cartier_from_splitting(F2)
    assert reason is None
    assert mod.x_action == FpMatrix.identity(2, 1)


def test_cartier_on_field_extension_inverts_frobenius():
    mod, reason = cartier_from_splitting(F4)
    assert reason is None
    assert mod.x_action @ F4.frobenius().matrix == FpMatrix.identity(2, 2)


def test_cartier_requires_reduced():
    mod, reason = cartier_from_splitting(F2T2)
    assert mod is None and reason == "not reduced"


def test_cartier_matches_the_splitting_solve():
    inverted = 0
    for A in frobenius_pool():
        mod, reason = cartier_from_splitting(A)
        if not nilradical_by_squaring(A).is_zero():
            assert mod is None and reason == "not reduced"
            continue
        assert reason is None
        assert mod.x_action == cartier_by_splitting_solve(A)
        assert mod.validate()
        inverted += mod.x_action != A.frobenius().matrix
    # on a field of degree <= 2, and on products of them, F == F^-1
    assert inverted >= 9


# -- exponents and torsion -------------------------------------------------------


def test_x_power_zero_is_identity():
    H = natural_frobenius_module(F2T3)
    assert H.x_power(0) == FpMatrix.identity(2, 3)
    assert H.x_power(1) == H.x_action


def test_torsion_exponent_invertible_x():
    H = natural_frobenius_module(F4)  # Frobenius is invertible on a field
    assert H.torsion_exponent() == 0
    assert H.is_x_torsion_free()
    assert H.x_torsion().is_zero()


def test_torsion_exponent_natural_module():
    H = natural_frobenius_module(F2T2)
    assert H.torsion_exponent() == 1
    assert H.x_torsion().space == Subspace.from_vectors(2, 2, [[0, 1]])
    assert not H.is_x_torsion_free()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_torsion_exponent_jordan_block(k):
    x = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        x[i, i + 1] = 1
    H = LeftFModule(F2, [FpMatrix.identity(2, k)], FpMatrix(2, x))
    assert H.torsion_exponent() == k
    # oracle: smallest uniform killer of all torsion vectors
    killers = []
    for v in Subspace.full(2, k).vectors():
        if any(not apply_x_power(H, v, j).any() for j in range(1, k + 1)):
            least = min(j for j in range(0, k + 1) if not apply_x_power(H, v, j).any())
            killers.append(least)
    assert max(killers) == k


def test_zero_x_torsion_is_everything():
    H = LeftFModule(F2T2, F2T2.basis_matrices(), FpMatrix.zeros(2, 2, 2))
    assert H.x_torsion().space.is_full()
    assert not H.is_x_torsion_free()


def test_divisibility_exponent_surjective():
    M = residue_right_module()
    assert M.divisibility_exponent() == 0
    assert M.is_x_divisible()


def test_divisibility_exponent_dual_natural():
    M = dual_natural_right_module()
    x = M.x_action
    assert [(x**k).image().dim for k in range(3)] == [2, 1, 1]
    assert M.divisibility_exponent() == 1
    assert not M.is_x_divisible()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_divisibility_exponent_nilpotent(k):
    assert jordan_module(2, k).divisibility_exponent() == k


def test_stabilization_is_permanent():
    rng = random.Random(2)
    for A in (F2T2, F2T3, F4, F2xF2):
        for _ in range(5):
            M = random_module(A, "right", 4, rng)
            e = M.divisibility_exponent()
            x = M.x_action
            assert (x**e).image() == (x ** (e + 1)).image() == (x ** (e + 2)).image()
            H = random_module(A, "left", 4, rng)
            e = H.torsion_exponent()
            x = H.x_action
            assert (x**e).kernel() == (x ** (e + 1)).kernel() == (x ** (e + 2)).kernel()


# -- the cached powers of x against the chains they replaced ------------------------


def test_graded_annihilator_is_one_elimination_per_entry(monkeypatch):
    """Each entry b_n is the relations among the d products rho(e_i) X^n (or
    X^n rho(e_i)): one elimination on d rows, also past LIST_KERNEL_CELLS."""
    # 14 copies of the natural module over F2[t]/t^3: 3 x (42^2 + 3) entries
    copies = np.eye(14, dtype=np.int64)
    nat = natural_frobenius_module(F2T3)
    big = LeftFModule(
        F2T3,
        [FpMatrix(2, np.kron(copies, a.data)) for a in nat.action],
        FpMatrix(2, np.kron(copies, nat.x_action.data)),
    )
    catalog = [M for _, M in default_catalog().modules.values()]
    for M in catalog + [big]:
        for N in (M, dual_module(M, build_duality_context(M.algebra))):
            entries = N.fitting_index() + 1
            for n in range(entries):
                N.x_power(n)  # the powers of x and the Fitting index are cached
            counts: list[int] = []
            real = linalg._rref
            monkeypatch.setattr(linalg, "_rref", lambda a, p: counts.append(a.shape[0]) or real(a, p))
            got = N.graded_annihilator()
            monkeypatch.undo()
            assert counts == [N.algebra.dim] * entries
            assert got == reference.graded_annihilator(N)


@settings(max_examples=150, deadline=None)
@given(modules(pool=ALL_ALGEBRAS))
def test_x_powers_and_exponents_match_the_chain_reference(M):
    for N in (M, dual_module(M, _contexts(M.algebra))):
        for n in range(N.dim + 3):
            assert N.x_power(n) == N.x_action**n
        assert N.graded_annihilator() == reference.graded_annihilator(N)
        if N.side == "left":
            assert N.torsion_exponent() == reference.torsion_exponent(N)
            assert N.x_torsion().space == reference.x_torsion(N).space
        else:
            assert N.divisibility_exponent() == reference.divisibility_exponent(N)
            stable, e = N.stable_image()
            reference_stable, reference_e = reference.stable_image(N)
            assert (stable.space, e) == (reference_stable.space, reference_e)
            assert N.annihilator_chain() == reference.annihilator_chain(N)


def test_module_suite_builds_each_power_of_x_once(monkeypatch):
    """Within one module_suite call, each module multiplies by its X at most
    once per power: a product of X with X^j makes X^(j+1), and no module
    makes the same power twice."""
    products: list[tuple] = []
    made: list[_FModule] = []
    real_matmul, real_init = FpMatrix.__matmul__, _FModule.__init__

    def recording_matmul(a, b):
        out = real_matmul(a, b)
        products.append((a, b, out))
        return out

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    cat = default_catalog()
    cases = [(cat.algebras[alg], M) for alg, M in cat.modules.values()]
    for name in ("F2[t]/t3", "F3[t]/t2", "F2xF2"):
        A = STANDARD_ALGEBRAS[name]
        cases += [(A, M) for _, M in sampled_modules(A, seed=5, per_side=2)]
    for A, M in cases:
        ctx = _contexts(A)
        products.clear()
        made[:] = [M]
        monkeypatch.setattr(FpMatrix, "__matmul__", recording_matmul)
        monkeypatch.setattr(_FModule, "__init__", recording_init)
        report = Report()
        module_suite(ctx, "m", M, random.Random(0), report)
        monkeypatch.undo()
        assert report.ok, report.render_text()
        for X in {id(N.x_action): N.x_action for N in made}.values():
            exponent = {id(X): 1}  # the power of X that each matrix object is
            builds = collections.Counter()
            for a, b, out in products:
                other = b if a is X else a if b is X else None
                if other is not None and id(other) in exponent:
                    exponent[id(out)] = exponent[id(other)] + 1
                    builds[exponent[id(out)]] += 1
            assert max(builds.values(), default=0) <= 1, (M, builds)


# -- graded annihilators -----------------------------------------------------------


def test_grann_of_zero_module_is_unit_chain():
    assert LeftFModule.zero(F2T2).graded_annihilator() == unit_graded_ideal(F2T2)
    assert RightFModule.zero(F2T2).graded_annihilator() == unit_graded_ideal(F2T2)


def test_grann_of_residue_field_left_module():
    H = LeftFModule(F2T2, [FpMatrix(2, [[1]]), FpMatrix(2, [[0]])], FpMatrix(2, [[1]]))
    chain = H.graded_annihilator()
    expected = GradedTwoSidedIdeal(F2T2, [F2T2.ideal([[0, 1]])])
    assert chain == expected


def test_grann_of_natural_module_is_zero():
    assert natural_frobenius_module(F2T2).graded_annihilator() == zero_graded_ideal(F2T2)


def test_grann_annihilates_exhaustively():
    rng = random.Random(4)
    for A in (F2T2, F2T3, F4):
        for side in ("left", "right"):
            M = random_module(A, side, 3, rng)
            chain = M.graded_annihilator()
            assert is_graded_two_sided(chain.chain)
            for n in range(chain.stable_from + 2):
                for b in chain.component(n).space.basis:
                    poly = SkewPolynomial(A, [A.zero()] * n + [b])
                    for v in Subspace.full(A.p, M.dim).vectors():
                        assert not act(M, poly, v).any()


def test_grann_stable_index_is_permanent():
    """Recomputing one degree beyond stable_from changes nothing."""
    rng = random.Random(19)
    for A in (F2T2, F2T3, F4):
        for side in ("left", "right"):
            M = random_module(A, side, 3, rng)
            chain = M.graded_annihilator()
            n = chain.stable_from + 1
            xp = M.x_action**n
            eye = np.eye(A.dim, dtype=np.int64)
            recomputed = []
            for r in Subspace.full(A.p, A.dim).vectors():
                prod = M.rho(r) @ xp if side == "left" else xp @ M.rho(r)
                if prod.is_zero():
                    recomputed.append(r)
            space = Subspace.from_vectors(A.p, A.dim, recomputed)
            assert space == chain.component(n).space


def test_grann_is_the_largest_graded_annihilator():
    # any r x^n outside the chain must fail to annihilate
    rng = random.Random(14)
    for A in (F2T2, F4):
        M = random_module(A, "right", 3, rng)
        chain = M.graded_annihilator()
        for n in range(chain.stable_from + 1):
            for r in A.elements():
                if chain.component(n).contains(r):
                    continue
                poly = SkewPolynomial(A, [A.zero()] * n + [r])
                assert any(
                    act(M, poly, v).any() for v in Subspace.full(A.p, M.dim).vectors()
                )


# -- module times ideal, annihilator of ideal ---------------------------------------


def test_times_unit_ideal_is_everything():
    M = dual_natural_right_module()
    assert M.times_graded_ideal(unit_graded_ideal(F2T2)).space.is_full()


def test_times_zero_ideal_is_zero():
    M = dual_natural_right_module()
    assert M.times_graded_ideal(zero_graded_ideal(F2T2)).is_zero()


def test_times_x_ideal_is_image():
    rng = random.Random(8)
    for A in (F2T2, F4, F2xF2):
        for _ in range(4):
            M = random_module(A, "right", 3, rng)
            product = M.times_graded_ideal(x_power_graded_ideal(A, 1))
            # oracle: direct image computation, then closure under the structure
            image = M.x_action.image()
            closure = M.submodule(list(image.basis))
            assert product.space == closure.space == image


def test_annihilator_of_zero_ideal_is_everything():
    H = natural_frobenius_module(F2T2)
    assert H.annihilator_submodule(zero_graded_ideal(F2T2)).space.is_full()


def test_annihilator_of_unit_ideal_is_zero():
    H = natural_frobenius_module(F2T2)
    assert H.annihilator_submodule(unit_graded_ideal(F2T2)).is_zero()


def test_annihilator_of_x_ideal_is_kernel():
    H = natural_frobenius_module(F2T2)
    ann = H.annihilator_submodule(x_power_graded_ideal(F2T2, 1))
    assert ann.space == Subspace.from_vectors(2, 2, [[0, 1]])


def reference_annihilator_submodule(H: LeftFModule, ideal: GradedTwoSidedIdeal) -> Subspace:
    """Intersect the kernels in degrees up to the stable index one at a time,
    then cut down to the largest x-stable part."""
    space = Subspace.full(H.algebra.p, H.dim)
    for n in range(ideal.stable_from + 1):
        xp = H.x_action**n
        for b in ideal.component(n).space.basis:
            space = space & (H.rho(b) @ xp).kernel()
    states, _, _ = stabilize(space, lambda s: s & H.x_action.preimage(s))
    return states[-1]


@settings(max_examples=150, deadline=None)
@given(
    modules(sides=("left",), pool=ALL_ALGEBRAS),
    st.sampled_from(["left", "right"]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_annihilator_submodule_matches_intersection_loop(H, side, dim, seed):
    A = H.algebra
    other = random_module(A, side, dim, random.Random(seed))
    ideals = [
        zero_graded_ideal(A),
        x_power_graded_ideal(A, 1),
        x_power_graded_ideal(A, 3),
        unit_graded_ideal(A),
        H.graded_annihilator(),
        other.graded_annihilator(),
    ]
    for B in ideals:
        assert H.annihilator_submodule(B).space == reference_annihilator_submodule(H, B)


def test_annihilator_exhaustive_oracle():
    rng = random.Random(21)
    for A in (F2T2, F2T3):
        H = random_module(A, "left", 3, rng)
        for B in (x_power_graded_ideal(A, 1), x_power_graded_ideal(A, 2)):
            ann = H.annihilator_submodule(B)
            # oracle: elementwise annihilation test over every vector, with
            # polynomials b x^n for n up to a safe horizon
            expected = []
            for v in Subspace.full(A.p, H.dim).vectors():
                killed = True
                for n in range(B.stable_from + H.dim + 2):
                    for b in B.component(n).space.basis:
                        poly = SkewPolynomial(A, [A.zero()] * n + [b])
                        if act(H, poly, v).any():
                            killed = False
                if killed:
                    expected.append(v)
            assert ann.space == Subspace.from_vectors(A.p, H.dim, expected)


# -- quotients, submodules, enumeration -----------------------------------------------


def test_quotient_by_zero_is_isomorphic_copy():
    M = natural_frobenius_module(F2T3)
    quotient, proj = M.quotient(M.zero_submodule())
    assert quotient.dim == M.dim
    assert proj.is_invertible()
    assert find_module_isomorphism(M, quotient) is not None


def test_isomorphism_search_refuses_above_its_bound():
    # X = 0 on F_2^4: every 4x4 matrix is a homomorphism, 2^16 combinations
    M = LeftFModule(F2, [FpMatrix.identity(2, 4)], FpMatrix.zeros(2, 4, 4))
    assert len(hom_space(M, M)) == 16
    with pytest.raises(BudgetError):
        find_module_isomorphism(M, M)


def test_quotient_by_everything_is_zero():
    M = natural_frobenius_module(F2T3)
    quotient, _ = M.quotient(FSubmodule(M, Subspace.full(2, M.dim)))
    assert quotient.is_zero()


def test_quotient_of_natural_module_by_torsion():
    H = natural_frobenius_module(F2T2)
    quotient, _ = H.quotient(H.x_torsion())
    assert quotient.dim == 1
    assert quotient.x_action == FpMatrix(2, [[1]])


def test_submodule_generated_closes_under_structure():
    H = natural_frobenius_module(F2T3)
    sub = H.submodule([[0, 1, 0]])  # t generates span{t, t^2} and x t = t^2
    assert sub.space == Subspace.from_vectors(2, 3, [[0, 1, 0], [0, 0, 1]])


def test_submodule_validation_rejects_bad_space():
    H = natural_frobenius_module(F2T2)
    with pytest.raises(AxiomError):
        FSubmodule(H, Subspace.from_vectors(2, 2, [[1, 0]]))  # span{1} is not stable


def test_enumerate_submodules_of_zero_module():
    subs = LeftFModule.zero(F2T2).enumerate_submodules(budget=16)
    assert len(subs) == 1


def test_enumerate_submodules_of_simple_module():
    M = residue_right_module()
    subs = M.enumerate_submodules(budget=16)
    assert [s.dim for s in subs] == [0, 1]


def test_enumerate_submodules_of_natural_module():
    H = natural_frobenius_module(F2T2)
    subs = H.enumerate_submodules(budget=16)
    # oracle: test all five subspaces of F_2^2 for closure by hand
    closed = []
    for vs in [[], [[1, 0]], [[0, 1]], [[1, 1]], [[1, 0], [0, 1]]]:
        space = Subspace.from_vectors(2, 2, vs)
        ok = all(
            space.contains(op.apply(v))
            for op in [*H.action, H.x_action]
            for v in space.basis
        )
        if ok:
            closed.append(space)
    assert {s.space for s in subs} == set(closed)
    assert len(subs) == 3


def test_enumerate_submodules_budget():
    H = natural_frobenius_module(F2T3)
    with pytest.raises(BudgetError):
        H.enumerate_submodules(budget=4)
    # the budget counts the p^dim vectors, inclusive
    assert len(H.enumerate_submodules(budget=2**3)) > 0
    with pytest.raises(BudgetError, match="needs 8 vectors, budget is 7"):
        H.enumerate_submodules(budget=2**3 - 1)


def reference_enumerate_submodules(module) -> list[FSubmodule]:
    """The former enumeration: from each submodule found, close it together
    with every vector outside it, until no new submodule appears."""
    p = module.algebra.p
    all_vectors = [
        np.array(c, dtype=np.int64) for c in itertools.product(range(p), repeat=module.dim)
    ]
    zero = module.zero_submodule()
    found = {zero.space: zero}
    queue = [zero]
    while queue:
        current = queue.pop()
        for v in all_vectors:
            if current.space.contains(v):
                continue
            bigger = module.submodule(list(current.space.basis) + [v])
            if bigger.space not in found:
                found[bigger.space] = bigger
                queue.append(bigger)
    return sorted(found.values(), key=lambda s: (s.space.dim, s.space.basis.tobytes()))


def assert_same_submodules(module) -> None:
    """The same spaces in the same order as the reference; raises BudgetError
    above p^dim = 2^10, so every module given is compared."""
    got = module.enumerate_submodules(1 << 10)
    want = reference_enumerate_submodules(module)
    assert [s.space for s in got] == [s.space for s in want]
    assert all(s.parent is module for s in got)


def test_enumerate_submodules_matches_reference_on_catalog():
    cat = default_catalog()
    for alg_name, module in cat.modules.values():
        ctx = build_duality_context(cat.algebras[alg_name])
        assert_same_submodules(module)
        assert_same_submodules(dual_module(module, ctx))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_enumerate_submodules_matches_reference_on_random_modules(seed):
    rng = random.Random(seed)
    for A in standard_algebras().values():
        for side in ("left", "right"):
            assert_same_submodules(random_module(A, side, 4, rng))


def test_enumerate_submodules_makes_no_closure(monkeypatch):
    cat = default_catalog()
    alg_name, module = next(iter(cat.modules.values()))
    dual = dual_module(module, build_duality_context(cat.algebras[alg_name]))
    for M in (module, dual):
        calls = []
        real = fmodule_mod.close_under
        monkeypatch.setattr(fmodule_mod, "close_under", lambda *a: calls.append(1) or real(*a))
        got = M.enumerate_submodules(1 << 10)
        monkeypatch.undo()
        assert not calls
        assert [s.space for s in got] == [s.space for s in reference_enumerate_submodules(M)]


@st.composite
def lattice_modules(draw):
    """A module of dim 0 to 6 over a standard algebra, so p in {2, 3, 5}, on
    either side, with p^dim <= 2^10, where the line-by-line reference runs
    in time."""
    A = draw(algebras())
    side = draw(st.sampled_from(("left", "right")))
    max_dim, seed = draw(st.integers(0, 6)), draw(st.integers(0, 2**32 - 1))
    M = random_module(A, side, max_dim, random.Random(seed))
    assume(A.p**M.dim <= 1 << 10)
    return M


# about 2 s for 150 examples on a 2-core Xeon
@settings(max_examples=150, deadline=None)
@given(lattice_modules())
def test_enumerate_submodules_matches_the_line_by_line_reference(M):
    budget = M.algebra.p**M.dim
    got = M.enumerate_submodules(budget)
    want = reference.enumerate_submodules(M, budget)
    assert [s.space for s in got] == [s.space for s in want]
    assert [s.space.pivots.tolist() for s in got] == [s.space.pivots.tolist() for s in want]
    assert all(s.parent is M for s in got)
    # the spaces come trusted; the checked constructor raises unless each closes
    assert [FSubmodule(M, s.space) for s in got] == got
    # the budget counts the p^dim vectors, inclusive, in both routes alike
    with pytest.raises(BudgetError) as raised:
        M.enumerate_submodules(budget - 1)
    with pytest.raises(BudgetError, match=f"^{re.escape(str(raised.value))}$"):
        reference.enumerate_submodules(M, budget - 1)


def test_enumerate_submodules_chunks_its_stacks(monkeypatch):
    """With the cap at 64 cells every level is eliminated in chunks: the
    chunks hold the same matrices in the same order as the whole stacks,
    the result is the same, and only a stack of one matrix passes the cap."""
    cat = default_catalog()
    rng = random.Random(26)
    pool = [module for _, module in cat.modules.values()]
    pool += [random_module(A, side, 6, rng) for A in standard_algebras().values() for side in ("left", "right")]
    pool = [M for M in pool if M.algebra.p**M.dim <= 1 << 10]
    real = fmodule_mod.rref_stack
    shapes = []  # of the chunked stacks
    for M in pool:
        runs = []
        for cap in (fmodule_mod.STACK_CELLS, 64):
            matrices, run_shapes = [], []
            monkeypatch.setattr(fmodule_mod, "STACK_CELLS", cap)
            monkeypatch.setattr(
                fmodule_mod, "rref_stack", lambda a, p: matrices.extend(a) or run_shapes.append(a.shape) or real(a, p)
            )
            runs.append((M.enumerate_submodules(1 << 10), matrices))
            monkeypatch.undo()
        shapes += run_shapes
        (whole, whole_matrices), (chunked, chunked_matrices) = runs
        assert [s.space for s in chunked] == [s.space for s in whole]
        assert len(chunked_matrices) == len(whole_matrices)
        assert all(np.array_equal(a, b) for a, b in zip(chunked_matrices, whole_matrices))
    assert all(B * r * c <= 64 or B == 1 for B, r, c in shapes)
    assert sum(B > 1 for B, _, _ in shapes) > 10 and sum(B * r * c > 64 for B, r, c in shapes) > 10


def test_sum_stacks_hold_every_pair_once(monkeypatch):
    """Whole or in chunks, the stacks hold one matrix per pair of a frontier
    space S and a cyclic C, in row-major order, whose rows span S + C."""
    # X = 1 on F_2^3: every one of its 15 nonzero subspaces is a submodule
    M = LeftFModule(F2, [FpMatrix.identity(2, 3)], FpMatrix.identity(2, 3))
    spaces = [s.space for s in M.enumerate_submodules(1 << 10) if s.dim]
    frontier, cyclic = spaces[:7], spaces[1:]
    assert len(spaces) == 15
    for cap, chunked in ((fmodule_mod.STACK_CELLS, False), (64, True)):
        monkeypatch.setattr(fmodule_mod, "STACK_CELLS", cap)
        stacks = list(fmodule_mod._sum_stacks(frontier, cyclic))
        pairs = np.concatenate(stacks)
        assert (len(stacks) > 1) == chunked
        assert len(pairs) == len(frontier) * len(cyclic)
        for matrix, (S, C) in zip(pairs, itertools.product(frontier, cyclic)):
            assert Subspace.from_vectors(2, M.dim, matrix) == S + C


def test_as_module_inclusion_equals_the_checked_construction():
    cat = default_catalog()
    for alg_name, module in cat.modules.values():
        dual = dual_module(module, build_duality_context(cat.algebras[alg_name]))
        for M in (module, dual):
            for sub in M.enumerate_submodules(1 << 10):
                _, incl = sub.as_module()
                assert incl == FpMatrix(M.algebra.p, sub.space.basis.T.reshape(M.dim, sub.dim))
                assert not incl.data.flags.writeable


def cyclic_span(M, v) -> Subspace:
    """The span of the vectors W v over the words W of M._cyclic_words()."""
    p, n = M.algebra.p, M.dim
    images = mulmod(M._cyclic_words(), as_vector(v, p).reshape(n, 1), p)
    return Subspace.from_vectors(p, n, images.reshape(M.algebra.dim * n, n))


# about 1 s for 200 examples on a 2-core Xeon
@settings(max_examples=200, deadline=None)
@given(modules(pool=ALL_ALGEBRAS), st.data())
def test_cyclic_words_span_the_cyclic_submodule(M, data):
    # a drawn vector mostly generates all of M, so the unit vectors, which
    # often generate less, come too
    p = M.algebra.p
    drawn = data.draw(st.lists(st.integers(0, p - 1), min_size=M.dim, max_size=M.dim))
    for v in [drawn, *np.eye(M.dim, dtype=np.int64)]:
        assert cyclic_span(M, v) == M.submodule([v]).space


@pytest.mark.parametrize("side", [LeftFModule, RightFModule])
def test_cyclic_words_reach_the_last_power_of_x(side):
    # the shift sends e_n to e_(n-1), so e_n generates everything, and only
    # through X^(n-1)
    n = 5
    M = side(F2, [FpMatrix.identity(2, n)], FpMatrix(2, np.eye(n, k=1, dtype=np.int64)))
    v = [0] * (n - 1) + [1]
    assert cyclic_span(M, v).is_full() and M.submodule([v]).space.is_full()
    lower = M._cyclic_words()[: (n - 1) * n]  # the words with j < n - 1
    assert Subspace.from_vectors(2, n, mulmod(lower, np.array(v), 2).reshape(-1, n)).dim == n - 1


# -- graded-annihilator sets against the submodule lattice ------------------------


_contexts = functools.cache(build_duality_context)


def lattice_quotient_grann_set(M) -> set[tuple]:
    return {M.quotient(s)[0].graded_annihilator().key() for s in M.enumerate_submodules(1 << 10)}


def lattice_submodule_grann_set(H) -> set[tuple]:
    return {s.as_module()[0].graded_annihilator().key() for s in H.enumerate_submodules(1 << 10)}


@settings(max_examples=100, deadline=None)
@given(divisible_right_modules())
def test_graded_annihilator_set_matches_lattice_on_quotients(M):
    assert graded_annihilator_set(M) == lattice_quotient_grann_set(M)


@settings(max_examples=100, deadline=None)
@given(divisible_right_modules())
def test_graded_annihilator_set_matches_lattice_on_dual_submodules(M):
    dual = dual_module(M, _contexts(M.algebra))
    assert graded_annihilator_set(dual) == lattice_submodule_grann_set(dual)


def test_graded_annihilator_set_needs_its_hypothesis():
    # x nilpotent: not x-divisible, and its dual has x-torsion
    M = RightFModule(F2, [FpMatrix.identity(2, 2)], FpMatrix(2, [[0, 1], [0, 0]]))
    radical_formula = set()
    for b in (F2.zero_ideal(), F2.unit_ideal()):
        product = M.times_graded_ideal(GradedTwoSidedIdeal(F2, [b]))
        radical_formula.add(M.quotient(product)[0].graded_annihilator().key())
    # the lattice also has M/ker(X), whose annihilator is (0, F2)
    assert len(radical_formula) == 2
    assert len(lattice_quotient_grann_set(M)) == 3
    with pytest.raises(AxiomError, match="x-divisible"):
        graded_annihilator_set(M)
    with pytest.raises(AxiomError, match="x-torsion-free"):
        graded_annihilator_set(dual_module(M, _contexts(F2)))


# -- reductions ----------------------------------------------------------------------


# -- the per-row restrictions and change of basis the linalg primitives replaced --


def reference_restrict(op: FpMatrix, space: Subspace) -> FpMatrix:
    """Column j: the coordinates of op applied to basis row j, one row at a time."""
    cols = []
    for row in space.basis:
        coords = space.coordinates(op.apply(row))
        assert coords is not None
        cols.append(coords)
    data = np.array(cols, dtype=np.int64).T if cols else np.zeros((0, 0), dtype=np.int64)
    return FpMatrix(op.p, data.reshape(space.dim, space.dim))


def reference_quotient(M, sub: FSubmodule):
    """Quotient action, x-action and projection through the old change of basis."""
    p = M.algebra.p
    reps = quotient_representatives(Subspace.full(p, M.dim), sub.space)
    if M.dim:
        change = FpMatrix(p, np.vstack([sub.space.basis, reps]).T).inverse()
        proj = FpMatrix(p, change.data[sub.space.dim :, :])
        lift = FpMatrix(p, reps.T)
    else:
        proj = lift = FpMatrix.zeros(p, 0, 0)
    return tuple(proj @ a @ lift for a in M.action), proj @ M.x_action @ lift, proj


def reference_localize(M: RightFModule, index: int):
    decomp = M.algebra.local_components()
    part = M.rho(decomp.idempotents[index]).image()
    eye = np.eye(decomp.components[index].dim, dtype=np.int64)
    action = tuple(reference_restrict(M.rho(decomp.lift(index, row)), part) for row in eye)
    return action, reference_restrict(M.x_action, part)


@settings(max_examples=80, deadline=None)
@given(modules(), st.data())
def test_quotient_as_module_and_localize_match_reference(M, data):
    p = M.algebra.p
    vectors = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=M.dim, max_size=M.dim), max_size=2)
    )
    for sub in (M.zero_submodule(), FSubmodule(M, Subspace.full(p, M.dim)), M.submodule(vectors)):
        quotient, proj = M.quotient(sub)
        assert (quotient.action, quotient.x_action, proj) == reference_quotient(M, sub)
        smod, _ = sub.as_module()
        assert smod.action == tuple(reference_restrict(a, sub.space) for a in M.action)
        assert smod.x_action == reference_restrict(M.x_action, sub.space)
    if M.side == "right":
        for idx in range(len(M.algebra.local_components().components)):
            local = M.localize(idx)
            assert (local.action, local.x_action) == reference_localize(M, idx)


def mod_eventual_annihilator(M: RightFModule) -> RightFModule:
    return M.quotient(M.eventual_annihilator()[0])[0]


def mod_stable_image(M: RightFModule) -> RightFModule:
    return M.quotient(M.stable_image()[0])[0]


def test_reductions_invertible_x():
    M = residue_right_module()
    assert mod_eventual_annihilator(M).dim == M.dim
    assert mod_stable_image(M).is_zero()


def test_reductions_nilpotent_x():
    M = jordan_module(2, 3)
    assert mod_eventual_annihilator(M).is_zero()
    assert mod_stable_image(M).dim == M.dim


def test_reductions_mixed_blocks():
    # invertible block (identity) next to a nilpotent shift
    x = np.zeros((3, 3), dtype=np.int64)
    x[0, 0] = 1
    x[1, 2] = 1
    M = RightFModule(F2, [FpMatrix.identity(2, 3)], FpMatrix(2, x))
    gamma = mod_eventual_annihilator(M)
    sigma = mod_stable_image(M)
    assert gamma.dim == 1 and gamma.x_action.is_invertible()
    assert sigma.dim == 2 and sigma.divisibility_exponent() == 2
    # the reductions do what they claim
    assert gamma.eventual_annihilator()[0].is_zero()
    assert sigma.stable_image()[0].is_zero()


def test_eventual_annihilator_differs_from_kernel():
    """(0 : R x) can be strictly smaller than ker X on a right module."""
    action = [FpMatrix.identity(2, 2), FpMatrix(2, [[0, 0], [1, 0]])]
    x = FpMatrix(2, [[0, 0], [0, 1]])
    M = RightFModule(F2T2, action, x)
    kernel = M.x_action.kernel()
    chain, _ = M.annihilator_chain()
    assert chain[0].dim < kernel.dim


# -- localization -----------------------------------------------------------------


def test_localize_local_algebra_is_identity():
    M = dual_natural_right_module()
    local = M.localize(0)
    assert local.dim == M.dim
    assert find_module_isomorphism(M, local) is not None


def test_localize_product_components():
    F = F2xF2.frobenius().matrix
    M = RightFModule(F2xF2, F2xF2.basis_matrices(), F)  # F is the identity here
    for idx in range(2):
        local = M.localize(idx)
        assert local.dim == 1
        assert local.x_action == FpMatrix(2, [[1]])


def test_localize_zero_module():
    M = RightFModule.zero(F2xF2)
    assert M.localize(0).is_zero()


def test_check_localization_beyond_element_scans():
    # 1048573^2 elements: far too many to list
    p = 1048573
    M, _ = cartier_from_splitting(product_algebra(prime_field(p), prime_field(p)))
    report = Report()
    check_localization("cartier", M, report)
    assert [r.check for r in report.results] == ["localization_commutes"] * 2
    assert report.ok


# -- the element scans the square-multiplier and fraction-rule checks replaced ----


def reference_square_multiplier(M: RightFModule) -> tuple[bool, int]:
    """Scan every s: the verdict, and the number of s with rho(s) M inside Mx."""
    A = M.algebra
    power_images = [(M.x_action**k).image() for k in range(1, M.dim + 2)]
    witnesses = 0
    for s in A.elements():
        if all(power_images[0].contains(col) for col in M.rho(s).data.T):
            witnesses += 1
            s2 = M.rho(A.mul(s, s))
            if not all(imk.contains(col) for imk in power_images for col in s2.data.T):
                return False, witnesses
    return True, witnesses


def reference_fraction_rule(local: RightFModule) -> bool:
    """Scan every unit s: rho(s)^-1 X rho(s^(p-1)) == X rho(s)^-1."""
    comp = local.algebra
    units = (s for s in comp.elements() if comp.is_unit(s))
    for s in units:
        rs_inv = local.rho(s).inverse()
        lhs = rs_inv @ local.x_action @ local.rho(comp.power(s, comp.p - 1))
        if lhs != local.x_action @ rs_inv:
            return False
    return True


def reference_localization(M: RightFModule) -> list[bool]:
    """The localization verdicts, per factor, with the fraction rule scanned."""
    A = M.algebra
    decomp = A.local_components()
    verdicts = []
    for idx in range(len(decomp.components)):
        local = M.localize(idx)
        proj = M.rho(decomp.idempotents[idx])
        part = proj.image()
        ok = True
        for k in range(1, M.dim + 2):
            projected = Subspace.from_vectors(
                A.p, M.dim, [proj.apply(col) for col in (M.x_action**k).data.T]
            )
            lifted = Subspace.from_vectors(
                A.p, M.dim, [(vec @ part.basis) % A.p for vec in (local.x_action**k).image().basis]
            )
            ok = ok and projected == lifted
        verdicts.append(ok and reference_fraction_rule(local))
    return verdicts


@settings(max_examples=80, deadline=None)
@given(modules(sides=("right",)))
def test_square_multiplier_and_localization_match_element_scans(M):
    report = Report()
    check_square_multiplier("m", M, report)
    if M.is_zero():
        assert report.results == []
    else:
        ok, witnesses = reference_square_multiplier(M)
        [result] = report.results
        assert result.ok == ok
        assert result.details == (f"{witnesses} applicable elements" if ok else "")
    report = Report()
    check_localization("m", M, report)
    assert [r.ok for r in report.results] == reference_localization(M)


@settings(max_examples=80, deadline=None)
@given(modules(sides=("right",)), st.integers(0, 2**32 - 1))
def test_square_multiplier_matches_element_scan_for_any_x(M, seed):
    # the reduction to a kernel and to products of its basis needs only a
    # linear action, so it must agree with the scan for any x-action; a
    # rank-deficient X makes the law fail now and then
    A = M.algebra
    rng = random.Random(seed)
    n = M.dim
    rank = rng.randrange(n + 1)
    u = np.array([rng.randrange(A.p) for _ in range(n * rank)], dtype=np.int64).reshape(n, rank)
    v = np.array([rng.randrange(A.p) for _ in range(rank * n)], dtype=np.int64).reshape(rank, n)
    N = RightFModule._from_structure(A, operator_stack(A.p, n, [*M.action, FpMatrix(A.p, u @ v)]))
    report = Report()
    check_square_multiplier("m", N, report)
    if N.is_zero():
        assert report.results == []
    else:
        ok, witnesses = reference_square_multiplier(N)
        assert [(r.ok, r.details) for r in report.results] == [
            (ok, f"{witnesses} applicable elements" if ok else "")
        ]


def test_square_multiplier_checks_cross_products_for_odd_p():
    # F_3[t,s]/(t^2, s^2) on basis 1, t, s, ts, acting on itself, with X
    # sending 1 -> t -> s -> ts -> 0: Mx is the maximal ideal, so t and s are
    # applicable and t^2 = s^2 = 0, but (t + s)^2 = 2ts and ts is not in Mx^4
    monomials = [(0, 0), (1, 0), (0, 1), (1, 1)]
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for i, (a, b) in enumerate(monomials):
        for j, (c, d) in enumerate(monomials):
            if (a + c, b + d) in monomials:
                table[i, j, monomials.index((a + c, b + d))] = 1
    A = FiniteAlgebra(3, table, [1, 0, 0, 0])
    shift = FpMatrix(3, np.eye(4, k=-1, dtype=np.int64))
    N = RightFModule._from_structure(A, operator_stack(A.p, 4, [*A.basis_matrices(), shift]))
    report = Report()
    check_square_multiplier("shift", N, report)
    assert not reference_square_multiplier(N)[0]
    assert [(r.ok, r.details) for r in report.results] == [(False, "")]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(n for n, A in STANDARD_ALGEBRAS.items() if A.is_local())),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_fraction_rule_is_the_semilinearity_on_a_basis(name, seed, data):
    # on a local algebra, the unit scan and the check on basis elements agree
    # for every X, semilinear or not
    A = STANDARD_ALGEBRAS[name]
    rng = random.Random(seed)
    M = random_module(A, "right", 3, rng)
    x = M.x_action
    if data.draw(st.booleans()):
        noise = [rng.randrange(A.p) for _ in range(M.dim**2)]
        x = x + FpMatrix(A.p, np.array(noise, dtype=np.int64).reshape(M.dim, M.dim))
    local = RightFModule._from_structure(A, operator_stack(A.p, M.dim, [*M.action, x]))
    a, b = semilinear_stacks(A, M.structure[:-1], "right")
    linear = np.array_equal(mulmod(x.data, a, A.p), mulmod(b, x.data, A.p))
    assert linear == reference_fraction_rule(local)


def torsion_killed_by_scan(H: LeftFModule, e: int) -> bool:
    """Scan every element: each one some x^j (j <= dim) kills is killed by x^e."""
    killer = H.x_action**e
    for v in Subspace.full(H.algebra.p, H.dim).vectors():
        torsion = any(not apply_x_power(H, v, j).any() for j in range(1, H.dim + 1))
        if torsion and killer.apply(v).any():
            return False
    return True


def reference_uniform_torsion_bound(H: LeftFModule, e: int) -> bool:
    """The torsion law for a claimed exponent e: the kernel chain is stable
    from e and not before, and below 2^12 elements the scan agrees."""
    x = H.x_action
    ok = (x**e).kernel() == (x ** (e + 1)).kernel() == (x ** (e + 2)).kernel()
    if e > 0:
        ok = ok and (x ** (e - 1)).kernel() != (x**e).kernel()
    if H.algebra.p**H.dim <= 1 << 12:
        ok = ok and torsion_killed_by_scan(H, e)
    return ok


@settings(max_examples=150, deadline=None)
@given(modules(sides=("left",), pool=ALL_ALGEBRAS), st.data())
def test_torsion_law_matches_element_scan(H, data):
    # the true exponent passes; a claimed one passes exactly when the
    # reference accepts it
    report = Report()
    check_uniform_torsion_bound("h", H, report)
    assert [(r.check, r.ok) for r in report.results] == [("uniform_torsion_exponent", True)]
    e = data.draw(st.integers(0, H.dim + 2))
    H.torsion_exponent = lambda: e
    report = Report()
    check_uniform_torsion_bound("h", H, report)
    assert [r.ok for r in report.results] == [reference_uniform_torsion_bound(H, e)]
    if H.algebra.p**H.dim <= 1 << 12:
        x = H.x_action
        assert torsion_killed_by_scan(H, e) == ((x ** max(H.dim, e)).kernel() <= (x**e).kernel())


def test_torsion_law_beyond_element_scans():
    # a nilpotent shift of index 3 over F_1048573 next to an invertible block
    p = LARGE_PRIME
    x = np.zeros((4, 4), dtype=np.int64)
    x[0, 1] = x[1, 2] = 1
    x[3, 3] = 5
    H = LeftFModule(prime_field(p), [FpMatrix.identity(p, 4)], FpMatrix(p, x))
    assert H.torsion_exponent() == 3
    report = Report()
    check_uniform_torsion_bound("shift", H, report)
    assert report.ok and len(report.results) == 1
    H.torsion_exponent = lambda: 2
    report = Report()
    check_uniform_torsion_bound("shift", H, report)
    assert [r.ok for r in report.results] == [False]


def test_square_multiplier_beyond_element_scans():
    # over F_1048573[t]/t^2 the dual of the natural module has X = diag(1, 0);
    # rho(a + bt) maps it into Mx exactly when a = 0
    p = 1048573
    A = truncated_polynomial_algebra(p, 2)
    M = dual_left(natural_frobenius_module(A), build_duality_context(A))
    report = Report()
    check_square_multiplier("dual natural", M, report)
    assert [(r.check, r.ok, r.details) for r in report.results] == [
        ("square_multiplier_descends", True, f"{p} applicable elements")
    ]


# -- homomorphisms ------------------------------------------------------------------


def test_hom_space_contains_identity():
    H = natural_frobenius_module(F2T2)
    basis = hom_space(H, H)
    combos = set()
    for coeffs in itertools.product(range(2), repeat=len(basis)):
        total = FpMatrix.zeros(2, 2, 2)
        for c, b in zip(coeffs, basis):
            if c:
                total = total + b
        combos.add(total)
    assert FpMatrix.identity(2, 2) in combos


def test_action_is_a_tuple_that_refuses_item_assignment():
    # a cached mutable list let one assignment change what the module reads
    M = natural_frobenius_module(F2T2)
    assert isinstance(M.action, tuple)
    with pytest.raises(TypeError):
        M.action[1] = M.action[0]
    assert len(hom_space(M, M)) == 1 and M.validate()


def test_hom_space_to_and_from_the_zero_module_is_zero():
    M, Z = natural_frobenius_module(F2T2), LeftFModule.zero(F2T2)
    assert hom_space(M, Z) == hom_space(Z, M) == hom_space(Z, Z) == []


def test_random_modules_satisfy_semilinearity():
    rng = random.Random(13)
    for name, A in standard_algebras().items():
        F = A.frobenius().matrix
        eye = np.eye(A.dim, dtype=np.int64)
        for side in ("left", "right"):
            M = random_module(A, side, 3, rng)
            for i in range(A.dim):
                frob = M.rho(F.apply(eye[i]))
                if side == "left":
                    assert M.x_action @ M.action[i] == frob @ M.x_action
                else:
                    assert M.x_action @ frob == M.action[i] @ M.x_action


# -- the whole-system intertwiner solver the block split replaced ----------------


def _bases(mats) -> list:
    return [m.data.tolist() for m in mats]


def test_solution_spaces_and_random_modules_match_the_whole_system(monkeypatch):
    # past LIST_KERNEL_CELLS operator_kernel splits the semilinearity system
    # by blocks; the basis, and with it every random draw, is the whole
    # system's
    split = 0
    for name in ["F2[t]/t3", "F3[t]/t2", "F2xF2", "F4", "F5", "Fl[t]/t2"]:
        A = ALL_ALGEBRAS[name]
        for side in ("left", "right"):
            for seed in range(5):
                M = random_module(A, side, 10, random.Random(seed))
                with monkeypatch.context() as patch:
                    patch.setattr(generators_mod, "operator_kernel", whole_operator_kernel)
                    whole = random_module(A, side, 10, random.Random(seed))
                assert M.action == whole.action and M.x_action == whole.x_action
                want = whole_operator_kernel(A.p, *semilinear_stacks(A, M.structure[:-1], side))
                assert _bases(semilinear_solution_space(M.action, A, side)) == _bases(want)
                assert _bases(semilinear_solution_space(M.structure[:-1], A, side)) == _bases(want)
                split += A.dim * M.dim**4 > linalg.LIST_KERNEL_CELLS
    assert split >= 20


def _direct_sum(M: _FModule, N: _FModule) -> _FModule:
    def block(a: FpMatrix, b: FpMatrix) -> FpMatrix:
        out = np.zeros((M.dim + N.dim, M.dim + N.dim), dtype=np.int64)
        out[: M.dim, : M.dim], out[M.dim :, M.dim :] = a.data, b.data
        return FpMatrix(M.algebra.p, out)

    actions = [block(a, b) for a, b in zip(M.action, N.action)]
    return type(M)(M.algebra, actions, block(M.x_action, N.x_action))


def test_hom_space_with_linking_x_matches_the_whole_system():
    # in a direct sum of two random modules x links the ring action's blocks
    # within each summand, so the Hom system splits into summand pairs
    split = 0
    for name in ["F2[t]/t2", "F3[t]/t2", "Fl[t]/t2"]:
        A = ALL_ALGEBRAS[name]
        for side in ("left", "right"):
            rng = random.Random(7)
            for _ in range(3):
                M = _direct_sum(random_module(A, side, 6, rng), random_module(A, side, 6, rng))
                N = _direct_sum(random_module(A, side, 6, rng), random_module(A, side, 6, rng))
                blocks = len(linalg._blocks(M.dim, M.structure))
                big = (A.dim + 1) * (M.dim * N.dim) ** 2 > linalg.LIST_KERNEL_CELLS
                split += big and 1 < blocks < len(linalg._blocks(M.dim, M.structure[:-1]))
                got = hom_space(M, N)
                assert _bases(got) == _bases(whole_operator_kernel(A.p, M.structure, N.structure))
                for h in got:
                    assert all(h @ a == b @ h for a, b in zip(M.action, N.action))
                    assert h @ M.x_action == N.x_action @ h
    assert split >= 12


def test_square_multiplier_property():
    rng = random.Random(17)
    for A in (F2T2, F2T3, F2xF2):
        for _ in range(5):
            M = random_module(A, "right", 3, rng)
            if M.is_zero():
                continue
            image = M.x_action.image()
            for s in A.elements():
                rs = M.rho(s)
                if all(image.contains(col) for col in rs.data.T):
                    s2 = M.rho(A.mul(s, s))
                    for k in range(1, M.dim + 2):
                        imk = (M.x_action**k).image()
                        assert all(imk.contains(col) for col in s2.data.T)
