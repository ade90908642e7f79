import itertools
import random

import numpy as np
import pytest

from froblab.algebra import (
    extension_field,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from froblab.errors import AxiomError, BudgetError
from froblab.fmodule import (
    FSubmodule,
    LeftFModule,
    RightFModule,
    cartier_from_splitting,
    find_module_isomorphism,
    hom_space,
    natural_frobenius_module,
    twisted_frobenius_module,
    twisted_modules_isomorphic,
)
from froblab.generators import random_module, standard_algebras
from froblab.linalg import FpMatrix, Subspace
from froblab.skew import (
    GradedTwoSidedIdeal,
    SkewPolynomial,
    is_graded_two_sided,
    unit_graded_ideal,
    x_power_graded_ideal,
    zero_graded_ideal,
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
    assert H.apply_x([1, 1]).tolist() == [1, 0]


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
    for u in A.units():
        if np.array_equal(A.mul(A.power(u, A.p - 1), c2), c1):
            return True
    return False


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


# -- exponents and torsion -------------------------------------------------------


def test_apply_x_power_zero_is_identity():
    H = natural_frobenius_module(F2T3)
    v = np.array([1, 1, 0])
    assert np.array_equal(H.apply_x_power(v, 0), v)


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
        if any(not H.apply_x_power(v, j).any() for j in range(1, k + 1)):
            least = min(j for j in range(0, k + 1) if not H.apply_x_power(v, j).any())
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
                        assert not M.act(poly, v).any()


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
                    M.act(poly, v).any() for v in Subspace.full(A.p, M.dim).vectors()
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
                        if H.act(poly, v).any():
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
    quotient, _ = M.quotient(M.full_submodule())
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
            for op in H.action + [H.x_action]
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


# -- reductions ----------------------------------------------------------------------


def test_reductions_invertible_x():
    M = residue_right_module()
    assert M.mod_eventual_annihilator().dim == M.dim
    assert M.mod_stable_image().is_zero()


def test_reductions_nilpotent_x():
    M = jordan_module(2, 3)
    assert M.mod_eventual_annihilator().is_zero()
    assert M.mod_stable_image().dim == M.dim


def test_reductions_mixed_blocks():
    # invertible block (identity) next to a nilpotent shift
    x = np.zeros((3, 3), dtype=np.int64)
    x[0, 0] = 1
    x[1, 2] = 1
    M = RightFModule(F2, [FpMatrix.identity(2, 3)], FpMatrix(2, x))
    gamma = M.mod_eventual_annihilator()
    sigma = M.mod_stable_image()
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
