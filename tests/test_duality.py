import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from froblab.algebra import (
    extension_field,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from froblab.duality import (
    build_duality_context,
    check_duality_identities,
    double_dual_map,
    dual_left,
    dual_map,
    dual_module,
    dual_pairing_element,
    dual_right,
    eval_dual_formula_left,
    eval_dual_formula_right,
)
from froblab.fmodule import (
    LeftFModule,
    RightFModule,
    find_module_isomorphism,
    natural_frobenius_module,
)
from froblab.generators import random_hom, random_module, standard_algebras
from froblab.linalg import FpMatrix, Subspace, operator_stack
from froblab.skew import x_power_graded_ideal

from duality_reference import reference_context, reference_dual
from module_strategies import ALL_ALGEBRAS, modules, units

F2 = prime_field(2)
F2T2 = truncated_polynomial_algebra(2, 2)
F4 = extension_field(2, [1, 1, 1])


def _psi_is_invertible(A, ctx) -> bool:
    """eps o psi = id on the dual basis: psi(z)(r)(1) = z(r)."""
    eye = np.eye(A.dim, dtype=np.int64)
    return all(np.array_equal(ctx.psi_matrix(z).T.apply(A.one), z) for z in eye)


def test_context_on_prime_field_is_trivial():
    ctx = build_duality_context(F2)
    assert ctx.module.x_action == FpMatrix.identity(2, 1) == F2.frobenius().matrix.T
    assert ctx.psi_matrix([1]) == FpMatrix.identity(2, 1)
    assert ctx.module.action == (FpMatrix.identity(2, 1),)


def test_context_on_dual_numbers():
    ctx = build_duality_context(F2T2)
    # x on the dual kills the functional dual to t and fixes the one dual to 1
    assert ctx.module.x_action.apply([1, 0]).tolist() == [1, 0]
    assert ctx.module.x_action.apply([0, 1]).tolist() == [0, 0]
    assert ctx.module.x_action == F2T2.frobenius().matrix.T
    assert _psi_is_invertible(F2T2, ctx)
    # brute force: every psi(z) is right-linear over squares
    for z in F2T2.elements():
        m = ctx.psi_matrix(z)
        for a in F2T2.elements():
            a_sq = F2T2.mul(a, a)
            for r in F2T2.elements():
                lhs = m.apply(F2T2.mul(a_sq, r))
                rhs = F2T2.mult_matrix(a).T.apply(m.apply(r))
                assert np.array_equal(lhs, rhs)


def test_context_on_field_extension():
    ctx = build_duality_context(F4)
    # Frobenius is the nontrivial automorphism; x on the dual is its transpose
    assert ctx.module.x_action == F4.frobenius().matrix.T
    assert ctx.module.x_action != FpMatrix.identity(2, 2)
    assert _psi_is_invertible(F4, ctx)


_reference_contexts = functools.cache(reference_context)


@settings(max_examples=120, deadline=None)
@given(modules(pool=ALL_ALGEBRAS))
def test_reference_route_gives_the_transposes(M):
    A = M.algebra
    ref = _reference_contexts(A)
    ctx = build_duality_context(A)
    assert len(ref.hom_basis) == A.dim and ref.psi.is_invertible()
    eye = np.eye(A.dim, dtype=np.int64)
    assert all(ref.psi_apply(z) == ctx.psi_matrix(z) for z in eye)
    assert ref.x_on_dual == ctx.module.x_action
    assert reference_dual(M, ref) == dual_module(M, ctx)


@settings(max_examples=120, deadline=None)
@given(modules(pool=ALL_ALGEBRAS), st.data())
def test_reference_duals_under_unit_twisted_psi(M, data):
    # psi_u = psi o (mult u)^T is another bimodule isomorphism; its duals
    # are twisted transposes, and they are modules and inverse to each other
    A = M.algebra
    u = data.draw(units(A))
    ref = reference_context(A, psi=_reference_contexts(A).psi @ A.mult_matrix(u).T)
    assert ref.twist.tolist() == u
    assert ref.as_right_module().validate()
    dual = reference_dual(M, ref)
    assert dual.side != M.side and dual.validate()
    assert reference_dual(dual, ref) == M


def test_dual_of_zero_module():
    ctx = build_duality_context(F2T2)
    assert dual_left(LeftFModule.zero(F2T2), ctx).is_zero()
    assert dual_right(RightFModule.zero(F2T2), ctx).is_zero()


def test_duality_functors_refuse_a_module_of_the_wrong_side():
    # the transpose of a left module is no left module: over F2[t]/t3 it
    # fails left semilinearity on t
    A = truncated_polynomial_algebra(2, 3)
    ctx = build_duality_context(A)
    H = natural_frobenius_module(A)
    with pytest.raises(ValueError, match="expected a right module"):
        dual_right(H, ctx)
    with pytest.raises(ValueError, match="expected a left module"):
        dual_left(dual_left(H, ctx), ctx)
    assert dual_module(dual_module(H, ctx), ctx) == H


def test_dual_of_natural_module():
    ctx = build_duality_context(F2T2)
    H = natural_frobenius_module(F2T2)
    D = dual_left(H, ctx)
    assert D.x_action == H.x_action.T
    assert all(a == b.T for a, b in zip(D.action, H.action))
    assert D.divisibility_exponent() == 1


def test_dual_preserves_invertibility():
    ctx = build_duality_context(F4)
    H = natural_frobenius_module(F4)
    assert H.x_action.is_invertible()
    assert dual_left(H, ctx).x_action.is_invertible()


def test_dual_of_dualizing_module_is_natural():
    for A in (F2, F2T2, F4, product_algebra(F2, F2)):
        ctx = build_duality_context(A)
        E = ctx.module
        DE = dual_right(E, ctx)
        assert find_module_isomorphism(DE, natural_frobenius_module(A)) is not None


def test_dual_of_zero_x_action():
    ctx = build_duality_context(F2T2)
    H = LeftFModule(F2T2, F2T2.basis_matrices(), FpMatrix.zeros(2, 2, 2))
    assert dual_left(H, ctx).x_action.is_zero()


def test_action_law_on_dual_elements():
    """(m x)(h) equals (m (x h)) x, as elements of the dualizing module."""
    rng = random.Random(3)
    for A in (F2T2, F4, truncated_polynomial_algebra(3, 2)):
        ctx = build_duality_context(A)
        for _ in range(6):
            H = random_module(A, "left", 3, rng)
            D = dual_left(H, ctx)
            for _ in range(6):
                lam = np.array([rng.randrange(A.p) for _ in range(H.dim)])
                h = np.array([rng.randrange(A.p) for _ in range(H.dim)])
                lhs = dual_pairing_element(H, D.x_action.apply(lam), h)
                rhs = ctx.module.x_action.apply(dual_pairing_element(H, lam, H.x_action.apply(h)))
                assert np.array_equal(lhs, rhs)


def test_left_action_characterization():
    """(x h)(m) r x == h(m r x) for right modules and their dual vectors."""
    rng = random.Random(5)
    for A in (F2T2, F4):
        ctx = build_duality_context(A)
        eye = np.eye(A.dim, dtype=np.int64)
        for _ in range(5):
            M = random_module(A, "right", 3, rng)
            D = dual_right(M, ctx)
            for _ in range(5):
                lam = np.array([rng.randrange(A.p) for _ in range(M.dim)])
                m = np.array([rng.randrange(A.p) for _ in range(M.dim)])
                for i in range(A.dim):
                    r = eye[i]
                    # ((x lam)(m)) r x, computed inside the dualizing module
                    w = dual_pairing_element(M, D.x_action.apply(lam), m)
                    lhs = ctx.module.x_action.apply(A.mult_matrix(r).T.apply(w))
                    # lam(m r x)
                    rhs = dual_pairing_element(M, lam, M.x_action.apply(M.rho(r).apply(m)))
                    assert np.array_equal(lhs, rhs)


def test_literal_formulas_match_fast_path():
    rng = random.Random(7)
    count = 0
    for name, A in list(standard_algebras().items())[:6]:
        ctx = build_duality_context(A)
        for _ in range(4):
            for side in ("left", "right"):
                M = random_module(A, side, 3, rng)
                D = dual_module(M, ctx)
                for _ in range(5):
                    lam = np.array([rng.randrange(A.p) for _ in range(M.dim)])
                    v = np.array([rng.randrange(A.p) for _ in range(M.dim)])
                    r = np.array([rng.randrange(A.p) for _ in range(A.dim)])
                    if side == "left":
                        got = eval_dual_formula_left(ctx, M, lam, r, v)
                        want = dual_pairing_element(M, D.x_action.apply(D.rho(r).apply(lam)), v)
                    else:
                        got = eval_dual_formula_right(ctx, M, r, lam, v)
                        want = A.mult_matrix(r).T.apply(
                            dual_pairing_element(M, D.x_action.apply(lam), v)
                        )
                    assert np.array_equal(got, want)
                    count += 1
    assert count >= 200


def test_formula_trivial_cases():
    ctx = build_duality_context(F2)
    H = natural_frobenius_module(F2)
    # everything is 1x1 and untwisted: the formula returns m(h) * r
    out = eval_dual_formula_left(ctx, H, [1], [1], [1])
    assert out.tolist() == [1]
    assert eval_dual_formula_left(ctx, H, [0], [1], [1]).tolist() == [0]
    M = ctx.module
    assert eval_dual_formula_right(ctx, M, [1], [0], [1]).tolist() == [0]


def test_double_dual_map():
    ctx = build_duality_context(F2T2)
    assert double_dual_map(LeftFModule.zero(F2T2), ctx).rows == 0
    one_dim = LeftFModule(
        F2T2, [FpMatrix(2, [[1]]), FpMatrix(2, [[0]])], FpMatrix(2, [[1]])
    )
    assert double_dual_map(one_dim, ctx) == FpMatrix.identity(2, 1)
    H = natural_frobenius_module(F2T2)
    omega = double_dual_map(H, ctx)
    assert omega.is_invertible()
    double = dual_right(dual_left(H, ctx), ctx)
    assert omega @ H.x_action == double.x_action @ omega


def test_reflexivity_round_trip():
    ctx = build_duality_context(F2T2)
    H = natural_frobenius_module(F2T2)
    omega = double_dual_map(H, ctx)
    omega_of_dual = double_dual_map(dual_left(H, ctx), ctx)
    assert dual_map(omega) @ omega_of_dual == FpMatrix.identity(2, H.dim)


def test_failed_round_trip_is_reported_not_raised(monkeypatch):
    # with a right dual that drops X, dualizing a left module twice loses its
    # x-action, and so does the round trip through its dual
    import froblab.duality as duality

    real = duality.dual_right

    def dropping_x(M, ctx):
        D = real(M, ctx)
        zero = FpMatrix.zeros(D.algebra.p, D.dim, D.dim)
        stack = operator_stack(D.algebra.p, D.dim, [*D.action, zero])
        return LeftFModule._from_structure(D.algebra, stack)

    monkeypatch.setattr(duality, "dual_right", dropping_x)
    ctx = build_duality_context(F2T2)
    H = natural_frobenius_module(F2T2)
    report = check_duality_identities(ctx, [("natural", H)], random.Random(0))
    failed = {r.check: r.details for r in report.failures()}
    assert set(failed) == {"double_dual", "reflexivity_round_trip"}
    for details in failed.values():
        assert details.startswith("double dual does not reproduce the module; side=left")


def test_functoriality():
    rng = random.Random(9)
    for A in (F2T2, F4):
        ctx = build_duality_context(A)
        for _ in range(6):
            H1 = random_module(A, "left", 3, rng)
            H2 = random_module(A, "left", 3, rng)
            H3 = random_module(A, "left", 3, rng)
            phi = random_hom(H1, H2, rng)
            psi = random_hom(H2, H3, rng)
            d1, d2, d3 = (dual_left(h, ctx) for h in (H1, H2, H3))
            # the dual of a map intertwines the dual structures (direction flips)
            dphi = dual_map(phi)
            assert dphi @ d2.x_action == d1.x_action @ dphi
            for a2, a1 in zip(d2.action, d1.action):
                assert dphi @ a2 == a1 @ dphi
            # contravariance
            assert dual_map(psi @ phi) == dual_map(phi) @ dual_map(psi)


def test_grann_preserved_under_duality():
    rng = random.Random(10)
    for A in (F2T2, F2, F4, product_algebra(F2, F2)):
        ctx = build_duality_context(A)
        for side in ("left", "right"):
            for _ in range(5):
                M = random_module(A, side, 3, rng)
                D = dual_module(M, ctx)
                assert M.graded_annihilator() == D.graded_annihilator()


def test_kernel_identity_example():
    """For the natural module and the degree>=1 ideal, the kernel of the
    dualized inclusion is the span of the functional dual to 1."""
    ctx = build_duality_context(F2T2)
    H = natural_frobenius_module(F2T2)
    B = x_power_graded_ideal(F2T2, 1)
    ann = H.annihilator_submodule(B)
    _, incl = ann.as_module()
    kernel = incl.T.kernel()
    assert kernel == Subspace.from_vectors(2, 2, [[1, 0]])
    product = dual_left(H, ctx).times_graded_ideal(B)
    assert product.space == kernel


def test_divisible_iff_dual_torsion_free_small():
    ctx = build_duality_context(F2T2)
    residue = RightFModule(
        F2T2, [FpMatrix(2, [[1]]), FpMatrix(2, [[0]])], FpMatrix(2, [[1]])
    )
    assert residue.is_x_divisible()
    assert dual_right(residue, ctx).is_x_torsion_free()


def test_identity_suite_on_vacuous_sample():
    ctx = build_duality_context(F2T2)
    report = check_duality_identities(
        ctx,
        [("zero_left", LeftFModule.zero(F2T2)), ("zero_right", RightFModule.zero(F2T2))],
        random.Random(0),
    )
    assert report.ok, report.render_text()


def test_identity_suite_random_sample():
    rng = random.Random(12)
    for A in (F2T2, F4, product_algebra(F2, F2)):
        ctx = build_duality_context(A)
        mods = [(f"m{i}", random_module(A, side, 3, rng)) for i in range(3) for side in ("left", "right")]
        report = check_duality_identities(ctx, mods, rng)
        assert report.ok, report.render_text()


def test_standard_graded_ideals_are_built_once_per_context(monkeypatch):
    # they depend only on the algebra, so every module checked against one
    # context shares them
    import froblab.duality as duality

    real = duality.zero_graded_ideal
    calls: list[int] = []

    def counting(A):
        calls.append(1)
        return real(A)

    monkeypatch.setattr(duality, "zero_graded_ideal", counting)
    ctx = build_duality_context(F2T2)
    rng = random.Random(3)
    mods = [(f"m{i}", random_module(F2T2, side, 3, rng)) for i in range(2) for side in ("left", "right")]
    report = check_duality_identities(ctx, mods, rng)
    assert report.ok, report.render_text()
    assert len(calls) == 1
    assert [name for name, _ in ctx.standard_graded_ideals] == ["zero", "deg>=1", "deg>=2", "unit"]
    assert ctx.standard_graded_ideals[2][1] == x_power_graded_ideal(F2T2, 2)
