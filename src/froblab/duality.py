"""Matlis-style duality between left and right modules over the skew ring.

The dualizing object E is the full linear dual of the algebra, with the ring
acting by (z . s)(a) = z(s a).  E carries a right module structure over the
skew ring through the fixed isomorphism psi from the Frobenius-twisted E onto
the maps g: R -> E that are right-linear over p-th powers
(g(a^p r) = g(r) . a):

    psi(z)(r)(a) = z(r a^p),

the inverse of the tensor-hom adjunction
Hom_R(F_*R, Hom(R, F_p)) = Hom(F_*R, F_p).  Under it x acts on E by
precomposition with Frobenius, and both duality functors are transposes of
the module data; the proofs are in build_duality_context and the functors.
The literal formulas for the dual actions evaluate psi by its definition and
are kept as independent evaluators, so the transposes can be cross-checked
against them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import FiniteAlgebra
from .errors import AxiomError
from .fmodule import LeftFModule, RightFModule, _FModule, graded_annihilator_set
from .linalg import FpMatrix, as_vector, mulmod
from .report import Report
from .skew import GradedTwoSidedIdeal, unit_graded_ideal, x_power_graded_ideal, zero_graded_ideal


@dataclass(eq=False)
class DualityContext:
    """The dualizing module E of an algebra.

    Fields:
      dual_action    action of the algebra on E (transposed regular matrices)
      x_on_dual      the x-action on E, z x = psi(z)(1) = z o Frobenius (F^T)
    """

    algebra: FiniteAlgebra
    dual_action: list[FpMatrix]
    x_on_dual: FpMatrix

    def as_right_module(self) -> RightFModule:
        return RightFModule(self.algebra, self.dual_action, self.x_on_dual, check=False)

    def psi_matrix(self, z) -> FpMatrix:
        """psi(z) as a map R -> E, by its definition: column i is
        a -> z(e_i a^p), i.e. F^T (table z)^T."""
        A = self.algebra
        products = mulmod(A.table, as_vector(z, A.p), A.p)  # [i, j] = z(e_i e_j)
        return A.frobenius().matrix.T @ FpMatrix._reduced(A.p, products).T

    @cached_property
    def standard_graded_ideals(self) -> tuple[tuple[str, GradedTwoSidedIdeal], ...]:
        """The algebra-only graded ideals every kernel-identity check uses."""
        A = self.algebra
        return (
            ("zero", zero_graded_ideal(A)),
            ("deg>=1", x_power_graded_ideal(A, 1)),
            ("deg>=2", x_power_graded_ideal(A, 2)),
            ("unit", unit_graded_ideal(A)),
        )

    def __repr__(self) -> str:
        return f"DualityContext({self.algebra!r})"


def build_duality_context(A: FiniteAlgebra) -> DualityContext:
    """E with the x-action of the canonical psi(z)(r)(a) = z(r a^p).

    Every invariant is an identity (R is commutative), so nothing is checked.
    Hom^tw is the space of maps g: R -> E right-linear over p-th powers.
      - psi(z) lies in Hom^tw, and psi turns z . a^p into psi(z) . a:
        psi(z)(a^p r)(b) = psi(z . a^p)(r)(b) = z(a^p r b^p) = (psi(z)(r) . a)(b).
        It turns z . a into psi(z)(a -): psi(z . a)(r)(b) = z(a r b^p).  So psi
        is a bimodule map.
      - With eps(g) = (r -> g(r)(1)), eps(psi(z))(r) = z(r): eps o psi = id,
        and psi is injective.  Every g in Hom^tw is psi(eps(g)), since
        g(r)(a) = (g(r) . a)(1) = g(a^p r)(1); so dim Hom^tw = d, as the
        adjunction says, and psi^-1(g) = g^T 1 for g stored with column i
        equal to g(e_i) (the layout of DualityContext.psi_matrix).
      - z x = psi(z)(1) = z o F is F^T, and z . s is mult(s)^T.  So E is the
        dual D(R, F) of the natural left module: transposing turns the left
        condition X rho(r) = rho(r^p) X into the right one
        rho(r)^T X^T = X^T rho(r^p)^T, and E is a valid right module.
      - Nondegeneracy: (z r x^n)(1) = z(r), so z r x^n = 0 for all r forces z = 0.
      - The functors are transposes: read a dual vector m: G -> E as
        lam = eps o m.  On a left module (m x)(v) = psi(m(x v))(1) gives
        lam(x v); on a right one (x m)(v) = eps(r -> m(v r x)) gives lam(v x).
        So x acts by X^T, and r by rho(r)^T.
      - Cogeneration: the common kernel of the mult(g)^T over a basis g of an
        ideal I is the annihilator of I A = I, of dimension d - dim I.
    """
    return DualityContext(A, [m.T for m in A.basis_matrices()], A.frobenius().matrix.T)


# -- the two functors ----------------------------------------------------------


def dual_left(H: LeftFModule, ctx: DualityContext) -> RightFModule:
    """Right module structure on the linear dual of a left module: X^T."""
    if H.algebra != ctx.algebra:
        raise ValueError("module and context live over different algebras")
    return RightFModule(H.algebra, [a.T for a in H.action], H.x_action.T, check=False)


def dual_right(M: RightFModule, ctx: DualityContext) -> LeftFModule:
    """Left module structure on the linear dual of a right module: X^T."""
    if M.algebra != ctx.algebra:
        raise ValueError("module and context live over different algebras")
    return LeftFModule(M.algebra, [a.T for a in M.action], M.x_action.T, check=False)


def dual_module(module: _FModule, ctx: DualityContext) -> _FModule:
    if module.side == "left":
        return dual_left(module, ctx)
    return dual_right(module, ctx)


def dual_map(phi: FpMatrix) -> FpMatrix:
    """The dual of a homomorphism is precomposition: the transpose matrix."""
    return phi.T


def eval_dual_formula_left(ctx: DualityContext, H: LeftFModule, m_dual, r, h) -> np.ndarray:
    """Literal dual-action formula: psi(m(x h)) evaluated at r, in E coordinates."""
    A = ctx.algebra
    lam = as_vector(m_dual, A.p)
    r = as_vector(r, A.p)
    w = H.apply_x(h)
    z = mulmod(mulmod(H.structure[:-1], w, A.p), lam, A.p)  # [k] = lam(rho(e_k) x h)
    return ctx.psi_matrix(z).apply(r)


def eval_dual_formula_right(ctx: DualityContext, M: RightFModule, r, h_dual, m) -> np.ndarray:
    """Literal dual-action formula: psi^{-1} of g = (r' -> h(m r' x)), then acted on by r.

    psi^{-1}(g) = g^T 1, exact when g is in the image of psi: psi(g^T 1) == g."""
    A = ctx.algebra
    lam = as_vector(h_dual, A.p)
    r = as_vector(r, A.p)
    m = as_vector(m, A.p)
    acts, X = M.structure[:-1], M.structure[-1]
    rows = mulmod(lam, acts, A.p)  # [k] = lam rho(e_k)
    cols = mulmod(acts, m, A.p)  # [j] = rho(e_j) m, i.e. m e_j
    # [k, j] = lam(rho(e_k) X rho(e_j) m) = h(m e_j x e_k)
    g = FpMatrix._reduced(A.p, mulmod(mulmod(rows, X, A.p), cols.T, A.p))
    z = g.T.apply(A.one)
    if ctx.psi_matrix(z) != g:
        raise AxiomError("inner map is not right-linear over p-th powers; this is a bug")
    return A.mult_matrix(r).T.apply(z)


def dual_pairing_element(module: _FModule, lam, v) -> np.ndarray:
    """E-coordinates of the map r -> lam(rho(r) v); the dual vector as a map into E."""
    A = module.algebra
    lam = as_vector(lam, A.p)
    v = as_vector(v, A.p)
    return mulmod(mulmod(module.structure[:-1], v, A.p), lam, A.p)


def double_dual_map(module: _FModule, ctx: DualityContext) -> FpMatrix:
    """The evaluation map into the double dual, as a matrix.

    Under the linear-dual identification the evaluation map is the identity
    matrix, so being a structure-preserving isomorphism says the double dual
    equals the original module on the nose.  That equality is asserted here.
    """
    double = dual_module(dual_module(module, ctx), ctx)
    if double != module:
        raise AxiomError("double dual does not reproduce the module")
    return FpMatrix.identity(module.algebra.p, module.dim)


# -- the bundled identity checks ------------------------------------------------


def _dump_module(module: _FModule) -> str:
    """Counterexample payload: enough matrix data to rebuild the instance."""
    action = [a.data.tolist() for a in module.action]
    return f"side={module.side} action={action} X={module.x_action.data.tolist()}"


def check_duality_identities(
    ctx: DualityContext,
    modules: list[tuple[str, _FModule]],
    rng,
    eval_samples_per_module: int = 6,
) -> Report:
    """Verify the duality laws on a sample of modules over one algebra.

    Covers: the double dual being the identity; graded annihilators being
    preserved; the kernel identities for ann/product against a graded ideal;
    divisibility matching torsion-freeness of the dual; equality of the two
    stabilization exponents; the literal dual-action formulas agreeing with
    the fast path; and, on x-divisible right modules, the correspondence
    between graded annihilators of quotients and of submodules of the dual.
    """
    report = Report()
    A = ctx.algebra
    for name, module in modules:
        if module.algebra != A:
            raise ValueError(f"module {name} lives over a different algebra")
        _check_one_module(ctx, name, module, rng, report, eval_samples_per_module)
    return report


def _sample_vector(rng, p: int, n: int) -> np.ndarray:
    return np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)


def _check_one_module(
    ctx: DualityContext,
    name: str,
    module: _FModule,
    rng,
    report: Report,
    eval_samples: int,
) -> None:
    A = ctx.algebra
    dual = dual_module(module, ctx)

    # (a) evaluation maps: under the linear-dual identification both are
    # identity matrices, so they are isomorphisms exactly when dualizing twice
    # gives back the module, and the dual, on the nose
    double = dual_module(dual, ctx)
    mismatch = "double dual does not reproduce the module; "
    ok = double == module
    report.add(
        "double_dual",
        "dualizing twice returns the module, with the evaluation map as the isomorphism"
        if ok
        else "dualizing twice returns the module",
        name,
        ok,
        "" if ok else mismatch + _dump_module(module),
    )
    ok = dual_module(double, ctx) == dual
    report.add(
        "reflexivity_round_trip",
        "the dual of the evaluation map undoes the evaluation map of the dual",
        name,
        ok,
        "" if ok else mismatch + _dump_module(module),
    )

    # (b) graded annihilators are preserved
    g_mod = module.graded_annihilator()
    g_dual = dual.graded_annihilator()
    report.add(
        "graded_annihilator_dual",
        "a module and its dual have the same graded annihilator",
        name,
        g_mod == g_dual,
        f"module: {g_mod!r} dual: {g_dual!r}; {_dump_module(module)}"
        if g_mod != g_dual
        else "",
    )

    # (c) kernel identities for a family of graded ideals
    for bname, B in [*ctx.standard_graded_ideals, ("grann", g_mod)]:
        if module.side == "left":
            _check_left_kernel_identity(name, module, dual, B, bname, report)
        else:
            _check_right_kernel_identity(ctx, name, module, dual, B, bname, report)

    if module.side == "right":
        # (d) divisible iff the dual is torsion-free
        report.add(
            "divisible_iff_dual_torsion_free",
            "a right module is x-divisible exactly when its dual has no x-torsion",
            name,
            module.is_x_divisible() == dual.is_x_torsion_free(),
        )
        # (e) the stabilization exponents agree across duality
        report.add(
            "stabilization_exponent_dual",
            "the image chain of a right module stabilizes at the same index "
            "as the kernel chain of its dual",
            name,
            module.divisibility_exponent() == dual.torsion_exponent(),
        )
        # (f) finiteness correspondence, from the radical ideals of the algebra
        if module.is_x_divisible():
            try:
                quotient_chains = graded_annihilator_set(module)
                sub_chains = graded_annihilator_set(dual)
                ok = quotient_chains == sub_chains
                details = "" if ok else f"{len(quotient_chains)} vs {len(sub_chains)} chains"
            except AxiomError as exc:  # the dual has x-torsion; (d) reports it too
                ok, details = False, f"{exc}; {_dump_module(module)}"
            report.add(
                "quotient_submodule_grann_sets",
                "graded annihilators of quotients match graded annihilators of "
                "submodules of the dual",
                name,
                ok,
                details,
            )

    # literal dual-action formulas against the fast path
    mism = 0
    total = 0
    for _ in range(eval_samples):
        lam = _sample_vector(rng, A.p, module.dim)
        v = _sample_vector(rng, A.p, module.dim)
        r = _sample_vector(rng, A.p, A.dim)
        total += 1
        if module.side == "left":
            got = eval_dual_formula_left(ctx, module, lam, r, v)
            lam2 = dual.rho(r).apply(lam)
            want = dual_pairing_element(module, dual.apply_x(lam2), v)
        else:
            got = eval_dual_formula_right(ctx, module, r, lam, v)
            want = A.mult_matrix(r).T.apply(
                dual_pairing_element(module, dual.apply_x(lam), v)
            )
        if not np.array_equal(got, want):
            mism += 1
    report.add(
        "dual_formula_fast_path",
        "the literal dual-action formulas agree with the transpose fast path",
        name,
        mism == 0,
        f"{mism}/{total} mismatches" if mism else "",
    )


def _check_left_kernel_identity(
    name: str,
    module: LeftFModule,
    dual: RightFModule,
    B: GradedTwoSidedIdeal,
    bname: str,
    report: Report,
) -> None:
    ann = module.annihilator_submodule(B)
    # the inclusion is the transposed basis matrix, so its dual is the basis
    # matrix and its kernel is the annihilator of the subspace
    kernel_of_dual_incl = ann.space.annihilator()
    product = dual.times_graded_ideal(B)
    report.add(
        "ann_kernel_identity",
        "the kernel of the dualized inclusion of the annihilator equals the "
        "dual module times the graded ideal",
        f"{name}, B={bname}",
        kernel_of_dual_incl == product.space,
        f"kernel dim {kernel_of_dual_incl.dim}, product dim {product.space.dim}; "
        f"{_dump_module(module)}"
        if kernel_of_dual_incl != product.space
        else "",
    )


def _check_right_kernel_identity(
    ctx: DualityContext,
    name: str,
    module: RightFModule,
    dual: LeftFModule,
    B: GradedTwoSidedIdeal,
    bname: str,
    report: Report,
) -> None:
    product = module.times_graded_ideal(B)
    kernel_of_dual_incl = product.space.annihilator()  # of the dualized inclusion
    ann = dual.annihilator_submodule(B)
    report.add(
        "product_kernel_identity",
        "the kernel of the dualized inclusion of the product equals the "
        "annihilator of the graded ideal in the dual",
        f"{name}, B={bname}",
        kernel_of_dual_incl == ann.space,
        f"kernel dim {kernel_of_dual_incl.dim}, annihilator dim {ann.space.dim}; "
        f"{_dump_module(module)}"
        if kernel_of_dual_incl != ann.space
        else "",
    )
    # the annihilator is the dual of the quotient by the product, through the
    # dualized projection
    quotient, proj = module.quotient(product)
    dual_proj = dual_map(proj)
    image = dual_proj.image()
    dual_q = dual_right(quotient, ctx)
    intertwines = dual_proj @ dual_q.x_action == dual.x_action @ dual_proj and all(
        dual_proj @ aq == am @ dual_proj
        for aq, am in zip(dual_q.action, dual.action)
    )
    report.add(
        "quotient_dual_isomorphism",
        "the dual of the quotient by the product embeds onto the annihilator "
        "of the graded ideal in the dual",
        f"{name}, B={bname}",
        image == ann.space and intertwines,
        f"image dim {image.dim}, annihilator dim {ann.space.dim}, intertwines={intertwines}"
        if not (image == ann.space and intertwines)
        else "",
    )
