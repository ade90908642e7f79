"""Matlis-style duality between left and right modules over the skew ring.

The dualizing object E is the full linear dual of the algebra, with the ring
acting by (z . s)(a) = z(s a).  E carries a right module structure over the
skew ring through the fixed isomorphism psi from the Frobenius-twisted E onto
the maps g: R -> E that are right-linear over p-th powers
(g(a^p r) = g(r) . a):

    psi(z)(r)(a) = z(r a^p),

the inverse of the tensor-hom adjunction
Hom_R(F_*R, Hom(R, F_p)) = Hom(F_*R, F_p).  Under it x acts on E by
precomposition with Frobenius, so E is the transposed natural left module,
and both duality functors are transposes of the module data; the proofs
are in build_duality_context and the functors.
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
from .fmodule import natural_frobenius_module
from .linalg import FpMatrix, as_vector, int_array, mulmod
from .report import Report
from .skew import GradedTwoSidedIdeal, unit_graded_ideal, x_power_graded_ideal, zero_graded_ideal

DUAL_FORMULA_SAMPLES = 6  # random (lam, r, v) triples per module for the literal formulas


@dataclass(frozen=True, eq=False)
class DualityContext:
    """The dualizing module E of an algebra, as a right module: the algebra
    acts by the transposed regular matrices, and x by F^T, as
    z x = psi(z)(1) = z o Frobenius.  Its structure stack is read-only."""

    algebra: FiniteAlgebra
    module: RightFModule

    def psi_matrix(self, z) -> FpMatrix:
        """psi(z) as a map R -> E, by its definition: column i is
        a -> z(e_i a^p), i.e. F^T (table z)^T."""
        A = self.algebra
        return FpMatrix._reduced(A.p, _psi(A, as_vector(z, A.p)[None])[0])

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


def _psi(A: FiniteAlgebra, z: np.ndarray) -> np.ndarray:
    """psi(z) for every row z of a k x d stack, as one k x d x d array in the
    layout of DualityContext.psi_matrix: F^T (table z)^T, two products."""
    products = mulmod(A.table, z[:, None, :, None], A.p)[..., 0]  # [s, i, j] = z_s(e_i e_j)
    return mulmod(A.frobenius().matrix.data.T, products.transpose(0, 2, 1), A.p)


def _dual_act(A: FiniteAlgebra, r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z . r = mult(r)^T z in E, for every row of the k x d stacks r and z."""
    flat = mulmod(r, A.table.reshape(A.dim, A.dim * A.dim), A.p)
    mult = flat.reshape(r.shape[0], A.dim, A.dim)  # [s, i, j] = (r_s e_i)_j
    return mulmod(mult, z[:, :, None], A.p)[..., 0]


def _sample_rows(p: int, *samples) -> tuple[bool, list[np.ndarray]]:
    """The arguments of an evaluator as stacks with one row per sample, and
    whether they came as single vectors: all vectors, or all stacks of k rows."""
    rows = [int_array(sample, p) for sample in samples]
    single = rows[0].ndim == 1
    if single:
        rows = [row[None] for row in rows]
    if any(row.ndim != 2 for row in rows) or len({row.shape[0] for row in rows}) != 1:
        raise ValueError("expected all vectors, or all stacks with one row per sample")
    return single, rows


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
    E = RightFModule._from_structure(A, _transposed(natural_frobenius_module(A)))
    return DualityContext(A, E)


# -- the two functors ----------------------------------------------------------


def dual_left(H: LeftFModule, ctx: DualityContext) -> RightFModule:
    """Right module structure on the linear dual of a left module: X^T.
    A right module is refused: its transpose is no right module."""
    if H.side != "left":
        raise ValueError(f"expected a left module, got a {H.side} module")
    if H.algebra != ctx.algebra:
        raise ValueError("module and context live over different algebras")
    return RightFModule._from_structure(H.algebra, _transposed(H))


def dual_right(M: RightFModule, ctx: DualityContext) -> LeftFModule:
    """Left module structure on the linear dual of a right module: X^T.
    A left module is refused: its transpose is no left module."""
    if M.side != "right":
        raise ValueError(f"expected a right module, got a {M.side} module")
    if M.algebra != ctx.algebra:
        raise ValueError("module and context live over different algebras")
    return LeftFModule._from_structure(M.algebra, _transposed(M))


def _transposed(module: _FModule) -> np.ndarray:
    """Every matrix of the structure transposed, as a fresh C-contiguous stack
    (the batched methods reshape it, which would copy a strided view)."""
    return np.ascontiguousarray(module.structure.transpose(0, 2, 1))


def dual_module(module: _FModule, ctx: DualityContext) -> _FModule:
    if module.side == "left":
        return dual_left(module, ctx)
    return dual_right(module, ctx)


def dual_map(phi: FpMatrix) -> FpMatrix:
    """The dual of a homomorphism is precomposition: the transpose matrix."""
    return phi.T


def eval_dual_formula_left(ctx: DualityContext, H: LeftFModule, m_dual, r, h) -> np.ndarray:
    """Literal dual-action formula: psi(m(x h)) evaluated at r, in E coordinates.

    m_dual, r and h are vectors, or k-row stacks for k samples at once (a
    k x d result): psi is evaluated by its definition on every row."""
    A = ctx.algebra
    single, (lam, r, h) = _sample_rows(A.p, m_dual, r, h)
    # [s, k] = lam_s(rho(e_k) x h_s)
    z = dual_pairing_element(H, lam, mulmod(h, H.structure[-1].T, A.p))
    out = mulmod(_psi(A, z), r[:, :, None], A.p)[..., 0]
    return out[0] if single else out


def eval_dual_formula_right(ctx: DualityContext, M: RightFModule, r, h_dual, m) -> np.ndarray:
    """Literal dual-action formula: psi^{-1} of g = (r' -> h(m r' x)), then acted on by r.

    psi^{-1}(g) = g^T 1, exact when g is in the image of psi: psi(g^T 1) == g.
    r, h_dual and m are vectors, or k-row stacks for k samples at once (a
    k x d result); the test of psi(g^T 1) == g covers every row."""
    A = ctx.algebra
    single, (r, lam, m) = _sample_rows(A.p, r, h_dual, m)
    acts, X = M.structure[:-1], M.structure[-1]
    rows = mulmod(lam[:, None, None, :], acts, A.p)[:, :, 0]  # [s, k] = lam_s rho(e_k)
    cols = mulmod(acts, m[:, None, :, None], A.p)[..., 0]  # [s, j] = rho(e_j) m_s, i.e. m_s e_j
    # [s, k, j] = lam_s(rho(e_k) X rho(e_j) m_s) = h_s(m_s e_j x e_k)
    g = mulmod(mulmod(rows, X, A.p), cols.transpose(0, 2, 1), A.p)
    z = mulmod(A.one, g, A.p)  # g^T 1, row by row
    if not np.array_equal(_psi(A, z), g):
        raise AxiomError("inner map is not right-linear over p-th powers; this is a bug")
    out = _dual_act(A, r, z)
    return out[0] if single else out


def dual_pairing_element(module: _FModule, lam, v) -> np.ndarray:
    """E-coordinates of the map r -> lam(rho(r) v); the dual vector as a map into E.
    lam and v are vectors, or k-row stacks for k pairs at once (a k x d result)."""
    A = module.algebra
    single, (lam, v) = _sample_rows(A.p, lam, v)
    # [s, k] = rho(e_k) v_s
    images = mulmod(module.structure[None, :-1], v[:, None, :, None], A.p)[..., 0]
    out = mulmod(images, lam[:, :, None], A.p)[..., 0]
    return out[0] if single else out


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
    action, X = module.structure[:-1].tolist(), module.structure[-1].tolist()
    return f"side={module.side} action={action} X={X}"


def check_duality_identities(
    ctx: DualityContext,
    modules: list[tuple[str, _FModule]],
    rng,
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
        _check_one_module(ctx, name, module, rng, report)
    return report


def _sample_vector(rng, p: int, n: int) -> np.ndarray:
    return np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)


def _check_one_module(
    ctx: DualityContext,
    name: str,
    module: _FModule,
    rng,
    report: Report,
) -> None:
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
    ok = g_mod == g_dual
    report.add(
        "graded_annihilator_dual",
        "a module and its dual have the same graded annihilator",
        name,
        ok,
        "" if ok else f"module: {g_mod!r} dual: {g_dual!r}; {_dump_module(module)}",
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
    mism = _dual_formula_mismatches(ctx, module, dual, rng)
    report.add(
        "dual_formula_fast_path",
        "the literal dual-action formulas agree with the transpose fast path",
        name,
        mism == 0,
        f"{mism}/{DUAL_FORMULA_SAMPLES} mismatches" if mism else "",
    )


def _dual_formula_mismatches(ctx: DualityContext, module: _FModule, dual: _FModule, rng) -> int:
    """On how many of DUAL_FORMULA_SAMPLES random (lam, v, r) triples the
    literal formula and the transpose fast path disagree.  The triples are
    drawn one after another, then each side is evaluated on all of them at
    once, every vector of the fast path applied to a row as v -> v @ M^T."""
    A = ctx.algebra
    p, shapes = A.p, (module.dim, module.dim, A.dim)
    draws = [_sample_vector(rng, p, n) for _ in range(DUAL_FORMULA_SAMPLES) for n in shapes]
    lam, v, r = (
        np.array(draws[i::3], dtype=np.int64).reshape(DUAL_FORMULA_SAMPLES, n)
        for i, n in enumerate(shapes)
    )
    X = dual.structure[-1]
    if module.side == "left":
        got = eval_dual_formula_left(ctx, module, lam, r, v)
        lam2 = mulmod(dual.rhos(r), lam[:, :, None], p)[..., 0]  # rho(r)^T lam, row by row
        want = dual_pairing_element(module, mulmod(lam2, X.T, p), v)
    else:
        got = eval_dual_formula_right(ctx, module, r, lam, v)
        want = _dual_act(A, r, dual_pairing_element(module, mulmod(lam, X.T, p), v))
    return int((got != want).any(axis=1).sum())


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
    ok = kernel_of_dual_incl == product.space
    report.add(
        "ann_kernel_identity",
        "the kernel of the dualized inclusion of the annihilator equals the "
        "dual module times the graded ideal",
        f"{name}, B={bname}",
        ok,
        "" if ok else f"kernel dim {kernel_of_dual_incl.dim}, product dim "
        f"{product.space.dim}; {_dump_module(module)}",
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
    ok = kernel_of_dual_incl == ann.space
    report.add(
        "product_kernel_identity",
        "the kernel of the dualized inclusion of the product equals the "
        "annihilator of the graded ideal in the dual",
        f"{name}, B={bname}",
        ok,
        "" if ok else f"kernel dim {kernel_of_dual_incl.dim}, annihilator dim "
        f"{ann.space.dim}; {_dump_module(module)}",
    )
    # the annihilator is the dual of the quotient by the product, through the
    # dualized projection
    quotient, proj = module.quotient(product)
    dual_proj = dual_map(proj)
    image = dual_proj.image()
    dual_q = dual_right(quotient, ctx)
    p = module.algebra.p
    intertwines = np.array_equal(
        mulmod(dual_proj.data, dual_q.structure, p), mulmod(dual.structure, dual_proj.data, p)
    )
    ok = image == ann.space and intertwines
    report.add(
        "quotient_dual_isomorphism",
        "the dual of the quotient by the product embeds onto the annihilator "
        "of the graded ideal in the dual",
        f"{name}, B={bname}",
        ok,
        "" if ok else f"image dim {image.dim}, annihilator dim {ann.space.dim}, "
        f"intertwines={intertwines}",
    )
