"""Matlis-style duality between left and right modules over the skew ring.

The dualizing object E is the full linear dual of the algebra, with the ring
acting by (phi . s)(a) = phi(s a).  E carries a right module structure over
the skew ring through a fixed isomorphism Psi from the Frobenius-twisted E
onto the space of maps psi: R -> E that are right-linear over p-th powers
(psi(a^p r) = psi(r) . a).  The canonical choice sends z to the map
r -> (z . r) composed with the p-th power map, i.e. x acts on E by
precomposition with Frobenius.

Through the identification of Hom(G, E) with the plain linear dual of G
(evaluate at 1), both duality functors become transposes of the module data,
twisted by two small tensors computed once from Psi.  The literal formulas
for the dual actions are kept as independent evaluators so the fast path can
be cross-checked against them.
"""
from __future__ import annotations

import numpy as np

from .algebra import FiniteAlgebra
from .errors import AxiomError
from .fmodule import LeftFModule, RightFModule, _FModule, graded_annihilator_set
from .linalg import FpMatrix, Subspace, as_vector, combine, common_kernel, mulmod, operator_kernel
from .report import Report
from .skew import GradedTwoSidedIdeal, unit_graded_ideal, x_power_graded_ideal, zero_graded_ideal


class DualityContext:
    """The dualizing module E together with a fixed bimodule isomorphism.

    Fields:
      dual_action    action of the algebra on E (transposed regular matrices)
      x_on_dual      the x-action on E determined by psi, via  z x = psi(z)(1)
      hom_basis      canonical basis of the maps R -> E right-linear over p-th powers
      psi, psi_inv   the isomorphism in hom_basis coordinates, and its inverse
      twist          element t with the left-dual x-action equal to (rho(t) X)^T
      phi            d x d tensor giving the right-dual x-action
    """

    def __init__(
        self,
        algebra: FiniteAlgebra,
        dual_action: list[FpMatrix],
        x_on_dual: FpMatrix,
        hom_basis: list[FpMatrix],
        psi: FpMatrix,
        psi_inv: FpMatrix,
        twist: np.ndarray,
        phi: np.ndarray,
    ):
        self.algebra = algebra
        self.dual_action = dual_action
        self.x_on_dual = x_on_dual
        self.hom_basis = hom_basis
        self.psi = psi
        self.psi_inv = psi_inv
        self.twist = twist
        self.phi = phi
        self._hom_span = Subspace.from_vectors(
            algebra.p, algebra.dim**2, [b.data.ravel() for b in hom_basis]
        )

    def as_right_module(self) -> RightFModule:
        return RightFModule(self.algebra, self.dual_action, self.x_on_dual)

    def hom_matrix(self, coords) -> FpMatrix:
        """The map R -> E with the given hom_basis coordinates."""
        p, d = self.algebra.p, self.algebra.dim
        return combine(p, (d, d), as_vector(coords, p), self.hom_basis)

    def hom_coordinates(self, matrix: FpMatrix) -> np.ndarray | None:
        return self._hom_span.coordinates(matrix.data.ravel())

    def psi_apply(self, z) -> FpMatrix:
        """Psi(z) as a map R -> E."""
        return self.hom_matrix(self.psi.apply(z))

    def __repr__(self) -> str:
        return f"DualityContext({self.algebra!r})"


def _hom_basis_of(algebra: FiniteAlgebra) -> list[FpMatrix]:
    """Basis of the maps m: R -> E with m(a^p r) = a . m(r) for all a, r."""
    regs = algebra.basis_matrices()
    F = algebra.frobenius().matrix
    eye = np.eye(algebra.dim, dtype=np.int64)
    pairs = [(algebra.mult_matrix(F.apply(eye[i])), regs[i].T) for i in range(algebra.dim)]
    return operator_kernel(algebra.p, (algebra.dim, algebra.dim), pairs)


def _canonical_psi_maps(algebra: FiniteAlgebra) -> np.ndarray:
    """Row k: the map r -> (z_k . r) after Frobenius for the k-th dual basis
    vector z_k, as a row-major d x d matrix."""
    d = algebra.dim
    F = algebra.frobenius().matrix
    # entry [j, i, k] is entry (i, j) of the k-th map
    maps = np.stack([(F.T @ reg.T).data for reg in algebra.basis_matrices()])
    return maps.transpose(2, 1, 0).reshape(d, d * d)


def build_duality_context(A: FiniteAlgebra, psi: FpMatrix | None = None) -> DualityContext:
    """Construct the context and verify every invariant, failing loudly.

    With psi=None the canonical isomorphism is used.  A user-supplied psi is
    a d x d matrix from E-coordinates to hom-basis coordinates; it is
    validated against the bimodule conditions before anything else trusts it.
    """
    p, d = A.p, A.dim
    regs = A.basis_matrices()
    F = A.frobenius().matrix
    eye = np.eye(d, dtype=np.int64)
    dual_action = [m.T for m in regs]

    hom_basis = _hom_basis_of(A)
    if len(hom_basis) != d:
        raise AxiomError(
            f"space of twisted-right-linear maps has dimension {len(hom_basis)}, expected {d}"
        )
    hom_span = Subspace.from_vectors(p, d * d, [b.data.ravel() for b in hom_basis])

    canonical = psi is None
    if canonical:
        coords = hom_span.coordinates(_canonical_psi_maps(A))
        if coords is None:
            raise AxiomError("canonical map lands outside the twisted hom space")
        psi = FpMatrix(p, coords.T)
    else:
        if psi.p != p or psi.rows != d or psi.cols != d:
            raise ValueError("psi must be a d x d matrix over F_p")
    try:
        psi_inv = psi.inverse()
    except ValueError:
        raise AxiomError("psi is not invertible") from None

    # bimodule conditions: psi must intertwine both actions on E and on
    # the hom space.  The hom-space actions are (a . m) = rho_E(a) m and
    # (m . a) = m . (mult by a on the source).
    hom_stack = np.stack([b.data for b in hom_basis])

    def in_hom_coords(moved: np.ndarray) -> FpMatrix:
        """The map sending hom_basis[h] to moved[h], in hom_basis coordinates."""
        coords = hom_span.coordinates(moved.reshape(d, d * d))
        if coords is None:
            raise AxiomError("hom space is not stable under the bimodule actions")
        return FpMatrix(p, coords.T)

    for i in range(d):
        reg_frob_i = A.mult_matrix(F.apply(eye[i]))
        left_on_hom = in_hom_coords(mulmod(regs[i].data.T, hom_stack, p))
        right_on_hom = in_hom_coords(mulmod(hom_stack, regs[i].data, p))
        if psi @ reg_frob_i.T != left_on_hom @ psi:
            raise AxiomError(f"psi does not intertwine the left action at {A.labels[i]}")
        if psi @ regs[i].T != right_on_hom @ psi:
            raise AxiomError(f"psi does not intertwine the right action at {A.labels[i]}")

    # x-action on E determined by psi through  z x = psi(z)(1)
    x_cols = [combine(p, (d, d), psi.data[:, k], hom_basis).apply(A.one) for k in range(d)]
    x_on_dual = FpMatrix(p, np.array(x_cols, dtype=np.int64).T)
    if canonical and x_on_dual != F.T:
        raise AxiomError("canonical x-action on the dual is not Frobenius precomposition")

    # (E, x_on_dual) must be a valid right module; this is the semilinearity
    # invariant for the dual structure
    RightFModule(A, dual_action, x_on_dual)

    # nondegeneracy: z r x^n = 0 for all r forces z = 0 (n = 1, 2)
    for n in (1, 2):
        if not common_kernel(p, d, [x_on_dual**n @ a for a in dual_action]).is_zero():
            raise AxiomError(f"dual pairing is degenerate at degree {n}")

    # E cogenerates: maps out of nonzero cyclic modules into E exist.  For a
    # proper ideal the annihilator of the ideal inside E is its linear
    # annihilator, of dimension d - dim(ideal) > 0.
    sample_ideals = [A.zero_ideal(), A.nilradical()] + [A.ideal([eye[i]]) for i in range(d)]
    for a in sample_ideals:
        if common_kernel(p, d, [A.mult_matrix(g).T for g in a.space.basis]).dim != d - a.space.dim:
            raise AxiomError("dual module does not cogenerate cyclic modules")

    # twist element for the left-dual fast path
    twist = (x_on_dual.data.T @ A.one) % p

    # tensor for the right-dual fast path: any solution of
    # sum phi[k,j] B[k,j] = (psi_inv column . 1) over the hom basis
    b_mat = FpMatrix(p, np.array([b.data.ravel() for b in hom_basis], dtype=np.int64))
    rhs = np.array(
        [int(np.dot(psi_inv.data[:, alpha], A.one) % p) for alpha in range(d)],
        dtype=np.int64,
    )
    phi_vec = b_mat.solve(rhs)
    if phi_vec is None:
        raise AxiomError("evaluation tensor has no solution; hom basis is degenerate")
    phi = phi_vec.reshape(d, d)

    ctx = DualityContext(A, dual_action, x_on_dual, hom_basis, psi, psi_inv, twist, phi)
    # consistency of the two evaluation routes:  z x == psi(z)(1)
    for k in range(d):
        if not np.array_equal(x_on_dual.apply(eye[k]), ctx.psi_apply(eye[k]).apply(A.one)):
            raise AxiomError("x-action and psi evaluation disagree")
    return ctx


# -- the two functors ----------------------------------------------------------


def dual_left(H: LeftFModule, ctx: DualityContext) -> RightFModule:
    """Right module structure on the linear dual of a left module."""
    if H.algebra != ctx.algebra:
        raise ValueError("module and context live over different algebras")
    x_new = (H.rho(ctx.twist) @ H.x_action).T
    return RightFModule(H.algebra, [a.T for a in H.action], x_new)


def dual_right(M: RightFModule, ctx: DualityContext) -> LeftFModule:
    """Left module structure on the linear dual of a right module."""
    if M.algebra != ctx.algebra:
        raise ValueError("module and context live over different algebras")
    p, d = ctx.algebra.p, ctx.algebra.dim
    total = FpMatrix.zeros(p, M.dim, M.dim)
    for j in range(d):
        col = ctx.phi[:, j]
        if col.any():
            total = total + M.rho(col) @ M.x_action @ M.action[j]
    return LeftFModule(M.algebra, [a.T for a in M.action], total.T)


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
    z = np.array([int(lam @ a.apply(w) % A.p) for a in H.action], dtype=np.int64)
    return ctx.psi_apply(z).apply(r)


def eval_dual_formula_right(ctx: DualityContext, M: RightFModule, r, h_dual, m) -> np.ndarray:
    """Literal dual-action formula: psi^{-1} of r' -> h(m r' x), then acted on by r."""
    A = ctx.algebra
    lam = as_vector(h_dual, A.p)
    r = as_vector(r, A.p)
    m = as_vector(m, A.p)
    inner = np.zeros((A.dim, A.dim), dtype=np.int64)
    for j, aj in enumerate(M.action):
        w = M.apply_x(aj.apply(m))
        for k, ak in enumerate(M.action):
            inner[k, j] = int(lam @ ak.apply(w) % A.p)
    coords = ctx.hom_coordinates(FpMatrix(A.p, inner))
    if coords is None:
        raise AxiomError("inner map is not right-linear over p-th powers; this is a bug")
    z = ctx.psi_inv.apply(coords)
    return A.mult_matrix(r).T.apply(z)


def dual_pairing_element(module: _FModule, lam, v) -> np.ndarray:
    """E-coordinates of the map r -> lam(rho(r) v); the dual vector as a map into E."""
    A = module.algebra
    lam = as_vector(lam, A.p)
    v = as_vector(v, A.p)
    return np.array([int(lam @ a.apply(v) % A.p) for a in module.action], dtype=np.int64)


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
    duals, error = [module, dual], ""
    try:
        duals.append(dual_module(dual, ctx))
        duals.append(dual_module(duals[2], ctx))
    except AxiomError as exc:
        error = str(exc)

    def round_trip(k: int) -> tuple[bool, str]:
        if len(duals) <= k + 2:
            return False, f"{error}; {_dump_module(module)}"
        if duals[k + 2] != duals[k]:
            return False, f"double dual does not reproduce the module; {_dump_module(module)}"
        return True, ""

    ok, details = round_trip(0)
    report.add(
        "double_dual",
        "dualizing twice returns the module, with the evaluation map as the isomorphism"
        if ok
        else "dualizing twice returns the module",
        name,
        ok,
        details,
    )
    report.add(
        "reflexivity_round_trip",
        "the dual of the evaluation map undoes the evaluation map of the dual",
        name,
        *round_trip(1),
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
    ideals = [
        ("zero", zero_graded_ideal(A)),
        ("deg>=1", x_power_graded_ideal(A, 1)),
        ("deg>=2", x_power_graded_ideal(A, 2)),
        ("unit", unit_graded_ideal(A)),
        ("grann", g_mod),
    ]
    for bname, B in ideals:
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
    _, incl = ann.as_module()
    kernel_of_dual_incl = incl.T.kernel()
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
    _, incl = product.as_module()
    kernel_of_dual_incl = incl.T.kernel()
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
