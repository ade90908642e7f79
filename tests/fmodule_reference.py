"""The per-matrix routes the module layer's batched ones replaced: the references.

froblab keeps the powers X^n of a module once and reads every exponent off one
Fitting index.  Here each chain is built the old way instead: one product per
step from the identity, and a canonical subspace of each power, until that
subspace repeats.  Skew polynomials act on single vectors through
repeated-squaring powers, as the elementwise oracles need.

froblab also reads the action off one stacked (d+1) x n x n array, so that a
loop over the action matrices is one broadcast product.  The routes below
take one matrix, one element or one entry at a time instead: rho through
combine, the condition list of annihilator_submodule, the products
X^n rho(b), the quotient action proj @ a @ lift, the images of each operator,
the Frobenius-twisted action and the literal dual-action formulas entry by
entry.

froblab bounds two law checks by the Fitting index, and spins up the stable
tail of annihilator_submodule.  The routes below bound them by the size
instead: the condition list runs to n = N + dim, and check_square_multiplier
and check_localization run k = 1, ..., dim + 1, one product, rho and
containment test per pair of basis elements and per k.

froblab keeps im X^k and ker X^k per module, reads the Fitting index off the
kept images, and evaluates the literal dual-action formulas on all samples
at once.  The routes below do each the old way: one rank elimination per
step of the Fitting loop, and one (lam, v, r) sample at a time through the
entry-by-entry evaluators.

froblab keeps two chains of X, im X^k and the row space of X^k, each step one
elimination of the last basis times X^T or X, and reads the Fitting index,
the graded annihilator and the annihilator chain of a right module off the
chain of the module's side.  The routes below read them off the powers X^k
instead: the images of the powers, the relations among the d words
rho(e_i) X^m or X^m rho(e_i), each dim x dim, and the common kernels of the
words X^k rho(e_i).

froblab finds the cyclic submodules of all lines with one rref_stack, and
their sums level by level, each level one stacked elimination.  The route
below eliminates one line at a time, and from each submodule found tests
every cyclic generator with one residue product, adding those outside it
one Subspace sum at a time; every space found goes through the checked
FSubmodule constructor.
"""
import itertools

import numpy as np

from froblab.algebra import Ideal
from froblab.duality import DUAL_FORMULA_SAMPLES, DualityContext
from froblab.errors import AxiomError, BudgetError
from froblab.fmodule import FSubmodule, RightFModule, _FModule, semilinear_defects
from froblab.linalg import (
    FpMatrix,
    Subspace,
    as_vector,
    close_under,
    combine,
    common_kernel,
    mulmod,
    operator_stack,
    quotient_maps,
    relations,
    stabilize,
)
from froblab.skew import GradedTwoSidedIdeal, SkewPolynomial


def apply_x_power(M: _FModule, v, k: int) -> np.ndarray:
    return (M.x_action**k).apply(v)


def act(M: _FModule, poly: SkewPolynomial, v) -> np.ndarray:
    """Apply a skew polynomial: rho-then-x on the left, x-then-rho on the right."""
    p = M.algebra.p
    v = as_vector(v, p)
    out = np.zeros(M.dim, dtype=np.int64)
    for n, c in enumerate(poly.coeffs):
        if not c.any():
            continue
        if M.side == "left":
            out = (out + M.rho(c).apply(apply_x_power(M, v, n))) % p
        else:
            out = (out + apply_x_power(M, M.rho(c).apply(v), n)) % p
    return out


def x_chain(M: _FModule, of) -> tuple[list[tuple[FpMatrix, object]], int]:
    """Pairs (X^n, of(X^n)) for n = 0, 1, ... until of(X^n) repeats, and the
    index of the stable entry."""
    X = M.x_action

    def step(state):
        power = X @ state[0]
        return power, of(power)

    identity = FpMatrix.identity(M.algebra.p, M.dim)
    states, stable, _ = stabilize((identity, of(identity)), step, lambda s: s[1])
    return states, stable


def torsion_exponent(M: _FModule) -> int:
    return x_chain(M, FpMatrix.kernel)[1]


def divisibility_exponent(M: _FModule) -> int:
    return x_chain(M, FpMatrix.image)[1]


def x_torsion(M: _FModule) -> FSubmodule:
    states, e = x_chain(M, FpMatrix.kernel)
    return FSubmodule(M, states[e][1])


def stable_image(M: _FModule) -> tuple[FSubmodule, int]:
    states, e = x_chain(M, FpMatrix.image)
    return FSubmodule(M, states[e][1]), e


def fitting_index_by_ranks(M: _FModule) -> int:
    """The least e with rank X^e == rank X^(e+1), one rank elimination per step."""
    e, rank = 0, M.dim
    while (following := M.x_power(e + 1).rank()) != rank:
        e, rank = e + 1, following
    return e


def fitting_index_by_power_images(M: _FModule) -> int:
    """The least e with dim im X^e == dim im X^(e+1), one image of a power per step."""
    e, rank = 0, M.dim
    while (following := M.x_power(e + 1).image().dim) != rank:
        e, rank = e + 1, following
    return e


def power_words(M: _FModule, k: int) -> np.ndarray:
    """rho(e_i) X^k (left) or X^k rho(e_i) (right) for every i, as a d x dim x dim array."""
    acts, power, p = M.structure[:-1], M.x_power(k).data, M.algebra.p
    return mulmod(acts, power, p) if M.side == "left" else mulmod(power, acts, p)


def graded_annihilator_by_power_words(M: _FModule) -> GradedTwoSidedIdeal:
    """b_m, m up to the power-image Fitting index, as the relations among the
    d words of X^m, each flattened to dim^2 entries."""
    A, n = M.algebra, M.dim
    chain = []
    for m in range(fitting_index_by_power_images(M) + 1):
        rows = power_words(M, m).reshape(A.dim, n * n)
        chain.append(Ideal.of_space(A, relations(A.p, rows)))
    return GradedTwoSidedIdeal(A, chain)


def annihilator_chain_by_power_words(M: RightFModule) -> tuple[list[Subspace], int]:
    """The chain (0 : R x^k) as the common kernels of the words X^k rho(e_i),
    up to its first repeat."""
    chain = []
    for k in itertools.count():
        space = common_kernel(M.algebra.p, M.dim, [power_words(M, k)])
        if chain and space == chain[-1]:
            return chain, k - 1
        chain.append(space)


def graded_annihilator(M: _FModule) -> GradedTwoSidedIdeal:
    """b_n = {r : rho(r) X^n == 0} (left) or {r : X^n rho(r) == 0} (right),
    along the image chain on the left and the kernel chain on the right."""
    left = M.side == "left"
    chain = []
    for power, _ in x_chain(M, FpMatrix.image if left else FpMatrix.kernel)[0]:
        products = [a @ power if left else power @ a for a in M.action]
        cols = np.stack([prod.data.ravel() for prod in products], axis=1)
        space = FpMatrix(M.algebra.p, cols).kernel()
        chain.append(Ideal(M.algebra, list(space.basis), space=space))
    return GradedTwoSidedIdeal(M.algebra, chain)


def annihilator_chain(M: _FModule):
    """The chain (0 : R x^k) of a right module, up to its first repeat."""
    states, k = x_chain(
        M, lambda power: common_kernel(M.algebra.p, M.dim, [power @ a for a in M.action])
    )
    return [space for _, space in states], k


# -- the per-matrix routes of the batched module layer --------------------------


def rho(M: _FModule, r) -> FpMatrix:
    """rho(r) = sum r_i rho(e_i), one matrix at a time."""
    p = M.algebra.p
    return combine(p, (M.dim, M.dim), as_vector(r, p), M.action)


def annihilator_submodule(M: _FModule, ideal: GradedTwoSidedIdeal) -> Subspace:
    """The common kernel of the list of conditions rho(b) X^n, n <= N + dim,
    b in a basis of b_min(n, N), one FpMatrix per condition."""
    rhos = [[rho(M, b) for b in piece.space.basis] for piece in ideal.chain]
    N = ideal.stable_from
    conditions = [
        r @ M.x_power(n) for n in range(N + M.dim + 1) for r in rhos[min(n, N)]
    ]
    return common_kernel(M.algebra.p, M.dim, conditions)


def times_graded_ideal(M: _FModule, ideal: GradedTwoSidedIdeal) -> Subspace:
    """The closure of the columns of X^n rho(b), one product per b."""
    p, n = M.algebra.p, M.dim
    pieces = [np.zeros((0, n), dtype=np.int64)]
    for m in range(ideal.stable_from + 1):
        xp = M.x_power(m)
        for b in ideal.component(m).space.basis:
            pieces.append((xp @ rho(M, b)).data.T)
    space = Subspace.from_vectors(p, n, np.vstack(pieces))
    return close_under(space, [*M.action, M.x_action])


def quotient(M: _FModule, sub: FSubmodule) -> tuple[_FModule, FpMatrix]:
    """The quotient action proj @ a @ lift, one matrix at a time."""
    proj, lift = quotient_maps(sub.space)
    action = [proj @ a @ lift for a in M.action]
    stack = operator_stack(M.algebra.p, proj.rows, [*action, proj @ M.x_action @ lift])
    return type(M)._from_structure(M.algebra, stack), proj


def image_rows(space: Subspace, operators) -> np.ndarray:
    """The rows op @ b, one product per operator, operator by operator."""
    images = [mulmod(space.basis, op.data.T, space.p) for op in operators]
    return np.vstack([np.zeros((0, space.ambient_dim), dtype=np.int64), *images])


def semilinear_pairs(algebra, action: list[FpMatrix], side: str) -> list[tuple[FpMatrix, FpMatrix]]:
    """The pairs (A_i, B_i) with rho(e_i^p) = sum_j F[j, i] rho(e_j) by combine."""
    n = action[0].rows
    F = algebra.frobenius().matrix
    frob = [combine(algebra.p, (n, n), F.data[:, i], action) for i in range(algebra.dim)]
    if side == "left":
        return list(zip(action, frob))
    return list(zip(frob, action))


def dual_pairing_element(M: _FModule, lam, v) -> np.ndarray:
    """lam(rho(e_k) v) for each k, one application at a time."""
    p = M.algebra.p
    lam = as_vector(lam, p)
    return np.array([int(lam @ a.apply(v) % p) for a in M.action], dtype=np.int64)


def eval_dual_formula_left(ctx: DualityContext, H: _FModule, m_dual, r, h) -> np.ndarray:
    """psi(m(x h)) at r, with m(x h) evaluated one basis element at a time."""
    z = dual_pairing_element(H, m_dual, H.x_action.apply(h))
    return ctx.psi_matrix(z).apply(as_vector(r, ctx.algebra.p))


def eval_dual_formula_right(ctx: DualityContext, M: RightFModule, r, h_dual, m) -> np.ndarray:
    """psi^-1 of g = (r' -> h(m r' x)), acted on by r, with the d^2 entries
    g(e_j)(e_k) = lam(rho(e_k) X rho(e_j) m) applied one at a time."""
    A = ctx.algebra
    lam = as_vector(h_dual, A.p)
    m = as_vector(m, A.p)
    inner = np.zeros((A.dim, A.dim), dtype=np.int64)
    for j, aj in enumerate(M.action):
        w = M.x_action.apply(aj.apply(m))
        for k, ak in enumerate(M.action):
            inner[k, j] = int(lam @ ak.apply(w) % A.p)
    g = FpMatrix(A.p, inner)
    z = g.T.apply(A.one)
    if ctx.psi_matrix(z) != g:
        raise AxiomError("inner map is not right-linear over p-th powers")
    return A.mult_matrix(as_vector(r, A.p)).T.apply(z)


# -- the dim + 1 loops of the law checks ------------------------------------------


def check_square_multiplier(name: str, M: RightFModule, report) -> None:
    """The squares of the s with M s <= Mx against every Mx^k, k <= dim + 1,
    one product, rho and containment test per pair and per k."""
    A = M.algebra
    if M.is_zero():
        return
    power_images = [(M.x_action**k).image() for k in range(1, M.dim + 2)]
    C = power_images[0].annihilator().basis
    S = relations(A.p, mulmod(C, M.structure[:-1], A.p).reshape(A.dim, C.shape[0] * M.dim))
    if A.p == 2:
        pairs = [(i, i) for i in range(S.dim)]
    else:
        pairs = itertools.combinations_with_replacement(range(S.dim), 2)
    ok = all(
        imk.contains(rho(M, A.mul(S.basis[i], S.basis[j])).data.T)
        for i, j in pairs
        for imk in power_images
    )
    report.add(
        "square_multiplier_descends",
        "an element moving the module into Mx has its square move it into every Mx^k",
        name,
        ok,
        f"{A.p**S.dim} applicable elements" if ok else "",
    )


def check_localization(name: str, M: RightFModule, report) -> None:
    """rho(eps) M x^k against the local x^k-image lifted into M, for every
    idempotent factor and k = 1, ..., dim + 1, then the fraction rule."""
    A = M.algebra
    decomp = A.local_components()
    for idx in range(len(decomp.components)):
        local = M.localize(idx)
        proj = rho(M, decomp.idempotents[idx])
        part = proj.image()
        ok = True
        for k in range(1, M.dim + 2):
            projected = (proj @ M.x_action**k).image()
            local_im = (local.x_action**k).image()
            lifted = Subspace.from_vectors(A.p, M.dim, mulmod(local_im.basis, part.basis, A.p))
            if projected != lifted:
                ok = False
                break
        if ok:
            ok = not semilinear_defects(local.algebra, local.structure, "right").any()
        report.add(
            "localization_commutes",
            "inverting everything outside a maximal ideal commutes with the x-action",
            f"{name}, component {idx}",
            ok,
        )


# -- the per-sample loop of the literal dual-action formulas ---------------------


def dual_formula_mismatches(ctx: DualityContext, M: _FModule, dual: _FModule, rng) -> int:
    """On how many of DUAL_FORMULA_SAMPLES (lam, v, r) triples the literal
    formula and the transpose fast path disagree: each triple drawn and
    evaluated in turn, by the entry-by-entry evaluators and one FpMatrix
    application at a time."""
    A = ctx.algebra
    mismatches = 0
    for _ in range(DUAL_FORMULA_SAMPLES):
        lam, v, r = ([rng.randrange(A.p) for _ in range(n)] for n in (M.dim, M.dim, A.dim))
        if M.side == "left":
            got = eval_dual_formula_left(ctx, M, lam, r, v)
            lam2 = rho(dual, r).apply(lam)
            want = dual_pairing_element(M, dual.x_action.apply(lam2), v)
        else:
            got = eval_dual_formula_right(ctx, M, r, lam, v)
            want = A.mult_matrix(r).T.apply(dual_pairing_element(M, dual.x_action.apply(lam), v))
        mismatches += not np.array_equal(got, want)
    return mismatches


def enumerate_submodules(M: _FModule, budget: int) -> list[FSubmodule]:
    """Every submodule: the span of the W v over M._cyclic_words() for one
    vector v per line, each by its own elimination, closed under sums
    through the residue of the cyclic generators against each submodule
    found."""
    p, n = M.algebra.p, M.dim
    if p**n > budget:
        raise BudgetError(f"submodule enumeration needs {p ** n} vectors, budget is {budget}")
    zero = M.zero_submodule()
    found = {zero.space: zero}
    words = M._cyclic_words()
    generators: dict[Subspace, np.ndarray] = {}
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            v = np.array((0,) * lead + (1,) + tail, dtype=np.int64)
            images = mulmod(words, v, p).reshape(-1, n)
            generators.setdefault(Subspace.from_vectors(p, n, images), v)
    found.update((space, FSubmodule(M, space)) for space in generators)
    spaces = list(generators)
    block = np.array(list(generators.values()), dtype=np.int64).reshape(len(spaces), n)
    queue = list(spaces)
    while queue:
        current = queue.pop()
        outside = ((block - mulmod(block[:, current.pivots], current.basis, p)) % p).any(axis=1)
        for space in itertools.compress(spaces, outside):
            bigger = current + space
            if bigger not in found:
                found[bigger] = FSubmodule(M, bigger)
                queue.append(bigger)
    return sorted(found.values(), key=lambda s: (s.space.dim, s.space.basis.tobytes()))
