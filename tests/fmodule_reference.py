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
"""
import numpy as np

from froblab.algebra import Ideal
from froblab.duality import DualityContext
from froblab.errors import AxiomError
from froblab.fmodule import FSubmodule, RightFModule, _FModule
from froblab.linalg import (
    FpMatrix,
    Subspace,
    as_vector,
    close_under,
    combine,
    common_kernel,
    mulmod,
    quotient_maps,
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
    return close_under(space, M.action + [M.x_action])


def quotient(M: _FModule, sub: FSubmodule) -> tuple[_FModule, FpMatrix]:
    """The quotient action proj @ a @ lift, one matrix at a time."""
    proj, lift = quotient_maps(sub.space)
    action = [proj @ a @ lift for a in M.action]
    return type(M)(M.algebra, action, proj @ M.x_action @ lift, check=False), proj


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
    z = dual_pairing_element(H, m_dual, H.apply_x(h))
    return ctx.psi_matrix(z).apply(as_vector(r, ctx.algebra.p))


def eval_dual_formula_right(ctx: DualityContext, M: RightFModule, r, h_dual, m) -> np.ndarray:
    """psi^-1 of g = (r' -> h(m r' x)), acted on by r, with the d^2 entries
    g(e_j)(e_k) = lam(rho(e_k) X rho(e_j) m) applied one at a time."""
    A = ctx.algebra
    lam = as_vector(h_dual, A.p)
    m = as_vector(m, A.p)
    inner = np.zeros((A.dim, A.dim), dtype=np.int64)
    for j, aj in enumerate(M.action):
        w = M.apply_x(aj.apply(m))
        for k, ak in enumerate(M.action):
            inner[k, j] = int(lam @ ak.apply(w) % A.p)
    g = FpMatrix(A.p, inner)
    z = g.T.apply(A.one)
    if ctx.psi_matrix(z) != g:
        raise AxiomError("inner map is not right-linear over p-th powers")
    return A.mult_matrix(as_vector(r, A.p)).T.apply(z)
