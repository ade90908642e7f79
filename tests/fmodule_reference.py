"""The chains of x the module's cached powers replaced: the references for them.

froblab keeps the powers X^n of a module once and reads every exponent off one
Fitting index.  Here each chain is built the old way instead: one product per
step from the identity, and a canonical subspace of each power, until that
subspace repeats.  Skew polynomials act on single vectors through
repeated-squaring powers, as the elementwise oracles need.
"""
import numpy as np

from froblab.algebra import Ideal
from froblab.fmodule import FSubmodule, _FModule
from froblab.linalg import FpMatrix, as_vector, common_kernel, stabilize
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
