"""The Frobenius-derived maps the cycle replaced: the references for them.

froblab builds F as e_i^p = L_i^p 1, by square and multiply on the stacked
regular action L_i = rho(e_i), and reads every power of F, the nilradical
and the Cartier structure of a reduced algebra off the Frobenius cycle.
Here each is computed the old way: F one basis element at a time, powers
by repeated squaring, the nilradical as the kernel of one large power of F,
and the Cartier structure from a Frobenius splitting solved for as a linear
system.  The Frobenius closure chain, which froblab builds from two
batched products and one elimination per power after c_0 = a, is built
here the old way: a bracket ideal per power, F^0 included, from one
`apply` per generator, then the residue-kernel preimage of its space.  The
multiplication matrix is the tensordot of the element with the table, and
the unit search of twisted_modules_isomorphic tests each candidate with a
rank elimination, as they were before mult_matrix became one product and
the units were read off nil(R).  The closure itself, which froblab
eliminates only up to the preperiod of the cycle, is here eliminated at
every distinct power, each step checked to ascend, with the closure taken
at the preperiod and the test exponent searched along the whole chain.
"""
import numpy as np

from froblab.algebra import (
    ClosureData,
    FiniteAlgebra,
    Ideal,
    extension_field,
    prime_field,
    product_algebra,
)
from froblab.errors import AxiomError
from froblab.generators import enumerate_local_algebras, standard_algebras
from froblab.linalg import FpMatrix, Subspace, image_rows, mulmod, operator_solve, preimage_rows
from linalg_reference import residue_kernel_preimage


def frobenius_pool() -> list[FiniteAlgebra]:
    """The standard algebras, the local algebras of dimension at most 3 over
    F_2 and at most 2 over F_3, and F_2 x F_8, on whose F_8 factor F has
    order 3, so that F^-1 != F."""
    return (
        list(standard_algebras().values())
        + enumerate_local_algebras(2, 3)
        + enumerate_local_algebras(3, 2)
        + [product_algebra(prime_field(2), extension_field(2, [1, 1, 0, 1]))]
    )


def frobenius_by_basis_powers(A: FiniteAlgebra) -> FpMatrix:
    """F with column i = e_i^p, one square-and-multiply per basis element."""
    eye = np.eye(A.dim, dtype=np.int64)
    return FpMatrix(A.p, np.array([A.power(eye[i], A.p) for i in range(A.dim)]).T)


def nilradical_by_squaring(A: FiniteAlgebra) -> Subspace:
    """ker F^m for the least m with p^m >= dim.  A nilpotent r has
    mult(r)^dim == 0, so r^dim = mult(r)^dim 1 = 0, and r^(p^m) = 0."""
    m = 0
    while A.p**m < A.dim:
        m += 1
    return (A.frobenius().matrix ** m).kernel()


def cartier_by_splitting_solve(A: FiniteAlgebra) -> FpMatrix | None:
    """x = F^-1 pi, for a splitting pi solved from its linear conditions:
    pi commutes with multiplication by p-th powers, and pi F == F.  None if
    the system has no solution.  Needs A reduced, so that F is invertible."""
    p, d = A.p, A.dim
    F = A.frobenius().matrix
    eye = np.eye(d, dtype=np.int64)
    frob_mults = np.array([A.mult_matrix(F.apply(eye[i])).data for i in range(d)])
    a = np.concatenate([frob_mults, F.data[None]])
    b = np.concatenate([frob_mults, np.zeros((1, d, d), dtype=np.int64)])
    rhs = [np.zeros((d, d), dtype=np.int64)] * d + [F.data]
    pi = operator_solve(p, a, b, rhs)
    return None if pi is None else F.inverse() @ pi


def closure_chain_by_bracket_ideals(ideal: Ideal) -> list[Subspace]:
    """c_n = (F^n)^-1(a^[p^n]) for each distinct power F^n: the bracket ideal
    of the images F^n(g), then the kernel of the residue of F^n against it."""
    A = ideal.algebra
    chain = []
    for G in A.frobenius().powers:
        bracket = Ideal(A, [G.apply(g) for g in ideal.generators])
        chain.append(residue_kernel_preimage(A.p, G.data, bracket.space.basis))
    return chain


def closure_data_by_every_power(ideal: Ideal) -> ClosureData:
    """frobenius_closure_data with one preimage_rows elimination for every
    distinct power F^1, ..., F^(preperiod + period - 1), the periodic tail
    included."""
    A = ideal.algebra
    frob = A.frobenius()
    powers = np.array([G.data for G in frob.powers[1:]]).reshape(-1, A.dim, A.dim)
    images = mulmod(ideal._rows, powers.transpose(0, 2, 1), A.p)
    chain = [ideal.space]
    for G, bracket in zip(powers, A._spanning_products(images)):
        chain.append(preimage_rows(A.p, G, bracket))
        if not (chain[-2] <= chain[-1]):
            raise AxiomError("frobenius closure chain is not ascending")
    closure_space = chain[frob.preperiod]
    m = next(m for m, c in enumerate(chain) if c == closure_space)
    closure = Ideal.of_space(A, closure_space)
    return ClosureData(closure, A.p**m, tuple(chain), frob.preperiod, frob.period)


def mult_matrix_by_tensordot(A: FiniteAlgebra, u) -> FpMatrix:
    """The matrix of multiplication by u: the tensordot of u with the table."""
    return FpMatrix(A.p, np.tensordot(np.asarray(u, dtype=np.int64), A.table, axes=(0, 0)).T % A.p)


def twisted_isomorphic_by_unit_ranks(A: FiniteAlgebra, c1, c2) -> tuple[bool, np.ndarray | None]:
    """twisted_modules_isomorphic with a rank elimination per candidate: the
    first e b, b in a basis of the solution space, with e b + 1 - e a unit."""
    F = A.frobenius().matrix
    solutions = (mult_matrix_by_tensordot(A, c1) - mult_matrix_by_tensordot(A, c2) @ F).kernel()
    witness = A.zero()
    for e in A.local_components().idempotents:
        parts = image_rows(solutions, mult_matrix_by_tensordot(A, e).data[None])
        unit = next(
            (v for v in parts if mult_matrix_by_tensordot(A, v + A.one - e).is_invertible()), None
        )
        if unit is None:
            return False, None
        witness = (witness + unit) % A.p
    return True, witness
