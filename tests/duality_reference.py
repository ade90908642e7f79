"""The hom-space route to the duality: the reference for the transposes.

froblab fixes psi to the canonical isomorphism psi(z)(r)(a) = z(r a^p), under
which both duality functors are transposes.  This module takes any bimodule
isomorphism psi, such as the canonical one composed with multiplication by a
unit.  It solves for the maps R -> E right-linear over p-th powers (a
d^2-unknown system), writes psi in coordinates on that space, and derives
from psi the two tensors the duals need: a twist element t for the left dual
(x-action (rho(t) X)^T) and a d x d tensor phi for the right dual.
"""
from dataclasses import dataclass

import numpy as np

from froblab.algebra import FiniteAlgebra
from froblab.fmodule import LeftFModule, RightFModule
from froblab.linalg import FpMatrix, Subspace, combine, operator_kernel, operator_stack


def hom_space(A: FiniteAlgebra) -> Subspace:
    """The maps m: R -> E with m(a^p r) = m(r) . a, as flattened d x d matrices."""
    regs = A.basis_matrices()
    F = A.frobenius().matrix
    eye = np.eye(A.dim, dtype=np.int64)
    a = np.array([A.mult_matrix(F.apply(eye[i])).data for i in range(A.dim)])
    b = np.array([m.data.T for m in regs])
    basis = operator_kernel(A.p, a, b)
    return Subspace.from_vectors(A.p, A.dim * A.dim, [b.data.ravel() for b in basis])


@dataclass
class ReferenceContext:
    algebra: FiniteAlgebra
    hom_basis: list[FpMatrix]  # the echelon rows of hom_space, as d x d matrices
    psi: FpMatrix  # E-coordinates -> hom_basis coordinates
    x_on_dual: FpMatrix
    twist: np.ndarray
    phi: np.ndarray

    def psi_apply(self, z) -> FpMatrix:
        """psi(z) as a map R -> E."""
        A = self.algebra
        return combine(A.p, (A.dim, A.dim), self.psi.apply(z), self.hom_basis)

    def as_right_module(self) -> RightFModule:
        A = self.algebra
        stack = operator_stack(A.p, A.dim, [*(m.T for m in A.basis_matrices()), self.x_on_dual])
        return RightFModule._from_structure(A, stack)


def canonical_psi(A: FiniteAlgebra, hom: Subspace) -> FpMatrix:
    """Column k: the hom coordinates of r -> (z_k . r) o Frobenius, for the
    k-th dual basis vector z_k."""
    d = A.dim
    F = A.frobenius().matrix
    # entry [j, i, k] is entry (i, j) of the k-th map
    maps = np.stack([(F.T @ reg.T).data for reg in A.basis_matrices()])
    coords = hom.coordinates(maps.transpose(2, 1, 0).reshape(d, d * d))
    assert coords is not None, "canonical map lands outside the twisted hom space"
    return FpMatrix(A.p, coords.T)


def reference_context(A: FiniteAlgebra, psi: FpMatrix | None = None) -> ReferenceContext:
    """The twist and phi tensors of psi (by default the canonical one)."""
    p, d = A.p, A.dim
    hom = hom_space(A)
    hom_basis = [FpMatrix(p, row.reshape(d, d)) for row in hom.basis]
    if psi is None:
        psi = canonical_psi(A, hom)
    psi_inv = psi.inverse()
    # z x = psi(z)(1)
    x_cols = [combine(p, (d, d), psi.data[:, k], hom_basis).apply(A.one) for k in range(d)]
    x_on_dual = FpMatrix(p, np.array(x_cols, dtype=np.int64).T)
    twist = (x_on_dual.data.T @ A.one) % p
    # any solution of sum phi[k, j] B[k, j] = (psi_inv column . 1) over the hom basis
    rhs = np.array([int(np.dot(psi_inv.data[:, a], A.one) % p) for a in range(d)], dtype=np.int64)
    phi_vec = FpMatrix(p, hom.basis).solve(rhs)
    assert phi_vec is not None, "evaluation tensor has no solution"
    return ReferenceContext(A, hom_basis, psi, x_on_dual, twist, phi_vec.reshape(d, d))


def reference_dual(module, ref: ReferenceContext):
    """The dual of a module through the twist and phi tensors of ref."""
    p = ref.algebra.p
    action = [a.T for a in module.action]
    if module.side == "left":
        x_new = (module.rho(ref.twist) @ module.x_action).T
        stack = operator_stack(p, module.dim, [*action, x_new])
        return RightFModule._from_structure(module.algebra, stack)
    total = FpMatrix.zeros(p, module.dim, module.dim)
    for j in range(ref.algebra.dim):
        total = total + module.rho(ref.phi[:, j]) @ module.x_action @ module.action[j]
    stack = operator_stack(p, module.dim, [*action, total.T])
    return LeftFModule._from_structure(module.algebra, stack)
