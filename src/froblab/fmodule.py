"""Left and right modules over the Frobenius skew polynomial ring.

A module is a unital commuting action of the coefficient algebra (one matrix
per algebra basis element) plus a matrix X for the action of the twisted
variable x.  The side determines the compatibility between X and the action:

    left side:   X . rho(r) == rho(r^p) . X      (x(rh) = r^p (xh))
    right side:  X . rho(r^p) == rho(r) . X      ((m r^p)x = (mx) r)

Checking these on algebra basis elements suffices, by linearity.
"""
from __future__ import annotations

import itertools

import numpy as np

from .algebra import FiniteAlgebra, Ideal
from .errors import AxiomError, BudgetError
from .linalg import (
    FpMatrix,
    Subspace,
    as_vector,
    close_under,
    combine,
    operator_kernel,
    operator_solve,
    quotient_representatives,
    stabilize,
)
from .skew import GradedTwoSidedIdeal, SkewPolynomial

ISOMORPHISM_SEARCH_BOUND = 1 << 14

def semilinear_pairs(
    algebra: FiniteAlgebra, action: list[FpMatrix], side: str
) -> list[tuple[FpMatrix, FpMatrix]]:
    """Pairs (A_i, B_i), one per algebra basis element, such that X is a valid
    x-action for the given ring action and side exactly when X A_i == B_i X."""
    n = action[0].rows
    F = algebra.frobenius().matrix
    frob = [combine(algebra.p, (n, n), F.data[:, i], action) for i in range(algebra.dim)]
    if side == "left":
        return list(zip(action, frob))
    return list(zip(frob, action))


def _restrict(op: FpMatrix, space: Subspace) -> FpMatrix:
    """Matrix of op on an invariant subspace, in the subspace's canonical basis."""
    cols = []
    for row in space.basis:
        coords = space.coordinates(op.apply(row))
        if coords is None:
            raise AxiomError("operator does not preserve the subspace")
        cols.append(coords)
    data = np.array(cols, dtype=np.int64).T if cols else np.zeros((0, 0), dtype=np.int64)
    return FpMatrix(op.p, data.reshape(space.dim, space.dim))


class _FModule:
    side = "?"

    def __init__(self, algebra: FiniteAlgebra, action, x_action: FpMatrix, check: bool = True):
        self.algebra = algebra
        self.action = list(action)
        self.x_action = x_action
        if len(self.action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        dims = {m.rows for m in self.action} | {m.cols for m in self.action}
        dims |= {x_action.rows, x_action.cols}
        if len(dims) != 1:
            raise ValueError("action and x matrices must be square of one size")
        self.dim = x_action.rows
        if check:
            self.validate()

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, algebra: FiniteAlgebra):
        z = FpMatrix.zeros(algebra.p, 0, 0)
        return cls(algebra, [z] * algebra.dim, z, check=False)

    # -- structure --------------------------------------------------------

    def rho(self, r) -> FpMatrix:
        """The action matrix of an arbitrary algebra element."""
        p = self.algebra.p
        return combine(p, (self.dim, self.dim), as_vector(r, p), self.action)

    def validate(self) -> bool:
        A = self.algebra
        eye = np.eye(A.dim, dtype=np.int64)
        if self.rho(A.one) != FpMatrix.identity(A.p, self.dim):
            raise AxiomError("action is not unital: rho(1) != id")
        for i in range(A.dim):
            for j in range(A.dim):
                if self.action[i] @ self.action[j] != self.rho(A.mul(eye[i], eye[j])):
                    raise AxiomError(f"action is not multiplicative on ({i},{j})")
        pairs = semilinear_pairs(A, self.action, self.side)
        for i, (a, b) in enumerate(pairs):
            if self.x_action @ a != b @ self.x_action:
                raise AxiomError(
                    f"{self.side} semilinearity fails on basis element "
                    f"{A.labels[i]}"
                )
        return True

    def is_zero(self) -> bool:
        return self.dim == 0

    def apply_x(self, v) -> np.ndarray:
        return self.x_action.apply(v)

    def apply_x_power(self, v, k: int) -> np.ndarray:
        return (self.x_action**k).apply(v)

    def act(self, poly: SkewPolynomial, v) -> np.ndarray:
        """Apply a skew polynomial: rho-then-x on the left, x-then-rho on the right."""
        if poly.algebra != self.algebra:
            raise ValueError("polynomial lives over a different algebra")
        v = as_vector(v, self.algebra.p)
        out = np.zeros(self.dim, dtype=np.int64)
        for n, c in enumerate(poly.coeffs):
            if not c.any():
                continue
            if self.side == "left":
                out = (out + self.rho(c).apply(self.apply_x_power(v, n))) % self.algebra.p
            else:
                out = (out + self.apply_x_power(self.rho(c).apply(v), n)) % self.algebra.p
        return out

    # -- submodules and quotients ------------------------------------------

    def submodule(self, vectors) -> "FSubmodule":
        space = Subspace.from_vectors(self.algebra.p, self.dim, vectors)
        closed = close_under(space, self.action + [self.x_action])
        return FSubmodule(self, closed)

    def full_submodule(self) -> "FSubmodule":
        return FSubmodule(self, Subspace.full(self.algebra.p, self.dim))

    def zero_submodule(self) -> "FSubmodule":
        return FSubmodule(self, Subspace.zero(self.algebra.p, self.dim))

    def quotient(self, sub: "FSubmodule") -> tuple["_FModule", FpMatrix]:
        """Quotient module and the projection matrix onto its basis."""
        if sub.parent is not self:
            raise ValueError("submodule belongs to a different module")
        p = self.algebra.p
        reps = quotient_representatives(Subspace.full(p, self.dim), sub.space)
        m = reps.shape[0]
        basis = np.vstack([sub.space.basis, reps]) if self.dim else reps
        if self.dim:
            change = FpMatrix(p, basis.T).inverse()
            proj = FpMatrix(p, change.data[sub.space.dim :, :])
            lift = FpMatrix(p, reps.T)
        else:
            proj = FpMatrix.zeros(p, 0, 0)
            lift = FpMatrix.zeros(p, 0, 0)
        action = [proj @ a @ lift for a in self.action]
        x_new = proj @ self.x_action @ lift
        return type(self)(self.algebra, action, x_new), proj

    def enumerate_submodules(self, budget: int) -> list["FSubmodule"]:
        """Every invariant subspace, by closing one extra vector at a time."""
        p = self.algebra.p
        if p**self.dim > budget:
            raise BudgetError(
                f"submodule enumeration needs {p ** self.dim} vectors, budget is {budget}"
            )
        all_vectors = [
            np.array(c, dtype=np.int64)
            for c in itertools.product(range(p), repeat=self.dim)
        ]
        zero = self.zero_submodule()
        found = {zero.space: zero}
        queue = [zero]
        while queue:
            current = queue.pop()
            for v in all_vectors:
                if current.space.contains(v):
                    continue
                bigger = self.submodule(list(current.space.basis) + [v])
                if bigger.space not in found:
                    found[bigger.space] = bigger
                    queue.append(bigger)
        return sorted(
            found.values(), key=lambda s: (s.space.dim, s.space.basis.tobytes())
        )

    # -- common plumbing -----------------------------------------------------

    def _x_chain(self, of) -> tuple[list[tuple[FpMatrix, Subspace]], int]:
        """Pairs (X^n, of(X^n)) for n = 0, 1, ... until of(X^n) repeats.

        of maps a matrix to a subspace that moves monotonically with n
        (kernels, images), so the chain stops as soon as it stops moving;
        the index returned is that of the stable entry.
        """
        X = self.x_action

        def step(state):
            power = X @ state[0]
            return power, of(power)

        identity = FpMatrix.identity(self.algebra.p, self.dim)
        states, stable, _ = stabilize((identity, of(identity)), step, lambda s: s[1])
        return states, stable

    def _graded_annihilator(self, of, product) -> GradedTwoSidedIdeal:
        """The chain b_n = {r : product(rho(r), X^n) == 0} along the chain of of(X^n)."""
        p = self.algebra.p
        chain = []
        for power, _ in self._x_chain(of)[0]:
            cols = np.stack([product(a, power).data.ravel() for a in self.action], axis=1)
            chain.append(self._b_component(FpMatrix(p, cols).kernel()))
        return GradedTwoSidedIdeal(self.algebra, chain)

    def _b_component(self, space: Subspace) -> Ideal:
        ideal = Ideal(self.algebra, list(space.basis))
        if ideal.space != space:
            raise AxiomError("annihilator component is not an ideal")
        return ideal

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _FModule)
            and self.side == other.side
            and self.algebra == other.algebra
            and self.x_action == other.x_action
            and all(a == b for a, b in zip(self.action, other.action))
        )

    def __hash__(self) -> int:
        return hash((self.side, self.algebra, self.x_action, tuple(self.action)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.algebra.p}, dim={self.dim})"


class LeftFModule(_FModule):
    side = "left"

    def torsion_exponent(self) -> int:
        """Least e with ker(X^e) == ker(X^(e+1)); every x-torsion element dies by x^e."""
        return self._x_chain(FpMatrix.kernel)[1]

    def x_torsion(self) -> "FSubmodule":
        states, e = self._x_chain(FpMatrix.kernel)
        return FSubmodule(self, states[e][1])

    def is_x_torsion_free(self) -> bool:
        return self.x_action.kernel().is_zero()

    def graded_annihilator(self) -> GradedTwoSidedIdeal:
        """Largest chain (b_n) with rho(b_n) . X^n == 0; stabilizes with im(X^n)."""
        return self._graded_annihilator(FpMatrix.image, lambda a, power: a @ power)

    def annihilator_submodule(self, ideal: GradedTwoSidedIdeal) -> "FSubmodule":
        """Elements killed by every homogeneous piece of the graded ideal."""
        if ideal.algebra != self.algebra:
            raise ValueError("graded ideal lives over a different algebra")
        p = self.algebra.p
        space = Subspace.full(p, self.dim)
        for n in range(ideal.stable_from + 1):
            xp = self.x_action**n
            for b in ideal.component(n).space.basis:
                space = space & (self.rho(b) @ xp).kernel()
        # conditions in degrees beyond the stable index follow once the
        # candidate space is x-stable, so cut down to the largest such part
        states, _, _ = stabilize(space, lambda s: s & self.x_action.preimage(s))
        return FSubmodule(self, states[-1])


class RightFModule(_FModule):
    side = "right"

    def divisibility_exponent(self) -> int:
        """Least e with im(X^e) == im(X^(e+1))."""
        return self._x_chain(FpMatrix.image)[1]

    def is_x_divisible(self) -> bool:
        return self.x_action.image().is_full()

    def graded_annihilator(self) -> GradedTwoSidedIdeal:
        """Largest chain (b_n) with X^n . rho(b_n) == 0; stabilizes with ker(X^n)."""
        return self._graded_annihilator(FpMatrix.kernel, lambda a, power: power @ a)

    def times_graded_ideal(self, ideal: GradedTwoSidedIdeal) -> "FSubmodule":
        """The submodule spanned by all m . (b x^n) with b in the n-th piece."""
        if ideal.algebra != self.algebra:
            raise ValueError("graded ideal lives over a different algebra")
        p = self.algebra.p
        pieces = []
        for n in range(ideal.stable_from + 1):
            xp = self.x_action**n
            for b in ideal.component(n).space.basis:
                pieces.extend((xp @ self.rho(b)).data.T)
        space = Subspace.from_vectors(p, self.dim, pieces)
        space = close_under(space, self.action + [self.x_action])
        return FSubmodule(self, space)

    def annihilator_chain(self) -> tuple[list[Subspace], int]:
        """Ascending chain (0 : R x^k) = {m : X^k rho(r) m = 0 for all r}.

        This is the universally quantified condition, which is smaller than
        ker(X^k) in general; the two are kept separate on purpose.
        """
        p = self.algebra.p

        def killed_by(power: FpMatrix) -> Subspace:
            stacked = np.vstack([(power @ a).data for a in self.action])
            return FpMatrix(p, stacked).kernel()

        states, k = self._x_chain(killed_by)
        return [space for _, space in states], k

    def eventual_annihilator(self) -> tuple["FSubmodule", int]:
        chain, k = self.annihilator_chain()
        return FSubmodule(self, chain[-1]), k

    def stable_image(self) -> tuple["FSubmodule", int]:
        states, e = self._x_chain(FpMatrix.image)
        return FSubmodule(self, states[e][1]), e

    def mod_eventual_annihilator(self) -> "RightFModule":
        """Quotient by (0 : R x^inf); the result has trivial eventual annihilator."""
        sub, _ = self.eventual_annihilator()
        return self.quotient(sub)[0]

    def mod_stable_image(self) -> "RightFModule":
        """Quotient by the intersection of all M x^k."""
        sub, _ = self.stable_image()
        return self.quotient(sub)[0]

    def localize(self, index: int, bound: int | None = None) -> "RightFModule":
        """Projection onto an idempotent factor, as a module over that factor.

        For a finite algebra, inverting everything outside a maximal ideal is
        exactly multiplication by the corresponding primitive idempotent.
        """
        decomp = self.algebra.local_components(bound)
        if not 0 <= index < len(decomp.components):
            raise ValueError(f"no component with index {index}")
        eps = decomp.idempotents[index]
        comp = decomp.components[index]
        part = self.rho(eps).image()
        eye = np.eye(comp.dim, dtype=np.int64)
        action = [
            _restrict(self.rho(decomp.lift(index, eye[i])), part)
            for i in range(comp.dim)
        ]
        x_new = _restrict(self.x_action, part)
        return RightFModule(comp, action, x_new)


class FSubmodule:
    """A subspace closed under the algebra action and under x."""

    __slots__ = ("parent", "space")

    def __init__(self, parent: _FModule, space: Subspace):
        if space.ambient_dim != parent.dim or space.p != parent.algebra.p:
            raise ValueError("subspace has the wrong ambient space")
        for op in parent.action + [parent.x_action]:
            for row in space.basis:
                if not space.contains(op.apply(row)):
                    raise AxiomError("subspace is not closed under the module structure")
        self.parent = parent
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_zero(self) -> bool:
        return self.space.is_zero()

    def as_module(self) -> tuple[_FModule, FpMatrix]:
        """The submodule as a module of its own, plus the inclusion matrix."""
        action = [_restrict(a, self.space) for a in self.parent.action]
        x_new = _restrict(self.parent.x_action, self.space)
        mod = type(self.parent)(self.parent.algebra, action, x_new)
        incl = FpMatrix(self.space.p, self.space.basis.T.reshape(self.parent.dim, self.dim))
        return mod, incl

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FSubmodule)
            and self.parent is other.parent
            and self.space == other.space
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.space))

    def __repr__(self) -> str:
        return f"FSubmodule(dim={self.dim} of {self.parent!r})"


# -- distinguished modules ---------------------------------------------------


def natural_frobenius_module(algebra: FiniteAlgebra) -> LeftFModule:
    """The ring acting on itself with x acting as the p-th power map."""
    return twisted_frobenius_module(algebra, algebra.one)


def twisted_frobenius_module(algebra: FiniteAlgebra, c) -> LeftFModule:
    """The regular module with x acting by r -> c * r^p."""
    F = algebra.frobenius().matrix
    x_action = algebra.mult_matrix(c) @ F
    return LeftFModule(algebra, algebra.basis_matrices(), x_action)


def twisted_modules_isomorphic(
    algebra: FiniteAlgebra, c1, c2, bound: int = 1 << 20
) -> tuple[bool, np.ndarray | None]:
    """Decide whether the c1- and c2-twisted regular modules are isomorphic.

    Searches exhaustively for a unit u whose multiplication matrix
    intertwines the two x-actions; returns the witness when one exists.
    """
    if algebra.p**algebra.dim > bound:
        raise BudgetError("unit search exceeds the enumeration bound")
    F = algebra.frobenius().matrix
    x1 = algebra.mult_matrix(c1) @ F
    x2 = algebra.mult_matrix(c2) @ F
    for u in algebra.elements():
        mu = algebra.mult_matrix(u)
        if not mu.is_invertible():
            continue
        if mu @ x1 == x2 @ mu:
            return True, u
    return False, None


def cartier_from_splitting(
    algebra: FiniteAlgebra,
) -> tuple[RightFModule | None, str | None]:
    """Right module structure r . x = (pi(r))^(1/p) from a Frobenius splitting.

    Needs the algebra reduced, so that p-th roots are unique on the image of
    the p-th power map.  pi is found by solving the linear conditions of
    being linear over p-th powers and restricting to the identity on them.
    """
    if not algebra.is_reduced():
        return None, "not reduced"
    p, d = algebra.p, algebra.dim
    F = algebra.frobenius().matrix
    eye = np.eye(d, dtype=np.int64)
    # pi commutes with multiplication by p-th powers, and pi F == F
    frob_mults = [algebra.mult_matrix(F.apply(eye[i])) for i in range(d)]
    pairs = [(m, m) for m in frob_mults] + [(F, FpMatrix.zeros(p, d, d))]
    rhs = [np.zeros((d, d), dtype=np.int64)] * d + [F.data]
    pi = operator_solve(p, (d, d), pairs, rhs)
    if pi is None:
        return None, "no splitting"
    # on a reduced finite algebra the p-th power map is injective, so invertible
    x_action = F.inverse() @ pi
    return RightFModule(algebra, algebra.basis_matrices(), x_action), None


# -- homomorphisms -------------------------------------------------------------


def hom_space(source: _FModule, target: _FModule) -> list[FpMatrix]:
    """Basis of the space of structure-preserving maps source -> target."""
    if source.side != target.side or source.algebra != target.algebra:
        raise ValueError("modules are not comparable")
    pairs = list(zip(source.action, target.action))
    pairs.append((source.x_action, target.x_action))
    return operator_kernel(source.algebra.p, (target.dim, source.dim), pairs)


def find_module_isomorphism(source: _FModule, target: _FModule) -> FpMatrix | None:
    """An invertible structure-preserving map, or None if there is none.

    Tries every combination of a Hom basis, so the answer is exact; more
    than 2^14 combinations raise BudgetError.
    """
    if source.dim != target.dim:
        return None
    if source.dim == 0:
        return FpMatrix.zeros(source.algebra.p, 0, 0)
    basis = hom_space(source, target)
    p = source.algebra.p
    if p ** len(basis) > ISOMORPHISM_SEARCH_BOUND:
        raise BudgetError(
            f"isomorphism search needs {p}^{len(basis)} combinations, "
            f"bound is {ISOMORPHISM_SEARCH_BOUND}"
        )
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        if any(coeffs):
            total = combine(p, (target.dim, source.dim), coeffs, basis)
            if total.is_invertible():
                return total
    return None
