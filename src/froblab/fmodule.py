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
    common_kernel,
    image_rows,
    operator_kernel,
    operator_solve,
    quotient_maps,
    restrict,
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
        proj, lift = quotient_maps(sub.space)
        action = [proj @ a @ lift for a in self.action]
        x_new = proj @ self.x_action @ lift
        return type(self)(self.algebra, action, x_new), proj

    def enumerate_submodules(self, budget: int) -> list["FSubmodule"]:
        """Every invariant subspace: the cyclic submodules, closed under sums.

        Every submodule is the sum of the cyclic submodules of its vectors, and
        nonzero multiples of a vector generate the same one, so one closure per
        line of F_p^dim suffices (its vector with leading coordinate 1).  A sum
        of submodules is a submodule, so the sums need no closure.  The tests
        check graded_annihilator_set against it; nothing in the package calls it.
        """
        p, n = self.algebra.p, self.dim
        if p**n > budget:
            raise BudgetError(
                f"submodule enumeration needs {p ** n} vectors, budget is {budget}"
            )
        zero = self.zero_submodule()
        found = {zero.space: zero}
        generators: dict[Subspace, np.ndarray] = {}
        for lead in range(n):
            for tail in itertools.product(range(p), repeat=n - lead - 1):
                v = np.array((0,) * lead + (1,) + tail, dtype=np.int64)
                cyclic = self.submodule([v])
                found.setdefault(cyclic.space, cyclic)
                generators.setdefault(cyclic.space, v)
        queue = list(generators)
        while queue:
            current = queue.pop()
            for space, v in generators.items():
                if current.contains(v):
                    continue
                bigger = current + space
                if bigger not in found:
                    found[bigger] = FSubmodule(self, bigger)
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
        """Elements killed by every homogeneous piece of the graded ideal.

        With N = ideal.stable_from this is the common kernel of rho(b) X^n for
        n <= N + dim and b in a basis of b_n.  Beyond N the conditions cut
        out U_m = {h : rho(b_N) X^(N+j) h = 0 for j <= m}, a descending chain
        with U_(m+1) = U_0 & X^-1(U_m), so it stops for good within dim steps.
        """
        if ideal.algebra != self.algebra:
            raise ValueError("graded ideal lives over a different algebra")
        conditions = []
        power = FpMatrix.identity(self.algebra.p, self.dim)
        for n in range(ideal.stable_from + self.dim + 1):
            conditions.extend(self.rho(b) @ power for b in ideal.component(n).space.basis)
            power = self.x_action @ power
        return FSubmodule(self, common_kernel(self.algebra.p, self.dim, conditions))


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
        pieces = []
        for n in range(ideal.stable_from + 1):
            xp = self.x_action**n
            for b in ideal.component(n).space.basis:
                pieces.extend((xp @ self.rho(b)).data.T)
        return self.submodule(pieces)

    def annihilator_chain(self) -> tuple[list[Subspace], int]:
        """Ascending chain (0 : R x^k) = {m : X^k rho(r) m = 0 for all r}.

        This is the universally quantified condition, which is smaller than
        ker(X^k) in general; the two are kept separate on purpose.
        """
        states, k = self._x_chain(
            lambda power: common_kernel(self.algebra.p, self.dim, [power @ a for a in self.action])
        )
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

    def localize(self, index: int) -> "RightFModule":
        """Projection onto an idempotent factor, as a module over that factor.

        For a finite algebra, inverting everything outside a maximal ideal is
        exactly multiplication by the corresponding primitive idempotent.
        """
        decomp = self.algebra.local_components()
        if not 0 <= index < len(decomp.components):
            raise ValueError(f"no component with index {index}")
        part = self.rho(decomp.idempotents[index]).image()
        action = [restrict(self.rho(b), part) for b in decomp.component_spaces[index].basis]
        x_new = restrict(self.x_action, part)
        return RightFModule(decomp.components[index], action, x_new)


class FSubmodule:
    """A subspace closed under the algebra action and under x."""

    __slots__ = ("parent", "space")

    def __init__(self, parent: _FModule, space: Subspace):
        if space.ambient_dim != parent.dim or space.p != parent.algebra.p:
            raise ValueError("subspace has the wrong ambient space")
        if not space.contains(image_rows(space, parent.action + [parent.x_action])):
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
        action = [restrict(a, self.space) for a in self.parent.action]
        x_new = restrict(self.parent.x_action, self.space)
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


def graded_annihilator_set(module: _FModule) -> set[tuple]:
    """Keys of the graded annihilators of all quotients of an x-divisible
    right module, or of all submodules of an x-torsion-free left module.

    Each of them is J_b = b R[x,f] = (b, b, ...) with b a radical ideal of R.
    Right: let Q = M/N, so Q = Q x^n.  If Q r x^n = 0 then
    Q r = Q x^n r = Q r^(p^n) x^n, inside Q r x^n = 0; and if Q r^p = 0 then
    Q r = Q x r = Q r^p x = 0.  Left (Sharp, Trans. AMS 359, 2007): for h in
    a submodule N, r x^n N = 0 gives x^n (r h) = r^(p^n-1) r x^n h = 0, and
    r^p N = 0 gives x (r h) = r^p (x h) = 0; in both cases r h = 0.  J_b is
    two-sided because b^[p] lies in b.

    Q is a quotient of M / M J for its J = gr-ann(Q), so
    J <= gr-ann(M / M J) <= J; dually N lies in ann_H(J), so
    gr-ann(ann_H(J)) = J.  The sets are therefore the graded annihilators of
    M / M J_b, or of ann_H(J_b), as b runs over the radical ideals.  In
    R = prod R_i those are nil(R) + sum_(i in S) e_i R, one per subset S.
    Outside the hypothesis the formula can miss members, so it refuses.
    """
    A, right = module.algebra, module.side == "right"
    if right and not module.is_x_divisible():
        raise AxiomError("graded annihilators of quotients need an x-divisible right module")
    if not right and not module.is_x_torsion_free():
        raise AxiomError("graded annihilators of submodules need an x-torsion-free left module")
    nil = A.nilradical().space
    factors = A.local_components().component_spaces
    subs = {}
    for chosen in itertools.product((False, True), repeat=len(factors)):
        b = sum((s for s, keep in zip(factors, chosen) if keep), nil)
        J = GradedTwoSidedIdeal(A, [Ideal(A, list(b.basis), space=b)])
        sub = module.times_graded_ideal(J) if right else module.annihilator_submodule(J)
        subs.setdefault(sub.space, sub)
    pieces = (module.quotient(sub)[0] if right else sub.as_module()[0] for sub in subs.values())
    return {piece.graded_annihilator().key() for piece in pieces}


# -- distinguished modules ---------------------------------------------------


def natural_frobenius_module(algebra: FiniteAlgebra) -> LeftFModule:
    """The ring acting on itself with x acting as the p-th power map."""
    return twisted_frobenius_module(algebra, algebra.one)


def twisted_frobenius_module(algebra: FiniteAlgebra, c) -> LeftFModule:
    """The regular module with x acting by r -> c * r^p."""
    F = algebra.frobenius().matrix
    x_action = algebra.mult_matrix(c) @ F
    return LeftFModule(algebra, algebra.basis_matrices(), x_action)


def twisted_modules_isomorphic(algebra: FiniteAlgebra, c1, c2) -> tuple[bool, np.ndarray | None]:
    """Decide whether the c1- and c2-twisted regular modules are isomorphic.

    Multiplication by u intertwines r -> c1 r^p and r -> c2 r^p exactly when
    u c1 = c2 u^p (take r = 1, and multiply by r^p for the converse), a
    linear condition on u with solution space S.  A primitive idempotent e
    has e^p = e, so S is the sum of the e S, and it holds a unit exactly when
    each e S holds a unit of the local factor eR.  Its non-units form the
    maximal ideal, a subspace, so some e b with b in a basis of S is a unit
    of eR if any element of e S is.  The witness is the sum of one per factor.
    """
    F = algebra.frobenius().matrix
    solutions = (algebra.mult_matrix(c1) - algebra.mult_matrix(c2) @ F).kernel()
    witness = algebra.zero()
    for e in algebra.local_components().idempotents:
        parts = image_rows(solutions, [algebra.mult_matrix(e)])
        unit = next((v for v in parts if algebra.is_unit(v + algebra.one - e)), None)
        if unit is None:
            return False, None
        witness = (witness + unit) % algebra.p
    return True, witness


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
