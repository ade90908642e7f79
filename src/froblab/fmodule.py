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
from functools import cached_property

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
    int_array,
    mulmod,
    operator_kernel,
    operator_stack,
    quotient_maps,
    relations,
    restrict_stack,
)
from .skew import GradedTwoSidedIdeal

ISOMORPHISM_SEARCH_BOUND = 1 << 14

def _frobenius_twists(algebra: FiniteAlgebra, acts: np.ndarray) -> np.ndarray:
    """The read-only d x n x n stack of the rho(e_i^p) = sum_j F[j, i] rho(e_j),
    from the stack acts of the rho(e_j): F^T on the flat stack, one product."""
    d, n = acts.shape[0], acts.shape[1]
    flat = mulmod(algebra.frobenius().matrix.data.T, acts.reshape(d, n * n), algebra.p)
    flat.setflags(write=False)
    return flat.reshape(d, n, n)


def semilinear_pairs(
    algebra: FiniteAlgebra, action: list[FpMatrix], side: str
) -> list[tuple[FpMatrix, FpMatrix]]:
    """Pairs (A_i, B_i), one per algebra basis element, such that X is a valid
    x-action for the given ring action and side exactly when X A_i == B_i X."""
    twists = _frobenius_twists(algebra, operator_stack(action[0].rows, action))
    frob = [FpMatrix._reduced(algebra.p, m) for m in twists]
    if side == "left":
        return list(zip(action, frob))
    return list(zip(frob, action))


class _FModule:
    side = "?"

    def __init__(self, algebra: FiniteAlgebra, action, x_action: FpMatrix, check: bool = True):
        """Shapes are always checked; check=True (the default, for data from
        outside) also validates the axioms.  check=False trusts the caller:
        the package passes it only for modules valid by construction, such as
        duals, quotients, submodules, localizations and generated modules."""
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
        self._powers: list[FpMatrix] = []
        self._fitting: int | None = None
        if check:
            self.validate()

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, algebra: FiniteAlgebra):
        z = FpMatrix.zeros(algebra.p, 0, 0)
        return cls(algebra, [z] * algebra.dim, z, check=False)

    @classmethod
    def _from_structure(cls, algebra: FiniteAlgebra, stack: np.ndarray):
        """A module valid by construction, from a reduced (d+1) x n x n int64
        stack the package built and nothing writes again: its matrices are
        views of the stack, which becomes the module's structure."""
        p = algebra.p
        stack.setflags(write=False)
        mats = [FpMatrix._reduced(p, m) for m in stack]
        module = cls(algebra, mats[:-1], mats[-1], check=False)
        module.structure = stack
        return module

    # -- structure --------------------------------------------------------

    @cached_property
    def structure(self) -> np.ndarray:
        """The read-only (d+1) x dim x dim stack of rho(e_0), ..., rho(e_(d-1))
        and then X, built once.  The batched methods read it: one broadcast
        product stands for a loop over the action matrices."""
        n, mats = self.dim, [*self.action, self.x_action]
        stack = np.array([m.data for m in mats], dtype=np.int64).reshape(len(mats), n, n)
        stack.setflags(write=False)
        return stack

    def rhos(self, elements) -> np.ndarray:
        """rho(r) for every row r of a k x d block of coefficients, as one
        read-only k x dim x dim array: one product with the flat action stack."""
        A, n = self.algebra, self.dim
        coeffs = int_array(elements, A.p)
        if coeffs.ndim != 2 or coeffs.shape[1] != A.dim:
            raise ValueError(f"expected a k x {A.dim} block of coefficients, got {coeffs.shape}")
        flat = mulmod(coeffs, self.structure[:-1].reshape(A.dim, n * n), A.p)
        flat.setflags(write=False)
        return flat.reshape(coeffs.shape[0], n, n)

    def rho(self, r) -> FpMatrix:
        """The action matrix of an arbitrary algebra element."""
        p = self.algebra.p
        return FpMatrix._reduced(p, self.rhos(as_vector(r, p)[None, :])[0])

    def validate(self) -> bool:
        A = self.algebra
        if self.rho(A.one) != FpMatrix.identity(A.p, self.dim):
            raise AxiomError("action is not unital: rho(1) != id")
        # rho(e_i) rho(e_j) == rho(e_i e_j) == sum_k table[i, j, k] rho(e_k),
        # for all j at once: one d x n x n block per i
        acts, X = self.structure[:-1], self.structure[-1]
        flat = acts.reshape(A.dim, self.dim * self.dim)
        for i in range(A.dim):
            products = mulmod(acts[i], acts, A.p)
            expected = mulmod(A.table[i], flat, A.p).reshape(acts.shape)
            bad = (products != expected).any(axis=(1, 2))
            if bad.any():
                raise AxiomError(f"action is not multiplicative on ({i},{int(np.argmax(bad))})")
        # X A_i == B_i X for the pairs of semilinear_pairs, all i at once
        frob = _frobenius_twists(A, acts)
        a, b = (acts, frob) if self.side == "left" else (frob, acts)
        bad = (mulmod(X, a, A.p) != mulmod(b, X, A.p)).any(axis=(1, 2))
        if bad.any():
            raise AxiomError(
                f"{self.side} semilinearity fails on basis element "
                f"{A.labels[int(np.argmax(bad))]}"
            )
        return True

    def is_zero(self) -> bool:
        return self.dim == 0

    def apply_x(self, v) -> np.ndarray:
        return self.x_action.apply(v)

    def x_power(self, n: int) -> FpMatrix:
        """X^n.  The powers are kept: each new one is one product from the
        last, so every power is built at most once per module."""
        powers = self._powers
        if not powers:
            powers += [FpMatrix.identity(self.algebra.p, self.dim), self.x_action]
        while len(powers) <= n:
            powers.append(self.x_action @ powers[-1])
        return powers[n]

    def _x_powers(self, start: int, stop: int) -> np.ndarray:
        """X^start, ..., X^(stop-1) as one (stop-start) x dim x dim array."""
        n = self.dim
        powers = [self.x_power(m).data for m in range(start, stop)]
        return np.array(powers, dtype=np.int64).reshape(stop - start, n, n)

    def _words(self, powers: np.ndarray) -> np.ndarray:
        """rho(e_i) P (left) or P rho(e_i) (right) for every P of a stack of
        powers of X and every i, as one len(powers) x d x dim x dim array."""
        acts, powers = self.structure[None, :-1], powers[:, None]
        p = self.algebra.p
        return mulmod(acts, powers, p) if self.side == "left" else mulmod(powers, acts, p)

    def fitting_index(self) -> int:
        """The least e with rank X^e == rank X^(e+1).

        The kernels of the powers of X ascend and their images descend, so
        equal ranks mean ker X^e == ker X^(e+1) and im X^e == im X^(e+1).
        Both then hold one step up: X^(e+2) v = 0 puts X v in
        ker X^(e+1) = ker X^e, and im X^(e+2) = X im X^(e+1) = X im X^e.
        So from e on neither chain moves again (Fitting's lemma), and
        e <= dim.  The torsion and divisibility exponents are both this e.
        """
        if self._fitting is None:
            e, rank = 0, self.dim
            while (following := self.x_power(e + 1).rank()) != rank:
                e, rank = e + 1, following
            self._fitting = e
        return self._fitting

    # -- submodules and quotients ------------------------------------------

    def submodule(self, vectors) -> "FSubmodule":
        space = Subspace.from_vectors(self.algebra.p, self.dim, vectors)
        return FSubmodule(self, close_under(space, self.structure))

    def full_submodule(self) -> "FSubmodule":
        return FSubmodule(self, Subspace.full(self.algebra.p, self.dim))

    def zero_submodule(self) -> "FSubmodule":
        return FSubmodule(self, Subspace.zero(self.algebra.p, self.dim))

    def quotient(self, sub: "FSubmodule") -> tuple["_FModule", FpMatrix]:
        """Quotient module and the projection matrix onto its basis."""
        if sub.parent is not self:
            raise ValueError("submodule belongs to a different module")
        p = self.algebra.p
        proj, lift = quotient_maps(sub.space)
        stack = mulmod(mulmod(proj.data, self.structure, p), lift.data, p)
        return self._from_structure(self.algebra, stack), proj

    def _cyclic_words(self) -> np.ndarray:
        """The d*dim words rho(e_i) X^j (left) or X^j rho(e_i) (right), j < dim,
        stacked as a (d*dim*dim) x dim matrix: the cyclic submodule of v is
        the span of the W v (see enumerate_submodules)."""
        n = self.dim
        return self._words(self._x_powers(0, n)).reshape(n * self.algebra.dim * n, n)

    def enumerate_submodules(self, budget: int) -> list["FSubmodule"]:
        """Every invariant subspace: the cyclic submodules, closed under sums.

        Every submodule is the sum of the cyclic submodules of its vectors, and
        nonzero multiples of a vector generate the same one, so one cyclic
        submodule per line of F_p^dim suffices (its vector with leading
        coordinate 1).  Each is a direct span, with no closure.  A word in the
        rho(e_i) and X can have all its rho moved to one side, by
        X rho(r) == rho(r^p) X on the left and rho(r) X == X rho(r^p) on the
        right, and rho(s) rho(r) == rho(sr); by Cayley-Hamilton X^j for
        j >= dim lies in the span of the lower powers.  So the cyclic
        submodule of v is the span of the W v over the d*dim words
        W = rho(e_i) X^j (left) or X^j rho(e_i) (right), j < dim: that span
        holds v = rho(1) v, and rho(e_k) and X map each W v back into it.  It
        costs one product and one elimination per line.

        A sum of submodules is a submodule, so the sums need no closure
        either.  Each submodule found tests all the cyclic generators G at
        once: those outside it are the nonzero rows of the residue
        G - G[:, pivots] @ basis.  The tests check graded_annihilator_set
        against it; nothing in the package calls it.
        """
        p, n = self.algebra.p, self.dim
        if p**n > budget:
            raise BudgetError(
                f"submodule enumeration needs {p ** n} vectors, budget is {budget}"
            )
        zero = self.zero_submodule()
        found = {zero.space: zero}
        words = self._cyclic_words()
        generators: dict[Subspace, np.ndarray] = {}
        for lead in range(n):
            for tail in itertools.product(range(p), repeat=n - lead - 1):
                v = np.array((0,) * lead + (1,) + tail, dtype=np.int64)
                images = mulmod(words, v, p).reshape(-1, n)
                generators.setdefault(Subspace.from_vectors(p, n, images), v)
        found.update((space, FSubmodule(self, space)) for space in generators)
        spaces = list(generators)
        block = np.array(list(generators.values()), dtype=np.int64).reshape(len(spaces), n)
        queue = list(spaces)
        while queue:
            current = queue.pop()
            outside = ((block - mulmod(block[:, current.pivots], current.basis, p)) % p).any(axis=1)
            for space in itertools.compress(spaces, outside):
                bigger = current + space
                if bigger not in found:
                    found[bigger] = FSubmodule(self, bigger)
                    queue.append(bigger)
        return sorted(
            found.values(), key=lambda s: (s.space.dim, s.space.basis.tobytes())
        )

    # -- common plumbing -----------------------------------------------------

    def _graded_annihilator(self) -> GradedTwoSidedIdeal:
        """The chain b_n = {r : rho(r) X^n == 0} (left) or {r : X^n rho(r) == 0}
        (right) for n up to the Fitting index, where it stops for good with
        the kernels and images."""
        A, n = self.algebra, self.dim
        chain = []
        for m in range(self.fitting_index() + 1):
            rows = self._words(self.x_power(m).data[None]).reshape(A.dim, n * n)
            # an ideal because rho is multiplicative: rho(sr) = rho(s) rho(r)
            chain.append(Ideal.of_space(A, relations(A.p, rows)))
        return GradedTwoSidedIdeal(A, chain)

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
        return self.fitting_index()

    def x_torsion(self) -> "FSubmodule":
        return FSubmodule(self, self.x_power(self.fitting_index()).kernel())

    def is_x_torsion_free(self) -> bool:
        return self.x_action.kernel().is_zero()

    def graded_annihilator(self) -> GradedTwoSidedIdeal:
        """Largest chain (b_n) with rho(b_n) . X^n == 0; stabilizes with im(X^n)."""
        return self._graded_annihilator()

    def annihilator_submodule(self, ideal: GradedTwoSidedIdeal) -> "FSubmodule":
        """Elements killed by every homogeneous piece of the graded ideal.

        With N = ideal.stable_from this is the common kernel of rho(b) X^n for
        n <= N + dim and b in a basis of b_n.  Beyond N the conditions cut
        out U_m = {h : rho(b_N) X^(N+j) h = 0 for j <= m}, a descending chain
        with U_(m+1) = U_0 & X^-1(U_m), so it stops for good within dim steps.
        Each piece below N is one product, the tail X^N, ..., X^(N+dim) one
        broadcast product, and all conditions one kernel.
        """
        if ideal.algebra != self.algebra:
            raise ValueError("graded ideal lives over a different algebra")
        p, n, N = self.algebra.p, self.dim, ideal.stable_from
        blocks = [
            mulmod(self.rhos(piece.space.basis), self.x_power(m).data, p)
            for m, piece in enumerate(ideal.chain[:N])
        ]
        tail = self._x_powers(N, N + n + 1)
        blocks.append(mulmod(self.rhos(ideal.chain[N].space.basis)[None], tail[:, None], p))
        return FSubmodule(self, common_kernel(p, n, blocks))


class RightFModule(_FModule):
    side = "right"

    def divisibility_exponent(self) -> int:
        """Least e with im(X^e) == im(X^(e+1))."""
        return self.fitting_index()

    def is_x_divisible(self) -> bool:
        return self.x_action.image().is_full()

    def graded_annihilator(self) -> GradedTwoSidedIdeal:
        """Largest chain (b_n) with X^n . rho(b_n) == 0; stabilizes with ker(X^n)."""
        return self._graded_annihilator()

    def times_graded_ideal(self, ideal: GradedTwoSidedIdeal) -> "FSubmodule":
        """The submodule spanned by all m . (b x^n) with b in the n-th piece."""
        if ideal.algebra != self.algebra:
            raise ValueError("graded ideal lives over a different algebra")
        p, n = self.algebra.p, self.dim
        pieces = [np.zeros((0, n), dtype=np.int64)]
        for m, piece in enumerate(ideal.chain):
            # the columns of X^m rho(b), for every b of the piece's basis
            images = mulmod(self.x_power(m).data, self.rhos(piece.space.basis), p)
            pieces.append(images.transpose(0, 2, 1).reshape(images.shape[0] * n, n))
        return self.submodule(np.vstack(pieces))

    def annihilator_chain(self) -> tuple[list[Subspace], int]:
        """Ascending chain (0 : R x^k) = {m : X^k rho(r) m = 0 for all r}.

        This is the universally quantified condition, which is smaller than
        ker(X^k) in general; the two are kept separate on purpose.  The
        chain stops for good at its first repeat: m in (0 : R x^(k+1)) means
        m r x lies in (0 : R x^k) for every r.
        """
        chain = []
        for k in itertools.count():
            words = self._words(self.x_power(k).data[None])
            space = common_kernel(self.algebra.p, self.dim, [words])
            if chain and space == chain[-1]:
                return chain, k - 1
            chain.append(space)

    def eventual_annihilator(self) -> tuple["FSubmodule", int]:
        chain, k = self.annihilator_chain()
        return FSubmodule(self, chain[-1]), k

    def stable_image(self) -> tuple["FSubmodule", int]:
        e = self.fitting_index()
        return FSubmodule(self, self.x_power(e).image()), e

    def localize(self, index: int) -> "RightFModule":
        """Projection onto an idempotent factor, as a module over that factor.

        For a finite algebra, inverting everything outside a maximal ideal is
        exactly multiplication by the corresponding primitive idempotent.
        """
        decomp = self.algebra.local_components()
        if not 0 <= index < len(decomp.components):
            raise ValueError(f"no component with index {index}")
        part = self.rho(decomp.idempotents[index]).image()
        rhos = self.rhos(decomp.component_spaces[index].basis)
        stack = restrict_stack(np.concatenate([rhos, self.structure[-1:]]), part)
        return RightFModule._from_structure(decomp.components[index], stack)


class FSubmodule:
    """A subspace closed under the algebra action and under x."""

    __slots__ = ("parent", "space")

    def __init__(self, parent: _FModule, space: Subspace):
        if space.ambient_dim != parent.dim or space.p != parent.algebra.p:
            raise ValueError("subspace has the wrong ambient space")
        if not space.contains(image_rows(space, parent.structure)):
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
        stack = restrict_stack(self.parent.structure, self.space)
        mod = type(self.parent)._from_structure(self.parent.algebra, stack)
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
    decomp = A.local_components()
    subs = {}
    for chosen in itertools.product((False, True), repeat=len(decomp.components)):
        b = decomp.radical_ideal(i for i, keep in enumerate(chosen) if keep)
        J = GradedTwoSidedIdeal(A, [b])
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
    return LeftFModule(algebra, algebra.basis_matrices(), x_action, check=False)


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
    the p-th power map.  Then the splitting is the identity and x acts by
    F^-1 (Blickle and Boeckle, J. reine angew. Math. 661, 2011): a reduced
    finite algebra has an injective F, hence an invertible one, so pi F == F
    forces pi == id.  An invertible F has preperiod 0 and F^period == I, so
    F^-1 is the last power of its cycle.
    """
    if not algebra.is_reduced():
        return None, "not reduced"
    frob = algebra.frobenius()
    x_action = frob.power(frob.period - 1)
    return RightFModule(algebra, algebra.basis_matrices(), x_action, check=False), None


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
