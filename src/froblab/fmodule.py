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
    STACK_CELLS,
    FpMatrix,
    Subspace,
    _recall,
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
    rref_stack,
)
from .skew import GradedTwoSidedIdeal

ISOMORPHISM_SEARCH_BOUND = 1 << 14

# The _recall kinds of the module layer.  One structure stack means different
# sets on the two sides, so graded_annihilator_set takes one kind per side.
_ANNIHILATOR, _PRODUCT = "annihilator_submodule", "times_graded_ideal"
_GRADED_ANNIHILATOR_SET = {
    "left": "left graded_annihilator_set",
    "right": "right graded_annihilator_set",
}


def _frobenius_twists(algebra: FiniteAlgebra, acts: np.ndarray) -> np.ndarray:
    """The read-only d x n x n stack of the rho(e_i^p) = sum_j F[j, i] rho(e_j),
    from the stack acts of the rho(e_j): F^T on the flat stack, one product."""
    d, n = acts.shape[0], acts.shape[1]
    flat = mulmod(algebra.frobenius().matrix.data.T, acts.reshape(d, n * n), algebra.p)
    flat.setflags(write=False)
    return flat.reshape(d, n, n)


def semilinear_stacks(
    algebra: FiniteAlgebra, acts: np.ndarray, side: str
) -> tuple[np.ndarray, np.ndarray]:
    """The stacks of the A_i and the B_i, one per algebra basis element, such
    that X is a valid x-action for the d x n x n ring action acts exactly
    when X A_i == B_i X for every i: (rho(e_i), rho(e_i^p)) on the left and
    (rho(e_i^p), rho(e_i)) on the right.  They are operator_kernel's system."""
    frob = _frobenius_twists(algebra, acts)
    return (acts, frob) if side == "left" else (frob, acts)


def semilinear_defects(algebra: FiniteAlgebra, structure: np.ndarray, side: str) -> np.ndarray:
    """One flag per algebra basis element: whether X A_i != B_i X for the X and
    the ring action of a (d+1) x n x n structure stack, all i at once."""
    a, b = semilinear_stacks(algebra, structure[:-1], side)
    X, p = structure[-1], algebra.p
    return (mulmod(X, a, p) != mulmod(b, X, p)).any(axis=(1, 2))


def _new_spans(p: int, stacks, seen: dict[bytes, Subspace]) -> list[Subspace]:
    """The row spaces of the matrices of each B x r x n stack, one rref_stack
    per stack, that are not yet in seen, keyed by their basis bytes; they
    are added to seen.  Each kept basis is a copy, which lets the reduced
    stack go."""
    new = []
    for stack in stacks:
        reduced, ranks = rref_stack(stack, p)
        for matrix, rank in zip(reduced, ranks.tolist()):
            key = matrix[:rank].tobytes()
            if key not in seen:
                basis = matrix[:rank].copy()
                pivots = (basis != 0).argmax(axis=1)
                seen[key] = space = Subspace._trusted(p, basis.shape[1], basis, pivots)
                new.append(space)
    return new


def _line_stacks(p: int, words: np.ndarray):
    """The images W v of one vector v per line of F_p^n, the one whose first
    nonzero coordinate is 1, under the words W of a (k*n) x n array: one
    k x n block per line, as stacks of at most STACK_CELLS cells (or one
    line).  The vectors with that first 1 at coordinate n-1-j are the
    base-p digits of the integers p^j, ..., 2 p^j - 1."""
    n = words.shape[1]
    codes = np.concatenate([np.arange(p**j, 2 * p**j) for j in range(n)])
    places = p ** np.arange(n - 1, -1, -1)
    step = max(1, STACK_CELLS // words.shape[0])
    for start in range(0, len(codes), step):
        lines = codes[start : start + step, None] // places % p
        yield mulmod(lines, words.T, p).reshape(-1, words.shape[0] // n, n)


def _sum_stacks(frontier: list[Subspace], cyclic: list[Subspace]):
    """The bases of S and C, one above the other and zero-padded, for every
    pair of a frontier space S and a cyclic C, as stacks of at most
    STACK_CELLS cells (or one pair)."""
    n = frontier[0].ambient_dim

    def padded(spaces):
        out = np.zeros((len(spaces), max(s.dim for s in spaces), n), dtype=np.int64)
        for block, space in zip(out, spaces):
            block[: space.dim] = space.basis
        return out

    tops, bottoms = padded(frontier), padded(cyclic)
    pairs = len(frontier) * len(cyclic)
    step = max(1, STACK_CELLS // ((tops.shape[1] + bottoms.shape[1]) * n))
    for start in range(0, pairs, step):
        index = np.arange(start, min(start + step, pairs))
        yield np.concatenate([tops[index // len(cyclic)], bottoms[index % len(cyclic)]], axis=1)


class _FModule:
    side = "?"

    def __init__(self, algebra: FiniteAlgebra, action, x_action: FpMatrix):
        """The checked constructor, for data from outside: one matrix per
        algebra basis element and X, stacked once by operator_stack, which
        checks their field and shape, and validated."""
        mats = [*action, x_action]
        if len(mats) != algebra.dim + 1:
            raise ValueError("need one action matrix per algebra basis element")
        self._init(algebra, operator_stack(algebra.p, getattr(x_action, "rows", 0), mats))
        self.validate()

    @classmethod
    def _from_structure(cls, algebra: FiniteAlgebra, stack: np.ndarray):
        """The trusted constructor, for a module valid by construction: a
        reduced, C-contiguous (d+1) x n x n int64 stack the package built and
        nothing writes again.  Nothing is checked; the stack becomes the
        module's structure.  Quotients, submodules as modules, localizations,
        duals and the generated modules are built this way."""
        module = cls.__new__(cls)
        module._init(algebra, stack)
        return module

    def _init(self, algebra: FiniteAlgebra, stack: np.ndarray) -> None:
        stack.setflags(write=False)
        self.algebra = algebra
        self._structure = stack
        self.dim = stack.shape[1]
        self._powers: list[FpMatrix] = []
        self._chains: dict[str, list[Subspace]] = {"image": [], "coimage": []}
        self._kernels: dict[int, Subspace] = {}
        self._fitting: int | None = None

    @classmethod
    def zero(cls, algebra: FiniteAlgebra):
        return cls._from_structure(algebra, np.zeros((algebra.dim + 1, 0, 0), dtype=np.int64))

    # -- structure --------------------------------------------------------
    #
    # The (d+1) x dim x dim stack `structure` of rho(e_0), ..., rho(e_(d-1))
    # and then X is all a module stores.  The batched methods read it: one
    # broadcast product stands for a loop over the action matrices.

    @property
    def structure(self) -> np.ndarray:
        """The read-only (d+1) x dim x dim stack; it cannot be rebound, as the
        cached action views read it."""
        return self._structure

    @cached_property
    def action(self) -> tuple[FpMatrix, ...]:
        """rho(e_0), ..., rho(e_(d-1)), as read-only views of the structure."""
        return tuple(FpMatrix._reduced(self.algebra.p, m) for m in self.structure[:-1])

    @cached_property
    def x_action(self) -> FpMatrix:
        """X, as a read-only view of the structure."""
        return FpMatrix._reduced(self.algebra.p, self.structure[-1])

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
        # rho(e_i) rho(e_j) == sum_k table[i, j, k] rho(e_k) for all (i, j) at
        # once: one broadcast product against the table times the flat stack
        acts, d, n = self.structure[:-1], A.dim, self.dim
        products = mulmod(acts[:, None], acts[None, :], A.p)
        expected = mulmod(A.table.reshape(d * d, d), acts.reshape(d, n * n), A.p)
        bad = (products != expected.reshape(d, d, n, n)).any(axis=(2, 3))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise AxiomError(f"action is not multiplicative on ({i},{j})")
        bad = semilinear_defects(A, self.structure, self.side)
        if bad.any():
            raise AxiomError(
                f"{self.side} semilinearity fails on basis element "
                f"{A.labels[int(np.argmax(bad))]}"
            )
        return True

    def is_zero(self) -> bool:
        return self.dim == 0

    def x_power(self, n: int) -> FpMatrix:
        """X^n.  The powers are kept: each new one is one product from the
        last, so every power is built at most once per module."""
        powers = self._powers
        if not powers:
            powers += [FpMatrix.identity(self.algebra.p, self.dim), self.x_action]
        while len(powers) <= n:
            powers.append(self.x_action @ powers[-1])
        return powers[n]

    def x_image(self, k: int) -> Subspace:
        """im X^k = X im X^(k-1): kept, like the powers, in a chain of X."""
        return self._x_chain("image", k)

    def x_coimage(self, k: int) -> Subspace:
        """The row space of X^k, that of X^(k-1) times X: the image chain of
        the dual, whose X is X^T, kept like the images."""
        return self._x_chain("coimage", k)

    def _x_chain(self, name: str, k: int) -> Subspace:
        """Step k of the kept image or coimage chain of X, which starts at
        the whole space, with nothing to eliminate; each later step is
        eliminated once per module, by _x_step."""
        kept = self._chains[name]
        if not kept:
            kept.append(Subspace.full(self.algebra.p, self.dim))
        while len(kept) <= k:
            self._x_step(name)
        return kept[k]

    def _x_step(self, name: str) -> None:
        """Append the next step of a kept chain: the span of the rows B X^T
        (image) or C X (coimage) of the last basis, r x dim for the last
        rank r, in one elimination."""
        kept, X = self._chains[name], self.structure[-1]
        last = kept[-1]
        rows = mulmod(last.basis, X.T if name == "image" else X, last.p)
        kept.append(Subspace._rows(last.p, self.dim, rows))

    def x_kernel(self, k: int) -> Subspace:
        """ker X^k, kept like the powers: each is eliminated at most once per
        module, and ker X^0 is zero, with nothing to eliminate."""
        if k not in self._kernels:
            p, n = self.algebra.p, self.dim
            self._kernels[k] = self.x_power(k).kernel() if k else Subspace.zero(p, n)
        return self._kernels[k]

    def fitting_index(self) -> int:
        """The least e with rank X^e == rank X^(e+1).

        The kernels of the powers of X ascend and their images descend, so
        equal ranks mean ker X^e == ker X^(e+1) and im X^e == im X^(e+1).
        Both then hold one step up: X^(e+2) v = 0 puts X v in
        ker X^(e+1) = ker X^e, and im X^(e+2) = X im X^(e+1) = X im X^e.
        So from e on neither chain moves again (Fitting's lemma), and
        e <= dim.  The torsion and divisibility exponents are both this e.
        rank X^k is the dimension of im X^k and of the row space of X^k, so
        the ranks are read off steps 1, ..., e + 1 of the side's kept chain
        (_side_chain), the one its graded annihilator reads.
        """
        if self._fitting is None:
            e, rank = 0, self.dim
            while (following := self._x_chain(self._side_chain, e + 1).dim) != rank:
                e, rank = e + 1, following
            self._fitting = e
        return self._fitting

    # -- submodules and quotients ------------------------------------------

    def submodule(self, vectors) -> "FSubmodule":
        """The submodule generated by the vectors: their span closed under
        the whole structure, which is closed by construction, on any stack."""
        space = Subspace.from_vectors(self.algebra.p, self.dim, vectors)
        return FSubmodule._closed(self, close_under(space, self.structure))

    def zero_submodule(self) -> "FSubmodule":
        return FSubmodule._closed(self, Subspace.zero(self.algebra.p, self.dim))

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
        n, p = self.dim, self.algebra.p
        acts = self.structure[None, :-1]
        powers = np.array([self.x_power(m).data for m in range(n)], dtype=np.int64)
        powers = powers.reshape(n, 1, n, n)
        words = mulmod(acts, powers, p) if self.side == "left" else mulmod(powers, acts, p)
        return words.reshape(n * self.algebra.dim * n, n)

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
        holds v = rho(1) v, and rho(e_k) and X map each W v back into it.
        The images of all lines are one product, and their spans one
        rref_stack.

        A sum of submodules is a submodule, so the sums need no closure
        either.  They are found level by level: the frontier starts as the
        distinct cyclic submodules, each level eliminates S + C for every
        frontier space S and cyclic C as one stack, and the sums not seen
        before are the next frontier.  Every space enters a frontier once,
        so C_1 + ... + C_k is found at the level after C_1 + ... + C_(k-1)
        entered one: the levels reach every submodule.  The whole module is
        left out of the frontier, as every sum with it is itself.

        Each product and stack is chunked to at most STACK_CELLS cells,
        unless one matrix is larger.  The tests check graded_annihilator_set
        against the result; nothing in the package calls it.
        """
        p, n = self.algebra.p, self.dim
        if p**n > budget:
            raise BudgetError(
                f"submodule enumeration needs {p ** n} vectors, budget is {budget}"
            )
        found = {b"": Subspace.zero(p, n)}
        if n:
            cyclic = _new_spans(p, _line_stacks(p, self._cyclic_words()), found)
            frontier = cyclic
            while frontier := [space for space in frontier if not space.is_full()]:
                frontier = _new_spans(p, _sum_stacks(frontier, cyclic), found)
        return sorted(
            (FSubmodule._closed(self, space) for space in found.values()),
            key=lambda s: (s.space.dim, s.space.basis.tobytes()),
        )

    # -- common plumbing -----------------------------------------------------

    def _graded_annihilator(self) -> GradedTwoSidedIdeal:
        """The chain b_m = {r : rho(r) X^m == 0} (left) or {r : X^m rho(r) == 0}
        (right) for m up to the Fitting index, where it stops for good with
        the kernels and images.

        rho(r) X^m == 0 says that rho(r) kills im X^m, spanned by the rows
        of its basis B_m: B_m rho(r)^T == 0.  X^m rho(r) == 0 says that the
        row space of X^m, spanned by the rows of its basis C_m, goes to zero:
        C_m rho(r) == 0.  So b_m is the relations among the d products of
        the side's basis with the rho(e_i)^T (left) or rho(e_i) (right),
        r_m x dim each for r_m = rank X^m, not dim x dim.
        """
        A, n = self.algebra, self.dim
        acts = self.structure[:-1]
        if self.side == "left":
            acts = acts.transpose(0, 2, 1)
        chain = []
        for m in range(self.fitting_index() + 1):
            basis = self._x_chain(self._side_chain, m).basis
            rows = mulmod(basis, acts, A.p).reshape(A.dim, basis.shape[0] * n)
            # an ideal because rho is multiplicative: rho(sr) = rho(s) rho(r)
            chain.append(Ideal.of_space(A, relations(A.p, rows)))
        return GradedTwoSidedIdeal(A, chain)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _FModule)
            and self.side == other.side
            and self.algebra == other.algebra
            and np.array_equal(self.structure, other.structure)
        )

    def __hash__(self) -> int:
        return hash((self.side, self.algebra, self.structure.shape, self.structure.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.algebra.p}, dim={self.dim})"


class LeftFModule(_FModule):
    side = "left"
    _side_chain = "image"  # rho(r) X^m == 0 reads only im X^m

    def torsion_exponent(self) -> int:
        """Least e with ker(X^e) == ker(X^(e+1)); every x-torsion element dies by x^e."""
        return self.fitting_index()

    def x_torsion(self) -> "FSubmodule":
        return FSubmodule(self, self.x_kernel(self.fitting_index()))

    def is_x_torsion_free(self) -> bool:
        """ker X == 0, read off rank X, the first step of the kept chain."""
        return self.x_image(1).is_full()

    def graded_annihilator(self) -> GradedTwoSidedIdeal:
        """Largest chain (b_n) with rho(b_n) . X^n == 0; stabilizes with im(X^n)."""
        return self._graded_annihilator()

    def annihilator_submodule(self, ideal: GradedTwoSidedIdeal) -> "FSubmodule":
        """Elements killed by every homogeneous piece of the graded ideal.

        With N = ideal.stable_from these are the h with rho(b) X^n h = 0 for b
        in a basis of b_n, n < N, one product per piece; and past N, with
        rho(b) X^(N+j) h = 0 for b in a basis of b_N and all j >= 0.  That says
        X^N h is orthogonal to W, the smallest row space holding the rows of
        those rho(b) and stable under r -> r X: their spin-up under X^T
        (close_under).  So the tail is the one block W X^N, and all one kernel.
        """
        if ideal.algebra != self.algebra:
            raise ValueError("graded ideal lives over a different algebra")
        arrays = (self.structure, *(piece.space.basis for piece in ideal.chain))
        space = _recall(_ANNIHILATOR, self.algebra.p, arrays, self._annihilator_space, ideal)
        return FSubmodule._closed(self, space)

    def _annihilator_space(self, ideal: GradedTwoSidedIdeal) -> Subspace:
        """annihilator_submodule's space, the result _recall stores, checked
        closed by FSubmodule once, here."""
        p, n, N = self.algebra.p, self.dim, ideal.stable_from
        blocks = [
            mulmod(self.rhos(piece.space.basis), self.x_power(m).data, p)
            for m, piece in enumerate(ideal.chain[:N])
        ]
        basis = ideal.chain[N].space.basis
        rows = Subspace._rows(p, n, self.rhos(basis).reshape(basis.shape[0] * n, n))
        stable = close_under(rows, self.structure[-1:].transpose(0, 2, 1))
        blocks.append(mulmod(stable.basis, self.x_power(N).data, p))
        return FSubmodule(self, common_kernel(p, n, blocks)).space


class RightFModule(_FModule):
    side = "right"
    _side_chain = "coimage"  # X^m rho(r) == 0 reads only the row space of X^m

    def divisibility_exponent(self) -> int:
        """Least e with im(X^e) == im(X^(e+1))."""
        return self.fitting_index()

    def is_x_divisible(self) -> bool:
        """im X is everything, read off rank X, the first step of the kept chain."""
        return self.x_coimage(1).is_full()

    def graded_annihilator(self) -> GradedTwoSidedIdeal:
        """Largest chain (b_n) with X^n . rho(b_n) == 0; stabilizes with ker(X^n)."""
        return self._graded_annihilator()

    def times_graded_ideal(self, ideal: GradedTwoSidedIdeal) -> "FSubmodule":
        """The submodule spanned by all m . (b x^n) with b in the n-th piece."""
        if ideal.algebra != self.algebra:
            raise ValueError("graded ideal lives over a different algebra")
        arrays = (self.structure, *(piece.space.basis for piece in ideal.chain))
        space = _recall(_PRODUCT, self.algebra.p, arrays, self._product_space, ideal)
        return FSubmodule._closed(self, space)

    def _product_space(self, ideal: GradedTwoSidedIdeal) -> Subspace:
        """times_graded_ideal's space, the result _recall stores."""
        p, n = self.algebra.p, self.dim
        pieces = [np.zeros((0, n), dtype=np.int64)]
        for m, piece in enumerate(ideal.chain):
            # the columns of X^m rho(b), for every b of the piece's basis
            images = mulmod(self.x_power(m).data, self.rhos(piece.space.basis), p)
            pieces.append(images.transpose(0, 2, 1).reshape(images.shape[0] * n, n))
        return self.submodule(np.vstack(pieces)).space

    def annihilator_chain(self) -> tuple[list[Subspace], int]:
        """Ascending chain (0 : R x^k) = {m : X^k rho(r) m = 0 for all r}.

        This is the universally quantified condition, which is smaller than
        ker(X^k) in general; the two are kept separate on purpose.  The
        chain stops for good at its first repeat: m in (0 : R x^(k+1)) means
        m r x lies in (0 : R x^k) for every r.  X^k rho(r) m == 0 exactly
        when C_k rho(r) m == 0 for the basis C_k of the row space of X^k, so
        each step is the common kernel of the d products C_k rho(e_i).
        """
        p, chain = self.algebra.p, []
        for k in itertools.count():
            rows = mulmod(self.x_coimage(k).basis, self.structure[:-1], p)
            space = common_kernel(p, self.dim, [rows])
            if chain and space == chain[-1]:
                return chain, k - 1
            chain.append(space)

    def eventual_annihilator(self) -> tuple["FSubmodule", int]:
        chain, k = self.annihilator_chain()
        return FSubmodule(self, chain[-1]), k

    def stable_image(self) -> tuple["FSubmodule", int]:
        e = self.fitting_index()
        return FSubmodule(self, self.x_image(e)), e

    def localize(self, index: int) -> "RightFModule":
        """Projection onto an idempotent factor, as a module over that factor.

        For a finite algebra, inverting everything outside a maximal ideal is
        exactly multiplication by the corresponding primitive idempotent.
        """
        return self._localization(index)[0]

    def _localization(self, index: int) -> tuple["RightFModule", FpMatrix]:
        """localize, plus the inclusion of the factor: the basis of im rho(eps) as columns."""
        decomp = self.algebra.local_components()
        if not 0 <= index < len(decomp.components):
            raise ValueError(f"no component with index {index}")
        part = self.rho(decomp.idempotents[index]).image()
        rhos = self.rhos(decomp.component_spaces[index].basis)
        stack = restrict_stack(np.concatenate([rhos, self.structure[-1:]]), part)
        local = RightFModule._from_structure(decomp.components[index], stack)
        return local, FpMatrix._reduced(self.algebra.p, part.basis.T)


class FSubmodule:
    """A subspace closed under the algebra action and under x."""

    __slots__ = ("parent", "space")

    def __init__(self, parent: _FModule, space: Subspace):
        """The checked constructor: space must lie in the parent's ambient
        space and be closed under its whole structure."""
        if space.ambient_dim != parent.dim or space.p != parent.algebra.p:
            raise ValueError("subspace has the wrong ambient space")
        if not space.contains(image_rows(space, parent.structure)):
            raise AxiomError("subspace is not closed under the module structure")
        self.parent = parent
        self.space = space

    @classmethod
    def _closed(cls, parent: _FModule, space: Subspace) -> "FSubmodule":
        """The trusted constructor, for a subspace of the parent's ambient
        space that the package closed under its structure.  Nothing is checked."""
        sub = cls.__new__(cls)
        sub.parent = parent
        sub.space = space
        return sub

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_zero(self) -> bool:
        return self.space.is_zero()

    def as_module(self) -> tuple[_FModule, FpMatrix]:
        """The submodule as a module of its own, plus the inclusion matrix:
        the basis of the space as columns, package-built and frozen."""
        stack = restrict_stack(self.parent.structure, self.space)
        mod = type(self.parent)._from_structure(self.parent.algebra, stack)
        return mod, FpMatrix._reduced(self.space.p, self.space.basis.T)

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


def graded_annihilator_set(module: _FModule) -> frozenset[tuple]:
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
    The radical ideals come from the algebra, so the key holds its table and one.
    """
    A = module.algebra
    arrays = (A.table, A.one, module.structure)
    kind = _GRADED_ANNIHILATOR_SET[module.side]
    return _recall(kind, A.p, arrays, _graded_annihilator_keys, module)


def _graded_annihilator_keys(module: _FModule) -> frozenset[tuple]:
    """graded_annihilator_set's computation, the result _recall stores."""
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
    return frozenset(piece.graded_annihilator().key() for piece in pieces)


# -- distinguished modules ---------------------------------------------------


def natural_frobenius_module(algebra: FiniteAlgebra) -> LeftFModule:
    """The ring acting on itself with x acting as the p-th power map."""
    return twisted_frobenius_module(algebra, algebra.one)


def twisted_frobenius_module(algebra: FiniteAlgebra, c) -> LeftFModule:
    """The regular module with x acting by r -> c * r^p."""
    x_action = algebra.mult_matrix(c) @ algebra.frobenius().matrix
    return _regular_module(LeftFModule, algebra, x_action)


def _regular_module(cls, algebra: FiniteAlgebra, x_action: FpMatrix) -> _FModule:
    """The algebra acting on itself by multiplication, with the given X."""
    stack = np.concatenate([algebra.regular_action, x_action.data[None]])
    return cls._from_structure(algebra, stack)


def twisted_modules_isomorphic(algebra: FiniteAlgebra, c1, c2) -> tuple[bool, np.ndarray | None]:
    """Decide whether the c1- and c2-twisted regular modules are isomorphic.

    Multiplication by u intertwines r -> c1 r^p and r -> c2 r^p exactly when
    u c1 = c2 u^p (take r = 1, and multiply by r^p for the converse), a
    linear condition on u with solution space S.  A primitive idempotent e
    has e^p = e, so S is the sum of the e S, and it holds a unit exactly when
    each e S holds a unit of the local factor eR.  Its non-units form the
    maximal ideal, nil(eR) = nil(R) & eR as eR is Artinian local, a
    subspace, so some e b with b in a basis of S is a unit of eR if any
    element of e S is: the first e b outside nil(R), found for all of them by
    one residue product.  The witness is the sum of one per factor.
    """
    p = algebra.p
    F = algebra.frobenius().matrix
    solutions = (algebra.mult_matrix(c1) - algebra.mult_matrix(c2) @ F).kernel()
    nil = algebra.nilradical().space
    witness = algebra.zero()
    for e in algebra.local_components().idempotents:
        parts = image_rows(solutions, algebra.mult_matrix(e).data[None])
        outside = ((parts - mulmod(parts[:, nil.pivots], nil.basis, p)) % p).any(axis=1)
        if not outside.any():
            return False, None
        witness = (witness + parts[np.argmax(outside)]) % p
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
    return _regular_module(RightFModule, algebra, frob.power(frob.period - 1)), None


# -- homomorphisms -------------------------------------------------------------


def hom_space(source: _FModule, target: _FModule) -> list[FpMatrix]:
    """Basis of the space of structure-preserving maps source -> target: the
    h with h S_i == T_i h for every matrix S_i of the source's structure and
    T_i of the target's, the d action matrices and X alike."""
    if source.side != target.side or source.algebra != target.algebra:
        raise ValueError("modules are not comparable")
    return operator_kernel(source.algebra.p, source.structure, target.structure)


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
