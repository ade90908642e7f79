"""Finite commutative F_p-algebras presented by structure constants.

An algebra of dimension d over F_p is a d x d x d table: table[i][j] is the
coordinate vector of e_i * e_j.  Everything downstream (ideals, Frobenius
powers, Frobenius closure, local decomposition) is exact linear algebra on
those coordinates.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AxiomError
from .linalg import (
    FpMatrix,
    Subspace,
    as_vector,
    check_word_size,
    int_array,
    is_prime,
    mulmod,
    preimage_rows,
    restrict_stack,
    stabilize,
)


def _check_characteristic(p: int) -> None:
    """Refuse p above the single-word limit (ValueError) or not prime (AxiomError)."""
    check_word_size(p)
    if not is_prime(p):
        raise AxiomError(f"characteristic({p}) is not prime")


class FiniteAlgebra:
    """A commutative unital F_p-algebra given by structure constants."""

    def __init__(self, p: int, table, one, labels: list[str] | None = None):
        """The checked constructor, for data from outside: converted, shape-checked, validated."""
        p = int(p)
        table = int_array(table, p)
        if table.ndim != 3 or len(set(table.shape)) != 1:
            raise ValueError(f"structure table must be d x d x d, got {table.shape}")
        dim = table.shape[0]
        if dim < 1:
            raise ValueError("algebra must have dimension at least 1")
        one = as_vector(one, p)
        if one.shape[0] != dim:
            raise ValueError("identity vector has wrong length")
        labels = list(labels) if labels is not None else [f"e{i}" for i in range(dim)]
        if len(labels) != dim:
            raise ValueError("need one label per basis element")
        if not all(isinstance(label, str) for label in labels):
            raise ValueError(f"labels must be strings, got {labels!r}")
        self._init(p, table, one, labels)
        self.validate()

    @classmethod
    def _from_table(cls, p: int, table: np.ndarray, one: np.ndarray, labels: list[str]):
        """The trusted constructor, for the local factors of a decomposition and the
        products of algebras: a reduced, C-contiguous int64 table and identity the
        package built.  Nothing is checked."""
        algebra = cls.__new__(cls)
        algebra._init(p, table, one, labels)
        return algebra

    def _init(self, p: int, table: np.ndarray, one: np.ndarray, labels: list[str]) -> None:
        table.setflags(write=False)
        one.setflags(write=False)
        self.p, self.table, self.one, self.labels = p, table, one, labels
        self.dim = table.shape[0]
        # the regular action: rho(e_i) has column j = e_i e_j = table[i, j]
        self.regular_action = np.ascontiguousarray(table.transpose(0, 2, 1))
        self.regular_action.setflags(write=False)
        self._basis_matrices: tuple[FpMatrix, ...] | None = None
        self._frobenius: FrobeniusData | None = None
        self._local: LocalDecomposition | None = None
        self._nilradical: Ideal | None = None

    # -- axioms ---------------------------------------------------------

    def validate(self) -> bool:
        """Check commutativity, associativity, identity, and primality of p.

        Raises AxiomError naming the first violated axiom and its indices,
        and ValueError for a characteristic above the single-word limit.
        """
        _check_characteristic(self.p)
        t = self.table
        # symmetric with a false diagonal, so its first (i, j) in row-major
        # order has i < j: the first pair a loop over i < j would find
        asymmetric = (t != t.transpose(1, 0, 2)).any(axis=2)
        if asymmetric.any():
            i, j = np.argwhere(asymmetric)[0]
            raise AxiomError(f"commutativity({i},{j})")
        # (e_i e_j) e_k vs e_i (e_j e_k), each one guarded product with inner
        # dimension d: rows (i, j) or (j, k) of t against columns (k, l) of t,
        # or (i, l) of t^(1 0 2), whose row m column (i, l) is t[i, m, l]
        d, p = self.dim, self.p
        left = mulmod(t.reshape(d * d, d), t.reshape(d, d * d), p).reshape(d, d, d, d)
        right = mulmod(t.reshape(d * d, d), t.transpose(1, 0, 2).reshape(d, d * d), p)
        right = right.reshape(d, d, d, d).transpose(2, 0, 1, 3)
        if not np.array_equal(left, right):
            i, j, k = np.argwhere((left != right).any(axis=3))[0]
            raise AxiomError(f"associativity({i},{j},{k})")
        eye = np.eye(self.dim, dtype=np.int64)
        wrong = (self._products(self.one, eye) != eye).any(axis=1)
        if wrong.any():
            raise AxiomError(f"identity({np.argmax(wrong)})")
        return True

    # -- arithmetic on elements -----------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.int64)

    def mul(self, u, v) -> np.ndarray:
        return self._products(as_vector(u, self.p), as_vector(v, self.p))

    def _products(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u * v for reduced coordinate vectors, or row by row for two stacks
        of them (arrays of shape (..., d)).

        Contracting u, then v, with the table, reducing in between: each step
        is a product with inner dimension d that mulmod guards, where one sum
        of d^2 triple products below (p - 1)^3 would overflow int64.
        """
        d = self.dim
        partial = mulmod(u, self.table.reshape(d, d * d), self.p).reshape(*u.shape[:-1], d, d)
        return mulmod(v[..., None, :], partial, self.p)[..., 0, :]

    def power(self, u, k: int) -> np.ndarray:
        """u^k for a coordinate vector u, or for each row of a stack of them:
        square and multiply, with no squaring after the last bit."""
        base = np.asarray(u, dtype=np.int64) % self.p
        result = np.broadcast_to(self.one, base.shape)
        while k:
            if k & 1:
                result = self._products(result, base)
            k >>= 1
            if k:
                base = self._products(base, base)
        return result.copy()

    def _spanning_products(self, gens: np.ndarray) -> np.ndarray:
        """The products g e_j of every row g of a (..., k, d) stack of
        generators with every basis element e_j, as a (..., k d, d) stack.

        A is commutative, associative and unital, so the products g e_j span
        the ideal of the g: g = sum one_j (g e_j), and e_k (g e_j) = g (e_k e_j).
        """
        d = self.dim
        flat = mulmod(gens, self.table.reshape(d, d * d), self.p)
        return flat.reshape(*gens.shape[:-2], gens.shape[-2] * d, d)

    def mult_matrix(self, u) -> FpMatrix:
        """The matrix of multiplication by u (column j = u * e_j)."""
        d = self.dim
        row_products = mulmod(as_vector(u, self.p), self.table.reshape(d, d * d), self.p)
        return FpMatrix._reduced(self.p, row_products.reshape(d, d).T)

    def basis_matrices(self) -> tuple[FpMatrix, ...]:
        """The basis elements' multiplication matrices: cached views of the regular action."""
        if self._basis_matrices is None:
            self._basis_matrices = tuple(FpMatrix._reduced(self.p, m) for m in self.regular_action)
        return self._basis_matrices

    def is_unit(self, u) -> bool:
        return self.mult_matrix(u).is_invertible()

    def element_inverse(self, u) -> np.ndarray:
        sol = self.mult_matrix(u).solve(self.one)
        if sol is None:
            raise ValueError(f"{self.render_element(u)} is not a unit")
        return sol

    def elements(self):
        """All p^dim coordinate vectors."""
        for coords in itertools.product(range(self.p), repeat=self.dim):
            yield np.array(coords, dtype=np.int64)

    # -- Frobenius -------------------------------------------------------

    def frobenius(self) -> "FrobeniusData":
        """The p-th power map as a linear endomorphism, with its cycle data."""
        if self._frobenius is None:
            F = FpMatrix._reduced(self.p, self._basis_frobenius_images().T)
            powers, preperiod, period = stabilize(
                FpMatrix.identity(self.p, self.dim), lambda G: F @ G, lambda G: G.data.tobytes()
            )
            self._frobenius = FrobeniusData(F, preperiod, period, tuple(powers))
        return self._frobenius

    def _basis_frobenius_images(self) -> np.ndarray:
        """The rows e_i^p = L_i^p 1, L_i = rho(e_i), by square and multiply on
        the stacked regular action, for all i at once.  The squares L_i^(2^j)
        and the partial products v_i = L_i^(p mod 2^j) 1 advance together:
        one product L (L | v) per bit gives L^2 and L v, and after the top
        bit, which is 1, only L v is taken."""
        p, d = self.p, self.dim
        squares, vectors, k = self.regular_action, np.tile(self.one, (d, 1)), p
        while k > 1:
            both = mulmod(squares, np.concatenate([squares, vectors[:, :, None]], axis=2), p)
            if k & 1:
                vectors = both[:, :, -1]
            squares, k = both[:, :, :-1], k >> 1
        return mulmod(squares, vectors[:, :, None], p)[:, :, 0]

    def nilradical(self) -> "Ideal":
        """The ideal of nilpotent elements: ker F^preperiod, read off the cycle.

        r is nilpotent exactly when some r^(p^n) vanishes, so nil(R) is the
        union of the kernels of the powers of F.  They ascend, and
        F^(preperiod + period) == F^preperiod, so every one of them lies in
        ker F^preperiod, which is therefore the union.
        """
        if self._nilradical is None:
            frob = self.frobenius()
            space = frob.power(frob.preperiod).kernel()
            self._nilradical = Ideal.of_space(self, space)
        return self._nilradical

    def is_reduced(self) -> bool:
        return self.nilradical().space.is_zero()

    # -- ideals ----------------------------------------------------------

    def ideal(self, generators) -> "Ideal":
        return Ideal(self, generators)

    def zero_ideal(self) -> "Ideal":
        return Ideal.of_space(self, Subspace.zero(self.p, self.dim))

    def unit_ideal(self) -> "Ideal":
        # the ideal of 1 is all of A, so it needs no closure
        return Ideal._of_rows(self, self.one[None, :], Subspace.full(self.p, self.dim))

    # -- local structure --------------------------------------------------

    def local_components(self) -> "LocalDecomposition":
        if self._local is None:
            self._local = _decompose(self)
        return self._local

    def is_local(self) -> bool:
        return len(self.local_components().components) == 1

    # -- rendering ---------------------------------------------------------

    def render_element(self, v) -> str:
        v = as_vector(v, self.p)
        terms = []
        for i, c in enumerate(v):
            if c == 0:
                continue
            if self.labels[i] == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(self.labels[i])
            else:
                terms.append(f"{c}*{self.labels[i]}")
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other) -> bool:
        # nearly every comparison is of an algebra with itself
        return other is self or (
            isinstance(other, FiniteAlgebra)
            and self.p == other.p
            and self.dim == other.dim
            and np.array_equal(self.table, other.table)
            and np.array_equal(self.one, other.one)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.dim, self.table.tobytes(), self.one.tobytes()))

    def __repr__(self) -> str:
        return f"FiniteAlgebra(p={self.p}, dim={self.dim}, labels={self.labels})"


@dataclass(frozen=True)
class FrobeniusData:
    """The p-power endomorphism with the least (preperiod, period) of its powers.

    powers holds F^0, ..., F^(preperiod + period - 1), the distinct powers.
    """

    matrix: FpMatrix
    preperiod: int
    period: int
    powers: tuple[FpMatrix, ...]

    def power(self, n: int) -> FpMatrix:
        """F^n; past the preperiod the powers repeat with the period."""
        if n >= self.preperiod:
            n = self.preperiod + (n - self.preperiod) % self.period
        return self.powers[n]

    @functools.cached_property
    def stack(self) -> np.ndarray:
        """F^1, ..., F^(preperiod + period - 1) as one read-only array, built
        once (the reshape keeps three axes when F = I and it is empty)."""
        d = self.matrix.rows
        stack = np.array([G.data for G in self.powers[1:]], dtype=np.int64).reshape(-1, d, d)
        stack.setflags(write=False)
        return stack


class Ideal:
    """An ideal, tracked as generators plus its canonical underlying subspace.

    Both are read-only properties, so the two cannot drift apart."""

    def __init__(self, algebra: FiniteAlgebra, generators):
        """The checked constructor: generators from outside, each of length dim."""
        rows = [as_vector(g, algebra.p) for g in generators]
        if any(g.shape[0] != algebra.dim for g in rows):
            raise ValueError("generator has wrong length")
        self._init(algebra, np.array(rows, dtype=np.int64).reshape(-1, algebra.dim), None)

    @classmethod
    def _of_rows(cls, algebra: FiniteAlgebra, rows: np.ndarray, space: Subspace | None = None):
        """The trusted constructor: the ideal of the rows of a reduced k x d int64
        array the package built, with its canonical subspace if the caller has it."""
        ideal = cls.__new__(cls)
        ideal._init(algebra, rows, space)
        return ideal

    @classmethod
    def of_space(cls, algebra: FiniteAlgebra, space: Subspace) -> "Ideal":
        """Trusted constructor: the ideal whose canonical subspace is space, which
        the caller guarantees is an ideal of algebra, generated by its basis rows."""
        return cls._of_rows(algebra, space.basis, space)

    def _init(self, algebra: FiniteAlgebra, rows: np.ndarray, space: Subspace | None) -> None:
        rows.setflags(write=False)
        self.algebra = algebra
        self._rows = rows
        if space is None:
            space = Subspace._rows(algebra.p, algebra.dim, algebra._spanning_products(rows))
        self._space = space

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        return tuple(self._rows)

    @property
    def space(self) -> Subspace:
        return self._space

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_zero(self) -> bool:
        return self.space.is_zero()

    def contains(self, v) -> bool:
        return self.space.contains(v)

    def __le__(self, other: "Ideal") -> bool:
        return self.space <= other.space

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.algebra == other.algebra
            and self.space == other.space
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.space))

    def __add__(self, other: "Ideal") -> "Ideal":
        return Ideal.of_space(self.algebra, self.space + other.space)

    def frobenius_power(self, n: int) -> "Ideal":
        """The ideal generated by the p^n-th powers of the stored generators."""
        F = self.algebra.frobenius().power(n)
        return Ideal._of_rows(self.algebra, mulmod(self._rows, F.data.T, F.p))

    def frobenius_closure(self) -> tuple["Ideal", int]:
        data = frobenius_closure_data(self)
        return data.closure, data.exponent

    def __repr__(self) -> str:
        gens = ", ".join(self.algebra.render_element(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


@dataclass(frozen=True)
class ClosureData:
    closure: "Ideal"
    exponent: int  # the power of p itself, e.g. 4
    chain: tuple[Subspace, ...]  # c_0, c_1, ... up to the detected cycle
    preperiod: int
    period: int


def frobenius_closure_data(ideal: Ideal) -> ClosureData:
    """Frobenius closure of an ideal a, with the least test exponent Q.

    c_n = (F^n)^-1(a^[p^n]) = {r : r^(p^n) lies in the n-th Frobenius power
    of a} is an ascending chain, but consecutive equality is NOT a valid
    stopping rule: the chain can pause and grow again (it does for (t^2) in
    F_2[t]/(t^3)).  The chain runs over the distinct powers F^0, ...,
    F^(preperiod + period - 1), and only c_0, ..., c_preperiod are computed.

    Lemma: c_n == c_preperiod for every n >= preperiod, so a^F is
    c_preperiod and the rest of the cycle needs no elimination.  Proof: c_n
    is a function of F^n alone, as a^[p^n] is generated by the images
    F^n(g_i) of the generators; F^(n + period) == F^n for n >= preperiod, so
    c_(n + period) == c_n there.  The chain ascends: r^(p^n) in a^[p^n]
    gives r^(p^(n+1)) = (r^(p^n))^p in a^[p^(n+1)], as the p-th power of a
    sum of multiples s_i g_i^(p^n) is the sum of the s_i^p g_i^(p^(n+1))
    (Frobenius is additive).  An ascending chain that is periodic from
    preperiod on is constant from there: c_preperiod <= c_n <=
    c_(preperiod + period) == c_preperiod.  The union of the chain is the
    closure a^F, which is therefore c_preperiod.

    Lemma: Q = p^m for the least m with c_m == a^F.  Proof: a <= a^F gives
    a^[p^m] <= (a^F)^[p^m], and (a^F)^[p^m] is generated by F^m(a^F), as F^m
    is additive.  So (a^F)^[p^m] == a^[p^m] exactly when F^m(a^F) <= a^[p^m],
    that is a^F <= c_m; and c_m <= a^F always, as the chain ascends to a^F.
    The test exponent is therefore read off the chain, with no closure.

    c_0 = (F^0)^-1(a^[1]) = a is the ideal's canonical space, read off with
    no elimination.  The inputs of steps 1, ..., preperiod come from two
    products over the cached stack of the powers F^1, ..., F^preperiod: the
    images F^n(g_i) of the generators, then their products with the basis
    elements, which span a^[p^n].  Each such c_n is then one preimage_rows
    elimination, checked to ascend, and no ideal is built per step; the
    closure takes preperiod eliminations in all.
    """
    A = ideal.algebra
    frob = A.frobenius()
    preperiod, period = frob.preperiod, frob.period
    powers = frob.stack[:preperiod]
    # row i of images[n - 1] is F^n(g_i) = powers[n - 1] @ g_i
    images = mulmod(ideal._rows, powers.transpose(0, 2, 1), A.p)
    chain = [ideal.space]
    for G, bracket in zip(powers, A._spanning_products(images)):
        chain.append(preimage_rows(A.p, G, bracket))
        if not chain[-2] <= chain[-1]:
            raise AxiomError("frobenius closure chain is not ascending")
    closure_space = chain[-1]
    chain += [closure_space] * (period - 1)
    # the chain ascends to closure_space, reached by the preperiod: c_m is
    # closure_space exactly when their dimensions agree
    m = next(m for m, c in enumerate(chain) if c.dim == closure_space.dim)
    return ClosureData(Ideal.of_space(A, closure_space), A.p**m, tuple(chain), preperiod, period)


@dataclass(frozen=True)
class LocalDecomposition:
    """Primitive orthogonal idempotents and their local factors, frozen, as callers share it."""

    algebra: FiniteAlgebra
    idempotents: tuple[np.ndarray, ...]
    components: tuple[FiniteAlgebra, ...]
    component_spaces: tuple[Subspace, ...]  # each eps_i A; its basis rows are the factor basis

    def lift(self, index: int, v) -> np.ndarray:
        """Coordinates in the ambient algebra of a factor element."""
        v = as_vector(v, self.algebra.p)
        return (v @ self.component_spaces[index].basis) % self.algebra.p

    def project(self, index: int, v) -> np.ndarray:
        """Factor coordinates of eps_i * v."""
        w = self.algebra.mul(self.idempotents[index], v)
        coords = self.component_spaces[index].coordinates(w)
        if coords is None:
            raise AxiomError(f"eps_{index} * v lies outside factor {index}")
        return coords

    def radical_ideal(self, factors) -> Ideal:
        """nil(A) + sum of eps_i A over the given factors: as A = prod A_i with
        A_i local, these are its radical ideals (maximal: all factors but one)."""
        A = self.algebra
        space = sum((self.component_spaces[i] for i in factors), A.nilradical().space)
        return Ideal.of_space(A, space)


def _primitive_idempotents(A: FiniteAlgebra) -> list[np.ndarray]:
    """Split 1 into primitive idempotents inside K = ker(F - I) = {r : r^p = r}.

    K is isomorphic to F_p^r, one factor per local factor of A, and holds
    every idempotent.  If a basis vector b of K is no scalar on a part eK,
    its coordinates b_i there differ, and w = (b + a)e for a = -b_i splits e
    by whether w is zero, a nonzero square or a non-square (p = 2: zero or
    not).  The pieces go back on the worklist until b is a scalar on each;
    after every b, each part e has eK = F_p e and is primitive.
    """
    p = A.p
    K = (A.frobenius().matrix - FpMatrix.identity(p, A.dim)).kernel()
    half = pow(2, -1, p) if p > 2 else 0
    parts = [A.one.copy()]
    for b in K.basis:
        refined, pending = [], parts
        while pending:
            e = pending.pop()
            be = A._products(b, e)
            # be lies in F_p e exactly when it is c e for c = be[i] / e[i], at
            # the leading entry i of e (e is nonzero)
            i = int(np.flatnonzero(e)[0])
            scalar = np.array_equal(be, int(be[i]) * pow(int(e[i]), -1, p) % p * e % p)
            for a in range(0 if scalar else p):
                w = (be + a * e) % p
                if p == 2:
                    pieces = [w, (e - w) % p]
                else:
                    y = A.mul(A.power(w, (p - 1) // 2), e)
                    z = A.mul(y, y)
                    pieces = [(e - z) % p, (z + y) * half % p, (z - y) * half % p]
                pieces = [v for v in pieces if v.any()]
                if len(pieces) >= 2:
                    pending.extend(pieces)
                    break
            else:
                refined.append(e)
        parts = refined
    if len(parts) != K.dim:
        raise AxiomError(f"{len(parts)} primitive idempotents for a fixed space of dim {K.dim}")
    return sorted(parts, key=lambda v: tuple(v))


def _decompose(A: FiniteAlgebra) -> LocalDecomposition:
    primitive = _primitive_idempotents(A)

    # every product e_i e_j at once; the first pair i < j in row-major order
    # is the first a loop over i < j would find
    parts = np.array(primitive, dtype=np.int64)
    overlap = np.triu(A._products(parts[:, None, :], parts[None, :, :]).any(axis=2), 1)
    if overlap.any():
        i, j = np.argwhere(overlap)[0]
        raise AxiomError(f"idempotents {i} and {j} are not orthogonal")
    if not np.array_equal(parts.sum(axis=0) % A.p, A.one):
        raise AxiomError("primitive idempotents do not sum to the identity")

    components, spaces = [], []
    for e in primitive:
        e.setflags(write=False)
        space = A.mult_matrix(e).image()
        # rho(b_i) for the factor basis rows, one product with the regular action;
        # table[i][j] holds the coordinates of b_i b_j, column j of rho(b_i) there
        rhos = mulmod(space.basis, A.regular_action.reshape(A.dim, A.dim**2), A.p)
        table = restrict_stack(rhos.reshape(space.dim, A.dim, A.dim), space).transpose(0, 2, 1)
        labels = [f"b{i}" for i in range(space.dim)]
        # e is idempotent (orthogonal parts summing to 1): eA is an algebra, built trusted
        table, one = np.ascontiguousarray(table), space.coordinates(e)
        components.append(FiniteAlgebra._from_table(A.p, table, one, labels))
        spaces.append(space)

    if sum(c.dim for c in components) != A.dim:
        raise AxiomError("component dimensions do not sum to the algebra dimension")
    return LocalDecomposition(A, tuple(primitive), tuple(components), tuple(spaces))


# -- standard constructions ------------------------------------------------


def prime_field(p: int) -> FiniteAlgebra:
    return FiniteAlgebra(p, [[[1]]], [1], labels=["1"])


def truncated_polynomial_algebra(p: int, n: int, var: str = "t") -> FiniteAlgebra:
    """F_p[t]/(t^n) with basis 1, t, ..., t^(n-1)."""
    return _monogenic_algebra(p, [0] * n + [1], var)


def extension_field(p: int, min_poly: list[int], var: str = "u") -> FiniteAlgebra:
    """F_p[u]/(m(u)) for the monic m whose coefficients of 1, u, ..., u^n,
    the leading 1 included, are min_poly: a field iff m is irreducible,
    which validation does not check."""
    return _monogenic_algebra(p, min_poly, var)


def _monogenic_algebra(p: int, coeffs, var: str) -> FiniteAlgebra:
    """F_p[u]/(m(u)), basis 1, u, ..., u^(n-1), for the monic m of degree n >= 1
    with integer coefficients coeffs.  Row j of its companion matrix U is
    u * u^j mod m, so row j of U^i is u^(i+j) mod m = e_i e_j: table[i] = U^i."""
    if [int(c) for c in coeffs] != list(coeffs):
        raise ValueError(f"polynomial coefficients must be integers, got {coeffs!r}")
    n = len(coeffs) - 1
    if n < 1 or coeffs[-1] != 1:
        raise ValueError(f"need a monic polynomial of degree >= 1, got coefficients {coeffs!r}")
    p = int(p)
    _check_characteristic(p)
    companion = np.eye(n, k=1, dtype=np.int64)
    companion[-1] = [(-int(c)) % p for c in coeffs[:-1]]
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(n - 1):
        powers.append(mulmod(powers[-1], companion, p))
    labels = ["1"] + [var if k == 1 else f"{var}^{k}" for k in range(1, n)]
    return FiniteAlgebra(p, np.array(powers), powers[0][0], labels=labels)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """a x b, built trusted: the product of two algebras is one, with the
    block-diagonal table and the identity (1, 1), so nothing is validated again."""
    if a.p != b.p:
        raise ValueError("factors must share the characteristic")
    d = a.dim + b.dim
    table = np.zeros((d, d, d), dtype=np.int64)
    table[: a.dim, : a.dim, : a.dim] = a.table
    table[a.dim :, a.dim :, a.dim :] = b.table
    one = np.concatenate([a.one, b.one])
    labels = [f"({lab},0)" for lab in a.labels] + [f"(0,{lab})" for lab in b.labels]
    return FiniteAlgebra._from_table(a.p, table, one, labels)
