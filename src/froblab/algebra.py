"""Finite commutative F_p-algebras presented by structure constants.

An algebra of dimension d over F_p is a d x d x d table: table[i][j] is the
coordinate vector of e_i * e_j.  Everything downstream (ideals, Frobenius
powers, Frobenius closure, local decomposition) is exact linear algebra on
those coordinates.
"""
from __future__ import annotations

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
    restrict,
    stabilize,
)


class FiniteAlgebra:
    """A commutative unital F_p-algebra given by structure constants."""

    def __init__(self, p: int, table, one, labels: list[str] | None = None):
        self.p = int(p)
        self.table = int_array(table, self.p)
        if self.table.ndim != 3 or len({self.table.shape[0], self.table.shape[1], self.table.shape[2]}) != 1:
            raise ValueError(f"structure table must be d x d x d, got {self.table.shape}")
        self.dim = self.table.shape[0]
        if self.dim < 1:
            raise ValueError("algebra must have dimension at least 1")
        self.one = as_vector(one, self.p)
        if self.one.shape[0] != self.dim:
            raise ValueError("identity vector has wrong length")
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise ValueError("need one label per basis element")
        self.table.setflags(write=False)
        self.one.setflags(write=False)
        self._basis_matrices: tuple[FpMatrix, ...] | None = None
        self._frobenius: FrobeniusData | None = None
        self._local: LocalDecomposition | None = None
        self._nilradical: Ideal | None = None
        self.validate()

    # -- axioms ---------------------------------------------------------

    def validate(self) -> bool:
        """Check commutativity, associativity, identity, and primality of p.

        Raises AxiomError naming the first violated axiom and its indices,
        and ValueError for a characteristic above the single-word limit.
        """
        check_word_size(self.p)
        if not is_prime(self.p):
            raise AxiomError(f"characteristic({self.p}) is not prime")
        t = self.table
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if not np.array_equal(t[i, j], t[j, i]):
                    raise AxiomError(f"commutativity({i},{j})")
        # (e_i e_j) e_k vs e_i (e_j e_k)
        left = np.einsum("ijm,mkl->ijkl", t, t) % self.p
        right = np.einsum("jkm,iml->ijkl", t, t) % self.p
        if not np.array_equal(left, right):
            i, j, k = np.argwhere((left != right).any(axis=3))[0]
            raise AxiomError(f"associativity({i},{j},{k})")
        for i in range(self.dim):
            e = np.zeros(self.dim, dtype=np.int64)
            e[i] = 1
            if not np.array_equal(self.mul(self.one, e), e):
                raise AxiomError(f"identity({i})")
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
        """u^k for a coordinate vector u, or for each row of a stack of them."""
        base = np.asarray(u, dtype=np.int64) % self.p
        result = np.broadcast_to(self.one, base.shape)
        while k:
            if k & 1:
                result = self._products(result, base)
            base = self._products(base, base)
            k >>= 1
        return result.copy()

    def mult_matrix(self, u) -> FpMatrix:
        """The matrix of multiplication by u (column j = u * e_j)."""
        u = as_vector(u, self.p)
        m = np.tensordot(u, self.table, axes=(0, 0)).T % self.p
        return FpMatrix._reduced(self.p, m)

    def basis_matrices(self) -> tuple[FpMatrix, ...]:
        """The multiplication matrices of the basis elements, computed once."""
        if self._basis_matrices is None:
            eye = np.eye(self.dim, dtype=np.int64)
            self._basis_matrices = tuple(self.mult_matrix(eye[i]) for i in range(self.dim))
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
            # column i is e_i^p: one square-and-multiply on all the e_i at once
            F = FpMatrix(self.p, self.power(np.eye(self.dim, dtype=np.int64), self.p).T)
            powers, preperiod, period = stabilize(
                FpMatrix.identity(self.p, self.dim), lambda G: F @ G, lambda G: G.data.tobytes()
            )
            self._frobenius = FrobeniusData(F, preperiod, period, tuple(powers))
        return self._frobenius

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
        return Ideal(self, [self.one], space=Subspace.full(self.p, self.dim))

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


class Ideal:
    """An ideal, tracked as generators plus its canonical underlying subspace."""

    def __init__(self, algebra: FiniteAlgebra, generators, space: Subspace | None = None):
        self.algebra = algebra
        self.generators = [as_vector(g, algebra.p) for g in generators]
        for g in self.generators:
            if g.shape[0] != algebra.dim:
                raise ValueError("generator has wrong length")
        if space is None:
            # A is commutative, associative and unital, so the products g e_j
            # span the ideal: g = sum one_j (g e_j), and e_k (g e_j) = g (e_k e_j)
            d, p = algebra.dim, algebra.p
            G = np.array(self.generators, dtype=np.int64).reshape(-1, d)
            products = mulmod(G, algebra.table.reshape(d, d * d), p).reshape(-1, d)
            space = Subspace.from_vectors(p, d, products)
        self.space = space

    @classmethod
    def of_space(cls, algebra: FiniteAlgebra, space: Subspace) -> "Ideal":
        """Trusted constructor: the ideal whose canonical subspace is space,
        which the caller guarantees is an ideal of algebra.  Its generators
        are the basis rows of space."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.generators = list(space.basis)
        out.space = space
        return out

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_zero(self) -> bool:
        return self.space.is_zero()

    def is_unit_ideal(self) -> bool:
        return self.space.contains(self.algebra.one)

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
        return Ideal(self.algebra, [F.apply(g) for g in self.generators])

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
    F_2[t]/(t^3)).  Both c_n and the Frobenius powers are functions of the
    n-th power of the Frobenius matrix, so the chain runs over the distinct
    powers, up to the point where that matrix revisits a state; from the
    preperiod on it is periodic and ascending, hence constant, and a^F is
    c_preperiod.

    Lemma: Q = p^m for the least m with c_m == a^F.  Proof: a <= a^F gives
    a^[p^m] <= (a^F)^[p^m], and (a^F)^[p^m] is generated by F^m(a^F), as F^m
    is additive.  So (a^F)^[p^m] == a^[p^m] exactly when F^m(a^F) <= a^[p^m],
    that is a^F <= c_m; and c_m <= a^F always, as the chain ascends to a^F.
    The test exponent is therefore read off the chain, with no closure.
    """
    A = ideal.algebra
    frob = A.frobenius()
    chain: list[Subspace] = []
    for G in frob.powers:
        bracket = Ideal(A, [G.apply(g) for g in ideal.generators])
        chain.append(G.preimage(bracket.space))
        if len(chain) > 1 and not (chain[-2] <= chain[-1]):
            raise AxiomError("frobenius closure chain is not ascending")
    preperiod, period = frob.preperiod, frob.period
    closure_space = chain[preperiod]
    closure = Ideal.of_space(A, closure_space)
    m = next((m for m, c in enumerate(chain) if c == closure_space), None)
    if m is None:
        raise RuntimeError(
            "no test exponent within the Frobenius cycle; this is a bug"
        )
    return ClosureData(closure, A.p**m, tuple(chain), preperiod, period)


@dataclass
class LocalDecomposition:
    """Primitive orthogonal idempotents and the local factors they cut out."""

    algebra: FiniteAlgebra
    idempotents: list[np.ndarray]
    components: list[FiniteAlgebra]
    component_spaces: list[Subspace]  # each factor eps_i A; its basis rows are the factor basis

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
            be = A.mul(b, e)
            scalar = Subspace.from_vectors(p, A.dim, [e, be]).dim == 1
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

    total = A.zero()
    for i, e in enumerate(primitive):
        total = (total + e) % A.p
        for j in range(i + 1, len(primitive)):
            if A.mul(e, primitive[j]).any():
                raise AxiomError(f"idempotents {i} and {j} are not orthogonal")
    if not np.array_equal(total, A.one):
        raise AxiomError("primitive idempotents do not sum to the identity")

    components, spaces = [], []
    for e in primitive:
        space = A.mult_matrix(e).image()
        # table[i][j] holds the coordinates of b_i b_j, column j of restrict(b_i)
        table = np.array([restrict(A.mult_matrix(b), space).data.T for b in space.basis])
        one = space.coordinates(e)
        comp = FiniteAlgebra(A.p, table, one, labels=[f"b{i}" for i in range(space.dim)])
        components.append(comp)
        spaces.append(space)

    if sum(c.dim for c in components) != A.dim:
        raise AxiomError("component dimensions do not sum to the algebra dimension")
    return LocalDecomposition(A, primitive, components, spaces)


# -- standard constructions ------------------------------------------------


def prime_field(p: int) -> FiniteAlgebra:
    return FiniteAlgebra(p, [[[1]]], [1], labels=["1"])


def truncated_polynomial_algebra(p: int, n: int, var: str = "t") -> FiniteAlgebra:
    """F_p[t]/(t^n) with basis 1, t, ..., t^(n-1)."""
    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                table[i, j, i + j] = 1
    one = np.zeros(n, dtype=np.int64)
    one[0] = 1
    labels = ["1"] + [var if k == 1 else f"{var}^{k}" for k in range(1, n)]
    return FiniteAlgebra(p, table, one, labels=labels)


def extension_field(p: int, min_poly: list[int], var: str = "u") -> FiniteAlgebra:
    """F_p[u]/(m(u)) for a monic polynomial m given by its coefficient list.

    min_poly lists coefficients of 1, u, u^2, ... including the leading 1.
    The result is a field iff m is irreducible; validation does not check
    irreducibility.
    """
    n = len(min_poly) - 1
    if n < 1 or min_poly[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    reduction = [(-c) % p for c in min_poly[:-1]]

    def times_u(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=np.int64)
        out[1:] = vec[:-1]
        out = (out + vec[-1] * np.array(reduction, dtype=np.int64)) % p
        return out

    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        base = np.zeros(n, dtype=np.int64)
        base[i] = 1
        for j in range(n):
            if j == 0:
                prod = base.copy()
            else:
                prod = times_u(prod)
            table[i, j] = prod
    one = np.zeros(n, dtype=np.int64)
    one[0] = 1
    labels = ["1"] + [var if k == 1 else f"{var}^{k}" for k in range(1, n)]
    return FiniteAlgebra(p, table, one, labels=labels)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    if a.p != b.p:
        raise ValueError("factors must share the characteristic")
    d = a.dim + b.dim
    table = np.zeros((d, d, d), dtype=np.int64)
    table[: a.dim, : a.dim, : a.dim] = a.table
    table[a.dim :, a.dim :, a.dim :] = b.table
    one = np.concatenate([a.one, b.one])
    labels = [f"({lab},0)" for lab in a.labels] + [f"(0,{lab})" for lab in b.labels]
    return FiniteAlgebra(a.p, table, one, labels=labels)
