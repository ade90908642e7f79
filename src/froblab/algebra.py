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

from .errors import AxiomError, BudgetError
from .linalg import (
    FpMatrix,
    Subspace,
    as_vector,
    close_under,
    quotient_representatives,
    stabilize,
)

DEFAULT_ENUMERATION_BOUND = 1 << 20


class FiniteAlgebra:
    """A commutative unital F_p-algebra given by structure constants."""

    def __init__(self, p: int, table, one, labels: list[str] | None = None, check: bool = True):
        self.p = int(p)
        self.table = np.asarray(table, dtype=np.int64) % self.p
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
        self._frobenius: FrobeniusData | None = None
        self._local: LocalDecomposition | None = None
        if check:
            self.validate()

    # -- axioms ---------------------------------------------------------

    def validate(self) -> bool:
        """Check commutativity, associativity, identity, and primality of p.

        Raises AxiomError naming the first violated axiom and its indices.
        """
        from .linalg import is_prime

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
        u = as_vector(u, self.p)
        v = as_vector(v, self.p)
        return np.einsum("i,j,ijk->k", u, v, self.table) % self.p

    def power(self, u, k: int) -> np.ndarray:
        result = self.one.copy()
        base = as_vector(u, self.p)
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def mult_matrix(self, u) -> FpMatrix:
        """The matrix of multiplication by u (column j = u * e_j)."""
        u = as_vector(u, self.p)
        m = np.tensordot(u, self.table, axes=(0, 0)).T % self.p
        return FpMatrix(self.p, m)

    def basis_matrices(self) -> list[FpMatrix]:
        eye = np.eye(self.dim, dtype=np.int64)
        return [self.mult_matrix(eye[i]) for i in range(self.dim)]

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

    def units(self):
        for u in self.elements():
            if self.is_unit(u):
                yield u

    # -- Frobenius -------------------------------------------------------

    def frobenius(self) -> "FrobeniusData":
        """The p-th power map as a linear endomorphism, with its cycle data."""
        if self._frobenius is None:
            eye = np.eye(self.dim, dtype=np.int64)
            cols = [self.power(eye[i], self.p) for i in range(self.dim)]
            F = FpMatrix(self.p, np.array(cols, dtype=np.int64).T)
            powers, preperiod, period = stabilize(
                FpMatrix.identity(self.p, self.dim), lambda G: F @ G, lambda G: G.data.tobytes()
            )
            self._frobenius = FrobeniusData(F, preperiod, period, tuple(powers))
        return self._frobenius

    def nilradical(self) -> "Ideal":
        """The ideal of nilpotent elements, as the kernel of an iterated Frobenius."""
        m = 0
        while self.p**m < self.dim:
            m += 1
        space = (self.frobenius().matrix ** m).kernel()
        return Ideal(self, [row for row in space.basis], space=space)

    def is_reduced(self) -> bool:
        return self.nilradical().space.is_zero()

    # -- ideals ----------------------------------------------------------

    def ideal(self, generators) -> "Ideal":
        return Ideal(self, generators)

    def zero_ideal(self) -> "Ideal":
        return Ideal(self, [])

    def unit_ideal(self) -> "Ideal":
        return Ideal(self, [self.one])

    # -- local structure --------------------------------------------------

    def local_components(self, bound: int | None = None) -> "LocalDecomposition":
        if self._local is None:
            self._local = _decompose(self, bound or DEFAULT_ENUMERATION_BOUND)
        return self._local

    def is_local(self, bound: int | None = None) -> bool:
        return len(self.local_components(bound).components) == 1

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
        return (
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


class Ideal:
    """An ideal, tracked as generators plus its canonical underlying subspace."""

    def __init__(self, algebra: FiniteAlgebra, generators, space: Subspace | None = None):
        self.algebra = algebra
        self.generators = [as_vector(g, algebra.p) for g in generators]
        for g in self.generators:
            if g.shape[0] != algebra.dim:
                raise ValueError("generator has wrong length")
        if space is None:
            span = Subspace.from_vectors(algebra.p, algebra.dim, self.generators)
            space = close_under(span, algebra.basis_matrices())
        self.space = space

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
        space = self.space + other.space
        return Ideal(self.algebra, [row for row in space.basis], space=space)

    def frobenius_power(self, n: int) -> "Ideal":
        """The ideal generated by the p^n-th powers of the stored generators."""
        F = self.algebra.frobenius().matrix ** n
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
    """Frobenius closure of an ideal, with the least test exponent Q.

    c_n = {r : r^(p^n) lies in the n-th Frobenius power of the ideal} is an
    ascending chain, but consecutive equality is NOT a valid stopping rule:
    the chain can pause and grow again (it does for (t^2) in F_2[t]/(t^3)).
    Both c_n and the Frobenius powers are functions of the n-th power of the
    Frobenius matrix, so the chain runs over the distinct powers, up to the
    point where that matrix revisits a state.
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
    closure = Ideal(A, [row for row in closure_space.basis], space=closure_space)
    exponent = None
    for m in range(preperiod + period + 1):
        if closure.frobenius_power(m) == ideal.frobenius_power(m):
            exponent = A.p**m
            break
    if exponent is None:
        raise RuntimeError(
            "no test exponent within the Frobenius cycle; this is a bug"
        )
    return ClosureData(closure, exponent, tuple(chain), preperiod, period)


@dataclass
class LocalDecomposition:
    """Primitive orthogonal idempotents and the local factors they cut out."""

    algebra: FiniteAlgebra
    idempotents: list[np.ndarray]
    components: list[FiniteAlgebra]
    component_bases: list[np.ndarray]  # rows: basis of each factor inside the algebra
    maximal_ideals: list[Ideal]  # nilradical of each factor, in factor coordinates

    def lift(self, index: int, v) -> np.ndarray:
        """Coordinates in the ambient algebra of a factor element."""
        v = as_vector(v, self.algebra.p)
        return (v @ self.component_bases[index]) % self.algebra.p

    def project(self, index: int, v) -> np.ndarray:
        """Factor coordinates of eps_i * v."""
        A = self.algebra
        w = A.mul(self.idempotents[index], v)
        space = Subspace.from_vectors(A.p, A.dim, self.component_bases[index])
        coords = space.coordinates(w)
        assert coords is not None
        return coords

    def maximal_ideal_in_ambient(self, index: int) -> Ideal:
        """The maximal ideal of the algebra sitting over the given factor."""
        A = self.algebra
        gens = [self.lift(index, g) for g in self.maximal_ideals[index].space.basis]
        for j, basis in enumerate(self.component_bases):
            if j != index:
                gens.extend(basis)
        return Ideal(A, gens)


def _decompose(A: FiniteAlgebra, bound: int) -> LocalDecomposition:
    if A.p**A.dim > bound:
        raise BudgetError(
            f"enumeration bound: idempotent search needs {A.p ** A.dim} elements, bound is {bound}"
        )
    idempotents = [e for e in A.elements() if np.array_equal(A.mul(e, e), e)]
    nonzero = [e for e in idempotents if e.any()]

    def below(g, e) -> bool:
        return np.array_equal(A.mul(g, e), g)

    primitive = []
    for e in nonzero:
        strictly_smaller = [
            g for g in nonzero if below(g, e) and not np.array_equal(g, e)
        ]
        if not strictly_smaller:
            primitive.append(e)
    primitive.sort(key=lambda v: tuple(v))

    total = A.zero()
    for i, e in enumerate(primitive):
        total = (total + e) % A.p
        for j in range(i + 1, len(primitive)):
            if A.mul(e, primitive[j]).any():
                raise AxiomError(f"idempotents {i} and {j} are not orthogonal")
    if not np.array_equal(total, A.one):
        raise AxiomError("primitive idempotents do not sum to the identity")

    components, bases, maximals = [], [], []
    for e in primitive:
        space = A.mult_matrix(e).image()
        basis = space.basis
        k = space.dim
        table = np.zeros((k, k, k), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                prod = A.mul(basis[i], basis[j])
                coords = space.coordinates(prod)
                assert coords is not None
                table[i, j] = coords
        one = space.coordinates(e)
        comp = FiniteAlgebra(A.p, table, one, labels=[f"b{i}" for i in range(k)])
        components.append(comp)
        bases.append(basis)
        maximals.append(comp.nilradical())

    if sum(c.dim for c in components) != A.dim:
        raise AxiomError("component dimensions do not sum to the algebra dimension")
    for comp, mx in zip(components, maximals):
        # local check: everything outside the nilradical must be a unit
        if comp.p**comp.dim <= 4096:
            candidates = comp.elements()
        else:
            candidates = iter(
                quotient_representatives(Subspace.full(comp.p, comp.dim), mx.space)
            )
        for v in candidates:
            if not mx.contains(v) and not comp.is_unit(v):
                raise AxiomError("component is not local")
    return LocalDecomposition(A, primitive, components, bases, maximals)


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
