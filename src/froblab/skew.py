"""The Frobenius skew polynomial ring and its graded two-sided ideals.

Polynomials are sums r_0 + r_1 x + ... with coefficients on the left and
multiplication twisted by  x r = r^p x.  A graded two-sided ideal is the
same data as an ascending chain of ideals (b_n), one per degree; chains are
stored as finite lists with an explicit stabilization index, so equality of
graded ideals is a comparison of finite canonical data.
"""
from __future__ import annotations

import numpy as np

from .algebra import FiniteAlgebra, Ideal
from .linalg import as_vector


class SkewPolynomial:
    """An element of the twisted polynomial ring over a finite algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: FiniteAlgebra, coeffs):
        self.algebra = algebra
        cleaned = [as_vector(c, algebra.p) for c in coeffs]
        for c in cleaned:
            if c.shape[0] != algebra.dim:
                raise ValueError("coefficient has wrong length")
        while cleaned and not cleaned[-1].any():
            cleaned.pop()
        self.coeffs = cleaned

    @classmethod
    def zero(cls, algebra: FiniteAlgebra) -> "SkewPolynomial":
        return cls(algebra, [])

    @classmethod
    def constant(cls, algebra: FiniteAlgebra, r) -> "SkewPolynomial":
        return cls(algebra, [r])

    @classmethod
    def x(cls, algebra: FiniteAlgebra, power: int = 1) -> "SkewPolynomial":
        coeffs = [algebra.zero() for _ in range(power)] + [algebra.one]
        return cls(algebra, coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, n: int) -> np.ndarray:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self.algebra.zero()

    def _compat(self, other: "SkewPolynomial") -> None:
        if self.algebra != other.algebra:
            raise ValueError("operands live over different algebras")

    def __add__(self, other: "SkewPolynomial") -> "SkewPolynomial":
        self._compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPolynomial(
            self.algebra,
            [(self.coefficient(i) + other.coefficient(i)) % self.algebra.p for i in range(n)],
        )

    def __neg__(self) -> "SkewPolynomial":
        return SkewPolynomial(self.algebra, [(-c) % self.algebra.p for c in self.coeffs])

    def __sub__(self, other: "SkewPolynomial") -> "SkewPolynomial":
        return self + (-other)

    def __mul__(self, other: "SkewPolynomial") -> "SkewPolynomial":
        """Product under the rule  x^i r = (p^i-th power of r) x^i."""
        self._compat(other)
        A = self.algebra
        if self.is_zero() or other.is_zero():
            return SkewPolynomial.zero(A)
        frob = A.frobenius()
        out = [A.zero() for _ in range(self.degree + other.degree + 1)]
        for i, ri in enumerate(self.coeffs):
            if not ri.any():
                continue
            twist = frob.power(i)
            for j, sj in enumerate(other.coeffs):
                if not sj.any():
                    continue
                out[i + j] = (out[i + j] + A.mul(ri, twist.apply(sj))) % A.p
        return SkewPolynomial(A, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPolynomial)
            and self.algebra == other.algebra
            and len(self.coeffs) == len(other.coeffs)
            and all(np.array_equal(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> int:
        return hash((self.algebra, tuple(c.tobytes() for c in self.coeffs)))

    def __repr__(self) -> str:
        return f"SkewPolynomial({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for n, c in enumerate(self.coeffs):
            if not c.any():
                continue
            body = self.algebra.render_element(c)
            if " + " in body:
                body = f"({body})"
            if n == 0:
                terms.append(body)
            else:
                xs = "x" if n == 1 else f"x^{n}"
                terms.append(xs if body == "1" else f"{body}*{xs}")
        return " + ".join(terms)


def is_graded_two_sided(chain: list[Ideal]) -> bool:
    """Whether an ideal chain presents a graded two-sided ideal.

    Two-sidedness needs exactly two things, both checked here: each entry is
    an ideal of the coefficient ring, and the chain ascends.  No condition
    relating consecutive entries through the Frobenius is required.
    """
    if not chain:
        return False
    A = chain[0].algebra
    for b in chain:
        if b.algebra != A:
            return False
    return all(chain[n].space <= chain[n + 1].space for n in range(len(chain) - 1))


class GradedTwoSidedIdeal:
    """An ascending ideal chain (b_0, ..., b_N) constant from index N on."""

    __slots__ = ("algebra", "chain")

    def __init__(self, algebra: FiniteAlgebra, chain: list[Ideal]):
        if not chain:
            raise ValueError("chain must have at least one entry")
        if not is_graded_two_sided(list(chain)):
            raise ValueError("chain is not an ascending chain of ideals")
        for b in chain:
            if b.algebra != algebra:
                raise ValueError("chain entries live over the wrong algebra")
        trimmed = list(chain)
        while len(trimmed) > 1 and trimmed[-1].space == trimmed[-2].space:
            trimmed.pop()
        self.algebra = algebra
        self.chain = trimmed

    @property
    def stable_from(self) -> int:
        return len(self.chain) - 1

    def component(self, n: int) -> Ideal:
        return self.chain[min(n, self.stable_from)]

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.chain)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedTwoSidedIdeal)
            and self.algebra == other.algebra
            and len(self.chain) == len(other.chain)
            and all(a.space == b.space for a, b in zip(self.chain, other.chain))
        )

    def __hash__(self) -> int:
        return hash((self.algebra, tuple(b.space for b in self.chain)))

    def key(self) -> tuple:
        """A hashable canonical key, used when collecting sets of chains."""
        return tuple(b.space for b in self.chain)

    def __repr__(self) -> str:
        parts = ", ".join(repr(b) for b in self.chain)
        return f"GradedTwoSidedIdeal([{parts}], stable_from={self.stable_from})"


def zero_graded_ideal(algebra: FiniteAlgebra) -> GradedTwoSidedIdeal:
    return GradedTwoSidedIdeal(algebra, [algebra.zero_ideal()])


def unit_graded_ideal(algebra: FiniteAlgebra) -> GradedTwoSidedIdeal:
    return GradedTwoSidedIdeal(algebra, [algebra.unit_ideal()])


def x_power_graded_ideal(algebra: FiniteAlgebra, t: int) -> GradedTwoSidedIdeal:
    """The two-sided ideal of everything of degree at least t."""
    chain = [algebra.zero_ideal() for _ in range(t)] + [algebra.unit_ideal()]
    return GradedTwoSidedIdeal(algebra, chain)
