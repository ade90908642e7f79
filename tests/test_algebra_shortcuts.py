"""The algebra layer's shortcuts against the routes they replaced.

- mult_matrix is one product with the flat table; the reference is the
  tensordot of the element with the table.
- twisted_modules_isomorphic takes, per local factor, the first candidate
  outside nil(R); the reference tests each candidate e b + 1 - e with a rank
  elimination.  Outcome and witness must agree exactly.
- the local factors of a decomposition and the products of algebras are
  built trusted; rebuilt through the checked constructor, each must
  validate and equal the trusted one.

The Frobenius closure chain, which now reads c_0 = a off the ideal, is
compared with the bracket-ideal reference in test_algebra.py.
"""
import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from froblab.algebra import (
    FiniteAlgebra,
    extension_field,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from froblab.fmodule import twisted_modules_isomorphic
from froblab.generators import default_catalog
from frobenius_reference import (
    frobenius_pool,
    mult_matrix_by_tensordot,
    twisted_isomorphic_by_unit_ranks,
)

LARGE_PRIME = 1048573
PRIMES = [2, 3, LARGE_PRIME]
F2xF8 = product_algebra(prime_field(2), extension_field(2, [1, 1, 0, 1]))


def irreducible_quadratic(p: int) -> list[int]:
    """The coefficients of a monic irreducible x^2 + a x + b over F_p."""
    if p == 2:
        return [1, 1, 1]
    # x^2 - n for the least non-residue n
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return [(-n) % p, 0, 1]


def _poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def extension_pool(p: int) -> list[FiniteAlgebra]:
    """F_(p^2), its square F_p[u]/(g^2) (local, residue field F_(p^2)) and
    F_p[u]/(g (u - 1)^2) (a field times a non-reduced local factor)."""
    g = irreducible_quadratic(p)
    return [
        extension_field(p, g),
        extension_field(p, _poly_mul(g, g, p)),
        extension_field(p, _poly_mul(g, [1, p - 2, 1], p)),
    ]


def large_prime_algebras() -> list[FiniteAlgebra]:
    q = LARGE_PRIME
    F, T2 = prime_field(q), truncated_polynomial_algebra(q, 2)
    field2, square, mixed = extension_pool(q)
    return [
        F, T2, truncated_polynomial_algebra(q, 3), product_algebra(F, T2),
        field2, square, mixed, product_algebra(T2, field2), product_algebra(F, square),
    ]


@st.composite
def local_parts(draw, p: int):
    kind = draw(st.sampled_from(["truncated", "extension", "monogenic"]))
    if kind == "truncated":
        return truncated_polynomial_algebra(p, draw(st.integers(1, 3)))
    if kind == "extension":
        return draw(st.sampled_from(extension_pool(p)))
    # F_p[u]/(f) for a drawn monic f: a product of local factors of any kind
    degree = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return extension_field(p, coeffs + [1])


@st.composite
def twist_algebras(draw):
    """A product of one to three drawn factors over F_p, p in PRIMES, of
    dimension at most 8, extension fields among them."""
    p = draw(st.sampled_from(PRIMES))
    A = draw(local_parts(p))
    for _ in range(draw(st.integers(0, 2))):
        B = draw(local_parts(p))
        if A.dim + B.dim <= 8:
            A = product_algebra(A, B)
    return A


def conjugate_twist(A: FiniteAlgebra, c, u) -> np.ndarray:
    """c2 with u c = c2 u^p for a unit u: the c2 whose twisted module the
    multiplication by u makes isomorphic to the c-twisted one."""
    solution = mult_matrix_by_tensordot(A, A.power(u, A.p)).solve(A.mul(u, c))
    assert solution is not None
    return solution


def assert_twist_search_matches_the_reference(A: FiniteAlgebra, c1, c2) -> bool:
    got, witness = twisted_modules_isomorphic(A, c1, c2)
    want, want_witness = twisted_isomorphic_by_unit_ranks(A, c1, c2)
    assert got == want
    if want:
        assert witness.tolist() == want_witness.tolist()
    else:
        assert witness is None
    return got


@st.composite
def twist_cases(draw):
    """An algebra and a pair (c1, c2): drawn independently, so mostly not
    isomorphic, or c2 conjugate to c1 by a drawn unit, so isomorphic."""
    A = draw(twist_algebras())
    element = st.lists(st.integers(0, A.p - 1), min_size=A.dim, max_size=A.dim)
    c1 = np.array(draw(element), dtype=np.int64)
    if draw(st.integers(0, 3)):
        return A, c1, np.array(draw(element), dtype=np.int64)
    u = np.array(draw(element), dtype=np.int64)
    if not mult_matrix_by_tensordot(A, u).is_invertible():
        u = A.one
    return A, c1, conjugate_twist(A, c1, u)


@settings(max_examples=200, deadline=None)
@given(twist_cases())
@example((prime_field(3), np.array([1]), np.array([2])))
@example((F2xF8, np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0])))
def test_unit_search_matches_the_rank_reference(case):
    assert_twist_search_matches_the_reference(*case)


def test_unit_search_matches_the_rank_reference_on_the_pools():
    # four random pairs per algebra, mostly not isomorphic, and one pair
    # conjugate by a random unit, isomorphic; both outcomes must occur
    rng = random.Random(11)
    outcomes = []
    for A in frobenius_pool() + large_prime_algebras():
        for trial in range(5):
            c1, c2 = (np.array([rng.randrange(A.p) for _ in range(A.dim)]) for _ in range(2))
            if trial == 4:
                while not mult_matrix_by_tensordot(A, c2).is_invertible():
                    c2 = np.array([rng.randrange(A.p) for _ in range(A.dim)])
                c2 = conjugate_twist(A, c1, c2)
            outcomes.append(assert_twist_search_matches_the_reference(A, c1, c2))
    assert outcomes.count(False) > outcomes.count(True) > 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES + [33554393]), st.integers(1, 6), st.data())
def test_mult_matrix_matches_the_tensordot_reference(p, degree, data):
    # F_p[u]/(m) for a drawn monic m; 33554393 is the largest prime below MAX_PRIME
    entry = st.integers(0, p - 1)
    A = extension_field(p, data.draw(st.lists(entry, min_size=degree, max_size=degree)) + [1])
    u = data.draw(st.lists(entry, min_size=A.dim, max_size=A.dim))
    assert A.mult_matrix(u) == mult_matrix_by_tensordot(A, u)


def assert_passes_the_checked_constructor(A: FiniteAlgebra) -> None:
    checked = FiniteAlgebra(A.p, A.table, A.one, A.labels)
    assert checked.validate()
    assert checked == A and checked.labels == A.labels
    assert np.array_equal(checked.regular_action, A.regular_action)
    assert A.table.flags.c_contiguous and not A.table.flags.writeable


def test_trusted_local_factors_pass_the_checked_constructor():
    for A in frobenius_pool() + large_prime_algebras():
        for comp in A.local_components().components:
            assert_passes_the_checked_constructor(comp)


def test_trusted_products_pass_the_checked_constructor():
    """The catalog's products, and seeded products of two and of three
    algebras of the pools over one field."""
    rng = random.Random(25)
    pool = frobenius_pool() + large_prime_algebras()
    products = [A for name, A in default_catalog().algebras.items() if "x" in name]
    assert len(products) == 2
    for factors in [2] * 40 + [3] * 10:
        first = rng.choice(pool)
        same_field = [B for B in pool if B.p == first.p]
        A = first
        for _ in range(factors - 1):
            A = product_algebra(A, rng.choice(same_field))
        products.append(A)
    for A in products:
        assert_passes_the_checked_constructor(A)
