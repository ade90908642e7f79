"""truncated_polynomial_algebra and extension_field, built from the powers of
a companion matrix, against the table loops they replaced, and the
polynomials the builder refuses."""
import numpy as np
import pytest

from froblab.algebra import FiniteAlgebra, extension_field, truncated_polynomial_algebra
from froblab.errors import AxiomError

from algebra_constructors_reference import extension_table_by_loops, truncated_table_by_loops

PRIMES = [2, 3, 5, 1048573]


def least_non_square(p: int) -> int:
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


# the irreducible polynomials the tests and the benchmark build fields from,
# and u^2 - n for the least non-square n, the quadratic field of test_algebra
IRREDUCIBLE = [
    (2, [1, 1, 1]),
    (2, [1, 1, 0, 1]),
    (2, [1, 1, 0, 0, 1]),
    (3, [1, 0, 1]),
    (3, [1, 2, 0, 1]),
    (5, [3, 0, 1]),
] + [(p, [(-least_non_square(p)) % p, 0, 1]) for p in (3, 5, 1048573)]


def assert_built_as(A: FiniteAlgebra, reference) -> None:
    table, one, labels = reference
    assert A.table.dtype == table.dtype and A.table.shape == table.shape
    assert A.table.tobytes() == table.tobytes()
    assert A.one.dtype == one.dtype and A.one.tobytes() == one.tobytes()
    assert A.labels == labels


@pytest.mark.parametrize("p", PRIMES)
def test_truncated_tables_match_the_loops(p):
    for n in range(1, 13):
        assert_built_as(truncated_polynomial_algebra(p, n), truncated_table_by_loops(p, n))
    assert_built_as(truncated_polynomial_algebra(p, 4, "s"), truncated_table_by_loops(p, 4, "s"))


@pytest.mark.parametrize("p,min_poly", IRREDUCIBLE)
def test_extension_field_tables_match_the_loops(p, min_poly):
    assert_built_as(extension_field(p, min_poly), extension_table_by_loops(p, min_poly))
    assert_built_as(extension_field(p, min_poly, "w"), extension_table_by_loops(p, min_poly, "w"))


@pytest.mark.parametrize("p", PRIMES + [33554393])
def test_every_monic_polynomial_of_degree_up_to_12_matches_the_loops(p):
    # the builder does not ask for irreducibility: any monic m, with entries
    # outside [0, p) and negative ones reduced as the loops reduce them; the
    # last prime is near the single-word limit, where mulmod is tightest
    rng = np.random.default_rng(p)
    for n in range(1, 13):
        for _ in range(3):
            m = rng.integers(-2 * p, 2 * p, size=n).tolist() + [1]
            assert_built_as(extension_field(p, m), extension_table_by_loops(p, m))


def test_a_coefficient_that_is_no_integer_is_refused():
    # 1.5 was truncated to 1, so this built F2[u]/(u^2 + 1) without a word
    with pytest.raises(ValueError, match="coefficients must be integers"):
        extension_field(2, [1, 1.5, 1])
    with pytest.raises(ValueError, match="coefficients must be integers"):
        extension_field(3, ["1", 0, 1])


def test_integral_coefficients_of_other_types_build_the_same_table():
    reference = extension_table_by_loops(2, [1, 1, 1])
    for m in ([1, 1.0, True], np.array([1, 1, 1]), (1, np.int64(3), 1)):
        assert_built_as(extension_field(2, m), reference)


@pytest.mark.parametrize("n", [0, -1])
def test_a_truncation_of_no_positive_degree_is_refused(n):
    # n = 0 raised IndexError
    with pytest.raises(ValueError, match="degree >= 1"):
        truncated_polynomial_algebra(2, n)


@pytest.mark.parametrize("min_poly", [[], [1], [1, 2], [1, 1, 3], [1, 1, 0]])
def test_a_polynomial_that_is_not_monic_of_positive_degree_is_refused(min_poly):
    # the leading coefficient must be 1 itself, not 1 mod p (3 over F_2)
    with pytest.raises(ValueError, match="monic polynomial of degree >= 1"):
        extension_field(2, min_poly)


def test_the_characteristic_is_refused_as_the_checked_constructor_refuses_it():
    for p in (0, 1, 4):
        with pytest.raises(AxiomError, match=rf"characteristic\({p}\) is not prime"):
            truncated_polynomial_algebra(p, 2)
    with pytest.raises(ValueError, match="exceeds the single-word limit"):
        extension_field((1 << 61) - 1, [1, 1, 1])
