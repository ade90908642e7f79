import random

import numpy as np
import pytest

from froblab.algebra import extension_field, prime_field, truncated_polynomial_algebra
from froblab.skew import (
    GradedTwoSidedIdeal,
    SkewPolynomial,
    is_graded_two_sided,
    unit_graded_ideal,
    x_power_graded_ideal,
    zero_graded_ideal,
)

F3 = prime_field(3)
F4 = extension_field(2, [1, 1, 1])
F2T3 = truncated_polynomial_algebra(2, 3)


def test_x_commutes_with_prime_field_constants():
    x = SkewPolynomial.x(F3)
    two = SkewPolynomial.constant(F3, [2])
    assert x * two == two * x  # r^p = r in the prime field


def test_twist_kills_nilpotents():
    # (t x)(t x) = t * t^2 * x^2 = t^3 x^2 = 0 in F_2[t]/(t^3)
    tx = SkewPolynomial(F2T3, [[0, 0, 0], [0, 1, 0]])
    assert (tx * tx).is_zero()


def test_twist_over_field_extension():
    # x * u = u^2 x = (u + 1) x over F_4
    x = SkewPolynomial.x(F4)
    u = SkewPolynomial.constant(F4, [0, 1])
    u_plus_1_x = SkewPolynomial(F4, [[0, 0], [1, 1]])
    assert x * u == u_plus_1_x


def test_degree_zero_multiplication_is_algebra_multiplication():
    rng = random.Random(5)
    for _ in range(20):
        a = np.array([rng.randrange(2) for _ in range(3)])
        b = np.array([rng.randrange(2) for _ in range(3)])
        prod = SkewPolynomial.constant(F2T3, a) * SkewPolynomial.constant(F2T3, b)
        assert prod == SkewPolynomial.constant(F2T3, F2T3.mul(a, b))


def test_homogeneous_grading():
    # (r x^i)(s x^j) has only a degree i+j component, equal to r * s^(p^i)
    rng = random.Random(6)
    for _ in range(20):
        r = np.array([rng.randrange(2) for _ in range(3)])
        s = np.array([rng.randrange(2) for _ in range(3)])
        i, j = rng.randrange(3), rng.randrange(3)
        lhs = SkewPolynomial(F2T3, [F2T3.zero()] * i + [r])
        rhs = SkewPolynomial(F2T3, [F2T3.zero()] * j + [s])
        prod = lhs * rhs
        twisted = F2T3.power(s, 2**i)
        expected_coeff = F2T3.mul(r, twisted)
        for n, c in enumerate(prod.coeffs):
            if n == i + j:
                assert np.array_equal(c, expected_coeff)
            else:
                assert not c.any()


def _random_poly(A, rng, max_deg=3):
    return SkewPolynomial(
        A,
        [
            np.array([rng.randrange(A.p) for _ in range(A.dim)])
            for _ in range(rng.randrange(max_deg + 1))
        ],
    )


@pytest.mark.parametrize("algebra", [F2T3, truncated_polynomial_algebra(3, 2), F4])
def test_multiplication_associative_and_distributive(algebra):
    rng = random.Random(9)
    for _ in range(25):
        f = _random_poly(algebra, rng)
        g = _random_poly(algebra, rng)
        h = _random_poly(algebra, rng)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_product_degree_bound():
    rng = random.Random(10)
    for _ in range(20):
        f = _random_poly(F2T3, rng)
        g = _random_poly(F2T3, rng)
        if not f.is_zero() and not g.is_zero():
            assert (f * g).degree <= f.degree + g.degree


def test_graded_chain_for_x_multiples_is_two_sided():
    chain = [F2T3.zero_ideal(), F2T3.unit_ideal(), F2T3.unit_ideal()]
    assert is_graded_two_sided(chain)


def test_constant_chain_is_two_sided():
    a = F2T3.ideal([[0, 1, 0]])
    assert is_graded_two_sided([a, a, a])


def test_descending_chain_is_rejected():
    a = F2T3.ideal([[0, 1, 0]])
    assert not is_graded_two_sided([F2T3.unit_ideal(), a])


def test_x_power_ideals():
    t0 = x_power_graded_ideal(F2T3, 0)
    assert t0.stable_from == 0 and t0.component(0).space.contains(F2T3.one)
    t1 = x_power_graded_ideal(F2T3, 1)
    assert t1.component(0).is_zero() and t1.component(1).space.contains(F2T3.one)
    assert t1.component(5).space.contains(F2T3.one)
    t2 = x_power_graded_ideal(F2T3, 2)
    assert t2.stable_from == 2
    assert [t2.component(n).is_zero() for n in range(3)] == [True, True, False]


def test_graded_ideal_canonicalization():
    a = F2T3.ideal([[0, 1, 0]])
    one = GradedTwoSidedIdeal(F2T3, [a])
    padded = GradedTwoSidedIdeal(F2T3, [a, a, a])
    assert one == padded
    assert padded.stable_from == 0
    assert hash(one) == hash(padded)
    assert zero_graded_ideal(F2T3) != unit_graded_ideal(F2T3)


def test_rendering():
    poly = SkewPolynomial(F2T3, [[1, 0, 0], [0, 1, 1], [0, 0, 0], [1, 0, 0]])
    assert str(poly) == "1 + (t + t^2)*x + x^3"
