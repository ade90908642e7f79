import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import froblab.algebra as algebra_module
from froblab.algebra import (
    FiniteAlgebra,
    Ideal,
    extension_field,
    frobenius_closure_data,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from froblab.errors import AxiomError
from froblab.generators import enumerate_local_algebras, standard_algebras
from froblab.linalg import (
    LIST_KERNEL_CELLS,
    FpMatrix,
    Subspace,
    close_under,
    quotient_representatives,
)
from frobenius_reference import (
    closure_chain_by_bracket_ideals,
    closure_data_by_every_power,
    frobenius_by_basis_powers,
    frobenius_pool,
    nilradical_by_squaring,
)
from linalg_reference import count_eliminated_rows


F2 = prime_field(2)
F2T2 = truncated_polynomial_algebra(2, 2)
F2T3 = truncated_polynomial_algebra(2, 3)
F4 = extension_field(2, [1, 1, 1])
F2xF2 = product_algebra(F2, F2)
F4xF2T3 = product_algebra(F4, F2T3)  # preperiod 2 and period 2


def _quadratic_field(p: int) -> FiniteAlgebra:
    """F_(p^2) = F_p[u]/(u^2 - n) for the least non-square n (Euler's criterion)."""
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return extension_field(p, [(-n) % p, 0, 1])


F8 = extension_field(2, [1, 1, 0, 1])
F9 = _quadratic_field(3)
FL = prime_field(1048573)
FL2 = _quadratic_field(1048573)


def brute_frobenius_cycle(A: FiniteAlgebra) -> tuple[int, int]:
    """Oracle: iterate matrix powers until a repeated pair is found."""
    F = A.frobenius().matrix
    seen = {}
    G = FpMatrix.identity(A.p, A.dim)
    n = 0
    while G.data.tobytes() not in seen:
        seen[G.data.tobytes()] = n
        G = F @ G
        n += 1
    first = seen[G.data.tobytes()]
    return first, n - first


def brute_frobenius_power(A: FiniteAlgebra, ideal, n: int):
    """Oracle: the ideal generated by the p^n-th powers of every element."""
    gens = [A.power(v, A.p**n) for v in ideal.space.vectors()]
    return A.ideal(gens)


def test_one_dimensional_algebra_is_valid():
    assert F2.validate()


def test_characteristic_far_above_the_limit_is_refused_at_once():
    # 2^61 - 1 is prime; the size test runs before trial division
    with pytest.raises(ValueError, match="exceeds the single-word limit"):
        FiniteAlgebra(2**61 - 1, [[[1]]], [1])


@pytest.mark.parametrize("p", [2.5, 3.9, "3"])
def test_a_characteristic_that_is_no_integer_is_refused(p):
    # int(p) truncated 2.5 to 2, so this built an algebra over F_2 without a word
    with pytest.raises(ValueError, match="characteristic must be an integer"):
        FiniteAlgebra(p, [[[1]]], [1])


def test_integral_characteristics_of_other_types_build_the_same_algebra():
    for p in (np.int64(3), np.int32(3), 3.0):
        A = FiniteAlgebra(p, [[[1]]], [1])
        assert A.p == 3 and type(A.p) is int and A == prime_field(3)


def test_basis_matrices_are_computed_once():
    A = truncated_polynomial_algebra(3, 3)
    mats = A.basis_matrices()
    assert isinstance(mats, tuple)
    assert A.basis_matrices() is mats
    assert list(mats) == [A.mult_matrix(row) for row in np.eye(3, dtype=np.int64)]


def test_algebra_equals_itself_without_comparing_tables(monkeypatch):
    calls = []
    real = np.array_equal

    def counting(a, b, *args, **kwargs):
        calls.append(1)
        return real(a, b, *args, **kwargs)

    A = truncated_polynomial_algebra(3, 3)
    monkeypatch.setattr(np, "array_equal", counting)
    assert A == A
    assert not calls
    # equal copies and different algebras still compare their tables
    copy = FiniteAlgebra(A.p, A.table, A.one, A.labels)
    assert copy == A and A == copy and hash(copy) == hash(A)
    assert calls
    assert F2T2 != F2xF2 and F2xF2 != F2T2  # same p and dimension
    assert F2 != prime_field(3)
    assert A != "A"


def test_truncated_polynomial_is_valid():
    assert F2T2.validate()
    assert np.array_equal(F2T2.mul([0, 1], [0, 1]), [0, 0])  # t*t = 0


def test_commutativity_violation_is_reported():
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    table[0, 1, 1] = 1
    table[1, 0, 1] = 1
    table[1, 1, 0] = 1
    table[0, 1] = [1, 0]  # e0*e1 != e1*e0
    with pytest.raises(AxiomError, match="commutativity"):
        FiniteAlgebra(2, table, [1, 0])


def test_associativity_violation_is_reported():
    # g1*g1 = g2, g1*g2 = 0, g2*g2 = g1: then (g1 g1) g2 = g1 but g1 (g1 g2) = 0
    t3 = np.zeros((3, 3, 3), dtype=np.int64)
    for k in range(3):
        t3[0, k, k] = 1
        t3[k, 0, k] = 1
    t3[1, 1] = [0, 0, 1]
    t3[2, 2] = [0, 1, 0]
    with pytest.raises(AxiomError, match="associativity"):
        FiniteAlgebra(2, t3, [1, 0, 0])


def test_identity_violation_is_reported():
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[1, 1, 1] = 1
    with pytest.raises(AxiomError, match="identity"):
        FiniteAlgebra(2, table, [1, 0])


# -- the per-index axiom loops the batched comparisons replaced -------------------


def _axiom_loops_reference(p: int, table: np.ndarray, one: np.ndarray) -> str | None:
    """The first violated axiom, found by a loop over i < j, the associativity
    comparison, then a loop over i, or None for a valid table."""
    d = table.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            if not np.array_equal(table[i, j], table[j, i]):
                return f"commutativity({i},{j})"
    left = np.einsum("ijm,mkl->ijkl", table, table) % p
    right = np.einsum("jkm,iml->ijkl", table, table) % p
    if not np.array_equal(left, right):
        i, j, k = np.argwhere((left != right).any(axis=3))[0]
        return f"associativity({i},{j},{k})"
    for i in range(d):
        product = np.einsum("a,b,abl->l", one, np.eye(d, dtype=np.int64)[i], table) % p
        if not np.array_equal(product, np.eye(d, dtype=np.int64)[i]):
            return f"identity({i})"
    return None


@st.composite
def corrupted_tables(draw):
    """The table and identity of a drawn algebra over F_2, F_3 or F_1048573,
    with a few changes: an entry of e_i e_j alone (often asymmetric), the
    same entry of e_i e_j and e_j e_i, or an entry of the identity."""
    A, _ = draw(algebras_and_generators(primes=(2, 3, 1048573)))
    table, one, d = A.table.copy(), A.one.copy(), A.dim
    index = st.integers(0, d - 1)
    value = st.integers(0, A.p - 1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["one_side", "both_sides", "identity"]))
        i, j, k, c = draw(index), draw(index), draw(index), draw(value)
        if kind == "identity":
            one[i] = c
        else:
            table[i, j, k] = c
            if kind == "both_sides":
                table[j, i, k] = c
    return A.p, table, one


@settings(max_examples=300, deadline=None)
@given(corrupted_tables())
@example((2, F2T3.table, np.array([1, 1, 0])))  # 1 + t is no identity
@example((2, F2xF2.table, np.array([1, 0])))  # (1, 0) kills e_1: identity(1)
@example((2, np.zeros((2, 2, 2), dtype=np.int64), np.array([1, 0])))
def test_axiom_checks_match_the_loop_reference(case):
    p, table, one = case
    want = _axiom_loops_reference(p, table, one)
    if want is None:
        assert FiniteAlgebra(p, table, one).validate()
    else:
        with pytest.raises(AxiomError) as caught:
            FiniteAlgebra(p, table, one)
        assert str(caught.value) == want


@pytest.mark.parametrize(
    "algebra,cycle",
    [(F2T2, (1, 1)), (F4, (0, 2)), (prime_field(3), (0, 1)), (prime_field(5), (0, 1))],
)
def test_frobenius_cycle_data(algebra, cycle):
    fd = algebra.frobenius()
    assert (fd.preperiod, fd.period) == cycle
    assert brute_frobenius_cycle(algebra) == cycle


def test_frobenius_matrix_agrees_with_element_powers():
    rng = random.Random(7)
    for A in (F2T3, F4, truncated_polynomial_algebra(3, 2)):
        F = A.frobenius().matrix
        for _ in range(10):
            v = np.array([rng.randrange(A.p) for _ in range(A.dim)], dtype=np.int64)
            assert np.array_equal(F.apply(v), A.power(v, A.p))


def exact_mul(A: FiniteAlgebra, u, v) -> list[int]:
    """Oracle: u * v in Python integers, reduced once at the end."""
    d, t = A.dim, A.table.tolist()
    u, v = [int(c) for c in u], [int(c) for c in v]
    return [
        sum(u[i] * v[j] * t[i][j][k] for i in range(d) for j in range(d)) % A.p
        for k in range(d)
    ]


def exact_power(A: FiniteAlgebra, u, k: int) -> list[int]:
    result, base = [int(c) for c in A.one], [int(c) for c in u]
    while k:
        if k & 1:
            result = exact_mul(A, result, base)
        base = exact_mul(A, base, base)
        k >>= 1
    return result


@st.composite
def dense_extension_fields(draw):
    """F_p[u]/(m(u)) for a monic m with every coefficient nonzero, so that the
    table is dense; m need not be irreducible, validation does not ask it."""
    p = draw(st.sampled_from([2, 3, 1048573, 33554393]))
    degree = draw(st.integers(1, 5))
    coeffs = draw(st.lists(st.integers(1, p - 1), min_size=degree, max_size=degree))
    return extension_field(p, coeffs + [1])


@settings(max_examples=150, deadline=None)
@given(dense_extension_fields(), st.data())
def test_mul_and_power_are_exact_below_the_word_limit(A, data):
    element = st.lists(st.integers(0, A.p - 1), min_size=A.dim, max_size=A.dim)
    u, v = data.draw(element), data.draw(element)
    assert A.mul(u, v).tolist() == exact_mul(A, u, v)
    k = data.draw(st.integers(0, 3 * A.p))
    assert A.power(u, k).tolist() == exact_power(A, u, k)
    # a stack of elements is raised row by row
    stack = np.array([u, v], dtype=np.int64)
    assert A.power(stack, k).tolist() == [exact_power(A, u, k), exact_power(A, v, k)]


def test_frobenius_is_exact_for_a_prime_near_the_word_limit():
    # one sum of d^2 triple products below (p - 1)^3 overflows int64 here
    p = 33554393
    A = extension_field(p, [5, p - 7, p - 11, 1])
    assert A.power([0, 1, 0], p).tolist() == [3728274, 11184806, 7456531]
    exact = [exact_power(A, row, p) for row in np.eye(3, dtype=np.int64)]
    assert A.frobenius().matrix == FpMatrix(p, np.array(exact).T)
    assert A.frobenius().matrix == frobenius_by_basis_powers(A)


def test_frobenius_matches_the_per_basis_powers():
    for A in frobenius_pool():
        assert A.frobenius().matrix == frobenius_by_basis_powers(A)


@st.composite
def frobenius_algebras(draw):
    """An algebra over F_p, p in {2, 3, 5, 1048573}: a truncated polynomial
    ring, an F_p[u]/(m) for a drawn monic m, or the product of two of them."""
    p = draw(st.sampled_from([2, 3, 5, 1048573]))

    def factor():
        if draw(st.booleans()):
            return truncated_polynomial_algebra(p, draw(st.integers(1, 4)))
        degree = draw(st.integers(1, 4))
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
        return extension_field(p, coeffs + [1])

    A = factor()
    return product_algebra(A, factor()) if draw(st.booleans()) else A


@settings(max_examples=100, deadline=None)
@given(frobenius_algebras())
def test_frobenius_matches_the_per_basis_powers_on_drawn_algebras(A):
    assert A.frobenius().matrix == frobenius_by_basis_powers(A)


def test_nilradical_known_cases():
    assert F2T2.nilradical().space.basis.tolist() == [[0, 1]]
    assert F4.nilradical().is_zero()
    assert F2xF2.nilradical().is_zero()


def test_nilradical_matches_exhaustive_search():
    for A in (F2T2, F2T3, F4, F2xF2, truncated_polynomial_algebra(3, 3)):
        m = 0
        while A.p**m < A.dim:
            m += 1
        nilpotents = {
            tuple(v) for v in A.elements() if not A.power(v, A.p**m).any()
        }
        assert nilpotents == {tuple(v) for v in A.nilradical().space.vectors()}


def test_local_components_local_algebra():
    decomp = F2T2.local_components()
    assert len(decomp.components) == 1
    assert decomp.components[0].dim == 2
    assert decomp.components[0].nilradical().space.dim == 1


def test_local_components_product():
    decomp = F2xF2.local_components()
    assert len(decomp.components) == 2
    assert sorted(tuple(e) for e in decomp.idempotents) == [(0, 1), (1, 0)]
    assert all(c.dim == 1 for c in decomp.components)


def test_local_components_field():
    assert len(F4.local_components().components) == 1


def test_local_components_reassembly():
    for A in (F2xF2, product_algebra(F2, F4), product_algebra(F2T2, F2)):
        decomp = A.local_components()
        assert sum(c.dim for c in decomp.components) == A.dim
        # products through the idempotent basis agree block by block
        for i, comp in enumerate(decomp.components):
            for u, v in itertools.product(comp.elements(), repeat=2):
                lifted = A.mul(decomp.lift(i, u), decomp.lift(i, v))
                assert np.array_equal(decomp.project(i, lifted), comp.mul(u, v))
        # cross terms vanish
        for i in range(len(decomp.components)):
            for j in range(len(decomp.components)):
                if i != j:
                    prod = A.mul(decomp.idempotents[i], decomp.idempotents[j])
                    assert not prod.any()


def reference_primitive_idempotents(A: FiniteAlgebra) -> list[np.ndarray]:
    """Reference: scan all p^dim elements for idempotents, keep the minimal ones."""
    nonzero = [e for e in A.elements() if e.any() and np.array_equal(A.mul(e, e), e)]
    primitive = [
        e
        for e in nonzero
        if not any(
            np.array_equal(A.mul(g, e), g) and not np.array_equal(g, e) for g in nonzero
        )
    ]
    return sorted(primitive, key=lambda v: tuple(v))


def assert_local(comp: FiniteAlgebra, mx: Ideal) -> None:
    """Reference: every element outside the nilradical is a unit."""
    if comp.p**comp.dim <= 4096:
        candidates = comp.elements()
    else:
        candidates = iter(quotient_representatives(Subspace.full(comp.p, comp.dim), mx.space))
    for v in candidates:
        assert mx.contains(v) or comp.is_unit(v)


def reference_local_screen(p: int, max_dim: int) -> list[FiniteAlgebra]:
    """Reference: the candidate tables of enumerate_local_algebras, kept when
    0 and 1 are their only idempotents."""
    found = []
    for d in range(1, max_dim + 1):
        free = [(i, j) for i in range(1, d) for j in range(i, d)]
        for choice in itertools.product(
            itertools.product(range(p), repeat=d), repeat=len(free)
        ):
            table = np.zeros((d, d, d), dtype=np.int64)
            for k in range(d):
                table[0, k, k] = 1
                table[k, 0, k] = 1
            for (i, j), vec in zip(free, choice):
                table[i, j] = vec
                table[j, i] = vec
            one = np.zeros(d, dtype=np.int64)
            one[0] = 1
            try:
                A = FiniteAlgebra(p, table, one)
            except AxiomError:
                continue
            idem = [e for e in A.elements() if np.array_equal(A.mul(e, e), e)]
            if len(idem) == 2 or A.dim == 1:
                found.append(A)
    return found


def decomposition_cases() -> list[FiniteAlgebra]:
    base = (
        list(standard_algebras().values())
        + enumerate_local_algebras(2, 3)
        + enumerate_local_algebras(3, 2)
    )
    products = [
        product_algebra(a, b)
        for a, b in itertools.combinations_with_replacement(base, 2)
        if a.p == b.p and a.dim + b.dim <= 6
    ]
    rng = random.Random(11)
    split = [extension_field(5, [0, 4, 0, 1])] + [
        rebased(power_of_prime_field(p, r), rng)
        for p in (5, 7)
        for r in (3, 4)
        for _ in range(3)
    ]
    return base + products + split


def power_of_prime_field(p: int, r: int) -> FiniteAlgebra:
    A = prime_field(p)
    for _ in range(r - 1):
        A = product_algebra(A, prime_field(p))
    return A


def rebased(A: FiniteAlgebra, rng: random.Random) -> FiniteAlgebra:
    """A in a random basis: the columns of P are the new basis vectors."""
    while True:
        P = FpMatrix(A.p, [[rng.randrange(A.p) for _ in range(A.dim)] for _ in range(A.dim)])
        if P.is_invertible():
            break
    P_inv = P.inverse()
    cols = [P.data[:, i] for i in range(A.dim)]
    table = np.array(
        [[P_inv.apply(A.mul(u, v)) for v in cols] for u in cols], dtype=np.int64
    )
    return FiniteAlgebra(A.p, table, P_inv.apply(A.one))


def test_local_components_match_element_scan():
    for A in decomposition_cases():
        got = A.local_components()
        want = reference_primitive_idempotents(A)
        assert [tuple(e) for e in got.idempotents] == [tuple(e) for e in want]
        for comp in got.components:
            assert_local(comp, comp.nilradical())


@pytest.mark.parametrize("p, max_dim", [(2, 3), (3, 2)])
def test_enumerate_local_algebras_matches_idempotent_screen(p, max_dim):
    got = enumerate_local_algebras(p, max_dim)
    want = reference_local_screen(p, max_dim)
    assert [(A.table.tobytes(), A.one.tobytes()) for A in got] == [
        (A.table.tobytes(), A.one.tobytes()) for A in want
    ]


def test_local_components_beyond_element_scans():
    # 1048573^6 elements: far too many to list
    p = 1048573
    A = product_algebra(
        product_algebra(truncated_polynomial_algebra(p, 2), prime_field(p)),
        truncated_polynomial_algebra(p, 3),
    )
    decomp = A.local_components()
    assert len(decomp.idempotents) == 3
    assert [c.dim for c in decomp.components] == [3, 1, 2]
    assert np.array_equal(sum(decomp.idempotents) % p, A.one)
    for i, e in enumerate(decomp.idempotents):
        assert np.array_equal(A.mul(e, e), e)
        for f in decomp.idempotents[i + 1 :]:
            assert not A.mul(e, f).any()


def test_local_components_eliminate_the_fixed_space_and_each_factor_once(monkeypatch):
    # K = ker(F - I) is one elimination and each factor e A one more; whether
    # b e lies in F_p e is read off the leading entry of e, with none
    p = 1048573
    cases = [F2T3, F2xF2, product_algebra(F4, F2T3), product_algebra(F2, F8)]
    cases += [product_algebra(truncated_polynomial_algebra(p, 2), FL2)]
    cases += [product_algebra(product_algebra(F9, prime_field(3)), truncated_polynomial_algebra(3, 2))]
    for A in cases:
        A = FiniteAlgebra(A.p, A.table, A.one)  # nothing cached
        A.frobenius()
        counts = count_eliminated_rows(monkeypatch)
        decomp = A.local_components()
        monkeypatch.undo()
        assert len(counts) == 1 + len(decomp.components)


def test_decomposition_reports_the_first_bad_pair_of_idempotents(monkeypatch):
    A = product_algebra(F2xF2, F2)
    e = np.eye(3, dtype=np.int64)
    bad = {
        "idempotents 0 and 2 are not orthogonal": [e[0], e[1], e[0] + e[2]],
        "idempotents 1 and 2 are not orthogonal": [e[0], e[1], e[1] + e[2]],
        "do not sum to the identity": [e[0], e[1]],
    }
    for message, parts in bad.items():
        monkeypatch.setattr(algebra_module, "_primitive_idempotents", lambda _: parts)
        with pytest.raises(AxiomError, match=message):
            algebra_module._decompose(A)


def test_ideal_from_unit_generator_is_whole_ring():
    assert F2T3.ideal([F2T3.one]).space.is_full()


def test_ideal_empty_generators_is_zero():
    assert F2T3.ideal([]).is_zero()


def test_ideal_closure_adds_products():
    ideal = F2T3.ideal([[0, 1, 0]])
    assert ideal.space.dim == 2  # one closure step: t*t = t^2
    assert ideal.contains([0, 0, 1])
    assert not ideal.contains(F2T3.one)


def test_frobenius_power_zero_is_identity():
    a = F2T3.ideal([[0, 1, 0]])
    assert a.frobenius_power(0) == a


def test_frobenius_power_known_cases():
    a = F2T3.ideal([[0, 1, 0]])
    assert a.frobenius_power(1) == F2T3.ideal([[0, 0, 1]])
    b = F2T3.ideal([[0, 0, 1]])
    assert b.frobenius_power(1).is_zero()


def test_frobenius_power_independent_of_generators():
    rng = random.Random(3)
    for A in (F2T3, truncated_polynomial_algebra(3, 2), F2xF2, F4):
        for _ in range(8):
            gens = [
                np.array([rng.randrange(A.p) for _ in range(A.dim)])
                for _ in range(rng.randrange(3))
            ]
            a = A.ideal(gens)
            regenerated = A.ideal(list(a.space.basis))
            for n in range(3):
                assert a.frobenius_power(n) == regenerated.frobenius_power(n)
                assert a.frobenius_power(n) == brute_frobenius_power(A, a, n)


def test_frobenius_power_reads_the_cycle():
    rng = random.Random(5)
    for A in standard_algebras().values():
        frob = A.frobenius()
        for _ in range(3):
            gens = [
                np.array([rng.randrange(A.p) for _ in range(A.dim)])
                for _ in range(1 + rng.randrange(2))
            ]
            a = A.ideal(gens)
            for n in range(frob.preperiod + 2 * frob.period + 3):
                F = frob.matrix**n
                assert a.frobenius_power(n) == Ideal(A, [F.apply(g) for g in gens])


def test_package_built_generators_skip_the_checked_door(monkeypatch):
    # frobenius_power and unit_ideal hand their k x d rows to the trusted
    # door: no as_vector per row, and the same ideals and reprs as before
    a = F2T3.ideal([[0, 1, 1], [1, 0, 1]])
    want = [(a.frobenius_power(n), repr(a.frobenius_power(n))) for n in range(4)]
    texts = ["Ideal(t + t^2, 1 + t^2)", "Ideal(t^2, 1)", "Ideal(0, 1)", "Ideal(0, 1)"]
    assert [text for _, text in want] == texts
    monkeypatch.setattr(Ideal, "__init__", lambda *args: pytest.fail("checked door"))
    for n, (ideal, text) in enumerate(want):
        got = a.frobenius_power(n)
        assert got == ideal and repr(got) == text
    unit = F2T3.unit_ideal()
    assert repr(unit) == "Ideal(1)" and unit.space.is_full()
    assert [g.tolist() for g in unit.generators] == [[1, 0, 0]]


def test_frobenius_data_power_matches_repeated_squaring():
    for A in frobenius_pool():
        frob = A.frobenius()
        for n in range(frob.preperiod + 2 * frob.period + 2):
            assert frob.power(n) == frob.matrix**n


def test_nilradical_matches_the_kernel_of_a_large_frobenius_power():
    pool = frobenius_pool()
    for A in pool:
        assert A.nilradical().space == nilradical_by_squaring(A)
    assert sum(A.frobenius().preperiod > 1 for A in pool) > 0


def test_closure_of_already_closed_ideal():
    a = F2T2.ideal([[0, 1]])
    closure, exponent = a.frobenius_closure()
    assert closure == a
    assert exponent == 1


def test_closure_pauses_then_grows():
    """(t^2) in F_2[t]/(t^3): c_1 == c_0 but c_2 is strictly bigger.

    Exhaustive oracle: r is in the closure iff some p^n-th power of r lands
    in the n-th Frobenius power of the ideal.
    """
    a = F2T3.ideal([[0, 0, 1]])
    data = frobenius_closure_data(a)
    assert data.chain[0] == data.chain[1]  # the pause
    assert data.chain[2].dim > data.chain[1].dim  # the growth
    assert data.closure == F2T3.ideal([[0, 1, 0]])
    assert data.exponent == 4

    members = set()
    for r in F2T3.elements():
        for n in range(6):
            bracket = brute_frobenius_power(F2T3, a, n)
            if bracket.contains(F2T3.power(r, 2**n)):
                members.add(tuple(r))
                break
    assert members == {tuple(v) for v in data.closure.space.vectors()}
    # exhaustive check of minimality of the exponent
    for m in range(4):
        lhs = brute_frobenius_power(F2T3, data.closure, m)
        rhs = brute_frobenius_power(F2T3, a, m)
        assert (lhs == rhs) == (2**m >= 4)


def test_closure_of_whole_ring():
    closure, exponent = F2T3.unit_ideal().frobenius_closure()
    assert closure.space.contains(F2T3.one)
    assert exponent == 1


def test_closure_of_zero_in_reduced_algebra():
    closure, exponent = F4.zero_ideal().frobenius_closure()
    assert closure.is_zero()
    assert exponent == 1


def test_closure_properties_random():
    rng = random.Random(11)
    algebras = [F2T2, F2T3, F4, F2xF2, truncated_polynomial_algebra(3, 3)]
    for A in algebras:
        for _ in range(10):
            gens = [
                np.array([rng.randrange(A.p) for _ in range(A.dim)])
                for _ in range(rng.randrange(3))
            ]
            a = A.ideal(gens)
            data = frobenius_closure_data(a)
            closure, q = data.closure, data.exponent
            assert a.space <= closure.space
            again, _ = closure.frobenius_closure()
            assert again == closure
            steps = 0
            while A.p**steps < q:
                steps += 1
            assert closure.frobenius_power(steps) == a.frobenius_power(steps)
            if q > 1:
                assert closure.frobenius_power(steps - 1) != a.frobenius_power(steps - 1)
            for n in range(len(data.chain) - 1):
                assert data.chain[n] <= data.chain[n + 1]


def test_render_element():
    assert F2T3.render_element([1, 0, 1]) == "1 + t^2"
    assert F2T3.render_element([0, 0, 0]) == "0"
    assert truncated_polynomial_algebra(5, 2).render_element([0, 3]) == "3*t"


# -- the exponent loop the chain read replaced -----------------------------------


def _closure_exponent_reference(ideal: Ideal, closure: Ideal) -> int:
    """Least p^m with (a^F)^[p^m] == a^[p^m], comparing fresh ideal closures."""
    A = ideal.algebra
    frob = A.frobenius()
    for m in range(frob.preperiod + frob.period + 1):
        if closure.frobenius_power(m) == ideal.frobenius_power(m):
            return A.p**m
    raise AssertionError("no test exponent within the Frobenius cycle")


def monomial_algebra(p: int, a: int, b: int, corner: tuple[int, int]) -> FiniteAlgebra:
    """F_p[s,t]/(s^a, t^b, s^i t^j) for corner (i, j), on the monomials outside."""
    monos = [
        (i, j) for i in range(a) for j in range(b) if not (i >= corner[0] and j >= corner[1])
    ]
    index = {m: k for k, m in enumerate(monos)}
    d = len(monos)
    table = np.zeros((d, d, d), dtype=np.int64)
    for x, (i1, j1) in enumerate(monos):
        for y, (i2, j2) in enumerate(monos):
            if (i1 + i2, j1 + j2) in index:
                table[x, y, index[(i1 + i2, j1 + j2)]] = 1
    return FiniteAlgebra(p, table, np.eye(d, dtype=np.int64)[index[(0, 0)]])


STANDARD = standard_algebras()


@st.composite
def algebras_and_generators(draw, primes=(2, 3, 5)):
    """A standard algebra, or a truncated, monomial or product algebra over
    F_p for p in primes, with 0-3 drawn ideal generators."""
    family = draw(st.sampled_from(["standard", "truncated", "monomial", "product"]))
    p = draw(st.sampled_from(primes))
    if family == "standard":
        A = STANDARD[draw(st.sampled_from(sorted(STANDARD)))]
    elif family == "truncated":
        A = truncated_polynomial_algebra(p, draw(st.integers(1, 6)))
    elif family == "monomial":
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        A = monomial_algebra(p, a, b, (draw(st.integers(0, a)), draw(st.integers(1, b))))
    else:
        A = product_algebra(
            truncated_polynomial_algebra(p, draw(st.integers(1, 3))),
            truncated_polynomial_algebra(p, draw(st.integers(1, 3))),
        )
    vector = st.lists(st.integers(0, A.p - 1), min_size=A.dim, max_size=A.dim)
    return A, draw(st.lists(vector, max_size=3))


@settings(max_examples=250, deadline=None)
@given(algebras_and_generators())
@example((F2T3, [[0, 0, 1]]))  # (t^2): the chain pauses, then grows; Q = 4
def test_closure_exponent_matches_reference(case):
    A, gens = case
    a = A.ideal(gens)
    data = frobenius_closure_data(a)
    assert data.exponent == _closure_exponent_reference(a, data.closure)


def test_closure_exponent_search_does_no_closure(monkeypatch):
    # c_0 = a is the ideal's own space, each step n = 1, ..., preperiod costs
    # one elimination, of the k d bracket products and the d rows of (F^n)^T,
    # and the periodic tail none; no ideal is built from generators, through
    # either door, and Q is read off the chain, so comparing closures adds none
    real = Ideal._init
    calls: list[int] = []

    def counting(self, algebra, rows, space):
        if space is None:
            calls.append(1)
        real(self, algebra, rows, space)

    cases = [(F2T3, [[0, 0, 1]]), (F2T3, [[0, 1, 1]]), (F4, [])]
    cases += [(truncated_polynomial_algebra(3, 5), [[0, 0, 1, 2, 0]])]
    cases += [(F4xF2T3, [[0, 0, 0, 0, 1]]), (F4xF2T3, [[1, 0, 0, 1, 0]])]
    cases += [(A, [A.one]) for A in STANDARD.values()]
    for A, gens in cases:
        a = A.ideal(gens)
        frob = A.frobenius()
        monkeypatch.setattr(Ideal, "_init", counting)
        calls.clear()
        eliminated = count_eliminated_rows(monkeypatch)
        chain = frobenius_closure_data(a).chain
        monkeypatch.undo()
        assert calls == []
        assert eliminated == [(len(gens) + 1) * A.dim] * frob.preperiod
        assert chain[0] == a.space and len(chain) == len(frob.powers)


# -- the bracket ideal and residue kernel the one-elimination chain replaced ------


def assert_chain_matches_reference(a: Ideal) -> None:
    chain = frobenius_closure_data(a).chain
    want = closure_chain_by_bracket_ideals(a)
    assert len(chain) == len(want) == len(a.algebra.frobenius().powers)
    for got, ref in zip(chain, want):
        assert got == ref
        assert got.pivots.tolist() == ref.pivots.tolist()


@settings(max_examples=250, deadline=None)
@given(algebras_and_generators(primes=(2, 3, 1048573)))
@example((F2T3, [[0, 0, 1]]))
@example((F2T3, []))
def test_closure_chain_matches_the_bracket_ideal_reference(case):
    A, gens = case
    assert_chain_matches_reference(A.ideal(gens))


def _t_powers(A: FiniteAlgebra, *exponents: int) -> list[np.ndarray]:
    """t^e for each exponent, in F_p[t]/t^dim."""
    return [np.eye(A.dim, dtype=np.int64)[e] for e in exponents]


def test_closure_chain_past_the_list_kernel_matches_the_reference():
    # one elimination has (k + 1) d rows and 2 d columns: past
    # LIST_KERNEL_CELLS for d >= 33 with one generator
    F2T40 = truncated_polynomial_algebra(2, 40)
    FlT33 = truncated_polynomial_algebra(1048573, 33)
    F3T35 = truncated_polynomial_algebra(3, 35)
    rng = np.random.default_rng(22)
    cases = [
        (F2T40, _t_powers(F2T40, 3)),
        (F2T40, [(_t_powers(F2T40, 5)[0] + _t_powers(F2T40, 12)[0]) % 2]),
        (F2T40, _t_powers(F2T40, 9, 14)),
        (FlT33, _t_powers(FlT33, 2)),
        (FlT33, [rng.integers(0, 1048573, 33) * (np.arange(33) >= 4) % 1048573]),
        (F3T35, _t_powers(F3T35, 4, 7)),
    ]
    for A, gens in cases:
        assert (len(gens) + 1) * A.dim * 2 * A.dim > LIST_KERNEL_CELLS
        assert_chain_matches_reference(A.ideal(gens))


# -- the eliminations of the periodic tail that the closure skips -----------------


# each has a Frobenius of period > 1 (an extension factor), and those with a
# truncated factor a preperiod > 0 as well; F4 x F8 has period 6
PERIODIC = [
    F4, F8, F9, F4xF2T3, product_algebra(F8, F2T2), product_algebra(F4, F8),
    product_algebra(F9, truncated_polynomial_algebra(3, 2)), FL2, product_algebra(FL2, FL),
    product_algebra(FL2, truncated_polynomial_algebra(1048573, 3)),
]


@st.composite
def closure_cases(draw):
    """An algebra of algebras_and_generators over F_2, F_3 or F_1048573, or
    one of PERIODIC, with 0-3 drawn generators."""
    if draw(st.booleans()):
        return draw(algebras_and_generators(primes=(2, 3, 1048573)))
    A = draw(st.sampled_from(PERIODIC))
    vector = st.lists(st.integers(0, A.p - 1), min_size=A.dim, max_size=A.dim)
    return A, draw(st.lists(vector, max_size=3))


def test_periodic_pool_has_long_cycles():
    assert all(A.frobenius().period > 1 for A in PERIODIC)
    assert {A.p for A in PERIODIC} == {2, 3, 1048573}
    assert F4xF2T3.frobenius().preperiod == 2 and product_algebra(F4, F8).frobenius().period == 6


@settings(max_examples=250, deadline=None)
@given(closure_cases())
# (t^2) in the truncated factor: c_0 == c_1 < c_2, then a tail of period 2;
# over F_1048573, c_0 < c_1 with preperiod 1 and period 2
@example((F4xF2T3, [[0, 0, 0, 0, 1]]))
@example((product_algebra(FL2, truncated_polynomial_algebra(1048573, 3)), [[0, 0, 0, 0, 1]]))
def test_closure_matches_the_every_power_reference(case):
    # the tail past the preperiod, which froblab fills with c_preperiod,
    # against one elimination per distinct power
    A, gens = case
    a = A.ideal(gens)
    got, want = frobenius_closure_data(a), closure_data_by_every_power(a)
    assert (got.exponent, got.preperiod, got.period) == (want.exponent, want.preperiod, want.period)
    assert got.closure == want.closure
    assert len(got.chain) == len(want.chain) == len(A.frobenius().powers)
    for c, ref in zip(got.chain, want.chain):
        assert c == ref and c.pivots.tolist() == ref.pivots.tolist()


# -- the closure the one-elimination ideal replaced -------------------------------


def _generated_ideal_reference(A: FiniteAlgebra, gens) -> Subspace:
    """The span of the generators, closed under every basis multiplication."""
    return close_under(Subspace.from_vectors(A.p, A.dim, gens), A.basis_matrices())


@settings(max_examples=250, deadline=None)
@given(algebras_and_generators())
def test_generated_ideal_matches_closure_reference(case):
    A, gens = case
    got = A.ideal(gens).space
    want = _generated_ideal_reference(A, gens)
    assert got == want
    assert got.pivots.tolist() == want.pivots.tolist()
