import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from froblab.linalg import (
    FpMatrix,
    Subspace,
    close_under,
    combine,
    operator_kernel,
    operator_solve,
    quotient_representatives,
    stabilize,
)


def brute_kernel(m: FpMatrix) -> set[tuple[int, ...]]:
    """Oracle: enumerate every vector and keep the ones the matrix kills."""
    out = set()
    for v in Subspace.full(m.p, m.cols).vectors():
        if not m.apply(v).any():
            out.add(tuple(v))
    return out


@st.composite
def matrices(draw, max_dim=5):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    data = np.array(entries, dtype=np.int64).reshape(rows, cols)
    return FpMatrix(p, data)


def test_rref_identity_is_fixed():
    m = FpMatrix.identity(2, 2)
    reduced, rank = m.rref()
    assert reduced == m
    assert rank == 2


def test_rref_zero_matrix():
    m = FpMatrix.zeros(3, 3, 3)
    reduced, rank = m.rref()
    assert reduced == m
    assert rank == 0


def test_rref_dependent_rows():
    # hand row-reduction: subtract row 1 from row 2 over F_2
    m = FpMatrix(2, [[1, 1], [1, 1]])
    reduced, rank = m.rref()
    assert reduced.data.tolist() == [[1, 1], [0, 0]]
    assert rank == 1


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        FpMatrix(4, [[1]])
    with pytest.raises(ValueError):
        FpMatrix(1, [[0]])


def test_kernel_of_identity_is_zero():
    assert FpMatrix.identity(2, 3).kernel().is_zero()


def test_image_of_zero_map_is_zero():
    assert FpMatrix.zeros(2, 3, 3).image().is_zero()


def test_kernel_matches_exhaustive_enumeration():
    m = FpMatrix(2, [[1, 0], [0, 0]])
    kernel = m.kernel()
    assert brute_kernel(m) == {tuple(v) for v in kernel.vectors()}
    assert kernel == Subspace.from_vectors(2, 2, [[0, 1]])


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert m.kernel().dim + m.image().dim == m.cols


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    once, rank1 = m.rref()
    twice, rank2 = once.rref()
    assert once == twice and rank1 == rank2


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_roundtrip(m, data):
    v = np.array(
        [data.draw(st.integers(0, m.p - 1)) for _ in range(m.cols)], dtype=np.int64
    )
    b = m.apply(v)
    sol = m.solve(b)
    assert sol is not None
    assert np.array_equal(m.apply(sol), b)


def test_solve_reports_inconsistency():
    m = FpMatrix(2, [[1, 0], [1, 0]])
    assert m.solve([1, 0]) is None


def test_inverse():
    m = FpMatrix(5, [[2, 1], [1, 1]])
    assert m @ m.inverse() == FpMatrix.identity(5, 2)
    with pytest.raises(ValueError):
        FpMatrix(2, [[1, 1], [1, 1]]).inverse()


def test_subspace_sum_with_zero():
    v = Subspace.from_vectors(3, 3, [[1, 2, 0]])
    assert v + Subspace.zero(3, 3) == v


def test_subspace_intersect_self():
    v = Subspace.from_vectors(2, 3, [[1, 0, 1], [0, 1, 0]])
    assert (v & v) == v


def test_complementary_lines_span_plane():
    a = Subspace.from_vectors(2, 2, [[1, 0]])
    b = Subspace.from_vectors(2, 2, [[0, 1]])
    assert (a + b).is_full()
    assert (a & b).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_modular_dimension_identity(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    vecs = lambda: [
        [data.draw(st.integers(0, p - 1)) for _ in range(n)]
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    a = Subspace.from_vectors(p, n, vecs())
    b = Subspace.from_vectors(p, n, vecs())
    assert a.dim + b.dim == (a + b).dim + (a & b).dim


def test_canonical_form_makes_equality_structural():
    # same plane, generated two different ways
    a = Subspace.from_vectors(2, 3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.from_vectors(2, 3, [[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    assert a == b
    assert a.basis.tobytes() == b.basis.tobytes()
    assert hash(a) == hash(b)


def test_annihilator_involution():
    s = Subspace.from_vectors(3, 4, [[1, 0, 2, 0], [0, 1, 1, 1]])
    assert s.annihilator().annihilator() == s
    assert s.annihilator().dim == 4 - s.dim


def test_preimage():
    m = FpMatrix(2, [[1, 0], [0, 0]])
    target = Subspace.zero(2, 2)
    assert m.preimage(target) == m.kernel()
    assert m.preimage(Subspace.full(2, 2)).is_full()


def test_quotient_representatives_extend_sub():
    full = Subspace.full(2, 3)
    sub = Subspace.from_vectors(2, 3, [[1, 0, 0]])
    reps = quotient_representatives(full, sub)
    assert reps.shape == (2, 3)
    total = Subspace.from_vectors(2, 3, list(sub.basis) + list(reps))
    assert total.is_full()


def test_operator_kernel_finds_commutant():
    # matrices commuting with a 2x2 Jordan block over F_2: dimension 2
    j = FpMatrix(2, [[0, 1], [0, 0]])
    basis = operator_kernel(2, (2, 2), [(j, j)])
    assert len(basis) == 2
    assert all(m @ j == j @ m for m in basis)


# -- the callback assembler the pairs-based system builder replaced ------------


def _reference_system(fun, p: int, shape: tuple[int, int]) -> FpMatrix:
    """Column k is fun applied to the k-th unit matrix, in row-major order."""
    rows, cols = shape
    columns = []
    for a in range(rows):
        for b in range(cols):
            e = np.zeros((rows, cols), dtype=np.int64)
            e[a, b] = 1
            columns.append(np.asarray(fun(e), dtype=np.int64).ravel() % p)
    return FpMatrix(p, np.array(columns, dtype=np.int64).T)


def reference_operator_kernel(fun, p: int, shape: tuple[int, int]) -> list[np.ndarray]:
    rows, cols = shape
    if rows * cols == 0:
        return []
    kernel = _reference_system(fun, p, shape).kernel()
    return [vec.reshape(rows, cols) for vec in kernel.basis]


def reference_operator_solve(fun, p: int, shape: tuple[int, int], rhs) -> np.ndarray | None:
    sol = _reference_system(fun, p, shape).solve(np.asarray(rhs, dtype=np.int64).ravel() % p)
    return None if sol is None else sol.reshape(shape)


def _intertwiner_conditions(pairs, p: int):
    def fun(x):
        return np.concatenate([(x @ a.data - b.data @ x).ravel() % p for a, b in pairs])

    return fun


@st.composite
def intertwiner_systems(draw):
    """Random pairs (A_i, B_i) with entries biased towards 0, 1 and -1 so that
    kernels are often nontrivial even for a large prime."""
    p = draw(st.sampled_from([2, 3, 1048573]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))

    def square(n):
        rows_ = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        return FpMatrix(p, np.array(rows_, dtype=np.int64).reshape(n, n))

    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        a = square(cols)
        b = a if rows == cols and draw(st.booleans()) else square(rows)
        pairs.append((a, b))
    return p, (rows, cols), pairs


@settings(max_examples=150, deadline=None)
@given(intertwiner_systems(), st.data())
def test_operator_kernel_and_solve_match_reference(system, data):
    p, shape, pairs = system
    fun = _intertwiner_conditions(pairs, p)
    fast = operator_kernel(p, shape, pairs)
    slow = reference_operator_kernel(fun, p, shape)
    assert [m.data.tolist() for m in fast] == [m.tolist() for m in slow]
    # consistent right-hand sides come from a random X; arbitrary ones may not be
    if data.draw(st.booleans()):
        x = np.array(
            [[data.draw(st.integers(0, p - 1)) for _ in range(shape[1])] for _ in range(shape[0])],
            dtype=np.int64,
        )
        rhs = [(x @ a.data - b.data @ x) % p for a, b in pairs]
    else:
        rhs = [
            np.array(
                [[data.draw(st.integers(0, p - 1)) for _ in range(shape[1])] for _ in range(shape[0])],
                dtype=np.int64,
            )
            for _ in pairs
        ]
    got = operator_solve(p, shape, pairs, rhs)
    want = reference_operator_solve(fun, p, shape, np.concatenate([r.ravel() for r in rhs]))
    assert (got is None) == (want is None)
    if want is not None:
        assert got.data.tolist() == want.tolist()


def test_stabilize_period_three_cycle():
    # 0 -> 1 -> 2 -> 3 -> 4 -> 2: two steps before a cycle of length three
    states, preperiod, period = stabilize(0, lambda s: s + 1 if s < 4 else 2)
    assert states == [0, 1, 2, 3, 4]
    assert (preperiod, period) == (2, 3)
    # a key coarser than the state: residues mod 3 repeat after three steps
    states, preperiod, period = stabilize(5, lambda s: s + 1, key=lambda s: s % 3)
    assert states == [5, 6, 7]
    assert (preperiod, period) == (0, 3)


def test_stabilize_monotone_chain():
    # kernels of the powers of a nilpotent 3x3 Jordan block grow one step at a time
    j = FpMatrix(3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    states, preperiod, period = stabilize(
        FpMatrix.identity(3, 3), lambda m: j @ m, key=lambda m: m.kernel()
    )
    assert [m.kernel().dim for m in states] == [0, 1, 2, 3]
    assert (preperiod, period) == (3, 1)


def test_close_under_shift_generates_flag():
    j = FpMatrix(2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    line = Subspace.from_vectors(2, 3, [[0, 0, 1]])
    assert close_under(line, [j]).is_full()
    assert close_under(Subspace.from_vectors(2, 3, [[1, 0, 0]]), [j]).dim == 1
    assert close_under(line, []) == line


def test_combine_is_the_linear_combination():
    a = FpMatrix(5, [[1, 2], [3, 4]])
    b = FpMatrix(5, [[0, 1], [1, 0]])
    assert combine(5, (2, 2), [2, -1], [a, b]) == 2 * a + 4 * b
    assert combine(5, (2, 3), [], []) == FpMatrix.zeros(5, 2, 3)
