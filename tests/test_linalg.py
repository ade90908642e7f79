import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from froblab.errors import AxiomError
import froblab.linalg as linalg
from froblab.linalg import (
    LIST_KERNEL_CELLS,
    MAX_PRIME,
    FpMatrix,
    Subspace,
    close_under,
    combine,
    common_kernel,
    image_rows,
    operator_kernel,
    operator_solve,
    is_prime,
    mulmod,
    quotient_maps,
    quotient_representatives,
    relations,
    restrict_stack,
    rref_stack,
    stabilize,
)
from linalg_reference import (
    count_eliminated_rows,
    identity_block_relations,
    kron_intertwiner_system,
    residue_kernel_preimage,
    two_elimination_kernel,
    whole_operator_kernel,
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
    p = draw(st.sampled_from([2, 3, 5, 1048573]))
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


# -- the numpy kernel the list kernel replaced on small matrices -----------------


@st.composite
def rref_inputs(draw):
    """Unreduced int64 matrices with zero and duplicate rows: small ones drawn
    entry by entry, tall sparse blocks and blocks past LIST_KERNEL_CELLS
    drawn from a seed."""
    p = draw(st.sampled_from([2, 3, 5, 1048573]))
    kind = draw(st.sampled_from(["small", "small", "small", "tall", "big"]))
    if kind == "small":
        rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        entry = st.one_of(st.sampled_from([0, 1, p - 1, p, -1]), st.integers(-3 * p, 3 * p))
        entries = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        a = np.array(entries, dtype=np.int64).reshape(rows, cols)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "tall":
            rows, cols = draw(st.integers(100, 600)), draw(st.integers(1, 4))
        else:
            cols = draw(st.integers(40, 80))
            rows = LIST_KERNEL_CELLS // cols + draw(st.integers(1, 8))
        a = rng.integers(-3 * p, 3 * p, (rows, cols))
        a[rng.random((rows, cols)) < draw(st.sampled_from([0.5, 0.9, 0.99]))] = 0
    if rows:
        for i in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
            a[i] = 0
        for i, j in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1)), max_size=3)):
            a[j] = a[i] + p
    return a, p


@settings(max_examples=200, deadline=None)
@given(rref_inputs())
@example((np.zeros((0, 5), dtype=np.int64), 3))
@example((np.zeros((5, 0), dtype=np.int64), 1048573))
def test_list_kernel_matches_numpy_kernel(case):
    a, p = case
    got, got_pivots = linalg._rref_rows(a, p)
    want, want_pivots = linalg._rref_numpy(a, p)
    assert got.shape == a.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got_pivots == want_pivots


def test_rref_picks_the_kernel_by_entry_count(monkeypatch):
    picked: list[str] = []

    def spy(name):
        real = getattr(linalg, name)

        def recorded(a, p):
            picked.append(name)
            return real(a, p)

        return recorded

    for name in ("_rref_rows", "_rref_numpy"):
        monkeypatch.setattr(linalg, name, spy(name))
    # 4097 = 17 * 241
    for shape in [(64, 64), (4096, 1), (0, 5000), (17, 241), (241, 17), (4097, 1)]:
        linalg._rref(np.ones(shape, dtype=np.int64), 3)
    assert LIST_KERNEL_CELLS == 4096
    assert picked == ["_rref_rows"] * 3 + ["_rref_numpy"] * 3


# -- rref_stack against _rref, matrix by matrix ----------------------------------


@st.composite
def rref_stacks(draw):
    """p and an unreduced B x r x c stack, B, r, c in 0..12, drawn from a
    seed: each matrix dense, sparse, of low rank (a product through a middle
    of size 0 to 3) or zero, and some rows repeated."""
    p = draw(st.sampled_from([2, 3, 1048573, 33554393]))
    B, r, c = (draw(st.integers(0, 12)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((B, r, c), dtype=np.int64)
    for a in stack:
        kind = rng.choice(["dense", "sparse", "low rank", "zero"])
        if kind == "low rank":
            middle = rng.integers(0, 4)
            a[:] = mulmod(rng.integers(0, p, (r, middle)), rng.integers(0, p, (middle, c)), p)
        elif kind != "zero":
            a[:] = rng.integers(0, p, (r, c))
            if kind == "sparse":
                a[rng.random((r, c)) < 0.8] = 0
        if r > 1 and rng.random() < 0.5:
            a[rng.integers(0, r)] = a[rng.integers(0, r)]
    return p, stack + p * rng.integers(-2, 3, stack.shape)


def assert_stack_matches_rref(p: int, stack: np.ndarray) -> None:
    reduced, ranks = rref_stack(stack, p)
    assert reduced.shape == stack.shape and reduced.dtype == np.int64
    assert ranks.shape == (stack.shape[0],)
    for a, got, rank in zip(stack, reduced, ranks.tolist()):
        want, pivots = linalg._rref(a, p)
        assert np.array_equal(got, want)
        assert rank == len(pivots)
        assert [int(np.flatnonzero(row)[0]) for row in got[:rank]] == pivots


# about 1.5 s for 300 examples on a 2-core Xeon
@settings(max_examples=300, deadline=None)
@given(rref_stacks())
@example((2, np.zeros((0, 3, 3), dtype=np.int64)))
@example((3, np.zeros((4, 0, 5), dtype=np.int64)))
@example((1048573, np.zeros((3, 5, 0), dtype=np.int64)))
@example((33554393, np.zeros((2, 4, 4), dtype=np.int64)))
def test_rref_stack_matches_rref_matrix_by_matrix(case):
    assert_stack_matches_rref(*case)


def test_rref_stack_matches_the_numpy_kernel_past_the_list_kernel():
    """Matrices past LIST_KERNEL_CELLS, where _rref takes the numpy kernel:
    dense, of deficient rank and zero, in one stack per prime."""
    rng = np.random.default_rng(26)
    for p in (2, 3, 1048573, 33554393):
        rows, cols = 70, 64
        stack = np.zeros((3, rows, cols), dtype=np.int64)
        stack[0] = rng.integers(0, p, (rows, cols))
        stack[1] = mulmod(rng.integers(0, p, (rows, 30)), rng.integers(0, p, (30, cols)), p)
        assert rows * cols > LIST_KERNEL_CELLS
        assert_stack_matches_rref(p, stack)


def test_rref_takes_a_numpy_integer_modulus():
    for shape in [(3, 3), (70, 70)]:
        a = np.full(shape, 2, dtype=np.int64)
        want = Subspace.from_vectors(3, shape[1], a)
        assert Subspace.from_vectors(np.int64(3), shape[1], a) == want


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        FpMatrix(4, [[1]])
    with pytest.raises(ValueError):
        FpMatrix(1, [[0]])


def test_prime_far_above_the_limit_is_refused_before_trial_division():
    # 2^61 - 1 is prime; trial division up to its square root never ends
    with pytest.raises(ValueError, match="exceeds the single-word limit"):
        FpMatrix(2**61 - 1, [[1]])
    with pytest.raises(ValueError, match="exceeds the single-word limit"):
        Subspace.from_vectors(2**61 - 1, 1, [[1]])
    # the size test comes first, also for a composite modulus
    with pytest.raises(ValueError, match="modulus 33554433 exceeds"):
        FpMatrix(MAX_PRIME + 1, [[1]])


def test_prime_check_is_cached_and_keeps_its_messages():
    FpMatrix(1048573, [[1]])
    FpMatrix(1048573, [[2]])
    assert is_prime.cache_info().hits >= 1
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        FpMatrix(4, [[1]])
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        Subspace.from_vectors(4, 1, [[1]])


def test_matmul_refuses_products_past_int64_headroom():
    p = next(q for q in range(MAX_PRIME, 1, -1) if is_prime(q))
    # entries are at most p - 1, so an inner dimension n is safe while
    # n * (p - 1)^2 < 2^63
    limit = ((1 << 63) - 1) // (p - 1) ** 2
    under = FpMatrix(p, np.full((1, limit), p - 1))
    assert (under @ under.T).data.tolist() == [[limit % p]]
    past = FpMatrix(p, np.full((1, limit + 1), p - 1))
    with pytest.raises(ValueError, match="overflow int64"):
        past @ past.T
    # the raw numpy product behind apply shares the same test
    assert under.apply(np.full(limit, p - 1)).tolist() == [limit % p]
    with pytest.raises(ValueError, match="overflow int64"):
        past.apply(np.full(limit + 1, p - 1))


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


@pytest.mark.parametrize(
    "p,n,basis,pivots",
    [
        (2, 2, [[1, 1], [0, 1]], [0, 1]),
        (2, 3, [[1, 0, 5]], [0]),
        (4, 2, [[1, 0], [0, 1]], [0, 1]),
        (2, 2, np.array([[1.0, 0.0]]), [0]),
        (2, 2, [[0, 1], [1, 0]], [1, 0]),
        (2, 2, [[0, 1]], [2]),
        (2, 2, [[1, 1]], [1]),
        (2, 2, [[1, 0]], [0, 1]),
        (2, 3, [[1, 0]], [0]),
        (3, 2, [[2, 0]], [0]),
    ],
    ids=[
        "spans_but_not_reduced", "entry_past_p", "p_not_prime", "float_basis",
        "pivots_decreasing", "pivot_past_n", "entry_left_of_pivot",
        "pivots_without_rows", "wrong_width", "pivot_entry_not_1",
    ],
)
def test_the_subspace_constructor_refuses_data_that_is_not_canonical(p, n, basis, pivots):
    # the first two were kept as given: the span of [[1, 1], [0, 1]] read
    # [1, 0] as outside it, and [1, 0, 5] over F2 read [1, 0, 1] as inside
    with pytest.raises(ValueError):
        Subspace(p, n, np.asarray(basis), pivots)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_the_subspace_constructor_takes_every_canonical_basis(m):
    space = Subspace.from_vectors(m.p, m.cols, m.data)
    for pivots in (space.pivots, space.pivots.tolist()):
        again = Subspace(m.p, m.cols, space.basis.copy(), pivots)
        assert again == space and np.array_equal(again.pivots, space.pivots)
        assert not again.basis.flags.writeable and not again.pivots.flags.writeable


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: FpMatrix(2, [[1, 0], [0, 1]]).preimage(Subspace.from_vectors(3, 2, [[1, 2]])),
        lambda: close_under(Subspace.from_vectors(3, 2, [[1, 0]]), [FpMatrix(2, [[0, 1], [1, 0]])]),
        lambda: restrict_stack([FpMatrix(5, [[1, 0], [0, 1]])], Subspace.from_vectors(3, 2, [[1, 2]])),
        lambda: image_rows(Subspace.full(3, 2), [FpMatrix.identity(3, 2), FpMatrix.identity(2, 2)]),
    ],
    ids=["preimage", "close_under", "restrict", "image_rows"],
)
def test_matrices_and_subspaces_over_different_fields_are_refused(call):
    with pytest.raises(ValueError, match="different fields"):
        call()


def test_preimage():
    m = FpMatrix(2, [[1, 0], [0, 0]])
    target = Subspace.zero(2, 2)
    assert m.preimage(target) == m.kernel()
    assert m.preimage(Subspace.full(2, 2)).is_full()


# -- the annihilator route the one-kernel preimage replaced ---------------------


def _preimage_reference(m: FpMatrix, target: Subspace) -> Subspace:
    """Rows cutting out the target (its annihilator), then the kernel of cut @ m."""
    cut = target.annihilator().basis
    return FpMatrix(m.p, (cut @ m.data) % m.p).kernel()


@st.composite
def preimage_cases(draw):
    """A square or rectangular matrix and a zero, full or spanned target."""
    p = draw(st.sampled_from([2, 3, 1048573]))
    rows = draw(st.integers(0, 5))
    cols = draw(st.sampled_from([rows, draw(st.integers(0, 5))]))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    m = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
    kind = draw(st.sampled_from(["zero", "full", "span"]))
    if kind == "zero":
        target = Subspace.zero(p, rows)
    elif kind == "full":
        target = Subspace.full(p, rows)
    else:
        gens = draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), max_size=4))
        target = Subspace.from_vectors(p, rows, gens)
    return FpMatrix(p, m.reshape(rows, cols)), target


@settings(max_examples=300, deadline=None)
@given(preimage_cases())
def test_preimage_matches_annihilator_reference(case):
    m, target = case
    got, want = m.preimage(target), _preimage_reference(m, target)
    assert got == want
    assert got.pivots.tolist() == want.pivots.tolist()


def test_preimage_is_one_kernel(monkeypatch):
    # one elimination of [[B, 0], [m^T, I]], on dim target + cols rows, whose
    # rows past the target's part are already canonical; the annihilator
    # route took four
    m = FpMatrix(3, [[1, 2, 0, 1], [0, 1, 1, 0], [2, 2, 1, 1]])
    target = Subspace.from_vectors(3, 3, [[1, 1, 0]])
    counts = count_eliminated_rows(monkeypatch)
    got = m.preimage(target)
    monkeypatch.undo()
    assert got == _preimage_reference(m, target)
    assert counts == [target.dim + m.cols]


def test_quotient_representatives_extend_sub():
    full = Subspace.full(2, 3)
    sub = Subspace.from_vectors(2, 3, [[1, 0, 0]])
    reps = quotient_representatives(full, sub)
    assert reps.shape == (2, 3)
    total = Subspace.from_vectors(2, 3, list(sub.basis) + list(reps))
    assert total.is_full()


# -- the per-vector coordinates loop the block primitive replaced ---------------


def reference_coordinates(space: Subspace, v) -> np.ndarray | None:
    """One vector: pivots found row by row, then the residue against the basis."""
    v = np.asarray(v, dtype=np.int64) % space.p
    pivots = [int(np.nonzero(row)[0][0]) for row in space.basis]
    coords = np.array([v[c] for c in pivots], dtype=np.int64)
    residue = (v - coords @ space.basis) % space.p if space.dim else v
    return None if residue.any() else coords


@st.composite
def subspaces_and_blocks(draw):
    """A subspace (often zero or full) and a block of rows, some of them inside."""
    p = draw(st.sampled_from([2, 3, 1048573]))
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    kind = draw(st.sampled_from(["zero", "full", "span"]))
    if kind == "zero":
        space = Subspace.zero(p, n)
    elif kind == "full":
        space = Subspace.full(p, n)
    else:
        gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
        space = Subspace.from_vectors(p, n, gens)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            coeffs = np.array(draw(st.lists(entry, min_size=space.dim, max_size=space.dim)), dtype=np.int64)
            rows.append(((coeffs @ space.basis) % p).tolist() if space.dim else [0] * n)
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return space, np.array(rows, dtype=np.int64).reshape(len(rows), n)


@settings(max_examples=300, deadline=None)
@given(subspaces_and_blocks())
def test_block_coordinates_match_per_vector_reference(case):
    space, block = case
    want = [reference_coordinates(space, row) for row in block]
    got = space.coordinates(block)
    if any(w is None for w in want):
        assert got is None
        assert not space.contains(block)
    else:
        assert got.shape == (len(block), space.dim)
        assert got.tolist() == [w.tolist() for w in want]
    for row, w in zip(block, want):
        one = space.coordinates(row)
        assert (one is None) == (w is None)
        if w is not None:
            assert one.tolist() == w.tolist()


# -- the trusted door for canonical package data ---------------------------------


@settings(max_examples=200, deadline=None)
@given(rref_inputs())
@example((np.zeros((3, 0), dtype=np.int64), 2))  # ambient dimension 0
@example((np.zeros((0, 4), dtype=np.int64), 1048573))  # no rows: the zero space
def test_trusted_rows_match_from_vectors(case):
    a, p = case
    n = a.shape[1]
    got, want = Subspace._rows(p, n, a), Subspace.from_vectors(p, n, a)
    assert got == want and got.pivots.tolist() == want.pivots.tolist()
    # one "span" entry in a scope, whichever door the array comes through
    with linalg.shared_eliminations():
        assert Subspace.from_vectors(p, n, a.copy()) is Subspace._rows(p, n, a)


@st.composite
def subspace_pairs(draw):
    """Two subspaces S and T of one F_p^n, p in {2, 3, 1048573}, each zero,
    full or a drawn span, T often inside S, for n from 0 to 6 or n = 70,
    where a span of more than 58 rows is past LIST_KERNEL_CELLS."""
    p = draw(st.sampled_from([2, 3, 1048573]))
    n = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 70]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def space(inside: Subspace | None) -> Subspace:
        kind = draw(st.sampled_from(["zero", "full", "span", "span"]))
        if kind == "zero":
            return Subspace.zero(p, n)
        if kind == "full":
            return Subspace.full(p, n)
        k = draw(st.integers(0, n + 1))
        if inside is not None:  # combinations of the basis of inside
            return Subspace.from_vectors(p, n, mulmod(rng.integers(0, p, (k, inside.dim)), inside.basis, p))
        rows = rng.integers(0, p, (k, n))
        rows[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
        return Subspace.from_vectors(p, n, rows)

    S = space(None)
    return S, space(S if draw(st.booleans()) else None)


@settings(max_examples=300, deadline=None)
@given(subspace_pairs())
# [1, 1, 0] is the sum of [1, 0, 1] and [0, 1, 1]: its last entry 2 reduces to 0
@example((Subspace.from_vectors(2, 3, [[1, 0, 1], [0, 1, 1]]), Subspace.from_vectors(2, 3, [[1, 1, 0]])))
def test_trusted_containment_matches_the_coordinates_route(case):
    S, T = case
    for big, small in ((S, T), (T, S)):
        want = big.coordinates(small.basis) is not None
        assert big.contains_space(small) is want
        assert (small <= big) is want
    assert S <= S + T and T <= S + T


def reference_quotient_representatives(space: Subspace, sub: Subspace) -> np.ndarray:
    """Keep each basis row of space outside the span of sub and the rows kept so far."""
    running = sub
    reps = []
    for row in space.basis:
        if not running.contains(row):
            reps.append(row)
            running = running + Subspace.from_vectors(space.p, space.ambient_dim, [row])
    return np.array(reps, dtype=np.int64).reshape(len(reps), space.ambient_dim)


@settings(max_examples=200, deadline=None)
@given(subspaces_and_blocks())
def test_quotient_representatives_match_greedy_reference(case):
    sub, block = case
    space = sub + Subspace.from_vectors(sub.p, sub.ambient_dim, block)
    got = quotient_representatives(space, sub)
    assert got.tolist() == reference_quotient_representatives(space, sub).tolist()
    assert got.shape == (space.dim - sub.dim, sub.ambient_dim)


@settings(max_examples=100, deadline=None)
@given(subspaces_and_blocks())
def test_quotient_maps_split_off_the_subspace(case):
    sub, _ = case
    p, n = sub.p, sub.ambient_dim
    proj, lift = quotient_maps(sub)
    assert (proj.rows, proj.cols, lift.rows, lift.cols) == (n - sub.dim, n, n, n - sub.dim)
    assert proj @ lift == FpMatrix.identity(p, n - sub.dim)
    assert proj.kernel() == sub
    assert lift.data.T.tolist() == quotient_representatives(Subspace.full(p, n), sub).tolist()


def reference_quotient_maps(sub: Subspace) -> tuple[FpMatrix, FpMatrix]:
    """Three eliminations: the full space, its representatives over sub, and
    the inverse of [sub^T | reps^T], whose rows past sub's are the projection."""
    p, n = sub.p, sub.ambient_dim
    reps = quotient_representatives(Subspace.full(p, n), sub)
    change = FpMatrix(p, np.vstack([sub.basis, reps]).T).inverse()
    return FpMatrix(p, change.data[sub.dim :, :]), FpMatrix(p, reps.T)


@settings(max_examples=100, deadline=None)
@given(subspaces_and_blocks())
def test_quotient_maps_match_the_three_elimination_reference(case):
    sub, _ = case
    assert quotient_maps(sub) == reference_quotient_maps(sub)


def test_quotient_maps_is_one_elimination(monkeypatch):
    rng = np.random.default_rng(2)
    subs = [Subspace.zero(3, 4), Subspace.full(3, 4), Subspace.from_vectors(2, 3, [[0, 1, 1]])]
    # 60 x (60 + 20) entries: past LIST_KERNEL_CELLS, on the numpy kernel
    for p, n, k in [(1048573, 6, 3), (5, 60, 20)]:
        subs.append(Subspace.from_vectors(p, n, rng.integers(0, p, (k, n))))
    for sub in subs:
        counts = count_eliminated_rows(monkeypatch)
        got = quotient_maps(sub)
        monkeypatch.undo()
        assert len(counts) == 1
        assert got == reference_quotient_maps(sub)


# -- relations among rows against the kernel of the transpose ---------------------


def reference_relations(p: int, rows: np.ndarray) -> Subspace:
    """The kernel of the N x k transpose: two eliminations on N rows."""
    return FpMatrix(p, rows.T).kernel()


@st.composite
def relation_rows(draw):
    """A k x N array whose rows are zero, repeats or combinations of earlier
    rows, or drawn afresh."""
    p = draw(st.sampled_from([2, 3, 1048573]))
    k, n = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    rows = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        kind = draw(st.sampled_from(["zero", "repeat", "combine", "fresh"] if i else ["zero", "fresh"]))
        if kind == "repeat":
            rows[i] = rows[draw(st.integers(0, i - 1))]
        elif kind == "combine":
            coeffs = np.array(draw(st.lists(entry, min_size=i, max_size=i)), dtype=np.int64)
            rows[i] = (coeffs @ rows[:i]) % p
        elif kind == "fresh":
            rows[i] = draw(st.lists(entry, min_size=n, max_size=n))
    return p, rows


@settings(max_examples=300, deadline=None)
@given(relation_rows())
@example((2, np.zeros((0, 4), dtype=np.int64)))
@example((3, np.zeros((3, 0), dtype=np.int64)))
@example((3, np.zeros((0, 0), dtype=np.int64)))
@example((2, np.zeros((3, 4), dtype=np.int64)))
@example((3, np.array([[1, 2, 0], [1, 2, 0], [2, 1, 0]], dtype=np.int64)))
@example((1048573, np.array([[1, 0, 0, 5], [0, 1, 0, 7], [0, 0, 1, 9]], dtype=np.int64)))
def test_relations_match_the_kernel_of_the_transpose(case):
    p, rows = case
    got, want = relations(p, rows), reference_relations(p, rows)
    assert got.ambient_dim == want.ambient_dim == rows.shape[0]
    assert got.basis.shape == want.basis.shape
    assert got.basis.tolist() == want.basis.tolist()
    assert got.pivots.tolist() == want.pivots.tolist()
    assert not mulmod(got.basis, rows, p).any()


def test_relations_is_one_elimination_on_k_rows(monkeypatch):
    rng = np.random.default_rng(5)
    cases = [(2, np.zeros((0, 3), dtype=np.int64)), (3, rng.integers(0, 3, (4, 9)))]
    # 3 x (2000 + 3) entries: past LIST_KERNEL_CELLS, on the numpy kernel
    wide = rng.integers(0, 1048573, (3, 2000))
    cases.append((1048573, np.vstack([wide[:2], (wide[0] + 5 * wide[1]) % 1048573])))
    for p, rows in cases:
        counts = count_eliminated_rows(monkeypatch)
        got = relations(p, rows)
        monkeypatch.undo()
        assert counts == [rows.shape[0]]
        assert got == reference_relations(p, rows)
    assert got.dim == 1


# -- the residue kernel and the identity block that preimage_rows replaced -------


@st.composite
def preimage_rows_cases(draw):
    """A k x m array of target rows (zero, repeated, combined or fresh) and an
    m x n matrix g, square or not, some of whose columns map into the span."""
    p, rows = draw(relation_rows())
    m = rows.shape[1]
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    g = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n)), dtype=np.int64)
    g = g.reshape(m, n)
    if rows.shape[0] and n and draw(st.booleans()):
        coeffs = np.array(draw(st.lists(entry, min_size=rows.shape[0], max_size=rows.shape[0])))
        g[:, draw(st.integers(0, n - 1))] = mulmod(coeffs, rows, p)
    return p, g, rows


def _large_preimage_rows_cases() -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Cases past LIST_KERNEL_CELLS, on the numpy kernel, for p in {2, 3, 1048573}."""
    rng = np.random.default_rng(22)
    cases = []
    for p, m, n, k in [(2, 40, 60, 30), (3, 70, 40, 20), (1048573, 50, 45, 33)]:
        rows = rng.integers(0, p, (k, m))
        rows[k // 2 :] = mulmod(rng.integers(0, p, (k - k // 2, k // 2)), rows[: k // 2], p)
        g = rng.integers(0, p, (m, n))
        g[:, : n // 3] = mulmod(rows.T, rng.integers(0, p, (k, n // 3)), p)
        cases.append((p, g, rows))
    return cases


def _assert_same_subspace(got: Subspace, want: Subspace) -> None:
    assert got.ambient_dim == want.ambient_dim
    assert got.basis.shape == want.basis.shape
    assert got.basis.tolist() == want.basis.tolist()
    assert got.pivots.tolist() == want.pivots.tolist()


@settings(max_examples=300, deadline=None)
@given(preimage_rows_cases())
@example((2, np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)))
@example((3, np.zeros((3, 2), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)))
@example((3, np.array([[1, 2], [2, 1]], dtype=np.int64), np.array([[1, 2]], dtype=np.int64)))
def test_preimage_rows_match_the_residue_kernel(case):
    p, g, rows = case
    got = linalg.preimage_rows(p, g, rows)
    _assert_same_subspace(got, residue_kernel_preimage(p, g, rows))
    assert got.ambient_dim == g.shape[1]


def test_preimage_rows_past_the_list_kernel_match_the_residue_kernel(monkeypatch):
    for p, g, rows in _large_preimage_rows_cases():
        (k, m), n = rows.shape, g.shape[1]
        assert (k + n) * (m + n) > LIST_KERNEL_CELLS
        counts = count_eliminated_rows(monkeypatch)
        got = linalg.preimage_rows(p, g, rows)
        monkeypatch.undo()
        assert counts == [k + n]
        _assert_same_subspace(got, residue_kernel_preimage(p, g, rows))
        assert got.dim >= n // 3


@settings(max_examples=300, deadline=None)
@given(relation_rows())
@example((3, np.zeros((3, 0), dtype=np.int64)))
@example((1048573, np.array([[1, 0, 0, 5], [0, 1, 0, 7], [0, 0, 1, 9]], dtype=np.int64)))
def test_relations_match_the_identity_block_route(case):
    p, rows = case
    _assert_same_subspace(relations(p, rows), identity_block_relations(p, rows))


def test_relations_past_the_list_kernel_match_the_identity_block_route():
    for p, g, _ in _large_preimage_rows_cases():
        m, n = g.shape
        assert n * (m + n) > LIST_KERNEL_CELLS
        _assert_same_subspace(relations(p, g.T), identity_block_relations(p, g.T))


def test_from_vectors_keeps_its_messages():
    with pytest.raises(ValueError, match=r"^vector length 3 != ambient 2$"):
        Subspace.from_vectors(2, 2, [[1, 0], [1, 0, 1]])
    with pytest.raises(ValueError, match=r"^vector length 3 != ambient 2$"):
        Subspace.from_vectors(2, 2, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match=r"^vector length 3 != ambient 2$"):
        Subspace.from_vectors(2, 2, np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match=r"^expected a vector, got shape \(\)$"):
        Subspace.from_vectors(2, 2, [1, 0])
    with pytest.raises(ValueError, match=r"^expected a vector, got shape \(1, 2\)$"):
        Subspace.from_vectors(2, 2, np.zeros((1, 1, 2), dtype=np.int64))
    # every row is converted before any length is compared
    with pytest.raises(ValueError, match=r"^expected a vector, got shape \(\)$"):
        Subspace.from_vectors(2, 2, [[1, 0, 1], 1])


@settings(max_examples=200, deadline=None)
@given(subspaces_and_blocks())
def test_from_vectors_block_matches_rows(case):
    space, block = case
    n = space.ambient_dim
    rows = Subspace.from_vectors(space.p, n, [list(map(int, row)) for row in block])
    assert Subspace.from_vectors(space.p, n, block) == rows
    assert Subspace.from_vectors(space.p, n, block - space.p) == rows
    assert Subspace.from_vectors(space.p, n, block.astype(np.int32)) == rows


def reference_kernel(m: FpMatrix) -> Subspace:
    """One vector per free column, filled in entry by entry."""
    reduced, _ = m.rref()
    pivots = [int(np.nonzero(row)[0][0]) for row in reduced.data if row.any()]
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = np.zeros(m.cols, dtype=np.int64)
        v[fc] = 1
        for r_idx, pc in enumerate(pivots):
            v[pc] = (-reduced.data[r_idx, fc]) % m.p
        basis.append(v)
    return Subspace.from_vectors(m.p, m.cols, basis)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_matches_reference(m):
    assert m.kernel() == reference_kernel(m)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_common_kernel_is_the_intersection_of_kernels(m, data):
    p, n = m.p, m.cols
    extra = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    mats = [m, FpMatrix(p, [extra]), FpMatrix(p, m.data[::-1])][: data.draw(st.integers(0, 3))]
    want = Subspace.full(p, n)
    for a in mats:
        want = want & a.kernel()
    assert common_kernel(p, n, mats) == want


def test_common_kernel_of_nothing_is_everything():
    assert common_kernel(3, 4, []) == Subspace.full(3, 4)
    assert common_kernel(3, 0, []) == Subspace.full(3, 0)


def test_restrict_gives_the_matrix_on_an_invariant_subspace():
    j = FpMatrix(3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    plane = Subspace.from_vectors(3, 3, [[1, 0, 0], [0, 1, 0]])
    assert FpMatrix(3, restrict_stack([j], plane)[0]) == FpMatrix(3, [[0, 1], [0, 0]])
    assert FpMatrix(3, restrict_stack([j], Subspace.zero(3, 3))[0]) == FpMatrix.zeros(3, 0, 0)
    with pytest.raises(AxiomError, match="does not preserve"):
        restrict_stack([j], Subspace.from_vectors(3, 3, [[0, 1, 0]]))


def test_operator_kernel_finds_commutant():
    # matrices commuting with a 2x2 Jordan block over F_2: dimension 2
    j = FpMatrix(2, [[0, 1], [0, 0]])
    basis = operator_kernel(2, j.data[None], j.data[None])
    assert len(basis) == 2
    assert all(m @ j == j @ m for m in basis)


# -- the callback assembler the stacked system builder replaced -----------------


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


def _intertwiner_conditions(a: np.ndarray, b: np.ndarray, p: int):
    def fun(x):
        conditions = [(x @ ai - bi @ x).ravel() % p for ai, bi in zip(a, b)]
        return np.concatenate([np.zeros(0, dtype=np.int64), *conditions])

    return fun


@st.composite
def intertwiner_systems(draw):
    """Random stacks of the A_i and the B_i, d = 0 included, with entries
    biased towards 0, 1 and -1 so that kernels are often nontrivial even for
    a large prime."""
    p = draw(st.sampled_from([2, 3, 1048573]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    d = draw(st.integers(0, 3))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))

    def stack(n):
        entries = draw(st.lists(entry, min_size=d * n * n, max_size=d * n * n))
        return np.array(entries, dtype=np.int64).reshape(d, n, n)

    a = stack(cols)
    b = a if rows == cols and draw(st.booleans()) else stack(rows)
    return p, a, b


@settings(max_examples=150, deadline=None)
@given(intertwiner_systems(), st.data())
def test_operator_kernel_and_solve_match_reference(system, data):
    p, a, b = system
    shape = (b.shape[1], a.shape[1])
    fun = _intertwiner_conditions(a, b, p)
    fast = operator_kernel(p, a, b)
    slow = reference_operator_kernel(fun, p, shape)
    assert [m.data.tolist() for m in fast] == [m.tolist() for m in slow]
    # consistent right-hand sides come from a random X; arbitrary ones may not be
    if data.draw(st.booleans()):
        x = np.array(
            [[data.draw(st.integers(0, p - 1)) for _ in range(shape[1])] for _ in range(shape[0])],
            dtype=np.int64,
        )
        rhs = [(x @ ai - bi @ x) % p for ai, bi in zip(a, b)]
    else:
        rhs = [
            np.array(
                [[data.draw(st.integers(0, p - 1)) for _ in range(shape[1])] for _ in range(shape[0])],
                dtype=np.int64,
            )
            for _ in range(a.shape[0])
        ]
    got = operator_solve(p, a, b, rhs)
    want = reference_operator_solve(fun, p, shape, np.concatenate([np.zeros(0), *[r.ravel() for r in rhs]]))
    assert (got is None) == (want is None)
    if want is not None:
        assert got.data.tolist() == want.tolist()


# -- the two-elimination kernel and the whole-system intertwiner solver ---------


@st.composite
def kernel_matrices(draw):
    """Matrices with zero rows, zero columns and repeated rows, full rank
    ones, and ones past LIST_KERNEL_CELLS (the numpy kernel)."""
    p = draw(st.sampled_from([2, 3, 1048573]))
    kind = draw(st.sampled_from(["small", "small", "small", "full", "big"]))
    if kind == "big":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cols = draw(st.integers(20, 90))
        rows = LIST_KERNEL_CELLS // cols + draw(st.integers(1, 30))
        a = rng.integers(0, p, (rows, cols))
        a[rng.random((rows, cols)) < draw(st.sampled_from([0.5, 0.9, 0.99]))] = 0
    else:
        rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        if kind == "full":
            rows = cols = max(rows, 1)
        entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
        a = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
        a = a.reshape(rows, cols)
        if kind == "full":
            a = np.triu(a, 1) + np.diag(draw(st.lists(st.integers(1, p - 1), min_size=rows, max_size=rows)))
            return FpMatrix(p, a[draw(st.permutations(range(rows)))])
    if rows:
        for i in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
            a[i] = 0
        for i, j in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1)), max_size=3)):
            a[j] = a[i]
    if cols:
        for c in draw(st.lists(st.integers(0, cols - 1), max_size=3)):
            a[:, c] = 0
    return FpMatrix(p, a)


@settings(max_examples=200, deadline=None)
@given(kernel_matrices())
@example(FpMatrix(2, np.zeros((0, 4), dtype=np.int64)))
@example(FpMatrix(3, np.zeros((4, 0), dtype=np.int64)))
@example(FpMatrix(3, np.zeros((3, 5), dtype=np.int64)))
@example(FpMatrix.identity(1048573, 5))
@example(FpMatrix(3, [[1, 2, 0, 1], [1, 2, 0, 1], [2, 1, 0, 2]]))
def test_kernel_matches_the_two_elimination_reference(m):
    got, want = m.kernel(), two_elimination_kernel(m)
    assert got.ambient_dim == want.ambient_dim == m.cols
    assert got.basis.shape == want.basis.shape
    assert got.basis.dtype == np.int64
    assert got.basis.tolist() == want.basis.tolist()
    assert got.pivots.tolist() == want.pivots.tolist()
    assert not got.basis.flags.writeable


def test_kernel_is_one_elimination(monkeypatch):
    rng = np.random.default_rng(3)
    mats = [FpMatrix(2, np.zeros((0, 3), dtype=np.int64)), FpMatrix.identity(3, 4)]
    mats.append(FpMatrix(1048573, rng.integers(0, 1048573, (4, 9))))
    # 70 x 70 entries: past LIST_KERNEL_CELLS, on the numpy kernel
    mats.append(FpMatrix(5, np.vstack([rng.integers(0, 5, (60, 70)), np.zeros((10, 70), dtype=np.int64)])))
    for m in mats:
        counts = count_eliminated_rows(monkeypatch)
        got = m.kernel()
        monkeypatch.undo()
        assert counts == [m.rows]
        assert got == two_elimination_kernel(m)


@settings(max_examples=150, deadline=None)
@given(intertwiner_systems(), st.integers(0, 3))
def test_intertwiner_system_matches_the_kron_reference(system, keep):
    p, a, b = system
    a, b = a[:keep], b[:keep]
    rows, cols = b.shape[1], a.shape[1]
    got = linalg._intertwiner_system(p, a, b)
    want = kron_intertwiner_system(p, a, b)
    assert got.shape == want.shape == (a.shape[0] * rows * cols, rows * cols)
    assert got.tolist() == want.tolist()


def _empty(n: int) -> np.ndarray:
    return np.zeros((0, n, n), dtype=np.int64)


def test_no_pairs_leave_every_matrix_a_solution():
    # d = 0: stacks of shape (0, cols, cols) and (0, rows, rows)
    units = operator_kernel(2, _empty(2), _empty(2))
    assert [m.data.tolist() for m in units] == [
        [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]],
    ]
    assert operator_solve(2, _empty(2), _empty(2), []) == FpMatrix.zeros(2, 2, 2)
    assert [m.data.ravel().tolist() for m in operator_kernel(3, _empty(1), _empty(3))] == np.eye(3).tolist()
    assert operator_solve(3, _empty(3), _empty(1), []) == FpMatrix.zeros(3, 1, 3)


@pytest.mark.parametrize("p", [2, 3, 1048573])
@pytest.mark.parametrize("d", [0, 2])
@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0)])
def test_zero_row_or_column_dimension_has_only_the_empty_solution(p, d, rows, cols):
    a = np.ones((d, cols, cols), dtype=np.int64)
    b = np.ones((d, rows, rows), dtype=np.int64)
    assert operator_kernel(p, a, b) == whole_operator_kernel(p, a, b) == []
    rhs = np.zeros((d, rows, cols), dtype=np.int64)
    assert operator_solve(p, a, b, rhs) == FpMatrix.zeros(p, rows, cols)


def _block_stack(p: int, d: int, sizes: list[int], kind: str, rng) -> np.ndarray:
    """d matrices that are block diagonal with the given block sizes.

    kind "repeated" uses one set of blocks per size, "conjugated" conjugates
    each set by an invertible matrix of its own, "permuted" shuffles the
    indices, so the blocks are not contiguous; "contiguous" is none of these.
    """
    n = sum(sizes)
    stack = np.zeros((d, n, n), dtype=np.int64)
    shared: dict[int, np.ndarray] = {}
    offset = 0
    for k in sizes:
        if kind == "repeated" and k in shared:
            blocks = shared[k]
        else:
            blocks = rng.choice([0, 0, 1, p - 1, int(rng.integers(0, p))], (d, k, k))
            shared[k] = blocks
        if kind == "conjugated":
            s = FpMatrix(p, np.triu(rng.integers(0, p, (k, k)), 1) + np.eye(k, dtype=np.int64))
            s = FpMatrix(p, s.data[rng.permutation(k)])
            blocks = np.array([(s.inverse() @ FpMatrix(p, m) @ s).data for m in blocks])
        stack[:, offset : offset + k, offset : offset + k] = blocks
        offset += k
    if kind == "permuted":
        perm = rng.permutation(n)
        stack = stack[:, perm][:, :, perm]
    return stack % p


@st.composite
def block_systems(draw):
    """Intertwiner systems past LIST_KERNEL_CELLS whose A_i and B_i are block
    diagonal; B is sometimes A itself, so that the kernel is a commutant."""
    p = draw(st.sampled_from([2, 3, 1048573]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["contiguous", "permuted", "conjugated", "repeated"]))

    def sizes():
        out = []
        while sum(out) < 9:
            out.append(draw(st.integers(1, 4)))
        return out

    a = _block_stack(p, d, sizes(), kind, rng)
    b = a if draw(st.booleans()) else _block_stack(p, d, sizes(), kind, rng)
    return p, a, b


@settings(max_examples=25, deadline=None)
@given(block_systems())
def test_split_operator_kernel_matches_the_whole_system(system):
    p, a, b = system
    assert a.shape[0] * (b.shape[1] * a.shape[1]) ** 2 > LIST_KERNEL_CELLS
    got = operator_kernel(p, a, b)
    want = whole_operator_kernel(p, a, b)
    assert [m.data.tolist() for m in got] == [m.data.tolist() for m in want]
    assert all(np.array_equal(mulmod(x.data, a, p), mulmod(b, x.data, p)) for x in got[:5])


def test_split_solves_each_distinct_block_pair_once(monkeypatch):
    # ten equal 1 x 1 blocks and one 2 x 2 block: 4 distinct block pairs
    p = 3
    j = np.array([[0, 1], [0, 0]])
    a = np.zeros((12, 12), dtype=np.int64)
    a[10:, 10:] = j
    counts = count_eliminated_rows(monkeypatch)
    got = operator_kernel(p, a[None], a[None])
    monkeypatch.undo()
    assert sorted(counts) == [1, 2, 2, 4]
    assert [m.data.tolist() for m in got] == [m.data.tolist() for m in whole_operator_kernel(p, a[None], a[None])]
    # the commutant: 100 entries among the zero 1 x 1 blocks, one in each
    # of the 20 rectangular pairs and 2 in the Jordan block
    assert len(got) == 100 + 20 + 2


def test_single_block_past_the_crossover_is_one_elimination(monkeypatch):
    # a 9 x 9 shift links every index: nothing splits
    p = 1048573
    shift = np.eye(9, k=1, dtype=np.int64)[None]
    counts = count_eliminated_rows(monkeypatch)
    got = operator_kernel(p, shift, shift)
    monkeypatch.undo()
    assert counts == [81]
    assert [m.data.tolist() for m in got] == [m.data.tolist() for m in whole_operator_kernel(p, shift, shift)]
    assert len(got) == 9


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
    assert close_under(Subspace.zero(2, 3), []).is_zero()
    assert close_under(Subspace.full(2, 3), []).is_full()


# -- the whole-stack closure the spin-up replaced -------------------------------


def _close_under_reference(space: Subspace, operators) -> Subspace:
    """Re-eliminate the basis plus the images of the whole basis until it repeats."""
    p, n = space.p, space.ambient_dim

    def step(current: Subspace) -> Subspace:
        return Subspace.from_vectors(p, n, np.vstack([current.basis, image_rows(current, operators)]))

    return stabilize(space, step)[0][-1]


@st.composite
def closure_cases(draw):
    """A start space (often zero or full) and 0-3 operators of assorted shapes."""
    p = draw(st.sampled_from([2, 3, 1048573]))
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    kind = draw(st.sampled_from(["zero", "full", "span"]))
    if kind == "zero":
        space = Subspace.zero(p, n)
    elif kind == "full":
        space = Subspace.full(p, n)
    else:
        gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
        space = Subspace.from_vectors(p, n, gens)
    operators = []
    for _ in range(draw(st.integers(0, 3))):
        m = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)), dtype=np.int64).reshape(n, n)
        shape = draw(st.sampled_from(["random", "upper", "zero_columns"]))
        if shape == "upper":
            m = np.triu(m, 1)
        elif shape == "zero_columns" and n:
            m[:, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))] = 0
        operators.append(FpMatrix(p, m))
    return space, operators


@settings(max_examples=300, deadline=None)
@given(closure_cases())
def test_close_under_matches_whole_stack_reference(case):
    space, operators = case
    got = close_under(space, operators)
    want = _close_under_reference(space, operators)
    assert got == want
    assert got.pivots.tolist() == want.pivots.tolist()
    assert got.basis.dtype == np.int64
    assert not got.basis.flags.writeable


def test_close_under_eliminates_each_image_once(monkeypatch):
    # spin-up: every basis vector's images are reduced once, so at most
    # dim(result) * len(operators) rows reach elimination in all; the
    # whole-stack closure passes about n^2 rows on the shift below
    n = 8
    shift = FpMatrix(3, np.eye(n, k=1, dtype=np.int64))
    line = Subspace.from_vectors(3, n, [[0] * (n - 1) + [1]])
    rng = np.random.default_rng(0)
    ops = [FpMatrix(5, rng.integers(0, 5, (6, 6))), FpMatrix(5, np.triu(rng.integers(0, 5, (6, 6)), 1))]
    start = Subspace.from_vectors(5, 6, [[1, 0, 2, 0, 0, 4]])
    for space, operators in [(line, [shift]), (start, ops)]:
        counts = count_eliminated_rows(monkeypatch)
        closed = close_under(space, operators)
        monkeypatch.undo()
        assert closed == _close_under_reference(space, operators)
        assert closed.dim > space.dim
        assert sum(counts) <= closed.dim * len(operators)


def test_combine_is_the_linear_combination():
    a = FpMatrix(5, [[1, 2], [3, 4]])
    b = FpMatrix(5, [[0, 1], [1, 0]])
    assert combine(5, (2, 2), [2, -1], [a, b]) == 2 * a + 4 * b
    assert combine(5, (2, 3), [], []) == FpMatrix.zeros(5, 2, 3)
