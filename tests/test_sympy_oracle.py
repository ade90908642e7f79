"""preimage_rows and relations against an independent oracle: sympy's
DomainMatrix over GF(p), which shares no code with froblab.

_rref, on the list kernel and on the numpy kernel alike, must give sympy's
reduced row echelon form and pivots exactly, and FpMatrix.kernel the reduced
echelon basis of sympy's nullspace, on every shape: 0 rows, 0 columns and
past LIST_KERNEL_CELLS included.  rref_stack must give sympy's reduced form
of every matrix of a stack, and its rank.

v lies in {v : g @ v in the span of rows} exactly when g @ v = rows^T @ c for
some c, so the preimage is the projection onto the first n coordinates of
the nullspace of [g | -rows^T]; sympy computes that nullspace and the
reduced echelon form of its projection.  The relations {c : c @ rows == 0}
are the nullspace of rows^T.

The graded annihilator b_m of a module is the nullspace of the d columns
rho(e_i) X^m (left) or X^m rho(e_i) (right), each flattened; the test builds
them in Python integers and sympy computes the nullspace, for every m up to
dim + 1, so past the stable index too.

annihilator_submodule(B) of a left module is the nullspace of the conditions
rho(b) X^n for n <= N + dim, N = B.stable_from, and b in a basis of
b_min(n, N): past N the conditions cut out a descending chain that stops
within dim steps.  The test builds them itself, in Python integers, from the
module's stack, and sympy computes their nullspace.

The algebra layer is checked on monogenic algebras R = F_p[u]/(f), against
sympy's factorisation f = prod g^e over GF(p).  By the Chinese remainder
theorem R = prod F_p[u]/(g^e), each factor local with residue field
F_(p^deg g) and maximal ideal (g) nilpotent of index e.  So the local factors
have dimensions deg(g) e, nil(R) has dimension deg f - sum deg g, F has
period lcm(deg g) (on the reduced quotient, a product of the fields
F_(p^deg g), F has order deg g on each), and its preperiod is the least k
with p^k >= e for every e: r^(p^k) kills (g) exactly then.
"""
import math
import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from froblab.algebra import (
    extension_field,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from froblab.duality import build_duality_context, dual_module
from froblab.linalg import (
    LIST_KERNEL_CELLS,
    MAX_PRIME,
    FpMatrix,
    Subspace,
    _rref,
    _rref_numpy,
    _rref_rows,
    mulmod,
    preimage_rows,
    relations,
    rref_stack,
)
from froblab.skew import GradedTwoSidedIdeal

from module_strategies import modules

PRIMES = [2, 3, 1048573, 33554393]


def _domain_matrix(p: int, a: np.ndarray) -> DomainMatrix:
    K = GF(p)
    return DomainMatrix([[K(int(x)) for x in row] for row in a.tolist()], a.shape, K)


def _canonical_rows(p: int, span: DomainMatrix) -> list[list[int]]:
    """The reduced echelon basis of the row span, as lists of integers in [0, p)."""
    reduced, pivots = span.rref()
    return [[int(x) % p for x in row] for row in reduced.to_list()[: len(pivots)]]


def sympy_preimage(p: int, g: np.ndarray, rows: np.ndarray) -> list[list[int]]:
    n = g.shape[1]
    null = _domain_matrix(p, np.hstack([g, (-rows.T) % p])).nullspace()
    if null.shape[0] == 0:
        return []
    return _canonical_rows(p, null[:, :n])


def sympy_relations(p: int, rows: np.ndarray) -> list[list[int]]:
    null = _domain_matrix(p, rows.T).nullspace()
    return [] if null.shape[0] == 0 else _canonical_rows(p, null)


def _assert_basis(got: Subspace, want: list[list[int]]) -> None:
    assert got.basis.tolist() == want
    assert got.pivots.tolist() == [row.index(1) for row in want]


def assert_rref_and_kernel_match(p: int, a: np.ndarray) -> int:
    """Both elimination kernels, the dispatching _rref and FpMatrix.kernel
    against sympy, on the same matrix; returns the kernel's dimension.
    sympy takes the nullspace of its own reduced form, which has a's."""
    reduced, pivots = _domain_matrix(p, a).rref()
    want = [[int(x) % p for x in row] for row in reduced.to_list()]
    for eliminate in (_rref, _rref_rows, _rref_numpy):
        got, got_pivots = eliminate(a, p)
        assert got.tolist() == want and got_pivots == list(pivots), eliminate.__name__
    null = reduced.nullspace()
    kernel = [] if null.shape[0] == 0 else _canonical_rows(p, null)
    _assert_basis(FpMatrix(p, a).kernel(), kernel)
    return len(kernel)


@st.composite
def kernel_matrices(draw):
    """p and a rows x cols matrix, 0 rows and 0 columns included: drawn
    outright, or of low rank as a product through a middle of size 0 to 3."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))

    def block(m, n):
        entries = draw(st.lists(entry, min_size=m * n, max_size=m * n))
        return np.array(entries, dtype=np.int64).reshape(m, n)

    if draw(st.booleans()):
        middle = draw(st.integers(0, 3))
        return p, mulmod(block(rows, middle), block(middle, cols), p)
    return p, block(rows, cols)


@settings(max_examples=200, deadline=None)
@given(kernel_matrices())
@example((2, np.zeros((0, 4), dtype=np.int64)))
@example((3, np.zeros((3, 0), dtype=np.int64)))
@example((1048573, np.zeros((0, 0), dtype=np.int64)))
@example((33554393, np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)))
def test_rref_and_kernel_match_sympy(case):
    assert_rref_and_kernel_match(*case)


def test_rref_and_kernel_past_the_list_kernel_match_sympy():
    """Tall, wide and square matrices of deficient rank past
    LIST_KERNEL_CELLS, where _rref takes the numpy kernel."""
    rng = np.random.default_rng(25)
    shapes = [(70, 64, 40), (40, 110, 33), (66, 66, 50), (48, 90, 30)]  # rows, cols, rank
    for p, (rows, cols, rank) in zip(PRIMES, shapes):
        a = mulmod(rng.integers(0, p, (rows, rank)), rng.integers(0, p, (rank, cols)), p)
        a[rng.integers(0, rows)] = 0
        assert rows * cols > LIST_KERNEL_CELLS
        assert assert_rref_and_kernel_match(p, a) == cols - rank


@st.composite
def kernel_stacks(draw):
    """p and a stack of 0 to 4 matrices of one shape, each drawn as
    kernel_matrices draws them, or zero."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    stack = np.zeros((draw(st.integers(0, 4)), rows, cols), dtype=np.int64)
    for a in stack:
        kind = draw(st.sampled_from(["drawn", "low rank", "zero"]))
        if kind == "drawn":
            a[:] = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
        elif kind == "low rank":
            u = np.array(draw(st.lists(entry, min_size=rows, max_size=rows)), dtype=np.int64)
            v = np.array(draw(st.lists(entry, min_size=cols, max_size=cols)), dtype=np.int64)
            a[:] = np.outer(u, v) % p
    return p, stack


@settings(max_examples=150, deadline=None)
@given(kernel_stacks())
@example((2, np.zeros((2, 3, 3), dtype=np.int64)))
@example((33554393, np.array([[[1, 2, 3], [2, 4, 6]], [[0, 5, 1], [7, 0, 0]]], dtype=np.int64)))
def test_rref_stack_matches_sympy(case):
    p, stack = case
    reduced, ranks = rref_stack(stack, p)
    for a, got, rank in zip(stack, reduced, ranks.tolist()):
        want, pivots = _domain_matrix(p, a).rref()
        assert got.tolist() == [[int(x) % p for x in row] for row in want.to_list()]
        assert rank == len(pivots)


@st.composite
def preimage_systems(draw):
    """A k x m array of target rows (zero, repeated, combined or fresh) and an
    m x n matrix g, some of whose columns map into their span."""
    p = draw(st.sampled_from(PRIMES))
    k, m, n = draw(st.integers(0, 5)), draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    rows = np.zeros((k, m), dtype=np.int64)
    for i in range(k):
        kind = draw(st.sampled_from(["zero", "repeat", "combine", "fresh"] if i else ["fresh"]))
        if kind == "repeat":
            rows[i] = rows[draw(st.integers(0, i - 1))]
        elif kind == "combine":
            coeffs = np.array(draw(st.lists(entry, min_size=i, max_size=i)), dtype=np.int64)
            rows[i] = mulmod(coeffs, rows[:i], p)
        elif kind == "fresh":
            rows[i] = draw(st.lists(entry, min_size=m, max_size=m))
    g = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n)), dtype=np.int64)
    g = g.reshape(m, n)
    for j in range(n):
        if k and draw(st.booleans()):
            coeffs = np.array(draw(st.lists(entry, min_size=k, max_size=k)), dtype=np.int64)
            g[:, j] = mulmod(coeffs, rows, p)
    return p, g, rows


@settings(max_examples=200, deadline=None)
@given(preimage_systems())
@example((2, np.zeros((0, 3), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)))
@example((3, np.eye(3, dtype=np.int64), np.zeros((0, 3), dtype=np.int64)))
@example((33554393, np.array([[1, 2], [3, 4]], dtype=np.int64), np.eye(2, dtype=np.int64)))
def test_preimage_rows_match_the_sympy_nullspace(case):
    p, g, rows = case
    _assert_basis(preimage_rows(p, g, rows), sympy_preimage(p, g, rows))


@settings(max_examples=100, deadline=None)
@given(preimage_systems())
def test_relations_match_the_sympy_nullspace(case):
    p, g, _ = case
    _assert_basis(relations(p, g.T), sympy_relations(p, g.T))


def test_preimage_rows_past_the_list_kernel_match_the_sympy_nullspace():
    rng = np.random.default_rng(5)
    for p in PRIMES:
        assert p <= MAX_PRIME
        k, m, n = 20, 40, 40
        rows = rng.integers(0, p, (k, m))
        rows[k // 2 :] = mulmod(rng.integers(0, p, (k - k // 2, k // 2)), rows[: k // 2], p)
        g = rng.integers(0, p, (m, n))
        g[:, : n // 4] = mulmod(rows.T, rng.integers(0, p, (k, n // 4)), p)
        assert (k + n) * (m + n) > LIST_KERNEL_CELLS
        want = sympy_preimage(p, g, rows)
        assert len(want) >= n // 4
        _assert_basis(preimage_rows(p, g, rows), want)


def _algebras(p: int) -> dict:
    F = prime_field(p)
    return {
        f"F{p}": F,
        f"F{p}[t]/t2": truncated_polynomial_algebra(p, 2),
        f"F{p}xF{p}": product_algebra(F, F),
    }


ORACLE_ALGEBRAS = {name: A for p in PRIMES for name, A in _algebras(p).items()}


def _py_mul(a: list, b: list, p: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def sympy_annihilator(M, B) -> list[list[int]]:
    """The nullspace of the rows of every rho(b) X^n, n <= N + dim, b in a
    basis of b_min(n, N), built from the module's stack in Python integers."""
    p, n = M.algebra.p, M.dim
    *acts, X = M.structure.tolist()
    power = np.eye(n, dtype=np.int64).tolist()
    rows = []
    for m in range(B.stable_from + n + 1):
        for b in B.component(m).space.basis.tolist():
            rho = [[sum(c * a[i][j] for c, a in zip(b, acts)) % p for j in range(n)] for i in range(n)]
            rows += _py_mul(rho, power, p)
        power = _py_mul(X, power, p)
    if not rows:
        return np.eye(n, dtype=np.int64).tolist()
    null = _domain_matrix(p, np.array(rows, dtype=np.int64)).nullspace()
    return [] if null.shape[0] == 0 else _canonical_rows(p, null)


@settings(max_examples=60, deadline=None)
@given(modules(pool=ORACLE_ALGEBRAS), st.integers(0, 2**32 - 1))
def test_annihilator_submodule_matches_the_sympy_nullspace(M, seed):
    """On a left module and on the dual of a right one, for the standard
    graded ideals, the graded annihilator, the radical ideals and one chain
    of two random ideals."""
    A, rng = M.algebra, random.Random(seed)
    ctx = build_duality_context(A)
    H = M if M.side == "left" else dual_module(M, ctx)
    ideals = [B for _, B in ctx.standard_graded_ideals] + [H.graded_annihilator()]
    decomp = A.local_components()
    ideals += [GradedTwoSidedIdeal(A, [decomp.radical_ideal([i])]) for i in range(len(decomp.components))]
    first = A.ideal([[rng.randrange(A.p) for _ in range(A.dim)]])
    second = first + A.ideal([[rng.randrange(A.p) for _ in range(A.dim)]])
    ideals.append(GradedTwoSidedIdeal(A, [A.zero_ideal(), first, second]))
    for B in ideals:
        _assert_basis(H.annihilator_submodule(B).space, sympy_annihilator(H, B))


def sympy_graded_annihilator_piece(M, m: int) -> list[list[int]]:
    """b_m = {r : rho(r) X^m == 0} (left) or {r : X^m rho(r) == 0} (right):
    the nullspace of the dim^2 x d matrix whose column i is rho(e_i) X^m or
    X^m rho(e_i), built from the module's stack in Python integers."""
    p, n, d = M.algebra.p, M.dim, M.algebra.dim
    if n == 0:
        return np.eye(d, dtype=np.int64).tolist()
    *acts, X = M.structure.tolist()
    power = np.eye(n, dtype=np.int64).tolist()
    for _ in range(m):
        power = _py_mul(X, power, p)
    words = [_py_mul(a, power, p) if M.side == "left" else _py_mul(power, a, p) for a in acts]
    columns = np.array([[x for row in w for x in row] for w in words], dtype=np.int64)
    null = _domain_matrix(p, columns.T).nullspace()
    return [] if null.shape[0] == 0 else _canonical_rows(p, null)


@settings(max_examples=60, deadline=None)
@given(modules(pool=ORACLE_ALGEBRAS, max_dim=6))
def test_graded_annihilator_matches_the_sympy_nullspace(M):
    """Every piece b_m, m <= dim + 1, past the stable index too."""
    chain = M.graded_annihilator()
    for m in range(M.dim + 2):
        _assert_basis(chain.component(m).space, sympy_graded_annihilator_piece(M, m))


def _preperiod(p: int, e: int) -> int:
    """The least k with p^k >= e: ceil(log_p e), in integers."""
    k = 0
    while p**k < e:
        k += 1
    return k


def sympy_local_data(p: int, f: list[int]) -> tuple[list[int], int, int, int]:
    """From the factorisation of a monic f (coefficients of 1, u, u^2, ...)
    over GF(p): the sorted local factor dimensions, dim nil(R), and the
    period and preperiod of F on R = F_p[u]/(f)."""
    _, factors = Poly(list(reversed(f)), symbols("u"), modulus=p).factor_list()
    degrees = [(g.degree(), e) for g, e in factors]
    return (
        sorted(d * e for d, e in degrees),
        (len(f) - 1) - sum(d for d, _ in degrees),
        math.lcm(*(d for d, _ in degrees)),
        max(_preperiod(p, e) for _, e in degrees),
    )


@st.composite
def monic_polynomials(draw):
    """p and a monic f of degree 1 to 8 over F_p, coefficients of 1, u, ...:
    drawn outright, or a product of powers of drawn monic factors, so that
    repeated factors, hence nilpotents, are common."""
    p = draw(st.sampled_from([2, 3, 5, 7, 1048573]))
    entry = st.integers(0, p - 1)
    if draw(st.booleans()):
        degree = draw(st.integers(1, 8))
        return p, draw(st.lists(entry, min_size=degree, max_size=degree)) + [1]
    f = [1]
    for _ in range(draw(st.integers(1, 3))):
        room = 8 - (len(f) - 1)
        if not room:
            break
        degree = draw(st.integers(1, min(3, room)))
        e = draw(st.integers(1, min(4, room // degree)))
        h = draw(st.lists(entry, min_size=degree, max_size=degree)) + [1]
        for _ in range(e):
            f = [
                sum(f[i] * h[k - i] for i in range(max(0, k - degree), min(k, len(f) - 1) + 1)) % p
                for k in range(len(f) + degree)
            ]
    return p, f


@settings(max_examples=150, deadline=None)
@given(monic_polynomials())
@example((2, [1, 0, 0, 0, 0, 0, 0, 0, 1]))  # (u + 1)^8: one factor, nilpotent of index 8
@example((3, [1, 1, 0, 1, 0, 1]))
def test_local_structure_of_monogenic_algebras_matches_the_sympy_factorisation(case):
    p, f = case
    A = extension_field(p, f)
    dims, nil_dim, period, preperiod = sympy_local_data(p, f)
    assert sorted(c.dim for c in A.local_components().components) == dims
    assert A.nilradical().dim == nil_dim
    frob = A.frobenius()
    assert (frob.period, frob.preperiod) == (period, preperiod)
