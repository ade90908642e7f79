"""Exact linear algebra over the prime fields F_p.

Matrices act on column vectors.  Subspaces are always held in reduced row
echelon form, so two equal subspaces have identical basis data and equality
is a plain data comparison.  That property is what makes chain-stabilization
detection in the rest of the package a pure comparison of values.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math

import numpy as np

from .errors import AxiomError

# Coefficients are machine integers reduced mod p; entries of a product of
# two n x n matrices are bounded by n * (p-1)^2, which must fit in int64.
# A product in an algebra of dimension d is two such products with inner
# dimension d, each reduced before the next (FiniteAlgebra.mul), never one
# sum of d^2 triple products, which passes int64 well below this limit.
MAX_PRIME = 1 << 25


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_word_size(p: int) -> None:
    """Refuse a modulus above MAX_PRIME; runs before any trial division."""
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds the single-word limit {MAX_PRIME}")


def _check_prime(p: int) -> None:
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"modulus {p!r} is not prime")
    check_word_size(p)
    if not is_prime(int(p)):
        raise ValueError(f"modulus {p!r} is not prime")


def mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p for reduced int64 operands, refusing products that can overflow.

    Every entry of a @ b is a sum of a.shape[-1] terms below (p - 1)^2.
    """
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 >= 1 << 63:
        raise ValueError(
            f"a product with inner dimension {inner} over F_{p} can overflow int64"
        )
    return (a @ b) % p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 is not invertible")
    return pow(a, p - 2, p)


def int_array(data, p: int) -> np.ndarray:
    """data as an int64 array with entries in [0, p).

    Non-integer entries are refused: the cast to int64 would truncate them.
    Unsigned data is reduced before the cast, so it cannot wrap.
    """
    arr = np.asarray(data)
    kind = arr.dtype.kind
    if kind not in "iub" and arr.size:
        raise ValueError(f"expected integer entries, got dtype {arr.dtype}")
    if kind == "u":
        arr = arr % p
    return arr.astype(np.int64, copy=False) % p


def as_vector(v, p: int) -> np.ndarray:
    out = int_array(v, p)
    if out.ndim != 1:
        raise ValueError(f"expected a vector, got shape {out.shape}")
    return out


# The results the eliminating primitives share while a shared_eliminations
# scope is open, keyed by _recall; None outside every scope.
_shared: dict | None = None


@contextlib.contextmanager
def shared_eliminations():
    """A scope in which Subspace.from_vectors, FpMatrix.kernel, quotient_maps
    and close_under compute each distinct input once.

    Michie's memo function (Nature 218, 1968): each of the four is
    deterministic and returns read-only arrays, so a call that repeats the
    kind, p, and the shape and int64 bytes of every array input of an
    earlier one gets the stored result, the value it would compute.  A
    nested scope uses the outer table.  Closing the outermost scope drops
    the table, also when the body raises.  The table is module state, one
    per process: froblab computes in one thread.
    """
    global _shared
    outer = _shared
    if outer is None:
        _shared = {}
    try:
        yield
    finally:
        _shared = outer


def _recall(kind: str, p: int, arrays, compute, *args):
    """compute(*args) afresh outside every scope; inside one, the result
    stored for kind, p and the arrays, else compute(*args), stored only once
    it has returned.  The only code that asks whether a scope is open."""
    if _shared is None:
        return compute(*args)
    key = (kind, p, *[(a.shape, a.tobytes()) for a in arrays])
    result = _shared.get(key)
    if result is None:
        result = _shared[key] = compute(*args)
    return result


# Up to this many entries a matrix is eliminated on Python lists, where
# numpy's fixed cost per row operation outweighs the arithmetic; above it the
# numpy row operations win (the measured crossover).
LIST_KERNEL_CELLS = 4096

# The most cells a caller hands rref_stack at once; a longer stack is
# eliminated in chunks, so working memory stays bounded whatever the count.
STACK_CELLS = 1 << 16


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns of a, on a copy."""
    p = int(p)  # pow(a, p - 2, p) refuses a numpy integer modulus
    if a.shape[0] * a.shape[1] <= LIST_KERNEL_CELLS:
        return _rref_rows(a, p)
    return _rref_numpy(a, p)


def _rref_rows(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """_rref on Python lists of Python integers, exact for every p.

    Zero rows are dropped first, as they do not change the echelon form, and
    come back as zero rows at the bottom.  A pivot row is zero left of its
    pivot column c, so rows are updated from column c on only.
    """
    rows, cols = a.shape
    m = [row for row in (a % p).tolist() if any(row)]
    n = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == n:
            break
        for i in range(r, n):
            if m[i][c]:
                break
        else:
            continue
        row = m[i]
        m[i] = m[r]
        m[r] = row
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row[c:] = [x * inv % p for x in row[c:]]
        pivot_tail = row[c:]
        for other in m:
            f = other[c]
            if f and other is not row:
                other[c:] = [(x - f * y) % p for x, y in zip(other[c:], pivot_tail)]
        pivots.append(c)
        r += 1
    out = np.zeros((rows, cols), dtype=np.int64)
    if n:
        out[:n] = m
    return out, pivots


def _rref_numpy(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """_rref with numpy row operations, for matrices past LIST_KERNEL_CELLS."""
    a = a.copy() % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * inv_mod(int(a[r, c]), p)) % p
        for j in np.nonzero(a[:, c])[0]:
            if j != r:
                a[j] = (a[j] - a[j, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p for an array of nonzero residues, by square and multiply:
    every product is of two residues below p <= MAX_PRIME, so below 2^50."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def rref_stack(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix of a B x r x c int64 stack,
    in lock step, and their ranks.

    One pass over the columns.  At each, every matrix with a nonzero entry
    on or below its current rank takes the first such row as its pivot row,
    swaps it up to that rank, scales it to a leading 1 and clears the column
    in all its other rows; each step is one numpy operation for the whole
    stack.  A matrix with no pivot in the column takes part as a no-op: it
    swaps row 0 with itself, scales it by 1 and clears nothing.  Over F_2
    there is nothing to scale, and clearing is an exclusive or.  Each
    reduced matrix has its zero rows at the bottom, so matrix b is the
    canonical basis reduced[b, :ranks[b]] of its row space, the same rows
    _rref gives.  Products stay below p^2 <= 2^50, so the int64 arithmetic
    is exact for every p <= MAX_PRIME.
    """
    p = int(p)
    a = np.remainder(a, p, out=np.empty(a.shape, dtype=np.int64))
    B, r, c = a.shape
    ranks = np.zeros(B, dtype=np.intp)
    rows, each = np.arange(r), np.arange(B)
    for col in range(c):
        candidates = (a[:, :, col] != 0) & (rows >= ranks[:, None])
        has = candidates.any(axis=1)
        if not has.any():
            continue
        found = candidates.argmax(axis=1)
        top = np.where(has, ranks, found)
        pivot = a[each, found]
        a[each, found] = a[each, top]
        if p != 2:
            pivot = pivot * _inverses(np.where(has, pivot[:, col], 1), p)[:, None] % p
        a[each, top] = pivot
        factors = a[:, :, col] * has[:, None]
        factors[each, top] = 0
        tail = a[:, :, col:]
        if p == 2:
            tail ^= factors[:, :, None] & pivot[:, None, col:]
        else:
            tail -= factors[:, :, None] * pivot[:, None, col:]
            tail %= p
        ranks += has
    return a, ranks


class FpMatrix:
    """An exact matrix over F_p."""

    __slots__ = ("p", "data")

    def __init__(self, p: int, data):
        _check_prime(p)
        arr = int_array(data, p)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        arr.setflags(write=False)
        self.p = int(p)
        self.data = arr

    @classmethod
    def _reduced(cls, p: int, arr: np.ndarray) -> "FpMatrix":
        """Trusted constructor for data the package built itself.

        The caller guarantees that p has already been checked, and that arr
        is a 2-d int64 array already reduced mod p which is either fresh or
        a view of an array that nothing writes again.  Nothing is checked,
        converted or reduced; arr, and the array it views, are marked
        read-only, so the data is frozen for good.  (Fancy indexing can
        return a view of a fresh hidden array, so the base is frozen too.)
        """
        out = cls.__new__(cls)
        arr.setflags(write=False)
        if isinstance(arr.base, np.ndarray):
            arr.base.setflags(write=False)
        out.p = p
        out.data = arr
        return out

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        _check_prime(p)
        return cls._reduced(int(p), np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def T(self) -> "FpMatrix":
        return FpMatrix._reduced(self.p, self.data.T)

    def _compat(self, other: "FpMatrix") -> None:
        if not isinstance(other, FpMatrix) or other.p != self.p:
            raise ValueError("matrices live over different fields")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._compat(other)
        return FpMatrix._reduced(self.p, (self.data + other.data) % self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._compat(other)
        return FpMatrix._reduced(self.p, (self.data - other.data) % self.p)

    def __mul__(self, scalar: int) -> "FpMatrix":
        return FpMatrix(self.p, self.data * (int(scalar) % self.p))

    __rmul__ = __mul__

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._compat(other)
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        return FpMatrix._reduced(self.p, mulmod(self.data, other.data, self.p))

    def __pow__(self, k: int) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices have powers")
        if k < 0:
            return self.inverse() ** (-k)
        result = FpMatrix.identity(self.p, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.data.tolist()})"

    def is_zero(self) -> bool:
        return not self.data.any()

    def apply(self, v) -> np.ndarray:
        v = as_vector(v, self.p)
        if v.shape[0] != self.cols:
            raise ValueError(f"vector length {v.shape[0]} != {self.cols} columns")
        return mulmod(self.data, v, self.p)

    def rref(self) -> tuple["FpMatrix", int]:
        reduced, pivots = _rref(self.data, self.p)
        return FpMatrix._reduced(self.p, reduced), len(pivots)

    def rank(self) -> int:
        return len(_rref(self.data, self.p)[1])

    def kernel(self) -> "Subspace":
        """The solution space of self @ v == 0, inside F_p^cols (shared in a
        shared_eliminations scope)."""
        return _recall("kernel", self.p, (self.data,), self._kernel)

    def _kernel(self) -> "Subspace":
        """kernel in one elimination.

        Eliminate the column-reversed matrix, with echelon basis R and pivots
        P, and take its free-variable basis: the vector w_f for a free
        column f has w_f[f] = 1, w_f[P_r] = -R[r, f] and zeros elsewhere.
        Row r of R is zero left of P_r, so R[r, f] != 0 only for P_r < f:
        every entry of w_f other than the 1 lies left of f, and w_f is zero
        at the other free columns.  Flipped back, each vector has its
        leading 1 at its free column and zeros at the other free columns,
        so the flipped vectors, ordered by free column, are already the
        reduced echelon basis of the kernel.
        """
        p, n = self.p, self.cols
        flipped = Subspace.from_vectors(p, n, self.data[:, ::-1])
        pivots = flipped.pivots.tolist()
        pivot_set = set(pivots)
        free = [c for c in range(n - 1, -1, -1) if c not in pivot_set]
        basis = np.zeros((len(free), n), dtype=np.int64)
        basis[range(len(free)), free] = 1
        basis[:, pivots] = (-flipped.basis[:, free].T) % p
        return Subspace._trusted(p, n, basis[:, ::-1].copy(), [n - 1 - c for c in free])

    def image(self) -> "Subspace":
        """The column span of the matrix, inside F_p^rows."""
        return Subspace._rows(self.p, self.rows, self.data.T)

    def solve(self, b) -> np.ndarray | None:
        """One solution of self @ v == b, or None if the system is inconsistent."""
        b = as_vector(b, self.p)
        if b.shape[0] != self.rows:
            raise ValueError(f"rhs length {b.shape[0]} != {self.rows} rows")
        aug = np.hstack([self.data, b.reshape(-1, 1)])
        reduced, pivots = _rref(aug, self.p)
        if self.cols in pivots:
            return None
        v = np.zeros(self.cols, dtype=np.int64)
        for r_idx, pc in enumerate(pivots):
            v[pc] = reduced[r_idx, -1]
        return v

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        aug = np.hstack([self.data, np.eye(n, dtype=np.int64)])
        reduced, pivots = _rref(aug, self.p)
        if len(pivots) != n or pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return FpMatrix(self.p, reduced[:, n:])

    def preimage(self, target: "Subspace") -> "Subspace":
        """The subspace {v : self @ v in target}: preimage_rows of the
        target's basis, for any shape and for zero and full targets alike."""
        if target.p != self.p:
            raise ValueError("matrix and target live over different fields")
        if target.ambient_dim != self.rows:
            raise ValueError("target lives in the wrong ambient space")
        return preimage_rows(self.p, self.data, target.basis)


class Subspace:
    """A subspace of F_p^n in canonical (reduced echelon) form.

    Equal subspaces have identical basis arrays, so __eq__ and __hash__ are
    structural.
    """

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    def __init__(self, p: int, ambient_dim: int, basis, pivots):
        """The checked constructor: basis and pivots must be what elimination
        gives for the span of basis over the prime p, or ValueError is raised."""
        span = Subspace.from_vectors(p, ambient_dim, basis)
        if not (np.array_equal(span.basis, basis) and np.array_equal(span.pivots, pivots)):
            raise ValueError("basis and pivots are not the reduced echelon form of their span")
        for name in Subspace.__slots__:
            setattr(self, name, getattr(span, name))

    @classmethod
    def _trusted(cls, p: int, ambient_dim: int, basis: np.ndarray, pivots) -> "Subspace":
        """The trusted constructor, for a reduced echelon int64 basis the package
        built over a checked prime p, with its leading 1s in the pivot columns."""
        space = cls.__new__(cls)
        space.p = int(p)
        space.ambient_dim = int(ambient_dim)
        basis.setflags(write=False)
        space.basis = basis
        space.pivots = np.array(pivots, dtype=np.intp)
        space.pivots.setflags(write=False)
        return space

    @classmethod
    def from_vectors(cls, p: int, ambient_dim: int, vectors) -> "Subspace":
        """The span of an iterable of vectors, or of the rows of a 2-d array."""
        _check_prime(p)
        if not (isinstance(vectors, np.ndarray) and vectors.ndim == 2):
            rows = [as_vector(v, p) for v in vectors]
            for v in rows:
                if v.shape[0] != ambient_dim:
                    raise ValueError(f"vector length {v.shape[0]} != ambient {ambient_dim}")
            vectors = np.array(rows, dtype=np.int64).reshape(len(rows), ambient_dim)
        elif vectors.shape[1] != ambient_dim:
            raise ValueError(f"vector length {vectors.shape[1]} != ambient {ambient_dim}")
        elif vectors.dtype != np.int64:
            vectors = int_array(vectors, p)
        return cls._rows(int(p), ambient_dim, vectors)

    @classmethod
    def _rows(cls, p: int, ambient_dim: int, vectors: np.ndarray) -> "Subspace":
        """The trusted door to from_vectors, for a k x ambient_dim int64 array
        the package built over a checked int prime p: nothing is checked or
        converted.  One elimination, shared in a shared_eliminations scope."""
        return _recall("span", p, (vectors,), cls._span, p, ambient_dim, vectors)

    @classmethod
    def _span(cls, p: int, ambient_dim: int, vectors: np.ndarray) -> "Subspace":
        """_rows' one elimination, the result _recall stores."""
        reduced, pivots = _rref(vectors, p)
        return cls._trusted(p, ambient_dim, reduced[: len(pivots)], pivots)

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "Subspace":
        _check_prime(p)
        return cls._trusted(p, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), [])

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "Subspace":
        """F_p^n, whose reduced echelon basis is the identity: nothing to eliminate."""
        _check_prime(p)
        eye = np.eye(ambient_dim, dtype=np.int64)
        return cls._trusted(p, ambient_dim, eye, range(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def coordinates(self, v) -> np.ndarray | None:
        """Coefficients in the canonical basis of a vector, or of each row of a
        k x n block (a k x dim array); None if any of them lies outside.

        In reduced echelon form the coefficient of basis row i is the entry at
        its pivot column, so v lies in the space exactly when v equals that
        combination.
        """
        v = int_array(v, self.p)
        if v.ndim not in (1, 2) or v.shape[-1] != self.ambient_dim:
            raise ValueError("vector has wrong length")
        coords = v[..., self.pivots]
        if not np.array_equal(v, mulmod(coords, self.basis, self.p)):
            return None
        return coords

    def contains(self, v) -> bool:
        """Whether a vector, or every row of a block, lies in the space."""
        return self.coordinates(v) is not None

    def contains_space(self, other: "Subspace") -> bool:
        """Whether other lies in the space.  Both bases are canonical, so
        reduced int64 already: other's basis B lies in it exactly when B
        equals B[:, P] C for the pivots P and basis C, with no conversion."""
        self._compat(other)
        rows = other.basis
        return bool(np.array_equal(rows, mulmod(rows[:, self.pivots], self.basis, self.p)))

    def _compat(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __add__(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return Subspace._rows(self.p, self.ambient_dim, np.vstack([self.basis, other.basis]))

    def __and__(self, other: "Subspace") -> "Subspace":
        # (A ^ B) = (A° + B°)° for the standard dot-product pairing
        self._compat(other)
        return (self.annihilator() + other.annihilator()).annihilator()

    def annihilator(self) -> "Subspace":
        """The subspace {w : w . v == 0 for all v in self}."""
        if self.dim == 0:
            return Subspace.full(self.p, self.ambient_dim)
        return FpMatrix._reduced(self.p, self.basis).kernel()

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_space(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.ambient_dim, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim}/{self.ambient_dim})"

    def vectors(self):
        """All elements of the subspace (p^dim of them)."""
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            yield (np.array(coeffs, dtype=np.int64) @ self.basis) % self.p


def quotient_representatives(space: Subspace, sub: Subspace) -> np.ndarray:
    """Rows spanning a complement of sub inside space (coset representatives).

    These are the basis rows of space outside the span of sub and of the rows
    before them: the pivot columns of the matrix whose columns are the rows
    of sub, then those of space.
    """
    space._compat(sub)
    if not space.contains_space(sub):
        raise ValueError("sub is not contained in space")
    _, pivots = _rref(np.vstack([sub.basis, space.basis]).T, space.p)
    return space.basis[[c - sub.dim for c in pivots[sub.dim :]]]


def quotient_maps(sub: Subspace) -> tuple[FpMatrix, FpMatrix]:
    """Projection of F_p^n onto F_p^n / sub and a lift back (proj @ lift = id),
    shared in a shared_eliminations scope."""
    return _recall("quotient", sub.p, (sub.basis,), _quotient_maps, sub)


def _quotient_maps(sub: Subspace) -> tuple[FpMatrix, FpMatrix]:
    """quotient_maps in one elimination of [sub^T | I].

    Its pivots past sub's pick the unit vectors reps that represent the
    quotient basis, so the pivot columns form B = [sub^T | reps^T].  The
    reduced matrix is E [sub^T | I] with E B == I, as its pivot columns are
    the unit vectors in order; its last n columns are therefore E = B^-1,
    and rows k.. of them, k = dim sub, are the projection.
    """
    p, n, k = sub.p, sub.ambient_dim, sub.dim
    eye = np.eye(n, dtype=np.int64)
    reduced, pivots = _rref(np.hstack([sub.basis.T, eye]), p)
    lift = eye[:, [c - k for c in pivots[k:]]]
    return FpMatrix._reduced(p, reduced[k:, k:]), FpMatrix._reduced(p, lift)


def preimage_rows(p: int, g: np.ndarray, rows: np.ndarray) -> Subspace:
    """The subspace {v : g @ v in the span of rows} of F_p^n, for an m x n
    array g and a k x m array rows, from one elimination of

        [[rows, 0  ],
         [g^T,  I_n]].

    A row of its row space is (c @ rows + (g @ v)^T, v) for some c and v, and
    its left block vanishes exactly when g @ v = -c @ rows lies in the span
    of rows, so the preimage is the set of right blocks of the rows with a
    zero left block.  Such a row is sum a_i R_i over the rows R_i of the
    reduced matrix, with a_i its entry at the pivot of R_i; that entry is 0
    for every pivot in the left block, so the rows with a zero left block
    are spanned by the rows whose pivot lies in the right block, at column m
    or later, which are zero on the left block.  Their right blocks have
    leading 1s at pivot - m and zeros at each other's pivots: they are
    already the canonical basis of the preimage.
    """
    k, m = rows.shape
    n = g.shape[1]
    stacked = np.zeros((k + n, m + n), dtype=np.int64)
    stacked[:k, :m] = rows
    stacked[k:, :m] = g.T
    stacked.reshape(-1)[k * (m + n) + m :: m + n + 1] = 1  # the diagonal of I_n
    space = Subspace._rows(p, m + n, stacked)
    r = int(np.searchsorted(space.pivots, m))
    return Subspace._trusted(p, n, np.ascontiguousarray(space.basis[r:, m:]), space.pivots[r:] - m)


def relations(p: int, rows: np.ndarray) -> Subspace:
    """The relations {c : c @ rows == 0} among the rows of a k x N array,
    inside F_p^k: the preimage of zero under rows^T, one elimination of
    [rows | I_k], which has k rows however long N is."""
    return preimage_rows(p, rows.T, rows[:0])


def operator_stack(p: int, n: int, operators) -> np.ndarray:
    """A list of k n x n FpMatrix over F_p as one k x n x n array: the one
    door from a list of matrices to a stack.  It refuses, with ValueError,
    an entry that is no FpMatrix, lives over another field or is not n x n."""
    if not all(isinstance(op, FpMatrix) for op in operators):
        raise ValueError("operators must be FpMatrix")
    if any(op.p != p for op in operators):
        raise ValueError(f"operators and F_{p} live over different fields")
    if any(op.data.shape != (n, n) for op in operators):
        raise ValueError(f"operators must be {n} x {n}")
    return np.array([op.data for op in operators], dtype=np.int64).reshape(len(operators), n, n)


def _operators_on(space: Subspace, operators) -> np.ndarray:
    """Operators on the ambient F_p^n of space as one k x n x n array.  An
    array, which the package built, is taken as it is; a list goes through
    operator_stack."""
    if isinstance(operators, np.ndarray):
        return operators
    return operator_stack(space.p, space.ambient_dim, operators)


def image_rows(space: Subspace, operators) -> np.ndarray:
    """The rows op @ b for every n x n operator and every basis row b of
    space, operator by operator: one broadcast product.  operators is a list
    of FpMatrix or a k x n x n array."""
    stack = _operators_on(space, operators)
    images = mulmod(space.basis, stack.transpose(0, 2, 1), space.p)
    return images.reshape(stack.shape[0] * space.dim, space.ambient_dim)


def common_kernel(p: int, n: int, matrices) -> Subspace:
    """The vectors of F_p^n that every matrix sends to zero (all of them for none).

    Each entry is an FpMatrix or a reduced int64 array of matrices stacked
    along its leading axes, whose last axis has length n.
    """
    rows = [
        m.data if isinstance(m, FpMatrix) else m.reshape(math.prod(m.shape[:-1]), n)
        for m in matrices
    ]
    return FpMatrix._reduced(p, np.vstack([np.zeros((0, n), dtype=np.int64), *rows])).kernel()


def restrict_stack(operators, space: Subspace) -> np.ndarray:
    """Matrices of n x n operators on an invariant subspace, in its canonical
    basis, as one k x dim x dim array: one coordinates call for the images of
    every operator.  operators is a list of FpMatrix or a k x n x n array."""
    stack = _operators_on(space, operators)
    coords = space.coordinates(image_rows(space, stack))
    if coords is None:
        raise AxiomError("operator does not preserve the subspace")
    # row j of operator i's block holds the coordinates of op_i b_j: column j
    blocks = coords.reshape(stack.shape[0], space.dim, space.dim)
    return np.ascontiguousarray(blocks.transpose(0, 2, 1))


def stabilize(start, step, key=None) -> tuple[list, int, int]:
    """Iterate step from start until a key repeats.

    Returns the states before the first repeat, the index of the state the
    repeat returns to (the preperiod), and the cycle length (the period).
    key defaults to the state itself.  An ascending or descending chain of
    canonical subspaces repeats as soon as it stops moving, so its period
    is 1 and its last state is the stable value.
    """
    key = key or (lambda state: state)
    states: list = []
    seen: dict = {}
    state = start
    while True:
        k = key(state)
        if k in seen:
            return states, seen[k], len(states) - seen[k]
        seen[k] = len(states)
        states.append(state)
        state = step(state)


def close_under(space: Subspace, operators: list[FpMatrix]) -> Subspace:
    """The smallest subspace containing space and stable under every operator.

    The MeatAxe spin-up (Parker, 1984; Lux, Mueller and Ringe, J. Symbolic
    Comput. 1994): the reduced echelon basis and pivots of the growing space
    are kept, only the rows the last step added are pushed through the
    operators, and their images are reduced once against the kept basis.
    Each basis vector's images thus meet elimination once.  In a
    shared_eliminations scope the key includes the operator stack.
    """
    operators = _operators_on(space, operators)
    return _recall("close", space.p, (space.basis, operators), _close_under, space, operators)


def _close_under(space: Subspace, operators: np.ndarray) -> Subspace:
    """close_under for a k x n x n operator stack."""
    p, n = space.p, space.ambient_dim
    basis, pivots = space.basis, space.pivots.tolist()
    frontier = space  # the span of the rows the last step added
    while True:
        images = image_rows(frontier, operators)
        images = (images - mulmod(images[:, pivots], basis, p)) % p
        images = images[images.any(axis=1)]
        if not images.shape[0]:
            break
        reduced, new_pivots = _rref(images, p)
        frontier = Subspace._trusted(p, n, reduced[: len(new_pivots)], new_pivots)
        kept = (basis - mulmod(basis[:, new_pivots], frontier.basis, p)) % p
        basis = np.vstack([kept, frontier.basis])[np.argsort(pivots + new_pivots)]
        pivots = sorted(pivots + new_pivots)
    if frontier is space:
        return space
    return Subspace._trusted(p, n, basis, pivots)


def combine(p: int, shape: tuple[int, int], coeffs, matrices) -> FpMatrix:
    """The linear combination sum(c * m) of matrices of the given shape."""
    total = np.zeros(shape, dtype=np.int64)
    for c, m in zip(coeffs, matrices):
        if c:
            total = (total + (int(c) % p) * m.data) % p
    return FpMatrix._reduced(p, total)


def _intertwiner_system(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of X -> [X A_i - B_i X]_i on row-major vec(X), for stacks of the
    A_i (d x cols x cols) and the B_i (d x rows x rows).

    Row-major vec turns X A into (I_rows kron A^T) vec X and B X into
    (B kron I_cols) vec X; all d blocks come from one broadcast, indexed
    [i, r, c, r', c'] before the reshape.
    """
    d, rows, cols = a.shape[0], b.shape[1], a.shape[1]
    eye_r = np.eye(rows, dtype=np.int64)[None, :, None, :, None]
    eye_c = np.eye(cols, dtype=np.int64)[None, None, :, None, :]
    system = eye_r * a.transpose(0, 2, 1)[:, None, :, None, :] - b[:, :, None, :, None] * eye_c
    return system.reshape(d * rows * cols, rows * cols) % p


def _blocks(n: int, stack: np.ndarray) -> list[np.ndarray]:
    """The finest partition of range(n) on which every matrix of the stack is
    block diagonal, as ascending index arrays ordered by their least index.

    A union-find over the union of the nonzero patterns; each root is the
    least index of its block.
    """
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(stack.any(axis=0))):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return [np.array(block, dtype=np.intp) for block in blocks.values()]


def operator_kernel(p: int, a: np.ndarray, b: np.ndarray) -> list[FpMatrix]:
    """Basis of {X : X A_i == B_i X for every i}, in canonical order, for the
    stack a of the A_i (d x cols x cols) and the stack b of the B_i
    (d x rows x rows).

    X is rows x cols, read off the stacks.  With d = 0 every X is a solution.

    A system past LIST_KERNEL_CELLS splits by blocks.  Let the row blocks I
    and column blocks J be the finest partitions on which every B_i and
    every A_i is block diagonal.  Then (X A_i)[I, J] = X[I, J] A_i[J, J] and
    (B_i X)[I, J] = B_i[I, I] X[I, J], so X[I, J] is an independent
    |I| x |J| system per block pair, solved once per distinct sub-block
    data (block modules repeat the same cyclic quotient).  The embedding
    (a, b) -> (I[a], J[b]) of each pair's canonical kernel basis preserves
    row-major order, as I and J ascend, so each embedded vector keeps its
    leading 1 and is zero at the other pivots of its pair.  Different pairs
    have disjoint supports, so no vector is nonzero at another pair's
    pivot.  The union, ordered by pivot, is therefore the reduced echelon
    basis of the whole kernel: the same list the whole system gives.
    """
    d, rows, cols = a.shape[0], b.shape[1], a.shape[1]
    if rows * cols == 0:
        return []
    if d * (rows * cols) ** 2 > LIST_KERNEL_CELLS:
        row_blocks, col_blocks = _blocks(rows, b), _blocks(cols, a)
        if len(row_blocks) * len(col_blocks) > 1:
            return _block_pair_kernel(p, a, b, row_blocks, col_blocks)
    kernel = FpMatrix._reduced(p, _intertwiner_system(p, a, b)).kernel()
    return [FpMatrix._reduced(p, vec.reshape(rows, cols)) for vec in kernel.basis]


def _block_pair_kernel(p: int, a, b, row_blocks, col_blocks) -> list[FpMatrix]:
    """operator_kernel solved per block pair (I, J) and embedded, in pivot order."""
    rows, cols = b.shape[1], a.shape[1]
    solved: dict[bytes, Subspace] = {}
    found = []  # (pivot in vec X, I, J, vector of the pair's kernel)
    for I in row_blocks:
        b_sub = b[:, I[:, None], I]
        for J in col_blocks:
            a_sub = a[:, J[:, None], J]
            key = b"%d,%d;" % (len(I), len(J)) + a_sub.tobytes() + b_sub.tobytes()
            if key not in solved:
                solved[key] = FpMatrix._reduced(p, _intertwiner_system(p, a_sub, b_sub)).kernel()
            kernel = solved[key]
            for vec, q in zip(kernel.basis, kernel.pivots.tolist()):
                found.append((int(I[q // len(J)]) * cols + int(J[q % len(J)]), I, J, vec))
    found.sort(key=lambda item: item[0])
    out = []
    for _, I, J, vec in found:
        x = np.zeros((rows, cols), dtype=np.int64)
        x[I[:, None], J] = vec.reshape(len(I), len(J))
        out.append(FpMatrix._reduced(p, x))
    return out


def operator_solve(p: int, a: np.ndarray, b: np.ndarray, rhs) -> FpMatrix | None:
    """One X with X A_i - B_i X == rhs_i for every i, or None, for the stacks
    a and b of operator_kernel.

    rhs holds one rows x cols matrix per i; with d = 0 every X is a
    solution, and the zero matrix is returned.
    """
    rhs = np.asarray(rhs, dtype=np.int64).ravel() % p
    sol = FpMatrix(p, _intertwiner_system(p, a, b)).solve(rhs)
    if sol is None:
        return None
    return FpMatrix(p, sol.reshape(b.shape[1], a.shape[1]))
