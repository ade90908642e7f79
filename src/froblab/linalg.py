"""Exact linear algebra over the prime fields F_p.

Matrices act on column vectors.  Subspaces are always held in reduced row
echelon form, so two equal subspaces have identical basis data and equality
is a plain data comparison.  That property is what makes chain-stabilization
detection in the rest of the package a pure comparison of values.
"""
from __future__ import annotations

import itertools

import numpy as np

# Coefficients are machine integers reduced mod p; entries of a product of
# two n x n matrices are bounded by n * (p-1)^2, which must fit in int64.
MAX_PRIME = 1 << 25


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


def _check_prime(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or not is_prime(int(p)):
        raise ValueError(f"modulus {p!r} is not prime")
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds the single-word limit {MAX_PRIME}")


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 is not invertible")
    return pow(a, p - 2, p)


def as_vector(v, p: int) -> np.ndarray:
    out = np.asarray(v, dtype=np.int64) % p
    if out.ndim != 1:
        raise ValueError(f"expected a vector, got shape {out.shape}")
    return out


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, in place on a copy."""
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


class FpMatrix:
    """An exact matrix over F_p."""

    __slots__ = ("p", "data")

    def __init__(self, p: int, data):
        _check_prime(p)
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        arr = arr % p
        arr.setflags(write=False)
        self.p = int(p)
        self.data = arr

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

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
        return FpMatrix(self.p, self.data.T)

    def _compat(self, other: "FpMatrix") -> None:
        if not isinstance(other, FpMatrix) or other.p != self.p:
            raise ValueError("matrices live over different fields")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._compat(other)
        return FpMatrix(self.p, self.data + other.data)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._compat(other)
        return FpMatrix(self.p, self.data - other.data)

    def __mul__(self, scalar: int) -> "FpMatrix":
        return FpMatrix(self.p, self.data * (int(scalar) % self.p))

    __rmul__ = __mul__

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._compat(other)
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        return FpMatrix(self.p, self.data @ other.data)

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
        return (self.data @ v) % self.p

    def rref(self) -> tuple["FpMatrix", int]:
        reduced, pivots = _rref(self.data, self.p)
        return FpMatrix(self.p, reduced), len(pivots)

    def rank(self) -> int:
        return len(_rref(self.data, self.p)[1])

    def kernel(self) -> "Subspace":
        """The solution space of self @ v == 0, inside F_p^cols."""
        reduced, pivots = _rref(self.data, self.p)
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = np.zeros(self.cols, dtype=np.int64)
            v[fc] = 1
            for r_idx, pc in enumerate(pivots):
                v[pc] = (-reduced[r_idx, fc]) % self.p
            basis.append(v)
        return Subspace.from_vectors(self.p, self.cols, basis)

    def image(self) -> "Subspace":
        """The column span of the matrix, inside F_p^rows."""
        return Subspace.from_vectors(self.p, self.rows, list(self.data.T))

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
        """The subspace {v : self @ v in target}."""
        if target.ambient_dim != self.rows:
            raise ValueError("target lives in the wrong ambient space")
        cut = target.annihilator().basis  # rows w with w.v == 0 for v in target
        stacked = FpMatrix(self.p, (cut @ self.data) % self.p)
        return stacked.kernel()


class Subspace:
    """A subspace of F_p^n in canonical (reduced echelon) form.

    Equal subspaces have identical basis arrays, so __eq__ and __hash__ are
    structural.
    """

    __slots__ = ("p", "ambient_dim", "basis")

    def __init__(self, p: int, ambient_dim: int, basis: np.ndarray):
        # trusted constructor: basis must already be canonical
        self.p = int(p)
        self.ambient_dim = int(ambient_dim)
        basis = np.asarray(basis, dtype=np.int64)
        if basis.size == 0:
            basis = np.zeros((0, ambient_dim), dtype=np.int64)
        else:
            basis = basis.reshape(-1, ambient_dim)
        basis.setflags(write=False)
        self.basis = basis

    @classmethod
    def from_vectors(cls, p: int, ambient_dim: int, vectors) -> "Subspace":
        _check_prime(p)
        vecs = [as_vector(v, p) for v in vectors]
        for v in vecs:
            if v.shape[0] != ambient_dim:
                raise ValueError(f"vector length {v.shape[0]} != ambient {ambient_dim}")
        if not vecs:
            return cls(p, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64))
        mat = np.array(vecs, dtype=np.int64)
        reduced, pivots = _rref(mat, p)
        return cls(p, ambient_dim, reduced[: len(pivots)])

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(p, ambient_dim, [])

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(p, ambient_dim, np.eye(ambient_dim, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _pivots(self) -> list[int]:
        return [int(np.nonzero(row)[0][0]) for row in self.basis]

    def coordinates(self, v) -> np.ndarray | None:
        """Coefficients of v in the canonical basis, or None if v is outside."""
        v = as_vector(v, self.p)
        if v.shape[0] != self.ambient_dim:
            raise ValueError("vector has wrong length")
        coords = np.array([v[c] for c in self._pivots()], dtype=np.int64)
        residue = (v - coords @ self.basis) % self.p if self.dim else v
        if residue.any():
            return None
        return coords

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def contains_space(self, other: "Subspace") -> bool:
        self._compat(other)
        return all(self.contains(row) for row in other.basis)

    def _compat(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __add__(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return Subspace.from_vectors(
            self.p, self.ambient_dim, list(self.basis) + list(other.basis)
        )

    def __and__(self, other: "Subspace") -> "Subspace":
        # (A ^ B) = (A° + B°)° for the standard dot-product pairing
        self._compat(other)
        return (self.annihilator() + other.annihilator()).annihilator()

    def annihilator(self) -> "Subspace":
        """The subspace {w : w . v == 0 for all v in self}."""
        if self.dim == 0:
            return Subspace.full(self.p, self.ambient_dim)
        return FpMatrix(self.p, self.basis).kernel()

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
            if self.dim == 0:
                yield np.zeros(self.ambient_dim, dtype=np.int64)
            else:
                yield (np.array(coeffs, dtype=np.int64) @ self.basis) % self.p


def quotient_representatives(space: Subspace, sub: Subspace) -> np.ndarray:
    """Rows spanning a complement of sub inside space (coset representatives)."""
    space._compat(sub)
    if not space.contains_space(sub):
        raise ValueError("sub is not contained in space")
    running = sub
    reps: list[np.ndarray] = []
    for row in space.basis:
        if not running.contains(row):
            reps.append(row)
            running = running + Subspace.from_vectors(space.p, space.ambient_dim, [row])
    out = np.array(reps, dtype=np.int64) if reps else np.zeros(
        (0, space.ambient_dim), dtype=np.int64
    )
    return out


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
    """The smallest subspace containing space and stable under every operator."""
    p, n = space.p, space.ambient_dim

    def step(current: Subspace) -> Subspace:
        images = [(current.basis @ op.data.T) % p for op in operators]
        return Subspace.from_vectors(p, n, np.vstack([current.basis, *images]))

    return stabilize(space, step)[0][-1]


def combine(p: int, shape: tuple[int, int], coeffs, matrices) -> FpMatrix:
    """The linear combination sum(c * m) of matrices of the given shape."""
    total = np.zeros(shape, dtype=np.int64)
    for c, m in zip(coeffs, matrices):
        if c:
            total = (total + (int(c) % p) * m.data) % p
    return FpMatrix(p, total)


def _intertwiner_system(p: int, shape: tuple[int, int], pairs) -> np.ndarray:
    """Matrix of X -> [X A_i - B_i X]_i on row-major vec(X), X of the given shape.

    Row-major vec turns X A into (I_rows kron A^T) vec X and B X into
    (B kron I_cols) vec X.
    """
    rows, cols = shape
    eye_r = np.eye(rows, dtype=np.int64)
    eye_c = np.eye(cols, dtype=np.int64)
    blocks = [np.kron(eye_r, a.data.T) - np.kron(b.data, eye_c) for a, b in pairs]
    return np.vstack(blocks) % p


def operator_kernel(p: int, shape: tuple[int, int], pairs) -> list[FpMatrix]:
    """Basis of {X : X A_i == B_i X for every pair (A_i, B_i)}, in canonical order.

    X has the given (rows, cols) shape, so A_i is cols x cols and B_i is
    rows x rows.
    """
    rows, cols = shape
    if rows * cols == 0:
        return []
    kernel = FpMatrix(p, _intertwiner_system(p, shape, pairs)).kernel()
    return [FpMatrix(p, vec.reshape(rows, cols)) for vec in kernel.basis]


def operator_solve(p: int, shape: tuple[int, int], pairs, rhs) -> FpMatrix | None:
    """One X with X A_i - B_i X == rhs_i for every pair, or None.

    rhs holds one matrix of the given shape per pair.
    """
    rhs = np.asarray(rhs, dtype=np.int64).ravel() % p
    sol = FpMatrix(p, _intertwiner_system(p, shape, pairs)).solve(rhs)
    if sol is None:
        return None
    return FpMatrix(p, sol.reshape(shape))
