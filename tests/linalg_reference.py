"""The routes the one-elimination kernel and the block-split intertwiner
solver replaced, kept as the references they are checked against.

- `two_elimination_kernel`: eliminate the matrix, build the free-variable
  basis, then bring that basis to canonical form with a second elimination.
- `kron_intertwiner_system`: the system of X -> [X A_i - B_i X]_i built from
  2 d `np.kron` calls, one A_i and one B_i at a time.
- `whole_operator_kernel`: one kernel of the whole stacked system, with both
  of the above, never split by blocks.

And the routes `preimage_rows` replaced:

- `residue_kernel_preimage`: bring the target to reduced echelon form, then
  take the kernel of the residue g - B^T g[P], a second elimination.
- `identity_block_relations`: eliminate [rows | I_k] and read the relations
  off the rows whose pivot lies past the rows part.

`count_eliminated_rows` records every elimination the package makes.
"""
from __future__ import annotations

import numpy as np

import froblab.linalg as linalg
from froblab.linalg import FpMatrix, Subspace, _rref, mulmod


def count_eliminated_rows(monkeypatch) -> list[int]:
    """Record the number of rows each _rref call receives."""
    counts: list[int] = []
    real = linalg._rref

    def counting(a, p):
        counts.append(a.shape[0])
        return real(a, p)

    monkeypatch.setattr(linalg, "_rref", counting)
    return counts


def two_elimination_kernel(m: FpMatrix) -> Subspace:
    reduced, pivots = _rref(m.data, m.p)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = (-reduced[: len(pivots), free].T) % m.p
    return Subspace.from_vectors(m.p, m.cols, basis)


def kron_intertwiner_system(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For the stack a of the A_i (d x cols x cols) and b of the B_i (d x rows x rows)."""
    rows, cols = b.shape[1], a.shape[1]
    eye_r = np.eye(rows, dtype=np.int64)
    eye_c = np.eye(cols, dtype=np.int64)
    blocks = [np.kron(eye_r, ai.T) - np.kron(bi, eye_c) for ai, bi in zip(a, b)]
    return np.vstack([np.zeros((0, rows * cols), dtype=np.int64), *blocks]) % p


def whole_operator_kernel(p: int, a: np.ndarray, b: np.ndarray) -> list[FpMatrix]:
    rows, cols = b.shape[1], a.shape[1]
    if rows * cols == 0:
        return []
    kernel = two_elimination_kernel(FpMatrix(p, kron_intertwiner_system(p, a, b)))
    return [FpMatrix(p, vec.reshape(rows, cols)) for vec in kernel.basis]


def residue_kernel_preimage(p: int, g: np.ndarray, rows: np.ndarray) -> Subspace:
    """{v : g @ v in the span of rows}: w lies in the span, with reduced
    echelon basis B and pivot columns P, exactly when w == w[P] @ B, so the
    preimage is the kernel of g - B^T @ g[P]."""
    target = Subspace.from_vectors(p, g.shape[0], rows)
    in_target = mulmod(target.basis.T, g[target.pivots], p)
    return FpMatrix(p, (g - in_target) % p).kernel()


def identity_block_relations(p: int, rows: np.ndarray) -> Subspace:
    """{c : c @ rows == 0} from one elimination of [rows | I_k]."""
    k, n = rows.shape
    space = Subspace.from_vectors(p, n + k, np.hstack([rows, np.eye(k, dtype=np.int64)]))
    r = int(np.searchsorted(space.pivots, n))
    return Subspace(p, k, np.ascontiguousarray(space.basis[r:, n:]), space.pivots[r:] - n)
