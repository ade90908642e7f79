"""Seeded instance builders for the benchmark.

Everything here goes through froblab's public API.  Modules are block sums
of cyclic quotients A/a with the x-action drawn from the solution space of
the side's semilinearity condition, so every module is valid by
construction; the module constructors still validate them.
"""
from __future__ import annotations

import functools
import random

import numpy as np

from froblab import (
    FiniteAlgebra,
    FpMatrix,
    LeftFModule,
    RightFModule,
    Subspace,
    extension_field,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from froblab.generators import semilinear_solution_space
from froblab.linalg import quotient_representatives


def _random_element(A: FiniteAlgebra, rng: random.Random) -> np.ndarray:
    return np.array([rng.randrange(A.p) for _ in range(A.dim)], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def proper_ideals(A: FiniteAlgebra) -> dict[int, list]:
    """Distinct proper ideals of A grouped by codimension.

    The pool holds the zero ideal, the ideals of single basis elements and
    of pairs of them, and the ideals of 24 pseudo-random elements.
    """
    rng = random.Random(0)
    eye = np.eye(A.dim, dtype=np.int64)
    gens = [[]] + [[eye[i]] for i in range(A.dim)]
    gens += [[eye[i], eye[j]] for i in range(A.dim) for j in range(i + 1, A.dim)]
    gens += [[_random_element(A, rng)] for _ in range(24)]
    seen = set()
    pool: dict[int, list] = {}
    for g in gens:
        ideal = A.ideal(g)
        codim = A.dim - ideal.dim
        if codim == 0 or ideal.space in seen:
            continue
        seen.add(ideal.space)
        pool.setdefault(codim, []).append(ideal)
    return pool


def quotient_action(A: FiniteAlgebra, ideal) -> list[np.ndarray]:
    """Matrices of the regular action of A on A/ideal, one per basis element."""
    reps = quotient_representatives(Subspace.full(A.p, A.dim), ideal.space)
    basis = np.vstack([ideal.space.basis, reps])
    proj = FpMatrix(A.p, basis.T).inverse().data[ideal.dim :, :]
    return [((proj @ m.data) % A.p @ reps.T) % A.p for m in A.basis_matrices()]


def _pick_codims(avail: list[int], dim: int, copies: int, rng: random.Random) -> list[int]:
    """A random list of `copies` codimensions from avail summing to dim."""
    # reach[k] holds the sums that k parts can make
    reach = [{0}]
    for _ in range(copies):
        reach.append({s + c for s in reach[-1] for c in avail if s + c <= dim})
    if dim not in reach[copies]:
        raise ValueError(f"no {copies} blocks of codimensions {avail} sum to {dim}")
    parts, left = [], dim
    for k in range(copies - 1, -1, -1):
        c = rng.choice([c for c in avail if left - c in reach[k]])
        parts.append(c)
        left -= c
    return parts


def block_module(A: FiniteAlgebra, copies: int, side: str, seed: int, dim: int | None = None):
    """A module with exactly `copies` blocks A/a, ideals a chosen by the seed.

    Nonzero ideals are preferred where the algebra has any, so exponents and
    graded annihilators are non-trivial.  With `dim` the block codimensions
    are chosen to sum to it exactly.
    """
    rng = random.Random(seed)
    pool = proper_ideals(A)
    if dim is None:
        nonzero = [a for group in pool.values() for a in group if not a.is_zero()]
        choices = nonzero or [a for group in pool.values() for a in group]
        ideals = [rng.choice(choices) for _ in range(copies)]
    else:
        ideals = [rng.choice(pool[c]) for c in _pick_codims(sorted(pool), dim, copies, rng)]
    blocks = [quotient_action(A, a) for a in ideals]
    n = sum(b[0].shape[0] for b in blocks)
    action = []
    for i in range(A.dim):
        mat = np.zeros((n, n), dtype=np.int64)
        offset = 0
        for block in blocks:
            k = block[i].shape[0]
            mat[offset : offset + k, offset : offset + k] = block[i]
            offset += k
        action.append(FpMatrix(A.p, mat))
    x = np.zeros((n, n), dtype=np.int64)
    for b in semilinear_solution_space(action, A, side):
        x = (x + rng.randrange(A.p) * b.data) % A.p
    cls = LeftFModule if side == "left" else RightFModule
    return cls(A, action, FpMatrix(A.p, x))


def conjugate(M, rng: random.Random):
    """The same module in a random basis: every matrix m becomes P^-1 m P.

    P is monomial (a permutation times a diagonal of units), so the matrices
    keep their number of nonzero entries and elimination costs stay those
    of the block structure.
    """
    p, n = M.algebra.p, M.dim
    perm = list(range(n))
    rng.shuffle(perm)
    P = np.zeros((n, n), dtype=np.int64)
    for i, j in enumerate(perm):
        P[i, j] = rng.randrange(1, p)
    P = FpMatrix(p, P)
    P_inv = P.inverse()
    action = [P_inv @ a @ P for a in M.action]
    return type(M)(M.algebra, action, P_inv @ M.x_action @ P)


MAX_TRIES = 200  # candidates per dimension before divisible_right_modules gives up


def divisible_right_modules(A: FiniteAlgebra, dims: list[int], seed: int):
    """One x-divisible right module per requested dimension, and the rejected count.

    Candidates are block modules with a random feasible block count; a
    candidate whose x-action is not surjective is rejected.  Raises
    ValueError when a dimension needs more than MAX_TRIES candidates.
    """
    rng = random.Random(seed)
    codims = sorted(proper_ideals(A))
    out, rejected = [], 0
    for n in dims:
        counts = [k for k in range(1, n + 1) if codims[0] * k <= n <= codims[-1] * k]
        for _ in range(MAX_TRIES):
            M = block_module(A, rng.choice(counts), "right", rng.randrange(1 << 30), dim=n)
            if M.is_x_divisible():
                out.append(M)
                break
            rejected += 1
        else:
            raise ValueError(f"no x-divisible right module of dim {n} in {MAX_TRIES} tries")
    return out, rejected


# -- the algebra zoo ------------------------------------------------------------

# Irreducible polynomials (coefficients of 1, u, u^2, ...) for extension fields.
IRREDUCIBLE = {
    (2, 2): [1, 1, 1],
    (2, 3): [1, 1, 0, 1],
    (2, 4): [1, 1, 0, 0, 1],
    (3, 2): [1, 0, 1],
    (3, 3): [1, 2, 0, 1],
    (5, 2): [3, 0, 1],
}


def monomial_algebra(p: int, a: int, b: int, corner: tuple[int, int] | None = None) -> FiniteAlgebra:
    """F_p[s,t]/(s^a, t^b, s^i t^j): basis the monomials outside the ideal."""

    def inside(i, j):
        return i >= a or j >= b or (corner is not None and i >= corner[0] and j >= corner[1])

    monos = [(i, j) for i in range(a) for j in range(b) if not inside(i, j)]
    index = {m: k for k, m in enumerate(monos)}
    d = len(monos)
    table = np.zeros((d, d, d), dtype=np.int64)
    for x, (i1, j1) in enumerate(monos):
        for y, (i2, j2) in enumerate(monos):
            prod = (i1 + i2, j1 + j2)
            if prod in index:
                table[x, y, index[prod]] = 1
    one = np.zeros(d, dtype=np.int64)
    one[index[(0, 0)]] = 1
    labels = ["1" if m == (0, 0) else f"s^{m[0]}t^{m[1]}" for m in monos]
    return FiniteAlgebra(p, table, one, labels=labels)


def _local_factor(p: int, dim: int, rng: random.Random) -> FiniteAlgebra:
    """A local algebra of the given dimension: an extension field or F_p[t]/t^dim."""
    if dim == 1:
        return prime_field(p)
    if (p, dim) in IRREDUCIBLE and rng.random() < 0.5:
        return extension_field(p, IRREDUCIBLE[(p, dim)])
    return truncated_polynomial_algebra(p, dim)


def _monomial_of_dim(p: int, d: int, rng: random.Random) -> FiniteAlgebra:
    shapes = []
    for a in range(2, d + 1):
        for b in range(2, d + 1):
            if a * b == d:
                shapes.append((a, b, None))
            for i in range(1, a):
                for j in range(1, b):
                    if a * b - (a - i) * (b - j) == d:
                        shapes.append((a, b, (i, j)))
    a, b, corner = rng.choice(shapes)
    return monomial_algebra(p, a, b, corner)


def zoo_algebra(family: str, p: int, d: int, rng: random.Random) -> tuple[FiniteAlgebra, int]:
    """One algebra of the stratum, with its number of local factors."""
    if family == "truncated":
        return truncated_polynomial_algebra(p, d), 1
    if family == "monomial":
        return _monomial_of_dim(p, d, rng), 1
    k = rng.choice([2, 3]) if d >= 3 else 2
    cuts = sorted(rng.sample(range(1, d), k - 1))
    dims = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    A = _local_factor(p, dims[0], rng)
    for m in dims[1:]:
        A = product_algebra(A, _local_factor(p, m, rng))
    return A, k
