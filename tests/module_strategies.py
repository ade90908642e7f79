"""Hypothesis strategies for algebras and modules, built on the generators.

Modules come from random_module with a drawn seed, and a failing example is
reproduced by its algebra, side, dimension bound and seed.  random_module
builds its modules without validating them, so that every example is a valid
module rests on tests/test_trusted_modules.py, which validates them.
"""
import random

import numpy as np
from hypothesis import strategies as st

from froblab.algebra import prime_field, product_algebra, truncated_polynomial_algebra
from froblab.generators import random_module, standard_algebras
from froblab.linalg import FpMatrix

STANDARD_ALGEBRAS = standard_algebras()

# a prime near 2^20, where no element scan can run
LARGE_PRIME = 1048573
_FL = prime_field(LARGE_PRIME)
LARGE_PRIME_ALGEBRAS = {
    "Fl": _FL,
    "Fl[t]/t2": truncated_polynomial_algebra(LARGE_PRIME, 2),
    "FlxFl": product_algebra(_FL, _FL),
}
ALL_ALGEBRAS = {**STANDARD_ALGEBRAS, **LARGE_PRIME_ALGEBRAS}


def algebras(pool=STANDARD_ALGEBRAS):
    """One of the algebras of the pool (by default the standard ones)."""
    return st.sampled_from(sorted(pool)).map(pool.__getitem__)


@st.composite
def modules(draw, sides=("left", "right"), max_dim=4, pool=STANDARD_ALGEBRAS):
    """A random module over an algebra of the pool."""
    A = draw(algebras(pool))
    side = draw(st.sampled_from(sides))
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_module(A, side, dim, random.Random(seed))


def units(A):
    """A unit of A: a drawn element when it is one, else 1."""
    elements = st.lists(st.integers(0, A.p - 1), min_size=A.dim, max_size=A.dim)
    return elements.map(lambda u: u if A.is_unit(u) else A.one.tolist())


SMALL_PRIME_ALGEBRAS = {n: A for n, A in STANDARD_ALGEBRAS.items() if A.p in (2, 3)}


@st.composite
def divisible_right_modules(draw, max_dim=4, pool=SMALL_PRIME_ALGEBRAS):
    """The stable image M x^e of a drawn right module M, as a module: from
    M x^(e+1) = M x^e it is x-divisible."""
    M = draw(modules(sides=("right",), max_dim=max_dim, pool=pool))
    return M.stable_image()[0].as_module()[0]


def direct_sum(parts):
    """The direct sum of modules over one algebra and side: block-diagonal
    action and x-action, valid because each block is."""
    first = parts[0]
    A, n = first.algebra, sum(M.dim for M in parts)

    def blocks(mats):
        out, offset = np.zeros((n, n), dtype=np.int64), 0
        for m in mats:
            out[offset : offset + m.rows, offset : offset + m.rows] = m.data
            offset += m.rows
        return FpMatrix(A.p, out)

    action = [blocks([M.action[i] for M in parts]) for i in range(A.dim)]
    return type(first)(A, action, blocks([M.x_action for M in parts]), check=False)


@st.composite
def large_modules(draw, min_dim=16, pool=STANDARD_ALGEBRAS):
    """A direct sum of random modules over an algebra of the pool, of dim at
    least min_dim: its annihilator conditions pass LIST_KERNEL_CELLS."""
    A = draw(algebras(pool))
    side = draw(st.sampled_from(("left", "right")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parts, dim = [], 0
    while dim < min_dim:
        part = random_module(A, side, 6, rng)
        parts.append(part)
        dim += part.dim
    return direct_sum(parts)
