"""Hypothesis strategies for algebras and modules, built on the generators.

Modules come from random_module with a drawn seed, and a failing example is
reproduced by its algebra, side, dimension bound and seed.  random_module
builds its modules without validating them, so that every example is a valid
module rests on tests/test_trusted_modules.py, which validates them.

broken_documents breaks one number field of a valid algebra, module or
catalog document, in one of the ways BREAKAGES names.
"""
import copy
import random

import numpy as np
from hypothesis import strategies as st

from froblab.algebra import prime_field, product_algebra, truncated_polynomial_algebra
from froblab.generators import random_module, standard_algebras
from froblab.linalg import FpMatrix, operator_stack

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
    stack = operator_stack(A.p, n, [*action, blocks([M.x_action for M in parts])])
    return type(first)._from_structure(A, stack)


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


# The ways broken_documents breaks a field.  Each makes a valid document
# invalid: the loaders refuse it and reduce nothing.
BREAKAGES = (
    "above p", "negative", "float", "bool", "past int64", "ragged row", "wrong nesting",
    "negative dim",
)


def _entry_paths(value, prefix=()):
    """The index paths of the entries of nested lists, in order."""
    if type(value) is not list:
        return [prefix]
    return [path for i, item in enumerate(value) for path in _entry_paths(item, prefix + (i,))]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def broken_documents(draw, doc: dict, p: int, arrays: list, dims: list):
    """(path, name, broken): a deep copy of the valid JSON document doc with
    one field broken in one of the BREAKAGES ways, the key path of that field
    and its name as the loaders' messages write it.  arrays lists the (name,
    key path) of each table, vector or matrix of doc, and dims the key path
    of each dim; "negative dim" breaks a dim, every other way an array that
    has entries."""
    broken = copy.deepcopy(doc)
    how = draw(st.sampled_from(BREAKAGES))
    if how == "negative dim":
        path = draw(st.sampled_from(dims))
        _at(broken, path[:-1])[path[-1]] = -draw(st.integers(1, 3))
        return path, "dim", broken
    name, path = draw(st.sampled_from([a for a in arrays if _entry_paths(_at(doc, a[1]))]))
    parent = _at(broken, path[:-1])
    array = parent[path[-1]]
    if how == "wrong nesting":
        parent[path[-1]] = [array]
        return path, name, broken
    entry = draw(st.sampled_from(_entry_paths(array)))
    row = _at(array, entry[:-1])
    if how == "ragged row":
        row.pop()  # that row, or a vector, is one entry short
        return path, name, broken
    row[entry[-1]] = draw({
        "above p": st.integers(p, p + 2**40),
        "negative": st.integers(-(2**40), -1),
        "float": st.just(float(row[entry[-1]])),
        "bool": st.booleans(),
        "past int64": st.sampled_from([2**63, -(2**63) - 1, 10**30]),
    }[how])
    return path, name, broken
