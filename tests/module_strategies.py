"""Hypothesis strategies for algebras and modules, built on the generators.

Modules come from random_module with a drawn seed, so every example is a
valid module and a failing one is reproduced by its algebra, side, dimension
bound and seed.
"""
import random

from hypothesis import strategies as st

from froblab.algebra import prime_field, product_algebra, truncated_polynomial_algebra
from froblab.generators import random_module, standard_algebras

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
