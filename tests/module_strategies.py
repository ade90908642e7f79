"""Hypothesis strategies for algebras and modules, built on the generators.

Modules come from random_module with a drawn seed, so every example is a
valid module and a failing one is reproduced by its algebra, side, dimension
bound and seed.
"""
import random

from hypothesis import strategies as st

from froblab.generators import random_module, standard_algebras

STANDARD_ALGEBRAS = standard_algebras()


def algebras():
    """One of the standard algebras."""
    return st.sampled_from(sorted(STANDARD_ALGEBRAS)).map(STANDARD_ALGEBRAS.__getitem__)


@st.composite
def modules(draw, sides=("left", "right"), max_dim=4):
    """A random module over a standard algebra."""
    A = draw(algebras())
    side = draw(st.sampled_from(sides))
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_module(A, side, dim, random.Random(seed))
