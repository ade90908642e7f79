"""Every module the package derives from a valid module is itself valid.

Quotients, submodules, localizations, duals and the generators' modules are
built from their structure stacks by _from_structure: they are modules by
construction, so the package does not validate them again.  These tests are
what that trust rests on: each construction's output must pass the full
validate().
"""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from froblab.duality import build_duality_context, dual_module
from froblab.fmodule import cartier_from_splitting, twisted_frobenius_module
from froblab.generators import random_module
from froblab.linalg import image_rows
from module_strategies import ALL_ALGEBRAS, algebras, modules


def vectors(p, n):
    return st.lists(st.integers(0, p - 1), min_size=n, max_size=n)


@settings(max_examples=120, deadline=None)
@given(modules(pool=ALL_ALGEBRAS), st.data())
def test_submodule_and_quotient_validate(M, data):
    assert M.validate()
    sub = M.submodule(data.draw(st.lists(vectors(M.algebra.p, M.dim), max_size=2)))
    piece, incl = sub.as_module()
    quotient, proj = M.quotient(sub)
    assert piece.validate() and quotient.validate()
    assert (piece.side, quotient.side) == (M.side, M.side)
    assert piece.dim + quotient.dim == M.dim
    # the inclusion and the projection are module maps
    assert incl @ piece.x_action == M.x_action @ incl
    assert proj @ M.x_action == quotient.x_action @ proj


@settings(max_examples=80, deadline=None)
@given(modules(sides=("right",), pool=ALL_ALGEBRAS))
def test_localizations_validate(M):
    decomp = M.algebra.local_components()
    for i, factor in enumerate(decomp.components):
        local = M.localize(i)
        assert local.algebra == factor and local.validate()


@settings(max_examples=120, deadline=None)
@given(modules(pool=ALL_ALGEBRAS))
def test_duals_validate_and_round_trip(M):
    ctx = build_duality_context(M.algebra)
    dual = dual_module(M, ctx)
    assert dual.side != M.side and dual.validate()
    assert dual_module(dual, ctx) == M
    assert ctx.module.validate()


@settings(max_examples=80, deadline=None)
@given(algebras(ALL_ALGEBRAS), st.sampled_from(("left", "right")), st.integers(0, 2**32 - 1), st.data())
def test_generated_modules_validate(A, side, seed, data):
    assert random_module(A, side, 4, random.Random(seed)).validate()
    assert twisted_frobenius_module(A, data.draw(vectors(A.p, A.dim))).validate()
    cartier, reason = cartier_from_splitting(A)
    assert cartier.validate() if cartier is not None else reason == "not reduced"


@settings(max_examples=120, deadline=None)
@given(modules(pool=ALL_ALGEBRAS))
def test_graded_annihilator_components_are_ideals(M):
    A = M.algebra
    for module in (M, dual_module(M, build_duality_context(A))):
        for ideal in module.graded_annihilator().chain:
            assert ideal.space.contains(image_rows(ideal.space, A.basis_matrices()))
