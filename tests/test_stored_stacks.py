"""Operator families are stored as stacks, and lists of FpMatrix from
outside enter them through one checked door (linalg.operator_stack).

The algebra keeps its regular action as one read-only d x d x d stack, the
duality context keeps the dualizing module E as a module, and the cached
local decomposition, ideal generators and subspace pivots are frozen; an
ideal's generators and space and a module's structure cannot be rebound.
The routes the stacks replaced are kept here as references and compared
exactly.
"""
import dataclasses

import numpy as np
import pytest

from froblab.algebra import prime_field, product_algebra, truncated_polynomial_algebra
from froblab.duality import build_duality_context
from froblab.fmodule import LeftFModule, RightFModule
from froblab.generators import semilinear_solution_space, standard_algebras
from froblab.linalg import FpMatrix, Subspace, close_under, image_rows, restrict_stack

from frobenius_reference import frobenius_pool
from module_strategies import LARGE_PRIME, LARGE_PRIME_ALGEBRAS

F2T3 = truncated_polynomial_algebra(2, 3)
# F2xF2: F is the identity, so its regular module with X = I is a module on
# both sides; its three matrices are the good list every case starts from
F2XF2 = product_algebra(prime_field(2), prime_field(2))
GOOD = [*F2XF2.basis_matrices(), FpMatrix.identity(2, 2)]

ENTRY_POINTS = {
    "LeftFModule": lambda ops: LeftFModule(F2XF2, ops[:-1], ops[-1]),
    "RightFModule": lambda ops: RightFModule(F2XF2, ops[:-1], ops[-1]),
    "image_rows": lambda ops: image_rows(Subspace.full(2, 2), ops),
    "restrict_stack": lambda ops: restrict_stack(ops, Subspace.full(2, 2)),
    "close_under": lambda ops: close_under(Subspace.from_vectors(2, 2, [[1, 0]]), ops),
    # F2[t]/t3 has dimension 3: the three matrices are its whole action
    "semilinear_solution_space": lambda ops: semilinear_solution_space(ops, F2T3, "left"),
}

BAD_ENTRIES = {
    "wrong_field": (FpMatrix.identity(3, 2), "different fields"),
    "non_square": (FpMatrix(2, [[1, 0, 0], [0, 1, 0]]), r"must be \d x \d"),
    "ragged": (FpMatrix.identity(2, 3), r"must be \d x \d"),
    "not_fpmatrix": (np.eye(2, dtype=np.int64), "must be FpMatrix"),
}

# A pool over p in {2, 3, 1048573}: 18 algebras over F_2 and F_3, plus four
# over F_1048573, one of them with three local factors.
POOL = [
    *frobenius_pool(),
    *LARGE_PRIME_ALGEBRAS.values(),
    product_algebra(
        product_algebra(truncated_polynomial_algebra(LARGE_PRIME, 2), prime_field(LARGE_PRIME)),
        truncated_polynomial_algebra(LARGE_PRIME, 3),
    ),
]


# -- the one door ----------------------------------------------------------------


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_accept_the_good_list(entry):
    ENTRY_POINTS[entry](list(GOOD))


@pytest.mark.parametrize("position", ["first", "last"])
@pytest.mark.parametrize("bad", list(BAD_ENTRIES))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_a_bad_list_of_matrices_is_refused_at_every_entry_point(entry, bad, position):
    matrix, message = BAD_ENTRIES[bad]
    ops = list(GOOD)
    ops[0 if position == "first" else -1] = matrix
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](ops)


def test_semilinear_solution_space_refuses_matrices_over_another_field():
    # over F_2 it answered for the F_3 identity with four F_2 matrices
    with pytest.raises(ValueError, match="different fields"):
        semilinear_solution_space([FpMatrix(3, [[1, 0], [0, 1]])], prime_field(2), "left")


# -- frozen stores ---------------------------------------------------------------


def test_the_duality_context_and_its_module_cannot_be_edited():
    A = standard_algebras()["F2[t]/t2"]
    ctx = build_duality_context(A)
    E = ctx.module
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.module = RightFModule.zero(A)
    with pytest.raises(TypeError):
        E.action[1] = E.action[0]
    assert not E.structure.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        E.structure[1] = E.structure[0]
    assert ctx.module is E and E.validate()


def test_the_regular_action_is_read_only():
    A = standard_algebras()["F2xF4"]
    assert not A.regular_action.flags.writeable
    assert A.regular_action.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        A.regular_action[0, 0, 0] = 1
    assert all(not m.data.flags.writeable for m in A.basis_matrices())


def test_the_cached_local_decomposition_is_frozen():
    A = standard_algebras()["F2xF2"]
    decomp = A.local_components()
    # swapping the idempotents made localize(0) on E build an invalid module
    with pytest.raises(TypeError):
        decomp.idempotents[0], decomp.idempotents[1] = decomp.idempotents[1], decomp.idempotents[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        decomp.idempotents = decomp.idempotents[::-1]
    assert A.local_components() is decomp
    assert build_duality_context(A).module.localize(0).validate()

    B = standard_algebras()["F2xF4"]
    idempotent = B.local_components().idempotents[0]
    with pytest.raises(ValueError, match="read-only"):
        idempotent[:] = 0
    assert idempotent.any()
    assert all(
        isinstance(field, tuple)
        for field in (decomp.idempotents, decomp.components, decomp.component_spaces)
    )


def test_ideal_generators_are_frozen():
    A = truncated_polynomial_algebra(2, 3)
    I = A.ideal([[0, 0, 1]])
    # an appended 1 made the closure of (t^2) the unit ideal
    with pytest.raises(AttributeError):
        I.generators.append(A.one.copy())
    with pytest.raises(ValueError, match="read-only"):
        I.generators[0][:] = 1
    closure, _ = I.frobenius_closure()
    assert closure == A.ideal([[0, 1, 0]])  # (t, t^2)
    for ideal in (closure, A.nilradical(), A.unit_ideal()):
        assert isinstance(ideal.generators, tuple)
        assert all(not g.flags.writeable for g in ideal.generators)


def test_subspace_pivots_are_read_only():
    A = standard_algebras()["F2xF4"]
    decomp = A.local_components()
    space = decomp.component_spaces[1]
    # an edited pivot made project(1, A.one) refuse the unit
    with pytest.raises(ValueError, match="read-only"):
        space.pivots[0] = 2
    assert not space.pivots.flags.writeable
    assert decomp.project(1, A.one).tolist() == decomp.components[1].one.tolist()
    for made in (Subspace.from_vectors(3, 3, [[1, 2, 0]]), FpMatrix.identity(2, 3).kernel()):
        assert not made.pivots.flags.writeable


def test_ideal_generators_and_space_cannot_be_rebound():
    A = truncated_polynomial_algebra(2, 3)
    I = A.ideal([[0, 0, 1]])
    # rebinding the generators to (1,) made the closure of (t^2) the unit ideal
    with pytest.raises(AttributeError):
        I.generators = (A.one,)
    with pytest.raises(AttributeError):
        I.space = A.unit_ideal().space
    closure, q = I.frobenius_closure()
    assert closure == A.ideal([[0, 1, 0]]) and q == 4  # (t, t^2)
    for ideal in (closure, A.nilradical(), A.unit_ideal()):
        with pytest.raises(AttributeError):
            ideal.generators = ()
        with pytest.raises(AttributeError):
            ideal.space = Subspace.zero(2, 3)


def test_module_structure_cannot_be_rebound():
    M = LeftFModule(F2XF2, GOOD[:-1], GOOD[-1])
    assert M.x_action == GOOD[-1]  # the cached views are filled from the stack
    other = np.zeros_like(M.structure)
    with pytest.raises(AttributeError):
        M.structure = other
    assert not M.structure.flags.writeable
    assert M.x_action.data.tolist() == M.structure[-1].tolist()
    assert M.validate()


# -- the replaced routes, as references --------------------------------------------


def test_the_regular_action_is_the_per_element_multiplication_matrices():
    for A in POOL:
        eye = np.eye(A.dim, dtype=np.int64)
        want = np.array([A.mult_matrix(eye[i]).data for i in range(A.dim)])
        assert np.array_equal(A.regular_action, want)
        assert list(A.basis_matrices()) == [A.mult_matrix(row) for row in eye]


def test_the_dualizing_module_is_the_transposed_regular_action_and_frobenius():
    for A in POOL:
        E = build_duality_context(A).module
        want = [*(m.T for m in A.basis_matrices()), A.frobenius().matrix.T]
        assert np.array_equal(E.structure, np.array([m.data for m in want]))
        assert E.structure.flags.c_contiguous and not E.structure.flags.writeable


def component_tables_by_restrict(A):
    """The replaced route: each factor's table row by row, restricting the
    multiplication matrix of one factor basis row at a time."""
    out = []
    for space in A.local_components().component_spaces:
        out.append(
            np.array(
                [restrict_stack([A.mult_matrix(b)], space)[0].T for b in space.basis]
            ).reshape(space.dim, space.dim, space.dim)
        )
    return out


def test_local_component_tables_match_the_per_basis_restrict_loop():
    for A in POOL:
        got = [comp.table for comp in A.local_components().components]
        want = component_tables_by_restrict(A)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
