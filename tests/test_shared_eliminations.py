"""The shared_eliminations scope of `froblab check` against unshared runs.

Inside the scope Subspace.from_vectors, FpMatrix.kernel, quotient_maps and
close_under hand back the stored result for an input they have seen, and so
do the module layer's annihilator_submodule, times_graded_ideal and
graded_annihilator_set.  The unshared run is the reference: every report
must be byte-identical to it.  The key must tell apart inputs whose bytes
agree but whose p, shape, operators, graded ideal or algebra differ, and
the scope must leave nothing behind.

Tier-1 cost: about 9 s for the whole file on a 2-core Xeon, nearly all of it
the twenty `check --budget 8` runs.
"""
import collections
import contextlib
import random

import numpy as np
import pytest

import froblab.fmodule as fmodule
import froblab.linalg as linalg
from froblab import checks
from froblab.algebra import extension_field, prime_field, product_algebra
from froblab.cli import main
from froblab.errors import AxiomError
from froblab.fmodule import (
    LeftFModule,
    RightFModule,
    cartier_from_splitting,
    graded_annihilator_set,
    natural_frobenius_module,
)
from froblab.generators import default_catalog, random_module
from froblab.linalg import FpMatrix, Subspace, close_under, quotient_maps, shared_eliminations
from froblab.skew import (
    GradedTwoSidedIdeal,
    unit_graded_ideal,
    x_power_graded_ideal,
    zero_graded_ideal,
)

from module_strategies import direct_sum


def check_stdout(capsys, seed: int, fmt: str) -> str:
    assert main(["check", "--seed", str(seed), "--budget", "8", "--format", fmt]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("seed", range(5))
def test_sharing_never_changes_a_check_report(capsys, monkeypatch, seed, fmt):
    shared = check_stdout(capsys, seed, fmt)
    with monkeypatch.context() as m:
        m.setattr(checks, "shared_eliminations", contextlib.nullcontext)
        reference = check_stdout(capsys, seed, fmt)
    assert shared == reference


def digest(value):
    """The bytes of a result of the module layer, whatever its type."""
    if isinstance(value, Subspace):
        return value.basis.shape, value.basis.tobytes()
    if isinstance(value, FpMatrix):
        return value.data.shape, value.data.tobytes()
    if isinstance(value, fmodule._FModule):
        return value.side, value.structure.shape, value.structure.tobytes()
    if isinstance(value, GradedTwoSidedIdeal):
        return digest(value.key())
    if isinstance(value, frozenset):
        return sorted(digest(v) for v in value)
    return tuple(digest(v) for v in value)


def module_layer_results(monkeypatch, seed: int) -> list:
    """The kind and the digest of every module-layer result of one
    run_catalog_checks, in order, that is not computed inside another."""
    recall, seen, depth = fmodule._recall, [], [0]

    def recording(kind, p, arrays, compute, *args):
        depth[0] += 1
        try:
            result = recall(kind, p, arrays, compute, *args)
        finally:
            depth[0] -= 1
        if not depth[0]:
            seen.append((kind, digest(result)))
        return result

    with monkeypatch.context() as m:
        m.setattr(fmodule, "_recall", recording)
        checks.run_catalog_checks(default_catalog(), seed=seed, instances_per_algebra=8)
    return seen


def test_sharing_hands_back_the_values_an_unshared_run_computes(monkeypatch):
    # each law compares two results that go through the store, so a key that
    # confuses two inputs for both can leave every report unchanged
    shared = module_layer_results(monkeypatch, seed=1)
    with monkeypatch.context() as m:
        m.setattr(checks, "shared_eliminations", contextlib.nullcontext)
        reference = module_layer_results(monkeypatch, seed=1)
    assert shared == reference
    kinds = {kind for kind, _ in shared}
    assert kinds == {fmodule._ANNIHILATOR, fmodule._PRODUCT, *fmodule._GRADED_ANNIHILATOR_SET.values()}


def block_module(A, side: str, dim: int, seed: int):
    """A block sum of random modules of dim exactly dim."""
    rng, parts, total = random.Random(seed), [], 0
    while total < dim:
        part = random_module(A, side, min(6, dim - total), rng)
        if part.dim:
            parts.append(part)
            total += part.dim
    return direct_sum(parts)


def test_sharing_never_changes_the_results_on_a_dim_24_block_module(monkeypatch):
    catalog = default_catalog()
    for name, side in (("F3[t]/t2", "right"), ("F2[t]/t2", "left")):
        M = block_module(catalog.algebras[name], side, 24, seed=24)
        assert M.dim == 24
        catalog.add_module(f"block24_{side}", name, M)
    shared = checks.run_catalog_checks(catalog, seed=3, instances_per_algebra=2)
    monkeypatch.setattr(checks, "shared_eliminations", contextlib.nullcontext)
    reference = checks.run_catalog_checks(catalog, seed=3, instances_per_algebra=2)
    assert shared.results == reference.results
    assert any(r.instance.startswith("block24_right") for r in shared.results)


# -- the key ----------------------------------------------------------------------


def test_the_key_separates_the_same_bytes_under_two_primes():
    data = np.array([[1, 2], [2, 1]], dtype=np.int64)  # singular over F3 only
    with shared_eliminations():
        over2 = Subspace.from_vectors(2, 2, data)
        over3 = Subspace.from_vectors(3, 2, data)
        k2 = FpMatrix(2, [[1, 1]]).kernel()
        k3 = FpMatrix(3, [[1, 1]]).kernel()
    assert (over2.p, over2.dim, over3.p, over3.dim) == (2, 2, 3, 1)
    assert over2 == Subspace.from_vectors(2, 2, data)
    assert over3 == Subspace.from_vectors(3, 2, data)
    assert k2.basis.tolist() == [[1, 1]] and k3.basis.tolist() == [[1, 2]]


def test_the_key_separates_the_same_bytes_in_two_shapes():
    flat = np.array([1, 0, 0, 0, 1, 0], dtype=np.int64)
    with shared_eliminations():
        wide = Subspace.from_vectors(3, 3, flat.reshape(2, 3))
        tall = Subspace.from_vectors(3, 2, flat.reshape(3, 2))
        wide_kernel = FpMatrix(3, flat.reshape(2, 3)).kernel()
        tall_kernel = FpMatrix(3, flat.reshape(3, 2)).kernel()
        wide_maps = quotient_maps(wide)
        tall_maps = quotient_maps(tall)
    assert (wide.ambient_dim, wide.dim, tall.ambient_dim, tall.dim) == (3, 2, 2, 1)
    assert wide_kernel == FpMatrix(3, flat.reshape(2, 3)).kernel()
    assert tall_kernel == FpMatrix(3, flat.reshape(3, 2)).kernel()
    assert wide_maps == quotient_maps(wide) and tall_maps == quotient_maps(tall)
    assert wide_maps[0].data.shape == (1, 3) and tall_maps[0].data.shape == (1, 2)


def test_the_key_separates_one_space_closed_under_two_operator_stacks():
    line = Subspace.from_vectors(2, 3, [[1, 0, 0]])
    shift = FpMatrix(2, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])  # e0 -> e1 -> e2
    swap = FpMatrix(2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # e0 <-> e1
    with shared_eliminations():
        by_shift = close_under(line, [shift])
        by_swap = close_under(line, [swap])
    assert (by_shift.dim, by_swap.dim) == (3, 2)
    assert by_shift == close_under(line, [shift]) and by_swap == close_under(line, [swap])


# -- the scope ----------------------------------------------------------------------


def test_a_repeated_input_gets_the_stored_result_only_inside_a_scope():
    data = np.array([[1, 2, 0], [2, 4, 1]], dtype=np.int64)
    first, second = Subspace.from_vectors(5, 3, data), Subspace.from_vectors(5, 3, data)
    assert first == second and first is not second
    assert FpMatrix(5, data).kernel() is not FpMatrix(5, data).kernel()
    with shared_eliminations():
        assert Subspace.from_vectors(5, 3, data) is Subspace.from_vectors(5, 3, data)
        assert FpMatrix(5, data).kernel() is FpMatrix(5, data).kernel()
        assert quotient_maps(first) is quotient_maps(second)
    assert linalg._shared is None


def test_nested_scopes_share_one_table():
    data = np.array([[1, 1]], dtype=np.int64)
    with shared_eliminations():
        table = linalg._shared
        outer = Subspace.from_vectors(2, 2, data)
        with shared_eliminations():
            assert linalg._shared is table
            assert Subspace.from_vectors(2, 2, data) is outer
        assert linalg._shared is table
    assert linalg._shared is None


def test_the_scope_is_gone_after_run_catalog_checks_returns():
    report = checks.run_catalog_checks(default_catalog(), seed=0, instances_per_algebra=1)
    assert report.ok and linalg._shared is None


def test_the_scope_is_gone_after_an_axiom_error(monkeypatch):
    space = Subspace.from_vectors(2, 2, [[1, 0]])
    swap = FpMatrix(2, [[0, 1], [1, 0]])  # does not preserve the line
    with pytest.raises(AxiomError, match="does not preserve"):
        with shared_eliminations():
            linalg.restrict_stack([swap], space)
    assert linalg._shared is None

    def refuse(name, M, report):
        raise AxiomError(f"refused {name}")

    monkeypatch.setattr(checks, "check_stabilization", refuse)
    with pytest.raises(AxiomError, match="refused"):
        checks.run_catalog_checks(default_catalog(), seed=0, instances_per_algebra=1)
    assert linalg._shared is None


def test_a_computation_that_raises_stores_nothing():
    def refuse():
        raise AxiomError("refused")

    with shared_eliminations():
        with pytest.raises(AxiomError):
            linalg._recall("kind", 2, (np.zeros((1, 1), dtype=np.int64),), refuse)
        assert linalg._shared == {}


def test_recall_computes_on_every_call_outside_a_scope_and_stores_inside_one():
    calls = []

    def compute(tag):
        calls.append(tag)
        return object()

    arrays = (np.eye(2, dtype=np.int64),)
    first = linalg._recall("kind", 2, arrays, compute, "a")
    second = linalg._recall("kind", 2, arrays, compute, "b")
    assert first is not second and calls == ["a", "b"]
    assert linalg._shared is None
    with shared_eliminations():
        stored = linalg._recall("kind", 2, arrays, compute, "c")
        assert linalg._recall("kind", 2, arrays, compute, "d") is stored
        assert linalg._shared == {("kind", 2, ((2, 2), arrays[0].tobytes())): stored}
    assert calls == ["a", "b", "c"] and linalg._shared is None


# -- the module layer -------------------------------------------------------------

F2 = prime_field(2)
F4 = extension_field(2, [1, 1, 1])
F2xF2 = product_algebra(F2, F2)


def test_the_key_separates_one_module_under_two_graded_ideals():
    M = random_module(F4, "right", 4, random.Random(5))
    H = natural_frobenius_module(F4)
    ideals = [zero_graded_ideal(F4), x_power_graded_ideal(F4, 1), unit_graded_ideal(F4)]
    with shared_eliminations():
        products = [M.times_graded_ideal(B).space for B in ideals]
        annihilators = [H.annihilator_submodule(B).space for B in ideals]
    assert products == [M.times_graded_ideal(B).space for B in ideals]
    assert annihilators == [H.annihilator_submodule(B).space for B in ideals]
    assert [space.dim for space in products] == [0, M.x_image(1).dim, 4]
    assert [space.dim for space in annihilators] == [2, 0, 0]


def test_a_graded_annihilator_in_a_scope_lives_over_its_own_algebra():
    # both zero modules have the same 3 x 0 x 0 structure over p = 2
    with shared_eliminations():
        for A in (F4, F2xF2, F4):
            g = LeftFModule.zero(A).graded_annihilator()
            assert g.algebra is A and g.chain[0].algebra is A
            assert g == LeftFModule.zero(A).graded_annihilator()


def test_equal_modules_share_results_but_keep_their_own_submodules():
    M = random_module(F4, "right", 4, random.Random(5))
    B = x_power_graded_ideal(F4, 1)
    with shared_eliminations():
        for module in (M, RightFModule(F4, M.action, M.x_action)):
            product = module.times_graded_ideal(B)
            assert product.parent is module
            quotient, proj = module.quotient(product)
            assert quotient.dim == M.dim - product.dim
        H = natural_frobenius_module(F4)
        for module in (H, LeftFModule(F4, H.action, H.x_action)):
            assert module.annihilator_submodule(B).parent is module


def test_stored_chains_and_sets_cannot_be_mutated():
    with shared_eliminations():
        M = cartier_from_splitting(F2xF2)[0]
        g = M.graded_annihilator()
        assert isinstance(g.chain, tuple)
        with pytest.raises(TypeError):
            g.chain[0] = g.chain[0]
        keys = graded_annihilator_set(M)
        assert graded_annihilator_set(M) is keys and len(keys) == 4
        with pytest.raises(AttributeError):
            keys.add(())


COMPUTATIONS = [
    (LeftFModule, "_annihilator_space"),
    (RightFModule, "_product_space"),
    (fmodule, "_graded_annihilator_keys"),
]


def every_module_entry_point(A):
    """Each of the three entry points, on modules built afresh."""
    H, M = natural_frobenius_module(A), cartier_from_splitting(A)[0]
    B = x_power_graded_ideal(A, 1)
    H.annihilator_submodule(B)
    M.times_graded_ideal(B)
    graded_annihilator_set(H)
    graded_annihilator_set(M)


def test_the_module_layer_computes_on_every_call_outside_a_scope(monkeypatch):
    calls = collections.Counter()
    for owner, name in COMPUTATIONS:
        compute = getattr(owner, name)

        def counted(*args, compute=compute, name=name):
            calls[name] += 1
            return compute(*args)

        monkeypatch.setattr(owner, name, counted)
    every_module_entry_point(F2xF2)
    once = dict(calls)
    assert set(once) == {name for _, name in COMPUTATIONS}
    every_module_entry_point(F2xF2)
    assert calls == {name: 2 * count for name, count in once.items()}
    calls.clear()
    with shared_eliminations():
        every_module_entry_point(F2xF2)
        once = dict(calls)
        every_module_entry_point(F2xF2)
    assert calls == once and all(count >= 1 for count in once.values())
