"""The shared_eliminations scope of `froblab check` against unshared runs.

Inside the scope Subspace.from_vectors, FpMatrix.kernel, quotient_maps and
close_under hand back the stored result for an input they have seen.  The
unshared run is the reference: every report must be byte-identical to it.
The key must tell apart inputs whose bytes agree but whose p, shape or
operators differ, and the scope must leave nothing behind.

Tier-1 cost: about 9 s for the whole file on a 2-core Xeon, nearly all of it
the twenty `check --budget 8` runs.
"""
import contextlib
import random

import numpy as np
import pytest

import froblab.linalg as linalg
from froblab import checks
from froblab.cli import main
from froblab.errors import AxiomError
from froblab.generators import default_catalog, random_module
from froblab.linalg import FpMatrix, Subspace, close_under, quotient_maps, shared_eliminations

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
