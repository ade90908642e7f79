"""What `check` does once per module against the routes it replaced.

A module keeps two chains of X, im X^k and the row space of X^k, each step
one elimination of the last basis times X^T or X (x_image, x_coimage), and
ker X^k once eliminated (x_kernel); fitting_index reads its ranks off the
chain of the module's side.  The literal dual-action formulas evaluate all
DUAL_FORMULA_SAMPLES samples as one stack.  The routes they replaced are
fresh eliminations of X^k, the rank loop and the per-sample loop of
fmodule_reference.
Everything is exact, so the results must be equal, and on stacks that break
the module laws too: all of it is linear algebra on the stack alone.

Tier-1 cost: about 4 s for the whole file on a 2-core Xeon.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from froblab.algebra import truncated_polynomial_algebra
from froblab.checks import module_suite
from froblab.duality import (
    DUAL_FORMULA_SAMPLES,
    _dual_formula_mismatches,
    build_duality_context,
    dual_module,
    dual_pairing_element,
    eval_dual_formula_left,
    eval_dual_formula_right,
)
from froblab.errors import AxiomError
from froblab.fmodule import LeftFModule, RightFModule, _FModule
from froblab.generators import default_catalog, random_module
from froblab.linalg import LIST_KERNEL_CELLS, FpMatrix
from froblab.report import Report

import fmodule_reference as reference
from linalg_reference import two_elimination_kernel
from module_strategies import LARGE_PRIME_ALGEBRAS, SMALL_PRIME_ALGEBRAS, modules
from test_batched_module import block_module_48, broken_stack

# p in {2, 3, 1048573}
POOL = {**SMALL_PRIME_ALGEBRAS, **LARGE_PRIME_ALGEBRAS}


def fresh(M):
    """M again, with nothing kept: no power, image, kernel or Fitting index."""
    return type(M)._from_structure(M.algebra, M.structure.copy())


def dual_formula_outcome(route, ctx, M, dual, seed: int) -> tuple[object, object]:
    """The mismatch count of one route and the rng state after it, or its
    AxiomError.  The error ends a check, and the per-sample loop raises it
    before drawing the samples after the failing one, so no state is compared."""
    rng = random.Random(seed)
    count = outcome(lambda: route(ctx, M, dual, rng))
    return count, None if count == "AxiomError" else rng.getstate()


def assert_chains_match(M) -> None:
    """x_image, x_coimage, x_kernel and the Fitting index against fresh
    eliminations of X^k and the rank loop, asked in a shuffled order with
    repeats; what the side's chain is read for against the power routes."""
    assert M.fitting_index() == reference.fitting_index_by_ranks(fresh(M))
    assert M.fitting_index() == reference.fitting_index_by_power_images(fresh(M))
    assert outcome(M.graded_annihilator) == outcome(
        lambda: reference.graded_annihilator_by_power_words(fresh(M))
    )
    if M.side == "right":
        assert M.annihilator_chain() == reference.annihilator_chain_by_power_words(fresh(M))
    ks = list(range(M.dim + 3)) * 2
    random.Random(M.dim).shuffle(ks)
    for k in ks:
        power = fresh(M).x_power(k)
        assert M.x_image(k) == power.image()
        assert M.x_coimage(k) == power.T.image()
        assert M.x_kernel(k) == power.kernel()
    if M.side == "left":
        assert M.is_x_torsion_free() == fresh(M).x_action.kernel().is_zero()
    else:
        assert M.is_x_divisible() == fresh(M).x_action.image().is_full()
    # the stable pieces, where the laws make them submodules
    if M.side == "left":
        got = outcome(lambda: M.x_torsion().space)
        want = outcome(lambda: reference.x_torsion(fresh(M)).space)
    else:
        got = outcome(lambda: M.stable_image()[0].space)
        want = outcome(lambda: reference.stable_image(fresh(M))[0].space)
    assert got == want


def assert_dual_formulas_match(M, seed: int) -> object:
    """The stacked evaluators row by row and the mismatch count against the
    per-sample references; returns the count, or "AxiomError"."""
    A, p = M.algebra, M.algebra.p
    ctx = build_duality_context(A)
    dual = dual_module(M, ctx)
    got = dual_formula_outcome(_dual_formula_mismatches, ctx, M, dual, seed)
    assert got == dual_formula_outcome(reference.dual_formula_mismatches, ctx, M, dual, seed)
    # a stack of k samples, 0 to DUAL_FORMULA_SAMPLES, row by row
    rng = random.Random(seed)
    k = rng.randrange(DUAL_FORMULA_SAMPLES + 1)

    def draw(n):
        return np.array([rng.randrange(p) for _ in range(k * n)], dtype=np.int64).reshape(k, n)

    lam, v, r = draw(M.dim), draw(M.dim), draw(A.dim)
    pairing = dual_pairing_element(M, lam, v)
    assert pairing.shape == (k, A.dim)
    want = [reference.dual_pairing_element(M, *pair).tolist() for pair in zip(lam, v)]
    assert pairing.tolist() == want
    if M.side == "left":
        routes = (eval_dual_formula_left, reference.eval_dual_formula_left, (lam, r, v))
    else:
        routes = (eval_dual_formula_right, reference.eval_dual_formula_right, (r, lam, v))
    stacked, single, samples = routes
    assert outcome(lambda: stacked(ctx, M, *samples).tolist()) == outcome(
        lambda: [single(ctx, M, *row).tolist() for row in zip(*samples)]
    )
    return got[0]


def outcome(compute):
    """What compute returns, or "AxiomError"."""
    try:
        return compute()
    except AxiomError:
        return "AxiomError"


@settings(max_examples=100, deadline=None)
@given(modules(pool=POOL, max_dim=6), st.integers(0, 2**32 - 1))
def test_chains_and_dual_formulas_match_the_references(M, seed):
    assert_chains_match(M)
    assert assert_dual_formulas_match(M, seed) == 0


@settings(max_examples=80, deadline=None)
@given(modules(pool=POOL, max_dim=6), st.integers(0, 2**32 - 1), st.sampled_from(["x", "all"]))
def test_chains_and_dual_formulas_match_on_stacks_that_break_the_laws(M, seed, kind):
    rng = random.Random(seed)
    broken = broken_stack(M, rng, kind)
    assert_chains_match(broken)
    assert_dual_formulas_match(broken, seed)


@pytest.mark.parametrize("side", ["left", "right"])
def test_zero_modules_through_the_chains_and_the_dual_formulas(side):
    cls = LeftFModule if side == "left" else RightFModule
    for A in POOL.values():
        M = cls.zero(A)
        assert_chains_match(M)
        assert M.fitting_index() == 0 and M.x_image(0).dim == M.x_kernel(5).dim == 0
        assert assert_dual_formulas_match(M, 0) == 0


def test_broken_stacks_have_mismatches_the_references_count_alike():
    """Seeded random stacks.  Those that satisfy the laws (over a prime
    field a random X often does) have no mismatch.  Of those that break
    them, the left ones, where the formula always runs, have a non-zero
    per-sample count on most; every count equals the reference's, and
    a right stack whose inner map is not right-linear over p-th powers
    raises on both routes."""
    rng = random.Random(25)
    valid, broken, refused = [], [], 0
    for A in POOL.values():
        for side in ("left", "right"):
            for kind in ("x", "all"):
                for _ in range(4):
                    M = broken_stack(random_module(A, side, 4, rng), rng, kind)
                    outcome = assert_dual_formulas_match(M, rng.randrange(2**32))
                    try:
                        holds = M.validate()
                    except AxiomError:
                        holds = False
                    if holds:
                        valid.append(outcome)
                    elif outcome == "AxiomError":
                        refused += 1
                    elif side == "left":
                        broken.append(outcome)
    assert valid and set(valid) == {0}
    assert refused > 0 and broken
    assert sum(count > 0 for count in broken) >= 0.75 * len(broken), broken


@pytest.mark.parametrize("side", ["left", "right"])
def test_chains_and_dual_formulas_match_on_a_dim_48_block_module(side):
    M = block_module_48(truncated_polynomial_algebra(2, 3), side, 25)
    assert M.dim == 48 and M.validate()
    assert_chains_match(M)
    # X^k alone stays in the list kernel; two powers stacked pass it
    big = FpMatrix(2, np.vstack([M.x_power(1).data, M.x_power(2).data]))
    assert big.rows * big.cols > LIST_KERNEL_CELLS
    assert big.kernel() == two_elimination_kernel(big)
    assert assert_dual_formulas_match(M, 48) == 0


def test_each_chain_step_and_kernel_is_eliminated_once(monkeypatch):
    """A whole module_suite, then every chain query again.  After the suite
    each step of the image and coimage chains of X has met at most one
    elimination, and each step 1 <= k <= e + 1 of the side's chain exactly
    one; each ker X^k has met at most one kernel elimination of X^k.  The
    queries after it then eliminate every missing step, and no step twice."""
    steps, kernels = [], []  # (module, chain, k) per step; the matrix per kernel
    real_step, real_kernel = _FModule._x_step, FpMatrix.kernel

    def counting_step(self, name):
        steps.append((self, name, len(self._chains[name])))
        return real_step(self, name)

    def counting_kernel(self):
        kernels.append(self)
        return real_kernel(self)

    monkeypatch.setattr(_FModule, "_x_step", counting_step)
    monkeypatch.setattr(FpMatrix, "kernel", counting_kernel)
    rng = random.Random(7)
    modules_ = [M for _, M in default_catalog().modules.values()]
    for side in ("left", "right"):
        modules_ += [random_module(A, side, 4, rng) for A in POOL.values()]

    def count(N, name, k):
        return sum(m is N and (chain, j) == (name, k) for m, chain, j in steps)

    for name, M in enumerate(modules_):
        for N in (fresh(M), fresh(dual_module(M, build_duality_context(M.algebra)))):
            steps.clear()
            kernels.clear()
            ctx = build_duality_context(N.algebra)
            module_suite(ctx, name, N, random.Random(0), Report())
            if N.side == "left":
                N.x_torsion(), N.is_x_torsion_free(), N.torsion_exponent()
            else:
                N.stable_image(), N.is_x_divisible(), N.divisibility_exponent()
            e, side_chain = N.fitting_index(), N._side_chain
            ks = list(range(N.dim + 3))
            for k in ks:
                for chain in ("image", "coimage"):
                    assert count(N, chain, k) <= 1, (name, N.side, chain, k)
                if 1 <= k <= e + 1:
                    assert count(N, side_chain, k) == 1, (name, N.side, k)
                power = N.x_power(k)
                assert sum(m is power for m in kernels) <= 1, (name, N.side, k)
            random.Random(name).shuffle(ks)
            for k in ks * 2:
                N.x_image(k), N.x_coimage(k), N.x_kernel(k)
            for k in ks:
                want = int(k > 0)  # step 0 is the whole space
                assert count(N, "image", k) == count(N, "coimage", k) == want, (name, k)
                assert sum(m is N.x_power(k) for m in kernels) == want, (name, N.side, k)
