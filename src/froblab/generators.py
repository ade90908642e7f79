"""Instance generation: standard algebras, enumerated small algebras, and
seeded random ideals, modules, and homomorphisms.

Random modules are valid by construction: the ring action is a block sum of
regular actions on quotients by random ideals, and the x-action is sampled
from the solution space of the side's semilinearity constraint.  Only the
quotient ideals are rejection-sampled: random_proper_ideal draws up to 30
random ideals before it falls back to a maximal ideal.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FiniteAlgebra,
    Ideal,
    extension_field,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from .errors import AxiomError
from .fmodule import LeftFModule, RightFModule, _FModule, hom_space, semilinear_pairs
from .linalg import FpMatrix, combine, operator_kernel, quotient_maps


# -- named algebras -----------------------------------------------------------


def standard_algebras() -> dict[str, FiniteAlgebra]:
    """The named algebra zoo used by the default catalog and the test suites."""
    f2 = prime_field(2)
    f4 = extension_field(2, [1, 1, 1])  # u^2 + u + 1
    out = {
        "F2": f2,
        "F3": prime_field(3),
        "F5": prime_field(5),
        "F4": f4,
        "F9": extension_field(3, [1, 0, 1]),  # u^2 + 1
        "F2[t]/t2": truncated_polynomial_algebra(2, 2),
        "F2[t]/t3": truncated_polynomial_algebra(2, 3),
        "F3[t]/t2": truncated_polynomial_algebra(3, 2),
        "F2[t,s]/(t,s)2": _two_variable_square_zero(2),
        "F2xF2": product_algebra(f2, f2),
        "F2xF4": product_algebra(f2, f4),
    }
    return out


def _two_variable_square_zero(p: int) -> FiniteAlgebra:
    """F_p[t,s] with all products of the variables equal to zero."""
    table = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        table[0, i, i] = 1
        table[i, 0, i] = 1
    one = np.array([1, 0, 0], dtype=np.int64)
    return FiniteAlgebra(p, table, one, labels=["1", "t", "s"])


def enumerate_local_algebras(p: int, max_dim: int) -> list[FiniteAlgebra]:
    """All commutative local unital algebra tables of dimension <= max_dim.

    Basis element 0 is the identity, so only products of the remaining basis
    elements are free; every choice is screened by the full validator and a
    locality test.
    """
    found: list[FiniteAlgebra] = []
    for d in range(1, max_dim + 1):
        free = [(i, j) for i in range(1, d) for j in range(i, d)]
        for choice in itertools.product(
            itertools.product(range(p), repeat=d), repeat=len(free)
        ):
            table = np.zeros((d, d, d), dtype=np.int64)
            for k in range(d):
                table[0, k, k] = 1
                table[k, 0, k] = 1
            for (i, j), vec in zip(free, choice):
                table[i, j] = vec
                table[j, i] = vec
            one = np.zeros(d, dtype=np.int64)
            one[0] = 1
            try:
                A = FiniteAlgebra(p, table, one, labels=["1"] + [f"g{i}" for i in range(1, d)])
            except AxiomError:
                continue
            if A.is_local():
                found.append(A)
    return found


# -- random instances ----------------------------------------------------------


def random_element(A: FiniteAlgebra, rng: random.Random) -> np.ndarray:
    return np.array([rng.randrange(A.p) for _ in range(A.dim)], dtype=np.int64)


def random_ideal(A: FiniteAlgebra, rng: random.Random) -> Ideal:
    n_gens = rng.randrange(0, 3)
    return A.ideal([random_element(A, rng) for _ in range(n_gens)])


def maximal_ideals(A: FiniteAlgebra) -> list[Ideal]:
    decomp = A.local_components()
    return [decomp.maximal_ideal_in_ambient(i) for i in range(len(decomp.components))]


def random_proper_ideal(A: FiniteAlgebra, rng: random.Random, max_codim: int) -> Ideal | None:
    """A proper ideal whose quotient has dimension at most max_codim.

    Quotient dimensions are bounded below by the smallest residue field, so
    None is returned when no proper ideal fits.
    """
    for _ in range(30):
        a = random_ideal(A, rng)
        codim = A.dim - a.space.dim
        if 1 <= codim <= max_codim:
            return a
    fitting = [m for m in maximal_ideals(A) if 1 <= A.dim - m.space.dim <= max_codim]
    if not fitting:
        return None
    return fitting[rng.randrange(len(fitting))]


def _quotient_action(A: FiniteAlgebra, a: Ideal) -> list[np.ndarray]:
    """Matrices of the regular action on the quotient by an ideal."""
    proj, lift = quotient_maps(a.space)
    return [(proj @ m @ lift).data for m in A.basis_matrices()]


def semilinear_solution_space(action: list[FpMatrix], A: FiniteAlgebra, side: str) -> list[FpMatrix]:
    """Basis of all x-action matrices compatible with the given ring action."""
    n = action[0].rows
    return operator_kernel(A.p, (n, n), semilinear_pairs(A, action, side))


def random_module(A: FiniteAlgebra, side: str, max_dim: int, rng: random.Random) -> _FModule:
    """A valid module of dimension at most max_dim with a random x-action.

    The ring action is a block sum of cyclic quotients; quotient dimensions
    are multiples of residue field degrees, so the exact dimension cannot be
    prescribed in general (over a field extension it is always a multiple of
    the degree).
    """
    blocks: list[list[np.ndarray]] = []
    total = 0
    while True:
        a = random_proper_ideal(A, rng, max_dim - total)
        if a is None:
            break
        blocks.append(_quotient_action(A, a))
        total += A.dim - a.space.dim
        if rng.random() < 0.25:
            break
    n = total
    action = []
    for i in range(A.dim):
        mat = np.zeros((n, n), dtype=np.int64)
        offset = 0
        for block in blocks:
            k = block[i].shape[0]
            mat[offset : offset + k, offset : offset + k] = block[i]
            offset += k
        action.append(FpMatrix(A.p, mat))
    basis = semilinear_solution_space(action, A, side)
    x = combine(A.p, (n, n), [rng.randrange(A.p) for _ in basis], basis)
    cls = LeftFModule if side == "left" else RightFModule
    return cls(A, action, x)


def random_hom(source: _FModule, target: _FModule, rng: random.Random) -> FpMatrix:
    basis = hom_space(source, target)
    coeffs = [rng.randrange(source.algebra.p) for _ in basis]
    return combine(source.algebra.p, (target.dim, source.dim), coeffs, basis)


# -- catalogs -------------------------------------------------------------------


@dataclass
class InstanceCatalog:
    """Named instances; the unit the CLI operates on."""

    algebras: dict[str, FiniteAlgebra] = field(default_factory=dict)
    modules: dict[str, tuple[str, _FModule]] = field(default_factory=dict)  # name -> (algebra name, module)
    ideals: dict[str, tuple[str, Ideal]] = field(default_factory=dict)

    def add_module(self, name: str, algebra_name: str, module: _FModule) -> None:
        if algebra_name not in self.algebras:
            raise ValueError(f"unknown algebra {algebra_name!r}")
        if self.algebras[algebra_name] != module.algebra:
            raise ValueError(f"module {name!r} does not live over {algebra_name!r}")
        self.modules[name] = (algebra_name, module)

    def add_ideal(self, name: str, algebra_name: str, ideal: Ideal) -> None:
        if algebra_name not in self.algebras:
            raise ValueError(f"unknown algebra {algebra_name!r}")
        if self.algebras[algebra_name] != ideal.algebra:
            raise ValueError(f"ideal {name!r} does not live over {algebra_name!r}")
        self.ideals[name] = (algebra_name, ideal)


def default_catalog() -> InstanceCatalog:
    """The catalog shipped with the command line tool."""
    from .duality import build_duality_context
    from .fmodule import natural_frobenius_module, twisted_frobenius_module

    cat = InstanceCatalog(algebras=standard_algebras())

    f2t2 = cat.algebras["F2[t]/t2"]
    cat.add_module("natural_F2t2", "F2[t]/t2", natural_frobenius_module(f2t2))
    cat.add_module(
        "twisted_F2t2", "F2[t]/t2", twisted_frobenius_module(f2t2, [1, 1])
    )
    residue = RightFModule(
        f2t2,
        [FpMatrix(2, [[1]]), FpMatrix(2, [[0]])],
        FpMatrix(2, [[1]]),
    )
    cat.add_module("residue_F2t2", "F2[t]/t2", residue)
    cat.add_module("zero_F2", "F2", LeftFModule.zero(cat.algebras["F2"]))
    f4 = cat.algebras["F4"]
    cat.add_module("natural_F4", "F4", natural_frobenius_module(f4))
    cat.add_module("dualizing_F4", "F4", build_duality_context(f4).as_right_module())
    f2t3 = cat.algebras["F2[t]/t3"]
    cat.add_ideal("t2_in_F2t3", "F2[t]/t3", f2t3.ideal([[0, 0, 1]]))
    cat.add_ideal("t_in_F2t2", "F2[t]/t2", f2t2.ideal([[0, 1]]))
    return cat


def sampled_modules(
    A: FiniteAlgebra,
    seed: int,
    per_side: int,
    max_dim: int = 4,
    extras: bool = True,
) -> list[tuple[str, _FModule]]:
    """A deterministic mix of random and distinguished modules over A."""
    from .duality import build_duality_context
    from .fmodule import natural_frobenius_module

    rng = random.Random(seed)
    out: list[tuple[str, _FModule]] = []
    for side in ("left", "right"):
        for i in range(per_side):
            dim = rng.randrange(1, max_dim + 1)
            out.append((f"{side}{i}d{dim}", random_module(A, side, dim, rng)))
    if extras:
        ctx = build_duality_context(A)
        out.append(("dualizing", ctx.as_right_module()))
        natural = natural_frobenius_module(A)
        out.append(("natural", natural))
        from .duality import dual_left

        out.append(("natural_dual", dual_left(natural, ctx)))
        out.append(("zero_left", LeftFModule.zero(A)))
        out.append(("zero_right", RightFModule.zero(A)))
    return out
