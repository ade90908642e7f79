"""Theorem-level verification suites over catalogs of instances.

Everything here reduces a statement about modules over the skew ring to an
exact finite computation and reports pass/fail per instance; the CLI `check`
command and the acceptance tests both drive these.
"""
from __future__ import annotations

import itertools
import random

import numpy as np

from .duality import build_duality_context, check_duality_identities
from .fmodule import LeftFModule, RightFModule, _FModule, semilinear_pairs
from .generators import InstanceCatalog, sampled_modules
from .linalg import FpMatrix, Subspace, mulmod
from .report import Report


def stabilization_bound(M: RightFModule) -> tuple[int, bool]:
    """Bound on the image-chain stabilization index from the reduction pipeline.

    Alternates quotienting by the stable image and by the eventual
    annihilator; each step drops dimension, and a nonzero module with both
    parts trivial would contradict the stabilization theorem (reported via
    the flag rather than raised).
    """
    if M.is_zero():
        return 0, True
    stable, _ = M.stable_image()
    if not stable.is_zero():
        bound, ok = stabilization_bound(M.mod_stable_image())
        return bound, ok
    torsion, index = M.eventual_annihilator()
    if not torsion.is_zero():
        bound, ok = stabilization_bound(M.mod_eventual_annihilator())
        return bound + index, ok
    # both reductions trivial: the module must already be zero
    return 0, M.is_zero()


def check_stabilization(name: str, M: RightFModule, report: Report) -> None:
    """Direct image-chain stabilization versus the reduction pipeline."""
    e = M.divisibility_exponent()
    x = M.x_action
    constant_on = (x**e).image() == (x ** (e + 1)).image() == (x ** (e + 2)).image()
    bound, pipeline_ok = stabilization_bound(M)
    report.add(
        "image_chain_stabilizes",
        "the chain of images of powers of x stabilizes and stays constant",
        name,
        constant_on,
    )
    report.add(
        "stabilization_pipeline",
        "the reduction pipeline terminates and bounds the direct stabilization index",
        name,
        pipeline_ok and e <= bound,
        f"direct {e}, pipeline bound {bound}" if not (pipeline_ok and e <= bound) else "",
    )


def check_uniform_torsion_bound(name: str, H: LeftFModule, report: Report) -> None:
    """One exponent kills all x-torsion, and the torsion exponent is the least.

    The kernels of the powers of X ascend and stop for good within dim
    steps, so the x-torsion is ker(X^dim) and a power X^e kills it exactly
    when ker(X^max(dim, e)) lies in ker(X^e).
    """
    e = H.torsion_exponent()
    x = H.x_action
    ok = (x ** max(H.dim, e)).kernel() <= (x**e).kernel()
    if e > 0:
        ok = ok and (x ** (e - 1)).kernel() != (x**e).kernel()
    report.add(
        "uniform_torsion_exponent",
        "every x-torsion element is killed by one uniform power of x",
        name,
        ok,
    )


def check_square_multiplier(name: str, M: RightFModule, report: Report) -> None:
    """If multiplication by s lands in Mx, its square lands in every Mx^k.

    The applicable s form the subspace S = ker(s -> C rho(s)), where the rows
    of C annihilate Mx.  For odd p the squares of S span the products b_i b_j
    (i <= j) of a basis of S; for p = 2 squaring is additive and the b_i^2
    span them.  Each Mx^k is a subspace, so checking those products suffices.
    """
    A = M.algebra
    if M.is_zero():
        return
    power_images = [(M.x_action**k).image() for k in range(1, M.dim + 2)]
    C = FpMatrix(A.p, power_images[0].annihilator().basis)
    system = np.stack([(C @ a).data.ravel() for a in M.action], axis=1)
    S = FpMatrix(A.p, system).kernel()
    if A.p == 2:
        pairs = [(i, i) for i in range(S.dim)]
    else:
        pairs = itertools.combinations_with_replacement(range(S.dim), 2)
    ok = all(
        imk.contains(M.rho(A.mul(S.basis[i], S.basis[j])).data.T)
        for i, j in pairs
        for imk in power_images
    )
    report.add(
        "square_multiplier_descends",
        "an element moving the module into Mx has its square move it into every Mx^k",
        name,
        ok,
        f"{A.p**S.dim} applicable elements" if ok else "",
    )


def check_localization(name: str, M: RightFModule, report: Report) -> None:
    """Localizing commutes with multiplying by powers of x, per idempotent factor."""
    A = M.algebra
    decomp = A.local_components()
    for idx in range(len(decomp.components)):
        local = M.localize(idx)
        eps = decomp.idempotents[idx]
        proj = M.rho(eps)
        part = proj.image()
        ok = True
        for k in range(1, M.dim + 2):
            # project M x^k into the factor and compare with (local) x^k
            projected = (proj @ M.x_action**k).image()
            local_im = (local.x_action**k).image()
            lifted = Subspace.from_vectors(A.p, M.dim, mulmod(local_im.basis, part.basis, A.p))
            if projected != lifted:
                ok = False
                break
        # the fraction rule: for units s of the factor, dividing by s commutes
        # with the x-action as ( m/s ) x = m s^(p-1) x / s.  Multiplied out by
        # rho(s) this is X rho(s^p) == rho(s) X, linear in s, and the units of
        # a local algebra span it, so a basis of the factor suffices.
        if ok:
            pairs = semilinear_pairs(decomp.components[idx], local.action, "right")
            ok = all(local.x_action @ a == b @ local.x_action for a, b in pairs)
        report.add(
            "localization_commutes",
            "inverting everything outside a maximal ideal commutes with the x-action",
            f"{name}, component {idx}",
            ok,
        )


def module_suite(
    ctx,
    name: str,
    module: _FModule,
    rng: random.Random,
    report: Report,
    unused=None,  # kept: perfbench/workloads.py wraps module_suite with six positional arguments
) -> None:
    """All per-module checks: duality identities plus the theorem suites."""
    report.extend(check_duality_identities(ctx, [(name, module)], rng))
    if module.side == "right":
        check_stabilization(name, module, report)
        check_square_multiplier(name, module, report)
        check_localization(name, module, report)
    else:
        check_uniform_torsion_bound(name, module, report)


def run_catalog_checks(
    catalog: InstanceCatalog,
    seed: int = 0,
    instances_per_algebra: int = 4,
) -> Report:
    """Validate a catalog and run every suite over it plus random instances."""
    report = Report()
    contexts: dict[str, object] = {}
    for alg_name, A in sorted(catalog.algebras.items()):
        A.validate()
        contexts[alg_name] = build_duality_context(A)
        report.add(
            "duality_context",
            "the dualizing module and its bimodule isomorphism exist and validate",
            alg_name,
            True,
        )
    rng = random.Random(seed)
    for mod_name, (alg_name, module) in sorted(catalog.modules.items()):
        module.validate()
        module_suite(contexts[alg_name], mod_name, module, rng, report, None)
    for ideal_name, (alg_name, ideal) in sorted(catalog.ideals.items()):
        closure, exponent = ideal.frobenius_closure()
        again, _ = closure.frobenius_closure()
        steps = 0
        while ideal.algebra.p**steps < exponent:
            steps += 1
        ok = (
            ideal.space <= closure.space
            and again.space == closure.space
            and closure.frobenius_power(steps) == ideal.frobenius_power(steps)
        )
        report.add(
            "frobenius_closure_idempotent",
            "the Frobenius closure contains the ideal, is idempotent, and its "
            "test exponent works",
            ideal_name,
            ok,
        )
    for index, (alg_name, A) in enumerate(sorted(catalog.algebras.items())):
        samples = sampled_modules(
            A, seed=seed + index, per_side=instances_per_algebra, extras=False
        )
        for sub_name, module in samples:
            module_suite(contexts[alg_name], f"{alg_name}/{sub_name}", module, rng, report, None)
    return report
