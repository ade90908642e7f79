"""Theorem-level verification suites over catalogs of instances.

Everything here reduces a statement about modules over the skew ring to an
exact finite computation and reports pass/fail per instance; the CLI `check`
command and the acceptance tests both drive these.
"""
from __future__ import annotations

import random

import numpy as np

from .duality import build_duality_context, check_duality_identities
from .fmodule import LeftFModule, RightFModule, _FModule, semilinear_defects
from .generators import InstanceCatalog, sampled_modules
from .linalg import mulmod, relations
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
        return stabilization_bound(M.quotient(stable)[0])
    torsion, index = M.eventual_annihilator()
    if not torsion.is_zero():
        bound, ok = stabilization_bound(M.quotient(torsion)[0])
        return bound + index, ok
    # both reductions trivial: the module must already be zero
    return 0, M.is_zero()


def check_stabilization(name: str, M: RightFModule, report: Report) -> None:
    """Direct image-chain stabilization versus the reduction pipeline.

    e is read off the ranks of the kept chain, so im X^(e+2) is taken from
    the power X^(e+2) itself: the chain's own next step would make the law
    true by construction.
    """
    e = M.divisibility_exponent()
    constant_on = M.x_image(e) == M.x_image(e + 1) == M.x_power(e + 2).image()
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
    killed = H.x_kernel(e)
    ok = H.x_kernel(max(H.dim, e)) <= killed
    if e > 0:
        ok = ok and H.x_kernel(e - 1) != killed
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
    Mx^k = im X^k is im X^e for k >= e, the Fitting index (fitting_index), so
    k = 1, ..., max(e, 1) give every Mx^k.
    """
    A = M.algebra
    if M.is_zero():
        return
    power_images = [M.x_image(k) for k in range(1, max(M.fitting_index(), 1) + 1)]
    C = power_images[0].annihilator().basis
    S = relations(A.p, mulmod(C, M.structure[:-1], A.p).reshape(A.dim, C.shape[0] * M.dim))
    i, j = (np.arange(S.dim),) * 2 if A.p == 2 else np.triu_indices(S.dim)
    rhos = M.rhos(A._products(S.basis[i], S.basis[j]))
    columns = rhos.transpose(0, 2, 1).reshape(len(i) * M.dim, M.dim)
    ok = all(imk.contains(columns) for imk in power_images)
    report.add(
        "square_multiplier_descends",
        "an element moving the module into Mx has its square move it into every Mx^k",
        name,
        ok,
        f"{A.p**S.dim} applicable elements" if ok else "",
    )


def check_localization(name: str, M: RightFModule, report: Report) -> None:
    """Localizing commutes with multiplying by powers of x, per idempotent factor.

    On a right module rho(eps) commutes with X, as eps^p = eps, so
    rho(eps) im X^k, the image of rho(eps) X^k, is im X_eps^k lifted into M.
    Both read only im X^k and im X_eps^k, and im X^k = im X^e for k >= e, the
    Fitting index (fitting_index).  localize refuses unless X maps
    U = im rho(eps) into U, and X_eps is X on U: ker X_eps^k = ker X^k & U
    stops by e_M too.  So k <= max(e_M, 1) decide every k, on any stack.
    """
    A = M.algebra
    decomp = A.local_components()
    for idx in range(len(decomp.components)):
        local, lift = M._localization(idx)  # lift: the factor's coordinates into M
        proj = M.rho(decomp.idempotents[idx])
        # M x^k projected into the factor against the local x^k lifted into M
        ok = all(
            (proj @ M.x_power(k)).image() == (lift @ local.x_power(k)).image()
            for k in range(1, max(M.fitting_index(), 1) + 1)
        )
        # the fraction rule: for units s of the factor, dividing by s commutes
        # with the x-action as ( m/s ) x = m s^(p-1) x / s.  Multiplied out by
        # rho(s) this is X rho(s^p) == rho(s) X, linear in s, and the units of
        # a local algebra span it, so a basis of the factor suffices.
        if ok:
            ok = not semilinear_defects(local.algebra, local.structure, "right").any()
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
    contexts = {name: build_duality_context(A) for name, A in catalog.algebras.items()}
    rng = random.Random(seed)
    for mod_name, (alg_name, module) in sorted(catalog.modules.items()):
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
