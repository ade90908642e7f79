"""Command line front end.

Subcommands: analyze | dualize | fclosure | check | probe-question.
Exit codes: 0 all good, 1 a theorem check failed, 2 bad input or validation.
check and probe-question get the graded annihilators of quotients from the
radical ideals of the algebra (fmodule.graded_annihilator_set), so they run
at every module size with no enumeration budget.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fileio
from .algebra import frobenius_closure_data
from .checks import run_catalog_checks
from .duality import build_duality_context, dual_module
from .errors import AxiomError, BudgetError
from .fmodule import graded_annihilator_set
from .generators import default_catalog
from .skew import SkewPolynomial


def _emit(doc: dict, text: str, args) -> None:
    payload = fileio.dump_json(doc) if args.format == "structured" else text + "\n"
    if args.out:
        fileio.atomic_write_text(args.out, payload)
    else:
        sys.stdout.write(payload)


def _load_algebra_and_module(algebra_path: str, module_path: str):
    algebra = fileio.algebra_from_doc(fileio.load_json(algebra_path))
    module = fileio.module_from_doc(fileio.load_json(module_path), algebra)
    return algebra, module


def cmd_analyze(args) -> int:
    algebra, module = _load_algebra_and_module(args.algebra, args.module)
    chain = module.graded_annihilator()
    doc = {
        "side": module.side,
        "dim": module.dim,
        "algebra_dim": algebra.dim,
        "p": algebra.p,
        "graded_annihilator": {
            "stable_from": chain.stable_from,
            "chain": [[g.tolist() for g in b.space.basis] for b in chain.chain],
        },
    }
    lines = [
        f"side: {module.side}",
        f"dim: {module.dim} over algebra of dim {algebra.dim}, p = {algebra.p}",
    ]
    if module.side == "left":
        doc["torsion_exponent"] = module.torsion_exponent()
        doc["x_torsion_free"] = module.is_x_torsion_free()
        doc["x_torsion_dim"] = module.x_torsion().dim
        for key in ("torsion_exponent", "x_torsion_free", "x_torsion_dim"):
            lines.append(f"{key}: {doc[key]}")
    else:
        doc["divisibility_exponent"] = module.divisibility_exponent()
        doc["x_divisible"] = module.is_x_divisible()
        for key in ("divisibility_exponent", "x_divisible"):
            lines.append(f"{key}: {doc[key]}")
    rendered = " ; ".join(repr(b) for b in chain.chain)
    lines.append(f"graded_annihilator: {rendered} (stable from {chain.stable_from})")
    homogeneous = []
    for n in range(chain.stable_from + 1):
        for b in chain.component(n).space.basis:
            homogeneous.append(str(SkewPolynomial(algebra, [algebra.zero()] * n + [b])))
    if homogeneous:
        lines.append("homogeneous annihilators: " + ", ".join(homogeneous))
        doc["homogeneous_annihilators"] = homogeneous
    _emit(doc, "\n".join(lines), args)
    return 0


def cmd_dualize(args) -> int:
    algebra, module = _load_algebra_and_module(args.algebra, args.module)
    ctx = build_duality_context(algebra)
    dual = dual_module(module, ctx)
    # under the linear-dual identification the evaluation map is the identity,
    # so the round trip holds exactly when the double dual equals the module
    verified = dual_module(dual, ctx) == module
    fileio.atomic_write_text(args.out, fileio.dump_json(fileio.module_to_doc(dual)))
    doc = {
        "input_side": module.side,
        "output_side": dual.side,
        "dim": dual.dim,
        "round_trip_verified": verified,
        "out": args.out,
    }
    text = (
        f"wrote {dual.side} module of dim {dual.dim} to {args.out}\n"
        f"round_trip_verified: {verified}"
    )
    # the module file went to --out; the report always goes to stdout
    payload = fileio.dump_json(doc) if args.format == "structured" else text + "\n"
    sys.stdout.write(payload)
    return 0


def cmd_fclosure(args) -> int:
    algebra = fileio.algebra_from_doc(fileio.load_json(args.algebra))
    gens = []
    for raw in args.generators:
        try:
            vec = [int(part) for part in raw.split(",")]
        except ValueError:
            raise ValueError(f"generator {raw!r} is not a comma-separated integer vector") from None
        gens.append(np.array(vec, dtype=np.int64))
    ideal = algebra.ideal(gens)
    data = frobenius_closure_data(ideal)
    doc = {
        "closure_generators": [g.tolist() for g in data.closure.generators],
        "Q": data.exponent,
        "chain_dims": [c.dim for c in data.chain],
        "chain": [[v.tolist() for v in c.basis] for c in data.chain],
        "preperiod": data.preperiod,
        "period": data.period,
    }
    lines = [
        f"ideal: {ideal!r}",
        f"closure: {data.closure!r}",
        f"Q: {data.exponent}",
        f"cycle: preperiod {data.preperiod}, period {data.period}",
    ]
    for n, c in enumerate(data.chain):
        members = ", ".join(algebra.render_element(v) for v in c.basis) or "0"
        lines.append(f"c_{n}: ({members})")
    _emit(doc, "\n".join(lines), args)
    return 0


def _load_catalog(path: str | None):
    if path is None:
        return default_catalog()
    return fileio.catalog_from_doc(fileio.load_json(path))


def cmd_check(args) -> int:
    catalog = _load_catalog(args.catalog)
    report = run_catalog_checks(catalog, seed=args.seed, instances_per_algebra=args.budget)
    _emit(report.to_doc(), report.render_text(verbose=args.format == "text"), args)
    return 0 if report.ok else 1


def cmd_probe_question(args) -> int:
    catalog = _load_catalog(args.catalog)
    results = []
    for name, (alg_name, module) in sorted(catalog.modules.items()):
        if module.side != "right" or not module.is_x_divisible():
            continue
        count = len(graded_annihilator_set(module))
        results.append({"module": name, "algebra": alg_name, "distinct_graded_annihilators": count})
    note = (
        "finite by construction at this scale; experimental data only, "
        "not evidence either way"
    )
    doc = {"note": note, "results": results}
    lines = [f"note: {note}"]
    for entry in results:
        lines.append(
            f"{entry['module']}: {entry['distinct_graded_annihilators']} "
            f"distinct graded annihilators of quotients"
        )
    _emit(doc, "\n".join(lines), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="froblab",
        description="Exact computations with modules over Frobenius skew polynomial rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report to this path (atomically)")
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="report format",
        )

    p_analyze = sub.add_parser("analyze", help="invariants of one module")
    p_analyze.add_argument("algebra", help="algebra JSON file")
    p_analyze.add_argument("module", help="module JSON file")
    common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_dual = sub.add_parser("dualize", help="write the dual module")
    p_dual.add_argument("algebra")
    p_dual.add_argument("module")
    p_dual.add_argument("--out", required=True, help="path for the dual module file")
    p_dual.add_argument("--format", choices=("text", "structured"), default="text")
    p_dual.set_defaults(func=cmd_dualize)

    p_fc = sub.add_parser("fclosure", help="Frobenius closure of an ideal")
    p_fc.add_argument("algebra")
    p_fc.add_argument(
        "generators",
        nargs="*",
        help="ideal generators as comma-separated coordinate vectors",
    )
    common(p_fc)
    p_fc.set_defaults(func=cmd_fclosure)

    p_check = sub.add_parser("check", help="run every verification suite")
    p_check.add_argument("catalog", nargs="?", help="catalog JSON file (default: built-in)")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--budget", type=int, default=4, help="random instances per algebra"
    )
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_probe = sub.add_parser(
        "probe-question",
        help="count graded annihilators of quotients of divisible modules",
    )
    p_probe.add_argument("catalog", nargs="?")
    common(p_probe)
    p_probe.set_defaults(func=cmd_probe_question)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AxiomError, BudgetError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
