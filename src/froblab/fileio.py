"""Flat-file formats for algebras, modules, ideals, and catalogs.

Everything is JSON with integers already reduced into [0, p); files hold one
object each and are meant to be hand-editable fixtures.  Writes go through a
temp file and an atomic rename so failed runs never leave partial output.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .algebra import FiniteAlgebra, Ideal
from .fmodule import LeftFModule, RightFModule, _FModule
from .generators import InstanceCatalog
from .linalg import FpMatrix


def _int_grid(data, depth: int, what: str):
    try:
        arr = np.asarray(data, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: expected nested integer lists") from exc
    if arr.ndim != depth:
        raise ValueError(f"{what}: expected nesting depth {depth}, got {arr.ndim}")
    return arr


def algebra_to_doc(A: FiniteAlgebra) -> dict:
    return {
        "p": A.p,
        "dim": A.dim,
        "labels": list(A.labels),
        "table": A.table.tolist(),
        "one": A.one.tolist(),
    }


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _require_keys(doc, keys: tuple[str, ...], what: str) -> None:
    _object(doc, f"{what} document")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} document is missing {key!r}")


def _as_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: expected an integer, got {value!r}") from exc


def algebra_from_doc(doc: dict) -> FiniteAlgebra:
    _require_keys(doc, ("p", "dim", "table", "one"), "algebra")
    p = _as_int(doc["p"], "p")
    table = _int_grid(doc["table"], 3, "table")
    one = _int_grid(doc["one"], 1, "one")
    if table.shape != (doc["dim"],) * 3:
        raise ValueError("table shape does not match dim")
    if ((table < 0) | (table >= p)).any() or ((one < 0) | (one >= p)).any():
        raise ValueError("entries must lie in [0, p)")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("labels must be a list")
    return FiniteAlgebra(p, table, one, labels=labels)


def module_to_doc(module: _FModule) -> dict:
    return {
        "side": module.side,
        "dim": module.dim,
        "action": [a.data.tolist() for a in module.action],
        "X": module.x_action.data.tolist(),
    }


def _square_matrix(data, n: int, what: str) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    try:
        arr = np.asarray(data, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: expected nested integer lists") from exc
    if arr.shape != (n, n):
        raise ValueError(f"{what} must be {n} x {n}, got shape {arr.shape}")
    return arr


def module_from_doc(doc: dict, algebra: FiniteAlgebra) -> _FModule:
    _require_keys(doc, ("side", "dim", "action", "X"), "module")
    side = doc["side"]
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = _as_int(doc["dim"], "dim")
    if not isinstance(doc["action"], list) or len(doc["action"]) != algebra.dim:
        raise ValueError("action must hold one matrix per algebra basis element")
    action = [
        FpMatrix(algebra.p, _square_matrix(m, n, f"action[{i}]"))
        for i, m in enumerate(doc["action"])
    ]
    x = FpMatrix(algebra.p, _square_matrix(doc["X"], n, "X"))
    cls = LeftFModule if side == "left" else RightFModule
    return cls(algebra, action, x)


def ideal_to_doc(ideal: Ideal) -> dict:
    return {"generators": [g.tolist() for g in ideal.generators]}


def ideal_from_doc(doc: dict, algebra: FiniteAlgebra) -> Ideal:
    gens = doc.get("generators", [])
    if not isinstance(gens, list):
        raise ValueError("generators must be a list")
    return algebra.ideal([_int_grid(g, 1, "generator") for g in gens])


def catalog_to_doc(catalog: InstanceCatalog) -> dict:
    return {
        "algebras": {k: algebra_to_doc(v) for k, v in catalog.algebras.items()},
        "modules": {
            k: {"algebra": alg, **module_to_doc(m)}
            for k, (alg, m) in catalog.modules.items()
        },
        "ideals": {
            k: {"algebra": alg, **ideal_to_doc(i)}
            for k, (alg, i) in catalog.ideals.items()
        },
    }


def _algebra_name(entry, what: str, cat: InstanceCatalog) -> str:
    alg_name = _object(entry, what).get("algebra")
    if not isinstance(alg_name, str) or alg_name not in cat.algebras:
        raise ValueError(f"{what} references unknown algebra {alg_name!r}")
    return alg_name


def catalog_from_doc(doc: dict) -> InstanceCatalog:
    _object(doc, "catalog document")

    def section(key: str) -> dict:
        return _object(doc.get(key, {}), f"catalog {key!r}")

    cat = InstanceCatalog()
    for name, adoc in section("algebras").items():
        cat.algebras[name] = algebra_from_doc(adoc)
    for name, mdoc in section("modules").items():
        alg_name = _algebra_name(mdoc, f"module {name!r}", cat)
        cat.add_module(name, alg_name, module_from_doc(mdoc, cat.algebras[alg_name]))
    for name, idoc in section("ideals").items():
        alg_name = _algebra_name(idoc, f"ideal {name!r}", cat)
        cat.add_ideal(name, alg_name, ideal_from_doc(idoc, cat.algebras[alg_name]))
    return cat


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".froblab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
