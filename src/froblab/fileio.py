"""Flat-file formats for algebras, modules, ideals, and catalogs.

Everything is JSON with integers already reduced into [0, p); every number
must be a JSON integer, so 2.0, 1.7 or true is refused rather than rounded.
Files hold one object each and are meant to be hand-editable fixtures.
Writes go through a temp file and an atomic rename so failed runs never
leave partial output.
"""
from __future__ import annotations

import itertools
import json
import os
import tempfile

import numpy as np

from .algebra import FiniteAlgebra, Ideal
from .fmodule import LeftFModule, RightFModule, _FModule
from .generators import InstanceCatalog
from .linalg import FpMatrix


def _entries(data, depth: int):
    """The entries of nested lists that are depth deep, in order."""
    entries = [data]
    for _ in range(depth):
        entries = itertools.chain.from_iterable(entries)
    return entries


def _int_array(data, what: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"{what}: an entry exceeds the int64 range") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: expected nested integer lists") from exc
    # the conversion truncates floats and reads true as 1 and "5" as 5, so
    # the entries themselves must be ints
    if set(map(type, _entries(data, arr.ndim))) - {int}:
        for value in _entries(data, arr.ndim):
            _as_int(value, what)
    return arr


def _int_grid(data, depth: int, what: str):
    arr = _int_array(data, what)
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
    if type(value) is not int:
        raise ValueError(f"{what}: expected an integer, got {json.dumps(value, default=repr)}")
    return value


def algebra_from_doc(doc: dict) -> FiniteAlgebra:
    _require_keys(doc, ("p", "dim", "table", "one"), "algebra")
    p = _as_int(doc["p"], "p")
    dim = _as_int(doc["dim"], "dim")
    table = _int_grid(doc["table"], 3, "table")
    one = _int_grid(doc["one"], 1, "one")
    if table.shape != (dim,) * 3:
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
        "action": module.structure[:-1].tolist(),
        "X": module.structure[-1].tolist(),
    }


def _square_matrix(data, n: int, what: str) -> np.ndarray:
    if n == 0:
        if data != []:
            raise ValueError(f"{what} must be [] when dim is 0")
        return np.zeros((0, 0), dtype=np.int64)
    arr = _int_array(data, what)
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


def ideal_from_doc(doc: dict, algebra: FiniteAlgebra) -> Ideal:
    gens = doc.get("generators", [])
    if not isinstance(gens, list):
        raise ValueError("generators must be a list")
    return algebra.ideal([_int_grid(g, 1, "generator") for g in gens])


def _algebra_name(entry, what: str, cat: InstanceCatalog) -> str:
    alg_name = _object(entry, what).get("algebra")
    if not isinstance(alg_name, str) or alg_name not in cat.algebras:
        raise ValueError(f"{what} references unknown algebra {alg_name!r}")
    return alg_name


def catalog_from_doc(doc: dict) -> InstanceCatalog:
    unknown = set(_object(doc, "catalog document")) - {"algebras", "modules", "ideals"}
    if unknown:
        raise ValueError(f"catalog has unknown sections {sorted(unknown)}")

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


_encode_str = json.encoder.encode_basestring_ascii


def _render(value, pad: str, out: list[str]) -> None:
    """Append the text json.dumps(value, indent=2, sort_keys=True) gives,
    nested pad deep.  Dicts with str keys, lists, ints, bools, None and str
    are written here; any other value is handed to json.dumps, whose lines
    take the pad, as its strings hold no raw newline."""
    kind = type(value)
    if value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is str:
        out.append(_encode_str(value))
    elif kind is list and value and all(type(item) is int for item in value):
        # a matrix row, the bulk of every module file: one join
        inner = "\n" + pad + "  "
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + "\n" + pad + "]")
    elif kind is list or (kind is dict and all(type(key) is str for key in value)):
        if not value:
            out.append("[]" if kind is list else "{}")
            return
        inner = pad + "  "
        separator = "\n" + inner
        out.append("[" if kind is list else "{")
        for item in value if kind is list else sorted(value):
            out.append(separator)
            if kind is dict:
                out.append(_encode_str(item) + ": ")
                item = value[item]
            _render(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + pad + ("]" if kind is list else "}"))
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad))


def dump_json(doc: dict) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=True) and a newline,
    byte for byte, without the pure-Python encoder that indent selects."""
    out: list[str] = []
    _render(doc, "", out)
    out.append("\n")
    return "".join(out)


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
