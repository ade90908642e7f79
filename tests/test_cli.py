import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import froblab
from froblab import cli, fileio
from froblab.algebra import FiniteAlgebra, prime_field, truncated_polynomial_algebra
from froblab.cli import main
from froblab.fmodule import RightFModule, _FModule, natural_frobenius_module
from froblab.generators import InstanceCatalog, default_catalog, random_module
from froblab.linalg import FpMatrix

from module_strategies import ALL_ALGEBRAS, broken_documents, direct_sum, modules


def catalog_to_doc(catalog: InstanceCatalog) -> dict:
    """A catalog as the document catalog_from_doc reads; no CLI path writes one."""
    return {
        "algebras": {k: fileio.algebra_to_doc(v) for k, v in catalog.algebras.items()},
        "modules": {
            k: {"algebra": alg, **fileio.module_to_doc(m)}
            for k, (alg, m) in catalog.modules.items()
        },
        "ideals": {
            k: {"algebra": alg, "generators": [g.tolist() for g in i.generators]}
            for k, (alg, i) in catalog.ideals.items()
        },
    }


@pytest.fixture
def fixtures(tmp_path):
    A = truncated_polynomial_algebra(2, 2)
    alg = tmp_path / "alg.json"
    alg.write_text(fileio.dump_json(fileio.algebra_to_doc(A)))
    mod = tmp_path / "mod.json"
    mod.write_text(fileio.dump_json(fileio.module_to_doc(natural_frobenius_module(A))))
    alg3 = tmp_path / "alg3.json"
    alg3.write_text(
        fileio.dump_json(fileio.algebra_to_doc(truncated_polynomial_algebra(2, 3)))
    )
    return tmp_path, str(alg), str(mod), str(alg3)


def test_analyze_natural_module(fixtures, capsys):
    _, alg, mod, _ = fixtures
    assert main(["analyze", alg, mod]) == 0
    out = capsys.readouterr().out
    assert "torsion_exponent: 1" in out
    assert "x_torsion_free: False" in out
    assert "Ideal(0)" in out


def test_analyze_structured_output(fixtures, capsys):
    _, alg, mod, _ = fixtures
    assert main(["analyze", alg, mod, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["side"] == "left"
    assert doc["torsion_exponent"] == 1
    assert doc["graded_annihilator"]["chain"] == [[]]


def test_analyze_right_module(fixtures, capsys, tmp_path):
    _, alg, _, _ = fixtures
    A = truncated_polynomial_algebra(2, 2)
    residue = RightFModule(
        A, [FpMatrix(2, [[1]]), FpMatrix(2, [[0]])], FpMatrix(2, [[1]])
    )
    path = tmp_path / "res.json"
    path.write_text(fileio.dump_json(fileio.module_to_doc(residue)))
    assert main(["analyze", alg, str(path), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["divisibility_exponent"] == 0
    assert doc["x_divisible"] is True


def test_analyze_rejects_invalid_module(fixtures, capsys, tmp_path):
    _, alg, mod, _ = fixtures
    doc = json.loads(Path(mod).read_text())
    doc["X"] = [[0, 1], [1, 0]]  # breaks semilinearity for a left module
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", alg, str(bad)]) == 2
    assert "semilinearity" in capsys.readouterr().err


def test_analyze_rejects_malformed_json(fixtures, tmp_path, capsys):
    _, alg, _, _ = fixtures
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["analyze", alg, str(broken)]) == 2


def test_analyze_rejects_non_list_action(fixtures, capsys, tmp_path):
    _, alg, mod, _ = fixtures
    doc = json.loads(Path(mod).read_text())
    doc["action"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", alg, str(bad)]) == 2
    assert "action" in capsys.readouterr().err


def test_analyze_rejects_non_integer_prime(fixtures, capsys, tmp_path):
    _, alg, mod, _ = fixtures
    doc = json.loads(Path(alg).read_text())
    doc["p"] = [2]
    bad = tmp_path / "bad_alg.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(bad), mod]) == 2
    assert "p: expected an integer" in capsys.readouterr().err


def _set_entry(doc: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "which,path,value,message",
    [
        ("module", ("dim",), 1.7, "dim: expected an integer, got 1.7"),
        ("algebra", ("p",), 2.9, "p: expected an integer, got 2.9"),
        ("module", ("X", 0, 0), 1.6, "X: expected an integer, got 1.6"),
        ("module", ("action", 0, 0, 0), True, "action[0]: expected an integer, got true"),
        ("algebra", ("dim",), True, "dim: expected an integer, got true"),
        ("algebra", ("one", 0), 1.0, "one: expected an integer, got 1.0"),
    ],
    ids=["module_dim_float", "p_float", "matrix_entry_float", "matrix_entry_true",
         "algebra_dim_true", "integral_float"],
)
def test_analyze_refuses_a_number_that_is_not_a_json_integer(
    tmp_path, capsys, which, path, value, message
):
    # over F2 with a dimension-1 module, truncating each of these numbers
    # would give a valid document
    docs = {
        "algebra": fileio.algebra_to_doc(prime_field(2)),
        "module": fileio.module_to_doc(natural_frobenius_module(prime_field(2))),
    }
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    assert main(["analyze", str(paths["algebra"]), str(paths["module"])]) == 0
    capsys.readouterr()
    _set_entry(docs[which], path, value)
    paths[which].write_text(json.dumps(docs[which]))
    assert main(["analyze", str(paths["algebra"]), str(paths["module"])]) == 2
    assert message in capsys.readouterr().err


def test_analyze_missing_file(fixtures):
    _, alg, _, _ = fixtures
    assert main(["analyze", alg, "/nonexistent/path.json"]) == 2


def test_dualize_round_trip(fixtures, capsys, tmp_path):
    tmp, alg, mod, _ = fixtures
    out = tmp / "dual.json"
    assert main(["dualize", alg, mod, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "round_trip_verified: True" in printed
    doc = json.loads(out.read_text())
    assert doc["side"] == "right"
    # dualize the dual: back to a left module
    out2 = tmp / "dual2.json"
    assert main(["dualize", alg, str(out), "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["side"] == "left"


def test_only_data_from_outside_is_validated(fixtures, monkeypatch, tmp_path):
    # every module and algebra the package derives is built trusted: check
    # validates only its hand-built catalog module residue_F2t2 and the 9
    # catalog algebras that are not products, not the products F2xF2 and
    # F2xF4 of validated algebras nor any local factor, and dualize only the
    # module and the algebra it loads
    _, alg, mod, _ = fixtures
    catalog = {A for name, A in default_catalog().algebras.items() if "x" not in name}
    loaded = truncated_polynomial_algebra(2, 2)
    calls, algebras = [], []
    validate, validate_algebra = _FModule.validate, FiniteAlgebra.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    def counting_algebra(self):
        algebras.append(self)
        return validate_algebra(self)

    monkeypatch.setattr(_FModule, "validate", counting)
    monkeypatch.setattr(FiniteAlgebra, "validate", counting_algebra)
    assert main(["check", "--seed", "0", "--out", str(tmp_path / "report.txt")]) == 0
    assert [M.dim for M in calls] == [1]
    assert len(algebras) == len(catalog) == 9
    assert set(algebras) == catalog
    calls.clear()
    algebras.clear()
    assert main(["dualize", alg, mod, "--out", str(tmp_path / "dual.json")]) == 0
    assert len(calls) == 1
    assert algebras == [loaded]


def test_fclosure_regression(fixtures, capsys):
    _, _, _, alg3 = fixtures
    assert main(["fclosure", alg3, "0,0,1"]) == 0
    out = capsys.readouterr().out
    assert "Q: 4" in out
    assert "closure: Ideal(t, t^2)" in out
    assert "c_1: (t^2)" in out  # the chain pauses before growing


def test_fclosure_unit_ideal(fixtures, capsys):
    _, alg, _, _ = fixtures
    assert main(["fclosure", alg, "1,0"]) == 0
    assert "Q: 1" in capsys.readouterr().out


def test_fclosure_zero_ideal_reduced(tmp_path, capsys):
    alg = tmp_path / "f2.json"
    alg.write_text(fileio.dump_json(fileio.algebra_to_doc(prime_field(2))))
    assert main(["fclosure", str(alg)]) == 0
    out = capsys.readouterr().out
    assert "closure: Ideal(0)" in out and "Q: 1" in out


def test_fclosure_refuses_a_prime_far_above_the_limit(tmp_path, capsys):
    # 2^61 - 1 is prime; trial division up to its square root would not return
    alg = tmp_path / "big.json"
    alg.write_text(json.dumps({"p": 2**61 - 1, "dim": 1, "table": [[[1]]], "one": [1]}))
    assert main(["fclosure", str(alg)]) == 2
    assert "exceeds the single-word limit" in capsys.readouterr().err


def test_fclosure_bad_generator(fixtures):
    _, alg, _, _ = fixtures
    assert main(["fclosure", alg, "0,banana"]) == 2


def test_fclosure_generator_beyond_int64_exits_2(fixtures, capsys):
    _, _, _, alg3 = fixtures
    assert main(["fclosure", alg3, "99999999999999999999999,0,0"]) == 2
    assert "beyond the int64 range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,index",
    [
        (["fclosure", "{alg}", "-1,0"], 0),
        (["fclosure", "{alg}", "1,0", "-1,0"], 1),
        (["fclosure", "--format", "structured", "{alg}", "-1,0", "--out", "{out}"], 0),
        (["fclosure", "--out", "{out}", "{alg}", "0,1", "-1,0", "--format", "text"], 1),
        (["fclosure", "{alg}", "--", "-1,0"], 0),
    ],
)
def test_fclosure_generator_starting_with_a_minus_reaches_its_own_message(fixtures, capsys, argv, index):
    # argparse read -1,0 as an unknown option and exited 2 naming no field
    tmp, alg, _, _ = fixtures
    out = tmp / "report.txt"
    assert main([arg.format(alg=alg, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"generators[{index}]: entries must lie in [0, p) for p = 2" in err
    assert "unrecognized arguments" not in err and not out.exists()


def test_fclosure_options_still_parse_around_a_minus_generator(fixtures, capsys):
    tmp, alg, _, _ = fixtures
    out = tmp / "report.json"
    argv = ["fclosure", "--format", "structured", alg, "-0,1", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["closure_generators"] == [[0, 1]]
    assert main(["fclosure", alg, "-1,x"]) == 2
    assert "generator '-1,x' is not a comma-separated integer vector" in capsys.readouterr().err


def test_algebra_entry_beyond_int64_exits_2(fixtures, tmp_path, capsys):
    _, alg, _, _ = fixtures
    doc = json.loads(Path(alg).read_text())
    doc["one"] = [10**23, 0]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    assert main(["fclosure", str(big)]) == 2
    assert "one: an entry exceeds the int64 range" in capsys.readouterr().err


def test_module_entry_beyond_int64_exits_2(fixtures, tmp_path, capsys):
    _, alg, mod, _ = fixtures
    doc = json.loads(Path(mod).read_text())
    doc["X"][0][0] = 10**30
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    assert main(["analyze", alg, str(big)]) == 2
    assert "X: an entry exceeds the int64 range" in capsys.readouterr().err


def test_dim_zero_module_with_matrix_data_exits_2(tmp_path, capsys):
    # a dim-0 module is still parsed: its matrices must be empty
    alg = tmp_path / "f2.json"
    alg.write_text(fileio.dump_json(fileio.algebra_to_doc(prime_field(2))))
    doc = {"side": "left", "dim": 0, "action": [[[1, 5], [7, 3]]], "X": "not a matrix"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(alg), str(bad)]) == 2
    assert "action[0] must be [] when dim is 0" in capsys.readouterr().err
    doc["action"] = [[]]
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(alg), str(bad)]) == 2
    assert "X must be [] when dim is 0" in capsys.readouterr().err
    doc["X"] = []
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(alg), str(bad)]) == 0


F2_DOC = fileio.algebra_to_doc(prime_field(2))


@pytest.mark.parametrize(
    "files,argv,message",
    [
        (
            {"alg": F2_DOC, "mod": {"side": "left", "dim": 1, "action": [[[3]]], "X": [[-1]]}},
            ["analyze", "{alg}", "{mod}"],
            "action[0]: entries must lie in [0, p)",
        ),
        (
            {"cat": {"algebras": {"F2": F2_DOC},
                     "ideals": {"I": {"algebra": "F2", "generators": [[-3]]}}}},
            ["check", "{cat}"],
            "generators[0]: entries must lie in [0, p)",
        ),
        (
            {"alg": fileio.algebra_to_doc(truncated_polynomial_algebra(2, 2))},
            ["fclosure", "{alg}", "5,1"],
            "generators[0]: entries must lie in [0, p)",
        ),
        (
            {"alg": F2_DOC, "mod": {"side": "left", "dim": -1, "action": [[[1]]], "X": [[1]]}},
            ["analyze", "{alg}", "{mod}"],
            "dim must be a non-negative integer, got -1",
        ),
    ],
    ids=["module_entries", "catalog_generator", "fclosure_argument", "negative_dim"],
)
def test_entries_outside_the_field_and_a_negative_dim_exit_2(tmp_path, capsys, files, argv, message):
    # each of the first three was reduced mod p and ran to exit 0; the
    # negative dim was refused as a shape error that named no dim
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    for name, doc in files.items():
        Path(paths[name]).write_text(json.dumps(doc))
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert message in capsys.readouterr().err


def _run(argv: list[str]) -> tuple[int, str]:
    """main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(modules(max_dim=3, pool=ALL_ALGEBRAS), st.data())
def test_a_document_broken_in_one_field_exits_2_naming_it(tmp_path_factory, M, data):
    # one catalog holds the algebra, module and ideal; its pieces are also
    # the algebra file, the module file and the fclosure arguments
    A = M.algebra
    gen = data.draw(st.lists(st.integers(0, A.p - 1), min_size=A.dim, max_size=A.dim))
    doc = {
        "algebras": {"A": fileio.algebra_to_doc(A)},
        "modules": {"M": {"algebra": "A", **fileio.module_to_doc(M)}},
        "ideals": {"I": {"algebra": "A", "generators": [gen]}},
    }
    fileio.catalog_from_doc(doc)
    arrays = [
        ("table", ("algebras", "A", "table")),
        ("one", ("algebras", "A", "one")),
        ("X", ("modules", "M", "X")),
        ("generators[0]", ("ideals", "I", "generators", 0)),
    ]
    arrays += [(f"action[{i}]", ("modules", "M", "action", i)) for i in range(A.dim)]
    dims = [("algebras", "A", "dim"), ("modules", "M", "dim")]
    path, name, broken = data.draw(broken_documents(doc, A.p, arrays, dims))
    files = tmp_path_factory.mktemp("broken")
    alg, mod, cat, out = (str(files / f) for f in ("alg.json", "mod.json", "cat.json", "dual.json"))
    module_doc = {k: v for k, v in broken["modules"]["M"].items() if k != "algebra"}
    for target, piece in ((alg, broken["algebras"]["A"]), (mod, module_doc), (cat, broken)):
        Path(target).write_text(json.dumps(piece))
    runs = [["check", cat]]
    if path[0] != "ideals":
        runs += [["analyze", alg, mod], ["dualize", alg, mod, "--out", out]]
    if path[0] == "algebras":
        runs.append(["fclosure", alg, ",".join(map(str, gen))])
    for argv in runs:
        code, err = _run(argv)
        assert code == 2 and name in err and "Traceback" not in err, (argv, err)
    broken_gen = broken["ideals"]["I"]["generators"][0]
    if path[0] == "ideals" and not any(type(v) is list for v in broken_gen):
        # after --, as argparse reads an argument such as -1,0 as an option
        code, err = _run(["fclosure", alg, "--", ",".join(map(str, broken_gen))])
        assert code == 2 and "generator" in err and "Traceback" not in err, err


def _renamed_section(old: str, new: str) -> dict:
    """The default catalog's document with one section under a misspelt key."""
    doc = catalog_to_doc(default_catalog())
    doc[new] = doc.pop(old)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        [],
        _renamed_section("modules", "module"),
        _renamed_section("ideals", "idealz"),
        {"algebras": {}, "budgets": {"submodules": 256}},
        {"algebras": []},
        {"modules": {"m": 5}},
        {"modules": {"m": {"algebra": ["F2"]}}},
        {
            "algebras": {"F2": fileio.algebra_to_doc(prime_field(2))},
            "ideals": {"i": {"algebra": "F2", "generators": 5}},
        },
    ],
)
def test_check_rejects_malformed_catalog(tmp_path, capsys, doc):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_check_names_an_unknown_catalog_section(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(_renamed_section("modules", "module")))
    assert main(["check", str(path)]) == 2
    assert "unknown sections ['module']" in capsys.readouterr().err


def test_check_default_catalog(capsys):
    assert main(["check", "--budget", "1"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_check_refuses_a_negative_budget(capsys):
    assert main(["check", "--budget", "-3"]) == 2
    captured = capsys.readouterr()
    assert "--budget must be a non-negative instance count, got -3" in captured.err
    assert captured.out == ""


def test_check_empty_catalog(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"algebras": {}, "modules": {}, "ideals": {}}))
    assert main(["check", str(path)]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_check_corrupted_module_exits_2(tmp_path, capsys):
    cat = default_catalog()
    doc = catalog_to_doc(cat)
    doc["modules"]["natural_F2t2"]["X"] = [[0, 1], [1, 0]]
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "semilinearity" in capsys.readouterr().err


def test_check_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["check", "--budget", "1", "--seed", "5", "--format", "structured", "--out", str(out1)]) == 0
    assert main(["check", "--budget", "1", "--seed", "5", "--format", "structured", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of the structured `check` report of the default catalog: any change
# to what `check` computes or prints shows here
GOLDEN_CHECK_DIGESTS = [
    pytest.param(
        ["--seed", "0"],
        "1ed59d27ebb228d4f0dba2ead74c28e34dc14a2450b7b5377e53c4369fab6ee5",
        id="seed0",
    ),
    pytest.param(
        ["--seed", "1", "--budget", "8"],
        "77aa509d212639ad5fec3c32dbaf8966ebe6a8d048e5c8e8906c79b8597bcead",
        id="seed1_budget8",
    ),
    pytest.param(
        ["--seed", "2", "--budget", "8"],
        "8f4beb76299c728f09c2fecd713d1291cec5963ca407df3ad35b61c0668e365a",
        id="seed2_budget8",
    ),
    pytest.param(
        ["--seed", "3", "--budget", "8"],
        "db381f27aa314bfad7ab60d9f255aa28e322ec94adc93dcf03a05632f49a285e",
        id="seed3_budget8",
    ),
]


@pytest.mark.parametrize("args,digest", GOLDEN_CHECK_DIGESTS)
def test_check_report_matches_golden_digest(tmp_path, args, digest):
    out = tmp_path / "report.json"
    assert main(["check", *args, "--format", "structured", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def golden_module(A: FiniteAlgebra, side: str):
    """A module of dim at least 12 with a non-trivial graded annihilator: a
    faithful block with X = 0, then blocks A/a, a != 0, some with X = 0."""
    rng = random.Random(1)
    parts, dim = [], 0
    while dim < 12:
        part = random_module(A, side, A.dim - (dim > 0), rng)
        if part.dim and (dim == 0 or rng.random() < 0.3):
            structure = part.structure.copy()
            structure[-1] = 0
            part = type(part)._from_structure(A, structure)
        if part.dim:
            parts.append(part)
            dim += part.dim
    return direct_sum(parts)


# sha256 of `analyze` in text and structured form and of the file `dualize`
# writes, per module: any change to what they compute or print shows here
GOLDEN_MODULE_DIGESTS = {
    (2, "left"): (
        "5c1386c3dfaa0b7c47e952479bc9905f5b159fc02a9f9bd90e12df90297011b0",
        "9a46d2427f79c3d8b8c133655bc936284a70b14bc8e3f38a9923bc6159bf4810",
        "09738183e03d2312cb9f0120affc3262ca249f2abddbc9bbb4899649107fa734",
    ),
    (2, "right"): (
        "b1621eb284fe61dd546544f643103065b88cdc8421978af6fe32378f5db54532",
        "062b4047b9de964491d550af98bd81fe06806e8348e044e1c0d1fa530d76cc92",
        "8f9394187af8d8a6f93f4080bf4cc3d3d996b3df42ed26c7ff7bfdd0bec97aa3",
    ),
    (3, "left"): (
        "e3dbbde5a805a793778d8f051cbed8af0c16da95654371deffe9928e79911e25",
        "339835635b28cf20802a001f92dadce07cd481bf20312e8614ad56b957f23ab4",
        "9dc2b3363ceb91b96e2567a649f4184ea37c0ddf9dd0e5302cd69acaf818c5eb",
    ),
    (3, "right"): (
        "756ede2d0967ce7dbcf6d887f874d264946d94a5575b130d39ac19182629ba6d",
        "ce9d014df72f48bf84716afea6df6a5585abf078e4791afcf5e0f2b7e1ba7f1a",
        "5a0269f0f851eca4ec6829dc490f94abd0c980eef930af99f288325b8fc9962d",
    ),
    (1048573, "left"): (
        "739973b979d91758b74340e4f2c5f3d39047814542bf9b9081f00e676bfae36b",
        "92675b7c241ade7ebd85320dc45179ad08369b754fcb6299693aa691c1ede9c1",
        "660ae7b99d158666ace4c528138f44d43972c594f0490b5b9f6f8e4b635cc794",
    ),
    (1048573, "right"): (
        "8f176f450ea74c8eb7b69a07c966f16e1c25ebc29d81b1dc0dad483620cda4b4",
        "b3aaf7e256d652d8653a2a055ea8f5ff7ece47c2621e2860e02084f0d9832b54",
        "194f4e56654b3a8bcabf8771042c9f6e43e0cfcc7af6e70fcf9be058869ae361",
    ),
}


@pytest.mark.parametrize("p,side", list(GOLDEN_MODULE_DIGESTS), ids=lambda v: str(v))
def test_analyze_and_dualize_match_golden_digests(tmp_path, p, side):
    A = truncated_polynomial_algebra(p, 3 if p == 2 else 2)
    alg, mod = tmp_path / "alg.json", tmp_path / "mod.json"
    alg.write_text(fileio.dump_json(fileio.algebra_to_doc(A)))
    mod.write_text(fileio.dump_json(fileio.module_to_doc(golden_module(A, side))))
    outs = [tmp_path / name for name in ("analyze.txt", "analyze.json", "dual.json")]
    for fmt, out in zip(("text", "structured"), outs):
        assert main(["analyze", str(alg), str(mod), "--format", fmt, "--out", str(out)]) == 0
    assert main(["dualize", str(alg), str(mod), "--out", str(outs[2])]) == 0
    digests = tuple(hashlib.sha256(out.read_bytes()).hexdigest() for out in outs)
    assert digests == GOLDEN_MODULE_DIGESTS[p, side]


def test_check_exits_1_on_identity_failure(monkeypatch, capsys):
    from froblab import cli
    from froblab.report import Report

    def fake_checks(catalog, seed=0, instances_per_algebra=4):
        report = Report()
        report.add("fake_law", "a law that fails", "instance", False, "payload")
        return report

    monkeypatch.setattr(cli, "run_catalog_checks", fake_checks)
    assert main(["check", "--budget", "1"]) == 1
    assert "fake_law" in capsys.readouterr().out


def test_the_parser_is_built_once_per_process(fixtures, monkeypatch, capsys):
    _, alg, mod, _ = fixtures
    built: list[str] = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["analyze", alg, mod]) == 0
    assert built.count("froblab") == 1
    first = len(built)
    assert main(["analyze", alg, mod]) == 0
    assert len(built) == first


def test_a_command_rebound_after_the_first_call_is_the_one_run(fixtures, monkeypatch, capsys):
    _, alg, mod, _ = fixtures
    assert main(["analyze", alg, mod]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.module) or 0)
    assert main(["analyze", alg, mod]) == 0
    assert seen == [mod]


@pytest.mark.parametrize(
    "argv,usage",
    [(["no-such-command"], "usage: froblab "), (["analyze"], "usage: froblab analyze ")],
)
def test_bad_arguments_exit_2_after_a_successful_call(fixtures, capsys, argv, usage):
    _, alg, mod, _ = fixtures
    assert main(["analyze", alg, mod]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert usage in capsys.readouterr().err
    assert main(["analyze", alg, mod]) == 0


def test_python_dash_m_runs_the_command_line(fixtures):
    _, alg, mod, _ = fixtures
    src = os.path.dirname(os.path.dirname(froblab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "froblab", "analyze", alg, mod],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "torsion_exponent: 1" in done.stdout


def test_probe_question_counts(capsys):
    assert main(["probe-question"]) == 0
    out = capsys.readouterr().out
    assert "experimental data only" in out
    assert "residue_F2t2: 2 distinct graded annihilators" in out


def test_probe_question_zero_module(tmp_path, capsys):
    cat = default_catalog()
    doc = catalog_to_doc(cat)
    doc["modules"] = {
        "zero_right": {
            "algebra": "F2",
            "side": "right",
            "dim": 0,
            "action": [[]],
            "X": [],
        }
    }
    doc["ideals"] = {}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    assert main(["probe-question", str(path)]) == 0
    assert "zero_right: 1 distinct graded annihilators" in capsys.readouterr().out


def test_large_divisible_module_is_checked_and_counted(tmp_path, capsys):
    # 3^12 vectors: far beyond any submodule enumeration, so only the
    # radical-ideal formula can reach this module
    rng = random.Random(12)
    while True:
        X = FpMatrix(3, [[rng.randrange(3) for _ in range(12)] for _ in range(12)])
        if X.is_invertible():
            break
    F3 = prime_field(3)
    cat = InstanceCatalog(algebras={"F3": F3})
    cat.add_module("big_F3", "F3", RightFModule(F3, [FpMatrix.identity(3, 12)], X))
    path = tmp_path / "cat.json"
    path.write_text(fileio.dump_json(catalog_to_doc(cat)))
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--budget", "0", "--format", "structured", "--out", str(out)]) == 0
    laws = {(r["check"], r["instance"]): r["ok"] for r in json.loads(out.read_text())["results"]}
    assert laws[("quotient_submodule_grann_sets", "big_F3")] is True
    assert main(["probe-question", str(path)]) == 0
    # F3 has two radical ideals: the quotient M/0 has annihilator 0, M/M all of R
    assert "big_F3: 2 distinct graded annihilators" in capsys.readouterr().out


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**100), 2**100)
    | st.floats()
    | st.text()
    | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "é", "\u2028", "😀", "\ud800"])
)
json_documents = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.integers(), max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=4), children, max_size=4)
    | st.dictionaries(st.integers(-3, 3), children, max_size=3),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_dump_json_is_the_text_of_json_dumps(doc):
    assert fileio.dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--budget", "1", "--format", "structured", "--out", str(out)]) == 0
    assert out.exists()
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".froblab-")]
    assert leftovers == []


def test_atomic_write_replaces_existing(tmp_path):
    out = tmp_path / "report.txt"
    out.write_text("old contents")
    assert main(["check", "--budget", "1", "--out", str(out)]) == 0
    assert "old contents" not in out.read_text()


def test_catalog_round_trip(tmp_path):
    cat = default_catalog()
    doc = catalog_to_doc(cat)
    path = tmp_path / "cat.json"
    path.write_text(fileio.dump_json(doc))
    loaded = fileio.catalog_from_doc(json.loads(path.read_text()))
    assert set(loaded.algebras) == set(cat.algebras)
    assert set(loaded.modules) == set(cat.modules)
    for name in cat.modules:
        assert loaded.modules[name][1] == cat.modules[name][1]


@pytest.mark.parametrize(
    "section,name,entry,message",
    [
        ("ideals", "I", {"algebra": "F2", "generators": [[-3]]},
         "ideal 'I': generators[0]: entries must lie in [0, p) for p = 2"),
        ("modules", "M", {"algebra": "F2", "side": "left", "dim": 1, "action": [[[3]]], "X": [[1]]},
         "module 'M': action[0]: entries must lie in [0, p) for p = 2"),
        ("modules", "M", {"algebra": "F2", "side": "left", "dim": 1, "action": [[[0]]], "X": [[1]]},
         "module 'M': action is not unital"),
        ("algebras", "A", {**F2_DOC, "one": [2]},
         "algebra 'A': one: entries must lie in [0, p) for p = 2"),
        ("algebras", "A", {**F2_DOC, "p": 4, "one": [1]},
         "algebra 'A': characteristic(4) is not prime"),
    ],
)
def test_catalog_messages_name_the_entry(tmp_path, capsys, section, name, entry, message):
    # the loaders' messages named the field but not the catalog entry
    doc = {"algebras": {"F2": F2_DOC}, section: {name: entry}}
    if section == "algebras":
        doc["algebras"] = {name: entry}
    with pytest.raises(ValueError) as info:
        fileio.catalog_from_doc(doc)
    assert message in str(info.value)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_a_catalog_axiom_error_keeps_its_type():
    from froblab.errors import AxiomError

    doc = {"algebras": {"A": {**F2_DOC, "p": 4, "one": [1]}}}
    with pytest.raises(AxiomError, match=r"^algebra 'A': characteristic\(4\) is not prime$"):
        fileio.catalog_from_doc(doc)


def test_catalog_cross_reference_validation():
    doc = {
        "algebras": {},
        "modules": {"m": {"algebra": "missing", "side": "left", "dim": 0, "action": [], "X": []}},
    }
    with pytest.raises(ValueError, match="unknown algebra"):
        fileio.catalog_from_doc(doc)


def test_module_doc_validation_catches_shape_errors():
    A = truncated_polynomial_algebra(2, 2)
    with pytest.raises(ValueError, match="side"):
        fileio.module_from_doc({"side": "up", "dim": 1, "action": [[[1]], [[0]]], "X": [[1]]}, A)
    with pytest.raises(ValueError, match="action"):
        fileio.module_from_doc({"side": "left", "dim": 1, "action": [[[1]]], "X": [[1]]}, A)


def test_algebra_doc_validation():
    with pytest.raises(ValueError, match="missing"):
        fileio.algebra_from_doc({"p": 2})
    doc = fileio.algebra_to_doc(prime_field(2))
    doc["one"] = [5]
    with pytest.raises(ValueError, match=r"\[0, p\)"):
        fileio.algebra_from_doc(doc)
    doc["one"] = [1]
    doc["labels"] = 5
    with pytest.raises(ValueError, match="labels"):
        fileio.algebra_from_doc(doc)
    with pytest.raises(ValueError, match="JSON object"):
        fileio.algebra_from_doc([2])
    doc = fileio.algebra_to_doc(truncated_polynomial_algebra(2, 2))
    for labels in ([1, 2], ["a", ["b"]]):
        doc["labels"] = labels
        with pytest.raises(ValueError, match="labels must be strings"):
            fileio.algebra_from_doc(doc)
        with pytest.raises(ValueError, match="labels must be strings"):
            FiniteAlgebra(2, doc["table"], doc["one"], labels=labels)


@pytest.mark.parametrize("labels", [[1, 2], ["a", ["b"]]])
@pytest.mark.parametrize("command", ["fclosure", "analyze"])
def test_labels_that_are_not_strings_exit_2(fixtures, tmp_path, capsys, labels, command):
    # both commands render ideals through the labels: (t) is the graded
    # annihilator of the residue field F2 = A/(t), a left module of dim 1
    _, alg, _, _ = fixtures
    doc = json.loads(Path(alg).read_text())
    doc["labels"] = labels
    bad = tmp_path / "labels.json"
    bad.write_text(json.dumps(doc))
    residue = tmp_path / "residue.json"
    residue.write_text(json.dumps({"side": "left", "dim": 1, "action": [[[1]], [[0]]], "X": [[1]]}))
    argv = [command, str(bad), "0,1"] if command == "fclosure" else [command, str(bad), str(residue)]
    assert main(argv) == 2
    assert "labels must be strings" in capsys.readouterr().err
