import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import froblab
from froblab import cli, fileio
from froblab.algebra import prime_field, truncated_polynomial_algebra
from froblab.cli import main
from froblab.fmodule import RightFModule, natural_frobenius_module
from froblab.generators import InstanceCatalog, default_catalog
from froblab.linalg import FpMatrix


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


def _renamed_section(old: str, new: str) -> dict:
    """The default catalog's document with one section under a misspelt key."""
    doc = fileio.catalog_to_doc(default_catalog())
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
    doc = fileio.catalog_to_doc(cat)
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
    doc = fileio.catalog_to_doc(cat)
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
    path.write_text(fileio.dump_json(fileio.catalog_to_doc(cat)))
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--budget", "0", "--format", "structured", "--out", str(out)]) == 0
    laws = {(r["check"], r["instance"]): r["ok"] for r in json.loads(out.read_text())["results"]}
    assert laws[("quotient_submodule_grann_sets", "big_F3")] is True
    assert main(["probe-question", str(path)]) == 0
    # F3 has two radical ideals: the quotient M/0 has annihilator 0, M/M all of R
    assert "big_F3: 2 distinct graded annihilators" in capsys.readouterr().out


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
    doc = fileio.catalog_to_doc(cat)
    path = tmp_path / "cat.json"
    path.write_text(fileio.dump_json(doc))
    loaded = fileio.catalog_from_doc(json.loads(path.read_text()))
    assert set(loaded.algebras) == set(cat.algebras)
    assert set(loaded.modules) == set(cat.modules)
    for name in cat.modules:
        assert loaded.modules[name][1] == cat.modules[name][1]


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
