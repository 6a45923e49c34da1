from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import jsonschema
import pytest

from ladderlab import bound_from_json, parse_word, run_verify
from ladderlab.cli import main
from ladderlab.report import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VIOLATION,
    REPORT_SCHEMA,
    VerificationReport,
)

from conftest import S3_DOC, Z2_DOC, Z3_DOC, many_block_certificate


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, doc in (("z2", Z2_DOC), ("z3", Z3_DOC), ("s3", S3_DOC)):
        p = root / f"{name}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(p)
    return paths


def run(argv):
    return main(argv)


def test_cmd_reduce(spec_files, capsys):
    code = run(["reduce", "f0:1 f1:1 f1:1", "--groups", spec_files["z2"], spec_files["z2"]])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "f0:1"


def test_cmd_reduce_identity(spec_files, capsys):
    code = run(["reduce", "", "--groups", spec_files["z2"], spec_files["z2"]])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "ε"


def test_cmd_reduce_bad_factor(spec_files, capsys):
    code = run(["reduce", "f7:1", "--groups", spec_files["z2"], spec_files["z2"]])
    assert code == EXIT_PARSE
    assert "error" in capsys.readouterr().err


def test_cmd_ball(spec_files, capsys):
    code = run(
        ["ball", "--radius", "2", "--groups", spec_files["z2"], spec_files["z2"], "--json"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 5


def test_cmd_ball_r0(spec_files, capsys):
    code = run(["ball", "--radius", "0", "--groups", spec_files["z2"], spec_files["z2"], "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_cmd_ball_cap_exceeded(spec_files, capsys):
    code = run(
        ["ball", "--radius", "5", "--groups", spec_files["z3"], spec_files["z3"], "--cap", "10"]
    )
    assert code == EXIT_RESOURCE
    assert "cap" in capsys.readouterr().err


def test_cmd_index(spec_files, capsys):
    code = run(
        [
            "index",
            "--word",
            "x1 y1^-1",
            "--radius",
            "1",
            "--groups",
            spec_files["z2"],
            spec_files["z2"],
            "--json",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["index"] == 1
    assert doc["cutoff_hit"] is False


def test_cmd_index_empty_word(spec_files, capsys):
    code = run(
        [
            "index",
            "--word",
            "",
            "--radius",
            "1",
            "--groups",
            spec_files["z2"],
            spec_files["z2"],
            "--json",
        ]
    )
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["index"] == 1


def test_cmd_index_cutoff_hit(spec_files, capsys):
    code = run(
        [
            "index",
            "--word",
            "x1 y1",
            "--radius",
            "1",
            "--cutoff",
            "1",
            "--groups",
            spec_files["z2"],
            spec_files["z2"],
            "--json",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["cutoff_hit"] is True
    assert doc["index"] == 1


def test_cmd_index_cap_is_the_ball_cap(spec_files, capsys):
    # 50 ball members, so 50**4 = 6,250,000 row pairs: above the default
    # --cap of ball members, below the search's own branching cap
    argv = ["index", "--word", "x1 y1 x2 y2", "--radius", "6", "--cutoff", "3",
            "--groups", spec_files["z2"], spec_files["z3"], "--json"]
    assert run(argv) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["index"] == 3
    assert doc["cutoff_hit"] is True
    assert run(argv + ["--cap", "10"]) == EXIT_RESOURCE
    assert "cap" in capsys.readouterr().err


def test_cmd_index_factor_domain(spec_files, capsys):
    code = run(
        [
            "index",
            "--word",
            "x1 y1",
            "--factor",
            "0",
            "--groups",
            spec_files["z3"],
            spec_files["z2"],
            "--json",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["domain"] == "factor:0"
    assert doc["index"] == 1


def test_cmd_index_factor_witness_in_word_coordinates(spec_files, capsys):
    argv = ["index", "--word", "x2 y1", "--factor", "0", "--groups", spec_files["s3"], "--json"]
    assert run(argv) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"]["m"] >= 1
    assert all(len(row) == 2 for row in doc["witness"]["a_rows"])
    assert all(len(row) == 1 for row in doc["witness"]["b_rows"])


def test_cmd_index_rejects_a_cutoff_below_one(spec_files, capsys):
    groups = ["--groups", spec_files["z2"], spec_files["z2"]]
    assert run(["index", "--word", "x1 y1", "--factor", "0", "--cutoff", "-3"] + groups) == EXIT_PARSE
    assert run(["index", "--word", "x1 y1", "--radius", "1", "--cutoff", "0"] + groups) == EXIT_PARSE
    assert "cutoff must be >= 1" in capsys.readouterr().err


def test_cmd_index_too_many_digits_is_a_parse_error(spec_files, capsys):
    argv = ["index", "--word", "x" + "1" * 5000, "--radius", "1", "--groups", spec_files["z2"], spec_files["z2"]]
    assert run(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("(at position 2)\n")


def test_cmd_index_arity_cap_exits_3(spec_files, capsys):
    # one coordinate domain per position would be a billion list entries
    argv = ["index", "--word", "x999999999 y1", "--radius", "1", "--groups", spec_files["z2"], spec_files["z2"]]
    assert run(argv) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err == "error: predicted row cells 3000000000 (arity x rows) exceed cap 10000000\n"


LONG_WORD = " ".join(f"x{i}" for i in range(1, 9200)) + " y1"


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "--radius", "20000", "--groups", "z3", "z3"],
        ["index", "--word", LONG_WORD, "--radius", "1", "--groups", "z2", "z2"],
        ["index", "--word", "x" + "9" * 4300 + " y1", "--radius", "1", "--groups", "z2", "z2"],
    ],
    ids=["ball-size", "branching", "row-cells"],
)
def test_cap_error_with_a_huge_count_exits_3(spec_files, capsys, argv):
    # each count has more digits than str() writes, so it is written ~10^N
    assert run([spec_files.get(a, a) for a in argv]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("error: predicted ") and "~10^" in err and err.count("\n") == 1


def test_trace_cap_exits_3_before_deriving(spec_files, capsys, tmp_path):
    # ell about 18,400 at @2 (677 M refs), and 160 blocks at @1 (56.7 M refs)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(many_block_certificate(160)), encoding="utf-8")
    verify = ["verify", "--word", LONG_WORD, "--radius", "1", "--groups", spec_files["z2"], spec_files["z2"]]
    for argv in (verify, ["check-cert", str(path)]):
        start = time.perf_counter()
        assert run(argv) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: predicted certificate trace of at least ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["bound", "verify"])
def test_high_positions_over_few_rows_are_searched(spec_files, command):
    # rewritten positions reach 15,000, but each block ranges over 2 rows
    argv = [command, "--word", "x5000 y1", "--radius", "2", "--groups", spec_files["z2"], spec_files["z2"]]
    assert run(argv) == EXIT_OK


@pytest.mark.parametrize(
    "doc",
    [
        {"name": "Z257", "kind": "cyclic", "order": 257},
        # refused on the declared order, before the table is read
        {"name": "T257", "kind": "table", "order": 257, "table": []},
        {"name": "S7", "kind": "perm-gens", "generators": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]},
    ],
    ids=lambda doc: doc["name"],
)
def test_factor_order_cap_exits_3(tmp_path, capsys, doc):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert run(["reduce", "", "--groups", str(path), str(path)]) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert "exceeds" in capsys.readouterr().err


def test_cmd_bound_empty_word(spec_files, capsys):
    code = run(
        ["bound", "--word", "", "--radius", "2", "--groups", spec_files["z2"], spec_files["z2"], "--json"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_text"] == "1"
    assert doc["ell"] == 0


def test_cmd_bound_structure(spec_files, capsys):
    code = run(
        ["bound", "--word", "x1 y1", "--radius", "1", "--groups", spec_files["z2"], spec_files["z2"], "--json"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ell"] == 4
    assert doc["format"] == "ladderlab-certificate@2"


def test_cmd_verify_verified(spec_files, capsys):
    code = run(
        [
            "verify",
            "--word",
            "x1 y1 x1^-1 y1^-1",
            "--radius",
            "1",
            "--cutoff",
            "8",
            "--groups",
            spec_files["z2"],
            spec_files["z2"],
            "--json",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "VERIFIED"
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_cmd_verify_z3z2(spec_files, capsys):
    code = run(
        [
            "verify",
            "--word",
            "x1 y1",
            "--radius",
            "1",
            "--groups",
            spec_files["z3"],
            spec_files["z2"],
            "--json",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "VERIFIED"


def test_cmd_verify_forced_violation(spec_files, capsys):
    code = run(
        [
            "verify",
            "--word",
            "x1 y1",
            "--radius",
            "1",
            "--force-bound",
            "0",
            "--groups",
            spec_files["z2"],
            spec_files["z2"],
            "--json",
        ]
    )
    assert code == EXIT_VIOLATION
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "VIOLATION"


def test_cmd_verify_inconclusive(spec_files, capsys):
    # forcing the bound to a reachable value with an even smaller cutoff makes
    # the search stop at the cutoff with the question still open
    code = run(
        [
            "verify",
            "--word",
            "x1 y1",
            "--radius",
            "1",
            "--force-bound",
            "5",
            "--cutoff",
            "1",
            "--groups",
            spec_files["z2"],
            spec_files["z2"],
            "--json",
        ]
    )
    assert code == EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().out)["verdict"] == "CUTOFF_INCONCLUSIVE"


def test_cmd_verify_index_equal_to_bound(spec_files, capsys):
    # the empty word's bound is 1 and its index is 1: the search runs to one
    # past the bound, so the bound is seen to hold, and a bound of 0 is not
    argv = ["verify", "--word", "", "--radius", "1",
            "--groups", spec_files["z2"], spec_files["z2"], "--json"]
    assert run(argv) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["observed_index"], doc["cutoff"]) == ("VERIFIED", 1, 2)
    assert run(argv + ["--force-bound", "0"]) == EXIT_VIOLATION
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["observed_index"], doc["cutoff"]) == ("VIOLATION", 1, 1)


def test_cmd_verify_csv(spec_files, capsys):
    code = run(
        [
            "verify",
            "--word",
            "x1 y1",
            "--radius",
            "1",
            "--groups",
            spec_files["z2"],
            spec_files["z2"],
            "--csv",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("word,radius,groups,bound")
    assert len(lines) == 2


def test_cmd_verify_word_parse_error(spec_files, capsys):
    code = run(
        ["verify", "--word", "x0", "--radius", "1", "--groups", spec_files["z2"], spec_files["z2"]]
    )
    assert code == EXIT_PARSE


def test_cmd_verify_rejects_cutoff_zero(spec_files, capsys):
    code = run(
        [
            "verify",
            "--word",
            "x1 y1",
            "--radius",
            "1",
            "--cutoff",
            "0",
            "--groups",
            spec_files["z2"],
            spec_files["z3"],
        ]
    )
    assert code == EXIT_PARSE
    assert "cutoff must be >= 1" in capsys.readouterr().err


def test_cmd_bound_over_stub_spec(capsys):
    specs = Path(__file__).resolve().parent.parent / "specs"
    code = run(
        [
            "bound",
            "--word",
            "x1 y1",
            "--radius",
            "1",
            "--groups",
            str(specs / "stub.json"),
            str(specs / "z2.json"),
            "--json",
        ]
    )
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ell"] == 4


def test_cmd_verify_ill_typed_generator_exits_2(spec_files, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "perm-gens", "generators": [[0, "a"]]}), encoding="utf-8")
    code = run(["verify", "--word", "x1 y1", "--radius", "1",
                "--groups", str(path), spec_files["z2"]])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: generator [0, 'a'] is not a permutation")
    assert len(err.splitlines()) == 1


def test_cmd_ball_table_rows_not_lists_exits_2(spec_files, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "table", "order": 2, "table": [1, 2]}), encoding="utf-8")
    code = run(["ball", "--radius", "1", "--groups", str(path), spec_files["z2"]])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == "error: 'table' must be a list of rows\n"


def test_cmd_ramsey(capsys):
    assert run(["ramsey", "--colors", "2", "--target", "3"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "6"
    assert run(["ramsey", "--colors", "16", "--target", "50"]) == EXIT_RESOURCE


def test_cmd_ramsey_target_past_float_range(capsys):
    assert run(["ramsey", "--colors", "2", "--target", str(10**400)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: R(2,2,1000")
    assert captured.err.count("\n") == 1
    assert "inf" not in captured.err


def test_cmd_ramsey_past_the_str_digit_limit(capsys):
    # R(2, 7000) has 4,212 digits; R(2, 7200) would pass CPython's 4,300
    assert run(["ramsey", "--colors", "2", "--target", "7000"]) == EXIT_OK
    assert len(capsys.readouterr().out.strip()) == 4212
    assert run(["ramsey", "--colors", "2", "--target", "7200"]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: R(2,2,7200) is ~10^")
    assert captured.err.count("\n") == 1


def test_cmd_bound_deeply_parenthesized_word(spec_files, capsys):
    groups = ["--groups", spec_files["z2"], spec_files["z2"]]
    assert run(["bound", "--word", "x1 y1", "--radius", "1"] + groups) == EXIT_OK
    plain = capsys.readouterr().out
    word = "(" * 1000 + "x1 y1" + ")" * 1000
    assert run(["bound", "--word", word, "--radius", "1"] + groups) == EXIT_OK
    assert capsys.readouterr().out == plain


def test_cmd_verify_bound_nested_past_recursion_limit(spec_files, capsys):
    # at r = 90 the bound nests past the interpreter's recursion limit; the
    # verify path reads saturations and serializes without recursion
    groups = ["--groups", spec_files["z2"], spec_files["z2"]]
    assert run(["verify", "--word", "x1 y1", "--radius", "90"] + groups) == EXIT_OK
    assert "VERIFIED" in capsys.readouterr().out


def test_report_determinism(z2z3):
    w = parse_word("x1 y1")
    r1 = run_verify(z2z3, w, 1)
    r2 = run_verify(z2z3, w, 1)
    assert r1.config_digest == r2.config_digest
    assert r1.witness == r2.witness
    assert r1.bound == r2.bound
    assert r1.verdict == r2.verdict


def test_report_schema_on_inconclusive_and_violation(z2z2):
    w = parse_word("x1 y1")
    inconclusive = run_verify(z2z2, w, 1, cutoff=1)
    violation = run_verify(z2z2, w, 1, force_bound=0)
    assert (inconclusive.verdict, violation.verdict) == ("CUTOFF_INCONCLUSIVE", "VIOLATION")
    for rep in (inconclusive, violation):
        jsonschema.validate(rep.to_json(), REPORT_SCHEMA)


def test_verify_rejects_stub_context():
    from ladderlab import FreeProduct, InfiniteFactor

    stub = {"name": "stub", "kind": "infinite-stub", "supplied_indices": {}}
    context = FreeProduct.from_documents([Z2_DOC, stub])
    with pytest.raises(InfiniteFactor):
        run_verify(context, parse_word("x1 y1"), 1)


def test_cli_index_requires_exactly_one_domain(spec_files, capsys):
    groups = ["--groups", spec_files["z2"], spec_files["z2"]]
    for domain, message in (([], "one of the arguments --radius --factor is required"),
                            (["--radius", "1", "--factor", "0"], "not allowed with argument")):
        with pytest.raises(SystemExit) as exc:
            run(["index", "--word", "x1", *domain, *groups])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_library_and_cli_give_one_config_digest(spec_files, capsys, z2z2):
    report = run_verify(z2z2, parse_word("x1 y1"), 1, cutoff=8)
    argv = ["verify", "--word", "x1 y1", "--radius", "1", "--cutoff", "8", "--json",
            "--groups", spec_files["z2"], spec_files["z2"]]
    assert run(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["config_digest"] == report.config_digest


def test_cmd_verify_rejects_threads(spec_files, capsys):
    # the search is single-threaded and the CLI has no --threads option
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--word", "x1 y1", "--radius", "1", "--threads", "4",
             "--groups", spec_files["z2"], spec_files["z3"]])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cmd_ramsey_json(capsys):
    assert run(["ramsey", "--colors", "3", "--target", "3", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "17"


# -- check-cert ----------------------------------------------------------------

V1_FIXTURE = Path(__file__).parent / "data" / "certificate_v1_z2z2_x1y1_r1.json"
V2_FIXTURE = Path(__file__).parent / "data" / "certificate_v2_z2z2_x1y1_r1.json"


def write_bound(spec_files, capsys, path, word="x1 y1", radius="1"):
    argv = ["bound", "--word", word, "--radius", radius, "--groups", spec_files["z2"], spec_files["z2"], "--json"]
    assert run(argv) == EXIT_OK
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    return json.loads(path.read_text(encoding="utf-8"))


def test_check_cert_accepts_the_v1_fixture(spec_files, capsys):
    assert run(["check-cert", str(V1_FIXTURE)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("valid ladderlab-certificate@1")
    groups = ["--groups", spec_files["z2"], spec_files["z2"], "--json"]
    assert run(["check-cert", str(V1_FIXTURE)] + groups) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["bases_searched"] == 4


def test_check_cert_accepts_an_honest_v2_file(spec_files, capsys, tmp_path):
    path = tmp_path / "cert.json"
    assert write_bound(spec_files, capsys, path, "x1 y1 x1^-1 y1^-1", "2")["format"] == "ladderlab-certificate@2"
    assert run(["check-cert", str(path), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True and doc["error"] is None
    assert run(["check-cert", str(path), "--groups", spec_files["z2"], spec_files["z2"]]) == EXIT_OK


def test_check_cert_rejects_a_forged_file(spec_files, capsys, tmp_path):
    path = tmp_path / "cert.json"
    doc = write_bound(spec_files, capsys, path)
    # claim the smallest exact value in the pool as the bound
    doc["bound"] = next(i for i, node in enumerate(doc["values"]) if node["kind"] == "exact")
    doc["bound_text"] = doc["values"][doc["bound"]]["value"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check-cert", str(path)]) == EXIT_PARSE
    out = capsys.readouterr().out
    assert out.startswith("invalid ladderlab-certificate@2 certificate: the bound is not")


def test_check_cert_searches_base_indices_only_with_groups(spec_files, capsys, tmp_path, z2z2):
    from ladderlab import base_indices, block_decompose, change_of_variables, lemma_bound

    # one base index changed at the source, so the trace stays consistent
    word = parse_word("x1 y1")
    decomp = block_decompose(change_of_variables(word, 1, 2))
    indices = list(base_indices(decomp, z2z2.factors))
    indices[0] = (indices[0][0] + 1, indices[0][1])
    cert = lemma_bound(decomp, indices, 2, word_text="x1 y1", radius=1)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert.to_json()), encoding="utf-8")
    assert run(["check-cert", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert run(["check-cert", str(path), "--groups", spec_files["z2"], spec_files["z2"]]) == EXIT_PARSE
    assert "range (0, 0) records indices (2, 2); the search gives (1, 2)" in capsys.readouterr().out


def test_check_cert_groups_resource_cap_exits_3(spec_files, capsys, tmp_path, z2z2):
    from ladderlab import block_decompose, change_of_variables, lemma_bound

    # a consistent certificate whose base blocks are too wide to search again
    word = "x999999999 y1"
    decomp = block_decompose(change_of_variables(parse_word(word), 1, 2))
    cert = lemma_bound(decomp, [(1, 1)] * decomp.ell, 2, word_text=word, radius=1)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert.to_json()), encoding="utf-8")
    assert run(["check-cert", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert run(["check-cert", str(path), "--groups", spec_files["z2"], spec_files["z2"]]) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error: predicted row cells ")


def test_check_cert_malformed_files_exit_2(capsys, tmp_path):
    doc = json.loads(V1_FIXTURE.read_text(encoding="utf-8"))
    for mutate in (lambda d: d.update(format="ladderlab-certificate@0"), lambda d: d.pop("ranges")):
        broken = json.loads(json.dumps(doc))
        mutate(broken)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        assert run(["check-cert", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")
    path.write_text("{", encoding="utf-8")
    assert run(["check-cert", str(path)]) == EXIT_PARSE
    assert run(["check-cert", str(tmp_path / "absent.json")]) == EXIT_PARSE


# each edit of the fixture's pool reads as the same number with int(), but is
# not what BoundPool writes: value 5 is R(64, 2, .), value 0 is exact 2
POOL_EDITS = [(5, "colors", 64.5), (5, "colors", True), (5, "colors", "64"),
              (0, "value", " +2"), (0, "value", 2), (0, "value", "02")]


@pytest.mark.parametrize("vid, key, edited", POOL_EDITS)
def test_check_cert_reads_the_pool_strictly(spec_files, capsys, tmp_path, vid, key, edited):
    from ladderlab import BoundCertificate

    doc = json.loads(V2_FIXTURE.read_text(encoding="utf-8"))
    doc["values"][vid][key] = edited
    with pytest.raises(ValueError, match=f"^value {vid} "):
        BoundCertificate.from_json(doc)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check-cert", str(path), "--groups", spec_files["z2"], spec_files["z2"]]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: value {vid} ")


# a bound_text that does not render the bound, and a coloring with other
# cases per block: the rule walk reads neither, so from_json checks both
HEADER_EDITS = [("bound_text", "1"),
                ("coloring", {"cases_per_block": 2, "rule": "product over block coordinates"})]


@pytest.mark.parametrize("key, edited", HEADER_EDITS)
def test_check_cert_rejects_a_forged_bound_text_or_coloring(spec_files, capsys, tmp_path, key, edited):
    from ladderlab import BoundCertificate

    path = tmp_path / "cert.json"
    doc = write_bound(spec_files, capsys, path)
    BoundCertificate.from_json(doc)
    doc[key] = edited
    with pytest.raises(ValueError, match=f"^certificate field '{key}' "):
        BoundCertificate.from_json(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    for groups in ([], ["--groups", spec_files["z2"], spec_files["z2"]]):
        assert run(["check-cert", str(path)] + groups) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: certificate field '{key}' ")


def test_check_cert_compares_lengths_before_building_the_template(capsys, tmp_path):
    from ladderlab import BoundCertificate, check_certificate

    # an honest certificate whose header claims 3,000,000 factors: the
    # template would have 3,000,000 slots per variable
    doc = json.loads(V2_FIXTURE.read_text(encoding="utf-8"))
    doc["num_factors"] = 3_000_000
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not the word's change of variables"):
        check_certificate(BoundCertificate.from_json(doc))
    assert time.perf_counter() - start < 2.0
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check-cert", str(path)]) == EXIT_PARSE
    assert "not the word's change of variables" in capsys.readouterr().out


@pytest.mark.parametrize("edit", ["null", "delete"])
@pytest.mark.parametrize("key", ["radius", "num_factors"])
def test_check_cert_rejects_a_word_without_radius_or_factors(capsys, tmp_path, key, edit):
    # without both fields the word cannot be rewritten and compared, so only
    # the empty word, which lemma_bound records, is accepted
    doc = json.loads(V2_FIXTURE.read_text(encoding="utf-8"))
    if edit == "null":
        doc[key] = None
    else:
        del doc[key]
    path = tmp_path / "cert.json"
    for word, code in (("y1 x1 x1 y1 y2", EXIT_PARSE), (doc["word"], EXIT_PARSE), ("", EXIT_OK)):
        doc["word"] = word
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["check-cert", str(path)]) == code, word
        out = capsys.readouterr().out
        if code == EXIT_PARSE:
            assert out.startswith("invalid ladderlab-certificate@2 certificate: the word field: ")


def deep_certificate(levels=2000) -> dict:
    """The fixture with its bound replaced by BSucc(BRamsey(5, .)) nested
    ``levels`` times over the true bound."""
    doc = json.loads(V1_FIXTURE.read_text(encoding="utf-8"))
    values, top = doc["values"], doc["bound"]
    for _ in range(levels):
        values.append({"kind": "ramsey", "colors": 5, "target": top})
        values.append({"kind": "succ", "of": len(values) - 1})
        top = len(values) - 1
    doc["bound"] = top
    doc["bound_text"] = bound_from_json({"values": values, "root": top}).render()
    return doc


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_check_cert_deep_bound_exits_cleanly(capsys, tmp_path, fmt):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(deep_certificate()), encoding="utf-8")
    assert run(["check-cert", str(path)] + fmt) in (EXIT_PARSE, EXIT_RESOURCE)
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert "Traceback" not in text
    if not fmt:
        assert len(text.strip().splitlines()) == 1


def test_recursion_error_maps_to_exit_3(capsys, tmp_path):
    # a JSON file nested past the decoder's limit, as a certificate or as a
    # group spec, is the one input that still raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for argv in (["check-cert", str(path)],
                 ["verify", "--word", "x1 y1", "--radius", "1", "--groups", str(path), str(path)]):
        assert run(argv) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a JSON file is nested too deeply to read\n"


def test_deep_bounds_compare_without_recursion():
    # the comparisons walk an explicit stack: the 5,000-level chains and the
    # 2,000-level deep certificate answer under the default recursion limit
    from ladderlab import BoundCertificate
    from ladderlab.ramsey import BExact, BMax, BRamsey, BSucc, bv_exact, bv_ramsey, bv_succ, is_ge_int, le_bound, upper_int

    alternating, value = BRamsey(2, BExact(3)), 6
    for i in range(5000):
        if i % 2:
            alternating, value = BMax((alternating, BExact(i))), max(value, i)
        else:
            alternating, value = BSucc(alternating), value + 1
    successors = bv_ramsey(64, bv_exact(10**30))
    for _ in range(5000):
        successors = BSucc(successors)
    true_bound = BoundCertificate.from_json(json.loads(V1_FIXTURE.read_text(encoding="utf-8"))).bound
    deep = BoundCertificate.from_json(deep_certificate()).bound
    above = bv_succ(true_bound)
    for _ in range(2000):
        above = BSucc(BRamsey(5, above))
    assert upper_int(alternating) == value
    assert is_ge_int(alternating, 10**30) is None
    assert le_bound(alternating, bv_succ(alternating)) is True
    assert le_bound(bv_succ(alternating), alternating) is False
    assert upper_int(successors) is None
    assert is_ge_int(successors, 10**30 + 5000) is True
    assert le_bound(successors, bv_succ(successors)) is True
    assert le_bound(bv_succ(successors), successors) is None
    assert le_bound(alternating, successors) is True
    assert upper_int(deep) is None
    assert is_ge_int(deep, 10**30) is True
    assert le_bound(deep, above) is True
    assert le_bound(deep, bv_succ(deep)) is True


def test_cap_only_on_commands_that_build_a_ball(spec_files, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["ramsey", "--colors", "2", "--target", "3", "--cap", "5"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err
    groups = ["--groups", spec_files["z2"], spec_files["z2"]]
    for argv in (["reduce", "f0:1"], ["bound", "--word", "x1 y1", "--radius", "1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + groups + ["--cap", "5"])
        assert exc.value.code == 2
    capsys.readouterr()
    assert run(["ball", "--radius", "1", "--cap", "5"] + groups) == EXIT_OK


HUMAN_AND_CSV = [
    (
        ["bound", "--word", "x1 y1", "--radius", "1"],
        "bound R(256,2,(max((R(64,2,56874039553220) + 1), R(64,2,56874039553220)) + 1))\n"
        "rewritten word: x1@0 x2@1 y1@0 y2@1\n"
        "blocks (ell): 4\n",
    ),
    (
        ["bound", "--word", "x1 y1", "--radius", "1", "--csv"],
        "word,radius,ell,bound\r\n"
        'x1 y1,1,4,"R(256,2,(max((R(64,2,56874039553220) + 1), R(64,2,56874039553220)) + 1))"\r\n',
    ),
    (
        ["verify", "--word", "x1 y1", "--radius", "1"],
        "word            x1 y1\n"
        "groups          Z2 * Z2\n"
        "radius          1\n"
        "bound           R(256,2,(max((R(64,2,56874039553220) + 1), R(64,2,56874039553220)) + 1))\n"
        "observed index  1\n"
        "cutoff          8 (hit: false)\n"
        "verdict         VERIFIED\n"
        "config digest   3eed8a16131eead366e766d4c9a03fb11a907a664236f24499a1290523e3ee29\n",
    ),
    (
        ["verify", "--word", "x1 y1", "--radius", "1", "--csv"],
        "word,radius,groups,bound,observed_index,cutoff,cutoff_hit,verdict,config_digest\r\n"
        'x1 y1,1,Z2*Z2,"R(256,2,(max((R(64,2,56874039553220) + 1), R(64,2,56874039553220)) + 1))",'
        "1,8,false,VERIFIED,3eed8a16131eead366e766d4c9a03fb11a907a664236f24499a1290523e3ee29\r\n",
    ),
]


@pytest.mark.parametrize(
    "argv, expected", HUMAN_AND_CSV, ids=["bound", "bound-csv", "verify", "verify-csv"]
)
def test_human_and_csv_output_build_no_json(spec_files, capsys, monkeypatch, argv, expected):
    """``bound`` and ``verify`` build their JSON document only under
    ``--json``; the human and CSV text is pinned byte for byte."""
    from ladderlab import BoundCertificate

    def refuse(self):
        raise AssertionError("to_json called without --json")

    monkeypatch.setattr(BoundCertificate, "to_json", refuse)
    monkeypatch.setattr(VerificationReport, "to_json", refuse)
    assert run(argv + ["--groups", spec_files["z2"], spec_files["z2"]]) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_cmd_bound_over_boolean_stub_indices_exits_2(capsys, tmp_path):
    """A stub whose supplied indices are JSON booleans is refused at load, so
    ``bound`` cannot write a certificate that ``check-cert`` rejects."""
    specs = Path(__file__).resolve().parent.parent / "specs"
    stub = json.loads((specs / "stub.json").read_text(encoding="utf-8"))
    stub["supplied_indices"] = {shape: True for shape in stub["supplied_indices"]}
    path = tmp_path / "stub.json"
    path.write_text(json.dumps(stub), encoding="utf-8")
    code = run(["bound", "--word", "x1 y1", "--radius", "1",
                "--groups", str(specs / "z2.json"), str(path), "--json"])
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: supplied index 'x1 = 1': True must map a string shape to a natural\n"


def test_report_schema_names_the_report_fields(z2z2):
    """The schema's properties are exactly the report's fields and the keys
    of its JSON, and every required name is one of them."""
    properties = set(REPORT_SCHEMA["properties"])
    doc = run_verify(z2z2, parse_word("x1 y1"), 1).to_json()
    assert properties == {f.name for f in dataclasses.fields(VerificationReport)} == set(doc)
    assert set(REPORT_SCHEMA["required"]) <= properties
