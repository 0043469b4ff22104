"""CLI subcommands: outputs, exit codes, and JSON schema conformance."""

import json
from importlib import resources

import pytest

from nlacs import corpus
from nlacs.cli import main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name in corpus.names():
        (root / f"{name}.nla").write_text(corpus.text(name), encoding="utf-8")
    return root


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestCoreCommands:
    def test_series(self, corpus_dir, capsys):
        code, out = run(capsys, "series", str(corpus_dir / "ex2_6.nla"))
        assert code == 0 and "(2, 6, 10)" in out

    def test_jseries(self, corpus_dir, capsys):
        code, out = run(capsys, "jseries", str(corpus_dir / "ex2_5.nla"),
                        "--j", "J")
        assert code == 0
        assert "weakly non-nilpotent" in out
        assert "span{e7, e8}" in out

    def test_check_good_and_bad(self, corpus_dir, tmp_path, capsys):
        code, _ = run(capsys, "check", str(corpus_dir / "ex2_5.nla"))
        assert code == 0
        bad = tmp_path / "bad.nla"
        bad.write_text("dim 3\n[1,2] = 3\n[1,3] = 1\n")
        code, out = run(capsys, "check", str(bad))
        assert code == 1 and "Jacobi" in out

    def test_nijenhuis_negative(self, corpus_dir, tmp_path, capsys):
        text = corpus.text("ex2_5") + "J(bad) 1 = 3\nJ(bad) 2 = 4\nJ(bad) 5 = 6\nJ(bad) 7 = 8\n"
        f = tmp_path / "ex2_5_bad.nla"
        f.write_text(text)
        code, out = run(capsys, "nijenhuis", str(f), "--j", "bad")
        assert code == 1 and "Nijenhuis" in out
        code, _ = run(capsys, "nijenhuis", str(f), "--j", "J")
        assert code == 0

    def test_quotient(self, corpus_dir, capsys):
        code, out = run(capsys, "quotient", str(corpus_dir / "ex3_17.nla"),
                        "--ideal", "7;8")
        assert code == 0
        assert "[1,2] = 3" in out and "[2,3] = 6" in out

    def test_quotient_not_an_ideal(self, corpus_dir, capsys):
        code, out = run(capsys, "quotient", str(corpus_dir / "ex2_5.nla"),
                        "--ideal", "3")
        assert code == 1 and "not an ideal" in out

    def test_product(self, corpus_dir, capsys):
        code, out = run(capsys, "product", str(corpus_dir / "h3.nla"),
                        str(corpus_dir / "abelian4.nla"))
        assert code == 0 and "dim 7" in out

    def test_product_with_corpus_second_file(self, corpus_dir, capsys):
        code, out = run(capsys, "product", str(corpus_dir / "h3.nla"),
                        "corpus:abelian4")
        assert code == 0 and "dim 7" in out
        code, out = run(capsys, "product", "corpus:h3", "corpus:h3")
        assert code == 0 and "dim 6" in out and "[4,5] = 6" in out

    def test_obstruct_exit_codes(self, corpus_dir, capsys):
        code, out = run(capsys, "obstruct", str(corpus_dir / "filiform8.nla"))
        assert code == 1 and "filiform" in out
        code, _ = run(capsys, "obstruct", str(corpus_dir / "abelian8.nla"))
        assert code == 0

    def test_audit(self, corpus_dir, capsys):
        code, out = run(capsys, "audit", str(corpus_dir / "ex2_6.nla"))
        assert code == 0 and "0 failure(s)" in out

    def test_ceq_with_explicit_pairing(self, corpus_dir, capsys):
        code, out = run(capsys, "ceq", str(corpus_dir / "g2dim5_158.nla"),
                        "--pairing", "1,2;3,4;5,6;7,8")
        assert code == 0 and out.startswith("dw1 = 0")

    def test_ceq_auto_adapts_frame(self, corpus_dir, capsys):
        code, out = run(capsys, "ceq", str(corpus_dir / "ex3_18.nla"))
        assert code == 0

    def test_ceq_prefers_default_dim8_ordering(self, tmp_path, capsys):
        f = tmp_path / "ordered.nla"
        f.write_text("dim 8\nJ 4 = 8\nJ 3 = 7\nJ 2 = 6\nJ 1 = 5\n")
        code, obj = run_json(capsys, "ceq", str(f))
        assert code == 0
        assert obj["pairing"] == [[4, 8], [3, 7], [2, 6], [1, 5]]

    def test_roundtrip(self, corpus_dir, capsys):
        for name in ("ex2_5", "heis3xR3", "g2dim3_138"):
            code, out = run(capsys, "roundtrip", str(corpus_dir / f"{name}.nla"))
            assert code == 0 and "stable" in out

    def test_corpus_scheme(self, capsys):
        code, out = run(capsys, "series", "corpus:ex2_5")
        assert code == 0 and "(3, 5, 8)" in out


class TestFamilyCommand:
    def test_valid_instance(self, capsys):
        code, out = run(capsys, "family", "G2dim5", "--set", "E=1/2",
                        "--set", "N=1/2i", "--set", "s=1/2")
        assert code == 0
        assert "case check passed" in out
        assert "(1, 5, 8)" in out

    def test_jacobi_violation(self, capsys):
        code, out = run(capsys, "family", "G2dim5", "--set", "E=1/2",
                        "--set", "N=1/2")
        assert code == 1 and "Jacobi" in out

    def test_foreign_parameter(self, capsys):
        code, out = run(capsys, "family", "G2dim4", "--set", "B=1")
        assert code == 2

    def test_no_check(self, capsys):
        code, out = run(capsys, "family", "G2dim3", "--set", "K=1",
                        "--no-check")
        assert code == 0 and "w2^-2" in out


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, "series", "/nonexistent/file.nla")
        assert code == 2

    def test_parse_error(self, tmp_path, capsys):
        f = tmp_path / "broken.nla"
        f.write_text("dim 3\n[1,2 = 3\n")
        code, out = run(capsys, "series", str(f))
        assert code == 2 and "line 2" in out

    def test_non_utf8_input(self, tmp_path, capsys):
        f = tmp_path / "binary.nla"
        f.write_bytes(b"dim 3\n\xff\xfe[1,2] = 3\n")
        code, _ = run(capsys, "series", str(f))
        assert code == 2

    def test_unknown_structure(self, corpus_dir, capsys):
        code, _ = run(capsys, "jseries", str(corpus_dir / "ex3_17.nla"),
                      "--j", "J")
        assert code == 2

    def test_bad_pairing_is_input_error(self, corpus_dir, capsys):
        code, _ = run(capsys, "ceq", str(corpus_dir / "g2dim5_158.nla"),
                      "--pairing", "1,3;2,4;5,6;7,8")
        assert code == 2

    def test_dim_above_limit_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "huge.nla"
        f.write_text("dim 3000\n")
        for cmd in ("check", "series"):
            code, out = run(capsys, cmd, str(f))
            assert code == 2 and "line 1, col 1" in out and "256" in out


class TestBatchMode:
    def test_check_all(self, corpus_dir, capsys):
        code, out = run(capsys, "check", str(corpus_dir / "h3.nla"),
                        "--all", str(corpus_dir))
        assert code == 0
        assert len(out.strip().splitlines()) == len(corpus.names())

    def test_check_all_needs_no_file(self, corpus_dir, capsys):
        for fmt in ("text", "json"):
            with_file = run(capsys, "check", "corpus:h3", "--all",
                            str(corpus_dir), "--format", fmt)
            without = run(capsys, "check", "--all", str(corpus_dir),
                          "--format", fmt)
            assert without == with_file and without[0] == 0

    def test_check_without_file_or_all_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "FILE or --all DIR" in captured.err


@pytest.fixture(scope="module")
def schema():
    import jsonschema

    text = (resources.files("nlacs") / "report-schema.json").read_text()
    return json.loads(text), jsonschema


class TestJsonReports:
    def test_schema_valid_for_corpus(self, corpus_dir, capsys, schema):
        schema_obj, jsonschema = schema
        for name in corpus.names():
            path = str(corpus_dir / f"{name}.nla")
            doc = corpus.load(name)
            commands = [("check", []), ("series", []), ("obstruct", []),
                        ("roundtrip", [])]
            for sname in doc.structure_names():
                commands += [("jseries", ["--j", sname]),
                             ("nijenhuis", ["--j", sname]),
                             ("audit", ["--j", sname]),
                             ("ceq", ["--j", sname])]
            for cmd, extra in commands:
                code, obj = run_json(capsys, cmd, path, *extra)
                assert code in (0, 1), (name, cmd)
                jsonschema.validate(obj, schema_obj)

    def test_schema_valid_for_family_and_errors(self, capsys, schema,
                                                corpus_dir):
        schema_obj, jsonschema = schema
        code, obj = run_json(capsys, "family", "G2dim5", "--set", "E=1/2",
                             "--set", "N=1/2i", "--set", "s=1/2")
        assert code == 0
        jsonschema.validate(obj, schema_obj)
        code, obj = run_json(capsys, "quotient", str(corpus_dir / "ex3_17.nla"),
                             "--ideal", "7;8")
        assert code == 0
        jsonschema.validate(obj, schema_obj)
        code, obj = run_json(capsys, "series", "/nonexistent.nla")
        assert code == 2
        jsonschema.validate(obj, schema_obj)
        code, obj = run_json(capsys, "product", str(corpus_dir / "h3.nla"),
                             str(corpus_dir / "abelian4.nla"))
        assert code == 0
        jsonschema.validate(obj, schema_obj)
        code, obj = run_json(capsys, "check", str(corpus_dir / "h3.nla"),
                             "--all", str(corpus_dir))
        assert code == 0
        jsonschema.validate(obj, schema_obj)

    def test_series_payload_stable(self, corpus_dir, capsys):
        _, obj = run_json(capsys, "series", str(corpus_dir / "ex2_5.nla"))
        assert obj["ascending_type"] == [3, 5, 8]
        assert obj["step"] == 3
        assert obj["terms"][0]["dim"] == 3
