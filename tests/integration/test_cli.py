"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main

SCHEMA = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""

DATA = """
o1 = [paper -> o2];
o2 = [title -> o3, author -> o4];
o3 = "T"; o4 = [name -> o5]; o5 = "Ann"
"""

QUERY = "SELECT X WHERE Root = [paper -> X]"


@pytest.fixture
def files(tmp_path):
    schema = tmp_path / "schema.scmdl"
    schema.write_text(SCHEMA)
    data = tmp_path / "data.oem"
    data.write_text(DATA)
    query = tmp_path / "query.q"
    query.write_text(QUERY)
    return {"schema": str(schema), "data": str(data), "query": str(query), "dir": tmp_path}


class TestCli:
    def test_validate_ok(self, files, capsys):
        code = main(["validate", "--schema", files["schema"], "--data", files["data"]])
        assert code == 0
        assert "VALID" in capsys.readouterr().out

    def test_validate_verbose(self, files, capsys):
        main(
            [
                "validate",
                "--schema",
                files["schema"],
                "--data",
                files["data"],
                "--verbose",
            ]
        )
        out = capsys.readouterr().out
        assert "o2: PAPER" in out

    def test_validate_invalid(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.oem"
        bad.write_text('o1 = [unknown -> o2]; o2 = "x"')
        code = main(["validate", "--schema", files["schema"], "--data", str(bad)])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_satisfiable(self, files, capsys):
        code = main(["satisfiable", "--schema", files["schema"], files["query"]])
        assert code == 0
        assert "SATISFIABLE" in capsys.readouterr().out

    def test_unsatisfiable(self, files, tmp_path, capsys):
        query = tmp_path / "bad.q"
        query.write_text("SELECT X WHERE Root = [nothing -> X]")
        code = main(["satisfiable", "--schema", files["schema"], str(query)])
        assert code == 1

    def test_check(self, files, capsys):
        code = main(
            ["check", "--schema", files["schema"], files["query"], "X=PAPER"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out
        code = main(
            ["check", "--schema", files["schema"], files["query"], "X=NAME"]
        )
        assert code == 1

    def test_infer(self, files, capsys):
        code = main(["infer", "--schema", files["schema"], files["query"]])
        assert code == 0
        assert "X=PAPER" in capsys.readouterr().out

    def test_infer_json(self, files, capsys):
        code = main(["infer", "--schema", files["schema"], files["query"], "--json"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["ok"] is True
        assert parsed["command"] == "infer"
        assert parsed["result"]["assignments"] == [{"X": "PAPER"}]
        assert parsed["result"]["count"] == 1
        assert parsed["meta"]["exit_code"] == 0

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["validate", "--data"], "valid"),
            (["satisfiable"], "satisfiable"),
            (["classify"], "schema_row"),
        ],
    )
    def test_json_envelope_everywhere(self, files, capsys, argv, key):
        """Every command's --json output is the shared service envelope."""
        command = argv[0]
        full = [command, "--schema", files["schema"], "--json"]
        if argv[-1] == "--data":
            full += ["--data", files["data"]]
        else:
            full.append(files["query"])
        code = main(full)
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["ok"] is True
        assert parsed["command"] == command
        assert key in parsed["result"]

    def test_json_negative_answer_exit_code(self, files, tmp_path, capsys):
        query = tmp_path / "bad.q"
        query.write_text("SELECT X WHERE Root = [nothing -> X]")
        code = main(
            ["satisfiable", "--schema", files["schema"], str(query), "--json"]
        )
        assert code == 1
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["ok"] is True
        assert parsed["result"]["satisfiable"] is False
        assert parsed["meta"]["exit_code"] == 1

    def test_json_parse_error_envelope(self, files, tmp_path, capsys):
        broken = tmp_path / "broken.q"
        broken.write_text("SELECT WHERE = [")
        code = main(
            ["satisfiable", "--schema", files["schema"], str(broken), "--json"]
        )
        assert code == 2
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["ok"] is False
        assert parsed["error"]["code"] == "parse-error"
        assert parsed["meta"]["exit_code"] == 2

    def test_missing_file_is_usage_error(self, files, capsys):
        code = main(
            ["satisfiable", "--schema", "/nonexistent.scmdl", files["query"]]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_feedback(self, files, tmp_path, capsys):
        query = tmp_path / "sloppy.q"
        query.write_text("SELECT X WHERE Root = [(_*).name -> X]")
        code = main(["feedback", "--schema", files["schema"], str(query)])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper.author.name" in out

    def test_evaluate(self, files, capsys):
        code = main(["evaluate", files["query"], "--data", files["data"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "X=o2" in out
        assert "1 result(s)" in out

    def test_classify(self, files, capsys):
        code = main(["classify", "--schema", files["schema"], files["query"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "ordered+tagged" in out
        assert "PTIME" in out

    def test_xml_and_dtd_path(self, tmp_path, capsys):
        dtd = tmp_path / "doc.dtd"
        dtd.write_text("<!ELEMENT doc (item*)><!ELEMENT item #PCDATA>")
        xml = tmp_path / "doc.xml"
        xml.write_text("<doc><item>one</item><item>two</item></doc>")
        code = main(
            ["validate", "--dtd", str(dtd), "--wrap", "--xml", str(xml)]
        )
        assert code == 0

    def test_missing_schema_errors(self, files, capsys):
        code = main(["satisfiable", files["query"]])
        assert code == 2
        assert "provide --schema" in capsys.readouterr().err


    def test_satisfiable_witness(self, files, capsys):
        code = main(
            ["satisfiable", "--schema", files["schema"], files["query"], "--witness"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "witness instance:" in out
        assert "paper" in out

    def test_dot_data(self, files, capsys):
        code = main(["dot", "--data", files["data"]])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"o1" -> "o2"' in out

    def test_dot_schema(self, files, capsys):
        code = main(["dot", "--schema", files["schema"]])
        assert code == 0
        assert '"DOCUMENT" -> "PAPER"' in capsys.readouterr().out


class TestServingCommandsRunCompiled:
    @pytest.mark.parametrize(
        "argv", [["serve"], ["batch", "satisfiable"], ["warm", "--generate", "1"]]
    )
    def test_there_is_no_backend_option(self, argv, capsys):
        # serve, batch and warm run, store and ship the compiled backend
        # only; the nfa reference is for fuzz, diff and the tests.
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--backend", "nfa"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
