import io
import json

import pytest

from semitic_morpho.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text(capsys):
    code, out, err = _run(capsys, "analyze", "kuttib")
    assert code == 0
    assert "pattern=M2" in out and "root=ktb" in out and "vocalism=ui" in out


def test_analyze_json_schema(capsys):
    code, out, err = _run(capsys, "--format", "json", "analyze", "ktb")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "ktb"
    analyses = payload["analyses"]
    assert len(analyses) == 2
    for a in analyses:
        assert set(a) == {"surface", "morphemes", "rule_trace", "features",
                          "errors"}
        assert set(a["morphemes"]) == {"pattern", "root", "vocalism",
                                       "affixes"}
        assert a["errors"] == []
        assert a["morphemes"]["pattern"] == "M1"
    vocalisms = {a["morphemes"]["vocalism"] for a in analyses}
    assert vocalisms == {"a", "ui"}


def test_analyze_json_stable_order(capsys):
    _, first, _ = _run(capsys, "--format", "json", "analyze", "ktb")
    _, second, _ = _run(capsys, "--format", "json", "analyze", "ktb")
    assert first == second


def test_analyze_no_result_exit_code(capsys):
    code, out, err = _run(capsys, "analyze", "qqqq")
    assert code == 1
    assert "no analysis" in out


def test_bad_word_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(capsys, "analyze", "kt9b")
    assert exc.value.code == 2


def test_missing_word_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["analyze"])
    assert exc.value.code == 2


def test_correct_text(capsys):
    code, out, err = _run(capsys, "correct", "dHruJi")
    assert code == 0
    first = out.strip().splitlines()[0]
    assert first.startswith("dHruJi: duHriJ")
    assert "E0" in first


def test_correct_json(capsys):
    code, out, err = _run(capsys, "--format", "json", "correct", "tuktib")
    payload = json.loads(out)
    words = [c["corrected"] for c in payload["candidates"]]
    assert words[:2] == ["tukuttib", "tukuutib"]
    assert payload["candidates"][0]["errors"][0]["rule"] == "E2"


def test_generate_cli(capsys):
    code, out, err = _run(capsys, "generate", "--pattern", "M1",
                          "--root", "ktb", "--vocalism", "a")
    assert code == 0 and out.strip() == "katab"


def test_generate_all_orthographies(capsys):
    code, out, err = _run(capsys, "generate", "--pattern", "M1",
                          "--root", "ktb", "--vocalism", "ui",
                          "--style", "all_orthographies")
    words = out.split()
    assert set(words) >= {"kutib", "ktb", "kutb", "ktib"}


def test_generate_unknown_morpheme(capsys):
    code, out, err = _run(capsys, "generate", "--pattern", "M99",
                          "--root", "ktb", "--vocalism", "a")
    assert code == 2 and "M99" in err


def test_generate_with_affix(capsys):
    code, out, err = _run(capsys, "generate", "--pattern", "Q3",
                          "--root", "dHrJ", "--vocalism", "ui",
                          "--affix", "suf_a")
    assert code == 0 and out.strip() == "dHunriJa"


def test_repair_cli(capsys):
    code, out, err = _run(capsys, "repair", "kidaaW")
    assert code == 0
    assert out.strip() == "kidaaW: kudW"


def test_repair_well_formed(capsys):
    code, out, err = _run(capsys, "repair", "kudW")
    assert code == 0 and "well-formed" in out


def test_verify_cli(capsys):
    code, out, err = _run(capsys, "verify")
    assert code == 0
    assert "32/32" in out


def test_dump_alphabet(capsys):
    code, out, err = _run(capsys, "dump-alphabet")
    assert code == 0
    assert "A\tglottal stop" in out


def test_stdin_batch(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("katab\nkuttib\n"))
    code, out, err = _run(capsys, "analyze", "--stdin")
    lines = [l for l in out.splitlines() if l.strip()]
    assert code == 0
    assert lines[0].startswith("katab:")
    assert lines[-1].startswith("kuttib:")


def test_grammar_lexicon_overrides(tmp_path, capsys):
    grammar_text = (
        "class lt = {a, b, k}\n"
        "rule A: * - X - * => * - X - * where lt(X)\n"
        "rule B: * - 0 - * => (B1, 0, 0) - + - * where B1 != +\n")
    lexicon_text = "pattern\tab\t\t\n"
    gpath = tmp_path / "g.tlr"
    lpath = tmp_path / "l.lex"
    gpath.write_text(grammar_text, encoding="utf-8")
    lpath.write_text(lexicon_text, encoding="utf-8")
    code, out, err = _run(capsys, "--grammar", str(gpath),
                          "--lexicon", str(lpath), "analyze", "ab")
    assert code == 0 and "trace=A,A,B" in out


# ---------------------------------------------------------------------------
# IO errors and bad input lines: one error line, exit 2, no traceback


def _run_failing(capsys, *argv):
    """Usage and IO errors end the command with SystemExit, as argparse's
    do; return its code and the captured output."""
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("option", ["--grammar", "--lexicon"])
def test_missing_data_file_exit_code(tmp_path, capsys, option):
    code, out, err = _run_failing(capsys, option, str(tmp_path / "missing"),
                                  "analyze", "katab")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing" in err


def test_unreadable_data_file_exit_code(tmp_path, capsys):
    # a directory cannot be read as a file
    code, out, err = _run_failing(capsys, "--grammar", str(tmp_path),
                                  "analyze", "katab")
    assert code == 2 and err.startswith("error: ")


def test_malformed_grammar_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.tlr"
    path.write_text("rule ! broken\n", encoding="utf-8")
    code, out, err = _run_failing(capsys, "--grammar", str(path), "analyze",
                                  "katab")
    assert code == 2 and err.startswith("error: ")


def test_data_dir_override_missing_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("SEMITIC_MORPHO_DATA", "/nonexistent")
    code, out, err = _run_failing(capsys, "verify")
    assert code == 2
    assert err.startswith("error: ") and "arabic.tlr" in err


def _stdin_run(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return _run(capsys, *argv, "--stdin")


def test_stdin_continues_past_bad_line(capsys, monkeypatch):
    code, out, err = _stdin_run(capsys, monkeypatch, "katab\nk@t\nkutib\n",
                                "analyze")
    words = [line.split(":")[0] for line in out.splitlines()]
    assert words == ["katab", "kutib"]
    assert err.startswith("error: line 2: k@t:") and err.count("\n") == 1
    assert code == 2


@pytest.mark.parametrize("command,good", [
    ("correct", "tuktib"),
    ("repair", "kidaaW"),
])
def test_stdin_bad_line_every_command(capsys, monkeypatch, command, good):
    code, out, err = _stdin_run(capsys, monkeypatch, f"k@t\n{good}\n",
                                "--format", "json", command)
    assert json.loads(out)["word"] == good
    assert err.startswith("error: line 1: k@t:")
    assert code == 2


def test_stdin_without_bad_lines_keeps_status(capsys, monkeypatch):
    code, out, err = _stdin_run(capsys, monkeypatch, "katab\nqqqq\n",
                                "analyze")
    assert code == 1 and err == ""


def test_empty_word_no_analysis(capsys):
    code, out, err = _run(capsys, "analyze", "")
    assert code == 1
    assert out.strip() == ": no analysis"
