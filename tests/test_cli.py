import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import semitic_morpho
from semitic_morpho import arabic_data
from semitic_morpho.cli import run

from test_engine import RSC_OWN, RSC_OWN_LEX


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


def test_generate_non_affix_as_affix(capsys):
    code, out, err = _run(capsys, "generate", "--pattern", "M1",
                          "--root", "ktb", "--vocalism", "ui",
                          "--affix", "M2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "M2" in err


def test_generate_without_morpheme_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--style", "all_orthographies"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert [line for line in out.err.splitlines() if "error:" in line] == [
        "semitic-morpho: error: generate needs a --pattern, --root, "
        "--vocalism or --affix"]


def test_generate_selection_with_no_surface(capsys):
    # M1 has no c4 slot for dHrJ's fourth consonant
    argv = ("generate", "--pattern", "M1", "--root", "dHrJ",
            "--vocalism", "ui")
    assert _run(capsys, *argv) == (1, "", "")
    code, out, err = _run(capsys, "--format", "json", *argv)
    assert code == 1 and err == ""
    assert json.loads(out) == {"surfaces": []}


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


class _CountingOut(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_json_is_one_write_per_document(monkeypatch):
    # each write is a system call when standard output is unbuffered
    out = _CountingOut()
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stdin", io.StringIO("ktb\nkatab\n"))
    assert run(["--format", "json", "analyze", "--stdin"]) == 0
    assert out.writes == 2
    docs = out.getvalue().split("\n}\n")
    assert len(docs) == 3 and docs[-1] == ""
    expected = io.StringIO()
    for doc in docs[:-1]:
        json.dump(json.loads(doc + "\n}"), expected, indent=2)
        expected.write("\n")
    assert out.getvalue().encode() == expected.getvalue().encode()


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


def test_reap_insertion_chain_ends(tmp_path, capsys):
    # F inserts a symbol that A then reads, which leaves F where it fired:
    # a reap chain takes one error per input position, so the search ends
    gpath, lpath = tmp_path / "g.tlr", tmp_path / "l.lex"
    gpath.write_text(
        "class lt = {a, b, k}\n"
        "rule A: * - X - * => * - X - * where lt(X)\n"
        "rule B: * - 0 - * => (B1, 0, 0) - + - * where B1 != +\n"
        "erule F: 0 => X { * - * } reap=y where lt(X)\n", encoding="utf-8")
    lpath.write_text("pattern\tk\n", encoding="utf-8")
    code, out, err = _run(capsys, "--grammar", str(gpath),
                          "--lexicon", str(lpath), "correct", "ab")
    assert (code, out, err) == (1, "ab: no correction found\n", "")


@pytest.mark.parametrize("word", ["wa", "wawa"])
def test_bare_affix_word_no_analysis(capsys, word):
    # a word needs a morpheme that is not an affix
    code, out, err = _run(capsys, "analyze", word)
    assert (code, out) == (1, f"{word}: no analysis\n")


def test_generate_rule_with_right_surface_context(tmp_path, capsys):
    gpath, lpath = tmp_path / "g.tlr", tmp_path / "l.lex"
    gpath.write_text(RSC_OWN, encoding="utf-8")
    lpath.write_text(RSC_OWN_LEX, encoding="utf-8")
    code, out, err = _run(capsys, "--grammar", str(gpath),
                          "--lexicon", str(lpath), "generate", "--pattern",
                          "bk")
    assert (code, out, err) == (0, "ak\n", "")


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


def test_bad_lexicon_kind_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.lex"
    path.write_text("pattern\twa\tid=pre_wa;kind=prefx\n", encoding="utf-8")
    code, out, err = _run_failing(capsys, "--lexicon", str(path), "analyze",
                                  "katab")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1" in err and "prefx" in err


def test_duplicate_lexicon_id_exit_code(tmp_path, capsys):
    path = tmp_path / "dup.lex"
    path.write_text("root\tktb\tid=x\nroot\tdrs\tid=x\n"
                    "pattern\tc1v1c2v2c3\tid=M1\nvocalism\ta\n",
                    encoding="utf-8")
    code, out, err = _run_failing(capsys, "--lexicon", str(path), "analyze",
                                  "daras")
    assert code == 2 and out == ""
    assert err == "error: line 2: duplicate entry 'x' on tape 'root'\n"


def test_data_dir_override_missing_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("SEMITIC_MORPHO_DATA", "/nonexistent")
    code, out, err = _run_failing(capsys, "verify")
    assert code == 2
    assert err.startswith("error: ") and "arabic.tlr" in err


def test_repair_unknown_expected_pattern_exit_code(tmp_path, capsys):
    # the root kdW expects a broken-plural pattern the lexicon lacks
    lexicon = arabic_data.data_text(arabic_data.LEXICON_FILE)
    assert lexicon.count("bp_pattern=CuCC\tkadish") == 1
    path = tmp_path / "l.lex"
    path.write_text(lexicon.replace("bp_pattern=CuCC\tkadish",
                                    "bp_pattern=CuCuC\tkadish"),
                    encoding="utf-8")
    code, out, err = _run(capsys, "--lexicon", str(path), "repair", "kidaaW")
    assert code == 2 and out == ""
    assert err == ("error: kidaaW: root kdW expects pattern 'CuCuC', "
                   "absent from the lexicon\n")


@pytest.mark.parametrize("option,value", [
    ("--max-candidates", "0"),
    ("--max-candidates", "-3"),
    ("--max-positions", "0"),
    ("--max-positions", "-1"),
    ("--max-positions", "x"),
])
def test_correct_rejects_non_positive_bounds(capsys, option, value):
    code, out, err = _run_failing(capsys, "correct", "tuktib", option, value)
    assert code == 2 and out == ""
    assert f"{option}: {value!r} is not a positive integer" in err


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


@pytest.mark.parametrize("command", ("analyze", "correct", "repair"))
def test_word_and_stdin_usage_error(capsys, monkeypatch, command):
    # neither input is dropped in silence
    monkeypatch.setattr("sys.stdin", io.StringIO("kutib\n"))
    code, out, err = _run_failing(capsys, command, "katab", "--stdin")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(
        f"error: {command} takes a WORD or --stdin, not both")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ("analyze", "correct", "repair"))
def test_empty_word_usage_error(capsys, command):
    # --stdin skips blank lines, so an empty WORD is a usage error too
    code, out, err = _run_failing(capsys, command, "")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: ")
    assert lines[-1].endswith(f"error: {command} needs a non-empty WORD")
    assert sum("error:" in line for line in lines) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_closed_stdout_exits_2_without_traceback(tmp_path, fmt):
    # the reader takes one line and closes the pipe; the CLI has more to
    # print than the pipe holds, so it cannot finish before the close
    words = tmp_path / "words"
    words.write_text("katab\n" * 3000)
    env = dict(os.environ,
               PYTHONPATH=str(Path(semitic_morpho.__file__).parents[1]))
    with words.open() as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "semitic_morpho.cli", "--format", fmt,
             "analyze", "--stdin"],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err


def test_interrupt_exits_2_without_traceback():
    # Ctrl-C while the CLI waits for the next line of an open stdin
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=str(Path(semitic_morpho.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "semitic_morpho.cli", "analyze", "--stdin"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    try:
        proc.stdin.write(b"katab\n")
        proc.stdin.flush()
        assert b"katab" in proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 2
    assert err.decode() == "error: interrupted\n"
