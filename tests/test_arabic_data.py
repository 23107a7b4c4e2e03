import hashlib

from semitic_morpho.alphabet import decode
from semitic_morpho.arabic_data import (VERB_TABLE, VerbTable, data_text,
                                        measure_pattern_id, verify_table)
from semitic_morpho.engine import analyze

# data files are byte-for-byte stable across releases
DATA_DIGESTS = {
    "arabic.tlr": "f6d3fcee82c7be80194a65637a77cbb06d2936c51118c89bf7933eca17a88817",
    "arabic.lex": "5efd22c88d5752fee2828c6a50169eccc0c612f6124d394232a3591f48bb243f",
}


def test_table_shape():
    assert len(VERB_TABLE.rows) == 19
    no_passive = {m for m, a, p in VERB_TABLE.rows if p is None}
    assert no_passive == {"9", "11", "12", "13", "14", "15"}
    assert sum(1 for _ in VERB_TABLE.cells()) == 32


def test_builtin_counts(grammar, lexicon):
    assert len(grammar.rules) == 11
    assert len(grammar.erules) == 10
    patterns = [e for e in lexicon.entries("pattern") if e.kind == ""]
    assert len([e for e in patterns if e.id.startswith(("M", "Q"))]) == 19


def test_measure_mapping():
    assert measure_pattern_id("1") == "M1"
    assert measure_pattern_id("Q3") == "Q3"


def test_analyze_simple_cells(grammar, lexicon):
    got = analyze(decode("katab"), grammar, lexicon)
    assert any(a.stems and a.stems[-1].pattern.id == "M1"
               and a.stems[-1].vocalism.id == "a" for a in got)
    got = analyze(decode("daHraJ"), grammar, lexicon)
    assert any(a.stems and a.stems[-1].pattern.id == "Q1"
               and a.stems[-1].vocalism.id == "a" for a in got)


def test_verify_table_clean(grammar, lexicon, verb_table):
    assert verify_table(grammar, lexicon, verb_table) == []


def test_verify_table_detects_corruption(grammar, lexicon):
    bad = VerbTable(rows=(("2", "kattib", "kuttib"),))
    failures = verify_table(grammar, lexicon, bad)
    assert len(failures) == 1 and "kattib" in failures[0]
    assert "(M2 act)" in failures[0]


def test_verify_table_labels_quadriliterals(grammar, lexicon):
    # a quadriliteral measure is its own pattern id, not M-prefixed
    bad = VerbTable(rows=(("Q1", "daHrar", None),))
    failures = verify_table(grammar, lexicon, bad)
    assert len(failures) == 1 and "(Q1 act)" in failures[0], failures


def test_verify_table_empty():
    table = VerbTable(rows=())
    assert list(table.cells()) == []


def test_data_digests():
    for name, digest in DATA_DIGESTS.items():
        got = hashlib.sha256(data_text(name).encode("utf-8")).hexdigest()
        assert got == digest, f"{name}: {got}"


def test_data_dir_override(tmp_path, monkeypatch):
    (tmp_path / "arabic.tlr").write_text("stub", encoding="utf-8")
    monkeypatch.setenv("SEMITIC_MORPHO_DATA", str(tmp_path))
    assert data_text("arabic.tlr") == "stub"
