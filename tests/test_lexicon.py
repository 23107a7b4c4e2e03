import pytest
from hypothesis import given, strategies as st

from semitic_morpho.features import conflicts, make_fs, unify, unify_all
from semitic_morpho.lexicon import (DuplicateEntry, LexiconError, LexiconTree,
                                    MorphemeEntry, load_lexicon)


def _walk(tree, symbols):
    """The node reached by following `symbols` from the root, or None."""
    node = tree.root
    for sym in symbols:
        node = node.edges.get(sym)
        if node is None:
            return None
    return node


def test_bundled_roots(lexicon):
    forms = {"".join(e.body) for e in lexicon.entries("root")}
    assert forms == {"ktb", "dHrJ", "smA", "hwA", "kdW", "kfl", "shm"}


def test_bundled_vocalism_and_pattern_counts(lexicon):
    vocs = {e.id for e in lexicon.entries("vocalism")}
    assert {"a", "ui"} <= vocs
    verbal = [e for e in lexicon.entries("pattern")
              if e.id.startswith(("M", "Q")) and e.kind == ""]
    assert len(verbal) == 19


def test_kdW_entry(lexicon):
    entry = lexicon.entry("root", "kdW")
    assert entry.body == ("k", "d", "W")
    assert entry.features["bp_pattern"] == ("CuCC",)
    assert _walk(lexicon.tree("root"), "kdW") is not None


def test_advance_examples(lexicon):
    tree = lexicon.tree("root")
    assert _walk(tree, "ktb") is not None
    terminal = _walk(tree, "ktb+")
    assert terminal is not None and any(e.id == "ktb" for e in terminal.entries)
    assert _walk(tree, "z") is None


def test_branches_root_tree(lexicon):
    # exact set fixed by the shipped lexicon
    got = tuple(lexicon.tree("root").root.edges)
    expected = tuple(sorted({e.form[0] for e in lexicon.entries("root")}))
    assert got == expected == ("d", "h", "k", "s")


def test_branches_vocalism_tree(lexicon):
    got = tuple(lexicon.tree("vocalism").root.edges)
    assert set(got) >= {"a", "u"}          # the verbal morphemes
    assert got == ("a", "i", "u")          # shipped nominal vocalisms add i


def test_branches_terminal_is_boundary_only(lexicon):
    assert tuple(_walk(lexicon.tree("root"), "ktb").edges) == ("+",)


_forms = st.lists(
    st.lists(st.sampled_from(["a", "b", "k", "t", "c1", "v2"]),
             min_size=1, max_size=4).map(tuple),
    min_size=1, max_size=12, unique=True)


@given(_forms)
def test_trie_edges_in_symbol_order(bodies):
    # forms arrive in any order; rule application walks edges in iteration
    # order and relies on it being symbol order
    tree = LexiconTree()
    for i, body in enumerate(bodies):
        tree.insert(MorphemeEntry(str(i), "pattern", body + ("+",), {}))

    def check(node):
        assert list(node.edges) == sorted(node.edges)
        for child in node.edges.values():
            assert child.depth == node.depth + 1
            check(child)

    assert tree.root.depth == 0
    check(tree.root)
    for i, body in enumerate(bodies):
        assert [e.id for e in _walk(tree, body + ("+",)).entries] == [str(i)]


def test_every_entry_walkable(lexicon):
    for tape in ("pattern", "root", "vocalism"):
        tree = lexicon.tree(tape)
        for entry in tree.entries:
            node = _walk(tree, entry.form)
            assert node is not None, entry.id
            assert any(e.id == entry.id for e in node.entries)


def test_homograph_roots(lexicon):
    ids = {e.id for e in _walk(lexicon.tree("root"), "kfl+").entries}
    assert ids == {"kfl_kaafil", "kfl_kafiil"}


def test_empty_lexicon():
    lex = load_lexicon("")
    assert lex.entries() == []


def test_duplicate_entry_conflicting_features():
    text = "root\tktb\tcat=verb\twrite\nroot\tktb\tcat=noun\twrong\n"
    with pytest.raises(DuplicateEntry):
        load_lexicon(text)


def test_duplicate_id_error_names_its_line():
    with pytest.raises(DuplicateEntry, match="^line 3: duplicate entry 'x' "
                       "on tape 'root'$"):
        load_lexicon("root\tktb\tid=x\n# drs\nroot\tdrs\tid=x\n")


def test_duplicate_id_with_another_form():
    # an id names one entry per tape, whatever the entries' forms
    with pytest.raises(DuplicateEntry, match="'x' on tape 'root'"):
        load_lexicon("root\tktb\tid=x\nroot\tdrs\tid=x\n")
    lex = load_lexicon("root\tktb\tid=x\nvocalism\ta\tid=x\n")
    assert lex.entry("root", "x").body == ("k", "t", "b")
    assert lex.entry("vocalism", "x").body == ("a",)


def test_form_constraints():
    with pytest.raises(Exception):
        load_lexicon("root\t\t\t\n")
    entry = load_lexicon("root\tktb\t\t").entries("root")[0]
    assert entry.form[-1] == "+" and "+" not in entry.body


def test_kind_marks_pattern_affixes():
    lex = load_lexicon("pattern\twa\tid=pre_wa;kind=prefix\n"
                       "pattern\tiyy\tkind=suffix\n")
    assert [e.kind for e in lex.entries("pattern")] == ["prefix", "suffix"]


@pytest.mark.parametrize("line", [
    "pattern\twa\tid=pre_wa;kind=prefx",     # a misspelt kind
    "pattern\twa\tkind=word",                # word is the word tape's kind
    "word\tmdiintA\tkind=suffix",            # a linear word as an affix
    "root\tktb\tkind=prefix",
    "vocalism\ta\tkind=suffix",
])
def test_kind_rejected_off_pattern_affixes(line):
    with pytest.raises(LexiconError, match="line 2: bad kind"):
        load_lexicon("root\tdrs\n" + line + "\n")


# ---------------------------------------------------------------------------
# feature structures


def test_unify_identity():
    assert unify(make_fs({"voice": "pass"}), {}) == make_fs({"voice": "pass"})


def test_unify_clash():
    assert unify(make_fs({"bp_pattern": "CuCC"}),
                 make_fs({"bp_pattern": "CiCaaC"})) is None


def test_unify_set_restriction():
    got = unify(make_fs({"pat": ["M1", "M2"]}), make_fs({"pat": "M2"}))
    assert got == {"pat": ("M2",)}


def test_conflicts_names_attribute():
    f1 = make_fs({"bp_pattern": "CuCC", "cat": "noun"})
    f2 = make_fs({"bp_pattern": "CiCaaC", "cat": "noun"})
    assert conflicts(f1, f2) == ("bp_pattern",)


_fs = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.frozensets(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3),
    max_size=4,
).map(lambda d: {k: tuple(sorted(v)) for k, v in d.items()})


def _norm(fs):
    return None if fs is None else {k: frozenset(v) for k, v in fs.items()}


@given(_fs, _fs)
def test_unify_commutative(f1, f2):
    assert _norm(unify(f1, f2)) == _norm(unify(f2, f1))


@given(_fs, _fs, _fs)
def test_unify_associative(f1, f2, f3):
    left = unify(f1, f2)
    right = unify(f2, f3)
    a = unify(left, f3) if left is not None else None
    b = unify(f1, right) if right is not None else None
    assert _norm(a) == _norm(b)


@given(_fs)
def test_unify_idempotent(fs):
    assert _norm(unify(fs, fs)) == _norm(fs)


@given(_fs, _fs, _fs)
def test_unify_all_matches_pairwise(f1, f2, f3):
    step = unify(f1, f2)
    expect = unify(step, f3) if step is not None else None
    assert _norm(unify_all(f1, f2, f3)) == _norm(expect)
