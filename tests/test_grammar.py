"""Elementary-tree validation, lexicalization, CFG composition and the
grammar text format."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagforge as tf
from tagforge.errors import CompositionError, GrammarFormatError
from tagforge.grammar import Word

from conftest import random_auxiliary, random_initial

# The little English CFG used throughout: S -> NP VP, VP -> really VP,
# VP -> V NP, V -> likes, NP -> John, NP -> Lyn.
RULES = [
    tf.CfgRule("S", ("NP", "VP")),
    tf.CfgRule("VP", (Word("really"), "VP")),
    tf.CfgRule("VP", ("V", "NP")),
    tf.CfgRule("V", (Word("likes"),)),
    tf.CfgRule("NP", (Word("John"),)),
    tf.CfgRule("NP", (Word("Lyn"),)),
]

ALPHA1_SRC = '(S NP! (VP (V "likes"@) NP!))'
BETA1_SRC = '(VP "really"@ VP*)'


def test_validate_alpha1():
    tree = tf.ElementaryTree("alpha1", "initial", tf.parse_tree_expr(ALPHA1_SRC))
    report = tf.validate_tree(tree)
    assert report.ok
    assert not report.warnings
    assert tree.anchor_lexeme == "likes"


def test_validate_beta1():
    tree = tf.ElementaryTree("beta1", "aux", tf.parse_tree_expr(BETA1_SRC))
    report = tf.validate_tree(tree)
    assert report.ok
    assert tree.node_at((2,)).kind == "foot"
    assert tree.node_at((2,)).label == tree.root.label == "VP"


def test_validate_foot_root_mismatch():
    bad = tf.ElementaryTree("bad", "aux", tf.parse_tree_expr('(VP "really"@ S*)'))
    report = tf.validate_tree(bad)
    assert not report.ok
    assert any("foot/root label mismatch" in v for v in report.violations)


def test_validate_initial_with_foot():
    bad = tf.ElementaryTree("bad", "initial", tf.parse_tree_expr('(VP "x"@ VP*)'))
    report = tf.validate_tree(bad)
    assert any("may not contain a foot node" in v for v in report.violations)


def test_validate_auxiliary_without_foot():
    bad = tf.ElementaryTree("bad", "aux", tf.parse_tree_expr('(VP "x"@)'))
    report = tf.validate_tree(bad)
    assert any("exactly one foot node" in v for v in report.violations)


def test_validate_anchorless_is_warning_not_violation():
    tree = tf.ElementaryTree("r1", "initial", tf.parse_tree_expr("(S NP! VP!)"))
    report = tf.validate_tree(tree)
    assert report.ok
    assert any("no anchor" in w for w in report.warnings)


def test_check_lexicalized_cfg_rules_flags_anchorless():
    trees = tf.cfg_to_trees(RULES)
    grammar = tf.Grammar(trees={t.id: t for t in trees}, start_symbol="S")
    report = tf.check_lexicalized(grammar)
    assert not report.lexicalized
    # r1 is S -> NP VP and r3 is VP -> V NP: the two purely nonterminal rules.
    assert set(report.offenders) == {"r1", "r3"}
    assert report.census["r2"] == 1  # VP -> really VP anchors "really"


def test_check_lexicalized_tsg(english):
    report = tf.check_lexicalized(english)
    assert report.lexicalized
    assert set(report.census.values()) == {1}


def test_check_lexicalized_empty_grammar():
    assert tf.check_lexicalized(tf.Grammar()).lexicalized


def test_check_lexicalized_includes_set_members(german_mc):
    report = tf.check_lexicalized(german_mc)
    assert report.lexicalized
    assert "beta_a" in report.census and "beta_b" in report.census


def test_check_lexicalized_order_independent(english):
    report = tf.check_lexicalized(english)
    shuffled = tf.Grammar(
        trees=dict(reversed(list(english.trees.items()))),
        start_symbol=english.start_symbol,
    )
    other = tf.check_lexicalized(shuffled)
    assert report.lexicalized == other.lexicalized
    assert report.census == other.census


def test_compose_rules_builds_alpha1():
    # (1a) expanded by (1c) at RHS position 2, then (1d) at position 1.
    composed = tf.compose_rules(RULES, [(0, 0), (2, 2), (3, 1)], tree_id="alpha1")
    expected = tf.parse_tree_expr(ALPHA1_SRC)
    assert composed.root == expected
    assert tf.validate_tree(composed).ok
    assert composed.anchor_lexeme == "likes"


def test_compose_single_lexical_rule():
    composed = tf.compose_rules(RULES, [(4, 0)], tree_id="alpha2")
    assert composed.root == tf.parse_tree_expr('(NP "John"@)')


def test_compose_rules_broken_spine():
    with pytest.raises(CompositionError):
        # (1d) V -> likes cannot rewrite the NP at position 1 of (1a).
        tf.compose_rules(RULES, [(0, 0), (3, 1)])


def test_compose_rules_position_out_of_range():
    with pytest.raises(CompositionError):
        tf.compose_rules(RULES, [(0, 0), (2, 5)])


def test_merge_rules_flattening():
    merged = tf.merge_rules(RULES, [(0, 0), (2, 2), (3, 1)])
    assert merged == tf.CfgRule("S", ("NP", Word("likes"), "NP"))


def test_cfg_to_trees_shapes():
    trees = tf.cfg_to_trees(RULES)
    assert len(trees) == 6
    john = trees[4]
    assert john.root == tf.parse_tree_expr('(NP "John"@)')
    s_rule = trees[0]
    assert [c.kind for c in s_rule.root.children] == ["substitution", "substitution"]


def test_grammar_format_round_trip(english, english_wh, dutch, german_mc):
    for grammar in (english, english_wh, dutch, german_mc):
        text = tf.serialize_grammar(grammar)
        again = tf.parse_grammar(text)
        assert again.start_symbol == grammar.start_symbol
        assert set(again.trees) == set(grammar.trees)
        for tid, tree in grammar.trees.items():
            assert again.trees[tid].root == tree.root
            assert again.trees[tid].shape == tree.shape
        assert set(again.tree_sets) == set(grammar.tree_sets)
        for sid, ts in grammar.tree_sets.items():
            assert [m.root for m in again.tree_sets[sid].members] == [
                m.root for m in ts.members
            ]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), shape=st.sampled_from(["initial", "aux"]))
def test_random_tree_round_trip(seed, shape):
    rng = random.Random(seed)
    if shape == "initial":
        tree = random_initial(rng, "S")
    else:
        tree = random_auxiliary(rng, "S")
    text = tf.serialize_grammar(
        tf.Grammar(trees={tree.id: tree}, start_symbol="S")
    )
    again = tf.parse_grammar(text)
    assert again.trees[tree.id].root == tree.root


def test_parse_grammar_errors():
    with pytest.raises(GrammarFormatError):
        tf.parse_grammar("tree a initial (S)")  # childless interior node
    with pytest.raises(GrammarFormatError):
        tf.parse_grammar("tree a initial (S NP)")  # unmarked frontier label
    with pytest.raises(GrammarFormatError):
        tf.parse_grammar("tree a sideways (S NP!)")
    with pytest.raises(GrammarFormatError):
        tf.parse_grammar("set s { missing }")


# A set whose id is also a tree's id: an instance of ``s`` in a derivation
# could be either, so the reader refuses the set line.
SET_ID_CLASH = (
    'start S\n'
    'tree a initial (S NP! (VP "v"@))\n'
    'tree n initial (NP "x"@)\n'
    'tree s aux (VP "z"@ VP*)\n'
    'tree m1 aux (VP "m"@ VP*)\n'
    'tree m2 aux (VP "q"@ VP*)\n'
    'set s { m1 m2 }\n'
)


def test_set_id_may_not_be_a_tree_id():
    with pytest.raises(GrammarFormatError, match="line 7: set id 's' is also a tree id"):
        tf.parse_grammar(SET_ID_CLASH)
    # A member's id counts too, though the member leaves ``trees``.
    with pytest.raises(GrammarFormatError, match="set id 'm1' is also a tree id"):
        tf.parse_grammar(SET_ID_CLASH.replace("set s {", "set m1 {"))
    grammar = tf.parse_grammar(SET_ID_CLASH.replace("set s {", "set ms {"))
    assert set(grammar.trees) == {"a", "n", "s"} and set(grammar.tree_sets) == {"ms"}


def test_start_symbol_inferred():
    g = tf.parse_grammar('tree a initial (NP "John"@)')
    assert g.start_symbol == "NP"
    g2 = tf.parse_grammar('start S\ntree a initial (NP "John"@)')
    assert g2.start_symbol == "S"


def test_deep_grammar_text_round_trip(tmp_path, capsys):
    """Reading and writing grammar text use explicit stacks, so a
    3,000-deep tree parses, serializes and parses again to the same text,
    and ``tagforge validate`` accepts the file."""
    from tagforge.cli import main

    depth = 3_000
    text = "start S\ntree deep initial " + "(S " * depth + '"x"@' + ")" * depth + "\n"
    once = tf.serialize_grammar(tf.parse_grammar(text))
    assert once == text
    assert tf.serialize_grammar(tf.parse_grammar(once)) == text
    path = tmp_path / "deep.tag"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "-g", str(path)]) == 0
    assert capsys.readouterr().out.startswith("deep: ok\n")


def test_deep_trees_compare_and_hash():
    """``TreeNode`` equality, hash and repr use explicit stacks: two reads
    of a 3,000-deep grammar tree compare equal and hash alike, a tree that
    differs only at the bottom compares unequal, and the deep tree prints
    the text the generated repr prints for shallow ones."""
    from tagforge.trees import TreeNode

    depth = 3_000
    text = "start S\ntree deep initial " + "(S " * depth + '"x"@' + ")" * depth + "\n"
    first, second = (tf.parse_grammar(text).trees["deep"].root for _ in range(2))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    other = tf.parse_grammar(text.replace('"x"@', '"y"@')).trees["deep"].root
    assert first != other and other != first
    x = "TreeNode(kind='anchor', label='x', children=())"
    s = "TreeNode(kind='interior', label='S', children=("
    assert repr(first) == s * depth + x + ",))" * depth
    shallow = TreeNode("interior", "S", (TreeNode("anchor", "x"),))
    assert repr(shallow) == s + x + ",))"
    pair = TreeNode("interior", "S'", (TreeNode("foot", 'S"'), TreeNode("terminal", "y")))
    assert repr(pair) == (
        "TreeNode(kind='interior', label=\"S'\", children=(TreeNode(kind='foot', "
        "label='S\"', children=()), TreeNode(kind='terminal', label='y', children=())))"
    )


def test_walk_deep_chain_without_recursion():
    from tagforge.trees import TreeNode, walk

    depth = 10_000
    node = TreeNode("anchor", "x")
    for _ in range(depth):
        node = TreeNode("interior", "A", (node,))
    count = 0
    for address, last in walk(node):
        count += 1
    assert count == depth + 1
    assert address == (1,) * depth
    assert last.kind == "anchor"


def test_walk_is_preorder():
    from tagforge.trees import walk, walk_nodes

    tree = tf.parse_grammar("tree a initial " + ALPHA1_SRC).trees["a"]
    assert [(a, n.label) for a, n in walk(tree.root)] == [
        ((), "S"),
        ((1,), "NP"),
        ((2,), "VP"),
        ((2, 1), "V"),
        ((2, 1, 1), "likes"),
        ((2, 2), "NP"),
    ]
    assert [n.label for n in walk_nodes(tree.root)] == ["S", "NP", "VP", "V", "likes", "NP"]


# -- error messages of the grammar reader ------------------------------

_TREE_A = 'tree a initial (S x! "w"@)\n'


@pytest.mark.parametrize(
    "text, message",
    [
        (_TREE_A + 'tree b initial (S "w)\n', "line 2: unexpected character '\"'"),
        (_TREE_A + "tree b initial", "line 2: unexpected end of input"),
        (_TREE_A + "start (", "line 2: expected ident, got '('"),
        (_TREE_A + "\ntree b initial (S! x!)", "line 3: interior label 'S!' may not carry a marker"),
        (_TREE_A + "tree b initial (S x!\n\n", "line 2: unclosed '('"),
        (_TREE_A + 'tree b initial (S "")', "line 2: empty terminals are not allowed"),
        (_TREE_A + "tree b initial (S { )", "line 2: unexpected token '{'"),
        (_TREE_A + ")", "line 2: expected a statement, got ')'"),
        (_TREE_A + 'tree a aux (S S* "v"@)', "line 2: duplicate tree id 'a'"),
        (_TREE_A + "set s { a ( }", "line 2: expected member id, got '('"),
        (_TREE_A + "\nfrobnicate", "line 3: unknown statement 'frobnicate'"),
        (
            'tree a aux (S S* "v"@)\ntree b aux (S S* "u"@)\nset s { a }\nset s { b }',
            "line 4: duplicate set id 's'",
        ),
        ("start S\n" + _TREE_A + "start NP", "line 3: only one 'start' statement is allowed"),
        (_TREE_A + "set s { }", "line 2: set 's' has no members"),
    ],
)
def test_grammar_format_errors(text, message):
    with pytest.raises(GrammarFormatError) as excinfo:
        tf.parse_grammar(text)
    assert str(excinfo.value) == message


def test_tree_expression_refuses_trailing_input():
    with pytest.raises(GrammarFormatError) as excinfo:
        tf.parse_tree_expr("(S x!) y!")
    assert str(excinfo.value) == "line 1: trailing input after tree: 'y!'"
    with pytest.raises(GrammarFormatError) as excinfo:
        tf.parse_tree_expr("(S x!)\n\ny!")
    assert str(excinfo.value) == "line 3: trailing input after tree: 'y!'"
