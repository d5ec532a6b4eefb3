"""Two-segment syntagm linearization: the Dutch cross-serial rules, the
projective English rules, and the rule DSL's error behavior."""
import pytest

import tagforge as tf
from tagforge import corpus
from tagforge.dependency import resolve_order
from tagforge.errors import AmbiguousRule, GrammarFormatError, NoRule, TagError

from conftest import load_script


@pytest.fixture(scope="module")
def dutch_rules():
    return tf.parse_rules(corpus.read("dutch.syn"))


@pytest.fixture(scope="module")
def fig18():
    return tf.parse_dependency(corpus.read("fig18.dep"))


def _contains(segment, part):
    n = len(part)
    return any(segment[i : i + n] == part for i in range(len(segment) - n + 1))


def assert_atomic(tree, pairs):
    """Segments are placed whole: every non-empty Y1 or Y2 of a dependent
    appears contiguously in its head's Y1 or Y2.  The rules used here put
    a dependent's two segments into different head segments, or side by
    side with Y1 first (``nominals``, ``deps(L)``, ``dep.y1 ++ dep.y2``),
    so where one head segment holds both, Y1 + Y2 appears there whole."""
    for head, dep, _ in tree.arcs:
        if head not in pairs or dep not in pairs:
            continue  # covert
        segments = (pairs[head].y1, pairs[head].y2)
        y1, y2 = pairs[dep].y1, pairs[dep].y2
        for part in (y1, y2):
            assert not part or any(_contains(seg, part) for seg in segments), (dep, part)
        for seg in segments:
            if y1 and y2 and _contains(seg, y1) and _contains(seg, y2):
                assert _contains(seg, y1 + y2), (dep, seg)


def test_zwemmen_leaf_pair(dutch_rules, fig18):
    pairs = tf.segment_pairs(fig18, dutch_rules)
    assert pairs["zwemmen"].as_strings() == ("", "zwemmen")


def test_leren_pair(dutch_rules, fig18):
    pairs = tf.segment_pairs(fig18, dutch_rules)
    assert pairs["leren"].as_strings() == ("de kinderen", "leren zwemmen")


def test_helpen_pair(dutch_rules, fig18):
    pairs = tf.segment_pairs(fig18, dutch_rules)
    assert pairs["helpen"].as_strings() == (
        "Jan Marie de kinderen",
        "helpen leren zwemmen",
    )


def test_full_dutch_linearization(dutch_rules, fig18):
    words = tf.linearize(fig18, dutch_rules)
    assert " ".join(words) == (
        "omdat Wim Jan Marie de kinderen zien helpen leren zwemmen"
    )
    assert_atomic(fig18, tf.segment_pairs(fig18, dutch_rules))


def test_single_node_tree(dutch_rules):
    tree = tf.parse_dependency("dep Jan")
    assert tf.linearize(tree, dutch_rules) == ["Jan"]


def test_english_projective_rules(english):
    rules = tf.parse_rules(corpus.read("english_projective.syn"))
    script = load_script("fig7.drv", english)
    dep = tf.derivation_to_dependency(script, english)
    derived_sentence = tf.run_derivation(english, script)[1]
    words = tf.linearize(dep, rules)
    assert " ".join(words) == derived_sentence == "John really likes Lyn"
    assert_atomic(dep, tf.segment_pairs(dep, rules))
    # Projective degenerate case: the produced order is projective.
    order = resolve_order(dep, words)
    assert tf.is_projective(dep, order).projective


def test_cross_validation_with_tag_derivation(dutch, dutch_rules, fig18):
    # The linearizer's order over the dependency tree matches the TAG
    # derivation's yield, modulo the inflected matrix verb (zag vs zien).
    script = load_script("fig13.drv", dutch)
    _, tag_sentence = tf.run_derivation(dutch, script)
    lin_sentence = " ".join(tf.linearize(fig18, dutch_rules))
    assert lin_sentence.replace("zien", "zag") == tag_sentence


def test_no_rule_error():
    ruleset = tf.parse_rules(
        "class V = a\nrule only when head.lex=a { y1 = empty ; y2 = head }"
    )
    tree = tf.parse_dependency("dep b")
    with pytest.raises(NoRule):
        tf.linearize(tree, ruleset)


def test_ambiguous_rule_error():
    ruleset = tf.parse_rules(
        "rule r1 when any { y1 = empty ; y2 = head }\n"
        "rule r2 when any { y1 = head ; y2 = empty }"
    )
    tree = tf.parse_dependency("dep x")
    with pytest.raises(AmbiguousRule) as excinfo:
        tf.linearize(tree, ruleset)
    assert set(excinfo.value.rule_names) == {"r1", "r2"}


def test_word_conservation_guard():
    # A rule that drops its dependent's segments is rejected.
    ruleset = tf.parse_rules(
        "rule drop when exists dep { y1 = empty ; y2 = head }\n"
        "rule leaf when not exists dep { y1 = head ; y2 = empty }"
    )
    tree = tf.parse_dependency("dep x { y:1 }")
    with pytest.raises(TagError):
        tf.linearize(tree, ruleset)


def test_head_placed_twice_guard():
    ruleset = tf.parse_rules("rule twice when any { y1 = head ++ head ; y2 = empty }")
    tree = tf.parse_dependency("dep x")
    with pytest.raises(TagError):
        tf.linearize(tree, ruleset)


def test_error_names_node_path():
    ruleset = tf.parse_rules("rule leaf when not exists dep { y1 = head ; y2 = empty }")
    tree = tf.parse_dependency("dep a { b:1 { c:1 } }")
    with pytest.raises(NoRule) as excinfo:
        tf.linearize(tree, ruleset)
    assert str(excinfo.value) == "no syntagm rule matches node 'b' (at a/b)"
    with pytest.raises(NoRule) as excinfo:
        tf.segment_pairs(tree, ruleset)
    assert str(excinfo.value) == "no syntagm rule matches node 'b' (at a/b)"


def test_covert_nodes_contribute_nothing(dutch_rules):
    tree = tf.parse_dependency(
        "dep leren { (PRO):1 zwemmen:2 }"
    )
    # With the covert subject invisible, leren has only a verbal dependent.
    words = tf.linearize(tree, dutch_rules)
    assert words == ["leren", "zwemmen"]


def test_rule_file_errors():
    with pytest.raises(GrammarFormatError):
        tf.parse_rules("rule r when any { y1 = head }")  # y2 missing
    with pytest.raises(GrammarFormatError):
        tf.parse_rules("rule r when any { y1 = head ; y2 = bogus() }")
    with pytest.raises(GrammarFormatError):
        tf.parse_rules("not a rule file at all")
    with pytest.raises(GrammarFormatError):
        tf.parse_rules(
            "rule r when any { y1 = head ; y2 = empty }\n"
            "rule r when any { y1 = head ; y2 = empty }"
        )  # duplicate names


def test_deps_term_keeps_input_order():
    ruleset = tf.parse_rules(
        "rule noun when exists dep.rel=ATTR { y1 = deps(ATTR) ++ head ; y2 = empty }\n"
        "rule leaf when not exists dep { y1 = head ; y2 = empty }"
    )
    tree = tf.parse_dependency("dep kinderen { de:ATTR }")
    assert tf.linearize(tree, ruleset) == ["de", "kinderen"]


def test_nominals_sorted_by_actant_index():
    ruleset = tf.parse_rules(
        "rule clause when exists dep { y1 = nominals(byActant) ++ head ; y2 = empty }\n"
        "rule leaf when not exists dep { y1 = head ; y2 = empty }"
    )
    # Declared object-first; nominals(byActant) still orders by index.
    tree = tf.parse_dependency("dep helpt { Marie:2 Jan:1 }")
    assert tf.linearize(tree, ruleset) == ["Jan", "Marie", "helpt"]


def test_whole_dependent_keeps_its_segments_in_order():
    # nominals(byActant) places a dependent whose Y1 and Y2 are both
    # non-empty: Y1 then Y2, each unbroken.
    ruleset = tf.parse_rules(
        "rule embed when head.lex=sagt { y1 = nominals(byActant) ++ head ; y2 = empty }\n"
        "rule split when head.lex=kommt { y1 = deps(1) ; y2 = head }\n"
        "rule leaf when not exists dep { y1 = head ; y2 = empty }"
    )
    tree = tf.parse_dependency("dep sagt { Jan:1 kommt:2 { Maria:1 } }")
    pairs = tf.segment_pairs(tree, ruleset)
    assert_atomic(tree, pairs)
    assert pairs["kommt"].as_strings() == ("Maria", "kommt")
    assert pairs["sagt"].as_strings() == ("Jan Maria kommt sagt", "")


def test_deep_chain_without_recursion():
    # Each node's words are its own, then its dependent's: the chain reads
    # in order.  Deeper than the interpreter's recursion limit.
    rules = tf.parse_rules("rule chain when any { y1 = head ++ deps(ATTR) ; y2 = empty }")
    depth = 2_000
    words = [f"a{i % 16}" for i in range(depth)]
    body = " { ".join(f"{w}:ATTR" if i else w for i, w in enumerate(words))
    tree = tf.parse_dependency(f"dep {body}{' }' * (depth - 1)}")
    assert tf.linearize(tree, rules) == words
    pairs = tf.segment_pairs(tree, rules)
    assert list(pairs) == list(tree.nodes)[::-1]  # dependents first
    assert pairs[tree.root].words() == words
    assert_atomic(tree, pairs)


def test_class_lookup_takes_first_listing_class():
    rules = tf.parse_rules(
        "class N = Jan kinderen\nclass V = zien Jan\nrule r when any { y1 = head ; y2 = empty }"
    )
    assert rules.cat_of("Jan") == "N"
    assert rules.cat_of("zien") == "V"
    assert rules.cat_of("leren") is None


# -- one plan per node shape -------------------------------------------

# Rules that read a head's lexeme (head.lex), a dependent's arc label and
# class together (exists dep.rel=L with dep.cat=C), and the bound
# dependent's two segments apart (dep.y1, dep.y2).
SHAPED_RULES = """
class V = see help let swim
class N = Ann Bob kids
class P = to
rule let_clause when head.lex=let and exists dep.rel=2 with dep.cat=V {
  y1 = nominals(byActant) ;
  y2 = dep.y1 ++ head ++ dep.y2 ++ deps(ATTR)
}
rule verb_clause when head.cat=V and not head.lex=let and exists dep.rel=2 with dep.cat=V {
  y1 = nominals(byActant) ++ dep.y1 ;
  y2 = head ++ dep.y2 ++ deps(ATTR)
}
rule let_plain when head.lex=let and not exists dep.rel=2 with dep.cat=V {
  y1 = nominals(byActant) ++ head ;
  y2 = deps(ATTR)
}
rule verb_plain when head.cat=V and not head.lex=let and not exists dep.rel=2 with dep.cat=V {
  y1 = nominals(byActant) ;
  y2 = head ++ deps(ATTR)
}
rule noun when head.cat=N { y1 = head ; y2 = deps(ATTR) }
rule prep when head.cat=P and exists dep { y1 = head ++ dep.y1 ; y2 = dep.y2 }
"""

# Per rule file: the words of each class, and the dependents a head of
# each class may take, as (arc label, class) lists the rules accept; a
# head takes each list with equal odds.  "PRO" is a covert dependent.
FRAMES = {
    "dutch.syn": (
        {"V": "zien zag helpen leren zwemmen", "N": "Wim Jan Marie kinderen",
         "DET": "de", "CONJ": "omdat"},
        {
            "V": [[], [("1", "N")], [("1", "N"), ("2", "N")], [("1", "N"), ("2", "V")],
                  [("2", "V")], [("1", "PRO"), ("2", "V")], [("1", "N"), ("2", "N"), ("3", "V")]],
            "N": [[], [], [("ATTR", "DET")], [("ATTR", "N")], [("ATTR", "DET"), ("ATTR", "N")]],
            "DET": [[]],
            "CONJ": [[("1", "V")]],
        },
    ),
    "english_projective.syn": (
        {"V": "likes", "N": "John Lyn", "ADV": "really"},
        {
            "V": [[], [("1", "N")], [("1", "N"), ("2", "V")], [("1", "V"), ("2", "V")], [("2", "N"), ("1", "N")],
                  [("1", "N"), ("ATTR", "ADV"), ("2", "V")], [("ATTR", "ADV"), ("2", "V")],
                  [("ATTR", "ADV"), ("1", "N"), ("ATTR", "ADV"), ("2", "V")]],
            "N": [[]],
            "ADV": [[]],
        },
    ),
    "shaped": (
        {"V": "see help let let swim", "N": "Ann Bob kids", "P": "to"},
        {
            "V": [[], [("1", "N")], [("1", "N"), ("2", "N")], [("1", "N"), ("2", "V")], [("2", "V")],
                  [("2", "N"), ("1", "N")], [("1", "N"), ("ATTR", "P")], [("ATTR", "P"), ("2", "V"), ("1", "N")],
                  [("3", "N"), ("1", "N"), ("2", "N")], [("1", "V"), ("2", "V")]],
            "N": [[], [("ATTR", "P")]],
            "P": [[("1", "N")]],
        },
    ),
}


def random_dep_text(rng, words, frames, size):
    """A random tree of at most about ``size`` nodes, rooted in a V, in
    the nested-block format.  Once the size is spent, or 40 levels down,
    heads take their shortest dependent list."""
    def node(cls):
        return "(PRO)" if cls == "PRO" else rng.choice(words[cls].split())

    out = ["dep", node("V")]
    budget = [size - 1]

    def expand(cls, depth):
        choices = frames.get(cls, [[]])
        fitting = [f for f in choices if len(f) <= budget[0]] if depth < 40 else []
        frame = rng.choice(fitting) if fitting else min(choices, key=len)
        if not frame:
            return
        budget[0] -= len(frame)
        out.append("{")
        for label, dep_cls in frame:
            out.append(f"{node(dep_cls)}:{label}")
            expand(dep_cls, depth + 1)
        out.append("}")

    expand("V", 0)
    return " ".join(out)


def node_by_node_pairs(tree, rules):
    """Segment pairs from ``linearize_node`` at each overt node in
    post-order, dependents in arc order."""
    pairs = {}
    stack = [(tree.root, False)]
    while stack:
        node_id, done = stack.pop()
        if done:
            pairs[node_id] = tf.linearize_node(tree, node_id, pairs, rules)
            continue
        stack.append((node_id, True))
        stack.extend(
            (dep, False) for dep, _ in reversed(tree.dependents(node_id))
            if not tree.nodes[dep].covert
        )
    return pairs


@pytest.mark.parametrize("rule_file", sorted(FRAMES))
def test_shape_plans_match_node_by_node(rule_file):
    import random

    text = SHAPED_RULES if rule_file == "shaped" else corpus.read(rule_file)
    rules = tf.parse_rules(text)
    words, frames = FRAMES[rule_file]
    rng = random.Random(f"shape-plans {rule_file}")
    sizes = []
    for _ in range(70):
        tree = tf.parse_dependency(random_dep_text(rng, words, frames, rng.randrange(1, 60)))
        expected = node_by_node_pairs(tree, rules)
        assert tf.segment_pairs(tree, rules) == expected
        assert tf.linearize(tree, rules) == expected[tree.root].words()
        sizes.append(len(expected))
    assert sum(sizes) > 400  # trees big enough for shapes to repeat


def test_head_lexeme_named_by_a_rule_is_part_of_the_shape():
    # see and let have the same class and the same dependents (one
    # actant 1), but only let is named by a head.lex atom: each gets its
    # own rule whichever the post-order meets first.
    rules = tf.parse_rules(
        "class V = see let\n"
        "rule let when head.lex=let { y1 = head ++ deps(1) ; y2 = empty }\n"
        "rule other when head.cat=V and not head.lex=let { y1 = deps(1) ++ head ; y2 = empty }\n"
        "rule noun when not head.cat=V { y1 = head ; y2 = empty }\n"
    )
    tree = tf.parse_dependency("dep see { let:1 { Bob:1 } }")
    pairs = tf.segment_pairs(tree, rules)
    assert pairs["let"].as_strings() == ("let Bob", "")
    assert pairs["see"].as_strings() == ("let Bob see", "")
    tree = tf.parse_dependency("dep let { see:1 { Bob:1 } }")
    assert tf.linearize(tree, rules) == ["let", "Bob", "see"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("rule r when frob { y1 = head ; y2 = empty }", "cannot parse condition 'frob'"),
        (
            "class V = a\nclass V = b\nrule r when any { y1 = head ; y2 = empty }",
            "duplicate class 'V'",
        ),
        ("rule r when any { y3 = head }", "rule 'r': bad assignment 'y3 = head'"),
        ("rule r when any { y1 = head ; y1 = empty }", "rule 'r': y1 assigned twice"),
        ("class V = a b", "rule file declares no rules"),
        # A class ends at the end of its line, so a rule on that line is
        # read as the class's lexemes up to its brace.
        (
            "class V = a b rule r when any { y1 = head ; y2 = empty }",
            "unparsed rule-file content: '{ y1 = head ; y2 = empty }'",
        ),
        (
            "rule r when any { y1 = head ; y2 = empty }\nfrob\nclass V = a",
            "unparsed rule-file content: 'frob\\nclass V = a'",
        ),
    ],
)
def test_rule_format_error_messages(text, message):
    with pytest.raises(GrammarFormatError) as excinfo:
        tf.parse_rules(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "rules, message",
    [
        (
            "rule leaf when not exists dep { y1 = head ; y2 = empty }\n"
            "rule r when exists dep { y1 = head ++ dep.y1 ; y2 = dep.y2 }",
            "rule 'r': 'dep' is ambiguous at node 'a' (2 candidates) (at top/a)",
        ),
        (
            "class V = a\n"
            "rule leaf when not head.cat=V { y1 = head ; y2 = empty }\n"
            "rule r when head.cat=V { y1 = head ++ dep.y1 ; y2 = dep.y2 }",
            "rule 'r' uses 'dep' but node 'a' has no unique dependent to bind (at top/a)",
        ),
    ],
)
def test_dep_binding_errors_name_the_node(rules, message):
    tree = tf.parse_dependency("dep top { a:1 { b:1 c:2 } }")
    for entry in (tf.linearize, tf.segment_pairs):
        with pytest.raises(TagError) as excinfo:
            entry(tree, tf.parse_rules(rules))
        assert type(excinfo.value) is TagError
        assert str(excinfo.value) == message, entry.__name__


def test_word_conservation_holds_for_both_entry_points():
    """An overt node below a covert one has no place in the order, so
    ``linearize`` and ``segment_pairs`` both refuse the tree."""
    tree = tf.parse_dependency("dep zag { (PRO):1 { Wim:1 } }")
    rules = tf.parse_rules(corpus.read("dutch.syn"))
    for entry in (tf.linearize, tf.segment_pairs):
        with pytest.raises(TagError) as excinfo:
            entry(tree, rules)
        assert str(excinfo.value) == "word conservation violated: 1 words for 2 nodes", entry.__name__
