"""Chart recognizer/parser and the brute-force enumeration oracle."""
import json
import random
import warnings
from pathlib import Path

import pytest

import tagforge as tf
from tagforge import corpus
from tagforge.chart import UnparsedSets
from tagforge.errors import RefuseUnbounded

from conftest import load_script

GOLDEN = Path(__file__).parent / "data" / "derivations.json"
GOLDEN_GRAMMARS = ("english.tag", "english_wh.tag", "dutch.tag")


def derivation_lists(grammar, sentences):
    """``{sentence: [canonical derivation, ...]}`` as plain JSON values."""
    return {
        sentence: json.loads(
            json.dumps([d.canonical() for d in tf.parse(grammar, sentence.split()).derivations])
        )
        for sentence in sorted(sentences)
    }


def test_recognize_basic(english):
    assert tf.recognize(english, "John likes Lyn".split())
    assert tf.recognize(english, "John really likes Lyn".split())
    # Adjunction is recursive and optional: stacking "really" works.
    assert tf.recognize(english, "John really really likes Lyn".split())
    assert not tf.recognize(english, "likes John Lyn".split())
    assert not tf.recognize(english, [])
    assert not tf.recognize(english, ["John"])


def test_parse_fig7_unique_derivation(english):
    result = tf.parse(english, "John really likes Lyn".split())
    assert result.recognized
    assert len(result.derivations) == 1
    expected = load_script("fig7.drv", english)
    assert result.derivations[0] == expected


def test_parse_labels_match_convention(english):
    result = tf.parse(english, "John really likes Lyn".split())
    labels = {
        (d.parent, d.child): d.arc_label for d in result.derivations[0].steps
    }
    assert labels == {
        ("alpha1", "alpha2"): "1",
        ("alpha1", "alpha3"): "2",
        ("alpha1", "beta1"): "ATTR",
    }


def test_parse_empty_string(english):
    result = tf.parse(english, [])
    assert not result.recognized
    assert result.derivations == []


def test_parse_replays_to_input(english, english_wh, dutch):
    cases = [
        (english, "John really likes Lyn"),
        (english_wh, "Who do you think that Mary claimed that Sarah liked"),
        (dutch, "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen"),
    ]
    for grammar, sentence in cases:
        result = tf.parse(grammar, sentence.split())
        assert result.recognized
        for script in result.derivations:
            _, replayed = tf.run_derivation(grammar, script)
            assert replayed == sentence


def test_parse_dutch_dependency_projection(dutch):
    sentence = "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen"
    result = tf.parse(dutch, sentence.split())
    expected = tf.derivation_to_dependency(load_script("fig13.drv", dutch), dutch)
    projections = [
        tf.derivation_to_dependency(d, dutch) for d in result.derivations
    ]

    def shape(dep):
        def canon(node):
            kids = sorted(
                (label, canon(child)) for child, label in dep.dependents(node)
            )
            return (dep.nodes[node].lexeme, tuple(kids))

        return canon(dep.root)

    assert shape(expected) in [shape(p) for p in projections]


def test_parse_cap(english):
    grammar = tf.parse_grammar(
        'start S\ntree a initial (S (S NP! (VP (V "likes"@) NP!)))\n'
        'tree n1 initial (NP "John"@)\n'
        "tree b aux (S \"really\"@ S*)\n"
    )
    sentence = "really really John likes John".split()
    full = tf.parse(grammar, sentence, cap=100)
    capped = tf.parse(grammar, sentence, cap=1)
    assert capped.recognized
    assert len(capped.derivations) == 1
    assert len(full.derivations) >= len(capped.derivations)


def test_enumerate_examples(english):
    no_aux = tf.Grammar(
        trees={k: v for k, v in english.trees.items() if v.shape == "initial"},
        start_symbol="S",
    )
    assert tf.enumerate_language(no_aux, 3) == {
        "John likes Lyn",
        "Lyn likes John",
        "John likes John",
        "Lyn likes Lyn",
    }
    with_aux = tf.enumerate_language(english, 4)
    assert with_aux == {
        "John likes Lyn",
        "Lyn likes John",
        "John likes John",
        "Lyn likes Lyn",
        "John really likes Lyn",
        "Lyn really likes John",
        "John really likes John",
        "Lyn really likes Lyn",
    }
    assert tf.enumerate_language(english, 0) == set()


def test_enumerate_refuses_unlexicalized():
    rules = [
        tf.CfgRule("S", ("NP", "VP")),
        tf.CfgRule("NP", (tf.Word("John"),)),
    ]
    trees = tf.cfg_to_trees(rules)
    grammar = tf.Grammar(trees={t.id: t for t in trees}, start_symbol="S")
    with pytest.raises(RefuseUnbounded):
        tf.enumerate_language(grammar, 3)


def test_tree_sets_warn_and_are_skipped(german_mc):
    with pytest.warns(UnparsedSets):
        recognized = tf.recognize(german_mc, ["den", "Verdächtigen"])
    assert not recognized
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # Without the set, only the incomplete base trees exist; the full
        # scrambled sentence is not parseable and enumeration is tiny.
        lang = tf.enumerate_language(german_mc, 6)
        assert all("verspricht" not in s for s in lang)


def test_recognize_agrees_with_oracle_random(english, dutch):
    rng = random.Random(4)
    for grammar in (english, dutch):
        lang = tf.enumerate_language(grammar, 5)
        for sentence in sorted(lang)[:50]:
            assert tf.recognize(grammar, sentence.split())
        vocab = sorted({w for s in lang for w in s.split()})
        rejected = 0
        tried = 0
        while tried < 100:
            k = rng.randint(1, 5)
            candidate = " ".join(rng.choice(vocab) for _ in range(k))
            if candidate in lang:
                continue
            tried += 1
            # Lexicalization bounds tree count by word count, so any
            # string of <= 5 words outside enumerate(.,5) is underivable.
            if not tf.recognize(grammar, candidate.split()):
                rejected += 1
        assert rejected == tried


def test_parse_stats(english):
    result = tf.parse(english, "John likes Lyn".split())
    assert result.stats["words"] == 3
    assert result.stats["items"] > 0
    assert result.stats["wall_time_s"] >= 0
    # The lexical filter drops beta1, whose word "really" is absent.
    assert result.stats["trees"] == 3
    assert tf.parse(english, "John really likes Lyn".split()).stats["trees"] == 4


def test_derivation_lists_match_golden():
    """The golden lists cover ``enumerate_language(g, 5)`` on three corpus
    grammars. They were recorded with the parser that built a foot item
    for every span and filled the chart with every tree of the grammar."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == list(GOLDEN_GRAMMARS)
    for name in GOLDEN_GRAMMARS:
        grammar = tf.parse_grammar(corpus.read(name))
        lists = derivation_lists(grammar, tf.enumerate_language(grammar, 5))
        assert lists == golden[name], name


def test_derivations_invariant_under_unrelated_trees(english):
    extra = []
    for i in range(10):
        extra += [
            f'tree x_np{i} initial (NP "name{i}"@)',
            f'tree x_adv{i} aux (VP "adv{i}"@ VP*)',
            f'tree x_verb{i} initial (S NP! (VP (V "verb{i}"@) NP!))',
            # Anchored by an input word, with a terminal the input lacks.
            f'tree x_likes{i} initial (S NP! (VP (V "likes"@) "part{i}" NP!))',
        ]
    bigger = tf.parse_grammar(corpus.read("english.tag") + "\n".join(extra) + "\n")
    assert len(bigger.trees) == len(english.trees) + 40
    sentences = tf.enumerate_language(english, 5)
    assert derivation_lists(bigger, sentences) == derivation_lists(english, sentences)
    words = "John really likes Lyn".split()
    assert tf.parse(bigger, words).stats["trees"] == tf.parse(english, words).stats["trees"]


def _adverbs(k):
    return ["John"] + ["really"] * k + ["likes", "Lyn"]


def test_chart_items_bounded_on_adverb_stacking(english):
    result = tf.parse(english, _adverbs(128), cap=1)
    assert result.recognized
    assert result.stats["items"] <= 10_000


def test_recognize_long_adverb_stack(english):
    assert tf.recognize(english, _adverbs(600))


# PP attachment: each "with N" adjoins at a VP or at an NP to its left,
# so `N saw N (with N)^k` has catalan(k + 1) derivations.
PP_GRAMMAR = """
start S
tree alpha_saw       initial (S NP! (VP (V "saw"@) NP!))
tree alpha_john      initial (NP "John"@)
tree alpha_lyn       initial (NP "Lyn"@)
tree alpha_telescope initial (NP "telescope"@)
tree beta_vp_with    aux     (VP VP* (PP (P "with"@) NP!))
tree beta_np_with    aux     (NP NP* (PP (P "with"@) NP!))
"""


def test_pp_attachment_derivations_in_canonical_order():
    grammar = tf.parse_grammar(PP_GRAMMAR)
    words = "John saw Lyn".split() + ["with", "telescope"] * 6
    full = [d.canonical() for d in tf.parse(grammar, words, cap=500).derivations]
    assert len(full) == 429  # catalan(7)
    assert len(set(full)) == 429
    head = [d.canonical() for d in tf.parse(grammar, words, cap=50).derivations]
    assert head == full[:50]


def test_parse_never_returns_a_derivation_twice():
    """Each item and backpointer is stored once, so no derivation is read
    off the chart twice; ``parse`` keeps no dedupe of its own.  ``parse``
    does not replay what it returns either, so every derivation is
    replayed here and must yield its sentence."""
    for name in GOLDEN_GRAMMARS:
        grammar = tf.parse_grammar(corpus.read(name))
        for sentence in sorted(tf.enumerate_language(grammar, 6)):
            result = tf.parse(grammar, sentence.split(), cap=10**6)
            keys = [d.canonical() for d in result.derivations]
            assert len(set(keys)) == len(keys), sentence
            for derivation in result.derivations:
                assert tf.run_derivation(grammar, derivation)[1] == sentence


CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862)


def test_parse_cap_returns_a_prefix_of_all_derivations():
    grammar = tf.parse_grammar(PP_GRAMMAR)
    for k in range(9):
        words = "John saw Lyn".split() + ["with", "telescope"] * k
        derivations = tf.parse(grammar, words, cap=10**6).derivations
        for derivation in derivations:
            assert tf.run_derivation(grammar, derivation)[1] == " ".join(words)
        full = [d.canonical() for d in derivations]
        assert len(full) == CATALAN[k + 1]
        for cap in (1, 7, 50, 500):
            head = [d.canonical() for d in tf.parse(grammar, words, cap=cap).derivations]
            assert len(head) == min(cap, len(full))
            assert head == full[:cap]
