"""Chart recognizer/parser and the brute-force enumeration oracle."""
import hashlib
import json
import random
import warnings
from pathlib import Path

import pytest

import tagforge as tf
from tagforge import chart, cli, corpus
from tagforge.chart import UnparsedSets
from tagforge.errors import RefuseUnbounded
from tagforge.exports import derivation_from_json, derivation_to_json

from conftest import load_script
from test_random_grammars import GRAMMARS, random_grammar

GOLDEN = Path(__file__).parent / "data" / "derivations.json"
DIGESTS = Path(__file__).parent / "data" / "derivation_digests.json"
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


def derivation_digest(derivations):
    """sha256 of the ``derivation_to_json`` list: unlike ``canonical()``,
    it pins the root, the instance names, the step order, the sites and
    the labels, and the order of the list."""
    text = json.dumps([derivation_to_json(d) for d in derivations])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derivation_digests():
    """Digests of PP k=0..8 at caps 1, 7 and 500, and of every
    ``enumerate_language(g, 5)`` sentence of three corpus grammars at the
    default cap."""
    pp = tf.parse_grammar(PP_GRAMMAR)
    digests = {"pp": {}}
    for k in range(9):
        words = "John saw Lyn".split() + ["with", "telescope"] * k
        digests["pp"][f"k={k}"] = {
            str(cap): derivation_digest(tf.parse(pp, words, cap=cap).derivations)
            for cap in (1, 7, 500)
        }
    for name in GOLDEN_GRAMMARS:
        grammar = tf.parse_grammar(corpus.read(name))
        digests[name] = {
            sentence: derivation_digest(tf.parse(grammar, sentence.split()).derivations)
            for sentence in sorted(tf.enumerate_language(grammar, 5))
        }
    return digests


def test_derivation_digests_match_golden():
    """The digests were recorded with the earlier enumerator, made of
    recursive generators and a recursive walk per derivation."""
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert derivation_digests() == golden


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
    """The word-context filter keeps only the stacked adverbs' items that
    end where the verb phrase must end, so items grow linearly in k."""
    result = tf.parse(english, _adverbs(128), cap=1)
    assert result.recognized
    assert result.stats["items"] <= 1_000
    doubled = tf.parse(english, _adverbs(256), cap=1)
    assert doubled.recognized
    assert doubled.stats["items"] <= 2.1 * result.stats["items"]


def test_word_contexts_follow_grammar_changes():
    """The word-context table is kept with the grammar and rebuilt when a
    tree or the start symbol changes.  Each edit below uses only words the
    grammar already has, so only a stale table would refuse the sentence
    it makes parse.  No tree substitutes a Q, so ``alpha_q`` can take part
    in a parse only once Q is the start symbol."""
    grammar = tf.parse_grammar(corpus.read("english.tag") + 'tree alpha_q initial (Q "John"@)\n')

    def put(text):
        tree = tf.parse_grammar(text).trees.popitem()[1]
        return lambda: grammar.trees.__setitem__(tree.id, tree)

    edits = [
        ("John likes really Lyn", put('tree beta_np aux (NP "really"@ NP*)')),
        # A new tree object under an old id.
        ("John likes Lyn really", put('tree beta1 aux (VP VP* "really"@)')),
        ("John", lambda: setattr(grammar, "start_symbol", "Q")),
    ]
    for sentence, edit in edits:
        words = sentence.split()
        assert not tf.recognize(grammar, words), sentence
        assert not tf.parse(grammar, words).recognized, sentence
        edit()
        assert tf.recognize(grammar, words), sentence
        assert len(tf.parse(grammar, words).derivations) == 1, sentence


def _state_keys(grammar):
    """Each state kind's keys in state order, checked against the
    grammar's nodes: T (tree id, address), P (tree id, address, k) for
    k >= 2, and the links between them.  A first child's T state stands
    for its parent's first child done, so it links on like a P state."""
    states = chart._chart_states(grammar)
    nodes = {
        (tid, addr): node for tid, tree in grammar.trees.items() for addr, node in tree.nodes.items()
    }
    t_keys = [(states.tids[s], states.addrs[s]) for s in range(states.first_part)]
    top = {key: s for s, key in enumerate(t_keys)}
    assert top.keys() == nodes.keys()
    p_keys = []
    for p in range(states.first_part, len(states.tids)):
        key = (states.tids[p], states.addrs[p])
        if states.next_child[p] < 0:
            k = len(nodes[key].children)
            assert states.top_of[p] == top[key]
        else:
            k = states.addrs[states.next_child[p]][-1] - 1
            assert states.next_child[p] == top[key[0], key[1] + (k + 1,)]
            assert states.top_of[p] == -1
        p_keys.append(key + (k,))
    widths = {key: len(node.children) for key, node in nodes.items()}
    assert set(p_keys) == {key + (k,) for key, width in widths.items() for k in range(2, width + 1)}
    for (tid, addr), s in top.items():
        k = addr[-1] if addr else 0
        if k > 1:
            p = states.parent_part[s]
            assert p_keys[p - states.first_part] == (tid, addr[:-1], k)
        else:
            assert states.parent_part[s] == -1
        if k != 1:
            assert states.next_child[s] == states.top_of[s] == -1
        elif widths[tid, addr[:-1]] == 1:
            assert states.top_of[s] == top[tid, addr[:-1]] and states.next_child[s] == -1
        else:
            assert states.next_child[s] == top[tid, addr[:-1] + (2,)] and states.top_of[s] == -1
    return t_keys, p_keys


def test_state_numbers_sort_like_their_keys(english, english_wh, dutch, german_mc):
    """Within each kind, state numbers sort like their (tree id, address,
    k) keys, so int items compare as the items they stand for and sorted
    backpointers keep the canonical derivation order."""
    grammars = [english, english_wh, dutch, german_mc]
    seeds = random.Random(15).sample(range(GRAMMARS), 40)
    grammars += [tf.parse_grammar(random_grammar(seed)) for seed in seeds]
    for grammar in grammars:
        for keys in _state_keys(grammar):
            assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_item_counts_are_pinned(english):
    """The chart builds exactly these items; a change of item encoding or
    filter order leaves the counts as they are."""
    for k, items in ((96, 396), (128, 524), (256, 1_036), (600, 2_412)):
        assert tf.parse(english, _adverbs(k), cap=1).stats["items"] == items, k
    words = "John saw Lyn".split() + ["with", "telescope"] * 8
    assert tf.parse(tf.parse_grammar(PP_GRAMMAR), words, cap=1).stats["items"] == 656


def test_recognize_long_adverb_stack(english):
    assert tf.recognize(english, _adverbs(600))


def test_parse_long_adverb_stack(english, capsys):
    """600 stacked adjunctions: enumeration, the build and replay use
    explicit stacks, so a derivation this deep raises no RecursionError,
    in the library or through the CLI's JSON output, and replays to its
    sentence."""
    result = tf.parse(english, _adverbs(600), cap=1)
    assert result.recognized
    [derivation] = result.derivations
    assert len(derivation.steps) == 602
    assert result.stats["items"] <= 5_000
    assert list(derivation.instances.values()).count("beta1") == 600
    sentence = " ".join(_adverbs(600))
    assert tf.run_derivation(english, derivation)[1] == sentence
    argv = ["parse", "-g", "corpus:english.tag", sentence, "--cap", "1", "--format", "json"]
    assert cli.main(argv) == 0
    [shown] = json.loads(capsys.readouterr().out)["derivations"]
    assert len(shown["steps"]) == 602


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
        for cap in (1, 2, 3, 7, 13, 50, 131, 500):
            head = [d.canonical() for d in tf.parse(grammar, words, cap=cap).derivations]
            assert len(head) == min(cap, len(full))
            assert head == full[:cap]


def test_derivation_step_is_an_immutable_value():
    step = tf.DerivationStep("adjoin", "beta1", "alpha1", (2,), "ATTR")
    assert (step.op, step.child, step.parent, step.site, step.arc_label) == (
        "adjoin", "beta1", "alpha1", (2,), "ATTR"
    )
    with pytest.raises(AttributeError):
        step.site = (1,)
    same = tf.DerivationStep("adjoin", "beta1", "alpha1", (2,), "ATTR")
    assert step == same and hash(step) == hash(same)
    assert step != step._replace(arc_label="S")
    assert len({step, same}) == 1
    grammar = tf.parse_grammar(PP_GRAMMAR)
    words = "John saw Lyn".split() + ["with", "telescope"] * 6
    derivations = tf.parse(grammar, words, cap=500).derivations
    assert len(derivations) == CATALAN[7]
    for derivation in derivations:
        back = derivation_from_json(derivation_to_json(derivation))
        assert back.root == derivation.root
        assert list(back.instances.items()) == list(derivation.instances.items())
        assert back.steps == derivation.steps
        assert all(type(step) is tf.DerivationStep for step in back.steps)


def test_parse_shares_steps_but_not_derivations():
    """One parse builds each distinct step once, and the derivations it
    returns share it (a step is an immutable value).  Each derivation
    still owns its ``steps`` list and ``instances`` dict."""
    grammar = tf.parse_grammar(PP_GRAMMAR)
    words = "John saw Lyn".split() + ["with", "telescope"] * 6
    derivations = tf.parse(grammar, words, cap=500).derivations
    steps = [step for derivation in derivations for step in derivation.steps]
    assert len(steps) == 6006
    assert len(set(steps)) == 86
    assert len({id(step) for step in steps}) == 86

    def contents(derivations):
        return [(list(d.instances.items()), list(d.steps)) for d in derivations]

    before = contents(derivations)
    first = derivations[0]
    first.steps.append(first.steps[0])
    first.instances["extra"] = "alpha_john"
    assert contents(derivations[1:]) == before[1:]
    assert contents(tf.parse(grammar, words, cap=500).derivations) == before


# `c` substitutes an S into its own S leaf and has no word, so the chart
# item for its leaf over "x" would derive itself.  In the two-tree
# grammars the cycle runs through two items: `c` takes a T, and `d` makes
# a T of an S.
CYCLIC_AFTER = 'start S\ntree b initial (S "x"@)\ntree c initial (S S!)\n'
CYCLIC_FIRST = 'start S\ntree a initial (S S!)\ntree b initial (S "x"@)\n'
CYCLIC_PAIR_AFTER = (
    'start S\ntree b initial (S "x"@)\ntree c initial (S T!)\ntree d initial (T S!)\n'
)
CYCLIC_PAIR_FIRST = (
    'start S\ntree a initial (S T!)\ntree d initial (T S!)\ntree z initial (S "x"@)\n'
)


def test_parse_refuses_wordless_trees(cfg_english, monkeypatch):
    """Only a tree with no word can make a chart item derive itself, so
    ``parse`` refuses a grammar that has one, before fill and at every
    cap, and names those trees.  ``recognize`` still accepts the grammar;
    its verdicts were recorded before ``parse`` refused."""
    cases = [
        (tf.parse_grammar(CYCLIC_AFTER), ["c"], {"x": True, "x x": False}),
        (tf.parse_grammar(CYCLIC_FIRST), ["a"], {"x": True, "x x": False}),
        (tf.parse_grammar(CYCLIC_PAIR_AFTER), ["c", "d"], {"x": True, "x x": False}),
        (tf.parse_grammar(CYCLIC_PAIR_FIRST), ["a", "d"], {"x": True, "x x": False}),
        (
            cfg_english,
            ["r1", "r3"],
            {"John really likes Lyn": True, "likes John Lyn": False},
        ),
    ]

    def no_fill(self):
        raise AssertionError("parse filled the chart")

    for grammar, wordless, verdicts in cases:
        for sentence, verdict in verdicts.items():
            with monkeypatch.context() as patch:
                patch.setattr(chart._Chart, "run", no_fill)
                for cap in (0, 1, 4, 100):
                    with pytest.raises(RefuseUnbounded) as excinfo:
                        tf.parse(grammar, sentence.split(), cap=cap)
                    assert str(excinfo.value).rsplit(": ", 1)[1].split(", ") == wordless
            assert tf.recognize(grammar, sentence.split()) is verdict


def test_recognize_cfg_and_its_lexicalized_tag_agree(english, cfg_english):
    """The paper's comparison: criterion 8's CFG, whose trees ``parse``
    refuses, and ``english.tag`` recognize the same strings, both on the
    TAG's sentences of up to 6 trees and on seeded corruptions of them
    (a word dropped, inserted or swapped)."""
    sentences = sorted(tf.enumerate_language(english, 6))
    assert len(sentences) == 16
    for sentence in sentences:
        assert tf.recognize(cfg_english, sentence.split())
    vocab = sorted({w for s in sentences for w in s.split()})
    rng = random.Random(11)
    verdicts = []
    for sentence in sentences:
        for _ in range(12):
            words = sentence.split()
            edit = rng.choice(("drop", "insert", "swap"))
            if edit == "drop":
                del words[rng.randrange(len(words))]
            elif edit == "insert":
                words.insert(rng.randrange(len(words) + 1), rng.choice(vocab))
            else:
                i, j = rng.sample(range(len(words)), 2)
                words[i], words[j] = words[j], words[i]
            verdict = tf.recognize(english, words)
            assert tf.recognize(cfg_english, words) == verdict, words
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
