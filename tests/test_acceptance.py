"""Acceptance suite: the nine reproduction and property criteria.

Each test prints one PASS/FAIL line (bypassing pytest's capture so the
verdicts always appear in the run log) and then asserts.
"""
import math
import random
import statistics
import time
import warnings

import tagforge as tf
from tagforge import corpus
from tagforge.dependency import resolve_order
from tagforge.derive import PhraseTree
from tagforge.grammar import Word
from tagforge.trees import count_nodes, frontier, yield_words

import conftest
from conftest import (
    all_rooted_trees,
    load_script,
    oracle_projective,
    parent_array_to_dep_tree,
    random_auxiliary,
    random_initial,
)


def report(number: int, name: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} ({name}): {verdict}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_adverb_placement(english):
    script = load_script("fig7.drv", english)
    _, sentence = tf.run_derivation(english, script)
    arcs = {
        (english.trees[script.instances[s.parent]].anchor_lexeme,
         english.trees[script.instances[s.child]].anchor_lexeme): s.arc_label
        for s in script.steps
    }
    ok = sentence == "John really likes Lyn" and arcs == {
        ("likes", "John"): "1",
        ("likes", "Lyn"): "2",
        ("likes", "really"): "ATTR",
    }
    report(1, "adverb placement", ok)


def test_criterion_2_embedded_wh(english_wh):
    script = load_script("fig10.drv", english_wh)
    _, sentence = tf.run_derivation(english_wh, script)
    dep = tf.derivation_to_dependency(script, english_wh)
    chain = {
        dep.nodes[h].lexeme: dep.nodes[d].lexeme
        for h, d, l in dep.arcs
        if l == "S"
    }
    ok = (
        sentence == "Who do you think that Mary claimed that Sarah liked"
        and dep.nodes[dep.root].lexeme == "think"
        and chain == {"think": "claimed", "claimed": "liked"}
    )
    report(2, "embedded wh", ok)


def test_criterion_3_dutch_cross_serial(dutch):
    script = load_script("fig13.drv", dutch)
    _, sentence = tf.run_derivation(dutch, script)
    rules = tf.parse_rules(corpus.read("dutch.syn"))
    tree = tf.parse_dependency(corpus.read("fig18.dep"))
    pairs = tf.segment_pairs(tree, rules)
    linearized = " ".join(tf.linearize(tree, rules))
    ok = (
        sentence == "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen"
        and pairs["leren"].as_strings() == ("de kinderen", "leren zwemmen")
        and pairs["helpen"].as_strings()
        == ("Jan Marie de kinderen", "helpen leren zwemmen")
        and linearized == "omdat Wim Jan Marie de kinderen zien helpen leren zwemmen"
    )
    report(3, "Dutch cross-serial", ok)


def test_criterion_4_german_scrambling(german_mc):
    target = PhraseTree.from_elementary(german_mc.tree("alpha_inf"))
    target = tf.substitute(target, (2, 1), german_mc.tree("np_acc"))
    target = tf.substitute(target, (1, 1), german_mc.tree("np_gen"))
    out = tf.adjoin_set(target, [(1,), (2, 2)], german_mc.tree_sets["sigma_m"])
    ok = out.sentence() == (
        "daß des Verbrechens der Detektiv den Verdächtigen niemandem "
        "zu überführen verspricht"
    )
    report(4, "German scrambling via MC-TAG", ok)


def test_criterion_5_projectivity_suite():
    fig7 = tf.parse_dependency("dep likes { John:1 Lyn:2 really:ATTR }")
    fig7_report = tf.is_projective(
        fig7, resolve_order(fig7, "John really likes Lyn".split())
    )
    fig8 = tf.parse_dependency(corpus.read("fig8.dep"))
    fig8_report = tf.is_projective(
        fig8,
        resolve_order(
            fig8, "who do you think that Mary claimed that Sarah liked".split()
        ),
    )
    fig12 = tf.parse_dependency(corpus.read("fig12.dep"))
    fig12_report = tf.is_projective(
        fig12,
        resolve_order(
            fig12, "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen".split()
        ),
    )
    golden_ok = (
        fig7_report.projective
        and not fig8_report.projective
        and fig8_report.violations
        and not fig12_report.projective
        and fig12_report.violations
    )

    # Exhaustive: every rooted tree on <= 7 labeled positions with the
    # identity order covers, up to renaming, every (shape, order) pair.
    disagreements = 0
    for n in range(1, 8):
        for parent in all_rooted_trees(n):
            tree = parent_array_to_dep_tree(parent)
            if tf.is_projective(tree).projective != oracle_projective(
                parent, list(range(n))
            ):
                disagreements += 1
    report(5, "projectivity suite", bool(golden_ok) and disagreements == 0)


def test_criterion_6_parser_oracle_equivalence(english, english_wh, dutch, german_mc):
    rng = random.Random(20260823)
    ok = True
    for grammar, golden in (
        (english, "John really likes Lyn"),
        (english_wh, "Who do you think that Mary claimed that Sarah liked"),
        (dutch, "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen"),
        (german_mc, None),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lang = tf.enumerate_language(grammar, 6)
            ok &= all(tf.recognize(grammar, s.split()) for s in sorted(lang))
            # Lexicalization: a string of <= 6 words needs <= 6 trees, so
            # anything that short outside the enumeration is underivable.
            vocab = sorted({w for s in lang for w in s.split()})
            tried = 0
            while tried < 1000:
                k = rng.randint(1, 6)
                candidate = " ".join(rng.choice(vocab) for _ in range(k))
                if candidate in lang:
                    continue
                tried += 1
                ok &= not tf.recognize(grammar, candidate.split())
            if golden is not None:
                result = tf.parse(grammar, golden.split())
                ok &= result.recognized and bool(result.derivations)
                for script in result.derivations:
                    _, replayed = tf.run_derivation(grammar, script)
                    ok &= replayed == golden
    report(6, "parser oracle equivalence", ok)


def test_criterion_7_yield_splice_property():
    rng = random.Random(7)
    violations = 0
    for _ in range(10_000):
        host = random_initial(rng, "S")
        target = PhraseTree.from_elementary(host)
        subst_sites = host.substitution_addresses()
        if subst_sites and rng.random() < 0.5:
            site = rng.choice(subst_sites)
            filler = random_initial(rng, host.node_at(site).label)
            out = tf.substitute(target, site, filler)
            if count_nodes(out.root) != (
                count_nodes(target.root) + count_nodes(filler.root) - 1
            ):
                violations += 1
        else:
            site = rng.choice(host.interior_addresses())
            aux = random_auxiliary(rng, host.node_at(site).label)
            out = tf.adjoin(target, site, aux)
            node_law = count_nodes(out.root) == (
                count_nodes(target.root) + count_nodes(aux.root) - 1
            )
            foot = aux.foot_addresses()[0]
            left, right, seen_foot = [], [], False
            for addr, node in frontier(aux.root):
                if addr == foot:
                    seen_foot = True
                elif node.kind in ("anchor", "terminal"):
                    (right if seen_foot else left).append(node.label)
            site_yield = yield_words(target.node_at(site))
            spliced = left + site_yield + right
            got = yield_words(out.root)
            n = len(spliced)
            splice_law = any(
                got[i : i + n] == spliced for i in range(len(got) - n + 1)
            ) and sorted(got) == sorted(yield_words(target.root) + left + right)
            if not (node_law and splice_law):
                violations += 1
    report(7, "yield-splice property", violations == 0)


def test_criterion_8_lexicalization_checks():
    rules = [
        tf.CfgRule("S", ("NP", "VP")),
        tf.CfgRule("VP", (Word("really"), "VP")),
        tf.CfgRule("VP", ("V", "NP")),
        tf.CfgRule("V", (Word("likes"),)),
        tf.CfgRule("NP", (Word("John"),)),
        tf.CfgRule("NP", (Word("Lyn"),)),
    ]
    as_trees = tf.cfg_to_trees(rules)
    cfg_grammar = tf.Grammar(trees={t.id: t for t in as_trees}, start_symbol="S")
    cfg_report = tf.check_lexicalized(cfg_grammar)

    tsg = tf.parse_grammar(corpus.read("english.tag"))
    tsg_report = tf.check_lexicalized(tsg)

    composed = tf.compose_rules(rules, [(0, 0), (2, 2), (3, 1)], tree_id="alpha1")
    ok = (
        not cfg_report.lexicalized
        and set(cfg_report.offenders) == {"r1", "r3"}  # S->NP VP, VP->V NP
        and tsg_report.lexicalized
        and composed.root == tsg.trees["alpha1"].root
    )
    report(8, "lexicalization checks", ok)


def test_criterion_9_polynomial_smoke():
    grammar = tf.parse_grammar(
        "start S\n"
        'tree alpha_zw initial (S (S NP!) (S "zwemmen"@))\n'
        'tree beta_help aux (S (S NP! S*) "helpen"@)\n'
        'tree np_jan initial (NP "Jan"@)\n'
    )
    sizes, times = [], []
    for k in range(1, 9):
        words = ["Jan"] * (k + 1) + ["helpen"] * k + ["zwemmen"]
        best = min(
            _timed_parse(grammar, words) for _ in range(3)
        )
        sizes.append(len(words))
        times.append(best)
    slope = statistics.linear_regression(
        [math.log(n) for n in sizes], [math.log(t) for t in times]
    ).slope
    conftest.ACCEPTANCE_LINES.append(
        f"  cross-serial parse times {['%.4fs' % t for t in times]}, "
        f"log-log slope {slope:.2f}"
    )
    report(9, "polynomial smoke test", bool(slope <= 7.0))


def _timed_parse(grammar, words):
    start = time.perf_counter()
    result = tf.parse(grammar, words, cap=1)
    assert result.recognized
    return time.perf_counter() - start
