"""Derivation-to-dependency conversion, S-arc inversion, projectivity
and the dependency text format."""
import itertools
import random

import pytest

import tagforge as tf
from tagforge import corpus
from tagforge.dependency import resolve_order, serialize_dependency
from tagforge.derive import DerivationStep, DerivationTree
from tagforge.errors import GrammarFormatError, IncompleteOrder, InversionError

from conftest import (
    all_rooted_trees,
    load_script,
    oracle_projective,
    parent_array_to_dep_tree,
)


# -- derivation -> dependency ------------------------------------------


def test_fig7_dependency_identical_shape(english):
    script = load_script("fig7.drv", english)
    dep = tf.derivation_to_dependency(script, english)
    assert dep.nodes[dep.root].lexeme == "likes"
    deps = {(dep.nodes[d].lexeme, l) for d, l in dep.dependents(dep.root)}
    assert deps == {("John", "1"), ("Lyn", "2"), ("really", "ATTR")}


def test_wh_inversion_chain(english_wh):
    script = load_script("fig10.drv", english_wh)
    dep = tf.derivation_to_dependency(script, english_wh)
    # Both S arcs reversed: think heads claimed, claimed heads liked.
    assert dep.nodes[dep.root].lexeme == "think"
    chain = {}
    for head, child, label in dep.arcs:
        if label == "S":
            chain[dep.nodes[head].lexeme] = dep.nodes[child].lexeme
    assert chain == {"think": "claimed", "claimed": "liked"}
    liked = next(n for n in dep.nodes if dep.nodes[n].lexeme == "liked")
    liked_deps = {(dep.nodes[d].lexeme, l) for d, l in dep.dependents(liked)}
    assert ("Who", "2") in liked_deps
    assert ("Sarah", "1") in liked_deps


def test_single_node_derivation(english):
    script = tf.parse_script("use alpha2", english)
    dep = tf.derivation_to_dependency(script, english)
    assert list(dep.nodes) == ["alpha2"]
    assert dep.arcs == []


def test_no_s_arcs_is_identity_on_directions(dutch):
    script = load_script("fig13.drv", dutch)
    # Keep only the substitution (actant) arcs: directions must be copied.
    sub = DerivationTree(root=script.root)
    sub.instances = dict(script.instances)
    kept = [s for s in script.steps if s.arc_label != "S"]
    reachable = {script.root}
    changed = True
    while changed:
        changed = False
        for step in kept:
            if step.parent in reachable and step.child not in reachable:
                reachable.add(step.child)
                changed = True
    sub.steps = [s for s in kept if s.parent in reachable and s.child in reachable]
    sub.instances = {i: t for i, t in sub.instances.items() if i in reachable}
    dep = tf.derivation_to_dependency(sub, dutch)
    assert dep.root == script.root
    assert {(h, d) for h, d, _ in dep.arcs} == {
        (s.parent, s.child) for s in sub.steps
    }


def test_inversion_error_two_roots(english_wh):
    # Two S-children of one parent: inverting both leaves the parent with
    # two heads.
    script = DerivationTree(
        root="alpha_like",
        instances={
            "alpha_like": "alpha_like",
            "beta_claim": "beta_claim",
            "beta_think": "beta_think",
        },
        steps=[
            DerivationStep("adjoin", "beta_claim", "alpha_like", (2,), "S"),
            DerivationStep("adjoin", "beta_think", "alpha_like", (), "S"),
        ],
    )
    with pytest.raises(InversionError):
        tf.derivation_to_dependency(script, english_wh)


def test_node_count_and_lexeme_multiset_preserved(dutch):
    script = load_script("fig13.drv", dutch)
    dep = tf.derivation_to_dependency(script, dutch)
    assert len(dep.nodes) == len(script.instances)
    expected = sorted(
        dutch.tree(tid).anchor_lexeme for tid in script.instances.values()
    )
    assert sorted(n.lexeme for n in dep.nodes.values()) == expected


# -- projectivity ------------------------------------------------------


def test_fig7_projective():
    tree = tf.parse_dependency(
        "dep likes { John:1 Lyn:2 really:ATTR }"
    )
    order = resolve_order(tree, "John really likes Lyn".split())
    report = tf.is_projective(tree, order)
    assert report.projective
    assert report.violations == []


def test_fig8_non_projective():
    tree = tf.parse_dependency(corpus.read("fig8.dep"))
    order = resolve_order(
        tree, "who do you think that Mary claimed that Sarah liked".split()
    )
    report = tf.is_projective(tree, order)
    assert not report.projective
    assert any("who" in v for v in report.violations)


def test_fig12_non_projective():
    tree = tf.parse_dependency(corpus.read("fig12.dep"))
    order = resolve_order(
        tree, "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen".split()
    )
    report = tf.is_projective(tree, order)
    assert not report.projective
    assert report.violations


def test_incomplete_order():
    tree = tf.parse_dependency("dep likes { John:1 Lyn:2 }")
    with pytest.raises(IncompleteOrder):
        tf.is_projective(tree, ["John", "likes"])
    with pytest.raises(IncompleteOrder):
        resolve_order(tree, ["John", "likes"])
    with pytest.raises(IncompleteOrder):
        tf.is_projective(tree)  # no order at all


def test_covert_nodes_ignored():
    tree = tf.parse_dependency("dep helpen { Jan:1 (PRO):2 zwemmen:3 }")
    order = resolve_order(tree, "Jan zwemmen helpen".split())
    assert tf.is_projective(tree, order).projective


def test_projectivity_matches_oracle_small_exhaustive():
    # All rooted tree shapes on up to 4 nodes, under every surface order.
    # (The acceptance suite runs the full exhaustive check up to 7 nodes.)
    for n in range(1, 5):
        seen = set()
        for parent in all_rooted_trees(n):
            key = tuple(-1 if p is None else p for p in parent)
            if key in seen:
                continue
            seen.add(key)
            for order in itertools.permutations(range(n)):
                tree = parent_array_to_dep_tree(parent, order)
                got = tf.is_projective(tree).projective
                want = oracle_projective(parent, list(order))
                assert got == want, (parent, order)


def test_projectivity_matches_oracle_random_large():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randint(2, 10)
        parent = [None] * n
        for i in range(1, n):
            parent[i] = rng.randrange(i)  # parent among earlier nodes: acyclic
        order = list(range(n))
        rng.shuffle(order)
        tree = parent_array_to_dep_tree(parent, order)
        assert tf.is_projective(tree).projective == oracle_projective(parent, order)


def test_substitution_only_derivation_is_projective(english):
    script = tf.parse_script(
        "use alpha1\nsubst alpha2 -> alpha1 @ 1 label 1\nsubst alpha3 -> alpha1 @ 2.2 label 2",
        english,
    )
    derived, sentence = tf.run_derivation(english, script)
    dep = tf.derivation_to_dependency(script, english)
    order = resolve_order(dep, sentence.split())
    assert tf.is_projective(dep, order).projective


# -- text format -------------------------------------------------------


def test_dependency_round_trip():
    for name in ("fig8.dep", "fig12.dep", "fig18.dep"):
        tree = tf.parse_dependency(corpus.read(name))
        again = tf.parse_dependency(serialize_dependency(tree))
        assert again.root == tree.root
        assert set(again.nodes) == set(tree.nodes)
        assert sorted(again.arcs) == sorted(tree.arcs)


def test_duplicate_lexemes_get_suffixes():
    tree = tf.parse_dependency("dep saw { man:1 { the:ATTR } man:2 { the:ATTR } }")
    assert set(tree.nodes) == {"saw", "man", "man#2", "the", "the#2"}
    order = resolve_order(tree, "the man saw the man".split())
    assert order == ["the", "man", "saw", "the#2", "man#2"]


def test_dependency_format_errors():
    with pytest.raises(GrammarFormatError):
        tf.parse_dependency("likes { John:1 }")  # missing 'dep'
    with pytest.raises(GrammarFormatError):
        tf.parse_dependency("dep likes { John }")  # missing arc label
    with pytest.raises(GrammarFormatError):
        tf.parse_dependency("dep likes:1 { John:1 }")  # labeled root
    with pytest.raises(GrammarFormatError):
        tf.parse_dependency("dep likes { John:1 ")  # unclosed brace
    with pytest.raises(GrammarFormatError):
        tf.parse_dependency("dep likes { John:1 Lyn:1 }")  # duplicate actant


def test_dependency_without_root_node():
    with pytest.raises(GrammarFormatError, match="no root node"):
        tf.parse_dependency("dep\n")
    with pytest.raises(GrammarFormatError, match="no root node"):
        tf.parse_dependency("dep  # nothing but a comment\n")
