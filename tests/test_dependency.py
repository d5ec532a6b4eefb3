"""Derivation-to-dependency conversion, S-arc inversion, projectivity
and the dependency text format."""
import itertools
import random

import pytest

import tagforge as tf
from tagforge import corpus
from tagforge.dependency import DepNode, DependencyTree, resolve_order, serialize_dependency
from tagforge.derive import DerivationStep, DerivationTree
from tagforge.errors import GrammarFormatError, IncompleteOrder, InversionError
from tagforge.exports import dependency_from_json, dependency_to_dot, dependency_to_json

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


def test_fig8_violation_text():
    tree = tf.parse_dependency(corpus.read("fig8.dep"))
    order = resolve_order(
        tree, "who do you think that Mary claimed that Sarah liked".split()
    )
    assert tf.is_projective(tree, order).violations == [
        "arc liked-2->who covers you, which is not a dependent of liked",
        "arc liked-2->who covers think, which is not a dependent of liked",
        "arc liked-2->who covers Mary, which is not a dependent of liked",
        "arc liked-2->who covers claimed, which is not a dependent of liked",
        "arc liked-2->who covers the root think",
    ]


def test_fig12_violation_text():
    tree = tf.parse_dependency(corpus.read("fig12.dep"))
    order = resolve_order(
        tree, "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen".split()
    )
    assert tf.is_projective(tree, order).violations == [
        "arc helpen-1->Jan covers zag, which is not a dependent of helpen",
        "arc leren-1->Marie covers zag, which is not a dependent of leren",
        "arc leren-1->Marie covers helpen, which is not a dependent of leren",
        "arc zwemmen-1->kinderen covers zag, which is not a dependent of zwemmen",
        "arc zwemmen-1->kinderen covers helpen, which is not a dependent of zwemmen",
        "arc zwemmen-1->kinderen covers leren, which is not a dependent of zwemmen",
    ]


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


def reference_violations(tree, order):
    """The original projectivity check (cubic on chains: it scans every
    arc per descendant step), kept as the reference for the violation
    lists."""

    def descendants(node_id):
        out = set()
        stack = [node_id]
        while stack:
            top = stack.pop()
            for dep in [d for h, d, _ in tree.arcs if h == top]:
                if dep not in out:
                    out.add(dep)
                    stack.append(dep)
        return out

    overt = {n.id for n in tree.overt_nodes()}
    position = {node_id: i for i, node_id in enumerate(order) if node_id in overt}
    violations = []
    desc = {n: descendants(n) for n in tree.nodes}
    root_pos = position.get(tree.root)
    for head, dep, label in tree.arcs:
        if head not in position or dep not in position:
            continue
        lo, hi = sorted((position[head], position[dep]))
        for other, pos in position.items():
            if lo < pos < hi and other != head and other not in desc[head]:
                violations.append(
                    f"arc {tree.nodes[head].lexeme}-{label}->{tree.nodes[dep].lexeme} "
                    f"covers {tree.nodes[other].lexeme}, which is not a dependent of "
                    f"{tree.nodes[head].lexeme}"
                )
        if root_pos is not None and head != tree.root and lo < root_pos < hi:
            violations.append(
                f"arc {tree.nodes[head].lexeme}-{label}->{tree.nodes[dep].lexeme} "
                f"covers the root {tree.nodes[tree.root].lexeme}"
            )
    return violations


def random_dep_tree(rng, n):
    """A random tree on ``n`` nodes with shuffled ids and arc order,
    repeated lexemes and about one covert node in five; returns the tree
    and its children lists."""
    ids = [f"n{i}" for i in range(n)]
    rng.shuffle(ids)
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    tree = DependencyTree(root=ids[0])
    for i, node_id in enumerate(ids):
        covert = i > 0 and rng.random() < 0.2
        tree.nodes[node_id] = DepNode(node_id, f"w{rng.randrange(8)}", covert=covert)
    arcs = [(ids[p], ids[i], "ATTR") for i, p in enumerate(parent) if p is not None]
    rng.shuffle(arcs)
    tree.arcs.extend(arcs)
    children = {node_id: [] for node_id in ids}
    for head, dep, _ in arcs:
        children[head].append(dep)
    return tree, children


def projective_order(rng, tree, children):
    """A random order in which every subtree is contiguous."""
    blocks = {}
    stack = [tree.root]
    preorder = []
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(children[node])
    for node in reversed(preorder):
        parts = [blocks.pop(c) for c in children[node]]
        rng.shuffle(parts)
        parts.insert(rng.randrange(len(parts) + 1), [node])
        blocks[node] = [x for part in parts for x in part]
    return blocks[tree.root]


def test_violations_match_reference_on_random_trees():
    rng = random.Random(4)
    kinds = {"projective": 0, "non-projective": 0}
    for trial in range(400):
        tree, children = random_dep_tree(rng, rng.randint(2, 60))
        order = projective_order(rng, tree, children)
        if trial % 2:  # move one word: often, not always, non-projective
            order.insert(rng.randrange(len(order)), order.pop(rng.randrange(len(order))))
        if trial % 3 == 0:
            order = [n for n in order if not tree.nodes[n].covert]
        if trial % 5 == 0:
            order.insert(rng.randrange(len(order) + 1), rng.choice(order))
        if trial % 7 == 0:
            rng.shuffle(order)
        report = tf.is_projective(tree, order)
        assert report.violations == reference_violations(tree, order), (tree, order)
        assert report.projective == (not report.violations)
        kinds["projective" if report.projective else "non-projective"] += 1
    assert min(kinds.values()) > 50, kinds


def test_repeated_id_counts_at_last_position_listed_at_first():
    tree = tf.parse_dependency("dep r { x:ATTR { y:ATTR } p:ATTR q:ATTR }")
    # q is placed at 1 and at 4: it counts at 4, inside the arc x->y, but
    # is listed before p and r because it was placed first.
    order = ["x", "q", "p", "r", "q", "y"]
    expected = [
        "arc x-ATTR->y covers q, which is not a dependent of x",
        "arc x-ATTR->y covers p, which is not a dependent of x",
        "arc x-ATTR->y covers r, which is not a dependent of x",
        "arc x-ATTR->y covers the root r",
    ]
    assert reference_violations(tree, order) == expected
    assert tf.is_projective(tree, order).violations == expected


# -- deep and malformed input -------------------------------------------


def chain_text(depth):
    words = [f"a{i % 16}" for i in range(depth)]
    body = " { ".join(f"{w}:ATTR" if i else w for i, w in enumerate(words))
    return f"dep {body}{' }' * (depth - 1)}\n"


def test_deep_chain_without_recursion():
    text = chain_text(10_000)
    tree = tf.parse_dependency(text)
    assert len(tree.nodes) == 10_000
    tree.validate()
    ids = list(tree.nodes)  # reading order: each node heads the next
    assert tf.is_projective(tree, ids).projective
    assert tf.is_projective(tree, ids[::-1]).projective
    assert serialize_dependency(tree) == text
    again = tf.parse_dependency(serialize_dependency(tree))
    assert again.arcs == tree.arcs


def hand_tree(node_ids, arcs, root="r"):
    return DependencyTree(
        root=root,
        nodes={n: DepNode(n, n) for n in node_ids},
        arcs=list(arcs),
    )


@pytest.mark.parametrize(
    "tree, message",
    [
        (hand_tree("ra", [("r", "a", "1")], root="q"), "root 'q' is not a node"),
        (hand_tree("ra", [("r", "z", "1")]), "arc r->z references unknown node"),
        (hand_tree("rab", [("r", "a", "1"), ("r", "b", "2"), ("b", "a", "1")]), "node 'a' has two heads"),
        (hand_tree("ra", [("r", "a", "1"), ("a", "r", "1")]), "root has a head"),
        (hand_tree("rab", [("r", "a", "1")]), "node 'b' is disconnected"),
        # The walk from c enters the cycle at b, so b is named.
        (hand_tree("rcab", [("b", "c", "1"), ("a", "b", "1"), ("b", "a", "1")]), "cycle through node 'b'"),
        (hand_tree("rxab", [("r", "x", "1"), ("a", "b", "1"), ("b", "a", "1")]), "cycle through node 'a'"),
        (hand_tree("rab", [("r", "a", "1"), ("r", "b", "1")]), "node 'r' has two actants with the same index"),
    ],
    ids=["root", "unknown", "two-heads", "root-head", "disconnected", "cycle-entered", "cycle", "actant"],
)
def test_validate_messages(tree, message):
    with pytest.raises(GrammarFormatError) as excinfo:
        tree.validate()
    assert str(excinfo.value) == message


def test_duplicate_actant_message_from_text():
    with pytest.raises(GrammarFormatError) as excinfo:
        tf.parse_dependency("dep likes { John:1 Lyn:1 }")
    assert str(excinfo.value) == "node 'likes' has two actants with the same index"


# -- text format -------------------------------------------------------


def test_dependency_round_trip():
    for name in ("fig8.dep", "fig12.dep", "fig18.dep"):
        tree = tf.parse_dependency(corpus.read(name))
        again = tf.parse_dependency(serialize_dependency(tree))
        assert again.root == tree.root
        assert set(again.nodes) == set(tree.nodes)
        assert sorted(again.arcs) == sorted(tree.arcs)


def test_dependency_json_round_trip():
    for name in ("fig8.dep", "fig12.dep", "fig18.dep"):
        tree = tf.parse_dependency(corpus.read(name))
        again = dependency_from_json(dependency_to_json(tree))
        assert serialize_dependency(again) == serialize_dependency(tree), name


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("dep likes { : }", "bad node token ':'"),
        ("dep likes { John:1 } Lyn", "trailing input 'Lyn'"),
    ],
)
def test_dependency_format_error_messages(text, message):
    with pytest.raises(GrammarFormatError) as excinfo:
        tf.parse_dependency(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "bad dependency JSON: JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
        ('{"root": "a", "nodes": [{"id": "a"}], "arcs": []}', "bad dependency JSON: KeyError: 'lexeme'"),
        ('{"root": "a", "nodes": [{"id": "a", "lexeme": "x"}]}', "bad dependency JSON: KeyError: 'arcs'"),
        (
            '{"root": ["a"], "nodes": [{"id": "a", "lexeme": "x"}], "arcs": []}',
            "bad dependency JSON: TypeError: unhashable type: 'list'",
        ),
        ('{"root": "b", "nodes": [{"id": "a", "lexeme": "x"}], "arcs": []}', "root 'b' is not a node"),
        ("[" * 100_000, "dependency JSON nests too deep"),
    ],
    ids=["not-json", "no-lexeme", "no-arcs", "root-list", "root-not-a-node", "too-deep"],
)
def test_dependency_from_json_errors_are_typed(text, message):
    with pytest.raises(GrammarFormatError) as excinfo:
        dependency_from_json(text)
    assert str(excinfo.value) == message


def test_dependency_without_root_node():
    with pytest.raises(GrammarFormatError, match="no root node"):
        tf.parse_dependency("dep\n")
    with pytest.raises(GrammarFormatError, match="no root node"):
        tf.parse_dependency("dep  # nothing but a comment\n")


# -- set occurrences ---------------------------------------------------


def tree_named_like_a_set():
    """A grammar whose set ``ms`` is renamed, in code, to ``s``, the id of
    an auxiliary tree, and a script that adjoins that tree."""
    from test_grammar import SET_ID_CLASH

    grammar = tf.parse_grammar(SET_ID_CLASH.replace("set s {", "set ms {"))
    grammar.tree_sets["s"] = grammar.tree_sets.pop("ms")
    script = tf.parse_script("use a; subst n -> a @ 1 label 1; adjoin s -> a @ 2 label ATTR", grammar)
    return grammar, script


def test_plain_adjunction_of_a_tree_named_like_a_set():
    # Only an adjoin_set step makes an instance a set occurrence: ``s`` is
    # adjoined as the tree it names, so its node carries that tree's anchor.
    grammar, script = tree_named_like_a_set()
    assert tf.run_derivation(grammar, script)[1] == "x z v"
    dep = tf.derivation_to_dependency(script, grammar)
    assert serialize_dependency(dep) == "dep v { x:1 z:ATTR }\n"


# -- validation is redone after a change -------------------------------


def _outcome(fn, *args):
    """What a call gives: its result, or its error's type and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)


DEP_MUTATIONS = {
    "second-head": lambda t: t.arcs.append(("b", "c", "ATTR")),
    "cycle": lambda t: t.arcs.__setitem__(0, ("c", "a", "1")),
    "deleted-node": lambda t: t.nodes.pop("c"),
    "missing-root": lambda t: setattr(t, "root", "gone"),
    "same-actant-index": lambda t: t.arcs.__setitem__(2, ("r", "b", "1")),
}


@pytest.mark.parametrize("mutation", DEP_MUTATIONS, ids=list(DEP_MUTATIONS))
def test_changed_dependency_tree_is_checked_again(mutation):
    rules = tf.parse_rules(corpus.read("english_projective.syn").replace("likes", "likes r a b c"))
    tree = tf.parse_dependency("dep r { a:1 { c:2 } b:2 }")
    order = ["a", "c", "r", "b"]
    calls = {
        "is_projective": lambda t: tf.is_projective(t, order),
        "linearize": lambda t: tf.linearize(t, rules),
        "serialize_dependency": serialize_dependency,
        "dependency_to_json": dependency_to_json,
        "dependent_index": lambda t: t.dependent_index(),
        "dependents": lambda t: t.dependents("r"),
        "linearize_node": lambda t: tf.linearize_node(t, "b", {}, rules),
    }
    tree.validate()
    for call in calls.values():
        assert _outcome(call, tree)[0] == "ok"
    DEP_MUTATIONS[mutation](tree)
    fresh = DependencyTree(tree.root, dict(tree.nodes), list(tree.arcs), tree.order)
    for name, call in calls.items():
        expected = _outcome(call, fresh)
        assert _outcome(call, tree) == expected, name
        if name != "dependency_to_json":  # the one call that does not validate
            assert expected[0] == "GrammarFormatError", name


@pytest.mark.parametrize("mutation", DEP_MUTATIONS, ids=list(DEP_MUTATIONS))
def test_dependency_writers_refuse_a_changed_tree(mutation):
    """The JSON and DOT writers check the tree as ``serialize_dependency``
    does, so none of them writes a tree that is not one."""
    tree = tf.parse_dependency("dep r { a:1 { c:2 } b:2 }")
    writers = (serialize_dependency, dependency_to_json, dependency_to_dot)
    for write in writers:
        assert _outcome(write, tree)[0] == "ok"
    DEP_MUTATIONS[mutation](tree)
    outcomes = [_outcome(write, tree) for write in writers]
    assert outcomes[0][0] == "GrammarFormatError"
    assert outcomes == [outcomes[0]] * len(writers)


DERIVATION_MUTATIONS = {
    "second-parent": lambda s: s.steps.append(
        DerivationStep("adjoin", "alpha2", "alpha3", (), "ATTR")
    ),
    "unreachable-parent": lambda s: s.steps.append(
        DerivationStep("adjoin", "beta1#2", "ghost", (), "ATTR")
    ),
    "missing-root": lambda s: setattr(s, "root", "gone"),
}


@pytest.mark.parametrize("mutation", DERIVATION_MUTATIONS, ids=list(DERIVATION_MUTATIONS))
def test_changed_derivation_tree_is_checked_again(english, mutation):
    script = load_script("fig7.drv", english)
    calls = {
        "run_derivation": lambda s: tf.run_derivation(english, s)[1],
        "derivation_to_dependency": lambda s: serialize_dependency(
            tf.derivation_to_dependency(s, english)
        ),
    }
    script.validate()
    for call in calls.values():
        assert _outcome(call, script)[0] == "ok"
    DERIVATION_MUTATIONS[mutation](script)
    fresh = DerivationTree(script.root, dict(script.instances), list(script.steps))
    for name, call in calls.items():
        expected = _outcome(call, fresh)
        assert expected[0] == "GrammarFormatError", name
        assert _outcome(call, script) == expected, name
