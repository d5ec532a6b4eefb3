"""Substitution, adjunction, set adjunction, script replay and the
golden derivations bundled with the package."""
import json
import random
import sys
from typing import NamedTuple

import pytest

import tagforge as tf
from tagforge import corpus, derive, exports
from tagforge.cli import _tuple_repr
from tagforge.derive import PhraseTree, serialize_script
from tagforge.errors import (
    GrammarFormatError,
    IllegalSite,
    IncompleteDerivation,
    LabelMismatch,
    ScriptError,
    SetArity,
    UnknownTree,
    WrongShape,
)
from tagforge.trees import (
    TreeNode,
    count_nodes,
    format_address,
    node_at,
    parse_address,
    replace_at,
    walk,
    yield_words,
)

from conftest import load_script, random_auxiliary, random_initial


# -- single operations -------------------------------------------------


def test_substitute_fills_both_nps(english):
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    step1 = tf.substitute(target, (1,), english.tree("alpha2"))
    step2 = tf.substitute(step1, (2, 2), english.tree("alpha3"))
    assert step2.frontier_words() == ["John", "likes", "Lyn"]
    # Persistence: the original target is untouched.
    assert target.node_at((1,)).kind == "substitution"


def test_substitute_wrong_site(english):
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    with pytest.raises(IllegalSite):
        tf.substitute(target, (2,), english.tree("alpha2"))  # interior VP


def test_substitute_label_mismatch(english):
    target = PhraseTree.from_elementary(english.tree("alpha2"))
    s_tree = tf.ElementaryTree("s", "initial", tf.parse_tree_expr('(S "x"@)'))
    grammar_target = PhraseTree.from_elementary(
        tf.ElementaryTree("host", "initial", tf.parse_tree_expr('(VP "v"@ S!)'))
    )
    with pytest.raises(LabelMismatch):
        tf.substitute(grammar_target, (2,), english.tree("alpha2"))
    assert tf.substitute(grammar_target, (2,), s_tree).frontier_words() == ["v", "x"]
    del target


def test_substitute_auxiliary_rejected(english):
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    with pytest.raises(WrongShape):
        tf.substitute(target, (1,), english.tree("beta1"))


def test_adjoin_really(english):
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    target = tf.substitute(target, (1,), english.tree("alpha2"))
    target = tf.substitute(target, (2, 2), english.tree("alpha3"))
    adjoined = tf.adjoin(target, (2,), english.tree("beta1"))
    assert adjoined.frontier_words() == ["John", "really", "likes", "Lyn"]
    # The excised VP subtree hangs off the foot position of beta1.
    assert adjoined.node_at((2,)).label == "VP"
    assert adjoined.node_at((2, 2)).label == "VP"


def test_adjoin_initial_rejected(english):
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    with pytest.raises(WrongShape):
        tf.adjoin(target, (2,), english.tree("alpha2"))


def test_adjoin_at_leaf_rejected(english):
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    with pytest.raises(IllegalSite):
        tf.adjoin(target, (1,), english.tree("beta1"))  # NP substitution leaf


def test_site_out_of_bounds_is_illegal_site(english):
    # A site outside the tree is a domain error, not a bare KeyError.
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    with pytest.raises(IllegalSite, match="address 9 out of bounds"):
        tf.adjoin(target, (9,), english.tree("beta1"))
    with pytest.raises(IllegalSite, match="address 1.3 out of bounds"):
        tf.substitute(target, (1, 3), english.tree("alpha2"))
    with pytest.raises(IllegalSite, match="component 4 out of bounds"):
        replace_at(target.root, (2, 4), target.root)


def test_sites_are_checked_before_members(english):
    """Every site is checked against the target before any member is, so
    a call with both a bad site and a wrong-shape tree names the site."""
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    with pytest.raises(IllegalSite, match="address 9 out of bounds"):
        tf.adjoin(target, (9,), english.tree("alpha2"))
    with pytest.raises(IllegalSite, match="address 1.3 out of bounds"):
        tf.substitute(target, (1, 3), english.tree("beta1"))
    with pytest.raises(IllegalSite, match="node at 1 is a substitution node; adjunction"):
        tf.adjoin(target, (1,), english.tree("alpha2"))


def test_adjoin_label_mismatch(english):
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    with pytest.raises(LabelMismatch):
        tf.adjoin(target, (), english.tree("beta1"))  # S root vs VP aux


def test_adjoin_set_atomic(german_mc):
    target = PhraseTree.from_elementary(german_mc.tree("alpha_inf"))
    sigma = german_mc.tree_sets["sigma_m"]
    out = tf.adjoin_set(target, [(1,), (2, 2)], sigma)
    words = out.frontier_words()
    assert words[0] == "daß"
    assert "verspricht" in words
    # Atomicity: a bad second site leaves no partial result to observe,
    # and the original target is unchanged either way.
    with pytest.raises(IllegalSite):
        tf.adjoin_set(target, [(1,), (1, 1)], sigma)  # substitution leaf
    assert target.node_at((1, 1)).kind == "substitution"


def test_adjoin_set_singleton_equals_adjoin(english):
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    singleton = tf.TreeSet("solo", (english.tree("beta1"),))
    via_set = tf.adjoin_set(target, [(2,)], singleton)
    via_adjoin = tf.adjoin(target, (2,), english.tree("beta1"))
    assert via_set.root == via_adjoin.root


def test_adjoin_set_arity(german_mc):
    target = PhraseTree.from_elementary(german_mc.tree("alpha_inf"))
    sigma = german_mc.tree_sets["sigma_m"]
    with pytest.raises(SetArity):
        tf.adjoin_set(target, [(1,)], sigma)
    with pytest.raises(SetArity):
        tf.adjoin_set(target, [(1,), (1,)], sigma)


def test_adjoin_set_member_foot_count_is_a_shape_error(german_mc):
    """A member with no foot or two feet fails inside ``adjoin`` with
    WrongShape, and the target is left as it was."""
    target = PhraseTree.from_elementary(german_mc.tree("alpha_inf"))
    beta_a = german_mc.tree("beta_a")
    for expr in ('(S "x"@)', '(S S* "x"@ S*)'):
        member = tf.ElementaryTree("bad", "aux", tf.parse_tree_expr(expr))
        with pytest.raises(WrongShape):
            tf.adjoin_set(target, [(1,), (2, 2)], tf.TreeSet("sigma", (beta_a, member)))
    assert target == PhraseTree.from_elementary(german_mc.tree("alpha_inf"))


FIG15_PREFIX = (
    "use alpha_inf\n"
    "subst np_acc -> alpha_inf @ 2.1 label 1\n"
    "subst np_gen -> alpha_inf @ 1.1 label 2\n"
)


@pytest.mark.parametrize(
    "sites, child, cause",
    [
        ("1", "sigma_m", SetArity),  # one site for two members
        ("1, 1", "sigma_m", SetArity),  # repeated site
        ("1, 2.1", "sigma_m", IllegalSite),  # site filled by substitution
        ("1, 2.2.1.2", "sigma_m", IllegalSite),  # anchor, not interior
        ("2.2.1, 2.2", "sigma_m", LabelMismatch),  # VP site for an S member
        ("1, 2.2", "beta_a", UnknownTree),  # a set member, not a set
    ],
)
def test_adjoinset_step_fault_names_the_step(german_mc, sites, child, cause):
    step = f"adjoinset {child} -> alpha_inf @ {sites} label S"
    script = tf.parse_script(FIG15_PREFIX + step, german_mc)
    with pytest.raises(ScriptError) as excinfo:
        tf.run_derivation(german_mc, script)
    assert excinfo.value.step_index == 2
    assert type(excinfo.value.cause) is cause


@pytest.mark.parametrize("sites", ["1, 2.2", "0, 2.2", "0, 2", "2, 0", "2.2, 2"])
def test_adjoinset_step_matches_adjoin_set(german_mc, sites):
    """A script's set step gives the tree ``adjoin_set`` gives on the tree
    before the step, and the tree of adjoining the members one at a time
    at sites found by provenance, also when one site lies below another."""
    script = tf.parse_script(
        FIG15_PREFIX + f"adjoinset sigma_m -> alpha_inf @ {sites} label S", german_mc
    )
    derived, _ = tf.run_derivation(german_mc, script)
    before = PhraseTree.from_elementary(german_mc.tree("alpha_inf"))
    before = tf.substitute(before, (2, 1), german_mc.tree("np_acc"))
    before = tf.substitute(before, (1, 1), german_mc.tree("np_gen"))
    originals = [parse_address(s) for s in sites.split(",")]
    sigma = german_mc.tree_sets["sigma_m"]
    assert derived == tf.adjoin_set(before, originals, sigma)
    one_by_one = before
    for member, original in zip(sigma.members, originals):
        here = one_by_one.address_of("alpha_inf", original)
        one_by_one = tf.adjoin(one_by_one, here, member)
    assert derived == one_by_one


def test_set_members_come_from_the_grammar(german_mc):
    """A set step adjoins the set's elementary trees, also when another
    instance of the script carries a member's id as its name."""
    script = tf.parse_script(
        FIG15_PREFIX.replace("subst np_gen ->", "subst np_gen as beta_a ->")
        + "adjoinset sigma_m -> alpha_inf @ 1, 2.2 label S",
        german_mc,
    )
    _, sentence = tf.run_derivation(german_mc, script)
    _, expected = tf.run_derivation(german_mc, load_script("fig15.drv", german_mc))
    assert sentence == expected


FIG7 = corpus.read("fig7.drv")
FIG15 = corpus.read("fig15.drv")


@pytest.mark.parametrize(
    "grammar, script, step",
    [
        # the fault is in the child instance's own step
        ("english", FIG7 + "adjoin beta1 as b2 -> beta1 @ 1 label ATTR", 3),
        # the parent's earlier step is met first
        (
            "english",
            FIG7.replace("alpha1 @ 1 label", "alpha1 @ 9 label")
            + "adjoin beta1 as b2 -> beta1 @ 1 label ATTR",
            0,
        ),
        # the child's fault is met before the parent's later faulty step
        (
            "english",
            "use alpha1\n"
            "adjoin beta1 as b2 -> beta1 @ 1 label ATTR\n"
            "adjoin beta1 -> alpha1 @ 2 label ATTR\n"
            "subst alpha2 -> alpha1 @ 9 label 1\n"
            "subst alpha3 -> alpha1 @ 2.2 label 2\n",
            0,
        ),
        # a set occurrence has no node for a step to attach to
        ("german_mc", FIG15 + "subst np_acc as extra -> sigma_m @ 1 label 1", 3),
        ("german_mc", FIG15 + "subst np_acc as extra -> sigma_m @ 9.9 label 1", 3),
    ],
    ids=["child-step", "parent-step-first", "child-before-parent", "set-parent", "set-parent-bad-site"],
)
def test_fault_inside_a_child_instance_names_its_step(request, grammar, script, step):
    grammar = request.getfixturevalue(grammar)
    with pytest.raises(ScriptError) as excinfo:
        tf.run_derivation(grammar, tf.parse_script(script, grammar))
    assert excinfo.value.step_index == step
    assert type(excinfo.value.cause) is IllegalSite


def test_set_steps_look_up_no_set_as_a_tree(monkeypatch, german_mc):
    """A set occurrence replays as its tree set: replay never asks the
    grammar for a tree by a set's id, also when a set step fails."""
    site_lists = ["1, 2.2", "2.2, 2", "1", "1, 2.1", "2.2.1, 2.2"]
    scripts = [
        tf.parse_script(FIG15_PREFIX + f"adjoinset sigma_m -> alpha_inf @ {sites} label S", german_mc)
        for sites in site_lists
    ]
    asked = []
    lookup = type(german_mc).tree
    monkeypatch.setattr(type(german_mc), "tree", lambda g, tid: asked.append(tid) or lookup(g, tid))
    for script in scripts:
        try:
            tf.run_derivation(german_mc, script)
        except ScriptError:
            pass
    assert set(asked) == {"alpha_inf", "np_acc", "np_gen"}


# -- golden derivations ------------------------------------------------


def test_fig7_yield(english):
    script = load_script("fig7.drv", english)
    derived, sentence = tf.run_derivation(english, script)
    assert sentence == "John really likes Lyn"
    assert derived.is_complete()


def test_fig7_script_structure(english):
    script = load_script("fig7.drv", english)
    assert script.root == "alpha1"
    arcs = {(s.parent, s.child): s.arc_label for s in script.steps}
    assert arcs == {
        ("alpha1", "alpha2"): "1",
        ("alpha1", "alpha3"): "2",
        ("alpha1", "beta1"): "ATTR",
    }


def test_fig10_yield(english_wh):
    script = load_script("fig10.drv", english_wh)
    _, sentence = tf.run_derivation(english_wh, script)
    assert sentence == "Who do you think that Mary claimed that Sarah liked"


def test_fig13_yield(dutch):
    script = load_script("fig13.drv", dutch)
    _, sentence = tf.run_derivation(dutch, script)
    assert sentence == "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen"


def test_fig15_yield(german_mc):
    script = load_script("fig15.drv", german_mc)
    _, sentence = tf.run_derivation(german_mc, script)
    assert sentence == (
        "daß des Verbrechens der Detektiv den Verdächtigen niemandem "
        "zu überführen verspricht"
    )


def test_fig15_derived_tree_and_provenance(german_mc):
    derived, _ = tf.run_derivation(german_mc, load_script("fig15.drv", german_mc))
    assert derived.root == tf.parse_tree_expr(
        '(S (S "daß" (S (NP "des" "Verbrechens"@)) "der" "Detektiv"@) '
        '(S (NP "den" "Verdächtigen"@) '
        '(S "niemandem" (S (VP "zu" "überführen"@)) "verspricht"@)))'
    )
    provenance = {
        format_address(addr): (instance, format_address(original))
        for addr, (instance, original) in derived.provenance.items()
    }
    assert provenance == {
        "0": ("alpha_inf", "0"),
        "1": ("beta_a", "0"),
        "1.1": ("beta_a", "1"),
        "1.2": ("alpha_inf", "1"),
        "1.2.1": ("np_gen", "0"),
        "1.2.1.1": ("np_gen", "1"),
        "1.2.1.2": ("np_gen", "2"),
        "1.3": ("beta_a", "3"),
        "1.4": ("beta_a", "4"),
        "2": ("alpha_inf", "2"),
        "2.1": ("np_acc", "0"),
        "2.1.1": ("np_acc", "1"),
        "2.1.2": ("np_acc", "2"),
        "2.2": ("beta_b", "0"),
        "2.2.1": ("beta_b", "1"),
        "2.2.2": ("alpha_inf", "2.2"),
        "2.2.2.1": ("alpha_inf", "2.2.1"),
        "2.2.2.1.1": ("alpha_inf", "2.2.1.1"),
        "2.2.2.1.2": ("alpha_inf", "2.2.1.2"),
        "2.2.3": ("beta_b", "3"),
    }


def test_incomplete_derivation(english):
    script = tf.parse_script("use alpha1\nsubst alpha2 -> alpha1 @ 1 label 1", english)
    with pytest.raises(IncompleteDerivation):
        tf.run_derivation(english, script)


def test_incomplete_derivation_names_open_leaves(english):
    cases = {
        "use alpha1": "unfilled frontier nodes: 1 (substitution 'NP'), 2.2 (substitution 'NP')",
        "use beta1": "unfilled frontier nodes: 2 (foot 'VP')",
    }
    for text, message in cases.items():
        script = tf.parse_script(text, english)
        with pytest.raises(IncompleteDerivation) as excinfo:
            tf.run_derivation(english, script)
        assert str(excinfo.value) == message
        partial = tf.PhraseTree.from_elementary(english.tree(text.split()[1]))
        assert not partial.is_complete()


def test_script_error_carries_step_index(english):
    text = "use alpha1\nsubst alpha2 -> alpha1 @ 1 label 1\nsubst alpha3 -> alpha1 @ 1 label 2"
    script = tf.parse_script(text, english)
    with pytest.raises(ScriptError) as excinfo:
        tf.run_derivation(english, script)
    assert excinfo.value.step_index == 1
    assert isinstance(excinfo.value.cause, IllegalSite)


def test_sibling_step_order_irrelevant(english):
    base = corpus.read("fig7.drv")
    script = tf.parse_script(base, english)
    lines = [l for l in base.splitlines() if l.strip() and not l.startswith("#")]
    use, steps = lines[0], lines[1:]
    rng = random.Random(7)
    for _ in range(6):
        rng.shuffle(steps)
        permuted = tf.parse_script("\n".join([use] + steps), english)
        _, sentence = tf.run_derivation(english, permuted)
        assert sentence == "John really likes Lyn"
        assert permuted == script  # canonical-form equality


def test_script_round_trip(english, dutch, german_mc):
    for grammar, name in ((english, "fig7.drv"), (dutch, "fig13.drv"), (german_mc, "fig15.drv")):
        script = load_script(name, grammar)
        again = tf.parse_script(serialize_script(script), grammar)
        assert again == script


def test_parse_output_round_trips_through_scripts():
    """Every parse of every ``enumerate_language(g, 5)`` sentence reads
    back from its script with the same instances and the same steps, in
    order, and replays to its sentence; the instance names ``parse``
    gives a reused tree (``beta1#2``) are not taken for comments."""
    reused = 0
    for name in ("english.tag", "english_wh.tag", "dutch.tag"):
        grammar = tf.parse_grammar(corpus.read(name))
        for sentence in sorted(tf.enumerate_language(grammar, 5)):
            for derivation in tf.parse(grammar, sentence.split()).derivations:
                again = tf.parse_script(serialize_script(derivation), grammar)
                assert again.root == derivation.root
                assert again.instances == derivation.instances
                assert again.steps == derivation.steps
                assert tf.run_derivation(grammar, again)[1] == sentence
                reused += any("#" in instance for instance in again.instances)
    assert reused > 0


def test_script_comments_start_at_line_start_or_after_whitespace(english):
    text = (
        "# Figure 7\n"
        "use alpha1  # the verb\n"
        "subst alpha2 -> alpha1 @ 1 label 1\t# John\n"
        "subst alpha3 -> alpha1 @ 2.2 label 2\n"
        "adjoin beta1 -> alpha1 @ 2 label ATTR\n"
        "adjoin beta1 as beta1#2 -> beta1 @ 0 label ATTR #really\n"
    )
    script = tf.parse_script(text, english)
    assert script.instances["beta1#2"] == "beta1"
    assert tf.run_derivation(english, script)[1] == "John really really likes Lyn"


def _chain(root, pairs):
    instances = {root: "t"}
    for parent, child in pairs:
        instances.setdefault(parent, "t")
        instances[child] = "t"
    steps = [derive.DerivationStep("adjoin", c, p, (), "ATTR") for p, c in pairs]
    return derive.DerivationTree(root, instances, steps)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([("a", "b"), ("a", "c"), ("c", "b")], "instance 'b' has two parents"),
        ([("a", "b"), ("b", "a")], "root instance may not be a child"),
        ([("a", "b"), ("x", "c")], "step parent 'x' is unreachable"),
        (
            [("a", "b"), ("c", "d"), ("d", "e"), ("e", "c"), ("b", "f")],
            "cycle through instance 'd'",
        ),
    ],
)
def test_derivation_validate_messages(pairs, message):
    with pytest.raises(GrammarFormatError) as excinfo:
        _chain("a", pairs).validate()
    assert str(excinfo.value) == message


def test_derivation_validate_long_chain():
    """Each walk up stops at an instance known to reach the root, so a
    10^4-instance chain validates in one pass."""
    _chain("b0", [(f"b{i}", f"b{i + 1}") for i in range(10_000)]).validate()


def test_deep_derivation_compares_and_prints():
    """``canonical``, ``==`` and the CLI's parse text line use explicit
    stacks, so a 2,000-deep chain, and two sibling chains alike for 1,000
    levels (which sorting must compare), need no raised recursion limit;
    only the ``repr`` the text line must equal does."""
    chain = [(f"b{i}", f"b{i + 1}") for i in range(2_000)]
    twins = [("r", "a0"), ("r", "b0")]
    twins += [(f"{x}{i}", f"{x}{i + 1}") for x in "ab" for i in range(1_000)]
    assert _chain("b0", chain) != _chain("b0", chain[:-1])
    for deep in (_chain("b0", chain), _chain("r", twins)):
        canonical = deep.canonical()
        assert deep == deep
        text = _tuple_repr(canonical)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            assert text == repr(canonical)
        finally:
            sys.setrecursionlimit(limit)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_script_replays_without_recursion(english):
    """Replay folds the derivation tree with an explicit stack, and walks
    the composition it records with another, so a 300-level adjunction
    chain replays, and builds its root, with only 100 frames to spare."""
    depth = 300
    lines = [
        "use alpha1",
        "subst alpha2 -> alpha1 @ 1 label 1",
        "subst alpha3 -> alpha1 @ 2.2 label 2",
        "adjoin beta1 as b1 -> alpha1 @ 2 label ATTR",
    ]
    lines += [f"adjoin beta1 as b{i} -> b{i - 1} @ 0 label ATTR" for i in range(2, depth + 1)]
    script = tf.parse_script("\n".join(lines), english)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        derived, sentence = tf.run_derivation(english, script)
        root = derived.root
    finally:
        sys.setrecursionlimit(limit)
    assert sentence == " ".join(["John"] + ["really"] * depth + ["likes", "Lyn"])
    assert yield_words(root) == sentence.split()


def _adjunction_chain(depth: int) -> list[str]:
    """The lines of a script that stacks ``depth`` adjunctions of beta1 on
    fig7's VP, each at the root of the one before."""
    lines = [
        "use alpha1",
        "subst alpha2 -> alpha1 @ 1 label 1",
        "subst alpha3 -> alpha1 @ 2.2 label 2",
        "adjoin beta1 as b1 -> alpha1 @ 2 label ATTR",
    ]
    return lines + [f"adjoin beta1 as b{i} -> b{i - 1} @ 0 label ATTR" for i in range(2, depth + 1)]


def test_deep_fault_names_the_site_as_given(english):
    """A fault under a 2,000-level chain names its site as the script
    gives it, not by a current address 2,000 components long; and a
    public ``adjoin`` on a replayed 200-level chain, which first rebuilds
    it as one piece, matches the eager reference without recursion."""
    faulty = _adjunction_chain(2_000) + ["subst alpha2 as x -> alpha1 @ 2.1 label 1"]
    with pytest.raises(ScriptError) as excinfo:
        tf.run_derivation(english, tf.parse_script("\n".join(faulty), english))
    assert excinfo.value.step_index == 2002
    message = str(excinfo.value)
    assert len(message) < 100 and " at 2.1 " in message

    depth = 200
    derived, _ = tf.run_derivation(english, tf.parse_script("\n".join(_adjunction_chain(depth)), english))
    eager = _eager_elementary(english.tree("alpha1"))
    eager = _eager_substitute(eager, (1,), _eager_elementary(english.tree("alpha2")))
    eager = _eager_substitute(eager, (2, 2), _eager_elementary(english.tree("alpha3")))
    for i in range(1, depth + 1):
        eager = _eager_adjoin(eager, (2,), _eager_elementary(english.tree("beta1"), f"b{i}"))
    vp = (2,) * (depth + 1)  # alpha1's VP, below every adjoined tree
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        out = tf.adjoin(derived, vp, english.tree("beta1"))
        _assert_same(out, _eager_adjoin(eager, vp, _eager_elementary(english.tree("beta1"))))
    finally:
        sys.setrecursionlimit(limit)
    assert out.sentence() == " ".join(["John"] + ["really"] * (depth + 1) + ["likes", "Lyn"])


@pytest.mark.parametrize(
    "step, message",
    [
        (
            "subst alpha2 as x -> alpha1 @ 2.1 label 1",
            "step 3: node at 2.1 is an interior node, not a substitution node",
        ),
        (
            "adjoin beta1 as x -> alpha1 @ 2.1.1 label ATTR",
            "step 3: node at 2.1.1 is an anchor node; adjunction needs an interior node",
        ),
        ("subst alpha2 as x -> alpha1 @ 1 label 1", "step 3: substitution node at 1 is already filled"),
        ("subst alpha2 as x -> alpha1 @ 9 label 1", "step 3: address 9 out of bounds"),
        (
            "subst alpha3 as x -> alpha2 @ 0 label 1",
            "step 3: node at 0 is an interior node, not a substitution node",
        ),
    ],
    ids=["interior", "anchor", "filled", "out-of-bounds", "root"],
)
def test_script_fault_messages_name_the_site_as_given(english, step, message):
    with pytest.raises(ScriptError) as excinfo:
        tf.run_derivation(english, tf.parse_script(FIG7 + step, english))
    assert str(excinfo.value) == message
    assert type(excinfo.value.cause) is IllegalSite


def _phrase_chain(depth: int) -> PhraseTree:
    node = TreeNode("anchor", "x")
    for _ in range(depth):
        node = TreeNode("interior", "A", (node,))
    return PhraseTree(node, {})


def test_too_deep_json_is_a_typed_error():
    """JSON stops at about 500 tree levels both ways, so a deeper phrase
    tree ends in a typed error, and a shallower one round-trips."""
    shallow = _phrase_chain(200)
    assert exports.phrase_from_json(exports.phrase_to_json(shallow)).root == shallow.root
    with pytest.raises(tf.TagError, match="too deep for JSON"):
        exports.phrase_to_json(_phrase_chain(600))
    node = '{"kind": "interior", "label": "A", "children": ['
    text = '{"root": ' + node * 600 + '{"kind": "anchor", "label": "x"}' + "]}" * 600 + "}"
    with pytest.raises(GrammarFormatError, match="too deep for JSON"):
        exports.phrase_from_json(text)


def test_replace_at_copies_only_the_path():
    leaf = TreeNode("anchor", "x")
    node = TreeNode("interior", "A", (leaf, TreeNode("anchor", "y")))
    for _ in range(3_000):
        node = TreeNode("interior", "A", (node, leaf))
    address = (1,) * 3_000 + (2,)
    out = replace_at(node, address, leaf)
    assert node_at(out, address) is leaf
    assert node_at(out, (2,)) is leaf and node_at(out, (1,) * 5 + (2,)) is leaf
    assert node_at(node, address).label == "y"  # the original is untouched


def test_canonical_refuses_a_cycle():
    with pytest.raises(GrammarFormatError, match="cycle through instance 'a'"):
        _chain("a", [("a", "b"), ("b", "a")]).canonical()


def test_parse_script_rejects_unknown_tree(english):
    with pytest.raises(GrammarFormatError):
        tf.parse_script("use nosuch", english)


def test_parse_script_rejects_duplicate_instance(english):
    text = "use alpha1\nsubst alpha2 -> alpha1 @ 1 label 1\nsubst alpha2 -> alpha1 @ 2.2 label 2"
    with pytest.raises(GrammarFormatError):
        tf.parse_script(text, english)
    # The same tree twice is fine with an alias.
    text_ok = (
        "use alpha1\nsubst alpha2 -> alpha1 @ 1 label 1\n"
        "subst alpha2 as a2b -> alpha1 @ 2.2 label 2"
    )
    _, sentence = tf.run_derivation(english, tf.parse_script(text_ok, english))
    assert sentence == "John likes John"


# -- structural laws on randomized trees -------------------------------


def test_yield_splice_and_node_count_random():
    rng = random.Random(20260823)
    for _ in range(300):
        host = random_initial(rng, "S")
        target = PhraseTree.from_elementary(host)
        subst_sites = host.substitution_addresses()
        if subst_sites and rng.random() < 0.5:
            site = rng.choice(subst_sites)
            filler = random_initial(rng, host.node_at(site).label)
            before_words = yield_words(target.root)
            out = tf.substitute(target, site, filler)
            assert count_nodes(out.root) == (
                count_nodes(target.root) + count_nodes(filler.root) - 1
            )
            # Substitution only touches the site leaf's contribution.
            assert len(yield_words(out.root)) >= len(before_words)
        else:
            interiors = host.interior_addresses()
            site = rng.choice(interiors)
            label = host.node_at(site).label
            aux = random_auxiliary(rng, label)
            out = tf.adjoin(target, site, aux)
            assert count_nodes(out.root) == (
                count_nodes(target.root) + count_nodes(aux.root) - 1
            )
            # Yield-splice: the aux yield wraps around the site subtree's yield.
            site_yield = yield_words(target.node_at(site))
            target_yield = yield_words(target.root)
            foot = aux.foot_addresses()[0]
            aux_yield_l = yield_words(aux.root)
            split = _foot_split(aux, foot)
            left, right = aux_yield_l[:split], aux_yield_l[split:]
            got = yield_words(out.root)
            expected_mid = left + site_yield + right
            assert _is_sublist(expected_mid, got)
            assert sorted(got) == sorted(target_yield + left + right)


def _is_sublist(part, whole):
    n = len(part)
    return any(whole[i : i + n] == part for i in range(len(whole) - n + 1))


def _foot_split(aux, foot):
    """Number of frontier words of the auxiliary tree left of its foot."""
    from tagforge.trees import frontier

    count = 0
    for addr, node in frontier(aux.root):
        if addr == foot:
            return count
        if node.kind in ("anchor", "terminal"):
            count += 1
    raise AssertionError("foot not on frontier")


def test_provenance_addresses_stay_valid(english):
    script = load_script("fig7.drv", english)
    derived, _ = tf.run_derivation(english, script)
    for addr, (instance, original) in derived.provenance.items():
        # Each provenance entry points back at a structurally equal node.
        node_here = derived.node_at(addr)
        elementary = english.tree(script.instances[instance])
        node_there = elementary.node_at(original)
        if node_there.kind not in ("substitution", "foot"):
            assert node_here.label == node_there.label


# -- carried foot addresses --------------------------------------------

SCRIPT_GRAMMARS = {
    "fig7.drv": "english.tag",
    "fig10.drv": "english_wh.tag",
    "fig13.drv": "dutch.tag",
    "fig15.drv": "german_mc.tag",
}


def _walked_feet(phrase):
    return tuple(a for a, n in walk(phrase.root) if n.kind == "foot")


def test_carried_feet_match_a_fresh_walk(monkeypatch, english):
    """Every step ``_attach`` records (substitute, adjoin, adjoin_set and
    replay all go through it) gives a tree whose feet are the ones a walk
    of its root finds, through every corpus script and every parse of the
    golden sentences."""
    checked = {"ops": 0, "translated": 0}
    attach = derive._attach

    def checking(target, op, *args, **kwargs):
        out = attach(target, op, *args, **kwargs)
        assert out.feet == _walked_feet(out), op
        checked["ops"] += 1
        if op == "adjoin" and out.feet != target.feet:
            checked["translated"] += 1
        return out

    monkeypatch.setattr(derive, "_attach", checking)

    for script_name, grammar_name in SCRIPT_GRAMMARS.items():
        grammar = tf.parse_grammar(corpus.read(grammar_name))
        derived, _ = derive.run_derivation(grammar, load_script(script_name, grammar))
        assert derived.feet == ()
    for grammar_name in ("english.tag", "english_wh.tag", "dutch.tag"):
        grammar = tf.parse_grammar(corpus.read(grammar_name))
        for sentence in tf.enumerate_language(grammar, 5):
            for script in tf.parse(grammar, sentence.split()).derivations:
                derive.run_derivation(grammar, script)

    german_mc = tf.parse_grammar(corpus.read("german_mc.tag"))
    target = PhraseTree.from_elementary(german_mc.tree("alpha_inf"))
    derive.adjoin_set(target, [(1,), (2, 2)], german_mc.tree_sets["sigma_m"])
    assert checked["ops"] > 100
    assert checked["translated"] > 0  # adjunction above a foot moves it

    beta1 = PhraseTree.from_elementary(english.tree("beta1"))
    assert exports.phrase_from_json(exports.phrase_to_json(beta1)).feet == beta1.feet == ((2,),)


def test_substituting_a_carried_foot_is_rejected(english):
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    stacked = tf.adjoin(
        PhraseTree.from_elementary(english.tree("beta1"), "beta1"),
        (),
        PhraseTree.from_elementary(english.tree("beta1"), "beta2"),
    )
    assert stacked.feet == ((2, 2),)
    with pytest.raises(WrongShape):
        tf.substitute(target, (1,), stacked)


def test_two_foot_tree_is_rejected(english):
    from tagforge.trees import TreeNode

    root = TreeNode(
        "interior",
        "VP",
        (TreeNode("foot", "VP"), TreeNode("anchor", "and"), TreeNode("foot", "VP")),
    )
    two_feet = PhraseTree(root, {})
    assert two_feet.feet == ((1,), (3,))
    target = PhraseTree.from_elementary(english.tree("alpha1"))
    with pytest.raises(WrongShape):
        tf.adjoin(target, (2,), two_feet)
    with pytest.raises(WrongShape):
        tf.substitute(target, (1,), two_feet)


# -- the eager replay as the reference -----------------------------------
#
# The engine's first algorithm, kept as an oracle: each operation splices
# the derived tree at once with ``replace_at`` and rewrites the whole
# provenance, and a site is found by scanning it.  Quadratic or worse on
# deep chains, but plainly right.


class _Eager(NamedTuple):
    root: TreeNode
    provenance: dict
    feet: tuple


def _eager_elementary(tree, instance=None):
    instance = instance or tree.id
    return _Eager(tree.root, {a: (instance, a) for a in tree.nodes}, tuple(tree.foot_addresses()))


def _eager_address_of(tree, instance, original):
    return next(a for a, origin in tree.provenance.items() if origin == (instance, original))


def _below_foot(site, foot, address):
    """Where ``address`` is after adjunction at ``site`` of a tree whose
    foot is at ``foot``: the excised subtree now hangs below the foot."""
    return site + foot + address[len(site) :] if address[: len(site)] == site else address


def _eager_substitute(target, site, sub):
    provenance = {a: o for a, o in target.provenance.items() if a != site}
    for address, origin in sub.provenance.items():
        provenance[site + address] = origin
    return _Eager(replace_at(target.root, site, sub.root), provenance, target.feet)


def _eager_adjoin(target, site, aux):
    [foot] = aux.feet
    spliced = replace_at(aux.root, foot, node_at(target.root, site))
    provenance = {_below_foot(site, foot, a): o for a, o in target.provenance.items()}
    for address, origin in aux.provenance.items():
        if address != foot:
            provenance[site + address] = origin
    feet = tuple(_below_foot(site, foot, f) for f in target.feet)
    return _Eager(replace_at(target.root, site, spliced), provenance, feet)


def _eager_adjoin_set(target, sites, tree_set):
    result, applied = target, []
    for site, member in zip(sites, tree_set.members):
        for prev_site, prev_foot in applied:
            site = _below_foot(prev_site, prev_foot, site)
        result = _eager_adjoin(result, site, _eager_elementary(member))
        applied.append((site, member.foot_addresses()[0]))
    return result


def _assert_same(tree, eager):
    assert tree.root == eager.root
    assert tree.provenance == eager.provenance
    assert tree.feet == eager.feet
    assert tree.sentence() == " ".join(yield_words(eager.root))


def _replay_against_eager(grammar, script):
    """Replay ``script`` through the public operations and the eager
    reference side by side, comparing the trees after every op, then
    compare ``run_derivation``'s result with the reference's."""
    sets = script.set_occurrences()

    def build(instance, tree_id, kids):
        if instance in sets:
            return grammar.tree_sets[tree_id]
        tree = PhraseTree.from_elementary(grammar.tree(tree_id), instance)
        eager = _eager_elementary(grammar.tree(tree_id), instance)
        for _, step, child in kids:
            if step.op == "adjoin_set":
                sites = [_eager_address_of(eager, instance, s) for s in step.site]
                tree = tf.adjoin_set(tree, sites, child)
                eager = _eager_adjoin_set(eager, sites, child)
            else:
                here = _eager_address_of(eager, instance, step.site)
                if step.op == "substitute":
                    tree, eager = tf.substitute(tree, here, child[0]), _eager_substitute(eager, here, child[1])
                else:
                    tree, eager = tf.adjoin(tree, here, child[0]), _eager_adjoin(eager, here, child[1])
            _assert_same(tree, eager)
        return tree, eager

    _, eager = script._fold(build)
    derived, sentence = tf.run_derivation(grammar, script)
    _assert_same(derived, eager)
    assert sentence == " ".join(yield_words(eager.root))


def test_replay_matches_the_eager_reference(english, german_mc):
    """Every corpus script, every parse of every ``enumerate_language(g,
    5)`` sentence, each set step of the fig15 family, and adjunctions
    stacked at one node, which no parse makes."""
    for script_name, grammar_name in SCRIPT_GRAMMARS.items():
        grammar = tf.parse_grammar(corpus.read(grammar_name))
        _replay_against_eager(grammar, load_script(script_name, grammar))
    stacked = FIG7 + "".join(
        f"adjoin beta1 as {child} -> {parent} @ {site} label ATTR\n"
        for child, parent, site in [("b2", "alpha1", "2"), ("b3", "b2", "0"), ("b4", "alpha1", "2")]
    )
    _replay_against_eager(english, tf.parse_script(stacked, english))
    replayed = 0
    for name in ("english.tag", "english_wh.tag", "dutch.tag"):
        grammar = tf.parse_grammar(corpus.read(name))
        for sentence in sorted(tf.enumerate_language(grammar, 5)):
            for derivation in tf.parse(grammar, sentence.split()).derivations:
                _replay_against_eager(grammar, derivation)
                replayed += 1
    for sites in ("1, 2.2", "0, 2.2", "0, 2", "2, 0", "2.2, 2"):
        step = f"adjoinset sigma_m -> alpha_inf @ {sites} label S"
        _replay_against_eager(german_mc, tf.parse_script(FIG15_PREFIX + step, german_mc))
    assert replayed > 100


# -- the derivation format: script, JSON and validate -----------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("use alpha1\nuse alpha2", "line 2: only one 'use' statement is allowed"),
        ("use alpha1\n\nfrob", "line 3: cannot parse statement 'frob'"),
        (
            "use alpha1\nsubst alpha2 -> alpha1 @ 1, 2.2 label 1",
            "line 2: subst/adjoin take exactly one site",
        ),
        ("# no root\nsubst alpha2 -> alpha1 @ 1 label 1", "script has no 'use' statement"),
        ("use alpha1\nsubst alpha2 -> alpha1 @ 1..2 label 1", "bad address '1..2'"),
        (
            "use alpha1\nsubst alpha2 -> alpha1 @ 2.0 label 1",
            "bad address '2.0': indices are 1-based",
        ),
        ("use alpha1 junk", "line 1: cannot parse statement 'use alpha1 junk'"),
        ("use alpha1 as", "line 1: cannot parse statement 'use alpha1 as'"),
        ("use alpha1 as x y", "line 1: cannot parse statement 'use alpha1 as x y'"),
        # Only 0 names the root: an empty site between commas is a typo.
        ("use alpha1\nadjoinset sigma_m -> alpha1 @ 1,, 2.2 label S", "bad address ''"),
    ],
)
def test_script_format_errors(english, text, message):
    with pytest.raises(GrammarFormatError) as excinfo:
        tf.parse_script(text, english)
    assert str(excinfo.value) == message


def test_site_codec_round_trips():
    for op, site, texts in [
        ("substitute", (), ["0"]),
        ("adjoin", (2, 1), ["2.1"]),
        ("adjoin_set", ((1,), (2, 2)), ["1", "2.2"]),
    ]:
        assert derive.site_texts(op, site) == texts
        assert derive.site_from_texts(op, texts) == site


def _fig7_with(english, change):
    script = load_script("fig7.drv", english)
    change(script)
    return script


# A valid script changed so that it breaks one rule only ``validate``'s
# last three checks catch; each change gives its message.
FORMAT_FAULTS = {
    "unknown-op": (
        lambda s: s.steps.__setitem__(2, s.steps[2]._replace(op="wrap")),
        "step 2: unknown op 'wrap'",
    ),
    "undeclared-child": (
        lambda s: s.steps.append(derive.DerivationStep("adjoin", "ghost", "alpha1", (2,), "ATTR")),
        "step 3: instance 'ghost' not declared",
    ),
    "unattached-instance": (
        lambda s: s.instances.__setitem__("extra", "beta1"),
        "instance 'extra' is attached by no step",
    ),
}


@pytest.mark.parametrize("fault", FORMAT_FAULTS, ids=list(FORMAT_FAULTS))
def test_validate_refuses_what_replay_and_the_bridge_cannot_use(english, fault):
    change, message = FORMAT_FAULTS[fault]
    calls = {
        "validate": lambda s: s.validate(),
        "run_derivation": lambda s: tf.run_derivation(english, s),
        "derivation_to_dependency": lambda s: tf.derivation_to_dependency(s, english),
        "derivation_from_json": lambda s: exports.derivation_from_json(exports.derivation_to_json(s)),
    }
    for name, call in calls.items():
        with pytest.raises(GrammarFormatError) as excinfo:
            call(_fig7_with(english, change))
        assert str(excinfo.value) == message, name


def test_derivation_json_round_trips_set_steps():
    """Every corpus script, and every parse of every
    ``enumerate_language(g, 5)`` sentence, reads back from its JSON with
    the same root, instances and steps."""
    derivations = []
    for script_name, grammar_name in SCRIPT_GRAMMARS.items():
        derivations.append(load_script(script_name, tf.parse_grammar(corpus.read(grammar_name))))
    for name in ("english.tag", "english_wh.tag", "dutch.tag"):
        grammar = tf.parse_grammar(corpus.read(name))
        for sentence in sorted(tf.enumerate_language(grammar, 5)):
            derivations += tf.parse(grammar, sentence.split()).derivations
    assert any(s.op == "adjoin_set" for d in derivations for s in d.steps)
    for derivation in derivations:
        back = exports.derivation_from_json(exports.derivation_to_json(derivation))
        assert back.root == derivation.root
        assert back.instances == derivation.instances
        assert back.steps == derivation.steps


def _fig15_json(german_mc, change):
    data = json.loads(exports.derivation_to_json(load_script("fig15.drv", german_mc)))
    change(data)
    return json.dumps(data)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{}", "bad derivation JSON: KeyError: 'steps'"),
        ("[1]", "bad derivation JSON: TypeError: list indices must be integers or slices, not str"),
        (
            "{",
            "bad derivation JSON: JSONDecodeError: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        (
            lambda d: d["steps"][2].__setitem__("site", "12"),
            "step adjoin_set expects a list of sites",
        ),
        (
            lambda d: d["steps"][2].__setitem__("site", {"1": 0, "2.2": 0}),
            "step adjoin_set expects a list of sites",
        ),
        (lambda d: d["steps"][0].__setitem__("site", ["2.1"]), "step substitute expects a single site"),
        (
            lambda d: d["steps"][2].__setitem__("site", [1, 2]),
            "bad derivation JSON: AttributeError: 'int' object has no attribute 'strip'",
        ),
        (lambda d: d["steps"][1].pop("label"), "bad derivation JSON: KeyError: 'label'"),
        (
            lambda d: d.__setitem__("instances", [1]),
            "bad derivation JSON: TypeError: "
            "cannot convert dictionary update sequence element #0 to a sequence",
        ),
        ("[" * 100_000, "derivation JSON nests too deep"),
        (lambda d: d["steps"][0].__setitem__("site", ""), "bad address ''"),
    ],
    ids=[
        "no-keys", "list", "not-json", "set-site-string", "set-site-object",
        "site-list", "site-ints", "no-label", "instances-list", "too-deep", "site-empty",
    ],
)
def test_derivation_from_json_errors_are_typed(german_mc, text, message):
    if callable(text):
        text = _fig15_json(german_mc, text)
    with pytest.raises(GrammarFormatError) as excinfo:
        exports.derivation_from_json(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "bad phrase tree JSON: AttributeError: 'list' object has no attribute 'get'"),
        ("", "bad phrase tree JSON: JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
        ('{"root": {"kind": "anchor"}}', "bad phrase tree JSON: KeyError: 'label'"),
        (
            '{"root": {"kind": "anchor", "label": "x", "children": [{"kind": "anchor", "label": "y"}]}}',
            "bad phrase tree JSON: ValueError: anchor node 'x' must be a leaf",
        ),
        ('{"root": {"kind": "interior", "label": "S"}}', "interior node 'S' has no children"),
        (
            '{"root": {"kind": "anchor", "label": "x"}, "provenance": {"0": {"tree": "a", "address": "x"}}}',
            "bad address 'x'",
        ),
        ('{"root": {"kind": "bogus", "label": "x"}}', "unknown node kind 'bogus'"),
        (
            '{"root": {"kind": "anchor", "label": "x"}, "provenance": {"5.1": {"tree": "a", "address": "0"}}}',
            "provenance address 5.1 is not in the tree",
        ),
    ],
    ids=[
        "list", "not-json", "no-label", "leaf-with-children", "childless-interior", "bad-address",
        "unknown-kind", "address-not-in-tree",
    ],
)
def test_phrase_from_json_errors_are_typed(text, message):
    with pytest.raises(GrammarFormatError) as excinfo:
        exports.phrase_from_json(text)
    assert str(excinfo.value) == message
