"""The contract of tagforge's value classes: constructors by position and
by keyword with their defaults, ``repr``, field-wise equality, pickling
and copying, and which classes hash and refuse assignment.

The ``repr`` literals were recorded when the classes were dataclasses.
The inputs hold no sets, whose printed order depends on the hash seed.
"""
import copy
import pickle

import pytest

from tagforge.chart import ParseResult
from tagforge.dependency import DependencyTree, DepNode, ProjectivityReport
from tagforge.derive import DerivationStep, DerivationTree
from tagforge.grammar import (
    CfgRule,
    ElementaryTree,
    Grammar,
    LexicalizationReport,
    TreeSet,
    ValidationReport,
    Word,
)
from tagforge.syntagm import Condition, RuleSet, SegmentPair, SyntagmRule
from tagforge.trees import TreeNode

LEAF = TreeNode("anchor", "likes")
LEAF_REPR = "TreeNode(kind='anchor', label='likes', children=())"
TREE = ElementaryTree("a1", "initial", LEAF)
TREE_REPR = f"ElementaryTree(id='a1', shape='initial', root={LEAF_REPR})"
STEP = DerivationStep("substitute", "a2", "a1", (1,), "1")
STEP_REPR = "DerivationStep(op='substitute', child='a2', parent='a1', site=(1,), arc_label='1')"
ANY = Condition(False, "any")
ANY_REPR = "Condition(negated=False, kind='any', value=None, rel=None, dep_cat=None)"

# (class, constructor arguments in parameter order, the defaults of the
# optional ones, repr of the instance, one field and a different value)
FROZEN = [
    (
        SegmentPair,
        {"y1": ("Jan",), "y2": ("zag", "zwemmen")},
        {},
        "SegmentPair(y1=('Jan',), y2=('zag', 'zwemmen'))",
        ("y2", ("zag",)),
    ),
    (
        Condition,
        {"negated": True, "kind": "exists", "value": None, "rel": "1", "dep_cat": "N"},
        {"value": None, "rel": None, "dep_cat": None},
        "Condition(negated=True, kind='exists', value=None, rel='1', dep_cat='N')",
        ("rel", "2"),
    ),
    (
        SyntagmRule,
        {"name": "r1", "conditions": (ANY,), "y1": ("head",), "y2": ("dep.y2",)},
        {},
        f"SyntagmRule(name='r1', conditions=({ANY_REPR},), y1=('head',), y2=('dep.y2',))",
        ("conditions", ()),
    ),
    (
        DepNode,
        {"id": "n1", "lexeme": "likes", "covert": True},
        {"covert": False},
        "DepNode(id='n1', lexeme='likes', covert=True)",
        ("lexeme", "sees"),
    ),
    (
        CfgRule,
        {"lhs": "S", "rhs": ("NP", Word("runs"))},
        {},
        "CfgRule(lhs='S', rhs=('NP', Word('runs')))",
        ("rhs", ("NP",)),
    ),
    (
        TreeSet,
        {"id": "s", "members": (TREE,)},
        {},
        f"TreeSet(id='s', members=({TREE_REPR},))",
        ("id", "t"),
    ),
    (
        TreeNode,
        {"kind": "interior", "label": "V", "children": (LEAF,)},
        {"children": ()},
        f"TreeNode(kind='interior', label='V', children=({LEAF_REPR},))",
        ("label", "VP"),
    ),
    (
        ElementaryTree,
        {"id": "a1", "shape": "initial", "root": LEAF},
        {},
        TREE_REPR,
        ("shape", "aux"),
    ),
]

MUTABLE = [
    (
        ProjectivityReport,
        {"projective": False, "violations": ["arc a->b covers c"]},
        {},
        "ProjectivityReport(projective=False, violations=['arc a->b covers c'])",
        ("violations", []),
    ),
    (
        LexicalizationReport,
        {"lexicalized": False, "census": {"a1": 0}, "offenders": ["a1"]},
        {},
        "LexicalizationReport(lexicalized=False, census={'a1': 0}, offenders=['a1'])",
        ("census", {"a1": 2}),
    ),
    (
        Grammar,
        {"trees": {"a1": TREE}, "tree_sets": {}, "start_symbol": "V"},
        {"trees": {}, "tree_sets": {}, "start_symbol": None},
        f"Grammar(trees={{'a1': {TREE_REPR}}}, tree_sets={{}}, start_symbol='V')",
        ("start_symbol", None),
    ),
    (
        DependencyTree,
        {
            "root": "n1",
            "nodes": {"n1": DepNode("n1", "likes")},
            "arcs": [("n1", "n2", "1")],
            "order": ["n1"],
        },
        {"nodes": {}, "arcs": [], "order": None},
        "DependencyTree(root='n1', nodes={'n1': DepNode(id='n1', lexeme='likes', covert=False)}, "
        "arcs=[('n1', 'n2', '1')], order=['n1'])",
        ("order", None),
    ),
    (
        DerivationTree,
        {"root": "a1", "instances": {"a1": "alpha1", "a2": "alpha2"}, "steps": [STEP]},
        {"instances": {}, "steps": []},
        f"DerivationTree(root='a1', instances={{'a1': 'alpha1', 'a2': 'alpha2'}}, steps=[{STEP_REPR}])",
        ("steps", []),
    ),
    (
        RuleSet,
        {"rules": [SyntagmRule("r1", (), ("head",), ())], "classes": {}},
        {},
        "RuleSet(rules=[SyntagmRule(name='r1', conditions=(), y1=('head',), y2=())], classes={})",
        ("rules", []),
    ),
    (
        ParseResult,
        {"recognized": True, "derivations": [DerivationTree("a1", {"a1": "alpha1"})], "stats": {"items": 3}},
        {"stats": {}},
        "ParseResult(recognized=True, derivations=[DerivationTree(root='a1', "
        "instances={'a1': 'alpha1'}, steps=[])], stats={'items': 3})",
        ("recognized", False),
    ),
    (
        ValidationReport,
        {"tree_id": "a1", "violations": ["0: bad"], "warnings": ["0: no anchor"]},
        {"violations": [], "warnings": []},
        "ValidationReport(tree_id='a1', violations=['0: bad'], warnings=['0: no anchor'])",
        ("warnings", []),
    ),
]


@pytest.mark.parametrize(
    "cls, kwargs, defaults, literal, change, frozen",
    [pytest.param(*case, True, id=case[0].__name__) for case in FROZEN]
    + [pytest.param(*case, False, id=case[0].__name__) for case in MUTABLE],
)
def test_value_class_contract(cls, kwargs, defaults, literal, change, frozen):
    value = cls(*kwargs.values())
    assert repr(value) == literal
    assert cls(**kwargs) == value and not cls(**kwargs) != value
    name, other = change
    assert cls(**dict(kwargs, **{name: other})) != value
    assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value) == copy.copy(value)

    required = {k: v for k, v in kwargs.items() if k not in defaults}
    first, second = cls(**required), cls(*required.values())
    for field, default in defaults.items():
        assert getattr(first, field) == default
        if isinstance(default, (dict, list)):  # a fresh object per instance
            assert getattr(first, field) is not getattr(second, field)

    if frozen:
        assert hash(value) == hash(cls(**kwargs))
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        assert getattr(value, name) == kwargs[name]
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CfgRule("S", ()), "CFG rule needs a nonempty right-hand side"),
        (lambda: TreeSet("s", ()), "tree set 's' has no members"),
        (lambda: TreeSet("s", (TREE, TREE)), "tree set 's' has duplicate member ids"),
        (lambda: CfgRule("S", ("NP",))._replace(rhs=()), "CFG rule needs a nonempty right-hand side"),
        (lambda: TreeSet("s", (TREE,))._replace(members=()), "tree set 's' has no members"),
        (lambda: TreeNode("anchor", "x", (LEAF,)), "anchor node 'x' must be a leaf"),
        (lambda: TreeNode(kind="foot", label="S", children=(LEAF,)), "foot node 'S' must be a leaf"),
    ],
)
def test_constructor_checks(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
