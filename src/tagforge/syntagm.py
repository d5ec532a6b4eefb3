"""Bottom-up word-order computation via two-segment syntagm rules.

Every dependency node is assigned a pair of string segments (Y1, Y2) by
exactly one matching rule; segments of a dependent are placed whole,
never broken up.  This holds by construction (each term places whole
segments, and each segment is placed exactly once) and is checked as a
property in ``tests/test_linearize.py``.  The rule file format::

    class V = zien helpen leren zwemmen
    rule syntagm1 when head.cat=V and exists dep with dep.cat=V {
        y1 = nominals(byActant) ++ dep.y1 ;
        y2 = head ++ dep.y2
    }

Conditions are 'and'-joined atoms: ``any``, ``head.cat=C``,
``head.lex=w``, ``exists dep``, ``exists dep.rel=L``, each optionally
restricted ``with dep.cat=C`` and negatable with ``not``.  Segment
expressions concatenate terms with ``++``: ``head``, ``dep.y1``,
``dep.y2``, ``nominals(byActant)``, ``deps(L)`` and ``empty``.
``dep`` is the dependent singled out by the rule's ``exists`` atom.
Covert nodes contribute nothing and are invisible to the guards.

``linearize`` and ``segment_pairs`` share one stack-based post-order
visit over the tree's head -> dependents index, so depth is bounded by
memory, not by the interpreter's recursion limit.  The visit drops each
dependent's pair once its head's pair is built, which keeps memory
linear in the tree's size even on deep chains; ``linearize`` reads the
root's pair and ``segment_pairs`` keeps every pair.

The rule is decided once per node shape in each call, and that is
exact.  The guards and terms read only the head's class, its lexeme
(through ``head.lex`` atoms), and the arc labels and classes of its
overt dependents, and ``validate`` refuses two actants with the same
index, so the rule, the bound ``dep`` and the places each segment's
words come from (a *plan*) follow from the shape: the head's class, its
lexeme where a ``head.lex`` atom names it, the dependents' labels in
arc order, and their classes where an ``exists`` atom is restricted by
class.  The first node of each shape is planned by the same code as
``linearize_node``, with every check (``NoRule``, ``AmbiguousRule``,
``dep`` binding, each segment placed exactly once); later nodes of that
shape compose their pair from the plan.  The plans are dropped when the
call returns.
"""
from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import AmbiguousRule, GrammarFormatError, NoRule, TagError
from .trees import ACTANT_RE, Record

if TYPE_CHECKING:
    from .dependency import DependencyTree


class SegmentPair(NamedTuple):
    y1: tuple[str, ...]
    y2: tuple[str, ...]

    def words(self) -> list[str]:
        return list(self.y1) + list(self.y2)

    def as_strings(self) -> tuple[str, str]:
        return " ".join(self.y1), " ".join(self.y2)


class Condition(NamedTuple):
    negated: bool
    kind: str  # "any" | "head_cat" | "head_lex" | "exists"
    value: str | None = None  # category or lexeme for the head atoms
    rel: str | None = None  # arc-label restriction of an exists atom
    dep_cat: str | None = None  # category restriction of an exists atom


class SyntagmRule(NamedTuple):
    name: str
    conditions: tuple[Condition, ...]
    y1: tuple[str, ...]  # term names
    y2: tuple[str, ...]


class RuleSet(Record):
    _fields = ("rules", "classes")

    def __init__(self, rules: list[SyntagmRule], classes: dict[str, frozenset[str]]):
        self.rules = rules
        self.classes = classes
        # lexeme -> the first class that lists it
        self._class_of: dict[str, str] = {}
        for name, words in classes.items():
            for word in words:
                self._class_of.setdefault(word, name)

    def cat_of(self, lexeme: str) -> str | None:
        return self._class_of.get(lexeme)


_TERM_RE = re.compile(r"^(head|dep\.y1|dep\.y2|empty|nominals\(byActant\)|deps\([^\s()]+\))$")
_EXISTS_RE = re.compile(
    r"^exists\s+dep(?:\.rel=(?P<rel>\S+))?(?:\s+with\s+dep\.cat=(?P<cat>\S+))?$"
)


def _parse_condition(text: str) -> Condition:
    negated = False
    text = text.strip()
    if text.startswith("not "):
        negated = True
        text = text[4:].strip()
    if text == "any":
        return Condition(negated, "any")
    m = re.match(r"^head\.cat=(\S+)$", text)
    if m:
        return Condition(negated, "head_cat", value=m.group(1))
    m = re.match(r"^head\.lex=(\S+)$", text)
    if m:
        return Condition(negated, "head_lex", value=m.group(1))
    m = _EXISTS_RE.match(text)
    if m:
        return Condition(negated, "exists", rel=m["rel"], dep_cat=m["cat"])
    raise GrammarFormatError(f"cannot parse condition {text!r}")


def _parse_terms(text: str, rule_name: str) -> tuple[str, ...]:
    terms = []
    for raw in text.split("++"):
        term = raw.strip()
        if not _TERM_RE.match(term):
            raise GrammarFormatError(f"rule {rule_name!r}: unknown term {term!r}")
        if term != "empty":
            terms.append(term)
    return tuple(terms)


# Each statement regex also takes the whitespace after the statement.
_CLASS_RE = re.compile(r"class\s+(\S+)\s*=([^\n{}]*)\s*")
_RULE_RE = re.compile(r"rule\s+(?P<name>\S+)\s+when\s+(?P<cond>[^{]+)\{(?P<body>[^}]*)\}\s*")


def parse_rules(text: str) -> RuleSet:
    """Read ``class`` and ``rule`` statements in order from one cursor.  A
    class's lexemes end at the end of its line."""
    text = re.sub(r"#[^\n]*", "", text).strip()
    rules: list[SyntagmRule] = []
    classes: dict[str, frozenset[str]] = {}
    pos = 0
    while pos < len(text):
        m = _CLASS_RE.match(text, pos)
        if m is not None:
            if m[1] in classes:
                raise GrammarFormatError(f"duplicate class {m[1]!r}")
            classes[m[1]] = frozenset(m[2].split())
            pos = m.end()
            continue
        m = _RULE_RE.match(text, pos)
        if m is None:
            raise GrammarFormatError(f"unparsed rule-file content: {text[pos:pos + 60]!r}")
        pos = m.end()
        name = m["name"]
        conditions = tuple(
            _parse_condition(atom) for atom in re.split(r"\band\b", m["cond"])
        )
        assigns = {}
        for part in re.split(r"[;\n]", m["body"]):
            part = part.strip()
            if not part:
                continue
            am = re.match(r"^(y1|y2)\s*=\s*(.+)$", part)
            if am is None:
                raise GrammarFormatError(f"rule {name!r}: bad assignment {part!r}")
            if am.group(1) in assigns:
                raise GrammarFormatError(f"rule {name!r}: {am.group(1)} assigned twice")
            assigns[am.group(1)] = _parse_terms(am.group(2), name)
        if set(assigns) != {"y1", "y2"}:
            raise GrammarFormatError(f"rule {name!r} must assign both y1 and y2")
        rules.append(SyntagmRule(name, conditions, assigns["y1"], assigns["y2"]))
    if not rules:
        raise GrammarFormatError("rule file declares no rules")
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        raise GrammarFormatError("duplicate rule names")
    return RuleSet(rules, classes)


def _overt_index(tree: DependencyTree) -> dict[str, list[tuple[str, str]]]:
    """Head -> its overt dependents, (dependent, label) in arc order: the
    tree's own index when no node is covert."""
    nodes, index = tree.nodes, tree.dependent_index()
    if not any(node.covert for node in nodes.values()):
        return index
    return {
        head: [(dep, label) for dep, label in deps if not nodes[dep].covert]
        for head, deps in index.items()
    }


# (arc label, class of the dependent) of each overt dependent, in arc order
_Shape = tuple[tuple[str, str | None], ...]


def _shape(tree: DependencyTree, deps: list[tuple[str, str]], ruleset: RuleSet) -> _Shape:
    """A node's dependents as far as the guards and the terms read them."""
    nodes, cat_of = tree.nodes, ruleset.cat_of
    return tuple([(label, cat_of(nodes[dep].lexeme)) for dep, label in deps])


def _exists_matches(cond: Condition, shape: _Shape) -> list[int]:
    """Positions of the dependents an ``exists`` atom's restrictions admit."""
    return [
        i
        for i, (label, cat) in enumerate(shape)
        if (cond.rel is None or label == cond.rel)
        and (cond.dep_cat is None or cat == cond.dep_cat)
    ]


def _rule_matches(rule: SyntagmRule, lexeme: str, cat: str | None, shape: _Shape) -> bool:
    for cond in rule.conditions:
        if cond.kind == "any":
            holds = True
        elif cond.kind == "head_cat":
            holds = cat == cond.value
        elif cond.kind == "head_lex":
            holds = lexeme == cond.value
        else:
            holds = bool(_exists_matches(cond, shape))
        if holds == cond.negated:
            return False
    return True


def _matching_rule(ruleset: RuleSet, lexeme: str, shape: _Shape) -> SyntagmRule:
    cat = ruleset.cat_of(lexeme)
    matches = [r for r in ruleset.rules if _rule_matches(r, lexeme, cat, shape)]
    if not matches:
        raise NoRule(f"no syntagm rule matches node {lexeme!r}")
    if len(matches) > 1:
        raise AmbiguousRule(lexeme, [r.name for r in matches])
    return matches[0]


def _bound_dep(rule: SyntagmRule, lexeme: str, shape: _Shape) -> int | None:
    """The position of the dependent that ``dep.y1``/``dep.y2`` refer to.

    Taken from the most specific positive ``exists`` atom (category
    restriction beats arc-label restriction beats bare ``exists dep``);
    with no such atom, the node's only dependent.
    """
    atoms = [c for c in rule.conditions if c.kind == "exists" and not c.negated]
    atoms.sort(key=lambda c: (c.dep_cat is None, c.rel is None))
    for cond in atoms:
        matches = _exists_matches(cond, shape)
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise TagError(
                f"rule {rule.name!r}: 'dep' is ambiguous at node "
                f"{lexeme!r} ({len(matches)} candidates)"
            )
    if len(shape) == 1:
        return 0
    return None


# A plan holds, for Y1 and for Y2, the places its words are read from in
# turn: place 0 is the head word, place 1 + 2i + s is segment s (0 for Y1,
# 1 for Y2) of the node's i-th overt dependent.
_Plan = tuple[tuple[int, ...], tuple[int, ...]]


def _plan(ruleset: RuleSet, lexeme: str, deps: list[tuple[str, str]], shape: _Shape) -> _Plan:
    """Decide the rule at a node and where each of its segments' words come
    from, checking that the head and each dependent segment are placed
    exactly once.  Reads only the node's lexeme and ``shape``; ``deps``
    (the overt dependents) name the dependents in errors."""
    rule = _matching_rule(ruleset, lexeme, shape)
    uses_dep = any(t in ("dep.y1", "dep.y2") for t in rule.y1 + rule.y2)
    bound = _bound_dep(rule, lexeme, shape) if uses_dep else None
    if uses_dep and bound is None:
        raise TagError(
            f"rule {rule.name!r} uses 'dep' but node {lexeme!r} "
            "has no unique dependent to bind"
        )

    def places(term: str) -> list[int]:
        if term == "head":
            return [0]
        if term in ("dep.y1", "dep.y2"):
            return [1 + 2 * bound + (term == "dep.y2")]
        if term == "nominals(byActant)":
            actants = sorted(
                (int(label), i)
                for i, (label, _) in enumerate(shape)
                if ACTANT_RE.match(label) and i != bound
            )
            return [p for _, i in actants for p in (1 + 2 * i, 2 + 2 * i)]
        if term.startswith("deps("):
            wanted = term[5:-1]
            return [
                p for i, (label, _) in enumerate(shape) if label == wanted
                for p in (1 + 2 * i, 2 + 2 * i)
            ]
        raise GrammarFormatError(f"unknown term {term!r}")

    y1 = tuple(p for term in rule.y1 for p in places(term))
    y2 = tuple(p for term in rule.y2 for p in places(term))
    # The head word, and each dependent's Y1 and Y2, exactly once.
    counts = [0] * (1 + 2 * len(deps))
    for p in y1 + y2:
        counts[p] += 1
    if counts[0] != 1:
        raise TagError(
            f"rule {rule.name!r} places the head word {counts[0]} times at {lexeme!r}"
        )
    off_count = sorted({deps[(p - 1) // 2][0] for p in range(1, len(counts)) if counts[p] != 1})
    if off_count:
        raise TagError(
            f"rule {rule.name!r} at {lexeme!r}: segments of {off_count} "
            "not placed exactly once"
        )
    return y1, y2


def _compose(plan: _Plan, parts: list[tuple[str, ...]]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A node's (Y1, Y2) by its plan; ``parts`` are the head word, then each
    overt dependent's Y1 and Y2, in arc order."""
    y1, y2 = plan
    return tuple([w for p in y1 for w in parts[p]]), tuple([w for p in y2 for w in parts[p]])


def linearize_node(
    tree: DependencyTree, node_id: str, dep_pairs: dict[str, SegmentPair], ruleset: RuleSet
) -> SegmentPair:
    """Apply the unique matching rule at one node, given the dependents'
    already-computed segment pairs."""
    deps = _overt_index(tree).get(node_id, [])
    lexeme = tree.nodes[node_id].lexeme
    plan = _plan(ruleset, lexeme, deps, _shape(tree, deps, ruleset))
    parts = [(lexeme,)]
    for dep, _ in deps:
        parts += (dep_pairs[dep].y1, dep_pairs[dep].y2)
    return SegmentPair(*_compose(plan, parts))


def _postorder(index: dict[str, list[tuple[str, str]]], root: str) -> list[str]:
    """The root and every node below it in ``index``, dependents first and
    in arc order, without recursion: the reverse of a preorder that visits
    later dependents first."""
    order = []
    stack = [root]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        stack += [dep for dep, _ in index.get(node_id, ())]
    order.reverse()
    return order


def _pairs(
    tree: DependencyTree, ruleset: RuleSet
) -> Iterator[tuple[str, tuple[tuple[str, ...], tuple[str, ...]]]]:
    """Validate ``tree``, then yield (node, (Y1, Y2)) for the root and every
    overt node below it through overt nodes, in post-order; errors name
    the node path, and a pair is dropped once its head's is built.  Each
    node shape (see the module docstring) is planned once.  After the
    root's pair, the words it holds must be as many as the overt nodes:
    an overt node below a covert one has no place."""
    index = _overt_index(tree)
    nodes, cat_of = tree.nodes, ruleset._class_of.get
    conditions = [c for rule in ruleset.rules for c in rule.conditions]
    named = {c.value for c in conditions if c.kind == "head_lex"}
    by_class = any(c.kind == "exists" and c.dep_cat is not None for c in conditions)
    plans: dict[tuple, _Plan] = {}
    done: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    for node_id in _postorder(index, tree.root):
        deps = index.get(node_id, [])
        lexeme = nodes[node_id].lexeme
        key = (cat_of(lexeme), lexeme if lexeme in named else None, *[label for _, label in deps])
        if by_class:
            key += tuple([cat_of(nodes[dep].lexeme) for dep, _ in deps])
        plan = plans.get(key)
        if plan is None:
            try:
                plan = plans[key] = _plan(ruleset, lexeme, deps, _shape(tree, deps, ruleset))
            except TagError as exc:
                exc.args = (f"{exc.args[0]} (at {_path(tree, node_id)})",) + exc.args[1:]
                raise
        parts = [(lexeme,)]
        for dep, _ in deps:
            parts += done.pop(dep)
        pair = done[node_id] = _compose(plan, parts)
        yield node_id, pair
    words, overt_count = len(pair[0]) + len(pair[1]), len(tree.overt_nodes())
    if words != overt_count:
        raise TagError(f"word conservation violated: {words} words for {overt_count} nodes")


def linearize(tree: DependencyTree, ruleset: RuleSet) -> list[str]:
    """Compute the surface word sequence (DMorphR) of a dependency tree."""
    for _, (y1, y2) in _pairs(tree, ruleset):
        pass  # post-order: the root's pair comes last
    return list(y1 + y2)


def segment_pairs(tree: DependencyTree, ruleset: RuleSet) -> dict[str, SegmentPair]:
    """All intermediate segment pairs, keyed by node id."""
    return {node_id: SegmentPair(*pair) for node_id, pair in _pairs(tree, ruleset)}


def _path(tree: DependencyTree, node_id: str) -> str:
    heads = {d: h for h, d, _ in tree.arcs}
    parts = [tree.nodes[node_id].lexeme]
    while node_id in heads:
        node_id = heads[node_id]
        parts.append(tree.nodes[node_id].lexeme)
    return "/".join(reversed(parts))
