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
memory, not by the interpreter's recursion limit.  Each node's overt
dependents are listed once and shared by rule matching, ``dep`` binding
and composition.  The visit drops each dependent's pair once its head's
pair is built, which keeps memory linear in the tree's size even on deep
chains; ``linearize`` reads the root's pair and ``segment_pairs`` keeps
every pair.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from .errors import AmbiguousRule, GrammarFormatError, NoRule, TagError
from .trees import ACTANT_RE

if TYPE_CHECKING:
    from .dependency import DependencyTree


@dataclass(frozen=True)
class SegmentPair:
    y1: tuple[str, ...]
    y2: tuple[str, ...]

    def words(self) -> list[str]:
        return list(self.y1) + list(self.y2)

    def as_strings(self) -> tuple[str, str]:
        return " ".join(self.y1), " ".join(self.y2)


@dataclass(frozen=True)
class Condition:
    negated: bool
    kind: str  # "any" | "head_cat" | "head_lex" | "exists"
    value: str | None = None  # category or lexeme for the head atoms
    rel: str | None = None  # arc-label restriction of an exists atom
    dep_cat: str | None = None  # category restriction of an exists atom


@dataclass(frozen=True)
class SyntagmRule:
    name: str
    conditions: tuple[Condition, ...]
    y1: tuple[str, ...]  # term names
    y2: tuple[str, ...]


@dataclass
class RuleSet:
    rules: list[SyntagmRule]
    classes: dict[str, frozenset[str]]
    # lexeme -> the first class that lists it
    _class_of: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._class_of = {}
        for name, words in self.classes.items():
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


def parse_rules(text: str) -> RuleSet:
    text = re.sub(r"#[^\n]*", "", text)
    rules: list[SyntagmRule] = []
    classes: dict[str, frozenset[str]] = {}

    class_re = re.compile(r"class\s+(\S+)\s*=\s*([^\n]+)")
    rule_re = re.compile(
        r"rule\s+(?P<name>\S+)\s+when\s+(?P<cond>[^{]+)\{(?P<body>[^}]*)\}",
        re.DOTALL,
    )
    consumed = []
    for m in class_re.finditer(text):
        name = m.group(1)
        if name in classes:
            raise GrammarFormatError(f"duplicate class {name!r}")
        classes[name] = frozenset(m.group(2).split())
        consumed.append(m.span())
    for m in rule_re.finditer(text):
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
        consumed.append(m.span())

    leftover = text
    for start, end in sorted(consumed, reverse=True):
        leftover = leftover[:start] + leftover[end:]
    if leftover.strip():
        raise GrammarFormatError(f"unparsed rule-file content: {leftover.strip()[:60]!r}")
    if not rules:
        raise GrammarFormatError("rule file declares no rules")
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        raise GrammarFormatError("duplicate rule names")
    return RuleSet(rules, classes)


def _overt_deps(
    tree: DependencyTree, index: dict[str, list[tuple[str, str]]], node_id: str
) -> list[tuple[str, str]]:
    return [(dep, label) for dep, label in index.get(node_id, ()) if not tree.nodes[dep].covert]


def _exists_matches(
    cond: Condition, deps: list[tuple[str, str]], tree: DependencyTree, ruleset: RuleSet
) -> list[str]:
    out = []
    for dep, label in deps:
        if cond.rel is not None and label != cond.rel:
            continue
        if cond.dep_cat is not None and ruleset.cat_of(tree.nodes[dep].lexeme) != cond.dep_cat:
            continue
        out.append(dep)
    return out


def _rule_matches(
    rule: SyntagmRule,
    tree: DependencyTree,
    lexeme: str,
    deps: list[tuple[str, str]],
    ruleset: RuleSet,
) -> bool:
    for cond in rule.conditions:
        if cond.kind == "any":
            holds = True
        elif cond.kind == "head_cat":
            holds = ruleset.cat_of(lexeme) == cond.value
        elif cond.kind == "head_lex":
            holds = lexeme == cond.value
        else:
            holds = bool(_exists_matches(cond, deps, tree, ruleset))
        if holds == cond.negated:
            return False
    return True


def _bound_dep(
    rule: SyntagmRule,
    tree: DependencyTree,
    node_id: str,
    deps: list[tuple[str, str]],
    ruleset: RuleSet,
) -> str | None:
    """The dependent that ``dep.y1``/``dep.y2`` refer to.

    Taken from the most specific positive ``exists`` atom (category
    restriction beats arc-label restriction beats bare ``exists dep``);
    with no such atom, the node's only dependent.
    """
    atoms = [c for c in rule.conditions if c.kind == "exists" and not c.negated]
    atoms.sort(key=lambda c: (c.dep_cat is None, c.rel is None))
    for cond in atoms:
        matches = _exists_matches(cond, deps, tree, ruleset)
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise TagError(
                f"rule {rule.name!r}: 'dep' is ambiguous at node "
                f"{tree.nodes[node_id].lexeme!r} ({len(matches)} candidates)"
            )
    if len(deps) == 1:
        return deps[0][0]
    return None


def match_rule(
    tree: DependencyTree,
    node_id: str,
    ruleset: RuleSet,
    deps: list[tuple[str, str]] | None = None,
) -> SyntagmRule:
    """The unique rule matching a node; ``deps`` are its overt dependents
    when the caller has them already."""
    if deps is None:
        deps = _overt_deps(tree, tree.dependent_index(), node_id)
    lexeme = tree.nodes[node_id].lexeme
    matches = [r for r in ruleset.rules if _rule_matches(r, tree, lexeme, deps, ruleset)]
    if not matches:
        raise NoRule(f"no syntagm rule matches node {lexeme!r}")
    if len(matches) > 1:
        raise AmbiguousRule(lexeme, [r.name for r in matches])
    return matches[0]


def linearize_node(
    tree: DependencyTree,
    node_id: str,
    dep_pairs: dict[str, SegmentPair],
    ruleset: RuleSet,
    deps: list[tuple[str, str]] | None = None,
) -> SegmentPair:
    """Apply the unique matching rule at one node, given the dependents'
    already-computed segment pairs (and, optionally, its overt
    dependents)."""
    if deps is None:
        deps = _overt_deps(tree, tree.dependent_index(), node_id)
    rule = match_rule(tree, node_id, ruleset, deps)
    lexeme = tree.nodes[node_id].lexeme
    uses_dep = any(t in ("dep.y1", "dep.y2") for t in rule.y1 + rule.y2)
    bound = _bound_dep(rule, tree, node_id, deps, ruleset) if uses_dep else None
    if uses_dep and bound is None:
        raise TagError(
            f"rule {rule.name!r} uses 'dep' but node {lexeme!r} "
            "has no unique dependent to bind"
        )
    # Each dependent's Y1 and Y2 must each be placed exactly once.
    used: dict[tuple[str, str], int] = {(d, s): 0 for d, _ in deps for s in ("y1", "y2")}
    head_used = 0

    def eval_term(term: str) -> list[str]:
        nonlocal head_used
        if term == "head":
            head_used += 1
            return [lexeme]
        if term in ("dep.y1", "dep.y2"):
            pair = dep_pairs[bound]
            segment = term[4:]
            used[(bound, segment)] += 1
            return list(getattr(pair, segment))
        if term == "nominals(byActant)":
            out = []
            actants = [
                (int(label), dep)
                for dep, label in deps
                if ACTANT_RE.match(label)
            ]
            for _, dep in sorted(actants):
                if dep == bound:
                    continue
                used[(dep, "y1")] += 1
                used[(dep, "y2")] += 1
                out.extend(dep_pairs[dep].words())
            return out
        if term.startswith("deps("):
            label_wanted = term[5:-1]
            out = []
            for dep, label in deps:
                if label == label_wanted:
                    used[(dep, "y1")] += 1
                    used[(dep, "y2")] += 1
                    out.extend(dep_pairs[dep].words())
            return out
        raise GrammarFormatError(f"unknown term {term!r}")

    y1 = [w for term in rule.y1 for w in eval_term(term)]
    y2 = [w for term in rule.y2 for w in eval_term(term)]

    if head_used != 1:
        raise TagError(
            f"rule {rule.name!r} places the head word {head_used} times at {lexeme!r}"
        )
    off_count = sorted({d for (d, _), n in used.items() if n != 1})
    if off_count:
        raise TagError(
            f"rule {rule.name!r} at {lexeme!r}: segments of {off_count} "
            "not placed exactly once"
        )
    return SegmentPair(tuple(y1), tuple(y2))


def _postorder(tree: DependencyTree) -> Iterator[tuple[str, list[tuple[str, str]]]]:
    """(node, overt dependents) for the root and every overt node below it
    through overt nodes, dependents first and in arc order, without
    recursion."""
    index = tree.dependent_index()
    stack: list[tuple[str, list[tuple[str, str]] | None]] = [(tree.root, None)]
    while stack:
        node_id, deps = stack.pop()
        if deps is not None:
            yield node_id, deps
            continue
        deps = _overt_deps(tree, index, node_id)
        stack.append((node_id, deps))
        stack.extend((dep, None) for dep, _ in reversed(deps))


def _pairs(tree: DependencyTree, ruleset: RuleSet) -> Iterator[tuple[str, SegmentPair]]:
    """Validate ``tree``, then yield (node, segment pair) in post-order;
    errors name the node path, and a pair is dropped once its head's is built."""
    tree.validate()
    pairs: dict[str, SegmentPair] = {}
    for node_id, deps in _postorder(tree):
        try:
            pair = linearize_node(tree, node_id, pairs, ruleset, deps)
        except TagError as exc:
            exc.args = (f"{exc.args[0]} (at {_path(tree, node_id)})",) + exc.args[1:]
            raise
        for dep, _ in deps:
            del pairs[dep]
        pairs[node_id] = pair
        yield node_id, pair


def linearize(tree: DependencyTree, ruleset: RuleSet) -> list[str]:
    """Compute the surface word sequence (DMorphR) of a dependency tree."""
    for _, root_pair in _pairs(tree, ruleset):
        pass  # post-order: the root's pair comes last
    words = root_pair.words()
    overt_count = len(tree.overt_nodes())
    if len(words) != overt_count:
        raise TagError(
            f"word conservation violated: {len(words)} words for {overt_count} nodes"
        )
    return words


def segment_pairs(tree: DependencyTree, ruleset: RuleSet) -> dict[str, SegmentPair]:
    """All intermediate segment pairs, keyed by node id."""
    return dict(_pairs(tree, ruleset))


def _path(tree: DependencyTree, node_id: str) -> str:
    heads = {d: h for h, d, _ in tree.arcs}
    parts = [tree.nodes[node_id].lexeme]
    while node_id in heads:
        node_id = heads[node_id]
        parts.append(tree.nodes[node_id].lexeme)
    return "/".join(reversed(parts))
