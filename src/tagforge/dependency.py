"""Dependency trees, the derivation-tree bridge, and projectivity.

The bridge turns a derivation tree into an MTT-style dependency tree:
actant and ATTR arcs are copied as they are, while every S-labeled arc
(matrix clause adjoined into its complement) is reversed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .derive import ACTANT_RE, DerivationTree
from .errors import GrammarFormatError, IncompleteOrder, InversionError
from .grammar import Grammar

ATTR = "ATTR"
S_ARC = "S"


@dataclass(frozen=True)
class DepNode:
    id: str
    lexeme: str
    covert: bool = False  # parenthesized deleted actant; has no surface slot


@dataclass
class DependencyTree:
    root: str
    nodes: dict[str, DepNode] = field(default_factory=dict)
    arcs: list[tuple[str, str, str]] = field(default_factory=list)  # (head, dep, label)
    order: list[str] | None = None  # node ids in surface order

    def dependents(self, node_id: str) -> list[tuple[str, str]]:
        return [(d, l) for h, d, l in self.arcs if h == node_id]

    def overt_nodes(self) -> list[DepNode]:
        return [n for n in self.nodes.values() if not n.covert]

    def validate(self) -> None:
        if self.root not in self.nodes:
            raise GrammarFormatError(f"root {self.root!r} is not a node")
        heads: dict[str, str] = {}
        for head, dep, label in self.arcs:
            if head not in self.nodes or dep not in self.nodes:
                raise GrammarFormatError(f"arc {head}->{dep} references unknown node")
            if dep in heads:
                raise GrammarFormatError(f"node {dep!r} has two heads")
            heads[dep] = head
        if self.root in heads:
            raise GrammarFormatError("root has a head")
        for node_id in self.nodes:
            if node_id != self.root and node_id not in heads:
                raise GrammarFormatError(f"node {node_id!r} is disconnected")
        for node_id in self.nodes:
            seen = set()
            cursor = node_id
            while cursor != self.root:
                if cursor in seen:
                    raise GrammarFormatError(f"cycle through node {cursor!r}")
                seen.add(cursor)
                cursor = heads[cursor]
        for node_id in self.nodes:
            indices = [l for _, l in self.dependents(node_id) if ACTANT_RE.match(l)]
            if len(indices) != len(set(indices)):
                raise GrammarFormatError(
                    f"node {node_id!r} has two actants with the same index"
                )

    def descendants(self, node_id: str) -> set[str]:
        out: set[str] = set()
        stack = [node_id]
        while stack:
            for dep, _ in self.dependents(stack.pop()):
                if dep not in out:
                    out.add(dep)
                    stack.append(dep)
        return out


def derivation_to_dependency(derivation: DerivationTree, grammar: Grammar) -> DependencyTree:
    """One dependency node per derivation node; S arcs are inverted."""
    derivation.validate()
    tree = DependencyTree(root=derivation.root)
    for instance, tree_id in derivation.instances.items():
        tree.nodes[instance] = DepNode(instance, _lexeme_for(grammar, tree_id))

    inverted = []
    for step in derivation.steps:
        if step.arc_label == S_ARC:
            tree.arcs.append((step.child, step.parent, step.arc_label))
            inverted.append((step.parent, step.child))
        else:
            tree.arcs.append((step.parent, step.child, step.arc_label))

    # Re-root: after inversion the root is the unique node with no head.
    headed = {dep for _, dep, _ in tree.arcs}
    roots = [n for n in tree.nodes if n not in headed]
    if len(roots) != 1:
        raise InversionError(
            f"S-arc inversion left {len(roots)} roots", arcs=inverted
        )
    tree.root = roots[0]
    try:
        tree.validate()
    except GrammarFormatError as exc:
        raise InversionError(f"inversion result is not a tree: {exc}", arcs=inverted) from exc
    return tree


def _lexeme_for(grammar: Grammar, tree_id: str) -> str:
    if tree_id in grammar.tree_sets:
        # A set occurrence is one derivation node; its last member carries
        # the matrix verb in the bundled corpus.
        return grammar.tree_sets[tree_id].members[-1].anchor_lexeme or tree_id
    tree = grammar.tree(tree_id)
    return tree.anchor_lexeme or tree_id


@dataclass
class ProjectivityReport:
    projective: bool
    violations: list[str]


def resolve_order(tree: DependencyTree, words: list[str]) -> list[str]:
    """Map a surface word list to node ids, left to right.

    Words with no matching node (function words realized inside some
    elementary tree) are skipped.  Repeated lexemes are assigned to
    their nodes in reading order; ``word#2`` selects a node explicitly.
    """
    remaining: dict[str, list[str]] = {}
    for node in tree.overt_nodes():
        remaining.setdefault(node.lexeme, []).append(node.id)
    order = []
    for word in words:
        if "#" in word and word in tree.nodes:
            order.append(word)
            base = tree.nodes[word].lexeme
            if base in remaining and word in remaining[base]:
                remaining[base].remove(word)
            continue
        pool = remaining.get(word)
        if pool:
            order.append(pool.pop(0))
    missing = [ids for ids in remaining.values() if ids]
    if missing:
        flat = [i for ids in missing for i in ids]
        raise IncompleteOrder(f"order does not place nodes: {', '.join(sorted(flat))}")
    return order


def is_projective(
    tree: DependencyTree, order: list[str] | None = None
) -> ProjectivityReport:
    """Mel'cuk projectivity: every word strictly between the endpoints of
    an arc must be a transitive dependent of the arc's head, and no arc
    may cover the root.  Covert nodes are ignored."""
    tree.validate()
    if order is None:
        order = tree.order
    if order is None:
        raise IncompleteOrder("no surface order given")
    overt = {n.id for n in tree.overt_nodes()}
    missing = overt.difference(order)
    if missing:
        raise IncompleteOrder(f"order does not place nodes: {', '.join(sorted(missing))}")
    position = {node_id: i for i, node_id in enumerate(order) if node_id in overt}

    violations = []
    desc = {n: tree.descendants(n) for n in tree.nodes}
    root_pos = position.get(tree.root)
    for head, dep, label in tree.arcs:
        if head not in position or dep not in position:
            continue  # covert endpoint
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
    return ProjectivityReport(not violations, violations)


_NODE_RE = re.compile(r"^(?P<covert>\()?(?P<lexeme>[^():{}\s]+)(?(covert)\))(?::(?P<label>\S+))?$")


def parse_dependency(text: str) -> DependencyTree:
    """Parse the nested-block dependency format::

        dep omdat { zag:1 { Wim:1 helpen:2 { ... } } (PRO):1 }

    A parenthesized lexeme marks a covert node.  Duplicate lexemes get
    ids ``lexeme#2``, ``lexeme#3``, ... in reading order.
    """
    tokens = re.findall(r"\{|\}|[^{}\s]+", re.sub(r"#[^\n]*", "", text))
    if not tokens or tokens[0] != "dep":
        raise GrammarFormatError("dependency file must start with 'dep'")
    if len(tokens) == 1:
        raise GrammarFormatError("dependency file has no root node")
    counts: dict[str, int] = {}

    def fresh_id(lexeme: str) -> str:
        counts[lexeme] = counts.get(lexeme, 0) + 1
        return lexeme if counts[lexeme] == 1 else f"{lexeme}#{counts[lexeme]}"

    tree = DependencyTree(root="")
    pos = 1

    def parse_entry(parent: str | None):
        nonlocal pos
        m = _NODE_RE.match(tokens[pos])
        if m is None or tokens[pos] in ("{", "}"):
            raise GrammarFormatError(f"bad node token {tokens[pos]!r}")
        pos += 1
        label = m["label"]
        if parent is None and label is not None:
            raise GrammarFormatError("the root node takes no arc label")
        if parent is not None and label is None:
            raise GrammarFormatError(f"node {m['lexeme']!r} is missing an arc label")
        node_id = fresh_id(m["lexeme"])
        tree.nodes[node_id] = DepNode(node_id, m["lexeme"], covert=bool(m["covert"]))
        if parent is not None:
            tree.arcs.append((parent, node_id, label))
        if pos < len(tokens) and tokens[pos] == "{":
            pos += 1
            while pos < len(tokens) and tokens[pos] != "}":
                parse_entry(node_id)
            if pos >= len(tokens):
                raise GrammarFormatError("unclosed '{'")
            pos += 1
        return node_id

    tree.root = parse_entry(None)
    if pos != len(tokens):
        raise GrammarFormatError(f"trailing input {tokens[pos]!r}")
    tree.validate()
    return tree


def serialize_dependency(tree: DependencyTree) -> str:
    def render(node_id: str, label: str | None) -> str:
        node = tree.nodes[node_id]
        name = f"({node.lexeme})" if node.covert else node.lexeme
        head = name if label is None else f"{name}:{label}"
        deps = tree.dependents(node_id)
        if not deps:
            return head
        inner = " ".join(render(d, l) for d, l in deps)
        return f"{head} {{ {inner} }}"

    return f"dep {render(tree.root, None)}\n"
