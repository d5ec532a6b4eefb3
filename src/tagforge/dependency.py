"""Dependency trees, the derivation-tree bridge, and projectivity.

The bridge turns a derivation tree into an MTT-style dependency tree:
actant and ATTR arcs are copied as they are, while every S-labeled arc
(matrix clause adjoined into its complement) is reversed.

Every walk over a tree reads one head -> dependents index, built in one
pass over ``arcs`` (in arc order) and rebuilt only after ``arcs``
changes; nothing rescans the arc list per node.  ``is_projective``
numbers the nodes in pre- and postorder in one traversal, so "is X below
H" is a constant-time test, and finds for every position the nearest
non-dependent on either side with monotone stacks.  The verdict is thus
linear in the tree and order; only failing arcs are scanned to list the
violations.  Validation, parsing, serialization and projectivity use
explicit stacks and memory linear in the tree, so chains 10^4 levels
deep need no recursion.

``validate`` keeps a copy of the root, arcs and nodes it last found
valid, and checks the tree again only when they have changed since, so
a tree passed from ``parse_dependency`` or ``derivation_to_dependency``
to ``is_projective``, ``linearize`` and the exports is checked once.
"""
from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple

from .errors import GrammarFormatError, IncompleteOrder, InversionError, UnknownTree
from .trees import ACTANT_RE, Record, find_cycle

if TYPE_CHECKING:
    from .derive import DerivationTree
    from .grammar import Grammar

ATTR = "ATTR"
S_ARC = "S"


class DepNode(NamedTuple):
    id: str
    lexeme: str
    covert: bool = False  # parenthesized deleted actant; has no surface slot


class DependencyTree(Record):
    _fields = ("root", "nodes", "arcs", "order")

    def __init__(
        self,
        root: str,
        nodes: dict[str, DepNode] | None = None,
        arcs: list[tuple[str, str, str]] | None = None,
        order: list[str] | None = None,
    ):
        self.root = root
        self.nodes = {} if nodes is None else nodes
        self.arcs = [] if arcs is None else arcs  # (head, dep, label)
        self.order = order  # node ids in surface order
        # head -> [(dep, label)] in arc order, and the arcs it was built from
        self._index = self._indexed = None
        self._valid: tuple | None = None  # (root, arcs, nodes) as last validated

    def dependent_index(self) -> dict[str, list[tuple[str, str]]]:
        """Head id -> [(dependent id, label)] in arc order.  Built in one
        pass over ``arcs`` and rebuilt whenever they have changed; the
        lists are shared, so callers must not mutate them."""
        if self._indexed != self.arcs:
            index: dict[str, list[tuple[str, str]]] = {}
            for head, dep, label in self.arcs:
                index.setdefault(head, []).append((dep, label))
            self._index, self._indexed = index, list(self.arcs)
        return self._index

    def dependents(self, node_id: str) -> list[tuple[str, str]]:
        return list(self.dependent_index().get(node_id, ()))

    def overt_nodes(self) -> list[DepNode]:
        return [n for n in self.nodes.values() if not n.covert]

    def validate(self) -> None:
        """Check that the arcs form one tree over the nodes from ``root``,
        with distinct actant indices at each node.  A tree checked once is
        checked again only after its root, arcs or nodes have changed."""
        if self._valid is not None and self._valid == (self.root, self.arcs, self.nodes):
            return
        nodes = self.nodes
        if self.root not in nodes:
            raise GrammarFormatError(f"root {self.root!r} is not a node")
        heads: dict[str, str] = {}
        for head, dep, label in self.arcs:
            if head not in nodes or dep not in nodes:
                raise GrammarFormatError(f"arc {head}->{dep} references unknown node")
            if dep in heads:
                raise GrammarFormatError(f"node {dep!r} has two heads")
            heads[dep] = head
        if self.root in heads:
            raise GrammarFormatError("root has a head")
        if len(heads) != len(nodes) - 1:
            node = next(n for n in nodes if n != self.root and n not in heads)
            raise GrammarFormatError(f"node {node!r} is disconnected")
        node = find_cycle(heads, self.root, nodes)
        if node is not None:
            raise GrammarFormatError(f"cycle through node {node!r}")
        actants = [(head, label) for head, _, label in self.arcs if ACTANT_RE.match(label)]
        if len(set(actants)) != len(actants):
            seen, twice = set(), set()
            for actant in actants:
                if actant in seen:
                    twice.add(actant[0])
                seen.add(actant)
            node = next(n for n in nodes if n in twice)
            raise GrammarFormatError(f"node {node!r} has two actants with the same index")
        self._valid = (self.root, list(self.arcs), dict(self.nodes))


def derivation_to_dependency(derivation: DerivationTree, grammar: Grammar) -> DependencyTree:
    """One dependency node per derivation node; S arcs are inverted."""
    derivation.validate()
    tree = DependencyTree(root=derivation.root)
    sets = derivation.set_occurrences()
    for instance, tree_id in derivation.instances.items():
        tree.nodes[instance] = DepNode(instance, _lexeme_for(grammar, tree_id, instance in sets))

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


def _lexeme_for(grammar: Grammar, tree_id: str, is_set: bool) -> str:
    """A derivation node's lexeme: its tree's anchor, else the tree id.
    A set occurrence (an instance an ``adjoin_set`` step attaches) takes
    its *last* member's anchor (in the bundled corpus, that member carries
    the matrix verb)."""
    if not is_set:
        return grammar.tree(tree_id).anchor_lexeme or tree_id
    if tree_id not in grammar.tree_sets:
        raise UnknownTree(f"no tree set named {tree_id!r}")
    return grammar.tree_sets[tree_id].members[-1].anchor_lexeme or tree_id


class ProjectivityReport(NamedTuple):
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
    may cover the root.  Covert nodes are ignored.

    Violations are listed arc by arc in ``tree.arcs`` order: the covered
    words left to right, then a line if the arc covers the root.  A node
    placed twice counts at its last position but is listed where it was
    first placed."""
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
    slots: list[str | None] = [None] * len(order)  # the node counted at each position
    for node_id, i in position.items():
        slots[i] = node_id

    # v is below h iff pre[h] < pre[v] and post[v] < post[h].  An arc is
    # clean iff the nearest position beyond its head, towards its
    # dependent, that holds a node not below the head lies past the
    # dependent.
    pre, post = _pre_post_numbers(tree)
    keys = [None if n is None else (pre[n], post[n]) for n in slots]
    right = _nearest_outside(keys, range(len(keys) - 1, -1, -1), len(keys), min)
    left = _nearest_outside(keys, range(len(keys)), -1, max)

    violations: list[str] = []
    rank: dict[str, int] = {}  # listing order: where each node was first placed
    for head, dep, label in tree.arcs:
        if head not in position or dep not in position:
            continue  # covert endpoint
        at, to = position[head], position[dep]
        clean = right[at] > to if at < to else left[at] < to
        if clean:
            continue
        lo, hi = min(at, to), max(at, to)
        strays = [
            n for n in slots[lo + 1 : hi]
            if n is not None and not (pre[head] < pre[n] and post[n] < post[head])
        ]
        if not rank:
            rank = {node_id: r for r, node_id in enumerate(position)}
        strays.sort(key=rank.__getitem__)
        h, d = tree.nodes[head].lexeme, tree.nodes[dep].lexeme
        violations += [
            f"arc {h}-{label}->{d} covers {tree.nodes[n].lexeme}, "
            f"which is not a dependent of {h}"
            for n in strays
        ]
        if tree.root in strays:
            violations.append(f"arc {h}-{label}->{d} covers the root {tree.nodes[tree.root].lexeme}")
    return ProjectivityReport(not violations, violations)


def _pre_post_numbers(tree: DependencyTree) -> tuple[dict[str, int], dict[str, int]]:
    """Each node's preorder and postorder number, from one traversal."""
    index = tree.dependent_index()
    pre: dict[str, int] = {}
    post: dict[str, int] = {}
    stack = [(tree.root, False)]
    while stack:
        node_id, leaving = stack.pop()
        if leaving:
            post[node_id] = len(post)
            continue
        pre[node_id] = len(pre)
        stack.append((node_id, True))
        stack.extend((dep, False) for dep, _ in index.get(node_id, ()))
    return pre, post


def _nearest_outside(
    keys: list[tuple[int, int] | None], scan: range, none: int, nearer
) -> list[int]:
    """For each filled slot i, the nearest filled slot that ``scan`` visits
    before i (scanning right to left finds neighbours on the right) whose
    node is not below slot i's node, or ``none``.  ``keys`` holds each
    slot's (preorder, postorder) numbers; not below means a smaller
    preorder or a larger postorder number.  A monotone stack finds the
    nearest of each, and every slot is pushed and popped once."""
    out = [none] * len(keys)
    smaller_pre: list[int] = []
    larger_post: list[int] = []
    for i in scan:
        key = keys[i]
        if key is None:
            continue
        pre, post = key
        while smaller_pre and keys[smaller_pre[-1]][0] >= pre:
            smaller_pre.pop()
        while larger_post and keys[larger_post[-1]][1] <= post:
            larger_post.pop()
        out[i] = nearer(
            smaller_pre[-1] if smaller_pre else none,
            larger_post[-1] if larger_post else none,
        )
        smaller_pre.append(i)
        larger_post.append(i)
    return out


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
    open_heads: list[str] = []  # heads of the blocks still open, innermost last
    while True:
        token = tokens[pos]
        m = _NODE_RE.match(token)
        if m is None or token in ("{", "}"):
            raise GrammarFormatError(f"bad node token {token!r}")
        pos += 1
        label = m["label"]
        parent = open_heads[-1] if open_heads else None
        if parent is None and label is not None:
            raise GrammarFormatError("the root node takes no arc label")
        if parent is not None and label is None:
            raise GrammarFormatError(f"node {m['lexeme']!r} is missing an arc label")
        node_id = fresh_id(m["lexeme"])
        tree.nodes[node_id] = DepNode(node_id, m["lexeme"], covert=bool(m["covert"]))
        if parent is None:
            tree.root = node_id
        else:
            tree.arcs.append((parent, node_id, label))
        if pos < len(tokens) and tokens[pos] == "{":
            pos += 1
            open_heads.append(node_id)
        while open_heads and pos < len(tokens) and tokens[pos] == "}":
            open_heads.pop()
            pos += 1
        if not open_heads:
            break  # the root's entry is complete
        if pos >= len(tokens):
            raise GrammarFormatError("unclosed '{'")
    if pos != len(tokens):
        raise GrammarFormatError(f"trailing input {tokens[pos]!r}")
    tree.validate()
    return tree


def serialize_dependency(tree: DependencyTree) -> str:
    """The nested-block text of a valid tree, dependents in arc order."""
    tree.validate()
    index = tree.dependent_index()
    out = ["dep"]
    stack: list[tuple[str, str | None] | None] = [(tree.root, None)]  # None closes a block
    while stack:
        entry = stack.pop()
        if entry is None:
            out.append("}")
            continue
        node_id, label = entry
        node = tree.nodes[node_id]
        name = f"({node.lexeme})" if node.covert else node.lexeme
        out.append(name if label is None else f"{name}:{label}")
        deps = index.get(node_id)
        if deps:
            out.append("{")
            stack.append(None)
            stack.extend(reversed(deps))
    return " ".join(out) + "\n"
