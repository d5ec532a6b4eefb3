"""Grammars, elementary trees, well-formedness checks and CFG composition."""
from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .errors import CompositionError, UnknownTree
from .trees import (
    ANCHOR,
    FOOT,
    INTERIOR,
    SUBSTITUTION,
    TERMINAL,
    WORD_KINDS,
    Address,
    Frozen,
    Record,
    TreeNode,
    format_address,
    node_at,
    replace_at,
    walk,
)

INITIAL = "initial"
AUXILIARY = "aux"


class Word(str):
    """A terminal word on the right-hand side of a CFG rule.

    Plain strings in a rule RHS are nonterminal category labels; wrapping
    a string in ``Word`` marks it as a surface terminal.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Word({str.__repr__(self)})"


class _CfgRule(NamedTuple):
    lhs: str
    rhs: tuple[str, ...]


class CfgRule(_CfgRule):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, lhs: str, rhs: tuple[str, ...]):
        if not rhs:
            raise ValueError("CFG rule needs a nonempty right-hand side")
        return super().__new__(cls, lhs, rhs)


class ElementaryTree(Record, Frozen):
    """An initial or auxiliary tree with at most one lexical anchor."""

    _fields = ("id", "shape", "root")

    def __init__(self, id: str, shape: str, root: TreeNode):
        # Not slotted: the cached properties below are kept in __dict__.
        self.__dict__.update(id=id, shape=shape, root=root)  # shape: INITIAL or AUXILIARY

    def __hash__(self):
        return hash((self.id, self.shape, self.root))

    @property
    def anchor_lexeme(self) -> str | None:
        anchors = self.anchor_addresses()
        if len(anchors) != 1:
            return None
        return self.node_at(anchors[0]).label

    def node_at(self, address: Address) -> TreeNode:
        return node_at(self.root, address)

    @cached_property
    def nodes(self) -> dict[Address, TreeNode]:
        """Every node by address, from one walk per tree.  Preorder is also
        the sorted order of Gorn addresses."""
        return dict(walk(self.root))

    @cached_property
    def words(self) -> tuple[str, ...]:
        """The anchor and terminal words, in preorder."""
        return tuple(n.label for n in self.nodes.values() if n.kind in WORD_KINDS)

    @cached_property
    def _addresses(self) -> dict[str, tuple[Address, ...]]:
        by_kind: dict[str, list[Address]] = {}
        for address, node in self.nodes.items():
            by_kind.setdefault(node.kind, []).append(address)
        return {kind: tuple(addresses) for kind, addresses in by_kind.items()}

    def anchor_addresses(self) -> list[Address]:
        return list(self._addresses.get(ANCHOR, ()))

    def foot_addresses(self) -> list[Address]:
        return list(self._addresses.get(FOOT, ()))

    def substitution_addresses(self) -> list[Address]:
        return list(self._addresses.get(SUBSTITUTION, ()))

    def interior_addresses(self) -> list[Address]:
        return list(self._addresses.get(INTERIOR, ()))


class _TreeSet(NamedTuple):
    id: str
    members: tuple[ElementaryTree, ...]


class TreeSet(_TreeSet):
    """Trees that must all be adjoined in one step (non-local MC-TAG)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, id: str, members: tuple[ElementaryTree, ...]):
        if not members:
            raise ValueError(f"tree set {id!r} has no members")
        ids = [m.id for m in members]
        if len(set(ids)) != len(ids):
            raise ValueError(f"tree set {id!r} has duplicate member ids")
        return super().__new__(cls, id, members)


class Grammar(Record):
    _fields = ("trees", "tree_sets", "start_symbol")

    def __init__(
        self,
        trees: dict[str, ElementaryTree] | None = None,
        tree_sets: dict[str, TreeSet] | None = None,
        start_symbol: str | None = None,
    ):
        self.trees = {} if trees is None else trees
        self.tree_sets = {} if tree_sets is None else tree_sets
        self.start_symbol = start_symbol

    def all_trees(self) -> list[ElementaryTree]:
        trees = list(self.trees.values())
        for ts in self.tree_sets.values():
            trees.extend(ts.members)
        return trees

    def tree(self, tree_id: str) -> ElementaryTree:
        if tree_id in self.trees:
            return self.trees[tree_id]
        for ts in self.tree_sets.values():
            for member in ts.members:
                if member.id == tree_id:
                    return member
        raise UnknownTree(f"no tree named {tree_id!r}")

    def initial_trees(self) -> list[ElementaryTree]:
        return [t for t in self.trees.values() if t.shape == INITIAL]

    def auxiliary_trees(self) -> list[ElementaryTree]:
        return [t for t in self.trees.values() if t.shape == AUXILIARY]


class ValidationReport(Record):
    _fields = ("tree_id", "violations", "warnings")

    def __init__(
        self, tree_id: str, violations: list[str] | None = None, warnings: list[str] | None = None
    ):
        self.tree_id = tree_id
        self.violations = [] if violations is None else violations
        self.warnings = [] if warnings is None else warnings

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_tree(tree: ElementaryTree) -> ValidationReport:
    """Check the structural invariants of one elementary tree.

    Anchor-count problems are reported as warnings, not violations:
    anchorless trees are needed to encode plain CFG rules, and
    multi-anchor trees are how idioms would be written.  The
    lexicalization check rejects both.
    """
    report = ValidationReport(tree.id)
    for address, node in walk(tree.root):
        where = format_address(address)
        if node.kind == INTERIOR and not node.children:
            report.violations.append(f"{where}: interior node {node.label!r} has no children")

    feet = tree.foot_addresses()
    if tree.shape == AUXILIARY:
        if len(feet) != 1:
            report.violations.append(
                f"0: auxiliary tree must have exactly one foot node, found {len(feet)}"
            )
        else:
            foot = tree.node_at(feet[0])
            if foot.label != tree.root.label:
                report.violations.append(
                    f"{format_address(feet[0])}: foot/root label mismatch "
                    f"({foot.label!r} under {tree.root.label!r})"
                )
    elif tree.shape == INITIAL:
        for address in feet:
            report.violations.append(
                f"{format_address(address)}: initial tree may not contain a foot node"
            )
    else:
        report.violations.append(f"0: unknown tree shape {tree.shape!r}")

    anchors = tree.anchor_addresses()
    if len(anchors) == 0:
        report.warnings.append("0: tree has no anchor (not lexicalized)")
    elif len(anchors) > 1:
        report.warnings.append(f"0: tree has {len(anchors)} anchors (idiom-style)")
    return report


class LexicalizationReport(NamedTuple):
    lexicalized: bool
    census: dict[str, int]          # tree id -> anchor count
    offenders: list[str]            # ids of trees with anchor count != 1


def check_lexicalized(grammar: Grammar) -> LexicalizationReport:
    """True iff every elementary tree, tree-set members included, has
    exactly one anchor."""
    census = {}
    for tree in grammar.all_trees():
        census[tree.id] = len(tree.anchor_addresses())
    offenders = [tid for tid, n in census.items() if n != 1]
    return LexicalizationReport(not offenders, census, offenders)


def _rule_to_node(rule: CfgRule) -> TreeNode:
    children = []
    for item in rule.rhs:
        if isinstance(item, Word):
            children.append(TreeNode(TERMINAL, str(item)))
        else:
            children.append(TreeNode(SUBSTITUTION, item))
    return TreeNode(INTERIOR, rule.lhs, tuple(children))


def _walk_spine(
    rules: Sequence[CfgRule], spine: Sequence[tuple[int, int]]
) -> Iterator[tuple[CfgRule, int]]:
    """Yield (rule, position) along a spine.  The first rule comes with
    position 0; each later rule comes with the 1-based RHS position of its
    predecessor that it rewrites, once it is checked that it can."""
    if not spine:
        raise CompositionError("empty spine")
    prev_rule = None
    for rule_idx, pos in spine:
        rule = rules[rule_idx]
        if prev_rule is None:
            pos = 0
        else:
            if not 1 <= pos <= len(prev_rule.rhs):
                raise CompositionError(
                    f"rule {rule.lhs!r}: attachment position {pos} outside predecessor RHS"
                )
            target = prev_rule.rhs[pos - 1]
            if isinstance(target, Word) or target != rule.lhs:
                raise CompositionError(
                    f"rule {rule.lhs!r} cannot rewrite RHS item {target!r} at position {pos}"
                )
        yield rule, pos
        prev_rule = rule


def compose_rules(
    rules: Sequence[CfgRule],
    spine: Sequence[tuple[int, int]],
    tree_id: str = "composed",
) -> ElementaryTree:
    """Compose CFG rules along a spine into one elementary tree.

    ``spine`` lists (rule index, attachment position) pairs; each rule
    after the first expands the nonterminal at the given 1-based RHS
    position of its predecessor.  Unexpanded nonterminal leaves become
    substitution nodes; the first terminal introduced by the last spine
    rule becomes the anchor.
    """
    addr: Address = ()
    for rule, pos in _walk_spine(rules, spine):
        if pos == 0:
            root = _rule_to_node(rule)
            continue
        addr += (pos,)
        if node_at(root, addr).kind != SUBSTITUTION:
            raise CompositionError(f"node at {format_address(addr)} already expanded")
        root = replace_at(root, addr, _rule_to_node(rule))

    # Mark the anchor inside the expansion of the final spine rule.
    for i, item in enumerate(rule.rhs, start=1):
        if isinstance(item, Word):
            anchor = addr + (i,)
            root = replace_at(root, anchor, TreeNode(ANCHOR, node_at(root, anchor).label))
            break
    return ElementaryTree(tree_id, INITIAL, root)


def merge_rules(rules: Sequence[CfgRule], spine: Sequence[tuple[int, int]]) -> CfgRule:
    """Flatten a rule spine into a single rewrite rule instead of a tree."""
    # Where the RHS of the most recently merged rule starts in ``rhs``.
    offset = 0
    for rule, pos in _walk_spine(rules, spine):
        if pos == 0:
            lhs, rhs = rule.lhs, list(rule.rhs)
            continue
        at = offset + pos - 1
        rhs[at : at + 1] = list(rule.rhs)
        offset = at
    return CfgRule(lhs, tuple(rhs))


def cfg_to_trees(rules: Sequence[CfgRule], prefix: str = "r") -> list[ElementaryTree]:
    """Encode CFG rules one-to-one as depth-1 trees.

    Each tree is the composition of a one-rule spine: the first terminal
    of a rule, if any, becomes the anchor; purely nonterminal rules yield
    anchorless trees that the lexicalization check will flag.
    """
    return [compose_rules(rules, [(i, 0)], f"{prefix}{i + 1}") for i in range(len(rules))]
