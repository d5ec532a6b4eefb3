"""Substitution, adjunction, MC-TAG set adjunction and script replay.

All operations are persistent: they return a new :class:`PhraseTree` and
never mutate their arguments, so a grammar and any intermediate tree can
be shared freely between derivations.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import NamedTuple

from .errors import (
    GrammarFormatError,
    IllegalSite,
    IncompleteDerivation,
    LabelMismatch,
    ScriptError,
    SetArity,
    TagError,
    UnknownTree,
    WrongShape,
)
from .grammar import AUXILIARY, INITIAL, ElementaryTree, Grammar, TreeSet
from .trees import (
    FOOT,
    INTERIOR,
    SUBSTITUTION,
    WORD_KINDS,
    Address,
    TreeNode,
    find_cycle,
    format_address,
    frontier,
    is_prefix,
    node_at,
    parse_address,
    replace_at,
    walk,
    walk_nodes,
    yield_words,
)


@dataclass(frozen=True)
class PhraseTree:
    """A derived (or partially derived) phrase-structure tree.

    ``provenance`` maps each current address to the elementary-tree
    instance it came from and its address within that tree, which is how
    script sites stay valid across earlier splices.  ``feet`` lists the
    foot addresses in preorder; the operations below carry it along, and
    it is found by one walk only when a tree is built directly.
    """

    root: TreeNode
    provenance: dict[Address, tuple[str, Address]]
    feet: tuple[Address, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.feet is None:
            feet = tuple(a for a, n in walk(self.root) if n.kind == FOOT)
            object.__setattr__(self, "feet", feet)

    @classmethod
    def from_elementary(cls, tree: ElementaryTree, instance: str | None = None) -> "PhraseTree":
        instance = instance or tree.id
        prov = {addr: (instance, addr) for addr in tree.nodes}
        return cls(tree.root, prov, tuple(tree.foot_addresses()))

    def node_at(self, address: Address) -> TreeNode:
        return node_at(self.root, address)

    def frontier_words(self) -> list[str]:
        return yield_words(self.root)

    def sentence(self) -> str:
        return " ".join(self.frontier_words())

    def address_of(self, instance: str, original: Address) -> Address:
        """Current address of a node identified by its provenance."""
        for addr, origin in self.provenance.items():
            if origin == (instance, original):
                return addr
        raise IllegalSite(
            f"no node from {instance} at {format_address(original)} in this tree"
        )

    def foot_address(self) -> Address | None:
        if len(self.feet) > 1:
            raise WrongShape(f"tree has {len(self.feet)} foot nodes")
        return self.feet[0] if self.feet else None

    def is_complete(self) -> bool:
        return all(n.kind not in (SUBSTITUTION, FOOT) for n in walk_nodes(self.root))


def _as_phrase(tree: ElementaryTree | PhraseTree) -> PhraseTree:
    if isinstance(tree, ElementaryTree):
        return PhraseTree.from_elementary(tree)
    return tree


def substitute(target: PhraseTree, site: Address, tree: ElementaryTree | PhraseTree) -> PhraseTree:
    """Append an initial tree at a substitution node of ``target``."""
    sub = _as_phrase(tree)
    if isinstance(tree, ElementaryTree) and tree.shape != INITIAL:
        raise WrongShape(f"cannot substitute auxiliary tree {tree.id!r}")
    if sub.foot_address() is not None:
        raise WrongShape("cannot substitute a tree containing a foot node")
    site_node = target.node_at(site)
    if site_node.kind != SUBSTITUTION:
        raise IllegalSite(
            f"node at {format_address(site)} is a {site_node.kind} node, not a substitution node"
        )
    if site_node.label != sub.root.label:
        raise LabelMismatch(
            f"substitution node {site_node.label!r} at {format_address(site)} "
            f"vs root label {sub.root.label!r}"
        )
    new_root = replace_at(target.root, site, sub.root)
    prov = {a: o for a, o in target.provenance.items() if a != site}
    for addr, origin in sub.provenance.items():
        prov[site + addr] = origin
    return PhraseTree(new_root, prov, target.feet)


def adjoin(target: PhraseTree, site: Address, aux: ElementaryTree | PhraseTree) -> PhraseTree:
    """Splice an auxiliary tree in at an interior node of ``target``."""
    if isinstance(aux, ElementaryTree) and aux.shape != AUXILIARY:
        raise WrongShape(f"cannot adjoin {aux.shape} tree {aux.id!r}")
    aux_pt = _as_phrase(aux)
    foot = aux_pt.foot_address()
    if foot is None:
        raise WrongShape("adjoined tree has no foot node")
    site_node = target.node_at(site)
    if site_node.kind != INTERIOR:
        raise IllegalSite(
            f"node at {format_address(site)} is a {site_node.kind} node; "
            "adjunction needs an interior node"
        )
    foot_label = aux_pt.node_at(foot).label
    if site_node.label != aux_pt.root.label or site_node.label != foot_label:
        raise LabelMismatch(
            f"site label {site_node.label!r} at {format_address(site)} vs "
            f"auxiliary root/foot {aux_pt.root.label!r}/{foot_label!r}"
        )
    spliced = replace_at(aux_pt.root, foot, site_node)
    new_root = replace_at(target.root, site, spliced)
    prov = {_below_foot(site, foot, a): origin for a, origin in target.provenance.items()}
    for addr, origin in aux_pt.provenance.items():
        if addr == foot:
            continue  # the excised subtree root occupies the foot position
        prov[site + addr] = origin
    return PhraseTree(new_root, prov, tuple(_below_foot(site, foot, f) for f in target.feet))


def _below_foot(site: Address, foot: Address, addr: Address) -> Address:
    """Where ``addr`` is after adjunction at ``site`` of a tree whose foot
    is at ``foot``: the excised subtree now hangs below the foot."""
    return site + foot + addr[len(site):] if is_prefix(site, addr) else addr


def adjoin_set(
    target: PhraseTree,
    sites: list[Address],
    tree_set: TreeSet,
) -> PhraseTree:
    """Adjoin every member of a tree set in one atomic step.

    Sites are interpreted against the pre-step target; address shifts
    caused by earlier members are resolved internally.  The step is
    atomic because operations are persistent: each member goes through
    ``adjoin``, which never mutates its arguments, so when a member does
    not fit, the error leaves ``target`` unchanged and no partial result
    is returned.
    """
    members = tree_set.members
    if len(sites) != len(members):
        raise SetArity(
            f"set {tree_set.id!r} has {len(members)} members but {len(sites)} sites were given"
        )
    if len(set(sites)) != len(sites):
        raise SetArity(f"set {tree_set.id!r}: sites must be pairwise distinct")
    result = target
    applied: list[tuple[Address, Address]] = []  # (translated site, foot address)
    for site, member in zip(sites, members):
        for prev_site, prev_foot in applied:
            site = _below_foot(prev_site, prev_foot, site)
        result = adjoin(result, site, member)
        applied.append((site, member.foot_addresses()[0]))
    return result


# Script keyword -> derivation op; the ops are the values.
_OPS = {"subst": "substitute", "adjoin": "adjoin", "adjoinset": "adjoin_set"}
_KEYWORDS = {op: keyword for keyword, op in _OPS.items()}


class DerivationStep(NamedTuple):
    op: str  # "substitute" | "adjoin" | "adjoin_set"
    child: str  # instance name (set id for adjoin_set)
    parent: str  # instance name
    site: Address | tuple[Address, ...]  # one address, or several for adjoin_set
    arc_label: str  # "1", "2", ..., "ATTR" or "S"


def site_texts(op: str, site: Address | tuple[Address, ...]) -> list[str]:
    """A step's site as address texts: one, or one per set member for
    ``adjoin_set``."""
    if op == "adjoin_set":
        return [format_address(a) for a in site]
    return [format_address(site)]


def site_from_texts(
    op: str, texts: list[str], line: int | None = None
) -> Address | tuple[Address, ...]:
    """The site ``site_texts`` wrote for ``op``."""
    sites = tuple(parse_address(t) for t in texts)
    if op == "adjoin_set":
        return sites
    if len(sites) != 1:
        raise GrammarFormatError("subst/adjoin take exactly one site", line)
    return sites[0]


@dataclass
class DerivationTree:
    """One node per elementary tree (or set) occurrence, plus step edges."""

    root: str
    instances: dict[str, str] = field(default_factory=dict)  # instance -> tree/set id
    steps: list[DerivationStep] = field(default_factory=list)
    # (root, instances, steps) as last validated
    _valid: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _steps_by_parent(self) -> dict[str, list[tuple[int, DerivationStep]]]:
        """Parent instance -> its (step index, step) pairs in script order."""
        index: dict[str, list[tuple[int, DerivationStep]]] = {}
        for i, step in enumerate(self.steps):
            index.setdefault(step.parent, []).append((i, step))
        return index

    def validate(self) -> None:
        """Check that the steps form one tree over the instances from
        ``root``: every step has a known op and attaches a declared
        instance, and every instance but the root is attached by exactly
        one step.  A tree checked once is checked again only after its
        root, instances or steps have changed."""
        if self._valid is not None and self._valid == (self.root, self.instances, self.steps):
            return
        if self.root not in self.instances:
            raise GrammarFormatError(f"root instance {self.root!r} not declared")
        parents = {}
        for i, step in enumerate(self.steps):
            if step.op not in _KEYWORDS:
                raise GrammarFormatError(f"step {i}: unknown op {step.op!r}")
            if step.child in parents:
                raise GrammarFormatError(f"instance {step.child!r} has two parents")
            if step.child == self.root:
                raise GrammarFormatError("root instance may not be a child")
            if step.child not in self.instances:
                raise GrammarFormatError(f"step {i}: instance {step.child!r} not declared")
            parents[step.child] = step.parent
        for step in self.steps:
            if step.parent != self.root and step.parent not in parents:
                raise GrammarFormatError(f"step parent {step.parent!r} is unreachable")
        if len(parents) != len(self.instances) - 1:
            node = next(n for n in self.instances if n != self.root and n not in parents)
            raise GrammarFormatError(f"instance {node!r} is attached by no step")
        # Every parent is now the root or a child, so each walk up ends.
        node = find_cycle(parents, self.root, parents)
        if node is not None:
            raise GrammarFormatError(f"cycle through instance {node!r}")
        self._valid = (self.root, dict(self.instances), list(self.steps))

    def set_occurrences(self) -> set[str]:
        """The instances an ``adjoin_set`` step attaches: each names a tree
        set, and every other instance names an elementary tree."""
        return {s.child for s in self.steps if s.op == "adjoin_set"}

    def _fold(self, combine):
        """Fold the tree bottom-up from the root, with an explicit
        post-order stack: ``combine(instance, tree id, [(step index,
        step, child value), ...])`` gives an instance's value, children
        in script order."""
        children = self._steps_by_parent()
        values: dict[str, object] = {}
        open_: set[str] = set()  # expanded, not yet combined
        stack = [(self.root, False)]
        while stack:
            instance, expanded = stack.pop()
            kids = children.get(instance, ())
            if expanded:
                open_.discard(instance)
                values[instance] = combine(
                    instance,
                    self.instances[instance],
                    [(i, s, values.pop(s.child)) for i, s in kids],
                )
                continue
            if instance in open_:
                raise GrammarFormatError(f"cycle through instance {instance!r}")
            open_.add(instance)
            stack.append((instance, True))
            stack.extend((s.child, False) for _, s in kids)
        return values[self.root]

    def canonical(self):
        """Order-independent structural form as nested tuples; two trees
        are equal exactly when their canonical forms are."""
        return self._fold(lambda _, tree_id, kids: (tree_id, _sorted_steps(kids)))

    def __eq__(self, other):
        if not isinstance(other, DerivationTree):
            return NotImplemented
        return _deep_order(self.canonical(), other.canonical()) == 0


def _sorted_steps(kids) -> tuple:
    """The sorted (op, site, label, child value) of a node's steps."""
    return tuple(sorted(((s.op, s.site, s.arc_label, v) for _, s, v in kids), key=_DEEP_ORDER))


def _deep_order(a, b) -> int:
    """Python's order of two nested tuples (-1, 0 or 1), found with an
    explicit stack: sibling subtrees alike to any depth sort without
    recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is tuple and type(y) is tuple:
            stack.append((len(x), len(y)))  # decides only when all pairs tie
            stack.extend(reversed(tuple(zip(x, y))))
        elif x != y:
            return -1 if x < y else 1
    return 0


_DEEP_ORDER = cmp_to_key(_deep_order)


def run_derivation(grammar: Grammar, script: DerivationTree) -> tuple[PhraseTree, str]:
    """Replay a derivation tree; returns the derived tree and its yield."""
    script.validate()

    set_occurrences = script.set_occurrences()

    def build(instance: str, tree_id: str, kids: list) -> PhraseTree | TreeSet | TagError:
        # A fault is returned, not raised, and raised by the step that
        # attaches this instance, so the fault reported is the one a
        # depth-first replay in script order meets first.
        try:
            if instance not in set_occurrences:
                made = PhraseTree.from_elementary(grammar.tree(tree_id), instance)
            elif tree_id in grammar.tree_sets:
                made = grammar.tree_sets[tree_id]
            else:
                raise UnknownTree(f"no tree set named {tree_id!r}")
            for idx, step, child in kids:
                try:
                    if isinstance(child, TagError):
                        raise child
                    if isinstance(made, TreeSet):
                        raise IllegalSite(f"{instance!r} is a tree set; no step attaches to it")
                    if step.op == "adjoin_set":
                        sites = [made.address_of(instance, s) for s in step.site]
                        made = adjoin_set(made, sites, child)
                        continue
                    here = made.address_of(instance, step.site)
                    splice = substitute if step.op == "substitute" else adjoin
                    made = splice(made, here, child)
                except ScriptError:
                    raise
                except TagError as exc:
                    raise ScriptError(idx, exc) from exc
        except TagError as exc:
            return exc
        return made

    derived = script._fold(build)
    if isinstance(derived, TagError):
        raise derived
    words = []
    for node in walk_nodes(derived.root):
        if node.kind in WORD_KINDS:
            words.append(node.label)
        elif node.kind in (SUBSTITUTION, FOOT):  # addresses only for the message
            open_leaves = [
                f"{format_address(a)} ({n.kind} {n.label!r})"
                for a, n in frontier(derived.root)
                if n.kind in (SUBSTITUTION, FOOT)
            ]
            raise IncompleteDerivation("unfilled frontier nodes: " + ", ".join(open_leaves))
    return derived, " ".join(words)


_COMMENT_RE = re.compile(r"(?:^|\s)#")
_STEP_RE = re.compile(
    rf"^(?P<op>{'|'.join(_OPS)})\s+(?P<child>\S+?)(?:\s+as\s+(?P<alias>\S+))?"
    r"\s*->\s*(?P<parent>\S+)\s*@\s*(?P<sites>[\d.,\s]+?)\s+label\s+(?P<label>\S+)$"
)


def parse_script(text: str, grammar: Grammar | None = None) -> DerivationTree:
    """Parse the derivation script format.

    Statements are separated by ';' or newlines::

        use alpha1
        subst alpha2 -> alpha1 @ 1 label 1
        adjoin beta1 -> alpha1 @ 2 label ATTR
        adjoinset sigma1 -> alpha1 @ 1, 2.2 label S

    A '#' starts a comment only at the start of a line or after
    whitespace, so instance names such as ``beta1#2`` (as ``parse`` and
    ``serialize_script`` write them) are read as names.
    """
    root = None
    instances: dict[str, str] = {}
    steps: list[DerivationStep] = []
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.split(raw, maxsplit=1)[0]
        for part in line.split(";"):
            part = part.strip()
            if part:
                statements.append((lineno, part))

    for lineno, stmt in statements:
        if stmt.startswith("use "):
            if root is not None:
                raise GrammarFormatError("only one 'use' statement is allowed", lineno)
            rest = stmt[4:].split()
            tree_id = rest[0]
            alias = rest[2] if len(rest) >= 3 and rest[1] == "as" else tree_id
            root = alias
            instances[alias] = tree_id
            continue
        m = _STEP_RE.match(stmt)
        if m is None:
            raise GrammarFormatError(f"cannot parse statement {stmt!r}", lineno)
        op = _OPS[m["op"]]
        child_id = m["child"]
        alias = m["alias"] or child_id
        if alias in instances:
            raise GrammarFormatError(
                f"instance {alias!r} already used; disambiguate with 'as'", lineno
            )
        instances[alias] = child_id
        site = site_from_texts(op, m["sites"].split(","), lineno)
        steps.append(DerivationStep(op, alias, m["parent"], site, m["label"]))

    if root is None:
        raise GrammarFormatError("script has no 'use' statement")
    script = DerivationTree(root, instances, steps)
    script.validate()
    if grammar is not None:
        for tree_id in instances.values():
            if tree_id not in grammar.tree_sets:
                try:
                    grammar.tree(tree_id)
                except UnknownTree:
                    raise GrammarFormatError(
                        f"script references unknown tree {tree_id!r}"
                    ) from None
    return script


def serialize_script(script: DerivationTree) -> str:
    lines = []
    root_tree = script.instances[script.root]
    if script.root == root_tree:
        lines.append(f"use {root_tree}")
    else:
        lines.append(f"use {root_tree} as {script.root}")
    for step in script.steps:
        child_tree = script.instances[step.child]
        child = child_tree if step.child == child_tree else f"{child_tree} as {step.child}"
        sites = ", ".join(site_texts(step.op, step.site))
        lines.append(
            f"{_KEYWORDS[step.op]} {child} -> {step.parent} @ {sites} label {step.arc_label}"
        )
    return "\n".join(lines) + "\n"
