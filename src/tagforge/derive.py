"""Substitution, adjunction, MC-TAG set adjunction and script replay.

All operations are persistent: they return a new :class:`PhraseTree` and
never mutate their arguments, so a grammar and any intermediate tree can
be shared freely between derivations.
"""
from __future__ import annotations

import re
from functools import cached_property, cmp_to_key
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
    Record,
    TreeNode,
    find_cycle,
    format_address,
    frontier,
    node_at,
    parse_address,
    walk,
)


class PhraseTree:
    """A derived (or partially derived) phrase-structure tree.

    A phrase tree is a persistent composition.  Its *piece* is a flat tree
    with its own provenance: an elementary tree, or the ``root`` and
    ``provenance`` given to the constructor.  The trees attached to it are
    keyed by the piece's own addresses: at most one substituted tree per
    substitution node, and the trees adjoined at an interior node in the
    order they came, the first one outermost.  A script step names its
    sites in the piece it attaches to and is recorded there, so replay
    takes time linear in the derived tree's size.  ``substitute``,
    ``adjoin`` and ``adjoin_set`` take current addresses instead: on a tree
    with attachments they first rebuild it as one piece from its ``root``
    and ``provenance``.

    ``root``, ``feet`` (the foot addresses, in preorder) and
    ``provenance`` are each built by one stack walk on first read.
    ``provenance`` maps each current address to the elementary-tree
    instance it came from and its address within that tree;
    ``address_of`` reads it the other way.  The open feet are the
    piece's own: a substituted tree has none, and an adjoined tree's one
    foot holds the subtree it wraps.
    """

    def __init__(self, root: TreeNode, provenance: dict[Address, tuple[str, Address]]):
        self._root = root
        self._feet = tuple(a for a, n in walk(root) if n.kind == FOOT)
        self._origin: str | dict[Address, tuple[str, Address]] = provenance
        self._attached: dict[Address, tuple[PhraseTree, ...]] = {}

    @classmethod
    def from_elementary(cls, tree: ElementaryTree, instance: str | None = None) -> "PhraseTree":
        return cls._piece(tree.root, tuple(tree.foot_addresses()), instance or tree.id, {})

    @classmethod
    def _piece(cls, root, feet, origin, attached) -> "PhraseTree":
        """A tree on the piece ``root`` whose own feet are ``feet``; an
        ``origin`` that is an instance name stands for the identity
        provenance."""
        tree = cls.__new__(cls)
        tree._root, tree._feet, tree._origin, tree._attached = root, feet, origin, attached
        return tree

    @cached_property
    def root(self) -> TreeNode:
        if not self._attached:
            return self._root
        built: list[TreeNode] = []  # finished subtrees, the next sibling last
        for _, _, _, node in reversed(list(self._preorder())):
            if node.children:
                k = len(node.children)
                node = TreeNode(node.kind, node.label, tuple(built[: -k - 1 : -1]))
                del built[-k:]
            built.append(node)
        return built[0]

    @cached_property
    def feet(self) -> tuple[Address, ...]:
        if not self._attached:
            return self._feet
        return tuple(tuple(path) for path, _, _, node in self._preorder() if node.kind == FOOT)

    @cached_property
    def provenance(self) -> dict[Address, tuple[str, Address]]:
        if not self._attached and isinstance(self._origin, dict):
            return self._origin
        provenance = {}
        for path, tree, address, _ in self._preorder():
            if isinstance(tree._origin, str):
                provenance[tuple(path)] = (tree._origin, address)
            elif address in tree._origin:
                provenance[tuple(path)] = tree._origin[address]
        return provenance

    @cached_property
    def _addresses(self) -> dict[tuple[str, Address], Address]:
        """``provenance`` inverted; the first address wins."""
        index: dict[tuple[str, Address], Address] = {}
        for address, origin in self.provenance.items():
            index.setdefault(origin, address)
        return index

    def __eq__(self, other):
        if not isinstance(other, PhraseTree):
            return NotImplemented
        return self.root == other.root and self.provenance == other.provenance

    def node_at(self, address: Address) -> TreeNode:
        return node_at(self.root, address)

    def frontier_words(self) -> list[str]:
        return [n.label for _, _, _, n in self._preorder() if n.kind in WORD_KINDS]

    def sentence(self) -> str:
        return " ".join(self.frontier_words())

    def address_of(self, instance: str, original: Address) -> Address:
        """Current address of a node identified by its provenance."""
        try:
            return self._addresses[instance, original]
        except KeyError:
            raise IllegalSite(
                f"no node from {instance} at {format_address(original)} in this tree"
            ) from None

    def is_complete(self) -> bool:
        return all(n.kind not in (SUBSTITUTION, FOOT) for _, _, _, n in self._preorder())

    def _preorder(self):
        """(current address, tree, piece address, piece node) for each node
        of the derived tree, in preorder, by one stack walk.  The address
        is one list, changed in place as the walk goes on."""
        path: list[int] = []
        stack = [(0, self, (), self._root, 0, None)]
        while stack:
            depth, *at = stack.pop()
            tree, address, node, hole = _shown(*at)
            if depth > len(path):
                path.append(1)
            elif depth:
                del path[depth:]
                path[-1] += 1
            yield path, tree, address, node
            kids = node.children
            for i in range(len(kids), 0, -1):
                stack.append((depth + 1, tree, address + (i,), kids[i - 1], 0, hole))


def _shown(tree: PhraseTree, address: Address, node: TreeNode, j: int, hole):
    """The piece node that shows at one position of a derived tree.

    The position holds ``node``, at piece ``address`` of ``tree``, wrapped
    in its adjoined trees from the ``j``-th on.  A substituted tree takes
    its site's place; adjoined trees wrap their site first to last, each
    one's foot holding the next tree and the last one's the site itself.
    ``hole`` is what fills the foot of ``tree``'s piece (None: the foot is
    open).
    """
    while True:
        attached = tree._attached.get(address)
        if attached and node.kind == SUBSTITUTION:
            tree, address, node, j, hole = attached[0], (), attached[0]._root, 0, None
        elif attached and j < len(attached):
            hole = (tree, address, node, j + 1, hole)
            tree, address, node, j = attached[j], (), attached[j]._root, 0
        elif node.kind == FOOT and hole is not None:
            tree, address, node, j, hole = hole
        else:
            return tree, address, node, hole


def _member(op: str, tree: ElementaryTree | PhraseTree) -> PhraseTree:
    """``tree`` checked for its shape and foot count as the child of
    ``op`` ("substitute" or "adjoin")."""
    if isinstance(tree, ElementaryTree):
        if op == "substitute" and tree.shape != INITIAL:
            raise WrongShape(f"cannot substitute auxiliary tree {tree.id!r}")
        if op == "adjoin" and tree.shape != AUXILIARY:
            raise WrongShape(f"cannot adjoin {tree.shape} tree {tree.id!r}")
        tree = PhraseTree.from_elementary(tree)
    if len(tree._feet) > 1:
        raise WrongShape(f"tree has {len(tree._feet)} foot nodes")
    if op == "substitute" and tree._feet:
        raise WrongShape("cannot substitute a tree containing a foot node")
    if op == "adjoin" and not tree._feet:
        raise WrongShape("adjoined tree has no foot node")
    return tree


def _attach(
    target: PhraseTree, op: str, child: ElementaryTree | PhraseTree | TreeSet, sites
) -> PhraseTree:
    """Check and record one step: ``child`` (a tree set for
    ``adjoin_set``) attached to ``target`` at ``sites``, one per member.

    Sites are addresses in ``target``'s own piece.  Every site is checked
    against the piece as it was before the step, before any member is;
    each attachment is recorded at its site, and messages name the site
    as given.
    """
    if op == "substitute":
        need, needs = SUBSTITUTION, ", not a substitution node"
    else:
        need, needs = INTERIOR, "; adjunction needs an interior node"
    sites, nodes = tuple(map(tuple, sites)), []
    for site in sites:
        node = node_at(target._root, site)
        if node.kind == SUBSTITUTION and site in target._attached:
            raise IllegalSite(f"substitution node at {format_address(site)} is already filled")
        if node.kind != need:
            kind = ("an " if node.kind[0] in "aeiou" else "a ") + node.kind
            raise IllegalSite(f"node at {format_address(site)} is {kind} node{needs}")
        nodes.append(node)
    members = (child,)
    if op == "adjoin_set":
        members = child.members
        if len(sites) != len(members):
            raise SetArity(
                f"set {child.id!r} has {len(members)} members but {len(sites)} sites were given"
            )
        if len(set(sites)) != len(sites):
            raise SetArity(f"set {child.id!r}: sites must be pairwise distinct")
        op = "adjoin"
    attached = dict(target._attached)
    for site, node, member in zip(sites, nodes, members):
        tree = _member(op, member)
        if op == "substitute" and node.label != tree._root.label:
            raise LabelMismatch(
                f"substitution node {node.label!r} at {format_address(site)} "
                f"vs root label {tree._root.label!r}"
            )
        if op == "adjoin":
            foot_label = node_at(tree._root, tree._feet[0]).label
            if node.label != tree._root.label or node.label != foot_label:
                raise LabelMismatch(
                    f"site label {node.label!r} at {format_address(site)} vs "
                    f"auxiliary root/foot {tree._root.label!r}/{foot_label!r}"
                )
        attached[site] = attached.get(site, ()) + (tree,)
    return PhraseTree._piece(target._root, target._feet, target._origin, attached)


def _flat(target: PhraseTree) -> PhraseTree:
    """``target`` as one piece whose addresses are its current ones, as
    the public operations take them; rebuilt only when something is
    attached to it."""
    return PhraseTree(target.root, target.provenance) if target._attached else target


def substitute(target: PhraseTree, site: Address, tree: ElementaryTree | PhraseTree) -> PhraseTree:
    """Append an initial tree at a substitution node of ``target``."""
    return _attach(_flat(target), "substitute", tree, (site,))


def adjoin(target: PhraseTree, site: Address, aux: ElementaryTree | PhraseTree) -> PhraseTree:
    """Splice an auxiliary tree in at an interior node of ``target``."""
    return _attach(_flat(target), "adjoin", aux, (site,))


def adjoin_set(
    target: PhraseTree,
    sites: list[Address],
    tree_set: TreeSet,
) -> PhraseTree:
    """Adjoin every member of a tree set in one atomic step.

    Sites are interpreted against the pre-step target.  The step is atomic
    because operations are persistent: when a member does not fit, the
    error leaves ``target`` unchanged and no partial result is returned.
    """
    return _attach(_flat(target), "adjoin_set", tree_set, sites)


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


class DerivationTree(Record):
    """One node per elementary tree (or set) occurrence, plus step edges."""

    _fields = ("root", "instances", "steps")

    def __init__(
        self,
        root: str,
        instances: dict[str, str] | None = None,
        steps: list[DerivationStep] | None = None,
    ):
        self.root = root
        self.instances = {} if instances is None else instances  # instance -> tree/set id
        self.steps = [] if steps is None else steps
        self._valid: tuple | None = None  # (root, instances, steps) as last validated

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
                    sites = step.site if step.op == "adjoin_set" else (step.site,)
                    made = _attach(made, step.op, child, sites)
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
    for _, _, _, node in derived._preorder():
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
_USE_RE = re.compile(r"^use\s+(?P<tree>\S+)(?:\s+as\s+(?P<alias>\S+))?$")
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
        m = _USE_RE.match(stmt)
        if m is not None:
            if root is not None:
                raise GrammarFormatError("only one 'use' statement is allowed", lineno)
            root = m["alias"] or m["tree"]
            instances[root] = m["tree"]
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
