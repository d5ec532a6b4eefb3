"""Phrase-structure tree nodes and Gorn-style child-index addresses.

An address is a tuple of 1-based child indices from the root; the root
itself is the empty tuple, written ``0`` in the textual formats.  The
arc-label and cycle helpers at the end are shared by derivation and
dependency trees.  ``Record`` and ``Frozen`` give the plain classes of
every layer their ``==``, ``repr`` and immutability.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator

from .errors import GrammarFormatError, IllegalSite

INTERIOR = "interior"
SUBSTITUTION = "substitution"
FOOT = "foot"
ANCHOR = "anchor"
TERMINAL = "terminal"

LEAF_KINDS = frozenset({SUBSTITUTION, FOOT, ANCHOR, TERMINAL})
NODE_KINDS = LEAF_KINDS | {INTERIOR}
WORD_KINDS = frozenset({ANCHOR, TERMINAL})

Address = tuple[int, ...]


class Record:
    """``==`` and ``repr`` over the attributes named in ``_fields``, in
    order.  Only records of one class compare equal, and records are
    unhashable unless a subclass defines ``__hash__``."""

    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._fields
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class Frozen:
    """Refuses to set or delete attributes; ``__init__`` sets them with
    ``object.__setattr__`` or through ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TreeNode(Frozen):
    """One node of an elementary or derived phrase-structure tree.

    ``label`` is a category label for interior, substitution and foot
    nodes, and a surface word for anchor and terminal nodes.
    """

    __slots__ = ("kind", "label", "children")

    def __init__(self, kind: str, label: str, children: tuple[TreeNode, ...] = ()):
        if kind in LEAF_KINDS and children:
            raise ValueError(f"{kind} node {label!r} must be a leaf")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)

    def __reduce__(self):  # pickle and copy rebuild through __init__, not setattr
        return TreeNode, (self.kind, self.label, self.children)

    def is_leaf(self) -> bool:
        return self.kind in LEAF_KINDS

    # Equality, hash and repr use explicit stacks, so trees of any depth
    # compare, hash and print without recursion.

    def __eq__(self, other):
        if not isinstance(other, TreeNode):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:  # shared subtrees, as replace_at leaves them
                continue
            if a.kind != b.kind or a.label != b.label or len(a.children) != len(b.children):
                return False
            stack += zip(a.children, b.children)
        return True

    def __hash__(self):
        # A tree is fixed by its nodes' (kind, label, arity) in preorder.
        shape = []
        stack = [self]
        while stack:
            node = stack.pop()
            shape.append((node.kind, node.label, len(node.children)))
            stack += reversed(node.children)
        return hash(tuple(shape))

    def __repr__(self):
        out, stack = [], [self]  # nodes to print and text to write, last first
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
            else:
                out.append(f"TreeNode(kind={node.kind!r}, label={node.label!r}, children=(")
                kids = node.children
                stack.append(",))" if len(kids) == 1 else "))")  # (only,) as tuples print
                for kid in reversed(kids[1:]):
                    stack += (kid, ", ")
                stack += kids[:1]
        return "".join(out)


def node_at(root: TreeNode, address: Address) -> TreeNode:
    node = root
    for index in address:
        if not 1 <= index <= len(node.children):
            raise IllegalSite(f"address {format_address(address)} out of bounds")
        node = node.children[index - 1]
    return node


def replace_at(root: TreeNode, address: Address, replacement: TreeNode) -> TreeNode:
    """Return a copy of ``root`` with the subtree at ``address`` replaced.

    Only the nodes on the path to ``address`` are copied; every other
    subtree is shared.  No recursion, so any depth works."""
    path = []  # (node, child index) from the root down
    node = root
    for index in address:
        if not 1 <= index <= len(node.children):
            raise IllegalSite(f"address component {index} out of bounds")
        path.append((node, index))
        node = node.children[index - 1]
    for node, index in reversed(path):
        children = node.children
        replacement = TreeNode(
            node.kind, node.label, children[: index - 1] + (replacement,) + children[index:]
        )
    return replacement


def walk(root: TreeNode) -> Iterator[tuple[Address, TreeNode]]:
    """Preorder traversal yielding (address, node) pairs, without recursion."""
    stack = [((), root)]
    while stack:
        address, node = stack.pop()
        yield address, node
        for i in range(len(node.children), 0, -1):
            stack.append((address + (i,), node.children[i - 1]))


def walk_nodes(root: TreeNode) -> Iterator[TreeNode]:
    """The nodes of ``walk``, in the same order, without their addresses."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(node.children)


def frontier(root: TreeNode) -> list[tuple[Address, TreeNode]]:
    return [(a, n) for a, n in walk(root) if n.is_leaf()]


def yield_words(root: TreeNode) -> list[str]:
    """Surface words on the frontier; substitution and foot nodes are skipped."""
    return [n.label for n in walk_nodes(root) if n.kind in WORD_KINDS]


def count_nodes(root: TreeNode) -> int:
    return sum(1 for _ in walk_nodes(root))


def format_address(address: Address) -> str:
    return ".".join(str(i) for i in address) if address else "0"


def parse_address(text: str) -> Address:
    text = text.strip()
    if text in ("0", "", "e"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split("."))
    except ValueError:
        raise GrammarFormatError(f"bad address {text!r}") from None
    if any(p < 1 for p in parts):
        raise GrammarFormatError(f"bad address {text!r}: indices are 1-based")
    return parts


# Actant arc labels are 1, 2, ...; ATTR and S are not actants.
ACTANT_RE = re.compile(r"^[1-9][0-9]*$")


def find_cycle(up: dict[str, str], root: str, starts: Iterable[str]) -> str | None:
    """The first node met twice on a walk up ``up`` (node -> parent),
    or None when every walk reaches ``root``.

    Walks start from each of ``starts`` in turn and stop at a node already
    known to reach the root, so each node is walked once.  Every node but
    the root must have a parent in ``up``.
    """
    reaches_root = {root}
    for start in starts:
        path = set()
        node = start
        while node not in reaches_root:
            if node in path:
                return node
            path.add(node)
            node = up[node]
        reaches_root |= path
    return None
