"""Reader and writer for the grammar text format.

One entry per statement::

    start S
    tree alpha1 initial (S NP! (VP (V "likes"@) NP!))
    tree beta1 aux (VP "really"@ VP*)
    set sigma1 { beta2a beta2b }

``!`` marks a substitution node, ``*`` a foot node; quoted strings are
terminals and a trailing ``@`` makes the terminal the anchor.  ``#``
starts a comment.  The format is whitespace-insensitive between tokens.
"""
from __future__ import annotations

import re

from .errors import GrammarFormatError
from .grammar import AUXILIARY, INITIAL, ElementaryTree, Grammar, TreeSet
from .trees import (
    ANCHOR,
    FOOT,
    INTERIOR,
    SUBSTITUTION,
    TERMINAL,
    TreeNode,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<string>"(?:[^"\\]|\\.)*"@?)
  | (?P<ident>[^\s()\{\}"#]+)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise GrammarFormatError(f"unexpected character {text[pos]!r}", line)
        kind = m.lastgroup
        value = m.group()
        if kind == "ws":
            line += value.count("\n")
        elif kind != "comment":
            tokens.append((kind, value, line))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self, expected_kind=None):
        tok = self.peek()
        if tok is None:
            last_line = self.tokens[-1][2] if self.tokens else None
            raise GrammarFormatError("unexpected end of input", last_line)
        if expected_kind is not None and tok[0] != expected_kind:
            raise GrammarFormatError(f"expected {expected_kind}, got {tok[1]!r}", tok[2])
        self.index += 1
        return tok


def _unquote(token: str) -> tuple[str, bool]:
    is_anchor = token.endswith("@")
    if is_anchor:
        token = token[:-1]
    body = token[1:-1]
    body = body.replace('\\"', '"').replace("\\\\", "\\")
    return body, is_anchor


def _parse_node(stream: _TokenStream) -> TreeNode:
    """One node and everything below it.  Open interior nodes wait on an
    explicit stack, so a tree of any depth parses without recursion."""
    open_: list[tuple[str, int, list[TreeNode]]] = []  # (label, line, children)
    while True:
        kind, value, line = stream.next()
        if kind == "lparen":
            label_tok = stream.next("ident")
            label = label_tok[1]
            if label.endswith(("!", "*")):
                raise GrammarFormatError(f"interior label {label!r} may not carry a marker", label_tok[2])
            open_.append((label, line, []))
        else:
            node = _parse_leaf(kind, value, line)
            if not open_:
                return node
            open_[-1][2].append(node)
        # Close every open node whose ')' comes next.
        while True:
            label, line, children = open_[-1]
            tok = stream.peek()
            if tok is None:
                raise GrammarFormatError("unclosed '('", line)
            if tok[0] != "rparen":
                break
            stream.next()
            open_.pop()
            if not children:
                raise GrammarFormatError(f"interior node {label!r} has no children", line)
            node = TreeNode(INTERIOR, label, tuple(children))
            if not open_:
                return node
            open_[-1][2].append(node)


def _parse_leaf(kind: str, value: str, line: int) -> TreeNode:
    if kind == "string":
        word, is_anchor = _unquote(value)
        if not word:
            raise GrammarFormatError("empty terminals are not allowed", line)
        return TreeNode(ANCHOR if is_anchor else TERMINAL, word)
    if kind == "ident":
        if value.endswith("!"):
            return TreeNode(SUBSTITUTION, value[:-1])
        if value.endswith("*"):
            return TreeNode(FOOT, value[:-1])
        raise GrammarFormatError(
            f"bare label {value!r} on the frontier; mark it '!' or '*' or quote it", line
        )
    raise GrammarFormatError(f"unexpected token {value!r}", line)


def parse_tree_expr(text: str) -> TreeNode:
    stream = _TokenStream(tokenize(text))
    node = _parse_node(stream)
    extra = stream.peek()
    if extra is not None:
        raise GrammarFormatError(f"trailing input after tree: {extra[1]!r}", extra[2])
    return node


def parse_grammar(text: str) -> Grammar:
    stream = _TokenStream(tokenize(text))
    grammar = Grammar()
    pending_sets: list[tuple[str, list[str], int]] = []
    declared_start = None
    while stream.peek() is not None:
        kind, value, line = stream.next()
        if kind != "ident":
            raise GrammarFormatError(f"expected a statement, got {value!r}", line)
        if value == "start":
            if declared_start is not None:
                raise GrammarFormatError("only one 'start' statement is allowed", line)
            declared_start = stream.next("ident")[1]
        elif value == "tree":
            tree_id = stream.next("ident")[1]
            shape_tok = stream.next("ident")
            shape = {"initial": INITIAL, "aux": AUXILIARY, "auxiliary": AUXILIARY}.get(shape_tok[1])
            if shape is None:
                raise GrammarFormatError(f"unknown tree shape {shape_tok[1]!r}", shape_tok[2])
            root = _parse_node(stream)
            if tree_id in grammar.trees:
                raise GrammarFormatError(f"duplicate tree id {tree_id!r}", line)
            grammar.trees[tree_id] = ElementaryTree(tree_id, shape, root)
        elif value == "set":
            set_id = stream.next("ident")[1]
            stream.next("lbrace")
            members = []
            while True:
                tok = stream.next()
                if tok[0] == "rbrace":
                    break
                if tok[0] != "ident":
                    raise GrammarFormatError(f"expected member id, got {tok[1]!r}", tok[2])
                members.append(tok[1])
            if not members:
                raise GrammarFormatError(f"set {set_id!r} has no members", line)
            pending_sets.append((set_id, members, line))
        else:
            raise GrammarFormatError(f"unknown statement {value!r}", line)

    # Set members are declared as ordinary trees, then moved into the set.
    # A set id is also an instance's tree id in a derivation, so it may not
    # be any tree's id.
    tree_ids = set(grammar.trees)
    for set_id, member_ids, line in pending_sets:
        if set_id in tree_ids:
            raise GrammarFormatError(f"set id {set_id!r} is also a tree id", line)
        members = []
        for mid in member_ids:
            if mid not in grammar.trees:
                raise GrammarFormatError(f"set {set_id!r} references unknown tree {mid!r}", line)
            members.append(grammar.trees.pop(mid))
        if set_id in grammar.tree_sets:
            raise GrammarFormatError(f"duplicate set id {set_id!r}", line)
        grammar.tree_sets[set_id] = TreeSet(set_id, tuple(members))

    if declared_start is not None:
        grammar.start_symbol = declared_start
    else:
        for tree in grammar.trees.values():
            if tree.shape == INITIAL:
                grammar.start_symbol = tree.root.label
                break
    return grammar


def _quote(word: str, is_anchor: bool) -> str:
    body = word.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{body}"@' if is_anchor else f'"{body}"'


def serialize_node(node: TreeNode) -> str:
    """The text of ``node`` and everything below it, from an explicit
    stack of nodes and closing text, so any depth serializes."""
    parts = []
    stack: list[TreeNode | str] = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif node.kind == INTERIOR:
            parts.append(f"({node.label} ")
            stack.append(")")
            for k, child in enumerate(reversed(node.children)):
                if k:
                    stack.append(" ")
                stack.append(child)
        elif node.kind == SUBSTITUTION:
            parts.append(f"{node.label}!")
        elif node.kind == FOOT:
            parts.append(f"{node.label}*")
        else:
            parts.append(_quote(node.label, node.kind == ANCHOR))
    return "".join(parts)


def serialize_grammar(grammar: Grammar) -> str:
    lines = []
    if grammar.start_symbol:
        lines.append(f"start {grammar.start_symbol}")
    for tree in grammar.trees.values():
        lines.append(f"tree {tree.id} {tree.shape} {serialize_node(tree.root)}")
    for ts in grammar.tree_sets.values():
        for member in ts.members:
            lines.append(f"tree {member.id} {member.shape} {serialize_node(member.root)}")
        lines.append(f"set {ts.id} {{ {' '.join(m.id for m in ts.members)} }}")
    return "\n".join(lines) + "\n"
