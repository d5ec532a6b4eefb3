"""JSON and DOT renderings of phrase trees, derivation trees and
dependency trees, with JSON importers for round-tripping."""
from __future__ import annotations

import json

from .dependency import DependencyTree, DepNode
from .derive import DerivationStep, DerivationTree, PhraseTree, site_from_texts, site_texts
from .errors import GrammarFormatError, IllegalSite, TagError
from .trees import INTERIOR, NODE_KINDS, TreeNode, format_address, node_at, parse_address, walk


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot(name: str, nodes, edges) -> str:
    """A DOT digraph of (id, label) nodes and (tail, head, label) edges;
    an edge whose label is None is drawn unlabelled."""
    lines = [f'digraph "{_dot_escape(name)}" {{', "  node [shape=plaintext];"]
    lines.extend(f'  {node_id} [label="{_dot_escape(label)}"];' for node_id, label in nodes)
    for tail, head, label in edges:
        attrs = "" if label is None else f' [label="{_dot_escape(label)}"]'
        lines.append(f"  {tail} -> {head}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _from_json(text: str, what: str, build, too_deep: str):
    """``build`` applied to the parsed JSON ``text``.  Text that is not
    JSON, and JSON of the wrong shape, raise ``GrammarFormatError``; JSON
    nested deeper than the reader can follow raises it with ``too_deep``."""
    try:
        return build(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise GrammarFormatError(f"bad {what} JSON: {type(exc).__name__}: {exc}") from None
    except RecursionError:
        raise GrammarFormatError(too_deep) from None


# -- phrase trees ------------------------------------------------------

# JSON nests two containers per tree level, and both ``json.dumps`` and
# ``json.loads`` stop at about 500 tree levels with a RecursionError.
_TOO_DEEP = "phrase tree nests too deep for JSON (the limit is about 500 levels)"


def phrase_to_json(tree: PhraseTree) -> str:
    def node(n: TreeNode):
        out = {"kind": n.kind, "label": n.label}
        if n.children:
            out["children"] = [node(c) for c in n.children]
        return out

    try:
        # The root first: a tree too deep for it fails before provenance,
        # which holds one full address per node, is built.
        root = node(tree.root)
        provenance = {
            format_address(addr): {"tree": origin[0], "address": format_address(origin[1])}
            for addr, origin in sorted(tree.provenance.items())
        }
        return json.dumps({"root": root, "provenance": provenance}, indent=2, ensure_ascii=False)
    except RecursionError:
        raise TagError(_TOO_DEEP) from None


def phrase_from_json(text: str) -> PhraseTree:
    def node(obj) -> TreeNode:
        if obj["kind"] not in NODE_KINDS:
            raise GrammarFormatError(f"unknown node kind {obj['kind']!r}")
        children = tuple(node(c) for c in obj.get("children", []))
        if obj["kind"] == INTERIOR and not children:
            raise GrammarFormatError(f"interior node {obj['label']!r} has no children")
        return TreeNode(obj["kind"], obj["label"], children)

    def build(data) -> PhraseTree:
        provenance = {
            parse_address(addr): (origin["tree"], parse_address(origin["address"]))
            for addr, origin in data.get("provenance", {}).items()
        }
        root = node(data["root"])
        for address in provenance:
            try:
                node_at(root, address)
            except IllegalSite:
                raise GrammarFormatError(
                    f"provenance address {format_address(address)} is not in the tree"
                ) from None
        return PhraseTree(root, provenance)

    return _from_json(text, "phrase tree", build, _TOO_DEEP)


_PHRASE_LABELS = {"substitution": "{} ↓", "foot": "{} *", "terminal": '"{}"', "anchor": "{}◇"}


def phrase_to_dot(tree: PhraseTree) -> str:
    nodes, edges = [], []
    for addr, node in walk(tree.root):
        node_id = "n" + ("_".join(map(str, addr)) or "0")
        nodes.append((node_id, _PHRASE_LABELS.get(node.kind, "{}").format(node.label)))
        below = node_id + "_" if addr else "n"
        edges.extend((node_id, f"{below}{i}", None) for i in range(1, len(node.children) + 1))
    return _dot("derived", nodes, edges)


# -- derivation trees --------------------------------------------------


def derivation_data(script: DerivationTree) -> dict:
    """The JSON value of a derivation.  A step's site is one address
    text, or a list of them for ``adjoin_set``."""
    steps = []
    for step in script.steps:
        site = site_texts(step.op, step.site)
        steps.append(
            {
                "op": step.op,
                "child": step.child,
                "parent": step.parent,
                "site": site if step.op == "adjoin_set" else site[0],
                "label": step.arc_label,
            }
        )
    return {"root": script.root, "instances": dict(script.instances), "steps": steps}


def derivation_to_json(script: DerivationTree) -> str:
    return json.dumps(derivation_data(script), indent=2, ensure_ascii=False)


def derivation_from_json(text: str) -> DerivationTree:
    def step(obj) -> DerivationStep:
        op, site = obj["op"], obj["site"]
        is_set = op == "adjoin_set"
        if not isinstance(site, list if is_set else str):
            form = "a list of sites" if is_set else "a single site"
            raise GrammarFormatError(f"step {op} expects {form}")
        site = site_from_texts(op, site if is_set else [site])
        return DerivationStep(op, obj["child"], obj["parent"], site, obj["label"])

    def build(data) -> DerivationTree:
        steps = [step(obj) for obj in data["steps"]]
        script = DerivationTree(data["root"], dict(data["instances"]), steps)
        script.validate()
        return script

    return _from_json(text, "derivation", build, "derivation JSON nests too deep")


def derivation_to_dot(script: DerivationTree, lexemes: dict[str, str] | None = None) -> str:
    """Nodes carry the anchor lexeme; arcs carry the actant number,
    ATTR or S."""
    lexemes = lexemes or {}
    ids = {inst: f"n{i}" for i, inst in enumerate(script.instances)}
    nodes = [(ids[inst], lexemes.get(inst, tree_id)) for inst, tree_id in script.instances.items()]
    edges = [(ids[s.parent], ids[s.child], s.arc_label) for s in script.steps]
    return _dot("derivation", nodes, edges)


# -- dependency trees --------------------------------------------------


def dependency_to_json(tree: DependencyTree) -> str:
    tree.validate()
    nodes = [
        {"id": n.id, "lexeme": n.lexeme, "covert": n.covert}
        for n in tree.nodes.values()
    ]
    payload = {
        "root": tree.root,
        "nodes": nodes,
        "arcs": [{"head": h, "dep": d, "label": l} for h, d, l in tree.arcs],
    }
    if tree.order is not None:
        payload["order"] = tree.order
    return json.dumps(payload, indent=2, ensure_ascii=False)


def dependency_from_json(text: str) -> DependencyTree:
    def build(data) -> DependencyTree:
        tree = DependencyTree(root=data["root"])
        for obj in data["nodes"]:
            tree.nodes[obj["id"]] = DepNode(obj["id"], obj["lexeme"], obj.get("covert", False))
        for obj in data["arcs"]:
            tree.arcs.append((obj["head"], obj["dep"], obj["label"]))
        tree.order = data.get("order")
        tree.validate()
        return tree

    return _from_json(text, "dependency", build, "dependency JSON nests too deep")


def dependency_to_dot(tree: DependencyTree) -> str:
    tree.validate()
    ids = {nid: f"n{i}" for i, nid in enumerate(tree.nodes)}
    nodes = [
        (ids[nid], f"({node.lexeme})" if node.covert else node.lexeme)
        for nid, node in tree.nodes.items()
    ]
    edges = [(ids[head], ids[dep], label) for head, dep, label in tree.arcs]
    return _dot("dependency", nodes, edges)
