"""JSON and DOT renderings of phrase trees, derivation trees and
dependency trees, with JSON importers for round-tripping."""
from __future__ import annotations

import json

from .dependency import DependencyTree, DepNode
from .derive import DerivationStep, DerivationTree, PhraseTree
from .errors import GrammarFormatError, TagError
from .trees import TreeNode, format_address, parse_address, walk


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

    provenance = {
        format_address(addr): {"tree": origin[0], "address": format_address(origin[1])}
        for addr, origin in sorted(tree.provenance.items())
    }
    try:
        return json.dumps({"root": node(tree.root), "provenance": provenance}, indent=2, ensure_ascii=False)
    except RecursionError:
        raise TagError(_TOO_DEEP) from None


def phrase_from_json(text: str) -> PhraseTree:
    def node(obj) -> TreeNode:
        children = tuple(node(c) for c in obj.get("children", []))
        return TreeNode(obj["kind"], obj["label"], children)

    try:
        data = json.loads(text)
        provenance = {
            parse_address(addr): (origin["tree"], parse_address(origin["address"]))
            for addr, origin in data.get("provenance", {}).items()
        }
        return PhraseTree(node(data["root"]), provenance)
    except RecursionError:
        raise GrammarFormatError(_TOO_DEEP) from None


_PHRASE_LABELS = {"substitution": "{} ↓", "foot": "{} *", "terminal": '"{}"', "anchor": "{}◇"}


def phrase_to_dot(tree: PhraseTree, name: str = "derived") -> str:
    nodes, edges = [], []
    for addr, node in walk(tree.root):
        node_id = "n" + ("_".join(map(str, addr)) or "0")
        nodes.append((node_id, _PHRASE_LABELS.get(node.kind, "{}").format(node.label)))
        below = node_id + "_" if addr else "n"
        edges.extend((node_id, f"{below}{i}", None) for i in range(1, len(node.children) + 1))
    return _dot(name, nodes, edges)


# -- derivation trees --------------------------------------------------


def derivation_to_json(script: DerivationTree) -> str:
    steps = []
    for step in script.steps:
        if step.op == "adjoin_set":
            site = [format_address(a) for a in step.site]
        else:
            site = format_address(step.site)
        steps.append(
            {
                "op": step.op,
                "child": step.child,
                "parent": step.parent,
                "site": site,
                "label": step.arc_label,
            }
        )
    return json.dumps(
        {"root": script.root, "instances": script.instances, "steps": steps},
        indent=2,
        ensure_ascii=False,
    )


def derivation_from_json(text: str) -> DerivationTree:
    data = json.loads(text)
    steps = []
    for obj in data["steps"]:
        if obj["op"] == "adjoin_set":
            site = tuple(parse_address(a) for a in obj["site"])
        else:
            if not isinstance(obj["site"], str):
                raise GrammarFormatError(f"step {obj['op']} expects a single site")
            site = parse_address(obj["site"])
        steps.append(
            DerivationStep(obj["op"], obj["child"], obj["parent"], site, obj["label"])
        )
    script = DerivationTree(data["root"], dict(data["instances"]), steps)
    script.validate()
    return script


def derivation_to_dot(
    script: DerivationTree, lexemes: dict[str, str] | None = None, name: str = "derivation"
) -> str:
    """Nodes carry the anchor lexeme; arcs carry the actant number,
    ATTR or S."""
    lexemes = lexemes or {}
    ids = {inst: f"n{i}" for i, inst in enumerate(script.instances)}
    nodes = [(ids[inst], lexemes.get(inst, tree_id)) for inst, tree_id in script.instances.items()]
    edges = [(ids[s.parent], ids[s.child], s.arc_label) for s in script.steps]
    return _dot(name, nodes, edges)


# -- dependency trees --------------------------------------------------


def dependency_to_json(tree: DependencyTree) -> str:
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
    data = json.loads(text)
    tree = DependencyTree(root=data["root"])
    for obj in data["nodes"]:
        tree.nodes[obj["id"]] = DepNode(obj["id"], obj["lexeme"], obj.get("covert", False))
    for obj in data["arcs"]:
        tree.arcs.append((obj["head"], obj["dep"], obj["label"]))
    tree.order = data.get("order")
    tree.validate()
    return tree


def dependency_to_dot(tree: DependencyTree, name: str = "dependency") -> str:
    ids = {nid: f"n{i}" for i, nid in enumerate(tree.nodes)}
    nodes = [
        (ids[nid], f"({node.lexeme})" if node.covert else node.lexeme)
        for nid, node in tree.nodes.items()
    ]
    edges = [(ids[head], ids[dep], label) for head, dep, label in tree.arcs]
    return _dot(name, nodes, edges)
