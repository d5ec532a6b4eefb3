"""JSON and DOT renderings of phrase trees, derivation trees and
dependency trees, with JSON importers for round-tripping."""
from __future__ import annotations

import json

from .dependency import DependencyTree, DepNode
from .derive import DerivationStep, DerivationTree, PhraseTree
from .errors import GrammarFormatError
from .trees import TreeNode, format_address, parse_address, walk


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


# -- phrase trees ------------------------------------------------------


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
    return json.dumps({"root": node(tree.root), "provenance": provenance}, indent=2, ensure_ascii=False)


def phrase_from_json(text: str) -> PhraseTree:
    data = json.loads(text)

    def node(obj) -> TreeNode:
        children = tuple(node(c) for c in obj.get("children", []))
        return TreeNode(obj["kind"], obj["label"], children)

    provenance = {
        parse_address(addr): (origin["tree"], parse_address(origin["address"]))
        for addr, origin in data.get("provenance", {}).items()
    }
    return PhraseTree(node(data["root"]), provenance)


def phrase_to_dot(tree: PhraseTree, name: str = "derived") -> str:
    lines = [f'digraph "{_dot_escape(name)}" {{', "  node [shape=plaintext];"]
    for addr, node in walk(tree.root):
        node_id = "n" + "_".join(str(i) for i in addr) if addr else "n0"
        label = node.label
        if node.kind == "substitution":
            label += " ↓"
        elif node.kind == "foot":
            label += " *"
        elif node.kind in ("anchor", "terminal"):
            label = f'"{label}"' if node.kind == "terminal" else f"{label}◇"
        lines.append(f'  {node_id} [label="{_dot_escape(label)}"];')
    for addr, node in walk(tree.root):
        parent_id = "n" + "_".join(str(i) for i in addr) if addr else "n0"
        for i in range(1, len(node.children) + 1):
            child_id = "n" + "_".join(str(x) for x in addr + (i,))
            lines.append(f"  {parent_id} -> {child_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    lines = [f'digraph "{_dot_escape(name)}" {{', "  node [shape=plaintext];"]
    ids = {inst: f"n{i}" for i, inst in enumerate(script.instances)}
    for inst in script.instances:
        label = lexemes.get(inst, script.instances[inst])
        lines.append(f'  {ids[inst]} [label="{_dot_escape(label)}"];')
    for step in script.steps:
        lines.append(
            f'  {ids[step.parent]} -> {ids[step.child]} [label="{_dot_escape(step.arc_label)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    lines = [f'digraph "{_dot_escape(name)}" {{', "  node [shape=plaintext];"]
    ids = {nid: f"n{i}" for i, nid in enumerate(tree.nodes)}
    for nid, node in tree.nodes.items():
        label = f"({node.lexeme})" if node.covert else node.lexeme
        lines.append(f'  {ids[nid]} [label="{_dot_escape(label)}"];')
    for head, dep, label in tree.arcs:
        lines.append(f'  {ids[head]} -> {ids[dep]} [label="{_dot_escape(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
