"""Chart-based recognizer and parser for lexicalized TAG.

Bottom-up CKY-style recognition over elementary-tree nodes.  Items carry
a span and, inside auxiliary trees, the span of the material below the
foot node, giving the usual O(n^6) bound.  Tree sets are skipped with a
warning; general MC-TAG parsing is refused by design.

The chart derives only items an inference rule can use:

- Lexical filter: a tree with an anchor or terminal word missing from the
  input can never cover the whole input, so only trees whose words all
  occur in it take part (lexicalized tree selection).
- On-demand foot items: a finished auxiliary tree whose foot spans (i, j)
  can only adjoin onto a node whose bottom item spans (i, j).  So the foot
  item over (i, j) is added once a bottom item with the foot's label spans
  (i, j), not for every span up front.

Derivations are read off the items' backpointers (the item and agenda
scheme of Shieber, Schabes & Pereira 1995).  A backpointer list is final
once fill ends, so ``parse`` sorts each list once, after fill, into the
canonical order; ``recognize`` never sorts.  Each item and backpointer is
stored once, so ``parse`` reads each derivation off once and returns
exactly the first ``cap``, with no dedupe and no replay: each backpointer
is a proof step.  That every derivation replays to its sentence is a
property checked in ``tests/test_parser.py``.

``enumerate_language`` is an independent brute-force oracle: it expands
every derivation using a bounded number of elementary trees, without
touching the chart machinery.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from .derive import DerivationStep, DerivationTree
from .errors import RefuseUnbounded
from .grammar import INITIAL, ElementaryTree, Grammar, check_lexicalized
from .trees import (
    ANCHOR,
    FOOT,
    SUBSTITUTION,
    TERMINAL,
    WORD_KINDS,
    Address,
)


class UnparsedSets(UserWarning):
    """The grammar contains tree sets, which the parser ignores."""


NOFOOT = (-1, -1)

# Item tags: T = node finished (adjunction included), B = children
# concatenated (before adjunction), P = first k children concatenated.
_T, _B, _P = "T", "B", "P"


@dataclass
class ParseResult:
    recognized: bool
    derivations: list[DerivationTree]
    stats: dict = field(default_factory=dict)


class _Chart:
    def __init__(self, grammar: Grammar, words: list[str]):
        self.n = len(words)
        self.start = grammar.start_symbol
        self.positions: dict[str, list[int]] = {}
        for i, word in enumerate(words):
            self.positions.setdefault(word, []).append(i)
        self.trees: dict[str, ElementaryTree] = {}
        # Substitution leaves and foot nodes of the kept trees, by label.
        self.subst_leaves: dict[str, list[tuple[str, Address]]] = {}
        self.feet: dict[str, list[tuple[str, Address]]] = {}
        for tid, tree in grammar.trees.items():
            nodes = tree.nodes
            if any(
                node.kind in WORD_KINDS and node.label not in self.positions
                for node in nodes.values()
            ):
                continue
            self.trees[tid] = tree
            for addr, node in nodes.items():
                if node.kind == SUBSTITUTION:
                    self.subst_leaves.setdefault(node.label, []).append((tid, addr))
                elif node.kind == FOOT:
                    self.feet.setdefault(node.label, []).append((tid, addr))
        self.backpointers: dict[tuple, list[tuple]] = {}
        self.agenda: list[tuple] = []
        # Combination indexes.
        self.tops_by_start: dict[tuple, list[tuple]] = {}
        self.parts_by_end: dict[tuple, list[tuple]] = {}
        self.bots_by_span: dict[tuple, list[tuple]] = {}
        self.aux_by_foot: dict[tuple, list[tuple]] = {}
        self.goals: list[tuple] = []

    def run(self):
        self._axioms()
        while self.agenda:
            item = self.agenda.pop()
            kind = item[0]
            if kind == _T:
                self._process_top(item)
            elif kind == _P:
                self._process_part(item)
            else:
                self._process_bottom(item)
        return self

    # -- item admission ------------------------------------------------

    def _add(self, item: tuple, bp: tuple):
        bps = self.backpointers.get(item)
        if bps is None:
            self.backpointers[item] = [bp]
            self.agenda.append(item)
        elif bp not in bps:
            bps.append(bp)

    def _axioms(self):
        for tid, tree in self.trees.items():
            for addr, node in tree.nodes.items():
                if node.kind in WORD_KINDS:
                    for i in self.positions[node.label]:
                        self._add((_T, tid, addr, i, i + 1, *NOFOOT), ("lex", i))

    # -- inference -----------------------------------------------------

    def _process_top(self, item: tuple):
        _, tid, addr, i, j, p, q = item
        if addr:
            parent, k = addr[:-1], addr[-1]
            if k == 1:
                self._add((_P, tid, parent, 1, i, j, p, q), ("first", item))
            else:
                for part in self.parts_by_end.get((tid, parent, k - 1, i), []):
                    self._combine(part, item)
            self.tops_by_start.setdefault((tid, addr, i), []).append(item)
        else:
            self._process_complete(item)

    def _combine(self, part: tuple, top: tuple):
        _, tid, parent, k, i, _, p1, q1 = part
        _, _, child_addr, _, j2, p2, q2 = top
        if (p1, q1) != NOFOOT and (p2, q2) != NOFOOT:
            return  # one foot per elementary tree
        foot = (p1, q1) if (p1, q1) != NOFOOT else (p2, q2)
        self._add(
            (_P, tid, parent, child_addr[-1], i, j2, *foot), ("concat", part, top)
        )

    def _process_part(self, item: tuple):
        _, tid, addr, k, i, j, p, q = item
        node = self.trees[tid].nodes[addr]
        if k == len(node.children):
            self._add((_B, tid, addr, i, j, p, q), ("children", item))
        else:
            for top in self.tops_by_start.get((tid, addr + (k + 1,), j), []):
                self._combine(item, top)
            self.parts_by_end.setdefault((tid, addr, k, j), []).append(item)

    def _process_bottom(self, item: tuple):
        _, tid, addr, i, j, p, q = item
        self._add((_T, tid, addr, i, j, p, q), ("noadj", item))
        label = self.trees[tid].nodes[addr].label
        for foot_tid, foot_addr in self.feet.get(label, ()):
            self._add((_T, foot_tid, foot_addr, i, j, i, j), ("foot",))
        for aux in self.aux_by_foot.get((label, i, j), []):
            self._adjoin(item, aux)
        self.bots_by_span.setdefault((label, i, j), []).append(item)

    def _adjoin(self, bottom: tuple, aux_complete: tuple):
        _, tid, addr, _, _, p, q = bottom
        _, _, _, ai, aj, _, _ = aux_complete
        self._add((_T, tid, addr, ai, aj, p, q), ("adjoin", bottom, aux_complete))

    def _process_complete(self, item: tuple):
        _, tid, _, i, j, p, q = item
        tree = self.trees[tid]
        label = tree.root.label
        if tree.shape == INITIAL:
            for tid2, addr2 in self.subst_leaves.get(label, ()):
                self._add((_T, tid2, addr2, i, j, *NOFOOT), ("subst", item))
            if label == self.start and i == 0 and j == self.n:
                self.goals.append(item)
        else:
            for bottom in self.bots_by_span.get((label, p, q), []):
                self._adjoin(bottom, item)
            self.aux_by_foot.setdefault((label, p, q), []).append(item)

    # -- derivation extraction ----------------------------------------

    def derivations(self, item: tuple) -> Iterator[tuple]:
        """Yield (tree_id, ops) pairs for a complete-tree item, where ops
        is a list of ('substitute'|'adjoin', site, subderivation)."""
        tid = item[1]
        for ops in self._ops(item):
            yield (tid, ops)

    def _ops(self, item: tuple) -> Iterator[list]:
        for bp in self.backpointers[item]:
            kind = bp[0]
            if kind in ("lex", "foot"):
                yield []
            elif kind == "subst":
                site = item[2]
                for sub in self.derivations(bp[1]):
                    yield [("substitute", site, sub)]
            elif kind in ("noadj", "children", "first"):
                yield from self._ops(bp[1])
            elif kind == "concat":
                for left in self._ops(bp[1]):
                    for right in self._ops(bp[2]):
                        yield left + right
            elif kind == "adjoin":
                site = item[2]
                for below in self._ops(bp[1]):
                    for sub in self.derivations(bp[2]):
                        yield below + [("adjoin", site, sub)]
            else:  # pragma: no cover
                raise AssertionError(f"unknown backpointer {kind!r}")


def _substitution_rank(tree: ElementaryTree, site: Address) -> str:
    """MTT-style actant number: position of the site among the tree's
    substitution addresses in preorder."""
    return str(tree.substitution_addresses().index(site) + 1)


def _to_derivation_tree(grammar: Grammar, deriv: tuple) -> DerivationTree:
    counters: dict[str, int] = {}

    def fresh(tree_id: str) -> str:
        counters[tree_id] = counters.get(tree_id, 0) + 1
        if counters[tree_id] == 1:
            return tree_id
        return f"{tree_id}#{counters[tree_id]}"

    result = DerivationTree(root="")

    def build(node: tuple) -> str:
        tree_id, ops = node
        instance = fresh(tree_id)
        result.instances[instance] = tree_id
        for op, site, sub in ops:
            child = build(sub)
            if op == "substitute":
                label = _substitution_rank(grammar.tree(tree_id), site)
            else:
                aux_root = grammar.tree(sub[0]).root.label
                label = "S" if aux_root == grammar.start_symbol else "ATTR"
            result.steps.append(DerivationStep(op, child, instance, site, label))
        return instance

    result.root = build(deriv)
    return result


def _check_parseable(grammar: Grammar):
    if grammar.tree_sets:
        warnings.warn(
            f"grammar contains tree sets ({', '.join(grammar.tree_sets)}); "
            "they are skipped by the parser",
            UnparsedSets,
            stacklevel=3,
        )


def recognize(grammar: Grammar, words: list[str]) -> bool:
    """True iff some derivation over the grammar yields exactly ``words``."""
    _check_parseable(grammar)
    chart = _Chart(grammar, list(words)).run()
    return bool(chart.goals)


def parse(grammar: Grammar, words: list[str], cap: int = 100) -> ParseResult:
    """Recognize and enumerate the first ``cap`` derivations.

    After fill, each backpointer list is sorted once, and enumeration
    follows that canonical order (tree ids, then addresses, then spans).
    Every item and backpointer is stored once, so the enumeration yields
    each derivation once: exactly ``min(cap, total)`` are returned, with
    no dedupe.  The derivations are read off the chart and not replayed;
    ``tests/test_parser.py`` checks that each one replays to ``words``.
    """
    _check_parseable(grammar)
    started = time.perf_counter()
    chart = _Chart(grammar, list(words)).run()
    derivations = []
    if cap > 0:
        for bps in chart.backpointers.values():
            bps.sort()  # final once fill ends, so sorted once, not per visit
        # Goals differ only in tree id; sorting fixes their order, which
        # otherwise follows the agenda.
        raw = (d for goal in sorted(chart.goals) for d in chart.derivations(goal))
        derivations = [_to_derivation_tree(grammar, d) for d in islice(raw, cap)]
    stats = {
        "items": len(chart.backpointers),
        "trees": len(chart.trees),
        "wall_time_s": time.perf_counter() - started,
        "words": len(words),
    }
    return ParseResult(bool(chart.goals), derivations, stats)


_FOOT_MARK = "\x00foot\x00"


def enumerate_language(grammar: Grammar, max_trees: int) -> set[str]:
    """All yields of complete derivations using at most ``max_trees``
    elementary trees, by exhaustive expansion."""
    report = check_lexicalized(
        Grammar(trees=grammar.trees, start_symbol=grammar.start_symbol)
    )
    if not report.lexicalized:
        raise RefuseUnbounded(
            "cannot bound enumeration for a non-lexicalized grammar; "
            f"anchorless or multi-anchored trees: {', '.join(report.offenders)}"
        )
    initials = grammar.initial_trees()
    auxes = grammar.auxiliary_trees()
    memo: dict[tuple[str, int], list[tuple[tuple, int]]] = {}

    def gen_tree(tree: ElementaryTree, budget: int) -> list[tuple[tuple, int]]:
        if budget < 1:
            return []
        key = (tree.id, budget)
        if key not in memo:
            memo[key] = [(w, c + 1) for w, c in gen_node(tree.root, budget - 1)]
        return memo[key]

    def gen_node(node, budget: int) -> list[tuple[tuple, int]]:
        if node.kind in (ANCHOR, TERMINAL):
            return [((node.label,), 0)]
        if node.kind == FOOT:
            return [((_FOOT_MARK,), 0)]
        if node.kind == SUBSTITUTION:
            out = []
            for t2 in initials:
                if t2.root.label == node.label:
                    out.extend(gen_tree(t2, budget))
            return out
        # Interior: concatenate the children, then optionally adjoin.
        combos = [((), 0)]
        for child in node.children:
            combos = [
                (w1 + w2, c1 + c2)
                for w1, c1 in combos
                for w2, c2 in gen_node(child, budget - c1)
                if c1 + c2 <= budget
            ]
        results = list(combos)
        for t2 in auxes:
            if t2.root.label != node.label:
                continue
            for words, cost in combos:
                for aux_words, aux_cost in gen_tree(t2, budget - cost):
                    split = aux_words.index(_FOOT_MARK)
                    results.append(
                        (aux_words[:split] + words + aux_words[split + 1 :], cost + aux_cost)
                    )
        return results

    sentences = set()
    for tree in initials:
        if tree.root.label != grammar.start_symbol:
            continue
        for words, _ in gen_tree(tree, max_trees):
            if _FOOT_MARK not in words:
                sentences.add(" ".join(words))
    return sentences
