"""Chart-based recognizer and parser for lexicalized TAG.

Bottom-up CKY-style recognition over elementary-tree nodes.  Items carry
a span and, inside auxiliary trees, the span of the material below the
foot node, giving the usual O(n^6) bound.  Tree sets are skipped with a
warning; general MC-TAG parsing is refused by design.

The chart derives only items an inference rule can use:

- Lexical filter: a tree with an anchor or terminal word missing from the
  input can never cover the whole input, so only trees whose words all
  occur in it take part (lexicalized tree selection).  The state table
  indexes the trees by their first word, so a parse checks only the
  trees whose first word occurs in the input, and the trees with no word,
  which always take part.
- On-demand foot items: a finished auxiliary tree whose foot spans (i, j)
  can only adjoin onto a node whose bottom item spans (i, j).  So the foot
  item over (i, j) is added once, when the first bottom item with the
  foot's label spans (i, j), not for every span up front.
- Word-context filter: the grammar alone fixes which words can stand
  just left and just right of each node's span (start and end of sentence
  included), and in a lexicalized grammar, where every tree carries a
  word, those sets are narrow.  A table of them, built by a fixpoint over
  the grammar's trees on first use and again whenever the start symbol or
  a tree changes, is the grammar-level counterpart of the prediction step
  of Earley-style TAG parsing (Schabes & Joshi 1988, "An Earley-type
  parsing algorithm for Tree Adjoining Grammars").  An item is admitted
  only if the words around its span are in its node's sets, and each
  rule tests that before it builds the item or its backpointer.  The sets
  over-approximate real contexts, so every item some complete derivation
  uses is admitted, and every backpointer of such an item has such
  children; the filter drops only items no goal reaches, so derivations,
  their order and verdicts are those of the unfiltered chart, and only
  the item count falls.  On ``John really^k likes Lyn`` the chart keeps
  O(k) items instead of O(k^2).

Each grammar is compiled once into numbered chart states, in the same
per-grammar table as its word contexts: one T state per node (the node
finished, adjunction included) and one P state per interior node and
k >= 2 (its first k children concatenated).  A first child's T item also
stands for its parent's first child done, and the item that has all of a
node's children (its P item for k = n, or the T item of an only child)
for the node before adjunction, its bottom item, so the chart builds no
item that only renames another.  An item is the int tuple
``(state, i, j, p, q)``, where (p, q) is the span below the foot or
(-1, -1), and fill reads each state's parent, next child, label and word
contexts from per-state lists instead of building and hashing addresses.
This is still the item-based CKY of Vijay-Shanker & Joshi 1985; only the
encoding of the items changed.

Fill is one agenda loop, ``_Chart.run``: the per-state lists and the
combination indexes are locals and every inference rule is inline, so a
rule application costs a few list and dict lookups.  Its ``store``, the
one place an item or a backpointer enters the chart, is called only for
results the word-context filter admits.

Derivations are read off the items' backpointers (the item and agenda
scheme of Shieber, Schabes & Pereira 1995).  A backpointer list is final
once fill ends, so ``parse`` sorts a list into the canonical order when
extraction first reaches its item, and never sorts a list it does not
read; ``recognize`` never sorts.  In one item's list, the backpointers
of one kind hold items of one kind at each position, and
states are numbered in sorted (tree id, address[, k]) order within each
kind, so sorting int items gives the order that sorting by tree id,
address and span gives.  Each item and backpointer is stored once, so
``parse`` reads each derivation off once and returns the first ``cap``,
with no dedupe and no replay: each backpointer is a proof step.  That
every derivation replays to its sentence is a property checked in
``tests/test_parser.py``.

``parse`` refuses a grammar that has a tree with no word.  A tree with an
anchor or terminal strictly widens the span it is substituted or adjoined
into, and the unary steps inside one tree only move up its addresses, so
without wordless trees no item derives itself: the chart is acyclic and
every item has finitely many derivations.  The state table lists the
wordless trees, so this check scans no tree per parse.  ``recognize``
accepts such grammars, since fill terminates on them anyway.

Derivations are read off in one memoized pass, the k-best recurrence of
Huang & Chiang 2005 ("Better k-best parsing", Algorithms 1-2) with
uniform weights, whose order is the lexicographic order above.  Each
item reached builds the list of its first ``cap`` derivations once, from
its children's finished lists, and every item that uses it shares it;
an item reads its backpointers only until it has ``cap``, so the cost
grows with the derivations returned, not with the whole forest.  An
explicit stack drives the pass, so deep derivations (hundreds of stacked
adjunctions) are read off like shallow ones.  The returned derivations
share their steps: a ``DerivationStep`` is an immutable value, and one
parse builds each distinct step once (the 6,006 steps of the 429
derivations of ``N saw N (with N)^6`` are 86 objects), while every
derivation gets its own ``steps`` list and ``instances`` dict.

``enumerate_language`` is an independent brute-force oracle: it expands
every derivation using a bounded number of elementary trees, without
touching the chart machinery.
"""
from __future__ import annotations

import time
import warnings
from operator import is_

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
    Record,
)


class UnparsedSets(UserWarning):
    """The grammar contains tree sets, which the parser ignores."""


class ParseResult(Record):
    _fields = ("recognized", "derivations", "stats")

    def __init__(
        self, recognized: bool, derivations: list[DerivationTree], stats: dict | None = None
    ):
        self.recognized = recognized
        self.derivations = derivations
        self.stats = {} if stats is None else stats


# -- chart states and word contexts ------------------------------------

# Bit numbers of start and end of sentence; the grammar's words follow.
_BOS, _EOS = 0, 1
_EMPTY = (0, 0)


def _union(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] | b[0], a[1] | b[1]


def _join(table: dict, label: str, pair: tuple[int, int]) -> bool:
    """Add ``pair`` into ``table[label]``; True if that changed it."""
    old = table.get(label, _EMPTY)
    new = _union(old, pair)
    if new == old:
        return False
    table[label] = new
    return True


class _States:
    """The grammar compiled into numbered chart states, with the word
    contexts of each.

    There is one T state per node (tree id, address), the node finished
    (adjunction included), and one P state per (interior node, children
    done k), k = 2..n, its first k children concatenated; a first child's
    T state doubles as its parent's state for k = 1 (see the module
    docstring).  T states are numbered first, then P, each block in sorted
    (tree id, address[, k]) order, so a chart item is the int tuple
    ``(state, i, j, p, q)`` and items of one kind compare as the
    ``(tree id, address[, k], i, j, p, q)`` they stand for.  Per-state
    lists give what fill and extraction need:

    - ``tids``, ``addrs``, ``labels``, ``initial``: the state's tree id,
      address, node label, and whether its tree is initial;
    - ``masks``: ``(left, right)``, the words that can stand just left and
      just right of the state's span, as bitmasks over the grammar's
      vocabulary plus BOS and EOS, from a fixpoint over the grammar's
      trees.  The sets over-approximate: every item that some complete
      derivation uses has its neighbours in them;
    - of a T state: ``child_no``, the node's child index (0 at a root),
      and for a child k >= 2 ``parent_part``, the P state it completes,
      (parent, k);
    - of a P state or a first child's T state, which has the node's first
      k children: ``next_child``, the T state of child k + 1, or, when
      those are all its children, -1 and ``top_of``, the node's T state;
    - ``arcs``: the arc label a T state puts on a derivation step: at a
      substitution leaf its actant number, at an auxiliary root "S" or
      "ATTR".

    ``leaves`` holds, per tree in grammar order, its word leaves, its
    substitution leaves and its feet as ``(label, T state)`` lists, so a
    parse only applies the lexical filter.  ``by_first_word`` maps a word
    to the trees (grammar-order indexes into ``leaves``) whose first word
    it is, and ``wordless`` lists the trees with no word, so a parse looks
    only at the trees its input can keep.  ``key`` identifies the
    grammar it was built from (start symbol, and tree ids and tree
    objects, compared by identity), so a changed grammar gets a new table.
    """

    def __init__(self, grammar: Grammar):
        self.key = (grammar.start_symbol, tuple(grammar.trees), tuple(grammar.trees.values()))
        self.bits: dict[str, int] = {}
        for tree in grammar.trees.values():
            for word in tree.words:
                self.bits.setdefault(word, len(self.bits) + 2)
        # Per tree, its nodes in preorder (which is sorted address order)
        # as (address, node, child addresses).
        shapes = {
            tid: [(addr, node, [addr + (k,) for k in range(1, len(node.children) + 1)])
                  for addr, node in tree.nodes.items()]
            for tid, tree in grammar.trees.items()
        }
        edges = _edges(grammar, shapes, self.bits)
        top, bottom = _contexts(grammar, shapes, edges)
        # Every node, then every (interior node, k >= 2), in state order.
        nodes = [
            (tid, addr, node, kids) for tid in sorted(shapes) for addr, node, kids in shapes[tid]
        ]
        self.first_part = len(nodes)
        tops = {(tid, addr): s for s, (tid, addr, _, _) in enumerate(nodes)}
        owners = nodes + [entry for entry in nodes for _ in entry[3][1:]]
        self.tids = [tid for tid, _, _, _ in owners]
        self.addrs: list[Address] = [addr for _, addr, _, _ in owners]
        self.labels = [node.label for _, _, node, _ in owners]
        self.initial = [grammar.trees[tid].shape == INITIAL for tid, _, _, _ in owners]
        size = len(owners)
        self.masks: list[tuple[int, int]] = [top[tid, addr] for tid, addr, _, _ in nodes]
        self.masks += [_EMPTY] * (size - len(nodes))
        self.child_no = [0] * size
        self.parent_part = [-1] * size
        self.top_of = [-1] * size
        self.next_child = [-1] * size
        self.arcs: list[str | None] = [None] * size
        parts = iter(range(self.first_part, size))
        for tid, addr, _, kids in nodes:
            for k, kid in enumerate(kids, 1):
                s = tops[tid, kid]
                self.child_no[s] = k
                # The state with the first k children: child 1's T state (its
                # mask is a P(k = 1) state's), then P states in number order.
                part = s
                if k > 1:
                    part = self.parent_part[s] = next(parts)
                    left, right = bottom[tid, addr]
                    self.masks[part] = (left, edges[tid, kids[k]][0] if k < len(kids) else right)
                if k < len(kids):
                    self.next_child[part] = tops[tid, kids[k]]
                else:
                    self.top_of[part] = tops[tid, addr]
        self.leaves: list[tuple[list, list, list]] = []
        self.by_first_word: dict[str, list[int]] = {}
        self.wordless: list[int] = []
        for index, (tid, tree) in enumerate(grammar.trees.items()):
            if tree.shape != INITIAL:
                root = "S" if tree.root.label == grammar.start_symbol else "ATTR"
                self.arcs[tops[tid, ()]] = root
            words, substs, feet = [], [], []
            for addr, node in tree.nodes.items():
                leaf = (node.label, tops[tid, addr])
                if node.kind in WORD_KINDS:
                    words.append(leaf)
                elif node.kind == SUBSTITUTION:
                    self.arcs[leaf[1]] = str(len(substs) + 1)
                    substs.append(leaf)
                elif node.kind == FOOT:
                    feet.append(leaf)
            self.leaves.append((words, substs, feet))
            if words:
                self.by_first_word.setdefault(words[0][0], []).append(index)
            else:
                self.wordless.append(index)

    def fresh(self, grammar: Grammar) -> bool:
        start, ids, trees = self.key
        return (
            start == grammar.start_symbol
            and ids == tuple(grammar.trees)
            and all(map(is_, trees, grammar.trees.values()))
        )


def _edges(grammar: Grammar, shapes: dict, bits: dict[str, int]) -> dict:
    """``(FIRST, LAST)`` of every node's top: the words its yield can
    begin and end with."""
    edges: dict[tuple, tuple[int, int]] = {}
    # By label: the tops of initial and of auxiliary roots, and the
    # bottoms of interior nodes.
    initial: dict[str, tuple[int, int]] = {}
    aux: dict[str, tuple[int, int]] = {}
    bottoms: dict[str, tuple[int, int]] = {}
    changed = True
    while changed:
        changed = False
        for tid, nodes in shapes.items():
            for addr, node, kids in reversed(nodes):  # children first
                label = node.label
                if kids:
                    below = (edges[tid, kids[0]][0], edges[tid, kids[-1]][1])
                    changed |= _join(bottoms, label, below)
                    edge = _union(below, aux.get(label, _EMPTY))
                elif node.kind in WORD_KINDS:
                    edge = (1 << bits[label],) * 2
                elif node.kind == SUBSTITUTION:
                    edge = initial.get(label, _EMPTY)
                else:  # a foot spans the bottom of the node it adjoins at
                    edge = bottoms.get(label, _EMPTY)
                edges[tid, addr] = edge
            tree = grammar.trees[tid]
            roots = initial if tree.shape == INITIAL else aux
            changed |= _join(roots, tree.root.label, edges[tid, ()])
    return edges


def _contexts(grammar: Grammar, shapes: dict, edges: dict) -> tuple[dict, dict]:
    """``(left, right)`` contexts of every node's top and of every
    interior node's bottom."""
    top: dict[tuple, tuple[int, int]] = {}
    bottom: dict[tuple, tuple[int, int]] = {}
    # By label: the tops of substitution leaves, of adjunction sites, and
    # of the feet of auxiliary trees rooted in the label.
    substs: dict[str, tuple[int, int]] = {}
    sites: dict[str, tuple[int, int]] = {}
    feet: dict[str, tuple[int, int]] = {}
    changed = True
    while changed:
        changed = False
        for tid, nodes in shapes.items():
            tree = grammar.trees[tid]
            label = tree.root.label
            if tree.shape != INITIAL:
                top[tid, ()] = sites.get(label, _EMPTY)
            elif label == grammar.start_symbol:
                top[tid, ()] = _union(substs.get(label, _EMPTY), (1 << _BOS, 1 << _EOS))
            else:
                top[tid, ()] = substs.get(label, _EMPTY)
            for addr, node, kids in nodes:  # parents first
                ctx = top[tid, addr]
                if node.kind == SUBSTITUTION:
                    changed |= _join(substs, node.label, ctx)
                elif node.kind == FOOT and tree.shape != INITIAL:
                    changed |= _join(feet, label, ctx)
                if not kids:
                    continue
                changed |= _join(sites, node.label, ctx)
                left, right = bottom[tid, addr] = _union(ctx, feet.get(node.label, _EMPTY))
                for k, kid in enumerate(kids):
                    top[tid, kid] = (
                        edges[tid, kids[k - 1]][1] if k else left,
                        edges[tid, kids[k + 1]][0] if k + 1 < len(kids) else right,
                    )
    return top, bottom


def _chart_states(grammar: Grammar) -> _States:
    """The grammar's state table, built on first use and kept on the
    grammar until its start symbol or any of its trees changes."""
    table = getattr(grammar, "_chart_states", None)
    if table is None or not table.fresh(grammar):
        table = grammar._chart_states = _States(grammar)
    return table


class _Chart:
    def __init__(self, grammar: Grammar, words: list[str]):
        self.n = len(words)
        self.start = grammar.start_symbol
        self.positions: dict[str, list[int]] = {}
        for i, word in enumerate(words):
            self.positions.setdefault(word, []).append(i)
        states = self.states = _chart_states(grammar)
        # Word-context filter: the bit number of the word just before
        # and just after each position; a word the grammar lacks gets a
        # bit no mask has.
        numbers = [states.bits.get(word, len(states.bits) + 2) for word in words]
        self.before = [_BOS] + numbers
        self.after = numbers + [_EOS]
        # Lexical filter, over the trees whose first word occurs in the
        # input and the wordless ones, in grammar order: the word leaves of
        # the kept trees, and their substitution leaves and feet by label.
        candidates = set(states.wordless)
        for word in self.positions:
            candidates.update(states.by_first_word.get(word, ()))
        self.kept = 0
        self.word_leaves: list[tuple[str, int]] = []
        self.subst_leaves: dict[str, list[int]] = {}
        self.feet: dict[str, list[int]] = {}
        for t in sorted(candidates):
            word_leaves, substs, feet = states.leaves[t]
            if any(word not in self.positions for word, _ in word_leaves):
                continue
            self.kept += 1
            self.word_leaves += word_leaves
            for label, s in substs:
                self.subst_leaves.setdefault(label, []).append(s)
            for label, s in feet:
                self.feet.setdefault(label, []).append(s)
        self.backpointers: dict[tuple, list[tuple]] = {}
        self.goals: list[tuple] = []

    def run(self):
        """Fill the chart: one agenda loop applies every inference rule.

        Each rule tests the word-context masks of its result's state and
        span before it builds the item and its backpointer, and ``store``
        is the one place an item or backpointer enters the chart.  No rule
        makes the same backpointer twice, so none is looked for."""
        states = self.states
        masks, before, after = states.masks, self.before, self.after
        child_no, parent_part = states.child_no, states.parent_part
        next_child, top_of = states.next_child, states.top_of
        labels, initial, parts = states.labels, states.initial, states.first_part
        subst_leaves, feet = self.subst_leaves, self.feet
        start, n, goals = self.start, self.n, self.goals
        backpointers = self.backpointers
        agenda: list[tuple] = []
        push, pop = agenda.append, agenda.pop
        # Combination indexes.  Tops and parts (P and first-child T items)
        # meet on (T state of a child k >= 2, position): tops by where they
        # start, parts by where they end and which child they wait for.
        tops_by_start: dict[tuple, list[tuple]] = {}
        parts_by_end: dict[tuple, list[tuple]] = {}
        bots_by_span: dict[tuple, list[tuple]] = {}
        aux_by_foot: dict[tuple, list[tuple]] = {}

        def store(item: tuple, bp: tuple):
            bps = backpointers.get(item)
            if bps is None:
                backpointers[item] = [bp]
                push(item)
            else:
                bps.append(bp)

        for word, s in self.word_leaves:  # axioms
            left, right = masks[s]
            for i in self.positions[word]:
                if left >> before[i] & 1 and right >> after[i + 1] & 1:
                    store((s, i, i + 1, -1, -1), ("lex", i))
        while agenda:
            item = pop()
            s, i, j, p, q = item
            if s < parts:
                k = child_no[s]
                if k > 1:  # child k finished: it extends the parts waiting for it
                    key = (s, i)
                    waiting = parts_by_end.get(key)
                    if waiting:
                        t = parent_part[s]
                        left, right = masks[t]
                        if right >> after[j] & 1:
                            for part in waiting:
                                _, i1, _, p1, q1 = part
                                if not left >> before[i1] & 1:
                                    continue
                                if p1 < 0:
                                    store((t, i1, j, p, q), ("concat", part, item))
                                elif p < 0:  # one foot per elementary tree
                                    store((t, i1, j, p1, q1), ("concat", part, item))
                    # Only a child k >= 2 is looked up here: a first child
                    # starts its parent's parts and never extends one.
                    tops_by_start.setdefault(key, []).append(item)
                    continue
                if not k:  # a root: the finished tree substitutes or adjoins
                    label = labels[s]
                    bi, aj = before[i], after[j]
                    if initial[s]:
                        for leaf in subst_leaves.get(label, ()):
                            left, right = masks[leaf]
                            if left >> bi & 1 and right >> aj & 1:
                                store((leaf, i, j, -1, -1), ("subst", item))
                        if label == start and i == 0 and j == n:
                            goals.append(item)
                    else:
                        key = (label, p, q)
                        for bottom in bots_by_span.get(key, ()):
                            t = top_of[bottom[0]]
                            left, right = masks[t]
                            if left >> bi & 1 and right >> aj & 1:
                                store((t, i, j, bottom[3], bottom[4]), ("adjoin", bottom, item))
                        aux_by_foot.setdefault(key, []).append(item)
                    continue
                # k == 1: a first child is also its parent's first child done.
            child = next_child[s]
            if child >= 0:  # a part: it waits for its next child
                key = (child, j)
                tops = tops_by_start.get(key)
                if tops:
                    t = parent_part[child]
                    left, right = masks[t]
                    if left >> before[i] & 1:
                        for top in tops:
                            _, _, j2, p2, q2 = top
                            if not right >> after[j2] & 1:
                                continue
                            if p < 0:
                                store((t, i, j2, p2, q2), ("concat", item, top))
                            elif p2 < 0:  # one foot per elementary tree
                                store((t, i, j2, p, q), ("concat", item, top))
                parts_by_end.setdefault(key, []).append(item)
                continue
            # A bottom item, all of a node's children: the node is finished
            # with no adjunction, or by an auxiliary tree whose foot spans (i, j).
            t = top_of[s]
            left, right = masks[t]
            if left >> before[i] & 1 and right >> after[j] & 1:
                store((t, i, j, p, q), ("noadj", item))
            label = labels[t]
            key = (label, i, j)
            bots = bots_by_span.get(key)
            if bots is None:  # the span's foot items, once per label
                bots = bots_by_span[key] = []
                for foot in feet.get(label, ()):
                    left2, right2 = masks[foot]
                    if left2 >> before[i] & 1 and right2 >> after[j] & 1:
                        store((foot, i, j, i, j), ("foot",))
            for aux in aux_by_foot.get(key, ()):
                _, i2, j2, _, _ = aux
                if left >> before[i2] & 1 and right >> after[j2] & 1:
                    store((t, i2, j2, p, q), ("adjoin", item, aux))
            bots.append(item)
        return self


# -- derivation extraction --------------------------------------------

# Backpointers of items with no ops below them.
_LEAF = frozenset(("lex", "foot"))


def _first_derivations(chart: _Chart, goals: list[tuple], cap: int) -> list[DerivationTree]:
    """The first ``cap`` derivations of the goals, in the given order.

    Every item reached gets the list of its first ``cap`` derivations (an
    ops tuple each), built once from its children's finished lists and
    shared by every item that uses it.  An item's backpointers are sorted
    when its frame is pushed; it reads them in order and stops once it has
    ``cap``, so a child is reached only when a derivation needs it.  An
    explicit stack of frames ``[item, next backpointer, derivations so
    far]`` drives the pass: a child still to build is pushed above the
    frame that needs it and is finished before that frame resumes, so
    nothing recurses.  An op is ``(op, site, arc label, child tree id,
    child ops)``, read off the state table, so building a derivation needs
    no grammar lookups.

    The chart must be acyclic (``parse`` checks that the grammar has no
    tree without a word), so no item is needed while its own frame is
    open, and every item has at least one derivation: a list found in
    ``lists`` by the frame on top is finished and not empty.
    """
    backpointers = chart.backpointers
    lists: dict[tuple, list[tuple]] = {}
    leaf = [()]  # the one derivation, with no ops, of a word or foot item
    states = chart.states
    stack: list[list] = []

    def reach(item: tuple) -> list[tuple]:
        """The list of ``item``, pushing a frame to build it if it is new.
        An item whose only backpointer is ``noadj`` shares its child's
        list, and every word and foot item shares ``leaf``."""
        key = item
        bps = backpointers[item]
        while len(bps) == 1 and bps[0][0] == "noadj":
            item = bps[0][1]
            vals = lists.get(item)
            if vals is not None:
                break
            bps = backpointers[item]
        else:
            if len(bps) == 1 and bps[0][0] in _LEAF:
                vals = leaf
            else:
                bps.sort()  # final once fill ends, so sorted when first reached
                vals = lists[item] = []
                stack.append([item, 0, vals])
        lists[key] = vals
        return vals

    found: list[DerivationTree] = []
    made: dict[tuple, DerivationStep] = {}  # shared by every derivation built
    for goal in goals:
        want = cap - len(found)
        if want <= 0:
            break
        first = lists.get(goal) or reach(goal)
        while stack:
            frame = stack[-1]
            item, b, vals = frame
            bps = backpointers[item]
            while len(vals) < cap and b < len(bps):
                bp = bps[b]
                # Both children at once, the right one reached first: its
                # frame goes below the left one's, and nothing the left
                # child needs is the right child, whose span lies after
                # (concat) or strictly around (adjoin) the left child's.
                if len(bp) == 3:
                    right = lists.get(bp[2]) or reach(bp[2])
                left = lists.get(bp[1]) or reach(bp[1])
                if stack[-1] is not frame:
                    break
                b += 1
                kind = bp[0]
                room = cap - len(vals)
                if kind == "subst":
                    s = item[0]
                    site, arc, child = states.addrs[s], states.arcs[s], states.tids[bp[1][0]]
                    vals += [(("substitute", site, arc, child, ops),) for ops in left[:room]]
                    continue
                if len(bp) == 2:
                    vals += left[:room]
                    continue
                if kind == "adjoin":  # the aux tree's derivations go on the right
                    aux = bp[2][0]
                    site, arc, child = states.addrs[item[0]], states.arcs[aux], states.tids[aux]
                    right = [(("adjoin", site, arc, child, ops),) for ops in right[:room]]
                # Left-major product, row by row, cut at ``cap``.
                for below in left:
                    vals += [below + ops for ops in right[: cap - len(vals)]]
                    if len(vals) == cap:
                        break
            else:
                stack.pop()
                continue
            frame[1] = b
        tree_id = states.tids[goal[0]]
        found += [_derivation_tree(tree_id, ops, made) for ops in first[:want]]
    return found


def _derivation_tree(tree_id: str, ops: tuple, made: dict) -> DerivationTree:
    """Build one derivation with an explicit stack: instances are named in
    preorder (``tree``, ``tree#2``, ...) and steps listed in post-order.

    ``made`` holds the steps already built in this parse, keyed by the
    fields they are made of (the name by tree id and occurrence), so a
    step that several derivations share is one immutable object and its
    name is formatted once.  The ``steps`` list and ``instances`` dict are
    the derivation's own."""
    counts = {tree_id: 1}
    instances = {tree_id: tree_id}
    steps: list[DerivationStep] = []
    # A frame is (instance, its ops still to visit, the step that attaches
    # it); the open one is held in locals and the stack holds the others.
    parent, todo, attach = tree_id, iter(ops), None
    stack: list[tuple] = []
    while True:
        for op, site, label, child, child_ops in todo:
            count = counts[child] = counts.get(child, 0) + 1
            key = (op, child, count, parent, site, label)
            step = made.get(key)
            if step is None:
                name = child if count == 1 else f"{child}#{count}"
                step = made[key] = DerivationStep(op, name, parent, site, label)
            name = step.child
            instances[name] = child
            if child_ops:
                stack.append((parent, todo, attach))
                parent, todo, attach = name, iter(child_ops), step
                break
            steps.append(step)
        else:
            if attach is None:  # the root's ops are done
                return DerivationTree(tree_id, instances, steps)
            steps.append(attach)  # after the instance's own steps
            parent, todo, attach = stack.pop()


def _check_parseable(grammar: Grammar):
    if grammar.tree_sets:
        warnings.warn(
            f"grammar contains tree sets ({', '.join(grammar.tree_sets)}); "
            "they are skipped by the parser",
            UnparsedSets,
            stacklevel=3,
        )


def recognize(grammar: Grammar, words: list[str]) -> bool:
    """True iff some derivation over the grammar yields ``words``.

    Fill admits only items whose neighbouring words the grammar allows
    (the word-context filter; see the module docstring), which drops no
    item a derivation of ``words`` uses."""
    _check_parseable(grammar)
    chart = _Chart(grammar, list(words)).run()
    return bool(chart.goals)


def parse(grammar: Grammar, words: list[str], cap: int = 100) -> ParseResult:
    """Recognize and enumerate the first ``cap`` derivations.

    Each backpointer list is sorted when enumeration first reaches its
    item, and enumeration follows that canonical order (tree ids, then
    addresses, then spans).  Every item and backpointer is stored once,
    so the enumeration yields each derivation once: ``min(cap, total)``
    are returned, with no dedupe.  Each item reached builds at most
    ``cap`` derivations, once, and shares them with every item that uses
    it, so the cost grows with the derivations returned; an explicit
    stack, not recursion, walks the chart, so no derivation is too deep
    for it.  A grammar with a tree
    that has no word could make a chart item derive itself, so it is
    refused with ``RefuseUnbounded`` before the chart is built, at any
    ``cap``.  The derivations are read off the chart and not replayed;
    ``tests/test_parser.py`` checks that each one replays to ``words``.
    The word-context filter keeps only items whose neighbouring words the
    grammar allows; it drops no item a derivation uses, so it changes
    ``stats["items"]`` and not the derivations.
    """
    _check_parseable(grammar)
    wordless = _chart_states(grammar).wordless
    if wordless:
        ids = list(grammar.trees)
        raise RefuseUnbounded(
            "cannot bound the derivations of a chart item that may derive "
            f"itself; trees with no word: {', '.join(ids[t] for t in wordless)}"
        )
    started = time.perf_counter()
    chart = _Chart(grammar, list(words)).run()
    derivations = []
    if cap > 0:
        # Goals differ only in tree id; sorting fixes their order, which
        # otherwise follows the agenda.
        derivations = _first_derivations(chart, sorted(chart.goals), cap)
    stats = {
        "items": len(chart.backpointers),
        "trees": chart.kept,
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
