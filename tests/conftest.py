"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own data paths: the
projectivity oracle works on plain parent arrays, and the random tree
generators build structures from scratch.
"""
from __future__ import annotations

import heapq
import itertools
import random

import pytest

import tagforge as tf
from tagforge import corpus

# One verdict line per acceptance criterion, echoed after the test run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# -- corpus fixtures ---------------------------------------------------


@pytest.fixture(scope="session")
def english():
    return tf.parse_grammar(corpus.read("english.tag"))


@pytest.fixture(scope="session")
def english_wh():
    return tf.parse_grammar(corpus.read("english_wh.tag"))


@pytest.fixture(scope="session")
def dutch():
    return tf.parse_grammar(corpus.read("dutch.tag"))


@pytest.fixture(scope="session")
def german_mc():
    return tf.parse_grammar(corpus.read("german_mc.tag"))


@pytest.fixture(scope="session")
def cfg_english():
    """Criterion 8's CFG, one tree per rule: ``r1: S -> NP VP`` and
    ``r3: VP -> V NP`` have no word."""
    rules = [
        tf.CfgRule("S", ("NP", "VP")),
        tf.CfgRule("VP", (tf.Word("really"), "VP")),
        tf.CfgRule("VP", ("V", "NP")),
        tf.CfgRule("V", (tf.Word("likes"),)),
        tf.CfgRule("NP", (tf.Word("John"),)),
        tf.CfgRule("NP", (tf.Word("Lyn"),)),
    ]
    trees = tf.cfg_to_trees(rules)
    return tf.Grammar(trees={t.id: t for t in trees}, start_symbol="S")


def load_script(name, grammar):
    return tf.parse_script(corpus.read(name), grammar)


# -- brute-force projectivity oracle -----------------------------------


def oracle_projective(parent: list[int | None], order: list[int]) -> bool:
    """Reference projectivity decision on a parent array.

    ``parent[i]`` is the head of node ``i`` (None for the root) and
    ``order`` lists the node indices left to right.  A tree is projective
    iff for every arc, every node strictly between its endpoints lies in
    the head's subtree, and no arc spans the root's position.
    """
    n = len(parent)
    pos = {node: i for i, node in enumerate(order)}
    root = parent.index(None)

    def in_subtree_of(node: int, head: int) -> bool:
        while node is not None:
            if node == head:
                return True
            node = parent[node]
        return False

    for dep in range(n):
        head = parent[dep]
        if head is None:
            continue
        lo, hi = sorted((pos[head], pos[dep]))
        for other in range(n):
            if lo < pos[other] < hi and not in_subtree_of(other, head):
                return False
        if head != root and lo < pos[root] < hi:
            return False
    return True


def all_rooted_trees(n: int):
    """Every labeled rooted tree on nodes 0..n-1, as parent arrays.

    Unrooted trees come from Prufer sequences (n^(n-2) of them); each is
    then rooted at every node, giving all n^(n-1) rooted trees.
    """
    if n == 1:
        yield [None]
        return
    if n == 2:
        yield [None, 0]
        yield [1, None]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        leaves = [i for i in range(n) if degree[i] == 1]
        heapq.heapify(leaves)
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
        adjacency = [[] for _ in range(n)]
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        for root in range(n):
            parent: list[int | None] = [-1] * n
            parent[root] = None
            stack = [root]
            while stack:
                u = stack.pop()
                for v in adjacency[u]:
                    if parent[v] == -1 and v != root:
                        parent[v] = u
                        stack.append(v)
            yield parent


def parent_array_to_dep_tree(parent, order=None) -> tf.DependencyTree:
    """Wrap a parent array as a DependencyTree with ATTR arcs."""
    tree = tf.DependencyTree(root="")
    for i in range(len(parent)):
        tree.nodes[f"w{i}"] = tf.DepNode(f"w{i}", f"w{i}")
    for i, p in enumerate(parent):
        if p is None:
            tree.root = f"w{i}"
        else:
            tree.arcs.append((f"w{p}", f"w{i}", "ATTR"))
    tree.order = [f"w{i}" for i in (order if order is not None else range(len(parent)))]
    return tree


# -- random elementary trees for composition properties ----------------


def random_initial(rng: random.Random, label: str, max_depth: int = 3) -> tf.ElementaryTree:
    """A random initial tree rooted in ``label`` with exactly one anchor
    and a few substitution or terminal leaves."""
    from tagforge.trees import TreeNode

    def subtree(lbl, depth):
        if depth >= max_depth or rng.random() < 0.4:
            roll = rng.random()
            if roll < 0.5:
                return TreeNode("substitution", lbl)
            return TreeNode("terminal", f"{lbl.lower()}{rng.randrange(100)}")
        kids = tuple(
            subtree(rng.choice("SNV"), depth + 1) for _ in range(rng.randint(1, 3))
        )
        return TreeNode("interior", lbl, kids)

    kids = [subtree(rng.choice("SNV"), 1) for _ in range(rng.randint(0, 2))]
    kids.insert(rng.randint(0, len(kids)), TreeNode("anchor", f"lex{rng.randrange(1000)}"))
    root = TreeNode("interior", label, tuple(kids))
    return tf.ElementaryTree(f"rand{rng.randrange(10**9)}", "initial", root)


def random_auxiliary(rng: random.Random, label: str) -> tf.ElementaryTree:
    """A random auxiliary tree: root and foot share ``label``."""
    from tagforge.trees import TreeNode

    extras = [TreeNode("anchor", f"adv{rng.randrange(100)}")]
    for _ in range(rng.randint(0, 2)):
        extras.append(TreeNode("substitution", rng.choice("SNV")))
    foot = TreeNode("foot", label)
    kids = extras + [foot]
    rng.shuffle(kids)
    return tf.ElementaryTree(
        f"aux{rng.randrange(10**9)}", "aux", TreeNode("interior", label, tuple(kids))
    )
