"""Reference answers that do not come from tagforge.

Every check the benchmark makes on an op's output compares it with one of
these, so a wrong answer from tagforge cannot also be the expected one.
"""
from __future__ import annotations

import re

ADVERB_MEMBER = re.compile(r"^(John|Lyn) (really )*likes (John|Lyn)$")
PP_MEMBER = re.compile(r"^(John|Lyn|telescope) saw (John|Lyn|telescope)( with (John|Lyn|telescope))*$")


def catalan(n: int) -> int:
    """The n-th Catalan number, C(0) = 1, C(1) = 1, C(2) = 2, C(3) = 5."""
    value = 1
    for i in range(n):
        value = value * 2 * (2 * i + 1) // (i + 2)
    return value


def pp_derivations(k: int, cap: int) -> int:
    """Derivations of `N saw N (with N)^k` under the PP grammar, capped.

    Each of the k PPs attaches to the VP or to one of the NPs before it
    without crossing; the attachments are the binary bracketings of k + 1
    constituents, of which there are catalan(k + 1).
    """
    return min(cap, catalan(k + 1))


def descendants(parent: list[int]) -> list[set[int]]:
    """For each node, every node below it, by walking each node's head
    chain up to the root."""
    below: list[set[int]] = [set() for _ in parent]
    for node in range(len(parent)):
        head = parent[node]
        while head >= 0:
            below[head].add(node)
            head = parent[head]
    return below


def is_projective(parent: list[int], order: list[int]) -> bool:
    """Mel'cuk projectivity by its definition: every word strictly between
    the two ends of an arc lies below the arc's head.  A root strictly
    inside an arc is below no head, so root covering fails it too.

    ``parent[i]`` is the head of node ``i`` (-1 for the root); ``order``
    lists the nodes in surface order.
    """
    position = {node: i for i, node in enumerate(order)}
    below = descendants(parent)
    for dep, head in enumerate(parent):
        if head < 0:
            continue
        lo, hi = sorted((position[head], position[dep]))
        if any(word not in below[head] for word in order[lo + 1 : hi]):
            return False
    return True


def preorder(children: list[list[int]], root: int) -> list[int]:
    """Head first, then each dependent's subtree in the listed order."""
    out: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(children[node]))
    return out
