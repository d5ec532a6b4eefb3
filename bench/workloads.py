"""The four workloads: seeded inputs, the op that feeds them to tagforge,
and the reference each op's output is checked against.

A workload is a sequence of decks.  Every deck holds the same multiset of
input sizes; the seed (and the deck number) chooses the words, the
corruptions that make non-members, the tree shapes and the order.  So
each complete deck costs about the same, and a run's medians and tail do
not depend on where the seed happened to put the large inputs.

Import this module only after ``src/`` is on ``sys.path``.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import tagforge as tf
from tagforge import corpus, exports

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Op:
    kind: str
    input: str  # what tagforge is given, for failure messages and tests
    run: Callable[[Any], Any]  # ctx -> raw output (timed)
    digest: Callable[[Any], Any]  # raw output -> comparable value (not timed)
    expected: Any


def _rng(seed: int, name: str, deck: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{deck}")


# -- shared generated grammar ---------------------------------------------

LEX_NOUNS = [f"noun{i}" for i in range(40)]
LEX_BASE_VERBS = [f"swim{i}" for i in range(40)]  # initial trees: innermost verb
LEX_RAISING_VERBS = [f"help{i}" for i in range(40)]  # auxiliary trees


def lexicon_grammar() -> str:
    """A 120-tree Dutch-style lexicon: each raising verb adjoins into its
    complement clause at the S node that wraps the nominal block, as in
    the bundled dutch.tag, so `n_d .. n_0 v_d .. v_0` is cross-serial."""
    lines = ["start S"]
    lines += [f'tree np_{w} initial (NP "{w}"@)' for w in LEX_NOUNS]
    lines += [f'tree alpha_{w} initial (S (S NP!) (S "{w}"@))' for w in LEX_BASE_VERBS]
    lines += [f'tree beta_{w} aux (S (S NP! S*) "{w}"@)' for w in LEX_RAISING_VERBS]
    return "\n".join(lines) + "\n"


def _chart_op(kind: str, grammar, words: list[str], cap: int, expected) -> Op:
    def run(ctx):
        result = ctx.call("chart.parse", tf.parse, grammar, words, cap=cap)
        if ctx.traced:
            # Fill alone, on the same words: parse minus this is extraction.
            ctx.call("chart.recognize", tf.recognize, grammar, words)
            ctx.count("chart.items", result.stats["items"])
            ctx.peak("chart.items_max", result.stats["items"])
            ctx.count("chart.derivations", len(result.derivations))
            ctx.count("chart.cap_hits", len(result.derivations) >= cap)
        return result

    return Op(kind, " ".join(words), run, lambda r: (r.recognized, len(r.derivations)), expected)


class Workload:
    name = ""
    module = "tagforge"  # what the set-up probe imports

    def __init__(self, seed: int):
        self.seed = seed

    def files(self) -> list[tuple[str, str]]:
        """(kind, text) of every grammar and rule file the workload loads."""
        raise NotImplementedError

    def load(self, ctx):
        loaded = []
        for kind, text in self.files():
            if kind == "grammar":
                grammar = ctx.call("grammar_io.parse_grammar", tf.parse_grammar, text)
                ctx.count("grammar_io.trees_loaded", len(grammar.trees))
                loaded.append(grammar)
            else:
                loaded.append(ctx.call("linearize.parse_rules", tf.parse_rules, text))
        self.loaded = loaded

    def deck(self, index: int) -> list[Op]:
        raise NotImplementedError


class LongSentences(Workload):
    """Chart fill dominates: long adverb stacks and cross-serial clauses
    against a lexicon mostly absent from any one sentence; cap=1."""

    name = "long-sentences"
    # (size, member): k in `N really^k likes N`, depth d in `n_d..n_0
    # v_d..v_0`; 9 of the 30 are non-members.  The four k=96 ops set the
    # tail, and the five d=4 ops sit in the middle, so op_p50_ms falls
    # inside one size class rather than on the gap between two.
    ADVERB = [(k, True) for k in (0, 2, 6, 12, 24, 48, 72, 96, 96)] + [
        (k, False) for k in (4, 16, 96, 96)
    ]
    CROSS = [(d, True) for d in (1, 2, 3, 4, 4, 4, 4, 4, 5, 6, 7, 8)] + [
        (d, False) for d in (2, 3, 5, 6, 8)
    ]

    def files(self):
        return [("grammar", corpus.read("english.tag")), ("grammar", lexicon_grammar())]

    def deck(self, index):
        english, lexicon = self.loaded
        rng = _rng(self.seed, self.name, index)
        ops = []
        for k, member in self.ADVERB:
            subj, obj = rng.choice(["John", "Lyn"]), rng.choice(["John", "Lyn"])
            words = [subj] + ["really"] * k + ["likes", obj]
            if not member:
                corrupt = rng.randrange(3)
                if corrupt == 0:  # no object
                    words = words[:-1]
                elif corrupt == 1:  # an adverb after the verb
                    words = words[:-1] + ["really", obj]
                else:  # two subjects
                    words = [rng.choice(["John", "Lyn"])] + words
            expected = bool(oracles.ADVERB_MEMBER.match(" ".join(words)))
            ops.append(_chart_op("adverb", english, words, 1, (expected, int(expected))))
        for depth, member in self.CROSS:
            nouns = [rng.choice(LEX_NOUNS) for _ in range(depth + 1)]
            verbs = [rng.choice(LEX_RAISING_VERBS) for _ in range(depth)]
            verbs.append(rng.choice(LEX_BASE_VERBS))
            if not member:  # every verb tree takes one NP: counts must match
                if rng.randrange(2):
                    nouns.pop(rng.randrange(len(nouns)))
                else:
                    nouns.insert(rng.randrange(len(nouns) + 1), rng.choice(LEX_NOUNS))
            ops.append(_chart_op("cross-serial", lexicon, nouns + verbs, 1, (member, int(member))))
        rng.shuffle(ops)
        return ops


class AmbiguousPP(Workload):
    """Extraction dominates: catalan(k + 1) derivations, cap=500."""

    name = "ambiguous-pp"
    CAP = 500
    # As many ops below the k=6 block as above it, so op_p50_ms falls
    # inside that block; the eight k >= 7 ops hit the cap and set the tail.
    # Small ops swing most with the machine's speed (a k=4 middle swung by
    # a third between runs), so the middle block is k=6, about 0.5 s.
    MEMBERS = (1, 2, 3, 4, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8)
    NON_MEMBERS = (1, 3, 5)
    NOUNS = ["John", "Lyn", "telescope"]

    def files(self):
        return [("grammar", (HERE / "data" / "pp.tag").read_text(encoding="utf-8"))]

    def deck(self, index):
        (grammar,) = self.loaded
        rng = _rng(self.seed, self.name, index)
        ops = []
        for k, member in [(k, True) for k in self.MEMBERS] + [(k, False) for k in self.NON_MEMBERS]:
            words = [rng.choice(self.NOUNS), "saw", rng.choice(self.NOUNS)]
            for _ in range(k):
                words += ["with", rng.choice(self.NOUNS)]
            if not member:
                corrupt = rng.randrange(3)
                if corrupt == 0:  # dangling preposition
                    words.append("with")
                elif corrupt == 1:  # no object
                    del words[2]
                else:  # two objects
                    words.insert(3, rng.choice(self.NOUNS))
            recognized = bool(oracles.PP_MEMBER.match(" ".join(words)))
            count = oracles.pp_derivations(k, self.CAP) if recognized else 0
            ops.append(_chart_op("pp", grammar, words, self.CAP, (recognized, count)))
        rng.shuffle(ops)
        return ops


def random_tree(rng: random.Random, size: int, spine: float):
    """Parent array of a random tree whose first ``spine`` share of nodes
    form a path; every later node hangs below a uniformly chosen earlier
    one.  spine=0 gives a bushy random recursive tree, spine=1 a path.
    The fixed path keeps the cost of one shape nearly the same across
    seeds."""
    path = round(size * spine)
    parent = [-1] + [i - 1 if i < path else rng.randrange(i) for i in range(1, size)]
    children: list[list[int]] = [[] for _ in range(size)]
    for node in range(1, size):
        children[parent[node]].append(node)
    return parent, children


def projective_order(rng: random.Random, children: list[list[int]], root: int) -> list[int]:
    """A random order in which every subtree is contiguous."""
    blocks: dict[int, list[int]] = {}
    for node in reversed(oracles.preorder(children, root)):
        parts = [blocks.pop(c) for c in children[node]]
        rng.shuffle(parts)
        parts.insert(rng.randrange(len(parts) + 1), [node])
        blocks[node] = [n for part in parts for n in part]
    return blocks[root]


def dep_text(lexemes: list[str], labels: list[str | None], children: list[list[int]]) -> str:
    """The nested-block text of a tree, in preorder."""
    out = ["dep"]
    stack: list[Any] = [0]
    while stack:
        node = stack.pop()
        if node == "}":
            out.append("}")
            continue
        out.append(lexemes[node] if labels[node] is None else f"{lexemes[node]}:{labels[node]}")
        if children[node]:
            out.append("{")
            stack.append("}")
            stack.extend(reversed(children[node]))
    return " ".join(out) + "\n"


def node_ids(lexemes_in_reading_order: list[str]) -> list[str]:
    """tagforge's id scheme: a repeated lexeme gets ``#2``, ``#3``, ..."""
    seen: dict[str, int] = {}
    ids = []
    for lexeme in lexemes_in_reading_order:
        seen[lexeme] = seen.get(lexeme, 0) + 1
        ids.append(lexeme if seen[lexeme] == 1 else f"{lexeme}#{seen[lexeme]}")
    return ids


class DepPipeline(Workload):
    """No chart work: derive, dependency, projectivity, linearize, exports."""

    name = "dep-pipeline"
    CHAINS = (2, 3, 4, 6, 8, 32, 40)
    TREES = [(size, spine) for size in (20, 60, 150, 400) for spine in (0.0, 0.15, 0.3)]

    def files(self):
        return [
            ("grammar", lexicon_grammar()),
            ("rules", (HERE / "data" / "dep.syn").read_text(encoding="utf-8")),
        ]

    def deck(self, index):
        rng = _rng(self.seed, self.name, index)
        ops = [self._chain_op(rng, depth) for depth in self.CHAINS]
        ops += [self._tree_op(rng, size, spine) for size, spine in self.TREES]
        rng.shuffle(ops)
        return ops

    def _chain_op(self, rng, depth: int) -> Op:
        """A cross-serial derivation script of the given depth.  Node i is
        verb v_i, node depth + 1 + i its subject n_i; after S-arc inversion
        v_depth is the root and v_i heads v_(i-1) and n_i."""
        grammar, _ = self.loaded
        verbs = [rng.choice(LEX_BASE_VERBS)] + [rng.choice(LEX_RAISING_VERBS) for _ in range(depth)]
        nouns = [rng.choice(LEX_NOUNS) for _ in range(depth + 1)]
        lines = [f"use alpha_{verbs[0]} as v0", f"subst np_{nouns[0]} as n0 -> v0 @ 1.1 label 1"]
        for i in range(1, depth + 1):
            lines.append(f"adjoin beta_{verbs[i]} as v{i} -> v{i - 1} @ 1 label S")
            lines.append(f"subst np_{nouns[i]} as n{i} -> v{i} @ 1.1 label 1")
        text = "\n".join(lines) + "\n"
        ids = [f"v{i}" for i in range(depth + 1)] + [f"n{i}" for i in range(depth + 1)]
        parent = [i + 1 if i < depth else -1 for i in range(depth + 1)] + list(range(depth + 1))
        surface = list(range(2 * depth + 1, depth, -1)) + list(range(depth, -1, -1))
        order = [ids[i] for i in surface]
        sentence = " ".join(nouns[::-1] + verbs[::-1])
        arcs = sorted((ids[h], ids[d], "1" if d > depth else "S") for d, h in enumerate(parent) if h >= 0)
        expected = (sentence, oracles.is_projective(parent, surface), f"v{depth}", arcs)

        def run(ctx):
            script = ctx.call("derive.parse_script", tf.parse_script, text, grammar)
            _, words = ctx.call("derive.run_derivation", tf.run_derivation, grammar, script)
            dep = ctx.call("dependency.derivation_to_dependency", tf.derivation_to_dependency, script, grammar)
            report = ctx.call("dependency.is_projective", tf.is_projective, dep, order)
            exported = ctx.call("exports.dependency_to_json", exports.dependency_to_json, dep)
            if ctx.traced:
                ctx.count("derive.steps", len(script.steps))
                ctx.count("dependency.nodes", len(dep.nodes))
                ctx.count("dependency.nonprojective", not report.projective)
            return words, report.projective, exported

        def digest(out):
            words, projective, exported = out
            data = json.loads(exported)
            arcs = sorted((a["head"], a["dep"], a["label"]) for a in data["arcs"])
            return words, projective, data["root"], arcs

        return Op("chain", text, run, digest, expected)

    def _tree_op(self, rng, size: int, spine: float) -> Op:
        _, rules = self.loaded
        parent, children = random_tree(rng, size, spine)
        cats = [rng.choice("VNA") for _ in range(size)]
        lexemes = [f"{c.lower()}{rng.randrange(16)}" for c in cats]
        labels: list[str | None] = [None] * size
        for head in range(size):
            for rank, dep in enumerate(children[head]):
                actant = cats[head] != "A" and rank < 2
                labels[dep] = str(rank + 1) if actant else "ATTR"
        reading = oracles.preorder(children, 0)
        ids = dict(zip(reading, node_ids([lexemes[n] for n in reading])))
        surface = projective_order(rng, children, 0)
        if rng.randrange(2):  # move one word: often, not always, non-projective
            surface.insert(rng.randrange(size), surface.pop(rng.randrange(size)))
        order = [ids[n] for n in surface]
        text = dep_text(lexemes, labels, children)
        expected = (oracles.is_projective(parent, surface), [lexemes[n] for n in reading])

        def run(ctx):
            tree = ctx.call("dependency.parse_dependency", tf.parse_dependency, text)
            report = ctx.call("dependency.is_projective", tf.is_projective, tree, order)
            words = ctx.call("linearize.linearize", tf.linearize, tree, rules)
            if ctx.traced:
                ctx.count("dependency.nodes", len(tree.nodes))
                ctx.count("dependency.nonprojective", not report.projective)
                ctx.count("linearize.nodes", len(tree.nodes))
            return report.projective, words

        return Op("tree", f"{text}order: {' '.join(order)}", run, lambda out: out, expected)


# Each verb with the README's corpus example; the expected stdout is in
# golden/<verb>.txt, checked by hand against the corpus files.
CLI_VERBS = {
    "validate": ["-g", "corpus:english.tag"],
    "derive": ["-g", "corpus:english.tag", "-s", "corpus:fig7.drv"],
    "parse": ["-g", "corpus:english.tag", "John really likes Lyn"],
    "enumerate": ["-g", "corpus:english.tag", "--max-trees", "4"],
    "dep": ["-g", "corpus:english_wh.tag", "-s", "corpus:fig10.drv"],
    "projective": [
        "-t", "corpus:fig8.dep",
        "--order", "who do you think that Mary claimed that Sarah liked",
    ],
    "linearize": ["-t", "corpus:fig18.dep", "-r", "corpus:dutch.syn"],
    "export": ["-g", "corpus:english.tag", "-s", "corpus:fig7.drv", "--what", "derivation", "--format", "dot"],
}


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's src first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class CliVerbs(Workload):
    """Each op is one `python -m tagforge.cli <verb>` process."""

    name = "cli-verbs"
    module = "tagforge.cli"

    def files(self):
        return [
            ("grammar", corpus.read("english.tag")),
            ("grammar", corpus.read("english_wh.tag")),
            ("rules", corpus.read("dutch.syn")),
        ]

    def deck(self, index):
        rng = _rng(self.seed, self.name, index)
        env = child_env()
        ops = []
        for verb, args in CLI_VERBS.items():
            golden = (HERE / "golden" / f"{verb}.txt").read_text(encoding="utf-8")
            command = [sys.executable, "-m", "tagforge.cli", verb, *args]

            def run(ctx, verb=verb, command=command):
                return ctx.call(
                    f"cli.{verb}", subprocess.run, command,
                    cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
                )

            ops.append(Op(verb, " ".join(args), run, lambda p: (p.returncode, p.stdout), (0, golden)))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (LongSentences, AmbiguousPP, DepPipeline, CliVerbs)}
