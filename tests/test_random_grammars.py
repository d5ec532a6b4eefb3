"""Random lexicalized grammars as parser input, checked against a golden
file and against the brute-force ``enumerate_language`` oracle.

``tests/data/random_grammar_digests.json`` holds one digest per seeded
grammar, over the grammar text and the ``derivation_to_json`` lists that
``parse`` gives on a sample of its sentences and of their corruptions.
Two fixed families of long sentences are pinned the same way.  Rerun
this file as a script to record the digests again::

    PYTHONPATH=src python tests/test_random_grammars.py
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import tagforge as tf
from tagforge.exports import derivation_to_json

DIGESTS = Path(__file__).parent / "data" / "random_grammar_digests.json"
GRAMMARS = 800
LABELS = ("S", "A", "B")
WORDS = ("a", "b", "c")
MAX_TREES = 4
SAMPLE = 3
ORACLE_WORDS = 7


def _node(rng: random.Random, items: list[str]) -> str:
    """One interior node over ``items``, some of them grouped under an
    interior child of their own, so that adjunction has inner sites."""
    if len(items) > 1 and rng.random() < 0.5:
        i = rng.randrange(len(items))
        j = rng.randrange(i + 1, len(items) + 1)
        if j - i < len(items):
            items = items[:i] + [f"({rng.choice(LABELS)} {' '.join(items[i:j])})"] + items[j:]
    return " ".join(items)


def random_grammar(seed: int) -> str:
    """3-7 trees over labels S/A/B and words a/b/c.  Each tree has one
    anchor, up to two more words (terminals) or substitution leaves, and,
    if auxiliary, a foot placed first, last or wrapped by the rest.  The
    first tree is an initial S tree, so most languages are not empty."""
    rng = random.Random(seed)
    lines = ["start S"]
    for t in range(rng.randint(3, 7)):
        aux = t > 0 and rng.random() < 0.45
        root = "S" if t == 0 else rng.choice(LABELS)
        items = [f'"{rng.choice(WORDS)}"@']
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.4:
                item = f'"{rng.choice(WORDS)}"'
            else:
                item = f"{rng.choice(LABELS)}!"
            items.insert(rng.randint(0, len(items)), item)
        where = rng.choice(("first", "last", "wrapped")) if aux else None
        if where == "wrapped":
            cut = rng.randint(1, len(items) - 1) if len(items) > 1 else 1
            after = " ".join(items[cut:]) or f'"{rng.choice(WORDS)}"'
            body = f"{_node(rng, items[:cut])} {root}* {after}"
        else:
            body = _node(rng, items)
            if where == "first":
                body = f"{root}* {body}"
            elif where == "last":
                body = f"{body} {root}*"
        shape = "aux" if aux else "initial"
        lines.append(f"tree t{t} {shape} ({root} {body})")
    return "\n".join(lines) + "\n"


def corruptions(rng: random.Random, words: list[str]) -> list[list[str]]:
    """One copy of ``words`` with a word dropped and one with a word inserted."""
    dropped = list(words)
    del dropped[rng.randrange(len(dropped))]
    inserted = list(words)
    inserted.insert(rng.randrange(len(words) + 1), rng.choice(WORDS))
    return [dropped, inserted]


def sentences(seed: int, grammar) -> list[list[str]]:
    """A seeded sample of the members built from at most ``MAX_TREES``
    trees, each followed by its corruptions; empty corruptions are left out."""
    rng = random.Random(f"sentences:{seed}")
    members = sorted(tf.enumerate_language(grammar, MAX_TREES))
    out = []
    for sentence in rng.sample(members, min(SAMPLE, len(members))):
        words = sentence.split()
        out.append(words)
        out += [c for c in corruptions(rng, words) if c]
    return out


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def parses(grammar, sentence_list: list[list[str]]) -> list:
    return [
        [" ".join(words), [derivation_to_json(d) for d in tf.parse(grammar, words).derivations]]
        for words in sentence_list
    ]


# A small Dutch-style lexicon: each raising verb adjoins into its
# complement clause at the S node that wraps the nominal block.
LEXICON = """
start S
tree np_jan      initial (NP "Jan"@)
tree np_wim      initial (NP "Wim"@)
tree np_marie    initial (NP "Marie"@)
tree alpha_swim  initial (S (S NP!) (S "zwemmen"@))
tree alpha_sing  initial (S (S NP!) (S "zingen"@))
tree beta_help   aux     (S (S NP! S*) "helpen"@)
tree beta_let    aux     (S (S NP! S*) "laten"@)
tree beta_see    aux     (S (S NP! S*) "zien"@)
"""
NOUNS = ("Jan", "Wim", "Marie")
RAISING = ("helpen", "laten", "zien")


def cross_serial(depth: int, extra_noun: bool) -> list[str]:
    nouns = [NOUNS[i % 3] for i in range(depth + 1 + extra_noun)]
    verbs = [RAISING[i % 3] for i in range(depth)] + ["zwemmen"]
    return nouns + verbs


def fixed_families(english) -> dict[str, str]:
    lexicon = tf.parse_grammar(LEXICON)
    out = {}
    for k in range(41):
        words = ["John"] + ["really"] * k + ["likes", "Lyn"]
        out[f"really={k}"] = digest(parses(english, [words]))
    for depth in range(1, 6):
        for extra in (False, True):
            words = cross_serial(depth, extra)
            out[f"cross={depth}{'+1' if extra else ''}"] = digest(parses(lexicon, [words]))
    return out


def record(english) -> dict:
    grammars = {}
    for seed in range(GRAMMARS):
        text = random_grammar(seed)
        grammar = tf.parse_grammar(text)
        grammars[str(seed)] = digest([text, parses(grammar, sentences(seed, grammar))])
    return {"grammars": grammars, "families": fixed_families(english)}


def test_random_grammar_parses_match_golden(english):
    """Derivation lists, their order and their JSON form are pinned on
    every sampled sentence, member or not, of 800 random grammars."""
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert record(english) == golden


def test_random_grammar_recognize_matches_membership():
    """Each tree has a word, so a sentence of at most ``ORACLE_WORDS``
    words is a member iff ``enumerate_language(g, ORACLE_WORDS)`` yields
    it; ``recognize`` and ``parse`` must agree with that on members and
    corruptions alike.  Longer sentences are left to the golden digests."""
    verdicts = set()
    for seed in range(GRAMMARS):
        grammar = tf.parse_grammar(random_grammar(seed))
        language = tf.enumerate_language(grammar, ORACLE_WORDS)
        for words in sentences(seed, grammar):
            if len(words) > ORACLE_WORDS:
                continue
            member = " ".join(words) in language
            assert tf.recognize(grammar, words) is member, (seed, words)
            assert tf.parse(grammar, words, cap=1).recognized is member, (seed, words)
            verdicts.add(member)
    assert verdicts == {True, False}


if __name__ == "__main__":
    from tagforge import corpus

    english = tf.parse_grammar(corpus.read("english.tag"))
    DIGESTS.write_text(json.dumps(record(english), indent=1) + "\n", encoding="utf-8")
