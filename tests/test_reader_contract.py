"""The reader contract on mutated corpus files.

Every text reader returns a value or raises a ``TagError``.  A value read
from a grammar, script or dependency file is written back as text, and
a script or dependency tree also as JSON, and each writing reads back
equal.  Rule files have no writer, so they are only read.

Each corpus file is cut into tokens: runs of whitespace, the punctuation
the formats use, and the runs between them.  Seeded mutants drop,
duplicate, swap or insert a token, or put a Unicode format character
(category Cf) inside one.  The inputs that a reader once misread with no
error are fixed cases.
"""
from __future__ import annotations

import random
import re

import pytest

import tagforge as tf
from tagforge import corpus, exports
from tagforge.derive import serialize_script
from tagforge.errors import GrammarFormatError, TagError

MUTANTS = 150  # per corpus file
_TOKEN_RE = re.compile(r"\s+|[(){};,=@]|[^\s(){};,=@]+")
# zero-width space and joiner, word joiner, byte-order mark, right-to-left
# override, soft hyphen
FORMAT_CHARS = "\u200b\u200d\u2060\ufeff\u202e\u00ad"

# file suffix -> (reader, [(writer, reader of what it writes)])
READERS = {
    ".tag": (tf.parse_grammar, [(tf.serialize_grammar, tf.parse_grammar)]),
    ".drv": (
        tf.parse_script,
        [
            (serialize_script, tf.parse_script),
            (exports.derivation_to_json, exports.derivation_from_json),
        ],
    ),
    ".dep": (
        tf.parse_dependency,
        [
            (tf.serialize_dependency, tf.parse_dependency),
            (exports.dependency_to_json, exports.dependency_from_json),
        ],
    ),
    ".syn": (tf.parse_rules, []),
}


def mutate(text: str, rng: random.Random) -> str:
    """``text`` with one token dropped, duplicated, swapped with another,
    inserted (a copy of some token of the text), or with a format
    character put inside it."""
    tokens = _TOKEN_RE.findall(text)
    words = [i for i, token in enumerate(tokens) if not token.isspace()]
    i = rng.choice(words)
    kind = rng.randrange(5)
    if kind == 0:
        del tokens[i]
    elif kind == 1:
        tokens.insert(i, tokens[i])
    elif kind == 2:
        j = rng.choice(words)
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif kind == 3:
        tokens.insert(i, tokens[rng.choice(words)] + " ")
    else:
        k = rng.randrange(len(tokens[i]) + 1)
        tokens[i] = tokens[i][:k] + rng.choice(FORMAT_CHARS) + tokens[i][k:]
    return "".join(tokens)


def read_and_round_trip(suffix: str, text: str) -> bool:
    """Whether ``text`` reads to a value; a value must write back to text
    that reads back equal, and anything else must be a ``TagError``."""
    read, round_trips = READERS[suffix]
    try:
        value = read(text)
    except TagError:
        return False
    for write, read_back in round_trips:
        written = write(value)
        assert read_back(written) == value, written
    return True


@pytest.mark.parametrize("name", corpus.FILES)
def test_mutated_corpus_files_read_or_raise_a_tag_error(name):
    suffix = name[name.rindex("."):]
    text = corpus.read(name)
    assert read_and_round_trip(suffix, text)
    rng = random.Random(name)
    outcomes = [read_and_round_trip(suffix, mutate(text, rng)) for _ in range(MUTANTS)]
    # Some mutants read and some are refused, so both paths are checked.
    assert 0 < sum(outcomes) < MUTANTS


@pytest.mark.parametrize(
    "read, text",
    [
        (tf.parse_script, "use alpha1 junk"),
        (tf.parse_script, "use alpha1 as"),
        (tf.parse_script, "use alpha1 as x y"),
        (tf.parse_script, "use alpha_inf\nadjoinset sigma_m -> alpha_inf @ 1,, 2.2 label S"),
        (
            exports.derivation_from_json,
            '{"root": "a", "instances": {"a": "a", "b": "b"},'
            ' "steps": [{"op": "adjoin", "child": "b", "parent": "a", "site": "", "label": "ATTR"}]}',
        ),
        (tf.parse_rules, "class V = a b rule r when any { y1 = head ; y2 = empty }"),
        (tf.parse_grammar, "start S\nstart NP"),
        (tf.parse_grammar, 'tree a aux (S S* "v"@)\nset s { }'),
    ],
    ids=[
        "use-junk", "use-as", "use-as-twice", "empty-site", "json-empty-site",
        "class-then-rule", "two-starts", "empty-set",
    ],
)
def test_inputs_once_misread_are_refused(read, text):
    with pytest.raises(GrammarFormatError):
        read(text)
