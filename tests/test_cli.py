"""End-to-end command-line tests over the bundled corpus."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tagforge as tf
from tagforge import exports
from tagforge.cli import main

from test_grammar import SET_ID_CLASH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_fig7(capsys):
    code, out, _ = run(capsys, "derive", "-g", "corpus:english.tag", "-s", "corpus:fig7.drv")
    assert code == 0
    assert out.strip() == "John really likes Lyn"


def test_linearize_fig18(capsys):
    code, out, _ = run(
        capsys, "linearize", "-t", "corpus:fig18.dep", "-r", "corpus:dutch.syn"
    )
    assert code == 0
    assert out.strip() == "omdat Wim Jan Marie de kinderen zien helpen leren zwemmen"


def test_projective_fig8(capsys):
    code, out, _ = run(
        capsys,
        "projective",
        "-t",
        "corpus:fig8.dep",
        "--order",
        "who do you think that Mary claimed that Sarah liked",
    )
    assert code == 0
    assert out.splitlines()[0] == "non-projective"
    assert len(out.splitlines()) > 1  # violations listed


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "-g", "corpus:english.tag")
    assert code == 0
    assert "lexicalized: yes" in out


def test_validate_invalid_tree(tmp_path, capsys):
    bad = tmp_path / "bad.tag"
    bad.write_text('tree b aux (VP "really"@ S*)\n', encoding="utf-8")
    code, out, _ = run(capsys, "validate", "-g", str(bad))
    assert code == 1
    assert "INVALID" in out


def test_parse_text(capsys):
    code, out, err = run(capsys, "parse", "-g", "corpus:english.tag", "John likes Lyn")
    assert code == 0
    assert out.splitlines()[0] == "recognized: yes"
    stats = json.loads(err.strip().splitlines()[-1])
    assert stats["words"] == 3


def test_parse_wordless_tree_exit_1(tmp_path, capsys):
    grammar = tmp_path / "wordless.tag"
    grammar.write_text('start S\ntree b initial (S "x"@)\ntree c initial (S S!)\n', encoding="utf-8")
    code, out, err = run(capsys, "parse", "-g", str(grammar), "x")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: RefuseUnbounded: cannot bound the derivations of a chart item "
        "that may derive itself; trees with no word: c"
    ]


def test_enumerate(capsys):
    code, out, _ = run(
        capsys, "enumerate", "-g", "corpus:english.tag", "--max-trees", "3"
    )
    assert code == 0
    assert sorted(out.strip().splitlines()) == [
        "John likes John",
        "John likes Lyn",
        "Lyn likes John",
        "Lyn likes Lyn",
    ]


def test_dep_text_output(capsys, english_wh):
    code, out, _ = run(capsys, "dep", "-g", "corpus:english_wh.tag", "-s", "corpus:fig10.drv")
    assert code == 0
    reparsed = tf.parse_dependency(out)
    assert reparsed.nodes[reparsed.root].lexeme == "think"


def test_export_json_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "export",
        "-g",
        "corpus:english.tag",
        "-s",
        "corpus:fig7.drv",
        "--what",
        "derivation",
        "--format",
        "json",
    )
    assert code == 0
    script = exports.derivation_from_json(out)
    assert script.root == "alpha1"

    code, out, _ = run(
        capsys,
        "export",
        "-g",
        "corpus:english.tag",
        "-s",
        "corpus:fig7.drv",
        "--what",
        "derived",
        "--format",
        "json",
    )
    assert code == 0
    phrase = exports.phrase_from_json(out)
    assert phrase.sentence() == "John really likes Lyn"


def test_export_dot(capsys):
    code, out, _ = run(
        capsys,
        "export",
        "-g",
        "corpus:english.tag",
        "-s",
        "corpus:fig7.drv",
        "--format",
        "dot",
    )
    assert code == 0
    assert out.startswith("digraph")
    for label in ('label="1"', 'label="2"', 'label="ATTR"'):
        assert label in out


def test_export_dot_labels_a_tree_named_like_a_set():
    # The grammar's set ``ms`` is renamed, in code, to ``s``, the id of the
    # auxiliary tree the script adjoins; the node is labeled by that
    # tree's anchor, since no adjoin_set step attaches it.
    from tagforge.cli import _render, _structure

    grammar = tf.parse_grammar(SET_ID_CLASH.replace("set s {", "set ms {"))
    grammar.tree_sets["s"] = grammar.tree_sets.pop("ms")
    script = tf.parse_script("use a; subst n -> a @ 1 label 1; adjoin s -> a @ 2 label ATTR", grammar)
    out = _render("derivation", "dot", _structure("derivation", grammar, script))
    assert 'n2 [label="z"];' in out


def test_domain_error_exit_1(tmp_path, capsys):
    script = tmp_path / "bad.drv"
    script.write_text(
        "use alpha1\nsubst alpha3 -> alpha1 @ 2 label 1\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "derive", "-g", "corpus:english.tag", "-s", str(script))
    assert code == 1
    assert "Error" in err or "error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "derive", "-g", "/nonexistent.tag", "-s", "corpus:fig7.drv")
    assert code == 2
    assert "error" in err


def test_unknown_corpus_file_exit_2(capsys):
    code, _, err = run(capsys, "validate", "-g", "corpus:nonexistent.tag")
    assert code == 2
    assert err == "error: \"no bundled corpus file 'nonexistent.tag'\"\n"


def test_format_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tag"
    bad.write_text("tree ??? nonsense", encoding="utf-8")
    code, _, err = run(capsys, "validate", "-g", str(bad))
    assert code == 2
    assert "error" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["derive", "-g", "corpus:english.tag"])  # -s missing
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    code = main(
        ["derive", "-g", "corpus:english.tag", "-s", "corpus:fig7.drv", "-o", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    assert out_path.read_text(encoding="utf-8").strip() == "John really likes Lyn"


def test_projective_rootless_file_exit_2(tmp_path):
    """Run as a real process, so a traceback would show on stderr."""
    dep = tmp_path / "rootless.dep"
    dep.write_text("dep\n", encoding="utf-8")
    src = str(Path(tf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "tagforge.cli", "projective", "-t", str(dep)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: dependency file has no root node"]


def test_validate_set_id_clash_exit_2(tmp_path):
    """A set named like a tree is a grammar format error, reported on one
    stderr line like every other one (exit 2)."""
    grammar = tmp_path / "clash.tag"
    grammar.write_text(SET_ID_CLASH, encoding="utf-8")
    src = str(Path(tf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tagforge.cli", "validate", "-g", str(grammar)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: line 7: set id 's' is also a tree id"]


@pytest.mark.parametrize(
    "grammar, script, message",
    [
        (
            "english.tag",
            "use alpha1\nadjoinset alpha2 -> alpha1 @ 1, 2 label S\n",
            "error: ScriptError: step 0: no tree set named 'alpha2'",
        ),
        (
            "german_mc.tag",
            "use alpha_inf\nsubst sigma_m -> alpha_inf @ 1.1 label 1\n",
            "error: ScriptError: step 0: no tree named 'sigma_m'",
        ),
    ],
)
def test_unknown_tree_in_step_exit_1(tmp_path, grammar, script, message):
    """A step naming a tree where a set belongs, or a set where a tree
    belongs, is a domain error of that step."""
    path = tmp_path / "bad.drv"
    path.write_text(script, encoding="utf-8")
    src = str(Path(tf.__file__).resolve().parents[1])
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tagforge.cli", "derive", "-g", f"corpus:{grammar}", "-s", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [message]


def test_too_deep_json_export_exit_1(tmp_path):
    """JSON export of a 600-level derived tree ends in one error line,
    with no traceback."""
    lines = [
        "use alpha1",
        "subst alpha2 -> alpha1 @ 1 label 1",
        "subst alpha3 -> alpha1 @ 2.2 label 2",
        "adjoin beta1 as b1 -> alpha1 @ 2 label ATTR",
    ]
    lines += [f"adjoin beta1 as b{i} -> b{i - 1} @ 0 label ATTR" for i in range(2, 601)]
    path = tmp_path / "chain.drv"
    path.write_text("\n".join(lines), encoding="utf-8")
    src = str(Path(tf.__file__).resolve().parents[1])
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )
    argv = ["derive", "-g", "corpus:english.tag", "-s", str(path), "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "tagforge.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: TagError: phrase tree nests too deep for JSON (the limit is about 500 levels)"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "-g", "{bad}"],
        ["derive", "-g", "corpus:english.tag", "-s", "{bad}"],
        ["projective", "-t", "{bad}"],
        ["linearize", "-t", "corpus:fig18.dep", "-r", "{bad}"],
    ],
    ids=["-g", "-s", "-t", "-r"],
)
def test_undecodable_input_exit_2(tmp_path, capsys, argv):
    """A file that is not UTF-8 is an I/O error: one stderr line naming
    the path, exit 2."""
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff tree")
    code, out, err = run(capsys, *(a.format(bad=bad) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text (byte 0: invalid start byte)\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["parse", "-g", "corpus:english.tag", "John likes Lyn", "--cap", "-1"], "--cap"),
        (["enumerate", "-g", "corpus:english.tag", "--max-trees", "-1"], "--max-trees"),
    ],
)
def test_negative_count_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: argument {flag}: must be 0 or more, got -1")


def test_zero_counts_allowed(capsys):
    code, out, _ = run(capsys, "parse", "-g", "corpus:english.tag", "John likes Lyn", "--cap", "0")
    assert (code, out) == (0, "recognized: yes\n")
    code, out, _ = run(capsys, "enumerate", "-g", "corpus:english.tag", "--max-trees", "0")
    assert (code, out) == (0, "\n")
