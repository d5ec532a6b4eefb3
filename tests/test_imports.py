"""Which tagforge modules each process loads, and the lazy package surface.

Every check runs in a fresh interpreter: runs in one process share
``sys.modules``, which would hide an import that one verb lacks.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tagforge as tf

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden"

# The corpus example of each verb (the README's), with its expected
# stdout in bench/golden/<verb>.txt.
VERBS = {
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
    "export": [
        "-g", "corpus:english.tag", "-s", "corpus:fig7.drv",
        "--what", "derivation", "--format", "dot",
    ],
}

# Runs main(argv) and prints every module loaded, space-separated, as
# the last line of stderr.  It imports nothing but sys and tagforge, so
# a module in that line was loaded by the verb or by interpreter start.
RUN_VERB = """
import sys
from tagforge.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

# Verbs that write no JSON, so must not import the json module.
JSONLESS = ("validate", "derive", "enumerate", "dep", "projective", "linearize")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(tf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_loads_only_its_layers(verb):
    proc = _python(RUN_VERB, verb, *VERBS[verb])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{verb}.txt").read_text(encoding="utf-8")
    modules = set(proc.stderr.splitlines()[-1].split())
    # dataclasses imports inspect, ast, dis and tokenize: most of a verb's
    # start-up once, and no class of tagforge needs it.
    assert "dataclasses" not in modules
    if verb in JSONLESS:
        assert "json" not in modules
    loaded = {name.split(".", 1)[1] for name in modules if name.startswith("tagforge.")}
    if verb == "validate":
        assert not loaded & {"chart", "derive", "dependency", "syntagm", "exports"}
    if verb in ("projective", "linearize"):
        assert not loaded & {"chart", "derive", "grammar", "grammar_io", "exports"}
    assert ("chart" in loaded) == (verb in ("parse", "enumerate"))


@pytest.mark.parametrize(
    "first",
    [
        "import tagforge.syntagm",
        "from tagforge.cli import main; main(['linearize', '-t', 'corpus:fig18.dep', "
        "'-r', 'corpus:dutch.syn'])",
    ],
)
def test_linearize_stays_the_function(first):
    """The linearizer's module is ``syntagm``, so no submodule import can
    rebind the package attribute ``linearize``."""
    proc = _python(
        f"{first}\n"
        "import tagforge, tagforge.syntagm\n"
        "assert tagforge.linearize is tagforge.syntagm.linearize\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_package_surface():
    proc = _python(
        """
import tagforge
names = {}
exec("from tagforge import *", names)
assert set(names) - {"__builtins__"} == set(tagforge.__all__), names.keys()
assert set(tagforge.__all__) <= set(dir(tagforge))
try:
    tagforge.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("tagforge.no_such_name did not raise AttributeError")
from tagforge import corpus, derive, errors, exports
assert derive.run_derivation is tagforge.run_derivation
assert tagforge.TagError is tagforge.errors.TagError
classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
assert len(classes) == 15, classes
for cls in classes:
    assert getattr(tagforge, cls.__name__) is cls and issubclass(cls, tagforge.TagError)
assert callable(exports.derivation_to_json) and corpus.read("fig7.drv")
"""
    )
    assert proc.returncode == 0, proc.stderr
