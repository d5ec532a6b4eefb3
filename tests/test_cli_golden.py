"""Byte-for-byte stdout and exit code of every CLI verb in every format.

The expected output lives in ``tests/data/cli_golden.json``.  To record it
again after a deliberate output change, run this file as a script:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import pytest

from tagforge.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
SCRIPTS = (
    ("english.tag", "fig7.drv"),
    ("english_wh.tag", "fig10.drv"),
    ("dutch.tag", "fig13.drv"),
    ("german_mc.tag", "fig15.drv"),
)
# parse --format json reports the wall time in its stats.
_WALL_TIME = re.compile(r'"wall_time_s": [0-9.e+-]+')


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for fmt in ("text", "json", "dot"):
        f = ("--format", fmt)
        for grammar, script in SCRIPTS:
            gs = ("-g", f"corpus:{grammar}", "-s", f"corpus:{script}")
            cases.append(("validate", "-g", f"corpus:{grammar}", *f))
            cases.append(("derive", *gs, *f))
            cases.append(("dep", *gs, *f))
            for what in ("derivation", "derived", "dep"):
                cases.append(("export", *gs, "--what", what, *f))
        for grammar, sentence in (
            ("english.tag", "John really likes Lyn"),
            ("english.tag", "likes John"),
            ("dutch.tag", "Jan Jan Jan helpen helpen zwemmen"),
        ):
            cases.append(("parse", "-g", f"corpus:{grammar}", sentence, *f))
        cases.append(("enumerate", "-g", "corpus:english.tag", "--max-trees", "4", *f))
        for dep in ("fig8.dep", "fig12.dep", "fig18.dep"):
            cases.append(("projective", "-t", f"corpus:{dep}", *f))
            cases.append(("export", "-t", f"corpus:{dep}", *f))
        for dep, order in (
            ("fig8.dep", "who do you think that Mary claimed that Sarah liked"),
            ("fig12.dep", "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen"),
            ("fig18.dep", "omdat Wim Jan Marie de kinderen zien helpen leren zwemmen"),
        ):
            cases.append(("projective", "-t", f"corpus:{dep}", "--order", order, *f))
        cases.append(("linearize", "-t", "corpus:fig18.dep", "-r", "corpus:dutch.syn", *f))
    return cases


def _run(argv: tuple[str, ...]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(list(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _WALL_TIME.sub('"wall_time_s": 0', out.getvalue()),
    }


@pytest.fixture(scope="module")
def golden():
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(r["argv"]): r for r in records}


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_output_unchanged(argv, golden):
    assert _run(argv) == golden[argv]


if __name__ == "__main__":
    records = [_run(argv) for argv in _cases()]
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} cases in {GOLDEN}")
