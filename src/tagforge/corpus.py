"""Access to the bundled grammar, script, tree and rule files."""
from __future__ import annotations

from importlib import resources

FILES = (
    "english.tag",
    "english_wh.tag",
    "dutch.tag",
    "german_mc.tag",
    "fig7.drv",
    "fig10.drv",
    "fig13.drv",
    "fig15.drv",
    "fig8.dep",
    "fig12.dep",
    "fig18.dep",
    "dutch.syn",
    "english_projective.syn",
)


def read(name: str) -> str:
    if name not in FILES:
        raise KeyError(f"no bundled corpus file {name!r}")
    return (resources.files("tagforge") / "corpus" / name).read_text(encoding="utf-8")

