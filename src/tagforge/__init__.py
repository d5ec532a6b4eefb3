"""tagforge: lexicalized Tree Adjoining Grammar engine.

Derives sentences by substitution, adjunction and set adjunction, keeps
the derivation tree as a dependency structure, parses with a polynomial
chart recognizer, checks projectivity, and linearizes dependency trees
through two-segment syntagm rules.
"""

import importlib

# Each public name -> the submodule that defines it.  A name's module is
# imported on first access (PEP 562), so ``import tagforge`` and each
# CLI verb load only the layers they use.
_MODULES = {
    "chart": ("ParseResult", "enumerate_language", "parse", "recognize"),
    "dependency": (
        "DependencyTree",
        "DepNode",
        "derivation_to_dependency",
        "is_projective",
        "parse_dependency",
        "serialize_dependency",
    ),
    "derive": (
        "DerivationStep",
        "DerivationTree",
        "PhraseTree",
        "adjoin",
        "adjoin_set",
        "parse_script",
        "run_derivation",
        "substitute",
    ),
    "errors": (
        "AmbiguousRule",
        "CompositionError",
        "GrammarFormatError",
        "IllegalSite",
        "IncompleteDerivation",
        "IncompleteOrder",
        "InversionError",
        "LabelMismatch",
        "NoRule",
        "RefuseUnbounded",
        "ScriptError",
        "SetArity",
        "TagError",
        "UnknownTree",
        "WrongShape",
    ),
    "grammar": (
        "CfgRule",
        "ElementaryTree",
        "Grammar",
        "TreeSet",
        "Word",
        "cfg_to_trees",
        "check_lexicalized",
        "compose_rules",
        "merge_rules",
        "validate_tree",
    ),
    "grammar_io": ("parse_grammar", "parse_tree_expr", "serialize_grammar"),
    "syntagm": ("SegmentPair", "linearize", "linearize_node", "parse_rules", "segment_pairs"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
