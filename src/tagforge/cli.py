"""tagforge command-line interface.

Verbs: validate, derive, parse, enumerate, dep, projective, linearize,
export.  Machine-readable output goes to stdout, diagnostics to stderr;
exit codes: 0 success, 1 domain error, 2 usage or I/O error.  Each verb
imports the tagforge modules it uses when it runs, so a process loads
only its own verb's layers, and ``json`` only where it writes JSON.
"""
from __future__ import annotations

import argparse
import sys

from .errors import GrammarFormatError, TagError


def _read(path: str) -> str:
    if path.startswith("corpus:"):
        from . import corpus
        return corpus.read(path[len("corpus:"):])
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_grammar(args):
    from .grammar_io import parse_grammar
    return parse_grammar(_read(args.grammar))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagforge",
        description="Lexicalized TAG derivation, parsing, dependency "
        "conversion and syntagm linearization.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def count(text: str) -> int:
        """An integer of 0 or more; argparse names the type after the function."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
        return value

    def add(name, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        if "g" in flags:
            p.add_argument("-g", "--grammar", required=flags["g"] == "req")
        if "s" in flags:
            p.add_argument("-s", "--script", required=flags["s"] == "req")
        if "t" in flags:
            p.add_argument("-t", "--tree", required=flags["t"] == "req")
        if "r" in flags:
            p.add_argument("-r", "--rules", required=flags["r"] == "req")
        p.add_argument("--format", choices=["text", "json", "dot"], default="text")
        p.add_argument("-o", "--out")
        return p

    add("validate", "check tree well-formedness and lexicalization", g="req")
    add("derive", "replay a derivation script", g="req", s="req")

    p = add("parse", "parse a sentence against a grammar", g="req")
    p.add_argument("sentence", help="space-separated input words")
    p.add_argument("--cap", type=count, default=100, help="max derivations returned")

    p = add("enumerate", "enumerate the bounded language", g="req")
    p.add_argument("--max-trees", type=count, required=True)

    add("dep", "dependency tree of a derivation (S arcs inverted)", g="req", s="req")

    p = add("projective", "check projectivity of a dependency tree", t="req")
    p.add_argument("--order", help="surface word order (needed: a dependency file stores none)")

    add("linearize", "linearize a dependency tree with syntagm rules", t="req", r="req")

    p = add("export", "export derivation/derived/dependency structures", g="opt", s="opt", t="opt")
    p.add_argument(
        "--what",
        choices=["derivation", "derived", "dep"],
        default="derivation",
        help="which structure to export from a grammar+script",
    )
    return parser


def _cmd_validate(args) -> int:
    from .grammar import check_lexicalized, validate_tree
    grammar = _load_grammar(args)
    reports = [validate_tree(t) for t in grammar.all_trees()]
    lex = check_lexicalized(grammar)
    if args.format == "json":
        import json
        payload = {
            "trees": {
                r.tree_id: {"ok": r.ok, "violations": r.violations, "warnings": r.warnings}
                for r in reports
            },
            "lexicalized": lex.lexicalized,
            "anchor_census": lex.census,
            "offenders": lex.offenders,
        }
        _emit(json.dumps(payload, indent=2, ensure_ascii=False), args.out)
    else:
        lines = []
        for r in reports:
            status = "ok" if r.ok else "INVALID"
            lines.append(f"{r.tree_id}: {status}")
            lines.extend(f"  violation {v}" for v in r.violations)
            lines.extend(f"  warning {w}" for w in r.warnings)
        lines.append(f"lexicalized: {'yes' if lex.lexicalized else 'no'}")
        lines.extend(f"  anchorless or multi-anchored: {t}" for t in lex.offenders)
        _emit("\n".join(lines), args.out)
    return 0 if all(r.ok for r in reports) else 1


def _lexemes(grammar, script) -> dict[str, str]:
    """Derivation-node labels: the set id of a set occurrence, else the
    tree's anchor lexeme, else the tree id."""
    sets = script.set_occurrences()
    return {
        inst: tid if inst in sets else (grammar.tree(tid).anchor_lexeme or tid)
        for inst, tid in script.instances.items()
    }


def _structure(what: str, grammar, script):
    """The structure a grammar and a script give, by ``export --what``."""
    if what == "derivation":
        return script, _lexemes(grammar, script)
    if what == "derived":
        from .derive import run_derivation
        return run_derivation(grammar, script)[0]
    from .dependency import derivation_to_dependency
    return derivation_to_dependency(script, grammar)


def _render(what: str, fmt: str, value) -> str:
    """Render a structure by --format.  Text renders a derivation or a
    derived tree as JSON, and a dependency tree in its file format."""
    if what == "dep" and fmt == "text":
        from .dependency import serialize_dependency
        return serialize_dependency(value)
    from . import exports
    to_json, to_dot = {
        "derivation": (lambda d: exports.derivation_to_json(d[0]), lambda d: exports.derivation_to_dot(*d)),
        "derived": (exports.phrase_to_json, exports.phrase_to_dot),
        "dep": (exports.dependency_to_json, exports.dependency_to_dot),
    }[what]
    return to_dot(value) if fmt == "dot" else to_json(value)


def _tuple_repr(value) -> str:
    """``repr(value)`` for nested tuples, written with an explicit stack
    so that the canonical form of a derivation of any depth prints."""
    parts = []
    stack = [(False, value)]  # (is literal text, item)
    while stack:
        literal, item = stack.pop()
        if literal:
            parts.append(item)
        elif type(item) is not tuple:
            parts.append(repr(item))
        else:
            pieces = [(True, "(")]
            for i, element in enumerate(item):
                if i:
                    pieces.append((True, ", "))
                pieces.append((False, element))
            pieces.append((True, ",)" if len(item) == 1 else ")"))
            stack.extend(reversed(pieces))
    return "".join(parts)


def _cmd_derive(args) -> int:
    from .derive import parse_script, run_derivation
    grammar = _load_grammar(args)
    script = parse_script(_read(args.script), grammar)
    derived, sentence = run_derivation(grammar, script)
    # Unlike export, derive prints the derived sentence as its text.
    if args.format == "text":
        _emit(sentence, args.out)
    else:
        _emit(_render("derived", args.format, derived), args.out)
    return 0


def _cmd_parse(args) -> int:
    import json
    from .chart import parse
    grammar = _load_grammar(args)
    words = args.sentence.split()
    result = parse(grammar, words, cap=args.cap)
    if args.format == "text":
        lines = [f"recognized: {'yes' if result.recognized else 'no'}"]
        lines.extend(
            f"derivation {i + 1}: {_tuple_repr(d.canonical())}" for i, d in enumerate(result.derivations)
        )
        _emit("\n".join(lines), args.out)
    else:
        from . import exports
        if args.format == "json":
            payload = {
                "recognized": result.recognized,
                "derivations": [
                    json.loads(exports.derivation_to_json(d)) for d in result.derivations
                ],
                "stats": result.stats,
            }
            _emit(json.dumps(payload, indent=2, ensure_ascii=False), args.out)
        elif not result.derivations:
            print("no derivation", file=sys.stderr)
            return 1
        else:
            _emit(exports.derivation_to_dot(result.derivations[0]), args.out)
    print(json.dumps(result.stats), file=sys.stderr)
    return 0


def _cmd_enumerate(args) -> int:
    from .chart import enumerate_language
    grammar = _load_grammar(args)
    sentences = sorted(enumerate_language(grammar, args.max_trees))
    if args.format == "json":
        import json
        _emit(json.dumps(sentences, indent=2, ensure_ascii=False), args.out)
    else:
        _emit("\n".join(sentences), args.out)
    return 0


def _cmd_dep(args) -> int:
    from .derive import parse_script
    grammar = _load_grammar(args)
    script = parse_script(_read(args.script), grammar)
    _emit(_render("dep", args.format, _structure("dep", grammar, script)), args.out)
    return 0


def _cmd_projective(args) -> int:
    from .dependency import is_projective, parse_dependency, resolve_order
    tree = parse_dependency(_read(args.tree))
    order = None
    if args.order:
        order = resolve_order(tree, args.order.split())
    report = is_projective(tree, order)
    if args.format == "json":
        import json
        payload = {"projective": report.projective, "violations": report.violations}
        _emit(json.dumps(payload, indent=2, ensure_ascii=False), args.out)
    else:
        lines = ["projective" if report.projective else "non-projective"]
        lines.extend(f"  {v}" for v in report.violations)
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_linearize(args) -> int:
    from .dependency import parse_dependency
    from .syntagm import linearize, parse_rules
    tree = parse_dependency(_read(args.tree))
    rules = parse_rules(_read(args.rules))
    words = linearize(tree, rules)
    if args.format == "json":
        import json
        _emit(json.dumps(words, ensure_ascii=False), args.out)
    else:
        _emit(" ".join(words), args.out)
    return 0


def _cmd_export(args) -> int:
    if args.tree:
        from .dependency import parse_dependency
        what, value = "dep", parse_dependency(_read(args.tree))
    elif args.grammar and args.script:
        from .derive import parse_script
        grammar = _load_grammar(args)
        script = parse_script(_read(args.script), grammar)
        what, value = args.what, _structure(args.what, grammar, script)
    else:
        print("export needs either -t, or -g with -s", file=sys.stderr)
        return 2
    _emit(_render(what, args.format, value), args.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "derive": _cmd_derive,
    "parse": _cmd_parse,
    "enumerate": _cmd_enumerate,
    "dep": _cmd_dep,
    "projective": _cmd_projective,
    "linearize": _cmd_linearize,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (OSError, KeyError, GrammarFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TagError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
