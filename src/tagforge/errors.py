"""Exception hierarchy shared by all tagforge modules."""


class TagError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class GrammarFormatError(TagError):
    """Malformed grammar, script, tree or rule file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CompositionError(TagError):
    """A CFG rule spine cannot be connected into a tree."""


class UnknownTree(TagError):
    """A lookup names an elementary tree or tree set the grammar lacks."""


class IllegalSite(TagError):
    """Operation targets a node of the wrong kind."""


class LabelMismatch(TagError):
    """Category labels of the operation site and tree do not agree."""


class WrongShape(TagError):
    """Initial tree used where an auxiliary is required, or vice versa."""


class SetArity(TagError):
    """Site count does not match the member count of a tree set."""


class IncompleteDerivation(TagError):
    """A finished derivation still contains substitution or foot nodes."""


class ScriptError(TagError):
    """A derivation script step failed; carries the step index."""

    def __init__(self, step_index, cause):
        self.step_index = step_index
        self.cause = cause
        super().__init__(f"step {step_index}: {cause}")


class InversionError(TagError):
    """Reversing the S-labeled arcs did not leave a tree."""

    def __init__(self, message, arcs=()):
        self.arcs = list(arcs)
        super().__init__(message)


class IncompleteOrder(TagError):
    """A surface order does not cover every overt node."""


class NoRule(TagError):
    """No syntagm rule matches a dependency node."""


class AmbiguousRule(TagError):
    """More than one syntagm rule matches a dependency node."""

    def __init__(self, node, rule_names):
        self.rule_names = list(rule_names)
        super().__init__(f"rules {', '.join(rule_names)} all match node {node!r}")


class RefuseUnbounded(TagError):
    """Enumeration refused where it may not be finite: language
    enumeration for a non-lexicalized grammar, or ``parse`` for a grammar
    that has a tree with no word."""
