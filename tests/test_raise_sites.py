"""Every diagnostic that `src/pvgr` can raise is pinned by a test.

The scan finds each `raise` in `src/pvgr` of a `Diagnostic` subclass: a
direct construction, or one made by a helper that returns one (`_fail` in
`pvgr.kinding`, `Parser.fail`). From each site it reads the rule, when it
is a literal, and its message as a pattern: the literal parts of the
string, with a wildcard for each formatted value (and for the `, found
...` that `Parser.fail` appends). A site is pinned when a row of a pinned
failure table has its rule and a message that the pattern matches. The
tables are RULE_FAILURES, KIND_FAILURES and DISJOINTNESS_FAILURES of
test_cli.py, PARSE_ERRORS of test_parser.py and API_FAILURES of
test_typing.py. A site that no row pins must be on ALLOWED below with the
reason it stays, as in test_src_usage.py.
"""

from __future__ import annotations

import ast
import re
from typing import NamedTuple

from conftest import ROOT
from test_cli import DISJOINTNESS_FAILURES, KIND_FAILURES, RULE_FAILURES
from test_parser import PARSE_ERRORS
from test_typing import API_FAILURES

from pvgr.typing import _CHANNEL_OPS

SRC = ROOT / "src" / "pvgr"

# A helper that makes a diagnostic: the index of its rule argument (or the
# rule itself), the index of its message argument, and what it appends.
MAKERS = {
    "_fail": (0, 1, ""),
    "fail": ("parse", 0, ", found {}"),
}

# (module, function, rule, message with {} for each value) -> why no
# pinned row needs to match it
ALLOWED = {
    ("typing", "_channel_op", None, "{}"): "its rule and message are a row of _CHANNEL_OPS, each of them pinned"
    " (test_every_channel_operation_failure_is_pinned)",
    ("cli", "_read", "io", "cannot read {}: {}"): "the file's OS error: test_cli.py pins a missing file",
    ("cli", "_read", "io", "cannot read {}: not UTF-8 text ({})"): "pinned by test_cli.py, for a program and a sidecar",
    ("cli", "_fuel", "usage", "--max-steps must not be negative, got {}"): "pinned by test_cli.py",
    ("cli", "_fuel", "usage", "PVGR_MAX_STEPS must be an integer, got {}"): "pinned by test_cli.py",
    ("cli", "_fuel", "usage", "PVGR_MAX_STEPS must not be negative, got {}"): "pinned by test_cli.py",
    ("cli", "cmd_corpus", "io", "cannot read {}: {}"): "pinned by test_cli.py, for a missing corpus directory",
}


class Site(NamedTuple):
    module: str
    function: str  # qualified name of the enclosing function
    line: int
    rule: str | None  # None when the rule is not a literal
    message: str  # the message's literal parts, with {} for each value

    def matches(self, rule: str, message: str) -> bool:
        if self.rule is None and not self.message.replace("{}", ""):
            return False  # nothing literal to match: such a site is allowed, or unpinned
        pattern = ".*".join(re.escape(part) for part in self.message.split("{}"))
        return self.rule in (None, rule) and re.fullmatch(pattern, message, re.DOTALL) is not None


def _template(node: ast.expr | None) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_template(v) if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return "{}"


def diagnostic_classes(trees: dict[str, ast.Module]) -> set[str]:
    """Diagnostic and the classes that derive from it, by name."""
    names = {"Diagnostic"}
    grew = True
    while grew:
        grew = False
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name not in names:
                    if any(isinstance(b, ast.Name) and b.id in names for b in node.bases):
                        names.add(node.name)
                        grew = True
    return names


def makers(trees: dict[str, ast.Module], classes: set[str]) -> set[str]:
    """The functions whose return annotation is a diagnostic class."""
    return {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and isinstance(node.returns, ast.Name) and node.returns.id in classes
    }


def raise_sites(module: str, tree: ast.Module, classes: set[str]) -> list[Site]:
    sites: list[Site] = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{function}.{child.name}" if function else child.name)
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                call = child.exc
                name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
                args = call.args + [None, None]
                if name in classes:
                    rule, message, suffix = args[0], args[1], ""
                elif name in MAKERS:
                    at_rule, at_message, suffix = MAKERS[name]
                    rule = ast.Constant(at_rule) if isinstance(at_rule, str) else args[at_rule]
                    message = args[at_message]
                else:
                    continue
                literal = rule.value if isinstance(rule, ast.Constant) else None
                sites.append(Site(module, function, child.lineno, literal, _template(message) + suffix))
            visit(child, function)

    visit(tree, "")
    return sites


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def all_sites() -> list[Site]:
    trees = _trees()
    classes = diagnostic_classes(trees)
    return [site for module, tree in trees.items() for site in raise_sites(module, tree, classes)]


def pinned_rows() -> list[tuple[str, str]]:
    """(code, message) of every row of the pinned tables."""
    rows = [(row[1], row[3]) for table in (RULE_FAILURES, KIND_FAILURES) for row in table.values()]
    rows += [(code, row[3]) for code, row in DISJOINTNESS_FAILURES.items()]
    rows += [(row[1], row[2]) for row in API_FAILURES.values()]
    for _, want in PARSE_ERRORS.values():
        code, message = re.fullmatch(r"\d+:\d+: error\[(.*?)\]: (.*)", want, re.DOTALL).groups()
        rows.append((code, message))
    return rows


def unpinned(sites: list[Site], rows: list[tuple[str, str]]) -> list[Site]:
    return [s for s in sites if not any(s.matches(code, message) for code, message in rows)]


def _key(site: Site) -> tuple:
    return (site.module, site.function, site.rule, site.message)


def test_every_raise_site_is_pinned_or_allowed():
    left = [s for s in unpinned(all_sites(), pinned_rows()) if _key(s) not in ALLOWED]
    assert left == [], "pin each in a failure table, or allow it with a reason"


def test_every_allowance_names_an_unpinned_site():
    keys = {_key(s) for s in unpinned(all_sites(), pinned_rows())}
    assert ALLOWED.keys() - keys == set(), "pinned, or gone: drop it from ALLOWED"


def test_every_channel_operation_failure_is_pinned():
    rows = set(pinned_rows())
    assert [(rule, message) for rule, _, message, _ in _CHANNEL_OPS.values() if (rule, message) not in rows] == []


def test_the_makers_are_the_functions_that_return_a_diagnostic():
    trees = _trees()
    assert makers(trees, diagnostic_classes(trees)) == MAKERS.keys()


def test_the_scan_sees_each_form_of_raise_and_what_no_row_pins():
    sites = all_sites()
    assert len(sites) > 60
    by_message = {(s.module, s.rule, s.message) for s in sites}
    assert ("kinding", "K-Var", "unbound type variable {}") in by_message  # through _fail
    assert ("parser", "parse", "expected a value, found {}") in by_message  # through self.fail
    assert ("typing", "T-Par", "configuration does not consume its state") in by_message  # direct
    assert ("typing", None, "state does not provide a required binding") in by_message  # rule not a literal
    source = 'def f(x):\n    raise KindError("K-New", f"no row says {x} here")\n'
    new = raise_sites("kinding", ast.parse(source), {"KindError"})
    assert new == [Site("kinding", "f", 2, "K-New", "no row says {} here")]
    assert unpinned(new, pinned_rows()) == new
    assert unpinned(new, [("K-New", "no row says this here")]) == []
