"""CLI: exit codes, diagnostics formats, corpus verification."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys

import pytest
from conftest import CORPUS, ROOT
from test_parser import KEYWORD_BRACKETS, PARENTHESISED_CONFIGS

import pvgr
from pvgr import cli, runtime
from pvgr.cli import main

SERVER = (CORPUS / "server.pvgr").read_text()
CLIENT_SERVER = (CORPUS / "client_server.pvgr").read_text()
DEADLOCK = (CORPUS / "request_deadlock.pvgr").read_text()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_ok(tmp_path, capsys):
    f = write(tmp_path, "server.pvgr", SERVER)
    assert main(["check", f]) == 0
    out = capsys.readouterr().out
    assert "type: forall s:Session[]. forall a:Dom(1)[]." in out


def test_check_type_error_exit_1(tmp_path, capsys):
    f = write(tmp_path, "bad.pvgr", "close ()")
    assert main(["check", f]) == 1
    err = capsys.readouterr().err
    assert "T-Close" in err


def test_check_parse_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "empty.pvgr", "")
    assert main(["check", f]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_end_of_input_after_a_trailing_comment_is_at_the_end(tmp_path, capsys, fmt):
    f = write(tmp_path, "comment.pvgr", "let x = () in -- trailing comment")
    assert main(["check", f, "--format", fmt]) == 2
    err = capsys.readouterr().err
    message = "expected a value, found 'end of input'"
    if fmt == "json":
        assert json.loads(err) == {
            "severity": "error", "code": "parse", "message": message, "file": f, "line": 1, "col": 34,
        }
    else:
        assert err == f"{f}:1:34: error[parse]: {message}\n"


def test_check_json_diagnostics_schema(tmp_path, capsys):
    f = write(tmp_path, "bad.pvgr", "close ()")
    assert main(["check", f, "--format", "json"]) == 1
    err = capsys.readouterr().err.strip()
    diag = json.loads(err)
    assert diag["severity"] == "error"
    assert diag["code"] == "T-Close"
    assert isinstance(diag["message"], str)
    f2 = write(tmp_path, "empty.pvgr", "")
    assert main(["check", f2, "--format", "json"]) == 2
    diag2 = json.loads(capsys.readouterr().err.strip())
    assert diag2["code"] == "parse"
    assert {"file", "line", "col"} <= set(diag2)


def test_check_json_ok_payload(tmp_path, capsys):
    f = write(tmp_path, "server.pvgr", SERVER)
    assert main(["check", f, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["type"].startswith("forall")


def test_run_final_exit_0(tmp_path, capsys):
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    assert main(["run", f]) == 0
    assert "final" in capsys.readouterr().out


def test_let_diagnostic_has_the_let_location(tmp_path, capsys):
    f = write(tmp_path, "exnames.pvgr", "let ap = new End in\nlet [c, d] u = request ap in close u\n")
    assert main(["check", f]) == 1
    assert capsys.readouterr().err.startswith(
        f"{f}:2:1: error[T-Let]: header creates 1 existential binder(s), but 2 name(s) given"
    )


# A kind failure met by a typing rule (named by the id) is one diagnostic:
# the kind rule's code, its own column on line 1, its message and details.
KIND_FAILURES = {
    "T-Abs": (
        r"/\d:Dom(1)[]. \[{d: Int}](x: Unit). ()",
        "K-StChan", 21, "Unit has the wrong kind", {"expected": "Session", "found": "Type"},
    ),
    # a well-formed type of the wrong kind, found by the typing rule itself
    "T-Abs-kind": (
        r"\[.](x: End). ()", "T-Abs", 1, "End has the wrong kind", {"expected": "Type", "found": "Session"},
    ),
    # the post-state of a lambda's body, kinded under its existential context
    "T-Abs-post": (
        r"/\s:State[]. \[s](x: Unit). let ap = new End in let v = request ap in ()",
        "K-StMerge", 14, "cannot establish disjointness of an opaque state", {},
    ),
    "T-Chan": ("let x = () in chan x", "K-Var", 20, "unbound type variable x", {}),
    "T-TAbs": (
        r"/\a:Dom(Unit)[]. ()",
        "KF-Dom", 9, "domain kind index must be a shape", {"expected": "Shape", "found": "Type"},
    ),
    "T-TApp": (
        r"let y = () in let f = /\a:Session[]. () in f [y]", "K-Var", 47, "unbound type variable y", {},
    ),
    "T-New": ("let y = () in let ap = new (dual y) in ()", "K-Var", 34, "unbound type variable y", {}),
    # a constraint binding has no span: the failure is at the type abstraction
    "T-TAbs-cstr": (r"/\a:Session[a # a]. ()", "CF-ConsCstr", 1, "constraint over a non-domain", {}),
}


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize("site", list(KIND_FAILURES))
def test_kind_failure_in_a_typing_rule_is_reported_once(tmp_path, capsys, site, fmt):
    src, code, col, message, details = KIND_FAILURES[site]
    f = write(tmp_path, "kind.pvgr", src)
    assert main(["check", f, "--format", fmt]) == 1
    err = capsys.readouterr().err
    assert err.count(f) == 1 and err.count(code) == 1
    if fmt == "json":
        assert json.loads(err) == {
            "severity": "error", "code": code, "message": message,
            "file": f, "line": 1, "col": col, **details,
        }
    else:
        first = f"{f}:1:{col}: error[{code}]: {message}\n"
        rest = "".join(f"  {key}:{' ' * (9 - len(key))}{text}\n" for key, text in details.items())
        assert err == first + rest


def test_state_is_the_last_line_and_key(tmp_path, capsys):
    f = write(
        tmp_path, "state.pvgr",
        "let ap = new End in let v = request ap in let u = close v in close v",
    )
    assert main(["check", f]) == 1
    assert capsys.readouterr().err == (
        f"{f}:1:62: error[T-Close]: channel c is not in the current state\n"
        "  state:    .\n"
    )
    assert main(["check", f, "--format", "json"]) == 1
    assert capsys.readouterr().err == (
        '{"severity": "error", "code": "T-Close", "message": "channel c is not in the current state",'
        f' "file": {json.dumps(f)}, "line": 1, "col": 62, "state": "."}}\n'
    )
    f = write(
        tmp_path, "state2.pvgr",
        "let ap = new End in let [c] v = request ap in let u = close v in\n"
        "let g = /\\d:Dom(1)[]. \\[{d: End}](x: Chan d). close x in let h = g [c] in h v\n",
    )
    assert main(["check", f]) == 1
    assert capsys.readouterr().err == (
        f"{f}:2:75: error[T-App]: state does not provide a required binding\n"
        "  expected: {c: End}\n"
        "  state:    .\n"
    )
    assert main(["check", f, "--format", "json"]) == 1
    assert capsys.readouterr().err == (
        '{"severity": "error", "code": "T-App", "message": "state does not provide a required binding",'
        f' "file": {json.dumps(f)}, "line": 2, "col": 75, "expected": "{{c: End}}", "state": "."}}\n'
    )


# Whole diagnostics of failures that read disjointness. The T-TApp state
# lists the context's constraints: a let's head package's own (n # m), then
# those of its disjoint extension, its domains pairwise (m # n) and each
# earlier domain with each of them. The merge has two unprovable pairs, and
# its atoms are ordered as normalize orders them: a # c is met before b # c.
# A package's own constraint is formed before its domains are disjoint.
DISJOINTNESS_FAILURES = {
    "T-TApp": (
        "\\[.](mk: [.; Unit -> ex p:Dom(1), q:Dom(1), q # p. .; Unit]).\n"
        "let ap = new End in\n"
        "let [c] u = request ap in\n"
        "let [d] v = request ap in\n"
        "let [m, n] z = mk () in\n"
        "let f = /\\a:Dom(1)[]. /\\b:Dom(1)[a # b]. () in\n"
        "let g = f [m] in\n"
        "g [m]\n",
        8, 1, "instantiated constraints are not entailed",
        {"expected": "m # m", "state": "c # d, n # m, m # n, c # m, c # n, d # m, d # n"},
    ),
    "K-StMerge": (
        "/\\a:Dom(1)[]. /\\b:Dom(1)[a # b]. /\\c:Dom(1)[]. /\\d:Dom(1)[a # d, b # d, c # d].\n"
        "\\[{b: End, a: End, c: End, d: End}](x: Unit). ()\n",
        2, 1, "cannot prove disjointness a # c", {},
    ),
    "K-DomMerge": (
        "\\[.](mk: [.; Unit -> ex p:Dom(1), q:Dom(1), (p, q) # 0. .; Unit]). ()\n",
        1, 45, "cannot prove disjointness p # q", {},
    ),
}


def _check_fails_with(tmp_path, capsys, fmt, src, code, line, col, message, details):
    """`check` of src fails with exactly this one diagnostic, in fmt."""
    f = write(tmp_path, "fail.pvgr", src)
    assert main(["check", f, "--format", fmt]) == 1
    err = capsys.readouterr().err
    if fmt == "json":
        assert json.loads(err) == {
            "severity": "error", "code": code, "message": message,
            "file": f, "line": line, "col": col, **details,
        }
    else:
        first = f"{f}:{line}:{col}: error[{code}]: {message}\n"
        rest = "".join(f"  {key}:{' ' * (9 - len(key))}{text}\n" for key, text in details.items())
        assert err == first + rest


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize("code", list(DISJOINTNESS_FAILURES))
def test_disjointness_failure_diagnostic(tmp_path, capsys, code, fmt):
    src, *where = DISJOINTNESS_FAILURES[code]
    _check_fails_with(tmp_path, capsys, fmt, src, code, *where)


# Typing and kinding failures that no other test meets, each on line 1: the
# program, its code, column, message and details. The failures that no
# surface program reaches are in API_FAILURES of test_typing.py.
RULE_FAILURES = {
    # a channel end names a type, not a value
    "T-Var": ("nu a b : End . <close a>", "T-Var", 23, "unbound variable a", {}),
    "T-Let-exnames": ("let ap = new End in let [c, d] u = request ap in close u", "T-Let", 21,
                      "header creates 1 existential binder(s), but 2 name(s) given", {}),
    "T-Chan": ("let x = chan {} in x", "T-Chan", 9, "channel value over a non single-channel domain",
               {"expected": "Dom(1)", "found": "Dom(0)"}),
    "T-App-non-function": ("let x = () () in x", "T-App", 9, "application of a non-function", {"found": "Unit"}),
    "T-App-argument": (r"(\[.](x: Unit). x) ((), ())", "T-App", 1, "argument type mismatch",
                       {"expected": "Unit", "found": "(Unit * Unit)"}),
    "T-Proj": ("proj1 ()", "T-Proj", 1, "projection of a non-pair", {"found": "Unit"}),
    "T-TApp-non-polymorphic": ("let x = () in x [End]", "T-TApp", 15,
                               "type application of a non-polymorphic value", {"found": "Unit"}),
    "T-TApp-kind": (r"let f = /\a:Session[]. () in f [Unit]", "T-TApp", 30, "type argument kind mismatch",
                    {"expected": "Session", "found": "Type"}),
    "T-Fork": (r"fork (\[.](x: Unit). (x, x))", "T-Fork", 1, "fork needs a [S;Unit -> ex . .;Unit] function",
               {"found": "[.; Unit -> ex . .; (Unit * Unit)]"}),
    "T-Request": ("let v = request () in v", "T-Request", 9, "accept/request on a non access point",
                  {"found": "Unit"}),
    "T-Case-states": ("let ap = new (End +c End) in let v = request ap in let r = case v { close v ; () } in r",
                      "T-Case", 60, "branches end in different states", {"expected": ".", "found": "{c: End}"}),
    "T-Case-typings": ("let ap = new (End +c End) in let v = request ap in"
                       " let r = case v { let u = close v in () ; let u = close v in ((), ()) } in r",
                       "T-Case", 60, "branch typings differ",
                       {"expected": "ex . .; Unit", "found": "ex . .; (Unit * Unit)"}),
    # the branches' packages bind domains of different shapes
    "T-Case-packages": (r"\[.](mk: [.; Unit -> ex p:Dom(1). {p: End}; Chan p])."
                        r" \[.](mk2: [.; Unit -> ex p:Dom((1 * 1)). {pi1 p: End}; Chan pi1 p])."
                        " let ap = new (End +c End) in let v = request ap in"
                        " let r = case v { let u = close v in mk () ; let u = close v in mk2 () } in r",
                        "T-Case", 183, "branch packages differ beyond renaming",
                        {"expected": "ex p:Dom(1). {p: End}; Chan p",
                         "found": "ex p:Dom((1 * 1)). {pi1 p: End}; Chan pi1 p"}),
    # one branch's package binds a channel, the other's nothing
    "T-Case-existential-packages": ("let ap = new (End +c End) in let v = request ap in let bp = new End in"
                                    " let r = case v { let u = close v in let x = request bp in let y = close x in x ;"
                                    " let u = close v in () } in r",
                                    "T-Case", 80, "branches create different existential packages",
                                    {"expected": "ex c:Dom(1). .; Chan c", "found": "ex . .; Unit"}),
    # both of the first branch's binders match the second's first: its
    # second binder is kept for a constraint that normalizes to a # {}
    "T-Case-bound-variables": ("let ap = new (End +c End) in let v = request ap in let bp = new End in"
                               " let r = case v { let u = close v in let x = request bp in let y = request bp in"
                               " let s = close x in let t = close y in ((x, y), /\\a:Dom(1)[a # {}]. ()) ;"
                               " let u = close v in let x = request bp in let [q] y = request bp in"
                               " let s = close x in let t = close y in ((x, x), /\\a:Dom(1)[a # pi2 (q, {})]. ()) } in r",
                               "T-Case", 80, "branch packages bind different variables",
                               {"expected": "ex c:Dom(1), c':Dom(1). .; ((Chan c * Chan c) * forall a:Dom(1)[a # {}]. Unit)",
                                "found": "ex c:Dom(1), q:Dom(1). .; ((Chan c * Chan c) * forall a:Dom(1)[a # pi2 (q, {})]."
                                         " Unit)"}),
    # the session's binder is not determined by the payload or the state:
    # the whole domain, and then the second half of a pair
    "existential-match-unmentioned": ("let ap = new ?{e:Dom(1)}(.; Unit).End in let v = request ap in"
                                      " let s = send () v in close v",
                                      "existential-match", 72, "the payload and the state do not determine e",
                                      {"expected": ".; Unit", "found": ".; Unit"}),
    "existential-match-half": ("let ap = new ?{e:Dom((1 * 1))}({pi1 e: End}; Unit).End in let bp = new End in"
                               " let x = request bp in let v = request ap in let s = send () v in close v",
                               "existential-match", 131, "the payload and the state do not determine pi2 e",
                               {"expected": "{pi1 e: End}; Unit", "found": "{c: End}; Unit"}),
    # the payload's type matches the pattern, and its state does not
    "existential-match": ("let ap = new ?{e:Dom(1)}({e: End}; Chan e).End in let v = request ap in"
                          " let bp = new !Int.End in let w = request bp in let a = send w v in close v",
                          "existential-match", 128, "no instantiation of the existential package matches",
                          {"expected": "{e: End}; Chan e", "found": "{c: ?Unit.End}; Chan c"}),
    # two channels of session End are in the state, and the pattern {d: End}
    # takes either; the two print under one name (`pretty` does not tell
    # apart free names that share their text)
    "existential-match-ambiguous": ("let ap = new ?{d:Dom(1)}({d: End}; Unit).End in let bp = new End in"
                                    " let x = request bp in let y = request bp in let v = request ap in"
                                    " let u = send () v in close v",
                                    "existential-match", 143, "ambiguous existential match",
                                    {"expected": "{d: End}; Unit", "found": "{c: End, c: End}; Unit"}),
    "K-App": (r"/\h:Shape[]. /\g:(Dom(h) -> Type)[]. /\d:Dom(1)[]. \[.](x: g d). ()", "K-App", 52,
              "argument kind mismatch", {"expected": "Dom(h)", "found": "Dom(1)"}),
    "K-Chan": (r"/\h:Shape[]. /\d:Dom(h)[]. \[.](x: Chan d). ()", "K-Chan", 36,
               "channel type needs a single-channel domain", {"expected": "Dom(1)", "found": "Dom(h)"}),
    "K-StChan": (r"/\h:Shape[]. /\d:Dom(h)[]. \[{d: End}](x: Unit). ()", "K-StChan", 28,
                 "state binding needs a single-channel domain", {"expected": "Dom(1)", "found": "Dom(h)"}),
    "K-DomProj-non-domain": (r"\[.](x: Chan pi1 Unit). ()", "K-DomProj", 14, "projection of a non-domain",
                             {"found": "Type"}),
    "K-DomProj-shape": (r"/\d:Dom(1)[]. \[.](x: Chan pi1 d). ()", "K-DomProj", 28,
                        "projection needs a pair-shaped domain", {"found": "1"}),
    "K-Pair": (r"\[.](x: (End * End)). ()", "K-Pair", 9, "pair component must be a type or a shape",
               {"found": "Session"}),
    "K-All": (r"\[.](x: forall s:Session[]. End). ()", "K-All", 9, "quantified body must have kind Type",
              {"found": "Session"}),
    # K-All forms its binder's kind and its constraints as a context extension
    "K-All-kind": (r"\[.](x: forall a:Dom(Unit)[]. Unit). ()", "KF-Dom", 22, "domain kind index must be a shape",
                   {"expected": "Shape", "found": "Type"}),
    "K-All-cstr": (r"\[.](x: forall a:Session[a # a]. Unit). ()", "CF-ConsCstr", 1,
                   "constraint over a non-domain", {}),
    "K-DomMerge": (r"/\d:Dom(1)[]. \[.](x: Chan (d, Unit)). ()", "K-DomMerge", 28, "merge of non-domains", {}),
    "K-Arr": (r"\[.](f: [.; Unit -> ex s: Session. .; Unit]). ()", "K-Arr", 9,
              "existential context may only bind domains", {"found": "Session"}),
    "K-App-non-arrow": (r"/\d:Dom(1)[]. \[.](x: d d). ()", "K-App", 15, "application of a non-arrow type",
                        {"found": "Dom(1)"}),
    "K-Lam": (r"\[.](x: (\d:1. End) {}). ()", "K-Lam", 10, "type function body must have kind Type or State",
              {"found": "Session"}),
    "T-App-state": (r"let ap = new End in let [c] v = request ap in let u = close v in"
                    r" let g = /\d:Dom(1)[]. \[{d: End}](x: Chan d). close x in let h = g [c] in h v",
                    "T-App", 140, "state does not provide a required binding", {"expected": "{c: End}", "state": "."}),
    "T-Close-non-channel": ("close ()", "T-Close", 1, "operation needs a channel", {"found": "Unit"}),
    "T-Close-state": ("let ap = new End in let v = request ap in let u = close v in close v", "T-Close", 62,
                      "channel c is not in the current state", {"state": "."}),
    # each channel operation on a session of another form
    "T-Send-not-ready": ("let ap = new !Int.End in let v = request ap in let s = send () v in close v", "T-Send", 56,
                         "channel is not ready to send",
                         {"expected": "!{..}(..).. session", "found": "?Unit.End"}),
    "T-Recv-not-ready": ("let ap = new ?Int.End in let v = request ap in let x = recv v in close v", "T-Recv", 56,
                         "channel is not ready to receive",
                         {"expected": "?{..}(..).. session", "found": "!Unit.End"}),
    "T-Select-not-a-choice": ("let ap = new End in let v = request ap in let s = select 1 v in close v", "T-Select", 51,
                              "channel does not offer a choice", {"expected": "S +c S session", "found": "End"}),
    "T-Case-not-a-branch": ("let ap = new End in let v = request ap in case v {(); ()}", "T-Case", 43,
                            "channel does not offer a branch", {"expected": "S +b S session", "found": "End"}),
    "T-Close-not-ended": ("let ap = new ?Int.End in let v = request ap in close v", "T-Close", 48,
                          "channel session has not ended", {"expected": "End", "found": "!Unit.End"}),
    "existential-match-payload": ("let ap = new ?{e:Dom(1)}({e: End}; Chan e).End in let v = request ap in"
                                  " let s = send () v in close v", "existential-match", 81,
                                  "payload type does not match the session's pattern",
                                  {"expected": "Chan e", "found": "Unit"}),
    # the sender's end is left at End, and the receiver's end untouched
    "T-Exp": ("nu a b : !Int.End . (<send () (chan a)> | <recv (chan b)>)", "T-Exp", 22,
              "process ends with leftover state of its own", {"state": "{a: End, b: ?Unit.End}"}),
    "T-NuChan": ("nu a b : End . (<close (chan a)> | <()>)", "T-NuChan", 1,
                 "channel binder requires both ends to be consumed", {"state": "{b: End}"}),
}


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize("site", list(RULE_FAILURES))
def test_rule_failure_diagnostic(tmp_path, capsys, site, fmt):
    src, code, col, message, details = RULE_FAILURES[site]
    _check_fails_with(tmp_path, capsys, fmt, src, code, 1, col, message, details)


# Sends on either side of `ast.plain_step`, which T-Send types by conversion
# alone: program -> (`check` status, `run --check` stdout, or the first line
# of its stderr when it fails)
PLAIN_STEPS = {
    # a named binder of shape 0 that the payload does not mention: plain
    "named-unused-binder": ("let ap = new ?{e:Dom(0)}(.; Unit).End in "
                            r"let z = fork (\[.](w: Unit). let u = accept ap in let x = recv u in close u) in "
                            "let v = request ap in let s = send () v in close v",
                            0, "final after 14 steps: () | ()\n"),
    # a binder of shape (0 * 0) transfers the empty domain, but is not plain
    "pair-of-zero-shapes": ("let ap = new ?{e:Dom((0*0))}(.; Unit).End in "
                            r"let z = fork (\[.](w: Unit). let u = accept ap in let x = recv u in close u) in "
                            "let v = request ap in let s = send () v in close v",
                            0, "final after 14 steps: () | ()\n"),
    # a plain step whose payload does not convert: the general path reports it
    "payload-mismatch": ("let ap = new ?Int.End in "
                         r"let z = fork (\[.](w: Unit). let u = accept ap in let x = recv u in close u) in "
                         "let v = request ap in let s = send ap v in close v",
                         1, "<file>:1:136: error[existential-match]: payload type does not match the session's"
                         " pattern"),
    # T-Recv keeps a plain step's binder in its package, for `let [c]` to name
    "named-plain-recv": (r"let ap = new ?Int.End in let z = fork (\[.](w: Unit). let u = accept ap in"
                         " let [c] x = recv u in close u) in let v = request ap in let s = send () v in close v",
                         0, "final after 14 steps: () | ()\n"),
    # the payload is an access point whose session binds e in its state: the
    # pattern and the payload are alpha-equivalent, and each binds e anew
    "alpha-equivalent-payload": (
        "let inner = new ?{e:Dom(1)}({e: End}; Unit).End in\n"
        "let ap = new ?AP(?{e:Dom(1)}({e: End}; Unit).End).End in\n"
        "let z = fork (\\[.](w: Unit). let u = accept ap in let x = recv u in close u) in\n"
        "let v = request ap in let s = send inner v in close v\n",
        0, "final after 16 steps: () | ()\n"),
    # the same access point travels beside a channel: matched on the general path
    "alpha-equivalent-payload-transfer": (
        "let inner = new ?{e:Dom(1)}({e: End}; Unit).End in\n"
        "let ap0 = new End in\n"
        "let ap = new ?{c:Dom(1)}({c: End}; (Chan c * AP(?{e:Dom(1)}({e: End}; Unit).End))).End in\n"
        "let z0 = fork (\\[.](w: Unit). let d = accept ap0 in close d) in\n"
        "let z = fork (\\[.](w: Unit). let u = accept ap in let x = recv u in let y = proj1 x in"
        " let r = close y in close u) in\n"
        "let v = request ap in let d = request ap0 in let p = (d, inner) in let s = send p v in close v\n",
        0, "final after 30 steps: () | () | ()\n"),
}


@pytest.mark.parametrize("name", list(PLAIN_STEPS))
def test_plain_step_programs(tmp_path, capsys, name):
    src, status, outcome = PLAIN_STEPS[name]
    f = write(tmp_path, "plain.pvgr", src)
    assert main(["check", f]) == status
    capsys.readouterr()
    assert main(["run", f, "--check"]) == status
    out, err = capsys.readouterr()
    assert (out if status == 0 else err.splitlines()[0].replace(f, "<file>")) == outcome


def test_case_branches_with_equal_packages(tmp_path, capsys):
    # each branch requests a channel of its own: the two packages are equal
    # up to renaming, and the first branch's is the typing. The post-state
    # prints both channels as c.
    f = write(
        tmp_path, "case.pvgr",
        "let ap = new (End +c End) in let v = request ap in let r = case v {"
        " let bp = new End in let w = request bp in w ;"
        " let bp = new End in let w = request bp in w } in r",
    )
    assert main(["check", f]) == 0
    assert capsys.readouterr().out == "ex: c:Dom(1), c':Dom(1)\npost: {c: End, c: End}\ntype: Chan c\n"


def test_check_json_of_a_configuration(tmp_path, capsys):
    f = write(tmp_path, "cfg.pvgr", "nuap ap : End . (<let v = request ap in close v> | <let u = accept ap in close u>)")
    assert main(["check", f, "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"ok": true, "kind": "config"}\n'


def test_run_deadlock_exit_3_names_blocked_site(tmp_path, capsys):
    f = write(tmp_path, "dl.pvgr", DEADLOCK)
    assert main(["run", f]) == 3
    out = capsys.readouterr().out
    assert "deadlock" in out and "request" in out


def test_run_out_of_fuel_exit_4(tmp_path, capsys):
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    assert main(["run", f, "--max-steps", "0"]) == 4
    assert "out of fuel" in capsys.readouterr().out


def test_run_refuses_ill_typed_without_flag(tmp_path, capsys):
    f = write(tmp_path, "bad.pvgr", "nu a b : !Int.End . (<send () (chan a)> | <send () (chan b)>)")
    assert main(["run", f]) == 1
    capsys.readouterr()
    assert main(["run", f, "--no-check"]) == 3  # the send/send deadlock
    capsys.readouterr()
    # ill-typed before any step: no step broke subject reduction
    assert main(["run", f, "--no-check", "--check"]) == 1
    err = capsys.readouterr().err
    assert "error[T-Exp]: process ends with leftover state of its own" in err
    assert err.endswith("\nthe configuration is ill-typed before the first step\n")
    assert "subject reduction" not in err


def test_run_check_harness(tmp_path, capsys):
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    assert main(["run", f, "--check"]) == 0


def test_run_check_reports_a_step_that_breaks_typing(tmp_path, capsys, monkeypatch):
    # a machine whose sends and selects leave the channel's session as it was
    monkeypatch.setattr(runtime, "_session_after", lambda h, op: None)
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    assert main(["run", f, "--check"]) == 1
    err = capsys.readouterr().err
    assert "error[T-Recv]: channel is not ready to receive" in err
    assert err.endswith("\nsubject reduction violated\n")


def test_run_trace_format(tmp_path, capsys):
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    assert main(["run", f, "--trace"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
    assert lines
    for line in lines:
        idx, rule, redex = line.split("\t", 2)
        assert idx.isdigit()
        assert rule.startswith("CR-")


def test_corpus_all_green(capsys):
    assert main(["corpus", str(CORPUS)]) == 0


def test_corpus_perturbed_golden_fails(tmp_path, capsys):
    write(tmp_path, "server.pvgr", SERVER)
    (tmp_path / "server.pvgr.expected").write_text("type: Unit\n")
    assert main(["corpus", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "server.pvgr" in out and "FAIL" in out


def test_corpus_rows_skip_and_fail(tmp_path, capsys):
    # one row per file, in name order: a file without a sidecar is skipped,
    # and each way a file can disagree with its sidecar is a FAIL row
    files = {
        "a.pvgr": ("()", None),
        "b.pvgr": ("proj1 ()", "type: Unit"),
        "c.pvgr": ("<()>", "type: Unit"),
        "d.pvgr": ("()", "type: (Unit * Unit)"),
        "e.pvgr": ("<()>", "outcome: deadlock"),
        "f.pvgr": ("()", "value: ()"),
        "g.pvgr": ("()", "type: Unit"),
    }
    for name, (src, want) in files.items():
        write(tmp_path, name, src + "\n")
        if want is not None:
            write(tmp_path, name + ".expected", want + "\n")
    assert main(["corpus", str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        "a.pvgr  skip  no .expected sidecar\n"
        f"b.pvgr  FAIL  {tmp_path / 'b.pvgr'}:1:1: error[T-Proj]: projection of a non-pair\n"
        "  found:    Unit\n"
        "c.pvgr  FAIL  expected a type but file is a configuration\n"
        "d.pvgr  FAIL  type mismatch: got Unit\n"
        "e.pvgr  FAIL  outcome mismatch: got final\n"
        "f.pvgr  FAIL  bad sidecar: 'value: ()'\n"
        "g.pvgr  ok    Unit\n"
    )


def test_corpus_empty_dir_warns(tmp_path, capsys):
    assert main(["corpus", str(tmp_path)]) == 0
    assert "warning" in capsys.readouterr().err


def test_corpus_missing_dir_is_an_io_diagnostic_exit_2(tmp_path, capsys):
    d = str(tmp_path / "missing")
    assert main(["corpus", d]) == 2
    assert capsys.readouterr().err == f"error[io]: cannot read {d}: No such file or directory\n"


def test_corpus_sidecar_not_utf8_is_an_io_diagnostic_exit_2(tmp_path, capsys):
    write(tmp_path, "server.pvgr", SERVER)
    sidecar = tmp_path / "server.pvgr.expected"
    sidecar.write_bytes(b"\xff\xfe")
    assert main(["corpus", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error[io]: cannot read {sidecar}: not UTF-8 text")


def test_corpus_program_not_utf8_stops_the_run_exit_2(tmp_path, capsys):
    write(tmp_path, "a.pvgr", SERVER)
    write(tmp_path, "a.pvgr.expected", "type: Unit")
    program = tmp_path / "b.pvgr"
    program.write_bytes(b"\xff\xfe")
    write(tmp_path, "b.pvgr.expected", "outcome: final")
    assert main(["corpus", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error[io]: cannot read {program}: not UTF-8 text")


@pytest.mark.parametrize("name, ran", [("par", "final after 0 steps: () | ()"), ("nuap", "final after 4 steps: () | ()")])
def test_a_parenthesised_configuration_checks_and_runs(tmp_path, capsys, name, ran):
    f = write(tmp_path, "paren.pvgr", PARENTHESISED_CONFIGS[name][0])
    assert main(["check", f]) == 0
    assert capsys.readouterr().out == "config: ok\n"
    assert main(["run", f]) == 0
    assert capsys.readouterr().out == ran + "\n"


# what `check` and `run` print for each program of KEYWORD_BRACKETS
KEYWORD_BRACKETS_OUT = {
    "let": ("ex: .\npost: .\ntype: Unit\n", "final after 1 steps: ()\n"),
    "recv-head": ("config: ok\n", "final after 5 steps: () | ()\n"),
}


@pytest.mark.parametrize("name", list(KEYWORD_BRACKETS_OUT))
def test_brackets_around_a_keyword_expression_check_and_run(tmp_path, capsys, name):
    checked, ran = KEYWORD_BRACKETS_OUT[name]
    f = write(tmp_path, "brackets.pvgr", KEYWORD_BRACKETS[name][0])
    assert main(["check", f]) == 0
    assert capsys.readouterr().out == checked
    assert main(["run", f]) == 0
    assert capsys.readouterr().out == ran


def test_brackets_around_a_keyword_expression_past_the_limit(tmp_path, capsys):
    # 100 brackets, then the let-spine at column 101 opens level 101
    f = write(tmp_path, "brackets.pvgr", "(" * 100 + "let x = () in x" + ")" * 100)
    assert main(["check", f]) == 2
    message = f"constructs nested more than {pvgr.parser.MAX_NESTING} deep"
    assert capsys.readouterr().err == f"{f}:1:101: error[parse]: {message}\n"


def test_check_idempotent_no_side_effects(tmp_path, capsys):
    f = write(tmp_path, "server.pvgr", SERVER)
    assert main(["check", f]) == 0
    first = capsys.readouterr().out
    assert main(["check", f]) == 0
    assert capsys.readouterr().out == first



def call(capsys, argv):
    """main's exit status (a usage error's SystemExit code), stdout and stderr."""
    try:
        status = main(argv)
    except SystemExit as e:
        status = ("SystemExit", e.code)
    out, err = capsys.readouterr()
    return status, out, err


def test_the_shared_command_line_parser_keeps_nothing_between_calls(tmp_path, capsys):
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    missing = str(tmp_path / "missing.pvgr")
    # spelt so that argparse reads most of them: `main` reads the canonical
    # spellings by hand
    calls = [
        ["check", "--format=json", f], ["run", missing], ["check", "--", f],
        ["run", f, "--seed=3", "--trace"], ["run", f], ["run", f, "--tr"],
        ["run"], ["check", f],
    ]
    alone = []
    for argv in calls:
        cli._arg_parser.cache_clear()  # a parser of its own, as in a new process
        alone.append(call(capsys, argv))
    cli._arg_parser.cache_clear()
    shared = [call(capsys, argv) for argv in calls]
    assert shared == alone
    json_check, io_error, pretty_check, seed3_trace, plain_run, seed0_trace, usage, good = shared
    assert json.loads(json_check[1])["ok"] is True
    assert io_error == (2, "", f"error[io]: cannot read {missing}: No such file or directory\n")
    assert pretty_check == good == (0, pretty_check[1], "") and pretty_check[1].startswith("ex: ")
    assert plain_run[1].startswith("final after") and plain_run[1].count("\n") == 1
    assert seed0_trace == call(capsys, ["run", f, "--seed", "0", "--trace"]) != seed3_trace
    assert usage[0] == ("SystemExit", 2) and usage[2].startswith("usage: pvgr run")


def test_importing_the_cli_builds_no_argument_parser(tmp_path):
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    child = f"""
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import pvgr.cli
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        pvgr.cli.main(["check", {f!r}])
    counts.append(len(built))
for _ in range(2):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            pvgr.cli.main(["check"])
        except SystemExit:
            pass
    counts.append(len(built))
print(*counts)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    # none at import, and none for a `check` read by hand; the first usage
    # error builds pvgr's parser and its three subcommands' parsers, and the
    # second builds none
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 0 4 4\n", "")


def _fresh_pvgr(*argv: str) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of `python -m pvgr.cli argv` in a new
    interpreter, run from the checkout's root."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pvgr.cli", *argv], cwd=ROOT, capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_a_fresh_interpreter_loads_what_each_command_needs(tmp_path, capsys):
    # `run` and `corpus` import the machine, and `--format json` imports
    # json, only when they run
    assert _fresh_pvgr("run", "corpus/client_server.pvgr") == (0, "final after 20 steps: () | ()\n", "")
    assert _fresh_pvgr("check", "--format", "json", "corpus/server.pvgr") == (
        0,
        '{"ok": true, "kind": "expr", "type": "forall s:Session[]. forall a:Dom(1)[]. [{a: ?Unit.?Unit.!Unit.s};'
        ' Chan a -> ex . {a: s}; Unit]", "post": ".", "ex": ""}\n',
        "",
    )
    bad = write(tmp_path, "bad.pvgr", "close ()")
    assert _fresh_pvgr("check", "--format", "json", bad) == (
        1, "", '{"severity": "error", "code": "T-Close", "message": "operation needs a channel",'
        f' "file": {json.dumps(bad)}, "line": 1, "col": 1, "found": "Unit"}}\n',
    )
    assert main(["corpus", str(CORPUS)]) == 0
    assert _fresh_pvgr("corpus", "corpus") == (0, capsys.readouterr().out, "")


def test_the_packages_names_resolve_and_load_the_machine_on_first_use():
    child = """
import sys
import pvgr
before = "pvgr.runtime" in sys.modules
from pvgr import Machine, Soup, classify_config, step_expr
from pvgr import runtime
assert (Machine, Soup, classify_config, step_expr) == (
    runtime.Machine, runtime.Soup, runtime.classify_config, runtime.step_expr
)
missing = [name for name in pvgr.__all__ if not hasattr(pvgr, name)]
try:
    pvgr.Nonsense
except AttributeError as e:
    print(e)
print(before, missing)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "module 'pvgr' has no attribute 'Nonsense'\nFalse []\n", "",
    )


def test_the_packages_names_resolve_in_process():
    # the subprocess above sees when the machine loads; this sees the names
    assert (pvgr.Machine, pvgr.Soup, pvgr.classify_config, pvgr.step_expr) == (
        runtime.Machine, runtime.Soup, runtime.classify_config, runtime.step_expr
    )
    with pytest.raises(AttributeError, match="module 'pvgr' has no attribute 'no_such_name'"):
        pvgr.no_such_name


def test_internal_failure_is_a_diagnostic_exit_5(tmp_path, capsys, monkeypatch):
    # the recursion limit hit in the parser or in the checker, injected, as
    # which programs overflow where changes while those become stack-safe
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    for site in ("parse_program", "type_expr"):
        with monkeypatch.context() as mp:
            mp.setattr(cli, site, overflow)
            for argv in (["check", f], ["run", f]):
                assert main(argv) == 5
                err = capsys.readouterr().err
                assert "error[internal]: RecursionError" in err
                assert "Traceback" not in err
            assert main(["check", f, "--format", "json"]) == 5
            assert json.loads(capsys.readouterr().err)["code"] == "internal"


# Nesting past `parser.MAX_NESTING` (docs/syntax.md, "Nesting"): 3000
# parentheses around a unit, which overflowed the parser's stack, and
# lambdas nested as deep as the limit allows, and one more.
DEEP_PARENTHESES = "let x = " + "(" * 3000 + "()" + ")" * 3000 + " in x"


def _lambdas(n: int) -> str:
    """A spine whose head is n nested lambdas, n + 2 levels deep at the
    innermost lambda's brackets."""
    return "let f = " + "".join(f"\\[.](a{i}: Unit). " for i in range(n)) + "() in f ()"


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_nesting_past_the_limit_is_a_parse_error_exit_2(tmp_path, capsys, fmt):
    # the spine is level 1, so the 100th parenthesis, at column 108, opens level 101
    f = write(tmp_path, "deep.pvgr", DEEP_PARENTHESES)
    message = f"constructs nested more than {pvgr.parser.MAX_NESTING} deep"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        assert main(["check", f, "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert main(["run", f]) == 2
        assert capsys.readouterr().err == f"{f}:1:108: error[parse]: {message}\n"
    finally:
        sys.setrecursionlimit(limit)
    if fmt == "json":
        assert json.loads(err) == {
            "severity": "error", "code": "parse", "message": message, "file": f, "line": 1, "col": 108,
        }
    else:
        assert err == f"{f}:1:108: error[parse]: {message}\n"


def test_nesting_at_the_limit_checks_and_runs(tmp_path, capsys):
    n = pvgr.parser.MAX_NESTING - 2
    f = write(tmp_path, "at.pvgr", _lambdas(n))
    past = _lambdas(n + 1)
    g = write(tmp_path, "past.pvgr", past)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        assert main(["check", f]) == 0
        # f () is the n - 1 lambdas inside the outermost
        assert capsys.readouterr().out.endswith("; Unit -> ex . .; Unit" + "]" * (n - 1) + "\n")
        assert main(["run", f]) == 0
        assert capsys.readouterr().out.endswith(f"(a{n - 1}:Unit). ()" + ")" * (n - 1) + "\n")
        assert main(["check", g]) == 2
    finally:
        sys.setrecursionlimit(limit)
    col = past.rindex("[.]") + 1  # the innermost lambda's bracket
    assert capsys.readouterr().err == f"{g}:1:{col}: error[parse]: constructs nested more than {n + 2} deep\n"


def test_a_command_runs_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    # and main leaves it as it found it, on success and on failure
    seen = []
    parse = cli.parse_program

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_program", spy)
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    bad = write(tmp_path, "bad.pvgr", "let x = in x")
    for argv, status in ((["check", f], 0), (["run", f], 0), (["check", bad], 2)):
        assert main(argv) == status
        assert gc.isenabled()
    assert seen == [False, False, False]
    gc.disable()
    try:
        assert main(["check", f]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_unreadable_file_is_an_io_diagnostic_exit_2(tmp_path, capsys):
    f = str(tmp_path / "missing.pvgr")
    for argv in (["check", f], ["run", f]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error[io]: cannot read {f}: No such file or directory\n"
    assert main(["check", f, "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().err)["code"] == "io"
    binary = tmp_path / "binary.pvgr"
    binary.write_bytes(b"\xff\xfe")
    assert main(["check", str(binary)]) == 2
    assert capsys.readouterr().err.startswith(f"error[io]: cannot read {binary}: not UTF-8 text")


def test_a_path_is_read_as_pathlib_reads_it(tmp_path, capsys, monkeypatch):
    # pathlib drops a trailing "/" or "/.", and reads "" as "."
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    for path in (f + "/", f + "/."):
        assert main(["check", path]) == 0
        assert capsys.readouterr().out.startswith("ex: ")
    monkeypatch.chdir(tmp_path)
    assert main(["check", ""]) == 2
    assert capsys.readouterr().err == "error[io]: cannot read : Is a directory\n"


def test_bad_fuel_setting_is_a_usage_diagnostic_exit_2(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    monkeypatch.setenv("PVGR_MAX_STEPS", "abc")
    assert main(["run", f]) == 2
    assert capsys.readouterr().err == "error[usage]: PVGR_MAX_STEPS must be an integer, got 'abc'\n"
    monkeypatch.setenv("PVGR_MAX_STEPS", "0")
    assert main(["run", f]) == 4


def test_negative_fuel_is_a_usage_diagnostic_exit_2(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, "cs.pvgr", CLIENT_SERVER)
    assert main(["run", f, "--max-steps", "-3"]) == 2
    assert capsys.readouterr() == ("", "error[usage]: --max-steps must not be negative, got -3\n")
    monkeypatch.setenv("PVGR_MAX_STEPS", "-3")
    assert main(["run", f]) == 2
    assert capsys.readouterr() == ("", "error[usage]: PVGR_MAX_STEPS must not be negative, got '-3'\n")
    # the option is read before the setting, and zero fuel is still fuel
    assert main(["run", f, "--max-steps", "0"]) == 4
    assert capsys.readouterr().out == "out of fuel after 0 steps\n"


def test_ill_kinded_lambda_annotation_is_a_kind_error_not_a_hang(tmp_path, capsys):
    # the annotation is kinded before it is normalized: its normal form
    # does not exist (the self-application of a type-level lambda)
    f = write(tmp_path, "omega.pvgr", r"let f = \[.](x: ((\a:0. a a) (\a:0. a a))). () in ()")
    for argv in (["check", f], ["run", f]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{f}:1:9: error[K-App]: application of a non-arrow type\n")
        assert "internal" not in err


def test_closed_stdout_ends_quietly_exit_0():
    # stdout is a pipe whose reader is gone before pvgr writes to it
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pvgr.cli", "run", str(CORPUS / "client_server.pvgr"), "--trace"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
