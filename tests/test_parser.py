"""Surface syntax: parse examples, round trips, strict-ANF transformation."""

from __future__ import annotations

import random
import sys

import pytest
from conftest import corpus_files, flatten_lets, parse_expr, parse_with, perfbench_gen
from oracles import random_session, random_type

from pvgr.anf import anf_transform, is_strict_anf
from pvgr.ast import (
    CProc,
    EAccept,
    ECase,
    EClose,
    ELet,
    ENew,
    ERecv,
    ERequest,
    ESelect,
    ESend,
    EVal,
    EFork,
    KSession,
    KShape,
    KState,
    KType,
    ShZero,
    StEmpty,
    TChan,
    TDual,
    TEnd,
    TRecv,
    TSend,
    TUnit,
    VAbs,
    VUnit,
    VVar,
    alpha_equiv,
    fresh_name,
)
from pvgr.parser import (
    KINDS,
    MAX_NESTING,
    OPERATIONS,
    TYPE_PREFIXES,
    TYPE_WORDS,
    ParseError,
    Parser,
    _Scope,
    parse_program,
    parse_type,
)
from pvgr.pretty import pretty
from pvgr.runtime import Machine


def run_expr(e, max_steps):
    """The machine that ran e, and how its run ended."""
    m = Machine(CProc(e), max_steps=max_steps)
    return m, m.run()


def test_parse_unit_value():
    prog = parse_program("()")
    assert prog.expr == EVal(VUnit())


def test_parse_fork_example():
    prog = parse_program("let x = fork (\\[.](y:Unit).y) in x")
    e = prog.expr
    assert isinstance(e, ELet)
    assert isinstance(e.head, EFork)
    f = e.head.value
    assert isinstance(f, VAbs)
    assert f.pre == StEmpty() and f.argty == TUnit()
    assert isinstance(e.body, EVal) and isinstance(e.body.value, VVar)
    assert e.body.value.name == e.binder
    # round trip
    again = parse_program(pretty(e)).expr
    assert alpha_equiv(e, again)


def test_parse_send0_session_surface():
    t = parse_type("!{a:Dom(0)}(.;Int).s")
    assert isinstance(t, TSend)
    assert t.shape == ShZero()
    assert t.state == StEmpty()
    assert t.payload == TUnit()  # Int is surface sugar for Unit


def test_parse_type_end():
    from pvgr.ast import TDual, TEnd, StBind, StMerge

    assert parse_type("End") == TEnd()
    assert isinstance(parse_type("dual End"), TDual)
    st = parse_type("{a: End, b: dual End}")
    assert isinstance(st, StMerge)
    assert isinstance(st.left, StBind) and isinstance(st.right, StBind)


# Programs that fail to parse, with the diagnostic of each: those of the
# tests below and of tests/test_cli.py, and errors on later lines, in a
# let-spine and after a `\r\n`. tests/compare_outputs.py runs them too.
PARSE_ERRORS = {
    "empty": ("", "1:1: error[parse]: empty program"),
    "let-without-head": ("let x = in x", "1:9: error[parse]: expected a value, found 'in'"),
    "type-as-program": ("Chan (", "1:1: error[parse]: expected a value, found 'Chan'"),
    "trailing-comment": ("let x = () in -- trailing comment",
                         "1:34: error[parse]: expected a value, found 'end of input'"),
    "only-a-comment": ("\t-- only a comment", "1:19: error[parse]: empty program"),
    "unbound-in-a-spine": ("let x = () in\n  let y = x in\n  z", "3:3: error[parse]: unbound identifier 'z'"),
    "character-in-a-spine": ("let a = () in\nlet b = () in\n\tlet c = ½ in c",
                             "3:10: error[parse]: unexpected character '½'"),
    "exnames-after-crlf": ("let a = () in\r\nlet [c d] b = () in b", "2:8: error[parse]: expected ']', found 'd'"),
    "label": ("let s = select 3 x in s", "1:16: error[parse]: expected label 1 or 2, found '3'"),
    "config-line-2": ("nuap ap : End . (<let v = request ap in close v> |\n  <let u = accept ap in close 2>)",
                      "2:31: error[parse]: expected a value, found '2'"),
    "session-binder-kind": ("let ap = new ?{z:Type}(.; Unit).End in ap",
                            "1:22: error[parse]: session binder must have a Dom(..) kind, found '}'"),
    "binder-body": ("nuap a : End . 5", "1:16: error[parse]: expected a configuration, found '5'"),
    "kind": ("let f = /\\a:Foo[]. () in f", "1:13: error[parse]: expected a kind, found 'Foo'"),
    "number-in-type": ("let ap = new 2 in ap", "1:14: error[parse]: unexpected number '2' in type"),
    "type": ("let ap = new in ap", "1:14: error[parse]: expected a type, found 'in'"),
}


@pytest.mark.parametrize("name", list(PARSE_ERRORS))
def test_parse_error_location(name):
    src, want = PARSE_ERRORS[name]
    with pytest.raises(ParseError) as exc:
        parse_program(src, "F")
    assert str(exc.value) == "F:" + want


# Configurations in parentheses at the top of a file, and each without them
PARENTHESISED_CONFIGS = {
    "par": ("(<()> | <()>)", "<()> | <()>"),
    "nuap": ("((nuap a : End . <let v = request a in close v> | <let u = accept a in close u>))",
             "nuap a : End . <let v = request a in close v> | <let u = accept a in close u>"),
}


@pytest.mark.parametrize("name", list(PARENTHESISED_CONFIGS))
def test_a_parenthesised_configuration_is_a_configuration(name):
    src, bare = PARENTHESISED_CONFIGS[name]
    prog = parse_program(src)
    assert prog.expr is None
    assert alpha_equiv(prog.config, parse_program(bare).config)


# Expressions that start with a keyword, in brackets more than one deep,
# each with its bare form; tests/test_cli.py checks and runs them, and
# tests/compare_outputs.py runs them too
KEYWORD_BRACKETS = {
    "let": ("((let x = () in x))", "let x = () in x"),
    "recv-head": (
        "nu a b : ?Unit.End . (<let y = ((recv (chan a))) in let u = close (chan a) in y>"
        " | <let u = send () (chan b) in close (chan b)>)",
        "nu a b : ?Unit.End . (<let y = recv (chan a) in let u = close (chan a) in y>"
        " | <let u = send () (chan b) in close (chan b)>)",
    ),
}


@pytest.mark.parametrize("name", list(KEYWORD_BRACKETS))
def test_brackets_around_a_keyword_expression_nest(name):
    src, bare = KEYWORD_BRACKETS[name]
    prog, want = parse_program(src), parse_program(bare)
    assert (prog.expr is None, prog.config is None) == (want.expr is None, want.config is None)
    assert alpha_equiv(prog.expr or prog.config, want.expr or want.config)


def test_brackets_around_a_keyword_expression_count_toward_the_limit():
    # each bracket is a level, and the let-spine one more: 98 brackets, the
    # spine and the unit's brackets are 100 levels, and the spine inside
    # 100 brackets opens level 101
    parse_program("(" * 98 + "let x = () in x" + ")" * 98)
    with pytest.raises(ParseError) as exc:
        parse_program("(" * 100 + "let x = () in x" + ")" * 100, "F")
    assert str(exc.value) == f"F:1:101: error[parse]: constructs nested more than {MAX_NESTING} deep"
    assert exc.value.span.text == "let"


def test_parse_errors_have_spans():
    with pytest.raises(ParseError) as exc:
        parse_program("let x = in x")
    assert exc.value.span.line == 1
    with pytest.raises(ParseError):
        parse_program("")
    with pytest.raises(ParseError):
        parse_type("Chan (")


def test_end_of_input_after_a_trailing_comment_is_at_the_end():
    # a `--` comment runs to the end of input, and so does the column
    with pytest.raises(ParseError) as exc:
        parse_program("let x = () in -- trailing comment")
    assert str(exc.value) == "<input>:1:34: error[parse]: expected a value, found 'end of input'"
    with pytest.raises(ParseError) as exc:
        parse_program("\t-- only a comment")
    assert str(exc.value) == "<input>:1:19: error[parse]: empty program"


# One program (or type) per construct that nests, n levels of it deep
# (docs/syntax.md, "Nesting")
NESTING_FORMS = {
    "parentheses": ("program", lambda n: "let x = " + "(" * n + "()" + ")" * n + " in x"),
    "keyword-parentheses": ("program", lambda n: "(" * n + "let x = () in x" + ")" * n),
    "lambdas": ("program", lambda n: "let f = " + "".join(f"\\[.](a{i}: Unit). " for i in range(n)) + "() in f"),
    "type-abstractions": ("program", lambda n: "let f = " + "".join(f"/\\t{i}: Session []. " for i in range(n)) + "() in f"),
    "let-heads": ("program", lambda n: "let x = " * n + "()" + " in x" * n),
    "case-braces": ("program", lambda n: "let y = () in let x = " + "case y {" * n + "()" + "; ()}" * n + " in x"),
    "binders": ("program", lambda n: "nuap a : End . " * n + "<()>"),
    "channel-binders": ("program", lambda n: "nu a b : End . " * n + "<()>"),
    "configuration-parentheses": ("program", lambda n: "(" * n + "<()>" + ")" * n),
    "type-parentheses": ("type", lambda n: "(" * n + "End" + ")" * n),
    "prefixes": ("type", lambda n: "dual Chan " * n + "x"),
    "projections": ("type", lambda n: "pi1 " * n + "x"),
    "foralls": ("type", lambda n: "forall t: Session []. " * n + "End"),
    "type-lambdas": ("type", lambda n: "\\t: 1. " * n + "End"),
    "state-braces": ("type", lambda n: "{" * n + "x: End" + "}: End" * (n - 1) + "}"),
    "arrows": ("type", lambda n: "[.; " * n + "Unit" + " -> ex . . ; Unit]" * n),
    "payloads": ("type", lambda n: "!" * n + "Int" + ".End" * n),
    "binder-kinds": ("type", lambda n: "!{e: Dom(" * n + "0" + ")}(.; Unit).End" * n),
    "kind-parentheses": ("type", lambda n: "forall a: " + "(" * n + "Type" + ")" * n + " []. End"),
}


@pytest.mark.parametrize("name", list(NESTING_FORMS))
def test_each_construct_that_nests_is_limited(name):
    # nesting past the limit is an error[parse] at the token that opens the
    # level past it, not a recursion error, at the default recursion limit
    rule, nested = NESTING_FORMS[name]
    parse = parse_program if rule == "program" else parse_type
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        parse(nested(10), "F")
        with pytest.raises(ParseError) as exc:
            parse(nested(3000), "F")
    finally:
        sys.setrecursionlimit(limit)
    assert exc.value.message == f"constructs nested more than {MAX_NESTING} deep"
    assert exc.value.span.text in {"(", "[", "{", "\\", "/\\", "forall", "let", "nu", "nuap", "dual", "Chan", "pi1", "!"}


def test_long_sessions_and_kind_arrows_are_read_in_loops():
    # a session's continuations, and a kind's arrows, nest no level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = parse_type("?Int." * 5000 + "End")
        parse_type("forall a: " + "Type -> " * 5000 + "Type []. End")
        prog = parse_program(perfbench_gen().chain(1000, random.Random(1)))
    finally:
        sys.setrecursionlimit(limit)
    steps = 0
    while isinstance(t, TRecv):
        t, steps = t.cont, steps + 1
    assert (steps, t.__class__) == (5000, TEnd)
    assert prog.expr is not None
    # a step's binder is not in scope in its continuation
    with pytest.raises(ParseError) as exc:
        parse_program("let ap = new ?{e: Dom(1)}({e: End}; Chan e).?Chan e.End in ap", "F")
    assert str(exc.value) == "F:1:51: error[parse]: unbound identifier 'e'"


def test_pretty_examples():
    from pvgr.ast import TEnd

    assert pretty(TEnd()) == "End"
    assert pretty(parse_program("()").expr) == "()"


# Types that print as they are written: an argument is juxtaposed only
# when the grammar reads it back as the argument
PRINTED_TYPES = ["g (f d)", "g pi1 d", "g (pi1 (f d))", "g (Unit)"]


@pytest.mark.parametrize("src", PRINTED_TYPES)
def test_a_type_argument_prints_so_that_it_reads_back(src):
    free = {n: fresh_name(n) for n in "gfd"}
    t = parse_with("type", src, free)
    assert pretty(t) == src
    assert parse_with("type", pretty(t), free) == t


def test_bindings_print_and_a_configuration_does_not():
    from pvgr.ast import BTVar, BVal, KDom, ShOne, TUnit
    from pvgr.pretty import pretty_ctx

    x, d = fresh_name("x"), fresh_name("d")
    assert pretty(BVal(x, TUnit())) == "x:Unit"
    assert pretty(BTVar(d, KDom(ShOne()))) == "d:Dom(1)"
    assert pretty_ctx((BTVar(d, KDom(ShOne())), BVal(x, TUnit()))) == "d:Dom(1), x:Unit"
    with pytest.raises(TypeError, match="cannot pretty-print"):
        pretty(parse_program("<()>").config)


# One form per entry of the parser's keyword tables, spelled out here so that
# a misspelt or swapped entry fails: (source, grammar rule, class, printed).
KEYWORD_FORMS = [
    ("Type", Parser.kind, KType, "Type"),
    ("Session", Parser.kind, KSession, "Session"),
    ("State", Parser.kind, KState, "State"),
    ("Shape", Parser.kind, KShape, "Shape"),
    ("End", Parser.type_, TEnd, "End"),
    ("Unit", Parser.type_, TUnit, "Unit"),
    ("Int", Parser.type_, TUnit, "Unit"),
    ("dual a", Parser.type_, TDual, "dual a"),
    ("Chan a", Parser.type_, TChan, "Chan a"),
    ("fork x", Parser.expr, EFork, "fork x"),
    ("accept x", Parser.expr, EAccept, "accept x"),
    ("request x", Parser.expr, ERequest, "request x"),
    ("recv x", Parser.expr, ERecv, "recv x"),
    ("close x", Parser.expr, EClose, "close x"),
    ("new End", Parser.expr, ENew, "new End"),
    ("send x y", Parser.expr, ESend, "send x y"),
    ("select 1 x", Parser.expr, ESelect, "select 1 x"),
    ("case x {(); ()}", Parser.expr, ECase, "case x {(); ()}"),
]


@pytest.mark.parametrize("src, rule, cls, printed", KEYWORD_FORMS, ids=[f[0] for f in KEYWORD_FORMS])
def test_keyword_form_round_trips(src, rule, cls, printed):
    tree = Parser(src, open_world=True).whole(rule)
    assert tree.__class__ is cls
    assert pretty(tree) == printed


def test_keyword_forms_cover_every_table_entry():
    tables = [*KINDS.items(), *TYPE_WORDS.items(), *TYPE_PREFIXES.items()]
    tables += [(kw, cls) for cls, kw in OPERATIONS.items()]
    covered = {(src.split()[0], cls) for src, _, cls, printed in KEYWORD_FORMS if src == printed}
    assert covered == set(tables)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_round_trip_corpus(path):
    src = path.read_text()
    prog = parse_program(src, filename=path.name)
    tree = prog.expr if prog.expr is not None else prog.config
    printed = pretty(tree)
    prog2 = parse_program(printed, filename=path.name)
    tree2 = prog2.expr if prog2.expr is not None else prog2.config
    assert alpha_equiv(tree, tree2), printed
    # printing is deterministic / stable
    assert pretty(tree2) == printed


class _FrameScope(_Scope):
    """The scope as a stack of frames searched from the innermost, as the
    parser kept it before its one map: the reference for name resolution."""

    def __init__(self, open_world: bool):
        super().__init__(open_world)
        self.stack = [{}]

    def push(self) -> None:
        self.stack.append({})

    def pop(self) -> None:
        self.stack.pop()

    def bind(self, text: str):
        nm = fresh_name(text)
        self.stack[-1][text] = nm
        return nm

    def lookup(self, text: str):
        for frame in reversed(self.stack):
            if text in frame:
                return frame[text]
        return super().lookup(text)


SHADOWING = (
    "let x = () in let f = \\[.](x: Unit). x in let x = f x in let y = (x, x) in y",
    "let x = () in let x = (let x = (x, x) in x) in let [x] y = x in (x, y)",
    "nu a a : End . (<close (chan a)> | <let a = () in a>)",
    "nuap p : End . <let f = \\[.](p: Unit). p in let q = request p in f q>",
    "/\\s:Session[]. /\\s:Session[]. \\[.](x: AP(s)). let s = request x in s",
)


@pytest.mark.parametrize(
    "src",
    [p.read_text() for p in corpus_files()] + list(SHADOWING),
    ids=[p.name for p in corpus_files()] + [f"shadowing{k}" for k in range(len(SHADOWING))],
)
def test_scope_map_resolves_names_as_a_frame_stack(src, monkeypatch):
    # each name resolves to the same binder with one map from text to its
    # innermost binding as with a stack of frames searched one by one
    def tree(prog):
        return prog.expr if prog.expr is not None else prog.config

    ours = tree(parse_program(src))
    monkeypatch.setattr("pvgr.parser._Scope", _FrameScope)
    assert alpha_equiv(ours, tree(parse_program(src)))


def test_round_trip_random_types(rng):
    free = [fresh_name(f"fv{i}") for i in range(3)]
    for _ in range(1000):
        t = random_type(rng, rng.randrange(1, 10), free)
        printed = pretty(t)
        t2 = parse_type(printed)
        assert pretty(t2) == printed, printed


def test_round_trip_random_sessions_alpha(rng):
    for _ in range(200):
        s = random_session(rng, 3)
        s2 = parse_type(pretty(s), open_world=False)
        assert alpha_equiv(s, s2)


def test_anf_let_flattening():
    e = parse_expr("let x = (let y = () in y) in x", open_world=False)
    out = anf_transform(e)
    assert is_strict_anf(out)
    expected = parse_expr("let y = () in let x = y in x", open_world=False)
    assert alpha_equiv(out, expected)


def test_anf_value_untouched():
    e = parse_expr("()", open_world=False)
    assert anf_transform(e) == e


def test_anf_idempotent_on_corpus():
    for path in corpus_files():
        prog = parse_program(path.read_text(), filename=path.name)
        if prog.expr is None:
            continue
        once = anf_transform(prog.expr)
        assert is_strict_anf(once)
        assert alpha_equiv(anf_transform(once), once)


def test_anf_output_satisfies_predicate_on_app_chains():
    e = parse_expr("let f = (\\[.](x:Unit).x) in f ()", open_world=False)
    assert not is_strict_anf(e)  # tail application is not a let or value
    out = anf_transform(e)
    assert is_strict_anf(out)


def test_anf_run_equivalence_on_deterministic_corpus():
    # original and transformed programs reach the same final values; residual
    # closure bodies are compared after normalizing both with the transform
    for path in corpus_files():
        prog = parse_program(path.read_text(), filename=path.name)
        if prog.expr is None:
            continue
        base, base_out = run_expr(flatten_lets(prog.expr), max_steps=20000)
        transformed, transformed_out = run_expr(anf_transform(prog.expr), max_steps=20000)
        assert base_out.kind == transformed_out.kind
        if base_out.kind == "final":
            from pvgr.ast import canonicalize

            def canon(e):
                return repr(canonicalize(anf_transform(e)))

            vals1 = sorted(canon(e) for _, e in _leaves(base.config))
            vals2 = sorted(canon(e) for _, e in _leaves(transformed.config))
            assert vals1 == vals2


def _leaves(cfg):
    from pvgr.runtime import iter_procs

    return list(iter_procs(cfg))
