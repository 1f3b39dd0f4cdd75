"""Operational semantics: reduction, classification, scheduling, and the
metatheory properties run as dynamic checks."""

from __future__ import annotations

import pytest
from conftest import corpus_files, parse_expr
from oracles import node_fields, replace_fields

from pvgr.anf import anf_transform
from pvgr.ast import (
    CNuAccess,
    CNuChan,
    CPar,
    CProc,
    Config,
    ELet,
    EVal,
    VUnit,
    canonicalize,
)
from pvgr.cli import main
from pvgr.normalize import dual
from pvgr.parser import parse_program, parse_type
from pvgr.pretty import pretty
from pvgr.runtime import (
    Machine,
    Soup,
    classify_config,
    find_candidates,
    iter_procs,
    step_expr,
)
from pvgr.typing import ProcTyping, type_config

EMPTY = parse_type(".")


def expr(src: str):
    return anf_transform(parse_expr(src, open_world=False))


def config(src: str) -> Config:
    return parse_program(src).config


def soup(src: str) -> Soup:
    return Soup(config(src))


# -- expression reduction ---------------------------------------------------


def test_beta_let():
    e = parse_expr("let x = () in x", open_world=False)
    assert step_expr(e) == EVal(VUnit())


def test_beta_fun():
    e = parse_expr("(\\[.](x:Unit).x) ()", open_world=False)
    out = step_expr(e)
    assert out == EVal(VUnit())


def test_beta_pair():
    e = parse_expr("proj1 ((), ())", open_world=False)
    assert step_expr(e) == EVal(VUnit())


def test_no_step_on_value():
    assert step_expr(parse_expr("()", open_world=False)) is None


# -- classification ------------------------------------------------------------


def test_classify_value():
    assert classify_config(Soup(CProc(parse_expr("()", open_world=False)))) == "final"


def test_classify_recv_chan_is_comm():
    # a receive on an end no binder holds is blocked, and nothing meets it
    out = classify_config(Soup(CProc(parse_expr("recv (chan a)"))))
    assert out[0] == "deadlock" and str(out[1]) == "recv on a"


def test_classify_let_propagates_comm():
    s = Soup(CProc(parse_expr("let x = fork (\\[.](y:Unit).y) in x", open_world=False)))
    assert [c.rule for c in find_candidates(s)] == ["CR-Fork"]
    assert classify_config(s) == "reducible"


def test_classify_config_final_examples():
    assert classify_config(soup("<()>")) == "final"
    assert classify_config(soup("nu a b : End . (<()> | <()>)")) == "final"
    assert classify_config(soup("nuap x : End . <()>")) == "final"


def test_classify_config_deadlock_two_blocked_receivers():
    c = soup("nu a b : ?Int.End . (<recv (chan a)> | <recv (chan b)>)")
    out = classify_config(c)
    assert isinstance(out, tuple) and out[0] == "deadlock"
    sites = {b.operation for b in out[1].blocked}
    assert sites == {"recv"}
    assert len(out[1].blocked) == 2


@pytest.mark.parametrize(
    "src, operation, subject",
    [
        ("nuap p : End . <accept p>", "accept", "p"),
        ("nuap p : End . <request p>", "request", "p"),
        ("nu a b : !Int.End . (<send () (chan a)> | <()>)", "send", "a"),
        ("nu a b : ?Int.End . (<recv (chan b)> | <()>)", "recv", "b"),
        ("nu a b : End +c End . (<select 1 (chan a)> | <()>)", "select", "a"),
        ("nu a b : End +b End . (<case (chan a) {(); ()}> | <()>)", "case", "a"),
        ("nu a b : End . (<close (chan a)> | <()>)", "close", "a"),
    ],
)
def test_deadlock_report_names_each_blocking_operation(src, operation, subject):
    out = classify_config(soup(src))
    assert isinstance(out, tuple) and out[0] == "deadlock"
    (site,) = out[1].blocked
    assert (site.operation, site.subject) == (operation, subject)
    assert str(out[1]) == f"{operation} on {subject}"


def test_classify_config_reducible():
    assert classify_config(Soup(CProc(expr("let x = () in x")))) == "reducible"


# -- configuration steps --------------------------------------------------------


def test_fork_step_creates_process():
    m = Machine(CProc(expr("let x = fork (\\[.](y:Unit).y) in x")))
    out = m.step()
    assert out.rule == "CR-Fork"
    pars = [c for c, _ in [(m.config, None)]]
    assert isinstance(m.config, CPar)
    assert m.run().kind == "final"


def test_new_step_creates_access_point():
    m = Machine(CProc(expr("let x = new End in ()")))
    out = m.step()
    assert out.rule == "CR-New"
    assert isinstance(m.config, CNuAccess)


def test_request_accept_step_delivers_both_ends():
    src = """
    let ap = new End in
    let z = fork (\\[.](w:Unit). let c = accept ap in close c) in
    let c = request ap in
    close c
    """
    m = Machine(CProc(expr(src)))
    rules = []
    while True:
        out = m.step()
        if out.kind != "stepped":
            break
        rules.append(out.rule)
    assert out.kind == "final"
    assert "CR-RequestAccept" in rules and "CR-Close" in rules
    # the channel binder survives closing, marked closed
    nus = _collect_nuchans(m.config)
    assert nus and all(nu.closed for nu in nus)


def _collect_nuchans(c: Config) -> list[CNuChan]:
    out = []
    if isinstance(c, CNuChan):
        out.append(c)
    for f in node_fields(c):
        v = getattr(c, f)
        if isinstance(v, Config):
            out += _collect_nuchans(v)
    return out


def test_lone_receiver_under_binder_deadlocks():
    c = config("nu a b : ?Int.End . (<recv (chan a)> | <()>)")
    m = Machine(c)
    out = m.run()
    assert out.kind == "deadlock"
    assert out.report and out.report.blocked[0].operation == "recv"


def test_run_final_in_zero_steps():
    m = Machine(CProc(parse_expr("()", open_world=False)))
    out = m.run()
    assert out.kind == "final" and m.steps == 0


@pytest.mark.parametrize(
    "server, steps",
    [
        ("<let u = (let w = accept ap in w) in let x = recv u in close u>", 8),
        (
            "<let z = fork (\\[.](w: Unit). let u = (let y = accept ap in y) in"
            " let x = recv u in close u) in z>",
            11,
        ),
    ],
    ids=["process", "forked-lambda"],
)
def test_first_head_that_is_a_let_runs_to_final(server, steps, tmp_path, capsys):
    # a configuration process is flattened once, when the machine starts, and
    # a lambda body when it is applied, so an accept nested in the first head
    # is found
    src = f"nuap ap : ?Int.End . ({server} | <let v = request ap in let a = send () v in close v>)"
    c = config(src)
    type_config((), EMPTY, c)
    for seed in range(6):
        assert Machine(c, seed=seed).run().kind == "final", seed
    f = tmp_path / "nested_head.pvgr"
    f.write_text(src)
    assert main(["run", str(f)]) == 0
    assert capsys.readouterr().out.startswith(f"final after {steps} steps")


# A `let [e]` over a receive binds e to the domain of the value received:
# {} for unit, and the merge of both ends for a pair of channels, whose
# halves the receiver then closes by name. Every configuration on the way
# types.
RECEIVED_DOMAINS = {
    "unit": "nuap ap : ?Int.End . (<let u = accept ap in let [e] x = recv u in close u>"
            " | <let v = request ap in let s = send () v in close v>)",
    "pair": "nuap ap0 : End . nuap ap : ?{d:Dom((1*1))}({pi1 d: End, pi2 d: End}; (Chan (pi1 d) * Chan (pi2 d))).End ."
            " (<let u = accept ap in let [e] p = recv u in"
            " let c1 = close (chan pi1 e) in let c2 = close (chan pi2 e) in close u>"
            " | <let d = accept ap0 in close d> | <let d = accept ap0 in close d>"
            " | <let v = request ap in let d1 = request ap0 in let d2 = request ap0 in"
            " let s = send (d1, d2) v in close v>)",
}


@pytest.mark.parametrize("name", list(RECEIVED_DOMAINS))
def test_a_named_receive_binds_the_received_domain(name):
    c = config(RECEIVED_DOMAINS[name])
    for seed in range(3):
        m = Machine(c, seed=seed)
        while True:
            type_config((), EMPTY, m.config)
            out = m.step()
            if out.kind != "stepped":
                break
        assert out.kind == "final", seed


def test_run_out_of_fuel():
    src = """
    let ap = new End in
    let z = fork (\\[.](w:Unit). let c = accept ap in close c) in
    let c = request ap in
    close c
    """
    m = Machine(CProc(expr(src)), max_steps=0)
    assert m.run().kind == "out-of-fuel"


def test_trace_deterministic_under_seed():
    src = (ROOT_CLIENT_SERVER := (CORPUS_DIR / "client_server.pvgr").read_text())
    for seed in (0, 1, 7):
        m1 = Machine(CProc(expr(src)), seed=seed, trace=[])
        m1.run()
        m2 = Machine(CProc(expr(src)), seed=seed, trace=[])
        m2.run()
        assert m1.trace and m1.trace == m2.trace


from conftest import CORPUS as CORPUS_DIR  # noqa: E402


def _corpus_configs():
    for path in corpus_files():
        prog = parse_program(path.read_text(), filename=path.name)
        if prog.expr is not None:
            yield path.name, CProc(anf_transform(prog.expr))
        else:
            yield path.name, prog.config


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trichotomy_over_corpus(seed):
    # every reached configuration classifies as exactly one of
    # final / deadlock / reducible, and reducible configurations step
    for name, cfg in _corpus_configs():
        m = Machine(cfg, seed=seed, max_steps=10_000)
        while True:
            cls = classify_config(Soup(m.config))
            kinds = [
                cls == "final",
                isinstance(cls, tuple) and cls[0] == "deadlock",
                cls == "reducible",
            ]
            assert sum(kinds) == 1, (name, cls)
            out = m.step()
            if cls == "reducible":
                assert out.kind == "stepped", (name, m.steps)
            if out.kind != "stepped":
                break


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_subject_reduction_over_corpus(seed):
    # configuration typing is preserved by every machine step
    for name, cfg in _corpus_configs():
        m = Machine(cfg, seed=seed, max_steps=10_000)
        while True:
            type_config((), EMPTY, m.config)
            out = m.step()
            if out.kind != "stepped":
                break
        assert out.kind in ("final", "deadlock"), name


def test_expression_level_subject_reduction():
    # at every CR-Expr step the stepped process keeps its post state and a
    # convertible result type (preservation part 1)
    from pvgr.normalize import conv

    for name, cfg in _corpus_configs():
        m = Machine(cfg, max_steps=10_000)
        while True:
            pre: list[ProcTyping] = []
            type_config((), EMPTY, m.config, collect=pre)
            out = m.step()
            if out.kind != "stepped":
                break
            if out.rule != "CR-Expr":
                continue
            post: list[ProcTyping] = []
            type_config((), EMPTY, m.config, collect=post)
            if len(pre) != len(post):
                continue
            # find the changed leaf and compare packages
            for p1, p2 in zip(pre, post):
                changed = pretty(p1.typing.ty) != pretty(p2.typing.ty) or pretty(
                    p1.typing.post_state
                ) != pretty(p2.typing.post_state)
                if changed:
                    assert conv(p1.typing.ty, p2.typing.ty), name
                    assert conv(p1.typing.post_state, p2.typing.post_state), name


# -- congruence soundness ------------------------------------------------------


def _cc_steps(c: Config) -> list[Config]:
    """Single congruence rewrites: comm, assoc, swap, scope extrusion, unit."""
    out = []
    match c:
        case CPar(l, r):
            out.append(CPar(r, l))
            if isinstance(l, CPar):
                out.append(CPar(l.left, CPar(l.right, r)))
            if isinstance(r, CPar):
                out.append(CPar(CPar(l, r.left), r.right))
            if isinstance(l, (CNuChan, CNuAccess)):
                out.append(replace_fields(l, body=CPar(l.body, r)))
            if r == CProc(EVal(VUnit())):
                out.append(l)
        case CNuChan(e1, e2, ses, body, closed):
            out.append(CNuChan(e2, e1, dual(ses), body, closed))
            out.append(CNuChan(e1, e2, ses, CPar(body, CProc(EVal(VUnit()))), closed))
        case CNuAccess(x, ses, body):
            out.append(CNuAccess(x, ses, CPar(body, CProc(EVal(VUnit())))))
    # congruence under every context
    for f in node_fields(c):
        v = getattr(c, f)
        if isinstance(v, Config):
            for w in _cc_steps(v):
                out.append(replace_fields(c, **{f: w}))
    return out


def _cc_reachable(c: Config, depth: int = 6, cap: int = 3000) -> dict[str, Config]:
    seen = {repr(canonicalize(c)): c}
    frontier = [c]
    for _ in range(depth):
        new = []
        for u in frontier:
            for v in _cc_steps(u):
                k = repr(canonicalize(v))
                if k not in seen:
                    seen[k] = v
                    new.append(v)
                    if len(seen) >= cap:
                        return seen
        frontier = new
    return seen


def _literal_redex(c: Config) -> bool:
    """c is literally of a reduction-rule shape at the root (after the
    congruence premise has been discharged): binder over parallel redex
    participants with a framing process."""
    match c:
        case CNuAccess(x, _, CPar(CPar(CProc(e1), CProc(e2)), _)):
            h1, h2 = _head(e1), _head(e2)
            names = {type(h1).__name__, type(h2).__name__}
            return names == {"ERequest", "EAccept"}
        case CNuChan(_, _, _, CPar(CPar(CProc(e1), CProc(e2)), _), False):
            h1, h2 = _head(e1), _head(e2)
            names = {type(h1).__name__, type(h2).__name__}
            return names in ({"ESend", "ERecv"}, {"ESelect", "ECase"}, {"EClose"})
    return False


def _head(e):
    """The operation at the evaluation hole of a flat e."""
    return e.head if isinstance(e, ELet) else e


@pytest.mark.parametrize(
    "src",
    [
        "nuap x : End . (<let c = request x in close c> | <let c = accept x in close c>)",
        "nu a b : !Int.End . (<let x = send () (chan a) in close (chan a)>"
        " | <let y = recv (chan b) in close (chan b)>)",
        "nu a b : End . (<close (chan a)> | <close (chan b)>)",
    ],
)
def test_flattened_search_justified_by_congruence(src):
    # every communication redex the flattened search finds corresponds to a
    # configuration, congruent within 6 rewrites, in literal rule shape
    c = config(src)
    cands = [x for x in find_candidates(Soup(c)) if x.rule not in ("CR-Expr",)]
    assert cands
    reach = _cc_reachable(c)
    assert any(_literal_redex(v) for v in reach.values()), src


def test_step_count_regression_poly_client():
    # frozen on first run: the Eq.(5)-instantiated client/server completes
    # in a fixed number of steps under the default schedule
    src = (CORPUS_DIR / "server_client_poly.pvgr").read_text()
    m = Machine(CProc(expr(src)))
    out = m.run()
    assert out.kind == "final"
    assert m.steps == 27
    # every channel binder ends closed: all sessions ended
    assert all(nu.closed or pretty(normalize(nu.ses)) == "End" for nu in _collect_nuchans(m.config))


# -- stack safety ----------------------------------------------------------------


def _procs_recursive(cfg: Config, visit, path: list[str]) -> None:
    """`iter_procs` by recursion, one Python frame per level: the reference.
    It hands each (path, expr) to `visit` and shares one path list among its
    frames, as the paths of a deep soup add up to millions of entries."""
    match cfg:
        case CProc(e):
            visit((tuple(path), e))
            return
        case CPar(l, r):
            children = (("left", l), ("right", r))
        case _:
            children = (("body", cfg.body),)
    for step, child in children:
        path.append(step)
        _procs_recursive(child, visit, path)
        path.pop()


def _soup(last: str, n: int = 5000) -> Config:
    """A right-nested `CPar` of n processes, built in a loop: n - 1 values
    and a last process given by its source."""
    soup = CProc(anf_transform(parse_expr(last, open_world=True)))
    unit = CProc(parse_expr("()", open_world=False))
    for _ in range(n - 1):
        soup = CPar(unit, soup)
    return soup


@pytest.mark.parametrize("last", ["()", "let x = () in x", "recv (chan c)"])
def test_walks_of_a_5000_process_soup_need_no_deep_stack(last):
    """A soup of 5000 processes whose last is a value, a CR-Expr redex or
    blocked. At the default recursion limit `iter_procs`, `Soup`,
    `find_candidates` and `classify_config` walk it to the end; the next
    test steps it."""
    import sys

    n = 5000
    soup = _soup(last, n)
    assert sys.getrecursionlimit() <= 1000

    assert sum(1 for _ in iter_procs(soup)) == n
    cells = Soup(soup)
    cands = find_candidates(cells)
    cls = classify_config(cells)

    assert [c.rule for c in cands] == (["CR-Expr"] if last.startswith("let") else [])
    if last.startswith("recv"):
        assert cls[0] == "deadlock" and [b.operation for b in cls[1].blocked] == ["recv"]
    else:
        assert cls == ("final" if last == "()" else "reducible")

    ours = iter_procs(soup)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3 * n)
    try:
        _procs_recursive(soup, lambda item: _expect(item, next(ours)), [])
    finally:
        sys.setrecursionlimit(limit)
    assert next(ours, None) is None


def _expect(want, got) -> None:
    assert got == want


def test_machine_steps_a_5000_process_soup_without_deep_stack():
    # `Machine` flattens the soup's processes, applies the one CR-Expr
    # candidate along a path 5000 steps long and classifies the result,
    # all at the default recursion limit
    import sys

    assert sys.getrecursionlimit() <= 1000
    soup = _soup("let x = () in x")
    m = Machine(soup)
    assert [e for _, e in iter_procs(m.config)] == [e for _, e in iter_procs(soup)]
    out = m.run()
    assert (out.kind, m.steps) == ("final", 1)
    assert [pretty(e) for _, e in iter_procs(m.config)] == ["()"] * 5000


# -- the run path: flat per step, and stack-safe -----------------------------------


def _scope_walks_per_step(monkeypatch, cfg) -> float:
    """Calls to `pvgr.ast.scope_walk` per step of a run of cfg to its end,
    its final configuration read back."""
    import importlib

    calls = [0]
    modules = [importlib.import_module(f"pvgr.{name}") for name in ("ast", "normalize")]
    walk = modules[0].scope_walk

    def counted(*args):
        calls[0] += 1
        return walk(*args)

    for module in modules:  # the package binds `normalize` to the function
        monkeypatch.setattr(module, "scope_walk", counted)
    m = Machine(cfg, seed=1)
    out = m.run()
    assert out.kind == "final" and isinstance(m.config, Config)
    return calls[0] / m.steps


def test_run_costs_the_same_per_step_at_every_size(monkeypatch):
    # a step substitutes into no spine and walks no configuration: fan 32
    # has four times the processes of fan 8, and about the same walks per step
    import random

    from conftest import perfbench_gen

    fan = perfbench_gen().fan
    small, large = (
        _scope_walks_per_step(monkeypatch, config(fan(n, random.Random(n)))) for n in (8, 32)
    )
    assert large <= 1.5 * small, (small, large)


def test_a_5000_let_spine_runs_at_the_default_recursion_limit():
    # built as a tree, not parsed (the parser recurses along a spine):
    # let x1 = () in let x2 = x1 in ... in x5000
    import sys

    from pvgr.ast import ELet, VVar, fresh_name

    n = 5000
    names = [fresh_name(f"x{i}") for i in range(1, n + 1)]
    e = EVal(VVar(names[-1]))
    for k in range(n - 1, -1, -1):
        e = ELet(names[k], EVal(VVar(names[k - 1]) if k else VUnit()), e)
    assert sys.getrecursionlimit() <= 1000
    m = Machine(CProc(e))
    out = m.run()
    assert (out.kind, m.steps) == ("final", n)
    assert [pretty(v) for _, v in iter_procs(m.config)] == ["()"]


def test_an_access_points_session_is_normalized_once(monkeypatch):
    # each channel made at the access point starts from the normal form its
    # cell keeps: fan 16 normalizes the parsed `?Int.End` once, not once per
    # channel
    import random

    from conftest import perfbench_gen

    from pvgr import runtime

    cfg = config(perfbench_gen().fan(16, random.Random(16)))
    normalized = []
    real = runtime.normalize
    monkeypatch.setattr(runtime, "normalize", lambda t: normalized.append(t) or real(t))
    assert Machine(cfg, seed=1).run().kind == "final"
    assert sum(t is cfg.ses for t in normalized) == 1


def test_an_access_points_session_is_normalized_only_when_a_step_needs_it(tmp_path, capsys):
    # channels that only close never need it; normalizing this ill-kinded
    # session would not end (an error[internal] once the stack runs out)
    f = tmp_path / "omega.pvgr"
    f.write_text(
        "nuap p : (\\a:1. a a) (\\a:1. a a) . "
        "(<let c = request p in close c> | <let d = accept p in close d>)\n"
    )
    assert main(["run", "--no-check", str(f)]) == 0
    assert capsys.readouterr().out == "final after 4 steps: () | ()\n"
