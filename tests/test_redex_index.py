"""The indexed redex search against the earlier search in `runtime_ref`.

Every configuration reached from the corpus programs, from five untyped
configurations, two that reach rare machine branches and four stuck
processes, and from perfbench's chain, fan and hold programs at N = 3
under scheduler seeds 0-10, and from those at N = 8 and 16 under seeds 0-2,
gets the same candidates from both searches (rule and trace text, in
order) and the same classification. Under seeds 0-2 at N = 3 and seed 0 at
N = 8 and 16, each candidate, applied to a `Soup` of its own built from
the configuration, also gives a configuration equal, up to the names of
binders, to that of the reference candidate at the same index. Each
program and seed also runs to the same outcome, step count and trace on
both machines, and so does fan 40, which runs out of label gap in the
walk order (fan 32 does not). At every step of the same programs but
those at N = 16, under seeds 0-3, the machine's walk order brackets its
configuration: labels grow along it, each close mark ends the cell opened
last, and reading it back and building a `Soup` from that gives the same
configuration again; and no process's control is a let, and the
classifier takes a process for a value exactly when its control is a value
that no let waits for. The whole file runs in about 8 s.
"""

from __future__ import annotations

import random

import pytest
import runtime_ref
from conftest import corpus_files, perfbench_gen

from pvgr import runtime
from pvgr.anf import anf_transform
from pvgr.ast import CPar, CProc, EClose, ELet, EVal, TVar, VChan, canonicalize
from pvgr.parser import parse_program
from pvgr.pretty import pretty

SEEDS = range(11)
SIZES = (3, 8, 16)
# The reference search on the larger programs costs up to a few ms per
# configuration, so they take fewer seeds to keep this file under 5 s.
LARGE_SEEDS = range(3)
# The seeds under which every candidate is applied, per size of program.
APPLY_SEEDS = {SEEDS: range(3), LARGE_SEEDS: range(1)}


# Configurations outside the well-typed fragment that no program above
# reaches: holes on both ends of one channel, in the walk order opposite to
# the binder's, and a channel named by a domain that only normalizes to an
# end. The last two hold the environments of one lambda's applications
# apart: a let-bound lambda applied twice in one process, and a closure
# over a parameter applied before and after another application of the
# lambda that made it. An environment that leaks a binding from one
# application into another ends with other channels in the final values.
UNTYPED = {
    "sends-on-both-ends": "nu a b : !Int.End . (<send () (chan b)> | <send () (chan a)>"
    " | <recv (chan a)> | <recv (chan b)>)",
    "closes-on-both-ends": "nu a b : End . (<close (chan b)> | <close (chan a)>)",
    "projected-end": "nu a b : ?Int.End . (<let x = recv (chan (pi1 (a, {}))) in"
    " close (chan (pi1 (a, {})))> | <let y = send () (chan b) in close (chan b)>)",
    "lambda-applied-twice": "nu a b : End . <let f = \\[.](x: Unit). let y = (x, ()) in y in"
    " let p = f (chan a) in let q = f (chan b) in (p, q)>",
    "closure-over-parameter": "nu a b : End . <let mk = \\[.](x: Unit). \\[.](u: Unit). x in"
    " let g = mk (chan a) in let c1 = g () in let h = mk (chan b) in let c2 = g () in"
    " let c3 = h () in (c1, (c2, c3))>",
}


# Configurations that reach machine branches no other program here does: a
# fork in the right operand of `|` puts its parallel cell there, and a
# `let [c]` whose head is a nested spine ending in a channel resolves c at
# the CR-Expr step that hands it the spine's value.
BRANCHES = {
    "fork-on-the-right": "<()> | <let z = fork (\\[.](w:Unit). ()) in z>",
    "nested-head-resolves-exname": "nuap ap : End . (<let [c] x = (let y = request ap in y) in close (chan c)>"
    " | <let u = accept ap in close u>)",
}

# Processes stuck off the well-typed fragment. A request on a value that is
# not an access point, and a close of a channel over no end, are blocked, so
# each deadlocks with its site; the others
# are neither values nor redexes nor blocked, so no deadlock predicate
# holds, and the machine reports a deadlock with no sites (a fork of a
# value that is not a lambda one step later).
STUCK = {
    "stuck-app": "<let x = () () in x>",
    "stuck-send": "<send () ()>",
    "stuck-request": "<request ()>",
    "stuck-fork": "<fork ()>",
    "stuck-close": "<close (chan {})>",
}


def _sources() -> dict[str, tuple[str, range]]:
    """Each program's text and the scheduler seeds it is run under."""
    out = {path.name: (path.read_text(), SEEDS) for path in corpus_files()}
    out.update({name: (src, SEEDS) for name, src in {**UNTYPED, **BRANCHES, **STUCK}.items()})
    for family, make in perfbench_gen().FAMILIES.items():
        for n in SIZES:
            out[f"{family}{n}"] = (make(n, random.Random(n)), SEEDS if n == min(SIZES) else LARGE_SEEDS)
    return out


SOURCES = _sources()


def _config(name: str):
    prog = parse_program(SOURCES[name][0], filename=name)
    return prog.config if prog.config is not None else CProc(anf_transform(prog.expr))


def _shown(cands) -> list[tuple[str, str]]:
    return [(c.rule, c.describe()) for c in cands]


def _classified(cls) -> tuple:
    """A classification's kind, and the operation and subject of each site
    its deadlock report names, in order."""
    if isinstance(cls, tuple):
        return cls[0], [(b.operation, b.subject) for b in cls[1].blocked]
    return cls, []


def _outcome(m, out) -> tuple:
    values = [pretty(e) for _, e in runtime.iter_procs(m.config)] if out.kind == "final" else []
    return out.kind, m.steps, m.trace, str(out.report), values


@pytest.fixture
def ref_search(monkeypatch):
    """The reference search, run once per configuration: the reference
    machine's step and classifier reuse the list last found when they are
    given the same configuration object."""
    search = runtime_ref.find_candidates
    last: list = [None, None]

    def once(cfg):
        if last[0] is not cfg:
            last[:] = [cfg, search(cfg)]
        return last[1]

    monkeypatch.setattr(runtime_ref, "find_candidates", once)
    return once


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_indexed_search_agrees_with_reference(name, ref_search):
    cfg = _config(name)
    seeds = SOURCES[name][1]
    for seed in seeds:
        ref = runtime_ref.Machine(cfg, seed=seed)
        while True:
            soup = runtime.Soup(ref.config)
            cands = runtime.find_candidates(soup)
            ref_cands = ref_search(ref.config)
            assert _shown(cands) == _shown(ref_cands), (seed, ref.steps)
            ref_cls = runtime_ref.classify_config(ref.config)
            assert _classified(runtime.classify_config(soup)) == _classified(ref_cls), (seed, ref.steps)
            if seed in APPLY_SEEDS[seeds]:
                for k, ref_cand in enumerate(ref_cands):
                    fresh = runtime.Soup(ref.config)
                    fresh.apply(runtime.find_candidates(fresh)[k])
                    want = ref_cand.apply(ref.config)
                    assert canonicalize(fresh.config()) == canonicalize(want), (seed, ref.steps, k)
            ref_out = ref.step()
            if ref_out.kind != "stepped":
                break
        new = runtime.Machine(cfg, seed=seed, trace=[])
        assert _outcome(new, new.run()) == _outcome(ref, ref_out), seed


def test_running_out_of_label_gap_relabels_as_reference(monkeypatch, ref_search):
    # the walk order starts with 2**32 between neighbours, and each of fan's
    # rendezvous inserts a channel cell under the access point, halving the
    # gap there: fan 32 still fits, and fan 40 relabels once (after the
    # relabelling that builds the soup)
    relabels = []
    relabel = runtime.Soup._relabel
    monkeypatch.setattr(runtime.Soup, "_relabel", lambda soup: relabels.append(1) or relabel(soup))
    fan = perfbench_gen().fan
    runtime.Machine(parse_program(fan(32, random.Random(32))).config).run()
    assert len(relabels) == 1
    relabels.clear()
    big = parse_program(fan(40, random.Random(40))).config
    runtime.Machine(big).run()
    assert len(relabels) == 2
    for seed in range(3):
        ref = runtime_ref.Machine(big, seed=seed)
        new = runtime.Machine(big, seed=seed, trace=[])
        assert _outcome(new, new.run()) == _outcome(ref, ref.run()), seed


def test_holes_outside_a_binder_do_not_match_its_ends():
    # an end's name used outside its binder (no parsed program does this)
    # is out of the binder's scope, so it makes no redex with the inside
    inner = parse_program("nu a b : End . <close (chan a)>").config
    outside = CProc(EClose(VChan(TVar(inner.end2))))
    for cfg in (CPar(inner, outside), CPar(outside, inner)):
        cands = runtime.find_candidates(runtime.Soup(cfg))
        assert _shown(cands) == _shown(runtime_ref.find_candidates(cfg)) == []


def _assert_brackets(soup: runtime.Soup) -> None:
    """Labels strictly increase from `soup.first` to `soup.last`, every close
    mark ends the cell opened last, a parallel cell closes on two parts and
    a binder on one, and the whole list holds one configuration."""
    opened: list = [(None, [])]  # each open cell, with the parts it holds
    m = soup.first
    while m.next is not soup.last:
        assert m.label < m.next.label
        m = m.next
        if m.__class__ is runtime._Proc:
            opened[-1][1].append(m)
        elif m.__class__ is not runtime._Mark:
            opened.append((m, []))
        else:
            cell, parts = opened.pop()
            assert cell is not None and m is cell.close
            assert len(parts) == (2 if cell.__class__ is runtime._Par else 1)
            opened[-1][1].append(cell)
    assert m.label < soup.last.label
    assert len(opened) == 1 and len(opened[0][1]) == 1


def _assert_controls(soup: runtime.Soup) -> None:
    """No process's control is a let, and `classify_config` takes a process
    for a value exactly when its control is a value that no let waits for:
    a process that is neither such a value nor blocked makes it say
    reducible, and when there is none it says so only for a candidate."""
    procs = list(soup.procs())
    assert not any(p.expr.__class__ is ELet for p in procs)
    moving = any(not p.blocked and (p.expr.__class__ is not EVal or p.lets) for p in procs)
    reducible = runtime.classify_config(soup) == "reducible"
    assert reducible == (moving or bool(runtime.find_candidates(soup)))


@pytest.mark.parametrize("name", sorted(name for name in SOURCES if not name.endswith(str(max(SIZES)))))
def test_walk_order_brackets_the_configuration(name):
    cfg = _config(name)
    for seed in range(4):
        m = runtime.Machine(cfg, seed=seed)
        while True:
            _assert_brackets(m.soup)
            _assert_controls(m.soup)
            now = m.config
            assert canonicalize(runtime.Soup(now).config()) == canonicalize(now), (seed, m.steps)
            if m.step().kind != "stepped":
                break
