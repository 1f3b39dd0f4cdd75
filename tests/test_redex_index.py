"""The indexed redex search against the earlier search in `runtime_ref`.

Every configuration reached from the corpus programs, from five untyped
configurations and from perfbench's chain, fan and hold programs at N = 3
under scheduler seeds 0-10, and from those at N = 8 and 16 under seeds 0-2,
gets the same candidates from both searches (rule and trace text, in
order) and the same classification. Under seeds 0-2 at N = 3 and seed 0 at
N = 8 and 16, each candidate's `apply` also gives a configuration equal,
up to the names of binders, to that of the reference candidate at the same
index. Each program and seed also runs to the same outcome, step count and
trace on both machines. The whole file runs in about 5 s.
"""

from __future__ import annotations

import random

import pytest
import runtime_ref
from conftest import corpus_files, perfbench_gen

from pvgr import runtime
from pvgr.anf import anf_transform
from pvgr.ast import CPar, CProc, EClose, TVar, VChan, canonicalize
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


def _sources() -> dict[str, tuple[str, range]]:
    """Each program's text and the scheduler seeds it is run under."""
    out = {path.name: (path.read_text(), SEEDS) for path in corpus_files()}
    out.update({name: (src, SEEDS) for name, src in UNTYPED.items()})
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
            cands = runtime.find_candidates(ref.config)
            ref_cands = ref_search(ref.config)
            assert _shown(cands) == _shown(ref_cands), (seed, ref.steps)
            ref_cls = runtime_ref.classify_config(ref.config)
            assert runtime.classify_config(ref.config) == ref_cls, (seed, ref.steps)
            if seed in APPLY_SEEDS[seeds]:
                for k, (cand, ref_cand) in enumerate(zip(cands, ref_cands)):
                    got, want = cand.apply(ref.config), ref_cand.apply(ref.config)
                    assert canonicalize(got) == canonicalize(want), (seed, ref.steps, k)
            ref_out = ref.step()
            if ref_out.kind != "stepped":
                break
        new = runtime.Machine(cfg, seed=seed, trace=[])
        assert _outcome(new, new.run()) == _outcome(ref, ref_out), seed


def test_holes_outside_a_binder_do_not_match_its_ends():
    # an end's name used outside its binder (no parsed program does this)
    # is out of the binder's scope, so it makes no redex with the inside
    inner = parse_program("nu a b : End . <close (chan a)>").config
    outside = CProc(EClose(VChan(TVar(inner.end2))))
    for cfg in (CPar(inner, outside), CPar(outside, inner)):
        assert _shown(runtime.find_candidates(cfg)) == _shown(runtime_ref.find_candidates(cfg)) == []
