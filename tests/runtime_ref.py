"""The redex search, classifier and machine step as they were before the
runtime indexed its holes: the reference that `test_redex_index.py` holds
the indexed search to.

The functions below are the earlier `pvgr.runtime` code, copied without
change: the recursive `iter_procs`/`iter_binders`/`is_final`, a search that
tests every hole against both ends of every binder with `conv`, builds
every CR-Expr step up front and hands out each candidate as a pair of
closures (its `Candidate`, `_PRIORITY` table and `replace_proc` are copied
too), a classifier that searches on its own, and a `Machine.step` that
searches a second time. The expression steps, the classifier of one
process, the paths into a configuration tree and the machine's state as
such a tree are copied from the `pvgr.runtime` that substituted (before it
became an environment machine over live cells), so nothing here runs
`pvgr.runtime`. This module is kept apart from `oracles.py`, which
perfbench loads to verify outputs.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, NamedTuple

from conftest import flatten_lets
from oracles import subst1

from pvgr.anf import let_in
from pvgr.ast import (
    CNuAccess,
    CNuChan,
    CPar,
    CProc,
    Config,
    DomMerge,
    DomZero,
    EAccept,
    EApp,
    ECase,
    EClose,
    EFork,
    ELet,
    ENew,
    EProj,
    ERecv,
    ERequest,
    ESelect,
    ESend,
    ETApp,
    EVal,
    Expr,
    Label,
    Name,
    TBranch,
    TChoice,
    TEnd,
    TRecv,
    TSend,
    TVar,
    Type,
    VAbs,
    VChan,
    VPair,
    VTAbs,
    VUnit,
    VVar,
    Value,
    fresh_name,
    replace,
)
from pvgr.normalize import conv, normalize
from pvgr.parser import OPERATIONS
from pvgr.pretty import pretty


Path = tuple[str, ...]  # 'left' | 'right' | 'body' steps from the root


def _value_domains(v: Value) -> Type | None:
    """The domain aggregate a value's channels form, read off structurally."""
    match v:
        case VChan(d):
            return d
        case VUnit():
            return DomZero()
        case VPair(l, r):
            dl, dr = _value_domains(l), _value_domains(r)
            if dl is not None and dr is not None:
                return DomMerge(dl, dr)
            return None
        case _:
            return None


def _resolve_exnames(e: ELet) -> ELet:
    """Discharge `let [c] x = v in body` by instantiating the named
    existential with the value's concrete domain (single-name form only)."""
    if len(e.exnames) == 1:
        d = _value_domains(e.head.value)
        if d is not None:
            return ELet(e.binder, e.head, subst1(e.exnames[0], d, e.body), span=e.span)
    return e


def step_expr(e: Expr) -> Expr | None:
    """One expression-level step, or None when no redex exists. The result
    of a flat expression is flat (see pvgr.anf)."""
    match e:
        case ELet(_, EVal(v), _):
            e = _resolve_exnames(e)
            return subst1(e.binder, v, e.body)
        case ELet(binder, head, body):
            h = step_expr(head)
            if h is None:
                return None
            return let_in(binder, h, body, e.exnames, e.span)
        case EApp(VAbs(_, binder, _, fbody), arg):
            return flatten_lets(subst1(binder, arg, fbody))
        case EProj(lab, VPair(l, r)):
            return EVal(l if lab is Label.L1 else r)
        case ETApp(VTAbs(binder, _, _, vbody), ty):
            return EVal(subst1(binder, ty, vbody))
        case _:
            return None


def classify_expr(e: Expr) -> str:
    """'value' | 'comm' | 'reducible' (total; unspecified on ill-typed input)."""
    if isinstance(e, EVal):
        return "value"
    if _is_comm(e):
        return "comm"
    return "reducible"


def _is_comm(e: Expr) -> bool:
    match e:
        case EFork(VAbs()):
            return True
        case ENew(_) | EAccept(_) | ERequest(_):
            return True
        case ESend(_, VChan(_)) | ERecv(VChan(_)) | ESelect(_, VChan(_)) | EClose(VChan(_)):
            return True
        case ECase(VChan(_), _, _):
            return True
        case ELet(_, head, _):
            return _is_comm(head)
        case _:
            return False


def split_eval(e: Expr) -> tuple[Expr, Callable[[Expr], Expr]] | None:
    """The header redex position of a flat e and its plug function, which
    keeps e flat; None for values."""
    match e:
        case EVal(_):
            return None
        case ELet(binder, head, body):

            def plug(h: Expr, e=e) -> Expr:
                if isinstance(h, EVal):
                    let = ELet(e.binder, h, e.body, exnames=e.exnames, span=e.span)
                    return _resolve_exnames(let)
                return let_in(e.binder, h, e.body, e.exnames, e.span)

            return head, plug
        case _:
            return e, flatten_lets


def get_at(cfg: Config, path: Path) -> Config:
    for step in path:
        cfg = getattr(cfg, step)
    return cfg


def replace_at(cfg: Config, path: Path, new: Config) -> Config:
    """cfg with the node at path replaced by new, rebuilt in two loops along
    the path."""
    spine = []
    for step in path:
        spine.append(cfg)
        cfg = getattr(cfg, step)
    for node, step in zip(reversed(spine), reversed(path)):
        new = replace(node, **{step: new})
    return new


class BlockedSite(NamedTuple):
    path: Path
    operation: str
    subject: str  # pretty channel end or access point

    def __str__(self) -> str:
        return f"{self.operation} on {self.subject}"


class DeadlockReport(NamedTuple):
    blocked: tuple[BlockedSite, ...]

    def __str__(self) -> str:
        return "; ".join(str(b) for b in self.blocked)


def _blocked_site(path: Path, op: Expr) -> BlockedSite | None:
    match op:
        case (
            EAccept(subject) | ERequest(subject) | ESend(_, VChan(subject)) | ERecv(VChan(subject))
            | ESelect(_, VChan(subject)) | ECase(VChan(subject), _, _) | EClose(VChan(subject))
        ):
            return BlockedSite(path, OPERATIONS[op.__class__], pretty(subject))
    return None


class StepOutcome(NamedTuple):
    kind: str  # 'stepped' | 'final' | 'deadlock' | 'out-of-fuel'
    config: Config
    rule: str | None = None
    report: DeadlockReport | None = None


def replace_proc(cfg: Config, path: Path, new_expr: Expr) -> Config:
    return replace_at(cfg, path, CProc(new_expr))


class Candidate(NamedTuple):
    rule: str
    describe: Callable[[], str]  # the trace text, formatted on demand
    apply: Callable[[Config], Config]


_PRIORITY = {
    "CR-Expr": 0,
    "CR-Fork": 1,
    "CR-New": 2,
    "CR-RequestAccept": 3,
    "CR-SendRecv": 4,
    "CR-SelectCase": 5,
    "CR-Close": 6,
}


def iter_procs(cfg: Config, path: Path = ()) -> Iterator[tuple[Path, Expr]]:
    match cfg:
        case CProc(e):
            yield path, e
        case CPar(l, r):
            yield from iter_procs(l, path + ("left",))
            yield from iter_procs(r, path + ("right",))
        case CNuChan(_, _, _, body, _):
            yield from iter_procs(body, path + ("body",))
        case CNuAccess(_, _, body):
            yield from iter_procs(body, path + ("body",))


def iter_binders(cfg: Config, path: Path = ()) -> Iterator[tuple[Path, Config]]:
    match cfg:
        case CNuChan(_, _, _, body, _) | CNuAccess(_, _, body):
            yield path, cfg
            yield from iter_binders(body, path + ("body",))
        case CPar(l, r):
            yield from iter_binders(l, path + ("left",))
            yield from iter_binders(r, path + ("right",))
        case _:
            return



def _is_end(dom: Type, end: Name) -> bool:
    return conv(dom, TVar(end))


def _show(*ops: Expr) -> Callable[[], str]:
    return lambda: " | ".join(pretty(op) for op in ops)


def find_candidates(cfg: Config) -> list[Candidate]:
    out: list[Candidate] = []
    holes: list[tuple[Path, Expr, Callable[[Expr], Expr]]] = []

    # CR-Expr / CR-Fork / CR-New per process
    for path, e in iter_procs(cfg):
        hole = split_eval(e)
        if hole is None:
            continue
        op, plug = hole
        holes.append((path, op, plug))
        stepped = step_expr(e)
        if stepped is not None:
            out.append(
                Candidate("CR-Expr", _show(op), lambda c, p=path, s=stepped: replace_proc(c, p, s))
            )
        match op:
            case EFork(v):
                def apply_fork(c: Config, p=path, plug=plug, v=v) -> Config:
                    cont = CProc(plug(EVal(VUnit())))
                    child = CProc(EApp(v, VUnit()))
                    return replace_at(c, p, CPar(cont, child))

                out.append(Candidate("CR-Fork", _show(op), apply_fork))
            case ENew(ses):
                def apply_new(c: Config, p=path, plug=plug, ses=ses) -> Config:
                    ap = fresh_name("p")
                    return replace_at(c, p, CNuAccess(ap, ses, CProc(plug(EVal(VVar(ap))))))

                out.append(Candidate("CR-New", _show(op), apply_new))

    # communication rules per governing binder
    for bpath, binder in iter_binders(cfg):
        under = bpath + ("body",)
        inner = [h for h in holes if h[0][: len(under)] == under]
        if isinstance(binder, CNuAccess):
            x = binder.binder
            reqs = [
                (p, op, plug)
                for p, op, plug in inner
                if isinstance(op, ERequest) and isinstance(op.value, VVar) and op.value.name.uid == x.uid
            ]
            accs = [
                (p, op, plug)
                for p, op, plug in inner
                if isinstance(op, EAccept) and isinstance(op.value, VVar) and op.value.name.uid == x.uid
            ]
            for rp, rop, rplug in reqs:
                for ap_, aop, aplug in accs:
                    if rp == ap_:
                        continue

                    def apply_ra(
                        c: Config, bp=bpath, rp=rp, ap=ap_, rplug=rplug, aplug=aplug
                    ) -> Config:
                        nacc = get_at(c, bp)
                        c1 = fresh_name("c")
                        c2 = fresh_name("c")
                        rel_r, rel_a = rp[len(bp) + 1 :], ap[len(bp) + 1 :]
                        body = nacc.body
                        body = replace_proc(body, rel_a, aplug(EVal(VChan(TVar(c1)))))
                        body = replace_proc(body, rel_r, rplug(EVal(VChan(TVar(c2)))))
                        wrapped = CNuChan(c1, c2, nacc.ses, body)
                        return replace_at(c, bp, replace(nacc, body=wrapped))

                    out.append(Candidate("CR-RequestAccept", _show(rop, aop), apply_ra))
        elif isinstance(binder, CNuChan) and not binder.closed:
            e1, e2 = binder.end1, binder.end2
            ends = (e1, e2)

            def end_of(dom: Type) -> Name | None:
                for end in ends:
                    if _is_end(dom, end):
                        return end
                return None

            sends, recvs, selects, cases, closes = [], [], [], [], []
            for p, op, plug in inner:
                match op:
                    case ESend(payload, VChan(dom)) if end_of(dom) is not None:
                        sends.append((p, end_of(dom), payload, plug, op))
                    case ERecv(VChan(dom)) if end_of(dom) is not None:
                        recvs.append((p, end_of(dom), plug, op))
                    case ESelect(lab, VChan(dom)) if end_of(dom) is not None:
                        selects.append((p, end_of(dom), lab, plug, op))
                    case ECase(VChan(dom), bl, br) if end_of(dom) is not None:
                        cases.append((p, end_of(dom), bl, br, plug, op))
                    case EClose(VChan(dom)) if end_of(dom) is not None:
                        closes.append((p, end_of(dom), plug, op))

            def advance(ses: Type) -> Type:
                h = normalize(ses)
                if isinstance(h, (TSend, TRecv)):
                    return h.cont
                return ses

            def pick(ses: Type, lab: Label) -> Type:
                h = normalize(ses)
                if isinstance(h, (TChoice, TBranch)):
                    return h.left if lab is Label.L1 else h.right
                return ses

            for sp_, send_end, payload, splug, sop in sends:
                for rp_, recv_end, rplug, rop in recvs:
                    if send_end.uid == recv_end.uid or sp_ == rp_:
                        continue

                    def apply_sr(
                        c: Config, bp=bpath, sp=sp_, rp=rp_, splug=splug, rplug=rplug, payload=payload
                    ) -> Config:
                        nu = get_at(c, bp)
                        body = nu.body
                        body = replace_proc(body, sp[len(bp) + 1 :], splug(EVal(VUnit())))
                        body = replace_proc(body, rp[len(bp) + 1 :], rplug(EVal(payload)))
                        return replace_at(c, bp, replace(nu, ses=advance(nu.ses), body=body))

                    out.append(Candidate("CR-SendRecv", _show(sop, rop), apply_sr))
            for sp_, sel_end, lab, splug, sop in selects:
                for cp_, case_end, bl, br, cplug, cop in cases:
                    if sel_end.uid == case_end.uid or sp_ == cp_:
                        continue

                    def apply_sc(
                        c: Config, bp=bpath, sp=sp_, cp=cp_, splug=splug, cplug=cplug, lab=lab, bl=bl, br=br
                    ) -> Config:
                        nu = get_at(c, bp)
                        body = nu.body
                        chosen = bl if lab is Label.L1 else br
                        body = replace_proc(body, sp[len(bp) + 1 :], splug(EVal(VUnit())))
                        body = replace_proc(body, cp[len(bp) + 1 :], cplug(chosen))
                        return replace_at(c, bp, replace(nu, ses=pick(nu.ses, lab), body=body))

                    out.append(Candidate("CR-SelectCase", _show(sop, cop), apply_sc))
            for i, (p1, end_a, plug_a, op_a) in enumerate(closes):
                for p2, end_b, plug_b, op_b in closes[i + 1 :]:
                    if end_a.uid == end_b.uid or p1 == p2:
                        continue

                    def apply_close(
                        c: Config, bp=bpath, p1=p1, p2=p2, plug_a=plug_a, plug_b=plug_b
                    ) -> Config:
                        nu = get_at(c, bp)
                        body = nu.body
                        body = replace_proc(body, p1[len(bp) + 1 :], plug_a(EVal(VUnit())))
                        body = replace_proc(body, p2[len(bp) + 1 :], plug_b(EVal(VUnit())))
                        return replace_at(c, bp, replace(nu, closed=True, body=body))

                    out.append(Candidate("CR-Close", _show(op_a, op_b), apply_close))

    out.sort(key=lambda c: _PRIORITY[c.rule])
    return out


def is_final(cfg: Config) -> bool:
    match cfg:
        case CProc(e):
            return isinstance(e, EVal)
        case CPar(l, r):
            return is_final(l) and is_final(r)
        case CNuAccess(_, _, body):
            return is_final(body)
        case CNuChan(_, _, ses, body, closed):
            return (closed or isinstance(normalize(ses), TEnd)) and is_final(body)
    return False


def classify_config(cfg: Config):
    """'final' | ('deadlock', DeadlockReport) | 'reducible', per the paper's
    predicates: deadlocked iff every process is a value or blocked on a
    communication (not fork/new) and no matchable pair exists."""
    if is_final(cfg):
        return "final"
    blocked: list[tuple[Path, Expr]] = []
    for path, e in iter_procs(cfg):
        cls = classify_expr(e)
        if cls == "value":
            continue
        if cls != "comm":
            return "reducible"
        op = split_eval(e)[0]
        if isinstance(op, (EFork, ENew)):
            return "reducible"
        blocked.append((path, op))
    if any(c.rule != "CR-Expr" for c in find_candidates(cfg)):
        return "reducible"
    sites = (_blocked_site(path, op) for path, op in blocked)
    return ("deadlock", DeadlockReport(tuple(site for site in sites if site is not None)))


class TreeMachine:
    """The machine's state as a substituted configuration tree: what the
    earlier `pvgr.runtime.Machine` kept, without its `step`."""

    def __init__(
        self, config: Config, max_steps: int = 100_000, seed: int = 0, trace: list[str] | None = None
    ) -> None:
        self.config = _flatten_procs(config)
        self.max_steps = max_steps
        self.seed = seed
        self.steps = 0
        self.trace = trace
        self._rng = random.Random(seed)

    def run(self) -> StepOutcome:
        while True:
            out = self.step()
            if out.kind != "stepped":
                return out


def _flatten_procs(cfg: Config) -> Config:
    """cfg with every process flat, the shape each step keeps (see pvgr.anf).
    The tree is rebuilt bottom-up from an explicit stack, left before right,
    each node with `replace` so that spans stay."""
    stack: list[tuple[Config, bool]] = [(cfg, False)]
    done: list[Config] = []  # rebuilt subtrees, the rightmost last
    while stack:
        c, children_done = stack.pop()
        if isinstance(c, CProc):
            done.append(replace(c, expr=flatten_lets(c.expr)))
        elif not children_done:
            stack.append((c, True))
            if isinstance(c, CPar):
                stack += ((c.right, False), (c.left, False))
            else:
                stack.append((c.body, False))
        elif isinstance(c, CPar):
            right = done.pop()
            done.append(replace(c, left=done.pop(), right=right))
        else:
            done.append(replace(c, body=done.pop()))
    return done.pop()


class Machine(TreeMachine):
    """The earlier machine: `step` as it was, and a trace always kept."""

    def __init__(self, config: Config, max_steps: int = 100_000, seed: int = 0) -> None:
        super().__init__(config, max_steps=max_steps, seed=seed, trace=[])

    def step(self) -> StepOutcome:
        cls = classify_config(self.config)
        if cls == "final":
            return StepOutcome("final", self.config)
        if isinstance(cls, tuple):
            return StepOutcome("deadlock", self.config, report=cls[1])
        if self.steps >= self.max_steps:
            return StepOutcome("out-of-fuel", self.config)
        cands = find_candidates(self.config)
        if not cands:
            # stuck without being a paper deadlock: only reachable off the
            # well-typed fragment; report as deadlock with no sites
            return StepOutcome("deadlock", self.config, report=DeadlockReport(()))
        idx = 0 if self.seed == 0 else self._rng.randrange(len(cands))
        chosen = cands[idx]
        self.config = chosen.apply(self.config)
        self.trace.append(f"{self.steps}\t{chosen.rule}\t{chosen.describe()}")
        self.steps += 1
        return StepOutcome("stepped", self.config, rule=chosen.rule)
