"""Operational semantics: expression reduction, congruence-based redex
search over configurations, a deterministic scheduler, and the final /
deadlock classifiers.

The redex search flattens each binder scope into its parallel processes
(associativity/commutativity/unit of parallel composition), treats the two
channel ends symmetrically (channel-name swap), and inserts new binders
directly under the governing one (scope extrusion); this is exactly the
congruence closure the reduction rules assume.

A step costs one search, in the manner of the Chemical Abstract Machine
(Berry & Boudol, TCS 1992):

- One walk over an explicit stack yields the configuration's processes and
  binders, depth-first and left-first (a binder before its body). The
  search, the finality test and `iter_procs` all read it; none recurses,
  so a soup of thousands of processes needs no deep Python stack.
- The evaluation hole of each process is keyed once: a `request` or
  `accept` by the uid of its access point, and a `send`, `recv`, `select`,
  `case` or `close` by the channel end that its domain normalizes to, when
  that is a variable. Each binder reads the holes of its access point, or
  of its two ends, from that index and keeps those in its scope, so
  matching a communication redex tests no conversion.
- A CR-Expr candidate is recognized by the shape of its process;
  `step_expr` builds the stepped expression only when the candidate is
  applied.
- `Machine.step` hands the candidates it found to `classify_config`, which
  searches again only when it is called without them.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, NamedTuple

from .anf import flatten_lets, let_in
from .ast import (
    Config,
    CNuAccess,
    CNuChan,
    CPar,
    CProc,
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
    TEnd,
    TRecv,
    TSend,
    TChoice,
    TBranch,
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
    subst1,
)
from .normalize import normalize
from .pretty import pretty

Path = tuple[str, ...]  # 'left' | 'right' | 'body' steps from the root


# ---------------------------------------------------------------------------
# expression reduction (single evaluation context: the let-header hole)
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# configuration traversal
# ---------------------------------------------------------------------------


def _walk(cfg: Config, path: Path = ()) -> Iterator[tuple[Path, Config]]:
    """Every process and binder of cfg with its path, depth-first and
    left-first (a binder before its body), from one loop over an explicit
    stack."""
    stack = [(path, cfg)]
    while stack:
        path, c = stack.pop()
        if isinstance(c, CPar):
            stack.append((path + ("right",), c.right))
            stack.append((path + ("left",), c.left))
        else:
            yield path, c
            if isinstance(c, (CNuChan, CNuAccess)):
                stack.append((path + ("body",), c.body))


def iter_procs(cfg: Config, path: Path = ()) -> Iterator[tuple[Path, Expr]]:
    return ((p, c.expr) for p, c in _walk(cfg, path) if isinstance(c, CProc))


def get_at(cfg: Config, path: Path) -> Config:
    for step in path:
        cfg = getattr(cfg, step)
    return cfg


def replace_at(cfg: Config, path: Path, new: Config) -> Config:
    if not path:
        return new
    step = path[0]
    return replace(cfg, **{step: replace_at(getattr(cfg, step), path[1:], new)})


def replace_proc(cfg: Config, path: Path, new_expr: Expr) -> Config:
    return replace_at(cfg, path, CProc(new_expr))


# ---------------------------------------------------------------------------
# redexes
# ---------------------------------------------------------------------------


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


def _show(*ops: Expr) -> Callable[[], str]:
    return lambda: " | ".join(pretty(op) for op in ops)


def _reduces(e: Expr) -> bool:
    """Whether `step_expr(e) is not None`, decided without building the step."""
    while isinstance(e, ELet):
        if isinstance(e.head, EVal):
            return True
        e = e.head
    match e:
        case EApp(VAbs()) | EProj(_, VPair()) | ETApp(VTAbs()):
            return True
    return False


# a process's evaluation hole: its position in the walk, path, operation, plug
Hole = tuple[int, Path, Expr, Callable[[Expr], Expr]]


def find_candidates(cfg: Config) -> list[Candidate]:
    out: list[Candidate] = []
    points: dict[int, list[Hole]] = {}  # access-point uid -> request/accept holes
    ends: dict[Name, list[Hole]] = {}  # channel end -> send/recv/select/case/close holes
    binders: list[tuple[Path, Config]] = []

    # CR-Expr / CR-Fork / CR-New per process; every other hole is indexed
    for i, (path, node) in enumerate(_walk(cfg)):
        if not isinstance(node, CProc):
            binders.append((path, node))
            continue
        e = node.expr
        hole = split_eval(e)
        if hole is None:
            continue
        op, plug = hole
        if _reduces(e):
            out.append(
                Candidate("CR-Expr", _show(op), lambda c, p=path, e=e: replace_proc(c, p, step_expr(e)))
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
            case ERequest(VVar(x)) | EAccept(VVar(x)):
                points.setdefault(x.uid, []).append((i, path, op, plug))
            case (
                ESend(_, VChan(dom)) | ERecv(VChan(dom)) | ESelect(_, VChan(dom))
                | ECase(VChan(dom), _, _) | EClose(VChan(dom))
            ):
                # conv(dom, TVar(end)) holds exactly when dom normalizes to TVar(end)
                nd = normalize(dom)
                if isinstance(nd, TVar):
                    ends.setdefault(nd.name, []).append((i, path, op, plug))

    # communication rules per governing binder, over the holes in its scope
    for bpath, binder in binders:
        under = bpath + ("body",)
        n = len(under)
        if isinstance(binder, CNuAccess):
            inner = [h for h in points.get(binder.binder.uid, ()) if h[1][:n] == under]
            reqs = [h[1:] for h in inner if isinstance(h[2], ERequest)]
            accs = [h[1:] for h in inner if isinstance(h[2], EAccept)]
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
            tagged = sorted(  # both ends' holes, back in walk order
                [(h, end) for end in (binder.end1, binder.end2) for h in ends.get(end, ())],
                key=lambda t: t[0][0],
            )

            sends, recvs, selects, cases, closes = [], [], [], [], []
            for (_, p, op, plug), end in tagged:
                if p[:n] != under:
                    continue
                match op:
                    case ESend(payload, _):
                        sends.append((p, end, payload, plug, op))
                    case ERecv(_):
                        recvs.append((p, end, plug, op))
                    case ESelect(lab, _):
                        selects.append((p, end, lab, plug, op))
                    case ECase(_, bl, br):
                        cases.append((p, end, bl, br, plug, op))
                    case EClose(_):
                        closes.append((p, end, plug, op))

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


# ---------------------------------------------------------------------------
# classification (final / deadlock / reducible)
# ---------------------------------------------------------------------------


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


def is_final(cfg: Config) -> bool:
    """Every process a value and every channel closed or at End."""
    chans = []
    for _, c in _walk(cfg):
        if isinstance(c, CProc):
            if not isinstance(c.expr, EVal):
                return False
        elif isinstance(c, CNuChan):
            chans.append(c)
    return all(c.closed or isinstance(normalize(c.ses), TEnd) for c in chans)


def _blocked_site(path: Path, op: Expr) -> BlockedSite | None:
    match op:
        case EAccept(v):
            return BlockedSite(path, "accept", pretty(v))
        case ERequest(v):
            return BlockedSite(path, "request", pretty(v))
        case ESend(_, VChan(d)):
            return BlockedSite(path, "send", pretty(d))
        case ERecv(VChan(d)):
            return BlockedSite(path, "recv", pretty(d))
        case ESelect(_, VChan(d)):
            return BlockedSite(path, "select", pretty(d))
        case ECase(VChan(d), _, _):
            return BlockedSite(path, "case", pretty(d))
        case EClose(VChan(d)):
            return BlockedSite(path, "close", pretty(d))
    return None


def classify_config(cfg: Config, cands: list[Candidate] | None = None):
    """'final' | ('deadlock', DeadlockReport) | 'reducible', per the paper's
    predicates: deadlocked iff every process is a value or blocked on a
    communication (not fork/new) and no matchable pair exists.

    `cands`, when given, must be `find_candidates(cfg)`; it is then not
    searched for again. A configuration with a candidate is reducible: no
    candidate comes from a value, a CR-Expr, CR-Fork or CR-New candidate
    comes from a process the loop below calls reducible, and any other
    candidate is a matchable pair."""
    if cands:
        return "reducible"
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
    if cands is None:
        cands = find_candidates(cfg)
    if any(c.rule != "CR-Expr" for c in cands):
        return "reducible"
    sites = (_blocked_site(path, op) for path, op in blocked)
    return ("deadlock", DeadlockReport(tuple(site for site in sites if site is not None)))


# ---------------------------------------------------------------------------
# the machine
# ---------------------------------------------------------------------------


class StepOutcome(NamedTuple):
    kind: str  # 'stepped' | 'final' | 'deadlock' | 'out-of-fuel'
    config: Config
    rule: str | None = None
    report: DeadlockReport | None = None


class Machine:
    """Steps a configuration with a seeded scheduler. `trace`, when given,
    receives one line per step taken: the step index, the rule and the
    redex, separated by tabs. Without it no line is formatted."""

    def __init__(
        self, config: Config, max_steps: int = 100_000, seed: int = 0, trace: list[str] | None = None
    ) -> None:
        self.config = _flatten_procs(config)
        self.max_steps = max_steps
        self.seed = seed
        self.steps = 0
        self.trace = trace
        self._rng = random.Random(seed)

    def step(self) -> StepOutcome:
        cands = find_candidates(self.config)
        cls = classify_config(self.config, cands)
        if cls == "final":
            return StepOutcome("final", self.config)
        if isinstance(cls, tuple):
            return StepOutcome("deadlock", self.config, report=cls[1])
        if self.steps >= self.max_steps:
            return StepOutcome("out-of-fuel", self.config)
        if not cands:
            # stuck without being a paper deadlock: only reachable off the
            # well-typed fragment; report as deadlock with no sites
            return StepOutcome("deadlock", self.config, report=DeadlockReport(()))
        idx = 0 if self.seed == 0 else self._rng.randrange(len(cands))
        chosen = cands[idx]
        self.config = chosen.apply(self.config)
        if self.trace is not None:
            self.trace.append(f"{self.steps}\t{chosen.rule}\t{chosen.describe()}")
        self.steps += 1
        return StepOutcome("stepped", self.config, rule=chosen.rule)

    def run(self) -> StepOutcome:
        while True:
            out = self.step()
            if out.kind != "stepped":
                return out


def _flatten_procs(cfg: Config) -> Config:
    """cfg with every process flat, the shape each step keeps (see pvgr.anf)."""
    match cfg:
        case CProc(e):
            return replace(cfg, expr=flatten_lets(e))
        case CPar(l, r):
            return replace(cfg, left=_flatten_procs(l), right=_flatten_procs(r))
        case _:
            return replace(cfg, body=_flatten_procs(cfg.body))


def run_expr(e: Expr, max_steps: int = 100_000, seed: int = 0) -> StepOutcome:
    return Machine(CProc(e), max_steps=max_steps, seed=seed).run()
