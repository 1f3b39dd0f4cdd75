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
  search, the finality test and `iter_procs` all read it. `replace_at` and
  `_flatten_procs` are loops as well, so a soup of thousands of processes
  needs no deep Python stack.
- The evaluation hole of each process is keyed once: a `request` or
  `accept` by the uid of its access point, and a `send`, `recv`, `select`,
  `case` or `close` by the channel end that its domain normalizes to, when
  that is a variable. Each binder reads the holes of its access point, or
  of its two ends, from that index and keeps those in its scope, so
  matching a communication redex tests no conversion.
- A candidate is data: its rule, the path of its governing binder, and the
  path and expression of each participating process. `Candidate.apply`
  reads each site's operation back with `split_eval`, and so the rule's
  payload: it rewrites one process in place for CR-Expr, CR-Fork and
  CR-New, and rebuilds the binder's body by one rendezvous for the four
  communication rules. `step_expr` runs only inside an applied CR-Expr.
- `Machine.step` searches once per step. A configuration with a candidate
  is reducible, so `classify_config` runs only when the search is empty.
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
from .parser import OPERATIONS
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
    """cfg with the node at path replaced by new, rebuilt in two loops along
    the path."""
    spine = []
    for step in path:
        spine.append(cfg)
        cfg = getattr(cfg, step)
    for node, step in zip(reversed(spine), reversed(path)):
        new = replace(node, **{step: new})
    return new


# ---------------------------------------------------------------------------
# redexes
# ---------------------------------------------------------------------------

# the reduction rules, in the order the scheduler is offered their candidates
RULES = ("CR-Expr", "CR-Fork", "CR-New", "CR-RequestAccept", "CR-SendRecv", "CR-SelectCase", "CR-Close")

# per binder kind, each communication rule and the operations of its two sites
_PAIRS = {
    CNuAccess: (("CR-RequestAccept", ERequest, EAccept),),
    CNuChan: (
        ("CR-SendRecv", ESend, ERecv),
        ("CR-SelectCase", ESelect, ECase),
        ("CR-Close", EClose, EClose),
    ),
}

Site = tuple[Path, Expr]  # a participating process: its path and expression


class Candidate(NamedTuple):
    """A redex as data: its rule, the path of its governing binder (None for
    CR-Expr, CR-Fork and CR-New, which rewrite one process in place), and
    each participating process, in trace order."""

    rule: str
    binder: Path | None
    sites: tuple[Site, ...]

    def describe(self) -> str:
        """The trace text: the operation at each site's hole."""
        return " | ".join(pretty(split_eval(e)[0]) for _, e in self.sites)

    def apply(self, cfg: Config) -> Config:
        if self.binder is None:
            ((path, e),) = self.sites
            return replace_at(cfg, path, _step_alone(self.rule, e))
        return replace_at(cfg, self.binder, _rendezvous(self, get_at(cfg, self.binder)))


def _step_alone(rule: str, e: Expr) -> Config:
    """The process e after its CR-Expr, CR-Fork or CR-New step."""
    if rule == "CR-Expr":
        return CProc(step_expr(e))
    op, plug = split_eval(e)
    if rule == "CR-Fork":
        return CPar(CProc(plug(EVal(VUnit()))), CProc(EApp(op.value, VUnit())))
    ap = fresh_name("p")
    return CNuAccess(ap, op.ses, CProc(plug(EVal(VVar(ap)))))


def _rendezvous(c: Candidate, nu: Config) -> Config:
    """The binder nu after its candidate's two sites meet in its body. A
    request gets the second of two fresh ends and its accept the first; a
    receive gets the payload, a case its chosen branch, and every other site
    unit."""
    n = len(c.binder) + 1
    first, second = c.sites
    op, other = split_eval(first[1])[0], split_eval(second[1])[0]
    if isinstance(op, ERequest):
        c1, c2 = fresh_name("c"), fresh_name("c")
        body = _fill(nu.body, n, second, EVal(VChan(TVar(c1))))  # the accept side first
        body = _fill(body, n, first, EVal(VChan(TVar(c2))))
        return replace(nu, body=CNuChan(c1, c2, nu.ses, body))
    match op:
        case ESend(payload, _):
            got = EVal(payload)
        case ESelect(lab, _):
            got = other.left if lab is Label.L1 else other.right
        case _:
            got = EVal(VUnit())
    body = _fill(_fill(nu.body, n, first, EVal(VUnit())), n, second, got)
    if isinstance(op, EClose):
        return replace(nu, closed=True, body=body)
    return replace(nu, ses=_session_after(nu.ses, op), body=body)


def _fill(body: Config, n: int, site: Site, h: Expr) -> Config:
    """body with the hole of the process at site (a path n steps below
    body's root) plugged with h."""
    path, e = site
    return replace_at(body, path[n:], CProc(split_eval(e)[1](h)))


def _session_after(ses: Type, op: Expr) -> Type:
    """A channel's session after a send, or after a select of a branch; ses
    itself when its normal form does not allow op (off the well-typed
    fragment)."""
    h = normalize(ses)
    if isinstance(op, ESend) and isinstance(h, (TSend, TRecv)):
        return h.cont
    if isinstance(op, ESelect) and isinstance(h, (TChoice, TBranch)):
        return h.left if op.label is Label.L1 else h.right
    return ses


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


# a process's evaluation hole: its position in the walk, path, operation, expression
Hole = tuple[int, Path, Expr, Expr]


def find_candidates(cfg: Config) -> list[Candidate]:
    found: dict[str, list[Candidate]] = {rule: [] for rule in RULES}
    points: dict[int, list[Hole]] = {}  # access-point uid -> request/accept holes
    ends: dict[Name, list[Hole]] = {}  # channel end -> send/recv/select/case/close holes
    binders: list[tuple[Path, Config]] = []

    # CR-Expr / CR-Fork / CR-New per process; every other hole is indexed
    for i, (path, node) in enumerate(_walk(cfg)):
        if not isinstance(node, CProc):
            binders.append((path, node))
            continue
        e = node.expr
        if isinstance(e, EVal):
            continue
        op = e.head if isinstance(e, ELet) else e  # split_eval(e)[0], with no plug built
        if _reduces(e):
            found["CR-Expr"].append(Candidate("CR-Expr", None, ((path, e),)))
        match op:
            case EFork() | ENew():
                rule = "CR-Fork" if isinstance(op, EFork) else "CR-New"
                found[rule].append(Candidate(rule, None, ((path, e),)))
            case ERequest(VVar(x)) | EAccept(VVar(x)):
                points.setdefault(x.uid, []).append((i, path, op, e))
            case (
                ESend(_, VChan(dom)) | ERecv(VChan(dom)) | ESelect(_, VChan(dom))
                | ECase(VChan(dom), _, _) | EClose(VChan(dom))
            ):
                # conv(dom, TVar(end)) holds exactly when dom normalizes to TVar(end)
                nd = normalize(dom)
                if isinstance(nd, TVar):
                    ends.setdefault(nd.name, []).append((i, path, op, e))

    # communication rules per governing binder, over the holes in its scope;
    # a channel's two sites must use its two different ends
    for bpath, binder in binders:
        if isinstance(binder, CNuAccess):
            tagged = [(h, None) for h in points.get(binder.binder.uid, ())]
        elif not binder.closed:  # both ends' holes, back in walk order
            tagged = sorted((h, end) for end in (binder.end1, binder.end2) for h in ends.get(end, ()))
        else:
            continue
        under = bpath + ("body",)
        n = len(under)
        by_op: dict[type, list[tuple[Name | None, Site]]] = {}
        for (_, p, op, e), end in tagged:
            if p[:n] == under:
                by_op.setdefault(type(op), []).append((end, (p, e)))
        for rule, first, second in _PAIRS[type(binder)]:
            seconds = by_op.get(second, [])
            for k, (end1, s1) in enumerate(by_op.get(first, ())):
                for end2, s2 in seconds[k + 1 :] if first is second else seconds:
                    if end1 is None or end1.uid != end2.uid:
                        found[rule].append(Candidate(rule, bpath, (s1, s2)))

    return [c for cands in found.values() for c in cands]


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
        case (
            EAccept(subject) | ERequest(subject) | ESend(_, VChan(subject)) | ERecv(VChan(subject))
            | ESelect(_, VChan(subject)) | ECase(VChan(subject), _, _) | EClose(VChan(subject))
        ):
            return BlockedSite(path, OPERATIONS[op.__class__], pretty(subject))
    return None


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
        if not cands:
            # a configuration with a candidate is reducible, so only one
            # without any needs classifying
            cls = classify_config(self.config)
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
