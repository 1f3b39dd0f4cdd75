"""Operational semantics: expression reduction, the redex search over
configurations, a deterministic scheduler, and the final / deadlock
classifiers.

The redex search flattens each binder scope into its parallel processes
(associativity/commutativity/unit of parallel composition), treats the two
channel ends symmetrically (channel-name swap), and inserts new binders
directly under the governing one (scope extrusion); this is exactly the
congruence closure the reduction rules assume.

The machine is an environment machine, in the manner of the CEK machine
(Felleisen & Friedman 1986), over a live tree of the configuration, so that
a step costs what it touches (Accattoli & Barras, PPDP 2017):

- A process is its redex and its evaluation context, E[r] with
  E ::= [] | let x = E in e, as the paper splits it: a control, the
  expression at the hole under its environment, and the lets that wait
  for its value, the innermost last, each under the environment its body
  runs in. An environment maps each variable bound so far to its value
  closure, or to its type. `_focus` makes an expression the control and
  pushes each let on the way to its head. A value control under a waiting
  let is the CR-Expr redex that binds it; that, a beta or type
  application and a resolved `let [c]` each add one binding, and nothing
  is substituted into the rest of the spine. Each environment belongs to
  one run of a spine or of one application, and binders are unique, so no
  binding is ever overwritten and a closure can share its environment.
- The configuration is a `Soup`: one order-maintenance list of binder,
  parallel and process cells in walk order (depth-first, left-first, a
  binder before its body). Each binder and parallel cell opens a bracket
  that its close mark ends: a binder's body lies between the two, and a
  parallel cell's left side comes before its right. The list is the whole
  configuration. A step inserts the cells it makes: a fork brackets its
  process and the child with a parallel cell, `new` brackets its process
  with a binder cell, and a request/accept rendezvous brackets the access
  point's body with a channel cell.
- The hole index is kept across steps. The evaluation hole of each process
  is keyed once: a `request` or `accept` by the uid of its access point,
  and a `send`, `recv`, `select`, `case` or `close` by the channel end
  that its domain normalizes to, when that is a variable. It is filed in
  walk order under the binder of that name whose scope holds it, and only
  the processes a step changed are re-keyed. Binders with holes that could
  meet are kept in walk order too, so the candidates come out in the
  order of a walk over the whole configuration, and the seeded scheduler
  picks the same redex as one would.
  Keying a hole also marks a process blocked when it waits on a
  communication, which is all the deadlock predicate asks of a process.
- A candidate is data: its rule, its binder cell (None for CR-Expr,
  CR-Fork and CR-New) and its process cells, in trace order.
- The `Soup` is the one form of a configuration that the machine, the
  search and the classifier work on; `Soup(cfg)` builds it and
  `Machine.config` reads it back, by substituting each environment into
  its control or let (binders freshened) and plugging each control into
  its lets, a nested spine lifted in front of the let that waits for it:
  the flat processes, and the `CPar`/binder shape, of a machine that
  substitutes. The read-back runs only when it is asked for: `run
  --check` before each step, and the final values.
  `step_expr` is the one entry point on a plain expression, kept as a
  named layer for the benchmark's trace: it steps a process cell and reads
  it back.
- `Machine.step` searches once per step. A configuration with a candidate
  is reducible, so `classify_config` runs only when the search is empty.
- `Soup.release` unlinks every cell and empties every environment once a
  run is over; `pvgr.cli` calls it when `run` or `corpus` is done with a
  machine, on every exit. The walk order's back links, the hole lists
  that file a cell which lists them in turn, and a closure bound in its
  own environment are reference cycles. A closed value plugged by a step
  keeps its process's environment, so that a cyclic one is still reached
  when nothing waits for the value. Released, the configuration is freed
  by reference counting, and the cyclic collector, whose full passes walk
  everything alive, is not set off by it.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import Iterator, NamedTuple

from .anf import let_in
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
    Span,
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
    free_vars,
    fresh_name,
    subst,
)
from .normalize import normalize
from .parser import OPERATIONS
from .pretty import pretty

Path = tuple[str, ...]  # 'left' | 'right' | 'body' steps into a Config


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


class _Env:
    """The bindings of one run of a spine or of one application: uid -> a
    value closure `(value, env)` or a type; `up` is the scope it extends."""

    __slots__ = ("vars", "up")

    def __init__(self, vars: dict, up: _Env | None) -> None:
        self.vars, self.up = vars, up


Closure = tuple[Value, "_Env | None"]


def _lookup(env: _Env | None, uid: int):
    while env is not None:
        hit = env.vars.get(uid)
        if hit is not None:
            return hit
        env = env.up
    return None


def _whnf(v: Value, env: _Env | None) -> Closure:
    """v under env, a bound variable replaced by its closure (whose value is
    never a bound variable)."""
    if v.__class__ is VVar:
        hit = _lookup(env, v.name.uid)
        if hit is not None:
            return hit
    return v, env


def _read(t, env: _Env | None):
    """t with every variable env binds replaced by its value or type, read
    back by substitution; t itself under an empty scope."""
    if env is None or (not env.vars and env.up is None):
        return t
    s = {}
    for name in free_vars(t):
        hit = _lookup(env, name.uid)
        if hit is not None:
            s[name.uid] = _read(*hit) if hit.__class__ is tuple else hit
    return subst(s, t)


def _type(t: Type, env: _Env | None) -> Type:
    if t.__class__ is TVar:
        hit = _lookup(env, t.name.uid)
        return t if hit is None else hit
    return _read(t, env)


def _value_domains(v: Value, env: _Env | None = None) -> Type | None:
    """The domain aggregate a value's channels form, read off structurally."""
    v, env = _whnf(v, env)
    match v:
        case VChan(d):
            return _type(d, env)
        case VUnit():
            return DomZero()
        case VPair(l, r):
            dl, dr = _value_domains(l, env), _value_domains(r, env)
            if dl is not None and dr is not None:
                return DomMerge(dl, dr)
    return None


# ---------------------------------------------------------------------------
# processes: a control and the lets that wait for it
# ---------------------------------------------------------------------------


class _Let:
    """A let waiting for its head's value: the ELet node, the environment
    its body runs under, and its existential names not yet resolved."""

    __slots__ = ("let", "env", "exnames")

    def __init__(self, let: ELet, env: _Env) -> None:
        self.let, self.env, self.exnames = let, env, let.exnames


class _Mark:
    """A position in the walk order: `label` grows along it."""

    __slots__ = ("label", "prev", "next")


class _Proc(_Mark):
    """A process cell: its control `expr` under `env`, the lets that wait
    for the control's value (the innermost last), its span (None once it
    has stepped), and what keying its hole found: the hole index lists it
    is filed in, and whether it is blocked on a communication. It starts as
    expr under env, by default an empty scope of its own."""

    __slots__ = ("expr", "env", "lets", "span", "key", "lists", "blocked")

    def __init__(self, expr: Expr, env: _Env | None = None, span: Span | None = None) -> None:
        self.lets, self.span, self.key, self.lists, self.blocked = [], span, None, [], False
        _focus(self, expr, env or _Env({}, None))


class _Par(_Mark):
    """A parallel cell: its left side, then its right, lie between it and
    its `close` mark in the walk order."""

    __slots__ = ("span", "close")

    def __init__(self, span: Span | None = None) -> None:
        self.span, self.close = span, _Mark()


class _Nu(_Mark):
    """A binder cell: `names` is (access point,) or (end1, end2), its scope
    lies between it and its `close` mark in the walk order, and `holes`
    files the holes keyed by its names that lie in that scope, in walk
    order, one list per operation that meets another at this kind of
    binder."""

    __slots__ = ("kind", "names", "ses", "closed", "span", "close", "holes", "active")

    def __init__(self, kind: type, names, ses: Type, closed=False, span=None) -> None:
        self.kind, self.names, self.ses, self.closed = kind, names, ses, closed
        self.span, self.close, self.active = span, _Mark(), False
        self.holes = {op: [] for _, k, first, second in _PAIRS if k is kind for op in (first, second)}


def _focus(p: _Proc, e: Expr, env: _Env | None) -> None:
    """Make e under env p's control, pushing each let on the way to its
    head. A closed value (env None) keeps p's environment, which may be
    cyclic, where `Soup.release` reaches it."""
    if env is None:
        env = p.env
    while e.__class__ is ELet:
        p.lets.append(_Let(e, env))
        e = e.head
    p.expr, p.env = e, env


# the operand field of each operation that needs one in a given form, and
# that form: a lambda to apply or fork, a pair, a type abstraction, a channel
_OPERAND = {
    EApp: ("fn", VAbs),
    EProj: ("value", VPair),
    ETApp: ("value", VTAbs),
    EFork: ("value", VAbs),
    ESend: ("chan", VChan),
    ERecv: ("value", VChan),
    ESelect: ("value", VChan),
    ECase: ("value", VChan),
    EClose: ("value", VChan),
}
_BETA = (EApp, EProj, ETApp)


def _operand(op: Expr, env: _Env | None) -> Closure | None:
    """op's operand under env, when it has the form op needs."""
    need = _OPERAND.get(op.__class__)
    if need is not None:
        v = _whnf(getattr(op, need[0]), env)
        if v[0].__class__ is need[1]:
            return v
    return None


def _reduces(p: _Proc) -> bool:
    """Whether p has a CR-Expr redex: a value control that a let waits
    for, or a beta or type application whose operand has its form."""
    op = p.expr
    if op.__class__ is EVal:
        return bool(p.lets)
    return op.__class__ in _BETA and _operand(op, p.env) is not None


def _resolve(w: _Let, v: Value, env: _Env | None) -> None:
    """A `let [c]` that waits for the value v under env binds c to the
    value's domain, when it has one."""
    if len(w.exnames) == 1:
        d = _value_domains(v, env)
        if d is not None:
            w.env.vars[w.exnames[0].uid] = d
            w.exnames = ()


def _step(p: _Proc) -> None:
    """p after its CR-Expr step: bind the value control in the let that
    waits for it, or reduce the application, projection or type
    application at the control."""
    op, env = p.expr, p.env
    if op.__class__ is EVal:
        w = p.lets.pop()
        _resolve(w, op.value, env)
        w.env.vars[w.let.binder.uid] = _whnf(op.value, env)
        _focus(p, w.let.body, w.env)
        return
    v, venv = _operand(op, env)
    if op.__class__ is EApp:
        _focus(p, v.body, _Env({v.binder.uid: _whnf(op.arg, env)}, venv))
    elif op.__class__ is EProj:
        _focus(p, EVal(v.left if op.label is Label.L1 else v.right), venv)
    else:
        _focus(p, EVal(v.body), _Env({v.binder.uid: _type(op.type, env)}, venv))


def _plug(p: _Proc, h: Expr, env: _Env | None) -> None:
    """p with its control replaced by h under env, as a communication rule
    does: a value resolves the `let [c]` that waits for it at once."""
    if h.__class__ is EVal and p.lets:
        _resolve(p.lets[-1], h.value, env)
    _focus(p, h, env)


def _read_proc(p: _Proc) -> Expr:
    """p's expression, read back: the control plugged into each waiting
    let from the innermost out, its spine lifted in front of the let."""
    e = _read(p.expr, p.env)
    for w in reversed(p.lets):
        x = w.let
        let = _read(ELet(x.binder, _UNIT, x.body, exnames=w.exnames, span=x.span), w.env)
        e = let_in(let.binder, e, let.body, let.exnames, let.span)
    return e


def step_expr(e: Expr) -> Expr | None:
    """One expression-level step, or None when no redex exists. The result
    of a flat expression is flat, as `_read_proc` lifts a nested spine in
    front of the let that waits for it."""
    p = _Proc(e)
    if not _reduces(p):
        return None
    _step(p)
    return _read_proc(p)


# ---------------------------------------------------------------------------
# configuration traversal
# ---------------------------------------------------------------------------


def iter_procs(cfg: Config, path: Path = ()) -> Iterator[tuple[Path, Expr]]:
    """Every process of cfg with its path, depth-first and left-first, from
    one loop over an explicit stack."""
    stack = [(path, cfg)]
    while stack:
        path, c = stack.pop()
        if isinstance(c, CPar):
            stack.append((path + ("right",), c.right))
            stack.append((path + ("left",), c.left))
        elif isinstance(c, CProc):
            yield path, c.expr
        else:
            stack.append((path + ("body",), c.body))


# ---------------------------------------------------------------------------
# redexes
# ---------------------------------------------------------------------------

# the reduction rules, in the order the scheduler is offered their candidates
RULES = ("CR-Expr", "CR-Fork", "CR-New", "CR-RequestAccept", "CR-SendRecv", "CR-SelectCase", "CR-Close")
_ALONE = RULES[:3]

# each communication rule, its binder kind and the operations of its two sites
_PAIRS = (
    ("CR-RequestAccept", CNuAccess, ERequest, EAccept),
    ("CR-SendRecv", CNuChan, ESend, ERecv),
    ("CR-SelectCase", CNuChan, ESelect, ECase),
    ("CR-Close", CNuChan, EClose, EClose),
)


class Candidate(NamedTuple):
    """A redex as data: its rule, its governing binder cell (None for
    CR-Expr, CR-Fork and CR-New, which rewrite one process in place), and
    each participating process cell, in trace order."""

    rule: str
    binder: _Nu | None
    sites: tuple[_Proc, ...]

    def describe(self) -> str:
        """The trace text: the operation at each site's hole (read before
        the candidate is applied)."""
        return " | ".join(pretty(_read(p.expr, p.env)) for p in self.sites)


def _label(m: _Mark) -> int:
    return m.label


_GAP = 1 << 32  # the label distance between neighbours after a relabelling


class Soup:
    """A configuration as one list of cells in walk order, with its hole
    index kept across steps."""

    def __init__(self, cfg: Config) -> None:
        self.first, self.last = _Mark(), _Mark()
        self.first.prev = self.last.next = None
        self.first.next, self.last.prev = self.last, self.first
        self.binders: dict[int, list[_Nu]] = {}  # name uid -> binder cells
        self.singles: dict[str, list[_Proc]] = {rule: [] for rule in _ALONE}
        self.active: list[_Nu] = []  # binders whose holes may meet, in walk order
        self._build(cfg)
        self._relabel()
        for p in self.procs():
            self._key(p)

    # -- cells and order -------------------------------------------------------

    def _build(self, cfg: Config) -> None:
        """Link the cells of cfg in walk order, from an explicit stack."""
        stack: list = [cfg]
        while stack:
            c = stack.pop()
            if c.__class__ is _Mark:  # the end of a bracket
                self._link(c, self.last)
                continue
            if isinstance(c, CProc):
                self._link(_Proc(c.expr, span=c.span), self.last)
                continue
            if isinstance(c, CPar):
                cell = _Par(c.span)
                stack += (cell.close, c.right, c.left)
            else:
                if isinstance(c, CNuChan):
                    cell = _Nu(CNuChan, (c.end1, c.end2), c.ses, c.closed, c.span)
                else:
                    cell = _Nu(CNuAccess, (c.binder,), c.ses, span=c.span)
                self._bind(cell)
                stack += (cell.close, c.body)
            self._link(cell, self.last)

    def _link(self, m: _Mark, before: _Mark) -> None:
        m.prev, m.next = before.prev, before
        before.prev.next = m
        before.prev = m

    def _insert(self, m: _Mark, before: _Mark) -> None:
        """Put m into the walk order just before `before`, labelled between
        its neighbours; everything is relabelled when they are adjacent."""
        if before.label - before.prev.label < 2:
            self._relabel()
        m.label = (before.prev.label + before.label) // 2
        self._link(m, before)

    def _relabel(self) -> None:
        m, k = self.first, 0
        while m is not None:
            m.label = k
            m, k = m.next, k + _GAP

    def _bind(self, nu: _Nu) -> None:
        for name in nu.names:
            self.binders.setdefault(name.uid, []).append(nu)

    def procs(self) -> Iterator[_Proc]:
        m = self.first.next
        while m is not self.last:
            if m.__class__ is _Proc:
                yield m
            m = m.next

    # -- the hole index ----------------------------------------------------------

    def _key(self, p: _Proc) -> None:
        """File p's hole: under its rule, or under each binder of its name
        whose scope holds p. A hole at a request or accept, or at a channel
        operation on a channel, marks p blocked."""
        if _reduces(p):
            self._file(p, None, self.singles["CR-Expr"])
            return
        op, env = p.expr, p.env
        cls = op.__class__
        if cls is EVal:  # a value that no let waits for
            return
        if cls is EFork or cls is ENew:
            self._file(p, None, self.singles["CR-Fork" if cls is EFork else "CR-New"])
            return
        if cls is ERequest or cls is EAccept:
            p.blocked = True
            x = _whnf(op.value, env)[0]
            if x.__class__ is not VVar:
                return
            key = x.name.uid
        else:  # a channel operation, or an application that is stuck
            ch = _operand(op, env)
            if ch is None:
                return
            p.blocked = True
            # conv(dom, TVar(end)) holds exactly when dom normalizes to TVar(end)
            end = normalize(_type(ch[0].dom, ch[1]))
            if end.__class__ is not TVar:
                return
            key = end.name.uid
        p.key = key
        for nu in self.binders.get(key, ()):
            holes = nu.holes.get(cls)
            if holes is not None and nu.label < p.label < nu.close.label:
                self._file(p, nu, holes)
                self._touch(nu)

    def _file(self, p: _Proc, nu: _Nu | None, holes: list[_Proc]) -> None:
        insort(holes, p, key=_label)
        p.lists.append((nu, holes))

    def _rekey(self, p: _Proc) -> None:
        lists, p.lists, p.key, p.blocked = p.lists, [], None, False
        for nu, holes in lists:
            holes.remove(p)
            if nu is not None:
                self._touch(nu)
        self._key(p)

    def _touch(self, nu: _Nu) -> None:
        """Keep nu in the active list exactly while two of its holes may meet."""
        live = False
        if not nu.closed:
            h = nu.holes
            for _, kind, first, second in _PAIRS:
                # when both sites come from one list, it needs two entries
                if kind is nu.kind and h[first] and len(h[second]) > (first is second):
                    live = True
                    break
        if live != nu.active:
            nu.active = live
            if live:
                insort(self.active, nu, key=_label)
            else:
                self.active.remove(nu)

    def candidates(self) -> list[Candidate]:
        out = [Candidate(rule, None, (p,)) for rule in _ALONE for p in self.singles[rule]]
        # a channel's two sites must use its two different ends
        for rule, kind, first, second in _PAIRS:
            for nu in self.active:
                if nu.kind is not kind:
                    continue
                seconds = nu.holes[second]
                for k, s1 in enumerate(nu.holes[first]):
                    for s2 in seconds[k + 1 :] if first is second else seconds:
                        if kind is CNuAccess or s1.key != s2.key:
                            out.append(Candidate(rule, nu, (s1, s2)))
        return out

    # -- steps -------------------------------------------------------------------

    def apply(self, c: Candidate) -> None:
        """Rewrite the cells c touches, then re-key its processes."""
        if c.binder is not None:
            self._rendezvous(c)
            changed = c.sites
        elif c.rule == "CR-Expr":
            _step(c.sites[0])
            changed = c.sites
        elif c.rule == "CR-Fork":
            changed = (c.sites[0], self._fork(c.sites[0]))
        else:
            self._new(c.sites[0])
            changed = c.sites
        for p in changed:
            p.span = None
            self._rekey(p)
        if c.binder is not None:
            self._touch(c.binder)

    def _fork(self, p: _Proc) -> _Proc:
        child = _Proc(EApp(p.expr.value, VUnit()), p.env)
        _plug(p, _UNIT, None)
        par = _Par()
        self._insert(par, p)
        self._insert(child, p.next)
        self._insert(par.close, child.next)
        return child

    def _new(self, p: _Proc) -> None:
        ap = fresh_name("p")
        nu = _Nu(CNuAccess, (ap,), _type(p.expr.ses, p.env))
        _plug(p, EVal(VVar(ap)), None)
        self._insert(nu, p)
        self._insert(nu.close, p.next)
        self._bind(nu)

    def _rendezvous(self, c: Candidate) -> None:
        """The binder's two sites meet. A request gets the second of two
        fresh ends and its accept the first; a receive gets the payload, a
        case its chosen branch, and every other site unit."""
        nu = c.binder
        first, second = c.sites
        op, env = first.expr, first.env
        if op.__class__ is ERequest:
            c1, c2 = fresh_name("c"), fresh_name("c")
            chan = _Nu(CNuChan, (c1, c2), nu.ses)
            self._insert(chan, nu.next)
            self._insert(chan.close, nu.close)
            self._bind(chan)
            _plug(second, EVal(VChan(TVar(c1))), None)
            _plug(first, EVal(VChan(TVar(c2))), None)
            return
        if op.__class__ is ESend:
            _plug(second, EVal(op.payload), env)
        elif op.__class__ is ESelect:
            other, oenv = second.expr, second.env
            _plug(second, other.left if op.label is Label.L1 else other.right, oenv)
        else:
            _plug(second, _UNIT, None)
        _plug(first, _UNIT, None)
        if op.__class__ is EClose:
            nu.closed = True
            return
        rest = _session_after(normalize(nu.ses), op)
        if rest is not None:  # a part of a normal form, itself normal
            nu.ses = rest

    # -- releasing ---------------------------------------------------------------

    def release(self) -> None:
        """Unlink every cell and empty every environment the processes
        reach, so that reference counting frees the configuration (the
        module docstring says why). The soup is not used again."""
        envs: list = []
        m = self.first
        while m is not None:
            if m.__class__ is _Proc:
                envs.append(m.env)
                envs += [w.env for w in m.lets]
                m.lists = []
            elif m.__class__ is _Nu:
                m.holes = {}
            m.prev, m.next, m = None, None, m.next
        while envs:
            env = envs.pop()
            if env is not None:
                envs.append(env.up)
                envs += [hit[1] for hit in env.vars.values() if hit.__class__ is tuple]
                env.vars.clear()
                env.up = None
        self.binders, self.singles, self.active = {}, {}, []

    # -- reading back --------------------------------------------------------------

    def config(self) -> Config:
        """The configuration the walk order stands for, read back in one
        pass: a close mark ends the cell opened last, whose parts are the
        configurations read back since it opened, the rightmost last."""
        opened: list = []
        done: list[Config] = []
        m = self.first.next
        while m is not self.last:
            cls = m.__class__
            if cls is _Proc:
                done.append(CProc(_read_proc(m), span=m.span))
            elif cls is not _Mark:
                opened.append(m)
            else:
                c = opened.pop()
                if c.__class__ is _Par:
                    right = done.pop()
                    done.append(CPar(done.pop(), right, span=c.span))
                elif c.kind is CNuChan:
                    done.append(CNuChan(*c.names, c.ses, done.pop(), c.closed, span=c.span))
                else:
                    done.append(CNuAccess(*c.names, c.ses, done.pop(), span=c.span))
            m = m.next
        return done.pop()


_UNIT = EVal(VUnit())


def _session_after(h: Type, op: Expr) -> Type | None:
    """The rest of the normal session h after a send, or after a select of
    a branch; None when h does not allow op (off the well-typed fragment)."""
    if isinstance(op, ESend) and isinstance(h, (TSend, TRecv)):
        return h.cont
    if isinstance(op, ESelect) and isinstance(h, (TChoice, TBranch)):
        return h.left if op.label is Label.L1 else h.right
    return None


def find_candidates(soup: Soup) -> list[Candidate]:
    return soup.candidates()


# ---------------------------------------------------------------------------
# classification (final / deadlock / reducible)
# ---------------------------------------------------------------------------


class BlockedSite(NamedTuple):
    operation: str
    subject: str  # pretty channel end or access point

    def __str__(self) -> str:
        return f"{self.operation} on {self.subject}"


class DeadlockReport(NamedTuple):
    blocked: tuple[BlockedSite, ...]

    def __str__(self) -> str:
        return "; ".join(str(b) for b in self.blocked)


def _blocked_site(p: _Proc) -> BlockedSite:
    """The operation p is blocked on, and its channel end or access point."""
    op = _read(p.expr, p.env)
    subject = op.value if op.__class__ in (EAccept, ERequest) else _operand(op, None)[0].dom
    return BlockedSite(OPERATIONS[op.__class__], pretty(subject))


def classify_config(soup: Soup):
    """'final' | ('deadlock', DeadlockReport) | 'reducible', per the paper's
    predicates: final iff every process is a value and every channel closed
    or at End; deadlocked iff every process is a value or blocked on a
    communication and no matchable pair exists. A process that is neither
    is reducible, or stuck off the well-typed fragment."""
    blocked: list[_Proc] = []
    chans: list[_Nu] = []
    m = soup.first.next
    while m is not soup.last:
        if m.__class__ is _Proc:
            if m.blocked:
                blocked.append(m)
            elif m.expr.__class__ is not EVal or m.lets:
                return "reducible"
        elif m.__class__ is _Nu and m.kind is CNuChan:
            chans.append(m)
        m = m.next
    if not blocked and all(nu.closed or isinstance(normalize(nu.ses), TEnd) for nu in chans):
        return "final"
    if soup.candidates():  # every process is a value or blocked: any candidate is a rendezvous
        return "reducible"
    return ("deadlock", DeadlockReport(tuple(_blocked_site(p) for p in blocked)))


# ---------------------------------------------------------------------------
# the machine
# ---------------------------------------------------------------------------


class StepOutcome(NamedTuple):
    kind: str  # 'stepped' | 'final' | 'deadlock' | 'out-of-fuel'
    rule: str | None = None
    report: DeadlockReport | None = None


class Machine:
    """Steps a configuration with a seeded scheduler. `trace`, when given,
    receives one line per step taken: the step index, the rule and the
    redex, separated by tabs. Without it no line is formatted."""

    def __init__(
        self, config: Config, max_steps: int = 100_000, seed: int = 0, trace: list[str] | None = None
    ) -> None:
        self.soup = Soup(config)
        self.max_steps = max_steps
        self.seed = seed
        self.steps = 0
        self.trace = trace
        self._rng = random.Random(seed)

    @property
    def config(self) -> Config:
        """The current configuration, read back from the cells."""
        return self.soup.config()

    def step(self) -> StepOutcome:
        cands = find_candidates(self.soup)
        if not cands:
            # a configuration with a candidate is reducible, so only one
            # without any needs classifying
            cls = classify_config(self.soup)
            if cls == "final":
                return StepOutcome("final")
            if isinstance(cls, tuple):
                return StepOutcome("deadlock", report=cls[1])
        if self.steps >= self.max_steps:
            return StepOutcome("out-of-fuel")
        if not cands:
            # stuck without being a paper deadlock: only reachable off the
            # well-typed fragment; report as deadlock with no sites
            return StepOutcome("deadlock", report=DeadlockReport(()))
        idx = 0 if self.seed == 0 else self._rng.randrange(len(cands))
        chosen = cands[idx]
        if self.trace is not None:
            self.trace.append(f"{self.steps}\t{chosen.rule}\t{chosen.describe()}")
        self.soup.apply(chosen)
        self.steps += 1
        return StepOutcome("stepped", rule=chosen.rule)

    def run(self) -> StepOutcome:
        while True:
            out = self.step()
            if out.kind != "stepped":
                return out
