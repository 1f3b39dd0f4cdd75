"""A layer trace of pvgr taken from outside the program.

`Tracer.install` wraps the public entry point of each layer and rebinds the
wrapper under every name a `pvgr` module imported it as (`normalize`, for
instance, is bound separately in `typing`, `runtime`, `constraints`,
`kinding` and `cli`). Each function gets one span per outermost call;
recursive re-entries are counted but not spanned. Spans stay in memory and
self time is computed from them when a pass ends: a span's duration minus
the durations of the spans it directly contains.

Observations that cost more than a counter increment (tree sizes, hashing
arguments to find repeats) are queued during an operation and evaluated
after it, outside every span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections.abc import Callable
from pathlib import Path

# (module under pvgr, attribute) of every function that gets spans.
SPANNED = (
    ("parser", "parse_program"),
    ("anf", "anf_transform"),
    ("kinding", "infer_kind"),
    ("kinding", "disjoint_append"),
    ("constraints", "entails"),
    ("constraints", "close"),
    ("normalize", "normalize"),
    ("normalize", "conv"),
    ("ast", "subst"),
    ("ast", "canonicalize"),
    ("ast", "free_vars"),
    ("typing", "type_expr"),
    ("typing", "type_config"),
    ("typing", "match_existential"),
    ("runtime", "Machine.step"),
    ("runtime", "find_candidates"),
    ("runtime", "classify_config"),
    ("runtime", "step_expr"),
    ("pretty", "pretty"),
)
# The normalizer's recursive worker: counted, never spanned.
COUNTED = (("normalize", "_norm"),)

SPAN_NAMES = tuple(f"{m}.{a}" for m, a in SPANNED)
_INDEX = {name: i for i, name in enumerate(SPAN_NAMES)}

# Counts and ratios derived from what the layers return.
DERIVED = (
    ("normalize._norm.calls", "count"),
    ("anf.nodes_out", "count"),
    ("kinding.disjoint_append.cstr_out", "count"),
    ("constraints.close.atoms_out", "count"),
    ("constraints.entails.same_ctx_ratio", "ratio"),
    ("normalize.normalize.repeat_ratio", "ratio"),
    ("runtime.find_candidates.cands_out", "count"),
    ("runtime.useful_ratio", "ratio"),
    ("pretty.pretty.step_calls", "count"),
)


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"pvgr.{module}")
    if "." in attr:
        cls, meth = attr.split(".")
        return getattr(mod, cls), meth
    return mod, attr


def _constraint_part(g) -> tuple:
    """The bindings of a context that `entails` reads: constraints and the
    shapes of domain variables."""
    from pvgr.ast import BDisjoint, BTVar, KDom

    return tuple(
        b for b in g
        if isinstance(b, BDisjoint) or (isinstance(b, BTVar) and isinstance(b.kind, KDom))
    )


def _child_time(spans: list) -> list[float]:
    """For each span, the total duration of the spans directly inside it."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return child


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self) -> None:
        n = len(SPANNED)
        self.calls = [0] * n
        self._depth = [0] * n
        # (function index, start, end, parent span index or -1, operation)
        self.spans: list[tuple[int, float, float, int, int]] = []
        self._stack: list[int] = []
        self.op = 0
        self._restore: list[tuple[object, str, object]] = []
        self.counts = {name: 0 for name, unit in DERIVED if unit == "count"}
        self.entails_queries = 0
        self.entails_same = 0
        self.normalize_outer = 0
        self.normalize_repeats = 0
        self.steps_taken = 0
        # queued per operation, evaluated by end_op
        self._anf_out: list = []
        self._entails_ctx: list = []
        self._normalize_args: list = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        observers = {
            "anf.anf_transform": lambda a, r: self._anf_out.append(r),
            "kinding.disjoint_append": self._obs_disjoint_append,
            "constraints.entails": lambda a, r: self._entails_ctx.append(a[0]),
            "constraints.close": self._obs_close,
            "normalize.normalize": lambda a, r: self._normalize_args.append(a[0]),
            "runtime.Machine.step": self._obs_step,
            "runtime.find_candidates": self._obs_find_candidates,
            "pretty.pretty": self._obs_pretty,
        }
        for i, (module, attr) in enumerate(SPANNED):
            owner, name = _resolve(module, attr)
            orig = getattr(owner, name)
            self._rebind(owner, orig, self._spanned(i, orig, observers.get(SPAN_NAMES[i])))
        for module, attr in COUNTED:
            owner, name = _resolve(module, attr)
            orig = getattr(owner, name)
            self._rebind(owner, orig, self._counted(f"{module}.{attr}.calls", orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def _rebind(self, owner, orig, wrapper) -> None:
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for k, m in list(sys.modules.items()) if k == "pvgr" or k.startswith("pvgr.")]
        for target in targets:
            for key, val in list(vars(target).items()):
                if val is orig:
                    self._restore.append((target, key, orig))
                    setattr(target, key, wrapper)

    def _spanned(self, i: int, fn: Callable, observe: Callable | None) -> Callable:
        calls, depth, spans, stack = self.calls, self._depth, self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[i] += 1
            if depth[i]:
                return fn(*args, **kwargs)
            depth[i] = 1
            k = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(k)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[i] = 0
                spans[k] = (i, t0, t1, parent, self.op)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers ------------------------------------------------------------

    def _obs_disjoint_append(self, args, result) -> None:
        g1, g2 = args
        self.counts["kinding.disjoint_append.cstr_out"] += len(result) - len(g1) - len(g2)

    def _obs_close(self, args, result) -> None:
        self.counts["constraints.close.atoms_out"] += len(result)

    def _obs_step(self, args, result) -> None:
        if result.kind == "stepped":
            self.steps_taken += 1

    def _obs_find_candidates(self, args, result) -> None:
        self.counts["runtime.find_candidates.cands_out"] += len(result)

    def _obs_pretty(self, args, result) -> None:
        if self._depth[_INDEX["runtime.Machine.step"]]:
            self.counts["pretty.pretty.step_calls"] += 1

    def end_op(self) -> None:
        """Evaluate the observations queued during the operation just run."""
        from pvgr.ast import size

        for tree in self._anf_out:
            self.counts["anf.nodes_out"] += size(tree)
        prev = None
        for g in self._entails_ctx:
            part = _constraint_part(g)
            self.entails_queries += 1
            self.entails_same += prev is not None and part == prev
            prev = part
        seen: set = set()
        for t in self._normalize_args:
            self.normalize_outer += 1
            if t in seen:
                self.normalize_repeats += 1
            else:
                seen.add(t)
        self._anf_out.clear()
        self._entails_ctx.clear()
        self._normalize_args.clear()
        self.op += 1

    # -- results --------------------------------------------------------------

    def times(self) -> tuple[list[float], list[float]]:
        """Self and inclusive seconds per spanned function over the spans held."""
        child = _child_time(self.spans)
        self_s = [0.0] * len(SPANNED)
        incl_s = [0.0] * len(SPANNED)
        for k, (i, t0, t1, _, _) in enumerate(self.spans):
            self_s[i] += (t1 - t0) - child[k]
            incl_s[i] += t1 - t0
        return self_s, incl_s

    def derived(self) -> dict[str, float]:
        def ratio(a: int, b: int) -> float:
            return a / b if b else 0.0

        out = {k: float(v) for k, v in self.counts.items()}
        out["constraints.entails.same_ctx_ratio"] = ratio(self.entails_same, self.entails_queries)
        out["normalize.normalize.repeat_ratio"] = ratio(self.normalize_repeats, self.normalize_outer)
        out["runtime.useful_ratio"] = ratio(
            self.steps_taken, self.counts["runtime.find_candidates.cands_out"]
        )
        return {name: out[name] for name, _ in DERIVED}

    @staticmethod
    def write_spans(path: Path, spans: list) -> None:
        """One tab-separated line per span, times in microseconds from the
        first span's start; `parent` is the line number (from 0, header not
        counted) of the enclosing span, or -1."""
        path.parent.mkdir(parents=True, exist_ok=True)
        child = _child_time(spans)
        base = spans[0][1] if spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("op\tfn\tstart_us\tdur_us\tself_us\tparent\n")
            for k, (i, t0, t1, parent, op) in enumerate(spans):
                us = lambda x: round(x * 1e6, 1)  # noqa: E731
                fh.write(
                    f"{op}\t{SPAN_NAMES[i]}\t{us(t0 - base)}\t{us(t1 - t0)}"
                    f"\t{us(t1 - t0 - child[k])}\t{parent}\n"
                )

    def reset(self) -> None:
        """Forget everything recorded."""
        for i in range(len(self.calls)):
            self.calls[i] = 0
        self.spans.clear()
        for k in self.counts:
            self.counts[k] = 0
        self.entails_queries = self.entails_same = 0
        self.normalize_outer = self.normalize_repeats = 0
        self.steps_taken = 0
        self.op = 0
