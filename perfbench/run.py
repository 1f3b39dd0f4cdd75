"""The pvgr benchmark.

    python3 perfbench/run.py --workload corpus|chain|fan|hold|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `src/pvgr` and the
conversion oracle in `tests/oracles.py`). One client calls `pvgr.cli.main`
in-process in a closed loop: each program is `check FILE` and then, when it
has an outcome, `run FILE --seed K` with a non-zero scheduler seed drawn
from `--seed`. Outputs and exit statuses are captured during the timed loop
and verified after it.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
a traced run (see perfbench/README.md). Everything else printed before it
is a human-readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
ORACLES = ROOT / "tests"
WORK = ROOT / ".perfbench"

WORKLOADS = ("corpus", "chain", "fan", "hold")
# Sizes of the generated families: large enough that the layer each one
# targets dominates, small enough that a run measures about a hundred programs.
SIZES = {"chain": 8, "fan": 16, "hold": 10}
# Sizes each family is swept over in the traced run to fit its exponents.
SWEEP = {"chain": (5, 6, 7, 8), "fan": (8, 12, 16, 20), "hold": (6, 8, 10, 12)}
SWEEP_REPS = 3
SETUP_REPS = 5
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pvgr.cli; "
    "print(time.perf_counter() - t)"
)


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


# ---------------------------------------------------------------------------
# programs and operations
# ---------------------------------------------------------------------------


@dataclass
class Program:
    """One unit of user traffic: `check`, then `run` when `outcome` is set."""

    name: str
    path: Path
    sched_seed: int
    want_type: object = None  # expected type (corpus `type:` sidecars)
    want_type_src: str | None = None
    outcome: str | None = None  # 'final' | 'deadlock'
    final_procs: int | None = None  # generated programs: values left at the end
    check_lines: tuple[str, ...] = ()  # generated programs: lines `check` prints
    text: str | None = None  # generated programs: written before the op


@dataclass
class Result:
    rc: int | None
    out: str
    err: str
    seconds: float  # wall time
    crash: str | None = None
    start: float = 0.0  # perf_counter at the start


def call_cli(argv: list[str]) -> Result:
    from pvgr import cli

    out, err = io.StringIO(), io.StringIO()
    crash = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as e:  # a traceback or an argparse exit is a failure
        crash = f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    return Result(rc, out.getvalue(), err.getvalue(), dt, crash, t0)


def run_program(p: Program) -> tuple[Result, Result | None]:
    if p.text is not None:
        p.path.write_text(p.text, encoding="utf-8")
    checked = call_cli(["check", str(p.path)])
    ran = None
    if p.outcome is not None:
        ran = call_cli(["run", str(p.path), "--seed", str(p.sched_seed)])
    return checked, ran


class Source:
    """The deterministic stream of programs a workload sends for one seed."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.corpus = load_corpus() if workload == "corpus" else None
        self.i = 0

    @property
    def pass_len(self) -> int:
        return len(self.corpus) if self.corpus is not None else 1

    def next(self) -> Program:
        sched = self.rng.randrange(1, 2**31)
        if self.corpus is not None:
            base = self.corpus[self.i % len(self.corpus)]
            self.i += 1
            return Program(**{**base.__dict__, "sched_seed": sched})
        from gen import FAMILIES, final_procs

        n = SIZES[self.workload]
        text = FAMILIES[self.workload](n, random.Random(self.rng.getrandbits(64)))
        self.i += 1
        return Program(
            name=f"{self.workload}{n}#{self.i}",
            path=self.workdir / f"{self.workload}.pvgr",
            sched_seed=sched,
            outcome="final",
            final_procs=final_procs(self.workload, n),
            check_lines=("post: .", "type: Unit") if self.workload == "chain" else ("config: ok",),
            text=text,
        )


def load_corpus() -> list[Program]:
    from pvgr.parser import parse_type

    progs = []
    for f in sorted(CORPUS.glob("*.pvgr")):
        side = f.with_suffix(f.suffix + ".expected")
        want = side.read_text(encoding="utf-8").strip()
        p = Program(name=f.name, path=f, sched_seed=0)
        if want.startswith("type:"):
            p.want_type_src = want[len("type:"):].strip()
            p.want_type = parse_type(p.want_type_src, open_world=False)
        elif want.startswith("outcome:"):
            p.outcome = want[len("outcome:"):].strip()
        else:
            raise SetupError(f"{side}: unreadable sidecar")
        progs.append(p)
    if not progs:
        raise SetupError(f"no programs in {CORPUS}")
    return progs


# ---------------------------------------------------------------------------
# verification (never inside the timed region)
# ---------------------------------------------------------------------------


class Verifier:
    def __init__(self) -> None:
        from oracles import conv_search

        self.conv_search = conv_search
        self._type_ok: dict[tuple[str, str], bool] = {}

    def check_ok(self, p: Program, r: Result) -> bool:
        if r.crash is not None or r.rc != 0:
            return False
        lines = r.out.splitlines()
        if p.want_type is not None:
            got = next((ln[len("type: "):] for ln in lines if ln.startswith("type: ")), None)
            return got is not None and self._same_type(p, got)
        return bool(lines) and all(ln in lines for ln in p.check_lines)

    def _same_type(self, p: Program, got: str) -> bool:
        key = (p.name, got)
        if key not in self._type_ok:
            from pvgr.parser import ParseError, parse_type

            try:
                t = parse_type(got, open_world=False)
            except ParseError:
                self._type_ok[key] = False
            else:
                self._type_ok[key] = self.conv_search(t, p.want_type)
        return self._type_ok[key]

    @staticmethod
    def run_ok(p: Program, r: Result) -> bool:
        if r.crash is not None:
            return False
        if p.outcome == "deadlock":
            return r.rc == 3 and r.out.startswith("deadlock after ")
        if r.rc != 0 or not r.out.startswith("final after "):
            return False
        if p.final_procs is None:
            return True
        values = r.out.strip().split(": ", 1)[1].split(" | ")
        return len(values) == p.final_procs and all(v == "()" for v in values)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(xs: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it (at most p99, at least p50), and its value."""
    n = len(xs)
    pct = max(50, min(99, math.floor(100 * (1 - TAIL_BEYOND / n)))) if n else 50
    if n < 2:
        return (xs[0] if xs else float("nan")), pct
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1], pct


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def require_checkout() -> None:
    missing = [p for p in (SRC / "pvgr" / "cli.py", CORPUS, ORACLES / "oracles.py") if not p.exists()]
    if missing:
        raise SetupError("not a pvgr checkout; missing " + ", ".join(str(m) for m in missing))
    for p in (str(SRC), str(ORACLES), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)


def setup_once(workload: str, seed: int, workdir: Path, speed: Speed) -> float:
    """What a fresh user pays before the first operation: importing pvgr in a
    new interpreter, plus preparing this workload's inputs; at reference
    speed."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    speed.tick(force=True)
    started = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if child.returncode != 0:
        raise SetupError(f"importing pvgr failed:\n{child.stderr}")
    import_s = float(child.stdout.strip().splitlines()[-1])
    t0 = time.perf_counter()
    src = Source(workload, seed, workdir)
    first = src.next()
    if first.text is not None:
        first.path.write_text(first.text, encoding="utf-8")
    prep_s = time.perf_counter() - t0
    speed.tick(force=True)
    return speed.scaled(started, import_s + prep_s)


def setup(workload: str, seed: int, workdir: Path) -> float:
    speed = Speed()
    return median([setup_once(workload, seed, workdir, speed) for _ in range(SETUP_REPS)])


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "check_ms.p50": "ms",
    "check_ms.tail": "ms",
    "run_ms.p50": "ms",
    "run_ms.tail": "ms",
    "programs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str]
    attempted: int
    failed: int


def verify(verifier: Verifier, records) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for p, checked, ran in records:
        for kind, r, ok in (
            ("check", checked, verifier.check_ok),
            ("run", ran, verifier.run_ok),
        ):
            if r is None:
                continue
            attempted += 1
            if not ok(p, r):
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{kind} {p.name}: rc={r.rc} {r.crash or ''} {(r.out + r.err).strip()[:200]!r}")
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> Outcome:
    setup_s = setup(workload, seed, workdir)
    src = Source(workload, seed, workdir)
    verifier = Verifier()
    records = [(p, *run_program(p)) for p in (src.next() for _ in range(src.pass_len))]
    timed = []
    speed = Speed()
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(src.pass_len):
            p = src.next()
            speed.tick()
            timed.append((p, *run_program(p)))
        if time.perf_counter() >= deadline:
            break
    speed.tick(force=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = verify(verifier, records + timed)
    for line in problems:
        print(f"  FAIL {line}", file=sys.stderr)

    def ms(r: Result) -> float:
        return speed.scaled(r.start, r.seconds) * 1000

    check_ms = [ms(c) for _, c, _ in timed]
    run_ms = [ms(r) for _, _, r in timed if r is not None]
    busy = (sum(check_ms) + sum(run_ms)) / 1000
    wall_check = median([c.seconds * 1000 for _, c, _ in timed])
    wall_run = median([r.seconds * 1000 for _, _, r in timed if r is not None])
    check_tail, check_pct = tail(check_ms)
    run_tail, run_pct = tail(run_ms)
    values = {
        "setup_s": setup_s,
        "check_ms.p50": median(check_ms),
        "check_ms.tail": check_tail,
        "run_ms.p50": median(run_ms),
        "run_ms.tail": run_tail,
        "programs_per_s": len(timed) / busy,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPS} set-ups",
        "check_ms.p50": f"n={len(check_ms)}; wall-clock p50 {wall_check:.4g} ms",
        "check_ms.tail": f"p{check_pct} of n={len(check_ms)}",
        "run_ms.p50": f"n={len(run_ms)}; wall-clock p50 {wall_run:.4g} ms",
        "run_ms.tail": f"p{run_pct} of n={len(run_ms)}",
        "programs_per_s": f"{len(timed)} programs in {busy:.2f} s busy; "
                          f"machine speed x{speed.median_factor():.3f} of reference",
        "ok_ratio": f"fail_ratio = {failed}/{attempted} = {failed / attempted:g}",
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return Outcome(metrics, notes, attempted, failed)


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

SWEEP_PHASES = {
    "chain": ("parse", "anf", "check", "run"),
    "fan": ("parse", "check", "run"),
    "hold": ("parse", "check", "run"),
}


def traced(workload: str, seed: int, seconds: float, workdir: Path) -> Outcome:
    from layers import DERIVED, SPAN_NAMES, Tracer

    src = Source(workload, seed, workdir)
    programs = [src.next() for _ in range(src.pass_len)]
    verifier = Verifier()
    tracer = Tracer()

    speed = Speed()

    def one_pass() -> tuple[float, float, list]:
        """Runs the programs once; returns their time at reference speed,
        that time over their wall-clock time, and the results."""
        records, ops = [], []
        for p in programs:
            if p.text is not None:
                p.path.write_text(p.text, encoding="utf-8")
            speed.tick()
            checked = call_cli(["check", str(p.path)])
            tracer.end_op()
            ops.append(checked)
            ran = None
            if p.outcome is not None:
                speed.tick()
                ran = call_cli(["run", str(p.path), "--seed", str(p.sched_seed)])
                tracer.end_op()
                ops.append(ran)
            records.append((p, checked, ran))
        speed.tick(force=True)
        busy = sum(speed.scaled(r.start, r.seconds) for r in ops)
        return busy, busy / sum(r.seconds for r in ops), records

    records = one_pass()[2]  # warm-up
    plain, traced_s, self_s, incl_s = [], [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while not traced_s or time.perf_counter() < deadline:
        busy, _, recs = one_pass()
        plain.append(busy)
        records += recs
        tracer.reset()
        tracer.install()
        try:
            busy, scale, recs = one_pass()
        finally:
            tracer.uninstall()
        traced_s.append(busy)
        records += recs
        s, inc = tracer.times()
        self_s.append([x * scale for x in s])
        incl_s.append([x * scale for x in inc])
        if first is None:
            first = (list(tracer.calls), tracer.derived(), list(tracer.spans))
        elif (list(tracer.calls), tracer.derived()) != first[:2]:
            print("  note: layer counts differed between traced passes", file=sys.stderr)
    calls, derived, spans = first
    trace_file = WORK / f"trace-{workload}-s{seed}.tsv"
    tracer.write_spans(trace_file, spans)
    attempted, failed, problems = verify(verifier, records)
    for line in problems:
        print(f"  FAIL {line}", file=sys.stderr)

    metrics: dict[str, tuple[float, str]] = {}
    for i, name in enumerate(SPAN_NAMES):
        metrics[f"{name}.calls"] = (float(calls[i]), "count")
        metrics[f"{name}.self_s"] = (median([s[i] for s in self_s]), "s")
        metrics[f"{name}.incl_s"] = (median([s[i] for s in incl_s]), "s")
    for name, unit in DERIVED:
        metrics[name] = (derived[name], unit)
    metrics["trace.overhead_ratio"] = (median(traced_s) / median(plain), "ratio")
    notes = {
        "trace.overhead_ratio": f"{len(traced_s)} traced and untraced passes",
        "spans": f"{len(spans)} spans of the first traced pass in {trace_file.relative_to(ROOT)}",
    }
    return Outcome(metrics, notes, attempted, failed)


def fit_exponent(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweep() -> Outcome:
    """Phase times of each family over SWEEP sizes (median of SWEEP_REPS,
    untraced, at reference speed) and the fitted exponent of each phase."""
    from gen import FAMILIES
    from pvgr import Machine, anf_transform, parse_program, parse_type, type_config, type_expr
    from pvgr.ast import CProc

    clock = time.perf_counter
    speed = Speed()
    samples = []  # (family, size index, phase, start, seconds)
    attempted = failed = 0
    for family, sizes in SWEEP.items():
        for k, n in enumerate(sizes):
            for rep in range(SWEEP_REPS):
                text = FAMILIES[family](n, random.Random(rep))
                speed.tick(force=True)
                t0 = clock()
                prog = parse_program(text)
                t1 = clock()
                if prog.expr is not None:
                    expr = anf_transform(prog.expr)
                    t2 = clock()
                    type_expr((), parse_type("."), expr)
                    cfg = CProc(expr)
                else:
                    t2 = t1
                    type_config((), parse_type("."), prog.config)
                    cfg = prog.config
                t3 = clock()
                end = Machine(cfg, seed=rep + 1).run()
                t4 = clock()
                attempted += 1
                if end.kind != "final":
                    failed += 1
                    print(f"  FAIL sweep {family} {n}: ended {end.kind}", file=sys.stderr)
                for ph, (a, b) in {"parse": (t0, t1), "anf": (t1, t2), "check": (t2, t3), "run": (t3, t4)}.items():
                    samples.append((family, k, ph, a, b - a))
    speed.tick(force=True)
    metrics, notes = {}, {}
    for family, sizes in SWEEP.items():
        for ph in SWEEP_PHASES[family]:
            best = [
                median([speed.scaled(a, d) for f, j, p, a, d in samples if (f, j, p) == (family, k, ph)])
                for k in range(len(sizes))
            ]
            name = f"{family}.{ph}.exp"
            metrics[name] = (fit_exponent(sizes, best), "exponent")
            notes[name] = "ms at n=" + ", ".join(f"{n}: {t * 1000:.3g}" for n, t in zip(sizes, best))
    return Outcome(metrics, notes, attempted, failed)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def report(workload: str, oc: Outcome) -> None:
    print(f"== {workload}: {oc.attempted} operations, {oc.failed} failed")
    rows = sorted(oc.metrics.items(), key=lambda kv: (not kv[0].endswith(".self_s"), kv[0]))
    for name, (value, unit) in rows:
        note = oc.notes.get(name, "")
        print(f"  {name:<40} {value:>14.6g} {unit:<9} {note}")
    if "spans" in oc.notes:
        print(f"  {oc.notes['spans']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="pvgr benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        require_checkout()
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    metrics: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    try:
        for wl in names:
            if args.trace:
                oc = traced(wl, args.seed, args.seconds, workdir)
            else:
                oc = measure(wl, args.seed, args.seconds, workdir)
            report(wl, oc)
            prefix = f"{wl}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in oc.metrics.items()})
            attempted += oc.attempted
            failed += oc.failed
        if args.trace:
            sw = sweep()
            report("sweep", sw)
            metrics.update(sw.metrics)
            attempted += sw.attempted
            failed += sw.failed
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
