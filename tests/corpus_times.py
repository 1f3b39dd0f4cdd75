"""Time `pvgr check` of each corpus program in two checkouts.

    python tests/corpus_times.py OLD NEW [--rounds N] [--reps R]

starts one fresh interpreter per checkout and round, taking turns between
the checkouts OLD and NEW (the order flips each round). Each interpreter
imports `pvgr.cli` from its checkout's `src/`, checks every program of
this script's own `corpus/` once to warm up, and then times R calls of
`pvgr.cli.main(["check", F])` per program F, in turns over the programs;
it reports each program's median. The script prints, for each program,
the median and quartiles in ms of those per-round medians on each side,
the change, and in how many rounds NEW was faster; then the slowest
program on each side, which sets perfbench's corpus `check_ms.tail`.

Pytest does not collect this file. The default 10 rounds of 20 calls take
about ten seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = sorted(str(p) for p in (ROOT / "corpus").glob("*.pvgr"))
CHILD = """
import contextlib, io, json, statistics, sys, time
import pvgr.cli
programs, reps = {programs!r}, {reps!r}
sink = io.StringIO()
times = {{p: [] for p in programs}}
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    for p in programs:
        pvgr.cli.main(["check", p])
    for _ in range(reps):
        for p in programs:
            t = time.perf_counter()
            pvgr.cli.main(["check", p])
            times[p].append(time.perf_counter() - t)
            sink.seek(0)
            sink.truncate()
print(json.dumps({{p: statistics.median(ts) * 1000 for p, ts in times.items()}}))
"""


def _times(checkout: Path, reps: int) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(programs=PROGRAMS, reps=reps)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"timing {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _summary(xs: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], None, xs[0])
    return f"{statistics.median(xs):7.3f} [{q1:6.3f}-{q3:6.3f}]"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="check times of each corpus program in two checkouts")
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--reps", type=int, default=20)
    args = ap.parse_args(argv)
    checkouts = {"old": args.old.resolve(), "new": args.new.resolve()}
    rounds: dict[str, list[dict[str, float]]] = {"old": [], "new": []}
    for r in range(args.rounds):
        for tag in ("old", "new") if r % 2 == 0 else ("new", "old"):
            rounds[tag].append(_times(checkouts[tag], args.reps))
    print(f"check ms, median [quartiles] over {args.rounds} fresh interpreters, each the median of {args.reps} calls")
    print(f"{'program':<24} {'old':>24} {'new':>24} {'change':>8} {'new won':>8}")
    medians: dict[str, dict[str, float]] = {"old": {}, "new": {}}
    for p in PROGRAMS:
        old, new = ([run[p] for run in rounds[tag]] for tag in ("old", "new"))
        medians["old"][p], medians["new"][p] = statistics.median(old), statistics.median(new)
        change = medians["new"][p] / medians["old"][p] - 1
        won = sum(n < o for o, n in zip(old, new))
        print(f"{Path(p).stem:<24} {_summary(old):>24} {_summary(new):>24} {change:>+8.1%} {won:>4}/{args.rounds}")
    for tag in ("old", "new"):
        slowest = max(medians[tag], key=medians[tag].get)
        print(f"slowest on {tag}: {Path(slowest).stem} ({medians[tag][slowest]:.3f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
