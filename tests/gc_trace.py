"""Show where the cyclic garbage collector runs during a benchmark run.

    python tests/gc_trace.py [--workload W] [--seed S] [--seconds T]

runs perfbench's end-to-end `measure` for one workload (default `hold`,
seed 1, 25 s) in this process, with a `gc.callbacks` hook that records
each collection and a wrapper around perfbench's `call_cli` that records
when each operation (`check` or `run`) started and ended. It changes no
file of perfbench. For each kind of operation it prints:

- how many operations ran;
- how many collections of each generation started inside one of them;
- of the slowest 1 % of them (wall-clock), how many hold a collection of
  any generation, and how many a gen-2 (full) collection.

Collections between operations, in perfbench's own loop, are counted on
a line of their own, followed by the workload's `check_ms.tail` and
`run_ms.tail`. A full collection walks every object alive, perfbench's
growing list of results included, so an operation that holds one is
among the slowest, and where they land sets the tail percentiles.

Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import shutil
import sys
import time
from bisect import bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  perfbench/run.py


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="hold", choices=bench.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    bench.require_checkout()

    collections: list[tuple[float, int]] = []  # (start, generation)
    ops: list[tuple[str, float, float]] = []  # (kind, start, end)

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            collections.append((time.perf_counter(), info["generation"]))

    call_cli = bench.call_cli

    def timed_call(argv: list[str]):
        start = time.perf_counter()
        try:
            return call_cli(argv)
        finally:
            ops.append((argv[0], start, time.perf_counter()))

    workdir = bench.WORK / f"gc-trace-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench.call_cli = timed_call
    gc.callbacks.append(on_gc)
    try:
        outcome = bench.measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        gc.callbacks.remove(on_gc)
        bench.call_cli = call_cli
        shutil.rmtree(workdir, ignore_errors=True)

    ops.sort(key=lambda op: op[1])
    starts = [op[1] for op in ops]
    held: dict[int, list[int]] = {}  # op index -> generations of the collections inside it
    outside = [0, 0, 0]
    for t, gen in collections:
        i = bisect_right(starts, t) - 1
        if i >= 0 and t <= ops[i][2]:
            held.setdefault(i, []).append(gen)
        else:
            outside[gen] += 1

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s: {len(ops)} operations, {len(collections)} collections")
    print(f"  {'op':<6} {'n':>6} {'gen0':>6} {'gen1':>6} {'gen2':>6}   slowest 1%: n, with any, with gen2")
    for kind in ("check", "run"):
        mine = [i for i, op in enumerate(ops) if op[0] == kind]
        if not mine:
            continue
        gens = [0, 0, 0]
        for i in mine:
            for gen in held.get(i, ()):
                gens[gen] += 1
        slow = sorted(mine, key=lambda i: ops[i][2] - ops[i][1], reverse=True)[: math.ceil(len(mine) / 100)]
        with_any = sum(1 for i in slow if i in held)
        with_full = sum(1 for i in slow if 2 in held.get(i, ()))
        print(
            f"  {kind:<6} {len(mine):>6} {gens[0]:>6} {gens[1]:>6} {gens[2]:>6}"
            f"   {len(slow):>4} {with_any:>4} {with_full:>4}"
        )
    print(f"  {'between':<6} {'':>6} {outside[0]:>6} {outside[1]:>6} {outside[2]:>6}")
    for name in ("check_ms.tail", "run_ms.tail"):
        if name in outcome.metrics:
            print(f"  {name} = {outcome.metrics[name][0]:.4g} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
