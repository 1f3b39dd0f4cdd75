"""Self-test of the benchmark's generators and output checks.

    python3 perfbench/selftest.py

For every family and every size the benchmark uses (the workload size and
the traced sweep), and for several seeds, the generated program must pass
`pvgr check` and `pvgr run` must end `final` with the expected values and
the same step count for every seed. The output checks must also reject
wrong answers. Exits 0 when all of this holds.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (1, 2, 3)


def check_family(family: str, n: int, tmp: Path) -> list[str]:
    from gen import FAMILIES, final_procs

    errors = []
    steps = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        path = tmp / f"{family}{n}-{seed}.pvgr"
        path.write_text(FAMILIES[family](n, rng), encoding="utf-8")
        checked = run.call_cli(["check", str(path)])
        if checked.crash or checked.rc != 0:
            errors.append(f"{family} {n} seed {seed}: check rc={checked.rc} {checked.crash} {checked.err}")
            continue
        sched = rng.randrange(1, 2**31)
        ran = run.call_cli(["run", str(path), "--seed", str(sched)])
        head, _, values = ran.out.strip().partition(": ")
        if ran.crash or ran.rc != 0 or not head.startswith("final after "):
            errors.append(f"{family} {n} seed {seed}: run rc={ran.rc} {ran.crash} {ran.out[:200]}")
            continue
        if values.split(" | ") != ["()"] * final_procs(family, n):
            errors.append(f"{family} {n} seed {seed}: unexpected final values {values[:200]}")
        steps.add(int(head.split()[2]))
    if len(steps) > 1:
        errors.append(f"{family} {n}: step count depends on the seed: {sorted(steps)}")
    print(f"{family:6} n={n:<3} steps={sorted(steps)}")
    return errors


def check_verifier() -> list[str]:
    """The output checks accept the right answers and reject wrong ones."""
    errors = []
    verifier = run.Verifier()
    corpus = {p.name: p for p in run.load_corpus()}
    acc, send0 = corpus["acc.pvgr"], corpus["send0.pvgr"]
    ok = run.Result(0, f"ex: .\npost: .\ntype: {acc.want_type_src}\n", "", 0.0)
    wrong = run.Result(0, f"ex: .\npost: .\ntype: {send0.want_type_src}\n", "", 0.0)
    if not verifier.check_ok(acc, ok):
        errors.append("verifier rejects acc.pvgr's own sidecar type")
    if verifier.check_ok(acc, wrong):
        errors.append("verifier accepts send0.pvgr's type for acc.pvgr")
    deadlock = run.Program("d", Path("d.pvgr"), 1, outcome="deadlock")
    final = run.Program("f", Path("f.pvgr"), 1, outcome="final", final_procs=2)
    if run.Verifier.run_ok(final, run.Result(3, "deadlock after 2 steps: request on p\n", "", 0.0)):
        errors.append("verifier accepts a deadlock for a final program")
    if run.Verifier.run_ok(final, run.Result(0, "final after 9 steps: ()\n", "", 0.0)):
        errors.append("verifier accepts the wrong number of final values")
    if not run.Verifier.run_ok(deadlock, run.Result(3, "deadlock after 2 steps: request on p\n", "", 0.0)):
        errors.append("verifier rejects an expected deadlock")
    return errors


def main() -> int:
    try:
        run.require_checkout()
    except run.SetupError as e:
        print(f"selftest: {e}", file=sys.stderr)
        return 2
    errors = check_verifier()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for family, sweep in run.SWEEP.items():
            for n in sorted(set(sweep) | {run.SIZES[family]}):
                errors += check_family(family, n, Path(tmp))
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
