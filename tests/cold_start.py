"""Time the cold start of the `pvgr` command in two checkouts.

    python tests/cold_start.py OLD NEW [--rounds N]

starts one fresh interpreter per measurement, taking turns between the
checkouts OLD and NEW (the order flips each round), and prints, for each
checkout, the median and quartiles in ms of three probes:

- `import`: `import pvgr.cli`;
- `check`: that import and a first `pvgr.cli.main(["check", F])`;
- `check+run`: that import, a first `check` of F and a first `run` of F;

where F is `corpus/client_server.pvgr` of this script's own checkout. A
probe is timed inside its interpreter, from before the import to after
the last call, as perfbench's `setup_s` times the import; interpreter
start-up is left out. It also prints how many rounds NEW won.

Each probe is measured twice:

- `no cache`: with `PYTHONDONTWRITEBYTECODE=1`, on a copy of each
  checkout's `src/pvgr` that holds no `__pycache__`, so that every pvgr
  module is compiled from source, as in a fresh checkout;
- `cache`: with a bytecode cache under a temporary `PYTHONPYCACHEPREFIX`
  of each checkout's own, filled by one untimed run, and with
  `PYTHONDONTWRITEBYTECODE` unset.

Pytest does not collect this file. The default 20 rounds take about a
minute.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = str(ROOT / "corpus" / "client_server.pvgr")
PROBES = {
    "import": [],
    "check": [["check", PROGRAM]],
    "check+run": [["check", PROGRAM], ["run", PROGRAM]],
}
CHILD = """
import io, sys, time
out, sys.stdout = sys.stdout, io.StringIO()
t = time.perf_counter()
import pvgr.cli
for argv in {argvs!r}:
    pvgr.cli.main(argv)
dt = time.perf_counter() - t
sys.stdout = out
print(dt)
"""


def _time(argvs: list[list[str]], env: dict[str, str]) -> float:
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(argvs=argvs)], env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise SystemExit(f"probe failed:\n{done.stderr}")
    return float(done.stdout) * 1000


def _envs(checkout: Path, work: Path, tag: str) -> dict[str, dict[str, str]]:
    """The environment of each mode for one checkout, its source copied
    under work."""
    src = work / tag / "src"
    shutil.copytree(checkout / "src" / "pvgr", src / "pvgr", ignore=shutil.ignore_patterns("__pycache__"))
    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    base["PYTHONPATH"] = str(src)
    return {
        "no cache": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
        "cache": {**base, "PYTHONPYCACHEPREFIX": str(work / tag / "pycache")},
    }


def _summary(xs: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"{statistics.median(xs):7.1f} [{q1:6.1f}-{q3:6.1f}]"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="cold-start times of pvgr in two checkouts")
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        envs = {tag: _envs(path.resolve(), Path(tmp), tag) for tag, path in (("old", args.old), ("new", args.new))}
        for tag in envs:
            _time(PROBES["check+run"], envs[tag]["cache"])  # fills the cache
        times = {(tag, mode, probe): [] for tag in envs for mode in envs[tag] for probe in PROBES}
        for r in range(args.rounds):
            order = ("old", "new") if r % 2 == 0 else ("new", "old")
            for mode in ("no cache", "cache"):
                for probe, argvs in PROBES.items():
                    for tag in order:
                        times[tag, mode, probe].append(_time(argvs, envs[tag][mode]))
    print(f"ms, median [quartiles] over {args.rounds} fresh interpreters each")
    print(f"{'mode':<9} {'probe':<10} {'old':>22} {'new':>22} {'change':>8} {'new won':>8}")
    for mode in ("no cache", "cache"):
        for probe in PROBES:
            old, new = times["old", mode, probe], times["new", mode, probe]
            change = statistics.median(new) / statistics.median(old) - 1
            won = sum(n < o for o, n in zip(old, new))
            print(
                f"{mode:<9} {probe:<10} {_summary(old):>22} {_summary(new):>22} {change:>+8.1%}"
                f" {won:>4}/{args.rounds}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
