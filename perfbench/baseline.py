"""Run the benchmark over several seeds and record the medians.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1-3 \
        --seconds 25 --out perfbench/baseline.json

Each run is a separate `perfbench/run.py` process, as the benchmark is run
for comparisons. For every workload and metric the output holds the median
over the seeds, the quartile spread (upper minus lower quartile, over the
median) and every value; it also records the line count of `src/`.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run


def seeds(spec: str) -> list[int]:
    """`3` or `1-10`; an empty string is no seeds."""
    if not spec:
        return []
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: {result['failed']} failed operations\n{proc.stderr}")
    return result


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        entry = {"median": med, "unit": results[0]["metrics"][name]["unit"], "values": values}
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["spread"] = (q3 - q1) / abs(med)
        out[name] = entry
    return out


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(run.SRC.rglob("*.py")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="1-3")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    record = {
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "trace_seeds": args.trace_seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for wl in run.WORKLOADS:
        for trace, key, spec in ((0, "end_to_end", args.seeds), (1, "per_layer", args.trace_seeds)):
            if not seeds(spec):
                continue
            results = [one(wl, s, args.seconds, trace) for s in seeds(spec)]
            record[key][wl] = summarize(results)
            for name, e in record[key][wl].items():
                if trace == 0:
                    print(f"{wl:7} {name:28} median {e['median']:12.6g} spread {e.get('spread', 0):.3f}",
                          flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
